//! Deterministic memory pins for the one-copy rule: a weight payload is
//! written once, then shared and immutable, so loading, caching, staging and
//! preloading a shard — and building another server over the same task —
//! allocate handles, not copies; and a context's store is on flash, so the
//! process holds an index to the quantised model, never the model.
//! `peak_rss_mb` shows the same thing end to end but only through the
//! benchmark; these pins count heap bytes directly and compare payload
//! addresses, so they repeat exactly on any machine.
//!
//! The counts are process-wide, and they are exact because nothing else
//! runs: this target has no libtest harness (`harness = false` in the root
//! manifest), and its `main` runs the pins one after another on one thread.
//! The only other threads are the workers of `parallel_map` that the code
//! under test spawns, and one pin tells them apart from their caller.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write;
use std::panic::catch_unwind;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use sti::prelude::*;
use sti::TaskContext;
use sti_tensor::parallel::{parallel_map_scratch, parallel_update_scratch};
use sti_tensor::Matrix;
use sti_transformer::{ForwardScratch, ReadScratch, ShardWeights};

/// The system allocator, counting every block and byte it is asked for,
/// every block and byte still held, and the most bytes ever held at once.
struct Counting;

static REQUESTS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static HELD: AtomicI64 = AtomicI64::new(0);
static HIGH_WATER: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// The blocks this thread requested: the one count that tells the
    /// workers of `parallel_map` apart from the thread that spawned them.
    static THREAD_REQUESTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request of `bytes` that leaves `blocks` more blocks and
/// `held` more bytes allocated.
fn count(bytes: usize, blocks: i64, held: i64) {
    REQUESTS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE.fetch_add(blocks, Ordering::Relaxed);
    let now = HELD.fetch_add(held, Ordering::Relaxed) + held;
    HIGH_WATER.fetch_max(now, Ordering::Relaxed);
    // A const-initialised `Cell` has no destructor, so this never fails;
    // ignoring the result keeps the allocator panic-free regardless.
    let _ = THREAD_REQUESTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1, layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1, layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    /// A realloc is a request, and counts its new size in full: it may
    /// move the block.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, 0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live block of this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        HELD.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What some work did to the process's heap.
struct HeapUse {
    /// Blocks requested (a realloc is a request).
    requests: u64,
    /// Bytes requested, transients included (a realloc counts in full).
    requested: u64,
    /// Blocks the work left allocated.
    live: i64,
    /// Bytes the work left allocated.
    held: i64,
    /// The most bytes held at once during the work, above what was held
    /// when it started.
    high_water: i64,
}

/// Runs `work` and returns what it did to the process's heap. Windows nest:
/// an inner one hands its peak on to the one around it.
fn heap_across<T>(work: impl FnOnce() -> T) -> (T, HeapUse) {
    let (requests, requested) =
        (REQUESTS.load(Ordering::Relaxed), REQUESTED.load(Ordering::Relaxed));
    let (live, held) = (LIVE.load(Ordering::Relaxed), HELD.load(Ordering::Relaxed));
    let outer_peak = HIGH_WATER.swap(held, Ordering::Relaxed);
    let out = work();
    let peak = HIGH_WATER.fetch_max(outer_peak, Ordering::Relaxed);
    let heap = HeapUse {
        requests: REQUESTS.load(Ordering::Relaxed) - requests,
        requested: REQUESTED.load(Ordering::Relaxed) - requested,
        live: LIVE.load(Ordering::Relaxed) - live,
        held: HELD.load(Ordering::Relaxed) - held,
        high_water: peak - held,
    };
    (out, heap)
}

/// Heap blocks requested across `work` by threads other than this one:
/// every request, less this thread's own.
fn other_threads_requests_across<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let mine = THREAD_REQUESTS.with(Cell::get);
    let (out, heap) = heap_across(work);
    (out, heap.requests - (THREAD_REQUESTS.with(Cell::get) - mine))
}

/// Names each pin beside its function, in the order given.
macro_rules! pins {
    ($($pin:ident),* $(,)?) => {
        [$((stringify!($pin), $pin as fn())),*]
    };
}

/// Runs every pin in file order on this thread, each under `catch_unwind`
/// so that one failure does not hide the rest, and reports them the way
/// libtest does; the exit status is a failure if any pin failed. The flags
/// cargo passes to a test binary (`-q`, `--test-threads`, a name filter)
/// are ignored, except that `--list` names the pins and runs none.
fn main() -> ExitCode {
    let pins = pins![
        set_ups_counted_work_is_the_work_ledgers,
        a_thousand_loads_and_a_thousand_warm_hits_allocate_handles_not_payloads,
        a_contexts_model_holds_only_residents,
        the_contexts_store_keeps_an_index_not_the_model,
        a_contexts_build_holds_one_layer_of_fp32_shards_at_most,
        a_thousand_flash_loads_request_what_they_return_and_keep_nothing,
        a_cold_load_keeps_one_body_and_its_count_block,
        a_warm_cache_hit_over_the_flash_store_returns_the_cached_payload,
        a_second_cache_over_one_store_fills_from_the_payloads_the_first_holds,
        profiling_never_holds_the_decoded_floor_grid,
        set_ups_worker_threads_request_no_heap_block,
        a_second_server_on_one_context_does_not_copy_the_model,
        building_and_dropping_a_multi_channel_server_keeps_nothing,
        a_bare_replay_does_not_assemble_the_span_stream,
        reading_the_prefetch_totals_requests_no_more_for_a_longer_speculative_log,
        a_warm_engagement_requests_less_than_one_decoded_layer,
        a_contention_report_replays_the_dispatch_log_in_place,
        an_engagement_holds_one_streamed_layer_at_a_time,
        slo_session_churn_leaves_no_heap_behind_per_search,
        knob_churn_keeps_only_the_plan_in_use,
        an_open_fleet_holds_only_what_its_sessions_do_not_share,
        session_churn_at_a_steady_fleet_size_keeps_the_fresh_fleets_heap,
        an_unbatched_prediction_folds_the_channel_queues_instead_of_simulating_the_fleet,
        a_batched_prediction_folds_the_channel_queues_instead_of_simulating_the_fleet,
        every_hop_hands_on_the_stores_one_payload,
        a_parsed_trace_holds_five_blocks_whatever_its_client_count,
        a_parsed_trace_holds_a_repeated_row_once,
        parsing_a_trace_requests_one_block_per_engagement,
        the_instrument_hot_paths_request_no_heap_block,
    ];
    if std::env::args().any(|arg| arg == "--list") {
        for (name, _) in pins {
            println!("{name}: test");
        }
        return ExitCode::SUCCESS;
    }
    println!("\nrunning {} tests", pins.len());
    let mut failed = 0;
    for (name, pin) in pins {
        print!("test {name} ... ");
        // Flushed first, so a pin that aborts the process is named.
        std::io::stdout().flush().expect("stdout is writable");
        let passed = catch_unwind(pin).is_ok();
        println!("{}", if passed { "ok" } else { "FAILED" });
        failed += usize::from(!passed);
    }
    let (verdict, status) =
        if failed == 0 { ("ok", ExitCode::SUCCESS) } else { ("FAILED", ExitCode::FAILURE) };
    println!(
        "\ntest result: {verdict}. {} passed; {failed} failed; 0 ignored; 0 measured; \
         0 filtered out\n",
        pins.len() - failed
    );
    status
}

const KIB: u64 = 1024;

/// Heap bytes a read scratch holds.
fn scratch_bytes(scratch: &ReadScratch) -> i64 {
    (scratch.record.capacity() + scratch.staging.capacity() * std::mem::size_of::<f32>()) as i64
}

/// A task at the shipped scale (1.98 MiB of FP32 shard weights) with a flat
/// importance profile injected, so no pin pays for profiling.
fn scaled_context() -> TaskContext {
    let cfg = ModelConfig::scaled_bert();
    let ctx = TaskContext::with_config(TaskKind::Sst2, cfg.clone());
    let scores = (0..cfg.total_shards()).map(|i| 0.5 + i as f64 * 1e-3).collect();
    assert!(ctx.set_importance(ImportanceProfile::from_scores(cfg.layers, cfg.heads, scores, 0.4)));
    ctx
}

fn all_keys(cfg: &ModelConfig) -> Vec<ShardKey> {
    let ids = cfg.shard_ids();
    ids.flat_map(|id| Bitwidth::ALL.map(|bw| ShardKey::new(id, bw))).collect()
}

/// One row of the work ledger, `BENCH_work.json`: what one set-up step or
/// one replay did to the heap, as named integer counts, with the terms
/// that depend on the machine taken out.
struct WorkRow {
    name: String,
    counts: Vec<(&'static str, i64)>,
}

impl WorkRow {
    /// A set-up step's row: the blocks and bytes it requested (a realloc
    /// is a request, transients included), the bytes still held once it
    /// returned (its result included), and the most held at once.
    fn set_up(name: &str, blocks: u64, requested: u64, held: i64, high_water: i64) -> Self {
        let counts = vec![
            ("blocks", blocks as i64),
            ("requested_bytes", requested as i64),
            ("held_bytes", held),
            ("high_water_bytes", high_water),
        ];
        Self { name: name.to_string(), counts }
    }

    fn line(&self) -> String {
        let counts: String = self.counts.iter().map(|(k, v)| format!(", \"{k}\": {v}")).collect();
        format!("    {{\"name\": \"{}\"{counts}}}", self.name)
    }
}

/// `--channels 4 --backpressure queue --max-queue-ms 2000 --batch-window
/// 500 --prefetch markov` on top of the defaults, as `serving_golden` runs.
fn stacked_flags() -> ServeConfig {
    ServeConfig {
        channels: 4,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(2_000)),
        batch_window: Some(SimTime::from_us(500)),
        prefetch: PrefetchConfig::markov(64 << 10),
        ..Default::default()
    }
}

/// `--admission enforce --backpressure shed --plan-sharing mix --dram-hits
/// 1 --shard-cache-kb 1 --channels 2 --batch-window 500` on top of the
/// defaults: the knobs the other two leave at their defaults, as
/// `serving_golden` runs.
fn residual_flags() -> ServeConfig {
    ServeConfig {
        admission: AdmissionMode::Enforce,
        backpressure: BackpressureMode::Shed,
        plan_sharing: PreloadPolicy::SharingAware,
        dram_residency: true,
        shard_cache_bytes: 1 << 10,
        channels: 2,
        batch_window: Some(SimTime::from_us(500)),
        ..Default::default()
    }
}

/// The replay rows of the work ledger: each shipped fixture under the
/// default, the stacked and the residual flags, on the tiny model the
/// goldens replay on,
/// in two rounds on one fresh context (its importance profile computed
/// first): the cold round is the context's first server and replay, the
/// warm one its second. Per round, the blocks and bytes the bare event
/// replay requested per engagement (rounded down), the bytes it held once
/// it returned its report, the bytes the round left on the context once
/// the report and the server dropped (server build included), and the
/// replay's heap high-water.
fn replay_rows() -> Vec<WorkRow> {
    let mut rows = Vec::new();
    for fixture in ["smoke", "burst", "mix", "recurrent"] {
        let trace =
            load_trace(format!("examples/traces/{fixture}.json")).expect("shipped example parses");
        let engagements = trace.total_engagements() as u64;
        let configs = [
            ("default", ServeConfig::default()),
            ("stacked", stacked_flags()),
            ("residual", residual_flags()),
        ];
        for (config, serve) in configs {
            let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
            ctx.importance();
            for round in ["cold", "warm"] {
                let (replay, round_use) = heap_across(|| {
                    let server = build_server(&ctx, &serve);
                    let (report, replay) = heap_across(|| replay_event(&server, &trace).unwrap());
                    drop((report, server));
                    replay
                });
                let counts = vec![
                    ("blocks_per_engagement", (replay.requests / engagements) as i64),
                    ("requested_bytes_per_engagement", (replay.requested / engagements) as i64),
                    ("held_after_report_bytes", replay.held),
                    ("held_after_drop_bytes", round_use.held),
                    ("high_water_bytes", replay.high_water),
                ];
                rows.push(WorkRow { name: format!("replay_{fixture}_{config}_{round}"), counts });
            }
        }
    }
    rows
}

/// Where the work ledger lives: the root of the repository.
const WORK_LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_work.json");

/// Set-up's counted work at the benchmark's shape, and each shipped
/// fixture's replay ([`replay_rows`]), against the work ledger
/// `BENCH_work.json`: the context build (`TaskContext::with_config` at
/// `scaled_bert()`), the importance profile on the first 8 dev examples of
/// its task, and `build_server` with the default configuration over that
/// context. With `STI_BLESS_WORK=1` in the environment the pin writes the
/// ledger instead, whole; otherwise it names every row that differs, so a
/// change that moves set-up's work says which step moved.
///
/// A row is the same in every process, in debug and release builds and on
/// any core count, because what depends on the machine is measured in the
/// same process and taken out:
/// - the parallel sections: the build's one per layer (the teacher's
///   labelling pass) and the profile's one, each measured as a section of
///   the same shape that does no work (its threads, results and per-worker
///   scratch: the forward scratch for the teacher, and for a probe its
///   decoded layer and flat buffer, upgrade slot, read scratch, hidden
///   states and forward scratch); the build's high-water takes out the
///   larger of a section and the read scratch the layer is read through,
///   as `a_contexts_build_holds_one_layer_of_fp32_shards_at_most` does;
/// - the store's directory path (its length `L`, and `T` of the temp dir
///   it is under): the build requests the temp dir's path (`T` bytes), the
///   store's directory path (`L`), the copy `ShardStore::create` keeps
///   (`L`) and the one buffer it builds every file path in (`L` and a file
///   name's room), and keeps one path of `L` bytes.
///
/// The replay rows have no such term: their context's importance profile
/// is computed before the rounds, and its store keeps the file handles it
/// wrote through, so no parallel section and no path falls inside them.
fn set_ups_counted_work_is_the_work_ledgers() {
    let cfg = ModelConfig::scaled_bert();
    let quant = QuantConfig::default();
    let (ctx, build) = heap_across(|| TaskContext::with_config(TaskKind::Sst2, cfg.clone()));
    let dir = ctx.shard_store_dir();
    let path = dir.as_os_str().len() as i64;
    let temp = dir.parent().expect("a store directory has a parent").as_os_str().len() as i64;
    let model = ctx.task().model();
    let read = scratch_bytes(&model.read_scratch());
    let mut items = vec![(); Task::DEFAULT_DEV + Task::DEFAULT_TEST];
    let (_, section) = heap_across(|| {
        parallel_update_scratch(&mut items, || ForwardScratch::new(&cfg), |_, _, ()| ())
    });
    let layers = cfg.layers as u64;
    let context = WorkRow::set_up(
        "task_context_with_config_sst2_scaled_bert",
        build.requests - layers * section.requests,
        build.requested - layers * section.requested - (temp + 3 * path) as u64,
        build.held - path,
        build.high_water - path - read.max(section.high_water),
    );

    let dev = Dataset::new(ctx.task().dev().examples()[..8].to_vec());
    let (profile, probes) = heap_across(|| profile_importance(model, &dev, &quant));
    let probe_scratch = || {
        let layer: Vec<ShardWeights> = (0..cfg.heads).map(|_| ShardWeights::zeros(&cfg)).collect();
        let states: Vec<Matrix> =
            (0..dev.len()).map(|_| Matrix::zeros(cfg.seq_len, cfg.hidden)).collect();
        let flat = vec![0.0f32; cfg.shard_param_count()];
        (
            layer,
            flat,
            ShardWeights::zeros(&cfg),
            model.read_scratch(),
            states,
            ForwardScratch::new(&cfg),
        )
    };
    let (_, section) =
        heap_across(|| parallel_map_scratch(cfg.total_shards(), probe_scratch, |_, _| 0.0f64));
    let profile_row = WorkRow::set_up(
        "profile_importance_8_dev_examples",
        probes.requests - section.requests,
        probes.requested - section.requested,
        probes.held,
        probes.high_water - section.high_water,
    );
    assert!(ctx.set_importance(profile));

    let (server, serve) = heap_across(|| build_server(&ctx, &ServeConfig::default()));
    let server_row = WorkRow::set_up(
        "build_server_default_config",
        serve.requests,
        serve.requested,
        serve.held,
        serve.high_water,
    );
    drop((server, ctx));

    let mut rows = vec![context, profile_row, server_row];
    rows.extend(replay_rows());
    let lines: Vec<String> = rows.iter().map(WorkRow::line).collect();
    if std::env::var_os("STI_BLESS_WORK").is_some_and(|v| v == "1") {
        let ledger = format!(
            "{{\n  \"about\": \"Set-up's counted heap work at scaled_bert(), and each shipped \
             fixture's replay on tiny() per config and round, written by tests/memory_sharing.rs \
             under STI_BLESS_WORK=1 and compared by it otherwise; machine-dependent terms \
             (worker count, temp-dir path) are taken out.\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            lines.join(",\n")
        );
        std::fs::write(WORK_LEDGER, ledger).expect("the work ledger is writable");
        return;
    }
    let ledger = std::fs::read_to_string(WORK_LEDGER).expect("BENCH_work.json is checked in");
    let recorded: Vec<&str> = ledger
        .lines()
        .map(|line| line.trim_end_matches(','))
        .filter(|l| l.contains("\"name\""))
        .collect();
    let moved: Vec<String> = rows
        .iter()
        .zip(&lines)
        .filter(|(_, line)| !recorded.contains(&line.as_str()))
        .map(|(row, line)| format!("{}: measured {}", row.name, line.trim()))
        .collect();
    assert!(
        moved.is_empty() && recorded.len() == rows.len(),
        "set-up's counted work differs from BENCH_work.json (re-record it with \
         STI_BLESS_WORK=1 and name the rows that moved):\n{}",
        moved.join("\n")
    );
}

fn a_thousand_loads_and_a_thousand_warm_hits_allocate_handles_not_payloads() {
    // The cache holds every payload, so a load from the store hands out
    // the one its weak index finds: the pin is about what a holder of the
    // payload hands out, from the store and from the cache alike.
    let model = Model::synthetic(11, ModelConfig::scaled_bert());
    let store = ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default()).unwrap();
    let keys = all_keys(model.config());
    let cache = ShardCache::new(64 << 20);
    for &key in &keys {
        cache.get_or_load(&store, key).unwrap();
    }
    assert_eq!(cache.len(), keys.len(), "every key is resident before the hits are counted");

    let (payload_bytes, HeapUse { requested, .. }) = heap_across(|| {
        let mut payload_bytes = 0u64;
        for &key in keys.iter().cycle().take(1000) {
            payload_bytes += store.load(key).unwrap().byte_size() as u64;
        }
        for &key in keys.iter().cycle().take(1000) {
            payload_bytes += cache.get_or_load(&store, key).unwrap().byte_size() as u64;
        }
        payload_bytes
    });
    assert_eq!(cache.stats().hits, 1000);
    assert!(payload_bytes > 4 << 20, "the loop handed out {payload_bytes} payload bytes");
    assert!(
        requested < 64 * KIB,
        "2000 loads handed out {payload_bytes} payload bytes and allocated {requested}"
    );
}

/// What a context keeps once built at the shipped scale: the teacher's
/// residents (the embedding, layer norms, biases and classifier), the
/// task's splits, and the store's index and directory name: 193 538 B. It
/// used to keep the synthesised FP32 grid as well: 2 290 458 B beside the
/// name with its store built, 2 073 600 B of them shard weights. No grid is
/// built any more: the store is written from the teacher's seeds, keeping
/// the handle of each layer file it writes, and the labelling then reads
/// each shard from the store's full-fidelity records. A kept file handle is
/// a descriptor, not heap. The count was 193 530 B while the context
/// wrapped its store in a type of its own; the store now carries whether
/// it owns its directory itself, one flag, 8 B with its padding. It is
/// exact but for the directory name, whose length depends on the temp dir
/// and the pid.
fn a_contexts_model_holds_only_residents() {
    const HELD_BESIDE_THE_DIRECTORY_NAME: i64 = 193_538;
    let cfg = ModelConfig::scaled_bert();
    let (ctx, HeapUse { held, .. }) =
        heap_across(|| TaskContext::with_config(TaskKind::Sst2, cfg.clone()));
    let name = ctx.shard_store_dir().as_os_str().len() as i64;
    assert_eq!(
        held - name,
        HELD_BESIDE_THE_DIRECTORY_NAME,
        "a context keeps {held} heap bytes, {name} of them its store's directory name"
    );
    assert!(held < 512 * KIB as i64, "a context keeps {held} heap bytes");
    let model = ctx.task().model();
    assert!(model.resident_byte_size() < held as usize, "the residents are among them");
    assert!(model.sharded_byte_size() > 1900 * KIB as usize, "the pin is about a 2 MiB model");
}

/// A context's build writes its store at once, and what the store keeps is
/// its manifest and one file slot per (layer, bitwidth) and payload slot
/// per key: quantising and writing are transients, and neither the model
/// nor a copy of its weights stays. Measured as what a context keeps
/// beyond a bare task of the same shape, whose teacher keeps its
/// residents and its shards' seeds and no weight: 20 646 B beside the
/// directory name (20 638 B before the store carried its directory flag). A context keeping the model's weights would keep about
/// 2 MiB more here.
fn the_contexts_store_keeps_an_index_not_the_model() {
    let cfg = ModelConfig::scaled_bert();
    let (task, HeapUse { held: task_held, .. }) =
        heap_across(|| Task::build_default(TaskKind::Sst2, cfg.clone()));
    let shard_weights = task.model().sharded_byte_size() as i64;
    assert!(shard_weights > 1900 * KIB as i64, "the pin is about a 2 MiB model at six bitwidths");
    drop(task);
    let (ctx, HeapUse { held: ctx_held, .. }) =
        heap_across(|| TaskContext::with_config(TaskKind::Sst2, cfg.clone()));
    let kept = ctx_held - task_held;
    assert!(
        kept < 256 * KIB as i64,
        "a store over {shard_weights} bytes of shard weights keeps {kept} heap bytes \
         (a bare task keeps {task_held}, the context {ctx_held})"
    );
    let store = ctx.shard_source();
    assert!(store.load(ShardKey::new(ShardId::new(0, 0), Bitwidth::B2)).is_ok());
}

/// The most heap a context's build holds at once at the shipped scale.
/// The build writes the store from the teacher's seeds, one layer of
/// shards at a time, and then labels both splits in one layer-major pass:
/// one layer of FP32 shards read from the store (172 800 B), one padded
/// hidden state per example of both splits (160 × 2 880 B), what the
/// context keeps (the residents, the splits and the store's index), and, on
/// top, either the scratch the layer is read through (one record and one
/// Q/K/V staging, 18 028 B, which the reads reuse, so a read allocates
/// nothing) or the parallel section of a layer (its workers' forward
/// scratch and threads: 25 112 B on two cores), whichever is larger, and
/// the per-example bookkeeping. The pin subtracts the larger of the read
/// scratch and a section, which depends on the core count, measured in the
/// same process: what is left is exact, 840 634 B beside the directory name
/// on one core and on two, and 865 746 B in all on two cores. It was
/// 840 626 B while every read allocated its own record and staging (144
/// pairs per build) and the context wrapped its store in a type of its own
/// (8 B less). `Task::build` used to reach 2 299 964 B here, with the whole
/// grid synthesised first.
fn a_contexts_build_holds_one_layer_of_fp32_shards_at_most() {
    let cfg = ModelConfig::scaled_bert();
    let (ctx, HeapUse { held, high_water, .. }) =
        heap_across(|| TaskContext::with_config(TaskKind::Sst2, cfg.clone()));
    let name = ctx.shard_store_dir().as_os_str().len() as i64;
    let model = ctx.task().model();
    let read = scratch_bytes(&model.read_scratch());
    let mut items = vec![(); Task::DEFAULT_DEV + Task::DEFAULT_TEST];
    let scratch = || ForwardScratch::new(&cfg);
    let (_, HeapUse { high_water: section, .. }) =
        heap_across(|| parallel_update_scratch(&mut items, scratch, |_, _, ()| ()));
    let layer = cfg.layer_fp32_bytes() as i64;
    let examples = (Task::DEFAULT_DEV + Task::DEFAULT_TEST) as i64;
    let states = examples * (cfg.seq_len * cfg.hidden * 4) as i64;
    let residents = model.resident_byte_size() as i64;
    assert_eq!((layer, states, read), (172_800, 460_800, 18_028));
    // Per example, a hidden state's matrix header, its input's token
    // slice and its drawn (tokens, flip) pair: 40 + 16 + 40 B, under 128 B.
    let bookkeeping = examples * 128;
    let sum = layer + states + held + read.max(section) + bookkeeping;
    assert!(high_water < sum, "high-water {high_water} B, over {sum} B");
    assert_eq!(
        high_water - name - read.max(section),
        840_634,
        "a context build's heap high-water, less the read scratch's {read} B or a parallel \
         section's {section} B; {held} B kept, {residents} B of residents"
    );
}

fn a_thousand_flash_loads_request_what_they_return_and_keep_nothing() {
    let ctx = scaled_context();
    let store = ctx.shard_source();
    let keys = all_keys(ctx.task().model().config());
    // Open every layer file first: handles are kept, by design.
    for &key in &keys {
        store.load(key).unwrap();
    }
    let (payload_bytes, HeapUse { requested, held: kept, .. }) = heap_across(|| {
        let mut payload_bytes = 0u64;
        for &key in keys.iter().cycle().take(1000) {
            payload_bytes += store.load(key).unwrap().byte_size() as u64;
        }
        payload_bytes
    });
    assert!(payload_bytes > 2 << 20, "the loop read {payload_bytes} payload bytes");
    // A load allocates the record it reads, one copy of the record's body
    // and the body's count block.
    assert!(
        requested >= payload_bytes && requested < 2 * payload_bytes + 1000 * 256,
        "1000 loads returned {payload_bytes} payload bytes and requested {requested}"
    );
    // Nothing stays. The count may even fall: a load publishes into the
    // store's weak payload index, which sweeps slots whose payload died.
    assert!(kept <= 0, "1000 dropped blobs left {kept} heap bytes behind");
}

/// One cold `ShardStore::load` (its layer file open, no live holder) at
/// every bitwidth of a shard at the shipped scale: it requests the record
/// it reads, the payload's body (one copy of the record's) and the
/// body's reference-count block, and keeps the last two, the count block's
/// 32 B and the body's 15 B header beside the payload bytes. A handle to
/// one block of both would be a fat pointer, 16 B where a handle is 8 in
/// every cache entry, preload entry and weak index slot. While a blob was
/// a typed payload of three vectors, a compressed load also requested the
/// packed bytes, the centroid table and the outlier table as blocks of
/// their own, and kept them: 5 requested and 4 held with outliers, and 3
/// and 2 at full fidelity, with 96 B beside the payload bytes.
fn a_cold_load_keeps_one_body_and_its_count_block() {
    let ctx = scaled_context();
    let store = ctx.shard_source();
    for bw in Bitwidth::ALL {
        let key = ShardKey::new(ShardId::new(4, 7), bw);
        let (blob, HeapUse { requests, live, held, .. }) = heap_across(|| store.load(key).unwrap());
        assert!(bw.is_full() || blob.view().outliers().len() > 0, "{bw}: an outlier table");
        assert_eq!((requests, live), (3, 2), "{bw}: blocks a cold load requests and keeps");
        assert_eq!(held as usize, blob.byte_size() + 47, "{bw}: bytes a cold load keeps");
    }
}

fn a_warm_cache_hit_over_the_flash_store_returns_the_cached_payload() {
    let ctx = scaled_context();
    let store = ctx.shard_source();
    let keys = all_keys(ctx.task().model().config());
    let cache = ShardCache::new(64 << 20);
    let misses: Vec<QuantizedBlob> =
        keys.iter().map(|&key| cache.get_or_load(&*store, key).unwrap()).collect();

    let (hits, HeapUse { requested, .. }) = heap_across(|| {
        let hit = |&key| match cache.get_or_load_tracked(&*store, key, None).unwrap() {
            (Some(blob), resident) => (blob, resident),
            (None, _) => unreachable!("a lookup given no size reads every miss"),
        };
        keys.iter().cycle().take(1000).map(hit).collect::<Vec<_>>()
    });
    let payload_bytes: u64 = hits.iter().map(|(blob, _)| blob.byte_size() as u64).sum();
    assert!(payload_bytes > 2 << 20, "the hits handed out {payload_bytes} payload bytes");
    assert!(
        requested < 64 * KIB,
        "1000 warm hits handed out {payload_bytes} payload bytes and allocated {requested}"
    );
    // The cache owns the only in-RAM copy: a hit is the payload the miss
    // decoded, not a second read.
    for ((hit, resident), miss) in hits.iter().zip(misses.iter().cycle()) {
        assert!(resident);
        assert!(hit.same_payload(miss));
    }
}

/// Two caches over one context store, as two servers on one context have.
/// Each used to decode its own copy of every shard it missed: cache B's
/// fill of every key requested 7 125 364 B, more than twice the 3 462 344
/// payload bytes (each load reads a record and decodes a payload from it).
/// The store now hands out the payload cache A holds, and the fill requests
/// 93 540 B, all of it cache B's own map and recency tree for 864 keys.
/// The bound sits between.
fn a_second_cache_over_one_store_fills_from_the_payloads_the_first_holds() {
    let ctx = scaled_context();
    let store = ctx.shard_source();
    let keys = all_keys(ctx.task().model().config());
    let (a, b) = (ShardCache::new(64 << 20), ShardCache::new(64 << 20));
    let held: Vec<QuantizedBlob> =
        keys.iter().map(|&key| a.get_or_load(&*store, key).unwrap()).collect();
    let payload_bytes: u64 = held.iter().map(|blob| blob.byte_size() as u64).sum();
    assert!(payload_bytes > 2 << 20, "cache A holds {payload_bytes} payload bytes");

    let ((), HeapUse { requested, .. }) = heap_across(|| {
        for (&key, in_a) in keys.iter().zip(&held) {
            let (blob, resident) = b.get_or_load_tracked(&*store, key, None).unwrap();
            assert!(!resident);
            assert!(blob.unwrap().same_payload(in_a));
        }
    });
    assert_eq!(b.stats().misses, keys.len() as u64, "every key missed cache B");
    assert!(
        requested < 128 * KIB,
        "cache B's fill of {payload_bytes} payload bytes requested {requested}"
    );
}

/// Importance profiling at the shipped scale on two dev examples. The
/// profiler used to decode its whole 2-bit floor grid up front and hold it
/// through every probe: the high-water mark was 2 209 896 B on 2 workers,
/// above the 2 073 600 B grid. It now keeps the floor quantised, and each
/// worker decodes one layer at a time into a scratch layer the calling
/// thread built: 644 880 B on 2 workers, then 992 592 B while the calling
/// thread read the full-fidelity upgrades of each batch of two layers into
/// two more layers (345 600 B). Each worker now reads its own probe's
/// upgrade into one shard slot of its scratch, through the read scratch
/// beside it (empty for a bare task's seeded source): 674 080 B on 2
/// workers. A worker's scratch is one decoded layer and one decoded shard,
/// beside a hidden state per dev example, a forward scratch and a read
/// scratch (a few KiB), and what the profiler holds beside them stays under
/// half a grid on any core count.
fn profiling_never_holds_the_decoded_floor_grid() {
    let task = Task::build(TaskKind::Sst2, ModelConfig::scaled_bert(), 2, 1);
    let cfg = task.model().config();
    let grid = task.model().sharded_byte_size() as i64;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch =
        workers.min(cfg.total_shards()) * (cfg.layer_fp32_bytes() + cfg.shard_fp32_bytes());
    let (profile, HeapUse { high_water, .. }) =
        heap_across(|| profile_importance(task.model(), task.dev(), &QuantConfig::default()));
    assert_eq!(profile.layers() * profile.heads(), cfg.total_shards());
    assert!(
        high_water < grid / 2 + scratch as i64,
        "profiling held up to {high_water} heap bytes at once on {workers} workers \
         ({scratch} B of scratch); a decoded grid is {grid} B"
    );
}

/// Set-up's two parallel sections at the shipped scale: the teacher's
/// layer-major pass (labelling both splits in `Task::build`, and the gold
/// accuracy) and the importance probes, on a bare task's model, whose
/// shards are regenerated from their seeds, and on a context's, whose
/// teacher reads its shards from the store. Their worker threads write only
/// into buffers the calling thread built and lent them (a layer's shards,
/// the hidden states, the forward scratch), and hand back `Copy` results,
/// so the workers request no heap block at all and no allocator arena of
/// theirs stays resident after set-up. The teacher reads its layers on the
/// calling thread; each probe's worker reads its own upgrade, regenerated
/// or from the store, into a slot and a read scratch the calling thread
/// built and sized (`Model::read_scratch`), so a read allocates nothing on
/// any thread. The workers used to run the allocating layer functions:
/// about ten matrices per layer, on every worker.
fn set_ups_worker_threads_request_no_heap_block() {
    let cfg = ModelConfig::scaled_bert();
    let quant = QuantConfig::default();
    let (task, labelling) =
        other_threads_requests_across(|| Task::build(TaskKind::Sst2, cfg.clone(), 2, 6));
    assert_eq!(labelling, 0, "labelling's workers requested {labelling} heap blocks");
    let (profile, probes) =
        other_threads_requests_across(|| profile_importance(task.model(), task.dev(), &quant));
    assert_eq!(profile.layers() * profile.heads(), cfg.total_shards());
    assert_eq!(probes, 0, "the probes' workers requested {probes} heap blocks");

    let (ctx, building) =
        other_threads_requests_across(|| TaskContext::with_config(TaskKind::Sst2, cfg.clone()));
    assert_eq!(building, 0, "a context build's workers requested {building} heap blocks");
    let (_, gold) = other_threads_requests_across(|| gold_accuracy(ctx.task()));
    assert_eq!(gold, 0, "the gold pass's workers requested {gold} heap blocks");
    let dev = Dataset::new(ctx.task().dev().examples()[..2].to_vec());
    let (on_store, probes) =
        other_threads_requests_across(|| profile_importance(ctx.task().model(), &dev, &quant));
    assert_eq!(on_store.layers() * on_store.heads(), cfg.total_shards());
    assert_eq!(probes, 0, "the probes' workers over the store requested {probes} heap blocks");
}

fn a_second_server_on_one_context_does_not_copy_the_model() {
    let ctx = scaled_context();
    let cfg = ServeConfig::default();
    let shard_weights = ctx.task().model().sharded_byte_size() as u64;
    assert!(shard_weights > 1900 * KIB, "the pin is about a 2 MiB model");
    // The context's build wrote its store; the second server is the
    // marginal cost of a server. Its transients (the hardware profile
    // quantises probe shards) come and go; what it keeps is the pin.
    let first = build_server(&ctx, &cfg);
    let (second, HeapUse { held: kept, .. }) = heap_across(|| build_server(&ctx, &cfg));
    assert!(
        kept < 512 * KIB as i64,
        "a second server over {shard_weights} bytes of shard weights keeps {kept} bytes"
    );
    // Both serve, from the same residents.
    let a = first.session().unwrap().infer(&[1, 2, 3]).unwrap();
    let b = second.session().unwrap().infer(&[1, 2, 3]).unwrap();
    assert_eq!(a.outcome.logits, b.outcome.logits);
}

/// What building and dropping a server on four device channels keeps. The
/// scheduler names three instruments per channel
/// (`io.channel.<c>.{busy_us, queued_bytes, batch_fanout}`), and while the
/// metrics registry took only `&'static str` names it leaked them on every
/// build: 280 B per cycle here (a single-channel server, which has no such
/// names, kept 0 B). The registry owns its names now, and every cycle keeps
/// 0 B.
fn building_and_dropping_a_multi_channel_server_keeps_nothing() {
    let ctx = scaled_context();
    let cfg = ServeConfig { channels: 4, ..ServeConfig::default() };
    for cycle in 1..=3 {
        let ((), HeapUse { held: kept, .. }) = heap_across(|| drop(build_server(&ctx, &cfg)));
        assert_eq!(kept, 0, "build-and-drop cycle {cycle} of a 4-channel server kept {kept} B");
    }
}

/// What a bare `replay_sequential` of `examples/traces/burst.json` requests
/// at the shipped scale. A report used to assemble the span stream whether
/// or not anyone read it: 44 467 551 B requested across the replay, then
/// 43 941 115 B without it. Since an engagement decodes one shard at a time
/// into one reused slot instead of a whole layer into fresh matrices, and a
/// report reads the dispatch log in place, the bare replay requested
/// 6 760 975 B; since every layer of an engagement runs in the working
/// buffer's one forward scratch, 5 155 893 B; since the report replays
/// the log in place (a 4 MiB cache keeps every shard here, so nothing is
/// deferred), 5 129 979 B; since an engagement's record shares its plan's
/// per-layer mask and the replay takes one compute delay per engagement,
/// 5 128 086 B. `trace_spans` requests 353 980 B for the stream's 537
/// spans when the caller asks for it afterwards (457 884 B when it laid
/// the replay out as the queue simulator's report to render the flash
/// tracks, 481 184 B when it copied the log into the simulator), so a
/// replay that assembled the stream would request 5 482 066 B. The bound
/// sits between the two.
fn a_bare_replay_does_not_assemble_the_span_stream() {
    let ctx = scaled_context();
    let trace = load_trace("examples/traces/burst.json").expect("shipped example parses");
    let server = build_server(&ctx, &ServeConfig::default());
    let (report, HeapUse { requested, .. }) = heap_across(|| replay_sequential(&server, &trace));
    assert!(report.unwrap().spans.is_empty(), "a bare report assembles no spans");
    const BOUND: u64 = 5_400_000;
    assert!(requested < BOUND, "a bare replay of burst.json requested {requested} bytes");
    // The stream is still there on demand, and building it inside the
    // replay would have crossed the bound.
    let (spans, HeapUse { requested: stream_bytes, .. }) = heap_across(|| server.trace_spans());
    assert!(!spans.is_empty(), "the logs still hold the stream");
    assert!(
        requested + stream_bytes > BOUND,
        "the {} spans requested {stream_bytes} bytes; the bound no longer separates them",
        spans.len()
    );
}

/// What reading a prefetch-on server's totals requests:
/// `metrics_snapshot` and `prefetch_report` each sum the
/// speculative dispatch log where it lies, so the bytes they request do not
/// grow with the log — 15 375 B at 100 speculative jobs and at 400. Each
/// used to copy the whole log: 29 775 B at 100 jobs, 72 975 B at 400.
///
/// The staging pool keeps what demand hits, so a session that repeats one
/// engagement stops speculating once its working set is staged. The log
/// grows here because the session alternates two knob sets whose streamed
/// working sets together overflow the 64 KiB pool: each prediction finds
/// the other set's stage evicted and reads it again.
fn reading_the_prefetch_totals_requests_no_more_for_a_longer_speculative_log() {
    /// Engagements the pin may run before it gives up on the log growing.
    const ENGAGEMENTS: usize = 1_000;
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let serve = ServeConfig {
        preload_bytes: 0,
        shard_cache_bytes: 1 << 10,
        prefetch: PrefetchConfig::markov(64 << 10),
        ..ServeConfig::default()
    };
    let server = build_server(&ctx, &serve);
    let mut session = server.session().unwrap();
    let targets = [SimTime::from_ms(100), SimTime::from_ms(400)];
    let jobs = || server.prefetch_report().expect("prefetch is on").jobs;
    let read_totals =
        || heap_across(|| (server.metrics_snapshot(), server.prefetch_report())).1.requested;
    let mut engagements = 0;
    let mut read_at = |n: u64| {
        while jobs() < n {
            assert!(
                engagements < ENGAGEMENTS,
                "{engagements} engagements logged {} speculative jobs, short of {n}",
                jobs()
            );
            session.set_target(targets[engagements % targets.len()]).unwrap();
            session.infer(&[1, 2, 3]).unwrap();
            engagements += 1;
        }
        // The first read names the `prefetch.*` gauges; the second is the pin.
        read_totals();
        (jobs(), read_totals())
    };
    let (short, at_short) = read_at(100);
    let (long, at_long) = read_at(400);
    assert!(long >= 4 * short, "the log grew from {short} to {long} speculative jobs");
    assert_eq!(
        at_long, at_short,
        "reading the totals requested {at_short} B at {short} speculative jobs, {at_long} B at {long}"
    );
}

/// What the compute half of one warm engagement requests at the shipped
/// scale ([`a_warm_engagement_requests_less_than_one_decoded_layer`]).
const WARM_ENGAGEMENT: u64 = 33_248;

/// What the compute half of one warm engagement requests, for a plan that streams every shard of all 12 × 12 at the
/// shipped scale. The executor decodes each shard half by half into one
/// slot, and runs every layer in one forward scratch, both reused across
/// the engagement, so the whole engagement — slot, scratch, hidden state,
/// outcome and ledger record — requests 33 248 B, under a fifth of one
/// decoded layer (12 shards × 14 400 B = 172 800 B). It was 33 408 B while
/// the working buffer grew its staging lists from empty; they are now
/// sized for a full-width layer when it is built. With fresh
/// activations and scratch per layer it requested 151 084 B; decoding each
/// layer whole into fresh matrices requested more than a layer per layer.
fn a_warm_engagement_requests_less_than_one_decoded_layer() {
    let ctx = scaled_context();
    let cfg = ModelConfig::scaled_bert();
    let serve = ServeConfig { shard_cache_bytes: 64 << 20, ..ServeConfig::default() };
    let server = build_server(&ctx, &serve);
    let session = server.session_with(SimTime::from_ms(60_000), 0).unwrap();
    let engage = || {
        let pending = session.infer_issue(&[1, 2, 3]).unwrap();
        server.drive_io();
        heap_across(|| session.infer_complete(pending).unwrap())
    };
    let (cold, _) = engage();
    let (warm, HeapUse { requested, .. }) = engage();
    assert_eq!(warm.outcome.logits, cold.outcome.logits);
    assert_eq!((warm.submodel.depth, warm.submodel.width), (cfg.layers, cfg.heads));
    assert!(warm.outcome.loaded_bytes > 0, "the plan streams");
    let one_layer = cfg.heads * cfg.shard_fp32_bytes();
    assert_eq!(warm.outcome.peak_working_bytes, one_layer, "the modelled buffer is one layer");
    assert!(
        requested < one_layer as u64,
        "a warm engagement requested {requested} B; one decoded layer is {one_layer} B"
    );
    assert_eq!(requested, WARM_ENGAGEMENT, "a warm engagement's requests");
}

/// What one contention report requests per dispatch event, after a sequential replay of
/// `examples/traces/burst.json` at the shipped scale (173 dispatch events,
/// 19 engagements). The report replays the dispatch log in place: per job
/// a `u32` in service order and a `(start, completion)` pair, per delivery
/// a `(lane, event)` index, and the rows. 13 384 B, 77 B per event (14 768 B,
/// 85 B per event, while each row built a per-layer compute vector for the
/// pipeline recurrence). When it copied the log into the queue simulator
/// and gathered a completion list from it, the same report requested
/// 55 964 B, 323 B per event.
fn a_contention_report_replays_the_dispatch_log_in_place() {
    let ctx = scaled_context();
    let trace = load_trace("examples/traces/burst.json").expect("shipped example parses");
    let server = build_server(&ctx, &ServeConfig::default());
    let ran = replay_sequential(&server, &trace).unwrap();
    // Exclusive IO: one dispatch event per layer request.
    let events = server.io_stats().requests;
    let (report, HeapUse { requested, .. }) = heap_across(|| server.contention_report());
    assert_eq!(report, ran.contention, "the report is a pure function of the logs");
    assert_eq!((events, report.engagements.len()), (173, 19));
    assert_eq!(requested, 13_384, "a report of {events} dispatch events");
    assert_eq!(requested / events, 77, "bytes a report requests per dispatch event");
}

/// One full-stream engagement at the shipped scale (12 × 12 shards at
/// full fidelity, 2 073 600 payload bytes), with a shard cache smaller
/// than any of them and no preload, across `drive_io` and
/// `infer_complete`. The dispatch defers every shard the cache cannot
/// keep, so after the drive the store holds none of their payloads, and
/// the compute half reads each layer's records as it comes up, decodes
/// each straight from its record into the working slot, and overwrites
/// them with the next layer's. The heap high-water is then at most one
/// layer's records (12 × 14 428 B: 172 800 B of payload and 336 B of
/// framing), the compute memory of a warm engagement (33 248 B requested)
/// and what the drive hands on to the lane (3 584 B): 209 968 B, under the
/// 220 476 B of one layer, one record and the compute memory. It is
/// 209 464 B. While a deferred record was decoded into a payload of its own, it
/// was 224 676 B: each payload copied its record's bytes and requested
/// 96 B more. When the drive read and decoded every streamed layer, the
/// high-water was the whole engagement's streamed payload, over 2 MB.
fn an_engagement_holds_one_streamed_layer_at_a_time() {
    let ctx = scaled_context();
    let cfg = ModelConfig::scaled_bert();
    let store = Arc::new(ShardStore::open(ctx.shard_store_dir()).unwrap());
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, ctx.quant());
    let model = ctx.task().model().clone();
    let server = StiServer::new(
        model,
        store.clone(),
        hw,
        ctx.importance().clone(),
        &ServeConfig { shard_cache_bytes: 1 << 10, ..ServeConfig::default() },
    );
    let session = server.session_with(SimTime::from_ms(60_000), 0).unwrap();
    let keys: Vec<Vec<ShardKey>> = session
        .plan()
        .layers
        .iter()
        .map(|pl| pl.items().map(|(s, bw)| ShardKey::new(ShardId::new(pl.layer, s), bw)).collect())
        .collect();
    let size = |key: &ShardKey| store.size_bytes(*key).unwrap();
    let payload = |layer: &Vec<ShardKey>| layer.iter().map(size).sum::<u64>();
    let largest_layer = keys.iter().map(payload).max().unwrap();
    let streamed: u64 = keys.iter().map(payload).sum();
    let largest_shard = keys.iter().flatten().max_by_key(|key| size(key)).copied().unwrap();
    let record = size(&largest_shard) + sti_storage::format::RECORD_OVERHEAD as u64;
    assert_eq!((keys.len(), keys[0].len(), streamed), (12, 12, 2_073_600), "a full stream");
    assert_eq!(record, 14_428, "one full-fidelity record");
    let layer_shards = keys.iter().map(Vec::len).max().unwrap() as u64;
    let framing = layer_shards * sti_storage::format::RECORD_OVERHEAD as u64;

    let engage = || {
        let pending = session.infer_issue(&[1, 2, 3]).unwrap();
        heap_across(|| {
            let ((), HeapUse { held: handed_on, .. }) = heap_across(|| {
                server.drive_io();
            });
            let live = store.live_payload_bytes();
            (session.infer_complete(pending).unwrap(), handed_on, live)
        })
    };
    // The first engagement builds what every later one reuses; the logs
    // are then emptied so the pinned one does not grow them.
    let ((first, _, _), _) = engage();
    server.reset_contention_log();
    let ((second, handed_on, live), HeapUse { high_water, .. }) = engage();
    assert_eq!(second.outcome.logits, first.outcome.logits);
    assert_eq!(second.outcome.loaded_bytes, streamed);
    assert_eq!(live, 0, "after the drive the store holds no payload of a deferred shard");
    // The per-layer `(slice, shard)` lists the drive hands on to the lane
    // for the compute half: the one term beyond the layer's records and
    // the compute memory.
    const HANDED_ON: u64 = 3_584;
    assert_eq!(handed_on as u64, HANDED_ON, "what the drive hands on to the lane");
    let bound = largest_layer + framing + WARM_ENGAGEMENT + HANDED_ON;
    assert_eq!(bound, 209_968);
    assert!(bound <= largest_layer + record + WARM_ENGAGEMENT, "one layer, a record and compute");
    assert!(
        high_water as u64 <= bound,
        "high-water {high_water} B; one layer {largest_layer} B and its {framing} B of framing, \
         {HANDED_ON} B handed on"
    );
    assert_eq!(high_water, 209_464, "one full-stream engagement's heap high-water");
}

/// Opens `cycles` SLO sessions on `server`, each against the registry the
/// previous open changed, and keeps only the newest three open.
fn slo_churn(server: &StiServer, open: &mut VecDeque<Session>, cycles: u64) {
    for cycle in 0..cycles {
        let arrival = SimTime::from_us(cycle % 5 * 250);
        let session = server.session_with_slo_at(SimTime::from_ms(5_000), 0, arrival);
        open.push_back(session.expect("a generous SLO admits"));
        if open.len() > 3 {
            open.pop_front();
        }
    }
}

/// What a server keeps of an SLO search once its session has dropped. Every
/// open takes a fresh token, and the mix every search runs against folds the
/// tokens in, so a memo of searches never hit and only grew: 2 124 B per
/// search, 67 968 and 135 936 B across the two phases here. Nothing is kept
/// now: 0 and 0 B.
fn slo_session_churn_leaves_no_heap_behind_per_search() {
    const K: u64 = 32;
    let ctx = scaled_context();
    let cfg = ServeConfig {
        admission: AdmissionMode::Enforce,
        batch_window: Some(SimTime::from_ms(1)),
        ..ServeConfig::default()
    };
    let server = build_server(&ctx, &cfg);
    let mut open = VecDeque::new();
    // Plans, preload buffers and registry nodes come to stay on first use.
    slo_churn(&server, &mut open, K);
    let ((), HeapUse { held: kept_k, .. }) = heap_across(|| slo_churn(&server, &mut open, K));
    let ((), HeapUse { held: kept_2k, .. }) = heap_across(|| slo_churn(&server, &mut open, 2 * K));
    assert_eq!(server.slo_plan_stats().misses, 4 * K, "every open searched");
    assert_eq!(
        (kept_k, kept_2k),
        (0, 0),
        "{K} searches kept {kept_k} heap bytes and {} kept {kept_2k}",
        2 * K
    );
}

/// Retargets `session` through the targets `T` = 300 ms + `first` µs and
/// the `count - 1` that follow, 1 µs apart: each one a knob set the server
/// has not planned.
fn knob_churn(session: &mut Session, first: u64, count: u64) {
    for t in first..first + count {
        session.set_target(SimTime::from_us(300_000 + t)).expect("a raw target always plans");
    }
}

/// What a server keeps of a knob set its one session has moved away from.
/// The plan cache and the preload-buffer table used to keep every plan and
/// buffer they ever made: 17 583 B per knob set here (a 16 KiB `|S|`, and a
/// 1 KiB shard cache that holds none of the buffer's blobs), 562 656 and
/// 1 125 312 B across the two phases. They hold only weak handles now, so
/// a plan lives as long as the session running it: 0 and 0 B are kept,
/// and one plan is cached at a time.
fn knob_churn_keeps_only_the_plan_in_use() {
    const K: u64 = 32;
    let ctx = scaled_context();
    let cfg = ServeConfig {
        preload_bytes: 16 << 10,
        shard_cache_bytes: 1 << 10,
        ..ServeConfig::default()
    };
    let server = build_server(&ctx, &cfg);
    let mut session = server.session_with(cfg.target, cfg.preload_bytes).unwrap();
    assert!(session.preload_used() > 8 * KIB, "the pin is about a filled |S|");
    // Registry nodes and the first plan come to stay on first use.
    knob_churn(&mut session, 0, K);
    let ((), HeapUse { held: kept_k, .. }) = heap_across(|| knob_churn(&mut session, K, K));
    let ((), HeapUse { held: kept_2k, .. }) =
        heap_across(|| knob_churn(&mut session, 2 * K, 2 * K));
    assert_eq!(server.plan_stats().misses, 4 * K + 1, "every knob set planned");
    assert_eq!(server.cached_plans(), 1, "only the session's own plan is cached");
    assert_eq!(
        (kept_k, kept_2k),
        (0, 0),
        "{K} knob sets kept {kept_k} heap bytes and {} kept {kept_2k}",
        2 * K
    );
}

/// What an open session holds at the `fleet_admit` shape: four device
/// channels, its knobs, 2 000 sessions opened in one batch and then spread
/// 100 ms apart. Every session used to carry its own plan record and gate
/// memo, and to rebuild its plan's job slice at the open and again at
/// `set_arrival`: 958 976 B held, 479 B per session, and 40 338
/// allocations across both steps. The record and the slices are now shared
/// (one record per batch, one slice per plan), so a session holds its
/// token, arrival, stripe and handles. The registry was a token-keyed
/// B-tree, whose half-full nodes added about 52 B per session: 315 383 B,
/// 157 B per session, 450 allocations. It is a token-sorted slot vector
/// now, grown by doubling: with one 40 B slot per session and one job
/// slice per stripe, 211 383 B, 105 B per session, 126 allocations; with
/// the stripe in the slot (48 B) and one slice per plan, 227 255 B, 113 B
/// per session, 108 allocations. The bounds sit just above. Against that
/// fleet, 1 000 steady-state gate decisions of an SLO session request
/// 0 B; with the walk memo disabled, each re-walks the mix and the
/// thousand request 594 580 000 B.
fn an_open_fleet_holds_only_what_its_sessions_do_not_share() {
    const N: usize = 2_000;
    let ctx = scaled_context();
    let cfg = ServeConfig {
        target: SimTime::from_ms(200),
        preload_bytes: 16 << 10,
        channels: 4,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(200)),
        admission: AdmissionMode::Monitor,
        ..ServeConfig::default()
    };
    let server = build_server(&ctx, &cfg);
    // The plan and its preload buffer come to stay on first use.
    drop(server.open_fleet(1, cfg.target, cfg.preload_bytes).unwrap());
    let (fleet, HeapUse { requests: allocations, held, .. }) = heap_across(|| {
        let mut fleet = server.open_fleet(N, cfg.target, cfg.preload_bytes).unwrap();
        for (i, session) in fleet.iter_mut().enumerate() {
            session.set_arrival(SimTime::from_ms(i as u64 * 100));
        }
        fleet
    });
    assert_eq!(server.open_sessions(), fleet.len());
    let per_session = held / N as i64;
    assert!(per_session <= 120, "{N} open sessions hold {per_session} heap bytes each");
    assert!(
        allocations <= 200,
        "opening and spreading {N} sessions made {allocations} allocations"
    );

    // One SLO session gated against the fleet: the cold decision pays for
    // the walk, and every later decision under the same digest is a memo
    // lookup that requests nothing from the heap, whatever the fleet size.
    let slo = server.session_with_slo(SimTime::from_ms(60_000), cfg.preload_bytes).unwrap();
    let cold = slo.gate_decision().expect("an SLO session under queue mode gates");
    let ((), HeapUse { requested: steady, .. }) = heap_across(|| {
        for _ in 0..1_000 {
            let decision = slo.gate_decision().expect("still gated");
            assert_eq!(decision.reason.digest, cold.reason.digest);
        }
    });
    assert_eq!(
        steady, 0,
        "1 000 steady-state gate decisions over {N} sessions requested {steady} B"
    );
}

/// Seeded xorshift64 draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Session churn at a steady fleet size: 2 000 sessions open one by one,
/// then 10 000 cycles each close a seeded victim and open a replacement.
/// A close leaves a tombstone in the registry's slot vector, which never
/// holds more than twice as many slots as live sessions. An open that
/// finds the vector full drops the tombstones instead of growing it, so the
/// registry after the churn holds exactly what it held after the opens:
/// one times a fresh fleet's. Every other holder belongs to an open
/// session, so the churn keeps 0 B. A vector that grew instead would keep
/// 81 920 B (2 048 more slots). The token-keyed B-tree it replaced gave
/// back 22 912 B over the same churn, as its half-full nodes refilled, but
/// held 104 000 B more to begin with (see the open-fleet pin).
fn session_churn_at_a_steady_fleet_size_keeps_the_fresh_fleets_heap() {
    const N: usize = 2_000;
    let ctx = scaled_context();
    let cfg = ServeConfig { channels: 4, ..ServeConfig::default() };
    let server = build_server(&ctx, &cfg);
    let open = || server.session_with(cfg.target, cfg.preload_bytes).unwrap();
    // The plan and its preload buffer come to stay on first use.
    drop(open());
    let mut fleet: Vec<Session> = (0..N).map(|_| open()).collect();
    let mut rng = Rng(0x5eed_2000);
    let ((), HeapUse { held: churned, .. }) = heap_across(|| {
        for _ in 0..10_000 {
            drop(fleet.swap_remove(rng.next() as usize % N));
            fleet.push(open());
        }
    });
    assert_eq!(server.open_sessions(), N);
    assert_eq!(churned, 0, "10 000 close-and-open cycles kept {churned} B");
}

/// `n` sessions under `sharing` on four device channels arriving 100 ms
/// apart, each streaming eight 20 ms layer jobs (about the `fleet_admit`
/// load: the device ~40 % busy), and an SLO candidate that co-arrives with
/// the eleventh at 1 s, with two of its twelve layers preload-covered.
fn fleet(n: u64, sharing: IoSharing) -> (ServingMix, EngagementLoad) {
    let job = |sig| LayerIoJob { sig, service: SimTime::from_ms(20) };
    let mut mix = ServingMix::new(sharing).with_topology(DeviceTopology::with_channels(4));
    for token in 0..n {
        let jobs = (0..8).map(|layer| job(token * 16 + layer)).collect();
        mix.push_session(
            token,
            CoRunnerLoad { jobs, arrival: SimTime::from_ms(token * 100), stripe: 0 },
            None,
        );
    }
    let jobs = (0..12u64).map(|layer| (layer % 6 != 0).then(|| job(layer))).collect();
    let (comp, arrival) = (SimTime::from_ms(5), SimTime::from_ms(1_000));
    (mix, EngagementLoad { jobs, comp, arrival, stripe: 0 })
}

fn an_unbatched_prediction_folds_the_channel_queues_instead_of_simulating_the_fleet() {
    let (mix, load) = fleet(2_000, IoSharing::Exclusive);
    let alone = ServingMix::new(IoSharing::Exclusive).with_topology(mix.topology()).predict(&load);
    let (contended, HeapUse { requested: predict_bytes, .. }) = heap_across(|| mix.predict(&load));
    assert!(contended > alone, "the candidate queues behind the fleet: {contended:?}");
    // The uncontended latency as the SLO: the search probes for the delay at
    // which the backlog has drained.
    let (_, HeapUse { requested: min_delay_bytes, .. }) =
        heap_across(|| mix.min_delay(&load, alone, SimTime::from_ms(200)));
    // Simulating the fleet would build every lane's jobs and completions:
    // 2.4 MiB per prediction and 4.6 MiB per search at this size. The closed
    // form folds the lanes arriving by the candidate into one free time per
    // channel and requests 32 and 35 KiB. What remains is mostly the lane
    // handles (`raw_lanes`: one 16-byte `Lane` per session, an arrival and
    // a borrowed load, 31 KiB here; a 24-byte one requested 48 and 55 KiB).
    assert!(predict_bytes < 96 * KIB, "a prediction over 2 000 sessions requested {predict_bytes}");
    assert!(
        min_delay_bytes < 96 * KIB,
        "a delay search over 2 000 sessions requested {min_delay_bytes}"
    );
}

/// The same fleet batched under `burst_shared`'s 2 ms window. A batched
/// prediction used to submit every grouped read to the queue simulator and
/// run it: 2 497 068 B per prediction and 4 817 876 B per search at this
/// size. Folding the reads per channel requests 930 112 and 933 568 B,
/// mostly the reads themselves (one 40-byte read per job of every lane, a
/// grouping that must see the later lanes too) and their service order.
/// The bound sits between the two.
fn a_batched_prediction_folds_the_channel_queues_instead_of_simulating_the_fleet() {
    let (mix, load) = fleet(2_000, IoSharing::Batched(SimTime::from_ms(2)));
    let alone = ServingMix::new(IoSharing::Exclusive).with_topology(mix.topology()).predict(&load);
    let (contended, HeapUse { requested: predict_bytes, .. }) = heap_across(|| mix.predict(&load));
    assert!(contended > alone, "the candidate queues behind the fleet: {contended:?}");
    let (_, HeapUse { requested: min_delay_bytes, .. }) =
        heap_across(|| mix.min_delay(&load, alone, SimTime::from_ms(200)));
    const BOUND: u64 = 1536 * KIB;
    assert!(
        predict_bytes < BOUND,
        "a batched prediction over 2 000 sessions requested {predict_bytes}"
    );
    assert!(
        min_delay_bytes < BOUND,
        "a batched delay search over 2 000 sessions requested {min_delay_bytes}"
    );
}

/// From a store through the cache, the staging pool and a preload buffer,
/// every hop hands on the payload the store decoded: each hop is a holder,
/// and a load while any holder has the payload returns it through the
/// store's weak index.
fn every_hop_hands_on_the_stores_one_payload() {
    let model = Model::synthetic(11, ModelConfig::tiny());
    let store = ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default()).unwrap();
    let id = ShardId::new(1, 2);
    let key = ShardKey::new(id, Bitwidth::B4);
    let in_store = store.load(key).unwrap();
    assert!(store.load(key).unwrap().same_payload(&in_store), "load twice");

    // Cache: the miss admits the store's payload, the hit returns it. The
    // main map has room for `key` or `cold` but not both, so promoting
    // `cold` below evicts `key` from it.
    let cold = ShardKey::new(id, Bitwidth::B6);
    let cold_in_store = store.load(cold).unwrap();
    let room = (in_store.byte_size() + cold_in_store.byte_size() - 1) as u64;
    let cache = Arc::new(ShardCache::with_prefetch_pool(room, 1 << 20));
    let (missed, resident) = cache.get_or_load_tracked(&store, key, None).unwrap();
    assert!(!resident);
    assert!(missed.unwrap().same_payload(&in_store), "cache miss");
    let (hit, resident) = cache.get_or_load_tracked(&store, key, None).unwrap();
    assert!(resident);
    assert!(hit.unwrap().same_payload(&in_store), "cache hit");
    let store = Arc::new(store);
    let cached = CachedSource::new(store.clone(), cache.clone());
    assert!(cached.load(key).unwrap().same_payload(&in_store), "cached source");

    // Staging pool: staged cold, pinned from the main map, promoted on a
    // demand miss — the same payload each time.
    assert!(cache.prefetch_load(&*store, cold).unwrap().0 > 0, "staged from flash");
    assert!(cache.prefetch_load(&*store, key).unwrap().1 > 0, "pinned");
    let (promoted, resident) = cache.get_or_load_tracked(&*store, cold, None).unwrap();
    assert!(resident, "the staged blob was promoted, not reloaded");
    assert_eq!(cache.prefetch_stats().hits, 1);
    assert!(promoted.unwrap().same_payload(&cold_in_store), "pool promote");
    assert_eq!(cache.len(), 1, "the promotion evicted `key` from the main map");
    let (pinned, resident) = cache.get_or_load_tracked(&*store, key, None).unwrap();
    assert!(resident, "the pinned handle outlives the main map's");
    assert!(pinned.unwrap().same_payload(&in_store), "pool pin");

    // Preload buffer: filled the way the engine and the server fill it.
    let preload = PreloadBuffer::fill(1 << 20, &[(id, key.bitwidth)], &cached).unwrap();
    assert!(preload.get(id).unwrap().same_payload(&in_store), "preload entry");

    // And the model: a clone is the same weights.
    let twin = model.clone();
    assert_eq!(twin.layers().as_ptr(), model.layers().as_ptr());
    assert!(std::ptr::eq(twin.embedding(), model.embedding()));
    assert!(std::ptr::eq(twin.classifier(), model.classifier()));
}

/// A trace file of `clients` clients, each with every client key and
/// `engagements` rows of 1–16 tokens; returns the JSON and its token count.
fn trace_json(clients: usize, engagements: usize) -> (String, usize) {
    let mut tokens = 0;
    let rendered: Vec<String> = (0..clients)
        .map(|c| {
            let rows: Vec<Vec<u32>> = (0..engagements)
                .map(|e| {
                    (0..1 + (7 * c + 3 * e) % 16).map(|j| (1000 * c + 17 * e + j) as u32).collect()
                })
                .collect();
            tokens += rows.iter().map(Vec::len).sum::<usize>();
            format!(
                "{{\"target_ms\":300,\"preload_kb\":16,\"slo_ms\":450,\"arrival_us\":{},\
                 \"idle_us\":0,\"engagements\":{rows:?}}}",
                150 * c
            )
        })
        .collect();
    (format!("{{\"comment\":\"memory pin\",\"clients\":[{}]}}", rendered.join(",")), tokens)
}

/// What a parsed trace holds, exactly: the clients vector and its one row
/// store, the store's header (two reference counts and three buffer
/// handles) and its three buffers, the distinct rows' tokens, their ends
/// and the trace's row ids. So `4·(distinct tokens + distinct rows +
/// engagements)` bytes beside the header and `size_of::<ClientTrace>()`
/// (the knobs, the store handle and the client's range of row ids) per
/// client, in five blocks.
fn parsed_trace_bytes(tokens: usize, rows: usize, engagements: usize, clients: usize) -> i64 {
    let header = 2 * std::mem::size_of::<usize>() + 3 * std::mem::size_of::<Box<[u32]>>();
    (4 * (tokens + rows + engagements) + std::mem::size_of::<ClientTrace>() * clients + header)
        as i64
}

/// A parsed trace holds five blocks whatever its client count, and the
/// bytes of [`parsed_trace_bytes`]. These rows never repeat, the worst
/// case, which costs a row end per engagement: 8 clients of 250
/// engagements and 16 992 tokens hold 84 544 B. Two flat buffers per
/// client held 17 blocks and 76 608 B, and a `Vec<Vec<u32>>` per client
/// 2 009 blocks and 116 544 B.
fn a_parsed_trace_holds_five_blocks_whatever_its_client_count() {
    for (clients, engagements) in [(1, 2000), (8, 250), (40, 50)] {
        let (json, tokens) = trace_json(clients, engagements);
        let (trace, HeapUse { live: blocks, held: bytes, .. }) =
            heap_across(|| parse_trace(&json).unwrap());
        let rows = clients * engagements;
        assert_eq!(trace.total_engagements(), rows);
        assert_eq!(blocks, 5, "a parsed trace of {clients} clients");
        assert_eq!(
            bytes,
            parsed_trace_bytes(tokens, rows, rows, clients),
            "{clients} clients of {engagements} distinct engagements and {tokens} tokens"
        );
    }
}

/// A trace repeating rows holds each once: 8 clients replaying the same
/// 16 rows, 64 times each, hold the 16 rows' tokens and ends once beside
/// one row id per engagement, in the same five blocks.
fn a_parsed_trace_holds_a_repeated_row_once() {
    let (clients, rounds) = (8, 64);
    let rows: Vec<Vec<u32>> =
        (0..16).map(|r| (0..1 + r % 5).map(|j| 31 * r + j).collect()).collect();
    let replayed: Vec<&[u32]> = (0..rounds).flat_map(|_| rows.iter().map(Vec::as_slice)).collect();
    let client = format!("{{\"engagements\":{replayed:?}}}");
    let json = format!("{{\"clients\":[{}]}}", vec![client; clients].join(","));
    let (trace, HeapUse { live: blocks, held: bytes, .. }) =
        heap_across(|| parse_trace(&json).unwrap());
    let engagements = clients * replayed.len();
    assert_eq!(trace.total_engagements(), engagements);
    assert!(trace.clients.iter().all(|c| c.engagements.iter().eq(replayed.iter().copied())));
    assert_eq!(blocks, 5);
    let tokens = rows.iter().map(Vec::len).sum();
    assert_eq!(
        bytes,
        parsed_trace_bytes(tokens, rows.len(), engagements, clients),
        "{engagements} engagements of {} distinct rows",
        rows.len()
    );
}

/// Parsing requests one block per engagement — the JSON tree's row array,
/// allocated once at its exact size — plus k = 8 per client and c = 24 in
/// all. Per client: its object's fields, six keys and its rows array. In
/// all: the root object, its two keys and the comment, the clients array,
/// the pending clients and the parsed clients vector (7), the parser's two
/// scratch stacks, which double from 4 slots up to the most items open at
/// once (10 growths here), and the row store's four buffers, sized from
/// the tree, and its header (5), with 2 to spare for the two shrinks a
/// trace that repeats rows makes. Token diagnostics are built only on the
/// error path: formatting one per token, and growing each row by doubling,
/// cost about `2 + tokens` blocks per engagement, 23 699 requests for this
/// trace against 2 086. Two flat buffers per client requested 2 096.
fn parsing_a_trace_requests_one_block_per_engagement() {
    const PER_CLIENT: u64 = 8;
    const FIXED: u64 = 24;
    let (clients, engagements) = (8, 250);
    let (json, _) = trace_json(clients, engagements);
    let (trace, HeapUse { requests: requested, .. }) = heap_across(|| parse_trace(&json).unwrap());
    let (c, e) = (clients as u64, (clients * engagements) as u64);
    assert_eq!(trace.total_engagements() as u64, e);
    assert!(
        requested <= e + PER_CLIENT * c + FIXED,
        "parsing {e} engagements over {c} clients requested {requested} blocks"
    );
}

/// The instrument hot paths serving pays per request: a span built with
/// its arguments and emitted through `ObsSink::Null` (what every run
/// without a sink takes), a counter add, a gauge set and a histogram
/// record. Arguments live inline
/// in the event and every instrument is relaxed atomics behind a shared
/// handle, so 10 000 calls of each request no heap block.
fn the_instrument_hot_paths_request_no_heap_block() {
    const CALLS: u64 = 10_000;
    let null = ObsSink::Null;
    let registry = MetricsRegistry::new();
    let counter = registry.counter("io.requests");
    let gauge = registry.gauge("io.queued_bytes");
    let histogram = registry.histogram("io.service_us");
    let span = |t: u64| {
        SpanEvent::complete(TrackKind::Session, 7, "gate.delay", t, t + 40)
            .with_args(SpanArgs::new().with("digest", 42).with("predicted_us", 1 << 20))
    };
    let paths: [(&str, &dyn Fn(u64)); 4] = [
        ("a null-sink span", &|t| null.span(black_box(span(t)))),
        ("Counter::add", &|_| counter.add(black_box(1))),
        ("Gauge::set", &|t| gauge.set(black_box(t))),
        ("Histogram::record", &|t| histogram.record(black_box(t.wrapping_mul(977) & 0xffff))),
    ];
    for (path, call) in paths {
        let ((), HeapUse { requests, .. }) = heap_across(|| (0..CALLS).for_each(call));
        assert_eq!(requests, 0, "{CALLS} calls of {path} requested {requests} heap blocks");
    }
}
