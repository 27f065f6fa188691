//! Deterministic memory pins for the one-copy rule: a weight payload is
//! written once, then shared and immutable, so loading, caching, staging and
//! preloading a shard — and building another server over the same task —
//! allocate handles, not copies; and a context's store is on flash, so the
//! process holds an index to the quantised model, never the model. `peak_rss_mb` shows the same thing end to
//! end but only through the benchmark; these pins count heap bytes directly
//! and compare payload addresses, so they repeat exactly on any machine.
//! The trace pins count the blocks a parsed trace holds and parsing
//! requests, on the parsing thread only, so they are exact too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sti::prelude::*;
use sti::TaskContext;

/// The system allocator, counting every byte it is asked for (a realloc
/// counts in full: it may move the block), every byte still held, the most
/// ever held at once, and every request — process-wide, and for the
/// calling thread its own requests, requested bytes, live blocks and held
/// bytes.
struct Counting;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static HELD: AtomicI64 = AtomicI64::new(0);
static HIGH_WATER: AtomicI64 = AtomicI64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(requests, requested bytes, live blocks, held bytes)` of this
    /// thread's own allocations: the harness's threads allocate beside a
    /// test, so exact counts read these.
    static THREAD_HEAP: Cell<(u64, u64, i64, i64)> = const { Cell::new((0, 0, 0, 0)) };
}

/// Adds to this thread's request, requested-byte, live-block and held-byte
/// counts.
fn count_on_thread(requests: u64, requested: u64, live: i64, bytes: i64) {
    // A const-initialised `Cell` has no destructor, so this never fails;
    // ignoring the result keeps the allocator panic-free regardless.
    let _ = THREAD_HEAP.try_with(|c| {
        let (r, q, l, b) = c.get();
        c.set((r + requests, q + requested, l + live, b + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        count_on_thread(1, layout.size() as u64, 1, layout.size() as i64);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        hold(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        count_on_thread(1, layout.size() as u64, 1, layout.size() as i64);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        hold(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        count_on_thread(1, new_size as u64, 0, new_size as i64 - layout.size() as i64);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live block of this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        count_on_thread(0, 0, -1, -(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Adds `bytes` to the held count and raises the high-water mark to match.
fn hold(bytes: i64) {
    let held = HELD.fetch_add(bytes, Ordering::Relaxed) + bytes;
    HIGH_WATER.fetch_max(held, Ordering::Relaxed);
}

/// The counter is process-wide and the harness runs tests on parallel
/// threads, so every test in this file holds this lock for its whole body.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Heap bytes `(requested, still held)` process-wide across `work`: the
/// first counts transients too, the second is what `work` left allocated.
fn heap_bytes_across<T>(work: impl FnOnce() -> T) -> (T, u64, i64) {
    let (requested, held) = (REQUESTED.load(Ordering::Relaxed), HELD.load(Ordering::Relaxed));
    let out = work();
    let requested = REQUESTED.load(Ordering::Relaxed) - requested;
    (out, requested, HELD.load(Ordering::Relaxed) - held)
}

/// This thread's heap across `work`: blocks requested (a realloc is a
/// request), and the blocks and bytes `work` left allocated.
fn thread_heap_across<T>(work: impl FnOnce() -> T) -> (T, u64, i64, i64) {
    let (requests, _, live, bytes) = THREAD_HEAP.with(Cell::get);
    let out = work();
    let (requests_after, _, live_after, bytes_after) = THREAD_HEAP.with(Cell::get);
    (out, requests_after - requests, live_after - live, bytes_after - bytes)
}

/// The bytes this thread requested across `work` (a realloc counts in
/// full), transients included.
fn thread_bytes_requested_across<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let (_, requested, _, _) = THREAD_HEAP.with(Cell::get);
    let out = work();
    (out, THREAD_HEAP.with(Cell::get).1 - requested)
}

/// The most heap held at once during `work`, above what was held when it
/// started.
fn heap_high_water_across<T>(work: impl FnOnce() -> T) -> (T, i64) {
    let start = HELD.load(Ordering::Relaxed);
    HIGH_WATER.store(start, Ordering::Relaxed);
    let out = work();
    (out, HIGH_WATER.load(Ordering::Relaxed) - start)
}

const KIB: u64 = 1024;

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

#[test]
fn a_thousand_loads_and_a_thousand_warm_hits_allocate_handles_not_payloads() {
    let _guard = serialised();
    // An in-memory store: the pin is about what a holder of the payload
    // hands out, and `MemStore` is the source that holds every payload.
    let model = Model::synthetic(11, ModelConfig::scaled_bert());
    let store = MemStore::build(&model, &Bitwidth::ALL, &QuantConfig::default());
    let keys = all_keys(model.config());
    let cache = ShardCache::new(64 << 20);
    for &key in &keys {
        cache.get_or_load(&store, key).unwrap();
    }
    assert_eq!(cache.len(), keys.len(), "every key is resident before the hits are counted");

    let (payload_bytes, requested, _) = heap_bytes_across(|| {
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

#[test]
fn the_contexts_store_keeps_an_index_not_the_model() {
    let _guard = serialised();
    let ctx = scaled_context();
    let shard_weights = ctx.task().model().sharded_byte_size() as u64;
    assert!(shard_weights > 1900 * KIB, "the pin is about a 2 MiB model at six bitwidths");
    // Quantising and writing are transients; what stays is the manifest and
    // one file slot per (layer, bitwidth).
    let (store, _, kept) = heap_bytes_across(|| ctx.shard_source());
    assert!(
        kept < 256 * KIB as i64,
        "a store over {shard_weights} bytes of shard weights keeps {kept} heap bytes"
    );
    assert!(store.load(ShardKey::new(ShardId::new(0, 0), Bitwidth::B2)).is_ok());
}

#[test]
fn a_thousand_flash_loads_request_what_they_return_and_keep_nothing() {
    let _guard = serialised();
    let ctx = scaled_context();
    let store = ctx.shard_source();
    let keys = all_keys(ctx.task().model().config());
    // Open every layer file first: handles are kept, by design.
    for &key in &keys {
        store.load(key).unwrap();
    }
    let (payload_bytes, requested, kept) = heap_bytes_across(|| {
        let mut payload_bytes = 0u64;
        for &key in keys.iter().cycle().take(1000) {
            payload_bytes += store.load(key).unwrap().byte_size() as u64;
        }
        payload_bytes
    });
    assert!(payload_bytes > 2 << 20, "the loop read {payload_bytes} payload bytes");
    // A load allocates the record it reads and the payload it decodes from
    // it, plus a few hundred bytes of framing, tables and the handle.
    assert!(
        requested >= payload_bytes && requested < 2 * payload_bytes + 1000 * 256,
        "1000 loads returned {payload_bytes} payload bytes and requested {requested}"
    );
    // Headroom for the test harness's own output only.
    assert!(kept < 4 * KIB as i64, "1000 dropped blobs left {kept} heap bytes behind");
}

#[test]
fn a_warm_cache_hit_over_the_flash_store_returns_the_cached_payload() {
    let _guard = serialised();
    let ctx = scaled_context();
    let store = ctx.shard_source();
    let keys = all_keys(ctx.task().model().config());
    let cache = ShardCache::new(64 << 20);
    let misses: Vec<QuantizedBlob> =
        keys.iter().map(|&key| cache.get_or_load(&*store, key).unwrap()).collect();

    let (hits, requested, _) = heap_bytes_across(|| {
        let hit = |&key| cache.get_or_load_tracked(&*store, key).unwrap();
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
        assert_eq!(hit.packed().as_ptr(), miss.packed().as_ptr());
    }
}

/// Two caches over one context store, as two servers on one context have.
/// Each used to decode its own copy of every shard it missed: cache B's
/// fill of every key requested 7 125 364 B, more than twice the 3 462 344
/// payload bytes (each load reads a record and decodes a payload from it).
/// The store now hands out the payload cache A holds, and the fill requests
/// 93 540 B, all of it cache B's own map and recency tree for 864 keys.
/// The bound sits between.
#[test]
fn a_second_cache_over_one_store_fills_from_the_payloads_the_first_holds() {
    let _guard = serialised();
    let ctx = scaled_context();
    let store = ctx.shard_source();
    let keys = all_keys(ctx.task().model().config());
    let (a, b) = (ShardCache::new(64 << 20), ShardCache::new(64 << 20));
    let held: Vec<QuantizedBlob> =
        keys.iter().map(|&key| a.get_or_load(&*store, key).unwrap()).collect();
    let payload_bytes: u64 = held.iter().map(|blob| blob.byte_size() as u64).sum();
    assert!(payload_bytes > 2 << 20, "cache A holds {payload_bytes} payload bytes");

    let ((), requested, _) = heap_bytes_across(|| {
        for (&key, in_a) in keys.iter().zip(&held) {
            let (blob, resident) = b.get_or_load_tracked(&*store, key).unwrap();
            assert!(!resident);
            assert_eq!(blob.packed().as_ptr(), in_a.packed().as_ptr());
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
/// thread built: 644 880 B on 2 workers. A worker's scratch is one decoded
/// layer and one decoded shard, beside a hidden state per dev example and
/// a forward scratch (a few KiB), and what the profiler holds beside them
/// stays under half a grid on any core count.
#[test]
fn profiling_never_holds_the_decoded_floor_grid() {
    let _guard = serialised();
    let task = Task::build(TaskKind::Sst2, ModelConfig::scaled_bert(), 2, 1);
    let cfg = task.model().config();
    let grid = task.model().sharded_byte_size() as i64;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch =
        workers.min(cfg.total_shards()) * (cfg.layer_fp32_bytes() + cfg.shard_fp32_bytes());
    let (profile, high_water) = heap_high_water_across(|| {
        profile_importance(task.model(), task.dev(), &QuantConfig::default())
    });
    assert_eq!(profile.layers() * profile.heads(), cfg.total_shards());
    assert!(
        high_water < grid / 2 + scratch as i64,
        "profiling held up to {high_water} heap bytes at once on {workers} workers \
         ({scratch} B of scratch); a decoded grid is {grid} B"
    );
}

/// Heap blocks requested across `work` by threads other than this one:
/// every request process-wide, less this thread's own.
fn other_threads_requests_across<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let all = ALLOCATIONS.load(Ordering::Relaxed);
    let (out, mine, _, _) = thread_heap_across(work);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - all - mine)
}

/// Waits for 10 ms in which no other thread requests a heap block: the
/// harness finishes its bookkeeping for the test before this one after that
/// test releases the lock, and every other test of this file waits on the
/// lock without allocating, so after this only the work under test
/// allocates beside this thread.
fn wait_for_quiet_harness() {
    let pause = || std::thread::sleep(std::time::Duration::from_millis(10));
    let quiet = (0..500).any(|_| other_threads_requests_across(pause).1 == 0);
    assert!(quiet, "other threads kept requesting heap blocks for five seconds");
}

/// Set-up's two parallel sections at the shipped scale: the teacher
/// labelling in `Task::build` and the importance probes. Their worker
/// threads write only into buffers the calling thread built and lent them,
/// and hand back `Copy` results, so the workers request no heap block at
/// all and no allocator arena of theirs stays resident after set-up. They
/// used to run the allocating layer functions: about ten matrices per
/// layer, on every worker.
#[test]
fn set_ups_worker_threads_request_no_heap_block() {
    let _guard = serialised();
    let cfg = ModelConfig::scaled_bert();
    wait_for_quiet_harness();
    let (task, labelling) =
        other_threads_requests_across(|| Task::build(TaskKind::Sst2, cfg.clone(), 2, 6));
    assert_eq!(labelling, 0, "labelling's workers requested {labelling} heap blocks");
    let (profile, probes) = other_threads_requests_across(|| {
        profile_importance(task.model(), task.dev(), &QuantConfig::default())
    });
    assert_eq!(profile.layers() * profile.heads(), cfg.total_shards());
    assert_eq!(probes, 0, "the probes' workers requested {probes} heap blocks");
}

#[test]
fn a_second_server_on_one_context_does_not_copy_the_model() {
    let _guard = serialised();
    let ctx = scaled_context();
    let cfg = ServeConfig::default();
    let shard_weights = ctx.task().model().sharded_byte_size() as u64;
    assert!(shard_weights > 1900 * KIB, "the pin is about a 2 MiB model");
    // The first build also builds the context's store; the second is the
    // marginal cost of a server. Its transients (the hardware profile
    // quantises probe shards) come and go; what it keeps is the pin.
    let first = build_server(&ctx, &cfg);
    let (second, _, kept) = heap_bytes_across(|| build_server(&ctx, &cfg));
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
#[test]
fn building_and_dropping_a_multi_channel_server_keeps_nothing() {
    let _guard = serialised();
    let ctx = scaled_context();
    let cfg = ServeConfig { channels: 4, ..ServeConfig::default() };
    // The context's store comes to stay on the first build.
    drop(build_server(&ctx, &cfg));
    for cycle in 1..=3 {
        let ((), _, kept) = heap_bytes_across(|| drop(build_server(&ctx, &cfg)));
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
/// buffer's one forward scratch, it requests 5 155 893 B. `trace_spans`
/// requests 481 184 B for the stream's 537 spans when the caller asks for it
/// afterwards, so a replay that assembled the stream would request
/// 5 637 077 B. The bound sits between the two.
#[test]
fn a_bare_replay_does_not_assemble_the_span_stream() {
    let _guard = serialised();
    let ctx = scaled_context();
    let trace = load_trace("examples/traces/burst.json").expect("shipped example parses");
    let server = build_server(&ctx, &ServeConfig::default());
    let (report, requested, _) = heap_bytes_across(|| replay_sequential(&server, &trace));
    assert!(report.unwrap().spans.is_empty(), "a bare report assembles no spans");
    const BOUND: u64 = 5_400_000;
    assert!(requested < BOUND, "a bare replay of burst.json requested {requested} bytes");
    // The stream is still there on demand, and building it inside the
    // replay would have crossed the bound.
    let (spans, stream_bytes, _) = heap_bytes_across(|| server.trace_spans());
    assert!(!spans.is_empty(), "the logs still hold the stream");
    assert!(
        requested + stream_bytes > BOUND,
        "the {} spans requested {stream_bytes} bytes; the bound no longer separates them",
        spans.len()
    );
}

/// What reading a prefetch-on server's totals requests on the calling
/// thread: `metrics_snapshot` and `prefetch_report` each sum the
/// speculative dispatch log where it lies, so the bytes they request do not
/// grow with the log — 15 375 B at 100 speculative jobs and at 400. Each
/// used to copy the whole log: 29 775 B at 100 jobs, 72 975 B at 400.
#[test]
fn reading_the_prefetch_totals_requests_no_more_for_a_longer_speculative_log() {
    let _guard = serialised();
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let serve = ServeConfig {
        preload_bytes: 0,
        shard_cache_bytes: 1 << 10,
        prefetch: PrefetchConfig::markov(64 << 10),
        ..ServeConfig::default()
    };
    let server = build_server(&ctx, &serve);
    let session = server.session().unwrap();
    let jobs = || server.prefetch_report().expect("prefetch is on").jobs;
    let read_totals = || {
        thread_bytes_requested_across(|| (server.metrics_snapshot(), server.prefetch_report())).1
    };
    let read_at = |n: u64| {
        while jobs() < n {
            session.infer(&[1, 2, 3]).unwrap();
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

/// What the compute half of one warm engagement requests on the calling
/// thread, for a plan that streams every shard of all 12 × 12 at the
/// shipped scale. The executor decodes each shard half by half into one
/// slot, and runs every layer in one forward scratch, both reused across
/// the engagement, so the whole engagement — slot, scratch, hidden state,
/// outcome and ledger record — requests 33 408 B, under a fifth of one
/// decoded layer (12 shards × 14 400 B = 172 800 B). With fresh
/// activations and scratch per layer it requested 151 084 B; decoding each
/// layer whole into fresh matrices requested more than a layer per layer.
#[test]
fn a_warm_engagement_requests_less_than_one_decoded_layer() {
    let _guard = serialised();
    let ctx = scaled_context();
    let cfg = ModelConfig::scaled_bert();
    let serve = ServeConfig { shard_cache_bytes: 64 << 20, ..ServeConfig::default() };
    let server = build_server(&ctx, &serve);
    let session = server.session_with(SimTime::from_ms(60_000), 0).unwrap();
    let engage = || {
        let pending = session.infer_issue(&[1, 2, 3]).unwrap();
        server.drive_io();
        thread_bytes_requested_across(|| session.infer_complete(pending).unwrap())
    };
    let (cold, _) = engage();
    let (warm, requested) = engage();
    assert_eq!(warm.outcome.logits, cold.outcome.logits);
    assert_eq!((warm.submodel.depth, warm.submodel.width), (cfg.layers, cfg.heads));
    assert!(warm.outcome.loaded_bytes > 0, "the plan streams");
    let one_layer = cfg.heads * cfg.shard_fp32_bytes();
    assert_eq!(warm.outcome.peak_working_bytes, one_layer, "the modelled buffer is one layer");
    assert!(
        requested < one_layer as u64,
        "a warm engagement requested {requested} B; one decoded layer is {one_layer} B"
    );
    assert_eq!(requested, 33_408, "a warm engagement's requests");
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
/// now (0 and 0 B); the bound is headroom for the harness.
#[test]
fn slo_session_churn_leaves_no_heap_behind_per_search() {
    const K: u64 = 32;
    let _guard = serialised();
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
    let ((), _, kept_k) = heap_bytes_across(|| slo_churn(&server, &mut open, K));
    let ((), _, kept_2k) = heap_bytes_across(|| slo_churn(&server, &mut open, 2 * K));
    assert_eq!(server.slo_plan_stats().misses, 4 * K, "every open searched");
    assert!(
        (kept_2k - kept_k).abs() < 4 * KIB as i64,
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
/// and one plan is cached at a time. The bound is headroom for the
/// harness.
#[test]
fn knob_churn_keeps_only_the_plan_in_use() {
    const K: u64 = 32;
    let _guard = serialised();
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
    let ((), _, kept_k) = heap_bytes_across(|| knob_churn(&mut session, K, K));
    let ((), _, kept_2k) = heap_bytes_across(|| knob_churn(&mut session, 2 * K, 2 * K));
    assert_eq!(server.plan_stats().misses, 4 * K + 1, "every knob set planned");
    assert_eq!(server.cached_plans(), 1, "only the session's own plan is cached");
    assert!(
        (kept_2k - kept_k).abs() < 4 * KIB as i64,
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
/// (one record per batch, one slice per stripe), so a session holds its
/// token, arrival, stripe and handles. The registry was a token-keyed
/// B-tree, whose half-full nodes added about 52 B per session: 315 383 B,
/// 157 B per session, 450 allocations. It is a token-sorted slot vector
/// now, one 40 B slot per session grown by doubling: 211 383 B, 105 B per
/// session, 126 allocations. The bounds sit just above. Against that
/// fleet, 1 000 steady-state gate decisions of an SLO session request
/// 0 B; with the walk memo disabled, each re-walks the mix and the
/// thousand request 594 580 000 B.
#[test]
fn an_open_fleet_holds_only_what_its_sessions_do_not_share() {
    const N: usize = 2_000;
    let _guard = serialised();
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
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let (fleet, _, held) = heap_bytes_across(|| {
        let mut fleet = server.open_fleet(N, cfg.target, cfg.preload_bytes).unwrap();
        for (i, session) in fleet.iter_mut().enumerate() {
            session.set_arrival(SimTime::from_ms(i as u64 * 100));
        }
        fleet
    });
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
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
    let ((), steady, _) = heap_bytes_across(|| {
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
/// held 104 000 B more to begin with (see the open-fleet pin). The bound
/// is headroom for the harness.
#[test]
fn session_churn_at_a_steady_fleet_size_keeps_the_fresh_fleets_heap() {
    const N: usize = 2_000;
    let _guard = serialised();
    let ctx = scaled_context();
    let cfg = ServeConfig { channels: 4, ..ServeConfig::default() };
    let server = build_server(&ctx, &cfg);
    let open = || server.session_with(cfg.target, cfg.preload_bytes).unwrap();
    // The plan and its preload buffer come to stay on first use.
    drop(open());
    let mut fleet: Vec<Session> = (0..N).map(|_| open()).collect();
    let mut rng = Rng(0x5eed_2000);
    let ((), _, churned) = heap_bytes_across(|| {
        for _ in 0..10_000 {
            drop(fleet.swap_remove(rng.next() as usize % N));
            fleet.push(open());
        }
    });
    assert_eq!(server.open_sessions(), N);
    assert!(churned < 4 * KIB as i64, "10 000 close-and-open cycles kept {churned} B");
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
            CoRunnerLoad { jobs, arrival: SimTime::from_ms(token * 100) },
            None,
        );
    }
    let jobs = (0..12u64).map(|layer| (layer % 6 != 0).then(|| job(layer))).collect();
    (mix, EngagementLoad { jobs, comp: SimTime::from_ms(5), arrival: SimTime::from_ms(1_000) })
}

#[test]
fn an_unbatched_prediction_folds_the_channel_queues_instead_of_simulating_the_fleet() {
    let _guard = serialised();
    let (mix, load) = fleet(2_000, IoSharing::Exclusive);
    let alone = ServingMix::new(IoSharing::Exclusive).with_topology(mix.topology()).predict(&load);
    let (contended, predict_bytes, _) = heap_bytes_across(|| mix.predict(&load));
    assert!(contended > alone, "the candidate queues behind the fleet: {contended:?}");
    // The uncontended latency as the SLO: the search probes for the delay at
    // which the backlog has drained.
    let (_, min_delay_bytes, _) =
        heap_bytes_across(|| mix.min_delay(&load, alone, SimTime::from_ms(200)));
    // Simulating the fleet would build every lane's jobs and completions:
    // 2.4 MiB per prediction and 4.6 MiB per search at this size. The closed
    // form folds the lanes arriving by the candidate into one free time per
    // channel and requests 48 and 55 KiB. What remains is mostly the lane
    // handles (`raw_lanes`: one 24-byte `Lane` per session, 47 KiB here).
    assert!(predict_bytes < 96 * KIB, "a prediction over 2 000 sessions requested {predict_bytes}");
    assert!(
        min_delay_bytes < 96 * KIB,
        "a delay search over 2 000 sessions requested {min_delay_bytes}"
    );
}

/// The same fleet batched under `burst_shared`'s 2 ms window. A batched
/// prediction used to submit every grouped read to the queue simulator and
/// run it: 2 497 068 B per prediction and 4 817 876 B per search at this
/// size. Folding the reads per channel requests 1 127 360 and 1 138 016 B,
/// mostly the reads themselves (one 40-byte read per job of every lane, a
/// grouping that must see the later lanes too) and their service order.
/// The bound sits between the two.
#[test]
fn a_batched_prediction_folds_the_channel_queues_instead_of_simulating_the_fleet() {
    let _guard = serialised();
    let (mix, load) = fleet(2_000, IoSharing::Batched(SimTime::from_ms(2)));
    let alone = ServingMix::new(IoSharing::Exclusive).with_topology(mix.topology()).predict(&load);
    let (contended, predict_bytes, _) = heap_bytes_across(|| mix.predict(&load));
    assert!(contended > alone, "the candidate queues behind the fleet: {contended:?}");
    let (_, min_delay_bytes, _) =
        heap_bytes_across(|| mix.min_delay(&load, alone, SimTime::from_ms(200)));
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

#[test]
fn every_hop_hands_on_the_stores_one_payload() {
    let _guard = serialised();
    let model = Model::synthetic(11, ModelConfig::tiny());
    let store = MemStore::build(&model, &Bitwidth::ALL, &QuantConfig::default());
    let id = ShardId::new(1, 2);
    let key = ShardKey::new(id, Bitwidth::B4);
    let payload = |blob: &QuantizedBlob| {
        (blob.packed().as_ptr(), blob.centroids().as_ptr(), blob.outliers().as_ptr())
    };
    let in_store = store.load(key).unwrap();
    assert_eq!(payload(&store.load(key).unwrap()), payload(&in_store), "load twice");

    // Cache: the miss admits the store's payload, the hit returns it. The
    // main map has room for `key` or `cold` but not both, so promoting
    // `cold` below evicts `key` from it.
    let cold = ShardKey::new(id, Bitwidth::B6);
    let cold_in_store = store.load(cold).unwrap();
    let room = (in_store.byte_size() + cold_in_store.byte_size() - 1) as u64;
    let cache = Arc::new(ShardCache::with_prefetch_pool(room, 1 << 20));
    let (missed, resident) = cache.get_or_load_tracked(&store, key).unwrap();
    assert!(!resident);
    assert_eq!(payload(&missed), payload(&in_store), "cache miss");
    let (hit, resident) = cache.get_or_load_tracked(&store, key).unwrap();
    assert!(resident);
    assert_eq!(payload(&hit), payload(&in_store), "cache hit");
    let store = Arc::new(store);
    let cached = CachedSource::new(store.clone(), cache.clone());
    assert_eq!(payload(&cached.load(key).unwrap()), payload(&in_store), "cached source");

    // Staging pool: staged cold, pinned from the main map, promoted on a
    // demand miss — the same payload each time.
    assert!(cache.prefetch_load(&*store, cold).unwrap().0 > 0, "staged from flash");
    assert!(cache.prefetch_load(&*store, key).unwrap().1 > 0, "pinned");
    let (promoted, resident) = cache.get_or_load_tracked(&*store, cold).unwrap();
    assert!(resident, "the staged blob was promoted, not reloaded");
    assert_eq!(cache.prefetch_stats().hits, 1);
    assert_eq!(payload(&promoted), payload(&cold_in_store), "pool promote");
    assert_eq!(cache.len(), 1, "the promotion evicted `key` from the main map");
    let (pinned, resident) = cache.get_or_load_tracked(&*store, key).unwrap();
    assert!(resident, "the pinned handle outlives the main map's");
    assert_eq!(payload(&pinned), payload(&in_store), "pool pin");

    // Preload buffer: filled the way the engine and the server fill it.
    let preload = PreloadBuffer::fill(1 << 20, &[(id, key.bitwidth)], &cached).unwrap();
    assert_eq!(payload(preload.get(id).unwrap()), payload(&in_store), "preload entry");

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

/// A parsed trace is the clients vector plus each client's two flat
/// buffers: `1 + 2·C` blocks holding `4·tokens + 8·engagements` bytes
/// beside `size_of::<ClientTrace>()` (the knobs and the two buffer handles)
/// per client. A `Vec<Vec<u32>>` per client held one block per engagement:
/// 2 009 blocks and 116 544 B for this trace, against 17 and 84 608 B.
#[test]
fn a_parsed_trace_holds_two_blocks_per_client() {
    let _guard = serialised();
    let (clients, engagements) = (8, 250);
    let (json, tokens) = trace_json(clients, engagements);
    let (trace, _, blocks, bytes) = thread_heap_across(|| parse_trace(&json).unwrap());
    assert_eq!(trace.total_engagements(), clients * engagements);
    assert_eq!(blocks, 1 + 2 * clients as i64, "a parsed trace of {clients} clients");
    let per_client = std::mem::size_of::<ClientTrace>();
    let bound = 4 * tokens + 8 * clients * engagements + per_client * clients;
    assert!(
        bytes <= bound as i64,
        "{clients} clients of {engagements} engagements and {tokens} tokens hold {bytes} bytes"
    );
}

/// Parsing requests one block per engagement — the JSON tree's row array,
/// allocated once at its exact size — plus k = 10 per client and c = 24 in
/// all. Per client: its object's fields, six keys, its rows array and its
/// two flat buffers. In all: the root object, its two keys and the
/// comment, the clients array and the parsed clients vector (6), and the
/// parser's two scratch stacks, which double from 4 slots up to the most
/// items open at once (10 growths here), with 8 to spare. Token
/// diagnostics are built only on the error path: formatting one per token,
/// and growing each row by doubling, cost about `2 + tokens` blocks per
/// engagement, 23 699 requests for this trace against 2 096.
#[test]
fn parsing_a_trace_requests_one_block_per_engagement() {
    let _guard = serialised();
    const PER_CLIENT: u64 = 10;
    const FIXED: u64 = 24;
    let (clients, engagements) = (8, 250);
    let (json, _) = trace_json(clients, engagements);
    let (trace, requested, _, _) = thread_heap_across(|| parse_trace(&json).unwrap());
    let (c, e) = (clients as u64, (clients * engagements) as u64);
    assert_eq!(trace.total_engagements() as u64, e);
    assert!(
        requested <= e + PER_CLIENT * c + FIXED,
        "parsing {e} engagements over {c} clients requested {requested} blocks"
    );
}
