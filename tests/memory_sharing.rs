//! Deterministic memory pins for the one-copy rule: a weight payload is
//! written once, then shared and immutable, so loading, caching, staging and
//! preloading a shard — and building another server over the same task —
//! allocate handles, not copies; and a context's store is on flash, so the
//! process holds an index to the quantised model, never the model. `peak_rss_mb` shows the same thing end to
//! end but only through the benchmark; these pins count heap bytes directly
//! and compare payload addresses, so they repeat exactly on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sti::prelude::*;
use sti::TaskContext;

/// The system allocator, counting every byte it is asked for (a realloc
/// counts in full: it may move the block), every byte still held, the most
/// ever held at once, and every request.
struct Counting;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static HELD: AtomicI64 = AtomicI64::new(0);
static HIGH_WATER: AtomicI64 = AtomicI64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        hold(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        hold(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live block of this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size() as i64, Ordering::Relaxed);
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
/// thread built: 640 976 B on 2 workers. A worker's scratch is one decoded
/// layer and one decoded shard, and what the profiler holds beside them
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
/// or not anyone read it: 44 467 551 B requested across the replay. Without
/// a sink it no longer does: 43 941 115 B. The difference, 526 436 B, is
/// exactly what `trace_spans` requests for the stream's 537 spans when the
/// caller asks for it afterwards. The bound sits between the two.
#[test]
fn a_bare_replay_does_not_assemble_the_span_stream() {
    let _guard = serialised();
    let ctx = scaled_context();
    let trace = load_trace("examples/traces/burst.json").expect("shipped example parses");
    let server = build_server(&ctx, &ServeConfig::default());
    let (report, requested, _) = heap_bytes_across(|| replay_sequential(&server, &trace));
    assert!(report.unwrap().spans.is_empty(), "a bare report assembles no spans");
    const BOUND: u64 = 44_200_000;
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
/// (one record per batch, one slice per stripe), and a session holds its
/// token, arrival, stripe and handles: 314 520 B, 157 B per session, and
/// 356 allocations, most of them registry B-tree nodes. The bounds sit
/// between. Against that fleet, 1 000 steady-state gate decisions of an
/// SLO session request 0 B; with the walk memo disabled, each re-walks the
/// mix and the thousand request 594 580 000 B.
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
    assert!(per_session < 224, "{N} open sessions hold {per_session} heap bytes each");
    assert!(
        allocations <= 2_000,
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

    // Cache: the miss admits the store's payload, the hit returns it.
    let cache = ShardCache::new(1 << 20);
    let (missed, resident) = cache.get_or_load_tracked(&store, key).unwrap();
    assert!(!resident);
    assert_eq!(payload(&missed), payload(&in_store), "cache miss");
    let (hit, resident) = cache.get_or_load_tracked(&store, key).unwrap();
    assert!(resident);
    assert_eq!(payload(&hit), payload(&in_store), "cache hit");
    let store = Arc::new(store);
    let cached = CachedSource::new(store.clone(), Arc::new(cache));
    assert_eq!(payload(&cached.load(key).unwrap()), payload(&in_store), "cached source");

    // Staging pool: staged cold, pinned from the main map, promoted on a
    // demand miss — the same payload each time.
    let cold = ShardKey::new(id, Bitwidth::B6);
    let cold_in_store = store.load(cold).unwrap();
    let cache = cached.cache();
    cache.enable_prefetch_pool(1 << 20);
    assert!(cache.prefetch_load(&*store, cold).unwrap().0 > 0, "staged from flash");
    assert!(cache.prefetch_load(&*store, key).unwrap().1 > 0, "pinned");
    let (promoted, resident) = cache.get_or_load_tracked(&*store, cold).unwrap();
    assert!(resident, "the staged blob was promoted, not reloaded");
    assert_eq!(cache.prefetch_stats().hits, 1);
    assert_eq!(payload(&promoted), payload(&cold_in_store), "pool promote");
    cache.clear();
    let (pinned, resident) = cache.get_or_load_tracked(&*store, key).unwrap();
    assert!(resident, "the pinned handle outlives the main map's");
    assert_eq!(payload(&pinned), payload(&in_store), "pool pin");

    // Preload buffer: filled the way the engine and the server fill it.
    let mut preload = PreloadBuffer::new(1 << 20);
    preload.insert(id, cached.load(key).unwrap()).unwrap();
    assert_eq!(payload(preload.get(id).unwrap()), payload(&in_store), "preload entry");

    // And the model: a clone is the same weights.
    let twin = model.clone();
    assert_eq!(twin.layers().as_ptr(), model.layers().as_ptr());
    assert!(std::ptr::eq(twin.embedding(), model.embedding()));
    assert!(std::ptr::eq(twin.classifier(), model.classifier()));
}
