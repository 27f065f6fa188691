//! Fencing contracts of the Markov next-engagement prefetcher.
//!
//! 1. **Speculation never touches the demand path.** A proptest replays
//!    random traces with `--prefetch markov` and `--prefetch off` and pins
//!    the demand side bit-identical: per-engagement outcomes, contended
//!    rows, whole gate decisions, admission rejections, and the serving
//!    counters.
//! 2. **Correct predictions pay.** On the shipped recurrent fixture the
//!    staging pool serves real bytes to later demand misses, and with
//!    DRAM-residency accounting the contended p50 is no worse than the
//!    prefetch-off replay while the SLO hit rate never drops.
//! 3. **Determinism.** Two event replays of the recurrent fixture with the
//!    prefetcher on are fully identical — outcomes, the whole contention
//!    report including the speculative pricing block, and the engine's
//!    heap-op count. The sequential oracle agrees with the event engine on
//!    the entire demand side.

use std::sync::{Arc, Mutex, Weak};

use proptest::prelude::*;
use sti::prelude::*;
use sti::TaskContext;

/// One context for the suite, shared by the tests running at the moment and
/// dropped with the last of them. A `static` context would never drop, and
/// its on-disk shard store would outlive the test process.
fn ctx() -> Arc<TaskContext> {
    static CTX: Mutex<Weak<TaskContext>> = Mutex::new(Weak::new());
    let mut slot = CTX.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    slot.upgrade().unwrap_or_else(|| {
        let fresh = Arc::new(TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny()));
        *slot = Arc::downgrade(&fresh);
        fresh
    })
}

/// Zero preload and a tiny main cache: every engagement streams and
/// recurrence cannot hide in main-cache residency — the regime where the
/// staging pool is the only thing that can help (and where speculative
/// pollution would show up immediately if the fence leaked).
fn serve_config(markov: bool, dram: bool, backpressure: BackpressureMode) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        shard_cache_bytes: 1 << 10,
        dram_residency: dram,
        backpressure,
        prefetch: if markov { PrefetchConfig::markov(64 << 10) } else { PrefetchConfig::default() },
        ..Default::default()
    }
}

#[test]
fn recurrent_fixture_prefetch_pays_without_hurting_the_demand_track() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/recurrent.json").expect("shipped fixture parses");
    let dram = true; // so pool hits re-price on the contended track
    let off_cfg = serve_config(false, dram, BackpressureMode::Off);
    let on_cfg = serve_config(true, dram, BackpressureMode::Off);
    let off = replay_event(&build_server(&ctx, &off_cfg), &trace).unwrap();
    let on = replay_event(&build_server(&ctx, &on_cfg), &trace).unwrap();

    // Speculation actually happened and served later demand misses.
    assert!(off.prefetch.is_none(), "prefetch off reports no prefetch block");
    let report = on.prefetch.as_ref().expect("markov replay carries a prefetch report");
    assert!(report.model.plans > 0, "the recurrent fixture must emit plans");
    assert!(report.jobs > 0, "plans must materialize into speculative jobs");
    assert!(report.pool.hit_bytes > 0, "staged bytes must serve later demand misses");
    assert!(report.pool.hit_rate() > 0.0);
    let spec = on.contention.prefetch.expect("speculation is priced on the contended track");
    assert!(spec.speculated_bytes + spec.pinned_bytes > 0);

    // The fence: uncontended outcomes are bit-identical, and the priced
    // contended track can only improve — staged bytes are DRAM-resident
    // at dispatch, never a new obligation in front of demand.
    assert_eq!(on.outcomes, off.outcomes, "speculation must not move a demand outcome");
    assert_eq!(on.rejected_clients, off.rejected_clients);
    assert!(
        on.contention.latency_percentile(0.50) < off.contention.latency_percentile(0.50),
        "staged-then-hit bytes re-price at DRAM speed, so the recurrent \
         fixture's contended p50 must strictly improve: {} >= {}",
        on.contention.latency_percentile(0.50),
        off.contention.latency_percentile(0.50)
    );
    assert!(on.contention.slo_hit_rate() >= off.contention.slo_hit_rate());
}

/// A finding pinned, not fixed: a demand read of a promoted prefetch stage
/// counts as cache-resident at dispatch (`hit_bytes`), and under DRAM
/// residency the ledger prices those bytes at DRAM speed, whatever the
/// staging job's own finish on the contended timeline. The host ran the
/// staging job first, but on the simulated clock its arrival is the
/// triggering engagement's completion, which can fall after the demand
/// that hits it.
///
/// The count is a lower bound read off the span stream: pool-hit bytes of
/// demand reads that arrived before *any* staging job could have finished
/// (a stage's unpriced end, arrival plus service, is the earliest its
/// priced finish can be). With a 1 KiB main cache every hit byte here is a
/// pool hit: a staged blob's first use or a later reuse of it, since the
/// pool keeps what demand hits. Pricing a hit no earlier than its staging
/// would bring this to zero and move `recurrent_think`; until then the
/// assertion states the finding.
#[test]
fn recurrent_fixture_serves_pool_hits_staged_after_the_demand_arrived() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/recurrent.json").expect("shipped fixture parses");
    let server = build_server(&ctx, &serve_config(true, true, BackpressureMode::Off));
    server.set_obs_sink(ObsSink::ring(8 << 20));
    let on = replay_event(&server, &trace).unwrap();
    let first_staged = on
        .spans
        .iter()
        .filter(|s| s.name == "prefetch.stage")
        .map(|s| s.end_us)
        .min()
        .expect("the recurrent fixture stages shards");
    let hit_bytes = |s: &SpanEvent| {
        s.args.entries().iter().find(|(key, _)| *key == "hit_bytes").map_or(0, |&(_, v)| v)
    };
    let dispatches: Vec<&SpanEvent> = on.spans.iter().filter(|s| s.name == "io.dispatch").collect();
    let hit: u64 = dispatches.iter().map(|s| hit_bytes(s)).sum();
    let early: u64 =
        dispatches.iter().filter(|s| s.start_us < first_staged).map(|s| hit_bytes(s)).sum();
    let pool = on.prefetch.as_ref().expect("markov replay carries a prefetch report").pool;
    assert_eq!(
        hit,
        pool.hit_bytes + pool.reuse_bytes,
        "with a 1 KiB main cache every resident byte is a pool hit or reuse"
    );
    assert!(
        early > 0,
        "{early} of {hit} pool-hit bytes were read before any staging job could have finished \
         (first at {first_staged} us), and are priced as resident all the same"
    );
}

/// The staging pool keeps what demand hits. A session that runs one
/// engagement over and over is predicted its own working set after every
/// completion; once the first staging has read it, each re-stage finds it
/// staged, so the session's speculated flash bytes stop growing while its
/// demand side stays exactly as prefetch off leaves it.
#[test]
fn a_self_recurrent_session_reads_its_predicted_working_set_from_flash_once() {
    const ENGAGEMENTS: usize = 24;
    let ctx = ctx();
    let run = |markov: bool| {
        let server = build_server(&ctx, &serve_config(markov, false, BackpressureMode::Off));
        let session = server.session().unwrap();
        let mut speculated = Vec::with_capacity(ENGAGEMENTS);
        let outcomes: Vec<_> = (0..ENGAGEMENTS)
            .map(|_| {
                let outcome = session.infer(&[1, 2, 3]).unwrap().outcome;
                speculated.push(server.prefetch_report().map_or(0, |r| r.speculated_bytes));
                (outcome.logits, outcome.class, outcome.timeline, outcome.loaded_bytes)
            })
            .collect();
        (outcomes, speculated, server.prefetch_report())
    };
    let (off, _, _) = run(false);
    let (on, speculated, report) = run(true);
    assert_eq!(on, off, "speculation must not move a demand outcome");
    let first = speculated
        .iter()
        .position(|&bytes| bytes > 0)
        .expect("the session's recurrence is predicted and staged");
    assert!(
        speculated[first..].iter().all(|&bytes| bytes == speculated[first]),
        "speculated flash bytes after each engagement: {speculated:?}"
    );
    let pool = report.expect("prefetch is on").pool;
    assert!(pool.reuse_bytes > 0, "later misses reuse the kept stage: {pool:?}");
    assert!(pool.hit_rate() <= 1.0, "{pool:?}");
}

#[test]
fn recurrent_fixture_event_replay_is_deterministic_run_twice() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/recurrent.json").expect("shipped fixture parses");
    let cfg = serve_config(true, true, BackpressureMode::Off);
    let a = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let b = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.contention, b.contention, "speculative pricing is deterministic too");
    assert_eq!(a.prefetch, b.prefetch);
    assert_eq!(a.heap_ops, b.heap_ops, "the engine schedule itself is reproducible");
}

#[test]
fn recurrent_fixture_event_matches_sequential_on_the_demand_side() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/recurrent.json").expect("shipped fixture parses");
    // DRAM residency off: contended pricing is independent of *when* the
    // background class stages bytes, so the event executor and the
    // sequential oracle (each blocking `infer` stages its speculation before
    // it returns) must agree on the whole demand side even though their
    // speculative timing differs.
    let cfg = serve_config(true, false, BackpressureMode::Off);
    let event = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(event.outcomes, sequential.outcomes);
    assert_eq!(event.rejected_clients, sequential.rejected_clients);
    // Record order and scheduler lane ids follow execution order — client
    // by client in the oracle, simulated time on the event loop — so
    // compare the per-engagement economics keyed by (session, issue).
    let rows = |r: &ServeReport| {
        let mut rows: Vec<_> = r
            .contention
            .engagements
            .iter()
            .map(|e| (e.session, e.issue, e.uncontended, e.contended, e.initial_queueing, e.slo))
            .collect();
        rows.sort_by_key(|r| (r.0, r.1));
        rows
    };
    assert_eq!(rows(&event), rows(&sequential));
    assert_eq!(event.contention.gate, sequential.contention.gate);
    assert!(event.prefetch.is_some(), "both replays run the prefetcher");
    assert!(sequential.prefetch.is_some());
}

proptest! {
    /// Random traces, gated and idle-gapped: enabling the prefetcher never
    /// changes anything the demand path reports — outcomes, contended
    /// rows, gate decisions, rejections, counters — only adds the priced
    /// speculation block.
    #[test]
    fn markov_prefetch_is_fenced_off_the_demand_path(
        clients in proptest::collection::vec(
            (0u64..2_500, 1usize..4, any::<bool>(), any::<bool>()),
            1..4,
        ),
        queue_mode in any::<bool>(),
    ) {
        let ctx = ctx();
        let trace = ServingTrace {
            clients: clients
                .iter()
                .enumerate()
                .map(|(i, &(arrival_us, engagements, slo, idle))| ClientTrace {
                    target: SimTime::from_ms(300),
                    preload_bytes: 0,
                    slo: slo.then(|| SimTime::from_ms(30_000)),
                    arrival: SimTime::from_us(arrival_us),
                    idle: if idle { SimTime::from_ms(5) } else { SimTime::ZERO },
                    engagements: (0..engagements)
                        .map(|e| vec![7 + i as u32, 3 + e as u32])
                        .collect(),
                })
                .collect(),
        };
        let mode = if queue_mode {
            BackpressureMode::Queue(SimTime::from_ms(2_000))
        } else {
            BackpressureMode::Shed
        };
        // DRAM residency off: the contended track prices every byte at
        // flash speed regardless of cache state, so the fenced demand side
        // must be *bit-identical*, not merely no worse.
        let off = replay_event(&build_server(&ctx, &serve_config(false, false, mode)), &trace)
            .unwrap();
        let on = replay_event(&build_server(&ctx, &serve_config(true, false, mode)), &trace)
            .unwrap();
        prop_assert_eq!(&on.outcomes, &off.outcomes);
        prop_assert_eq!(&on.rejected_clients, &off.rejected_clients);
        prop_assert_eq!(&on.contention.engagements, &off.contention.engagements);
        prop_assert_eq!(on.contention.flash_busy, off.contention.flash_busy);
        prop_assert_eq!(on.serving_stats, off.serving_stats);
        prop_assert_eq!(&on.contention.gate, &off.contention.gate);
        prop_assert_eq!(
            on.contention.slo_hit_rate(),
            off.contention.slo_hit_rate(),
            "a wrong prediction may waste bytes but never an SLO"
        );
        prop_assert!(off.prefetch.is_none());
        prop_assert!(on.prefetch.is_some());
    }
}
