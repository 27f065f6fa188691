//! Contracts of the discrete-event serving path (`replay_event`) and the
//! co-arrival gate fixed point.
//!
//! 1. **Event ≡ sequential.** Replaying the shipped traces on the
//!    discrete-event engine reproduces the sequential oracle's
//!    per-engagement outcomes, gate decisions, admission rejections, and
//!    serving counters bit for bit. With batching off the
//!    schedule-free contended aggregates match too; with a batch window
//!    the event loop enqueues every co-arriving request before the flash
//!    components service the instant, so fan-outs are maximal.
//! 2. **Run-twice determinism.** Two event replays of the same trace are
//!    fully identical — outcomes, the whole contention report, and even
//!    the engine's heap-op count.
//! 3. **Co-arrival fixed point.** For mutually co-arriving SLO sessions in
//!    queue mode, the iterated second gate pass converges on delays that
//!    are consistent with each other: every member's prediction at its
//!    decided delay, priced against its co-arrivals' *decided* (delayed)
//!    positions, meets its SLO — and the early-exit `gate` agrees with the
//!    shared `gate_all` walk.
//! 4. **Random traces.** A proptest drives small generated traces through
//!    the event loop and pins outcome equality against the sequential
//!    replay.
//! 5. **Blocking callers drive like one `drive_io`.** A burst issued from
//!    eight blocking host threads behind a pause and then released leaves
//!    the same contended track and IO counters as the same burst issued
//!    from one thread and serviced by a single `drive_io`.

use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

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

fn serve_config(
    backpressure: BackpressureMode,
    batch_window: Option<SimTime>,
    plan_sharing: PreloadPolicy,
) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        backpressure,
        batch_window,
        plan_sharing,
        ..Default::default()
    }
}

/// Replays `trace` on the event executor and the sequential oracle of one
/// config and pins the determinism contract: outcomes, gate decisions,
/// and admission rejections are identical. Returns `(event, sequential)`
/// for aggregate comparisons the caller wants on top.
fn replay_both(trace: &ServingTrace, cfg: &ServeConfig) -> (ServeReport, ServeReport) {
    let ctx = ctx();
    let event = replay_event(&build_server(&ctx, cfg), trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, cfg), trace).unwrap();
    assert_eq!(event.outcomes, sequential.outcomes, "event vs sequential outcomes diverged");
    assert_eq!(
        event.contention.gate, sequential.contention.gate,
        "event vs sequential gate decisions diverged"
    );
    assert_eq!(event.rejected_clients, sequential.rejected_clients);
    // Peak in-flight engagements is the one schedule-dependent counter:
    // the event loop peaks with simulated co-arrival, the oracle runs one
    // engagement at a time. Everything else must match.
    let mut stats = event.serving_stats;
    stats.peak_concurrent_engagements = sequential.serving_stats.peak_concurrent_engagements;
    assert_eq!(stats, sequential.serving_stats);
    assert!(event.heap_ops > 0, "the event loop reports its heap traffic");
    assert_eq!(sequential.heap_ops, 0);
    (event, sequential)
}

#[test]
fn event_replay_matches_sequential_on_smoke_and_burst() {
    for path in ["examples/traces/smoke.json", "examples/traces/burst.json"] {
        let trace = load_trace(path).expect("shipped example parses");
        for mode in [BackpressureMode::Shed, BackpressureMode::Queue(SimTime::from_ms(2_000))] {
            let cfg = serve_config(mode, None, PreloadPolicy::PerSession);
            let (event, sequential) = replay_both(&trace, &cfg);
            // Batching off: flash busy time is schedule-free and must match
            // the oracle exactly.
            assert_eq!(event.contention.flash_busy, sequential.contention.flash_busy, "{path}");
            assert_eq!(event.contention.batched_dispatches, 0, "{path}");
            assert_eq!(event.contention.flash_bytes_saved, 0, "{path}");
            assert_eq!(
                event.contention.preload_bytes_reallocated,
                sequential.contention.preload_bytes_reallocated,
                "{path}"
            );
        }
    }
}

#[test]
fn batched_mix_trace_matches_sequential_and_reproduces_run_twice() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/mix.json").expect("shipped example parses");
    let cfg = serve_config(
        BackpressureMode::Queue(SimTime::from_ms(2_000)),
        Some(SimTime::from_us(500)),
        PreloadPolicy::SharingAware,
    );
    // Outcomes/gate/rejections are pinned by `replay_both`. On top: the
    // sharing-aware placement is decided at session open, so it cannot
    // depend on who executes; and the event loop — every co-arriving
    // request queued before the flash services the instant — coalesces
    // where the one-engagement-at-a-time oracle has nothing to batch.
    let (event, sequential) = replay_both(&trace, &cfg);
    assert_eq!(
        event.contention.preload_bytes_reallocated,
        sequential.contention.preload_bytes_reallocated
    );
    assert!(event.contention.batched_dispatches > 0, "co-arrivals coalesce on the event loop");
    assert!(event.contention.flash_busy < sequential.contention.flash_busy);
    // Run-twice determinism: the whole report reproduces, heap ops included.
    let again = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(event.outcomes, again.outcomes);
    assert_eq!(event.contention, again.contention);
    assert_eq!(event.rejected_clients, again.rejected_clients);
    assert_eq!(event.heap_ops, again.heap_ops, "event order is a pure function of the trace");
}

/// The contended track with its rows in lane order: blocking threads
/// complete — and record their engagements — in whatever order they finish.
fn by_lane(server: &StiServer) -> ContentionReport {
    let mut report = server.contention_report();
    report.engagements.sort_by_key(|e| e.channel);
    report
}

#[test]
fn eight_blocking_threads_release_a_burst_as_one_drive_io_does() {
    let ctx = ctx();
    let tokens: Vec<Vec<u32>> = (0..8).map(|i| vec![1 + i, 2, 3]).collect();
    for batch_window in [None, Some(SimTime::from_ms(1))] {
        let cfg = ServeConfig { batch_window, ..ServeConfig::default() };

        // One thread issues the burst, one `drive_io` services it.
        let single = build_server(&ctx, &cfg);
        let sessions: Vec<Session> = (0..8).map(|_| single.session().unwrap()).collect();
        let mut queued = Vec::new();
        let pending: Vec<_> = sessions
            .iter()
            .zip(&tokens)
            .map(|(session, t)| {
                let pending = session.infer_issue(t).unwrap();
                queued.push(single.queued_io_requests());
                pending
            })
            .collect();
        assert!(queued.windows(2).all(|w| w[0] < w[1]), "every engagement streams");
        assert!(single.drive_io() > 0);
        let expected: Vec<Vec<f32>> = sessions
            .iter()
            .zip(pending)
            .map(|(session, pending)| session.infer_complete(pending).unwrap().probabilities)
            .collect();

        // Eight blocking threads issue the same burst in the same order
        // (lane ids follow issue order) while paused, then are released.
        let threaded = build_server(&ctx, &cfg);
        let sessions: Vec<Session> = (0..8).map(|_| threaded.session().unwrap()).collect();
        threaded.pause_io();
        let wait_for = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while threaded.queued_io_requests() < n {
                assert!(Instant::now() < deadline, "the burst never finished queuing");
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        let got: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (session, t, wait_for) = (&sessions[i], &tokens[i], &wait_for);
                    let before = if i == 0 { 0 } else { queued[i - 1] };
                    s.spawn(move || {
                        wait_for(before);
                        session.infer(t).unwrap().probabilities
                    })
                })
                .collect();
            wait_for(queued[7]);
            threaded.resume_io();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got, expected, "{batch_window:?}");
        let report = by_lane(&threaded);
        assert_eq!(report, by_lane(&single), "{batch_window:?}");
        assert_eq!(report.batched_dispatches > 0, batch_window.is_some(), "the window coalesces");
        assert_eq!(threaded.io_stats(), single.io_stats(), "{batch_window:?}");
    }
}

fn importance_for(cfg: &ModelConfig) -> ImportanceProfile {
    ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    )
}

const WIDTHS: [usize; 2] = [2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite pin for the iterated second gate pass: a group of 2–4
    /// mutually co-arriving SLO sessions (plus optional plain co-residents)
    /// in queue mode converges on mutually consistent delays — each
    /// member's prediction at its decided delay, against the others'
    /// decided positions, meets its SLO.
    #[test]
    fn co_arrival_gate_fixed_point_converges(
        members in 2usize..5,
        plain in 0usize..3,
        arrival_us in 0u64..1_500,
        slo_ms in 2_000u64..20_000,
        target_sel in proptest::collection::vec(0usize..3, 4..5),
    ) {
        let model = ModelConfig::tiny();
        let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &model, &QuantConfig::default());
        let imp = importance_for(&model);
        let targets = [SimTime::from_ms(200), SimTime::from_ms(500), SimTime::from_ms(2_000)];
        let plans: Vec<ExecutionPlan> = targets
            .iter()
            .map(|&t| plan_two_stage(&hw, &imp, t, 0, &WIDTHS, &Bitwidth::ALL))
            .collect();
        let arrival = SimTime::from_us(arrival_us);
        let slo = SimTime::from_ms(slo_ms);
        let policy = BackpressureMode::Queue(SimTime::from_ms(30_000));
        // Tokens 0..members co-arrive with SLOs; plain sessions follow.
        let mut mix = ServingMix::new(IoSharing::Exclusive);
        for m in 0..members {
            let plan = &plans[target_sel[m % target_sel.len()]];
            mix.push_session(
                m as u64,
                CoRunnerLoad::from_plan_at(&hw, plan, arrival),
                Some(SloProfile::from_plan(&hw, plan, slo)),
            );
        }
        for p in 0..plain {
            let plan = &plans[target_sel[(members + p) % target_sel.len()]];
            mix.push_session(
                (members + p) as u64,
                CoRunnerLoad::from_plan_at(&hw, plan, SimTime::from_us(200 * p as u64)),
                None,
            );
        }
        let all = mix.gate_all(policy);
        prop_assert_eq!(all.len(), members, "every SLO member is priced");
        // Generous SLOs: the group queues, it never sheds — and the decided
        // delays are mutually consistent: re-predicting each member at its
        // decided position, against a mix rebuilt with every co-arrival at
        // *its* decided position, still meets the SLO.
        for &(token, outcome) in &all {
            prop_assert!(!outcome.shed, "member {} shed under a generous SLO", token);
            prop_assert!(outcome.predicted <= slo);
            let plan = &plans[target_sel[token as usize % target_sel.len()]];
            let mut others = ServingMix::new(IoSharing::Exclusive);
            for &(t, oc) in &all {
                if t == token {
                    continue;
                }
                let p = &plans[target_sel[t as usize % target_sel.len()]];
                others.push_session(
                    t,
                    CoRunnerLoad::from_plan_at(&hw, p, arrival + oc.delay),
                    None,
                );
            }
            for p in 0..plain {
                let pp = &plans[target_sel[(members + p) % target_sel.len()]];
                others.push_session(
                    (members + p) as u64,
                    CoRunnerLoad::from_plan_at(&hw, pp, SimTime::from_us(200 * p as u64)),
                    None,
                );
            }
            let load = EngagementLoad::from_plan(&hw, plan, arrival + outcome.delay);
            prop_assert!(
                others.predict(&load) <= slo,
                "member {}'s decided delay is inconsistent with the group's: {} > {}",
                token,
                others.predict(&load),
                slo
            );
        }
    }

    /// Small random traces: the event replay's per-engagement outcomes and
    /// gate decisions match the sequential replay's.
    #[test]
    fn event_replay_matches_sequential_on_random_traces(
        clients in proptest::collection::vec(
            (0u64..2_500, 1usize..3, any::<bool>()),
            1..4,
        ),
        queue_mode in any::<bool>(),
    ) {
        let ctx = ctx();
        let trace = ServingTrace {
            clients: clients
                .iter()
                .enumerate()
                .map(|(i, &(arrival_us, engagements, slo))| ClientTrace {
                    target: SimTime::from_ms(300),
                    preload_bytes: 0,
                    slo: slo.then(|| SimTime::from_ms(30_000)),
                    arrival: SimTime::from_us(arrival_us),
                    idle: SimTime::ZERO,
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
        let cfg = serve_config(mode, None, PreloadPolicy::PerSession);
        let event = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
        let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
        prop_assert_eq!(event.outcomes, sequential.outcomes);
        prop_assert_eq!(event.contention.gate, sequential.contention.gate);
        prop_assert_eq!(event.rejected_clients, sequential.rejected_clients);
    }
}
