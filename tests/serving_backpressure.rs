//! Contracts of infer-time backpressure: the per-engagement SLO gate over
//! the live flash queue.
//!
//! Admission (PR 2/3) decides once, at session open; these tests pin the
//! mid-session story:
//!
//! 1. **The acceptance economics.** On a bursty workload (ten co-arriving
//!    engagements, eight of them a heavy burst admission never saw —
//!    featherweight sessions that retargeted heavy after the SLO client
//!    admitted), `BackpressureMode::Shed` yields a strictly higher SLO
//!    hit-rate among *served* engagements than `Off`, and `Queue` serves
//!    everything while meeting SLOs that `Off` misses.
//! 2. **Determinism.** Gate decisions are a pure function of the
//!    open-session registry: concurrent and sequential replays of the same
//!    trace produce identical decision logs, outcomes, and shed sets.
//! 3. **Properties.** Shed never fires for an engagement whose session's
//!    open-time admission prediction held; queue-delayed engagements still
//!    meet their SLO on the measured contended track.
//!
//! The uncontended determinism contract (`tests/serving_runtime.rs`) and
//! the batching economics (`tests/serving_batching.rs`) are untouched.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sti::prelude::*;
use sti::TaskContext;

fn importance_for(cfg: &ModelConfig) -> ImportanceProfile {
    ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    )
}

fn server(backpressure: BackpressureMode) -> StiServer {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    StiServer::new(
        task.model().clone(),
        source,
        hw,
        importance_for(&cfg),
        &ServeConfig {
            preload_bytes: 0,
            widths: Some(vec![2, 4]),
            backpressure,
            ..ServeConfig::default()
        },
    )
}

/// The bursty fixture the acceptance criteria run on. Returns
/// `(slo_hit_rate among served, served SLO engagements, report)` for one
/// backpressure mode.
///
/// Shape: one far-future SLO observer (outside every window), a tight-SLO
/// client admitted against a *featherweight* mix, then the mix retargets
/// heavy — eight full-model engagements co-arriving with the tight
/// client's. Admission could not see the burst; only the infer-time gate
/// can. The IO scheduler is quiesced until the whole burst is queued so
/// the round-robin interleave (what blows the SLO under `Off`) is
/// deterministic.
fn run_burst(mode: BackpressureMode) -> (f64, usize, ContentionReport) {
    let srv = server(mode);
    // Full-model makespan on an idle queue: the probe for SLO choices.
    let probe = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
    let full = probe.plan().predicted.makespan;
    drop(probe);

    // An SLO observer arriving far outside every window: it shares no
    // window, so it meets its (generous) SLO under every mode.
    let mut observer = srv.session_with_slo(SimTime::from_ms(60_000), 0).unwrap();
    observer.set_arrival(SimTime::from_ms(60_000));
    // Eight featherweight sessions: almost no streaming load at admission
    // time.
    let mut burst: Vec<Session> =
        (0..8).map(|_| srv.session_with(SimTime::from_us(1), 0).unwrap()).collect();
    // The tight client admits against the featherweight mix (its SLO has
    // ~20% slack over the full-model makespan, and the feathers cost ~µs).
    let slo = SimTime::from_us(full.as_us() + full.as_us() / 5);
    let tight = srv.session_with_slo(slo, 0).unwrap();
    let tight_plan = tight.serving_plan().expect("SLO session carries its search outcome");
    assert!(tight_plan.meets_slo, "admission against the featherweight mix holds");
    assert_eq!(
        tight.plan().layers.len(),
        2,
        "the tight client streams both layers (an interleave window exists)"
    );
    // THE BURST: the featherweights retarget to the full model. Admission
    // already said yes; from here on only the infer-time gate can react.
    for s in &mut burst {
        s.set_target(SimTime::from_ms(10_000)).unwrap();
    }

    // Quiesce, queue every engagement, release in one burst.
    srv.pause_io();
    let expected_jobs: usize = 2 /* observer */ + 8 * 2 /* burst */
        + if mode == BackpressureMode::Shed { 0 } else { 2 /* tight */ };
    let outcome = std::thread::scope(|s| {
        let observer_h = s.spawn(|| observer.infer(&[5, 6]).map(|_| ()));
        let burst_h: Vec<_> =
            burst.iter().map(|sess| s.spawn(move || sess.infer(&[7, 8]).map(|_| ()))).collect();
        let tight_h = s.spawn(|| tight.infer(&[1, 2, 3]).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(30);
        while srv.queued_io_requests() < expected_jobs {
            assert!(Instant::now() < deadline, "burst never finished queuing");
            std::thread::sleep(Duration::from_micros(200));
        }
        srv.resume_io();
        observer_h.join().unwrap().expect("the far-future observer always runs");
        for h in burst_h {
            h.join().unwrap().expect("target sessions are never gated");
        }
        tight_h.join().unwrap()
    });
    match mode {
        BackpressureMode::Shed => assert!(
            matches!(outcome, Err(PipelineError::Backpressure { .. })),
            "shed mode must fail the tight client fast, got {outcome:?}"
        ),
        _ => outcome.expect("off and queue modes execute the tight client"),
    }

    let report = srv.contention_report();
    let served_slo = report.engagements.iter().filter(|e| e.slo.is_some()).count();
    let hit_rate = report.slo_hit_rate().expect("the observer always serves an SLO engagement");
    (hit_rate, served_slo, report)
}

#[test]
fn shed_beats_off_on_hit_rate_and_queue_meets_what_off_misses() {
    let (off_rate, off_served, off_report) = run_burst(BackpressureMode::Off);
    let (shed_rate, shed_served, shed_report) = run_burst(BackpressureMode::Shed);
    let (queue_rate, queue_served, queue_report) =
        run_burst(BackpressureMode::Queue(SimTime::from_ms(60_000)));

    // Off serves everything and the tight client's engagement, interleaved
    // with the heavy burst it admitted before, misses its SLO.
    assert_eq!(off_served, 2);
    assert!(off_rate < 1.0, "the burst must blow the tight SLO under Off, got {off_rate}");
    assert!(off_report.gate.is_empty(), "mode off records no gate decisions");

    // Shed: strictly higher hit-rate among served engagements — the doomed
    // engagement failed fast instead of executing-and-missing.
    assert_eq!(shed_served, 1, "the tight engagement was shed");
    assert_eq!(shed_report.shed_count(), 1);
    assert!(
        shed_rate > off_rate,
        "shed must strictly beat off on hit-rate among served: {shed_rate} vs {off_rate}"
    );
    assert_eq!(shed_rate, 1.0, "every engagement shed mode served met its SLO");

    // Queue serves *everything* — including the SLO that Off missed — by
    // delaying the tight engagement past the burst on the simulated
    // timeline.
    assert_eq!(queue_served, 2);
    assert_eq!(queue_rate, 1.0, "queue mode meets the SLO off misses");
    assert_eq!(queue_report.shed_count(), 0);
    assert_eq!(queue_report.queue_delayed(), 1);
    assert!(queue_report.max_queue_delay() > SimTime::ZERO);
    let tight = queue_report
        .engagements
        .iter()
        .find(|e| e.slo.is_some() && e.slo != Some(SimTime::from_ms(60_000)))
        .expect("the tight engagement ran under queue mode");
    assert_eq!(tight.met_slo(), Some(true));
}

/// Gate decisions on a replayed trace must be identical between concurrent
/// and sequential replays — the determinism contract extended to the gate.
fn assert_replay_gate_determinism(trace_path: &str, backpressure: BackpressureMode) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        backpressure,
        ..Default::default()
    };
    let trace = load_trace(trace_path).expect("shipped example parses");
    let concurrent = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(
        concurrent.contention.gate, sequential.contention.gate,
        "{trace_path}: gate decisions must not depend on host-thread interleaving"
    );
    assert_eq!(
        concurrent.outcomes, sequential.outcomes,
        "{trace_path}: outcomes stay bit-identical"
    );
    assert_eq!(concurrent.rejected_clients, sequential.rejected_clients);
    assert_eq!(
        concurrent.contention.shed_count(),
        sequential.contention.shed_count(),
        "{trace_path}"
    );
}

#[test]
fn gate_decisions_are_identical_between_concurrent_and_sequential_replays() {
    for mode in [BackpressureMode::Shed, BackpressureMode::Queue(SimTime::from_ms(2_000))] {
        assert_replay_gate_determinism("examples/traces/smoke.json", mode);
        assert_replay_gate_determinism("examples/traces/burst.json", mode);
    }
}

#[test]
fn bursty_trace_sheds_under_shed_and_serves_all_under_queue() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let trace = load_trace("examples/traces/burst.json").unwrap();
    let run = |backpressure: BackpressureMode| {
        let cfg = ServeConfig { preload_bytes: 0, backpressure, ..Default::default() };
        replay_event(&build_server(&ctx, &cfg), &trace).unwrap()
    };
    let off = run(BackpressureMode::Off);
    let shed = run(BackpressureMode::Shed);
    let queue = run(BackpressureMode::Queue(SimTime::from_ms(5_000)));
    let served = |r: &ServeReport| r.outcomes.iter().map(Vec::len).sum::<usize>();
    assert_eq!(served(&off), trace.total_engagements());
    assert!(shed.contention.shed_count() > 0, "the burst must shed the late SLO clients");
    assert_eq!(served(&shed), trace.total_engagements() - shed.contention.shed_count() as usize);
    assert_eq!(shed.contention.slo_hit_rate(), Some(1.0), "what shed mode served met its SLO");
    // Queue mode keeps everything while still meeting every SLO.
    assert_eq!(served(&queue), trace.total_engagements());
    assert_eq!(queue.contention.shed_count(), 0);
    assert!(queue.contention.queue_delayed() > 0);
    assert_eq!(queue.contention.slo_hit_rate(), Some(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shed never fires for an engagement whose session's open-time
    /// admission prediction held: the gate prices a subset of what
    /// admission priced (earlier-arriving sessions, minus sheds), so a
    /// session admission cleared cannot be shed by the gate.
    #[test]
    fn shed_never_fires_when_the_admission_prediction_holds(
        slo_multipliers in proptest::collection::vec(1u64..40, 2..6),
    ) {
        let srv = server(BackpressureMode::Shed);
        let floor = srv.session_with(SimTime::from_us(1), 0).unwrap().plan().predicted.makespan;
        let sessions: Vec<(Session, bool)> = slo_multipliers
            .iter()
            .map(|&m| {
                let s = srv.session_with_slo(floor * m, 0).unwrap();
                let admitted = s.serving_plan().unwrap().meets_slo;
                (s, admitted)
            })
            .collect();
        for (session, admission_held) in &sessions {
            let outcome = session.infer(&[1, 2]);
            if *admission_held {
                prop_assert!(
                    !matches!(outcome, Err(PipelineError::Backpressure { .. })),
                    "gate shed a session whose admission prediction held"
                );
            }
        }
    }

    /// Queue-delayed engagements still meet their SLO on the measured
    /// contended track: the delay pushes them past the backlog, so their
    /// service window is clean.
    #[test]
    fn queue_delayed_engagements_meet_their_slo_on_the_measured_track(
        slo_multipliers in proptest::collection::vec(1u64..40, 2..6),
        engagements in 1usize..3,
    ) {
        let srv = server(BackpressureMode::Queue(SimTime::from_ms(600_000)));
        let floor = srv.session_with(SimTime::from_us(1), 0).unwrap().plan().predicted.makespan;
        let sessions: Vec<Session> = slo_multipliers
            .iter()
            .map(|&m| srv.session_with_slo(floor * m, 0).unwrap())
            .collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter()
                .map(|session| {
                    s.spawn(move || {
                        for _ in 0..engagements {
                            match session.infer(&[3, 4]) {
                                Ok(_) | Err(PipelineError::Backpressure { .. }) => {}
                                Err(e) => panic!("unexpected failure: {e}"),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let report = srv.contention_report();
        // The property covers engagements the gate actually *delayed*:
        // their shifted arrival gives them a clean service window, so the
        // measured track must agree with the gate's prediction. (An
        // undelayed engagement can still be interleaved by co-arriving
        // sessions that opened after it — backpressure reacts, it does not
        // reorder the already-admitted present.)
        let delayed: std::collections::HashSet<u64> = report
            .gate
            .iter()
            .filter(|d| !d.shed && d.delay > SimTime::ZERO)
            .map(|d| d.session)
            .collect();
        prop_assert!(report.engagements.iter().any(|e| e.slo.is_some()));
        for e in &report.engagements {
            if e.slo.is_some() && delayed.contains(&e.session) {
                prop_assert_eq!(
                    e.met_slo(),
                    Some(true),
                    "queue-delayed engagement missed on the measured track: {} vs {:?}",
                    e.contended,
                    e.slo
                );
            }
        }
    }
}
