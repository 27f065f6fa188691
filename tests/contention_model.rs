//! Contracts of the contended-time track: the flash-queue simulator, the
//! SLO-aware serving planner, and admission control.
//!
//! The acceptance anchor: a workload where admission control **rejects** an
//! engagement the queue simulator predicts would miss its SLO, while every
//! **admitted** engagement's contended latency meets its own. The
//! uncontended determinism contract (`tests/serving_runtime.rs`) is
//! untouched — these tests only exercise the new track.

use std::sync::Arc;

use sti::prelude::*;

fn importance_for(cfg: &ModelConfig) -> ImportanceProfile {
    ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    )
}

fn server(admission: AdmissionMode) -> StiServer {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 6);
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
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            widths: Some(vec![2, 4]),
            admission,
            ..ServeConfig::default()
        },
    )
}

/// The smallest achievable uncontended makespan on this server: what a
/// 1 µs target degrades to. An SLO at this level is satisfiable alone and
/// unsatisfiable under any co-runner.
fn floor_makespan(srv: &StiServer) -> SimTime {
    srv.session_with(SimTime::from_us(1), 0).expect("floor session").plan().predicted.makespan
}

/// The batching window is closed, and the scheduler and the predictor
/// apply the same one: two identical engagements arriving exactly `w` apart
/// share their reads in both, `w + 1 µs` apart in neither.
#[test]
fn the_window_boundary_is_the_same_in_the_scheduler_and_the_predictor() {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 6);
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let plan = plan_two_stage(
        &hw,
        &importance_for(&cfg),
        SimTime::from_ms(300),
        0,
        &[2, 4],
        &Bitwidth::ALL,
    );
    let solo = plan.predicted.makespan;
    let request = LayerRequest { layer: 0, items: plan.layers[0].items().collect() };
    let window = SimTime::from_ms(1);
    let sharing = IoSharing::Batched(window);
    for (apart, shared) in [(window, true), (window + SimTime::from_us(1), false)] {
        // The scheduler, with both requests queued before the first dispatch.
        let cache = Arc::new(ShardCache::new(0));
        let topology = DeviceTopology::single();
        let sched = IoScheduler::spawn(source.clone(), hw.flash, cache, sharing, topology);
        sched.pause_dispatch();
        let lanes =
            [sched.channel_striped_at(SimTime::ZERO, 0), sched.channel_striped_at(apart, 0)];
        for lane in &lanes {
            lane.request(request.clone()).unwrap();
        }
        sched.resume_dispatch();
        for lane in &lanes {
            lane.recv().unwrap();
        }
        let fanouts: Vec<usize> = sched
            .with_event_logs(|demand, _| demand.iter().map(FlashDispatchEvent::fanout).collect());
        assert_eq!(fanouts, if shared { vec![2] } else { vec![1, 1] }, "{apart} apart");

        // The predictor: the later engagement against the earlier one.
        let mix = ServingMix::from_co_runners(&[CoRunnerLoad::from_plan(&hw, &plan)], sharing);
        let predicted = mix.predict(&EngagementLoad::from_plan(&hw, &plan, apart));
        assert_eq!(predicted == solo, shared, "{apart} apart: predicted {predicted}, solo {solo}");
    }
}

#[test]
fn admission_rejects_predicted_slo_misses_and_admitted_engagements_meet_theirs() {
    let srv = server(AdmissionMode::Enforce);
    let generous = SimTime::from_ms(60_000);

    // Three well-behaved clients admit under a generous SLO...
    let admitted: Vec<Session> = (0..3)
        .map(|i| srv.session_with_slo(generous, 0).unwrap_or_else(|e| panic!("{i}: {e}")))
        .collect();
    // ...and the queue simulator's prediction for each meets its SLO.
    for s in &admitted {
        let served = s.serving_plan().expect("SLO sessions carry the search outcome");
        assert!(served.meets_slo);
        assert!(served.predicted_contended <= generous);
    }

    // A fourth client asks for the floor latency — achievable alone, but
    // the simulator predicts three co-runners push it past the SLO, and
    // admission control rejects the engagement.
    let tight = floor_makespan(&srv);
    match srv.session_with_slo(tight, 0) {
        Err(PipelineError::AdmissionRejected { predicted, slo, co_runners }) => {
            assert_eq!(co_runners, 3);
            assert_eq!(slo, tight);
            assert!(predicted > slo, "rejection must quote a predicted miss: {predicted} <= {slo}");
        }
        Ok(_) => panic!("the floor SLO must be rejected with 3 co-runners"),
        Err(other) => panic!("wrong error: {other}"),
    }
    let stats = srv.serving_stats();
    assert_eq!((stats.admitted_sessions, stats.rejected_sessions), (3, 1));

    // Run the admitted engagements; the measured contended track agrees:
    // every admitted engagement's contended latency meets its SLO.
    for s in &admitted {
        s.infer(&[1, 2, 3]).expect("admitted engagement executes");
    }
    let report = srv.contention_report();
    assert_eq!(report.engagements.len(), 3);
    for e in &report.engagements {
        assert_eq!(e.met_slo(), Some(true), "contended {} vs SLO {:?}", e.contended, e.slo);
        assert!(e.contended >= e.uncontended);
    }
    assert_eq!(report.slo_hit_rate(), Some(1.0));
}

#[test]
fn the_same_workload_admits_once_the_channel_frees_up() {
    let srv = server(AdmissionMode::Enforce);
    let tight = floor_makespan(&srv);
    // With no co-runners the floor SLO is exactly achievable.
    let alone = srv.session_with_slo(tight, 0).expect("floor SLO admits on an idle server");
    let served = alone.serving_plan().unwrap();
    assert!(served.meets_slo);
    assert_eq!(served.predicted_contended, tight, "alone, contended == uncontended == floor");
}

#[test]
fn full_replay_rejects_the_infeasible_client_and_serves_the_rest() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let mut cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        admission: AdmissionMode::Enforce,
        ..Default::default()
    };
    let floor = floor_makespan(&build_server(&ctx, &cfg));
    cfg.slo = Some(SimTime::from_ms(60_000));
    let mut trace = ServingTrace::synthetic(&ctx, &cfg, 4, 2);
    trace.clients[3].slo = Some(floor); // the aggressive client opens last

    let server = build_server(&ctx, &cfg);
    let report = replay_event(&server, &trace).unwrap();
    assert_eq!(report.rejected_clients, vec![3]);
    assert!(report.outcomes[3].is_empty());
    for outcomes in &report.outcomes[..3] {
        assert_eq!(outcomes.len(), 2, "admitted clients serve all engagements");
    }
    assert_eq!(report.contention.slo_hit_rate(), Some(1.0), "admitted engagements meet their SLOs");

    // And the deterministic track still matches a sequential replay.
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(report.outcomes, sequential.outcomes);
    assert_eq!(sequential.rejected_clients, vec![3]);
}

#[test]
fn predicted_contention_is_exact_alone_and_monotone_in_co_runners() {
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = importance_for(&cfg);
    for (t, s) in [(300u64, 0u64), (300, 16 << 10), (1_000, 0)] {
        let plan =
            plan_two_stage(&hw, &importance, SimTime::from_ms(t), s, &[2, 4], &Bitwidth::ALL);
        // `co` co-arriving clones of the plan, no IO sharing.
        let predict = |co: usize| {
            let clones = vec![CoRunnerLoad::from_plan(&hw, &plan); co];
            ServingMix::from_co_runners(&clones, IoSharing::Exclusive)
                .predict(&EngagementLoad::from_plan(&hw, &plan, SimTime::ZERO))
        };
        assert_eq!(predict(0), plan.predicted.makespan, "T={t} |S|={s}");
        let mut last = SimTime::ZERO;
        for co in [0usize, 1, 2, 4, 8] {
            let predicted = predict(co);
            assert!(predicted >= last, "contended latency must not shrink as co-runners grow");
            last = predicted;
        }
    }
}

#[test]
fn trace_file_round_trips_through_both_replay_modes() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        admission: AdmissionMode::Enforce,
        ..Default::default()
    };
    let trace = load_trace("examples/traces/smoke.json").expect("shipped example parses");
    let concurrent = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(concurrent.outcomes, sequential.outcomes, "trace replay is deterministic");
    assert_eq!(concurrent.rejected_clients, sequential.rejected_clients);
    let served: usize = concurrent.outcomes.iter().map(Vec::len).sum();
    assert!(served > 0, "the example trace must serve work");
}
