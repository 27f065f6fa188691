//! Integration contracts of the concurrent serving runtime.
//!
//! The refactor from `StiEngine` (one app, one engagement at a time) to
//! `StiServer` + `Session` (N concurrent engagements over shared caches and
//! one IO scheduler) is only sound if sharing is invisible to results:
//!
//! 1. a single session through the server reproduces the seed engine
//!    exactly — same class, probabilities, timeline, loaded bytes;
//! 2. N concurrent sessions — on the event executor, and driven from N host
//!    threads that share the scheduler's one drive — produce outcomes
//!    identical to N sequential runs (determinism under sharing);
//! 3. the plan cache replans only on knob changes and honours
//!    invalidation;
//! 4. the shard cache stays under its byte budget while serving.

use std::sync::Arc;

use sti::prelude::*;

fn task() -> Task {
    Task::build(TaskKind::Sst2, ModelConfig::tiny(), 4, 6)
}

fn importance_for(cfg: &ModelConfig) -> ImportanceProfile {
    ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    )
}

fn engine_and_server(preload_budget: u64) -> (StiEngine, StiServer) {
    let task = task();
    let cfg = task.model().config().clone();
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let importance = importance_for(&cfg);

    let engine =
        StiEngine::builder(task.model().clone(), source.clone(), hw.clone(), importance.clone())
            .target(SimTime::from_ms(300))
            .preload_budget(preload_budget)
            .widths(&[2, 4])
            .build()
            .expect("engine builds");

    let server = StiServer::new(
        task.model().clone(),
        source,
        hw,
        importance,
        &ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: preload_budget,
            widths: Some(vec![2, 4]),
            ..ServeConfig::default()
        },
    );

    (engine, server)
}

#[test]
fn single_session_reproduces_the_engine_exactly() {
    for preload_budget in [0u64, 16 << 10] {
        let (engine, server) = engine_and_server(preload_budget);
        let session = server.session().expect("session opens");
        assert_eq!(session.plan(), engine.plan(), "identical knobs must plan identically");
        assert_eq!(session.preload_used(), engine.preload_used());

        for tokens in [vec![1, 2, 3], vec![9], vec![4, 4, 4, 4]] {
            let via_engine = engine.infer(&tokens).expect("engine inference");
            let via_session = session.infer(&tokens).expect("session inference");
            assert_eq!(via_session.class, via_engine.class);
            assert_eq!(via_session.probabilities, via_engine.probabilities);
            assert_eq!(via_session.outcome.logits, via_engine.outcome.logits);
            assert_eq!(via_session.outcome.timeline, via_engine.outcome.timeline);
            assert_eq!(via_session.outcome.loaded_bytes, via_engine.outcome.loaded_bytes);
        }

        // The generative path agrees too.
        let g_engine = engine.generate(&[1, 2], 4).expect("engine generates");
        let g_session = session.generate(&[1, 2], 4).expect("session generates");
        assert_eq!(g_session.tokens, g_engine.tokens);
        assert_eq!(g_session.first_step, g_engine.first_step);
        assert_eq!(g_session.per_step, g_engine.per_step);
        assert_eq!(g_session.loaded_bytes, g_engine.loaded_bytes);
    }
}

#[test]
fn eight_concurrent_sessions_match_sequential_execution() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        // Zero preload maximizes streaming through the shared scheduler —
        // the hardest case for determinism under sharing.
        preload_bytes: 0,
        io_workers: 2,
        ..Default::default()
    };
    let trace = ServingTrace::synthetic(&ctx, &cfg, 8, 3);
    assert_eq!(trace.total_engagements(), 24);

    let event = replay_event(&build_server(&ctx, &cfg), &trace).expect("event");
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).expect("sequential");
    assert_eq!(
        event.outcomes, sequential.outcomes,
        "per-engagement outcomes must be identical under concurrency"
    );

    // `StiServer`/`Session::infer` stay usable from N host threads, each
    // driving the shared scheduler while it waits: one thread per client,
    // released together so all eight stream through it at once. Only the
    // schedule-independent fields are compared.
    let server = build_server(&ctx, &cfg);
    let sessions: Vec<Session> = trace
        .clients
        .iter()
        .map(|c| server.session_with(c.target, c.preload_bytes).expect("session opens"))
        .collect();
    let start = std::sync::Barrier::new(sessions.len());
    let threaded: Vec<Vec<EngagementOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = trace
            .clients
            .iter()
            .zip(&sessions)
            .map(|(client, session)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    client
                        .engagements
                        .iter()
                        .map(|tokens| {
                            let inf = session.infer(tokens).expect("threaded inference");
                            EngagementOutcome {
                                class: inf.class,
                                probabilities: inf.probabilities,
                                makespan: inf.outcome.timeline.makespan,
                                loaded_bytes: inf.outcome.loaded_bytes,
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    assert_eq!(
        threaded, sequential.outcomes,
        "host-thread scheduling must not reach per-engagement outcomes"
    );

    // And all three match N fresh single-engine runs.
    let source = ctx.shard_source();
    let hw = HwProfile::measure(&cfg.device, ctx.task().model().config(), ctx.quant());
    for (client, outcomes) in trace.clients.iter().zip(&event.outcomes) {
        let engine = StiEngine::builder(
            ctx.task().model().clone(),
            source.clone(),
            hw.clone(),
            ctx.importance().clone(),
        )
        .target(client.target)
        .preload_budget(client.preload_bytes)
        .build()
        .expect("engine builds");
        for (tokens, outcome) in client.engagements.iter().zip(outcomes) {
            let inf = engine.infer(tokens).expect("engine inference");
            assert_eq!(outcome.class, inf.class);
            assert_eq!(outcome.probabilities, inf.probabilities);
            assert_eq!(outcome.makespan, inf.outcome.timeline.makespan);
            assert_eq!(outcome.loaded_bytes, inf.outcome.loaded_bytes);
        }
    }
}

#[test]
fn plan_cache_hits_misses_and_invalidates_across_sessions() {
    let (_, server) = engine_and_server(16 << 10);

    let a = server.session().expect("first session");
    let b = server.session().expect("second session");
    let stats = server.plan_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "same knobs: one plan, one hit");
    assert_eq!(a.plan(), b.plan());

    let mut c = server.session().expect("third session");
    c.set_target(SimTime::from_ms(1_500)).expect("retarget");
    let stats = server.plan_stats();
    assert_eq!(stats.misses, 2, "new target is a genuine miss");

    c.set_target(SimTime::from_ms(300)).expect("retarget back");
    assert_eq!(server.plan_stats().misses, 2, "returning to known knobs hits");

    server.invalidate_plans();
    let _d = server.session().expect("post-invalidation session");
    let stats = server.plan_stats();
    assert_eq!(stats.misses, 3, "invalidation forces a replan");
}

#[test]
fn shard_cache_serves_under_budget() {
    let task = task();
    let cfg = task.model().config().clone();
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    // A budget of roughly two compressed shards: far too small for the
    // whole submodel, so serving must continuously evict.
    let probe = source
        .load(ShardKey::new(ShardId::new(0, 0), Bitwidth::B2))
        .expect("probe blob")
        .byte_size() as u64;
    let budget = probe * 2;
    let server = StiServer::new(
        task.model().clone(),
        source,
        hw,
        importance_for(&cfg),
        &ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            widths: Some(vec![2, 4]),
            // Single fidelity so every streamed blob is admissible under the
            // tiny budget and eviction pressure is guaranteed.
            bitwidths: vec![Bitwidth::B2],
            shard_cache_bytes: budget,
            ..ServeConfig::default()
        },
    );

    let session = server.session().expect("session opens");
    let baseline = session.infer(&[5, 6]).expect("first engagement");
    for _ in 0..3 {
        let again = session.infer(&[5, 6]).expect("repeat engagement");
        assert_eq!(again.probabilities, baseline.probabilities);
        assert_eq!(again.outcome.loaded_bytes, baseline.outcome.loaded_bytes);
    }
    let stats = server.shard_stats();
    assert!(stats.evictions > 0, "a tiny budget must evict while serving");
}
