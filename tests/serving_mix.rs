//! Contracts of the unified `ServingMix` prediction engine and the
//! sharing-aware `|S|` search.
//!
//! 1. **Determinism.** Trace replays through the single-predictor path
//!    stay deterministic (event ≡ sequential outcomes and gate logs on
//!    `smoke.json` and `burst.json`). On a trace with no preload budgets,
//!    `--plan-sharing mix` is the per-session fixed point: byte-identical
//!    outcomes and decisions.
//! 2. **Sharing-aware `|S|`.** The acceptance economics: against an
//!    8-identical-session batched mix, the sharing-aware search admits the
//!    *full-target* plan at an SLO the per-session search cannot hold, its
//!    predicted contended latency is strictly lower than the default
//!    placement's, and the measured contended track agrees. A proptest
//!    pins that the sharing-aware placement never preloads a layer a
//!    batched in-window co-resident already streams.
//! 3. **Digest convergence.** `ServingMix::digest` — the one memo identity
//!    behind the gate memos — distinguishes
//!    every registry change that can alter a prediction or a gate replay.

use std::sync::Arc;

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

fn fixture() -> (HwProfile, ImportanceProfile) {
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = importance_for(&cfg);
    (hw, importance)
}

const WIDTHS: [usize; 2] = [2, 4];

fn batched() -> IoSharing {
    IoSharing::Batched(SimTime::from_ms(1))
}

#[test]
fn mix_digest_distinguishes_every_gate_relevant_change() {
    let (hw, imp) = fixture();
    let plan = plan_two_stage(&hw, &imp, SimTime::from_ms(300), 0, &WIDTHS, &Bitwidth::ALL);
    let load = CoRunnerLoad::from_plan(&hw, &plan);
    let base = {
        let mut mix = ServingMix::new(IoSharing::Exclusive);
        mix.push_session(0, load.clone(), None);
        mix
    };
    assert_eq!(base.digest(), base.digest(), "digests are deterministic");
    // A different token is a different mix (the gate's tie-break order).
    let mut other_token = ServingMix::new(IoSharing::Exclusive);
    other_token.push_session(1, load.clone(), None);
    assert_ne!(base.digest(), other_token.digest());
    // A gate profile appearing is a different mix (the replay changes).
    let mut with_slo = ServingMix::new(IoSharing::Exclusive);
    with_slo.push_session(
        0,
        load.clone(),
        Some(SloProfile::from_plan(&hw, &plan, SimTime::from_ms(500))),
    );
    assert_ne!(base.digest(), with_slo.digest());
    // ...and so is a different SLO on the same profile.
    let mut other_slo = ServingMix::new(IoSharing::Exclusive);
    other_slo.push_session(
        0,
        load.clone(),
        Some(SloProfile::from_plan(&hw, &plan, SimTime::from_ms(900))),
    );
    assert_ne!(with_slo.digest(), other_slo.digest());
    // A different arrival or sharing mode counts too.
    let mut late = ServingMix::new(IoSharing::Exclusive);
    late.push_session(0, CoRunnerLoad::from_plan_at(&hw, &plan, SimTime::from_ms(7)), None);
    assert_ne!(base.digest(), late.digest());
    let mut shared = ServingMix::new(batched());
    shared.push_session(0, load.clone(), None);
    assert_ne!(base.digest(), shared.digest());
}

/// Replays a trace through both replays under a plan-sharing policy and pins
/// the determinism contract of the refactored single-predictor path.
fn replay_deterministically(
    trace_path: &str,
    backpressure: BackpressureMode,
    plan_sharing: PreloadPolicy,
) -> ServeReport {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        backpressure,
        plan_sharing,
        batch_window: Some(SimTime::from_us(500)),
        ..Default::default()
    };
    let trace = load_trace(trace_path).expect("shipped example parses");
    let concurrent = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(concurrent.outcomes, sequential.outcomes, "{trace_path}: outcomes diverged");
    assert_eq!(
        concurrent.contention.gate, sequential.contention.gate,
        "{trace_path}: gate decisions diverged"
    );
    assert_eq!(concurrent.rejected_clients, sequential.rejected_clients, "{trace_path}");
    concurrent
}

#[test]
fn refactored_predictors_replay_smoke_and_burst_deterministically() {
    for mode in [BackpressureMode::Shed, BackpressureMode::Queue(SimTime::from_ms(2_000))] {
        for policy in [PreloadPolicy::PerSession, PreloadPolicy::SharingAware] {
            replay_deterministically("examples/traces/smoke.json", mode, policy);
            replay_deterministically("examples/traces/burst.json", mode, policy);
        }
    }
}

#[test]
fn zero_budget_traces_make_sharing_aware_the_per_session_fixed_point() {
    // Every burst.json client has preload_kb 0: there is no budget to
    // re-place, so the sharing-aware search must coincide with the
    // per-session one bit for bit.
    let mode = BackpressureMode::Queue(SimTime::from_ms(2_000));
    let off =
        replay_deterministically("examples/traces/burst.json", mode, PreloadPolicy::PerSession);
    let mix =
        replay_deterministically("examples/traces/burst.json", mode, PreloadPolicy::SharingAware);
    assert_eq!(off.outcomes, mix.outcomes);
    assert_eq!(off.contention.gate, mix.contention.gate);
    assert_eq!(mix.contention.preload_bytes_reallocated, 0, "nothing to reallocate");
}

/// The acceptance economics at the planner level: an 8-identical-session
/// batched mix (every co-resident streaming its full plan), a candidate
/// with a real preload grant.
#[test]
fn sharing_aware_preload_admits_the_full_target_against_an_identical_batched_mix() {
    let (hw, imp) = fixture();
    // The SLO is the full-fidelity plan's own makespan: zero slack, so any
    // misalignment with the mix is fatal to the default placement.
    let slo = plan_two_stage(&hw, &imp, SimTime::from_ms(60_000), 0, &WIDTHS, &Bitwidth::ALL)
        .predicted
        .makespan;
    let budget = 16 << 10;
    // Eight identical co-residents running the zero-|S| allocation of the
    // exact target the candidate's first ladder rung will try: they stream
    // every layer, so every candidate layer is covered in-window.
    let resident = plan_two_stage(&hw, &imp, slo, 0, &WIDTHS, &Bitwidth::ALL);
    assert!(resident.predicted.makespan <= slo, "the resident plan meets the SLO alone");
    let co = vec![CoRunnerLoad::from_plan(&hw, &resident); 8];
    let mix = ServingMix::from_co_runners(&co, batched());

    // The default (per-session) placement misaligns with the mix: its
    // preload shifts the candidate's request stream off the co-residents',
    // so nothing coalesces and the candidate queues behind the batch.
    let default_plan = plan_two_stage(&hw, &imp, slo, budget, &WIDTHS, &Bitwidth::ALL);
    assert!(!default_plan.preload.is_empty(), "the grant must buy a real prefix");
    let default_predicted =
        mix.predict(&EngagementLoad::from_plan(&hw, &default_plan, SimTime::ZERO));
    assert!(
        default_predicted > slo,
        "the misaligned default placement must miss the SLO: {default_predicted} <= {slo}"
    );

    let per_session = plan_for_slo_mix(
        &hw,
        &imp,
        slo,
        SimTime::ZERO,
        &mix,
        PreloadPolicy::PerSession,
        budget,
        &WIDTHS,
        &Bitwidth::ALL,
    );
    let sharing = plan_for_slo_mix(
        &hw,
        &imp,
        slo,
        SimTime::ZERO,
        &mix,
        PreloadPolicy::SharingAware,
        budget,
        &WIDTHS,
        &Bitwidth::ALL,
    );

    // Sharing-aware: the zero-|S| placement aligns byte-identically with
    // the co-residents, rides their batches, and admits at the FULL
    // target — the strictly tighter admission the per-session search
    // cannot hold (it must degrade the target or miss outright).
    assert!(sharing.meets_slo, "sharing-aware |S| admits");
    assert_eq!(sharing.target, slo, "at the full target");
    assert!(sharing.preload_bytes_reallocated > 0, "the whole prefix was freed");
    assert!(
        sharing.predicted_contended < default_predicted,
        "strictly lower contended latency than the default placement: {} !< {}",
        sharing.predicted_contended,
        default_predicted
    );
    assert!(
        !per_session.meets_slo || per_session.target < slo,
        "per-session |S| must degrade the target or miss at this SLO"
    );
    if per_session.meets_slo {
        assert!(
            per_session.target < sharing.target,
            "the per-session search holds the SLO only with a strictly degraded target: \
             {} !< {}",
            per_session.target,
            sharing.target
        );
    }
}

/// The acceptance economics on the measured track: the same mix through a
/// real server, quiesced so the batching fan-out is deterministic. Plan
/// quality is held constant — both candidates run a full-target plan with
/// the same grant — so the comparison isolates the `|S|` *placement*: the
/// default byte-prefix (per-session) against the mix-planned one.
#[test]
fn sharing_aware_preload_strictly_lowers_the_measured_contended_latency() {
    let build = |policy: PreloadPolicy| {
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
                widths: Some(WIDTHS.to_vec()),
                batch_window: Some(SimTime::from_us(1_000)),
                plan_sharing: policy,
                ..ServeConfig::default()
            },
        )
    };
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let slo = plan_two_stage(
        &hw,
        &importance_for(&cfg),
        SimTime::from_ms(60_000),
        0,
        &WIDTHS,
        &Bitwidth::ALL,
    )
    .predicted
    .makespan;
    let budget = 16 << 10;
    let run = |policy: PreloadPolicy| {
        let srv = build(policy);
        // Eight identical zero-|S| co-residents...
        let residents: Vec<Session> = (0..8).map(|_| srv.session_with(slo, 0).unwrap()).collect();
        // ...and the candidate at the full target with a real preload
        // grant: the default byte-prefix placement under PerSession, the
        // mix-planned placement under SharingAware. (The SLO search would
        // degrade the per-session candidate's target instead — that
        // admission-quality gap is pinned at the planner level; here the
        // quality is held equal so the placement alone differs.)
        let candidate = match policy {
            PreloadPolicy::PerSession => srv.session_with(slo, budget).unwrap(),
            PreloadPolicy::SharingAware => srv.session_with_slo(slo, budget).unwrap(),
        };
        let candidate_token = residents.len() as u64;
        srv.pause_io();
        let expected: usize = residents.iter().map(|s| s.plan().layers.len()).sum::<usize>()
            + candidate
                .plan()
                .layers
                .iter()
                .filter(|pl| {
                    pl.items().any(|(slice, _)| {
                        !candidate.plan().is_preloaded(ShardId::new(pl.layer, slice))
                    })
                })
                .count();
        let report = std::thread::scope(|s| {
            let hs: Vec<_> = residents
                .iter()
                .map(|sess| s.spawn(move || sess.infer(&[7, 8]).map(|_| ())))
                .collect();
            let ch = s.spawn(|| candidate.infer(&[1, 2]).map(|_| ()));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while srv.queued_io_requests() < expected {
                assert!(std::time::Instant::now() < deadline, "workload never finished queuing");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            srv.resume_io();
            for h in hs {
                h.join().unwrap().unwrap();
            }
            ch.join().unwrap().unwrap();
            srv.contention_report()
        });
        let mine = *report
            .engagements
            .iter()
            .find(|e| e.session == candidate_token)
            .expect("the candidate executed");
        assert_eq!(report.preload_bytes_reallocated, srv.serving_stats().preload_bytes_reallocated);
        (mine, srv.serving_stats().preload_bytes_reallocated)
    };
    let (per_session, per_session_realloc) = run(PreloadPolicy::PerSession);
    let (sharing, sharing_realloc) = run(PreloadPolicy::SharingAware);
    assert_eq!(per_session_realloc, 0, "per-session |S| never reallocates");
    assert!(sharing_realloc > 0, "the sharing-aware search moved the grant off shared layers");
    // The per-engagement issue clock makes this comparison honest: the
    // per-session candidate's first byte waits behind the co-residents'
    // batch (initial queueing its service-onward makespan never showed).
    assert!(
        sharing.end_to_end() < per_session.end_to_end(),
        "measured issue-to-completion latency must be strictly lower under sharing-aware |S|: \
         {} !< {}",
        sharing.end_to_end(),
        per_session.end_to_end()
    );
    assert!(sharing.contended <= slo, "and the candidate meets its SLO on the measured track");
}

#[test]
fn retarget_slo_replaces_the_reallocated_bytes_contribution() {
    // A retarget against an unchanged mix must not re-add its session's
    // reallocated bytes: the stat tracks current placements, not searches.
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let srv = StiServer::new(
        task.model().clone(),
        source,
        hw.clone(),
        importance_for(&cfg),
        &ServeConfig {
            widths: Some(WIDTHS.to_vec()),
            batch_window: Some(SimTime::from_us(1_000)),
            plan_sharing: PreloadPolicy::SharingAware,
            ..ServeConfig::default()
        },
    );
    let slo = plan_two_stage(
        &hw,
        &importance_for(&cfg),
        SimTime::from_ms(60_000),
        0,
        &WIDTHS,
        &Bitwidth::ALL,
    )
    .predicted
    .makespan;
    let _residents: Vec<Session> = (0..8).map(|_| srv.session_with(slo, 0).unwrap()).collect();
    let mut candidate = srv.session_with_slo(slo, 16 << 10).unwrap();
    let moved = srv.serving_stats().preload_bytes_reallocated;
    assert!(moved > 0, "the grant was freed at admission");
    candidate.retarget_slo(slo).unwrap();
    assert_eq!(
        srv.serving_stats().preload_bytes_reallocated,
        moved,
        "a same-mix retarget replaces its contribution instead of re-adding it"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharing-aware placement never preloads a layer a batched
    /// in-window co-resident already streams while an un-shared candidate
    /// layer exists — covered layers ride the batch, the budget goes to
    /// un-shared layers (and only un-shared layers: a partial preload of a
    /// covered layer would break the very batch match that made it cheap).
    #[test]
    fn sharing_aware_preload_never_covers_what_the_mix_streams(
        target_ms in 100u64..2_000,
        budget_kb in 1u64..256,
        resident_target_ms in 100u64..2_000,
    ) {
        let (hw, imp) = fixture();
        let plan = plan_two_stage(
            &hw,
            &imp,
            SimTime::from_ms(target_ms),
            budget_kb << 10,
            &WIDTHS,
            &Bitwidth::ALL,
        );
        // An in-window co-resident streaming its full (zero-|S|) plan.
        let resident = plan_two_stage(
            &hw,
            &imp,
            SimTime::from_ms(resident_target_ms),
            0,
            &WIDTHS,
            &Bitwidth::ALL,
        );
        let co = vec![CoRunnerLoad::from_plan(&hw, &resident)];
        let mix = ServingMix::from_co_runners(&co, batched());
        let shared = mix.streamed_sigs_in_window(SimTime::ZERO, 0);
        prop_assert!(!shared.is_empty());
        if let Some((realloc, freed)) = reallocate_preload_for_mix(&hw, &plan, &shared) {
            let covered: Vec<bool> = plan
                .layers
                .iter()
                .map(|pl| shared.contains(&sti_device::content_sig(pl.layer, pl.items())))
                .collect();
            for &(id, _) in &realloc.preload {
                prop_assert!(
                    !covered[id.layer as usize],
                    "layer {} is streamed by an in-window co-resident yet was preloaded",
                    id.layer
                );
            }
            // The budget is still respected, and the freed bytes are real.
            let used: u64 = realloc.preload.iter().map(|&(_, bw)| hw.shard_bytes(bw)).sum();
            prop_assert!(used <= plan.preload_budget_bytes);
            let moved: u64 = plan
                .preload
                .iter()
                .filter(|entry| !realloc.preload.contains(entry))
                .map(|&(_, bw)| hw.shard_bytes(bw))
                .sum();
            prop_assert_eq!(freed, moved);
            // Same submodel, same allocation: only the placement moved.
            prop_assert_eq!(&realloc.layers, &plan.layers);
        }
    }
}
