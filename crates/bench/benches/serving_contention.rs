//! Contended-track benchmarks: the cost of predicting contended latency
//! with the flash-queue simulator as co-runners grow, the SLO planning
//! search (cold and memoized), and SLO session admission through the
//! server. These sit on the serving hot path — admission runs once per
//! session open, prediction once per (knobs, co-runner) combination.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::*;
use sti::TaskContext;

fn fixture() -> (HwProfile, ImportanceProfile, ExecutionPlan) {
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    let plan = plan_two_stage(&hw, &importance, SimTime::from_ms(300), 0, &[2, 4], &Bitwidth::ALL);
    (hw, importance, plan)
}

fn bench_contention_prediction(c: &mut Criterion) {
    let (hw, _, plan) = fixture();
    let load = EngagementLoad::from_plan(&hw, &plan, SimTime::ZERO);
    let mut group = c.benchmark_group("mix_predict_clones");
    for co_runners in [0usize, 1, 4, 8, 16] {
        let clones = vec![CoRunnerLoad::from_plan(&hw, &plan); co_runners];
        let mix = ServingMix::from_co_runners(&clones, IoSharing::Exclusive);
        group.bench_with_input(BenchmarkId::from_parameter(co_runners), &mix, |b, mix| {
            b.iter(|| mix.predict(&load))
        });
    }
    group.finish();
}

fn bench_slo_search(c: &mut Criterion) {
    let (hw, importance, plan) = fixture();
    let slo = SimTime::from_ms(400);
    let clones = vec![CoRunnerLoad::from_plan(&hw, &plan); 4];
    let mix = ServingMix::from_co_runners(&clones, IoSharing::Exclusive);
    let search = || {
        plan_for_slo_mix(
            &hw,
            &importance,
            slo,
            SimTime::ZERO,
            &mix,
            PreloadPolicy::PerSession,
            0,
            &[2, 4],
            &Bitwidth::ALL,
        )
    };
    c.bench_function("plan_for_slo_mix_cold", |b| b.iter(search));
    let cache = ServingPlanCache::new();
    let base = PlanKey::new("bench", slo, 0, &[2, 4], &Bitwidth::ALL);
    let key = ServingPlanKey::for_mix(base, SimTime::ZERO, &mix, PreloadPolicy::PerSession);
    c.bench_function("plan_for_slo_mix_memoized", |b| b.iter(|| cache.get_or_plan(&key, search)));
}

fn bench_slo_admission(c: &mut Criterion) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    ctx.importance();
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        admission: AdmissionMode::Enforce,
        ..Default::default()
    };
    let server = build_server(&ctx, &cfg);
    // Steady state: the search for (knobs, co=0) is memoized after the
    // first open, so this measures the admission fast path.
    let _warm = server.session_with_slo(SimTime::from_ms(60_000), 0).expect("admits");
    c.bench_function("session_with_slo_admitted", |b| {
        b.iter(|| {
            // co-runner count is 1 (the warm session) on every iteration:
            // open and drop inside the loop so the count stays stable.
            server.session_with_slo(SimTime::from_ms(60_000), 0).expect("admits")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_contention_prediction, bench_slo_search, bench_slo_admission
}
criterion_main!(benches);
