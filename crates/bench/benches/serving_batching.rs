//! Shared-IO batching benchmarks: what a batching window buys an
//! 8-co-resident workload — flash bytes saved and contended p50 — and what
//! the batched replay costs in host wall-clock, swept over window sizes
//! (0 = batching off). A second sweep compares exclusive (per-session)
//! versus mix-planned `|S|` placements: admitted sessions, chosen targets,
//! and contended p50 per window, plus the cost of the sharing-aware
//! search itself.
//!
//! The flash-byte and latency numbers are printed once per window before
//! the timing loop (criterion measures wall time; the simulated-economics
//! sweep is the part the roadmap asks to keep an eye on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::*;
use sti::TaskContext;

fn cfg_with_window(window_us: u64) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        // Zero preload: every engagement streams its full submodel, the
        // traffic batching exists to deduplicate.
        preload_bytes: 0,
        batch_window: (window_us > 0).then(|| SimTime::from_us(window_us)),
        ..Default::default()
    }
}

fn bench_batched_replay(c: &mut Criterion) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    ctx.importance(); // one-time profiling outside the timing loops
    let mut group = c.benchmark_group("serving_batching_replay");
    for window_us in [0u64, 100, 1_000, 10_000] {
        let cfg = cfg_with_window(window_us);
        let trace = ServingTrace::synthetic(&ctx, &cfg, 8, 2);
        // One untimed replay (on the default event executor) to report the
        // simulated economics per window.
        let report = replay_event(&build_server(&ctx, &cfg), &trace).expect("replay");
        eprintln!(
            "serving_batching: window {:>6}µs -> {} flash bytes saved, occupancy {:.2}, \
             contended p50 {}",
            window_us,
            report.contention.flash_bytes_saved,
            report.contention.mean_batch_occupancy,
            report.contention.latency_percentile(0.5),
        );
        group.bench_with_input(BenchmarkId::from_parameter(window_us), &window_us, |b, _| {
            b.iter(|| replay_event(&build_server(&ctx, &cfg), &trace).expect("replay"))
        });
    }
    group.finish();
}

fn bench_batched_admission(c: &mut Criterion) {
    // Admission cost with real co-runner loads and shared-IO prediction:
    // the search runs once per (knobs, co-runner mix, sharing), then memos.
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    let slo = SimTime::from_ms(400);
    let resident = plan_two_stage(&hw, &importance, slo, 0, &[2, 4], &Bitwidth::ALL);
    let co = vec![CoRunnerLoad::from_plan(&hw, &resident); 7];
    let mut group = c.benchmark_group("plan_for_slo_mix_per_session");
    for (name, sharing) in [
        ("exclusive", IoSharing::Exclusive),
        ("batched", IoSharing::Batched(SimTime::from_us(500))),
    ] {
        let mix = ServingMix::from_co_runners(&co, sharing);
        group.bench_function(name, |b| {
            b.iter(|| {
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
            })
        });
    }
    group.finish();
}

fn bench_mix_planned_preload(c: &mut Criterion) {
    // Exclusive vs mix-planned |S| against an 8-identical-session batched
    // mix (zero-|S| co-residents streaming every layer), swept over the
    // batching window: admitted sessions, chosen targets, and measured
    // contended p50 per policy, then the cost of the search itself.
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    let widths = [2usize, 4];
    let slo =
        plan_two_stage(&hw, &importance, SimTime::from_ms(60_000), 0, &widths, &Bitwidth::ALL)
            .predicted
            .makespan;
    let resident = plan_two_stage(&hw, &importance, slo, 0, &widths, &Bitwidth::ALL);
    let co = vec![CoRunnerLoad::from_plan(&hw, &resident); 8];
    let budget = 16u64 << 10;
    let mut group = c.benchmark_group("mix_planned_preload");
    for window_us in [100u64, 500, 10_000] {
        for (name, policy) in
            [("exclusive", PreloadPolicy::PerSession), ("mix", PreloadPolicy::SharingAware)]
        {
            // Untimed server economics: admitted sessions + contended p50.
            let source = std::sync::Arc::new(MemStore::build(
                task.model(),
                &Bitwidth::ALL,
                &QuantConfig::default(),
            ));
            let srv = StiServer::builder(
                task.model().clone(),
                source,
                hw.clone(),
                dev.flash,
                importance.clone(),
            )
            .widths(&widths)
            .batch_policy(BatchPolicy::from_window_us(window_us))
            .admission(AdmissionMode::Enforce)
            .plan_sharing(policy)
            .build();
            let residents: Vec<_> = (0..8).map(|_| srv.session_with(slo, 0).unwrap()).collect();
            let candidates: Vec<_> =
                (0..4).filter_map(|_| srv.session_with_slo(slo, budget).ok()).collect();
            for s in residents.iter().chain(&candidates) {
                s.infer(&[1, 2]).unwrap();
            }
            let report = srv.contention_report();
            let mean_target_us = candidates
                .iter()
                .map(|s| s.target().as_us())
                .sum::<u64>()
                .checked_div(candidates.len() as u64)
                .unwrap_or(0);
            eprintln!(
                "serving_batching: window {:>6}µs |S|-policy {:<9} -> {} of 4 SLO sessions                  admitted (mean target {}), contended p50 {}, {} preload bytes reallocated",
                window_us,
                name,
                candidates.len(),
                SimTime::from_us(mean_target_us),
                report.latency_percentile(0.5),
                report.preload_bytes_reallocated,
            );
            // Timed: the SLO search itself under this policy and window.
            let mix =
                ServingMix::from_co_runners(&co, IoSharing::Batched(SimTime::from_us(window_us)));
            group.bench_with_input(BenchmarkId::new(name, window_us), &window_us, |b, _| {
                b.iter(|| {
                    plan_for_slo_mix(
                        &hw,
                        &importance,
                        slo,
                        SimTime::ZERO,
                        &mix,
                        policy,
                        budget,
                        &widths,
                        &Bitwidth::ALL,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batched_replay, bench_batched_admission, bench_mix_planned_preload
}
criterion_main!(benches);
