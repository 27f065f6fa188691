//! Infer-time backpressure benchmarks: what the per-engagement SLO gate
//! buys a bursty workload — contended p99 and shed rate versus burst size,
//! gate off / shed / queue — and what the gate costs in host wall-clock.
//!
//! The simulated economics are printed once per configuration before the
//! timing loop (criterion measures wall time; the p99/shed-rate sweep is
//! the part the roadmap asks to keep an eye on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::*;
use sti::TaskContext;

/// A bursty trace: one early SLO client with a window to itself, then
/// `burst` SLO clients co-arriving 2 ms later, one engagement each.
fn bursty_trace(ctx: &TaskContext, cfg: &ServeConfig, burst: usize) -> ServingTrace {
    let mut trace = ServingTrace::synthetic(ctx, cfg, burst + 1, 1);
    trace.clients[0].slo = Some(SimTime::from_ms(50));
    for client in &mut trace.clients[1..] {
        client.slo = Some(SimTime::from_ms(50));
        client.arrival = SimTime::from_ms(2);
    }
    trace
}

fn gate_cfg(backpressure: BackpressureMode) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        // Zero preload maximizes streaming through the shared flash — the
        // contention regime the gate exists for.
        preload_bytes: 0,
        backpressure,
        ..Default::default()
    }
}

fn bench_backpressure_replay(c: &mut Criterion) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    ctx.importance(); // one-time profiling outside the timing loops
    let mut group = c.benchmark_group("serving_backpressure_replay");
    for burst in [4usize, 8, 16] {
        for (name, mode) in [
            ("off", BackpressureMode::Off),
            ("shed", BackpressureMode::Shed),
            ("queue", BackpressureMode::Queue(SimTime::from_ms(5_000))),
        ] {
            let cfg = gate_cfg(mode);
            let trace = bursty_trace(&ctx, &cfg, burst);
            // One untimed replay (on the default event executor) to report
            // the simulated economics.
            let report = replay_event(&build_server(&ctx, &cfg), &trace).expect("replay");
            let gated = report.contention.gate.len().max(1) as f64;
            eprintln!(
                "serving_backpressure: burst {burst:>2} gate {name:<5} -> contended p99 {}, \
                 shed rate {:.2}, {} queue-delayed (max delay {}), slo hit rate {:?}",
                report.contention.latency_percentile(0.99),
                report.contention.shed_count() as f64 / gated,
                report.contention.queue_delayed(),
                report.contention.max_queue_delay(),
                report.contention.slo_hit_rate(),
            );
            group.bench_with_input(BenchmarkId::new(name, burst), &burst, |b, _| {
                b.iter(|| replay_event(&build_server(&ctx, &cfg), &trace).expect("replay"))
            });
        }
    }
    group.finish();
}

fn bench_gate_prediction(c: &mut Criterion) {
    // The gate's hot path in isolation: one engagement prediction against a
    // synthetic backlog, and the queue-delay search on top of it.
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    let plan = plan_two_stage(&hw, &importance, SimTime::from_ms(400), 0, &[2, 4], &Bitwidth::ALL);
    let load = EngagementLoad::from_plan(&hw, &plan, SimTime::ZERO);
    let lane: Vec<QueuedIo> = load
        .jobs
        .iter()
        .flatten()
        .map(|j| QueuedIo { sig: j.sig, bytes: 0, service: j.service })
        .collect();
    let snapshot = BacklogSnapshot {
        channels: (0..8)
            .map(|channel| ChannelBacklog {
                channel,
                arrival: SimTime::ZERO,
                effective_arrival: SimTime::ZERO,
                inflight: false,
                queued: lane.clone(),
            })
            .collect(),
        batch_window: None,
    };
    let mix = ServingMix::from_backlog(&snapshot, IoSharing::Exclusive);
    let mut group = c.benchmark_group("gate_prediction");
    group.bench_function("predict", |b| b.iter(|| mix.predict(&load)));
    group.bench_function("min_delay", |b| {
        b.iter(|| {
            mix.min_delay(
                &load,
                plan.predicted.makespan + SimTime::from_ms(20),
                SimTime::from_ms(60_000),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_backpressure_replay, bench_gate_prediction
}
criterion_main!(benches);
