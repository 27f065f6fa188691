//! Fleet-scale serving benchmarks: the cost structure the perf ledger
//! (`BENCH_serving.json`) tracks, in isolation.
//!
//! - `mix_maintenance`: registering / dropping a session against an
//!   N-session live mix (the O(log n) upsert + O(1) rolling-digest path).
//! - `mix_digest`: the rolling digest at fleet size (flat — the old full
//!   rehash was O(total queued jobs)).
//! - `gate_decision`: a session's steady-state gate probe against an
//!   N-session server — the memoized digest+lookup path whose near-flat
//!   scaling is the tentpole claim.
//! - `event_replay`: a synthetic trace through the discrete-event engine
//!   (one OS thread, heap-scheduled clients) — the per-engagement cost of
//!   hosting the fleet on the event loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::*;
use sti::TaskContext;

fn fixture() -> (HwProfile, ImportanceProfile) {
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    (hw, importance)
}

fn mix_of(hw: &HwProfile, plan: &ExecutionPlan, n: usize) -> ServingMix {
    let mut mix = ServingMix::new(IoSharing::Exclusive);
    for t in 0..n as u64 {
        mix.push_session(t, CoRunnerLoad::from_plan_at(hw, plan, SimTime::from_us(t)), None);
    }
    mix
}

fn bench_mix_maintenance(c: &mut Criterion) {
    let (hw, imp) = fixture();
    let plan = plan_two_stage(&hw, &imp, SimTime::from_ms(300), 0, &[2, 4], &Bitwidth::ALL);
    let mut group = c.benchmark_group("mix_maintenance");
    for n in [100usize, 1_000, 10_000] {
        let mix = mix_of(&hw, &plan, n);
        let load = CoRunnerLoad::from_plan_at(&hw, &plan, SimTime::from_us(7));
        group.bench_with_input(BenchmarkId::new("upsert_drop", n), &n, |b, _| {
            b.iter(|| {
                let mut m = mix.clone();
                m.upsert_session(n as u64, load.clone(), None);
                m.remove_session(n as u64);
                m
            })
        });
        group.bench_with_input(BenchmarkId::new("digest", n), &n, |b, _| b.iter(|| mix.digest()));
    }
    group.finish();
}

fn bench_gate_decision(c: &mut Criterion) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    ctx.importance(); // one-time profiling outside the timing loops
    let cfg = ServeConfig {
        preload_bytes: 0,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(100)),
        ..Default::default()
    };
    let mut group = c.benchmark_group("gate_decision");
    for n in [100usize, 1_000] {
        let server = build_server(&ctx, &cfg);
        let fleet: Vec<_> =
            (0..n).map(|_| server.session_with(cfg.target, 0).expect("open")).collect();
        let probe = server.session_with_slo(SimTime::from_ms(60_000), 0).expect("admit");
        probe.gate_decision().expect("gated"); // pay for the walk untimed
        group.bench_with_input(BenchmarkId::new("steady_state", n), &n, |b, _| {
            b.iter(|| probe.gate_decision().expect("gated"))
        });
        drop(probe);
        drop(fleet);
    }
    group.finish();
}

fn bench_event_replay(c: &mut Criterion) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    ctx.importance(); // one-time profiling outside the timing loops
    let cfg = ServeConfig {
        preload_bytes: 0,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(100)),
        ..Default::default()
    };
    let mut group = c.benchmark_group("event_replay");
    for n in [8usize, 32] {
        let trace = ServingTrace::synthetic(&ctx, &cfg, n, 4);
        group.bench_with_input(BenchmarkId::new("event", n), &n, |b, _| {
            b.iter(|| replay_event(&build_server(&ctx, &cfg), &trace).expect("replay"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mix_maintenance, bench_gate_decision, bench_event_replay
}
criterion_main!(benches);
