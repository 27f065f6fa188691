//! Device-topology benchmarks: what the multi-channel flash model costs
//! and what it buys.
//!
//! - `topology_run`: replaying a fixed contended job stream through
//!   `TopologyQueueSim` at C ∈ {1, 2, 4, 8} — one `FlashQueueSim`
//!   single-server fold per channel plus the global-sequence rewrite.
//! - `striped_prediction`: one contended-latency prediction against an
//!   N-session mix on a C-channel device — the planner-side cost of the
//!   per-channel lane simulation that admission and gating pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::*;

fn job_stream(n: usize) -> Vec<FlashJob> {
    (0..n)
        .map(|i| FlashJob {
            engagement: (i % 7) as u64,
            arrival: SimTime::from_us((i as u64) * 13 % 2_000),
            service: SimTime::from_us(40 + (i as u64) * 17 % 160),
        })
        .collect()
}

fn bench_topology_run(c: &mut Criterion) {
    let jobs = job_stream(256);
    let mut group = c.benchmark_group("topology_run");
    for channels in [1u16, 2, 4, 8] {
        let topology = DeviceTopology::with_channels(channels);
        group.bench_with_input(BenchmarkId::new("channels", channels), &channels, |b, _| {
            b.iter(|| {
                let mut sim = TopologyQueueSim::new(topology);
                for (i, &job) in jobs.iter().enumerate() {
                    sim.submit_on((i % channels as usize) as u16, job);
                }
                sim.run()
            })
        });
    }
    group.finish();
}

fn bench_striped_prediction(c: &mut Criterion) {
    let model = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &model, &QuantConfig::default());
    let importance = ImportanceProfile::from_scores(
        model.layers,
        model.heads,
        (0..model.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    let plan = plan_two_stage(&hw, &importance, SimTime::from_ms(300), 0, &[2, 4], &Bitwidth::ALL);
    let mut group = c.benchmark_group("striped_prediction");
    for channels in [1u16, 4] {
        for n in [8usize, 64] {
            let mut mix = ServingMix::new(IoSharing::Exclusive)
                .with_topology(DeviceTopology::with_channels(channels));
            for t in 0..n as u64 {
                mix.push_session(
                    t,
                    CoRunnerLoad::from_plan_at(&hw, &plan, SimTime::from_us(t * 11)),
                    None,
                );
            }
            let load = EngagementLoad::from_plan(&hw, &plan, SimTime::from_us(5));
            group.bench_with_input(BenchmarkId::new(format!("c{channels}"), n), &n, |b, _| {
                b.iter(|| mix.predict(&load))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topology_run, bench_striped_prediction);
criterion_main!(benches);
