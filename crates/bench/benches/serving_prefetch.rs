//! Markov next-engagement prefetcher benchmarks: what speculation buys a
//! recurrent workload — staging-pool hit rate and contended p50 versus the
//! speculation byte budget (0 = prefetch off) — and what the predicted
//! pre-warming costs in host wall-clock on the event executor.
//!
//! The simulated economics are printed once per budget before the timing
//! loop (criterion measures wall time; the hit-rate/p50 sweep is the part
//! the roadmap asks to keep an eye on). DRAM-residency accounting is on so
//! a pool hit re-prices its bytes at DRAM speed on the contended track —
//! the mechanism by which a correct prediction moves p50.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::*;
use sti::TaskContext;

/// A recurrent trace: `clients` sessions cycling the same engagement with
/// 20 ms of think time between engagements — the idle windows speculation
/// fills.
fn recurrent_trace(ctx: &TaskContext, cfg: &ServeConfig, clients: usize) -> ServingTrace {
    let mut trace = ServingTrace::synthetic(ctx, cfg, clients, 6);
    for (i, client) in trace.clients.iter_mut().enumerate() {
        client.arrival = SimTime::from_ms(5 * i as u64);
        client.idle = SimTime::from_ms(20);
        let first = client.engagements[0].clone();
        for engagement in &mut client.engagements {
            *engagement = first.clone();
        }
    }
    trace
}

fn prefetch_cfg(budget_kb: u64) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        // Zero preload and a tiny shard cache: every engagement streams,
        // and recurrence alone cannot hide in main-cache residency — the
        // regime where the staging pool is the only thing that can help.
        preload_bytes: 0,
        shard_cache_bytes: 1 << 10,
        dram_residency: true,
        prefetch: if budget_kb == 0 {
            PrefetchConfig::default()
        } else {
            PrefetchConfig::markov(budget_kb << 10)
        },
        ..Default::default()
    }
}

fn bench_prefetch_budget_sweep(c: &mut Criterion) {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    ctx.importance(); // one-time profiling outside the timing loops
    let mut group = c.benchmark_group("serving_prefetch_replay");
    for budget_kb in [0u64, 16, 64, 256] {
        let cfg = prefetch_cfg(budget_kb);
        let trace = recurrent_trace(&ctx, &cfg, 3);
        // One untimed replay (on the default event executor) to report the
        // simulated economics per budget.
        let report = replay_event(&build_server(&ctx, &cfg), &trace).expect("replay");
        match &report.prefetch {
            Some(p) => eprintln!(
                "serving_prefetch: budget {budget_kb:>4}KiB -> hit rate {:.2}, \
                 {} B speculated, {} B served to misses, contended p50 {}µs",
                p.pool.hit_rate(),
                p.speculated_bytes,
                p.pool.hit_bytes,
                report.contention.latency_percentile(0.50).as_us(),
            ),
            None => eprintln!(
                "serving_prefetch: budget    off -> contended p50 {}µs",
                report.contention.latency_percentile(0.50).as_us(),
            ),
        }
        group.bench_with_input(BenchmarkId::from_parameter(budget_kb), &budget_kb, |b, _| {
            b.iter(|| replay_event(&build_server(&ctx, &cfg), &trace).expect("replay"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prefetch_budget_sweep
}
criterion_main!(benches);
