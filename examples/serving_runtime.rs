//! A shared serving runtime under multi-client load.
//!
//! ```sh
//! cargo run --release --example serving_runtime
//! ```
//!
//! One `StiServer` owns the sentiment model, the plan cache, the
//! compressed-shard cache, and the IO scheduler. Eight clients open
//! sessions against it — six at the default knobs, one latency-critical,
//! one memory-starved — and submit engagements as components of the
//! discrete-event engine (one simulated clock, one OS thread). The example
//! then replays the identical trace sequentially and checks that sharing
//! changed nothing about the results, only the wall-clock.

use sti::prelude::*;
use sti::TaskContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::distil_like());
    let cfg = ServeConfig {
        target: SimTime::from_ms(200),
        preload_bytes: 8 << 10,
        io_workers: 2,
        ..Default::default()
    };
    eprintln!("[setup] profiling importance for {}...", ctx.task().kind().name());
    ctx.importance();

    // Eight clients: six standard, one snappy, one with no preload memory.
    let mut trace = ServingTrace::synthetic(&ctx, &cfg, 8, 4);
    trace.clients[6].target = SimTime::from_ms(120);
    trace.clients[7].preload_bytes = 0;

    let server = build_server(&ctx, &cfg);
    let event = replay_event(&server, &trace)?;
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace)?;

    println!(
        "{} engagements, 8 concurrent sessions: {:.1} eng/s (sequential {:.1} eng/s)",
        trace.total_engagements(),
        event.engagements_per_sec(),
        sequential.engagements_per_sec(),
    );
    println!(
        "plan cache: {} plans for 3 knob sets ({} hits); shard cache: {:.0}% hit rate",
        event.distinct_plans,
        event.plan_stats.hits,
        event.shard_stats.hit_rate() * 100.0,
    );
    println!(
        "io scheduler: {} layer requests, max queue depth {}, simulated flash busy {}",
        event.io_stats.requests, event.io_stats.max_queue_depth, event.io_stats.sim_flash_busy,
    );

    assert_eq!(event.outcomes, sequential.outcomes, "sharing must never change results");
    println!("determinism: event outcomes identical to sequential replay ✓");

    for (i, outcomes) in event.outcomes.iter().enumerate() {
        let classes: Vec<usize> = outcomes.iter().map(|o| o.class).collect();
        println!(
            "client {i}: T = {}, |S| = {} KB -> classes {:?}, makespan {}",
            trace.clients[i].target,
            trace.clients[i].preload_bytes >> 10,
            classes,
            outcomes[0].makespan,
        );
    }
    Ok(())
}
