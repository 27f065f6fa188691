//! Cold start from a real on-disk shard store (paper §3.4: STI works with
//! no preload buffer at all; elastic sharding and pipelining still help).
//!
//! ```sh
//! cargo run --release --example disk_store_cold_start
//! ```
//!
//! Creates a real `N × M × K` store on disk (the deployment artifact of §6),
//! reopens it, and compares a cold-start STI execution against a preloaded
//! one — including what the actual layerwise pipeline did (per-layer IO and
//! stalls).

use std::sync::Arc;

use sti::prelude::*;
use sti_pipeline::trace::render_gantt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ModelConfig::scaled_bert();
    let task = Task::build(TaskKind::Qnli, cfg.clone(), 16, 32);
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());

    // Cloud preprocessing: write the shard store to disk, then reopen it the
    // way a deployed app would.
    let dir = std::env::temp_dir().join(format!("sti-example-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardStore::create(&dir, task.model(), &Bitwidth::ALL, &QuantConfig::default())?;
    println!(
        "shard store at {} — {} bytes across {} fidelity versions",
        store.dir().display(),
        store.total_bytes(),
        store.manifest().bitwidths.len()
    );
    drop(store);
    let store = Arc::new(ShardStore::open(&dir)?);

    println!("profiling shard importance (one-time)...");
    let importance = profile_importance(task.model(), task.dev(), &QuantConfig::default());

    let tokenizer = HashingTokenizer::new(cfg.vocab);
    let tokens = tokenizer.tokenize("does the warranty cover water damage");

    for (label, budget) in [("cold start (|S| = 0)", 0u64), ("warm (|S| = 16KB)", 16 << 10)] {
        let engine =
            StiEngine::builder(task.model().clone(), store.clone(), hw.clone(), importance.clone())
                .target(SimTime::from_ms(200))
                .preload_budget(budget)
                .build()?;
        let inf = engine.infer(&tokens)?;
        println!(
            "\n{label}: submodel {}, class {}, streamed {}B, makespan {}, stalls {}",
            inf.submodel,
            inf.class,
            inf.outcome.loaded_bytes,
            inf.outcome.timeline.makespan,
            inf.outcome.timeline.total_stall
        );
        println!("{}", render_gantt(&inf.outcome.timeline, 60));
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
