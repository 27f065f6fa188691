//! Quickstart: build a model + shard store, plan a pipeline, run inference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full STI lifecycle of paper §3.2 on an on-disk shard store: cloud
//! preprocessing (shard + quantize), device profiling, importance profiling,
//! two-stage planning, and pipelined execution.

use sti::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. "Fine-tuned model": a seeded synthetic stand-in plus its task.
    let cfg = ModelConfig::scaled_bert();
    println!(
        "model: {} layers x {} heads, {} shards of {} params each",
        cfg.layers,
        cfg.heads,
        cfg.total_shards(),
        cfg.shard_param_count()
    );
    let ctx = TaskContext::with_config(TaskKind::Sst2, cfg.clone());

    // 2. Cloud preprocessing: quantize every shard at every fidelity into a
    // store on flash (a temp directory, removed when the last handle drops).
    let store = ctx.shard_source();
    println!("store: {}", ctx.shard_store_dir().display());

    // 3. Install-time profiling: device capability + shard importance.
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    println!(
        "device: {} — 2-bit shard IO {}, full shard IO {}, layer compute {}",
        device.name,
        hw.t_io_shard(Bitwidth::B2),
        hw.t_io_shard(Bitwidth::Full),
        hw.t_comp(cfg.heads)
    );
    println!("profiling shard importance (one-time)...");
    let importance = ctx.importance().clone();

    // 4. The engine: plan once for T = 200 ms with a 16 KB preload buffer.
    let engine = StiEngine::builder(ctx.task().model().clone(), store, hw, importance)
        .target(SimTime::from_ms(200))
        .preload_budget(16 << 10)
        .build()?;
    let plan = engine.plan();
    println!(
        "\nplan: submodel {}, preload {} shards ({} bytes), predicted makespan {}",
        plan.shape,
        plan.preload.len(),
        engine.preload_used(),
        plan.predicted.makespan
    );
    println!("bitwidth grid ('*' = preloaded):\n{}", plan.grid_string());

    // 5. User engagement: tokenize and infer.
    let tokenizer = HashingTokenizer::new(cfg.vocab);
    let utterance = "remind me what I said about the budget meeting";
    let tokens = tokenizer.tokenize(utterance);
    let inference = engine.infer(&tokens)?;
    println!(
        "inference: class {} (p = {:.2}), streamed {} bytes, {} stall, makespan {}",
        inference.class,
        inference.probabilities[inference.class],
        inference.outcome.loaded_bytes,
        inference.outcome.timeline.total_stall,
        inference.outcome.timeline.makespan
    );
    Ok(())
}
