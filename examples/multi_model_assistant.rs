//! Two co-resident NLP models with separate latency budgets (paper §2.2:
//! co-running apps invoke separate fine-tuned instances, multiplying the
//! memory pressure — exactly what STI's small per-model buffers solve).
//!
//! ```sh
//! cargo run --release --example multi_model_assistant
//! ```
//!
//! An assistant runs a sentiment model (snappy, T = 150 ms) and a
//! paraphrase/dedup model (relaxed, T = 400 ms) side by side. Held fully in
//! memory the two models would cost 2x the whole-model footprint; with STI
//! each keeps only a few-KB preload buffer.

use sti::prelude::*;

/// One model's engine, streaming from its context's store on flash (the
/// engine's handle keeps the store's directory until the engine drops).
fn build_engine(
    kind: TaskKind,
    device: &DeviceProfile,
    target_ms: u64,
    preload: u64,
) -> Result<StiEngine, Box<dyn std::error::Error>> {
    let cfg = ModelConfig::scaled_bert();
    let ctx = TaskContext::with_config(kind, cfg.clone());
    let hw = HwProfile::measure(device, &cfg, &QuantConfig::default());
    eprintln!("[setup] profiling importance for {}...", kind.name());
    let importance = ctx.importance().clone();
    let engine = StiEngine::builder(ctx.task().model().clone(), ctx.shard_source(), hw, importance)
        .target(SimTime::from_ms(target_ms))
        .preload_budget(preload)
        .build()?;
    Ok(engine)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceProfile::odroid_n2();
    let sentiment = build_engine(TaskKind::Sst2, &device, 150, 8 << 10)?;
    let paraphrase = build_engine(TaskKind::Qqp, &device, 400, 8 << 10)?;

    let whole_model_bytes =
        ModelConfig::scaled_bert().layer_fp32_bytes() * ModelConfig::scaled_bert().layers;
    println!(
        "hold-in-memory cost for 2 models: {} KB; STI preload cost: {} KB\n",
        2 * whole_model_bytes / 1024,
        (sentiment.preload_used() + paraphrase.preload_used()) / 1024
    );
    println!("sentiment  plan: {} (T = {})", sentiment.plan().shape, sentiment.target());
    println!("paraphrase plan: {} (T = {})\n", paraphrase.plan().shape, paraphrase.target());

    let tokenizer = HashingTokenizer::new(ModelConfig::scaled_bert().vocab);
    let notes = [
        "the demo went great and everyone was excited",
        "the demo went well and people were enthusiastic",
        "terrible commute this morning",
    ];

    for note in notes {
        let tokens = tokenizer.tokenize(note);
        let s = sentiment.infer(&tokens)?;
        println!(
            "\"{note}\"\n  sentiment: class {} (makespan {})",
            s.class, s.outcome.timeline.makespan
        );
    }

    // Duplicate detection across the two closest notes: the paraphrase
    // model scores each note pair by predicted class agreement.
    let a = tokenizer.tokenize(notes[0]);
    let b = tokenizer.tokenize(notes[1]);
    let mut pair = a.clone();
    pair.extend(&b);
    let dup = paraphrase.infer(&pair)?;
    println!(
        "\nparaphrase check on notes 0/1: class {} (p = {:.2}, makespan {})",
        dup.class, dup.probabilities[dup.class], dup.outcome.timeline.makespan
    );
    Ok(())
}
