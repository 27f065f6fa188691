//! Generative extension demo (paper §3.4 future work): greedy next-token
//! generation over the sharded, planned submodel.
//!
//! ```sh
//! cargo run --release --example dictation_generator
//! ```
//!
//! A dictation app suggests continuations as the user speaks. The submodel's
//! weights stream through the elastic pipeline once (one classification's
//! worth of IO) and then every generated token is compute-only, so the
//! per-token latency drops far below the first-token latency — STI's
//! economics carry over to generation unchanged.

use sti::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ModelConfig::scaled_bert();
    let ctx = TaskContext::with_config(TaskKind::Sst2, cfg.clone());
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let store = ctx.shard_source();
    println!("profiling shard importance (one-time)...");
    let importance = ctx.importance().clone();

    let engine = StiEngine::builder(ctx.task().model().clone(), store, hw, importance)
        .target(SimTime::from_ms(300))
        .preload_budget(16 << 10)
        .build()?;
    println!("planned submodel: {}\n", engine.plan().shape);

    let tokenizer = HashingTokenizer::new(cfg.vocab);
    for prompt in ["note to self the meeting", "remember to buy"] {
        let prompt_tokens = tokenizer.tokenize(prompt);
        let g = engine.generate(&prompt_tokens, 6)?;
        println!(
            "prompt: \"{prompt}\" ({} tokens)\n  -> generated {} token ids: {:?}\n  \
             first step {} (streams {}B), each further step {} (compute only)\n",
            prompt_tokens.len(),
            g.generated,
            &g.tokens[prompt_tokens.len()..],
            g.first_step,
            g.loaded_bytes,
            g.per_step
        );
    }
    Ok(())
}
