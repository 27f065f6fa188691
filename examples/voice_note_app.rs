//! A note-taking app with back-to-back voice queries (paper §1 and §3.3).
//!
//! ```sh
//! cargo run --release --example voice_note_app
//! ```
//!
//! The paper's motivating app: the user verbally queries old notes. One
//! engagement comprises a few turns; between them the app enlarges the
//! preload buffer so already-loaded shards are cached and the freed IO
//! bandwidth buys higher-fidelity versions of the rest (§3.3).

use sti::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ModelConfig::scaled_bert();
    let ctx = TaskContext::with_config(TaskKind::Sst2, cfg.clone());
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let store = ctx.shard_source();
    println!("profiling shard importance (one-time)...");
    let importance = ctx.importance().clone();

    let mut engine = StiEngine::builder(ctx.task().model().clone(), store, hw, importance)
        .target(SimTime::from_ms(200))
        .preload_budget(8 << 10)
        .build()?;

    let tokenizer = HashingTokenizer::new(cfg.vocab);
    let turns = [
        "find my note about the rent increase",
        "was I positive about the new landlord",
        "add a note saying I liked the viewing today",
    ];

    let mean_bits = |plan: &ExecutionPlan| {
        let total: u64 =
            plan.layers.iter().flat_map(|l| l.bitwidths.iter()).map(|b| b.bits() as u64).sum();
        total as f64 / plan.shape.shard_count() as f64
    };

    println!(
        "turn 0 (cold plan): submodel {}, preload {} shards, mean {:.1} bits\n",
        engine.plan().shape,
        engine.plan().preload.len(),
        mean_bits(engine.plan())
    );

    for (i, utterance) in turns.iter().enumerate() {
        let tokens = tokenizer.tokenize(utterance);
        let inf = engine.infer(&tokens)?;
        println!(
            "turn {i}: \"{utterance}\"\n  -> sentiment class {} (p = {:.2}); streamed {}B, \
             makespan {}, stalls {}",
            inf.class,
            inf.probabilities[inf.class],
            inf.outcome.loaded_bytes,
            inf.outcome.timeline.makespan,
            inf.outcome.timeline.total_stall
        );

        if i == 0 {
            // After the first turn the engagement is clearly multi-turn:
            // enlarge the preload buffer to cache loaded shards (§3.3).
            engine.set_preload_budget(32 << 10)?;
            println!(
                "  [app] enlarged preload buffer to 32KB: now caching {} shards, \
                 mean fidelity {:.1} bits\n",
                engine.plan().preload.len(),
                mean_bits(engine.plan())
            );
        }
    }

    // Engagement over: the OS asks for memory back; STI shrinks gracefully.
    engine.set_preload_budget(4 << 10)?;
    println!(
        "\n[app] engagement ended; preload buffer trimmed to {} bytes ({} shards kept)",
        engine.preload_used(),
        engine.plan().preload.len()
    );
    Ok(())
}
