//! Generative (decoder-style) extension — the paper's §3.4 future work.
//!
//! The paper focuses on classification ("STI's key ideas apply to generative
//! models such as GPT-2 ... we consider them as future work"). This module
//! implements that extension on the same sharded substrate: causal
//! multi-head attention over the vertical slices, a weight-tied language-model
//! head over the resident embedding table, and step-wise greedy decoding over
//! any assembled `n × m` submodel. Each generation step is one more
//! execution of the (already loaded or streamed) submodel, so the pipeline
//! economics carry over unchanged: weights amortize across steps exactly as
//! they do across back-to-back classifications (§3.3).
//!
//! A step computes only the newest position: each layer keeps its slices'
//! keys and values (`kv_cache`), so one token costs one row of Q/K/V per
//! slice and attention against the cached keys — O(l), where recomputing the
//! whole sequence costs O(l²). The recompute decoder survives as the test
//! oracle (`oracle::generate`), pinned token for token.

use crate::assemble::AssembledSubmodel;
use crate::kv_cache::DecoderSession;
use crate::model::Model;

/// A greedy generation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// Prompt plus generated continuation.
    pub tokens: Vec<u32>,
    /// Number of tokens generated (excludes the prompt).
    pub generated: usize,
}

/// Runs the model as a causal decoder over an assembled submodel, greedily
/// generating `steps` tokens after `prompt`.
///
/// The language-model head is weight-tied to the resident token-embedding
/// table (`logits = h · Eᵀ`), so generation adds **zero** streamed
/// parameters on top of the classification pipeline.
///
/// The sequence is clipped to the model's maximum length: once
/// `prompt + generated` reaches `cfg.seq_len`, generation stops early.
///
/// # Panics
///
/// Panics if `prompt` is empty or the submodel is empty/deeper than the
/// model.
pub fn generate(
    model: &Model,
    submodel: &AssembledSubmodel,
    prompt: &[u32],
    steps: usize,
) -> Generation {
    let seq_len = model.config().seq_len;
    let mut session = DecoderSession::new(model, submodel, &prompt[..prompt.len().min(seq_len)]);
    let mut generated = 0usize;
    while generated < steps && session.len() < seq_len {
        session.step(model, submodel);
        generated += 1;
    }
    Generation { tokens: session.into_tokens(), generated }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::oracle;
    use crate::{ModelConfig, ShardId, ShardWeights};

    fn setup() -> (Model, AssembledSubmodel) {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(21, cfg.clone());
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| (0..cfg.heads).collect()).collect();
        let sub = AssembledSubmodel::from_model_slices(&model, &slices);
        (model, sub)
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        // The recompute oracle generation is pinned to is causal: changing a
        // *later* token must not change an *earlier* position's output.
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(3, cfg.clone());
        let mut shard = ShardWeights::zeros(&cfg);
        model.read_shard(ShardId::new(0, 0), &mut shard, &mut model.read_scratch());
        let a = model.embedding().embed_exact(&[1, 2, 3]);
        let b = model.embedding().embed_exact(&[1, 2, 63]);
        let out_a = oracle::attention(&a, &[&shard], &cfg, true);
        let out_b = oracle::attention(&b, &[&shard], &cfg, true);
        for pos in 0..2 {
            for c in 0..cfg.hidden {
                assert!(
                    (out_a[(pos, c)] - out_b[(pos, c)]).abs() < 1e-5,
                    "position {pos} leaked future information"
                );
            }
        }
        // The changed position itself must differ.
        let last_diff: f32 = (0..cfg.hidden).map(|c| (out_a[(2, c)] - out_b[(2, c)]).abs()).sum();
        assert!(last_diff > 1e-4);
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let (model, sub) = setup();
        let a = generate(&model, &sub, &[5, 6], 4);
        let b = generate(&model, &sub, &[5, 6], 4);
        assert_eq!(a, b);
        assert_eq!(a.generated, 4);
        assert_eq!(a.tokens.len(), 6);
        let vocab = model.config().vocab as u32;
        assert!(a.tokens.iter().all(|&t| t < vocab));
    }

    #[test]
    fn generation_stops_at_max_sequence_length() {
        let (model, sub) = setup();
        let seq_len = model.config().seq_len;
        let prompt: Vec<u32> = (1..=(seq_len as u32 - 2)).collect();
        let g = generate(&model, &sub, &prompt, 100);
        assert_eq!(g.tokens.len(), seq_len);
        assert_eq!(g.generated, 2);
        // A prompt longer than the model's window is clipped to it.
        let long: Vec<u32> = (0..seq_len as u32 + 3).collect();
        let g = generate(&model, &sub, &long, 5);
        assert_eq!((g.tokens.len(), g.generated), (seq_len, 0));
    }

    #[test]
    fn prompt_extension_is_consistent_with_stepwise_decoding() {
        // generate(prompt, 2) must equal generate(generate(prompt, 1), 1):
        // greedy decoding is prefix-stable.
        let (model, sub) = setup();
        let two = generate(&model, &sub, &[9, 2], 2);
        let one = generate(&model, &sub, &[9, 2], 1);
        let then = generate(&model, &sub, &one.tokens, 1);
        assert_eq!(two.tokens, then.tokens);
    }

    #[test]
    fn narrow_submodels_still_generate() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(22, cfg.clone());
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| vec![0, 2]).collect();
        let sub = AssembledSubmodel::from_model_slices(&model, &slices);
        let g = generate(&model, &sub, &[1], 3);
        assert_eq!(g.generated, 3);
    }

    #[test]
    #[should_panic(expected = "non-empty prompt")]
    fn empty_prompt_is_rejected() {
        let (model, sub) = setup();
        let _ = generate(&model, &sub, &[], 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The KV-cached decoder against the recompute oracle, token for
        /// token: random prompts (clipped or not), random submodels — any
        /// depth and width, each layer's slices distinct and out of order —
        /// and random step counts, at the tiny and the shipped model scale.
        #[test]
        fn generate_equals_the_recompute_oracle(
            scaled in any::<bool>(),
            prompt in proptest::collection::vec(0u32..1024, 1..16),
            depth in 0usize..12,
            width in 0usize..12,
            keys in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 12..13), 12..13),
            steps in 0usize..16,
        ) {
            let cfg = if scaled { ModelConfig::scaled_bert() } else { ModelConfig::tiny() };
            let model = Model::synthetic(23, cfg.clone());
            let slices: Vec<Vec<usize>> = keys[..1 + depth % cfg.layers]
                .iter()
                .map(|keys| {
                    let mut order: Vec<usize> = (0..cfg.heads).collect();
                    order.sort_by_key(|&s| keys[s]);
                    order.truncate(1 + width % cfg.heads);
                    order
                })
                .collect();
            let sub = AssembledSubmodel::from_model_slices(&model, &slices);
            prop_assert_eq!(
                generate(&model, &sub, &prompt, steps),
                oracle::generate(&model, &sub, &prompt, steps)
            );
        }
    }
}
