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

use sti_tensor::{stats, Matrix};

use crate::assemble::AssembledSubmodel;
use crate::config::ModelConfig;
use crate::layer::finish_layer;
use crate::model::Model;
use crate::weights::{LayerResident, ShardWeights};

/// Causal multi-head attention: position `i` may only attend to `j ≤ i`.
///
/// Identical to [`crate::attention::attention`] except for the causal mask
/// applied before the softmax.
///
/// # Panics
///
/// Panics if `shards` is empty or shapes are inconsistent with `cfg`.
pub fn causal_attention(x: &Matrix, shards: &[&ShardWeights], cfg: &ModelConfig) -> Matrix {
    crate::attention::attend(x, shards, cfg, true, x.rows())
}

/// One decoder layer: causal attention + FFN, both post-norm with residuals,
/// over a subset of slices.
pub fn decoder_layer_forward(
    x: &Matrix,
    shards: &[&ShardWeights],
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
) -> Matrix {
    finish_layer(x, causal_attention(x, shards, cfg), shards, slice_idxs, resident, cfg)
}

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
    assert!(!prompt.is_empty(), "generation needs a non-empty prompt");
    assert!(submodel.depth() > 0, "assembled submodel is empty");
    let cfg = model.config().clone();
    assert!(submodel.depth() <= cfg.layers, "submodel deeper than model");

    let mut tokens: Vec<u32> = prompt.to_vec();
    tokens.truncate(cfg.seq_len);
    let mut generated = 0usize;

    while generated < steps && tokens.len() < cfg.seq_len {
        let next = next_token(model, submodel, &tokens);
        tokens.push(next);
        generated += 1;
    }
    Generation { tokens, generated }
}

/// Predicts the next token for a sequence (greedy argmax over the weight-tied
/// vocabulary head).
pub fn next_token(model: &Model, submodel: &AssembledSubmodel, tokens: &[u32]) -> u32 {
    let cfg = model.config();
    let mut x = model.embedding().embed_exact(tokens);
    for (l, asm) in submodel.layers().iter().enumerate() {
        let refs: Vec<&ShardWeights> = asm.shards.iter().collect();
        x = decoder_layer_forward(&x, &refs, &asm.slice_idxs, &model.layers()[l].resident, cfg);
    }
    let last = x.row(x.rows() - 1);
    let logits = model.embedding().project_to_vocab(last);
    stats::argmax(&logits).expect("non-empty vocabulary") as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    fn setup() -> (Model, AssembledSubmodel) {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(21, cfg.clone());
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| (0..cfg.heads).collect()).collect();
        let sub = AssembledSubmodel::from_model_slices(model.layers(), &slices, &cfg);
        (model, sub)
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        // Changing a *later* token must not change an *earlier* position's
        // output under causal attention.
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(3, cfg.clone());
        let shard = &model.layers()[0].shards[0];
        let a = model.embedding().embed_exact(&[1, 2, 3]);
        let b = model.embedding().embed_exact(&[1, 2, 63]);
        let out_a = causal_attention(&a, &[shard], &cfg);
        let out_b = causal_attention(&b, &[shard], &cfg);
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
        let sub = AssembledSubmodel::from_model_slices(model.layers(), &slices, &cfg);
        let g = generate(&model, &sub, &[1], 3);
        assert_eq!(g.generated, 3);
    }

    #[test]
    #[should_panic(expected = "non-empty prompt")]
    fn empty_prompt_is_rejected() {
        let (model, sub) = setup();
        let _ = generate(&model, &sub, &[], 1);
    }
}
