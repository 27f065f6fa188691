//! Point-wise feed-forward network over a subset of neuron slices.

use sti_tensor::{activation, ops, Matrix};

use crate::config::ModelConfig;
use crate::layer::ForwardScratch;
use crate::operand::ShardOperand;

/// Computes the FFN with the given slices' neuron blocks.
///
/// Slice `i` owns `d_ff/M` neurons: `h_i = gelu(x · ffn1_i + b1_i)` and the
/// contributions `h_i · ffn2_i` sum into the output, rescaled by `M/m` like
/// attention. `slice_idxs` selects which segments of the resident FFN1 bias
/// belong to each shard. Each slice's FFN half is asked for once, when its
/// turn comes.
///
/// # Panics
///
/// Panics if `shards` is empty, or `shards` and `slice_idxs` differ in
/// length.
pub fn ffn(
    x: &Matrix,
    shards: impl ShardOperand,
    slice_idxs: &[usize],
    bias_ffn1: &[f32],
    cfg: &ModelConfig,
) -> Matrix {
    let mut scratch = ForwardScratch::new(cfg);
    scratch.attn.clone_from(x);
    ffn_into(shards, slice_idxs, bias_ffn1, cfg, &mut scratch);
    scratch.out
}

/// [`ffn`] of `scratch.attn` — the attention sublayer's output — into
/// `scratch.out`, through the scratch's `hidden` and `projected`.
pub(crate) fn ffn_into(
    mut shards: impl ShardOperand,
    slice_idxs: &[usize],
    bias_ffn1: &[f32],
    cfg: &ModelConfig,
    scratch: &mut ForwardScratch,
) {
    let width = shards.width();
    assert!(width > 0, "ffn needs at least one slice");
    assert_eq!(width, slice_idxs.len(), "shard/slice index length mismatch");
    let ForwardScratch { attn: x, hidden, projected, out, .. } = scratch;
    let (l, d, f) = (x.rows(), cfg.hidden, cfg.ffn_per_shard());
    out.reshape(l, d);
    out.as_mut_slice().fill(0.0);
    hidden.reshape(l, f);
    projected.reshape(l, d);
    for (i, &slice) in slice_idxs.iter().enumerate() {
        let (ffn1, ffn2) = shards.ffn(i);
        ops::matmul_into(x, ffn1, hidden); // l × f
        let bias = &bias_ffn1[slice * f..(slice + 1) * f];
        ops::add_bias(hidden, bias);
        activation::gelu_inplace(hidden);
        ops::matmul_into(hidden, ffn2, projected); // l × d
        ops::add_inplace(out, projected);
    }
    ops::scale_inplace(out, cfg.heads as f32 / width as f32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_shard;

    fn test_input(cfg: &ModelConfig) -> Matrix {
        let mut rng = sti_tensor::Rng::new(3);
        let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
        rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
        x
    }

    #[test]
    fn output_shape_is_l_by_d() {
        let cfg = ModelConfig::tiny();
        let shard = synthetic_shard(&cfg, 1, 1.0);
        let x = test_input(&cfg);
        let out = ffn(&x, &[&shard], &[0], &vec![0.0; cfg.ffn], &cfg);
        assert_eq!(out.shape(), (cfg.seq_len, cfg.hidden));
    }

    #[test]
    fn bias_segment_selection_matters() {
        let cfg = ModelConfig::tiny();
        let shard = synthetic_shard(&cfg, 1, 1.0);
        let x = test_input(&cfg);
        let mut bias = vec![0.0f32; cfg.ffn];
        for (i, b) in bias.iter_mut().enumerate() {
            *b = i as f32 * 0.01;
        }
        let a = ffn(&x, &[&shard], &[0], &bias, &cfg);
        let b = ffn(&x, &[&shard], &[1], &bias, &cfg);
        assert!(a.max_abs_diff(&b) > 1e-6, "different bias segments must differ");
    }

    #[test]
    fn contributions_sum_linearly_before_rescale() {
        let cfg = ModelConfig::tiny();
        let s1 = synthetic_shard(&cfg, 1, 1.0);
        let s2 = synthetic_shard(&cfg, 2, 1.0);
        let x = test_input(&cfg);
        let bias = vec![0.0f32; cfg.ffn];
        let both = ffn(&x, &[&s1, &s2], &[0, 1], &bias, &cfg);
        let only1 = ffn(&x, &[&s1], &[0], &bias, &cfg);
        let only2 = ffn(&x, &[&s2], &[1], &bias, &cfg);
        // both = (M/2)(c1+c2); only_i = M * c_i  =>  both = (only1+only2)/2
        let mut expected = only1.clone();
        sti_tensor::ops::add_inplace(&mut expected, &only2);
        sti_tensor::ops::scale_inplace(&mut expected, 0.5);
        assert!(both.max_abs_diff(&expected) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_slice_indexes() {
        let cfg = ModelConfig::tiny();
        let shard = synthetic_shard(&cfg, 1, 1.0);
        let x = test_input(&cfg);
        let _ = ffn(&x, &[&shard], &[0, 1], &vec![0.0; cfg.ffn], &cfg);
    }
}
