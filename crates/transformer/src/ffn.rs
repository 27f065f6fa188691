//! Point-wise feed-forward network over a subset of neuron slices.

use sti_tensor::{activation, ops, Matrix};

use crate::config::ModelConfig;
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
    ffn_into(x, shards, slice_idxs, bias_ffn1, cfg, &mut Matrix::zeros(x.rows(), cfg.hidden))
}

/// [`ffn`] with the caller's `l × d` scratch for each slice's projection.
pub(crate) fn ffn_into(
    x: &Matrix,
    mut shards: impl ShardOperand,
    slice_idxs: &[usize],
    bias_ffn1: &[f32],
    cfg: &ModelConfig,
    projected: &mut Matrix,
) -> Matrix {
    let width = shards.width();
    assert!(width > 0, "ffn needs at least one slice");
    assert_eq!(width, slice_idxs.len(), "shard/slice index length mismatch");
    let l = x.rows();
    let d = cfg.hidden;
    let f = cfg.ffn_per_shard();
    let mut out = Matrix::zeros(l, d);
    // Scratch, allocated once and overwritten by every slice.
    let mut hidden = Matrix::zeros(l, f);
    for (i, &slice) in slice_idxs.iter().enumerate() {
        let (ffn1, ffn2) = shards.ffn(i);
        ops::matmul_into(x, ffn1, &mut hidden); // l × f
        let bias = &bias_ffn1[slice * f..(slice + 1) * f];
        ops::add_bias(&mut hidden, bias);
        activation::gelu_inplace(&mut hidden);
        ops::matmul_into(&hidden, ffn2, projected); // l × d
        ops::add_inplace(&mut out, projected);
    }
    ops::scale_inplace(&mut out, cfg.heads as f32 / width as f32);
    out
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
