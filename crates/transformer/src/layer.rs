//! One transformer encoder layer over a subset of slices.

use sti_tensor::norm::layernorm_inplace;
use sti_tensor::{ops, Matrix};

use crate::attention::attend;
use crate::config::ModelConfig;
use crate::ffn::ffn_into;
use crate::operand::ShardOperand;
use crate::weights::LayerResident;

/// Executes one encoder layer (post-norm, BERT-style) with the given slices:
/// `x ← LN(x + Attn(x))`, then `x ← LN(x + FFN(x))`.
///
/// Shard `i` of `shards` must be the weights of vertical slice
/// `slice_idxs[i]`; the indexes select the matching resident FFN bias
/// segments. `shards` is any [`ShardOperand`]: decoded shards as
/// `&[&ShardWeights]` (or a `Vec` of them), or an operand that decodes
/// each shard half when the layer reaches it — the same bits either way.
///
/// # Panics
///
/// Panics if `shards` is empty or lengths mismatch.
pub fn layer_forward(
    x: &Matrix,
    mut shards: impl ShardOperand,
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
) -> Matrix {
    let mut projected = Matrix::zeros(x.rows(), cfg.hidden);
    let attn_out = attend(x, &mut shards, cfg, &mut projected);
    finish_layer(x, attn_out, shards, slice_idxs, resident, cfg, &mut projected)
}

/// [`layer_forward`] for a layer whose output only the classifier reads:
/// returns row 0 of it — the CLS position, as a `1 × d` matrix — bit for
/// bit, having run attention for that one query (over every position's key
/// and value) and the residuals, norms and FFN on that one row.
///
/// # Panics
///
/// Panics if `shards` is empty or lengths mismatch.
pub fn layer_forward_cls(
    x: &Matrix,
    mut shards: impl ShardOperand,
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
) -> Matrix {
    let cls = Matrix::from_rows(&[x.row(0)]);
    let mut projected = Matrix::zeros(1, cfg.hidden);
    let attn_out = attend(x, &mut shards, cfg, &mut projected);
    finish_layer(&cls, attn_out, shards, slice_idxs, resident, cfg, &mut projected)
}

/// Everything of a post-norm layer after its attention — `LN(x + attn)`,
/// then `LN(· + FFN(·))` — which the encoder layer and the KV-cached
/// decoding step share. `projected` is `x`-shaped scratch for the FFN.
pub(crate) fn finish_layer(
    x: &Matrix,
    mut attn_out: Matrix,
    shards: impl ShardOperand,
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
    projected: &mut Matrix,
) -> Matrix {
    ops::add_bias(&mut attn_out, &resident.bias_attn);
    ops::add_inplace(&mut attn_out, x);
    layernorm_inplace(&mut attn_out, &resident.ln_attn, 1e-6);

    let mut ffn_out = ffn_into(&attn_out, shards, slice_idxs, &resident.bias_ffn1, cfg, projected);
    ops::add_bias(&mut ffn_out, &resident.bias_ffn2);
    ops::add_inplace(&mut ffn_out, &attn_out);
    layernorm_inplace(&mut ffn_out, &resident.ln_ffn, 1e-6);
    ffn_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::synthetic::{synthetic_layer, GainPattern};
    use crate::weights::ShardWeights;
    use sti_tensor::Rng;

    fn setup() -> (ModelConfig, crate::weights::LayerWeights, Matrix) {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(11);
        let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
        let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
        rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
        (cfg, layer, x)
    }

    #[test]
    fn preserves_shape() {
        let (cfg, layer, x) = setup();
        let refs: Vec<&ShardWeights> = layer.shards.iter().collect();
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let out = layer_forward(&x, &refs, &idxs, &layer.resident, &cfg);
        assert_eq!(out.shape(), x.shape());
    }

    #[test]
    fn output_is_normalized() {
        let (cfg, layer, x) = setup();
        let refs: Vec<&ShardWeights> = layer.shards.iter().collect();
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let out = layer_forward(&x, &refs, &idxs, &layer.resident, &cfg);
        // Post-layernorm rows have bounded magnitude regardless of input.
        for r in 0..out.rows() {
            let max = out.row(r).iter().fold(0.0f32, |a, &b| a.max(b.abs()));
            assert!(max < 20.0, "row {r} exploded: {max}");
        }
    }

    #[test]
    fn partial_width_runs_and_differs() {
        let (cfg, layer, x) = setup();
        let all: Vec<&ShardWeights> = layer.shards.iter().collect();
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let full = layer_forward(&x, &all, &idxs, &layer.resident, &cfg);
        let partial = layer_forward(&x, &all[..2], &idxs[..2], &layer.resident, &cfg);
        assert_eq!(partial.shape(), full.shape());
        assert!(partial.max_abs_diff(&full) > 1e-4);
    }

    #[test]
    fn deterministic() {
        let (cfg, layer, x) = setup();
        let refs: Vec<&ShardWeights> = layer.shards.iter().collect();
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let a = layer_forward(&x, &refs, &idxs, &layer.resident, &cfg);
        let b = layer_forward(&x, &refs, &idxs, &layer.resident, &cfg);
        assert_eq!(a, b);
    }

    /// `layer_forward_cls` is row 0 of `layer_forward`, whichever loops the
    /// 4-row matmul tiles it no longer shares take. A zero row and a zero in
    /// row 0 put the projections of `x` on the zero-skipping loops; a row
    /// scaled by 64 has a query so large that its attention weights underflow
    /// to exact zeros, so `scores · V` skips for row 0 itself (row 0 scaled)
    /// or for its tile only (row 1 scaled).
    #[test]
    fn layer_forward_cls_equals_row_zero_of_layer_forward_bit_for_bit() {
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
            let mut rng = Rng::new(0x636c_7321);
            let layer = synthetic_layer(&cfg, &mut rng, 1, GainPattern::BottomHeavy);
            let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
            rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
            x.row_mut(cfg.seq_len - 1).fill(0.0);
            x.row_mut(0)[3] = 0.0;
            for scaled_row in [None, Some(0), Some(1)] {
                let mut x = x.clone();
                if let Some(row) = scaled_row {
                    x.row_mut(row).iter_mut().for_each(|v| *v *= 64.0);
                }
                for m in [1, 3, cfg.heads] {
                    // Distinct slices, not a prefix and not in order.
                    let idxs: Vec<usize> = (0..m).map(|i| (5 * i + 1) % cfg.heads).collect();
                    let refs: Vec<&ShardWeights> = idxs.iter().map(|&s| &layer.shards[s]).collect();
                    let full = layer_forward(&x, &refs, &idxs, &layer.resident, &cfg);
                    let cls = layer_forward_cls(&x, &refs, &idxs, &layer.resident, &cfg);
                    assert_eq!(cls.shape(), (1, cfg.hidden));
                    assert_eq!(
                        bits(cls.row(0)),
                        bits(full.row(0)),
                        "m = {m}, scaled row {scaled_row:?}, {cfg:?}"
                    );
                }
            }
        }
    }

    /// `layer_forward` against the composition it replaced (three unpacked
    /// projections and fresh intermediates per slice), at one, three and all
    /// slices, with a padding row of zeros in the input.
    #[test]
    fn layer_forward_equals_the_unpacked_per_shard_composition_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
            let mut rng = Rng::new(0x6c61_7965);
            let layer = synthetic_layer(&cfg, &mut rng, 1, GainPattern::BottomHeavy);
            let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
            rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
            x.row_mut(cfg.seq_len - 1).fill(0.0);
            for m in [1, 3, cfg.heads] {
                // Distinct slices, not a prefix and not in order.
                let idxs: Vec<usize> = (0..m).map(|i| (5 * i + 1) % cfg.heads).collect();
                let refs: Vec<&ShardWeights> = idxs.iter().map(|&s| &layer.shards[s]).collect();
                let new = layer_forward(&x, &refs, &idxs, &layer.resident, &cfg);
                let old = oracle::layer_forward(&x, &refs, &idxs, &layer.resident, &cfg, false);
                assert_eq!(bits(&new), bits(&old), "m = {m}, {cfg:?}");
            }
        }
    }
}
