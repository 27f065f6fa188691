//! One transformer encoder layer over a subset of slices.

use sti_tensor::norm::layernorm_inplace;
use sti_tensor::{ops, Matrix};

use crate::attention::attend;
use crate::classifier::Classifier;
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
/// This allocates its result and a fresh [`ForwardScratch`];
/// [`ForwardScratch::layer`] runs the same layer in the caller's memory.
///
/// # Panics
///
/// Panics if `shards` is empty or lengths mismatch.
pub fn layer_forward(
    x: &Matrix,
    shards: impl ShardOperand,
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
) -> Matrix {
    let mut x = x.clone();
    ForwardScratch::new(cfg).layer(&mut x, shards, slice_idxs, resident, cfg);
    x
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
    shards: impl ShardOperand,
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
) -> Matrix {
    let mut x = x.clone();
    ForwardScratch::new(cfg).layer_cls(&mut x, shards, slice_idxs, resident, cfg);
    x
}

/// The working memory of the encoder forward pass, owned by its caller and
/// sized once from a [`ModelConfig`]: every intermediate a layer writes —
/// attention's packed projections, values, scores, head and projection, the
/// FFN's hidden activations, the sublayer outputs — and the class logits.
/// The hidden state itself is the caller's `x`: a layer writes its output
/// into the scratch and swaps buffers with `x`, so the state and the
/// scratch's output buffer alternate from layer to layer.
///
/// Once built, a pass over inputs no longer than `cfg.seq_len` allocates
/// nothing (provided `x` was as large, since buffers trade places), which
/// is what lets a worker thread run forward passes in memory its caller
/// lent it (`sti_tensor::parallel`). Every buffer is overwritten before it
/// is read, so a result never depends on what an earlier call left behind:
/// the same bits as the allocating [`layer_forward`], whichever widths,
/// inputs or models the scratch served before.
#[derive(Debug)]
pub struct ForwardScratch {
    /// Attention's accumulator, then the attention sublayer's output
    /// `LN(x + Attn(x))`, which the FFN reads (`queries × d`).
    pub(crate) attn: Matrix,
    /// One slice's packed `[q | k | v]` projections (`l × 3·d/M`).
    pub(crate) qkv: Matrix,
    /// One slice's values, contiguous (`l × d/M`).
    pub(crate) v: Matrix,
    /// One slice's attention weights (`queries × l`).
    pub(crate) scores: Matrix,
    /// One slice's attended values (`queries × d/M`).
    pub(crate) head: Matrix,
    /// One slice's output projection, attention's or the FFN's
    /// (`queries × d`).
    pub(crate) projected: Matrix,
    /// One slice's FFN activations (`queries × d_ff/M`).
    pub(crate) hidden: Matrix,
    /// The FFN's accumulator, then the layer's output (`queries × d`).
    pub(crate) out: Matrix,
    logits: Vec<f32>,
}

impl ForwardScratch {
    /// Scratch for layers of shape `cfg` over up to `cfg.seq_len` positions.
    pub fn new(cfg: &ModelConfig) -> Self {
        let (l, d, hd) = (cfg.seq_len, cfg.hidden, cfg.head_dim());
        Self {
            attn: Matrix::zeros(l, d),
            qkv: Matrix::zeros(l, 3 * hd),
            v: Matrix::zeros(l, hd),
            scores: Matrix::zeros(l, l),
            head: Matrix::zeros(l, hd),
            projected: Matrix::zeros(l, d),
            hidden: Matrix::zeros(l, cfg.ffn_per_shard()),
            out: Matrix::zeros(l, d),
            logits: vec![0.0; cfg.classes],
        }
    }

    /// Runs one encoder layer over `x` in place: [`layer_forward`] without
    /// the allocations.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or lengths mismatch.
    pub fn layer(
        &mut self,
        x: &mut Matrix,
        shards: impl ShardOperand,
        slice_idxs: &[usize],
        resident: &LayerResident,
        cfg: &ModelConfig,
    ) {
        let positions = x.rows();
        self.run(x, positions, shards, slice_idxs, resident, cfg);
    }

    /// Runs a layer only the classifier reads over `x` in place, leaving
    /// its CLS row (`1 × d`): [`layer_forward_cls`] without the
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or lengths mismatch.
    pub fn layer_cls(
        &mut self,
        x: &mut Matrix,
        shards: impl ShardOperand,
        slice_idxs: &[usize],
        resident: &LayerResident,
        cfg: &ModelConfig,
    ) {
        self.run(x, 1, shards, slice_idxs, resident, cfg);
    }

    fn run(
        &mut self,
        x: &mut Matrix,
        queries: usize,
        mut shards: impl ShardOperand,
        slice_idxs: &[usize],
        resident: &LayerResident,
        cfg: &ModelConfig,
    ) {
        attend(x, queries, &mut shards, cfg, self);
        finish_layer(x, shards, slice_idxs, resident, cfg, self);
        std::mem::swap(x, &mut self.out);
    }

    /// The class logits of the final hidden state `hidden`, written into
    /// the scratch: [`Classifier::logits`] without the allocation.
    pub fn logits(&mut self, classifier: &Classifier, hidden: &Matrix) -> &mut [f32] {
        classifier.logits_into(hidden, &mut self.logits);
        &mut self.logits
    }
}

/// Everything of a post-norm layer after its attention, which is in
/// `scratch.attn` — `LN(x + attn)`, then `LN(· + FFN(·))` into
/// `scratch.out` — shared by the encoder layer and the KV-cached decoding
/// step. The residual is the leading `scratch.attn.rows()` rows of `x`.
pub(crate) fn finish_layer(
    x: &Matrix,
    shards: impl ShardOperand,
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
    scratch: &mut ForwardScratch,
) {
    let attn = &mut scratch.attn;
    assert!(attn.rows() <= x.rows() && attn.cols() == x.cols(), "residual shape mismatch");
    ops::add_bias(attn, &resident.bias_attn);
    for (a, r) in attn.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *a += *r;
    }
    layernorm_inplace(attn, &resident.ln_attn, 1e-6);

    ffn_into(shards, slice_idxs, &resident.bias_ffn1, cfg, scratch);
    let ForwardScratch { attn, out, .. } = scratch;
    ops::add_bias(out, &resident.bias_ffn2);
    ops::add_inplace(out, attn);
    layernorm_inplace(out, &resident.ln_ffn, 1e-6);
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

    /// One scratch serves every call in turn — each width from one slice to
    /// all (distinct slices, not a prefix and not in order), full and
    /// CLS-only layers, inputs with and without a zero row, both shipped
    /// shapes interleaved — and each result equals a fresh scratch's bit for
    /// bit, so nothing a call leaves behind reaches the next one.
    #[test]
    fn a_reused_scratch_computes_a_fresh_scratchs_bits() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cases: Vec<_> = [ModelConfig::tiny(), ModelConfig::scaled_bert()]
            .into_iter()
            .map(|cfg| {
                let mut rng = Rng::new(0x6469_7274);
                let layer = synthetic_layer(&cfg, &mut rng, 1, GainPattern::BottomHeavy);
                let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
                rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
                let mut padded = x.clone();
                padded.row_mut(cfg.seq_len - 1).fill(0.0);
                (cfg, layer, [x, padded])
            })
            .collect();
        let mut dirty = ForwardScratch::new(&ModelConfig::tiny());
        for m in 1..=ModelConfig::scaled_bert().heads {
            for (cfg, layer, inputs) in cases.iter().filter(|(cfg, ..)| m <= cfg.heads) {
                let idxs: Vec<usize> = (0..m).map(|i| (5 * i + 1) % cfg.heads).collect();
                let refs: Vec<&ShardWeights> = idxs.iter().map(|&s| &layer.shards[s]).collect();
                let resident = &layer.resident;
                for x in inputs {
                    let mut got = x.clone();
                    dirty.layer(&mut got, &refs, &idxs, resident, cfg);
                    let fresh = layer_forward(x, &refs, &idxs, resident, cfg);
                    assert_eq!(bits(&got), bits(&fresh), "m = {m}, {cfg:?}");
                    let mut got = x.clone();
                    dirty.layer_cls(&mut got, &refs, &idxs, resident, cfg);
                    let fresh = layer_forward_cls(x, &refs, &idxs, resident, cfg);
                    assert_eq!(bits(&got), bits(&fresh), "CLS, m = {m}, {cfg:?}");
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
