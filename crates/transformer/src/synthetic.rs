//! Deterministic synthetic weight generation.
//!
//! Real fine-tuned checkpoints are unavailable offline, so models are
//! synthesized (`sti-nlp`'s crate docs describe the task substrate built on
//! them): weights are Gaussian with a small fraction of planted heavy-tail
//! outliers — the distribution GOBO quantization is designed for — and each
//! shard gets a seeded *gain* so different "tasks" (seeds) exhibit different
//! shard-importance structure, mirroring the distinct heatmaps of paper
//! Figure 5.
//!
//! Every shard is a pure function of a few seeds: a synthesised model keeps
//! them ([`Model::synthetic_with_pattern`](crate::Model::synthetic_with_pattern)
//! walks its RNG for the seeds and the residents only) and regenerates a
//! shard when it is read, so no grid of FP32 shard weights is ever built.
//! [`synthetic_layer`] builds a whole layer at once the way the model's
//! reads do one shard at a time: the oracle they are pinned against.

use sti_tensor::norm::LayerNormParams;
use sti_tensor::{Matrix, Rng};

use crate::config::{ModelConfig, ShardId};
use crate::source::{ReadScratch, ShardWeightSource};
use crate::weights::{LayerResident, LayerWeights, ShardWeights};

/// Probability that a weight is replaced by a heavy-tail outlier.
/// Calibrated so quantization finds ~0.1–0.5% outliers, near the paper's
/// measured 0.14–0.17%.
const OUTLIER_PROB: f32 = 0.001;

/// Scale multiplier applied to outlier weights.
const OUTLIER_SCALE: f32 = 8.0;

/// Baseline weight standard deviation (BERT-style init, adjusted for the
/// scaled hidden width).
const WEIGHT_STD: f32 = 0.11;

/// Per-layer decay of sub-layer update magnitudes. Fine-tuned transformers
/// refine their representation incrementally — top layers apply smaller
/// residual updates than bottom layers — which is what makes *trained*
/// depth-adaptive submodels (DynaBERT) degrade gracefully when truncated.
/// The synthetic teacher plants the same structure: layer `k`'s output
/// projections are scaled by `DEPTH_DECAY^k`, so dropping top layers perturbs
/// the residual stream mildly instead of re-randomizing it.
const DEPTH_DECAY: f32 = 0.70;

/// Correlation between the shards of one layer. Trained attention heads are
/// famously redundant (Michel et al., cited as [38] in the paper) — any
/// subset of heads retains most of the layer's function. Each shard mixes a
/// layer-common weight component (weight `HEAD_CORRELATION`) with its own
/// independent component, so width-truncated submodels stay faithful.
const HEAD_CORRELATION: f32 = 0.92;

/// One weight: a heavy-tail outlier with probability [`OUTLIER_PROB`], else
/// Gaussian with standard deviation `std`.
fn gaussian_weight(rng: &mut Rng, std: f32) -> f32 {
    if rng.next_f32() < OUTLIER_PROB {
        rng.next_gaussian_with(0.0, std * OUTLIER_SCALE)
    } else {
        rng.next_gaussian_with(0.0, std)
    }
}

fn gaussian_matrix(rng: &mut Rng, rows: usize, cols: usize, std: f32) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for x in m.as_mut_slice() {
        *x = gaussian_weight(rng, std);
    }
    m
}

/// The weights [`synthetic_shard`]`(cfg, seed, gain)` generates, drawn in
/// the same order, each handed to `put` with the slot of `out` it belongs
/// in: Q, K and V are the column blocks of the packed `[Q | K | V]`
/// operand, each drawn row by row. Builds no matrix.
fn draw_shard_into(
    cfg: &ModelConfig,
    seed: u64,
    gain: f32,
    out: &mut ShardWeights,
    mut put: impl FnMut(&mut f32, f32),
) {
    let mut rng = Rng::new(seed);
    let std = WEIGHT_STD * gain;
    let mut draw = |slot: &mut f32| put(slot, gaussian_weight(&mut rng, std));
    let hd = cfg.head_dim();
    for block in 0..3 {
        for r in 0..cfg.hidden {
            out.qkv.row_mut(r)[block * hd..(block + 1) * hd].iter_mut().for_each(&mut draw);
        }
    }
    for m in [&mut out.o, &mut out.ffn1, &mut out.ffn2] {
        m.as_mut_slice().iter_mut().for_each(&mut draw);
    }
}

/// Generates one shard with the given weight gain.
///
/// `gain` scales the shard's contribution to the layer output: high-gain
/// shards carry more signal, so degrading their fidelity hurts accuracy more
/// — which is exactly the structure shard-importance profiling discovers.
pub fn synthetic_shard(cfg: &ModelConfig, seed: u64, gain: f32) -> ShardWeights {
    let mut rng = Rng::new(seed);
    let d = cfg.hidden;
    let hd = cfg.head_dim();
    let f = cfg.ffn_per_shard();
    let std = WEIGHT_STD * gain;
    // Drawn in `flatten()` order off the one stream.
    let q = gaussian_matrix(&mut rng, d, hd, std);
    let k = gaussian_matrix(&mut rng, d, hd, std);
    let v = gaussian_matrix(&mut rng, d, hd, std);
    let o = gaussian_matrix(&mut rng, hd, d, std);
    let ffn1 = gaussian_matrix(&mut rng, d, f, std);
    let ffn2 = gaussian_matrix(&mut rng, f, d, std);
    ShardWeights::new(&q, &k, &v, o, ffn1, ffn2)
}

/// How shard gains are distributed across the layer grid, giving each task a
/// distinct importance fingerprint (paper Fig. 5: SST-2 importance is spread
/// across layers; RTE's concentrates in bottom layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GainPattern {
    /// Gains vary per shard with no layer trend (SST-2-like).
    Uniform,
    /// Bottom layers get systematically higher gains (RTE-like).
    BottomHeavy,
    /// Top layers get systematically higher gains.
    TopHeavy,
}

impl GainPattern {
    /// The gain multiplier for a shard at `layer` of `layers` total, with a
    /// per-shard jitter in `[0, 1)` supplied by the caller's RNG.
    pub fn gain(self, layer: usize, layers: usize, jitter: f32) -> f32 {
        let base = 0.7 + 0.8 * jitter; // per-shard spread 0.7..1.5
        let depth = layer as f32 / (layers.max(2) - 1) as f32; // 0 at bottom
        let trend = match self {
            GainPattern::Uniform => 1.0,
            GainPattern::BottomHeavy => 1.35 - 0.7 * depth,
            GainPattern::TopHeavy => 0.65 + 0.7 * depth,
        };
        base * trend
    }
}

/// Generates layer-norm parameters with mild random variation around
/// identity.
fn synthetic_layernorm(rng: &mut Rng, dim: usize) -> LayerNormParams {
    let mut p = LayerNormParams::identity(dim);
    for g in &mut p.gamma {
        *g = 1.0 + rng.next_gaussian_with(0.0, 0.05);
    }
    for b in &mut p.beta {
        *b = rng.next_gaussian_with(0.0, 0.02);
    }
    p
}

/// The weights of a shard's mix, `(rho, indep)`: a weight is
/// `rho * common + indep * private`, with `indep = sqrt(1 - rho^2) * gain`.
fn mix_weights(gain: f32) -> (f32, f32) {
    let rho = HEAD_CORRELATION;
    (rho, (1.0 - rho * rho).sqrt() * gain)
}

/// Element-wise mix of a layer-common component and a shard-private
/// component: `rho * common + sqrt(1 - rho^2) * gain * private`.
fn mix_shard(common: &ShardWeights, private: &ShardWeights, gain: f32) -> ShardWeights {
    let (rho, indep) = mix_weights(gain);
    let mix = |c: &sti_tensor::Matrix, p: &sti_tensor::Matrix| {
        let mut out = c.clone();
        for (o, (cv, pv)) in
            out.as_mut_slice().iter_mut().zip(c.as_slice().iter().zip(p.as_slice()))
        {
            *o = rho * cv + indep * pv;
        }
        out
    };
    ShardWeights {
        qkv: mix(&common.qkv, &private.qkv),
        o: mix(&common.o, &private.o),
        ffn1: mix(&common.ffn1, &private.ffn1),
        ffn2: mix(&common.ffn2, &private.ffn2),
    }
}

/// A layer's resident parameters, drawn off `rng` after its shards' seeds.
fn synthetic_resident(cfg: &ModelConfig, rng: &mut Rng) -> LayerResident {
    let mut resident = LayerResident::identity(cfg);
    resident.ln_attn = synthetic_layernorm(rng, cfg.hidden);
    resident.ln_ffn = synthetic_layernorm(rng, cfg.hidden);
    for b in &mut resident.bias_attn {
        *b = rng.next_gaussian_with(0.0, 0.01);
    }
    for b in &mut resident.bias_ffn1 {
        *b = rng.next_gaussian_with(0.0, 0.01);
    }
    for b in &mut resident.bias_ffn2 {
        *b = rng.next_gaussian_with(0.0, 0.01);
    }
    resident
}

/// Generates one full layer: `M` correlated shards with pattern-derived
/// gains and depth-decayed update magnitudes, plus resident parameters.
///
/// No model is built from it: a [`Model`](crate::Model) draws the same
/// seeds and residents off its RNG and regenerates each shard when it is
/// read. This is the oracle those reads are pinned against, bit for bit.
pub fn synthetic_layer(
    cfg: &ModelConfig,
    rng: &mut Rng,
    layer: usize,
    pattern: GainPattern,
) -> LayerWeights {
    let decay = DEPTH_DECAY.powi(layer as i32);
    let common = synthetic_shard(cfg, rng.next_u64(), decay);
    let shards = (0..cfg.heads)
        .map(|_slice| {
            let jitter = rng.next_f32();
            let gain = pattern.gain(layer, cfg.layers, jitter);
            let seed = rng.next_u64();
            let private = synthetic_shard(cfg, seed, decay);
            mix_shard(&common, &private, gain)
        })
        .collect();
    LayerWeights { shards, resident: synthetic_resident(cfg, rng) }
}

/// The full-fidelity shards of a synthesised model as a function of their
/// seeds: the [`ShardWeightSource`] of
/// [`Model::synthetic_with_pattern`](crate::Model::synthetic_with_pattern).
///
/// Per layer it keeps the seed of the layer-common component and the depth
/// decay; per shard, the seed of its private component and its gain: 144
/// entries at `scaled_bert()`, against 2 073 600 B of weights. A read
/// regenerates the shard, `rho·common + indep·gain·private`, into the
/// caller's slot with the draws [`synthetic_layer`] makes, in its order: the
/// same bits. It costs two shards' worth of draws, so a reader that needs a
/// shard more than once reads it once into memory of its own (the teacher
/// goes layer-major, [`Model::predict_full_all`](crate::Model::predict_full_all)),
/// or reads a store written from it.
#[derive(Debug)]
pub(crate) struct SeededShards {
    cfg: ModelConfig,
    /// Per layer: the common component's seed and the depth decay.
    layers: Vec<(u64, f32)>,
    /// Per shard, in `layer·M + slice` order: the private component's seed
    /// and the shard's gain.
    shards: Vec<(u64, f32)>,
}

impl SeededShards {
    /// No layer's seeds yet: [`draw_layer`](Self::draw_layer) adds them in
    /// layer order.
    pub(crate) fn new(cfg: &ModelConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            layers: Vec::with_capacity(cfg.layers),
            shards: Vec::with_capacity(cfg.total_shards()),
        }
    }

    /// Draws the next layer off `rng` as [`synthetic_layer`] does, but for
    /// its shards' weights: their seeds and gains are kept, and the layer's
    /// residents are returned.
    pub(crate) fn draw_layer(&mut self, rng: &mut Rng, pattern: GainPattern) -> LayerResident {
        let layer = self.layers.len();
        let decay = DEPTH_DECAY.powi(layer as i32);
        self.layers.push((rng.next_u64(), decay));
        for _slice in 0..self.cfg.heads {
            let jitter = rng.next_f32();
            let gain = pattern.gain(layer, self.cfg.layers, jitter);
            self.shards.push((rng.next_u64(), gain));
        }
        synthetic_resident(&self.cfg, rng)
    }
}

impl ShardWeightSource for SeededShards {
    /// Regenerates the shard into `out`, which is reshaped first if it is
    /// not shaped for the model; a shaped `out` gets no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is past the drawn layers (the model checks the slice).
    fn read_shard(&self, id: ShardId, out: &mut ShardWeights, _: &mut ReadScratch) {
        let (layer, slice) = (id.layer as usize, id.slice as usize);
        let (common, decay) = self.layers[layer];
        let (private, gain) = self.shards[layer * self.cfg.heads + slice];
        if !out.is_shaped_for(&self.cfg) {
            *out = ShardWeights::zeros(&self.cfg);
        }
        draw_shard_into(&self.cfg, common, decay, out, |w, c| *w = c);
        let (rho, indep) = mix_weights(gain);
        draw_shard_into(&self.cfg, private, decay, out, |w, p| *w = rho * *w + indep * p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_tensor::stats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = synthetic_shard(&cfg, 99, 1.0);
        let b = synthetic_shard(&cfg, 99, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ModelConfig::tiny();
        let a = synthetic_shard(&cfg, 1, 1.0);
        let b = synthetic_shard(&cfg, 2, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn gain_scales_weight_magnitude() {
        let cfg = ModelConfig::tiny();
        let low = synthetic_shard(&cfg, 5, 0.5);
        let high = synthetic_shard(&cfg, 5, 2.0);
        let s_low = stats::std_dev(low.qkv.as_slice());
        let s_high = stats::std_dev(high.qkv.as_slice());
        assert!(s_high > 3.0 * s_low, "gain should scale std: {s_low} vs {s_high}");
    }

    #[test]
    fn bottom_heavy_pattern_decays_with_depth() {
        let g0 = GainPattern::BottomHeavy.gain(0, 12, 0.5);
        let g11 = GainPattern::BottomHeavy.gain(11, 12, 0.5);
        assert!(g0 > g11);
        let u0 = GainPattern::Uniform.gain(0, 12, 0.5);
        let u11 = GainPattern::Uniform.gain(11, 12, 0.5);
        assert!((u0 - u11).abs() < 1e-6);
    }

    #[test]
    fn planted_outliers_appear() {
        let cfg = ModelConfig::scaled_bert();
        let shard = synthetic_shard(&cfg, 3, 1.0);
        let flat = shard.flatten();
        let std = stats::std_dev(&flat);
        let extreme = flat.iter().filter(|x| x.abs() > 4.0 * std).count();
        assert!(extreme > 0, "expected some heavy-tail outliers");
        assert!((extreme as f64) < flat.len() as f64 * 0.01, "outliers should be rare");
    }

    #[test]
    fn synthetic_layer_has_m_shards() {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(0);
        let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
        assert_eq!(layer.shards.len(), cfg.heads);
        assert_eq!(layer.sharded_param_count(), cfg.shard_param_count() * cfg.heads);
    }
}
