//! Model dimensions and shard identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dimensions of a sharded transformer encoder.
///
/// Presets are *dimensionally scaled* versions of the paper's models: the
/// shard grid (12 layers × 12 slices) is preserved so that planner behaviour
/// (importance maps, AIB accounting, submodel search) matches the paper,
/// while the hidden width is reduced so real CPU inference runs at laptop
/// speed. The device models in `sti-device` are calibrated against these
/// scaled sizes (see its `DeviceProfile`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of transformer layers `N`.
    pub layers: usize,
    /// Number of vertical slices (= attention heads) `M` per layer.
    pub heads: usize,
    /// Hidden size `d` (must be divisible by `heads`).
    pub hidden: usize,
    /// FFN inner size `d_ff` (must be divisible by `heads`).
    pub ffn: usize,
    /// Vocabulary size of the hashing tokenizer.
    pub vocab: usize,
    /// Fixed padded sequence length (the paper pads to a constant, §5.2).
    pub seq_len: usize,
    /// Number of output classes of the task head.
    pub classes: usize,
}

impl ModelConfig {
    /// The default reproduction model: the paper's 12×12 shard grid at
    /// reduced width (d=60, d_ff=240), sized so the full experiment suite
    /// runs in minutes on a single CPU core.
    pub fn scaled_bert() -> Self {
        Self { layers: 12, heads: 12, hidden: 60, ffn: 240, vocab: 512, seq_len: 12, classes: 2 }
    }

    /// A DistilBERT-like 6-layer variant (the paper's gold-accuracy
    /// reference), same width.
    pub fn distil_like() -> Self {
        Self { layers: 6, ..Self::scaled_bert() }
    }

    /// A very small configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self { layers: 2, heads: 4, hidden: 32, ffn: 64, vocab: 64, seq_len: 8, classes: 2 }
    }

    /// Validates divisibility constraints.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` or `ffn` is not divisible by `heads`, or any
    /// dimension is zero.
    pub fn validate(&self) {
        assert!(self.layers > 0 && self.heads > 0 && self.hidden > 0 && self.ffn > 0);
        assert!(self.vocab > 0 && self.seq_len > 0 && self.classes > 1);
        assert_eq!(self.hidden % self.heads, 0, "hidden must divide evenly into heads");
        assert_eq!(self.ffn % self.heads, 0, "ffn must divide evenly into heads");
    }

    /// Per-head (= per-slice) attention dimension `d / M`.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// FFN neurons per slice `d_ff / M`.
    pub fn ffn_per_shard(&self) -> usize {
        self.ffn / self.heads
    }

    /// Number of weights in one shard: `4·d·(d/M) + 2·d·(d_ff/M)`
    /// (Q, K, V, O plus the FFN1/FFN2 slices of Table 1).
    pub fn shard_param_count(&self) -> usize {
        4 * self.hidden * self.head_dim() + 2 * self.hidden * self.ffn_per_shard()
    }

    /// FP32 bytes of one shard.
    pub fn shard_fp32_bytes(&self) -> usize {
        self.shard_param_count() * 4
    }

    /// Number of shards in the full model (`N × M`).
    pub fn total_shards(&self) -> usize {
        self.layers * self.heads
    }

    /// FP32 bytes of all sharded weights in one layer.
    pub fn layer_fp32_bytes(&self) -> usize {
        self.shard_fp32_bytes() * self.heads
    }

    /// All shard ids in (layer, slice) order — the order preload selection
    /// walks (§5.4: *"preloads the first k shards in the layer order"*).
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        let heads = self.heads;
        (0..self.layers)
            .flat_map(move |l| (0..heads).map(move |s| ShardId::new(l as u16, s as u16)))
    }

    /// Approximate FLOPs to execute one layer with `m` slices on a
    /// `seq_len`-token input (two ops per multiply-accumulate).
    pub fn layer_flops(&self, m: usize) -> u64 {
        let l = self.seq_len as u64;
        let d = self.hidden as u64;
        let hd = self.head_dim() as u64;
        let f = self.ffn_per_shard() as u64;
        let m = m as u64;
        // QKV + O projections, attention scores/weighted sum, FFN1 + FFN2.
        let proj = 4 * 2 * l * d * hd * m;
        let attn = 2 * 2 * l * l * hd * m;
        let ffn = 2 * 2 * l * d * f * m;
        proj + attn + ffn
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::scaled_bert()
    }
}

/// Identifies one shard: `(layer, vertical slice)` — the unit the engine
/// loads, plans, and prioritizes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ShardId {
    /// Transformer layer index (0 = closest to input).
    pub layer: u16,
    /// Vertical slice index within the layer.
    pub slice: u16,
}

impl ShardId {
    /// Creates a shard id.
    pub fn new(layer: u16, slice: u16) -> Self {
        Self { layer, slice }
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}S{}", self.layer, self.slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ModelConfig::scaled_bert().validate();
        ModelConfig::distil_like().validate();
        ModelConfig::tiny().validate();
    }

    #[test]
    fn scaled_bert_keeps_paper_grid() {
        let cfg = ModelConfig::scaled_bert();
        assert_eq!(cfg.layers, 12);
        assert_eq!(cfg.heads, 12);
        assert_eq!(cfg.total_shards(), 144);
    }

    #[test]
    fn shard_param_count_matches_table1() {
        let cfg = ModelConfig::scaled_bert();
        // 4 * 60 * 5 + 2 * 60 * 20 = 1200 + 2400 = 3600
        assert_eq!(cfg.shard_param_count(), 3600);
        assert_eq!(cfg.layer_fp32_bytes(), 3600 * 4 * 12);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn validate_rejects_indivisible_hidden() {
        let cfg = ModelConfig { hidden: 100, ..ModelConfig::scaled_bert() };
        cfg.validate();
    }

    #[test]
    fn shard_ids_enumerate_in_layer_order() {
        let cfg = ModelConfig::tiny();
        let ids: Vec<ShardId> = cfg.shard_ids().collect();
        assert_eq!(ids.len(), 8);
        assert_eq!(ids[0], ShardId::new(0, 0));
        assert_eq!(ids[3], ShardId::new(0, 3));
        assert_eq!(ids[4], ShardId::new(1, 0));
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "layer-order must equal sort order");
    }

    #[test]
    fn layer_flops_scale_with_width() {
        let cfg = ModelConfig::scaled_bert();
        let f3 = cfg.layer_flops(3);
        let f12 = cfg.layer_flops(12);
        assert_eq!(f12, 4 * f3, "FLOPs must be proportional to slice count");
    }

    #[test]
    fn shard_id_display_and_order() {
        let a = ShardId::new(0, 11);
        let b = ShardId::new(1, 0);
        assert!(a < b, "layer dominates ordering");
        assert_eq!(a.to_string(), "L0S11");
    }
}
