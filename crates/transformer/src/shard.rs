//! Vertical partitioning of full layer matrices into shards and back.
//!
//! The synthetic generator produces weights already sharded; this module
//! provides the *equivalence* between that layout and conventional full-layer
//! matrices, proving the partitioning follows Table 1 of the paper: slice `i`
//! owns columns `[i·d/M, (i+1)·d/M)` of Q/K/V, rows of O, and the matching
//! `1/M` block of FFN1/FFN2.

use sti_tensor::Matrix;

use crate::config::ModelConfig;
use crate::weights::{concat_cols, ShardWeights};

/// Conventional (unsharded) weight matrices of one transformer layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FullLayerMatrices {
    /// Query projection, `d × d`.
    pub wq: Matrix,
    /// Key projection, `d × d`.
    pub wk: Matrix,
    /// Value projection, `d × d`.
    pub wv: Matrix,
    /// Output projection, `d × d`.
    pub wo: Matrix,
    /// FFN up-projection, `d × d_ff`.
    pub ffn1: Matrix,
    /// FFN down-projection, `d_ff × d`.
    pub ffn2: Matrix,
}

fn concat_rows(blocks: &[&Matrix]) -> Matrix {
    let cols = blocks[0].cols();
    let total: usize = blocks.iter().map(|b| b.rows()).sum();
    let mut data = Vec::with_capacity(total * cols);
    for b in blocks {
        data.extend_from_slice(b.as_slice());
    }
    Matrix::from_vec(total, cols, data)
}

/// Reassembles a layer's `M` shards into conventional full matrices.
///
/// # Panics
///
/// Panics if `shards.len() != cfg.heads`.
pub fn merge_shards(shards: &[ShardWeights], cfg: &ModelConfig) -> FullLayerMatrices {
    assert_eq!(shards.len(), cfg.heads, "need all M shards to merge a layer");
    let hd = cfg.head_dim();
    // Block `b` of every slice's packed `[Q | K | V]` operand, side by side.
    let qkv_block = |b: usize| {
        let blocks: Vec<Matrix> = shards.iter().map(|s| s.qkv.column_block(b * hd, hd)).collect();
        concat_cols(&blocks.iter().collect::<Vec<_>>())
    };
    let o: Vec<&Matrix> = shards.iter().map(|s| &s.o).collect();
    let f1: Vec<&Matrix> = shards.iter().map(|s| &s.ffn1).collect();
    let f2: Vec<&Matrix> = shards.iter().map(|s| &s.ffn2).collect();
    FullLayerMatrices {
        wq: qkv_block(0),
        wk: qkv_block(1),
        wv: qkv_block(2),
        wo: concat_rows(&o),
        ffn1: concat_cols(&f1),
        ffn2: concat_rows(&f2),
    }
}

/// Extracts vertical slice `i` from full layer matrices (Table 1).
///
/// # Panics
///
/// Panics if `i >= cfg.heads` or matrix shapes disagree with `cfg`.
pub fn extract_shard(full: &FullLayerMatrices, i: usize, cfg: &ModelConfig) -> ShardWeights {
    assert!(i < cfg.heads, "slice index {i} out of range");
    let hd = cfg.head_dim();
    let f = cfg.ffn_per_shard();
    assert_eq!(full.wq.shape(), (cfg.hidden, cfg.hidden), "wq shape mismatch");
    assert_eq!(full.ffn1.shape(), (cfg.hidden, cfg.ffn), "ffn1 shape mismatch");
    let head = |w: &Matrix| w.column_block(i * hd, hd);
    ShardWeights::new(
        &head(&full.wq),
        &head(&full.wk),
        &head(&full.wv),
        full.wo.row_block(i * hd, hd),
        full.ffn1.column_block(i * f, f),
        full.ffn2.row_block(i * f, f),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{synthetic_layer, GainPattern};
    use sti_tensor::Rng;

    #[test]
    fn merge_then_extract_round_trips() {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(5);
        let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
        let full = merge_shards(&layer.shards, &cfg);
        for i in 0..cfg.heads {
            let extracted = extract_shard(&full, i, &cfg);
            assert_eq!(extracted, layer.shards[i], "slice {i} did not round trip");
        }
    }

    #[test]
    fn merged_shapes_follow_table1() {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(6);
        let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
        let full = merge_shards(&layer.shards, &cfg);
        assert_eq!(full.wq.shape(), (cfg.hidden, cfg.hidden));
        assert_eq!(full.wo.shape(), (cfg.hidden, cfg.hidden));
        assert_eq!(full.ffn1.shape(), (cfg.hidden, cfg.ffn));
        assert_eq!(full.ffn2.shape(), (cfg.ffn, cfg.hidden));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extract_rejects_bad_slice() {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(7);
        let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
        let full = merge_shards(&layer.shards, &cfg);
        let _ = extract_shard(&full, cfg.heads, &cfg);
    }

    #[test]
    #[should_panic(expected = "all M shards")]
    fn merge_rejects_partial_layers() {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(8);
        let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
        let _ = merge_shards(&layer.shards[..2], &cfg);
    }
}
