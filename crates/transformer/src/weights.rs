//! Sharded parameter layout (paper Table 1).

use sti_tensor::norm::LayerNormParams;
use sti_tensor::Matrix;

use crate::config::ModelConfig;

/// Places equally tall blocks side by side.
pub(crate) fn concat_cols(blocks: &[&Matrix]) -> Matrix {
    let rows = blocks[0].rows();
    let total: usize = blocks.iter().map(|b| b.cols()).sum();
    let mut out = Matrix::zeros(rows, total);
    for r in 0..rows {
        let out_row = out.row_mut(r);
        let mut at = 0usize;
        for b in blocks {
            out_row[at..at + b.cols()].copy_from_slice(b.row(r));
            at += b.cols();
        }
    }
    out
}

/// The weights of one vertical slice of a transformer layer.
///
/// Per Table 1 of the paper, slice `i` owns attention head `i` — the
/// `d × d/M` Q/K/V projections and the `d/M × d` output projection — plus
/// `1/M` of the FFN neurons. The parameter *sets* are Table 1's; the storage
/// is what the row-major kernels consume:
///
/// - `qkv`: the three `d × d/M` projections packed side by side into one
///   `d × 3·d/M` operand `[Q | K | V]`, so one multiply `x(l×d) · qkv`
///   yields `[q | k | v]` for every position instead of walking `x` three
///   times with a `d/M`-wide inner loop;
/// - `o`: `d/M × d`, so the head output `(l × d/M) · o` yields `l × d`;
/// - `ffn1`: `d × d_ff/M`, so `x · ffn1` yields the slice's hidden
///   activations;
/// - `ffn2`: `d_ff/M × d`, projecting them back.
///
/// (The paper lists the PyTorch `out × in` convention; only the storage
/// orientation differs.) Packing is storage only: the flat weight group the
/// quantizer sees ([`flatten`](ShardWeights::flatten)) keeps Q, K and V as
/// three consecutive row-major matrices.
#[derive(Debug, PartialEq)]
pub struct ShardWeights {
    /// Query, key and value projections, `d × 3·d/M`, columns `[Q | K | V]`.
    pub qkv: Matrix,
    /// Output projection, `d/M × d`.
    pub o: Matrix,
    /// First FFN slice, `d × d_ff/M`.
    pub ffn1: Matrix,
    /// Second FFN slice, `d_ff/M × d`.
    pub ffn2: Matrix,
}

impl ShardWeights {
    /// Builds a shard from Table 1's six parameter sets, packing the three
    /// `d × d/M` attention projections into the `[Q | K | V]` operand.
    ///
    /// # Panics
    ///
    /// Panics if `q`, `k` and `v` differ in row count.
    pub fn new(q: &Matrix, k: &Matrix, v: &Matrix, o: Matrix, ffn1: Matrix, ffn2: Matrix) -> Self {
        Self { qkv: concat_cols(&[q, k, v]), o, ffn1, ffn2 }
    }

    /// Flattens the shard into a single 1-D weight group — the unit the
    /// quantizer compresses (§6: *"gathers all weights ... into a large flat
    /// 1D array"*, applied at shard granularity).
    ///
    /// Order: `q`, `k`, `v`, `o`, `ffn1`, `ffn2`, each row-major.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        let hd = self.qkv.cols() / 3;
        for block in 0..3 {
            for row in self.qkv.rows_iter() {
                out.extend_from_slice(&row[block * hd..(block + 1) * hd]);
            }
        }
        for m in [&self.o, &self.ffn1, &self.ffn2] {
            out.extend_from_slice(m.as_slice());
        }
        out
    }

    /// A shard of zeros shaped for `cfg`: a slot that
    /// [`copy_from_flat`](ShardWeights::copy_from_flat) fills.
    pub fn zeros(cfg: &ModelConfig) -> Self {
        let (d, hd, f) = (cfg.hidden, cfg.head_dim(), cfg.ffn_per_shard());
        Self {
            qkv: Matrix::zeros(d, 3 * hd),
            o: Matrix::zeros(hd, d),
            ffn1: Matrix::zeros(d, f),
            ffn2: Matrix::zeros(f, d),
        }
    }

    /// Whether every matrix has the shape [`zeros`](ShardWeights::zeros)
    /// gives it for `cfg`.
    pub(crate) fn is_shaped_for(&self, cfg: &ModelConfig) -> bool {
        let (d, hd, f) = (cfg.hidden, cfg.head_dim(), cfg.ffn_per_shard());
        self.qkv.shape() == (d, 3 * hd)
            && self.o.shape() == (hd, d)
            && self.ffn1.shape() == (d, f)
            && self.ffn2.shape() == (f, d)
    }

    /// Rebuilds a shard from a flat weight group produced by [`flatten`]
    /// (after a round trip through quantization and storage).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal the shard parameter count for
    /// `cfg`.
    ///
    /// [`flatten`]: ShardWeights::flatten
    pub fn from_flat(flat: &[f32], cfg: &ModelConfig) -> Self {
        assert_eq!(
            flat.len(),
            cfg.shard_param_count(),
            "flat weight group has wrong length for this config"
        );
        let mut shard = Self::zeros(cfg);
        shard.copy_from_flat(flat);
        shard
    }

    /// [`from_flat`](ShardWeights::from_flat) in place: overwrites every
    /// weight of this shard from a flat weight group, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal this shard's parameter count.
    pub fn copy_from_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat weight group has wrong length for this shard"
        );
        let (qkv, mut rest) = flat.split_at(self.qkv.len());
        self.pack_qkv(qkv);
        for m in [&mut self.o, &mut self.ffn1, &mut self.ffn2] {
            let (segment, tail) = rest.split_at(m.len());
            m.as_mut_slice().copy_from_slice(segment);
            rest = tail;
        }
    }

    /// Rebuilds a shard from a flat weight group that is read segment by
    /// segment: `read(at, out)` fills `out` with the group's weights
    /// `[at, at + out.len())`. Segments are asked for in ascending order and
    /// together cover `[0, cfg.shard_param_count())` once: the attention
    /// half ([`read_attention_with`](ShardWeights::read_attention_with)),
    /// then the FFN half ([`read_ffn_with`](ShardWeights::read_ffn_with)).
    pub fn from_flat_with(cfg: &ModelConfig, mut read: impl FnMut(usize, &mut [f32])) -> Self {
        let mut shard = Self::zeros(cfg);
        shard.read_attention_with(&mut vec![0.0; shard.qkv.len()], &mut read);
        shard.read_ffn_with(read);
        shard
    }

    /// Overwrites the attention half — `qkv` and `o`, the flat group's
    /// weights `[0, 4·d·d/M)` — from a segment reader as
    /// [`from_flat_with`](ShardWeights::from_flat_with) calls it, allocating
    /// nothing. Q, K and V are read as one segment into `staging` and packed;
    /// `o` is read straight into its matrix.
    ///
    /// # Panics
    ///
    /// Panics if `staging` is not `qkv`'s length.
    pub fn read_attention_with(
        &mut self,
        staging: &mut [f32],
        mut read: impl FnMut(usize, &mut [f32]),
    ) {
        assert_eq!(staging.len(), self.qkv.len(), "Q/K/V staging has wrong length");
        read(0, staging);
        self.pack_qkv(staging);
        read(self.qkv.len(), self.o.as_mut_slice());
    }

    /// Overwrites the FFN half — `ffn1` and `ffn2`, the flat group's weights
    /// after the attention half — from a segment reader, each straight into
    /// its matrix, allocating nothing.
    pub fn read_ffn_with(&mut self, mut read: impl FnMut(usize, &mut [f32])) {
        let at = self.qkv.len() + self.o.len();
        read(at, self.ffn1.as_mut_slice());
        read(at + self.ffn1.len(), self.ffn2.as_mut_slice());
    }

    /// Writes Q, K and V, given as three consecutive row-major `d × d/M`
    /// matrices (the order [`flatten`](ShardWeights::flatten) emits), into
    /// the packed `[Q | K | V]` operand.
    fn pack_qkv(&mut self, flat: &[f32]) {
        let (d, hd) = (self.qkv.rows(), self.qkv.cols() / 3);
        for (block, matrix) in flat.chunks_exact(d * hd).enumerate() {
            for (r, row) in matrix.chunks_exact(hd).enumerate() {
                self.qkv.row_mut(r)[block * hd..(block + 1) * hd].copy_from_slice(row);
            }
        }
    }

    /// Number of parameters in the shard.
    pub fn param_count(&self) -> usize {
        self.qkv.len() + self.o.len() + self.ffn1.len() + self.ffn2.len()
    }
}

impl Clone for ShardWeights {
    fn clone(&self) -> Self {
        Self {
            qkv: self.qkv.clone(),
            o: self.o.clone(),
            ffn1: self.ffn1.clone(),
            ffn2: self.ffn2.clone(),
        }
    }

    /// Copies `source` into this shard's buffers, allocating only if one is
    /// too small: how a shard source fills a caller's slot.
    fn clone_from(&mut self, source: &Self) {
        self.qkv.clone_from(&source.qkv);
        self.o.clone_from(&source.o);
        self.ffn1.clone_from(&source.ffn1);
        self.ffn2.clone_from(&source.ffn2);
    }
}

/// Per-layer parameters that are *not* sharded and stay resident in memory in
/// full fidelity (paper §6: layer-norm and biases are tens of KB per layer).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResident {
    /// Post-attention layer norm.
    pub ln_attn: LayerNormParams,
    /// Post-FFN layer norm.
    pub ln_ffn: LayerNormParams,
    /// Attention output bias (`d`).
    pub bias_attn: Vec<f32>,
    /// FFN1 bias (`d_ff`), sliced per shard at execution time.
    pub bias_ffn1: Vec<f32>,
    /// FFN2 bias (`d`).
    pub bias_ffn2: Vec<f32>,
}

impl LayerResident {
    /// Identity-initialized resident parameters for `cfg`.
    pub fn identity(cfg: &ModelConfig) -> Self {
        Self {
            ln_attn: LayerNormParams::identity(cfg.hidden),
            ln_ffn: LayerNormParams::identity(cfg.hidden),
            bias_attn: vec![0.0; cfg.hidden],
            bias_ffn1: vec![0.0; cfg.ffn],
            bias_ffn2: vec![0.0; cfg.hidden],
        }
    }

    /// Bytes held resident for this layer.
    pub fn byte_size(&self) -> usize {
        self.ln_attn.byte_size()
            + self.ln_ffn.byte_size()
            + (self.bias_attn.len() + self.bias_ffn1.len() + self.bias_ffn2.len()) * 4
    }
}

/// All parameters of one synthesised transformer layer: `M` shards plus the
/// resident (non-streamed) remainder, as
/// [`synthetic_layer`](crate::synthetic::synthetic_layer) builds them. A
/// [`Model`](crate::Model) keeps only the remainder, as a [`ModelLayer`],
/// and reads the shards from its shard source.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// The `M` vertical slices.
    pub shards: Vec<ShardWeights>,
    /// Layer norms and biases, kept resident.
    pub resident: LayerResident,
}

impl LayerWeights {
    /// Total sharded parameter count of this layer.
    pub fn sharded_param_count(&self) -> usize {
        self.shards.iter().map(ShardWeights::param_count).sum()
    }
}

/// One layer of a [`Model`](crate::Model) as the model holds it: the
/// resident parameters alone. The layer's `M` shards are read one at a time
/// through [`Model::read_shard`](crate::Model::read_shard).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelLayer {
    /// Layer norms and biases, kept resident.
    pub resident: LayerResident,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{self, synthetic_layer, GainPattern};
    use sti_tensor::Rng;

    #[test]
    fn flatten_round_trips() {
        let cfg = ModelConfig::tiny();
        let shard = synthetic::synthetic_shard(&cfg, 42, 1.0);
        let flat = shard.flatten();
        assert_eq!(flat.len(), cfg.shard_param_count());
        let rebuilt = ShardWeights::from_flat(&flat, &cfg);
        assert_eq!(rebuilt, shard);
    }

    /// The flat order is what the quantizer compresses and the store
    /// holds: `q`, `k`, `v`, `o`, `ffn1`, `ffn2`, each row-major, whatever
    /// the in-memory packing.
    #[test]
    fn flatten_segments_sit_at_their_pinned_offsets() {
        for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
            let (d, hd, f) = (cfg.hidden, cfg.head_dim(), cfg.ffn_per_shard());
            let shard = synthetic::synthetic_shard(&cfg, 7, 1.0);
            let flat = shard.flatten();
            let offsets =
                [0, d * hd, 2 * d * hd, 3 * d * hd, 4 * d * hd, 4 * d * hd + d * f, flat.len()];
            assert_eq!(flat.len(), 4 * d * hd + 2 * d * f);
            let [q, k, v] = [0, 1, 2].map(|block| shard.qkv.column_block(block * hd, hd));
            for (i, m) in [&q, &k, &v, &shard.o, &shard.ffn1, &shard.ffn2].into_iter().enumerate() {
                assert_eq!(&flat[offsets[i]..offsets[i + 1]], m.as_slice(), "segment {i}");
            }
            assert_eq!(ShardWeights::from_flat(&flat, &cfg), shard);
            // Row `r` of the packed operand is `[q[r] | k[r] | v[r]]`.
            assert_eq!(&shard.qkv.row(1)[..hd], q.row(1));
            assert_eq!(&shard.qkv.row(1)[hd..2 * hd], k.row(1));
            assert_eq!(&shard.qkv.row(1)[2 * hd..], v.row(1));
        }
    }

    #[test]
    fn from_flat_with_reads_ascending_segments_that_cover_the_group_once() {
        let cfg = ModelConfig::tiny();
        let flat = synthetic::synthetic_shard(&cfg, 9, 1.0).flatten();
        let mut next = 0;
        let shard = ShardWeights::from_flat_with(&cfg, |at, out| {
            assert_eq!(at, next, "segments must be contiguous and ascending");
            out.copy_from_slice(&flat[at..at + out.len()]);
            next += out.len();
        });
        assert_eq!(next, flat.len());
        assert_eq!(shard.flatten(), flat);
    }

    #[test]
    fn copy_from_flat_refills_a_used_shard_as_from_flat_builds_one() {
        let bits = |s: &ShardWeights| {
            [&s.qkv, &s.o, &s.ffn1, &s.ffn2]
                .map(|m| m.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>())
        };
        for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
            let mut shard = synthetic::synthetic_shard(&cfg, 3, 1.0);
            let flat = synthetic::synthetic_shard(&cfg, 4, 1.0).flatten();
            shard.copy_from_flat(&flat);
            assert_eq!(bits(&shard), bits(&ShardWeights::from_flat(&flat, &cfg)));
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_flat_rejects_bad_length() {
        let cfg = ModelConfig::tiny();
        let _ = ShardWeights::from_flat(&[0.0; 3], &cfg);
    }

    #[test]
    fn resident_bytes_are_small() {
        let cfg = ModelConfig::scaled_bert();
        let resident = LayerResident::identity(&cfg);
        // Paper: tens of KB per layer at full scale; scaled model is smaller
        // still — and crucially far smaller than the sharded weights.
        assert!(resident.byte_size() < cfg.layer_fp32_bytes() / 10);
    }

    #[test]
    fn shard_param_count_matches_config() {
        let cfg = ModelConfig::tiny();
        let shard = synthetic::synthetic_shard(&cfg, 1, 1.0);
        assert_eq!(shard.param_count(), cfg.shard_param_count());
    }

    // The Table 1 layout oracle: conventional full-layer matrices, and the
    // vertical partitioning into shards and back. Slice `i` owns columns
    // `[i·d/M, (i+1)·d/M)` of Q/K/V, rows of O, and the matching `1/M`
    // block of FFN1/FFN2; the round trip proves the synthetic generator's
    // sharded layout is exactly that partitioning.

    /// Conventional (unsharded) weight matrices of one transformer layer.
    #[derive(Debug, Clone, PartialEq)]
    struct FullLayerMatrices {
        /// Query projection, `d × d`.
        wq: Matrix,
        /// Key projection, `d × d`.
        wk: Matrix,
        /// Value projection, `d × d`.
        wv: Matrix,
        /// Output projection, `d × d`.
        wo: Matrix,
        /// FFN up-projection, `d × d_ff`.
        ffn1: Matrix,
        /// FFN down-projection, `d_ff × d`.
        ffn2: Matrix,
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
    fn merge_shards(shards: &[ShardWeights], cfg: &ModelConfig) -> FullLayerMatrices {
        assert_eq!(shards.len(), cfg.heads, "need all M shards to merge a layer");
        let hd = cfg.head_dim();
        // Block `b` of every slice's packed `[Q | K | V]` operand, side by side.
        let qkv_block = |b: usize| {
            let blocks: Vec<Matrix> =
                shards.iter().map(|s| s.qkv.column_block(b * hd, hd)).collect();
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
    fn extract_shard(full: &FullLayerMatrices, i: usize, cfg: &ModelConfig) -> ShardWeights {
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
