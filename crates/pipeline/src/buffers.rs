//! The two memory buffers STI allocates (paper §3.1).

use sti_quant::{Bitwidth, QuantizedBlob};
use sti_storage::{ShardKey, ShardSource};
use sti_transformer::{ModelConfig, ShardId, ShardWeights};

use crate::error::PipelineError;

/// The preload buffer: the *compressed* shards one plan chose to keep
/// resident, held for as long as the plan is in use.
///
/// A plan changes only when `T` or `|S|` does (§3.2), so a buffer is built
/// once from its plan's preload list and never edited: a replan builds a
/// new buffer and swaps it in. Lookups binary-search the id-sorted entries.
#[derive(Debug, Default)]
pub struct PreloadBuffer {
    used: u64,
    blobs: Box<[(ShardId, QuantizedBlob)]>,
}

impl PreloadBuffer {
    /// Loads every `(shard, fidelity)` of `preload` from `source` into a
    /// buffer of `capacity` bytes — a plan's `preload_budget_bytes` and
    /// `preload`.
    ///
    /// # Errors
    ///
    /// Fails if a shard cannot be loaded, or with
    /// [`PipelineError::PreloadOverflow`] if the shards do not fit.
    pub fn fill(
        capacity: u64,
        preload: &[(ShardId, Bitwidth)],
        source: &dyn ShardSource,
    ) -> Result<Self, PipelineError> {
        let mut used = 0u64;
        let mut blobs = Vec::with_capacity(preload.len());
        for &(id, bw) in preload {
            let blob = source.load(ShardKey::new(id, bw))?;
            let bytes = blob.byte_size() as u64;
            let available = capacity - used;
            if bytes > available {
                return Err(PipelineError::PreloadOverflow { needed: bytes, available });
            }
            used += bytes;
            blobs.push((id, blob));
        }
        blobs.sort_unstable_by_key(|&(id, _)| id);
        Ok(Self { used, blobs: blobs.into_boxed_slice() })
    }

    /// Bytes held.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of shards held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Whether a shard is resident.
    pub fn contains(&self, id: ShardId) -> bool {
        self.get(id).is_some()
    }

    /// Borrows a resident shard's blob.
    pub fn get(&self, id: ShardId) -> Option<&QuantizedBlob> {
        let at = self.blobs.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(&self.blobs[at].1)
    }
}

/// The working buffer: one layer's worth of decompressed FP32 shard weights.
/// A layer's shards are dropped before the next layer's are assembled, so its
/// size does not grow with the model (§3.1); `peak_bytes` is the most it ever
/// held.
///
/// Decompression writes each weight once, where the kernels will read it:
/// every segment of a blob's flat weight group is decoded straight into the
/// matching matrix of the shard (the Q/K/V quarter through temporaries,
/// because the packed `[Q | K | V]` operand interleaves it) — no
/// shard-sized staging copy in between.
#[derive(Debug)]
pub struct WorkingBuffer {
    cfg: ModelConfig,
    peak_shards: usize,
}

impl WorkingBuffer {
    /// Creates a working buffer for models of shape `cfg`.
    pub fn new(cfg: ModelConfig) -> Self {
        Self { cfg, peak_shards: 0 }
    }

    /// Decompresses a layer's blobs into executable shard weights.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PlanMismatch`] if a blob's length disagrees
    /// with the configured shard size.
    pub fn assemble(
        &mut self,
        blobs: &[&QuantizedBlob],
    ) -> Result<Vec<ShardWeights>, PipelineError> {
        let mut out = Vec::with_capacity(blobs.len());
        for blob in blobs {
            if blob.len() != self.cfg.shard_param_count() {
                return Err(PipelineError::PlanMismatch(format!(
                    "blob holds {} weights, shard expects {}",
                    blob.len(),
                    self.cfg.shard_param_count()
                )));
            }
            out.push(ShardWeights::from_flat_with(&self.cfg, |at, segment| {
                blob.dequantize_range_into(at, segment)
            }));
        }
        self.peak_shards = self.peak_shards.max(blobs.len());
        Ok(out)
    }

    /// Peak bytes of decompressed weights held for any single layer so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak_shards * self.cfg.shard_fp32_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_quant::QuantConfig;
    use sti_storage::MemStore;
    use sti_transformer::synthetic::synthetic_shard;
    use sti_transformer::Model;

    fn blob(cfg: &ModelConfig, seed: u64, bw: Bitwidth) -> QuantizedBlob {
        let shard = synthetic_shard(cfg, seed, 1.0);
        QuantizedBlob::quantize(&shard.flatten(), bw, &QuantConfig::default())
    }

    #[test]
    fn fill_tracks_bytes_and_rejects_overflow() {
        let cfg = ModelConfig::tiny();
        let store =
            MemStore::build(&Model::synthetic(1, cfg), &[Bitwidth::B6], &QuantConfig::default());
        let (a, b) = ((ShardId::new(1, 0), Bitwidth::B6), (ShardId::new(0, 1), Bitwidth::B6));
        let size = |(id, bw)| store.load(ShardKey::new(id, bw)).unwrap().byte_size() as u64;
        let buf = PreloadBuffer::fill(size(a) + 10, &[a], &store).unwrap();
        assert_eq!((buf.used_bytes(), buf.len()), (size(a), 1));
        assert!(buf.contains(a.0) && !buf.contains(b.0));
        let err = PreloadBuffer::fill(size(a) + 10, &[a, b], &store).unwrap_err();
        let expected = PipelineError::PreloadOverflow { needed: size(b), available: 10 };
        assert_eq!(err.to_string(), expected.to_string());
    }

    #[test]
    fn lookups_find_every_entry_whatever_the_fill_order() {
        let cfg = ModelConfig::tiny();
        let store =
            MemStore::build(&Model::synthetic(2, cfg), &[Bitwidth::B2], &QuantConfig::default());
        let ids = [ShardId::new(1, 1), ShardId::new(0, 0), ShardId::new(1, 0)];
        let preload: Vec<_> = ids.iter().map(|&id| (id, Bitwidth::B2)).collect();
        let buf = PreloadBuffer::fill(1 << 20, &preload, &store).unwrap();
        for id in ids {
            assert_eq!(buf.get(id), Some(&store.load(ShardKey::new(id, Bitwidth::B2)).unwrap()));
        }
        assert!(buf.get(ShardId::new(0, 1)).is_none());
    }

    #[test]
    fn working_buffer_round_trips_full_fidelity() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(7, cfg.clone());
        let id = ShardId::new(0, 1);
        let flat = model.shard(id).flatten();
        let b = QuantizedBlob::quantize(&flat, Bitwidth::Full, &QuantConfig::default());
        let mut wb = WorkingBuffer::new(cfg.clone());
        let shards = wb.assemble(&[&b]).unwrap();
        assert_eq!(&shards[0], model.shard(id));
        assert_eq!(wb.peak_bytes(), cfg.shard_fp32_bytes());
    }

    #[test]
    fn working_buffer_rejects_wrong_size_blobs() {
        let cfg = ModelConfig::tiny();
        let other = ModelConfig { hidden: 16, ffn: 32, ..ModelConfig::tiny() };
        let b = blob(&other, 1, Bitwidth::B2);
        let mut wb = WorkingBuffer::new(cfg);
        assert!(matches!(wb.assemble(&[&b]), Err(PipelineError::PlanMismatch(_))));
    }

    #[test]
    fn working_buffer_does_not_grow_with_layers() {
        let cfg = ModelConfig::tiny();
        let mut wb = WorkingBuffer::new(cfg.clone());
        let b = blob(&cfg, 4, Bitwidth::B4);
        for _ in 0..10 {
            let blobs: Vec<&QuantizedBlob> = (0..cfg.heads).map(|_| &b).collect();
            wb.assemble(&blobs).unwrap();
        }
        assert_eq!(wb.peak_bytes(), cfg.heads * cfg.shard_fp32_bytes());
    }
}
