//! The two memory buffers STI allocates (paper §3.1).

use std::collections::HashMap;

use sti_quant::QuantizedBlob;
use sti_transformer::{ModelConfig, ShardId, ShardWeights};

use crate::error::PipelineError;

/// The preload buffer: a small, capacity-bounded cache of *compressed*
/// shards that persists across executions for as long as the app lives.
///
/// Shards from bottom layers are the valuable ones (they are needed first,
/// §5.5), so when the buffer shrinks it evicts from the **top** layers
/// downward.
#[derive(Debug, Default)]
pub struct PreloadBuffer {
    capacity: u64,
    used: u64,
    blobs: HashMap<ShardId, QuantizedBlob>,
}

impl PreloadBuffer {
    /// Creates an empty buffer with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0, blobs: HashMap::new() }
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently held.
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
        self.blobs.contains_key(&id)
    }

    /// Borrows a resident shard's blob.
    pub fn get(&self, id: ShardId) -> Option<&QuantizedBlob> {
        self.blobs.get(&id)
    }

    /// Admits a shard.
    ///
    /// Replacing an already-resident shard first releases its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PreloadOverflow`] if the blob does not fit;
    /// the buffer is unchanged in that case.
    pub fn insert(&mut self, id: ShardId, blob: QuantizedBlob) -> Result<(), PipelineError> {
        let bytes = blob.byte_size() as u64;
        let freed = self.blobs.get(&id).map_or(0, |b| b.byte_size() as u64);
        let available = self.capacity - self.used + freed;
        if bytes > available {
            return Err(PipelineError::PreloadOverflow { needed: bytes, available });
        }
        if let Some(old) = self.blobs.insert(id, blob) {
            self.used -= old.byte_size() as u64;
        }
        self.used += bytes;
        Ok(())
    }

    /// Removes a shard, returning its blob.
    pub fn remove(&mut self, id: ShardId) -> Option<QuantizedBlob> {
        let blob = self.blobs.remove(&id)?;
        self.used -= blob.byte_size() as u64;
        Some(blob)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.blobs.clear();
        self.used = 0;
    }

    /// Changes the capacity. When shrinking, evicts shards from the top
    /// layers downward (within a layer, highest slice first) until the
    /// contents fit (§5.5: bottom layers are needed early, preserve them).
    pub fn resize(&mut self, capacity: u64) {
        self.capacity = capacity;
        if self.used <= capacity {
            return;
        }
        let mut ids: Vec<ShardId> = self.blobs.keys().copied().collect();
        // Top layers (and top slices) first.
        ids.sort_by(|a, b| b.cmp(a));
        for id in ids {
            if self.used <= capacity {
                break;
            }
            self.remove(id);
        }
    }

    /// Ids currently resident, in (layer, slice) order.
    pub fn resident_ids(&self) -> Vec<ShardId> {
        let mut ids: Vec<ShardId> = self.blobs.keys().copied().collect();
        ids.sort();
        ids
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
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::synthetic::synthetic_shard;
    use sti_transformer::Model;

    fn blob(cfg: &ModelConfig, seed: u64, bw: Bitwidth) -> QuantizedBlob {
        let shard = synthetic_shard(cfg, seed, 1.0);
        QuantizedBlob::quantize(&shard.flatten(), bw, &QuantConfig::default())
    }

    #[test]
    fn insert_tracks_bytes_and_rejects_overflow() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 1, Bitwidth::B6);
        let bytes = b.byte_size() as u64;
        let mut buf = PreloadBuffer::new(bytes + 10);
        buf.insert(ShardId::new(0, 0), b.clone()).unwrap();
        assert_eq!(buf.used_bytes(), bytes);
        let err = buf.insert(ShardId::new(0, 1), b).unwrap_err();
        assert!(matches!(err, PipelineError::PreloadOverflow { .. }));
        assert_eq!(buf.len(), 1, "failed insert must not change the buffer");
    }

    #[test]
    fn replacing_a_shard_releases_its_bytes() {
        let cfg = ModelConfig::tiny();
        let big = blob(&cfg, 1, Bitwidth::B6);
        let small = blob(&cfg, 1, Bitwidth::B2);
        let mut buf = PreloadBuffer::new(big.byte_size() as u64);
        buf.insert(ShardId::new(0, 0), big).unwrap();
        buf.insert(ShardId::new(0, 0), small.clone()).unwrap();
        assert_eq!(buf.used_bytes(), small.byte_size() as u64);
    }

    #[test]
    fn resize_evicts_top_layers_first() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 2, Bitwidth::B2);
        let each = b.byte_size() as u64;
        let mut buf = PreloadBuffer::new(each * 4);
        for (l, s) in [(0u16, 0u16), (0, 1), (1, 0), (1, 1)] {
            buf.insert(ShardId::new(l, s), b.clone()).unwrap();
        }
        buf.resize(each * 2);
        let resident = buf.resident_ids();
        assert_eq!(resident, vec![ShardId::new(0, 0), ShardId::new(0, 1)]);
        assert!(buf.used_bytes() <= buf.capacity());
    }

    #[test]
    fn clear_resets_accounting() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 3, Bitwidth::B2);
        let mut buf = PreloadBuffer::new(1 << 20);
        buf.insert(ShardId::new(0, 0), b).unwrap();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.used_bytes(), 0);
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
