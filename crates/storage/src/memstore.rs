//! In-memory shard source: the unit-test double for [`ShardStore`](crate::ShardStore).

use std::collections::HashMap;

use parking_lot::RwLock;
use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
use sti_transformer::{Model, ShardWeights};

use crate::error::StorageError;
use crate::store::{ShardKey, ShardSource};

/// A [`ShardSource`] that quantizes a model's shards up front and keeps every
/// version in memory — no filesystem, same interface, sizes and failure modes
/// as the disk store (missing versions still error), plus `insert` / `remove`
/// for fault injection.
///
/// It holds the whole quantised model in RAM, which is what STI exists to
/// avoid: nothing built from a `TaskContext` uses it (those stream from an
/// on-disk `ShardStore`). It serves unit tests, the small example apps, and
/// the CLI when no `--store` directory is given.
///
/// **Ownership:** the store is the one writer of every payload, at
/// [`MemStore::build`] or [`MemStore::insert`]; [`ShardSource::load`] hands
/// out a handle to that copy, never a copy of it. `insert` and `remove`
/// swap which blob a key names and cannot change a blob already handed out.
#[derive(Debug, Default)]
pub struct MemStore {
    blobs: RwLock<HashMap<ShardKey, QuantizedBlob>>,
}

impl MemStore {
    /// Builds a store holding every shard of `model` at each of `bitwidths`.
    pub fn build(model: &Model, bitwidths: &[Bitwidth], quant: &QuantConfig) -> Self {
        let cfg = model.config();
        let mut blobs = HashMap::new();
        let mut shard = ShardWeights::zeros(cfg);
        for id in cfg.shard_ids() {
            model.read_shard(id, &mut shard);
            let versions = QuantizedBlob::quantize_all(&shard.flatten(), bitwidths, quant);
            for (&bw, blob) in bitwidths.iter().zip(versions) {
                blobs.insert(ShardKey::new(id, bw), blob);
            }
        }
        Self { blobs: RwLock::new(blobs) }
    }

    /// Inserts or replaces a single blob (for failure-injection tests).
    pub fn insert(&self, key: ShardKey, blob: QuantizedBlob) {
        self.blobs.write().insert(key, blob);
    }

    /// Removes a blob, simulating a missing version.
    pub fn remove(&self, key: ShardKey) -> Option<QuantizedBlob> {
        self.blobs.write().remove(&key)
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.read().is_empty()
    }
}

impl ShardSource for MemStore {
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
        self.blobs
            .read()
            .get(&key)
            .cloned()
            .ok_or(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() })
    }

    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
        self.blobs
            .read()
            .get(&key)
            .map(|b| b.byte_size() as u64)
            .ok_or(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_transformer::{ModelConfig, ShardId};

    fn store() -> (MemStore, Model) {
        let model = Model::synthetic(5, ModelConfig::tiny());
        let s = MemStore::build(&model, &[Bitwidth::B2, Bitwidth::Full], &QuantConfig::default());
        (s, model)
    }

    #[test]
    fn build_covers_the_grid() {
        let (s, model) = store();
        let cfg = model.config();
        assert_eq!(s.len(), cfg.total_shards() * 2);
    }

    #[test]
    fn load_full_fidelity_round_trips() {
        let (s, model) = store();
        let id = ShardId::new(0, 1);
        let blob = s.load(ShardKey::new(id, Bitwidth::Full)).unwrap();
        let mut shard = ShardWeights::zeros(model.config());
        model.read_shard(id, &mut shard);
        assert_eq!(blob.dequantize(), shard.flatten());
    }

    #[test]
    fn missing_version_errors() {
        let (s, _) = store();
        let err = s.load(ShardKey::new(ShardId::new(0, 0), Bitwidth::B5)).unwrap_err();
        assert!(matches!(err, StorageError::MissingShard { .. }));
    }

    #[test]
    fn remove_injects_missing_shard_failures() {
        let (s, _) = store();
        let key = ShardKey::new(ShardId::new(1, 1), Bitwidth::B2);
        assert!(s.load(key).is_ok());
        s.remove(key);
        assert!(s.load(key).is_err());
    }

    #[test]
    fn size_bytes_agrees_with_blob() {
        let (s, _) = store();
        let key = ShardKey::new(ShardId::new(0, 2), Bitwidth::B2);
        let blob = s.load(key).unwrap();
        assert_eq!(s.size_bytes(key).unwrap(), blob.byte_size() as u64);
    }
}
