//! The on-disk shard store.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
use sti_transformer::{Model, ShardId};

use crate::error::StorageError;
use crate::format;
use crate::manifest::{Manifest, RecordLoc};

/// Identifies one stored shard version: which shard, at which fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// The shard (layer, slice).
    pub id: ShardId,
    /// The fidelity version.
    pub bitwidth: Bitwidth,
}

impl ShardKey {
    /// Creates a key.
    pub fn new(id: ShardId, bitwidth: Bitwidth) -> Self {
        Self { id, bitwidth }
    }
}

/// Anything that can produce shard blobs: the on-disk store, or an in-memory
/// test double.
pub trait ShardSource: Send + Sync {
    /// Loads one shard version.
    ///
    /// # Errors
    ///
    /// Returns an error if the shard is missing or its record is corrupt.
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError>;

    /// Serialized size of one shard version in bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if the shard is missing.
    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError>;
}

/// The on-disk `N × M × K` shard store.
///
/// Layout: one `layer_LL_KKbit.stis` file per `(layer, bitwidth)` holding the
/// layer's `M` shard records consecutively in slice order (co-location,
/// paper §6), plus a `manifest.stim` index.
#[derive(Debug)]
pub struct ShardStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl ShardStore {
    /// Name of the manifest file inside a store directory.
    pub const MANIFEST_FILE: &'static str = "manifest.stim";

    /// Preprocesses `model` into a store at `dir`: partitions each layer into
    /// `M` shards, quantizes each shard at every requested bitwidth, and
    /// writes layer-grouped record files (the cloud-side preprocessing of
    /// paper §3.2 / §6).
    ///
    /// # Errors
    ///
    /// Fails if `dir` already contains a store or on IO failure.
    pub fn create(
        dir: impl AsRef<Path>,
        model: &Model,
        bitwidths: &[Bitwidth],
        quant: &QuantConfig,
    ) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        if dir.join(Self::MANIFEST_FILE).exists() {
            return Err(StorageError::AlreadyExists(dir));
        }
        fs::create_dir_all(&dir)?;
        let cfg = model.config().clone();
        let mut manifest = Manifest::new(cfg.clone(), bitwidths.to_vec());
        let bitwidths = manifest.bitwidths.clone();
        for layer in 0..cfg.layers as u16 {
            // One fit and one sort per shard: `versions[slice][k]` is the
            // shard at `bitwidths[k]`.
            let versions: Vec<Vec<QuantizedBlob>> = (0..cfg.heads as u16)
                .map(|slice| {
                    let flat = model.shard(ShardId::new(layer, slice)).flatten();
                    QuantizedBlob::quantize_all(&flat, &bitwidths, quant)
                })
                .collect();
            for (k, &bw) in bitwidths.iter().enumerate() {
                let mut file_bytes = Vec::new();
                let mut locs = Vec::with_capacity(cfg.heads);
                for shard_versions in &versions {
                    let record = format::encode_blob(&shard_versions[k]);
                    locs.push(RecordLoc {
                        offset: file_bytes.len() as u64,
                        len: record.len() as u32,
                    });
                    file_bytes.extend_from_slice(&record);
                }
                let path = dir.join(Manifest::layer_file_name(layer, bw));
                let mut f = fs::File::create(&path)?;
                f.write_all(&file_bytes)?;
                manifest.insert_layer(layer, bw, locs);
            }
        }
        let mut mf = fs::File::create(dir.join(Self::MANIFEST_FILE))?;
        mf.write_all(&manifest.encode())?;
        Ok(Self { dir, manifest })
    }

    /// Opens an existing store.
    ///
    /// # Errors
    ///
    /// Fails if the manifest is missing, corrupt, or incomplete.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let bytes = fs::read(dir.join(Self::MANIFEST_FILE))?;
        let manifest = Manifest::decode(&bytes)?;
        if !manifest.is_complete() {
            return Err(StorageError::corrupt("manifest", "incomplete shard index"));
        }
        Ok(Self { dir, manifest })
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads the records of several shards of *one layer* as grouped IO:
    /// one file open per distinct bitwidth, sequential record reads.
    ///
    /// `slices` pairs each slice index with its requested bitwidth.
    ///
    /// # Errors
    ///
    /// Fails if any shard is missing or corrupt.
    pub fn read_layer(
        &self,
        layer: u16,
        slices: &[(u16, Bitwidth)],
    ) -> Result<Vec<QuantizedBlob>, StorageError> {
        let mut handles: BTreeMap<Bitwidth, fs::File> = BTreeMap::new();
        let mut out = Vec::with_capacity(slices.len());
        for &(slice, bw) in slices {
            let id = ShardId::new(layer, slice);
            let loc = self
                .manifest
                .locate(id, bw)
                .ok_or(StorageError::MissingShard { id, bits: bw.bits() })?;
            let file = match handles.entry(bw) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    let path = self.dir.join(Manifest::layer_file_name(layer, bw));
                    e.insert(fs::File::open(path)?)
                }
            };
            let mut buf = vec![0u8; loc.len as usize];
            file.seek(SeekFrom::Start(loc.offset))?;
            file.read_exact(&mut buf)?;
            let (blob, _) = format::decode_blob(&buf)?;
            out.push(blob);
        }
        Ok(out)
    }

    /// Total stored bytes per bitwidth (for the storage-overhead experiment).
    pub fn stored_bytes_by_bitwidth(&self) -> BTreeMap<Bitwidth, u64> {
        self.manifest.bitwidths.iter().map(|&bw| (bw, self.manifest.bytes_at(bw))).collect()
    }

    /// Total stored bytes across all versions.
    pub fn total_bytes(&self) -> u64 {
        self.manifest.total_bytes()
    }
}

impl ShardSource for ShardStore {
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
        let blobs = self.read_layer(key.id.layer, &[(key.id.slice, key.bitwidth)])?;
        Ok(blobs.into_iter().next().expect("read_layer returns one blob per request"))
    }

    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
        self.manifest
            .locate(key.id, key.bitwidth)
            .map(|loc| loc.len as u64)
            .ok_or(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_transformer::ModelConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sti-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_store(tag: &str) -> (ShardStore, Model, PathBuf) {
        let model = Model::synthetic(3, ModelConfig::tiny());
        let dir = temp_dir(tag);
        let store = ShardStore::create(
            &dir,
            &model,
            &[Bitwidth::B2, Bitwidth::B6, Bitwidth::Full],
            &QuantConfig::default(),
        )
        .unwrap();
        (store, model, dir)
    }

    #[test]
    fn create_then_open_round_trips_manifest() {
        let (store, _, dir) = tiny_store("open");
        let reopened = ShardStore::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), store.manifest());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let (_store, model, dir) = tiny_store("overwrite");
        let err =
            ShardStore::create(&dir, &model, &[Bitwidth::B2], &QuantConfig::default()).unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn full_fidelity_round_trips_weights_exactly() {
        let (store, model, dir) = tiny_store("full");
        let id = ShardId::new(1, 2);
        let blob = store.load(ShardKey::new(id, Bitwidth::Full)).unwrap();
        assert_eq!(blob.dequantize(), model.shard(id).flatten());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_layer_mixes_bitwidths() {
        let (store, _, dir) = tiny_store("mixed");
        let blobs = store
            .read_layer(0, &[(0, Bitwidth::B2), (1, Bitwidth::B6), (2, Bitwidth::Full)])
            .unwrap();
        assert_eq!(blobs.len(), 3);
        assert_eq!(blobs[0].bitwidth(), Bitwidth::B2);
        assert_eq!(blobs[1].bitwidth(), Bitwidth::B6);
        assert_eq!(blobs[2].bitwidth(), Bitwidth::Full);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_shard_is_reported() {
        let (store, _, dir) = tiny_store("missing");
        let err = store.load(ShardKey::new(ShardId::new(0, 0), Bitwidth::B4)).unwrap_err();
        assert!(matches!(err, StorageError::MissingShard { .. }));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_record_is_detected() {
        let (store, _, dir) = tiny_store("corrupt");
        // Flip a byte in the middle of layer 0's 2-bit file.
        let path = dir.join(Manifest::layer_file_name(0, Bitwidth::B2));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let mut saw_error = false;
        for slice in 0..4u16 {
            if store.load(ShardKey::new(ShardId::new(0, slice), Bitwidth::B2)).is_err() {
                saw_error = true;
            }
        }
        assert!(saw_error, "corruption must surface as an error");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn storage_accounting_orders_bitwidths() {
        let (store, _, dir) = tiny_store("bytes");
        let by_bw = store.stored_bytes_by_bitwidth();
        assert!(by_bw[&Bitwidth::B2] < by_bw[&Bitwidth::B6]);
        assert!(by_bw[&Bitwidth::B6] < by_bw[&Bitwidth::Full]);
        assert_eq!(store.total_bytes(), by_bw.values().sum::<u64>());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn size_bytes_matches_record_length() {
        let (store, _, dir) = tiny_store("size");
        let key = ShardKey::new(ShardId::new(0, 1), Bitwidth::B6);
        let on_disk = store.size_bytes(key).unwrap();
        let blob = store.load(key).unwrap();
        // Record adds a fixed header + checksum on top of the payload.
        assert!(on_disk > blob.byte_size() as u64);
        assert!(on_disk < blob.byte_size() as u64 + 64);
        fs::remove_dir_all(dir).unwrap();
    }
}
