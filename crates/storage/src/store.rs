//! The on-disk shard store.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob, WeakBlob};
use sti_transformer::{Model, ReadScratch, ShardId, ShardWeightSource, ShardWeights};

use crate::error::StorageError;
use crate::format;
use crate::manifest::{Manifest, RecordLoc};

/// Room for the longest file name a store writes (`layer_LL_KKbit.stis`,
/// `manifest.stim`).
const FILE_NAME_ROOM: usize = 32;

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

/// Anything that can produce shard blobs: the on-disk [`ShardStore`] that
/// serving paths stream from, or a cache in front of one.
pub trait ShardSource: Send + Sync {
    /// Loads one shard version. The blob may be a payload another holder
    /// already has (a cache, a preload buffer, an in-flight layer): its
    /// bytes are the ones a read of the record would decode.
    ///
    /// # Errors
    ///
    /// Returns an error if the shard is missing or its record is corrupt.
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError>;

    /// Reads one shard version for a caller that decodes it in place and
    /// keeps it only while it computes with it — a deferred shard of the
    /// layer in flight. Returns the payload a live holder already has, if
    /// any (a source with no records always returns [`load`](Self::load)'s
    /// blob). Otherwise appends the shard's record, verified, to `records`,
    /// a buffer the caller reuses, and returns `None`: the record is the
    /// buffer's last [`size_bytes`](Self::size_bytes) `+`
    /// [`format::RECORD_OVERHEAD`] bytes, decoded in place through
    /// [`format::verified_view`]. No payload is built, and nothing is
    /// published for other readers.
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load).
    fn load_deferred(
        &self,
        key: ShardKey,
        records: &mut Vec<u8>,
    ) -> Result<Option<QuantizedBlob>, StorageError> {
        let _ = records;
        self.load(key).map(Some)
    }

    /// Payload bytes of one shard version — [`QuantizedBlob::byte_size`] of
    /// what [`load`](Self::load) returns, which is what the device model
    /// charges IO for. It means the same for every source: record framing
    /// ([`format::RECORD_OVERHEAD`]) is a property of a file, reported by
    /// [`Manifest::bytes_at`] / [`ShardStore::total_bytes`], not of a shard.
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
///
/// Reads take `&self` and are safe from any number of threads: each layer
/// file's handle is kept, from its writing for a store this process
/// created and from its first read for an opened one, and every record is
/// one positional read (no shared cursor), verified and decoded on the way
/// out. Nothing a read returns stays resident in the store: it indexes the
/// payloads it has decoded only weakly, so a load while any holder (a
/// cache, a preload buffer, a staging pool, an in-flight layer of any
/// reader of this store) still has the shard's payload returns that
/// payload instead of decoding a second copy, and a load once every holder
/// has dropped it reads the record again. The index is sized once for the
/// manifest's keys.
///
/// One key space: file handles sit at [`Manifest::file_index`] and payload
/// slots at `file_index · M + slice`, so a key the manifest does not
/// declare (an undeclared bitwidth, a layer or slice outside the model
/// shape) is [`StorageError::MissingShard`] from `load` and `size_bytes`
/// alike.
///
/// A store made by [`create_temp`](Self::create_temp) owns its directory
/// and removes it when it drops; one made by [`create`](Self::create) or
/// [`open`](Self::open) leaves its directory where it is.
#[derive(Debug)]
pub struct ShardStore {
    dir: PathBuf,
    /// Whether dropping the store removes `dir`.
    temporary: bool,
    manifest: Manifest,
    /// One handle per layer file, at [`Manifest::file_index`]: the handle
    /// [`create`](Self::create) wrote the file through, or one the first
    /// read of an opened store's file opens. A failed open is not
    /// remembered, so a missing file fails every read of it and no other.
    files: Vec<OnceLock<fs::File>>,
    /// What every load consults before it reads.
    index: Mutex<PayloadIndex>,
}

/// The store's one place where a decoded payload is published for other
/// readers to find: one weak handle per manifest key, so it keeps no
/// payload bytes alive.
#[derive(Debug)]
struct PayloadIndex {
    /// One slot per key, at `file_index · M + slice`; sized once, never
    /// grown.
    slots: Vec<WeakBlob>,
    /// Publishes since dead slots were last swept.
    published: usize,
}

impl PayloadIndex {
    /// Publishes a freshly decoded `blob` in `slot` and returns it, or
    /// returns the live payload a racing reader published first (both
    /// decoded the same record). A dead slot keeps its payload's
    /// reference-count header allocated, so once per key-count publishes
    /// the dead slots are emptied: O(1) amortised per publish.
    fn publish(&mut self, slot: usize, blob: QuantizedBlob) -> QuantizedBlob {
        if let Some(winner) = self.slots[slot].upgrade() {
            return winner;
        }
        if self.published == self.slots.len() {
            for weak in self.slots.iter_mut().filter(|weak| weak.upgrade().is_none()) {
                *weak = WeakBlob::default();
            }
            self.published = 0;
        }
        self.slots[slot] = blob.downgrade();
        self.published += 1;
        blob
    }
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
        // One buffer for every path the store writes: the directory, a
        // separator and one file name at a time.
        let mut path = PathBuf::with_capacity(dir.as_os_str().len() + 1 + FILE_NAME_ROOM);
        path.push(&dir);
        path.push(Self::MANIFEST_FILE);
        if path.exists() {
            return Err(StorageError::AlreadyExists(dir));
        }
        path.pop();
        fs::create_dir_all(&dir)?;
        let cfg = model.config().clone();
        let mut store = Self::over(dir, Manifest::new(cfg.clone(), bitwidths.to_vec()));
        let bitwidths = store.manifest.bitwidths.clone();
        let (mut shard, mut read) = (ShardWeights::zeros(&cfg), model.read_scratch());
        for layer in 0..cfg.layers as u16 {
            // One fit and one sort per shard: `versions[slice][k]` is the
            // shard at `bitwidths[k]`.
            let versions: Vec<Vec<QuantizedBlob>> = (0..cfg.heads as u16)
                .map(|slice| {
                    model.read_shard(ShardId::new(layer, slice), &mut shard, &mut read);
                    QuantizedBlob::quantize_all(&shard.flatten(), &bitwidths, quant)
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
                path.push(Manifest::layer_file_name(layer, bw));
                let mut f = fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                path.pop();
                f.write_all(&file_bytes)?;
                store.manifest.insert_layer(layer, bw, locs);
                // The store keeps the handle it wrote through; the cell is
                // fresh, so the set cannot fail.
                let file = store.manifest.file_index(layer, bw).expect("a declared file");
                let _ = store.files[file].set(f);
            }
        }
        path.push(Self::MANIFEST_FILE);
        let mut mf = fs::File::create(&path)?;
        mf.write_all(&store.manifest.encode())?;
        Ok(store)
    }

    /// [`create`](Self::create) into a fresh `sti-ctx-<pid>-<n>` directory
    /// under [`std::env::temp_dir`], which the store removes when it drops
    /// (behind an `Arc`, when its last handle drops). `n` counts this
    /// process's stores; a name a killed process with a recycled pid left
    /// behind is skipped, not reused.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or the store cannot be
    /// written; nothing is left behind.
    pub fn create_temp(
        model: &Model,
        bitwidths: &[Bitwidth],
        quant: &QuantConfig,
    ) -> Result<Self, StorageError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = std::env::temp_dir();
        let dir = loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("sti-ctx-{}-{n}", std::process::id());
            // Sized to fit: the store keeps the path and no slack.
            let mut dir = PathBuf::with_capacity(base.as_os_str().len() + 1 + name.len());
            dir.push(&base);
            dir.push(name);
            match fs::create_dir(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e.into()),
            }
        };
        let mut store = Self::create(&dir, model, bitwidths, quant).inspect_err(|_| {
            let _ = fs::remove_dir_all(&dir);
        })?;
        store.temporary = true;
        Ok(store)
    }

    fn over(dir: PathBuf, manifest: Manifest) -> Self {
        let file_count = manifest.config.layers * manifest.bitwidths.len();
        let keys = file_count * manifest.config.heads;
        let files = (0..file_count).map(|_| OnceLock::new()).collect();
        let index = PayloadIndex { slots: vec![WeakBlob::default(); keys], published: 0 };
        Self { dir, temporary: false, manifest, files, index: Mutex::new(index) }
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
        Ok(Self::over(dir, manifest))
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `key`'s file index and payload slot (`file · M + slice`), with its
    /// record's location, or `None` for a key the manifest does not declare.
    fn slot(&self, key: ShardKey) -> Option<(usize, usize, RecordLoc)> {
        let file = self.manifest.file_index(key.id.layer, key.bitwidth)?;
        let loc = self.manifest.locate(key.id, key.bitwidth)?;
        Some((file, file * self.manifest.config.heads + key.id.slice as usize, loc))
    }

    /// `key`'s payload slot and record, with the payload a live holder
    /// has, if any.
    fn locate_live(
        &self,
        key: ShardKey,
    ) -> Result<(usize, usize, RecordLoc, Option<QuantizedBlob>), StorageError> {
        let Some((file, slot, loc)) = self.slot(key) else {
            return Err(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() });
        };
        Ok((file, slot, loc, self.index.lock().slots[slot].upgrade()))
    }

    /// Appends one shard record to `records`: one positional read on the
    /// cached handle of layer file `file`. The buffer grows by the record
    /// exactly, never beyond.
    fn read_record(
        &self,
        key: ShardKey,
        file: usize,
        loc: RecordLoc,
        records: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        let handle = &self.files[file];
        let fd = match handle.get() {
            Some(fd) => fd,
            None => {
                let name = Manifest::layer_file_name(key.id.layer, key.bitwidth);
                let opened = fs::File::open(self.dir.join(name))?;
                // Two first readers may both open; one handle is kept.
                handle.get_or_init(|| opened)
            }
        };
        let at = records.len();
        records.reserve_exact(loc.len as usize);
        records.resize(at + loc.len as usize, 0);
        fd.read_exact_at(&mut records[at..], loc.offset)?;
        Ok(())
    }

    /// Payload bytes of the shards whose payload some holder still has —
    /// everything decoded from this store that is alive in the process,
    /// whoever holds it (caches, preload buffers, layers in flight), each
    /// payload counted once. O(keys), read-only: a dead slot is skipped,
    /// not swept.
    pub fn live_payload_bytes(&self) -> u64 {
        let index = self.index.lock();
        index.slots.iter().filter_map(WeakBlob::upgrade).map(|blob| blob.byte_size() as u64).sum()
    }

    /// Loads several shards of *one layer*, in request order, as
    /// [`ShardSource::load`] does each.
    ///
    /// `slices` pairs each slice index with its requested bitwidth.
    ///
    /// # Errors
    ///
    /// Fails if any shard is missing, unreadable or corrupt.
    pub fn read_layer(
        &self,
        layer: u16,
        slices: &[(u16, Bitwidth)],
    ) -> Result<Vec<QuantizedBlob>, StorageError> {
        slices
            .iter()
            .map(|&(slice, bw)| self.load(ShardKey::new(ShardId::new(layer, slice), bw)))
            .collect()
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

impl Drop for ShardStore {
    fn drop(&mut self) {
        // Nothing to report to: a directory that cannot be removed is left.
        if self.temporary {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

impl ShardSource for ShardStore {
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
        let (file, slot, loc, live) = self.locate_live(key)?;
        if let Some(live) = live {
            return Ok(live);
        }
        // Read and decode outside the lock: a miss never stalls a lookup.
        let mut record = Vec::new();
        self.read_record(key, file, loc, &mut record)?;
        let blob = format::decode_blob(&record)?.0;
        Ok(self.index.lock().publish(slot, blob))
    }

    /// Publishes nothing: the caller drops the record with its layer.
    fn load_deferred(
        &self,
        key: ShardKey,
        records: &mut Vec<u8>,
    ) -> Result<Option<QuantizedBlob>, StorageError> {
        let (file, _, loc, live) = self.locate_live(key)?;
        if live.is_some() {
            return Ok(live);
        }
        let at = records.len();
        self.read_record(key, file, loc, records)?;
        format::decode_view(&records[at..])?;
        Ok(None)
    }

    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
        let loc = self
            .manifest
            .locate(key.id, key.bitwidth)
            .ok_or(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() })?;
        (loc.len as u64)
            .checked_sub(format::RECORD_OVERHEAD as u64)
            .ok_or_else(|| StorageError::corrupt("manifest", "record shorter than its framing"))
    }
}

/// A model's full-fidelity weights read back from the store: a shard's
/// [`Bitwidth::Full`] record holds its flat weight group as raw `f32`s, so
/// the weights [`ShardStore::create`] was given come back bit for bit. This
/// is what a `TaskContext`'s teacher reads once its store is written,
/// instead of regenerating each shard from its seeds (about 11 µs a read
/// against 180 µs at `scaled_bert()`). A read is one record read into the
/// scratch's record buffer, decoded in place half by half into `out`
/// through its `[Q | K | V]` staging (a payload a live holder has is used
/// instead, and nothing is published). In a scratch from
/// [`read_scratch`](ShardWeightSource::read_scratch) it allocates nothing.
impl ShardWeightSource for ShardStore {
    /// # Panics
    ///
    /// Panics if the store holds no full-fidelity version of `id` or its
    /// record cannot be read or decoded, with a message that names the
    /// shard and the error; or if the record's weight count is not `out`'s.
    fn read_shard(&self, id: ShardId, out: &mut ShardWeights, scratch: &mut ReadScratch) {
        let key = ShardKey::new(id, Bitwidth::Full);
        let ReadScratch { record, staging } = scratch;
        record.clear();
        let live = self.load_deferred(key, record).unwrap_or_else(|e| {
            panic!(
                "cannot read the full-fidelity weights of {id:?} from {}: {e}",
                self.dir.display()
            )
        });
        let view = match &live {
            Some(blob) => blob.view(),
            None => format::verified_view(record),
        };
        assert_eq!(view.len(), out.param_count(), "{id:?}'s record has the wrong length");
        staging.resize(out.qkv.len(), 0.0);
        let decode = |at, seg: &mut [f32]| view.dequantize_range_into(at, seg);
        out.read_attention_with(staging, decode);
        out.read_ffn_with(decode);
    }

    /// Room for the longest full-fidelity record and one shard's Q, K and
    /// V: 18 028 B at `scaled_bert()`.
    fn read_scratch(&self) -> ReadScratch {
        let cfg = &self.manifest.config;
        let full = cfg.shard_ids().filter_map(|id| self.manifest.locate(id, Bitwidth::Full));
        let record = full.map(|loc| loc.len as usize).max().unwrap_or(0);
        let staging = vec![0.0; cfg.hidden * 3 * cfg.head_dim()];
        ReadScratch { record: Vec::with_capacity(record), staging }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_transformer::ModelConfig;

    const BITWIDTHS: [Bitwidth; 3] = [Bitwidth::B2, Bitwidth::B6, Bitwidth::Full];

    /// A directory the test names, for the tests of `create` and `open` at
    /// a chosen path; every other test streams from a temporary store.
    fn chosen_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sti-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_store() -> (ShardStore, Model) {
        let model = Model::synthetic(3, ModelConfig::tiny());
        let store = ShardStore::create_temp(&model, &BITWIDTHS, &QuantConfig::default()).unwrap();
        (store, model)
    }

    #[test]
    fn create_then_open_round_trips_manifest() {
        let model = Model::synthetic(3, ModelConfig::tiny());
        let dir = chosen_dir("open");
        let store = ShardStore::create(&dir, &model, &BITWIDTHS, &QuantConfig::default()).unwrap();
        let reopened = ShardStore::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), store.manifest());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let model = Model::synthetic(3, ModelConfig::tiny());
        let dir = chosen_dir("overwrite");
        let _store = ShardStore::create(&dir, &model, &BITWIDTHS, &QuantConfig::default()).unwrap();
        let err =
            ShardStore::create(&dir, &model, &[Bitwidth::B2], &QuantConfig::default()).unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
        fs::remove_dir_all(dir).unwrap();
    }

    /// A temporary store's directory is its own: two stores are apart,
    /// both named `sti-ctx-<pid>-<n>` under the temp dir, and each
    /// directory goes when its store's last handle drops, not before. A
    /// store opened over it leaves it where it is.
    #[test]
    fn a_temporary_store_removes_its_directory_when_its_last_handle_drops() {
        let ((a, _), (b, _)) = (tiny_store(), tiny_store());
        assert_ne!(a.dir(), b.dir());
        for store in [&a, &b] {
            let name = store.dir().file_name().unwrap().to_str().unwrap();
            assert!(name.starts_with(&format!("sti-ctx-{}-", std::process::id())), "{name}");
            assert!(store.dir().starts_with(std::env::temp_dir()));
        }
        drop(ShardStore::open(b.dir()).unwrap());
        assert!(
            b.dir().join(ShardStore::MANIFEST_FILE).exists(),
            "an opened store removes nothing"
        );
        let dir = a.dir().to_path_buf();
        let a = std::sync::Arc::new(a);
        let handle = a.clone();
        drop(a);
        let key = ShardKey::new(ShardId::new(1, 0), Bitwidth::B6);
        assert!(handle.load(key).is_ok(), "a live handle still reads the store");
        drop(handle);
        assert!(!dir.exists(), "{} outlived its store", dir.display());
    }

    #[test]
    fn full_fidelity_round_trips_weights_exactly() {
        let (store, model) = tiny_store();
        let id = ShardId::new(1, 2);
        let blob = store.load(ShardKey::new(id, Bitwidth::Full)).unwrap();
        let mut shard = ShardWeights::zeros(model.config());
        model.read_shard(id, &mut shard, &mut model.read_scratch());
        assert_eq!(blob.dequantize(), shard.flatten());
    }

    /// A model re-pointed at the store reads every shard back bit for bit,
    /// and publishes nothing in the payload index while it does.
    #[test]
    fn a_model_over_the_store_reads_the_weights_it_was_written_from() {
        let (store, model) = tiny_store();
        let store = std::sync::Arc::new(store);
        let over_store = model.with_shard_source(store.clone());
        let bits = |shard: &ShardWeights| -> Vec<u32> {
            shard.flatten().into_iter().map(f32::to_bits).collect()
        };
        let (mut want, mut got) =
            (ShardWeights::zeros(model.config()), ShardWeights::zeros(model.config()));
        for id in model.config().shard_ids() {
            model.read_shard(id, &mut want, &mut model.read_scratch());
            over_store.read_shard(id, &mut got, &mut over_store.read_scratch());
            assert_eq!(bits(&got), bits(&want), "{id:?}");
        }
        assert_eq!(store.live_payload_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot read the full-fidelity weights of")]
    fn a_store_without_full_fidelity_records_cannot_be_a_weight_source() {
        let model = Model::synthetic(3, ModelConfig::tiny());
        let store = ShardStore::create_temp(&model, &[Bitwidth::B2], &QuantConfig::default());
        let store = store.unwrap();
        let (mut slot, mut read) = (ShardWeights::zeros(model.config()), store.read_scratch());
        store.read_shard(ShardId::new(0, 0), &mut slot, &mut read);
    }

    #[test]
    fn read_layer_mixes_bitwidths() {
        let (store, _) = tiny_store();
        let blobs = store
            .read_layer(0, &[(0, Bitwidth::B2), (1, Bitwidth::B6), (2, Bitwidth::Full)])
            .unwrap();
        assert_eq!(blobs.len(), 3);
        assert_eq!(blobs[0].bitwidth(), Bitwidth::B2);
        assert_eq!(blobs[1].bitwidth(), Bitwidth::B6);
        assert_eq!(blobs[2].bitwidth(), Bitwidth::Full);
    }

    #[test]
    fn missing_shard_is_reported() {
        let (store, _) = tiny_store();
        let err = store.load(ShardKey::new(ShardId::new(0, 0), Bitwidth::B4)).unwrap_err();
        assert!(matches!(err, StorageError::MissingShard { .. }));
    }

    #[test]
    fn corrupt_record_is_detected() {
        let (store, _) = tiny_store();
        let dir = store.dir();
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
    }

    #[test]
    fn storage_accounting_orders_bitwidths() {
        let (store, _) = tiny_store();
        let by_bw = store.stored_bytes_by_bitwidth();
        assert!(by_bw[&Bitwidth::B2] < by_bw[&Bitwidth::B6]);
        assert!(by_bw[&Bitwidth::B6] < by_bw[&Bitwidth::Full]);
        assert_eq!(store.total_bytes(), by_bw.values().sum::<u64>());
    }

    #[test]
    fn size_bytes_is_the_payload_and_the_manifest_counts_the_framing() {
        let (store, model) = tiny_store();
        let mut payload = 0u64;
        for id in model.config().shard_ids() {
            let key = ShardKey::new(id, Bitwidth::B6);
            let blob = store.load(key).unwrap();
            assert_eq!(store.size_bytes(key).unwrap(), blob.byte_size() as u64);
            let loc = store.manifest().locate(id, Bitwidth::B6).unwrap();
            assert_eq!(loc.len as usize, blob.byte_size() + format::RECORD_OVERHEAD);
            payload += blob.byte_size() as u64;
        }
        let framing = (model.config().total_shards() * format::RECORD_OVERHEAD) as u64;
        assert_eq!(store.manifest().bytes_at(Bitwidth::B6), payload + framing);
    }

    #[test]
    fn load_and_size_bytes_answer_for_one_key_set() {
        let (store, model) = tiny_store();
        let cfg = model.config();
        let missing = |key: ShardKey| {
            let is_missing = |r: Result<(), StorageError>| {
                matches!(r, Err(StorageError::MissingShard { id, bits })
                    if id == key.id && bits == key.bitwidth.bits())
            };
            is_missing(store.load(key).map(drop)) && is_missing(store.size_bytes(key).map(drop))
        };
        for id in cfg.shard_ids() {
            for bw in Bitwidth::ALL {
                let key = ShardKey::new(id, bw);
                if store.manifest().bitwidths.contains(&bw) {
                    let blob = store.load(key).unwrap();
                    assert_eq!(store.size_bytes(key).unwrap(), blob.byte_size() as u64);
                } else {
                    assert!(missing(key), "{key:?} has an undeclared bitwidth");
                }
            }
        }
        let (layers, heads) = (cfg.layers as u16, cfg.heads as u16);
        for id in [ShardId::new(layers, 0), ShardId::new(0, heads), ShardId::new(layers, heads)] {
            for &bw in &store.manifest().bitwidths {
                assert!(missing(ShardKey::new(id, bw)), "{id:?} is outside the model shape");
            }
        }
    }

    #[test]
    fn layer_files_are_opened_once_and_read_from_many_threads() {
        let (store, model) = tiny_store();
        let dir = store.dir();
        let key = ShardKey::new(ShardId::new(1, 3), Bitwidth::B2);
        let first = store.load(key).unwrap();
        // The handle outlives the name: a second open would fail here.
        fs::remove_file(dir.join(Manifest::layer_file_name(1, Bitwidth::B2))).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for slice in 0..model.config().heads as u16 {
                        let k = ShardKey::new(ShardId::new(1, slice), Bitwidth::B2);
                        assert!(store.load(k).is_ok());
                    }
                    assert_eq!(store.load(key).unwrap(), first);
                });
            }
        });
        assert_eq!(store.read_layer(1, &[(3, Bitwidth::B2)]).unwrap(), vec![first]);
    }

    #[test]
    fn a_load_returns_the_payload_a_live_handle_has_and_reads_again_once_none_does() {
        let (store, _) = tiny_store();
        let dir = store.dir();
        let key = ShardKey::new(ShardId::new(1, 2), Bitwidth::B6);
        let held = store.load(key).unwrap();
        assert!(store.load(key).unwrap().same_payload(&held));
        // Empty the layer file under the open handle: only a read sees it.
        let path = dir.join(Manifest::layer_file_name(1, Bitwidth::B6));
        fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
        assert!(store.load(key).unwrap().same_payload(&held));
        drop(held);
        let err = store.load(key).unwrap_err();
        assert!(
            matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "a load with no live handle reads the record: {err}"
        );
    }

    #[test]
    fn live_payload_bytes_counts_what_holders_keep_and_nothing_once_they_drop() {
        let (store, _) = tiny_store();
        assert_eq!(store.live_payload_bytes(), 0, "a fresh store holds nothing");
        let (a, b) = (
            ShardKey::new(ShardId::new(0, 1), Bitwidth::B6),
            ShardKey::new(ShardId::new(1, 0), Bitwidth::Full),
        );
        let held_a = store.load(a).unwrap();
        let held_b = store.load(b).unwrap();
        let held_a_bytes = held_a.byte_size();
        let both = (held_a.byte_size() + held_b.byte_size()) as u64;
        assert_eq!(store.live_payload_bytes(), both);
        // A second handle to one payload counts it once.
        let again = store.load(a).unwrap();
        assert_eq!(store.live_payload_bytes(), both);
        drop((held_a, again));
        assert_eq!(store.live_payload_bytes(), held_b.byte_size() as u64);
        // A deferred load publishes nothing: it appends the record for its
        // caller to decode in place.
        let mut records = vec![7u8];
        assert!(store.load_deferred(a, &mut records).unwrap().is_none());
        assert_eq!(records.len(), 1 + held_a_bytes + format::RECORD_OVERHEAD);
        assert_eq!(store.live_payload_bytes(), held_b.byte_size() as u64);
        let in_place = QuantizedBlob::from(format::verified_view(&records[1..]));
        assert_eq!(in_place, store.load(a).unwrap());
        // It still hands back a payload a holder has instead of reading.
        let read = records.len();
        let shared = store.load_deferred(b, &mut records).unwrap().expect("b is live");
        assert!(shared.same_payload(&held_b));
        assert_eq!(records.len(), read, "nothing is read for a live payload");
        drop((held_b, shared));
        assert_eq!(store.live_payload_bytes(), 0);
        // Re-read: a fresh load is live again.
        let reread = store.load(b).unwrap();
        assert_eq!(store.live_payload_bytes(), reread.byte_size() as u64);
    }

    #[test]
    fn ten_thousand_load_and_drop_cycles_keep_the_index_within_its_sized_capacity() {
        let (store, model) = tiny_store();
        let keys: Vec<ShardKey> = model
            .config()
            .shard_ids()
            .flat_map(|id| store.manifest().bitwidths.iter().map(move |&bw| ShardKey::new(id, bw)))
            .collect();
        let mut slots: Vec<usize> = keys.iter().map(|&key| store.slot(key).unwrap().1).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..keys.len()).collect::<Vec<_>>(), "one slot per key");
        assert_eq!(store.index.lock().slots.capacity(), keys.len());
        for &key in keys.iter().cycle().take(10_000) {
            drop(store.load(key).unwrap());
        }
        let index = store.index.lock();
        assert_eq!(index.slots.capacity(), keys.len(), "the index never grows past its sizing");
        assert!(index.slots.iter().all(|weak| weak.upgrade().is_none()));
        drop(index);
    }
}
