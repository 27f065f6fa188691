//! The two memory buffers STI allocates (paper §3.1): the preload buffer
//! of `|S|` bytes a plan keeps resident, and the working buffer for the
//! layer in flight.
//!
//! The working buffer is also where a streamed layer's *deferred* shards —
//! misses the shard cache cannot keep, which the IO scheduler dispatches
//! and charges but, outside a batch, does not read
//! ([`sti_storage::loader`]) — are
//! materialised: [`WorkingBuffer::materialise`] reads their records when
//! their layer comes up, into one record buffer per engagement, and the
//! layer decodes each straight from there into its one shard slot. No
//! payload is built for them. An engagement so holds the records of one
//! streamed layer at a time beside the compute memory below.

use sti_quant::{Bitwidth, QuantizedBlob};
use sti_storage::{LoadedLayer, LoadedShard, ShardKey, ShardSource};
use sti_tensor::Matrix;
use sti_transformer::{
    ForwardScratch, LayerResident, ModelConfig, ShardId, ShardOperand, ShardWeights,
};

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

    /// Borrows a resident shard's blob.
    pub fn get(&self, id: ShardId) -> Option<&QuantizedBlob> {
        let at = self.blobs.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(&self.blobs[at].1)
    }
}

/// The working buffer (§3.1): where the executor decompresses the shards a
/// layer computes over, and computes it.
///
/// The serving path, [`WorkingBuffer::forward_layer`], holds **one shard
/// slot**, refilled in place: the layer's [`ShardOperand`] decodes shard
/// `i`'s attention half into the slot when attention reaches slice `i`, and
/// its FFN half when the FFN does, from its payload or from its record in
/// the buffer's record buffer. So the decompressed weights held at once
/// are one shard's, however wide the layer, and each weight is still
/// decoded exactly once. Beside the slot it keeps the [`ForwardScratch`]
/// every layer runs in, the staged layer's slice indexes and shards, and
/// the record buffer deferred shards are read into
/// ([`WorkingBuffer::materialise`]). All of it is built on the first layer
/// that needs it and reused by every later one, so an engagement allocates
/// nothing per layer here but for a layer wider in records than any before.
/// [`WorkingBuffer::peak_bytes`] keeps the paper's model of the buffer: the
/// widest layer's shards at FP32.
///
/// [`WorkingBuffer::assemble`] decodes a whole layer into fresh
/// [`ShardWeights`] instead, for the callers that want the decoded shards
/// themselves (the benchmark's per-layer probes, the generation path and
/// the quantisation tests).
#[derive(Debug)]
pub struct WorkingBuffer {
    cfg: ModelConfig,
    peak_shards: usize,
    /// The staged layer: each executed slice's index, and its coded shard,
    /// in execution order.
    slices: Vec<usize>,
    staged: Vec<LoadedShard>,
    /// The records of the layer's deferred shards, read by
    /// [`WorkingBuffer::materialise`]; a staged
    /// [`LoadedShard::Record`] is a range of it.
    records: Vec<u8>,
    /// The serving path's memory, built on its first layer.
    memory: Option<LayerMemory>,
}

/// The one decoded shard the serving path holds, the staging the packed
/// `[Q | K | V]` operand is decoded through, and the forward pass's scratch.
#[derive(Debug)]
struct LayerMemory {
    shard: ShardWeights,
    qkv: Box<[f32]>,
    forward: ForwardScratch,
}

/// A plan mismatch unless `count` weights are one shard of `cfg`'s.
fn check_count(cfg: &ModelConfig, count: usize) -> Result<(), PipelineError> {
    let expected = cfg.shard_param_count();
    if count == expected {
        return Ok(());
    }
    Err(PipelineError::PlanMismatch(format!(
        "blob holds {count} weights, shard expects {expected}"
    )))
}

impl WorkingBuffer {
    /// Creates a working buffer for models of shape `cfg`, with room to
    /// stage a full-width layer.
    pub fn new(cfg: ModelConfig) -> Self {
        let (slices, staged) = (Vec::with_capacity(cfg.heads), Vec::with_capacity(cfg.heads));
        Self { cfg, peak_shards: 0, slices, staged, records: Vec::new(), memory: None }
    }

    /// Reads `loaded`'s deferred shards from `source` into this buffer's one
    /// record buffer, so the layer can be computed: each becomes a
    /// [`LoadedShard::Record`] range of it, valid until the next layer is
    /// materialised ([`LoadedLayer::materialise`]).
    ///
    /// # Errors
    ///
    /// Returns the first read error, as the typed storage error a read at
    /// dispatch would have raised.
    pub fn materialise(
        &mut self,
        loaded: &mut LoadedLayer,
        source: &dyn ShardSource,
    ) -> Result<(), PipelineError> {
        Ok(loaded.materialise(source, &mut self.records)?)
    }

    /// Runs one encoder layer over the hidden state `x` in place, on
    /// `shards` — each executed slice's index and its coded shard, in
    /// execution order: a payload, or a record the last
    /// [`materialise`](Self::materialise) read into this buffer — and
    /// `resident`, the layer's resident parameters; `cls_only` leaves the
    /// CLS row alone, for a layer only the classifier reads. Each shard is
    /// decoded half by half into the one slot as the layer reaches it: the
    /// same bits as decoding the layer and calling `layer_forward` over it.
    ///
    /// # Errors
    ///
    /// Returns the first error `shards` yields, or
    /// [`PipelineError::PlanMismatch`] if a shard is still deferred or its
    /// weight count disagrees with the configured shard size; either way
    /// before any compute.
    pub fn forward_layer(
        &mut self,
        x: &mut Matrix,
        shards: impl IntoIterator<Item = Result<(usize, LoadedShard), PipelineError>>,
        resident: &LayerResident,
        cls_only: bool,
    ) -> Result<(), PipelineError> {
        let staged = self.stage(shards);
        if staged.is_ok() {
            self.run_staged(x, resident, cls_only);
        }
        // The handles go with the layer, as the streamed payloads they alias do.
        self.staged.clear();
        staged
    }

    fn stage(
        &mut self,
        shards: impl IntoIterator<Item = Result<(usize, LoadedShard), PipelineError>>,
    ) -> Result<(), PipelineError> {
        self.slices.clear();
        self.staged.clear();
        for shard in shards {
            let (slice, shard) = shard?;
            self.slices.push(slice);
            self.staged.push(shard);
        }
        for (&slice, shard) in self.slices.iter().zip(&self.staged) {
            let count = shard.weight_count(&self.records).ok_or_else(|| {
                PipelineError::PlanMismatch(format!("slice {slice} was dispatched but never read"))
            })?;
            check_count(&self.cfg, count)?;
        }
        self.peak_shards = self.peak_shards.max(self.staged.len());
        Ok(())
    }

    fn run_staged(&mut self, x: &mut Matrix, resident: &LayerResident, cls_only: bool) {
        let cfg = &self.cfg;
        let memory = self.memory.get_or_insert_with(|| {
            let shard = ShardWeights::zeros(cfg);
            let qkv = vec![0.0; shard.qkv.len()].into_boxed_slice();
            LayerMemory { shard, qkv, forward: ForwardScratch::new(cfg) }
        });
        let LayerMemory { shard, qkv, forward } = memory;
        let layer = CodedLayer { shards: &self.staged, records: &self.records, shard, qkv };
        if cls_only {
            forward.layer_cls(x, layer, &self.slices, resident, cfg);
        } else {
            forward.layer(x, layer, &self.slices, resident, cfg);
        }
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
        blobs.iter().try_for_each(|blob| check_count(&self.cfg, blob.len()))?;
        self.peak_shards = self.peak_shards.max(blobs.len());
        Ok(blobs
            .iter()
            .map(|blob| {
                ShardWeights::from_flat_with(&self.cfg, |at, segment| {
                    blob.dequantize_range_into(at, segment)
                })
            })
            .collect())
    }

    /// Peak bytes of decompressed weights a layer needs, over every layer
    /// so far: the widest layer's shards at FP32 (§3.1's buffer size).
    pub fn peak_bytes(&self) -> usize {
        self.peak_shards * self.cfg.shard_fp32_bytes()
    }
}

/// One layer's coded shards as the forward pass reads them: the
/// [`ShardOperand`] that decodes slice `i`'s attention half, then its FFN
/// half, into the working buffer's one slot as the layer reaches them. The
/// halves are disjoint ranges of the flat weight group, so every weight is
/// decoded once, by [`LoadedShard::dequantize_range_into`] (from a payload,
/// or in place from a record in `records`), to the same bits a whole-shard
/// decode writes.
struct CodedLayer<'a> {
    shards: &'a [LoadedShard],
    records: &'a [u8],
    shard: &'a mut ShardWeights,
    qkv: &'a mut [f32],
}

impl ShardOperand for CodedLayer<'_> {
    fn width(&self) -> usize {
        self.shards.len()
    }

    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix) {
        let (coded, records) = (&self.shards[i], self.records);
        self.shard.read_attention_with(self.qkv, |at, out| {
            coded.dequantize_range_into(records, at, out);
        });
        (&self.shard.qkv, &self.shard.o)
    }

    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix) {
        let (coded, records) = (&self.shards[i], self.records);
        self.shard.read_ffn_with(|at, out| coded.dequantize_range_into(records, at, out));
        (&self.shard.ffn1, &self.shard.ffn2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_quant::QuantConfig;
    use sti_storage::format::encode_blob;
    use sti_storage::ShardStore;
    use sti_tensor::Rng;
    use sti_transformer::layer::{layer_forward, layer_forward_cls};
    use sti_transformer::synthetic::{synthetic_layer, synthetic_shard, GainPattern};
    use sti_transformer::Model;

    fn blob(cfg: &ModelConfig, seed: u64, bw: Bitwidth) -> QuantizedBlob {
        let shard = synthetic_shard(cfg, seed, 1.0);
        QuantizedBlob::quantize(&shard.flatten(), bw, &QuantConfig::default())
    }

    #[test]
    fn fill_tracks_bytes_and_rejects_overflow() {
        let cfg = ModelConfig::tiny();
        let store = ShardStore::create_temp(
            &Model::synthetic(1, cfg),
            &[Bitwidth::B6],
            &QuantConfig::default(),
        )
        .unwrap();
        let (a, b) = ((ShardId::new(1, 0), Bitwidth::B6), (ShardId::new(0, 1), Bitwidth::B6));
        let size = |(id, bw)| store.load(ShardKey::new(id, bw)).unwrap().byte_size() as u64;
        let buf = PreloadBuffer::fill(size(a) + 10, &[a], &store).unwrap();
        assert_eq!((buf.used_bytes(), buf.len()), (size(a), 1));
        assert!(buf.get(a.0).is_some() && buf.get(b.0).is_none());
        let err = PreloadBuffer::fill(size(a) + 10, &[a, b], &store).unwrap_err();
        let expected = PipelineError::PreloadOverflow { needed: size(b), available: 10 };
        assert_eq!(err.to_string(), expected.to_string());
    }

    #[test]
    fn lookups_find_every_entry_whatever_the_fill_order() {
        let cfg = ModelConfig::tiny();
        let store = ShardStore::create_temp(
            &Model::synthetic(2, cfg),
            &[Bitwidth::B2],
            &QuantConfig::default(),
        )
        .unwrap();
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
        let mut teacher = ShardWeights::zeros(&cfg);
        model.read_shard(id, &mut teacher, &mut model.read_scratch());
        let b =
            QuantizedBlob::quantize(&teacher.flatten(), Bitwidth::Full, &QuantConfig::default());
        let mut wb = WorkingBuffer::new(cfg.clone());
        let shards = wb.assemble(&[&b]).unwrap();
        assert_eq!(shards[0], teacher);
        assert_eq!(wb.peak_bytes(), cfg.shard_fp32_bytes());
    }

    /// `(slice, payload)` pairs as [`WorkingBuffer::forward_layer`] takes
    /// them.
    fn staged<'b>(
        idxs: &'b [usize],
        blobs: &'b [&'b QuantizedBlob],
    ) -> impl Iterator<Item = Result<(usize, LoadedShard), PipelineError>> + 'b {
        idxs.iter().zip(blobs).map(|(&slice, &blob)| Ok((slice, LoadedShard::Blob(blob.clone()))))
    }

    #[test]
    fn working_buffer_rejects_wrong_size_blobs() {
        let cfg = ModelConfig::tiny();
        let other = ModelConfig { hidden: 16, ffn: 32, ..ModelConfig::tiny() };
        let (good, bad) = (blob(&cfg, 1, Bitwidth::B2), blob(&other, 1, Bitwidth::B2));
        let resident = LayerResident::identity(&cfg);
        let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
        let mut wb = WorkingBuffer::new(cfg);
        assert!(matches!(wb.assemble(&[&good, &bad]), Err(PipelineError::PlanMismatch(_))));
        let blobs = [&good, &bad];
        let err = wb.forward_layer(&mut x, staged(&[0, 1], &blobs), &resident, false).unwrap_err();
        assert!(matches!(err, PipelineError::PlanMismatch(_)), "{err:?}");
        assert_eq!(wb.peak_bytes(), 0, "a rejected layer is not counted");
    }

    #[test]
    fn working_buffer_does_not_grow_with_layers() {
        let cfg = ModelConfig::tiny();
        let mut wb = WorkingBuffer::new(cfg.clone());
        let b = blob(&cfg, 4, Bitwidth::B4);
        let resident = LayerResident::identity(&cfg);
        let mut x = Matrix::filled(cfg.seq_len, cfg.hidden, 0.5);
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let blobs: Vec<&QuantizedBlob> = idxs.iter().map(|_| &b).collect();
        let mut slot = None;
        for _ in 0..10 {
            wb.assemble(&blobs).unwrap();
            wb.forward_layer(&mut x, staged(&idxs, &blobs), &resident, false).unwrap();
            let memory = wb.memory.as_ref().expect("built on the first layer");
            let at = memory.shard.qkv.as_slice().as_ptr();
            assert_eq!(*slot.get_or_insert(at), at, "one slot");
            assert!(wb.staged.is_empty(), "no handle outlives its layer");
        }
        assert_eq!(wb.peak_bytes(), cfg.heads * cfg.shard_fp32_bytes());
    }

    /// The coded layer against decode-then-`layer_forward`, by `to_bits`:
    /// every bitwidth, with outliers in both halves of every shard, every
    /// width from one slice to all (distinct slices, not a prefix and not in
    /// order), the full layer and its CLS row, at both shipped shapes; each
    /// shard once as a payload and once decoded in place from its record in
    /// the buffer's record buffer, as a deferred shard is.
    #[test]
    fn a_coded_layer_computes_the_decoded_layers_bits() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
            let mut rng = Rng::new(0x636f_6465);
            let layer = synthetic_layer(&cfg, &mut rng, 1, GainPattern::BottomHeavy);
            let resident = &layer.resident;
            let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
            rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
            x.row_mut(cfg.seq_len - 1).fill(0.0);
            for bw in Bitwidth::ALL {
                let blobs: Vec<QuantizedBlob> = layer
                    .shards
                    .iter()
                    .map(|shard| {
                        let mut flat = shard.flatten();
                        let last = flat.len() - 5;
                        (flat[3], flat[last]) = (2.5, -2.5);
                        let blob = QuantizedBlob::quantize(&flat, bw, &QuantConfig::default());
                        assert!(bw.is_full() || blob.outliers().len() >= 2, "{bw:?}");
                        blob
                    })
                    .collect();
                let mut wb = WorkingBuffer::new(cfg.clone());
                let mut ranges = Vec::new();
                for blob in &blobs {
                    let at = wb.records.len() as u32;
                    wb.records.extend_from_slice(&encode_blob(blob));
                    ranges.push(at..wb.records.len() as u32);
                }
                for m in 1..=cfg.heads {
                    let idxs: Vec<usize> = (0..m).map(|i| (5 * i + 1) % cfg.heads).collect();
                    let refs: Vec<&QuantizedBlob> = idxs.iter().map(|&s| &blobs[s]).collect();
                    let records = || {
                        let records = idxs.iter().map(|&s| LoadedShard::Record(ranges[s].clone()));
                        idxs.iter().copied().zip(records).map(Ok)
                    };
                    let decoded = wb.assemble(&refs).unwrap();
                    let decoded: Vec<&ShardWeights> = decoded.iter().collect();
                    let want = layer_forward(&x, &decoded, &idxs, resident, &cfg);
                    let mut got = x.clone();
                    wb.forward_layer(&mut got, staged(&idxs, &refs), resident, false).unwrap();
                    assert_eq!(bits(&got), bits(&want), "{bw:?}, width {m}, {cfg:?}");
                    let mut got = x.clone();
                    wb.forward_layer(&mut got, records(), resident, false).unwrap();
                    assert_eq!(bits(&got), bits(&want), "records, {bw:?}, width {m}, {cfg:?}");
                    let want = layer_forward_cls(&x, &decoded, &idxs, resident, &cfg);
                    let mut got = x.clone();
                    wb.forward_layer(&mut got, staged(&idxs, &refs), resident, true).unwrap();
                    assert_eq!(bits(&got), bits(&want), "CLS, {bw:?}, width {m}, {cfg:?}");
                    let mut got = x.clone();
                    wb.forward_layer(&mut got, records(), resident, true).unwrap();
                    assert_eq!(bits(&got), bits(&want), "CLS records, {bw:?}, width {m}, {cfg:?}");
                }
            }
        }
    }
}
