//! Quantized weight groups (shards).

use crate::bitpack;
use crate::bitwidth::Bitwidth;
use crate::centroid::CentroidDictionary;
use crate::error::QuantError;
use crate::gaussian::GaussianFit;
use std::sync::{Arc, Weak};

/// Parameters of the quantization process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Log-likelihood threshold below which a weight is an outlier and kept
    /// in FP32. The paper uses `-4.0` following GOBO.
    pub outlier_log_likelihood: f32,
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self { outlier_log_likelihood: -4.0 }
    }
}

/// A weight group compressed with Gaussian outlier-aware dictionary
/// quantization — the on-disk and in-preload-buffer representation of one
/// shard fidelity version.
///
/// For [`Bitwidth::Full`] the group is stored as raw little-endian `f32`
/// bytes with no dictionary; for compressed bitwidths it stores packed
/// `k`-bit centroid indexes, the `2^k` FP32 centroids, and the FP32 outlier
/// table `(offset, value)`.
///
/// **One representation.** A blob is its shard record's *body*, byte for
/// byte what a record holds between its version byte and its checksum:
///
/// ```text
/// bits    u8    bitwidth (2..6 or 32)
/// len     u32   weight count
/// plen    u32   packed payload bytes
/// ccount  u16   centroid count
/// ocount  u32   outlier count
/// packed  [u8; plen]
/// centroids [f32; ccount]
/// outliers  [(u32, f32); ocount]
/// ```
///
/// all little-endian. [`CodedView`] is the one parser and decoder of those
/// bytes, whether a blob holds them ([`view`](Self::view)) or a record
/// buffer does.
///
/// **Ownership:** one writer at construction, then shared and immutable.
/// The body sits behind a reference count and nothing can reach it
/// mutably, so `clone()` is a handle to the same bytes — a store, the shard
/// cache, a staging pool, a preload buffer and an in-flight layer all hold
/// one copy between them — and `==` compares contents, never pointers
/// ([`same_payload`](Self::same_payload) compares pointers).
/// [`downgrade`](Self::downgrade) gives a [`WeakBlob`] that finds the body
/// while any handle is alive and keeps none of its bytes: the on-disk store
/// indexes what it has decoded that way, so every reader of one store shares
/// the copy a live holder has.
///
/// ```
/// use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
///
/// let weights: Vec<f32> = (0..128).map(|i| ((i * 37) % 97) as f32 / 97.0 - 0.5).collect();
/// let blob = QuantizedBlob::quantize(&weights, Bitwidth::B6, &QuantConfig::default());
/// assert!(blob.byte_size() < weights.len() * 4);
/// assert_eq!(blob.dequantize().len(), weights.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBlob {
    /// The body, behind a thin (8 B) handle: the bytes and the counts are
    /// two blocks.
    body: Arc<Box<[u8]>>,
}

/// A weak handle to a [`QuantizedBlob`]'s body
/// ([`QuantizedBlob::downgrade`]): it finds the body while some handle to
/// it is alive, and holds none of its bytes. The default handle finds
/// nothing and holds no allocation.
#[derive(Debug, Clone, Default)]
pub struct WeakBlob {
    body: Weak<Box<[u8]>>,
}

impl WeakBlob {
    /// A handle to the body, if some [`QuantizedBlob`] still holds it.
    pub fn upgrade(&self) -> Option<QuantizedBlob> {
        self.body.upgrade().map(|body| QuantizedBlob { body })
    }
}

/// Bytes of a body's header: `bits`, `len`, `plen`, `ccount`, `ocount`.
pub const BODY_HEADER: usize = 1 + 4 + 4 + 2 + 4;

/// What every compressed version of one weight group shares.
struct Population {
    is_outlier: Vec<bool>,
    /// `(offset, original value)`, ascending by offset.
    outliers: Vec<(u32, f32)>,
    /// The dictionary population in ascending order.
    sorted: Vec<f32>,
}

impl Population {
    fn of(weights: &[f32], outlier_log_likelihood: f32) -> Self {
        let fit = GaussianFit::fit(weights);
        let outliers: Vec<(u32, f32)> = fit
            .outlier_indexes(weights, outlier_log_likelihood)
            .into_iter()
            .map(|i| (i, weights[i as usize]))
            .collect();
        let mut is_outlier = vec![false; weights.len()];
        for &(i, _) in &outliers {
            is_outlier[i as usize] = true;
        }
        // If everything is an outlier (degenerate), fall back to using all
        // weights as the dictionary population.
        let mut sorted: Vec<f32> = if outliers.len() == weights.len() {
            weights.to_vec()
        } else {
            weights.iter().zip(&is_outlier).filter(|(_, &o)| !o).map(|(&w, _)| w).collect()
        };
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("weights must not be NaN"));
        Self { is_outlier, outliers, sorted }
    }
}

/// Writes a body: the header, then `plen` packed bytes that `pack` writes
/// into zeroed room, then the centroids and the outliers, into a buffer of
/// exactly its size.
fn write_body(
    bitwidth: Bitwidth,
    len: u32,
    plen: usize,
    pack: impl FnOnce(&mut [u8]),
    centroids: &[f32],
    outliers: &[(u32, f32)],
) -> QuantizedBlob {
    let mut body =
        Vec::with_capacity(BODY_HEADER + plen + centroids.len() * 4 + outliers.len() * 8);
    body.push(bitwidth.bits());
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(&(plen as u32).to_le_bytes());
    body.extend_from_slice(&(centroids.len() as u16).to_le_bytes());
    body.extend_from_slice(&(outliers.len() as u32).to_le_bytes());
    body.resize(BODY_HEADER + plen, 0);
    pack(&mut body[BODY_HEADER..]);
    for c in centroids {
        body.extend_from_slice(&c.to_le_bytes());
    }
    for &(offset, value) in outliers {
        body.extend_from_slice(&offset.to_le_bytes());
        body.extend_from_slice(&value.to_le_bytes());
    }
    QuantizedBlob { body: Arc::new(body.into_boxed_slice()) }
}

impl QuantizedBlob {
    /// Quantizes `weights` to the requested bitwidth.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn quantize(weights: &[f32], bitwidth: Bitwidth, config: &QuantConfig) -> Self {
        Self::quantize_all(weights, &[bitwidth], config).pop().expect("one blob per bitwidth")
    }

    /// Quantizes `weights` to every one of `bitwidths`, in order, each
    /// written straight into its body. The Gaussian fit, the outlier set
    /// and the sort of the inliers depend only on the population, so they
    /// run once and each compressed bitwidth's dictionary is cut from the
    /// one sorted list.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn quantize_all(
        weights: &[f32],
        bitwidths: &[Bitwidth],
        config: &QuantConfig,
    ) -> Vec<Self> {
        assert!(!weights.is_empty(), "cannot quantize an empty weight group");
        let len = weights.len() as u32;
        let mut population = None;
        let mut blobs = Vec::with_capacity(bitwidths.len());
        for &bitwidth in bitwidths {
            let plen = bitwidth.payload_bytes(weights.len());
            if bitwidth.is_full() {
                let raw = |packed: &mut [u8]| {
                    for (bytes, w) in packed.chunks_exact_mut(4).zip(weights) {
                        bytes.copy_from_slice(&w.to_le_bytes());
                    }
                };
                blobs.push(write_body(bitwidth, len, plen, raw, &[], &[]));
                continue;
            }
            let pop = population
                .get_or_insert_with(|| Population::of(weights, config.outlier_log_likelihood));
            let dict = CentroidDictionary::from_sorted(&pop.sorted, bitwidth.centroid_count());
            // Outliers are stored as index 0 in the packed array (for bit
            // alignment, as in the paper) and patched from the table on
            // decompression.
            let indexes: Vec<u16> = weights
                .iter()
                .zip(&pop.is_outlier)
                .map(|(&w, &outlier)| if outlier { 0 } else { dict.assign(w) })
                .collect();
            let pack = |packed: &mut [u8]| bitpack::pack_into(&indexes, bitwidth.bits(), packed);
            blobs.push(write_body(bitwidth, len, plen, pack, dict.centroids(), &pop.outliers));
        }
        blobs
    }

    /// Builds a blob from parts given outside a body: the body they make,
    /// checked by [`CodedView::parse`].
    ///
    /// # Errors
    ///
    /// Returns an error if the parts are inconsistent (bad lengths, outlier
    /// offsets out of range), or too long for their header fields.
    pub fn from_parts(
        bitwidth: Bitwidth,
        len: u32,
        packed: Vec<u8>,
        centroids: Vec<f32>,
        outliers: Vec<(u32, f32)>,
    ) -> Result<Self, QuantError> {
        let pack = |room: &mut [u8]| room.copy_from_slice(&packed);
        let blob = write_body(bitwidth, len, packed.len(), pack, &centroids, &outliers);
        CodedView::parse(&blob.body)?;
        Ok(blob)
    }

    /// The blob's coded weights, read in place from its body. The body was
    /// checked when the blob was built, so it is not checked again.
    pub fn view(&self) -> CodedView<'_> {
        CodedView::verified(&self.body)
    }

    /// Whether `self` and `other` are handles to one body: the pointer
    /// comparison the sharing pins make (`==` compares contents).
    pub fn same_payload(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Decompresses into a freshly allocated vector.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// Decompresses into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "dequantize buffer length mismatch");
        self.dequantize_range_into(0, out);
    }

    /// Decompresses weights `[start, start + out.len())` of the group into
    /// `out`, through its [`view`](Self::view)
    /// ([`CodedView::dequantize_range_into`]).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the group.
    pub fn dequantize_range_into(&self, start: usize, out: &mut [f32]) {
        self.view().dequantize_range_into(start, out);
    }

    /// A weak handle to this blob's body (see [`WeakBlob`]).
    pub fn downgrade(&self) -> WeakBlob {
        WeakBlob { body: Arc::downgrade(&self.body) }
    }

    /// The blob's bitwidth.
    pub fn bitwidth(&self) -> Bitwidth {
        self.view().bitwidth()
    }

    /// Number of weights in the group.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether the group is empty (never true for valid blobs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes: packed indexes plus the centroid dictionary
    /// plus the outlier table, the body less its header. This is the
    /// quantity the flash model charges IO for and the preload buffer
    /// counts against its capacity.
    pub fn byte_size(&self) -> usize {
        self.body.len() - BODY_HEADER
    }
}

/// A blob of its own: one copy of the view's body.
impl From<CodedView<'_>> for QuantizedBlob {
    fn from(view: CodedView<'_>) -> Self {
        Self { body: Arc::new(view.body.into()) }
    }
}

/// The largest centroid dictionary, at [`Bitwidth::B6`].
const MAX_CENTROIDS: usize = 64;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a 4-byte slice"))
}

fn f32_le(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("a 4-byte slice"))
}

/// A coded weight group read in place from its body (laid out as
/// [`QuantizedBlob`] documents): the one parser and the one decoder of
/// coded weights. A blob decodes through a view of its own body, and a
/// deferred shard through a view of its record, from the record buffer
/// straight into the working buffer's slot, with nothing copied out.
#[derive(Debug, Clone, Copy)]
pub struct CodedView<'a> {
    bitwidth: Bitwidth,
    len: u32,
    body: &'a [u8],
    packed: &'a [u8],
    centroids: &'a [u8],
    outliers: &'a [u8],
}

impl<'a> CodedView<'a> {
    /// The length the header at the front of `bytes` declares for its body
    /// (`None` if `bytes` is shorter than a header): where a record's body
    /// ends, read before anything in it is trusted.
    pub fn declared_len(bytes: &[u8]) -> Option<u64> {
        let header = bytes.get(..BODY_HEADER)?;
        let plen = u32_at(header, 5) as u64;
        let ccount = u16::from_le_bytes([header[9], header[10]]) as u64;
        let ocount = u32_at(header, 11) as u64;
        Some(BODY_HEADER as u64 + plen + ccount * 4 + ocount * 8)
    }

    /// A view of `body`, checked: its header declares its length and a
    /// known bitwidth, the group is not empty, the packed bytes are what
    /// the bitwidth needs (or more, when compressed), there is one centroid
    /// per code, and every outlier is inside the group.
    ///
    /// # Errors
    ///
    /// [`QuantError::MalformedBody`], [`QuantError::UnsupportedBitwidth`],
    /// [`QuantError::EmptyInput`], [`QuantError::IndexOutOfRange`] (the
    /// packed bytes, then the centroid count) or
    /// [`QuantError::OutlierOffsetOutOfRange`], the first that applies.
    pub fn parse(body: &'a [u8]) -> Result<Self, QuantError> {
        let view = Self::split(body)?;
        let (bitwidth, len, packed) = (view.bitwidth, view.len(), view.packed.len());
        if len == 0 {
            return Err(QuantError::EmptyInput);
        }
        let needed = bitwidth.payload_bytes(len);
        if packed < needed || (bitwidth.is_full() && packed != needed) {
            return Err(QuantError::IndexOutOfRange { index: packed, dictionary: needed });
        }
        let (codes, dictionary) = (view.centroids().len(), 1 << bitwidth.bits());
        if !bitwidth.is_full() && codes != dictionary {
            return Err(QuantError::IndexOutOfRange { index: codes, dictionary });
        }
        match view.outliers().find(|&(offset, _)| offset as usize >= len) {
            Some((offset, _)) => {
                Err(QuantError::OutlierOffsetOutOfRange { offset: offset as usize, len })
            }
            None => Ok(view),
        }
    }

    /// A view of a body that was checked already — a blob's own, or a
    /// verified record's — read without checking its parts again.
    ///
    /// # Panics
    ///
    /// Panics if `body` is not a whole body of a known bitwidth.
    pub fn verified(body: &'a [u8]) -> Self {
        Self::split(body).expect("a body that was checked when it was built or read")
    }

    /// The parts `body`'s header lays out.
    fn split(body: &'a [u8]) -> Result<Self, QuantError> {
        if Self::declared_len(body) != Some(body.len() as u64) {
            return Err(QuantError::MalformedBody);
        }
        let bitwidth = Bitwidth::try_from(body[0])?;
        let len = u32_at(body, 1);
        let (plen, ccount) = (u32_at(body, 5) as usize, u16::from_le_bytes([body[9], body[10]]));
        let (packed, tables) = body[BODY_HEADER..].split_at(plen);
        let (centroids, outliers) = tables.split_at(ccount as usize * 4);
        Ok(Self { bitwidth, len, body, packed, centroids, outliers })
    }

    /// The group's bitwidth.
    pub fn bitwidth(&self) -> Bitwidth {
        self.bitwidth
    }

    /// Number of weights in the group.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the group is empty (never true for a checked view).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole body, header included.
    pub fn body(&self) -> &'a [u8] {
        self.body
    }

    /// Packed index bytes (raw `f32` bytes at full fidelity).
    pub fn packed(&self) -> &'a [u8] {
        self.packed
    }

    /// The centroid dictionary, in order (none at full fidelity).
    pub fn centroids(&self) -> impl ExactSizeIterator<Item = f32> + 'a {
        self.centroids.chunks_exact(4).map(f32_le)
    }

    /// The outlier table's `(offset, value)` entries, in order.
    pub fn outliers(&self) -> impl ExactSizeIterator<Item = (u32, f32)> + 'a {
        let entries = self.outliers.chunks_exact(8);
        entries.map(|e| (u32_at(e, 0), f32_le(&e[4..])))
    }

    /// Decodes weights `[start, start + out.len())` of the group into
    /// `out`: raw little-endian `f32`s at full fidelity; otherwise packed
    /// indexes straight to centroids ([`bitpack::unpack_lookup_into`], with
    /// the centroid table read onto the stack and no index buffer in
    /// between), then the outliers that fall in the range patched.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the group.
    pub fn dequantize_range_into(&self, start: usize, out: &mut [f32]) {
        assert!(start + out.len() <= self.len(), "dequantize range out of bounds");
        if self.bitwidth.is_full() {
            let raw = self.packed[start * 4..].chunks_exact(4);
            for (slot, bytes) in out.iter_mut().zip(raw) {
                *slot = f32_le(bytes);
            }
            return;
        }
        // One per code (checked when the body was), at most MAX_CENTROIDS.
        let mut table = [0.0f32; MAX_CENTROIDS];
        let codes = self.centroids().len().min(MAX_CENTROIDS);
        for (slot, centroid) in table.iter_mut().zip(self.centroids()) {
            *slot = centroid;
        }
        bitpack::unpack_lookup_into(self.packed, self.bitwidth.bits(), start, &table[..codes], out);
        for (offset, value) in self.outliers() {
            if let Some(slot) = out.get_mut((offset as usize).wrapping_sub(start)) {
                *slot = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_tensor::{stats, Rng};

    fn gaussian_weights(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let mut xs = vec![0.0f32; n];
        rng.fill_gaussian(&mut xs, 0.0, 0.12);
        // Plant a few outliers like real transformer weight matrices have.
        xs[n / 3] = 1.4;
        xs[n / 2] = -1.2;
        xs
    }

    #[test]
    fn full_fidelity_round_trips_exactly() {
        let weights = gaussian_weights(1, 512);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::Full, &QuantConfig::default());
        assert_eq!(blob.dequantize(), weights);
        assert_eq!(blob.byte_size(), 512 * 4);
    }

    #[test]
    fn outliers_preserved_exactly_at_any_bitwidth() {
        let weights = gaussian_weights(2, 900);
        for bw in Bitwidth::COMPRESSED {
            let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
            let restored = blob.dequantize();
            assert_eq!(restored[300], 1.4, "outlier lost at {bw}");
            assert_eq!(restored[450], -1.2, "outlier lost at {bw}");
        }
    }

    #[test]
    fn reconstruction_error_decreases_with_bitwidth() {
        let weights = gaussian_weights(3, 4096);
        let mut prev = f32::INFINITY;
        for bw in Bitwidth::ALL {
            let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
            let err = stats::mse(&weights, &blob.dequantize());
            assert!(err <= prev, "mse grew from {prev} to {err} at {bw}");
            prev = err;
        }
        assert_eq!(prev, 0.0, "full fidelity must be lossless");
    }

    #[test]
    fn compressed_size_shrinks_with_fewer_bits() {
        let weights = gaussian_weights(4, 4096);
        let mut prev = usize::MAX;
        for bw in [Bitwidth::B6, Bitwidth::B5, Bitwidth::B4, Bitwidth::B3, Bitwidth::B2] {
            let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
            assert!(blob.byte_size() < prev, "size did not shrink at {bw}");
            prev = blob.byte_size();
        }
        // 2-bit should be roughly 16x smaller than fp32 (modulo dictionary
        // and outlier overhead).
        assert!(prev < 4096 * 4 / 10, "2-bit blob too large: {prev}");
    }

    #[test]
    fn outlier_fraction_is_small_on_gaussian_weights() {
        let weights = gaussian_weights(5, 8192);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B3, &QuantConfig::default());
        let fraction = blob.view().outliers().len() as f64 / blob.len() as f64;
        assert!(fraction < 0.02, "fraction {fraction}");
        assert!(fraction > 0.0, "planted outliers should be detected");
    }

    #[test]
    fn mean_is_approximately_preserved() {
        // Lossy compression must preserve the weight distribution (paper
        // argues this is why mixed-bitwidth shards compose).
        let weights = gaussian_weights(6, 8192);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B2, &QuantConfig::default());
        let restored = blob.dequantize();
        assert!((stats::mean(&weights) - stats::mean(&restored)).abs() < 5e-3);
        assert!((stats::std_dev(&weights) - stats::std_dev(&restored)).abs() < 2e-2);
    }

    #[test]
    fn from_parts_validates_consistency() {
        let weights = gaussian_weights(7, 64);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B4, &QuantConfig::default());
        let view = blob.view();
        let (packed, centroids) = (view.packed().to_vec(), view.centroids().collect::<Vec<_>>());
        let ok = QuantizedBlob::from_parts(
            blob.bitwidth(),
            blob.len() as u32,
            packed.clone(),
            centroids.clone(),
            view.outliers().collect(),
        );
        assert_eq!(ok.unwrap(), blob);

        assert!(QuantizedBlob::from_parts(Bitwidth::B4, 0, vec![], vec![], vec![]).is_err());
        assert!(
            QuantizedBlob::from_parts(Bitwidth::B4, 64, vec![0; 2], vec![0.0; 16], vec![]).is_err()
        );
        assert!(QuantizedBlob::from_parts(Bitwidth::B4, 64, packed, centroids, vec![(64, 1.0)])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantize_rejects_empty_input() {
        let _ = QuantizedBlob::quantize(&[], Bitwidth::B2, &QuantConfig::default());
    }

    #[test]
    fn dequantize_into_matches_dequantize() {
        let weights = gaussian_weights(8, 300);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B5, &QuantConfig::default());
        let mut buf = vec![0.0f32; 300];
        blob.dequantize_into(&mut buf);
        assert_eq!(buf, blob.dequantize());
    }

    /// A view over a copy of a blob's body, as a record buffer holds it,
    /// decodes every range to the blob's bits, and copies back out to the
    /// blob.
    #[test]
    fn a_view_over_a_copy_of_the_body_decodes_the_blobs_bits() {
        let weights = gaussian_weights(10, 333);
        for blob in QuantizedBlob::quantize_all(&weights, &Bitwidth::ALL, &QuantConfig::default()) {
            let body = blob.view().body().to_vec();
            let view = CodedView::parse(&body).unwrap();
            let bw = blob.bitwidth();
            assert_eq!((view.len(), view.bitwidth()), (blob.len(), bw));
            assert!(bw.is_full() || view.outliers().len() > 0, "{bw}: outliers are patched");
            for (start, end) in [(0, 333), (0, 1), (100, 101), (7, 300), (299, 333), (333, 333)] {
                let (mut want, mut got) = (vec![0.0f32; end - start], vec![1.0f32; end - start]);
                blob.dequantize_range_into(start, &mut want);
                view.dequantize_range_into(start, &mut got);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{bw} [{start}, {end})");
            }
            let copy = QuantizedBlob::from(view);
            assert_eq!(copy, blob, "{bw}");
            assert!(!copy.same_payload(&blob), "{bw}: a copy is a body of its own");
        }
    }

    /// A body written field by field: the header, then the parts.
    fn body_of(
        bits: u8,
        len: u32,
        packed: &[u8],
        centroids: &[f32],
        outliers: &[(u32, f32)],
    ) -> Vec<u8> {
        let mut body = vec![bits];
        body.extend_from_slice(&len.to_le_bytes());
        body.extend_from_slice(&(packed.len() as u32).to_le_bytes());
        body.extend_from_slice(&(centroids.len() as u16).to_le_bytes());
        body.extend_from_slice(&(outliers.len() as u32).to_le_bytes());
        body.extend_from_slice(packed);
        body.extend(centroids.iter().flat_map(|c| c.to_le_bytes()));
        body.extend(
            outliers.iter().flat_map(|&(at, v)| [at.to_le_bytes(), v.to_le_bytes()].concat()),
        );
        body
    }

    #[test]
    fn parsing_checks_a_body_as_from_parts_checks_its_parts() {
        let weights = gaussian_weights(11, 64);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B4, &QuantConfig::default());
        let view = blob.view();
        let (packed, centroids) = (view.packed(), view.centroids().collect::<Vec<_>>());
        let outliers: Vec<(u32, f32)> = view.outliers().collect();
        let parse = |body: &[u8]| CodedView::parse(body).map(|_| ());
        let good = body_of(4, 64, packed, &centroids, &outliers);
        assert_eq!(good, view.body(), "the blob is its body, field by field");
        assert_eq!(parse(&good), Ok(()));
        assert_eq!(parse(&body_of(4, 0, &[], &[], &[])), Err(QuantError::EmptyInput));
        assert!(parse(&body_of(4, 64, &[0; 2], &centroids, &outliers)).is_err());
        assert!(parse(&body_of(4, 64, packed, &centroids[..15], &outliers)).is_err());
        assert_eq!(
            parse(&body_of(4, 64, packed, &centroids, &[(64, 1.0)])),
            Err(QuantError::OutlierOffsetOutOfRange { offset: 64, len: 64 })
        );
        assert_eq!(
            parse(&body_of(7, 64, packed, &centroids, &outliers)),
            Err(QuantError::UnsupportedBitwidth(7))
        );
        for cut in [0, 1, BODY_HEADER - 1, BODY_HEADER, good.len() - 1] {
            assert_eq!(parse(&good[..cut]), Err(QuantError::MalformedBody), "cut at {cut}");
        }
        assert_eq!(parse(&[&good[..], &[0]].concat()), Err(QuantError::MalformedBody));
    }

    #[test]
    fn a_weak_blob_finds_the_payload_only_while_a_handle_lives() {
        let weights = gaussian_weights(9, 64);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B3, &QuantConfig::default());
        let weak = blob.downgrade();
        let found = weak.upgrade().expect("a handle is alive");
        assert!(found.same_payload(&blob));
        drop((blob, found));
        assert!(weak.upgrade().is_none());
        assert!(WeakBlob::default().upgrade().is_none());
    }
}
