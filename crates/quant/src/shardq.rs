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
/// **Ownership:** one writer at construction, then shared and immutable.
/// The payload sits behind a reference count and nothing can reach it
/// mutably, so `clone()` is a handle to the same bytes — a store, the shard
/// cache, a staging pool, a preload buffer and an in-flight layer all hold
/// one copy between them — and `==` compares contents, never pointers.
/// [`downgrade`](Self::downgrade) gives a [`WeakBlob`] that finds the payload
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
    payload: Arc<Payload>,
}

/// A weak handle to a [`QuantizedBlob`]'s payload
/// ([`QuantizedBlob::downgrade`]): it finds the payload while some handle to
/// it is alive, and holds none of its bytes. The default handle finds
/// nothing and holds no allocation.
#[derive(Debug, Clone, Default)]
pub struct WeakBlob {
    payload: Weak<Payload>,
}

impl WeakBlob {
    /// A handle to the payload, if some [`QuantizedBlob`] still holds it.
    pub fn upgrade(&self) -> Option<QuantizedBlob> {
        self.payload.upgrade().map(|payload| QuantizedBlob { payload })
    }
}

#[derive(Debug, PartialEq)]
struct Payload {
    bitwidth: Bitwidth,
    len: u32,
    /// Packed k-bit indexes, or raw f32 LE bytes for full fidelity.
    packed: Vec<u8>,
    /// FP32 centroid dictionary (empty for full fidelity).
    centroids: Vec<f32>,
    /// `(offset, original value)` for outliers (empty for full fidelity).
    outliers: Vec<(u32, f32)>,
}

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

impl QuantizedBlob {
    /// Quantizes `weights` to the requested bitwidth.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn quantize(weights: &[f32], bitwidth: Bitwidth, config: &QuantConfig) -> Self {
        Self::quantize_all(weights, &[bitwidth], config).pop().expect("one blob per bitwidth")
    }

    /// Quantizes `weights` to every one of `bitwidths`, in order. The
    /// Gaussian fit, the outlier set and the sort of the inliers depend only
    /// on the population, so they run once and each compressed bitwidth's
    /// dictionary is cut from the one sorted list.
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
        let blob = |bitwidth, packed, centroids, outliers| Self {
            payload: Arc::new(Payload { bitwidth, len, packed, centroids, outliers }),
        };
        let mut population = None;
        let mut blobs = Vec::with_capacity(bitwidths.len());
        for &bitwidth in bitwidths {
            if bitwidth.is_full() {
                let mut packed = Vec::with_capacity(weights.len() * 4);
                for w in weights {
                    packed.extend_from_slice(&w.to_le_bytes());
                }
                blobs.push(blob(bitwidth, packed, Vec::new(), Vec::new()));
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
            let packed = bitpack::pack(&indexes, bitwidth.bits());
            blobs.push(blob(bitwidth, packed, dict.centroids().to_vec(), pop.outliers.clone()));
        }
        blobs
    }

    /// Reassembles a blob from stored parts (used by the on-disk decoder).
    ///
    /// # Errors
    ///
    /// Returns an error if the parts are inconsistent (bad lengths, outlier
    /// offsets out of range).
    pub fn from_parts(
        bitwidth: Bitwidth,
        len: u32,
        packed: Vec<u8>,
        centroids: Vec<f32>,
        outliers: Vec<(u32, f32)>,
    ) -> Result<Self, QuantError> {
        check_parts(bitwidth, len, packed.len(), centroids.len(), outliers.iter().map(|o| o.0))?;
        Ok(Self { payload: Arc::new(Payload { bitwidth, len, packed, centroids, outliers }) })
    }

    /// Decompresses into a freshly allocated vector.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.payload.len as usize];
        self.dequantize_into(&mut out);
        out
    }

    /// Decompresses into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.payload.len as usize, "dequantize buffer length mismatch");
        self.dequantize_range_into(0, out);
    }

    /// Decompresses weights `[start, start + out.len())` of the group into
    /// `out` — the working-buffer hot path, which decodes each segment of a
    /// shard where the kernels will read it. Packed indexes go straight to
    /// centroids ([`bitpack::unpack_lookup_into`]; no index buffer in
    /// between), then the outliers that fall in the range are patched.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the group.
    pub fn dequantize_range_into(&self, start: usize, out: &mut [f32]) {
        let p = &*self.payload;
        decode_range(
            p.bitwidth,
            p.len,
            &p.packed,
            &p.centroids,
            p.outliers.iter().copied(),
            start,
            out,
        );
    }

    /// A weak handle to this blob's payload (see [`WeakBlob`]).
    pub fn downgrade(&self) -> WeakBlob {
        WeakBlob { payload: Arc::downgrade(&self.payload) }
    }

    /// The blob's bitwidth.
    pub fn bitwidth(&self) -> Bitwidth {
        self.payload.bitwidth
    }

    /// Number of weights in the group.
    pub fn len(&self) -> usize {
        self.payload.len as usize
    }

    /// Whether the group is empty (never true for valid blobs).
    pub fn is_empty(&self) -> bool {
        self.payload.len == 0
    }

    /// Serialized payload size in bytes: packed indexes plus the centroid
    /// dictionary plus the outlier table. This is the quantity the flash
    /// model charges IO for and the preload buffer counts against its
    /// capacity.
    pub fn byte_size(&self) -> usize {
        self.payload.packed.len()
            + self.payload.centroids.len() * 4
            + self.payload.outliers.len() * 8
    }

    /// Packed index bytes (raw f32 bytes for full fidelity).
    pub fn packed(&self) -> &[u8] {
        &self.payload.packed
    }

    /// Centroid dictionary (empty for full fidelity).
    pub fn centroids(&self) -> &[f32] {
        &self.payload.centroids
    }

    /// Outlier table.
    pub fn outliers(&self) -> &[(u32, f32)] {
        &self.payload.outliers
    }
}

/// Checks that a group's parts agree: a non-empty group, the packed bytes
/// its bitwidth needs, one centroid per code, every outlier inside.
fn check_parts(
    bitwidth: Bitwidth,
    len: u32,
    packed: usize,
    centroids: usize,
    offsets: impl IntoIterator<Item = u32>,
) -> Result<(), QuantError> {
    if len == 0 {
        return Err(QuantError::EmptyInput);
    }
    if bitwidth.is_full() {
        if packed != len as usize * 4 {
            return Err(QuantError::IndexOutOfRange {
                index: packed,
                dictionary: len as usize * 4,
            });
        }
    } else {
        let needed = bitwidth.payload_bytes(len as usize);
        if packed < needed {
            return Err(QuantError::IndexOutOfRange { index: packed, dictionary: needed });
        }
        if centroids != bitwidth.centroid_count() {
            return Err(QuantError::IndexOutOfRange {
                index: centroids,
                dictionary: bitwidth.centroid_count(),
            });
        }
    }
    match offsets.into_iter().find(|&offset| offset >= len) {
        Some(offset) => {
            Err(QuantError::OutlierOffsetOutOfRange { offset: offset as usize, len: len as usize })
        }
        None => Ok(()),
    }
}

/// Decodes weights `[start, start + out.len())` of a coded group into
/// `out`: raw little-endian `f32`s at full fidelity; otherwise packed
/// indexes straight to centroids ([`bitpack::unpack_lookup_into`]; no
/// index buffer in between), then the outliers that fall in the range
/// patched.
fn decode_range(
    bitwidth: Bitwidth,
    len: u32,
    packed: &[u8],
    centroids: &[f32],
    outliers: impl IntoIterator<Item = (u32, f32)>,
    start: usize,
    out: &mut [f32],
) {
    assert!(start + out.len() <= len as usize, "dequantize range out of bounds");
    if bitwidth.is_full() {
        let raw = packed[start * 4..].chunks_exact(4);
        for (slot, chunk) in out.iter_mut().zip(raw) {
            *slot = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        return;
    }
    bitpack::unpack_lookup_into(packed, bitwidth.bits(), start, centroids, out);
    for (offset, value) in outliers {
        if let Some(slot) = out.get_mut((offset as usize).wrapping_sub(start)) {
            *slot = value;
        }
    }
}

/// The largest centroid dictionary, at [`Bitwidth::B6`].
const MAX_CENTROIDS: usize = 64;

fn f32_le(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("a 4-byte slice"))
}

/// A coded weight group read in place from the bytes that hold it: the
/// packed indexes, the centroid table and the outlier table of a shard
/// record, each as stored (`f32`s and `(u32, f32)` entries, little-endian).
/// Nothing is copied out: [`dequantize_range_into`](Self::dequantize_range_into)
/// decodes from the borrowed bytes, to the bits the [`QuantizedBlob`] they
/// describe decodes to. A deferred shard is decoded this way, from its
/// record straight into the working buffer's slot, with no payload built.
#[derive(Debug, Clone, Copy)]
pub struct CodedView<'a> {
    bitwidth: Bitwidth,
    len: u32,
    packed: &'a [u8],
    centroids: &'a [u8],
    outliers: &'a [u8],
}

impl<'a> CodedView<'a> {
    /// A view of a group of `len` weights at `bitwidth` over its stored
    /// parts, checked as [`QuantizedBlob::from_parts`] checks its own.
    ///
    /// # Errors
    ///
    /// As [`QuantizedBlob::from_parts`]; a centroid table that is not one
    /// whole `f32` per code is [`QuantError::IndexOutOfRange`].
    ///
    /// # Panics
    ///
    /// Panics if `outliers` is not whole 8-byte entries.
    pub fn new(
        bitwidth: Bitwidth,
        len: u32,
        packed: &'a [u8],
        centroids: &'a [u8],
        outliers: &'a [u8],
    ) -> Result<Self, QuantError> {
        assert!(outliers.len().is_multiple_of(8), "outlier entries are 8 bytes each");
        let codes =
            if centroids.len().is_multiple_of(4) { centroids.len() / 4 } else { usize::MAX };
        let view = Self { bitwidth, len, packed, centroids, outliers };
        check_parts(bitwidth, len, packed.len(), codes, view.outlier_entries().map(|o| o.0))?;
        Ok(view)
    }

    fn outlier_entries(&self) -> impl Iterator<Item = (u32, f32)> + 'a {
        let entries = self.outliers.chunks_exact(8);
        entries.map(|e| (u32::from_le_bytes(e[..4].try_into().expect("4 bytes")), f32_le(&e[4..])))
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

    /// [`QuantizedBlob::dequantize_range_into`] from the borrowed bytes: the
    /// same bits, with the centroid table read onto the stack.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the group.
    pub fn dequantize_range_into(&self, start: usize, out: &mut [f32]) {
        let mut table = [0.0f32; MAX_CENTROIDS];
        // One per code when compressed (checked when the view was built); a
        // full-fidelity decode reads none, whatever the bytes hold.
        let codes = (self.centroids.len() / 4).min(MAX_CENTROIDS);
        for (slot, bytes) in table.iter_mut().zip(self.centroids.chunks_exact(4)) {
            *slot = f32_le(bytes);
        }
        let entries = self.outlier_entries();
        decode_range(self.bitwidth, self.len, self.packed, &table[..codes], entries, start, out);
    }

    /// The group as a payload of its own: the copy a shared holder keeps.
    pub fn to_blob(&self) -> QuantizedBlob {
        let centroids = self.centroids.chunks_exact(4).map(f32_le).collect();
        let payload = Payload {
            bitwidth: self.bitwidth,
            len: self.len,
            packed: self.packed.to_vec(),
            centroids,
            outliers: self.outlier_entries().collect(),
        };
        QuantizedBlob { payload: Arc::new(payload) }
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
        let fraction = blob.payload.outliers.len() as f64 / blob.payload.len as f64;
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
        let ok = QuantizedBlob::from_parts(
            blob.bitwidth(),
            blob.len() as u32,
            blob.packed().to_vec(),
            blob.centroids().to_vec(),
            blob.outliers().to_vec(),
        );
        assert_eq!(ok.unwrap(), blob);

        assert!(QuantizedBlob::from_parts(Bitwidth::B4, 0, vec![], vec![], vec![]).is_err());
        assert!(
            QuantizedBlob::from_parts(Bitwidth::B4, 64, vec![0; 2], vec![0.0; 16], vec![]).is_err()
        );
        assert!(QuantizedBlob::from_parts(
            Bitwidth::B4,
            64,
            blob.packed().to_vec(),
            blob.centroids().to_vec(),
            vec![(64, 1.0)],
        )
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

    /// A blob's tables as a record stores them, little-endian.
    fn stored_tables(blob: &QuantizedBlob) -> (Vec<u8>, Vec<u8>) {
        let centroids = blob.centroids().iter().flat_map(|c| c.to_le_bytes()).collect();
        let outliers = (blob.outliers().iter())
            .flat_map(|&(at, v)| [at.to_le_bytes(), v.to_le_bytes()].concat())
            .collect();
        (centroids, outliers)
    }

    /// A view over a blob's stored parts decodes every range to the blob's
    /// bits, and copies back out to the blob.
    #[test]
    fn a_view_over_the_stored_parts_decodes_the_blobs_bits() {
        let weights = gaussian_weights(10, 333);
        for blob in QuantizedBlob::quantize_all(&weights, &Bitwidth::ALL, &QuantConfig::default()) {
            let (centroids, outliers) = stored_tables(&blob);
            let bw = blob.bitwidth();
            let view = CodedView::new(bw, blob.len() as u32, blob.packed(), &centroids, &outliers)
                .unwrap();
            assert_eq!((view.len(), view.bitwidth()), (blob.len(), bw));
            assert!(bw.is_full() || !blob.outliers().is_empty(), "{bw}: outliers are patched");
            for (start, end) in [(0, 333), (0, 1), (100, 101), (7, 300), (299, 333), (333, 333)] {
                let (mut want, mut got) = (vec![0.0f32; end - start], vec![1.0f32; end - start]);
                blob.dequantize_range_into(start, &mut want);
                view.dequantize_range_into(start, &mut got);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{bw} [{start}, {end})");
            }
            assert_eq!(view.to_blob(), blob, "{bw}");
        }
    }

    #[test]
    fn a_view_checks_its_parts_as_from_parts_does() {
        let weights = gaussian_weights(11, 64);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B4, &QuantConfig::default());
        let (centroids, outliers) = stored_tables(&blob);
        let view = |len, packed: &[u8], centroids: &[u8], outliers: &[u8]| {
            CodedView::new(Bitwidth::B4, len, packed, centroids, outliers).map(|_| ())
        };
        assert_eq!(view(64, blob.packed(), &centroids, &outliers), Ok(()));
        assert_eq!(view(0, &[], &[], &[]), Err(QuantError::EmptyInput));
        assert!(view(64, &[0; 2], &centroids, &outliers).is_err());
        assert!(view(64, blob.packed(), &centroids[..60], &outliers).is_err());
        assert!(view(64, blob.packed(), &centroids[..61], &outliers).is_err());
        let outside = [64u32.to_le_bytes(), 1.0f32.to_le_bytes()].concat();
        assert_eq!(
            view(64, blob.packed(), &centroids, &outside),
            Err(QuantError::OutlierOffsetOutOfRange { offset: 64, len: 64 })
        );
    }

    #[test]
    fn a_weak_blob_finds_the_payload_only_while_a_handle_lives() {
        let weights = gaussian_weights(9, 64);
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B3, &QuantConfig::default());
        let weak = blob.downgrade();
        let found = weak.upgrade().expect("a handle is alive");
        assert_eq!(found.packed().as_ptr(), blob.packed().as_ptr());
        drop((blob, found));
        assert!(weak.upgrade().is_none());
        assert!(WeakBlob::default().upgrade().is_none());
    }
}
