//! Uniform (min–max linear) quantization — the comparison scheme.
//!
//! The paper chooses GOBO-style dictionary quantization because it preserves
//! the weight distribution without fine-tuning (§4.2), unlike fixed-point /
//! linear schemes. This module implements the linear alternative so the
//! claim is measurable: same bit budget, values snapped to `2^k` evenly
//! spaced levels between the observed min and max. Outlier-heavy transformer
//! weights stretch the range and waste levels on empty tails — the failure
//! mode GOBO's equal-population centroids avoid (quantified in the
//! `quantizer` ablation of `sti-bench`).

use crate::bitpack;
use crate::bitwidth::Bitwidth;
use sti_tensor::math;

/// A weight group quantized with uniform min–max levels.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformBlob {
    bitwidth: Bitwidth,
    len: u32,
    min: f32,
    max: f32,
    packed: Vec<u8>,
}

impl UniformBlob {
    /// Quantizes `weights` to `2^bitwidth` evenly spaced levels.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `bitwidth` is [`Bitwidth::Full`]
    /// (uniform quantization of full-precision weights is the identity; use
    /// the GOBO blob for that).
    pub fn quantize(weights: &[f32], bitwidth: Bitwidth) -> Self {
        assert!(!weights.is_empty(), "cannot quantize an empty weight group");
        assert!(!bitwidth.is_full(), "full fidelity has no uniform levels");
        let min = weights.iter().copied().fold(f32::INFINITY, f32::min);
        let max = weights.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let levels = (bitwidth.centroid_count() - 1) as f32;
        let span = (max - min).max(1e-12);
        let indexes: Vec<u16> = weights
            .iter()
            .map(|&w| (math::round(f64::from((w - min) / span * levels)) as u16).min(levels as u16))
            .collect();
        let packed = bitpack::pack(&indexes, bitwidth.bits());
        Self { bitwidth, len: weights.len() as u32, min, max, packed }
    }

    /// Reconstructs the weights.
    pub fn dequantize(&self) -> Vec<f32> {
        let levels = (self.bitwidth.centroid_count() - 1) as f32;
        let span = self.max - self.min;
        let indexes = bitpack::unpack(&self.packed, self.bitwidth.bits(), self.len as usize);
        indexes.into_iter().map(|i| self.min + span * (i as f32 / levels)).collect()
    }

    /// Serialized payload bytes (packed indexes + the two range floats).
    pub fn byte_size(&self) -> usize {
        self.packed.len() + 8
    }

    /// The blob's bitwidth.
    pub fn bitwidth(&self) -> Bitwidth {
        self.bitwidth
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the group is empty (never true for valid blobs).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuantConfig, QuantizedBlob};
    use sti_tensor::{stats, Rng};

    fn gaussian_with_outliers(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let mut xs = vec![0.0f32; n];
        rng.fill_gaussian(&mut xs, 0.0, 0.1);
        xs[n / 4] = 1.8;
        xs[n / 2] = -1.5;
        xs
    }

    #[test]
    fn round_trip_preserves_length_and_range() {
        let weights = gaussian_with_outliers(1, 512);
        let blob = UniformBlob::quantize(&weights, Bitwidth::B4);
        let restored = blob.dequantize();
        assert_eq!(restored.len(), weights.len());
        let (lo, hi) = (-1.5f32, 1.8f32);
        assert!(restored.iter().all(|&x| x >= lo - 1e-4 && x <= hi + 1e-4));
    }

    #[test]
    fn error_shrinks_with_bitwidth() {
        let weights = gaussian_with_outliers(2, 2048);
        let mut prev = f32::INFINITY;
        for bw in Bitwidth::COMPRESSED {
            let err = stats::mse(&weights, &UniformBlob::quantize(&weights, bw).dequantize());
            assert!(err < prev, "mse did not shrink at {bw}");
            prev = err;
        }
    }

    #[test]
    fn gobo_beats_uniform_on_outlier_heavy_weights() {
        // The paper's §4.2 rationale, measured: with heavy-tail outliers the
        // uniform grid wastes levels on empty range while GOBO's
        // equal-population centroids track the mass.
        let weights = gaussian_with_outliers(3, 4096);
        for bw in [Bitwidth::B2, Bitwidth::B3, Bitwidth::B4] {
            let uniform_err =
                stats::mse(&weights, &UniformBlob::quantize(&weights, bw).dequantize());
            let gobo_err = stats::mse(
                &weights,
                &QuantizedBlob::quantize(&weights, bw, &QuantConfig::default()).dequantize(),
            );
            assert!(
                gobo_err < uniform_err / 2.0,
                "{bw}: GOBO {gobo_err} should be far below uniform {uniform_err}"
            );
        }
    }

    #[test]
    fn constant_weights_reconstruct_exactly() {
        let weights = vec![0.25f32; 64];
        let blob = UniformBlob::quantize(&weights, Bitwidth::B2);
        for x in blob.dequantize() {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "no uniform levels")]
    fn full_fidelity_is_rejected() {
        let _ = UniformBlob::quantize(&[1.0], Bitwidth::Full);
    }
}
