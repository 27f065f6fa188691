//! Computation delay model.

use crate::clock::SimTime;

/// Per-layer computation delay as a function of width `m`, sequence length,
/// and DVFS frequency scaling.
///
/// `delay(l, m) = (fixed_layer + m · per_shard · l/reference_seq) / freq`
///
/// Two regimes matter for the paper's findings (§7.3):
///
/// - **CPU (Odroid-like)**: `per_shard` dominates, so compute scales
///   proportionally with width — the planner trades width for depth.
/// - **GPU (Jetson-like)**: `fixed_layer` dominates (batch-optimized GPUs pay
///   a large fixed cost per kernel on single-example interactive NLP), so a
///   12-shard layer costs barely more than a 3-shard layer and the planner
///   picks shallow/wide submodels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeModel {
    /// Fixed cost per layer, independent of width.
    pub fixed_layer: SimTime,
    /// Incremental cost per shard at the reference sequence length.
    pub per_shard: SimTime,
    /// Sequence length the `per_shard` cost was calibrated at.
    pub reference_seq: usize,
    /// Shard decompression cost (dictionary substitution), charged per shard
    /// on the compute side. The paper measures it bounded by the 6-bit
    /// version and <1 ms per shard (§5.2).
    pub decompress_per_shard: SimTime,
}

impl ComputeModel {
    /// Raw layer execution delay for `m` shards on an `l`-token input at
    /// frequency scale `freq` (1.0 = peak; 0.5 = half speed).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `freq <= 0`.
    pub fn layer_delay(&self, l: usize, m: usize, freq: f64) -> SimTime {
        assert!(m > 0, "a layer needs at least one shard");
        assert!(freq > 0.0 && freq.is_finite(), "frequency scale must be positive");
        let l_factor = l as f64 / self.reference_seq as f64;
        let variable = self.per_shard.scale(m as f64 * l_factor);
        (self.fixed_layer + variable).scale(1.0 / freq)
    }

    /// Decompression delay for `m` shards (bitwidth-independent upper bound,
    /// as profiled in the paper).
    pub fn decompress_delay(&self, m: usize) -> SimTime {
        self.decompress_per_shard.scale(m as f64)
    }

    /// Total compute-side delay of one layer: decompression + execution.
    pub fn layer_total(&self, l: usize, m: usize, freq: f64) -> SimTime {
        self.decompress_delay(m) + self.layer_delay(l, m, freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> ComputeModel {
        ComputeModel {
            fixed_layer: SimTime::from_ms(5),
            per_shard: SimTime::from_ms_f64(7.5),
            reference_seq: 12,
            decompress_per_shard: SimTime::from_us(800),
        }
    }

    fn gpu() -> ComputeModel {
        ComputeModel {
            fixed_layer: SimTime::from_ms(55),
            per_shard: SimTime::from_us(40),
            reference_seq: 12,
            decompress_per_shard: SimTime::from_us(400),
        }
    }

    #[test]
    fn cpu_scales_with_width() {
        let c = cpu();
        let narrow = c.layer_delay(12, 3, 1.0);
        let wide = c.layer_delay(12, 12, 1.0);
        assert!(wide.as_ms() > 3.0 * narrow.as_ms() / 1.5, "CPU should be near-proportional");
        assert_eq!(wide, SimTime::from_ms(95)); // calibration target (§2.2)
    }

    #[test]
    fn gpu_is_non_proportional() {
        let g = gpu();
        let narrow = g.layer_delay(12, 3, 1.0);
        let wide = g.layer_delay(12, 12, 1.0);
        let rel = (wide.as_ms() - narrow.as_ms()) / narrow.as_ms();
        assert!(rel < 0.01, "GPU width penalty should be <1% (paper: 0.7%), got {rel}");
    }

    #[test]
    fn freq_scaling_slows_down() {
        let c = cpu();
        let full = c.layer_delay(12, 12, 1.0);
        let half = c.layer_delay(12, 12, 0.5);
        assert_eq!(half, full.scale(2.0));
    }

    #[test]
    fn sequence_length_scales_variable_part() {
        let c = cpu();
        let short = c.layer_delay(6, 12, 1.0);
        let long = c.layer_delay(12, 12, 1.0);
        assert!(short < long);
        // fixed part is unaffected: delta = per_shard*12*0.5
        assert_eq!(long - short, c.per_shard.scale(6.0));
    }

    #[test]
    fn decompression_is_small_but_positive() {
        let c = cpu();
        let d = c.decompress_delay(12);
        assert!(d > SimTime::ZERO);
        assert!(d.as_ms() < c.layer_delay(12, 12, 1.0).as_ms() / 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_width_is_rejected() {
        let _ = cpu().layer_delay(12, 0, 1.0);
    }
}
