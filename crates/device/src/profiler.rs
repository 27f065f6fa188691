//! The installation-time hardware profiling pass (paper §5.2).
//!
//! STI measures, once per device: `T_io(k)` — the delay of loading one shard
//! at each bitwidth `k` (one shard suffices, all shards have the same
//! parameter count) — and `T_comp(l, m, freq)` — per-layer execution delay
//! as a function of width, including shard decompression bounded by the
//! 6-bit version. These tables are *data-independent and deterministic*, so
//! they can be recorded offline and replayed at plan time.

use std::collections::BTreeMap;

use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
use sti_transformer::synthetic::synthetic_shard;
use sti_transformer::ModelConfig;

use crate::clock::SimTime;
use crate::flash::FlashModel;
use crate::profile::DeviceProfile;

/// Number of sample shards quantized per bitwidth when measuring shard
/// bytes; the maximum is kept so AIB budgeting stays conservative against
/// per-shard outlier-count variation.
const BYTE_PROBE_SHARDS: u64 = 8;

/// The profiled capability tables the planner and pipeline consume, and
/// the device's flash model: the one timing model both the planner's IO
/// budgets and the IO scheduler's charges are computed from.
///
/// ```
/// use sti_device::{DeviceProfile, HwProfile};
/// use sti_quant::{Bitwidth, QuantConfig};
/// use sti_transformer::ModelConfig;
///
/// let hw = HwProfile::measure(
///     &DeviceProfile::odroid_n2(),
///     &ModelConfig::scaled_bert(),
///     &QuantConfig::default(),
/// );
/// assert!(hw.t_io_shard(Bitwidth::B2) < hw.t_io_shard(Bitwidth::Full));
/// assert!(hw.t_comp(3) < hw.t_comp(12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HwProfile {
    /// Name of the profiled device.
    pub device_name: String,
    /// Width of the shard grid (`M`).
    pub heads: usize,
    /// Padded sequence length the compute table was profiled at.
    pub seq_len: usize,
    /// DVFS level the compute table was profiled at.
    pub freq: f64,
    /// The device's flash: per-request latency (paid once per layer-grouped
    /// load) plus streaming bandwidth.
    pub flash: FlashModel,
    /// Conservative (max-observed) serialized shard bytes per bitwidth.
    shard_bytes: BTreeMap<Bitwidth, u64>,
    /// Per-layer compute delay (decompression + execution) indexed by `m-1`.
    t_comp: Vec<SimTime>,
}

impl HwProfile {
    /// Runs the profiling pass: quantizes sample shards to measure bytes per
    /// bitwidth and evaluates the device's delay models over all widths.
    pub fn measure(device: &DeviceProfile, cfg: &ModelConfig, quant: &QuantConfig) -> Self {
        cfg.validate();
        let mut shard_bytes: BTreeMap<Bitwidth, u64> = BTreeMap::new();
        for probe in 0..BYTE_PROBE_SHARDS {
            let flat = synthetic_shard(cfg, 0xB0_07 + probe, 1.0).flatten();
            for blob in QuantizedBlob::quantize_all(&flat, &Bitwidth::ALL, quant) {
                let max_bytes = shard_bytes.entry(blob.bitwidth()).or_default();
                *max_bytes = (*max_bytes).max(blob.byte_size() as u64);
            }
        }
        let t_comp = (1..=cfg.heads)
            .map(|m| device.compute.layer_total(cfg.seq_len, m, device.freq))
            .collect();
        Self {
            device_name: device.name.clone(),
            heads: cfg.heads,
            seq_len: cfg.seq_len,
            freq: device.freq,
            flash: device.flash,
            shard_bytes,
            t_comp,
        }
    }

    /// Conservative serialized bytes of one shard at `bw`.
    pub fn shard_bytes(&self, bw: Bitwidth) -> u64 {
        self.shard_bytes[&bw]
    }

    /// Streaming IO delay of one shard at `bw` (no request latency).
    pub fn t_io_shard(&self, bw: Bitwidth) -> SimTime {
        self.flash.transfer_delay(self.shard_bytes(bw))
    }

    /// Per-layer compute delay (decompression + execution) at width `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is 0 or exceeds the profiled grid width.
    pub fn t_comp(&self, m: usize) -> SimTime {
        assert!(m >= 1 && m <= self.heads, "width {m} outside profiled range 1..={}", self.heads);
        self.t_comp[m - 1]
    }

    /// Delay of loading one layer's selected shard versions as a single
    /// co-located IO request.
    pub fn layer_io_delay(&self, bitwidths: &[Bitwidth]) -> SimTime {
        if bitwidths.is_empty() {
            return SimTime::ZERO;
        }
        let total: u64 = bitwidths.iter().map(|&bw| self.shard_bytes(bw)).sum();
        self.flash.request_delay(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> HwProfile {
        HwProfile::measure(
            &DeviceProfile::odroid_n2(),
            &ModelConfig::scaled_bert(),
            &QuantConfig::default(),
        )
    }

    /// Also the premise behind "a layer streams exactly when its plan
    /// priced it a job": the smallest profiled shard is not empty, so a
    /// layer's read has bytes iff it has an item, at every model scale.
    #[test]
    fn shard_bytes_increase_with_bitwidth() {
        let hw = profile();
        for pair in Bitwidth::ALL.windows(2) {
            assert!(
                hw.shard_bytes(pair[0]) < hw.shard_bytes(pair[1]),
                "{} >= {}",
                pair[0],
                pair[1]
            );
        }
        let tiny = HwProfile::measure(
            &DeviceProfile::odroid_n2(),
            &ModelConfig::tiny(),
            &QuantConfig::default(),
        );
        for hw in [hw, tiny] {
            assert!(hw.shard_bytes(Bitwidth::ALL[0]) > 0, "the smallest shard is empty");
        }
    }

    #[test]
    fn full_shard_bytes_match_param_count() {
        let hw = profile();
        let cfg = ModelConfig::scaled_bert();
        assert_eq!(hw.shard_bytes(Bitwidth::Full), cfg.shard_fp32_bytes() as u64);
    }

    #[test]
    fn compressed_shard_io_is_much_cheaper() {
        let hw = profile();
        let full = hw.t_io_shard(Bitwidth::Full);
        let b2 = hw.t_io_shard(Bitwidth::B2);
        assert!(
            full.as_ms() / b2.as_ms() > 8.0,
            "2-bit IO should be ~an order cheaper: {b2} vs {full}"
        );
    }

    #[test]
    fn t_comp_is_monotone_in_width() {
        let hw = profile();
        for m in 2..=hw.heads {
            assert!(hw.t_comp(m) > hw.t_comp(m - 1));
        }
    }

    #[test]
    fn layer_io_groups_request_latency() {
        let hw = profile();
        let bws = vec![Bitwidth::B6; 12];
        let grouped = hw.layer_io_delay(&bws);
        let individual: SimTime =
            bws.iter().map(|&bw| hw.flash.request_delay(hw.shard_bytes(bw))).sum();
        assert!(grouped < individual);
        assert_eq!(hw.layer_io_delay(&[]), SimTime::ZERO);
    }

    #[test]
    fn profiling_is_deterministic() {
        assert_eq!(profile(), profile());
    }

    #[test]
    #[should_panic(expected = "outside profiled range")]
    fn t_comp_rejects_zero_width() {
        let _ = profile().t_comp(0);
    }
}
