//! Named device profiles (paper Table 2).

use serde::{Deserialize, Serialize};

use crate::clock::SimTime;
use crate::compute::ComputeModel;
use crate::flash::FlashModel;

/// A complete device: flash, compute, DVFS level, and descriptive metadata.
///
/// The presets are calibrated against the paper's measurements on the
/// *paper-scale* models, mapped onto this reproduction's dimensionally scaled
/// model (`sti-transformer`'s `ModelConfig` presets): the absolute bandwidth
/// constants are chosen so that a full-fidelity (32-bit) layer load costs
/// ≈339 ms and a full-width layer computation ≈95 ms on the Odroid profile —
/// the IO/compute skew of §2.2 that motivates the whole system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable platform name.
    pub name: String,
    /// CPU/GPU description for Table 2.
    pub processor: String,
    /// Total device memory in bytes (Table 2).
    pub mem_bytes: u64,
    /// Storage model.
    pub flash: FlashModel,
    /// Compute model.
    pub compute: ComputeModel,
    /// Current DVFS frequency scale (1.0 = peak; the paper notes frequency
    /// is at peak during active inference, §5.3).
    pub freq: f64,
}

impl DeviceProfile {
    /// Odroid-N2+-like CPU platform: compute scales with width; layer IO at
    /// full fidelity ≈339 ms vs ≈95 ms compute (paper §2.2).
    pub fn odroid_n2() -> Self {
        Self {
            name: "Odroid-N2+".to_string(),
            processor: "4x Cortex-A73 + 2x Cortex-A53 (CPU inference)".to_string(),
            mem_bytes: 4 << 30,
            flash: FlashModel::new(510_000, SimTime::from_ms(2)),
            compute: ComputeModel {
                // Calibrated: layer_delay(12 tokens, 12 shards) = 95 ms, the
                // paper's measured per-layer compute (§2.2). CPU compute is
                // near-proportional in width, so the fixed cost is small.
                fixed_layer: SimTime::from_us(500),
                per_shard: SimTime::from_us(7_875),
                reference_seq: 12,
                decompress_per_shard: SimTime::from_us(800),
            },
            freq: 1.0,
        }
    }

    /// Jetson-Nano-like GPU platform: large fixed per-layer cost, negligible
    /// width scaling (§7.3), slightly slower flash.
    pub fn jetson_nano() -> Self {
        Self {
            name: "Jetson Nano".to_string(),
            processor: "Nvidia Maxwell, 128 CUDA cores (GPU inference)".to_string(),
            mem_bytes: 4 << 30,
            flash: FlashModel::new(346_000, SimTime::from_ms(3)),
            compute: ComputeModel {
                fixed_layer: SimTime::from_ms(55),
                per_shard: SimTime::from_us(40),
                reference_seq: 12,
                decompress_per_shard: SimTime::from_us(400),
            },
            freq: 1.0,
        }
    }

    /// A hypothetical future device with a neural accelerator: much faster
    /// compute against the same flash, increasing IO/compute skew (§3.4,
    /// §7.4 sensitivity discussion).
    pub fn accelerated() -> Self {
        let mut dev = Self::odroid_n2();
        dev.name = "Accelerated (hypothetical)".to_string();
        dev.processor = "NPU-class accelerator".to_string();
        dev.compute.fixed_layer = SimTime::from_ms(1);
        dev.compute.per_shard = SimTime::from_ms_f64(1.5);
        dev
    }

    /// Both evaluation platforms of the paper.
    pub fn evaluation_platforms() -> Vec<DeviceProfile> {
        vec![Self::odroid_n2(), Self::jetson_nano()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odroid_reproduces_measured_skew() {
        let dev = DeviceProfile::odroid_n2();
        // 12 shards × 3600 params × 4 B = 172,800 B per full-fidelity layer.
        let io = dev.flash.transfer_delay(172_800);
        let comp = dev.compute.layer_delay(12, 12, dev.freq);
        let skew = io.as_ms() / comp.as_ms();
        assert!((io.as_ms() - 339.0).abs() < 5.0, "layer IO {io} should be ~339ms");
        assert!((comp.as_ms() - 95.0).abs() < 2.0, "layer compute {comp} should be ~95ms");
        assert!(skew > 3.0, "IO/compute skew {skew} should be >3x (paper: 339/95)");
    }

    #[test]
    fn jetson_compute_is_width_insensitive() {
        let dev = DeviceProfile::jetson_nano();
        let narrow = dev.compute.layer_delay(12, 3, 1.0);
        let wide = dev.compute.layer_delay(12, 12, 1.0);
        assert!((wide.as_ms() - narrow.as_ms()) / narrow.as_ms() < 0.01);
    }

    #[test]
    fn accelerated_has_higher_skew_than_odroid() {
        let od = DeviceProfile::odroid_n2();
        let acc = DeviceProfile::accelerated();
        let skew = |d: &DeviceProfile| {
            d.flash.transfer_delay(172_800).as_ms() / d.compute.layer_delay(12, 12, 1.0).as_ms()
        };
        assert!(skew(&acc) > 3.0 * skew(&od));
    }

    #[test]
    fn platforms_have_table2_metadata() {
        for dev in DeviceProfile::evaluation_platforms() {
            assert!(!dev.name.is_empty());
            assert!(!dev.processor.is_empty());
            assert_eq!(dev.mem_bytes, 4 << 30);
        }
    }
}
