//! Storage IO delay model.

use crate::clock::SimTime;

/// A mobile flash device modeled as sustained bandwidth plus a fixed
/// per-request latency.
///
/// The paper loads one *layer* (all its shards, co-located on disk) as a
/// single IO job (§3.1), so the request latency is paid once per layer while
/// payload bytes stream at the bandwidth — which is why shard-grain IO would
/// leave bandwidth underutilized (ablated in `sti-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashModel {
    /// Sustained read bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed latency charged once per IO request.
    pub request_latency: SimTime,
}

impl FlashModel {
    /// Creates a flash model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is zero.
    pub fn new(bandwidth_bytes_per_sec: u64, request_latency: SimTime) -> Self {
        assert!(bandwidth_bytes_per_sec > 0, "bandwidth must be positive");
        Self { bandwidth_bytes_per_sec, request_latency }
    }

    /// Pure streaming delay for `bytes` (no request latency) — used to
    /// convert a preload-buffer size into "bonus IO" budget (paper §5.4.2).
    /// Computed in `u128`, so no byte count overflows: a delay past
    /// `u64::MAX` µs saturates there.
    pub fn transfer_delay(&self, bytes: u64) -> SimTime {
        let us = (u128::from(bytes) * 1_000_000).div_ceil(u128::from(self.bandwidth_bytes_per_sec));
        SimTime::from_us(u64::try_from(us).unwrap_or(u64::MAX))
    }

    /// Delay of one IO request of `bytes`: request latency + streaming.
    pub fn request_delay(&self, bytes: u64) -> SimTime {
        self.request_latency + self.transfer_delay(bytes)
    }

    /// A DRAM-speed service model for the opt-in cache-residency mode of the
    /// contended track: bytes already resident in a host-side shard cache
    /// are charged against this model instead of flash, so capacity-planning
    /// experiments can ask what a DRAM-resident working set buys. Calibrated
    /// as LPDDR4-class: ~8 GiB/s sustained, 5 µs per request.
    pub fn dram_residency() -> Self {
        Self::new(8 << 30, SimTime::from_us(5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash() -> FlashModel {
        FlashModel::new(1_000_000, SimTime::from_ms(2)) // 1 MB/s, 2 ms latency
    }

    #[test]
    fn transfer_delay_scales_linearly() {
        let f = flash();
        assert_eq!(f.transfer_delay(1_000_000), SimTime::from_ms(1_000));
        assert_eq!(f.transfer_delay(500_000), SimTime::from_ms(500));
        assert_eq!(f.transfer_delay(0), SimTime::ZERO);
    }

    #[test]
    fn transfer_delay_of_any_byte_count_is_exact_or_saturates() {
        let f = flash();
        // 2^64 − 1 bytes at 1 MB/s: exactly u64::MAX µs, no overflow.
        assert_eq!(f.transfer_delay(u64::MAX), SimTime::from_us(u64::MAX));
        // Past u64::MAX µs at a slower device: saturated.
        assert_eq!(FlashModel::new(1, SimTime::ZERO).transfer_delay(u64::MAX).as_us(), u64::MAX);
        // Below the old overflow point the value is the one `u64` gave.
        let bytes = u64::MAX / 1_000_000;
        let fast = FlashModel::new(3_000_000, SimTime::ZERO);
        assert_eq!(fast.transfer_delay(bytes).as_us(), (bytes * 1_000_000).div_ceil(3_000_000));
    }

    #[test]
    fn request_delay_adds_latency_once() {
        let f = flash();
        assert_eq!(f.request_delay(1_000_000), SimTime::from_ms(1_002));
    }

    #[test]
    fn rounds_partial_microseconds_up() {
        let f = FlashModel::new(3_000_000, SimTime::ZERO);
        // 1 byte at 3 MB/s = 1/3 µs -> rounds up to 1 µs.
        assert_eq!(f.transfer_delay(1), SimTime::from_us(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_is_rejected() {
        let _ = FlashModel::new(0, SimTime::ZERO);
    }

    #[test]
    fn dram_residency_is_orders_faster_than_flash() {
        let flash = FlashModel::new(510_000, SimTime::from_ms(2)); // Odroid-class
        let dram = FlashModel::dram_residency();
        let bytes = 172_800; // one full-fidelity layer
        assert!(dram.request_delay(bytes) * 100 < flash.request_delay(bytes));
    }
}
