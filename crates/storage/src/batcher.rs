//! Shared-IO batching: coalesce co-resident engagements' identical layer
//! loads into one fan-out flash job.
//!
//! The serving economy of this system is flash-bandwidth-bound layer
//! streaming, and co-resident sessions of the same model with the same plan
//! request **identical** layer loads — same layer, same shard set, same
//! bitwidths (the model is fixed per scheduler). Without batching, N
//! co-runners pay an N× flash tax for byte-identical reads. With batching,
//! the [`IoScheduler`](crate::scheduler::IoScheduler) dispatches **one**
//! flash job per group of matching requests and fans the loaded layer out
//! to every member channel (blobs are shared `Arc`s, so the fan-out is
//! reference counting, not copying).
//!
//! The scheduler owns the dispatch loop; this module holds the matching
//! rule, [`batchable`]: a byte-identical request (same layer, same
//! `(slice, bitwidth)` items) from an engagement the scheduler's
//! [`IoSharing`] lets share — its arrival offset (the time its channel was
//! opened at, see
//! [`IoScheduler::channel_striped_at`](crate::scheduler::IoScheduler::channel_striped_at))
//! within the window of the leader's. The window test itself is
//! [`IoSharing::shares`], the one the contended predictors apply too.
//!
//! **What batching may and may not change.** The uncontended track's
//! determinism contract is untouched: every member channel receives a
//! [`LoadedLayer`](crate::loader::LoadedLayer) whose blobs, byte count, and
//! device-model delay are bit-identical to a solo load, delivered in its
//! own FIFO position. Batching only changes the **contended** track and
//! the host's real work: a batched dispatch appears once in the
//! [`FlashDispatchEvent`](crate::scheduler::FlashDispatchEvent) stream with
//! its fan-out recorded, the flash-queue replay charges the bytes once, and
//! the difference shows up as flash-bytes-saved in serving reports.

use sti_device::{IoSharing, SimTime};

use crate::loader::LayerRequest;

/// Whether `candidate` may join a batch led by `leader` under `sharing`:
/// the requests must be byte-identical (same layer, same `(slice,
/// bitwidth)` items in the same order — the model is fixed per scheduler)
/// and `sharing` must let the two arrivals share ([`IoSharing::shares`]).
pub fn batchable(
    sharing: IoSharing,
    leader: &LayerRequest,
    leader_arrival: SimTime,
    candidate: &LayerRequest,
    candidate_arrival: SimTime,
) -> bool {
    leader == candidate && sharing.shares(leader_arrival, candidate_arrival)
}

/// Per-scheduler batching counters (all zero under
/// [`IoSharing::Exclusive`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Dispatches that carried more than one engagement's request.
    pub batched_dispatches: u64,
    /// Requests absorbed into another engagement's flash job (the fan-out
    /// beyond each batch's leader).
    pub coalesced_requests: u64,
    /// Serialized bytes those coalesced requests would have re-read from
    /// flash.
    pub flash_bytes_saved: u64,
    /// Largest fan-out (member count including the leader) observed.
    pub max_fanout: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_quant::Bitwidth;

    fn req(layer: u16, items: &[(u16, Bitwidth)]) -> LayerRequest {
        LayerRequest { layer, items: items.to_vec() }
    }

    fn window_us(us: u64) -> IoSharing {
        IoSharing::Batched(SimTime::from_us(us))
    }

    #[test]
    fn exclusive_sharing_never_batches() {
        let r = req(0, &[(0, Bitwidth::B2)]);
        assert!(!batchable(IoSharing::Exclusive, &r, SimTime::ZERO, &r, SimTime::ZERO));
    }

    #[test]
    fn identical_requests_within_the_window_batch() {
        let sharing = window_us(500);
        let r = req(3, &[(0, Bitwidth::B2), (1, Bitwidth::B6)]);
        assert!(batchable(sharing, &r, SimTime::ZERO, &r, SimTime::ZERO));
        assert!(batchable(sharing, &r, SimTime::from_us(100), &r, SimTime::from_us(600)));
        // The window is symmetric: a later leader batches an earlier
        // candidate too.
        assert!(batchable(sharing, &r, SimTime::from_us(600), &r, SimTime::from_us(100)));
    }

    #[test]
    fn arrivals_outside_the_window_do_not_batch() {
        let sharing = window_us(500);
        let r = req(3, &[(0, Bitwidth::B2)]);
        assert!(!batchable(sharing, &r, SimTime::ZERO, &r, SimTime::from_us(501)));
    }

    #[test]
    fn different_requests_never_batch() {
        let sharing = window_us(500);
        let a = req(3, &[(0, Bitwidth::B2)]);
        for other in [
            req(4, &[(0, Bitwidth::B2)]),                    // different layer
            req(3, &[(1, Bitwidth::B2)]),                    // different slice
            req(3, &[(0, Bitwidth::B6)]),                    // different bitwidth
            req(3, &[(0, Bitwidth::B2), (1, Bitwidth::B2)]), // different shard set
        ] {
            assert!(!batchable(sharing, &a, SimTime::ZERO, &other, SimTime::ZERO), "{other:?}");
        }
    }
}
