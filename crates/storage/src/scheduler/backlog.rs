//! Backlog snapshots: a point-in-time picture of the demand lanes' queues,
//! priced with the device model.
//!
//! **Invariants.** A snapshot covers demand lanes only, so backlog blame
//! cannot charge prefetch work to demand traffic. Lanes come in lane-id
//! order, each lane's requests in FIFO order without the one in flight; a
//! lane with no work is omitted. The queues are copied under the scheduler
//! lock and priced outside it, so a snapshot never stalls a dispatch on
//! storage lookups — and is advisory: requests keep dispatching meanwhile.

use sti_device::{FlashModel, SimTime};
use sti_transformer::ShardId;

use super::lanes::QueuedLane;
use crate::loader::LayerRequest;
use crate::store::{ShardKey, ShardSource};

/// One queued (not yet dispatched) request in a [`BacklogSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedIo {
    /// Placement-adjusted content signature of the request
    /// ([`LayerRequest::content_sig`](crate::LayerRequest::content_sig)
    /// plus the lane's stripe offset) — equal signatures read identical
    /// bytes *and* resolve to the same device channel
    /// (`channel_for(sig, 0)`), so they could share one flash job under an
    /// enabled batch policy. Zero-stripe lanes (the only kind under a
    /// single-channel topology) report the raw content signature.
    pub sig: u64,
    /// Serialized bytes the request will read (0 when a size lookup fails;
    /// the request itself will surface that error at dispatch).
    pub bytes: u64,
    /// Uncontended device-model service time of the request.
    pub service: SimTime,
}

/// One channel's slice of a [`BacklogSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelBacklog {
    /// The channel (engagement) id.
    pub channel: u64,
    /// The channel's simulated arrival time.
    pub arrival: SimTime,
    /// The arrival the channel's next dispatch will be stamped with on the
    /// contended track (raised above `arrival` by any batch it joined).
    pub effective_arrival: SimTime,
    /// Whether a request of this channel is currently being serviced.
    pub inflight: bool,
    /// Queued requests in FIFO order (the in-flight one, if any, is not
    /// included — its dispatch event is already in the flash log).
    pub queued: Vec<QueuedIo>,
}

/// A point-in-time picture of the live flash queue: every open channel's
/// queued requests (bytes, service times, batchability signatures) plus its
/// effective arrival, and the scheduler's batch-window state. This is what
/// the serving runtime's infer-time backpressure gate feeds the contended
/// prediction — "what would an engagement submitted *now* see" — via
/// `sti_planner::ServingMix::predict`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BacklogSnapshot {
    /// Open channels in channel-id order (channels with no queued work and
    /// nothing in flight are omitted).
    pub channels: Vec<ChannelBacklog>,
    /// The scheduler's shared-IO batch window, when batching is enabled.
    pub batch_window: Option<SimTime>,
}

impl BacklogSnapshot {
    /// Total queued (not yet dispatched) requests across all channels.
    /// Speculative jobs are **not** counted — a snapshot covers demand
    /// lanes only
    /// ([`IoScheduler::speculative_backlog_bytes`](super::IoScheduler::speculative_backlog_bytes)
    /// labels the speculative class separately).
    pub fn queued_requests(&self) -> usize {
        self.channels.iter().map(|c| c.queued.len()).sum()
    }

    /// Total serialized bytes queued across all channels (demand only).
    pub fn queued_bytes(&self) -> u64 {
        self.channels.iter().flat_map(|c| &c.queued).map(|q| q.bytes).sum()
    }
}

/// Prices the copied-out queues `lanes` into a snapshot. A request whose
/// size lookup fails is reported with zero bytes; its own dispatch will
/// surface the error on its lane.
pub(super) fn assemble(
    lanes: Vec<QueuedLane>,
    batch_window: Option<SimTime>,
    source: &dyn ShardSource,
    flash: FlashModel,
) -> BacklogSnapshot {
    let price = |req: &LayerRequest, stripe: u16| {
        let sizes = req.items.iter().filter_map(|&(slice, bw)| {
            source.size_bytes(ShardKey::new(ShardId::new(req.layer, slice), bw)).ok()
        });
        let bytes: u64 = sizes.sum();
        let service = if bytes > 0 { flash.request_delay(bytes) } else { SimTime::ZERO };
        // The stripe folded in: equal `sig`s are identical bytes on the
        // same device channel (see [`QueuedIo::sig`]).
        QueuedIo { sig: req.content_sig().wrapping_add(stripe as u64), bytes, service }
    };
    let channels = lanes
        .into_iter()
        .map(|lane| ChannelBacklog {
            channel: lane.id,
            arrival: lane.arrival,
            effective_arrival: lane.effective_arrival,
            inflight: lane.inflight,
            queued: lane.requests.iter().map(|req| price(req, lane.stripe)).collect(),
        })
        .collect();
    BacklogSnapshot { channels, batch_window }
}

#[cfg(test)]
mod tests {
    use sti_device::{DeviceTopology, SimTime};

    use super::super::tests::{paused_sched, request};
    use crate::batcher::BatchPolicy;

    #[test]
    fn backlog_snapshot_reports_queued_work_per_channel() {
        let sched = paused_sched(BatchPolicy::from_window_us(500), DeviceTopology::single());
        let a = sched.channel_at(SimTime::ZERO);
        let b = sched.channel_at(SimTime::from_us(400));
        a.request(request(0, 0)).unwrap();
        a.request(request(1, 0)).unwrap();
        b.request(request(0, 0)).unwrap();
        let snap = sched.backlog_snapshot();
        assert_eq!(snap.batch_window, Some(SimTime::from_us(500)));
        assert_eq!(snap.channels.len(), 2);
        assert_eq!(snap.queued_requests(), 3);
        assert!(snap.queued_bytes() > 0);
        let (ca, cb) = (&snap.channels[0], &snap.channels[1]);
        assert_eq!((ca.channel, ca.queued.len()), (a.id(), 2));
        assert_eq!((cb.channel, cb.queued.len()), (b.id(), 1));
        assert_eq!(cb.effective_arrival, SimTime::from_us(400));
        // Identical requests carry identical signatures; distinct layers
        // differ — the batchability identity the gate's prediction uses.
        assert_eq!(ca.queued[0].sig, cb.queued[0].sig);
        assert_ne!(ca.queued[0].sig, ca.queued[1].sig);
        assert_eq!(ca.queued[0].bytes, cb.queued[0].bytes);
        assert!(ca.queued[0].service > SimTime::ZERO);
        // Drained queue, empty snapshot.
        sched.resume_dispatch();
        for ch in [&a, &b] {
            ch.recv().unwrap();
        }
        a.recv().unwrap();
        let drained = sched.backlog_snapshot();
        assert_eq!(drained.queued_requests(), 0);
        sched.shutdown();
    }
}
