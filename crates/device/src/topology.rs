//! Multi-channel device topology for the contended track.
//!
//! [`FlashQueueSim`] is *one* contended flash channel: a single-server
//! queue. Real flash exposes `C` independent channels (and a DRAM tier
//! behind the shard cache); a [`DeviceTopology`] names that shape and a
//! [`TopologyQueueSim`] is exactly `C` × [`FlashQueueSim`]:
//!
//! - **`C` per-channel FIFO queues.** Each device channel *is* a
//!   [`FlashQueueSim`] — global FIFO by `(arrival, submission)` within the
//!   channel. Channels share no state, so they serve concurrently and a
//!   dispatch striped across channels overlaps where the single-channel
//!   model would queue.
//! - **Tiered service times.** The caller computes each job's service time
//!   the same way it always has: against the flash
//!   [`FlashModel`](crate::flash::FlashModel), or against the cheaper
//!   [`FlashModel::dram_residency`](crate::flash::FlashModel::dram_residency)
//!   tier for bytes resident in the host-side shard cache. The topology
//!   queues whatever tier the caller priced — the tiers are service-time
//!   classes, not separate queues.
//!
//! The only thing the topology adds to its channels is one submission
//! clock: [`TopologyQueueSim::run`] runs each channel's queue in closed
//! form and rewrites its channel-local sequence numbers to *global*
//! submission sequences, so completions merged across channels stay
//! ordered by `(arrival, global seq)`.
//!
//! **Determinism.** The run is a pure function of the submitted jobs, and
//! for `C = 1` global and channel-local sequences coincide, so the
//! single-channel report equals [`FlashQueueSim::run`]'s as a value.
//!
//! **Naming.** "Device channel" here is a hardware lane of the flash
//! package — distinct from the *engagement IO lanes* (`IoChannel` in
//! `sti-storage`) that carry one engagement's request stream to the
//! scheduler. An engagement's lane fans its requests out
//! across device channels according to placement.

use std::hash::{Hash, Hasher};

use crate::flash_queue::{CompletedJob, FlashJob, FlashQueueReport, FlashQueueSim};
use crate::SimTime;
use sti_obs::ObsSink;
use sti_quant::Bitwidth;

/// The device's contended-path shape: how many independent flash channels
/// it exposes.
///
/// Placement maps a request to a channel via [`DeviceTopology::channel_for`]
/// — a pure function of the request's content signature and the session's
/// stripe offset, so byte-identical requests from different sessions land
/// on the *same* channel (and stay batchable) unless their stripes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTopology {
    channels: u16,
}

impl Default for DeviceTopology {
    fn default() -> Self {
        Self::single()
    }
}

impl DeviceTopology {
    /// The legacy shape: one flash channel. The contended track under this
    /// topology is one [`FlashQueueSim`].
    pub fn single() -> Self {
        Self { channels: 1 }
    }

    /// A topology with `channels` independent flash channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(channels: u16) -> Self {
        assert!(channels >= 1, "a device exposes at least one channel");
        Self { channels }
    }

    /// Number of flash channels.
    pub fn channel_count(&self) -> u16 {
        self.channels
    }

    /// Whether this is the legacy single-channel shape.
    pub fn is_single(&self) -> bool {
        self.channels == 1
    }

    /// The device channel a request is placed on: a pure function of the
    /// request's content signature and the session's stripe offset.
    /// `C = 1` always maps to channel 0, so the single-channel topology
    /// has no placement freedom — exactly today's model.
    ///
    /// The stripe folds in *before* mixing, so a stripe shift is exactly a
    /// signature shift (`channel_for(sig, s) == channel_for(sig + s, 0)`)
    /// and a load's stripe-folded signatures recover the placement.
    pub fn channel_for(&self, content_sig: u64, stripe: u16) -> u16 {
        // Content signatures are structured (layer indices, shard slices),
        // so a bare modulus aliases whole signature classes onto one
        // channel at small C; finalize through a splitmix64 mix first.
        let mut z = content_sig.wrapping_add(stripe as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.channels as u64) as u16
    }
}

/// The content signature [`DeviceTopology::channel_for`] places: a hash of
/// one layer read's layer and `(slice, bits)` items, in order. Equal
/// signatures read identical bytes, so queued requests and plan-derived IO
/// jobs agree on batchability.
pub fn content_sig(layer: u16, items: impl IntoIterator<Item = (u16, Bitwidth)>) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    layer.hash(&mut hasher);
    for (slice, bw) in items {
        (slice, bw.bits()).hash(&mut hasher);
    }
    hasher.finish()
}

/// Whether co-resident engagements' byte-identical reads share one flash
/// job: the IO scheduler's batching policy and the contended predictors'
/// sharing mode are this one value, so the two cannot disagree on which
/// reads coalesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoSharing {
    /// Every engagement pays for its own reads (the default).
    #[default]
    Exclusive,
    /// Byte-identical layer reads of engagements whose arrivals fall within
    /// this window of each other coalesce into one flash job.
    Batched(SimTime),
}

impl IoSharing {
    /// The batching arrival window, when reads are shared.
    pub fn window(&self) -> Option<SimTime> {
        match self {
            IoSharing::Exclusive => None,
            IoSharing::Batched(w) => Some(*w),
        }
    }

    /// The window test: whether engagements arriving at `a` and `b` may
    /// share a read, `|a − b| ≤ window` (never, when exclusive).
    pub fn shares(&self, a: SimTime, b: SimTime) -> bool {
        self.window().is_some_and(|w| a.max(b) - a.min(b) <= w)
    }
}

/// A multi-channel queue over a [`DeviceTopology`]: one [`FlashQueueSim`]
/// per device channel under one global submission clock.
///
/// ```
/// use sti_device::{DeviceTopology, FlashJob, SimTime, TopologyQueueSim};
///
/// let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(2));
/// let job = |e| FlashJob { engagement: e, arrival: SimTime::ZERO, service: SimTime::from_ms(10) };
/// sim.submit_on(0, job(0));
/// sim.submit_on(1, job(1));
/// let report = sim.run();
/// // Different channels: neither engagement queues behind the other.
/// assert_eq!(report.makespan(), SimTime::from_ms(10));
/// assert_eq!(report.busy(), SimTime::from_ms(20));
/// ```
#[derive(Debug, Clone)]
pub struct TopologyQueueSim {
    topology: DeviceTopology,
    queues: Vec<FlashQueueSim>,
    /// Per channel: channel-local submission index → global submission
    /// sequence. The report quotes global sequences so merged
    /// per-engagement completions stay ordered by one submission clock
    /// across channels.
    global: Vec<Vec<usize>>,
    submitted: usize,
}

impl TopologyQueueSim {
    /// An empty simulator over `topology`.
    pub fn new(topology: DeviceTopology) -> Self {
        let channels = topology.channel_count() as usize;
        Self {
            topology,
            queues: vec![FlashQueueSim::new(); channels],
            global: vec![Vec::new(); channels],
            submitted: 0,
        }
    }

    /// Submits a job on `device_channel`, returning its global submission
    /// sequence. Within a channel, jobs with equal arrival times are
    /// served in submission order (the per-channel FIFO contract).
    ///
    /// # Panics
    ///
    /// Panics if `device_channel` is not a channel of the topology.
    pub fn submit_on(&mut self, device_channel: u16, job: FlashJob) -> usize {
        self.submit_shared_on(device_channel, job, &[])
    }

    /// Submits a shared (batched) job on `device_channel`: served once,
    /// with a mirrored [`CompletedJob`] per extra recipient — the contract
    /// of [`FlashQueueSim::submit_shared`], per channel.
    ///
    /// # Panics
    ///
    /// Panics if `device_channel` is not a channel of the topology.
    pub fn submit_shared_on(
        &mut self,
        device_channel: u16,
        job: FlashJob,
        extra_recipients: &[u64],
    ) -> usize {
        let channels = self.topology.channel_count();
        assert!(
            device_channel < channels,
            "device channel {device_channel} out of range: the topology has {channels} channel(s)"
        );
        let c = device_channel as usize;
        self.queues[c].submit_shared(job, extra_recipients);
        let seq = self.submitted;
        self.global[c].push(seq);
        self.submitted += 1;
        seq
    }

    /// Serves every submitted job: each channel's [`FlashQueueSim::run`],
    /// with completion sequences rewritten from channel-local to global.
    pub fn run(&self) -> TopologyReport {
        let channels = self
            .queues
            .iter()
            .zip(&self.global)
            .map(|(queue, global)| {
                let mut report = queue.run();
                for done in &mut report.completions {
                    done.seq = global[done.seq];
                }
                report
            })
            .collect();
        TopologyReport { channels }
    }
}

/// The outcome of one topology run: a [`FlashQueueReport`] per device
/// channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyReport {
    /// Per-channel reports, indexed by device channel. Completion `seq`s
    /// are *global* submission sequences (for `C = 1` they coincide with
    /// channel-local ones, so the report equals [`FlashQueueSim`]'s).
    pub channels: Vec<FlashQueueReport>,
}

impl TopologyReport {
    /// The single channel's report — the legacy view (`C = 1`).
    pub fn single(&self) -> &FlashQueueReport {
        assert_eq!(self.channels.len(), 1, "single() on a multi-channel report");
        &self.channels[0]
    }

    /// Total flash busy time across channels (the conservation law: the
    /// sum of service times).
    pub fn busy(&self) -> SimTime {
        self.channels.iter().map(|c| c.busy).fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Completion time of the last job on any channel.
    pub fn makespan(&self) -> SimTime {
        self.channels.iter().map(|c| c.makespan).max().unwrap_or(SimTime::ZERO)
    }

    /// Largest per-channel queue depth observed on any channel.
    pub fn max_depth(&self) -> usize {
        self.channels.iter().map(|c| c.max_depth).max().unwrap_or(0)
    }

    /// All completions merged across channels, ordered by
    /// `(arrival, global seq)` — the cross-channel analogue of the
    /// single-channel service order (and exactly it when `C = 1`).
    pub fn completions(&self) -> Vec<CompletedJob> {
        let mut all: Vec<CompletedJob> =
            self.channels.iter().flat_map(|c| c.completions.iter().copied()).collect();
        all.sort_by_key(|c| (c.arrival, c.seq));
        all
    }

    /// This engagement's completions across every channel, in merged
    /// submission order.
    pub fn completions_of(&self, engagement: u64) -> Vec<CompletedJob> {
        let mut mine: Vec<CompletedJob> = self
            .channels
            .iter()
            .flat_map(|c| c.completions.iter().copied())
            .filter(|c| c.engagement == engagement)
            .collect();
        mine.sort_by_key(|c| (c.arrival, c.seq));
        mine
    }

    /// Emits every channel's timeline as virtual-clock spans: device
    /// channel `c`'s waits/services/depth go to flash track `c`, so the
    /// Chrome-trace export shows one row per device channel. `C = 1`
    /// emits exactly the legacy single-track stream.
    pub fn emit_spans(&self, sink: &ObsSink) {
        for (c, report) in self.channels.iter().enumerate() {
            report.emit_spans(sink, c as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(engagement: u64, arrival_ms: u64, service_ms: u64) -> FlashJob {
        FlashJob {
            engagement,
            arrival: SimTime::from_ms(arrival_ms),
            service: SimTime::from_ms(service_ms),
        }
    }

    #[test]
    fn single_channel_topology_matches_flash_queue_sim_bitwise() {
        let jobs =
            [job(0, 0, 5), job(1, 0, 7), job(0, 3, 2), job(2, 20, 1), job(1, 20, 4), job(0, 19, 3)];
        let mut legacy = FlashQueueSim::new();
        let mut topo = TopologyQueueSim::new(DeviceTopology::single());
        for (i, j) in jobs.iter().enumerate() {
            if i == 1 {
                legacy.submit_shared(*j, &[7, 8]);
                topo.submit_shared_on(0, *j, &[7, 8]);
            } else {
                legacy.submit(*j);
                topo.submit_on(0, *j);
            }
        }
        let want = legacy.run();
        let got = topo.run();
        assert_eq!(got.channels.len(), 1);
        assert_eq!(*got.single(), want, "C = 1 is bit-identical to the legacy simulator");
        assert_eq!(got.busy(), want.busy);
        assert_eq!(got.makespan(), want.makespan);
        assert_eq!(got.max_depth(), want.max_depth);
        assert_eq!(got.completions(), want.completions);
        for e in [0u64, 1, 2, 7, 8] {
            assert_eq!(got.completions_of(e), want.completions_of(e));
        }
    }

    #[test]
    fn channels_serve_concurrently() {
        let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(2));
        sim.submit_on(0, job(0, 0, 10));
        sim.submit_on(1, job(1, 0, 10));
        let r = sim.run();
        assert_eq!(r.makespan(), SimTime::from_ms(10), "no cross-channel queueing");
        assert_eq!(r.busy(), SimTime::from_ms(20));
        assert_eq!(r.max_depth(), 1);
        for e in [0u64, 1] {
            assert_eq!(r.completions_of(e)[0].queue_delay(), SimTime::ZERO);
        }
    }

    #[test]
    fn within_a_channel_the_fifo_discipline_is_unchanged() {
        let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(3));
        sim.submit_on(2, job(0, 0, 10));
        sim.submit_on(2, job(1, 0, 10));
        let r = sim.run();
        assert_eq!(r.completions_of(1)[0].queue_delay(), SimTime::from_ms(10));
        assert_eq!(r.makespan(), SimTime::from_ms(20));
        assert!(r.channels[0].completions.is_empty());
    }

    #[test]
    fn merged_completions_carry_global_sequences() {
        let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(2));
        let s0 = sim.submit_on(0, job(0, 0, 5));
        let s1 = sim.submit_on(1, job(0, 0, 5));
        let s2 = sim.submit_on(0, job(0, 1, 5));
        assert_eq!((s0, s1, s2), (0, 1, 2));
        let mine = sim.run().completions_of(0);
        let seqs: Vec<usize> = mine.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "submission order across channels");
    }

    #[test]
    fn channel_for_is_stable_and_covers_all_channels() {
        let single = DeviceTopology::single();
        for sig in 0..64u64 {
            assert_eq!(single.channel_for(sig, 0), 0);
            assert_eq!(single.channel_for(sig, 9), 0, "C = 1 has no placement freedom");
        }
        let quad = DeviceTopology::with_channels(4);
        // Same signature + same stripe → same channel (batching contract);
        // a stripe shift moves the whole placement by a constant.
        for sig in 0..64u64 {
            assert_eq!(quad.channel_for(sig, 1), quad.channel_for(sig + 1, 0));
        }
        let hit: std::collections::HashSet<u16> =
            (0..64u64).map(|sig| quad.channel_for(sig, 0)).collect();
        assert_eq!(hit.len(), 4, "consecutive signatures cover every channel");
    }

    #[test]
    fn the_sharing_window_is_closed_and_symmetric() {
        let us = SimTime::from_us;
        let batched = IoSharing::Batched(us(500));
        assert!(batched.shares(us(100), us(600)), "exactly the window apart shares");
        assert!(batched.shares(us(600), us(100)), "the test is symmetric");
        assert!(!batched.shares(us(0), us(501)));
        assert!(!IoSharing::Exclusive.shares(us(0), us(0)), "exclusive never shares");
    }

    #[test]
    fn two_channel_golden_timeline() {
        // Hand-computed, so the arithmetic keeps a pin that does not go
        // through `FlashQueueSim`. Channel 0 serves a shared job, two jobs
        // that queue behind it, and a late arrival after an idle gap;
        // channel 1 serves two same-instant jobs back to back.
        let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(2));
        assert_eq!(sim.submit_shared_on(0, job(0, 0, 5), &[7]), 0);
        assert_eq!(sim.submit_on(1, job(2, 0, 6)), 1);
        assert_eq!(sim.submit_on(0, job(1, 2, 4)), 2);
        assert_eq!(sim.submit_on(1, job(1, 0, 2)), 3);
        assert_eq!(sim.submit_on(0, job(3, 3, 1)), 4);
        assert_eq!(sim.submit_on(0, job(0, 30, 3)), 5);
        let done = |engagement, seq, arrival, start, completion| CompletedJob {
            engagement,
            seq,
            arrival: SimTime::from_ms(arrival),
            start: SimTime::from_ms(start),
            completion: SimTime::from_ms(completion),
        };
        let r = sim.run();
        assert_eq!(
            r.channels[0].completions,
            vec![
                done(0, 0, 0, 0, 5),
                done(7, 0, 0, 0, 5), // the shared job's mirror
                done(1, 2, 2, 5, 9),
                done(3, 4, 3, 9, 10),
                done(0, 5, 30, 30, 33), // late arrival: the channel idled
            ]
        );
        assert_eq!(r.channels[1].completions, vec![done(2, 1, 0, 0, 6), done(1, 3, 0, 6, 8)]);
        assert_eq!(
            (r.channels[0].busy, r.channels[1].busy),
            (SimTime::from_ms(13), SimTime::from_ms(8))
        );
        assert_eq!(
            (r.channels[0].makespan, r.channels[1].makespan),
            (SimTime::from_ms(33), SimTime::from_ms(8))
        );
        assert_eq!((r.channels[0].max_depth, r.channels[1].max_depth), (2, 2));
        assert_eq!(r.busy(), SimTime::from_ms(21));
        assert_eq!(r.makespan(), SimTime::from_ms(33));
        assert_eq!(r.max_depth(), 2);
        // Engagement 1 spans both channels; merged order is (arrival, seq).
        assert_eq!(r.completions_of(1), vec![done(1, 3, 0, 6, 8), done(1, 2, 2, 5, 9)]);
    }

    #[test]
    #[should_panic(expected = "device channel 2 out of range: the topology has 2 channel(s)")]
    fn submitting_on_a_channel_the_topology_lacks_panics_readably() {
        TopologyQueueSim::new(DeviceTopology::with_channels(2)).submit_on(2, job(0, 0, 1));
    }

    #[test]
    fn empty_topology_reports_zeroes() {
        let r = TopologyQueueSim::new(DeviceTopology::with_channels(3)).run();
        assert_eq!(r.busy(), SimTime::ZERO);
        assert_eq!(r.makespan(), SimTime::ZERO);
        assert_eq!(r.max_depth(), 0);
        assert!(r.completions().is_empty());
    }

    #[test]
    fn emitted_spans_use_one_track_per_device_channel() {
        let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(2));
        sim.submit_on(0, job(0, 0, 5));
        sim.submit_on(1, job(1, 0, 5));
        let r = sim.run();
        let sink = ObsSink::ring(1 << 16);
        r.emit_spans(&sink);
        let (events, dropped) = sink.drain();
        assert_eq!(dropped, 0);
        let tracks: Vec<u64> =
            events.iter().filter(|e| e.name == "flash.service").map(|e| e.track).collect();
        assert_eq!(tracks, vec![0, 1], "one flash track per device channel");
    }
}
