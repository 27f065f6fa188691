//! Discrete-event simulation of the contended flash device: one FIFO
//! single-server queue per *device channel*.
//!
//! The uncontended track of the dual-track accounting model charges each
//! engagement the device-model delay of its own requests in isolation; this
//! module is the **contended track**, and the only implementation of it.
//! Real flash exposes `C` independent channels (a [`DeviceTopology`]);
//! callers submit [`FlashJob`]s — one per dispatched layer request,
//! carrying the simulated arrival time and the device-model service time —
//! on a channel, and [`TopologyQueueSim::run`] serves each channel in
//! `(arrival, submission)` order, producing per-job start/completion times,
//! busy time, and the maximum queue depth observed. Channels share no
//! state, so they serve concurrently and a dispatch striped across
//! channels overlaps where one channel would queue. A job's submission
//! index is its sequence number on every channel, so completions merged
//! across channels stay ordered by one submission clock. ("Device channel"
//! means a hardware lane of the flash package, not an engagement's
//! per-session IO lane — `IoChannel` in `sti-storage` — which fans its
//! requests out across device channels according to placement.)
//!
//! **One fold, two callers.** The single-server discipline lives in one
//! function, [`serve_channel`]: `start = max(arrival, server_free)` over a
//! channel's jobs in service order, with busy time, makespan and depth
//! accounted on the way. [`TopologyQueueSim::run`] calls it over its
//! submitted jobs and materialises a [`CompletedJob`] per recipient. The
//! serving runtime's contention ledger (`sti-pipeline`) calls it over
//! `sti_storage::IoScheduler`'s recorded dispatch log *by index*, where
//! the log lies, keeping only each job's `(start, completion)`: a report
//! copies no job and builds no completion list, and it quotes the
//! contended latency each engagement *would* have seen on real hardware
//! from the same arithmetic the simulator runs, and renders the flash
//! tracks of its span export straight from that replay. So a
//! [`TopologyReport`] is the simulator's output only, which the ledger's
//! and the planner's oracle tests compare against.
//!
//! Predictions do not come here. `sti_planner::ServingMix` knows every
//! job's arrival before serving any (batching groups raise arrivals, but
//! no completion feeds back into one), so it folds each channel's queue in
//! closed form: the Lindley recursion `free = max(free, arrival) + service`
//! over the jobs in `(arrival, submission)` order, which is
//! [`serve_channel`] with nothing recorded. Integer `SimTime` makes the
//! fold exact, and the planner's tests hold it equal to this simulator in
//! both sharing modes.
//!
//! Service times are computed by the caller, which is where the opt-in
//! DRAM-residency mode lives (on the measured path, in the ledger): bytes
//! served from a host-side shard cache can be charged against a DRAM-speed
//! [`FlashModel`] ([`FlashModel::dram_residency`]) instead of flash — a
//! service-time tier, not a separate queue.
//!
//! **Shared (batched) jobs.** The IO scheduler can coalesce identical layer
//! requests from co-resident engagements into one flash job that fans its
//! payload out to every member. [`TopologyQueueSim::submit_shared_on`]
//! models that: the job's service time is charged **once**, and the report
//! carries a mirrored [`CompletedJob`] per extra recipient with the same
//! start/completion times — so per-engagement pipeline replays see the
//! shared completion while busy-time accounting pays for a single read.
//!
//! **Determinism.** The run is a pure function of the submitted jobs.
//!
//! [`DeviceTopology`]: crate::topology::DeviceTopology
//! [`FlashModel`]: crate::flash::FlashModel
//! [`FlashModel::dram_residency`]: crate::flash::FlashModel::dram_residency

use std::borrow::Borrow;

use crate::clock::SimTime;
use crate::topology::DeviceTopology;

/// One request on a contended flash channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashJob {
    /// The engagement (channel) the job belongs to.
    pub engagement: u64,
    /// Simulated time the request reaches the flash queue.
    pub arrival: SimTime,
    /// Uncontended device-model service time of the request.
    pub service: SimTime,
}

/// A serviced job with its contended timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedJob {
    /// The engagement the job belongs to.
    pub engagement: u64,
    /// Submission sequence number (ties on arrival are served in
    /// submission order, which is what preserves per-engagement FIFO).
    pub seq: usize,
    /// When the request arrived.
    pub arrival: SimTime,
    /// When the flash started serving it.
    pub start: SimTime,
    /// When the flash finished serving it.
    pub completion: SimTime,
}

impl CompletedJob {
    /// Time the job waited behind other work before service began.
    pub fn queue_delay(&self) -> SimTime {
        self.start - self.arrival
    }
}

/// One device channel's outcome of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlashQueueReport {
    /// Jobs in service order, each shared job followed by its mirrors.
    pub completions: Vec<CompletedJob>,
    /// Total time the channel spent serving (the sum of service times — the
    /// conservation law the property tests pin down).
    pub busy: SimTime,
    /// Completion time of the last job.
    pub makespan: SimTime,
    /// Largest number of jobs queued or in service at any service start.
    pub max_depth: usize,
}

/// A submitted job: its device channel and the extra recipients of a
/// shared read.
#[derive(Debug, Clone)]
struct Submitted {
    channel: u16,
    job: FlashJob,
    extra_recipients: Box<[u64]>,
}

/// A discrete-event queue over a [`DeviceTopology`]: one FIFO single-server
/// queue per device channel, under one submission clock.
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
    /// Jobs in submission order: a job's index is its sequence number.
    jobs: Vec<Submitted>,
}

impl TopologyQueueSim {
    /// An empty simulator over `topology`.
    pub fn new(topology: DeviceTopology) -> Self {
        Self { topology, jobs: Vec::new() }
    }

    /// Submits a job on `device_channel`, returning its sequence number.
    /// Within a channel, jobs with equal arrival times are served in
    /// submission order, so submitting each engagement's requests in issue
    /// order preserves its FIFO contract.
    ///
    /// # Panics
    ///
    /// Panics if `device_channel` is not a channel of the topology.
    pub fn submit_on(&mut self, device_channel: u16, job: FlashJob) -> usize {
        self.submit_shared_on(device_channel, job, &[])
    }

    /// Submits a shared (batched) job on `device_channel`: the flash serves
    /// it once — its service time is charged to busy time once — and on
    /// completion every engagement in `extra_recipients` receives a
    /// mirrored [`CompletedJob`] with the same sequence number, start, and
    /// completion as the primary `job.engagement`.
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
        self.jobs.push(Submitted {
            channel: device_channel,
            job,
            extra_recipients: extra_recipients.into(),
        });
        self.jobs.len() - 1
    }

    /// Serves every submitted job. Discipline, per channel: FIFO by
    /// `(arrival, seq)` — the next job to start is the channel's
    /// earliest-arrived not-yet-served job, ties broken by submission
    /// order. `start = max(arrival, server_free)`.
    pub fn run(&self) -> TopologyReport {
        // Service order: stable by (channel, arrival), so submission order
        // breaks ties and each channel's jobs form one run.
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&seq| (self.jobs[seq].channel, self.jobs[seq].job.arrival));
        let mut channels =
            vec![FlashQueueReport::default(); self.topology.channel_count() as usize];
        for run in order.chunk_by(|&a, &b| self.jobs[a].channel == self.jobs[b].channel) {
            channels[self.jobs[run[0]].channel as usize] = self.serve(run);
        }
        TopologyReport { channels }
    }

    /// One channel's report: [`serve_channel`] over its jobs, each served
    /// job's completion fanned out to its extra recipients.
    fn serve(&self, order: &[usize]) -> FlashQueueReport {
        let mut completions = Vec::new();
        let served = serve_channel(
            order,
            |seq| self.jobs[seq].job.arrival,
            |seq| self.jobs[seq].job.service,
            |seq, start, completion| {
                // A shared job's completion fans out to every extra
                // recipient: same timeline, no extra busy time (the read
                // happened once).
                let Submitted { job, extra_recipients, .. } = &self.jobs[seq];
                let recipients =
                    std::iter::once(job.engagement).chain(extra_recipients.iter().copied());
                completions.extend(recipients.map(|engagement| CompletedJob {
                    engagement,
                    seq,
                    arrival: job.arrival,
                    start,
                    completion,
                }));
            },
        );
        let ChannelService { busy, makespan, max_depth } = served;
        FlashQueueReport { completions, busy, makespan, max_depth }
    }
}

/// What serving one device channel adds up to: its busy time, the
/// completion of its last job and its deepest queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelService {
    /// The sum of the service times.
    pub busy: SimTime,
    /// Completion time of the last job (zero for none).
    pub makespan: SimTime,
    /// Largest number of jobs queued or in service at any service start.
    pub max_depth: usize,
}

/// The single-server FIFO fold — the one every contended replay runs, the
/// simulator's [`TopologyQueueSim::run`] and the serving ledger's in-place
/// replay of a dispatch log alike.
///
/// `order` is one device channel's jobs in service order: ascending
/// arrival, ties in submission order. Each job starts at
/// `max(arrival, server_free)` and completes `service` later; `served`
/// receives every job with its start and completion, in `order`. Jobs are
/// whatever the caller indexes them by, so a caller with its jobs already
/// in a log folds the log where it lies.
pub fn serve_channel<J: Copy>(
    order: &[J],
    arrival: impl Fn(J) -> SimTime,
    service: impl Fn(J) -> SimTime,
    mut served: impl FnMut(J, SimTime, SimTime),
) -> ChannelService {
    let mut out = ChannelService::default();
    let mut server_free = SimTime::ZERO;
    for (done, &job) in order.iter().enumerate() {
        let start = arrival(job).max(server_free);
        let cost = service(job);
        let completion = start + cost;
        server_free = completion;
        out.busy += cost;
        // Depth at this service start: jobs arrived by `start` that have
        // not completed. Earlier jobs in service order all completed by the
        // old `server_free <= start`, so the depth is the arrived count
        // minus the jobs already served (including this one).
        let arrived = order.partition_point(|&j| arrival(j) <= start).max(done + 1);
        out.max_depth = out.max_depth.max(arrived - done);
        served(job, start, completion);
    }
    out.makespan = server_free;
    out
}

/// The pipeline recurrence against *absolute* IO completion times: layer
/// `k`'s computation starts when both layer `k-1`'s computation and layer
/// `k`'s (contended) IO have finished, and takes `comp` — a plan's layers
/// all compute for the same time. Layers without IO (`None`) are ready at
/// `start`. Returns the engagement's end-to-end latency from `start`.
/// `io_ends` is a slice or any iterator over the layers, so a caller that
/// derives each completion as it goes needs no buffer.
pub fn contended_makespan<E: Borrow<Option<SimTime>>>(
    start: SimTime,
    io_ends: impl IntoIterator<Item = E>,
    comp: SimTime,
) -> SimTime {
    let mut prev_comp_end = start;
    for io_end in io_ends {
        let ready = io_end.borrow().unwrap_or(start);
        prev_comp_end = prev_comp_end.max(ready) + comp;
    }
    prev_comp_end.saturating_sub(start)
}

/// The outcome of one run: a [`FlashQueueReport`] per device channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyReport {
    /// Per-channel reports, indexed by device channel.
    pub channels: Vec<FlashQueueReport>,
}

impl TopologyReport {
    /// Total flash busy time across channels (the conservation law: the
    /// sum of service times).
    pub fn busy(&self) -> SimTime {
        self.channels.iter().map(|c| c.busy).sum()
    }

    /// Completion time of the last job on any channel.
    pub fn makespan(&self) -> SimTime {
        self.channels.iter().map(|c| c.makespan).max().unwrap_or(SimTime::ZERO)
    }

    /// Largest per-channel queue depth observed on any channel.
    pub fn max_depth(&self) -> usize {
        self.channels.iter().map(|c| c.max_depth).max().unwrap_or(0)
    }

    /// All completions merged across channels, ordered by `(arrival, seq)`
    /// — the cross-channel analogue of one channel's service order (and
    /// exactly it when `C = 1`).
    pub fn completions(&self) -> Vec<CompletedJob> {
        let mut all: Vec<CompletedJob> =
            self.channels.iter().flat_map(|c| c.completions.iter().copied()).collect();
        all.sort_by_key(|c| (c.arrival, c.seq));
        all
    }

    /// This engagement's completions across every channel, in merged
    /// submission order.
    pub fn completions_of(&self, engagement: u64) -> Vec<CompletedJob> {
        self.completions().into_iter().filter(|c| c.engagement == engagement).collect()
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

    /// One channel: the discipline every channel of a topology runs.
    fn single() -> TopologyQueueSim {
        TopologyQueueSim::new(DeviceTopology::single())
    }

    fn last_completion_of(r: &TopologyReport, engagement: u64) -> Option<SimTime> {
        r.completions_of(engagement).iter().map(|c| c.completion).max()
    }

    #[test]
    fn contended_makespan_matches_hand_computation() {
        let ms = SimTime::from_ms;
        // Two layers, IO ends at 10 and 40, compute 5 each.
        let got = contended_makespan(SimTime::ZERO, [Some(ms(10)), Some(ms(40))], ms(5));
        // L0: comp 10..15; L1: waits for IO at 40, comp 40..45.
        assert_eq!(got, ms(45));
        // Preloaded second layer: ready immediately.
        let got = contended_makespan(SimTime::ZERO, [Some(ms(10)), None], ms(5));
        assert_eq!(got, ms(20));
    }

    #[test]
    fn single_engagement_serves_back_to_back() {
        let mut sim = single();
        for _ in 0..3 {
            sim.submit_on(0, job(0, 0, 5));
        }
        let r = sim.run();
        assert_eq!(r.busy(), SimTime::from_ms(15));
        assert_eq!(r.makespan(), SimTime::from_ms(15));
        let ends: Vec<u64> = r.completions().iter().map(|c| c.completion.as_us() / 1000).collect();
        assert_eq!(ends, vec![5, 10, 15]);
    }

    #[test]
    fn contention_delays_the_second_engagement() {
        let mut sim = single();
        sim.submit_on(0, job(0, 0, 10));
        sim.submit_on(0, job(1, 0, 10));
        let r = sim.run();
        let a = last_completion_of(&r, 0).unwrap();
        let b = last_completion_of(&r, 1).unwrap();
        assert_eq!(a, SimTime::from_ms(10));
        assert_eq!(b, SimTime::from_ms(20), "engagement 1 queues behind 0");
        assert_eq!(r.max_depth(), 2);
    }

    #[test]
    fn late_arrival_does_not_queue() {
        let mut sim = single();
        sim.submit_on(0, job(0, 0, 5));
        sim.submit_on(0, job(1, 50, 5));
        let r = sim.run();
        assert_eq!(r.completions()[1].queue_delay(), SimTime::ZERO);
        assert_eq!(r.makespan(), SimTime::from_ms(55));
        assert_eq!(r.max_depth(), 1, "no overlap, no queueing");
    }

    #[test]
    fn equal_arrivals_serve_in_submission_order() {
        let mut sim = single();
        for e in [2u64, 0, 1] {
            sim.submit_on(0, job(e, 0, 1));
        }
        let r = sim.run();
        let order: Vec<u64> = r.completions().iter().map(|c| c.engagement).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn per_engagement_fifo_is_preserved_under_interleaving() {
        let mut sim = single();
        // Round-robin interleave of two engagements, 3 jobs each.
        for k in 0..3u64 {
            sim.submit_on(0, job(0, k, 4));
            sim.submit_on(0, job(1, k, 4));
        }
        let r = sim.run();
        for e in [0u64, 1] {
            let mine = r.completions_of(e);
            assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq && w[0].completion <= w[1].start));
        }
    }

    #[test]
    fn contended_latency_is_never_below_service() {
        let mut sim = single();
        for e in 0..4u64 {
            sim.submit_on(0, job(e, 0, 3));
            sim.submit_on(0, job(e, 1, 2));
        }
        let r = sim.run();
        for (c, j) in r.completions().iter().map(|c| (c, &sim.jobs[c.seq].job)) {
            assert!(c.completion - c.arrival >= j.service);
            assert_eq!(c.completion - c.start, j.service);
        }
    }

    #[test]
    fn shared_jobs_charge_once_and_mirror_completions() {
        let mut sim = single();
        // One batched job fanned out to engagements {0, 1, 2}, then an
        // exclusive job for engagement 3 behind it.
        sim.submit_shared_on(0, job(0, 0, 10), &[1, 2]);
        sim.submit_on(0, job(3, 0, 5));
        let r = sim.run();
        assert_eq!(r.busy(), SimTime::from_ms(15), "shared service is charged once");
        assert_eq!(r.completions().len(), 4, "one mirror per extra recipient");
        for e in [0u64, 1, 2] {
            let mine = r.completions_of(e);
            assert_eq!(mine.len(), 1);
            assert_eq!(mine[0].start, SimTime::ZERO);
            assert_eq!(mine[0].completion, SimTime::from_ms(10), "recipients share the timeline");
        }
        assert_eq!(last_completion_of(&r, 3), Some(SimTime::from_ms(15)));
        assert_eq!(r.makespan(), SimTime::from_ms(15));
    }

    #[test]
    fn shared_jobs_preserve_member_fifo() {
        let mut sim = single();
        // Engagement 1 rides engagement 0's batches for two layers.
        sim.submit_shared_on(0, job(0, 0, 4), &[1]);
        sim.submit_shared_on(0, job(0, 0, 4), &[1]);
        let r = sim.run();
        let mine = r.completions_of(1);
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert!(mine[0].completion <= mine[1].start);
    }

    #[test]
    fn empty_sim_reports_zeroes() {
        for channels in [1, 3] {
            let r = TopologyQueueSim::new(DeviceTopology::with_channels(channels)).run();
            assert_eq!(r.busy(), SimTime::ZERO);
            assert_eq!(r.makespan(), SimTime::ZERO);
            assert_eq!(r.max_depth(), 0);
            assert!(r.completions().is_empty());
        }
    }

    #[test]
    fn busy_time_is_conserved() {
        let mut sim = single();
        let services = [7u64, 3, 11, 2, 5];
        for (i, &s) in services.iter().enumerate() {
            sim.submit_on(0, job(i as u64 % 2, (i as u64) * 2, s));
        }
        let r = sim.run();
        assert_eq!(r.busy(), SimTime::from_ms(services.iter().sum()));
        assert!(r.makespan() >= r.busy(), "one server can never finish before its busy time");
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
    fn merged_completions_carry_submission_sequences() {
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
    fn two_channel_golden_timeline() {
        // Hand-computed, so the arithmetic keeps a pin that does not go
        // through another simulator. Channel 0 serves a shared job, two
        // jobs that queue behind it, and a late arrival after an idle gap;
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
}
