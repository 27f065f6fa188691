//! Discrete-event simulation of one contended flash *device channel*.
//!
//! The uncontended track of the dual-track accounting model charges each
//! engagement the device-model delay of its own requests in isolation; this
//! module is the **contended track** of a single-channel device: one
//! single-server queue, and the only implementation of it. (A device with
//! `C` channels hosts one of these per channel — see
//! [`TopologyQueueSim`](crate::topology::TopologyQueueSim), which is how
//! every production caller reaches this code; "device channel" means a
//! hardware lane of the flash package, not an engagement's per-session IO
//! lane in `sti-storage`.) Callers submit [`FlashJob`]s
//! — one per dispatched layer
//! request, carrying the simulated arrival time and the device-model service
//! time — and [`FlashQueueSim::run`] serves them in `(arrival, submission)`
//! order, producing per-job start/completion times, total flash busy time,
//! and the maximum queue depth observed.
//!
//! One producer feeds the simulator, through `TopologyQueueSim`: the
//! **measured** path. `sti_storage::IoScheduler` records its actual
//! dispatch sequence and the serving runtime's contention ledger
//! (`sti-pipeline`, `ContentionLedger::replay` — the one place a dispatch
//! log becomes jobs) replays it, so serving reports can quote the contended
//! latency each engagement *would* have seen on real hardware.
//!
//! Predictions do not come here. `sti_planner::ServingMix` knows every
//! job's arrival before serving any (batching groups raise arrivals, but
//! no completion feeds back into one), so it folds each channel's queue in
//! closed form: the Lindley recursion `free = max(free, arrival) + service`
//! over the jobs in `(arrival, submission)` order, which is this queue's
//! `run` with nothing recorded. Integer `SimTime` makes the fold exact, and
//! the planner's tests hold it equal to this simulator in both sharing
//! modes.
//!
//! Service times are computed by the caller, which is where the opt-in
//! DRAM-residency mode lives (on the measured path, in the ledger): bytes
//! served from a host-side shard cache can
//! be charged against a DRAM-speed [`FlashModel`]
//! ([`FlashModel::dram_residency`]) instead of flash — the
//! capacity-planning experiment the roadmap asks for.
//!
//! **Shared (batched) jobs.** The IO scheduler can coalesce identical layer
//! requests from co-resident engagements into one flash job that fans its
//! payload out to every member. [`FlashQueueSim::submit_shared`] models
//! that: the job's service time is charged **once**, and the report carries
//! a mirrored [`CompletedJob`] per extra recipient with the same
//! start/completion times — so per-engagement pipeline replays see the
//! shared completion while busy-time accounting pays for a single read.
//!
//! [`FlashModel`]: crate::flash::FlashModel
//! [`FlashModel::dram_residency`]: crate::flash::FlashModel::dram_residency

use std::collections::HashMap;

use sti_obs::{ObsSink, SpanArgs, SpanEvent, TrackKind};

use crate::clock::SimTime;

/// One request on the contended flash channel.
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

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashQueueReport {
    /// Jobs in service order.
    pub completions: Vec<CompletedJob>,
    /// Total time the flash spent serving (the sum of service times — the
    /// conservation law the property tests pin down).
    pub busy: SimTime,
    /// Completion time of the last job.
    pub makespan: SimTime,
    /// Largest number of jobs queued or in service at any service start.
    pub max_depth: usize,
}

impl FlashQueueReport {
    /// This engagement's completions, in service (= submission) order.
    pub fn completions_of(&self, engagement: u64) -> Vec<CompletedJob> {
        self.completions.iter().copied().filter(|c| c.engagement == engagement).collect()
    }

    /// When the engagement's last job completed (`None` if it had no jobs).
    pub fn last_completion_of(&self, engagement: u64) -> Option<SimTime> {
        self.completions.iter().filter(|c| c.engagement == engagement).map(|c| c.completion).max()
    }

    /// Emits this run's channel timeline as virtual-clock spans on
    /// [`TrackKind::Flash`] track `track`: a `flash.wait` interval for each
    /// job that queued, a `flash.service` interval per *served* job (shared
    /// jobs once, with their fan-out as an arg — the flash read them once),
    /// and a `flash.depth` counter sampled at every service start. Idle
    /// time is the gaps between service intervals.
    ///
    /// All ticks are simulated µs straight from the report, so the emitted
    /// stream is a pure function of the run.
    pub fn emit_spans(&self, sink: &ObsSink, track: u64) {
        if !sink.enabled() {
            return;
        }
        // Unique served jobs in service order; mirrored completions of a
        // shared job follow their primary and reuse its seq, so collapse
        // them into a fan-out count.
        struct Served {
            seq: usize,
            arrival: SimTime,
            start: SimTime,
            completion: SimTime,
            engagement: u64,
            fanout: u64,
        }
        let mut served: Vec<Served> = Vec::new();
        for c in &self.completions {
            match served.last_mut() {
                Some(last) if last.seq == c.seq => last.fanout += 1,
                _ => served.push(Served {
                    seq: c.seq,
                    arrival: c.arrival,
                    start: c.start,
                    completion: c.completion,
                    engagement: c.engagement,
                    fanout: 1,
                }),
            }
        }
        // Service order is arrival order, so this is already sorted — it
        // answers "how many jobs have arrived by time t" for the depth
        // counter, mirroring the accounting in [`FlashQueueSim::run`].
        let arrivals: Vec<SimTime> = served.iter().map(|j| j.arrival).collect();
        for (done, job) in served.iter().enumerate() {
            let args = SpanArgs::new()
                .with("seq", job.seq as u64)
                .with("engagement", job.engagement)
                .with("fanout", job.fanout);
            if job.start > job.arrival {
                sink.span(
                    SpanEvent::complete(
                        TrackKind::Flash,
                        track,
                        "flash.wait",
                        job.arrival.as_us(),
                        job.start.as_us(),
                    )
                    .with_args(args),
                );
            }
            sink.span(
                SpanEvent::complete(
                    TrackKind::Flash,
                    track,
                    "flash.service",
                    job.start.as_us(),
                    job.completion.as_us(),
                )
                .with_args(args),
            );
            let arrived = arrivals.partition_point(|&a| a <= job.start).max(done + 1);
            sink.span(SpanEvent::counter(
                TrackKind::Flash,
                track,
                "flash.depth",
                job.start.as_us(),
                (arrived - done) as u64,
            ));
        }
    }
}

/// A single-server discrete-event queue over the flash channel.
///
/// ```
/// use sti_device::{FlashJob, FlashQueueSim, SimTime};
///
/// let mut sim = FlashQueueSim::new();
/// sim.submit(FlashJob { engagement: 0, arrival: SimTime::ZERO, service: SimTime::from_ms(10) });
/// sim.submit(FlashJob { engagement: 1, arrival: SimTime::ZERO, service: SimTime::from_ms(10) });
/// let report = sim.run();
/// // The second engagement queues behind the first on the one channel.
/// assert_eq!(report.completions[1].queue_delay(), SimTime::from_ms(10));
/// assert_eq!(report.busy, SimTime::from_ms(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlashQueueSim {
    jobs: Vec<FlashJob>,
    /// Extra recipients of shared (batched) jobs, keyed by job sequence
    /// number: the flash serves the job once, and the report mirrors its
    /// completion to every engagement listed here.
    shared: HashMap<usize, Vec<u64>>,
}

impl FlashQueueSim {
    /// An empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a job, returning its sequence number. Jobs with equal
    /// arrival times are served in submission order, so submitting each
    /// engagement's requests in issue order preserves its FIFO contract.
    pub fn submit(&mut self, job: FlashJob) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Submits a shared (batched) job: the flash serves it once — its
    /// service time is charged to busy time once — and on completion every
    /// engagement in `extra_recipients` receives a mirrored
    /// [`CompletedJob`] with the same sequence number, start, and
    /// completion as the primary `job.engagement`.
    pub fn submit_shared(&mut self, job: FlashJob, extra_recipients: &[u64]) -> usize {
        let seq = self.submit(job);
        if !extra_recipients.is_empty() {
            self.shared.insert(seq, extra_recipients.to_vec());
        }
        seq
    }

    /// Serves every submitted job on the single flash channel.
    ///
    /// Discipline: global FIFO by `(arrival, seq)` — the next job to start
    /// is the earliest-arrived not-yet-served job, ties broken by
    /// submission order. `start = max(arrival, server_free)`.
    pub fn run(&self) -> FlashQueueReport {
        // Service order: stable FIFO by arrival (submission order breaks
        // ties because the sort is stable over submission-ordered input).
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&i| self.jobs[i].arrival);
        // Arrival times alone, sorted, to answer "how many jobs have
        // arrived by time t" when measuring queue depth.
        let arrivals: Vec<SimTime> = order.iter().map(|&i| self.jobs[i].arrival).collect();

        let mut completions = Vec::with_capacity(self.jobs.len());
        let mut busy = SimTime::ZERO;
        let mut max_depth = 0usize;
        let mut server_free = SimTime::ZERO;

        for (served, &idx) in order.iter().enumerate() {
            let job = self.jobs[idx];
            let start = job.arrival.max(server_free);
            let completion = start + job.service;
            server_free = completion;
            busy += job.service;

            // Depth at this service start: jobs arrived by `start` that have
            // not completed. Earlier jobs in service order all completed by
            // the old `server_free <= start`, so the depth is the arrived
            // count minus the jobs already served (including this one).
            let arrived = arrivals.partition_point(|&a| a <= start).max(served + 1);
            let depth = arrived - served;
            max_depth = max_depth.max(depth);

            completions.push(CompletedJob {
                engagement: job.engagement,
                seq: idx,
                arrival: job.arrival,
                start,
                completion,
            });
            // Fan a shared job's completion out to every extra recipient:
            // same timeline, no extra busy time (the read happened once).
            if let Some(recipients) = self.shared.get(&idx) {
                for &engagement in recipients {
                    completions.push(CompletedJob {
                        engagement,
                        seq: idx,
                        arrival: job.arrival,
                        start,
                        completion,
                    });
                }
            }
        }

        let makespan = completions.iter().map(|c| c.completion).max().unwrap_or(SimTime::ZERO);
        FlashQueueReport { completions, busy, makespan, max_depth }
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
    fn single_engagement_serves_back_to_back() {
        let mut sim = FlashQueueSim::new();
        for _ in 0..3 {
            sim.submit(job(0, 0, 5));
        }
        let r = sim.run();
        assert_eq!(r.busy, SimTime::from_ms(15));
        assert_eq!(r.makespan, SimTime::from_ms(15));
        let ends: Vec<u64> = r.completions.iter().map(|c| c.completion.as_us() / 1000).collect();
        assert_eq!(ends, vec![5, 10, 15]);
    }

    #[test]
    fn contention_delays_the_second_engagement() {
        let mut sim = FlashQueueSim::new();
        sim.submit(job(0, 0, 10));
        sim.submit(job(1, 0, 10));
        let r = sim.run();
        let a = r.last_completion_of(0).unwrap();
        let b = r.last_completion_of(1).unwrap();
        assert_eq!(a, SimTime::from_ms(10));
        assert_eq!(b, SimTime::from_ms(20), "engagement 1 queues behind 0");
        assert_eq!(r.max_depth, 2);
    }

    #[test]
    fn late_arrival_does_not_queue() {
        let mut sim = FlashQueueSim::new();
        sim.submit(job(0, 0, 5));
        sim.submit(job(1, 50, 5));
        let r = sim.run();
        assert_eq!(r.completions[1].queue_delay(), SimTime::ZERO);
        assert_eq!(r.makespan, SimTime::from_ms(55));
        assert_eq!(r.max_depth, 1, "no overlap, no queueing");
    }

    #[test]
    fn equal_arrivals_serve_in_submission_order() {
        let mut sim = FlashQueueSim::new();
        for e in [2u64, 0, 1] {
            sim.submit(job(e, 0, 1));
        }
        let r = sim.run();
        let order: Vec<u64> = r.completions.iter().map(|c| c.engagement).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn per_engagement_fifo_is_preserved_under_interleaving() {
        let mut sim = FlashQueueSim::new();
        // Round-robin interleave of two engagements, 3 jobs each.
        for k in 0..3u64 {
            sim.submit(job(0, k, 4));
            sim.submit(job(1, k, 4));
        }
        let r = sim.run();
        for e in [0u64, 1] {
            let mine = r.completions_of(e);
            assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq && w[0].completion <= w[1].start));
        }
    }

    #[test]
    fn contended_latency_is_never_below_service() {
        let mut sim = FlashQueueSim::new();
        for e in 0..4u64 {
            sim.submit(job(e, 0, 3));
            sim.submit(job(e, 1, 2));
        }
        let r = sim.run();
        for (c, j) in r.completions.iter().map(|c| (c, &sim.jobs[c.seq])) {
            assert!(c.completion - c.arrival >= j.service);
            assert_eq!(c.completion - c.start, j.service);
        }
    }

    #[test]
    fn shared_jobs_charge_once_and_mirror_completions() {
        let mut sim = FlashQueueSim::new();
        // One batched job fanned out to engagements {0, 1, 2}, then an
        // exclusive job for engagement 3 behind it.
        sim.submit_shared(job(0, 0, 10), &[1, 2]);
        sim.submit(job(3, 0, 5));
        let r = sim.run();
        assert_eq!(r.busy, SimTime::from_ms(15), "shared service is charged once");
        assert_eq!(r.completions.len(), 4, "one mirror per extra recipient");
        for e in [0u64, 1, 2] {
            let mine = r.completions_of(e);
            assert_eq!(mine.len(), 1);
            assert_eq!(mine[0].start, SimTime::ZERO);
            assert_eq!(mine[0].completion, SimTime::from_ms(10), "recipients share the timeline");
        }
        assert_eq!(r.last_completion_of(3), Some(SimTime::from_ms(15)));
        assert_eq!(r.makespan, SimTime::from_ms(15));
    }

    #[test]
    fn shared_jobs_preserve_member_fifo() {
        let mut sim = FlashQueueSim::new();
        // Engagement 1 rides engagement 0's batches for two layers.
        sim.submit_shared(job(0, 0, 4), &[1]);
        sim.submit_shared(job(0, 0, 4), &[1]);
        let r = sim.run();
        let mine = r.completions_of(1);
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert!(mine[0].completion <= mine[1].start);
    }

    #[test]
    fn empty_sim_reports_zeroes() {
        let r = FlashQueueSim::new().run();
        assert_eq!(r.busy, SimTime::ZERO);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.max_depth, 0);
        assert!(r.completions.is_empty());
    }

    #[test]
    fn emitted_spans_cover_waits_services_and_depth() {
        let mut sim = FlashQueueSim::new();
        sim.submit_shared(job(0, 0, 10), &[1, 2]); // served once, fanout 3
        sim.submit(job(3, 0, 5)); // queues behind the batch
        let r = sim.run();
        let sink = ObsSink::ring(1 << 16);
        r.emit_spans(&sink, 0);
        let (events, dropped) = sink.drain();
        assert_eq!(dropped, 0);
        let services: Vec<_> = events.iter().filter(|e| e.name == "flash.service").collect();
        assert_eq!(services.len(), 2, "shared job serves once");
        assert_eq!(services[0].args.entries()[2], ("fanout", 3));
        let waits: Vec<_> = events.iter().filter(|e| e.name == "flash.wait").collect();
        assert_eq!(waits.len(), 1, "only the second job queued");
        assert_eq!((waits[0].start_us, waits[0].end_us), (0, 10_000));
        let depths: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "flash.depth")
            .map(|e| e.args.entries()[0].1)
            .collect();
        assert_eq!(depths, vec![2, 1]);
        // Null sink records nothing.
        let null = ObsSink::Null;
        r.emit_spans(&null, 0);
        assert!(null.drain().0.is_empty());
    }

    #[test]
    fn busy_time_is_conserved() {
        let mut sim = FlashQueueSim::new();
        let services = [7u64, 3, 11, 2, 5];
        for (i, &s) in services.iter().enumerate() {
            sim.submit(job(i as u64 % 2, (i as u64) * 2, s));
        }
        let r = sim.run();
        assert_eq!(r.busy, SimTime::from_ms(services.iter().sum()));
        assert!(r.makespan >= r.busy, "one server can never finish before its busy time");
    }
}
