//! The contended-track ledger.
//!
//! Alongside the deterministic per-engagement results, the server keeps
//! the dual-track accounting of `sti_storage::scheduler`: the scheduler
//! logs every dispatched request and stops there; the dispatch log is
//! replayed *here* on the per-channel flash queues to quote each
//! engagement's *contended* latency — one job per dispatch at its recorded
//! arrival and device channel, a batched dispatch as one shared job,
//! cache-resident bytes re-priced at DRAM speed under the opt-in residency
//! mode. [`ContentionLedger`] owns the server's half of the accounting —
//! one [`EngagementRecord`] per executed engagement, one [`GateDecision`]
//! per gated one — and the **single replay** both consumers share:
//! [`ContentionLedger::report`] replays the dispatch log in *dispatch
//! order* under the scheduler's lane ids (what the device saw);
//! [`ContentionLedger::spans`] replays it in the *canonical* `(arrival,
//! stable engagement id)` order, which the event and sequential replays of
//! one trace agree on, so the deterministic span tracks export
//! byte-identically. The two orders stay distinct on purpose; only the
//! code is shared.
//!
//! **The replay runs in place.** The log is not copied into a simulator.
//! The replay sorts the events' indices into service order (a `u32` per
//! job) and hands each device channel's run to
//! [`sti_device::serve_channel`], the single-server fold the queue
//! simulator itself runs, which leaves each job's `(start, completion)`
//! at its log index. An engagement's jobs are then found through one
//! sorted `(lane, event)` index per delivery, a batched job's members
//! included, and speculation is priced against the same per-channel busy
//! intervals, read where they lie. No job is copied and no completion list
//! is built, so a report's transient heap is those three arrays and the
//! rows. The span export renders the flash tracks (`flash.wait`,
//! `flash.service`, `flash.depth`, one track per device channel) straight
//! from the same replay, so the log is replayed once and never laid out
//! as a completion list; this module owns that format. The replay the
//! ledger ran before — the log copied into the simulator, a completion
//! list gathered per engagement — survives as the oracle its tests hold
//! the in-place report equal to, on generated logs, and only the tests lay
//! the timeline out in the simulator's report shape.
//!
//! **Invariants.** A session runs its engagements serially, so each
//! session's records and gate decisions are chronological. An engagement
//! whose completed jobs do not line up with its streamed layers (it
//! errored mid-stream, or its lane was torn down early) has no coherent
//! contended timeline and drops out of every replay. Speculative prefetch
//! IO is priced strictly *after* and *against* the demand replay
//! ([`PrefetchContention`]): it adds background rows, never moves a demand
//! latency. Dispatch events arrive as plain data, so the ledger needs
//! neither a model nor a scheduler.
//!
//! **Lock order.** The server lends the scheduler's logs to a replay in
//! place ([`IoScheduler::with_event_logs`](sti_storage::IoScheduler::with_event_logs)),
//! so a report runs under the scheduler's state lock and takes the
//! ledger's engagement and gate locks inside it: scheduler state first,
//! then the ledger's logs, never the reverse. Recording an engagement or a
//! gate decision holds a ledger lock for one push and never waits on the
//! scheduler under it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sti_device::{serve_channel, ChannelService, DeviceTopology, FlashModel, SimTime};
use sti_obs::{SpanArgs, SpanEvent, TrackKind};
use sti_planner::gate::GateDecision;
use sti_planner::{align_io_completions, contended_makespan, LayerIoJob};
use sti_storage::FlashDispatchEvent;
use sti_tensor::math;

/// One engagement on the contended track: the latency it would have seen on
/// the contended flash device (its striped device channels) versus its
/// uncontended outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngagementContention {
    /// The scheduler IO lane (per-engagement channel id) the engagement
    /// streamed through — not a device channel.
    pub channel: u64,
    /// The session (registry token) the engagement belonged to — joins the
    /// report against [`GateDecision::session`].
    pub session: u64,
    /// The deterministic (uncontended) simulated makespan it reported.
    pub uncontended: SimTime,
    /// Its makespan when the recorded dispatch sequence is replayed through
    /// the flash-queue simulator, measured from its first flash service
    /// start (service-onward — the quantity the admission and gate
    /// predictions are held to; see [`EngagementContention::end_to_end`]
    /// for the issue-inclusive number).
    pub contended: SimTime,
    /// The engagement's effective issue time on the simulated timeline:
    /// its session arrival plus any gate delay, advanced past the
    /// session's previous engagement's contended completion (a session
    /// issues its next engagement only once the previous one returned).
    pub issue: SimTime,
    /// Initial queueing: simulated time between [`EngagementContention::issue`]
    /// and the engagement's first flash service start. Zero for engagements
    /// whose window was clean (or that streamed nothing).
    pub initial_queueing: SimTime,
    /// The SLO its session carried, if any.
    pub slo: Option<SimTime>,
}

impl EngagementContention {
    /// Extra latency attributable to co-runners.
    pub fn queueing(&self) -> SimTime {
        self.contended.saturating_sub(self.uncontended)
    }

    /// Issue-to-completion latency: the initial queueing charged from the
    /// per-engagement issue clock plus the service-onward contended
    /// makespan.
    pub fn end_to_end(&self) -> SimTime {
        self.initial_queueing + self.contended
    }

    /// Whether the contended latency met the session SLO (`None` when the
    /// session had none). Service-onward: initial queueing is not counted
    /// (see [`EngagementContention::met_slo_end_to_end`]).
    pub fn met_slo(&self) -> Option<bool> {
        self.slo.map(|slo| self.contended <= slo)
    }

    /// Whether the issue-inclusive latency ([`EngagementContention::end_to_end`])
    /// met the session SLO (`None` when the session had none): the verdict
    /// a client that waited from its issue would give.
    pub fn met_slo_end_to_end(&self) -> Option<bool> {
        self.slo.map(|slo| self.end_to_end() <= slo)
    }
}

/// The contended-track report: per-engagement contended latencies plus
/// queue-level aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Engagements in execution-record order.
    pub engagements: Vec<EngagementContention>,
    /// Total simulated flash busy time across the replay (batched jobs are
    /// served — and charged — once).
    pub flash_busy: SimTime,
    /// Completion time of the last job on the contended queue.
    pub queue_makespan: SimTime,
    /// Deepest the flash queue got during the replay.
    pub max_queue_depth: usize,
    /// Flash jobs that carried more than one engagement's request (zero
    /// with batching off).
    pub batched_dispatches: u64,
    /// Serialized bytes co-resident sessions did **not** re-read from flash
    /// thanks to shared-IO batching.
    pub flash_bytes_saved: u64,
    /// Mean engagements per flash job (1.0 with batching off; up to the
    /// co-resident session count when every dispatch coalesces). Zero when
    /// nothing was dispatched.
    pub mean_batch_occupancy: f64,
    /// Backpressure-gate decisions, ordered by session token (each
    /// session's decisions in engagement order). Empty with the gate off.
    pub gate: Vec<GateDecision>,
    /// Bytes of default-prefix preload the sharing-aware `|S|` search moved
    /// off layers in-window co-residents already stream, summed over
    /// admitted SLO sessions
    /// ([`ServingStats::preload_bytes_reallocated`](crate::server::ServingStats::preload_bytes_reallocated)).
    pub preload_bytes_reallocated: u64,
    /// Speculative prefetch IO priced into the idle windows of the demand
    /// replay above (`None` with the prefetcher off). Speculation is
    /// strictly fenced — demand completions are computed first, from the
    /// demand dispatch log alone — so this block can only *add* background
    /// rows, never move a demand latency.
    pub prefetch: Option<PrefetchContention>,
}

/// Speculative prefetch IO on the contended track, priced honestly into
/// the idle windows of the demand replay: each background job occupies
/// real simulated channel time, but only time the demand timeline left
/// idle — a job preempted by demand work resumes in the next gap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchContention {
    /// Speculative flash jobs dispatched.
    pub jobs: u64,
    /// Bytes the speculation read from flash (cold stages).
    pub speculated_bytes: u64,
    /// Bytes pinned from already-resident blobs at zero flash cost.
    pub pinned_bytes: u64,
    /// Simulated channel time the speculative jobs occupied (all of it
    /// inside demand-idle windows).
    pub busy: SimTime,
    /// Speculative jobs that demand work pushed around: delayed past
    /// their arrival or split across idle windows. Demand never waits for
    /// speculation — preemption only ever runs this direction.
    pub preempted: u64,
    /// Completion time of the last speculative job on its channel.
    pub makespan: SimTime,
}

impl ContentionReport {
    /// Engagements the backpressure gate shed.
    pub fn shed_count(&self) -> u64 {
        self.gate.iter().filter(|d| d.shed).count() as u64
    }

    /// Engagements the gate queue-delayed before executing.
    pub fn queue_delayed(&self) -> u64 {
        self.gate.iter().filter(|d| !d.shed && d.delay > SimTime::ZERO).count() as u64
    }

    /// Gate decisions that came from the second gate pass (an
    /// equal-arrival earliest session re-gated against later-opened
    /// co-arriving load).
    pub fn re_gated_count(&self) -> u64 {
        self.gate.iter().filter(|d| d.re_gated).count() as u64
    }

    /// The largest queue delay the gate applied.
    pub fn max_queue_delay(&self) -> SimTime {
        self.gate.iter().filter(|d| !d.shed).map(|d| d.delay).max().unwrap_or(SimTime::ZERO)
    }
    /// Nearest-rank percentile of contended latencies (`p` in `[0, 1]`), so
    /// always a latency some engagement paid; `p = 0.5` is the lower
    /// median. Zero when no engagements ran.
    pub fn latency_percentile(&self, p: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&p), "percentile must be within [0, 1]");
        if self.engagements.is_empty() {
            return SimTime::ZERO;
        }
        let mut latencies: Vec<SimTime> = self.engagements.iter().map(|e| e.contended).collect();
        latencies.sort_unstable();
        let rank = (math::ceil(p * latencies.len() as f64) as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    }

    /// Fraction of SLO-carrying engagements whose contended latency met the
    /// SLO (`None` when no engagement carried one).
    pub fn slo_hit_rate(&self) -> Option<f64> {
        self.hit_rate(EngagementContention::met_slo)
    }

    /// Fraction of SLO-carrying engagements whose issue-inclusive latency
    /// met the SLO ([`EngagementContention::met_slo_end_to_end`]; `None`
    /// when no engagement carried one). Never above
    /// [`ContentionReport::slo_hit_rate`]: the gap is the SLO engagements
    /// that met their SLO only once initial queueing is left out.
    pub fn slo_hit_rate_end_to_end(&self) -> Option<f64> {
        self.hit_rate(EngagementContention::met_slo_end_to_end)
    }

    fn hit_rate(&self, verdict: impl Fn(&EngagementContention) -> Option<bool>) -> Option<f64> {
        let (met, with_slo) = self
            .engagements
            .iter()
            .filter_map(verdict)
            .fold((0usize, 0usize), |(met, n), hit| (met + usize::from(hit), n + 1));
        (with_slo > 0).then(|| met as f64 / with_slo as f64)
    }
}

/// Prices the recorded speculative dispatches into the **idle windows** of
/// an already-replayed demand timeline: per device channel, a speculative
/// job accumulates service time only while the demand timeline is idle —
/// any demand busy interval overlapping its window pushes it out (counted
/// in `preempted`), never the other way around. Demand completions are
/// inputs here, so speculation cannot move a demand latency by
/// construction; what it *costs* (channel time, flash bytes) is still
/// charged for real. The busy intervals are read off the demand replay's
/// arrays where they lie.
fn price_speculation(spec: &[FlashDispatchEvent], demand: &Timeline<'_>) -> PrefetchContention {
    let mut out = PrefetchContention::default();
    // Each device channel's speculative queue, FIFO by arrival; jobs
    // arriving together keep their log order.
    let mut queue: Vec<u32> = (0..log_index(spec.len())).collect();
    queue.sort_unstable_by_key(|&k| {
        let e = &spec[k as usize];
        (e.device_channel, e.arrival, k)
    });
    let channel_of = |k: u32| spec[k as usize].device_channel;
    for jobs in queue.chunk_by(|&a, &b| channel_of(a) == channel_of(b)) {
        let intervals = demand.busy_intervals(channel_of(jobs[0]));
        // The channel serves its speculative queue FIFO in the gaps, so a
        // job starts no earlier than the previous one finished.
        let mut cursor = SimTime::ZERO;
        for &k in jobs {
            let e = &spec[k as usize];
            let service = e.io_delay;
            let earliest = cursor.max(e.arrival);
            let mut t = earliest;
            let mut rem = service;
            let mut cut = false;
            for (s, end) in intervals.clone() {
                if end <= t || rem == SimTime::ZERO {
                    continue;
                }
                if s >= t + rem {
                    break;
                }
                // Demand occupies part of the window: run `t..s` (if any),
                // then yield until the demand interval ends.
                if s > t {
                    rem = rem.saturating_sub(s.saturating_sub(t));
                }
                t = end;
                cut = true;
            }
            let finish = t + rem;
            out.jobs += 1;
            out.speculated_bytes += e.bytes;
            out.pinned_bytes += e.hit_bytes;
            out.busy += service;
            if cut || finish > earliest + service {
                out.preempted += 1;
            }
            if finish > out.makespan {
                out.makespan = finish;
            }
            cursor = finish;
        }
    }
    out
}

/// A dispatch log's index type: the in-place replay keeps a `u32` per job
/// and per delivery, not a pointer.
fn log_index(len: usize) -> u32 {
    u32::try_from(len).expect("a dispatch log holds fewer than 2^32 events")
}

/// A demand dispatch log replayed on the contended device **in place**:
/// the jobs are the log's events, named by their index, and the replay
/// keeps per job only its place in service order and its `(start,
/// completion)` — no copy of the log and no completion list. Each device
/// channel's run is served by [`serve_channel`], the simulator's own fold.
struct Timeline<'e> {
    events: &'e [FlashDispatchEvent],
    channel_count: u16,
    /// Event indices in service order: channel by channel, each channel's
    /// jobs by arrival, ties in log order.
    order: Vec<u32>,
    /// Each event's `(start, completion)`, at its log index.
    times: Vec<(SimTime, SimTime)>,
    /// Busy time, makespan and deepest queue, per device channel.
    channels: Vec<ChannelService>,
}

impl Timeline<'_> {
    /// The device channel `events[k]` is served on: its recorded channel,
    /// normalized, so a mismatched topology still routes every job.
    fn channel(&self, k: u32) -> u16 {
        self.events[k as usize].device_channel % self.channel_count
    }

    /// Device channel `dc`'s busy intervals, in service order — which is
    /// ascending `(start, completion)` order, since one server's starts
    /// never decrease. Empty for a channel outside the topology.
    fn busy_intervals(&self, dc: u16) -> impl Iterator<Item = (SimTime, SimTime)> + Clone + '_ {
        let lo = self.order.partition_point(|&k| self.channel(k) < dc);
        let hi = self.order.partition_point(|&k| self.channel(k) <= dc);
        self.order[lo..hi].iter().map(|&k| self.times[k as usize])
    }

    fn busy(&self) -> SimTime {
        self.channels.iter().map(|c| c.busy).sum()
    }

    fn makespan(&self) -> SimTime {
        self.channels.iter().map(|c| c.makespan).max().unwrap_or(SimTime::ZERO)
    }

    fn max_depth(&self) -> usize {
        self.channels.iter().map(|c| c.max_depth).max().unwrap_or(0)
    }

    /// Every device channel's timeline as virtual-clock spans on
    /// [`TrackKind::Flash`] track `c` for device channel `c`, so the
    /// Chrome-trace export shows one row per channel: a `flash.wait`
    /// interval for each job that queued, a `flash.service` interval per
    /// served job (a batched job once, its fan-out an arg — the flash read
    /// it once), and a `flash.depth` counter sampled at every service
    /// start. Idle time is the gaps between service intervals. Rendered
    /// straight from the replay: the service order, each job's `(start,
    /// completion)` and each event's fan-out; a job's `seq` is its log
    /// index.
    fn flash_spans(&self) -> Vec<SpanEvent> {
        let mut spans = Vec::with_capacity(3 * self.order.len());
        for run in self.order.chunk_by(|&a, &b| self.channel(a) == self.channel(b)) {
            let track = u64::from(self.channel(run[0]));
            for (done, &k) in run.iter().enumerate() {
                let e = &self.events[k as usize];
                let (start, completion) = self.times[k as usize];
                let args = SpanArgs::new()
                    .with("seq", u64::from(k))
                    .with("engagement", e.channel)
                    .with("fanout", e.fanout() as u64);
                let (arrival_us, start_us) = (e.arrival.as_us(), start.as_us());
                let span = |name, from, to| {
                    SpanEvent::complete(TrackKind::Flash, track, name, from, to).with_args(args)
                };
                if start_us > arrival_us {
                    spans.push(span("flash.wait", arrival_us, start_us));
                }
                spans.push(span("flash.service", start_us, completion.as_us()));
                // Jobs arrived by this start and not yet served: a
                // channel's run is in arrival order.
                let arrived = run
                    .partition_point(|&j| self.events[j as usize].arrival <= start)
                    .max(done + 1);
                let depth = (arrived - done) as u64;
                spans.push(SpanEvent::counter(
                    TrackKind::Flash,
                    track,
                    "flash.depth",
                    start_us,
                    depth,
                ));
            }
        }
        spans
    }
}

/// What one engagement contributed to the contended track: enough to replay
/// its pipeline recurrence against the simulated queue.
pub(crate) struct EngagementRecord {
    /// The scheduler IO lane the engagement streamed through.
    pub(crate) channel: u64,
    pub(crate) session: u64,
    pub(crate) slo: Option<SimTime>,
    /// The engagement's issue time on the simulated timeline (session
    /// arrival plus gate delay — the arrival its channel was opened at).
    pub(crate) issue: SimTime,
    /// The plan's `io_jobs`, by pointer: layer `k` streamed exactly when it
    /// has a job, priced at the profile beside the log's `io_delay`.
    pub(crate) io_jobs: Arc<[Option<LayerIoJob>]>,
    /// Per-layer compute delay (uniform across a plan's layers).
    pub(crate) comp: SimTime,
    pub(crate) uncontended: SimTime,
}

/// One engagement on a replayed timeline: its record, the engagement id
/// its jobs carried in the replay, its effective issue time, its first
/// flash service start, and its contended makespan from that start.
struct Replayed<'a> {
    rec: &'a EngagementRecord,
    id: u64,
    issue: SimTime,
    start: SimTime,
    contended: SimTime,
}

/// The server's contended-track state and the replay over it (see the
/// module docs).
pub(crate) struct ContentionLedger {
    engagements: Mutex<Vec<EngagementRecord>>,
    gate: Mutex<Vec<GateDecision>>,
    flash: FlashModel,
    /// DRAM-residency model for cache-resident bytes, when opted in.
    dram: Option<FlashModel>,
    topology: DeviceTopology,
}

impl ContentionLedger {
    pub(crate) fn new(
        flash: FlashModel,
        dram: Option<FlashModel>,
        topology: DeviceTopology,
    ) -> Self {
        Self {
            engagements: Mutex::new(Vec::new()),
            gate: Mutex::new(Vec::new()),
            flash,
            dram,
            topology,
        }
    }

    pub(crate) fn record_engagement(&self, rec: EngagementRecord) {
        self.engagements.lock().push(rec);
    }

    pub(crate) fn record_gate(&self, decision: GateDecision) {
        self.gate.lock().push(decision);
    }

    /// Drops the engagement and gate logs (the scheduler's dispatch logs
    /// are the caller's to clear).
    pub(crate) fn clear(&self) {
        self.engagements.lock().clear();
        self.gate.lock().clear();
    }

    /// The contended-track service time of one dispatch: the recorded
    /// device-model delay, or — under the opt-in DRAM-residency mode — its
    /// cache-resident bytes re-priced at the DRAM-speed model.
    fn contended_service(&self, e: &FlashDispatchEvent) -> SimTime {
        match self.dram {
            Some(dram) if e.hit_bytes > 0 => {
                let miss = e.bytes - e.hit_bytes;
                let flash = if miss > 0 { self.flash.request_delay(miss) } else { SimTime::ZERO };
                flash + dram.request_delay(e.hit_bytes)
            }
            _ => e.io_delay,
        }
    }

    /// The one contended replay of a dispatch log (see [`Timeline`]): one
    /// job per dispatch at its recorded arrival and device channel, priced
    /// by [`ContentionLedger::contended_service`]; a batched dispatch is
    /// one job, charged once, that completes for every member.
    fn timeline<'e>(&self, events: &'e [FlashDispatchEvent]) -> Timeline<'e> {
        let channel_count = self.topology.channel_count();
        let channel = |k: u32| events[k as usize].device_channel % channel_count;
        let mut order: Vec<u32> = (0..log_index(events.len())).collect();
        order.sort_unstable_by_key(|&k| (channel(k), events[k as usize].arrival, k));
        let mut times = vec![(SimTime::ZERO, SimTime::ZERO); events.len()];
        let mut channels = vec![ChannelService::default(); channel_count as usize];
        for run in order.chunk_by(|&a, &b| channel(a) == channel(b)) {
            channels[channel(run[0]) as usize] = serve_channel(
                run,
                |k| events[k as usize].arrival,
                |k| self.contended_service(&events[k as usize]),
                |k, start, completion| times[k as usize] = (start, completion),
            );
        }
        Timeline { events, channel_count, order, times, channels }
    }

    /// Each record's row on `timeline`, in record order. `ids[i]` is the
    /// engagement id `log[i]`'s jobs carry in the timeline's events: the
    /// scheduler's lane ids ([`ContentionLedger::report`]), or stable ids
    /// on a canonical copy ([`ContentionLedger::spans`]).
    ///
    /// Per-session issue clock: a session issues its next engagement only
    /// once the previous one returned, so each engagement's effective
    /// issue is its recorded issue time (arrival + gate delay) advanced
    /// past the session's previous contended completion. Whatever gap
    /// remains between that issue and the first flash service start is
    /// genuine initial queueing — co-runners occupying the channel before
    /// the engagement got its first byte.
    fn rows<'a>(
        log: &'a [EngagementRecord],
        ids: impl IntoIterator<Item = u64> + 'a,
        timeline: &'a Timeline<'_>,
    ) -> impl Iterator<Item = Replayed<'a>> + 'a {
        let events = timeline.events;
        // Every delivery as `(lane, event)`: a leader's and each member's.
        // Sorted, each engagement's deliveries form one run in merged
        // `(arrival, event)` order.
        let deliveries = events.iter().map(FlashDispatchEvent::fanout).sum();
        let mut by_lane: Vec<(u64, u32)> = Vec::with_capacity(deliveries);
        for (k, e) in (0..log_index(events.len())).zip(events) {
            let lanes = std::iter::once(e.channel).chain(e.members.iter().copied());
            by_lane.extend(lanes.map(|lane| (lane, k)));
        }
        by_lane.sort_unstable_by_key(|&(lane, k)| (lane, events[k as usize].arrival, k));
        let mut session_clock: HashMap<u64, SimTime> = HashMap::new();
        log.iter().zip(ids).filter_map(move |(rec, id)| {
            let first = by_lane.partition_point(|d| d.0 < id);
            let len = by_lane[first..].partition_point(|d| d.0 == id);
            let mine = by_lane[first..first + len].iter().map(|&(_, k)| timeline.times[k as usize]);
            // `None` on a count mismatch: no coherent timeline.
            let io_ends = align_io_completions(&rec.io_jobs, mine.clone().map(|(_, end)| end))?;
            let issue =
                rec.issue.max(session_clock.get(&rec.session).copied().unwrap_or(SimTime::ZERO));
            let start = mine.clone().next().map_or(issue, |(start, _)| start);
            let contended = contended_makespan(start, &io_ends, rec.comp);
            session_clock.insert(rec.session, start + contended);
            Some(Replayed { rec, id, issue, start, contended })
        })
    }

    /// Replays `events` (the demand dispatch log, in dispatch order) and
    /// reports each executed engagement's contended latency plus the queue
    /// aggregates. `speculative` is the background dispatch log when a
    /// prefetcher runs; `preload_bytes_reallocated` is quoted through from
    /// the admission gauge.
    pub(crate) fn report(
        &self,
        events: &[FlashDispatchEvent],
        speculative: Option<&[FlashDispatchEvent]>,
        preload_bytes_reallocated: u64,
    ) -> ContentionReport {
        // Batch-occupancy accounting straight off the event stream: a
        // batched dispatch appears once, with its fan-out recipients.
        let batched_dispatches = events.iter().filter(|e| e.fanout() > 1).count() as u64;
        let flash_bytes_saved: u64 = events.iter().map(|e| e.bytes * e.members.len() as u64).sum();
        let deliveries: usize = events.iter().map(FlashDispatchEvent::fanout).sum();
        let mean_batch_occupancy =
            if events.is_empty() { 0.0 } else { deliveries as f64 / events.len() as f64 };
        let timeline = self.timeline(events);
        let log = self.engagements.lock();
        let lanes = log.iter().map(|rec| rec.channel);
        let engagements = Self::rows(&log, lanes, &timeline)
            .map(|r| EngagementContention {
                channel: r.rec.channel,
                session: r.rec.session,
                uncontended: r.rec.uncontended,
                contended: r.contended,
                issue: r.issue,
                initial_queueing: r.start.saturating_sub(r.issue),
                slo: r.rec.slo,
            })
            .collect();
        drop(log);
        // Gate decisions sorted by session token; each session's decisions
        // are already chronological and a stable sort preserves that.
        let mut gate = self.gate.lock().clone();
        gate.sort_by_key(|d| d.session);
        ContentionReport {
            engagements,
            flash_busy: timeline.busy(),
            queue_makespan: timeline.makespan(),
            max_queue_depth: timeline.max_depth(),
            batched_dispatches,
            flash_bytes_saved,
            mean_batch_occupancy,
            gate,
            preload_bytes_reallocated,
            prefetch: speculative.map(|spec| price_speculation(spec, &timeline)),
        }
    }

    /// The deterministic span tracks (plus the prefetch colour track) for
    /// everything logged so far, unsorted — see
    /// [`StiServer::trace_spans`](crate::server::StiServer::trace_spans)
    /// for the track-by-track contract.
    ///
    /// The replay runs in the canonical order: each record's jobs are
    /// remapped onto a stable engagement id (`session << 16 | per-session
    /// index` — chronological because a session runs its engagements
    /// serially), and a copy of the log is stably re-sorted by `(arrival,
    /// stable id)`, which only reorders across lanes, never within one.
    pub(crate) fn spans(
        &self,
        events: &[FlashDispatchEvent],
        speculative: &[FlashDispatchEvent],
    ) -> Vec<SpanEvent> {
        let log = self.engagements.lock();
        let mut next_index: HashMap<u64, u64> = HashMap::new();
        let ids: Vec<u64> = log
            .iter()
            .map(|rec| {
                let idx = next_index.entry(rec.session).or_insert(0);
                *idx += 1;
                (rec.session << 16) | (*idx - 1)
            })
            .collect();
        let stable: HashMap<u64, u64> =
            log.iter().zip(&ids).map(|(rec, &id)| (rec.channel, id)).collect();
        let remap = |lane: u64| stable.get(&lane).copied().unwrap_or(u64::MAX);
        let mut events = events.to_vec();
        for e in &mut events {
            e.channel = remap(e.channel);
            e.members.iter_mut().for_each(|m| *m = remap(*m));
        }
        events.sort_by_key(|e| (e.arrival, e.channel));
        let timeline = self.timeline(&events);
        let mut spans = timeline.flash_spans();
        // Session-track engagement intervals: issue → contended completion.
        for r in Self::rows(&log, ids, &timeline) {
            spans.push(
                SpanEvent::complete(
                    TrackKind::Session,
                    r.rec.session,
                    "engagement",
                    r.issue.as_us(),
                    (r.start + r.contended).as_us(),
                )
                .with_args(
                    SpanArgs::new()
                        .with("engagement", r.id)
                        .with("uncontended_us", r.rec.uncontended.as_us())
                        .with("slo_us", r.rec.slo.map_or(0, |s| s.as_us())),
                ),
            );
        }
        drop(log);
        // Gate decisions as session-track markers carrying the reason.
        for d in self.gate.lock().iter() {
            let args = SpanArgs::new()
                .with("digest", d.reason.digest)
                .with("predicted_us", d.predicted.as_us())
                .with("dominant", d.reason.dominant_lane.map_or(u64::MAX, |(t, _)| t));
            let at = d.arrival.as_us();
            let span = if d.shed {
                SpanEvent::instant(TrackKind::Session, d.session, "gate.shed", at)
            } else if d.delay > SimTime::ZERO {
                let end = (d.arrival + d.delay).as_us();
                SpanEvent::complete(TrackKind::Session, d.session, "gate.delay", at, end)
            } else {
                SpanEvent::instant(TrackKind::Session, d.session, "gate.admit", at)
            };
            spans.push(span.with_args(args));
        }
        // Speculative staging windows, one track per device channel.
        // Whether a staged shard was flash-loaded or pinned depends on
        // cache residency at execution time, so the track is outside the
        // determinism contract ([`TrackKind::Prefetch`]) and deterministic
        // exports drop it.
        for e in speculative {
            spans.push(
                SpanEvent::complete(
                    TrackKind::Prefetch,
                    e.device_channel as u64,
                    "prefetch.stage",
                    e.arrival.as_us(),
                    (e.arrival + e.io_delay).as_us(),
                )
                .with_args(
                    SpanArgs::new()
                        .with("session", e.channel)
                        .with("bytes", e.bytes)
                        .with("pinned_bytes", e.hit_bytes),
                ),
            );
        }
        spans
    }
}

/// The queue simulator is these tests' oracle, and only theirs.
#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::server::tests::tiny_server;
    use crate::server::StiServer;
    use sti_device::{
        CompletedJob, DeviceProfile, FlashJob, FlashQueueReport, TopologyQueueSim, TopologyReport,
    };

    impl Timeline<'_> {
        /// The timeline in the queue simulator's report shape: each
        /// channel's jobs in service order, `seq` the log index, a batched
        /// job's members mirrored after it — what [`TopologyQueueSim`]
        /// reports for the log submitted in order, which the tests below
        /// compare it with.
        fn to_report(&self) -> TopologyReport {
            let mut channels: Vec<FlashQueueReport> = self
                .channels
                .iter()
                .map(|c| FlashQueueReport {
                    completions: Vec::new(),
                    busy: c.busy,
                    makespan: c.makespan,
                    max_depth: c.max_depth,
                })
                .collect();
            for &k in &self.order {
                let e = &self.events[k as usize];
                let (start, completion) = self.times[k as usize];
                let lanes = std::iter::once(e.channel).chain(e.members.iter().copied());
                let completions = &mut channels[self.channel(k) as usize].completions;
                completions.extend(lanes.map(|engagement| CompletedJob {
                    engagement,
                    seq: k as usize,
                    arrival: e.arrival,
                    start,
                    completion,
                }));
            }
            TopologyReport { channels }
        }
    }

    fn server() -> StiServer {
        tiny_server(ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 64 << 10,
            ..ServeConfig::default()
        })
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_ms(n)
    }

    /// A single-channel ledger (service time is each event's `io_delay`).
    fn ledger() -> ContentionLedger {
        ContentionLedger::new(DeviceProfile::odroid_n2().flash, None, DeviceTopology::single())
    }

    /// A dispatch of `service_ms` on device channel 0, led by `lane`.
    fn event(lane: u64, arrival_ms: u64, service_ms: u64) -> FlashDispatchEvent {
        FlashDispatchEvent {
            channel: lane,
            device_channel: 0,
            arrival: ms(arrival_ms),
            bytes: 1_000,
            hit_bytes: 0,
            io_delay: ms(service_ms),
            members: Vec::new(),
        }
    }

    /// Per layer, a 1 ms job where `layer_has_io` says the layer streams.
    fn io_jobs(layer_has_io: &[bool]) -> Arc<[Option<LayerIoJob>]> {
        let job = LayerIoJob { sig: 0, service: ms(1) };
        layer_has_io.iter().map(|&has| has.then_some(job)).collect()
    }

    /// An engagement of `session` on `lane`, issued at time zero, whose
    /// layers stream per `layer_has_io` with 2 ms of compute each.
    fn record(lane: u64, session: u64, layer_has_io: &[bool]) -> EngagementRecord {
        EngagementRecord {
            channel: lane,
            session,
            slo: None,
            issue: SimTime::ZERO,
            io_jobs: io_jobs(layer_has_io),
            comp: ms(2),
            uncontended: ms(7),
        }
    }

    /// The report as the replay built it before it ran in place: the log
    /// copied into a queue simulator with its own single-server loop, a
    /// completion list per channel, each engagement's completions gathered
    /// from it, and speculation priced against every completion. Kept as
    /// the oracle the in-place report must equal; it shares no replay code
    /// with it, the fold included.
    mod oracle {
        use std::collections::{BTreeMap, HashMap};

        use sti_device::{CompletedJob, FlashQueueReport, SimTime, TopologyReport};
        use sti_planner::{align_io_completions, contended_makespan};
        use sti_storage::FlashDispatchEvent;

        use super::super::{
            ContentionLedger, ContentionReport, EngagementContention, PrefetchContention,
        };

        /// The queue simulator as it ran before its fold was shared: per
        /// channel FIFO by `(arrival, submission)`, a batched job's
        /// completion mirrored to its members.
        fn simulate(ledger: &ContentionLedger, events: &[FlashDispatchEvent]) -> TopologyReport {
            let count = ledger.topology.channel_count();
            let channel = |seq: usize| events[seq].device_channel % count;
            let mut order: Vec<usize> = (0..events.len()).collect();
            order.sort_by_key(|&seq| (channel(seq), events[seq].arrival));
            let mut channels = vec![FlashQueueReport::default(); count as usize];
            for run in order.chunk_by(|&a, &b| channel(a) == channel(b)) {
                let report = &mut channels[channel(run[0]) as usize];
                let mut server_free = SimTime::ZERO;
                for (served, &seq) in run.iter().enumerate() {
                    let e = &events[seq];
                    let service = ledger.contended_service(e);
                    let start = e.arrival.max(server_free);
                    let completion = start + service;
                    server_free = completion;
                    report.busy += service;
                    let arrived =
                        run.partition_point(|&i| events[i].arrival <= start).max(served + 1);
                    report.max_depth = report.max_depth.max(arrived - served);
                    let recipients = std::iter::once(e.channel).chain(e.members.iter().copied());
                    report.completions.extend(recipients.map(|engagement| CompletedJob {
                        engagement,
                        seq,
                        arrival: e.arrival,
                        start,
                        completion,
                    }));
                }
                report.makespan = server_free;
            }
            TopologyReport { channels }
        }

        pub(super) fn report(
            ledger: &ContentionLedger,
            events: &[FlashDispatchEvent],
            speculative: Option<&[FlashDispatchEvent]>,
            preload_bytes_reallocated: u64,
        ) -> ContentionReport {
            let batched_dispatches = events.iter().filter(|e| e.fanout() > 1).count() as u64;
            let flash_bytes_saved: u64 =
                events.iter().map(|e| e.bytes * e.members.len() as u64).sum();
            let deliveries: usize = events.iter().map(FlashDispatchEvent::fanout).sum();
            let mean_batch_occupancy =
                if events.is_empty() { 0.0 } else { deliveries as f64 / events.len() as f64 };
            let report = simulate(ledger, events);
            let mut jobs: Vec<&CompletedJob> =
                report.channels.iter().flat_map(|c| &c.completions).collect();
            jobs.sort_unstable_by_key(|j| (j.engagement, j.arrival, j.seq));
            let mut session_clock: HashMap<u64, SimTime> = HashMap::new();
            let log = ledger.engagements.lock();
            let engagements = log
                .iter()
                .filter_map(|rec| {
                    let id = rec.channel;
                    let first = jobs.partition_point(|j| j.engagement < id);
                    let len = jobs[first..].partition_point(|j| j.engagement == id);
                    let jobs = &jobs[first..first + len];
                    let io_ends =
                        align_io_completions(&rec.io_jobs, jobs.iter().map(|j| j.completion))?;
                    let issue = rec
                        .issue
                        .max(session_clock.get(&rec.session).copied().unwrap_or(SimTime::ZERO));
                    let start = jobs.first().map_or(issue, |j| j.start);
                    let contended = contended_makespan(start, &io_ends, rec.comp);
                    session_clock.insert(rec.session, start + contended);
                    Some(EngagementContention {
                        channel: rec.channel,
                        session: rec.session,
                        uncontended: rec.uncontended,
                        contended,
                        issue,
                        initial_queueing: start.saturating_sub(issue),
                        slo: rec.slo,
                    })
                })
                .collect();
            drop(log);
            let mut gate = ledger.gate.lock().clone();
            gate.sort_by_key(|d| d.session);
            ContentionReport {
                engagements,
                flash_busy: report.busy(),
                queue_makespan: report.makespan(),
                max_queue_depth: report.max_depth(),
                batched_dispatches,
                flash_bytes_saved,
                mean_batch_occupancy,
                gate,
                preload_bytes_reallocated,
                prefetch: speculative.map(|spec| price_speculation(spec, &report)),
            }
        }

        fn price_speculation(
            spec: &[FlashDispatchEvent],
            demand: &TopologyReport,
        ) -> PrefetchContention {
            let mut out = PrefetchContention::default();
            let mut per_dc: BTreeMap<u16, Vec<&FlashDispatchEvent>> = BTreeMap::new();
            for e in spec {
                per_dc.entry(e.device_channel).or_default().push(e);
            }
            for (dc, mut jobs) in per_dc {
                jobs.sort_by_key(|e| e.arrival);
                let mut intervals: Vec<(SimTime, SimTime)> = demand
                    .channels
                    .get(dc as usize)
                    .map(|c| c.completions.iter().map(|j| (j.start, j.completion)).collect())
                    .unwrap_or_default();
                intervals.sort_unstable();
                let mut cursor = SimTime::ZERO;
                for e in jobs {
                    let service = e.io_delay;
                    let earliest = cursor.max(e.arrival);
                    let mut t = earliest;
                    let mut rem = service;
                    let mut cut = false;
                    for &(s, end) in &intervals {
                        if end <= t || rem == SimTime::ZERO {
                            continue;
                        }
                        if s >= t + rem {
                            break;
                        }
                        if s > t {
                            rem = rem.saturating_sub(s.saturating_sub(t));
                        }
                        t = end;
                        cut = true;
                    }
                    let finish = t + rem;
                    out.jobs += 1;
                    out.speculated_bytes += e.bytes;
                    out.pinned_bytes += e.hit_bytes;
                    out.busy += service;
                    if cut || finish > earliest + service {
                        out.preempted += 1;
                    }
                    out.makespan = out.makespan.max(finish);
                    cursor = finish;
                }
            }
            out
        }
    }

    /// One generated workload: a ledger of `C ∈ {1, 2, 4}` channels (DRAM
    /// residency on or off), engagement records, the dispatch log their
    /// jobs came from, and a speculative log or none.
    fn generated(
        seed: u64,
    ) -> (ContentionLedger, Vec<FlashDispatchEvent>, Option<Vec<FlashDispatchEvent>>) {
        let mut rng = sti_tensor::Rng::new(seed);
        let mut below = |n: usize| rng.next_below(n);
        let channels = [1u16, 2, 4][below(3)];
        let dram = (below(2) == 0).then(FlashModel::dram_residency);
        let flash = DeviceProfile::odroid_n2().flash;
        let ledger = ContentionLedger::new(flash, dram, DeviceTopology::with_channels(channels));
        // Lanes 100.., a few sessions; arrivals on a coarse grid, so equal
        // arrivals are common.
        let lanes: Vec<u64> = (0..1 + below(7) as u64).map(|i| 100 + 3 * i).collect();
        let mut events = Vec::new();
        for _ in 0..below(40) {
            let leader = lanes[below(lanes.len())];
            let mut members = Vec::new();
            if below(3) == 0 {
                for &lane in &lanes {
                    if lane != leader && below(2) == 0 {
                        members.push(lane);
                    }
                }
            }
            let bytes = 1 + below(64 << 10) as u64;
            let hit_bytes = [0, bytes, bytes / 2][below(3)];
            events.push(FlashDispatchEvent {
                channel: leader,
                // Out-of-range channels too: the replay normalizes them.
                device_channel: below(channels as usize + 1) as u16,
                arrival: ms(below(6) as u64),
                bytes,
                hit_bytes,
                io_delay: SimTime::from_us(below(4_000) as u64),
                members,
            });
        }
        // One record per lane whose streamed layers match its deliveries,
        // preload-covered layers between them; one record in a few gets
        // one streamed layer too many, so it drops out.
        for (i, &lane) in lanes.iter().enumerate() {
            let delivered =
                events.iter().filter(|e| e.channel == lane || e.members.contains(&lane)).count();
            let mismatched = below(4) == 0;
            let mut layer_has_io = Vec::new();
            for _ in 0..delivered + usize::from(mismatched) {
                if below(3) == 0 {
                    layer_has_io.push(false);
                }
                layer_has_io.push(true);
            }
            ledger.record_engagement(EngagementRecord {
                channel: lane,
                session: (i % 3) as u64,
                slo: (below(2) == 0).then(|| ms(5)),
                issue: ms(below(4) as u64),
                io_jobs: io_jobs(&layer_has_io),
                comp: SimTime::from_us(below(2_000) as u64),
                uncontended: ms(3),
            });
        }
        let speculative = (below(2) == 0).then(|| {
            (0..below(12))
                .map(|_| FlashDispatchEvent {
                    bytes: below(8 << 10) as u64,
                    hit_bytes: below(4 << 10) as u64,
                    device_channel: below(channels as usize + 1) as u16,
                    ..event(7, below(12) as u64, below(4) as u64)
                })
                .collect()
        });
        (ledger, events, speculative)
    }

    /// The in-place report against the oracle, on 512 generated logs: the
    /// whole report, equal with `==`.
    #[test]
    fn the_in_place_report_equals_the_simulator_oracle() {
        let (mut kept, mut dropped, mut batched, mut priced) = (0, 0, 0, 0);
        for seed in 0..512u64 {
            let (ledger, events, speculative) = generated(seed);
            let spec = speculative.as_deref();
            let got = ledger.report(&events, spec, seed);
            assert_eq!(got, oracle::report(&ledger, &events, spec, seed), "seed {seed}");
            kept += got.engagements.len();
            dropped += ledger.engagements.lock().len() - got.engagements.len();
            batched += got.batched_dispatches;
            priced += got.prefetch.map_or(0, |p| p.jobs);
        }
        assert!(kept > 0 && dropped > 0, "records both replay and drop out");
        assert!(batched > 0 && priced > 0, "batched jobs and speculation are drawn");
    }

    #[test]
    fn the_replay_serves_the_dispatch_sequence() {
        // Lanes 0 and 1 stream two layers each, dispatched round-robin.
        let events = vec![event(0, 0, 3), event(1, 0, 4), event(0, 0, 5), event(1, 0, 6)];
        let report = ledger().timeline(&events).to_report();
        assert_eq!(report.completions().len(), 4);
        // Busy-time conservation: the contended queue does exactly the
        // uncontended work, just serialized.
        assert_eq!(report.busy(), ms(3 + 4 + 5 + 6));
        // Lane 0's contended completion can only be later than its own
        // back-to-back service time.
        assert!(report.completions_of(0).last().unwrap().completion >= ms(3 + 5));
        // FIFO per lane survives the replay.
        for lane in [0, 1] {
            let mine = report.completions_of(lane);
            assert_eq!(mine.len(), 2);
            assert!(mine[0].completion <= mine[1].start);
        }
    }

    #[test]
    fn dram_residency_makes_cache_hits_cheaper() {
        let flash = DeviceProfile::odroid_n2().flash;
        // The same 64 KiB layer read twice; the second time every byte was
        // cache-resident at dispatch.
        let bytes = 64 << 10;
        let cold =
            FlashDispatchEvent { bytes, io_delay: flash.request_delay(bytes), ..event(0, 0, 0) };
        let warm = FlashDispatchEvent {
            hit_bytes: bytes,
            ..FlashDispatchEvent { channel: 1, ..cold.clone() }
        };
        let run = |dram: Option<FlashModel>| {
            let ledger = ContentionLedger::new(flash, dram, DeviceTopology::single());
            ledger.timeline(&[cold.clone(), warm.clone()]).to_report()
        };
        let flash_only = run(None);
        let with_dram = run(Some(FlashModel::dram_residency()));
        // Under the residency model the resident request's service time
        // collapses; the cold one is unchanged.
        assert_eq!(with_dram.completions()[0].completion, flash_only.completions()[0].completion);
        assert!(with_dram.busy() < flash_only.busy());
    }

    #[test]
    fn lane_arrival_offsets_shift_the_contended_track() {
        let report = ledger().timeline(&[event(0, 500, 5)]).to_report();
        assert_eq!(report.completions()[0].arrival, ms(500));
        assert!(report.makespan() >= ms(500));
    }

    #[test]
    fn events_on_different_device_channels_do_not_queue_behind_each_other() {
        let two = ContentionLedger::new(
            DeviceProfile::odroid_n2().flash,
            None,
            DeviceTopology::with_channels(2),
        );
        let events =
            vec![event(0, 0, 5), FlashDispatchEvent { device_channel: 1, ..event(1, 0, 5) }];
        let striped = two.timeline(&events).to_report();
        for lane in [0, 1] {
            assert_eq!(striped.completions_of(lane)[0].queue_delay(), SimTime::ZERO);
        }
        // One channel serializes the same log (the recorded device channel
        // is normalized into the topology).
        let serial = ledger().timeline(&events).to_report();
        assert_eq!(serial.completions_of(1)[0].queue_delay(), ms(5));
    }

    #[test]
    fn single_channel_replay_matches_the_flash_queue_reference_bitwise() {
        // Lanes 0 (arriving at 0) and 1 (at 200 µs) stream the same two
        // layers under a batch window: both dispatches are shared, stamped
        // with the later arrival; lane 0 then reads a third layer alone, at
        // the arrival the batches raised it to.
        let at = SimTime::from_us(200);
        let shared = |service_ms: u64| FlashDispatchEvent {
            arrival: at,
            members: vec![1],
            ..event(0, 0, service_ms)
        };
        let events =
            vec![shared(3), shared(4), FlashDispatchEvent { arrival: at, ..event(0, 0, 5) }];
        let ledger = ledger();
        // An independently fed single-server queue over the same dispatch log.
        let mut reference = TopologyQueueSim::new(DeviceTopology::single());
        for e in &events {
            let service = ledger.contended_service(e);
            reference.submit_shared_on(
                0,
                FlashJob { engagement: e.channel, arrival: e.arrival, service },
                &e.members,
            );
        }
        let topo = ledger.timeline(&events).to_report();
        assert_eq!(topo, reference.run(), "C = 1 replay is bit-identical");
        // The raised arrival keeps lane 0's FIFO through the replay.
        let mine = topo.completions_of(0);
        assert_eq!(mine.len(), 3);
        assert!(mine.windows(2).all(|w| w[0].completion <= w[1].start));
    }

    #[test]
    fn spans_cover_waits_services_and_depth() {
        // A batched job served once (fan-out 3), then one that queues
        // behind it.
        let events =
            [FlashDispatchEvent { members: vec![1, 2], ..event(0, 0, 10) }, event(3, 0, 5)];
        let spans = ledger().timeline(&events).flash_spans();
        let services: Vec<_> = spans.iter().filter(|e| e.name == "flash.service").collect();
        assert_eq!(services.len(), 2, "shared job serves once");
        assert_eq!(services[0].args.entries()[2], ("fanout", 3));
        let waits: Vec<_> = spans.iter().filter(|e| e.name == "flash.wait").collect();
        assert_eq!(waits.len(), 1, "only the second job queued");
        assert_eq!((waits[0].start_us, waits[0].end_us), (0, 10_000));
        let depths: Vec<u64> = spans
            .iter()
            .filter(|e| e.name == "flash.depth")
            .map(|e| e.args.entries()[0].1)
            .collect();
        assert_eq!(depths, vec![2, 1]);
    }

    #[test]
    fn spans_use_one_track_per_device_channel() {
        let two = ContentionLedger::new(
            DeviceProfile::odroid_n2().flash,
            None,
            DeviceTopology::with_channels(2),
        );
        let events = [event(0, 0, 5), FlashDispatchEvent { device_channel: 1, ..event(1, 0, 5) }];
        let tracks: Vec<u64> = two
            .timeline(&events)
            .flash_spans()
            .iter()
            .filter(|e| e.name == "flash.service")
            .map(|e| e.track)
            .collect();
        assert_eq!(tracks, vec![0, 1], "one flash track per device channel");
    }

    #[test]
    fn a_batched_fan_out_is_served_once_and_lands_on_every_member() {
        let ledger = ledger();
        ledger.record_engagement(record(10, 0, &[true]));
        ledger.record_engagement(record(11, 1, &[true]));
        let shared = FlashDispatchEvent { members: vec![11], ..event(10, 0, 5) };
        let report = ledger.report(&[shared], None, 0);
        // One 5 ms read, mirrored to both lanes: each engagement sees
        // 5 ms IO + 2 ms compute, exactly its solo makespan.
        assert_eq!(report.engagements.len(), 2);
        for e in &report.engagements {
            assert_eq!((e.contended, e.initial_queueing), (ms(7), SimTime::ZERO));
            assert_eq!(e.queueing(), SimTime::ZERO);
        }
        assert_eq!(report.flash_busy, ms(5), "the shared job is charged once");
        assert_eq!((report.batched_dispatches, report.flash_bytes_saved), (1, 1_000));
        assert_eq!(report.mean_batch_occupancy, 2.0);
        assert!(report.prefetch.is_none());
    }

    #[test]
    fn an_engagement_that_errored_mid_stream_drops_out_of_report_and_spans() {
        let ledger = ledger();
        ledger.record_engagement(record(10, 0, &[true]));
        // Lane 11 wanted two layers but only one dispatch ever completed.
        ledger.record_engagement(record(11, 1, &[true, true]));
        let events = vec![event(10, 0, 5), event(11, 0, 5)];
        let report = ledger.report(&events, None, 0);
        assert_eq!(report.engagements.len(), 1, "no coherent timeline, no row");
        assert_eq!(report.engagements[0].session, 0);
        // Its dispatch still occupied the device: the survivor's numbers
        // and the queue aggregates keep it.
        assert_eq!(report.flash_busy, ms(10));
        let engagement_tracks: Vec<u64> = ledger
            .spans(&events, &[])
            .iter()
            .filter(|s| s.name == "engagement")
            .map(|s| s.track)
            .collect();
        assert_eq!(engagement_tracks, [0]);
    }

    #[test]
    fn the_issue_clock_serializes_a_session_and_charges_initial_queueing() {
        let ledger = ledger();
        // Session 0 runs two engagements (lanes 10 then 12); session 1's
        // single engagement (lane 11) queues behind the first.
        ledger.record_engagement(record(10, 0, &[true]));
        ledger.record_engagement(record(11, 1, &[true]));
        ledger.record_engagement(record(12, 0, &[true]));
        let events = vec![event(10, 0, 5), event(11, 0, 5), event(12, 0, 5)];
        let report = ledger.report(&events, None, 0);
        let row = |lane: u64| *report.engagements.iter().find(|e| e.channel == lane).unwrap();
        assert_eq!((row(10).issue, row(10).initial_queueing), (SimTime::ZERO, SimTime::ZERO));
        // Lane 11 waited out lane 10's 5 ms read before its first byte.
        assert_eq!((row(11).issue, row(11).initial_queueing), (SimTime::ZERO, ms(5)));
        // Session 0's second engagement cannot issue before its first
        // returned (5 ms IO + 2 ms compute), then waits for the flash.
        assert_eq!((row(12).issue, row(12).initial_queueing), (ms(7), ms(3)));
        assert_eq!(row(12).end_to_end(), ms(3) + ms(7));
    }

    /// Pins today's pricing of a later engagement whose lane opened before
    /// its predecessor returned, which ROADMAP item 38 records and leaves
    /// unfixed. A live session opens engagement n's lane at `arrival +
    /// n · idle`, but the session clock issues it only once engagement
    /// n − 1 returned, so its first read can be served before its issue:
    /// `initial_queueing` then saturates to zero, and `contended` runs from
    /// that early read, ending before the issue it is charged from.
    #[test]
    fn a_later_engagement_served_before_its_issue_is_priced_from_that_read() {
        let two = ContentionLedger::new(
            DeviceProfile::odroid_n2().flash,
            None,
            DeviceTopology::with_channels(2),
        );
        // Session 0: lane 10 streams two layers on channel 0; lane 12's
        // engagement opened 1 ms in, and its one read goes to idle channel 1.
        two.record_engagement(record(10, 0, &[true, true]));
        two.record_engagement(EngagementRecord { issue: ms(1), ..record(12, 0, &[true]) });
        let events = vec![
            event(10, 0, 5),
            event(10, 0, 5),
            FlashDispatchEvent { device_channel: 1, ..event(12, 1, 5) },
        ];
        let report = two.report(&events, None, 0);
        let row = |lane: u64| *report.engagements.iter().find(|e| e.channel == lane).unwrap();
        // Reads end at 5 and 10 ms, each followed by 2 ms of compute.
        assert_eq!((row(10).issue, row(10).contended), (SimTime::ZERO, ms(12)));
        // Issued at 12 ms, when lane 10 returned, yet priced from its read
        // at 1..6 ms: 7 ms end to end, with no initial queueing.
        assert_eq!(row(12).issue, ms(12));
        assert_eq!((row(12).initial_queueing, row(12).contended), (SimTime::ZERO, ms(7)));
        assert_eq!(row(12).end_to_end(), ms(7));
    }

    #[test]
    fn canonical_spans_do_not_depend_on_lane_ids_or_dispatch_order() {
        // The same two-session workload as the event executor would log it
        // (lanes in issue order) and as the sequential oracle would
        // (client by client, other lane ids, other dispatch order).
        let spans_of = |lanes: [u64; 2], order: [usize; 2]| {
            let ledger = ledger();
            ledger.record_engagement(record(lanes[0], 0, &[true]));
            ledger.record_engagement(record(lanes[1], 1, &[true]));
            let by_session = [event(lanes[0], 0, 5), event(lanes[1], 1, 5)];
            let events: Vec<_> = order.iter().map(|&i| by_session[i].clone()).collect();
            let mut spans = ledger.spans(&events, &[]);
            spans.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
            spans
        };
        let event_like = spans_of([10, 11], [0, 1]);
        assert_eq!(event_like, spans_of([21, 20], [1, 0]));
        // Engagements are named by stable id, never by scheduler lane.
        let ids: Vec<u64> = event_like
            .iter()
            .filter(|s| s.name == "engagement")
            .map(|s| s.args.entries()[0].1)
            .collect();
        assert_eq!(ids, [0, 1 << 16]);
    }

    #[test]
    fn speculation_is_priced_into_idle_windows_and_preempted_by_demand() {
        let ledger = ledger();
        ledger.record_engagement(record(10, 0, &[true]));
        // Demand holds the channel over 10..20 ms.
        let demand = vec![event(10, 10, 10)];
        let spec = [
            // Arrives at 5 ms wanting 10 ms: runs 5..10, yields to demand,
            // resumes 20..25.
            FlashDispatchEvent { bytes: 4_000, hit_bytes: 1_000, ..event(0, 5, 10) },
            // Arrives in the clear: 30..32, untouched.
            FlashDispatchEvent { bytes: 2_000, ..event(0, 30, 2) },
        ];
        let report = ledger.report(&demand, Some(&spec), 0);
        assert_eq!(
            report.prefetch,
            Some(PrefetchContention {
                jobs: 2,
                speculated_bytes: 6_000,
                pinned_bytes: 1_000,
                busy: ms(12),
                preempted: 1,
                makespan: ms(32),
            })
        );
        // Demand never waits for speculation: the engagement's row is what
        // it would be with no speculative log at all.
        assert_eq!(report.engagements[0].contended, ms(12));
        assert_eq!(report.engagements[0].initial_queueing, ms(10));
        assert_eq!(report.flash_busy, ms(10));
    }

    #[test]
    fn contention_report_tracks_concurrent_stretch() {
        let srv = server();
        let s = srv.session_with(SimTime::from_ms(300), 0).unwrap();
        let first = s.infer(&[1, 2]).unwrap();
        let second = s.infer(&[1, 2]).unwrap();
        assert_eq!(first.probabilities, second.probabilities, "uncontended track untouched");
        let report = srv.contention_report();
        assert_eq!(report.engagements.len(), 2);
        for e in &report.engagements {
            // Sequential engagements had the flash queue to themselves:
            // measured from each one's first service start, the contended
            // latency reproduces the uncontended makespan exactly. (An
            // interleaved neighbour would stretch it — the concurrent
            // replay tests cover that side.)
            assert_eq!(e.contended, e.uncontended, "sequential run must not be inflated");
        }
        assert_eq!(report.flash_busy, srv.io_stats().sim_flash_busy);
        assert!(report.latency_percentile(0.5) >= report.engagements[0].uncontended);
        assert!(report.slo_hit_rate().is_none(), "no SLO sessions ran");

        // Harvest-and-reset: the next report starts empty.
        srv.reset_contention_log();
        let fresh = srv.contention_report();
        assert!(fresh.engagements.is_empty());
        assert_eq!(fresh.flash_busy, SimTime::ZERO);
    }

    #[test]
    fn latency_percentile_is_nearest_rank_with_a_lower_median() {
        // Latencies are fed unsorted; `n` engagements pay 10, 20, …, 10·n ms.
        let report_of = |n: u64| ContentionReport {
            engagements: (1..=n)
                .rev()
                .map(|k| EngagementContention {
                    channel: k,
                    session: k,
                    uncontended: SimTime::ZERO,
                    contended: SimTime::from_ms(10 * k),
                    issue: SimTime::ZERO,
                    initial_queueing: SimTime::ZERO,
                    slo: None,
                })
                .collect(),
            flash_busy: SimTime::ZERO,
            queue_makespan: SimTime::ZERO,
            max_queue_depth: 0,
            batched_dispatches: 0,
            flash_bytes_saved: 0,
            mean_batch_occupancy: 0.0,
            gate: Vec::new(),
            preload_bytes_reallocated: 0,
            prefetch: None,
        };
        // (n, [p0, p50, p100]) in ms. The median is the *lower* one — index
        // `(n - 1) / 2` of the sorted latencies, always a value an
        // engagement actually paid — which the ledger's `contended_p50_us`
        // column relies on.
        for (n, want) in [
            (0, [0, 0, 0]),
            (1, [10, 10, 10]),
            (2, [10, 10, 20]),
            (5, [10, 30, 50]),
            (6, [10, 30, 60]),
        ] {
            let report = report_of(n);
            for (p, ms) in [0.0, 0.5, 1.0].into_iter().zip(want) {
                assert_eq!(report.latency_percentile(p), SimTime::from_ms(ms), "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn the_issue_inclusive_verdict_charges_initial_queueing() {
        let ms = SimTime::from_ms;
        // (initial queueing, contended, SLO) in ms.
        let rows = [(0, 40, Some(50)), (20, 40, Some(50)), (0, 60, Some(50)), (30, 10, None)];
        let report = ContentionReport {
            engagements: rows
                .iter()
                .enumerate()
                .map(|(k, &(queued, contended, slo))| EngagementContention {
                    channel: k as u64,
                    session: k as u64,
                    uncontended: ms(contended),
                    contended: ms(contended),
                    issue: SimTime::ZERO,
                    initial_queueing: ms(queued),
                    slo: slo.map(ms),
                })
                .collect(),
            flash_busy: SimTime::ZERO,
            queue_makespan: SimTime::ZERO,
            max_queue_depth: 0,
            batched_dispatches: 0,
            flash_bytes_saved: 0,
            mean_batch_occupancy: 0.0,
            gate: Vec::new(),
            preload_bytes_reallocated: 0,
            prefetch: None,
        };
        let verdicts = |f: fn(&EngagementContention) -> Option<bool>| -> Vec<Option<bool>> {
            report.engagements.iter().map(f).collect()
        };
        assert_eq!(
            verdicts(EngagementContention::met_slo),
            [Some(true), Some(true), Some(false), None]
        );
        assert_eq!(
            verdicts(EngagementContention::met_slo_end_to_end),
            [Some(true), Some(false), Some(false), None],
            "20 ms of initial queueing turns a 40 ms service-onward hit into a 60 ms miss"
        );
        assert_eq!(report.slo_hit_rate(), Some(2.0 / 3.0));
        assert_eq!(report.slo_hit_rate_end_to_end(), Some(1.0 / 3.0));
        let none = ContentionReport { engagements: report.engagements[3..].to_vec(), ..report };
        assert_eq!((none.slo_hit_rate(), none.slo_hit_rate_end_to_end()), (None, None));
    }

    #[test]
    fn dram_residency_shrinks_contended_latency_of_warm_engagements() {
        let build = |dram: bool| {
            tiny_server(ServeConfig {
                preload_bytes: 0,
                dram_residency: dram,
                ..ServeConfig::default()
            })
        };
        let run = |srv: &StiServer| {
            let s = srv.session_with(SimTime::from_ms(300), 0).unwrap();
            s.infer(&[3]).unwrap(); // cold: fills the shard cache
            s.infer(&[3]).unwrap(); // warm: fully cache-resident
            srv.contention_report()
        };
        let flash_only = run(&build(false));
        let with_dram = run(&build(true));
        assert_eq!(
            flash_only.engagements[0].contended, with_dram.engagements[0].contended,
            "cold engagement pays flash either way"
        );
        assert!(
            with_dram.engagements[1].contended < flash_only.engagements[1].contended,
            "residency mode must make the warm engagement cheaper on the contended track"
        );
        // The uncontended (deterministic) track is identical either way.
        assert_eq!(flash_only.engagements[1].uncontended, with_dram.engagements[1].uncontended);
    }

    #[test]
    fn issue_gap_spreads_engagement_issues_without_touching_results() {
        let srv = server();
        let gapped = srv.session().unwrap();
        let plain = srv.session().unwrap();
        let mut g = gapped;
        g.set_issue_gap(SimTime::from_ms(500));
        let a = g.infer(&[5, 6]).unwrap();
        let b = g.infer(&[5, 6]).unwrap();
        let c = plain.infer(&[5, 6]).unwrap();
        assert_eq!(a.class, b.class);
        assert_eq!(a.class, c.class, "the issue gap is contended-track only");
        let report = srv.contention_report();
        let issues: Vec<SimTime> =
            report.engagements.iter().filter(|e| e.session == g.token()).map(|e| e.issue).collect();
        assert_eq!(issues.len(), 2);
        // The gap exceeds the first engagement's contended completion, so
        // the second issue lands exactly one gap after the first.
        assert_eq!(issues[1], issues[0] + SimTime::from_ms(500));
    }
}
