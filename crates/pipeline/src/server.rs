//! The multi-session serving runtime (the production face of the engine).
//!
//! [`StiEngine`](crate::engine::StiEngine) reproduces the paper's contract
//! for **one** app: plan once, execute repeatedly. A device serving heavy
//! traffic runs **many** concurrent engagements of the same model, and
//! almost everything they need is shareable:
//!
//! - the model's resident parameters (embedding, norms, classifier);
//! - compressed shard blobs (a shared [`ShardCache`] over the store);
//! - execution plans (a [`PlanCache`] keyed by the planning knobs —
//!   replanning happens only on knob changes, §3.2);
//! - preload-buffer contents (read-mostly once built, shared per knob set);
//! - the flash device itself (an [`IoScheduler`] multiplexing layer
//!   requests FIFO-per-engagement, round-robin across engagements).
//!
//! [`StiServer`] owns all of that; [`Session`] is a lightweight handle an
//! app holds, carrying only its knobs and `Arc`s to the resolved plan and
//! preload buffer. Sessions are cheap to open, independently retargetable,
//! and safe to drive from concurrent threads.
//!
//! **Determinism contract:** an engagement's outcome (class, probabilities,
//! simulated timeline, loaded bytes) depends only on the model, the plan,
//! and the tokens — never on cache temperature or on what other sessions
//! are doing. Concurrent serving reproduces sequential results bit-for-bit;
//! the shared caches buy host wall-clock throughput, not simulated-time
//! shortcuts. The serving integration tests pin this down.
//!
//! **Contended track:** alongside the deterministic per-engagement results,
//! the server keeps the dual-track accounting of `sti_storage::scheduler` —
//! every dispatched request feeds the discrete-event flash-queue simulator,
//! and [`StiServer::contention_report`] replays the dispatch sequence to
//! quote each engagement's *contended* latency (plus, via the
//! per-engagement issue clock, the initial queueing between an
//! engagement's issue and its first flash service start).
//!
//! **One predictor, three views:** every contended question the server
//! asks — SLO admission at [`StiServer::session_with_slo`], the infer-time
//! backpressure gate, and [`Session::retarget_slo`] — is answered by
//! building a [`ServingMix`] from the open-session registry (each
//! session's actual [`CoRunnerLoad`] plus, for SLO sessions, its
//! [`SloProfile`]) and handing it to `sti_planner::mix`. The server never
//! assembles prediction lanes by hand; the mix's digest is the one memo
//! identity shared by the SLO-plan cache and the per-session gate memo,
//! so a registry change invalidates both consistently.
//! [`AdmissionMode::Enforce`] rejects sessions whose best plan still
//! misses: backpressure before the queue, not after. Under
//! [`PreloadPolicy::SharingAware`] ([`StiServerBuilder::plan_sharing`]),
//! the SLO search also ranks `|S|` *placements* by marginal value under
//! the mix — a layer an in-window co-resident already streams is never
//! preloaded while un-shared layers want the budget, and the bytes moved
//! are quoted in [`ContentionReport::preload_bytes_reallocated`].
//!
//! **Infer-time backpressure:** admission decides once, at session open —
//! but SLOs are violated by *bursts*, mid-session. With a
//! [`BackpressureMode`] configured ([`StiServerBuilder::backpressure`]),
//! every SLO engagement first passes a gate that re-runs the contended
//! prediction against the queue as it stands now (the registry mix merged
//! with the scheduler's `backlog_snapshot`) and either delays the
//! engagement on the simulated timeline until the prediction meets its SLO
//! (`Queue`, bounded by a maximum delay) or fails fast with
//! [`PipelineError::Backpressure`] (`Shed`). Decisions, queue delays, and
//! shed counts land in [`ContentionReport`]. Gate decisions are a pure
//! function of the deterministic open-session registry — identical between
//! concurrent and sequential replays of the same trace — and shed
//! engagements never touch the scheduler, so the uncontended determinism
//! contract is untouched. In queue mode the walk includes the *second gate
//! pass*: an equal-arrival earliest session is re-gated against
//! later-opened co-arriving load instead of running blind ahead of it
//! (see [`ServingMix::gate`]).
//!
//! **Shared-IO batching:** with a [`BatchPolicy`] window configured
//! ([`StiServerBuilder::batch_policy`]), co-resident sessions requesting
//! byte-identical layers within the window share **one** flash job whose
//! payload fans out as `Arc`s (`sti_storage::batcher`). Batching is
//! invisible to the uncontended track — per-engagement results stay
//! bit-identical to solo runs — and priced honestly on the contended one:
//! batched dispatches appear once in the replay, admission predicts with
//! `IoSharing::Batched`, and [`ContentionReport`] quotes the flash bytes
//! saved and the mean batch occupancy.
//!
//! **Device topology:** the simulated flash device may expose `C`
//! independent *device channels*
//! ([`StiServerBuilder::device_topology`]). Each session's shard placement
//! is striped across device channels — SLO sessions stripe where the
//! search's placement axis puts them, plain sessions round-robin by token
//! — and the stripe is folded into the session's job signatures, so
//! byte-identical requests coalesce only when placed on the *same*
//! device channel, the contended replay serves per-channel FIFO queues
//! ([`sti_device::TopologyQueueSim`]), and every contended prediction
//! simulates the same per-channel lanes. Device channels are distinct
//! from the scheduler's per-engagement IO lanes ([`IoChannel`]): a lane
//! is one engagement's FIFO request stream, a device channel is where the
//! simulated flash serves it. `C = 1` (the default) reproduces the legacy
//! single-channel server bit-identically.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sti_device::{CompletedJob, DeviceTopology, FlashModel, HwProfile, SimTime};
use sti_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, ObsSink, SpanArgs, SpanEvent,
    TrackKind,
};
use sti_planner::compute_plan::dynabert_widths_for;
use sti_planner::mix::{
    plan_for_slo_mix, GateOutcome, GatePolicy, MixLaneSummary, PreloadPolicy, ServingMix,
    SloProfile,
};
use sti_planner::prefetch::{
    EngagementKey as PrefetchKey, KeyId, PrefetchConfig, PrefetchMode, PrefetchPlan, Prefetcher,
    PrefetcherStats,
};
use sti_planner::serving::{ServingPlan, ServingPlanCache, ServingPlanKey};
use sti_planner::{
    align_io_completions, contended_makespan, plan_two_stage, CoRunnerLoad, ExecutionPlan,
    ImportanceProfile, IoSharing, PlanCache, PlanCacheStats, PlanKey,
};
use sti_quant::Bitwidth;
use sti_storage::{
    BacklogSnapshot, BatchPolicy, CachedSource, FlashDispatchEvent, IoChannel, IoScheduler,
    IoSchedulerStats, LayerRequest, PrefetchPoolStats, ShardCache, ShardCacheStats, ShardKey,
    ShardSource, SpeculativeJob,
};
use sti_transformer::{Model, ShardId};

use crate::buffers::PreloadBuffer;
use crate::engine::{GenerationOutcome, Inference};
use crate::error::PipelineError;
use crate::executor::{assemble_plan_submodel, PipelineExecutor};
use crate::registry::ShardedRegistry;

/// What the server does with an engagement whose best SLO-aware plan still
/// misses its SLO under the predicted contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// No admission checks (the pre-SLO behaviour).
    #[default]
    Disabled,
    /// Admit everything but count would-be rejections
    /// ([`ServingStats::monitor_violations`]).
    Monitor,
    /// Reject with [`PipelineError::AdmissionRejected`].
    Enforce,
}

/// What the server does, per engagement, when the live flash-queue
/// prediction says the engagement would miss its session's SLO *now* —
/// admission's mid-session counterpart. Only SLO sessions are gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressureMode {
    /// No infer-time gate (the pre-backpressure behaviour, and the
    /// default): every engagement executes, SLO misses only show up in the
    /// contention report.
    #[default]
    Off,
    /// Delay the engagement (on the simulated timeline) until the predicted
    /// contended latency meets the SLO, up to this maximum queue delay; if
    /// even the maximum cannot save it, fail fast with
    /// [`PipelineError::Backpressure`].
    Queue(SimTime),
    /// Fail fast with [`PipelineError::Backpressure`] whenever the
    /// prediction *now* misses the SLO — never wait.
    Shed,
}

/// One backpressure-gate decision, recorded per gated engagement.
/// Decisions are a pure function of the open-session registry (see the
/// module docs), so concurrent and sequential replays of the same trace
/// produce identical decision logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateDecision {
    /// The session's registry token (open order).
    pub session: u64,
    /// The session's trace-supplied arrival on the simulated timeline —
    /// the tick gate spans anchor to.
    pub arrival: SimTime,
    /// The SLO the gate held the engagement to.
    pub slo: SimTime,
    /// Predicted contended latency at the chosen delay (for a shed
    /// decision: the best achievable prediction, which still missed).
    pub predicted: SimTime,
    /// Queue delay applied on the simulated timeline (zero when the
    /// prediction met the SLO immediately, and for shed decisions).
    pub delay: SimTime,
    /// Whether the engagement was shed instead of executed.
    pub shed: bool,
    /// Whether the decision came from the second gate pass: the session was
    /// the equal-arrival earliest and was re-gated against later-opened
    /// co-arriving load (queue mode only; see
    /// [`ServingMix::gate`]).
    pub re_gated: bool,
    /// What drove the decision: the deciding mix digest and the load the
    /// prediction ran against.
    pub reason: GateReason,
}

/// The structured *why* behind a [`GateDecision`]: the mix digest the
/// decision was memoized under and a summary of the load the contended
/// prediction priced — so a shed or delay line in the serve report can
/// name the co-runner lane and backlog volume that crowded the session
/// out. A pure function of the mix (see [`ServingMix::lane_summary`]), so
/// replays derive identical reasons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateReason {
    /// The mix digest the decision was computed (and memoized) under.
    pub digest: u64,
    /// Open co-runner sessions the prediction priced (the deciding
    /// session itself excluded).
    pub co_runners: usize,
    /// External-backlog channels with queued or in-flight work.
    pub backlog_channels: usize,
    /// Serialized bytes queued in the external backlog.
    pub backlog_bytes: u64,
    /// The heaviest co-runner lane by total streamed service time, as
    /// `(registry token, total service time)` — the lane most responsible
    /// for the contention the prediction saw. `None` when the session had
    /// the mix to itself.
    pub dominant_lane: Option<(u64, SimTime)>,
    /// Speculative prefetch bytes queued behind the scheduler when the
    /// decision was shaped — labelled separately from
    /// [`GateReason::backlog_bytes`] so a blame line never attributes a
    /// delay or shed to background speculation. A reporting label only:
    /// the gate walk, the mix digest, and the contended prediction never
    /// read it (speculative jobs are excluded from demand backlog
    /// snapshots), so `shed`/`delay`/`predicted` are bit-identical with
    /// the prefetcher on or off. Always zero with prefetch off.
    pub speculative_bytes: u64,
}

/// Admission and engagement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// SLO sessions admitted.
    pub admitted_sessions: u64,
    /// SLO sessions rejected by [`AdmissionMode::Enforce`].
    pub rejected_sessions: u64,
    /// SLO sessions that would have been rejected under
    /// [`AdmissionMode::Monitor`].
    pub monitor_violations: u64,
    /// Engagements executed (across all sessions).
    pub engagements: u64,
    /// Largest number of engagements in flight at once.
    pub peak_concurrent_engagements: usize,
    /// Engagements the backpressure gate shed
    /// ([`PipelineError::Backpressure`]).
    pub shed_engagements: u64,
    /// Engagements the backpressure gate queue-delayed before executing.
    pub queued_engagements: u64,
    /// Bytes of default-prefix preload the sharing-aware `|S|` search moved
    /// off layers in-window co-residents already stream (summed over
    /// admitted SLO sessions; zero under
    /// [`PreloadPolicy::PerSession`]).
    pub preload_bytes_reallocated: u64,
}

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
    /// session had none).
    pub fn met_slo(&self) -> Option<bool> {
        self.slo.map(|slo| self.contended <= slo)
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
    /// admitted SLO sessions ([`ServingStats::preload_bytes_reallocated`]).
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

/// The prefetcher's end-to-end report surface: the Markov model's
/// counters, the staging pool's hit accounting, and the speculative
/// dispatch totals ([`StiServer::prefetch_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchReport {
    /// The configured mode.
    pub mode: PrefetchMode,
    /// Markov-model counters (observations, plans, rejections, feedback).
    pub model: PrefetcherStats,
    /// Staging-pool counters (staged/pinned/hit bytes, evictions).
    pub pool: PrefetchPoolStats,
    /// Speculative flash jobs dispatched so far.
    pub jobs: u64,
    /// Bytes speculatively read from flash.
    pub speculated_bytes: u64,
    /// Bytes pinned from resident blobs at zero flash cost.
    pub pinned_bytes: u64,
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
        let rank = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    }

    /// Fraction of SLO-carrying engagements whose contended latency met the
    /// SLO (`None` when no engagement carried one).
    pub fn slo_hit_rate(&self) -> Option<f64> {
        let with_slo: Vec<bool> = self.engagements.iter().filter_map(|e| e.met_slo()).collect();
        if with_slo.is_empty() {
            return None;
        }
        Some(with_slo.iter().filter(|&&met| met).count() as f64 / with_slo.len() as f64)
    }
}

/// Prices the recorded speculative dispatches into the **idle windows** of
/// an already-computed demand replay: per device channel, a speculative
/// job accumulates service time only while the demand timeline is idle —
/// any demand busy interval overlapping its window pushes it out (counted
/// in `preempted`), never the other way around. Demand completions are
/// inputs here, so speculation cannot move a demand latency by
/// construction; what it *costs* (channel time, flash bytes) is still
/// charged for real.
fn price_speculation(
    spec: &[FlashDispatchEvent],
    demand: &sti_device::TopologyReport,
) -> PrefetchContention {
    let mut out = PrefetchContention::default();
    let mut per_dc: BTreeMap<u16, Vec<&FlashDispatchEvent>> = BTreeMap::new();
    for e in spec {
        per_dc.entry(e.device_channel).or_default().push(e);
    }
    for (dc, mut jobs) in per_dc {
        jobs.sort_by_key(|e| (e.arrival, e.seq));
        let mut intervals: Vec<(SimTime, SimTime)> = demand
            .channels
            .get(dc as usize)
            .map(|c| c.completions.iter().map(|j| (j.start, j.completion)).collect())
            .unwrap_or_default();
        intervals.sort_unstable();
        // The channel serves its speculative queue FIFO in the gaps, so a
        // job starts no earlier than the previous one finished.
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

/// What one engagement contributed to the contended track: enough to replay
/// its pipeline recurrence against the simulated queue.
struct EngagementRecord {
    channel: u64,
    session: u64,
    slo: Option<SimTime>,
    /// The engagement's issue time on the simulated timeline (session
    /// arrival plus gate delay — the arrival its channel was opened at).
    issue: SimTime,
    /// Per-layer: did the layer stream through the scheduler?
    layer_has_io: Vec<bool>,
    /// Per-layer compute delay (uniform across a plan's layers).
    comp: SimTime,
    uncontended: SimTime,
}

/// Replays the engagement log against a flash replay's merged
/// `completions`, yielding `(record, issue, first service start, contended
/// makespan)` per engagement with a coherent timeline. `key` names the
/// engagement id `rec`'s jobs carry in that replay.
///
/// Per-session issue clock: a session issues its next engagement only once
/// the previous one returned, so each engagement's effective issue is its
/// recorded issue time (arrival + gate delay) advanced past the session's
/// previous contended completion. Whatever gap remains between that issue
/// and the first flash service start is genuine initial queueing —
/// co-runners occupying the channel before the engagement got its first
/// byte.
fn replay_issue_clock<'a>(
    log: &'a [EngagementRecord],
    completions: Vec<CompletedJob>,
    key: impl Fn(&EngagementRecord) -> u64 + 'a,
) -> impl Iterator<Item = (&'a EngagementRecord, SimTime, SimTime, SimTime)> + 'a {
    let mut per_engagement: HashMap<u64, Vec<CompletedJob>> = HashMap::new();
    for job in completions {
        per_engagement.entry(job.engagement).or_default().push(job);
    }
    let mut session_clock: HashMap<u64, SimTime> = HashMap::new();
    log.iter().filter_map(move |rec| {
        let jobs = per_engagement.get(&key(rec)).map(Vec::as_slice).unwrap_or(&[]);
        // `None` on a count mismatch: the engagement errored mid-stream
        // (or its channel was torn down early), so it has no coherent
        // contended timeline.
        let io_ends = align_io_completions(&rec.layer_has_io, jobs)?;
        let issue =
            rec.issue.max(session_clock.get(&rec.session).copied().unwrap_or(SimTime::ZERO));
        let start = jobs.first().map_or(issue, |j| j.start);
        let comps = vec![rec.comp; rec.layer_has_io.len()];
        let contended = contended_makespan(start, &io_ends, &comps);
        session_clock.insert(rec.session, start + contended);
        Some((rec, issue, start, contended))
    })
}

/// Builder for [`StiServer`].
pub struct StiServerBuilder {
    model: Model,
    source: Arc<dyn ShardSource>,
    hw: HwProfile,
    flash: FlashModel,
    importance: ImportanceProfile,
    default_target: SimTime,
    default_preload_budget: u64,
    bitwidths: Vec<Bitwidth>,
    widths: Vec<usize>,
    throttle_scale: f64,
    io_workers: usize,
    shard_cache_bytes: u64,
    admission: AdmissionMode,
    dram: Option<FlashModel>,
    batch: BatchPolicy,
    backpressure: BackpressureMode,
    plan_sharing: PreloadPolicy,
    topology: DeviceTopology,
    prefetch: PrefetchConfig,
}

impl StiServerBuilder {
    /// Default target latency `T` for sessions opened without knobs
    /// (default 200 ms).
    pub fn target(mut self, target: SimTime) -> Self {
        self.default_target = target;
        self
    }

    /// Default preload-buffer budget `|S|` in bytes (default 1 MiB).
    pub fn preload_budget(mut self, bytes: u64) -> Self {
        self.default_preload_budget = bytes;
        self
    }

    /// Fidelity versions available in the store (default: all).
    pub fn bitwidths(mut self, bitwidths: &[Bitwidth]) -> Self {
        self.bitwidths = bitwidths.to_vec();
        self
    }

    /// Allowed submodel widths (default: DynaBERT's {3, 6, 9, 12}).
    pub fn widths(mut self, widths: &[usize]) -> Self {
        self.widths = widths.to_vec();
        self
    }

    /// Wall-clock throttling of simulated IO (demonstrations only).
    pub fn throttle(mut self, scale: f64) -> Self {
        self.throttle_scale = scale;
        self
    }

    /// Host IO-worker threads in the scheduler pool (default 1). Workers
    /// are host-side parallelism only; how many flash channels the
    /// *simulated device* exposes is
    /// [`StiServerBuilder::device_topology`].
    pub fn io_workers(mut self, workers: usize) -> Self {
        self.io_workers = workers.max(1);
        self
    }

    /// The simulated device's flash topology (default: one channel — the
    /// legacy device). With `C > 1`, the IO scheduler
    /// stripes each session's shard placement across device channels, the
    /// contended track replays per-channel FIFO queues, batching coalesces
    /// only same-channel byte-identical requests, and the SLO search ranks
    /// *which* channels a candidate stripes across alongside its
    /// `(T, |S|)` placements. `C = 1` reproduces the single-channel server
    /// bit-identically.
    pub fn device_topology(mut self, topology: DeviceTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Convenience for [`StiServerBuilder::device_topology`]: `channels`
    /// independent flash channels.
    pub fn channels(self, channels: u16) -> Self {
        self.device_topology(DeviceTopology::with_channels(channels))
    }

    /// Byte budget of the shared compressed-shard cache (default 4 MiB;
    /// zero disables cross-engagement blob reuse).
    pub fn shard_cache_bytes(mut self, bytes: u64) -> Self {
        self.shard_cache_bytes = bytes;
        self
    }

    /// Admission policy for SLO sessions (default
    /// [`AdmissionMode::Disabled`]).
    pub fn admission(mut self, mode: AdmissionMode) -> Self {
        self.admission = mode;
        self
    }

    /// Opt-in DRAM-residency mode of the contended track: bytes resident in
    /// the shared shard cache are charged at DRAM service time
    /// ([`FlashModel::dram_residency`]) when the dispatch sequence is
    /// replayed. Off by default (cache hits still pay flash time, the
    /// conservative accounting).
    pub fn dram_residency(mut self, enabled: bool) -> Self {
        self.dram = enabled.then(FlashModel::dram_residency);
        self
    }

    /// Shared-IO batching policy (default [`BatchPolicy::Off`]): with a
    /// window configured, sessions requesting byte-identical layers within
    /// it share one flash job — N identical co-runners pay near-1× flash
    /// instead of N×. SLO admission then predicts with
    /// [`IoSharing::Batched`], so windows of co-arriving sessions admit
    /// where an unbatched prediction would reject. Per-engagement
    /// *results* are unaffected (the determinism contract holds either
    /// way).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// Infer-time backpressure policy for SLO sessions (default
    /// [`BackpressureMode::Off`]): before each engagement, the server
    /// re-runs the contended prediction against the live flash-queue mix
    /// and either delays the engagement until the prediction meets its SLO
    /// (`Queue`) or fails fast with [`PipelineError::Backpressure`]
    /// (`Shed`). Admission decides at session open; this gate reacts to
    /// bursts mid-session.
    pub fn backpressure(mut self, mode: BackpressureMode) -> Self {
        self.backpressure = mode;
        self
    }

    /// `|S|` placement policy for SLO searches (default
    /// [`PreloadPolicy::PerSession`]). Under
    /// [`PreloadPolicy::SharingAware`], the search ranks preload
    /// placements by marginal contended latency under the live mix: a
    /// layer an in-window co-resident already streams is never preloaded
    /// while an un-shared layer wants the budget, and a zero-`|S|`
    /// allocation that rides the co-residents' batches wholesale can win
    /// outright. Only meaningful with a batching window configured.
    pub fn plan_sharing(mut self, policy: PreloadPolicy) -> Self {
        self.plan_sharing = policy;
        self
    }

    /// Markov next-engagement prefetching (default
    /// [`PrefetchMode::Off`]): at each engagement completion the server
    /// observes the session's `(model, knob-set)` key in a per-client
    /// Markov chain, and when an edge clears the confidence floor it
    /// emits a budgeted [`PrefetchPlan`] — speculative background flash
    /// jobs that warm the predicted next engagement's streamed working
    /// set into the shard cache's staging pool during idle device-channel
    /// windows. Speculation is priced honestly on the contended track and
    /// strictly fenced off the demand path: demand dispatches always
    /// preempt it, gate decisions never read it, and a wrong prediction
    /// costs wasted bytes, never an SLO miss.
    pub fn prefetch(mut self, cfg: PrefetchConfig) -> Self {
        self.prefetch = cfg;
        self
    }

    /// Starts the IO scheduler and returns the ready server. No planning
    /// happens yet — plans and preload buffers materialize lazily, once per
    /// knob combination, when sessions open.
    pub fn build(self) -> StiServer {
        let shard_cache = Arc::new(ShardCache::new(self.shard_cache_bytes));
        if self.prefetch.enabled() {
            shard_cache.enable_prefetch_pool(self.prefetch.budget_bytes);
        }
        let cached_source: Arc<dyn ShardSource> =
            Arc::new(CachedSource::new(self.source.clone(), shard_cache.clone()));
        let scheduler = IoScheduler::spawn_topology(
            self.source.clone(),
            self.flash,
            self.io_workers,
            self.throttle_scale,
            Some(shard_cache.clone()),
            self.batch,
            self.topology,
        );
        let cfg = self.model.config();
        let fingerprint = format!(
            "model-{}x{}-h{}-f{}-v{}",
            cfg.layers, cfg.heads, cfg.hidden, cfg.ffn, cfg.vocab
        );
        let sharing = match self.batch.window() {
            Some(window) => IoSharing::Batched(window),
            None => IoSharing::Exclusive,
        };
        let registry = MetricsRegistry::new();
        let ins = ServingInstruments::resolve(&registry);
        StiServer {
            inner: Arc::new(ServerInner {
                model: self.model,
                cached_source,
                shard_cache,
                scheduler,
                hw: self.hw,
                flash: self.flash,
                importance: RwLock::new(self.importance),
                bitwidths: self.bitwidths,
                widths: self.widths,
                throttle_scale: self.throttle_scale,
                fingerprint,
                generation: AtomicU64::new(0),
                default_target: self.default_target,
                default_preload_budget: self.default_preload_budget,
                plan_cache: PlanCache::new(),
                preloads: Mutex::new(HashMap::new()),
                admission: self.admission,
                dram: self.dram,
                batch: self.batch,
                backpressure: self.backpressure,
                plan_sharing: self.plan_sharing,
                slo_cache: ServingPlanCache::new(),
                admission_gate: Mutex::new(()),
                open_sessions: AtomicUsize::new(0),
                next_session_token: AtomicU64::new(0),
                live_mix: ShardedRegistry::with_topology(sharing, self.topology),
                gate_walk_memo: Mutex::new(None),
                active_channels: Mutex::new(HashMap::new()),
                active_engagements: AtomicUsize::new(0),
                registry,
                ins,
                obs: Mutex::new(ObsSink::Null),
                engagement_log: Mutex::new(Vec::new()),
                gate_log: Mutex::new(Vec::new()),
                prefetch: self.prefetch.enabled().then(|| PrefetchState::new(self.prefetch)),
            }),
        }
    }
}

/// The server-side prefetch runtime: the shared Markov model plus the
/// key-to-working-set registry that turns a predicted [`KeyId`] back into
/// the concrete plan/preload/stripe to stage.
struct PrefetchState {
    cfg: PrefetchConfig,
    /// The Markov model. Observations are serialized through this lock;
    /// under the event executor completions arrive in deterministic
    /// simulated order, so the prediction stream is deterministic too.
    model: Mutex<Prefetcher>,
    /// What to materialize when a key is predicted, registered the first
    /// time the key is *observed* — a prediction always names a key some
    /// session has already run, so the lookup cannot miss in practice.
    targets: Mutex<HashMap<KeyId, PrefetchTarget>>,
}

/// The resolved working set behind one engagement key.
#[derive(Clone)]
struct PrefetchTarget {
    plan: Arc<ExecutionPlan>,
    preload: Arc<PreloadBuffer>,
    stripe: u16,
}

impl PrefetchState {
    fn new(cfg: PrefetchConfig) -> Self {
        Self { cfg, model: Mutex::new(Prefetcher::new(cfg)), targets: Mutex::new(HashMap::new()) }
    }
}

/// One memoized full gate walk: the mix digest it ran against, every open
/// SLO session's outcome from that walk ([`ServingMix::gate_all`]), and
/// the lane summary the walk's reasons derive from — computed once per
/// walk so per-decision reason assembly stays O(1).
type GateWalkMemo = (u64, Arc<HashMap<u64, GateOutcome>>, MixLaneSummary);

/// The server's named instruments, resolved once at build so hot paths
/// never touch the registry map. [`StiServer::serving_stats`] reconstructs
/// [`ServingStats`] from these — the instruments *are* the counters, not a
/// copy of them.
struct ServingInstruments {
    admitted_sessions: Counter,
    rejected_sessions: Counter,
    monitor_violations: Counter,
    engagements: Counter,
    shed_engagements: Counter,
    queued_engagements: Counter,
    /// Peak-tracking gauge: only the high-water mark is maintained (the
    /// live value stays on `ServerInner::active_engagements`).
    peak_engagements: Gauge,
    /// Bytes of preload the sharing-aware `|S|` search moved, as a gauge:
    /// retargets *replace* a session's contribution (sub then add), so a
    /// monotonic counter cannot represent it.
    preload_bytes_reallocated: Gauge,
    gate_decisions: Counter,
    gate_delay_us: Histogram,
    gate_predicted_us: Histogram,
}

impl ServingInstruments {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            admitted_sessions: registry.counter("serving.admitted_sessions"),
            rejected_sessions: registry.counter("serving.rejected_sessions"),
            monitor_violations: registry.counter("serving.monitor_violations"),
            engagements: registry.counter("serving.engagements"),
            shed_engagements: registry.counter("serving.shed_engagements"),
            queued_engagements: registry.counter("serving.queued_engagements"),
            peak_engagements: registry.gauge("serving.peak_concurrent_engagements"),
            preload_bytes_reallocated: registry.gauge("serving.preload_bytes_reallocated"),
            gate_decisions: registry.counter("gate.decisions"),
            gate_delay_us: registry.histogram("gate.delay_us"),
            gate_predicted_us: registry.histogram("gate.predicted_us"),
        }
    }
}

struct ServerInner {
    model: Model,
    /// The store fronted by the shared shard cache; all session reads —
    /// preload fills and generation streams — go through here.
    cached_source: Arc<dyn ShardSource>,
    shard_cache: Arc<ShardCache>,
    scheduler: IoScheduler,
    hw: HwProfile,
    flash: FlashModel,
    /// Behind a lock so a re-profiled table can be installed at runtime
    /// ([`StiServer::set_importance`]); plans derived from the old table are
    /// dropped at the same time.
    importance: RwLock<ImportanceProfile>,
    bitwidths: Vec<Bitwidth>,
    widths: Vec<usize>,
    throttle_scale: f64,
    fingerprint: String,
    /// Bumped by [`StiServer::invalidate_plans`] and folded into every
    /// [`PlanKey`], so a session that raced an invalidation inserts its
    /// stale plan (and preload buffer) under an unreachable key instead of
    /// repopulating the cleared caches. Plans and preload buffers are keyed
    /// identically, so a plan can never be paired with a buffer built for a
    /// different generation.
    generation: AtomicU64,
    default_target: SimTime,
    default_preload_budget: u64,
    plan_cache: PlanCache,
    /// One immutable, shared preload buffer per plan key (read-mostly state:
    /// built once under the lock, then only read through `Arc`s).
    preloads: Mutex<HashMap<PlanKey, Arc<PreloadBuffer>>>,
    admission: AdmissionMode,
    /// DRAM-residency model for the contended track, when opted in.
    dram: Option<FlashModel>,
    /// Shared-IO batching policy the scheduler runs (and admission models).
    batch: BatchPolicy,
    /// Infer-time backpressure policy for SLO sessions.
    backpressure: BackpressureMode,
    /// `|S|` placement policy for SLO searches.
    plan_sharing: PreloadPolicy,
    /// Memoized SLO searches, keyed by knobs + mix digest + `|S|` policy.
    slo_cache: ServingPlanCache,
    /// Serializes SLO session opens: the admission decision and the
    /// open-session increment must be atomic with respect to each other.
    admission_gate: Mutex<()>,
    /// Sessions currently open — the co-runner count admission plans for.
    /// Ungated `session_with` opens and session drops can still move it
    /// while an SLO open is deciding; those are unconditional-admit paths,
    /// indistinguishable from load arriving right after the decision.
    open_sessions: AtomicUsize,
    /// Monotonic token handed to each session, keying `live_mix`.
    next_session_token: AtomicU64,
    /// The open-session registry — each open session's actual streaming IO
    /// load (with arrival offset) plus, for SLO sessions, its gate profile:
    /// what SLO admission and the backpressure gate feed the contended
    /// prediction instead of modeling co-runners as clones of the
    /// candidate. Sharded by token hash so fleet-scale opens and drops on
    /// a worker pool touch per-shard locks, not one global one; the
    /// per-shard rolling folds sum commutatively into the same digest the
    /// un-sharded registry would report (see [`ShardedRegistry`]). The
    /// merged view stays token-ordered, so the registration order
    /// predictions replay is deterministic.
    live_mix: ShardedRegistry,
    /// The last full gate walk, keyed by the mix digest it ran against.
    /// [`ServingMix::gate_all`] prices every open SLO session in one
    /// `(arrival, token)` walk; after a registry change, the first gate
    /// decision pays for that walk and every other session's decision —
    /// including each session's *first* — is a lookup. Decisions stay a
    /// pure function of the mix, so sharing the walk across sessions
    /// changes nothing observable.
    gate_walk_memo: Mutex<Option<GateWalkMemo>>,
    /// Scheduler channel → session token for engagements currently
    /// executing. The backpressure gate prices registered sessions from the
    /// registry (deterministic) and must not double-count their live queue
    /// entries; only channels *not* in this map count as external backlog.
    active_channels: Mutex<HashMap<u64, u64>>,
    /// Engagements currently executing (peak tracked in
    /// `ins.peak_engagements`).
    active_engagements: AtomicUsize,
    /// The server's metrics registry; `serving.*` and `gate.*` instruments
    /// live here, `io.*` in the scheduler's own
    /// ([`StiServer::metrics_snapshot`] merges both).
    registry: MetricsRegistry,
    /// Handles resolved from `registry` at build.
    ins: ServingInstruments,
    /// Live span sink (admission instants here, host-track dispatch spans
    /// via the scheduler); defaults to [`ObsSink::Null`].
    obs: Mutex<ObsSink>,
    /// Contended-track records, one per executed engagement.
    engagement_log: Mutex<Vec<EngagementRecord>>,
    /// Backpressure-gate decisions, one per gated engagement.
    gate_log: Mutex<Vec<GateDecision>>,
    /// The Markov prefetch runtime (`None` with prefetch off — the
    /// completion path then pays a single branch).
    prefetch: Option<PrefetchState>,
}

impl ServerInner {
    fn plan_key(&self, target: SimTime, preload_budget: u64) -> PlanKey {
        let model = format!("{}@g{}", self.fingerprint, self.generation.load(Ordering::SeqCst));
        PlanKey::new(model, target, preload_budget, &self.widths, &self.bitwidths)
    }

    /// Resolves (plan, preload buffer) for a knob combination through both
    /// caches, planning and filling at most once per combination.
    fn resolve(
        &self,
        target: SimTime,
        preload_budget: u64,
    ) -> Result<(Arc<ExecutionPlan>, Arc<PreloadBuffer>), PipelineError> {
        let key = self.plan_key(target, preload_budget);
        let plan = self.plan_cache.get_or_plan(&key, || {
            plan_two_stage(
                &self.hw,
                &self.importance.read(),
                target,
                preload_budget,
                &self.widths,
                &self.bitwidths,
            )
        });
        let buffer = self.preload_for(key, &plan)?;
        Ok((plan, buffer))
    }

    /// Resolves the buffer a plan's preload set needs, filling and caching
    /// it under `key` at most once.
    fn preload_for(
        &self,
        key: PlanKey,
        plan: &ExecutionPlan,
    ) -> Result<Arc<PreloadBuffer>, PipelineError> {
        if let Some(buffer) = self.preloads.lock().get(&key).cloned() {
            return Ok(buffer);
        }
        // Fill outside the map lock: preload fills read the (cached) store,
        // and sessions resolving other knob sets must not wait behind that.
        let mut buffer = PreloadBuffer::new(plan.preload_budget_bytes);
        for &(id, bw) in &plan.preload {
            let blob = self.cached_source.load(ShardKey::new(id, bw))?;
            buffer.insert(id, blob)?;
        }
        let buffer = Arc::new(buffer);
        let mut preloads = self.preloads.lock();
        // First fill wins a race; fills are deterministic, so both are equal.
        Ok(preloads.entry(key).or_insert(buffer).clone())
    }

    /// Resolves the running plan and preload buffer of an SLO-search
    /// outcome. When the search settled on the default byte-prefix plan
    /// (always, under [`PreloadPolicy::PerSession`]), this is the ordinary
    /// shared resolution; a mix-aware `|S|` placement instead keys its
    /// buffer by the placement itself, so sessions planned against the
    /// same mix still share one buffer.
    fn resolve_serving(
        &self,
        served: &ServingPlan,
        preload_budget: u64,
    ) -> Result<(Arc<ExecutionPlan>, Arc<PreloadBuffer>), PipelineError> {
        let key = self.plan_key(served.target, preload_budget);
        let default_plan = self.plan_cache.get_or_plan(&key, || {
            plan_two_stage(
                &self.hw,
                &self.importance.read(),
                served.target,
                preload_budget,
                &self.widths,
                &self.bitwidths,
            )
        });
        // `preload_bytes_reallocated == 0` means the search settled on the
        // default placement: resolve through the shared knob caches (and if
        // an importance reprofile raced the search, the freshly resolved
        // plan is the correct one to run, exactly as before). The default
        // buffer is filled only on this path — a winning mix placement
        // must not pay for (and pin) a prefix buffer nobody runs.
        if served.preload_bytes_reallocated == 0 || *default_plan == served.plan {
            let buffer = self.preload_for(key, &default_plan)?;
            return Ok((default_plan, buffer));
        }
        let placement = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for pl in &served.plan.layers {
                pl.layer.hash(&mut h);
                for (slice, bw) in pl.items() {
                    (slice, bw.bits()).hash(&mut h);
                }
            }
            for &(id, bw) in &served.plan.preload {
                (id.layer, id.slice, bw.bits()).hash(&mut h);
            }
            h.finish()
        };
        let mut key = key;
        key.model = format!("{}#mix{placement:016x}", key.model);
        let plan = Arc::new(served.plan.clone());
        let buffer = self.preload_for(key, &plan)?;
        Ok((plan, buffer))
    }

    /// Registers (or refreshes, after a retarget or `set_arrival`) a
    /// session's streaming IO load — at its arrival offset — in the live
    /// registry mix that admission and the backpressure gate predict
    /// against. SLO sessions also register their gate profile. An in-place
    /// upsert: the mix's rolling digest updates in O(1), nothing else is
    /// rehashed. `stripe` is the session's device-channel stripe offset
    /// (the SLO search's placement choice for SLO sessions, the
    /// round-robin default for plain ones; always zero on a
    /// single-channel device): it is folded into the registered job
    /// signatures, so every contended prediction routes — and batches —
    /// this session's jobs on the device channels it actually streams
    /// through.
    fn register_load(
        &self,
        token: u64,
        plan: &ExecutionPlan,
        arrival: SimTime,
        slo: Option<SimTime>,
        stripe: u16,
    ) {
        let load = CoRunnerLoad::from_plan_striped(&self.hw, plan, arrival, stripe);
        let slo = slo.map(|slo| SloProfile::from_plan_striped(&self.hw, plan, slo, stripe));
        self.live_mix.upsert(token, load, slo);
    }

    /// The default device-channel stripe for a session without an SLO
    /// placement: round-robin by session token, so a uniform fleet spreads
    /// across the device's channels instead of piling its (byte-identical)
    /// request stream onto whichever channel its signatures hash to.
    /// Always zero on a single-channel device — plain sessions there are
    /// bit-identical to the pre-topology server.
    fn default_stripe(&self, token: u64) -> u16 {
        (token % self.scheduler.topology().channel_count() as u64) as u16
    }

    /// A view of the live registry mix — the one input every contended
    /// prediction (admission, gate, retarget) runs against — optionally
    /// excluding one session (a retargeting session does not co-run with
    /// itself). The merge copies `Arc`-shared job slices (pointer work, no
    /// jobs), and the `exclude` case is an O(log n) remove from the view
    /// with an O(1) digest update — not a registry rebuild.
    fn mix(&self, exclude: Option<u64>) -> ServingMix {
        self.live_mix.merged_excluding(exclude)
    }
}

/// A multi-session serving runtime: owns the model and every shareable
/// resource, hands out [`Session`]s.
pub struct StiServer {
    inner: Arc<ServerInner>,
}

impl StiServer {
    /// Starts building a server for a model whose shards live in `source`,
    /// on a device described by `hw`/`flash`, with shard importance already
    /// profiled (one-time, per model, §3.2).
    pub fn builder(
        model: Model,
        source: Arc<dyn ShardSource>,
        hw: HwProfile,
        flash: FlashModel,
        importance: ImportanceProfile,
    ) -> StiServerBuilder {
        let widths = dynabert_widths_for(model.config().heads);
        StiServerBuilder {
            model,
            source,
            hw,
            flash,
            importance,
            default_target: SimTime::from_ms(200),
            default_preload_budget: 1 << 20,
            bitwidths: Bitwidth::ALL.to_vec(),
            widths,
            throttle_scale: 0.0,
            io_workers: 1,
            shard_cache_bytes: 4 << 20,
            admission: AdmissionMode::Disabled,
            dram: None,
            batch: BatchPolicy::Off,
            backpressure: BackpressureMode::Off,
            plan_sharing: PreloadPolicy::PerSession,
            topology: DeviceTopology::single(),
            prefetch: PrefetchConfig::default(),
        }
    }

    /// Opens a session with the server's default knobs.
    ///
    /// # Errors
    ///
    /// Fails if preload shards cannot be loaded from the store.
    pub fn session(&self) -> Result<Session, PipelineError> {
        self.session_with(self.inner.default_target, self.inner.default_preload_budget)
    }

    /// Opens a session with explicit knobs. The plan and preload buffer are
    /// resolved through the shared caches: the first session with a given
    /// knob combination plans and fills, later ones attach for free.
    ///
    /// # Errors
    ///
    /// Fails if preload shards cannot be loaded from the store.
    pub fn session_with(
        &self,
        target: SimTime,
        preload_budget: u64,
    ) -> Result<Session, PipelineError> {
        let (plan, preload) = self.inner.resolve(target, preload_budget)?;
        let token = self.inner.next_session_token.fetch_add(1, Ordering::SeqCst);
        let stripe = self.inner.default_stripe(token);
        self.inner.register_load(token, &plan, SimTime::ZERO, None, stripe);
        self.inner.open_sessions.fetch_add(1, Ordering::SeqCst);
        Ok(Session {
            inner: self.inner.clone(),
            token,
            target,
            preload_budget,
            arrival: SimTime::ZERO,
            plan,
            preload,
            slo: None,
            serving: None,
            realloc_bytes: 0,
            stripe,
            gate_memo: Mutex::new(None),
            issue_gap: SimTime::ZERO,
            engagement_seq: AtomicU64::new(0),
        })
    }

    /// Opens `count` sessions with uniform knobs in one call. The knobs
    /// are resolved through the plan/preload caches **once**, so pooled
    /// fleet bring-up pays the caches' global locks per *batch* instead of
    /// per open — the per-open path touches only the token counter and the
    /// sharded open-session registry, which admits parallel batches.
    /// Equivalent to `count` calls to [`StiServer::session_with`]: the
    /// registry fold is commutative, so the resulting digest (and every
    /// gate decision derived from it) is identical either way.
    ///
    /// # Errors
    ///
    /// Fails if preload shards cannot be loaded from the store.
    pub fn open_fleet(
        &self,
        count: usize,
        target: SimTime,
        preload_budget: u64,
    ) -> Result<Vec<Session>, PipelineError> {
        let (plan, preload) = self.inner.resolve(target, preload_budget)?;
        Ok((0..count)
            .map(|_| {
                let token = self.inner.next_session_token.fetch_add(1, Ordering::SeqCst);
                let stripe = self.inner.default_stripe(token);
                self.inner.register_load(token, &plan, SimTime::ZERO, None, stripe);
                self.inner.open_sessions.fetch_add(1, Ordering::SeqCst);
                Session {
                    inner: self.inner.clone(),
                    token,
                    target,
                    preload_budget,
                    arrival: SimTime::ZERO,
                    plan: plan.clone(),
                    preload: preload.clone(),
                    slo: None,
                    serving: None,
                    realloc_bytes: 0,
                    stripe,
                    gate_memo: Mutex::new(None),
                    issue_gap: SimTime::ZERO,
                    engagement_seq: AtomicU64::new(0),
                }
            })
            .collect())
    }

    /// Opens a session planned against a latency **SLO** instead of a raw
    /// target: the serving planner searches `(T, |S|)` so the session's
    /// *contended* latency — predicted by the flash-queue simulator with
    /// the currently open sessions' **actual** streaming loads as
    /// co-runners, under the server's shared-IO batching mode — meets
    /// `slo`. Search results are memoized per `(knobs, co-runner mix,
    /// sharing)`.
    ///
    /// # Errors
    ///
    /// Fails with [`PipelineError::AdmissionRejected`] when the server's
    /// admission mode is [`AdmissionMode::Enforce`] and even the best plan
    /// misses the SLO under the predicted contention; otherwise fails only
    /// if preload shards cannot be loaded.
    pub fn session_with_slo(
        &self,
        slo: SimTime,
        preload_budget: u64,
    ) -> Result<Session, PipelineError> {
        self.session_with_slo_at(slo, preload_budget, SimTime::ZERO)
    }

    /// [`StiServer::session_with_slo`] for a session arriving at `arrival`
    /// on the simulated timeline (a trace file's `arrival_us`): the
    /// admission prediction queues the candidate's requests at its real
    /// arrival against each open session's real arrival, so an open
    /// straggler whose window does not overlap no longer counts against
    /// the candidate. The session opens with its arrival already set.
    ///
    /// # Errors
    ///
    /// As [`StiServer::session_with_slo`].
    pub fn session_with_slo_at(
        &self,
        slo: SimTime,
        preload_budget: u64,
        arrival: SimTime,
    ) -> Result<Session, PipelineError> {
        let inner = &*self.inner;
        // SLO opens serialize on this gate so the co-runner mix cannot
        // change between the admission check and the open-session
        // registration: two racing SLO opens can never both admit against a
        // mix that excludes the other. Plain `session_with` opens are
        // not gated — they are admitted unconditionally by design, so a
        // racing plain open is indistinguishable from one that lands just
        // after admission.
        let _admission = inner.admission_gate.lock();
        let mix = inner.mix(None);
        let co_runners = mix.co_runners();
        let key = ServingPlanKey::for_mix(
            inner.plan_key(slo, preload_budget),
            arrival,
            &mix,
            inner.plan_sharing,
        );
        let served = inner.slo_cache.get_or_plan(&key, || {
            plan_for_slo_mix(
                &inner.hw,
                &inner.importance.read(),
                slo,
                arrival,
                &mix,
                inner.plan_sharing,
                preload_budget,
                &inner.widths,
                &inner.bitwidths,
            )
        });
        if !served.meets_slo {
            match inner.admission {
                AdmissionMode::Enforce => {
                    inner.ins.rejected_sessions.incr();
                    // The token this session would have taken — stable
                    // (opens serialize on the admission gate), so the
                    // span track is deterministic across replays.
                    let token = inner.next_session_token.load(Ordering::SeqCst);
                    inner.obs.lock().span(
                        SpanEvent::instant(
                            TrackKind::Session,
                            token,
                            "admission.reject",
                            arrival.as_us(),
                        )
                        .with_args(
                            SpanArgs::new()
                                .with("predicted_us", served.predicted_contended.as_us())
                                .with("slo_us", slo.as_us())
                                .with("co_runners", co_runners as u64),
                        ),
                    );
                    return Err(PipelineError::AdmissionRejected {
                        predicted: served.predicted_contended,
                        slo,
                        co_runners,
                    });
                }
                AdmissionMode::Monitor => inner.ins.monitor_violations.incr(),
                AdmissionMode::Disabled => {}
            }
        }
        // The search's chosen plan is what the session runs. For the
        // default placement this resolves through the shared knob caches
        // (replanning agrees with the search — unless an importance
        // reprofile raced in between, in which case the freshly resolved
        // plan is the correct one to run); a mix-aware placement resolves
        // its own buffer, shared per placement.
        let (plan, preload) = inner.resolve_serving(&served, preload_budget)?;
        let token = inner.next_session_token.fetch_add(1, Ordering::SeqCst);
        inner.register_load(token, &plan, arrival, Some(slo), served.stripe);
        inner.ins.admitted_sessions.incr();
        inner.ins.preload_bytes_reallocated.add(served.preload_bytes_reallocated);
        inner.obs.lock().span(
            SpanEvent::instant(TrackKind::Session, token, "admission.admit", arrival.as_us())
                .with_args(
                    SpanArgs::new()
                        .with("predicted_us", served.predicted_contended.as_us())
                        .with("slo_us", slo.as_us())
                        .with("co_runners", co_runners as u64),
                ),
        );
        inner.open_sessions.fetch_add(1, Ordering::SeqCst);
        Ok(Session {
            inner: self.inner.clone(),
            token,
            target: served.target,
            preload_budget,
            arrival,
            plan,
            preload,
            slo: Some(slo),
            serving: Some(served.clone()),
            realloc_bytes: served.preload_bytes_reallocated,
            stripe: served.stripe,
            gate_memo: Mutex::new(None),
            issue_gap: SimTime::ZERO,
            engagement_seq: AtomicU64::new(0),
        })
    }

    /// The model's resident parameters in bytes (shared across all
    /// sessions, unlike per-engine copies).
    pub fn resident_bytes(&self) -> usize {
        self.inner.model.resident_byte_size()
    }

    /// Plan-cache effectiveness counters.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache.stats()
    }

    /// Shard-cache effectiveness counters.
    pub fn shard_stats(&self) -> ShardCacheStats {
        self.inner.shard_cache.stats()
    }

    /// IO-scheduler accounting (requests, bytes, simulated flash busy time,
    /// observed queue depth, batching counters).
    pub fn io_stats(&self) -> IoSchedulerStats {
        self.inner.scheduler.stats()
    }

    /// The shared-IO batching policy this server runs.
    pub fn batch_policy(&self) -> BatchPolicy {
        self.inner.batch
    }

    /// Quiesces the IO scheduler: engagements keep queuing layer requests
    /// but nothing dispatches until [`StiServer::resume_io`]. Tests and
    /// benches use the pair to queue a whole co-resident workload and
    /// release it in one burst, making batching fan-outs deterministic.
    pub fn pause_io(&self) {
        self.inner.scheduler.pause_dispatch();
    }

    /// Releases a [`StiServer::pause_io`].
    pub fn resume_io(&self) {
        self.inner.scheduler.resume_dispatch();
    }

    /// Layer requests currently queued (and not in flight) in the IO
    /// scheduler — poll this while paused to know a workload is fully
    /// submitted.
    pub fn queued_io_requests(&self) -> usize {
        self.inner.scheduler.queued_requests()
    }

    /// Services the IO queue dry on the calling thread, returning the
    /// number of dispatches run ([`IoScheduler::drive_queued`]). The
    /// event-driven executor pairs this with [`StiServer::pause_io`]: the
    /// worker pool stays parked while the simulated clock's flash component
    /// *is* the dispatcher, so dispatch order is a pure function of the
    /// queue contents.
    pub fn drive_io(&self) -> usize {
        self.inner.scheduler.drive_queued()
    }

    /// [`StiServer::drive_io`] restricted to one device channel
    /// ([`IoScheduler::drive_queued_on`]): the event-driven executor hosts
    /// one flash [`Component`](sti_device::engine::Component) per device
    /// channel, each servicing only the requests placed on its own
    /// channel.
    pub fn drive_io_on(&self, device_channel: u16) -> usize {
        self.inner.scheduler.drive_queued_on(device_channel)
    }

    /// The simulated flash topology this server's scheduler places
    /// requests onto.
    pub fn device_topology(&self) -> DeviceTopology {
        self.inner.scheduler.topology()
    }

    /// Number of distinct knob combinations currently planned.
    pub fn cached_plans(&self) -> usize {
        self.inner.plan_cache.len()
    }

    /// Admission and engagement counters, reconstructed from the server's
    /// named instruments (the instruments are the source of truth; this
    /// struct is the stable report shape).
    pub fn serving_stats(&self) -> ServingStats {
        let ins = &self.inner.ins;
        ServingStats {
            admitted_sessions: ins.admitted_sessions.get(),
            rejected_sessions: ins.rejected_sessions.get(),
            monitor_violations: ins.monitor_violations.get(),
            engagements: ins.engagements.get(),
            peak_concurrent_engagements: ins.peak_engagements.max() as usize,
            shed_engagements: ins.shed_engagements.get(),
            queued_engagements: ins.queued_engagements.get(),
            preload_bytes_reallocated: ins.preload_bytes_reallocated.get(),
        }
    }

    /// A merged snapshot of every instrument the serving path maintains:
    /// the server's `serving.*`/`gate.*` registry folded with the IO
    /// scheduler's `io.*` registry (disjoint prefixes, lossless merge).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // `prefetch.*` gauges materialize lazily, at snapshot time, and
        // only when the prefetcher runs — an off-mode server exports no
        // prefetch series at all.
        if self.inner.prefetch.is_some() {
            let pool = self.inner.shard_cache.prefetch_stats();
            let spec = self.inner.scheduler.speculative_events();
            let registry = &self.inner.registry;
            registry.gauge("prefetch.hit_bytes").set(pool.hit_bytes);
            registry
                .gauge("prefetch.speculated_bytes")
                .set(spec.iter().map(|e| e.bytes).sum::<u64>());
            registry.gauge("prefetch.evictions").set(pool.evictions);
            registry.gauge("prefetch.hit_rate_pct").set((pool.hit_rate() * 100.0).round() as u64);
        }
        let mut snap = self.inner.registry.snapshot();
        snap.merge(&self.inner.scheduler.metrics_snapshot());
        snap
    }

    /// Routes live spans (admission instants, host-track scheduler
    /// dispatch spans) to `sink`, and shares it with the IO scheduler.
    /// The deterministic span stream is assembled separately by
    /// [`StiServer::trace_spans`]; the live sink only adds color for
    /// single-run inspection.
    pub fn set_obs_sink(&self, sink: ObsSink) {
        self.inner.scheduler.set_obs_sink(sink.clone());
        *self.inner.obs.lock() = sink;
    }

    /// The live span sink currently installed (shares the ring with the
    /// server; [`ObsSink::Null`] when tracing is off). Replay harnesses
    /// hand this to the event engine so engine-track spans land in the
    /// same stream.
    pub fn obs_sink(&self) -> ObsSink {
        self.inner.obs.lock().clone()
    }

    /// Assembles the virtual-clock span stream for everything served so
    /// far. The deterministic tracks are a pure function of the
    /// engagement, gate, and dispatch logs, so event and sequential
    /// replays of one trace produce identical streams (the `sti-obs`
    /// determinism contract):
    ///
    /// * [`TrackKind::Session`] — one `engagement` interval per executed
    ///   engagement (issue → contended completion, replaying the same
    ///   recurrence as [`StiServer::contention_report`]), plus one
    ///   `gate.admit` / `gate.delay` / `gate.shed` event per gate decision
    ///   carrying the deciding [`GateReason`] digest and dominant lane.
    /// * [`TrackKind::Flash`] — one track per *device channel*: each
    ///   channel's `flash.wait` / `flash.service` / `flash.depth` timeline
    ///   from a canonical replay of the dispatch log (a single track on
    ///   the default single-channel topology).
    ///
    /// Scheduler channel ids are assigned in issue order, which differs
    /// between the event replay (sessions interleave) and the sequential
    /// one (client by client), so dispatch events are first remapped onto
    /// stable engagement ids (`session << 16 | per-session index` —
    /// chronological because a session runs its engagements serially) and
    /// re-sorted by `(arrival, stable id)`, an order both replays agree
    /// on, before the flash replay. The stable sort only reorders across
    /// channels; per-channel FIFO is preserved.
    ///
    /// Whatever the live [`ObsSink`] has buffered (admission markers,
    /// host-track dispatch spans) is drained and appended for single-run
    /// inspection; [`TrackFilter::Deterministic`](sti_obs::TrackFilter)
    /// keeps host/engine tracks out of deterministic exports. The result
    /// is sorted by the canonical span key.
    pub fn trace_spans(&self) -> Vec<SpanEvent> {
        let inner = &*self.inner;
        let log = inner.engagement_log.lock();
        // Stable engagement ids: scheduler channel -> session<<16 | index.
        let mut next_index: HashMap<u64, u64> = HashMap::new();
        let mut stable: HashMap<u64, u64> = HashMap::new();
        for rec in log.iter() {
            let idx = next_index.entry(rec.session).or_insert(0);
            stable.insert(rec.channel, (rec.session << 16) | *idx);
            *idx += 1;
        }
        // Canonical flash replay over stable ids.
        let mut events = inner.scheduler.flash_events();
        for e in &mut events {
            e.channel = stable.get(&e.channel).copied().unwrap_or(u64::MAX);
            for m in &mut e.members {
                *m = stable.get(m).copied().unwrap_or(u64::MAX);
            }
        }
        events.sort_by_key(|e| (e.arrival, e.channel));
        let report = IoScheduler::topology_sim_from_events(
            &events,
            inner.flash,
            inner.dram,
            inner.scheduler.topology(),
        )
        .run();
        let completions = report.completions();
        let ring = ObsSink::ring((completions.len() * 4 + 64) * std::mem::size_of::<SpanEvent>());
        report.emit_spans(&ring);
        let (mut spans, _) = ring.drain();
        // Session-track engagement intervals: the same per-session issue
        // clock as the contention report, joined on stable ids.
        for (rec, issue, start, contended) in
            replay_issue_clock(&log, completions, |rec| stable[&rec.channel])
        {
            spans.push(
                SpanEvent::complete(
                    TrackKind::Session,
                    rec.session,
                    "engagement",
                    issue.as_us(),
                    (start + contended).as_us(),
                )
                .with_args(
                    SpanArgs::new()
                        .with("engagement", stable[&rec.channel])
                        .with("uncontended_us", rec.uncontended.as_us())
                        .with("slo_us", rec.slo.map_or(0, |s| s.as_us())),
                ),
            );
        }
        drop(log);
        // Gate decisions as session-track markers carrying the reason.
        for d in inner.gate_log.lock().iter() {
            let args = SpanArgs::new()
                .with("digest", d.reason.digest)
                .with("predicted_us", d.predicted.as_us())
                .with("backlog_bytes", d.reason.backlog_bytes)
                .with("dominant", d.reason.dominant_lane.map_or(u64::MAX, |(t, _)| t));
            let span = if d.shed {
                SpanEvent::instant(TrackKind::Session, d.session, "gate.shed", d.arrival.as_us())
            } else if d.delay > SimTime::ZERO {
                SpanEvent::complete(
                    TrackKind::Session,
                    d.session,
                    "gate.delay",
                    d.arrival.as_us(),
                    (d.arrival + d.delay).as_us(),
                )
            } else {
                SpanEvent::instant(TrackKind::Session, d.session, "gate.admit", d.arrival.as_us())
            };
            spans.push(span.with_args(args));
        }
        // Speculative staging windows, one track per device channel.
        // Whether a staged shard was flash-loaded or pinned depends on
        // cache residency at execution time, so the track is outside the
        // determinism contract ([`TrackKind::Prefetch`]) and deterministic
        // exports drop it.
        for e in inner.scheduler.speculative_events() {
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
        // Live-sink color (admission markers, host-track dispatch spans).
        let (live, _) = inner.obs.lock().drain();
        spans.extend(live);
        spans.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        spans
    }

    /// SLO-search memo counters (hits mean a session reused a search done
    /// for the same knobs and co-runner count).
    pub fn slo_plan_stats(&self) -> PlanCacheStats {
        self.inner.slo_cache.stats()
    }

    /// Sessions currently open (the co-runner count the next SLO admission
    /// will plan against).
    pub fn open_sessions(&self) -> usize {
        self.inner.open_sessions.load(Ordering::SeqCst)
    }

    /// The live registry mix's rolling digest — the identity the SLO-plan
    /// cache and both gate memos key on. Maintained incrementally
    /// (O(1) per open/close/retarget), so this call costs two words per
    /// registry shard plus a hash of the (empty) backlog, flat in fleet
    /// size; fleet-scale probes use it to measure mix-digest time.
    pub fn mix_digest(&self) -> u64 {
        self.inner.live_mix.digest_with(&BacklogSnapshot::default())
    }

    /// Replays the recorded dispatch sequence through the flash-queue
    /// simulator and reports each executed engagement's contended latency
    /// (plus queue aggregates). Under the opt-in DRAM-residency mode
    /// ([`StiServerBuilder::dram_residency`]), cache-resident bytes are
    /// charged at DRAM service time.
    ///
    /// An engagement's contended latency is measured from its **first flash
    /// service start**: it captures the stretch co-runner jobs interleaved
    /// into its pipeline, not how long ago the server started. Engagements
    /// that ran back-to-back with the queue to themselves report exactly
    /// their uncontended makespan. (Replaying trace-supplied arrival
    /// offsets through [`sti_storage::IoScheduler::channel_at`] so initial
    /// queueing counts too is a roadmap follow-up.)
    ///
    /// The dispatch log grows with every engagement served; long-lived
    /// servers should call [`StiServer::reset_contention_log`] after
    /// harvesting a report.
    pub fn contention_report(&self) -> ContentionReport {
        let inner = &*self.inner;
        let events = inner.scheduler.flash_events();
        let report = IoScheduler::topology_sim_from_events(
            &events,
            inner.flash,
            inner.dram,
            inner.scheduler.topology(),
        )
        .run();
        let log = inner.engagement_log.lock();
        let engagements = replay_issue_clock(&log, report.completions(), |rec| rec.channel)
            .map(|(rec, issue, start, contended)| EngagementContention {
                channel: rec.channel,
                session: rec.session,
                uncontended: rec.uncontended,
                contended,
                issue,
                initial_queueing: start.saturating_sub(issue),
                slo: rec.slo,
            })
            .collect();
        drop(log);
        // Batch-occupancy accounting straight off the event stream: a
        // batched dispatch appears once, with its fan-out recipients.
        let batched_dispatches = events.iter().filter(|e| e.fanout() > 1).count() as u64;
        let flash_bytes_saved: u64 = events.iter().map(|e| e.bytes * e.members.len() as u64).sum();
        let deliveries: usize = events.iter().map(FlashDispatchEvent::fanout).sum();
        let mean_batch_occupancy =
            if events.is_empty() { 0.0 } else { deliveries as f64 / events.len() as f64 };
        // Gate decisions sorted by session token; each session runs its
        // engagements serially, so the per-session order of the log is
        // already chronological and a stable sort preserves it.
        let mut gate = inner.gate_log.lock().clone();
        gate.sort_by_key(|d| d.session);
        // Speculation is priced strictly after (and against) the demand
        // replay above: background jobs fill the idle windows the demand
        // timeline left on each device channel.
        let prefetch = inner
            .prefetch
            .as_ref()
            .map(|_| price_speculation(&inner.scheduler.speculative_events(), &report));
        ContentionReport {
            engagements,
            flash_busy: report.busy(),
            queue_makespan: report.makespan(),
            max_queue_depth: report.max_depth(),
            batched_dispatches,
            flash_bytes_saved,
            mean_batch_occupancy,
            gate,
            preload_bytes_reallocated: inner.ins.preload_bytes_reallocated.get(),
            prefetch,
        }
    }

    /// Drops the contended-track history (the scheduler's dispatch log, the
    /// per-engagement records, and the gate-decision log) so the next
    /// [`StiServer::contention_report`] starts fresh. The uncontended track
    /// and all counters are untouched.
    pub fn reset_contention_log(&self) {
        self.inner.scheduler.clear_flash_events();
        self.inner.scheduler.clear_speculative_events();
        self.inner.engagement_log.lock().clear();
        self.inner.gate_log.lock().clear();
    }

    /// Whether this server runs a next-engagement prefetcher. Cheap (no
    /// locks) — event-driven hosts use it to decide whether completions
    /// need a follow-up flash wake for speculative work.
    pub fn prefetch_enabled(&self) -> bool {
        self.inner.prefetch.is_some()
    }

    /// The prefetcher's end-to-end counters (`None` with prefetch off):
    /// the Markov model's observation/plan/feedback stats, the staging
    /// pool's hit accounting, and the speculative dispatch totals. The
    /// headline number is `report.pool.hit_rate()` — the fraction of
    /// staged bytes a later demand miss actually consumed.
    pub fn prefetch_report(&self) -> Option<PrefetchReport> {
        let pf = self.inner.prefetch.as_ref()?;
        let spec = self.inner.scheduler.speculative_events();
        Some(PrefetchReport {
            mode: pf.cfg.mode,
            model: pf.model.lock().stats(),
            pool: self.inner.shard_cache.prefetch_stats(),
            jobs: spec.len() as u64,
            speculated_bytes: spec.iter().map(|e| e.bytes).sum(),
            pinned_bytes: spec.iter().map(|e| e.hit_bytes).sum(),
        })
    }

    /// The infer-time backpressure policy this server runs.
    pub fn backpressure(&self) -> BackpressureMode {
        self.inner.backpressure
    }

    /// The `|S|` placement policy this server's SLO searches run under.
    pub fn plan_sharing(&self) -> PreloadPolicy {
        self.inner.plan_sharing
    }

    /// Installs a re-profiled importance table and drops every plan derived
    /// from the old one (via [`StiServer::invalidate_plans`]). Sessions
    /// already open keep their current plan until they change knobs.
    pub fn set_importance(&self, importance: ImportanceProfile) {
        *self.inner.importance.write() = importance;
        self.invalidate_plans();
    }

    /// Drops every cached plan, preload buffer, and cached shard blob,
    /// forcing the next session (or knob change) to replan and re-read.
    /// Called by [`StiServer::set_importance`]; call it directly when the
    /// backing store's blobs were regenerated out-of-band. Sessions already
    /// open keep executing their old plan until they change knobs.
    pub fn invalidate_plans(&self) {
        // Bump the generation *first*: resolutions already in flight then
        // land under a key no future lookup uses, rather than racing the
        // clears below and resurrecting stale state.
        self.inner.generation.fetch_add(1, Ordering::SeqCst);
        self.inner.plan_cache.clear();
        self.inner.slo_cache.clear();
        self.inner.preloads.lock().clear();
        self.inner.shard_cache.clear();
    }
}

impl std::fmt::Debug for StiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StiServer")
            .field("fingerprint", &self.inner.fingerprint)
            .field("cached_plans", &self.cached_plans())
            .finish()
    }
}

/// One app's handle onto a [`StiServer`]: its latency/memory knobs plus
/// shared references to the resolved plan and preload buffer.
///
/// Sessions are `Send + Sync`; `infer`/`generate` take `&self`, so one
/// session can serve engagements from multiple threads, and many sessions
/// can run concurrently against one server.
pub struct Session {
    inner: Arc<ServerInner>,
    /// Registry token: keys this session's entry in the open-load registry.
    token: u64,
    target: SimTime,
    preload_budget: u64,
    /// Simulated arrival offset of this session's engagements (contended
    /// track only; see [`Session::set_arrival`]).
    arrival: SimTime,
    plan: Arc<ExecutionPlan>,
    preload: Arc<PreloadBuffer>,
    slo: Option<SimTime>,
    serving: Option<Arc<ServingPlan>>,
    /// This session's current contribution to
    /// [`ServingStats::preload_bytes_reallocated`], so a retarget replaces
    /// rather than re-adds it.
    realloc_bytes: u64,
    /// Device-channel stripe offset of this session's shard placement
    /// (the SLO search's placement choice, [`ServingPlan::stripe`]; zero
    /// for raw-target sessions and on single-channel devices). Folded into
    /// registered job signatures and into the IO lane the session's
    /// engagements stream through.
    stripe: u16,
    /// The last backpressure-gate decision, keyed by a digest of the gate's
    /// inputs (candidate arrival, external backlog, open-load registry):
    /// decisions are a pure function of those, so repeat engagements
    /// against an unchanged mix skip the queue simulations.
    gate_memo: Mutex<Option<(u64, GateDecision)>>,
    /// Idle gap between this session's successive engagements on the
    /// simulated timeline (see [`Session::set_issue_gap`]; zero — the
    /// legacy back-to-back issue clock — by default).
    issue_gap: SimTime,
    /// Engagements issued so far — the multiplier on `issue_gap`.
    engagement_seq: AtomicU64,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.inner.live_mix.remove(self.token);
        self.inner.open_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII in-flight counter, decremented even on error paths.
struct ActiveGuard(Arc<ServerInner>);
impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active_engagements.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII session-ownership mark for a scheduler channel (see
/// [`Session::infer_issue`]): removed from `active_channels` when the
/// engagement finishes or errors out.
struct ChannelGuard(Arc<ServerInner>, u64);
impl Drop for ChannelGuard {
    fn drop(&mut self) {
        self.0.active_channels.lock().remove(&self.1);
    }
}

/// An engagement whose IO requests are enqueued on the shared scheduler
/// but whose layers have not been received yet — the hand-off between
/// [`Session::infer_issue`] and [`Session::infer_complete`].
///
/// Owns the engagement's IO lane and its in-flight accounting (RAII), so
/// dropping a pending engagement without completing it cleans up exactly
/// like an errored `infer` — the channel is torn down and the counters
/// settle. The type is opaque: its only use is to be handed back to
/// `infer_complete` on the session that issued it.
pub struct PendingEngagement {
    channel: IoChannel,
    /// Per-layer: whether the issue half enqueued a request for the layer
    /// (false = fully preloaded), so the complete half receives exactly
    /// what was requested.
    has_request: Vec<bool>,
    /// The engagement's effective issue time: session arrival advanced by
    /// the per-engagement issue gap, plus the gate delay — the tick its
    /// scheduler channel opened at.
    issue: SimTime,
    tokens: Vec<u32>,
    _active: ActiveGuard,
    _channel: ChannelGuard,
}

impl Session {
    /// The session's registry token: the key under which its load sits in
    /// the sharded open-session registry (and in every mix digest).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The session's execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The session's target latency.
    pub fn target(&self) -> SimTime {
        self.target
    }

    /// The latency SLO this session was admitted under, if it was opened
    /// with [`StiServer::session_with_slo`].
    pub fn slo(&self) -> Option<SimTime> {
        self.slo
    }

    /// The SLO search outcome (chosen `(T, |S|)`, predicted contended
    /// latency, co-runner count), when SLO-planned.
    pub fn serving_plan(&self) -> Option<&ServingPlan> {
        self.serving.as_deref()
    }

    /// Bytes held by the (shared) preload buffer this session executes
    /// against.
    pub fn preload_used(&self) -> u64 {
        self.preload.used_bytes()
    }

    /// The session's simulated arrival offset.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Sets the session's simulated arrival offset — typically from a trace
    /// file's `arrival_us`. Engagements stream through a scheduler channel
    /// opened at this time, so the contended track queues them at their
    /// real arrival (instead of all-zero) and shared-IO batching only
    /// coalesces sessions whose arrivals fall inside the batch window. The
    /// open-load registry entry is refreshed, so admission and the
    /// backpressure gate price this session at its real offset. The
    /// uncontended (deterministic) track is unaffected.
    pub fn set_arrival(&mut self, arrival: SimTime) {
        self.arrival = arrival;
        self.inner.register_load(self.token, &self.plan, arrival, self.slo, self.stripe);
    }

    /// Sets the idle gap between this session's successive engagements on
    /// the simulated timeline — typically from a trace file's `idle_us`.
    /// The `n`-th engagement's scheduler channel then opens at
    /// `arrival + n · gap` (plus any gate delay) instead of at the bare
    /// session arrival, so the contended replay sees the per-channel idle
    /// windows a think-time workload really has — the windows speculative
    /// prefetch jobs run in. Contended track only: the registry entry
    /// (and with it every admission and gate decision) still prices the
    /// session at its arrival, and the uncontended results are untouched.
    /// Zero (the default) reproduces the legacy back-to-back issue clock
    /// bit-identically.
    pub fn set_issue_gap(&mut self, gap: SimTime) {
        self.issue_gap = gap;
    }

    /// Retargets the session: resolves the plan for the new `T` through the
    /// shared caches (replanning only if no session used these knobs
    /// before, §3.2). An SLO-planned session reverts to raw-target mode.
    ///
    /// # Errors
    ///
    /// Fails if new preload shards cannot be loaded.
    pub fn set_target(&mut self, target: SimTime) -> Result<(), PipelineError> {
        let (plan, preload) = self.inner.resolve(target, self.preload_budget)?;
        self.target = target;
        self.plan = plan;
        self.preload = preload;
        self.slo = None;
        self.serving = None;
        self.stripe = self.inner.default_stripe(self.token);
        self.inner.register_load(self.token, &self.plan, self.arrival, None, self.stripe);
        Ok(())
    }

    /// Changes the session's preload budget `|S|`, resolving through the
    /// shared caches like [`Session::set_target`]. An SLO-planned session
    /// reverts to raw-target mode.
    ///
    /// # Errors
    ///
    /// Fails if new preload shards cannot be loaded.
    pub fn set_preload_budget(&mut self, bytes: u64) -> Result<(), PipelineError> {
        let (plan, preload) = self.inner.resolve(self.target, bytes)?;
        self.preload_budget = bytes;
        self.plan = plan;
        self.preload = preload;
        self.slo = None;
        self.serving = None;
        self.stripe = self.inner.default_stripe(self.token);
        self.inner.register_load(self.token, &self.plan, self.arrival, None, self.stripe);
        Ok(())
    }

    /// Re-plans the session against a latency SLO and the **current** mix:
    /// like [`StiServer::session_with_slo_at`], but in place — the search
    /// builds a [`ServingMix`] of every *other* open session (a session
    /// does not co-run with itself) and the session adopts the winning
    /// `(T, |S|)` placement, re-registering its load. Use it when a
    /// session's SLO changes mid-life, or to refresh a stale SLO plan
    /// after the mix shifted.
    ///
    /// # Errors
    ///
    /// Fails with [`PipelineError::AdmissionRejected`] under
    /// [`AdmissionMode::Enforce`] when even the best plan misses (the
    /// session then keeps its current plan), or if preload shards cannot
    /// be loaded.
    pub fn retarget_slo(&mut self, slo: SimTime) -> Result<(), PipelineError> {
        let inner = self.inner.clone();
        let _admission = inner.admission_gate.lock();
        let mix = inner.mix(Some(self.token));
        let co_runners = mix.co_runners();
        let key = ServingPlanKey::for_mix(
            inner.plan_key(slo, self.preload_budget),
            self.arrival,
            &mix,
            inner.plan_sharing,
        );
        let served = inner.slo_cache.get_or_plan(&key, || {
            plan_for_slo_mix(
                &inner.hw,
                &inner.importance.read(),
                slo,
                self.arrival,
                &mix,
                inner.plan_sharing,
                self.preload_budget,
                &inner.widths,
                &inner.bitwidths,
            )
        });
        if !served.meets_slo {
            match inner.admission {
                AdmissionMode::Enforce => {
                    return Err(PipelineError::AdmissionRejected {
                        predicted: served.predicted_contended,
                        slo,
                        co_runners,
                    });
                }
                AdmissionMode::Monitor => inner.ins.monitor_violations.incr(),
                AdmissionMode::Disabled => {}
            }
        }
        let (plan, preload) = inner.resolve_serving(&served, self.preload_budget)?;
        // Replace (not re-add) this session's contribution: the gauge
        // tracks bytes moved by sessions' *current* placements.
        inner.ins.preload_bytes_reallocated.sub(self.realloc_bytes);
        inner.ins.preload_bytes_reallocated.add(served.preload_bytes_reallocated);
        self.realloc_bytes = served.preload_bytes_reallocated;
        self.target = served.target;
        self.plan = plan;
        self.preload = preload;
        self.slo = Some(slo);
        self.stripe = served.stripe;
        self.serving = Some(served);
        inner.register_load(self.token, &self.plan, self.arrival, Some(slo), self.stripe);
        Ok(())
    }

    /// Runs the infer-time backpressure gate for one engagement of this
    /// session, returning the decision (`None` when the gate is off or the
    /// session carries no SLO).
    ///
    /// **Determinism.** Gate decisions must be identical between concurrent
    /// and sequential replays of the same trace, so co-resident sessions
    /// are priced from the open-session registry — populated
    /// deterministically at session open — rather than from their racy live
    /// queue entries. The server builds a [`ServingMix`] of the registry
    /// plus whatever *external* backlog remains once channels owned by
    /// registered sessions are excluded (the registry already prices
    /// those), and [`ServingMix::gate_all`] runs the deterministic walk:
    /// sessions in `(arrival, token)` order, each earlier SLO session's
    /// decision replayed, equal-arrival later tokens excluded on the first
    /// pass and re-gated against on the second (queue mode). Decisions are
    /// memoized per mix digest — the same identity the SLO-plan cache
    /// keys on — at two levels: per session (repeat engagements against
    /// an unchanged mix skip everything) and per *walk*
    /// (`ServerInner::gate_walk_memo`): one walk prices every open SLO
    /// session, so after a registry change exactly one engagement
    /// re-simulates and every other session's first decision is a lookup.
    /// On a memo hit the live mix is never cloned — the rolling digest
    /// (O(backlog), flat in fleet size) is the whole cost.
    fn gate(&self) -> Option<GateDecision> {
        let inner = &*self.inner;
        let policy = match inner.backpressure {
            BackpressureMode::Off => return None,
            BackpressureMode::Queue(max) => GatePolicy::Queue(max),
            BackpressureMode::Shed => GatePolicy::Shed,
        };
        let slo = self.slo?;
        // Start from the live queue, minus channels the registry prices.
        // The snapshot is taken under the ownership lock so a channel can
        // never be observed live before its owning session registered it
        // (infer creates channels under the same lock) — otherwise a racing
        // gate would double-count that session.
        let (owned, live): (HashSet<u64>, BacklogSnapshot) = {
            let active = inner.active_channels.lock();
            (active.keys().copied().collect(), inner.scheduler.backlog_snapshot())
        };
        let external = BacklogSnapshot {
            channels: live.channels.into_iter().filter(|c| !owned.contains(&c.channel)).collect(),
            batch_window: live.batch_window,
        };
        // The decision is a pure function of the mix. Memo hits pay only
        // the sharded digest probe (two words per shard, no merge); on a
        // miss the registry is re-snapshotted under *all* shard locks
        // ([`ShardedRegistry::snapshot_with`]), so the digest the walk is
        // memoized under is computed from exactly the state the walk saw —
        // a torn probe digest can miss the memo (and re-walk), never
        // resurrect a stale walk for current state.
        let probe = inner.live_mix.digest_with(&external);
        if let Some((seen, decision)) = *self.gate_memo.lock() {
            if seen == probe {
                return Some(decision);
            }
        }
        if let Some((seen, walk, summary)) = inner.gate_walk_memo.lock().as_ref() {
            if *seen == probe {
                let outcome =
                    *walk.get(&self.token).expect("an open SLO session is always in the registry");
                let decision = self.decision_from(outcome, slo, *summary, probe);
                *self.gate_memo.lock() = Some((probe, decision));
                return Some(decision);
            }
        }
        let (digest, mix) = inner.live_mix.snapshot_with(external);
        let summary = mix.lane_summary();
        let outcomes: HashMap<u64, GateOutcome> = mix.gate_all(policy).into_iter().collect();
        let outcome =
            *outcomes.get(&self.token).expect("an open SLO session is always in the registry");
        *inner.gate_walk_memo.lock() = Some((digest, Arc::new(outcomes), summary));
        let decision = self.decision_from(outcome, slo, summary, digest);
        *self.gate_memo.lock() = Some((digest, decision));
        Some(decision)
    }

    /// Shapes a walk outcome into this session's [`GateDecision`],
    /// attaching the structured [`GateReason`] — the mix digest the walk
    /// was priced under, the co-runner count, the contended backlog, and
    /// the heaviest co-running lane (this session excluded) whose load
    /// drove the delay or shed.
    fn decision_from(
        &self,
        outcome: GateOutcome,
        slo: SimTime,
        summary: MixLaneSummary,
        digest: u64,
    ) -> GateDecision {
        // The walk prices demand lanes only; the serving layer stamps the
        // speculative in-flight label in after the fact, so a report can
        // show speculation separately from the demand backlog that
        // actually drove the decision.
        let mut summary = summary;
        summary.speculative_bytes = self.inner.scheduler.speculative_backlog_bytes();
        GateDecision {
            session: self.token,
            arrival: self.arrival,
            slo,
            predicted: outcome.predicted,
            delay: outcome.delay,
            shed: outcome.shed,
            re_gated: outcome.re_gated,
            reason: GateReason {
                digest,
                co_runners: summary.sessions.saturating_sub(1),
                backlog_channels: summary.backlog_channels,
                backlog_bytes: summary.backlog_bytes,
                dominant_lane: summary
                    .dominant_excluding(self.token)
                    .map(|(token, us)| (token, SimTime::from_us(us))),
                // Advisory label, sampled when the decision is shaped (a
                // memoized decision keeps the label it was shaped with).
                speculative_bytes: summary.speculative_bytes,
            },
        }
    }

    /// Runs the backpressure gate for this session *without* executing an
    /// engagement — the decision an [`Session::infer`] call would be
    /// subject to right now. `None` when the gate is off or the session
    /// carries no SLO. Pure: no queue state is touched, nothing is logged
    /// to the gate log; fleet-scale probes use this to measure per-decision
    /// gate cost without real IO.
    pub fn gate_decision(&self) -> Option<GateDecision> {
        self.gate()
    }

    /// Executes one engagement over the planned pipeline, streaming through
    /// the server's shared IO scheduler. The engagement's dispatch sequence
    /// feeds the contended track ([`StiServer::contention_report`]); its
    /// *result* stays on the uncontended track and is bit-identical to a
    /// solo run.
    ///
    /// With a [`BackpressureMode`] configured and a session SLO present,
    /// the engagement first passes the backpressure gate: it may be
    /// delayed on the simulated timeline (queue mode) or fail fast with
    /// [`PipelineError::Backpressure`] before touching the scheduler.
    ///
    /// # Errors
    ///
    /// Fails on storage errors, plan/model mismatch, or — with the gate on
    /// — [`PipelineError::Backpressure`] when the engagement is shed.
    pub fn infer(&self, tokens: &[u32]) -> Result<Inference, PipelineError> {
        let pending = self.infer_issue(tokens)?;
        self.infer_complete(pending)
    }

    /// The **issue half** of [`Session::infer`]: runs the backpressure
    /// gate, claims an IO lane on the shared scheduler, and enqueues every
    /// streaming layer's request — then returns without waiting for a
    /// single byte. The returned [`PendingEngagement`] owns the lane (and
    /// the in-flight accounting); hand it back to
    /// [`Session::infer_complete`] once the scheduler has had a chance to
    /// service the queue.
    ///
    /// `infer` is exactly issue-then-complete, so the split changes
    /// nothing observable for threaded callers. Its purpose is the
    /// event-driven executor: a simulated-clock host issues *every*
    /// co-arriving engagement first, drives the scheduler once, and then
    /// completes them — one OS thread, same queue contents, same results.
    ///
    /// # Errors
    ///
    /// Fails on storage errors, plan/model mismatch, or — with the gate on
    /// — [`PipelineError::Backpressure`] when the engagement is shed.
    pub fn infer_issue(&self, tokens: &[u32]) -> Result<PendingEngagement, PipelineError> {
        let inner = &*self.inner;

        // The backpressure gate runs before any queue state is touched: a
        // shed engagement never submits IO (and never perturbs the
        // contended track of the engagements that do run).
        let mut gate_delay = SimTime::ZERO;
        if let Some(decision) = self.gate() {
            inner.gate_log.lock().push(decision);
            inner.ins.gate_decisions.incr();
            inner.ins.gate_delay_us.record(decision.delay.as_us());
            inner.ins.gate_predicted_us.record(decision.predicted.as_us());
            if decision.shed {
                inner.ins.shed_engagements.incr();
                return Err(PipelineError::Backpressure {
                    predicted: decision.predicted,
                    slo: decision.slo,
                });
            }
            if decision.delay > SimTime::ZERO {
                inner.ins.queued_engagements.incr();
            }
            gate_delay = decision.delay;
            // Virtual clock: queue delays land on the simulated timeline
            // (`gate_delay` below prices the engagement); the wall clock
            // only moves when a throttle scale is explicitly set, so
            // fleet-scale synthetic sweeps never sleep for real.
            if inner.throttle_scale > 0.0 {
                std::thread::sleep(gate_delay.scale(inner.throttle_scale).to_duration());
            }
        }

        let active = inner.active_engagements.fetch_add(1, Ordering::SeqCst) + 1;
        let active_guard = ActiveGuard(self.inner.clone());
        inner.ins.peak_engagements.observe_peak(active as u64);

        // The engagement's position on the session's think-time clock:
        // arrival + n · issue_gap (zero gap — every engagement at the
        // session arrival — is the legacy clock, bit-identically).
        let seq = self.engagement_seq.fetch_add(1, Ordering::SeqCst);
        let base = self.arrival + SimTime::from_us(self.issue_gap.as_us().saturating_mul(seq));
        let issue = base + gate_delay;
        // Mark the channel as session-owned so a concurrent gate prices
        // this session from the registry, not from the live queue too. The
        // creation and the marking share one critical section with the
        // gate's snapshot, so no gate can observe the channel unowned.
        let channel = {
            let mut active = inner.active_channels.lock();
            let channel = inner.scheduler.channel_striped_at(issue, self.stripe);
            active.insert(channel.id(), self.token);
            channel
        };
        let channel_guard = ChannelGuard(self.inner.clone(), channel.id());
        let executor = self.executor();
        let has_request = executor.issue_on(&channel, &self.plan, &self.preload)?;
        Ok(PendingEngagement {
            channel,
            has_request,
            issue,
            tokens: tokens.to_vec(),
            _active: active_guard,
            _channel: channel_guard,
        })
    }

    /// The **complete half** of [`Session::infer`]: receives every layer
    /// the issue half requested, runs the forward pass, and lands the
    /// engagement on both accounting tracks. Blocks until the scheduler
    /// delivers the requested layers — under the event-driven executor the
    /// host drives the queue dry before calling this, so it never waits.
    ///
    /// # Errors
    ///
    /// Fails on storage errors or plan/model mismatch.
    pub fn infer_complete(&self, pending: PendingEngagement) -> Result<Inference, PipelineError> {
        let inner = &*self.inner;
        let executor = self.executor();
        let outcome = executor.complete_on(
            &pending.channel,
            &self.plan,
            &self.preload,
            &pending.tokens,
            &pending.has_request,
        )?;

        // Contended-track record: which layers streamed (an IO span in the
        // timeline) and the uniform per-layer compute delay.
        let layer_has_io: Vec<bool> =
            outcome.timeline.layers.iter().map(|l| l.io_end > l.io_start).collect();
        inner.engagement_log.lock().push(EngagementRecord {
            channel: pending.channel.id(),
            session: self.token,
            slo: self.slo,
            issue: pending.issue,
            layer_has_io,
            comp: inner.hw.t_comp(self.plan.shape.width),
            uncontended: outcome.timeline.makespan,
        });
        inner.ins.engagements.incr();

        // Feed the prefetcher *after* both accounting tracks have their
        // records: the observation (and any speculation it triggers) is
        // invisible to this engagement's own outcome by construction.
        if let Some(pf) = &inner.prefetch {
            self.prefetch_observe(pf, pending.issue + outcome.timeline.makespan);
        }

        Ok(Inference {
            class: outcome.class,
            probabilities: outcome.probabilities.clone(),
            submodel: self.plan.shape,
            outcome,
        })
    }

    /// Observes one engagement completion in the Markov model and, when a
    /// prediction clears the confidence floor, materializes it into
    /// speculative background jobs. `now` is the engagement's completion
    /// on the simulated timeline — the tick the speculation becomes
    /// available to run (and the arrival its contended pricing uses).
    fn prefetch_observe(&self, pf: &PrefetchState, now: SimTime) {
        let key = PrefetchKey {
            target_us: self.target.as_us(),
            preload_bytes: self.preload_budget,
            slo_us: self.slo.map_or(0, |s| s.as_us()),
            stripe: self.stripe,
        };
        let plan = {
            let mut model = pf.model.lock();
            let id = model.intern(key);
            pf.targets.lock().entry(id).or_insert_with(|| PrefetchTarget {
                plan: self.plan.clone(),
                preload: self.preload.clone(),
                stripe: self.stripe,
            });
            model.observe(self.token, id, now)
        };
        let Some(plan) = plan else { return };
        let Some(target) = pf.targets.lock().get(&plan.predicted).cloned() else { return };
        self.submit_speculation(&plan, &target);
    }

    /// Turns an emitted [`PrefetchPlan`] into speculative scheduler jobs:
    /// the predicted engagement's *streamed* working set (planned shards
    /// not covered by its preload buffer), grouped onto the device
    /// channels its layer requests would really route to, byte-capped at
    /// the plan budget. Jobs enter the scheduler's background lane —
    /// demand dispatches always go first — and their flash reads land in
    /// the staging pool, never the demand event log.
    fn submit_speculation(&self, plan: &PrefetchPlan, target: &PrefetchTarget) {
        let inner = &*self.inner;
        let topology = inner.scheduler.topology();
        let mut budget = plan.budget_bytes;
        let mut jobs: BTreeMap<u16, (Vec<ShardKey>, u64)> = BTreeMap::new();
        'layers: for pl in &target.plan.layers {
            let items: Vec<(u16, Bitwidth)> = pl
                .items()
                .filter(|&(slice, _)| !target.preload.contains(ShardId::new(pl.layer, slice)))
                .collect();
            if items.is_empty() {
                continue;
            }
            let sig = LayerRequest { layer: pl.layer, items: items.clone() }.content_sig();
            let dc = topology.channel_for(sig, target.stripe);
            for (slice, bw) in items {
                let key = ShardKey::new(ShardId::new(pl.layer, slice), bw);
                let bytes = match inner.cached_source.size_bytes(key) {
                    Ok(bytes) if bytes > 0 => bytes,
                    _ => continue,
                };
                if bytes > budget {
                    break 'layers;
                }
                budget -= bytes;
                let entry = jobs.entry(dc).or_default();
                entry.0.push(key);
                entry.1 += bytes;
            }
        }
        for (dc, (keys, bytes)) in jobs {
            inner.scheduler.submit_speculative(SpeculativeJob {
                session: plan.client,
                device_channel: dc,
                arrival: plan.emitted_at,
                bytes,
                keys,
            });
        }
    }

    fn executor(&self) -> PipelineExecutor<'_> {
        PipelineExecutor::new(
            &self.inner.model,
            self.inner.cached_source.clone(),
            self.inner.flash,
            &self.inner.hw,
        )
        .with_throttle(self.inner.throttle_scale)
    }

    /// Generative extension: greedily decodes `steps` tokens after
    /// `prompt`, streaming the submodel once through the shared shard cache
    /// and reusing it every step (same amortization as
    /// [`StiEngine::generate`](crate::engine::StiEngine::generate)).
    ///
    /// # Errors
    ///
    /// Fails if any planned shard cannot be loaded.
    pub fn generate(
        &self,
        prompt: &[u32],
        steps: usize,
    ) -> Result<GenerationOutcome, PipelineError> {
        let inner = &*self.inner;
        let (submodel, loaded_bytes) =
            assemble_plan_submodel(&inner.model, &self.plan, &self.preload, &*inner.cached_source)?;
        let generation = sti_transformer::decoder::generate(&inner.model, &submodel, prompt, steps);
        let per_step = inner.hw.t_comp(self.plan.shape.width) * self.plan.shape.depth as u64;
        Ok(GenerationOutcome {
            tokens: generation.tokens,
            generated: generation.generated,
            first_step: self.plan.predicted.makespan,
            per_step,
            loaded_bytes,
        })
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("target", &self.target)
            .field("preload_budget", &self.preload_budget)
            .field("shape", &self.plan.shape)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_device::DeviceProfile;
    use sti_nlp::{Task, TaskKind};
    use sti_quant::QuantConfig;
    use sti_storage::MemStore;
    use sti_transformer::ModelConfig;

    fn server() -> StiServer {
        let cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
        let dev = DeviceProfile::odroid_n2();
        let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
        let source =
            Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        StiServer::builder(task.model().clone(), source, hw, dev.flash, importance)
            .target(SimTime::from_ms(300))
            .preload_budget(64 << 10)
            .widths(&[2, 4])
            .build()
    }

    #[test]
    fn sessions_share_one_plan_per_knob_set() {
        let srv = server();
        let a = srv.session().unwrap();
        let b = srv.session().unwrap();
        assert!(Arc::ptr_eq(&a.plan, &b.plan), "same knobs must share the plan");
        assert!(Arc::ptr_eq(&a.preload, &b.preload), "and the preload buffer");
        let stats = srv.plan_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(srv.cached_plans(), 1);
    }

    #[test]
    fn distinct_knobs_get_distinct_plans() {
        let srv = server();
        let a = srv.session_with(SimTime::from_ms(300), 64 << 10).unwrap();
        let b = srv.session_with(SimTime::from_ms(1_000), 64 << 10).unwrap();
        assert!(!Arc::ptr_eq(&a.plan, &b.plan));
        assert!(b.plan().shape.shard_count() >= a.plan().shape.shard_count());
        assert_eq!(srv.cached_plans(), 2);
    }

    /// A server with a deliberately tiny main shard cache (so demand
    /// misses recur) and the Markov prefetcher on.
    fn prefetch_server() -> StiServer {
        let cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
        let dev = DeviceProfile::odroid_n2();
        let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
        let source =
            Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        StiServer::builder(task.model().clone(), source, hw, dev.flash, importance)
            .target(SimTime::from_ms(300))
            .preload_budget(0)
            .widths(&[2, 4])
            .shard_cache_bytes(1 << 10)
            .prefetch(PrefetchConfig::markov(1 << 20))
            .build()
    }

    #[test]
    fn prefetch_report_is_none_with_prefetch_off() {
        let srv = server();
        assert!(srv.prefetch_report().is_none());
        let s = srv.session().unwrap();
        s.infer(&[1, 2, 3]).unwrap();
        assert!(srv.contention_report().prefetch.is_none());
    }

    #[test]
    fn markov_prefetch_stages_the_predicted_working_set_and_serves_later_misses() {
        let srv = prefetch_server();
        let mut s = srv.session().unwrap();
        s.set_issue_gap(SimTime::from_ms(50));
        s.infer(&[1, 2, 3]).unwrap();
        // The second completion creates the self-recurrence edge and emits
        // a plan; the speculative job runs once the demand queue drains.
        s.infer(&[1, 2, 3]).unwrap();
        let mut tries = 0;
        while srv.prefetch_report().unwrap().jobs == 0 && tries < 400 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tries += 1;
        }
        let report = srv.prefetch_report().unwrap();
        assert!(report.model.plans >= 1, "a self-recurrent session must emit a plan");
        assert!(report.jobs >= 1, "the plan must materialize into speculative jobs");
        assert!(
            report.speculated_bytes + report.pinned_bytes > 0,
            "speculation must stage or pin something"
        );
        // The next engagement's demand misses promote staged blobs out of
        // the pool instead of re-reading flash.
        s.infer(&[1, 2, 3]).unwrap();
        let pool = srv.prefetch_report().unwrap().pool;
        assert!(pool.hits > 0, "staged shards must serve the next engagement's misses");
        assert!(pool.hit_bytes > 0);
        // Contended pricing exists, charges the speculative service time,
        // and the speculative label never leaks into demand aggregates.
        let contention = srv.contention_report();
        let spec = contention.prefetch.expect("prefetch pricing present when enabled");
        // The third completion may have emitted (and run) another plan by
        // now; the priced jobs can only grow past the harvested count.
        assert!(spec.jobs >= report.jobs);
        assert!(spec.busy > SimTime::ZERO || spec.speculated_bytes == 0);
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

    #[test]
    fn infer_matches_session_plan() {
        let srv = server();
        let s = srv.session().unwrap();
        let inf = s.infer(&[1, 2, 3]).unwrap();
        assert_eq!(inf.probabilities.len(), 2);
        assert!(inf.class < 2);
        assert_eq!(inf.submodel, s.plan().shape);
    }

    #[test]
    fn retargeting_reuses_cached_plans() {
        let srv = server();
        let mut s = srv.session().unwrap();
        let original = s.plan.clone();
        s.set_target(SimTime::from_ms(1_000)).unwrap();
        s.set_target(SimTime::from_ms(300)).unwrap();
        assert!(Arc::ptr_eq(&s.plan, &original), "returning to old knobs hits the cache");
        // 300ms twice (miss + hit) and 1000ms once (miss).
        assert_eq!(srv.plan_stats().misses, 2);
    }

    #[test]
    fn set_importance_changes_subsequent_plans() {
        let srv = server();
        let before = srv.session().unwrap();
        // A sharply skewed profile: later shards dominate, reversing the
        // upgrade order the flat-ish default profile produced.
        let cfg = ModelConfig::tiny();
        let skewed = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.3 + i as f64 * 0.04).collect(),
            0.45,
        );
        srv.set_importance(skewed);
        let after = srv.session().unwrap();
        assert!(!Arc::ptr_eq(&before.plan, &after.plan));
        assert_eq!(srv.plan_stats().misses, 2, "new table must force a replan");
    }

    #[test]
    fn invalidation_forces_replan_for_new_sessions() {
        let srv = server();
        let s1 = srv.session().unwrap();
        srv.invalidate_plans();
        let s2 = srv.session().unwrap();
        assert!(!Arc::ptr_eq(&s1.plan, &s2.plan), "invalidation must drop the entry");
        assert_eq!(s1.plan(), s2.plan(), "replanning is deterministic");
        assert_eq!(srv.plan_stats().misses, 2);
    }

    #[test]
    fn repeated_inference_warms_the_shard_cache() {
        let srv = server();
        // Zero preload: every engagement streams its full submodel.
        let s = srv.session_with(SimTime::from_ms(300), 0).unwrap();
        s.infer(&[1, 2]).unwrap();
        let cold = srv.shard_stats();
        s.infer(&[1, 2]).unwrap();
        let warm = srv.shard_stats();
        assert!(warm.hits > cold.hits, "second engagement must reuse blobs");
    }

    #[test]
    fn generation_streams_once_and_is_deterministic() {
        let srv = server();
        let s = srv.session().unwrap();
        let g = s.generate(&[1, 2], 5).unwrap();
        assert_eq!(g.generated, 5);
        assert_eq!(g.tokens.len(), 7);
        assert!(g.per_step <= g.first_step);
        assert_eq!(s.generate(&[1, 2], 5).unwrap().tokens, g.tokens);
    }

    #[test]
    fn io_stats_track_scheduler_traffic() {
        let srv = server();
        // Zero preload: every engagement streams its full submodel.
        let s = srv.session_with(SimTime::from_ms(300), 0).unwrap();
        let inf = s.infer(&[7]).unwrap();
        let stats = srv.io_stats();
        assert_eq!(stats.requests, s.plan().layers.len() as u64);
        assert_eq!(stats.bytes, inf.outcome.loaded_bytes);
        assert!(stats.sim_flash_busy > SimTime::ZERO);
    }

    fn server_with_admission(mode: AdmissionMode) -> StiServer {
        let cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
        let dev = DeviceProfile::odroid_n2();
        let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
        let source =
            Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        StiServer::builder(task.model().clone(), source, hw, dev.flash, importance)
            .preload_budget(0)
            .widths(&[2, 4])
            .admission(mode)
            .build()
    }

    /// An SLO no plan can meet once co-runners exist: the uncontended
    /// makespan of the smallest possible plan.
    fn floor_slo(srv: &StiServer) -> SimTime {
        let s = srv.session_with(SimTime::from_us(1), 0).unwrap();
        s.plan().predicted.makespan
    }

    #[test]
    fn open_sessions_are_counted() {
        let srv = server();
        assert_eq!(srv.open_sessions(), 0);
        let a = srv.session().unwrap();
        let b = srv.session().unwrap();
        assert_eq!(srv.open_sessions(), 2);
        drop(a);
        drop(b);
        assert_eq!(srv.open_sessions(), 0);
    }

    #[test]
    fn slo_session_plans_against_contention() {
        let srv = server_with_admission(AdmissionMode::Enforce);
        let s = srv.session_with_slo(SimTime::from_ms(5_000), 0).unwrap();
        let served = s.serving_plan().expect("SLO session carries its search outcome");
        assert!(served.meets_slo);
        assert!(served.predicted_contended <= SimTime::from_ms(5_000));
        assert_eq!(s.slo(), Some(SimTime::from_ms(5_000)));
        assert_eq!(srv.serving_stats().admitted_sessions, 1);
    }

    #[test]
    fn enforce_rejects_an_unmeetable_slo() {
        let srv = server_with_admission(AdmissionMode::Enforce);
        let slo = floor_slo(&srv);
        // Alone the floor SLO is exactly achievable...
        let first = srv.session_with_slo(slo, 0).unwrap();
        // ...but with a co-runner on the flash channel it no longer is.
        let err = srv.session_with_slo(slo, 0).unwrap_err();
        match err {
            PipelineError::AdmissionRejected { predicted, slo: got, co_runners } => {
                assert!(predicted > got);
                assert_eq!(co_runners, 1);
            }
            other => panic!("expected AdmissionRejected, got {other}"),
        }
        let stats = srv.serving_stats();
        assert_eq!((stats.admitted_sessions, stats.rejected_sessions), (1, 1));
        drop(first);
        // With the channel free again the same SLO admits.
        assert!(srv.session_with_slo(slo, 0).is_ok());
    }

    #[test]
    fn batching_admits_identical_sessions_an_unbatched_prediction_rejects() {
        let build = |policy: BatchPolicy| {
            let cfg = ModelConfig::tiny();
            let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
            let dev = DeviceProfile::odroid_n2();
            let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
            let source =
                Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
            let importance = ImportanceProfile::from_scores(
                cfg.layers,
                cfg.heads,
                (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
                0.45,
            );
            StiServer::builder(task.model().clone(), source, hw, dev.flash, importance)
                .preload_budget(0)
                .widths(&[2, 4])
                .admission(AdmissionMode::Enforce)
                .batch_policy(policy)
                .build()
        };
        let slo = floor_slo(&build(BatchPolicy::Off));

        // Unbatched: a second identical-SLO session queues behind the
        // first's reads and is rejected (the pre-batching behaviour).
        let unbatched = build(BatchPolicy::Off);
        let _first = unbatched.session_with_slo(slo, 0).unwrap();
        assert!(unbatched.session_with_slo(slo, 0).is_err());

        // Batched: identical sessions share every read, so the contended
        // prediction collapses to the uncontended one and both admit.
        let batched = build(BatchPolicy::from_window_us(1_000));
        let _a = batched.session_with_slo(slo, 0).unwrap();
        let b = batched.session_with_slo(slo, 0).expect("shared IO admits the identical session");
        let served = b.serving_plan().unwrap();
        assert!(served.meets_slo);
        assert_eq!(served.co_runners, 1);
        assert_eq!(
            served.predicted_contended, slo,
            "fully coalesced co-residents predict the uncontended floor"
        );
        let stats = batched.serving_stats();
        assert_eq!((stats.admitted_sessions, stats.rejected_sessions), (2, 0));
    }

    #[test]
    fn admission_predicts_against_real_co_runner_loads() {
        // A heavyweight open session must weigh more in admission than a
        // featherweight one — the clone model could not see the difference.
        let srv = server_with_admission(AdmissionMode::Enforce);
        let slo = floor_slo(&srv);
        // Featherweight co-runner: a generous-target session... planned at
        // the floor target streams almost nothing extra; heavyweight: a
        // 10 s target streams the full-fidelity model.
        let feather = srv.session_with(SimTime::from_us(1), 0).unwrap();
        let floor_err = srv.session_with_slo(slo, 0).unwrap_err();
        drop(feather);
        let heavy = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
        let heavy_err = srv.session_with_slo(slo, 0).unwrap_err();
        drop(heavy);
        match (floor_err, heavy_err) {
            (
                PipelineError::AdmissionRejected { predicted: p_feather, .. },
                PipelineError::AdmissionRejected { predicted: p_heavy, .. },
            ) => {
                assert!(
                    p_heavy > p_feather,
                    "a heavier co-runner must predict more contention: {p_heavy} <= {p_feather}"
                );
            }
            other => panic!("both opens must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn retarget_slo_replans_in_place_and_a_rejected_retarget_keeps_the_plan() {
        let srv = server_with_admission(AdmissionMode::Enforce);
        let mut s = srv.session_with_slo(SimTime::from_ms(5_000), 0).unwrap();
        assert_eq!(srv.open_sessions(), 1);
        // Retargeting re-plans in place against the current mix: no new
        // session, no new admission.
        s.retarget_slo(SimTime::from_ms(8_000)).unwrap();
        assert_eq!(s.slo(), Some(SimTime::from_ms(8_000)));
        assert!(s.serving_plan().unwrap().meets_slo);
        assert_eq!(srv.open_sessions(), 1);
        assert_eq!(srv.serving_stats().admitted_sessions, 1);
        // With a heavy co-runner open, the floor SLO is unmeetable: the
        // retarget is rejected and the session keeps its current plan.
        let _heavy = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
        let floor = floor_slo(&srv);
        let before = s.plan().clone();
        assert!(matches!(s.retarget_slo(floor), Err(PipelineError::AdmissionRejected { .. })));
        assert_eq!(s.plan(), &before, "a rejected retarget leaves the session untouched");
        assert_eq!(s.slo(), Some(SimTime::from_ms(8_000)));
    }

    #[test]
    fn monitor_admits_but_counts_violations() {
        let srv = server_with_admission(AdmissionMode::Monitor);
        let slo = floor_slo(&srv);
        let _first = srv.session_with_slo(slo, 0).unwrap();
        let second = srv.session_with_slo(slo, 0);
        assert!(second.is_ok(), "monitor mode must not reject");
        assert_eq!(srv.serving_stats().monitor_violations, 1);
    }

    #[test]
    fn slo_searches_are_memoized_per_co_runner_count() {
        let srv = server_with_admission(AdmissionMode::Disabled);
        let slo = SimTime::from_ms(5_000);
        let _a = srv.session_with_slo(slo, 0).unwrap(); // co=0: miss
        let _b = srv.session_with_slo(slo, 0).unwrap(); // co=1: miss
        let _c = srv.session_with_slo(slo, 0).unwrap(); // co=2: miss
        drop(_c);
        let _d = srv.session_with_slo(slo, 0).unwrap(); // co=2 again: hit
        let stats = srv.slo_plan_stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
    }

    fn server_with_backpressure(mode: BackpressureMode) -> StiServer {
        let cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
        let dev = DeviceProfile::odroid_n2();
        let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
        let source =
            Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        StiServer::builder(task.model().clone(), source, hw, dev.flash, importance)
            .preload_budget(0)
            .widths(&[2, 4])
            .backpressure(mode)
            .build()
    }

    #[test]
    fn shed_gate_fails_fast_when_the_backlog_predicts_a_miss() {
        let srv = server_with_backpressure(BackpressureMode::Shed);
        let slo = floor_slo(&srv);
        // Both sessions admit (admission is disabled); the gate, not
        // admission, is under test.
        let first = srv.session_with_slo(slo, 0).unwrap();
        let second = srv.session_with_slo(slo, 0).unwrap();
        // The first-arriving session has the queue to itself and runs.
        first.infer(&[1, 2]).expect("the first session's engagement passes the gate");
        // The second's prediction rides behind the first's registered load
        // and misses the floor SLO: shed, before touching the scheduler.
        match second.infer(&[1, 2]) {
            Err(PipelineError::Backpressure { predicted, slo: got }) => {
                assert!(predicted > got);
                assert_eq!(got, slo);
            }
            other => panic!("expected a backpressure shed, got {other:?}"),
        }
        let stats = srv.serving_stats();
        assert_eq!((stats.engagements, stats.shed_engagements), (1, 1));
        let report = srv.contention_report();
        assert_eq!(report.engagements.len(), 1, "shed engagements never execute");
        assert_eq!(report.gate.len(), 2);
        assert_eq!(report.shed_count(), 1);
        assert_eq!(report.slo_hit_rate(), Some(1.0), "what ran met its SLO");
        // Harvesting resets the gate log too.
        srv.reset_contention_log();
        assert!(srv.contention_report().gate.is_empty());
    }

    #[test]
    fn queue_gate_delays_instead_of_shedding_and_the_measured_track_agrees() {
        let srv = server_with_backpressure(BackpressureMode::Queue(SimTime::from_ms(60_000)));
        let slo = floor_slo(&srv);
        let first = srv.session_with_slo(slo, 0).unwrap();
        let second = srv.session_with_slo(slo, 0).unwrap();
        first.infer(&[1, 2]).unwrap();
        second.infer(&[1, 2]).expect("queue mode waits instead of shedding");
        let stats = srv.serving_stats();
        assert_eq!(
            (stats.engagements, stats.shed_engagements, stats.queued_engagements),
            (2, 0, 1)
        );
        let report = srv.contention_report();
        assert_eq!(report.shed_count(), 0);
        assert_eq!(report.queue_delayed(), 1);
        assert!(report.max_queue_delay() > SimTime::ZERO);
        // The delayed engagement queued past the first's window, so the
        // measured contended track meets the SLO both engagements carry.
        assert_eq!(report.slo_hit_rate(), Some(1.0));
        // With a maximum delay too small to drain the backlog, the same
        // engagement is shed instead.
        let strict = server_with_backpressure(BackpressureMode::Queue(SimTime::from_us(1)));
        let tight = floor_slo(&strict);
        let a = strict.session_with_slo(tight, 0).unwrap();
        let b = strict.session_with_slo(tight, 0).unwrap();
        a.infer(&[3]).unwrap();
        assert!(
            matches!(b.infer(&[3]), Err(PipelineError::Backpressure { .. })),
            "a 1µs patience cannot absorb a full co-runner engagement"
        );
    }

    #[test]
    fn queue_delay_prices_sessions_arriving_during_the_wait() {
        // A queue delay can land an engagement inside the window of a
        // session that arrives *after* it — the delay search must price
        // that load too, not just what was ahead at the original arrival.
        let run = |with_late_heavy: bool| {
            let srv = server_with_backpressure(BackpressureMode::Queue(SimTime::from_ms(60_000)));
            let full = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
            // ~20% slack over the full-model makespan: meetable alone, not
            // behind a heavy co-runner.
            let makespan = full.plan().predicted.makespan.as_us();
            let slo = SimTime::from_us(makespan + makespan / 5);
            drop(full);
            let mut tight = srv.session_with_slo(slo, 0).unwrap();
            tight.set_arrival(SimTime::from_us(100));
            // A heavy co-runner already queued at time zero...
            let _early = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
            // ...and optionally another arriving 2 ms in — inside any
            // delay that clears the first one.
            let _late = with_late_heavy.then(|| {
                let mut s = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
                s.set_arrival(SimTime::from_ms(2));
                s
            });
            tight.infer(&[1, 2]).expect("queue mode waits instead of shedding");
            let report = srv.contention_report();
            let decision = report.gate[0];
            assert!(!decision.shed);
            assert!(decision.delay > SimTime::ZERO, "the early heavy load forces a wait");
            assert_eq!(report.slo_hit_rate(), Some(1.0));
            decision.delay
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with > without,
            "a session arriving during the wait must lengthen it: {with} <= {without}"
        );
    }

    #[test]
    fn repeat_engagements_reuse_the_gate_decision_until_the_mix_changes() {
        let srv = server_with_backpressure(BackpressureMode::Queue(SimTime::from_ms(60_000)));
        let slo = floor_slo(&srv);
        let a = srv.session_with_slo(slo, 0).unwrap();
        let b = srv.session_with_slo(slo, 0).unwrap();
        // Fixed-point gate pass: `a` and `b` mutually co-arrive, so the
        // walk iterates until their decisions are consistent — `b` (the
        // later token) queues behind `a`, and `a`, re-gated against `b`'s
        // *decided* (delayed) position rather than its raw arrival, keeps
        // the queue head with no wait of its own.
        a.infer(&[1]).unwrap();
        a.infer(&[2]).unwrap();
        let report = srv.contention_report();
        assert_eq!(report.gate.len(), 2, "every engagement logs a decision");
        let a_token = report.gate.iter().map(|d| d.session).min().unwrap();
        let a_decisions: Vec<_> = report.gate.iter().filter(|d| d.session == a_token).collect();
        assert_eq!(a_decisions.len(), 2);
        assert_eq!(a_decisions[0], a_decisions[1], "an unchanged mix reuses the decision");
        assert_eq!(
            a_decisions[0].delay,
            SimTime::ZERO,
            "at the fixed point the earliest token runs first, not behind its own follower"
        );
        assert!(a_decisions[0].re_gated, "the decision went through the co-arrival iteration");
        assert_eq!(report.re_gated_count(), 2);
        // A registry change (a session closing) invalidates the memo: with
        // the queue to itself, the next engagement needs no delay.
        drop(b);
        a.infer(&[3]).unwrap();
        let report = srv.contention_report();
        let last = report.gate.iter().rfind(|d| d.session == a_token).unwrap();
        assert_eq!(last.delay, SimTime::ZERO, "the mix changed, the decision follows");
        assert!(!last.re_gated, "no co-arriving later session remains to re-gate against");
    }

    #[test]
    fn gate_is_inert_without_an_slo_or_with_mode_off() {
        // Off mode: SLO sessions never gate.
        let off = server_with_backpressure(BackpressureMode::Off);
        let slo = floor_slo(&off);
        let a = off.session_with_slo(slo, 0).unwrap();
        let b = off.session_with_slo(slo, 0).unwrap();
        a.infer(&[1]).unwrap();
        b.infer(&[1]).expect("mode off never sheds");
        assert!(off.contention_report().gate.is_empty());
        // Shed mode, but target sessions (no SLO): nothing to gate on.
        let shed = server_with_backpressure(BackpressureMode::Shed);
        let s1 = shed.session_with(SimTime::from_ms(300), 0).unwrap();
        let s2 = shed.session_with(SimTime::from_ms(300), 0).unwrap();
        s1.infer(&[1]).unwrap();
        s2.infer(&[1]).expect("sessions without an SLO are never gated");
        assert!(shed.contention_report().gate.is_empty());
        assert_eq!(shed.serving_stats().shed_engagements, 0);
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
    fn dram_residency_shrinks_contended_latency_of_warm_engagements() {
        let build = |dram: bool| {
            let cfg = ModelConfig::tiny();
            let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
            let dev = DeviceProfile::odroid_n2();
            let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
            let source =
                Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
            let importance = ImportanceProfile::from_scores(
                cfg.layers,
                cfg.heads,
                (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
                0.45,
            );
            StiServer::builder(task.model().clone(), source, hw, dev.flash, importance)
                .preload_budget(0)
                .widths(&[2, 4])
                .dram_residency(dram)
                .build()
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
}
