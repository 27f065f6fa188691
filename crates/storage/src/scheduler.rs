//! The IO scheduler: one flash device, many concurrent engagements, and the
//! dual-track accounting of simulated time.
//!
//! A serving runtime has N concurrent engagements, each streaming its
//! layers in order, all sharing one flash device. The [`IoScheduler`] is
//! the pool that multiplexes them:
//!
//! - every engagement opens an [`IoChannel`] — its **engagement IO lane**
//!   into the scheduler; requests on a lane are serviced **FIFO** (AIB
//!   planning requires arrival order = execution order, paper §5.4);
//! - across lanes the scheduler dispatches **round-robin**, one layer
//!   request per turn, so no engagement can starve another;
//! - an optional shared [`ShardCache`] absorbs redundant reads across
//!   engagements executing overlapping submodels.
//!
//! **Two kinds of "channel".** An [`IoChannel`] (and a [`ChannelBacklog`]
//! entry) is an engagement IO *lane*: one engagement's request stream,
//! identified by the `channel`/engagement id on events and reports. A
//! **device channel** is a hardware lane of the flash package, named by
//! [`DeviceTopology`]: placement maps each
//! request to the device channel
//! `DeviceTopology::channel_for(content_sig, lane_stripe)`, where the
//! lane's *stripe* offset is fixed at [`IoScheduler::channel_striped_at`]
//! time. Under the default single-channel topology every request lands on
//! device channel 0 and the scheduler behaves exactly as before.
//!
//! Simulated time is kept on **two tracks**:
//!
//! - **Uncontended track.** Each completed load reports the *device-model*
//!   flash delay for its bytes, independent of concurrent queue state, so a
//!   given engagement's outcome is bit-identical whether it ran alone or
//!   next to seven neighbours (the determinism contract of the serving
//!   tests). Aggregates land in [`IoSchedulerStats`].
//! - **Contended track.** The scheduler additionally records its dispatch
//!   sequence as [`FlashDispatchEvent`]s — one per serviced flash job, with
//!   the lane's simulated arrival time, the device channel placement put it
//!   on, and byte/cache-hit accounting. [`IoScheduler::topology_sim`]
//!   replays that sequence through the per-channel
//!   [`TopologyQueueSim`] of `sti-device`, yielding the start/completion
//!   times each request *would* have seen on the contended device. Passing
//!   a DRAM-speed [`FlashModel`] charges cache-resident bytes at DRAM
//!   service time instead of flash — the opt-in residency mode for
//!   capacity planning.
//!   The contended track never feeds back into execution results; it exists
//!   for serving reports, the SLO planner, and admission control.
//!
//! **Shared-IO batching** (see [`crate::batcher`]): under an enabled
//! [`BatchPolicy`], a dispatch may coalesce byte-identical head-of-queue
//! requests from other lanes whose arrivals fall inside the policy window
//! — *and*, under a multi-channel topology, whose placement resolves to
//! the **same device channel** (two lanes striping the same bytes onto
//! different channels issue two reads; there is no cross-channel fan-out).
//! The flash services the group as **one** job; every member lane receives
//! a bit-identical [`LoadedLayer`] (blobs are shared `Arc`s) in its own
//! FIFO position, the uncontended track still charges each engagement its
//! own device-model delay (sharing must not perturb deterministic
//! results), and the contended track records one event with the member
//! list so the replay charges the bytes once. The difference — what
//! co-residency saved — is ledgered in [`BatchStats`].
//!
//! Failure policy: lock poisoning is recovered (worker critical sections
//! never leave the state half-mutated), and shutdown — including a worker
//! dying mid-service — surfaces as [`StorageError::SchedulerShutdown`] on
//! `request`/`recv` instead of panicking a serving thread.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use sti_device::{DeviceTopology, FlashJob, FlashModel, SimTime, TopologyQueueSim};
use sti_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, ObsSink, SpanArgs, SpanEvent,
    TrackKind,
};

use crate::batcher::{batchable, BatchPolicy, BatchStats};
use crate::cache::ShardCache;
use crate::error::StorageError;
use crate::loader::{LayerRequest, LoadedLayer};
use crate::store::{ShardKey, ShardSource};
use sti_transformer::ShardId;

/// Aggregate accounting across every channel the scheduler served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSchedulerStats {
    /// Layer requests completed (every member of a batched dispatch counts:
    /// this is per-engagement accounting).
    pub requests: u64,
    /// Serialized bytes delivered (simulated-device accounting; cache hits
    /// and batch fan-outs count too, because the per-engagement device
    /// model streams them — the *unbatched* byte total).
    pub bytes: u64,
    /// Simulated flash busy time if every request were served back-to-back
    /// on the single flash channel, with no cross-engagement sharing.
    pub sim_flash_busy: SimTime,
    /// Largest number of channels with queued or in-flight work observed at
    /// a dispatch point.
    pub max_queue_depth: usize,
    /// Requests dispatched while at least one other channel had work queued
    /// (a direct measure of flash contention under concurrency).
    pub contended_requests: u64,
    /// Shared-IO batching counters (all zero under [`BatchPolicy::Off`]).
    pub batch: BatchStats,
}

/// One serviced flash job on the contended track: the dispatch-order record
/// the flash-queue simulator replays. A batched dispatch appears **once**,
/// with the fan-out recipients in [`FlashDispatchEvent::members`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashDispatchEvent {
    /// Dispatch sequence number (the order requests reached the flash).
    pub seq: u64,
    /// The engagement IO lane that led the dispatch.
    pub channel: u64,
    /// The device channel placement resolved the request onto
    /// (`DeviceTopology::channel_for(content_sig, lane_stripe)`; always 0
    /// under the single-channel topology).
    pub device_channel: u16,
    /// The job's simulated arrival time: the leader's effective arrival,
    /// raised to the latest member's for a batched dispatch (the job can
    /// only exist once every member has arrived).
    pub arrival: SimTime,
    /// Serialized bytes of the request (charged once however many members
    /// shared the job).
    pub bytes: u64,
    /// Bytes that were resident in the shared shard cache at dispatch.
    pub hit_bytes: u64,
    /// Uncontended device-model delay of the request.
    pub io_delay: SimTime,
    /// Channels that shared this job beyond the leader (empty for an
    /// exclusive dispatch).
    pub members: Vec<u64>,
}

impl FlashDispatchEvent {
    /// How many engagements this job delivered to (leader included).
    pub fn fanout(&self) -> usize {
        1 + self.members.len()
    }
}

/// A background-class prefetch job: stage `keys` into the shard cache's
/// prefetch pool on behalf of a predicted next engagement. Speculative jobs
/// are **fenced off** from demand traffic — a worker only picks one when no
/// demand request is dispatchable for its lane filter, so a wrong
/// prediction costs staged bytes, never a demand request's place in line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeculativeJob {
    /// The session token the prediction was made for (the `channel` id its
    /// speculative event is logged under).
    pub session: u64,
    /// The device channel whose idle windows the job may use.
    pub device_channel: u16,
    /// Simulated submission time (the triggering engagement's completion).
    pub arrival: SimTime,
    /// Estimated serialized bytes of `keys` (backlog labelling; the event
    /// records what was actually flash-loaded).
    pub bytes: u64,
    /// The shards to stage.
    pub keys: Vec<ShardKey>,
}

/// One queued (not yet dispatched) request in a [`BacklogSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedIo {
    /// Placement-adjusted content signature of the request
    /// ([`LayerRequest::content_sig`] plus the lane's stripe offset) —
    /// equal signatures read identical bytes *and* resolve to the same
    /// device channel (`channel_for(sig, 0)`), so they could share one
    /// flash job under an enabled batch policy. Zero-stripe lanes (the
    /// only kind under a single-channel topology) report the raw content
    /// signature.
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
    /// lanes only, so backlog blame never attributes prefetch work to
    /// demand traffic ([`IoScheduler::speculative_backlog_bytes`] labels
    /// the speculative class separately).
    pub fn queued_requests(&self) -> usize {
        self.channels.iter().map(|c| c.queued.len()).sum()
    }

    /// Total serialized bytes queued across all channels (demand only; see
    /// [`IoScheduler::speculative_backlog_bytes`]).
    pub fn queued_bytes(&self) -> u64 {
        self.channels.iter().flat_map(|c| &c.queued).map(|q| q.bytes).sum()
    }
}

struct ChannelState {
    pending: VecDeque<LayerRequest>,
    completed: VecDeque<Result<LoadedLayer, StorageError>>,
    arrival: SimTime,
    /// The arrival the channel's *next* dispatch is stamped with on the
    /// contended track: starts at `arrival` and is raised to a batch's
    /// arrival whenever the channel joins one, so each channel's event
    /// arrivals are non-decreasing and the `(arrival, seq)` replay order
    /// preserves per-channel FIFO.
    effective_arrival: SimTime,
    /// The lane's stripe offset: placement resolves each request to device
    /// channel `channel_for(content_sig, stripe)`. Always 0 under the
    /// single-channel topology.
    stripe: u16,
    inflight: bool,
    closed: bool,
}

impl ChannelState {
    fn new(arrival: SimTime, stripe: u16) -> Self {
        Self {
            pending: VecDeque::new(),
            completed: VecDeque::new(),
            arrival,
            effective_arrival: arrival,
            stripe,
            inflight: false,
            closed: false,
        }
    }

    fn has_work(&self) -> bool {
        self.inflight || !self.pending.is_empty()
    }
}

#[derive(Default)]
struct SchedState {
    channels: HashMap<u64, ChannelState>,
    /// Channel ids with pending work, in round-robin dispatch order.
    turn_queue: VecDeque<u64>,
    next_channel_id: u64,
    /// Next dispatch sequence number for the contended-track event log.
    dispatch_seq: u64,
    /// Dispatch-order record of every serviced request (contended track).
    events: Vec<FlashDispatchEvent>,
    /// Queued speculative (prefetch) jobs, FIFO. Strictly lower priority
    /// than every demand lane: picked only when no demand request is
    /// dispatchable for the picker's device-channel filter.
    spec: VecDeque<SpeculativeJob>,
    /// Speculative dispatch numbering — deliberately separate from
    /// `dispatch_seq` so demand events are bit-identical with and without
    /// prefetch.
    spec_seq: u64,
    /// Record of serviced speculative jobs, kept apart from the demand
    /// `events` log: demand replays, batching counters, and backlog digests
    /// never see them. `bytes` is what was flash-loaded into the prefetch
    /// pool, `hit_bytes` re-purposed as bytes *pinned* from the main cache
    /// at zero flash cost, `members` always empty.
    spec_events: Vec<FlashDispatchEvent>,
    /// While set, workers park instead of dispatching (quiesce support:
    /// queue work deterministically, then release it in one burst).
    paused: bool,
    shutdown: bool,
}

/// The scheduler's named instruments, resolved once at spawn so the
/// dispatch path never touches the registry map. [`IoScheduler::stats`]
/// reconstructs [`IoSchedulerStats`] from these — the instruments *are*
/// the accounting, not a copy of it.
struct IoInstruments {
    requests: Counter,
    bytes: Counter,
    sim_flash_busy_us: Counter,
    contended_requests: Counter,
    batched_dispatches: Counter,
    coalesced_requests: Counter,
    flash_bytes_saved: Counter,
    queue_depth: Gauge,
    batch_fanout: Gauge,
    request_bytes: Histogram,
    service_us: Histogram,
}

impl IoInstruments {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            requests: registry.counter("io.requests"),
            bytes: registry.counter("io.bytes"),
            sim_flash_busy_us: registry.counter("io.sim_flash_busy_us"),
            contended_requests: registry.counter("io.contended_requests"),
            batched_dispatches: registry.counter("io.batch.dispatches"),
            coalesced_requests: registry.counter("io.batch.coalesced_requests"),
            flash_bytes_saved: registry.counter("io.batch.flash_bytes_saved"),
            queue_depth: registry.gauge("io.queue_depth"),
            batch_fanout: registry.gauge("io.batch.fanout"),
            request_bytes: registry.histogram("io.request_bytes"),
            service_us: registry.histogram("io.service_us"),
        }
    }
}

/// Per-device-channel instruments (`io.channel.<c>.*`), resolved at spawn.
/// Only created under a multi-channel topology so single-channel metric
/// snapshots stay exactly as they always were.
struct DeviceChannelInstruments {
    /// `io.channel.<c>.busy_us` — device-model service time dispatched on
    /// the channel (charged once per batched job, like the replay).
    busy_us: Counter,
    /// `io.channel.<c>.queued_bytes` — serialized bytes dispatched on the
    /// channel (charged once per batched job).
    queued_bytes: Counter,
    /// `io.channel.<c>.batch_fanout` — peak fan-out of a batched dispatch
    /// placed on the channel.
    batch_fanout: Gauge,
}

impl DeviceChannelInstruments {
    fn resolve(registry: &MetricsRegistry, c: u16) -> Self {
        // Instrument names are `&'static str`; device-channel names are
        // minted once per spawn (bounded by the topology's channel count).
        let name = |suffix: &str| -> &'static str {
            Box::leak(format!("io.channel.{c}.{suffix}").into_boxed_str())
        };
        Self {
            busy_us: registry.counter(name("busy_us")),
            queued_bytes: registry.counter(name("queued_bytes")),
            batch_fanout: registry.gauge(name("batch_fanout")),
        }
    }
}

struct Shared {
    source: Arc<dyn ShardSource>,
    cache: Option<Arc<ShardCache>>,
    flash: FlashModel,
    throttle_scale: f64,
    policy: BatchPolicy,
    /// The device's contended-path shape. Placement and replay routing are
    /// pure functions of it; [`DeviceTopology::single`] reproduces the
    /// legacy one-channel behaviour bit-identically.
    topology: DeviceTopology,
    /// `io.channel.<c>.*` instruments, one per device channel — empty
    /// under the single-channel topology.
    per_channel: Vec<DeviceChannelInstruments>,
    state: Mutex<SchedState>,
    /// Signals workers that work arrived or shutdown began.
    work_cv: Condvar,
    /// Signals channel owners that a completion landed.
    done_cv: Condvar,
    /// The scheduler's own metrics registry ([`IoScheduler::metrics_snapshot`]
    /// exposes it; the server merges it into the serving snapshot).
    registry: MetricsRegistry,
    /// Handles resolved from `registry` at spawn.
    instruments: IoInstruments,
    /// Span sink for host-track dispatch spans (defaults to
    /// [`ObsSink::Null`]; see [`IoScheduler::set_obs_sink`]).
    obs: Mutex<ObsSink>,
}

impl Shared {
    /// Locks the scheduler state, recovering from poisoning: worker
    /// mutations happen in short, panic-free critical sections (`service`
    /// runs outside the lock), and a worker that *does* unwind marks
    /// shutdown via its panic guard — so after recovery the state is
    /// consistent and `recv`/`request` report [`StorageError::SchedulerShutdown`].
    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A pool of IO workers multiplexing layer requests from many engagements
/// over one shard source and flash model.
pub struct IoScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for IoScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoScheduler").field("workers", &self.workers.len()).finish()
    }
}

impl IoScheduler {
    /// Spawns the scheduler with batching disabled (the seed behaviour).
    ///
    /// `workers` is the host-thread pool size: extra workers only overlap
    /// host-side decode work — how many flash channels the *simulated*
    /// device exposes is the topology ([`IoScheduler::spawn_topology`];
    /// this constructor builds the single-channel one). `cache`, when
    /// given, is shared across all channels.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `throttle_scale` is outside `[0, 10]`.
    pub fn spawn(
        source: Arc<dyn ShardSource>,
        flash: FlashModel,
        workers: usize,
        throttle_scale: f64,
        cache: Option<Arc<ShardCache>>,
    ) -> Self {
        Self::spawn_batched(source, flash, workers, throttle_scale, cache, BatchPolicy::Off)
    }

    /// Spawns the scheduler with an explicit shared-IO [`BatchPolicy`]:
    /// under an enabled policy, byte-identical head-of-queue requests from
    /// channels arriving within the policy window are coalesced into one
    /// fan-out flash job (see [`crate::batcher`]).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `throttle_scale` is outside `[0, 10]`.
    pub fn spawn_batched(
        source: Arc<dyn ShardSource>,
        flash: FlashModel,
        workers: usize,
        throttle_scale: f64,
        cache: Option<Arc<ShardCache>>,
        policy: BatchPolicy,
    ) -> Self {
        Self::spawn_topology(
            source,
            flash,
            workers,
            throttle_scale,
            cache,
            policy,
            DeviceTopology::single(),
        )
    }

    /// Spawns the scheduler over an explicit [`DeviceTopology`]: placement
    /// resolves every request to a device channel, batching only coalesces
    /// same-channel placements, and the contended track records each
    /// dispatch's device channel for the [`IoScheduler::topology_sim`]
    /// replay. [`DeviceTopology::single`] reproduces
    /// [`IoScheduler::spawn_batched`] bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `throttle_scale` is outside `[0, 10]`.
    pub fn spawn_topology(
        source: Arc<dyn ShardSource>,
        flash: FlashModel,
        workers: usize,
        throttle_scale: f64,
        cache: Option<Arc<ShardCache>>,
        policy: BatchPolicy,
        topology: DeviceTopology,
    ) -> Self {
        assert!(workers > 0, "scheduler needs at least one worker");
        assert!((0.0..=10.0).contains(&throttle_scale), "throttle scale must be within [0, 10]");
        let registry = MetricsRegistry::new();
        let instruments = IoInstruments::resolve(&registry);
        let per_channel = if topology.channel_count() > 1 {
            (0..topology.channel_count())
                .map(|c| DeviceChannelInstruments::resolve(&registry, c))
                .collect()
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            source,
            cache,
            flash,
            throttle_scale,
            policy,
            topology,
            per_channel,
            state: Mutex::new(SchedState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            registry,
            instruments,
            obs: Mutex::new(ObsSink::Null),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sti-io-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn IO scheduler worker")
            })
            .collect();
        Self { shared, workers: handles }
    }

    /// Opens a channel for one engagement arriving at simulated time zero.
    /// Requests on the channel are serviced FIFO; distinct channels share
    /// the flash round-robin.
    pub fn channel(&self) -> IoChannel {
        self.channel_at(SimTime::ZERO)
    }

    /// Opens a channel whose engagement arrives at `arrival` on the
    /// simulated timeline — the arrival the contended track replays its
    /// requests at. The uncontended track is unaffected. The lane stripes
    /// at offset 0 (the only placement under a single-channel topology).
    pub fn channel_at(&self, arrival: SimTime) -> IoChannel {
        self.channel_striped_at(arrival, 0)
    }

    /// Opens a lane with an explicit stripe offset: each of its requests
    /// is placed on device channel `channel_for(content_sig, stripe)`.
    /// The stripe is normalized modulo the channel count, so under a
    /// single-channel topology every lane stripes at 0.
    pub fn channel_striped_at(&self, arrival: SimTime, stripe: u16) -> IoChannel {
        let stripe = stripe % self.shared.topology.channel_count();
        let mut state = self.shared.lock_state();
        let id = state.next_channel_id;
        state.next_channel_id += 1;
        state.channels.insert(id, ChannelState::new(arrival, stripe));
        IoChannel { shared: self.shared.clone(), id }
    }

    /// The device topology this scheduler places requests onto.
    pub fn topology(&self) -> DeviceTopology {
        self.shared.topology
    }

    /// Aggregate accounting so far, reconstructed from the scheduler's
    /// named instruments (the instruments are the source of truth; this
    /// struct is the stable report shape).
    pub fn stats(&self) -> IoSchedulerStats {
        let i = &self.shared.instruments;
        IoSchedulerStats {
            requests: i.requests.get(),
            bytes: i.bytes.get(),
            sim_flash_busy: SimTime::from_us(i.sim_flash_busy_us.get()),
            max_queue_depth: i.queue_depth.max() as usize,
            contended_requests: i.contended_requests.get(),
            batch: BatchStats {
                batched_dispatches: i.batched_dispatches.get(),
                coalesced_requests: i.coalesced_requests.get(),
                flash_bytes_saved: i.flash_bytes_saved.get(),
                max_fanout: i.batch_fanout.max() as usize,
            },
        }
    }

    /// A snapshot of every `io.*` instrument (counters, gauges, and the
    /// per-dispatch byte/service-time histograms).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// Routes host-track `io.dispatch` spans to `sink` (simulated-µs
    /// timestamps, but dispatch *order* and batch fan-out are
    /// executor-dependent — hence [`TrackKind::Host`], which deterministic
    /// exports exclude).
    pub fn set_obs_sink(&self, sink: ObsSink) {
        *self.shared.obs.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// The scheduler's shared-IO batching policy.
    pub fn batch_policy(&self) -> BatchPolicy {
        self.shared.policy
    }

    /// Parks the worker pool: queued requests stay queued, in-flight
    /// requests complete, nothing new dispatches until
    /// [`IoScheduler::resume_dispatch`]. Quiesce support — tests and
    /// benches use it to queue a whole co-resident workload and release it
    /// in one burst so batching fan-outs are deterministic.
    pub fn pause_dispatch(&self) {
        self.shared.lock_state().paused = true;
    }

    /// Releases a [`IoScheduler::pause_dispatch`] and wakes the pool.
    pub fn resume_dispatch(&self) {
        self.shared.lock_state().paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Requests queued across all channels, not counting in-flight ones
    /// (poll this while paused to know a workload is fully submitted).
    pub fn queued_requests(&self) -> usize {
        self.shared.lock_state().channels.values().map(|c| c.pending.len()).sum()
    }

    /// The channel-as-component view: services every dispatchable queued
    /// request inline on the calling thread — same round-robin pick, same
    /// batching, same accounting and event log as the worker pool — and
    /// returns how many dispatches it ran. Ignores
    /// [`IoScheduler::pause_dispatch`] deliberately: an event-driven host
    /// parks the pool once and *is* the dispatcher, ticking this from its
    /// flash component so dispatch order is a pure function of queue state
    /// rather than of OS scheduling. Returns 0 after shutdown (queued
    /// requests then surface [`StorageError::SchedulerShutdown`] through
    /// their channels instead).
    pub fn drive_queued(&self) -> usize {
        self.drive(None)
    }

    /// [`IoScheduler::drive_queued`] restricted to one device channel:
    /// services every dispatchable request whose placement resolves to
    /// `device_channel`, leaving other channels' work queued. An
    /// event-driven host registers one flash component per device channel
    /// and ticks each channel's dispatcher independently — under the
    /// single-channel topology `drive_queued_on(0)` is exactly
    /// [`IoScheduler::drive_queued`].
    pub fn drive_queued_on(&self, device_channel: u16) -> usize {
        self.drive(Some(device_channel))
    }

    fn drive(&self, only: Option<u16>) -> usize {
        let mut serviced = 0;
        loop {
            let pick = {
                let mut state = self.shared.lock_state();
                if state.shutdown {
                    break;
                }
                match pick_any(&mut state, self.shared.policy, self.shared.topology, only) {
                    Some(pick) => pick,
                    None => break,
                }
            };
            match pick {
                Pick::Demand(dispatch) => run_dispatch(&self.shared, dispatch),
                Pick::Spec(job) => run_spec_dispatch(&self.shared, job),
            }
            serviced += 1;
        }
        serviced
    }

    /// Submits a background-class prefetch job. It dispatches only when no
    /// demand request is dispatchable on its device channel (demand always
    /// preempts queued speculation), stages its shards into the shard
    /// cache's prefetch pool, and logs a speculative event — never a demand
    /// event. A no-op after shutdown.
    pub fn submit_speculative(&self, job: SpeculativeJob) {
        let mut state = self.shared.lock_state();
        if state.shutdown {
            return;
        }
        state.spec.push_back(job);
        drop(state);
        self.shared.work_cv.notify_one();
    }

    /// Speculative jobs queued and not yet serviced.
    pub fn queued_speculative(&self) -> usize {
        self.shared.lock_state().spec.len()
    }

    /// Estimated bytes of queued speculative jobs — the background-class
    /// backlog, labelled apart from [`IoScheduler::backlog_snapshot`]'s
    /// demand lanes so gate blame and contended predictions never charge
    /// prefetch work to demand traffic. Always zero when prefetch is off.
    pub fn speculative_backlog_bytes(&self) -> u64 {
        self.shared.lock_state().spec.iter().map(|job| job.bytes).sum()
    }

    /// The speculative event log so far, in dispatch order (see the
    /// field notes on [`SpeculativeJob`]: `bytes` = flash-loaded into the
    /// pool, `hit_bytes` = pinned from the main cache).
    pub fn speculative_events(&self) -> Vec<FlashDispatchEvent> {
        let state = self.shared.lock_state();
        let mut events = state.spec_events.clone();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Drops the speculative event log (numbering continues).
    pub fn clear_speculative_events(&self) {
        self.shared.lock_state().spec_events.clear();
    }

    /// Snapshots the live flash queue: every open channel's queued requests
    /// (with bytes, device-model service times, and batchability
    /// signatures), its effective arrival, and the batch-window state.
    ///
    /// The picture is advisory — requests keep dispatching while the caller
    /// looks at it — and sized outside the scheduler lock, so taking a
    /// snapshot never stalls the worker pool on storage lookups. A request
    /// whose size lookup fails is reported with zero bytes (its own dispatch
    /// will surface the error on its channel).
    pub fn backlog_snapshot(&self) -> BacklogSnapshot {
        // Under the lock: clone only queue structure (ids, arrivals,
        // pending requests), pre-sized to the channel count so the hold
        // never reallocates. Size lookups run after release.
        let pending: Vec<(u64, SimTime, SimTime, bool, u16, Vec<LayerRequest>)> = {
            let state = self.shared.lock_state();
            let mut channels = Vec::with_capacity(state.channels.len());
            channels.extend(state.channels.iter().filter(|(_, c)| !c.closed && c.has_work()).map(
                |(&id, c)| {
                    (
                        id,
                        c.arrival,
                        c.effective_arrival,
                        c.inflight,
                        c.stripe,
                        c.pending.iter().cloned().collect::<Vec<_>>(),
                    )
                },
            ));
            channels.sort_unstable_by_key(|&(id, ..)| id);
            channels
        };
        let channels = pending
            .into_iter()
            .map(|(channel, arrival, effective_arrival, inflight, stripe, requests)| {
                let queued = requests
                    .iter()
                    .map(|req| {
                        let bytes: u64 = req
                            .items
                            .iter()
                            .filter_map(|&(slice, bw)| {
                                let key = ShardKey::new(ShardId::new(req.layer, slice), bw);
                                self.shared.source.size_bytes(key).ok()
                            })
                            .sum();
                        let service = if bytes > 0 {
                            self.shared.flash.request_delay(bytes)
                        } else {
                            SimTime::ZERO
                        };
                        // Fold the lane's stripe into the reported
                        // signature: equality then means "identical bytes
                        // on the same device channel" — the batchability
                        // identity under placement — and `channel_for(sig,
                        // 0)` recovers the request's device channel.
                        // Zero-stripe lanes report the raw signature.
                        QueuedIo {
                            sig: req.content_sig().wrapping_add(stripe as u64),
                            bytes,
                            service,
                        }
                    })
                    .collect();
                ChannelBacklog { channel, arrival, effective_arrival, inflight, queued }
            })
            .collect();
        BacklogSnapshot { channels, batch_window: self.shared.policy.window() }
    }

    /// Drops the contended-track event log (dispatch numbering continues,
    /// so later events still sort after anything already harvested). The
    /// log otherwise grows by one entry per serviced request for the
    /// scheduler's lifetime.
    pub fn clear_flash_events(&self) {
        self.shared.lock_state().events.clear();
    }

    /// The contended-track event log so far, in dispatch order.
    pub fn flash_events(&self) -> Vec<FlashDispatchEvent> {
        let state = self.shared.lock_state();
        let mut events = state.events.clone();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Builds the multi-channel simulation of every request
    /// dispatched so far, routed by each event's recorded device channel.
    /// With `dram` set, bytes that were resident in the shared shard cache
    /// are charged at that (DRAM-speed) model's service time instead of
    /// flash — the opt-in cache-residency mode.
    pub fn topology_sim(&self, dram: Option<FlashModel>) -> TopologyQueueSim {
        Self::topology_sim_from_events(
            &self.flash_events(),
            self.shared.flash,
            dram,
            self.shared.topology,
        )
    }

    /// Builds the topology simulation from an explicit event list (what
    /// [`IoScheduler::topology_sim`] does with the live log). Batched
    /// events submit **one** shared job whose completion is mirrored to
    /// every member — the bytes are charged once. Events are routed by
    /// [`FlashDispatchEvent::device_channel`], normalized modulo the
    /// topology's channel count so a mismatched topology still yields a
    /// total routing.
    pub fn topology_sim_from_events(
        events: &[FlashDispatchEvent],
        flash: FlashModel,
        dram: Option<FlashModel>,
        topology: DeviceTopology,
    ) -> TopologyQueueSim {
        let mut sim = TopologyQueueSim::new(topology);
        for e in events {
            sim.submit_shared_on(
                e.device_channel % topology.channel_count(),
                FlashJob {
                    engagement: e.channel,
                    arrival: e.arrival,
                    service: contended_service(e, flash, dram),
                },
                &e.members,
            );
        }
        sim
    }

    /// Number of channels currently open.
    pub fn open_channels(&self) -> usize {
        self.shared.lock_state().channels.values().filter(|c| !c.closed).count()
    }

    /// Shuts the pool down and joins every worker. In-flight requests
    /// complete; queued requests on still-open channels are abandoned.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut state = self.shared.lock_state();
        state.shutdown = true;
        drop(state);
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
    }
}

impl Drop for IoScheduler {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One engagement's FIFO lane into the scheduler.
pub struct IoChannel {
    shared: Arc<Shared>,
    id: u64,
}

impl std::fmt::Debug for IoChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoChannel").field("id", &self.id).finish()
    }
}

impl IoChannel {
    /// The channel's scheduler-unique id (the engagement key of the
    /// contended-track event log).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits a layer request; requests on this channel complete in
    /// submission order.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchedulerShutdown`] if the scheduler has
    /// shut down (or a worker died and failed the pool).
    pub fn request(&self, req: LayerRequest) -> Result<(), StorageError> {
        let mut state = self.shared.lock_state();
        if state.shutdown {
            return Err(StorageError::SchedulerShutdown);
        }
        let Some(channel) = state.channels.get_mut(&self.id) else {
            return Err(StorageError::SchedulerShutdown);
        };
        let had_work = channel.has_work();
        channel.pending.push_back(req);
        if !had_work {
            state.turn_queue.push_back(self.id);
        }
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Blocks until this channel's next completed load.
    ///
    /// # Errors
    ///
    /// Returns the storage error if the load failed, or
    /// [`StorageError::SchedulerShutdown`] if the scheduler shut down with
    /// the request still pending.
    pub fn recv(&self) -> Result<LoadedLayer, StorageError> {
        let mut state = self.shared.lock_state();
        loop {
            let Some(channel) = state.channels.get_mut(&self.id) else {
                return Err(StorageError::SchedulerShutdown);
            };
            if let Some(done) = channel.completed.pop_front() {
                return done;
            }
            if state.shutdown {
                return Err(StorageError::SchedulerShutdown);
            }
            state = self.shared.done_cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for IoChannel {
    fn drop(&mut self) {
        let mut state = self.shared.lock_state();
        if let Some(channel) = state.channels.get_mut(&self.id) {
            channel.closed = true;
            channel.pending.clear();
            channel.completed.clear();
            if !channel.inflight {
                state.channels.remove(&self.id);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    // If this worker unwinds (a panic inside a `ShardSource` or blob
    // decoder), fail the scheduler loudly: mark shutdown and wake every
    // waiter, so blocked `recv` calls observe `SchedulerShutdown` instead
    // of hanging forever.
    struct PanicGuard<'a>(&'a Shared);
    impl Drop for PanicGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let mut state = self.0.lock_state();
                state.shutdown = true;
                drop(state);
                self.0.done_cv.notify_all();
                self.0.work_cv.notify_all();
            }
        }
    }
    let _guard = PanicGuard(shared);
    loop {
        let pick = {
            let mut state = shared.lock_state();
            loop {
                if !state.paused {
                    if let Some(pick) = pick_any(&mut state, shared.policy, shared.topology, None) {
                        break pick;
                    }
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        match pick {
            Pick::Demand(dispatch) => run_dispatch(shared, dispatch),
            Pick::Spec(job) => run_spec_dispatch(shared, job),
        }
    }
}

/// Stages one speculative job's shards into the shard cache's prefetch
/// pool and logs the speculative event. Nothing here touches demand
/// state: no demand queue, no demand event, no `io.*` counters — a wrong
/// prediction's entire footprint is pool bytes and the speculative log.
/// Load errors are swallowed (speculation may not fail an engagement).
fn run_spec_dispatch(shared: &Shared, job: SpeculativeJob) {
    let mut flash_bytes = 0u64;
    let mut pinned_bytes = 0u64;
    if let Some(cache) = &shared.cache {
        for &key in &job.keys {
            if let Ok((flash, pinned)) = cache.prefetch_load(&*shared.source, key) {
                flash_bytes += flash;
                pinned_bytes += pinned;
            }
        }
    }
    let io_delay =
        if flash_bytes > 0 { shared.flash.request_delay(flash_bytes) } else { SimTime::ZERO };
    let mut state = shared.lock_state();
    if flash_bytes > 0 || pinned_bytes > 0 {
        let seq = state.spec_seq;
        state.spec_seq += 1;
        state.spec_events.push(FlashDispatchEvent {
            seq,
            channel: job.session,
            device_channel: job.device_channel,
            arrival: job.arrival,
            bytes: flash_bytes,
            hit_bytes: pinned_bytes,
            io_delay,
            members: Vec::new(),
        });
    }
    drop(state);
    shared.work_cv.notify_one();
}

/// Services one picked dispatch to completion: the storage load, the
/// accounting, the event-log entry, and the deliveries (leader plus batch
/// members). Shared by the worker pool and the inline
/// [`IoScheduler::drive_queued`] path, so both account identically.
fn run_dispatch(shared: &Shared, dispatch: Dispatch) {
    let Dispatch { channel_id, req, depth, seq, arrival, device_channel, members } = dispatch;

    let result = service(shared, &req);

    if let (Ok((loaded, _)), true) = (&result, shared.throttle_scale > 0.0) {
        std::thread::sleep(loaded.io_delay.scale(shared.throttle_scale).to_duration());
    }

    let mut state = shared.lock_state();
    let fanout = 1 + members.len();
    let result = match result {
        Ok((loaded, hit_bytes)) => {
            // Per-engagement (uncontended-track) accounting: every
            // member streamed the layer as far as the device model is
            // concerned, so the unbatched totals charge the fan-out.
            let ins = &shared.instruments;
            ins.requests.add(fanout as u64);
            ins.bytes.add(loaded.bytes * fanout as u64);
            ins.sim_flash_busy_us.add(loaded.io_delay.as_us() * fanout as u64);
            ins.queue_depth.observe_peak(depth as u64);
            if depth > 1 {
                ins.contended_requests.add(fanout as u64);
            }
            if fanout > 1 {
                ins.batched_dispatches.incr();
                ins.coalesced_requests.add(members.len() as u64);
                ins.flash_bytes_saved.add(loaded.bytes * members.len() as u64);
                ins.batch_fanout.observe_peak(fanout as u64);
            }
            ins.request_bytes.record(loaded.bytes);
            ins.service_us.record(loaded.io_delay.as_us());
            if let Some(dci) = shared.per_channel.get(device_channel as usize) {
                dci.busy_us.add(loaded.io_delay.as_us());
                dci.queued_bytes.add(loaded.bytes);
                dci.batch_fanout.observe_peak(fanout as u64);
            }
            {
                let sink = shared.obs.lock().unwrap_or_else(|e| e.into_inner()).clone();
                if sink.enabled() {
                    sink.span(
                        SpanEvent::complete(
                            TrackKind::Host,
                            channel_id,
                            "io.dispatch",
                            arrival.as_us(),
                            (arrival + loaded.io_delay).as_us(),
                        )
                        .with_args(
                            SpanArgs::new()
                                .with("seq", seq)
                                .with("fanout", fanout as u64)
                                .with("bytes", loaded.bytes)
                                .with("hit_bytes", hit_bytes),
                        ),
                    );
                }
            }
            state.events.push(FlashDispatchEvent {
                seq,
                channel: channel_id,
                device_channel,
                arrival,
                bytes: loaded.bytes,
                hit_bytes,
                io_delay: loaded.io_delay,
                members: members.iter().map(|(id, _)| *id).collect(),
            });
            // Fan the loaded layer out: blobs are `Arc`s, so member
            // deliveries share the payload instead of copying it.
            for (member_id, _) in &members {
                deliver(&mut state, *member_id, Ok(loaded.clone()));
            }
            Ok(loaded)
        }
        Err(e) => {
            // The shared load failed. The leader gets the error; each
            // member's request goes back to the *front* of its queue
            // (FIFO intact) to be retried — and to fail — on its own
            // dispatch, so every engagement observes its own error.
            for (member_id, member_req) in members {
                let closed = match state.channels.get_mut(&member_id) {
                    Some(channel) => {
                        channel.inflight = false;
                        let closed = channel.closed;
                        if !closed {
                            channel.pending.push_front(member_req);
                            state.turn_queue.push_back(member_id);
                        }
                        closed
                    }
                    None => false,
                };
                if closed {
                    state.channels.remove(&member_id);
                }
            }
            Err(e)
        }
    };
    deliver(&mut state, channel_id, result);
    drop(state);
    shared.done_cv.notify_all();
    shared.work_cv.notify_one();
}

/// Hands a completed (or failed) load to a channel, re-queuing it for its
/// next round-robin turn when it still has pending work, and reaping it if
/// it was closed while the request was in flight.
fn deliver(state: &mut SchedState, channel_id: u64, result: Result<LoadedLayer, StorageError>) {
    let remove = match state.channels.get_mut(&channel_id) {
        Some(channel) => {
            channel.inflight = false;
            if channel.closed {
                true
            } else {
                channel.completed.push_back(result);
                if !channel.pending.is_empty() {
                    state.turn_queue.push_back(channel_id);
                }
                false
            }
        }
        // The channel vanished while its request was in flight (it can
        // only have been closed); nothing to deliver to.
        None => false,
    };
    if remove {
        state.channels.remove(&channel_id);
    }
}

/// One dispatch: the leading channel's request plus any batch members that
/// joined it (each with the — identical — request popped from its queue,
/// held so a failed batch can requeue them).
struct Dispatch {
    channel_id: u64,
    req: LayerRequest,
    /// Channels with queued or in-flight work observed at the pick.
    depth: usize,
    /// Dispatch sequence number (contended-track event ordering).
    seq: u64,
    /// The job's contended-track arrival (leader's effective arrival,
    /// raised to the latest batch member's).
    arrival: SimTime,
    /// The device channel placement resolved the leader's request onto
    /// (members joined only if their placement agreed).
    device_channel: u16,
    members: Vec<(u64, LayerRequest)>,
}

/// What a scheduler worker picked: a demand dispatch, or — only when no
/// demand request was dispatchable for the lane filter — a speculative
/// prefetch job. The ordering of the two arms *is* the fencing rule.
enum Pick {
    Demand(Dispatch),
    Spec(SpeculativeJob),
}

/// Demand-first pick: any dispatchable demand request wins; a speculative
/// job is only handed out when the demand pick comes up empty for the
/// filter, so speculation runs strictly in idle windows.
fn pick_any(
    state: &mut SchedState,
    policy: BatchPolicy,
    topology: DeviceTopology,
    only: Option<u16>,
) -> Option<Pick> {
    if let Some(dispatch) = pick_next_on(state, policy, topology, only) {
        return Some(Pick::Demand(dispatch));
    }
    pick_spec(state, only).map(Pick::Spec)
}

/// Pops the first queued speculative job whose device channel matches the
/// filter (FIFO within the speculative class).
fn pick_spec(state: &mut SchedState, only: Option<u16>) -> Option<SpeculativeJob> {
    let idx = state.spec.iter().position(|job| only.is_none_or(|dc| dc == job.device_channel))?;
    state.spec.remove(idx)
}

/// Picks the next request round-robin, skipping closed channels and
/// channels whose previous request is still in flight (FIFO per channel).
/// Under an enabled batch policy, other channels' byte-identical
/// head-of-queue requests within the arrival window join the dispatch —
/// if their placement resolves to the same device channel. With `only`
/// set, lanes whose head resolves to a different device channel keep
/// their turn-queue position for that channel's own dispatcher.
fn pick_next_on(
    state: &mut SchedState,
    policy: BatchPolicy,
    topology: DeviceTopology,
    only: Option<u16>,
) -> Option<Dispatch> {
    let depth = state.channels.values().filter(|c| !c.closed && c.has_work()).count();
    for _ in 0..state.turn_queue.len() {
        let id = state.turn_queue.pop_front()?;
        let Some(channel) = state.channels.get_mut(&id) else { continue };
        if channel.closed {
            if !channel.inflight {
                state.channels.remove(&id);
            }
            continue;
        }
        if channel.inflight {
            // Its turn comes again once the in-flight request lands.
            continue;
        }
        let Some(head) = channel.pending.front() else { continue };
        let device_channel = topology.channel_for(head.content_sig(), channel.stripe);
        if only.is_some_and(|dc| dc != device_channel) {
            // Another device channel's head: requeue the lane for that
            // channel's dispatcher and keep looking.
            state.turn_queue.push_back(id);
            continue;
        }
        let channel = state.channels.get_mut(&id).expect("lane checked above");
        if let Some(req) = channel.pending.pop_front() {
            channel.inflight = true;
            let leader_arrival = channel.arrival;
            let mut batch_arrival = channel.effective_arrival;
            let seq = state.dispatch_seq;
            state.dispatch_seq += 1;

            let mut members: Vec<(u64, LayerRequest)> = Vec::new();
            if policy.is_enabled() {
                // Candidates in channel-id order so fan-out composition is
                // deterministic once the queues are. Byte-identical heads
                // only join when their placement lands them on the same
                // device channel — a different stripe means a separate
                // read on a separate channel.
                let mut candidates: Vec<u64> = state
                    .channels
                    .iter()
                    .filter(|(&cid, c)| {
                        cid != id
                            && !c.closed
                            && !c.inflight
                            && c.pending.front().is_some_and(|head| {
                                batchable(policy, &req, leader_arrival, head, c.arrival)
                                    && topology.channel_for(head.content_sig(), c.stripe)
                                        == device_channel
                            })
                    })
                    .map(|(&cid, _)| cid)
                    .collect();
                candidates.sort_unstable();
                for cid in candidates {
                    let member = state.channels.get_mut(&cid).expect("candidate exists");
                    let member_req = member.pending.pop_front().expect("candidate head checked");
                    member.inflight = true;
                    batch_arrival = batch_arrival.max(member.effective_arrival);
                    members.push((cid, member_req));
                }
                if !members.is_empty() {
                    // The shared job exists only once its last member has
                    // arrived; raise every participant's effective arrival
                    // so later events never sort before this one.
                    for &(cid, _) in &members {
                        state.channels.get_mut(&cid).expect("member exists").effective_arrival =
                            batch_arrival;
                        state.turn_queue.retain(|&qid| qid != cid);
                    }
                    state.channels.get_mut(&id).expect("leader exists").effective_arrival =
                        batch_arrival;
                }
            }
            return Some(Dispatch {
                channel_id: id,
                req,
                depth,
                seq,
                arrival: batch_arrival,
                device_channel,
                members,
            });
        }
    }
    None
}

/// The contended-track service time of one dispatch event: the recorded
/// device-model delay, or — under the opt-in DRAM-residency mode — its
/// cache-resident bytes re-priced at the DRAM-speed model.
fn contended_service(
    e: &FlashDispatchEvent,
    flash: FlashModel,
    dram: Option<FlashModel>,
) -> SimTime {
    match dram {
        Some(d) if e.hit_bytes > 0 => {
            let miss = e.bytes - e.hit_bytes;
            let flash_part = if miss > 0 { flash.request_delay(miss) } else { SimTime::ZERO };
            flash_part + d.request_delay(e.hit_bytes)
        }
        _ => e.io_delay,
    }
}

/// Services one request against the source (through the cache when
/// present), returning the loaded layer plus how many of its bytes were
/// cache-resident at dispatch (contended-track accounting). Each blob is a
/// handle to the source's (or the cache's) one payload; a batched dispatch
/// fans the [`LoadedLayer`] out to its members by cloning handles.
fn service(shared: &Shared, req: &LayerRequest) -> Result<(LoadedLayer, u64), StorageError> {
    let mut blobs = Vec::with_capacity(req.items.len());
    let mut bytes = 0u64;
    let mut hit_bytes = 0u64;
    for &(slice, bw) in &req.items {
        let key = ShardKey::new(ShardId::new(req.layer, slice), bw);
        let size = shared.source.size_bytes(key)?;
        bytes += size;
        let blob = match &shared.cache {
            Some(cache) => {
                let (blob, hit) = cache.get_or_load_tracked(&*shared.source, key)?;
                if hit {
                    hit_bytes += size;
                }
                blob
            }
            None => shared.source.load(key)?,
        };
        blobs.push((slice, Arc::new(blob)));
    }
    let io_delay =
        if req.items.is_empty() { SimTime::ZERO } else { shared.flash.request_delay(bytes) };
    Ok((LoadedLayer { layer: req.layer, blobs, bytes, io_delay }, hit_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::MemStore;
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::{Model, ModelConfig};

    fn fixture(cache_bytes: u64) -> (Arc<MemStore>, Option<Arc<ShardCache>>, FlashModel) {
        let model = Model::synthetic(2, ModelConfig::tiny());
        let store = Arc::new(MemStore::build(
            &model,
            &[Bitwidth::B2, Bitwidth::B6],
            &QuantConfig::default(),
        ));
        let cache = (cache_bytes > 0).then(|| Arc::new(ShardCache::new(cache_bytes)));
        (store, cache, FlashModel::new(1_000_000, SimTime::from_ms(1)))
    }

    fn request(layer: u16, slice: u16) -> LayerRequest {
        LayerRequest { layer, items: vec![(slice, Bitwidth::B2)] }
    }

    #[test]
    fn single_channel_is_fifo() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let ch = sched.channel();
        // Layers 0 and 1 twice over, interleaved slices: strictly FIFO.
        let sequence = [(0u16, 0u16), (1, 0), (0, 1), (1, 1)];
        for &(layer, slice) in &sequence {
            ch.request(request(layer, slice)).unwrap();
        }
        for &(layer, _) in &sequence {
            assert_eq!(ch.recv().unwrap().layer, layer);
        }
        sched.shutdown();
    }

    #[test]
    fn a_request_loads_its_items_in_order_and_an_empty_one_costs_nothing() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let ch = sched.channel();
        let items = vec![(0, Bitwidth::B2), (1, Bitwidth::B6), (2, Bitwidth::B2)];
        ch.request(LayerRequest { layer: 0, items }).unwrap();
        ch.request(LayerRequest { layer: 0, items: vec![] }).unwrap();
        let loaded = ch.recv().unwrap();
        assert_eq!(loaded.blobs.len(), 3);
        assert_eq!(loaded.blobs[1].0, 1);
        assert_eq!(loaded.blobs[1].1.bitwidth(), Bitwidth::B6);
        assert!(loaded.bytes > 0 && loaded.io_delay > SimTime::ZERO);
        let empty = ch.recv().unwrap();
        assert_eq!((empty.bytes, empty.io_delay), (0, SimTime::ZERO));
        sched.shutdown();
    }

    #[test]
    fn channels_are_independent_fifo_lanes() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 2, 0.0, None);
        let a = sched.channel();
        let b = sched.channel();
        for layer in 0..2u16 {
            a.request(request(layer, 0)).unwrap();
            b.request(request(layer, 1)).unwrap();
        }
        // Each channel sees its own requests in its own order regardless of
        // interleaving on the shared flash.
        assert_eq!(a.recv().unwrap().layer, 0);
        assert_eq!(b.recv().unwrap().layer, 0);
        assert_eq!(b.recv().unwrap().layer, 1);
        assert_eq!(a.recv().unwrap().layer, 1);
        sched.shutdown();
    }

    #[test]
    fn io_delay_is_independent_of_concurrency() {
        let (store, _, flash) = fixture(0);
        // Alone.
        let sched = IoScheduler::spawn(store.clone(), flash, 1, 0.0, None);
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        let alone = ch.recv().unwrap();
        sched.shutdown();
        // Next to a busy neighbour.
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let noisy = sched.channel();
        for _ in 0..4 {
            noisy.request(request(1, 0)).unwrap();
        }
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        let contended = ch.recv().unwrap();
        assert_eq!(alone.io_delay, contended.io_delay);
        assert_eq!(alone.bytes, contended.bytes);
        sched.shutdown();
    }

    #[test]
    fn shared_cache_absorbs_redundant_reads() {
        let (store, cache, flash) = fixture(1 << 20);
        let cache = cache.unwrap();
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, Some(cache.clone()));
        let a = sched.channel();
        let b = sched.channel();
        a.request(request(0, 0)).unwrap();
        a.recv().unwrap();
        b.request(request(0, 0)).unwrap();
        let loaded = b.recv().unwrap();
        // Bytes are still accounted (simulated device streams them) even
        // though the host served the blob from cache.
        assert!(loaded.bytes > 0);
        assert_eq!(cache.stats().hits, 1);
        // The contended track saw the residency: the second request's bytes
        // were all cache hits.
        let events = sched.flash_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].hit_bytes, 0);
        assert_eq!(events[1].hit_bytes, events[1].bytes);
        sched.shutdown();
    }

    #[test]
    fn contention_is_measured_not_charged() {
        let (store, _, flash) = fixture(0);
        // Real-time throttling keeps the single worker busy ~1 ms per
        // request, so later dispatches observe both channels queued.
        let sched = IoScheduler::spawn(store, flash, 1, 1.0, None);
        let a = sched.channel();
        let b = sched.channel();
        for layer in 0..2u16 {
            a.request(request(layer, 0)).unwrap();
            b.request(request(layer, 1)).unwrap();
        }
        for _ in 0..2 {
            a.recv().unwrap();
            b.recv().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.requests, 4);
        assert!(stats.bytes > 0);
        assert!(stats.sim_flash_busy > SimTime::ZERO);
        assert!(stats.max_queue_depth >= 2, "two channels queued concurrently");
        sched.shutdown();
    }

    #[test]
    fn topology_sim_replays_the_dispatch_sequence() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let a = sched.channel();
        let b = sched.channel();
        for layer in 0..2u16 {
            a.request(request(layer, 0)).unwrap();
            b.request(request(layer, 1)).unwrap();
        }
        let mut uncontended_a = SimTime::ZERO;
        for _ in 0..2 {
            uncontended_a += a.recv().unwrap().io_delay;
            b.recv().unwrap();
        }
        let report = sched.topology_sim(None).run();
        let report = report.single();
        assert_eq!(report.completions.len(), 4);
        // Busy-time conservation: the contended queue does exactly the
        // uncontended work, just serialized.
        assert_eq!(report.busy, sched.stats().sim_flash_busy);
        // Channel a's contended completion can only be later than its own
        // back-to-back service time.
        assert!(report.last_completion_of(a.id()).unwrap() >= uncontended_a);
        // FIFO per channel survives the replay.
        for id in [a.id(), b.id()] {
            let mine = report.completions_of(id);
            assert_eq!(mine.len(), 2);
            assert!(mine[0].completion <= mine[1].start);
        }
        sched.shutdown();
    }

    #[test]
    fn dram_residency_makes_cache_hits_cheaper() {
        let (store, cache, flash) = fixture(1 << 20);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, cache);
        let a = sched.channel();
        a.request(request(0, 0)).unwrap();
        a.recv().unwrap();
        let b = sched.channel();
        b.request(request(0, 0)).unwrap();
        b.recv().unwrap();
        let flash_only = sched.topology_sim(None).run();
        let with_dram = sched.topology_sim(Some(FlashModel::dram_residency())).run();
        let (flash_only, with_dram) = (flash_only.single(), with_dram.single());
        // The second request was fully cache-resident: under the residency
        // model its service time collapses, the first is unchanged.
        assert_eq!(with_dram.completions[0].completion, flash_only.completions[0].completion);
        assert!(with_dram.busy < flash_only.busy);
        sched.shutdown();
    }

    #[test]
    fn channel_arrival_offsets_shift_the_contended_track() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let late = sched.channel_at(SimTime::from_ms(500));
        late.request(request(0, 0)).unwrap();
        late.recv().unwrap();
        let report = sched.topology_sim(None).run();
        assert_eq!(report.single().completions[0].arrival, SimTime::from_ms(500));
        assert!(report.makespan() >= SimTime::from_ms(500));
        sched.shutdown();
    }

    #[test]
    fn errors_surface_on_the_right_channel() {
        let (store, _, flash) = fixture(0);
        store.remove(ShardKey::new(ShardId::new(1, 0), Bitwidth::B2));
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let ok = sched.channel();
        let bad = sched.channel();
        ok.request(request(0, 0)).unwrap();
        bad.request(request(1, 0)).unwrap();
        assert!(ok.recv().is_ok());
        assert!(bad.recv().is_err());
        sched.shutdown();
    }

    #[test]
    fn dropping_a_channel_releases_it() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        drop(ch);
        // Remaining channels keep working.
        let other = sched.channel();
        other.request(request(0, 1)).unwrap();
        assert!(other.recv().is_ok());
        assert_eq!(sched.open_channels(), 1);
        sched.shutdown();
    }

    #[test]
    fn drop_joins_cleanly() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 2, 0.0, None);
        let _ch = sched.channel();
        drop(sched);
    }

    #[test]
    fn shutdown_surfaces_as_error_not_panic() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        let ch = sched.channel();
        sched.shutdown();
        assert!(matches!(ch.request(request(0, 0)), Err(StorageError::SchedulerShutdown)));
        assert!(matches!(ch.recv(), Err(StorageError::SchedulerShutdown)));
    }

    /// A source whose loads panic (stands in for e.g. a decoder assert on a
    /// corrupt record).
    struct PanickingSource;

    impl ShardSource for PanickingSource {
        fn load(&self, _key: ShardKey) -> Result<sti_quant::QuantizedBlob, StorageError> {
            panic!("decoder blew up");
        }

        fn size_bytes(&self, _key: ShardKey) -> Result<u64, StorageError> {
            Ok(1)
        }
    }

    #[test]
    fn worker_panic_fails_the_pool_instead_of_hanging() {
        let flash = FlashModel::new(1_000_000, SimTime::from_ms(1));
        let sched = IoScheduler::spawn(Arc::new(PanickingSource), flash, 1, 0.0, None);
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        // The worker dies mid-service; recv must surface the shutdown as an
        // error, not block forever or panic the calling thread.
        assert!(matches!(ch.recv(), Err(StorageError::SchedulerShutdown)));
    }

    /// Spawns a paused scheduler under `policy` so tests can queue a whole
    /// workload before the first dispatch (deterministic batching).
    fn paused_sched(policy: BatchPolicy) -> IoScheduler {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn_batched(store, flash, 1, 0.0, None, policy);
        sched.pause_dispatch();
        sched
    }

    #[test]
    fn identical_requests_coalesce_into_one_fanout_dispatch() {
        let sched = paused_sched(BatchPolicy::from_window_us(1_000));
        let channels: Vec<IoChannel> = (0..4).map(|_| sched.channel()).collect();
        for layer in 0..2u16 {
            for ch in &channels {
                ch.request(request(layer, 0)).unwrap();
            }
        }
        assert_eq!(sched.queued_requests(), 8);
        sched.resume_dispatch();
        // Every channel receives both layers, FIFO, bit-identical blobs.
        let mut first_layer_blobs = Vec::new();
        for ch in &channels {
            let l0 = ch.recv().unwrap();
            assert_eq!(l0.layer, 0);
            first_layer_blobs.push(l0);
            assert_eq!(ch.recv().unwrap().layer, 1);
        }
        for loaded in &first_layer_blobs[1..] {
            assert_eq!(loaded.bytes, first_layer_blobs[0].bytes);
            assert_eq!(loaded.io_delay, first_layer_blobs[0].io_delay);
            assert_eq!(loaded.blobs[0].1, first_layer_blobs[0].blobs[0].1, "fan-out is identical");
            // The payload is shared, not copied.
            assert!(Arc::ptr_eq(&loaded.blobs[0].1, &first_layer_blobs[0].blobs[0].1));
        }
        // Two dispatches (one per layer), each 4-way.
        let stats = sched.stats();
        assert_eq!(stats.requests, 8, "per-engagement accounting still counts every request");
        assert_eq!(stats.batch.batched_dispatches, 2);
        assert_eq!(stats.batch.coalesced_requests, 6);
        assert_eq!(stats.batch.max_fanout, 4);
        assert_eq!(stats.batch.flash_bytes_saved, stats.bytes / 4 * 3, "3 of 4 copies saved");
        let events = sched.flash_events();
        assert_eq!(events.len(), 2, "batched dispatches appear once in the event stream");
        assert!(events.iter().all(|e| e.fanout() == 4));
        // The contended replay charges the bytes once but completes every
        // engagement's layers.
        let report = sched.topology_sim(None).run();
        assert_eq!(report.busy() * 4, stats.sim_flash_busy, "flash pays 1/4 of the unbatched busy");
        for ch in &channels {
            assert_eq!(report.completions_of(ch.id()).len(), 2);
        }
        sched.shutdown();
    }

    #[test]
    fn batching_respects_the_arrival_window() {
        let sched = paused_sched(BatchPolicy::from_window_us(100));
        let near_a = sched.channel_at(SimTime::ZERO);
        let near_b = sched.channel_at(SimTime::from_us(100));
        let far = sched.channel_at(SimTime::from_ms(10));
        for ch in [&near_a, &near_b, &far] {
            ch.request(request(0, 0)).unwrap();
        }
        sched.resume_dispatch();
        for ch in [&near_a, &near_b, &far] {
            ch.recv().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.batch.batched_dispatches, 1, "only the in-window pair coalesces");
        assert_eq!(stats.batch.max_fanout, 2);
        assert_eq!(sched.flash_events().len(), 2);
        sched.shutdown();
    }

    #[test]
    fn different_requests_do_not_coalesce() {
        let sched = paused_sched(BatchPolicy::from_window_us(1_000));
        let a = sched.channel();
        let b = sched.channel();
        a.request(request(0, 0)).unwrap();
        b.request(request(0, 1)).unwrap(); // same layer, different slice
        sched.resume_dispatch();
        a.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(sched.stats().batch, BatchStats::default());
        assert_eq!(sched.flash_events().len(), 2);
        sched.shutdown();
    }

    #[test]
    fn off_policy_never_batches_even_when_requests_align() {
        let sched = paused_sched(BatchPolicy::Off);
        let a = sched.channel();
        let b = sched.channel();
        a.request(request(0, 0)).unwrap();
        b.request(request(0, 0)).unwrap();
        sched.resume_dispatch();
        a.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(sched.stats().batch, BatchStats::default());
        assert_eq!(sched.flash_events().len(), 2);
        sched.shutdown();
    }

    #[test]
    fn batched_event_arrival_is_the_latest_member_and_stays_monotone() {
        let sched = paused_sched(BatchPolicy::from_window_us(500));
        let early = sched.channel_at(SimTime::ZERO);
        let late = sched.channel_at(SimTime::from_us(400));
        // Layer 0 batches; layer 1 runs solo on the early channel.
        early.request(request(0, 0)).unwrap();
        late.request(request(0, 0)).unwrap();
        early.request(request(1, 0)).unwrap();
        sched.resume_dispatch();
        early.recv().unwrap();
        early.recv().unwrap();
        late.recv().unwrap();
        let events = sched.flash_events();
        assert_eq!(events.len(), 2);
        let batch = events.iter().find(|e| e.fanout() == 2).unwrap();
        let solo = events.iter().find(|e| e.fanout() == 1).unwrap();
        assert_eq!(batch.arrival, SimTime::from_us(400), "the job exists once all members have");
        // The early channel's later event inherits the raised arrival so
        // the (arrival, seq) replay order preserves its FIFO.
        assert_eq!(solo.arrival, SimTime::from_us(400));
        assert!(solo.seq > batch.seq);
        let report = sched.topology_sim(None).run();
        let mine = report.completions_of(early.id());
        assert_eq!(mine.len(), 2);
        assert!(mine[0].completion <= mine[1].start, "per-channel FIFO survives the replay");
        sched.shutdown();
    }

    #[test]
    fn failed_batch_delivers_an_error_to_every_member() {
        let (store, _, flash) = fixture(0);
        store.remove(ShardKey::new(ShardId::new(1, 0), Bitwidth::B2));
        let sched = IoScheduler::spawn_batched(
            store,
            flash,
            1,
            0.0,
            None,
            BatchPolicy::from_window_us(1_000),
        );
        sched.pause_dispatch();
        let channels: Vec<IoChannel> = (0..3).map(|_| sched.channel()).collect();
        for ch in &channels {
            ch.request(request(1, 0)).unwrap(); // the missing shard
            ch.request(request(0, 0)).unwrap(); // a healthy follow-up
        }
        sched.resume_dispatch();
        for ch in &channels {
            assert!(ch.recv().is_err(), "each member observes its own error");
            let ok = ch.recv().unwrap();
            assert_eq!(ok.layer, 0, "FIFO: the healthy request still lands after the error");
        }
        sched.shutdown();
    }

    #[test]
    fn backlog_snapshot_reports_queued_work_per_channel() {
        let sched = paused_sched(BatchPolicy::from_window_us(500));
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

    /// Spawns a paused single-worker scheduler over `topology`.
    fn paused_topology_sched(policy: BatchPolicy, topology: DeviceTopology) -> IoScheduler {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn_topology(store, flash, 1, 0.0, None, policy, topology);
        sched.pause_dispatch();
        sched
    }

    #[test]
    fn striped_lanes_route_dispatches_across_device_channels() {
        let topo = DeviceTopology::with_channels(4);
        let sched = paused_topology_sched(BatchPolicy::Off, topo);
        let a = sched.channel_striped_at(SimTime::ZERO, 0);
        let b = sched.channel_striped_at(SimTime::ZERO, 1);
        a.request(request(0, 0)).unwrap();
        b.request(request(0, 0)).unwrap();
        sched.resume_dispatch();
        a.recv().unwrap();
        b.recv().unwrap();
        let events = sched.flash_events();
        assert_eq!(events.len(), 2);
        let sig = request(0, 0).content_sig();
        assert_eq!(events[0].device_channel, topo.channel_for(sig, 0));
        assert_eq!(events[1].device_channel, topo.channel_for(sig, 1));
        assert_ne!(events[0].device_channel, events[1].device_channel);
        // The replay overlaps the two reads instead of queueing them.
        let report = sched.topology_sim(None).run();
        for lane in [a.id(), b.id()] {
            assert_eq!(report.completions_of(lane)[0].queue_delay(), SimTime::ZERO);
        }
        // Per-device-channel instruments saw one dispatch each.
        let snap = sched.metrics_snapshot();
        let busy: Vec<u64> = (0..4)
            .filter_map(|c| snap.counters.get(&format!("io.channel.{c}.busy_us")))
            .copied()
            .collect();
        assert_eq!(busy.len(), 4, "every device channel has instruments");
        assert_eq!(busy.iter().filter(|&&v| v > 0).count(), 2);
        sched.shutdown();
    }

    #[test]
    fn batching_requires_same_device_channel_placement() {
        let topo = DeviceTopology::with_channels(4);
        let sched = paused_topology_sched(BatchPolicy::from_window_us(1_000), topo);
        let same_a = sched.channel_striped_at(SimTime::ZERO, 0);
        let same_b = sched.channel_striped_at(SimTime::ZERO, 0);
        let elsewhere = sched.channel_striped_at(SimTime::ZERO, 1);
        for ch in [&same_a, &same_b, &elsewhere] {
            ch.request(request(0, 0)).unwrap();
        }
        sched.resume_dispatch();
        for ch in [&same_a, &same_b, &elsewhere] {
            ch.recv().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.batch.batched_dispatches, 1, "only the co-placed pair coalesces");
        assert_eq!(stats.batch.max_fanout, 2);
        let events = sched.flash_events();
        assert_eq!(events.len(), 2);
        let batch = events.iter().find(|e| e.fanout() == 2).unwrap();
        let solo = events.iter().find(|e| e.fanout() == 1).unwrap();
        assert_ne!(batch.device_channel, solo.device_channel);
        sched.shutdown();
    }

    #[test]
    fn drive_queued_on_services_one_device_channel_at_a_time() {
        let topo = DeviceTopology::with_channels(2);
        let sched = paused_topology_sched(BatchPolicy::Off, topo);
        let a = sched.channel_striped_at(SimTime::ZERO, 0);
        let b = sched.channel_striped_at(SimTime::ZERO, 1);
        a.request(request(0, 0)).unwrap();
        b.request(request(0, 0)).unwrap();
        let sig = request(0, 0).content_sig();
        let on_a = topo.channel_for(sig, 0);
        assert_eq!(sched.drive_queued_on(on_a), 1, "only lane a's head is placed here");
        assert_eq!(sched.queued_requests(), 1, "lane b's request stays queued");
        a.recv().unwrap();
        assert_eq!(sched.drive_queued_on(topo.channel_for(sig, 1)), 1);
        b.recv().unwrap();
        sched.shutdown();
    }

    #[test]
    fn single_channel_replay_matches_the_flash_queue_reference_bitwise() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn_topology(
            store,
            flash,
            1,
            0.0,
            None,
            BatchPolicy::from_window_us(1_000),
            DeviceTopology::single(),
        );
        sched.pause_dispatch();
        let a = sched.channel_at(SimTime::ZERO);
        let b = sched.channel_at(SimTime::from_us(200));
        for layer in 0..2u16 {
            a.request(request(layer, 0)).unwrap();
            b.request(request(layer, 0)).unwrap();
        }
        sched.resume_dispatch();
        for _ in 0..2 {
            a.recv().unwrap();
            b.recv().unwrap();
        }
        assert!(sched.flash_events().iter().all(|e| e.device_channel == 0));
        // An independently fed single-server queue over the same dispatch log.
        let mut reference = sti_device::FlashQueueSim::new();
        for e in sched.flash_events() {
            let service = contended_service(&e, flash, None);
            reference.submit_shared(
                FlashJob { engagement: e.channel, arrival: e.arrival, service },
                &e.members,
            );
        }
        let topo = sched.topology_sim(None).run();
        assert_eq!(*topo.single(), reference.run(), "C = 1 replay is bit-identical");
        // Single-channel schedulers mint no per-channel instruments.
        let snap = sched.metrics_snapshot();
        assert!(snap.counters.keys().all(|n| !n.starts_with("io.channel.")));
        sched.shutdown();
    }

    #[test]
    fn pause_holds_work_and_resume_releases_it() {
        let sched = paused_sched(BatchPolicy::Off);
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(sched.queued_requests(), 1, "paused scheduler must not dispatch");
        sched.resume_dispatch();
        assert!(ch.recv().is_ok());
        assert_eq!(sched.queued_requests(), 0);
        sched.shutdown();
    }

    fn spec_key(layer: u16, slice: u16) -> ShardKey {
        ShardKey::new(ShardId::new(layer, slice), Bitwidth::B2)
    }

    fn spec_job(keys: Vec<ShardKey>) -> SpeculativeJob {
        SpeculativeJob {
            session: 42,
            device_channel: 0,
            arrival: SimTime::from_ms(1),
            bytes: 1 << 10,
            keys,
        }
    }

    #[test]
    fn speculative_job_stages_into_pool_without_touching_demand_state() {
        let (store, cache, flash) = fixture(1 << 20);
        let cache = cache.unwrap();
        cache.enable_prefetch_pool(1 << 20);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, Some(cache.clone()));
        sched.pause_dispatch();
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        assert_eq!(sched.queued_speculative(), 1);
        assert_eq!(sched.speculative_backlog_bytes(), 1 << 10);
        assert_eq!(sched.drive_queued(), 1);
        // The stage landed in the pool; the demand log, demand counters,
        // and main cache saw nothing.
        let spec = sched.speculative_events();
        assert_eq!(spec.len(), 1);
        assert!(spec[0].bytes > 0, "cold shard was flash-loaded");
        assert_eq!(spec[0].hit_bytes, 0, "nothing was pinned");
        assert_eq!(spec[0].channel, 42);
        assert!(sched.flash_events().is_empty());
        assert_eq!(sched.stats().requests, 0);
        assert!(cache.is_empty());
        assert!(cache.prefetch_stats().staged_flash_bytes > 0);
        assert_eq!(sched.queued_speculative(), 0);
        assert_eq!(sched.speculative_backlog_bytes(), 0);
        sched.shutdown();
    }

    #[test]
    fn demand_always_dispatches_before_queued_speculation() {
        let (store, cache, flash) = fixture(1 << 20);
        let cache = cache.unwrap();
        cache.enable_prefetch_pool(1 << 20);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, Some(cache.clone()));
        sched.pause_dispatch();
        // Speculation submitted *first*, demand for the same shard second.
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        sched.drive_queued();
        ch.recv().unwrap();
        // Demand won the race: it flash-loaded the shard into the main
        // cache, so the later speculative dispatch found it resident and
        // *pinned* it instead of reading flash.
        let spec = sched.speculative_events();
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].bytes, 0, "no speculative flash read");
        assert!(spec[0].hit_bytes > 0, "shard was pinned from the main cache");
        assert_eq!(cache.prefetch_stats().staged_flash_bytes, 0);
        sched.shutdown();
    }

    #[test]
    fn speculative_stage_serves_a_later_demand_miss_as_resident() {
        let (store, cache, flash) = fixture(1 << 20);
        let cache = cache.unwrap();
        cache.enable_prefetch_pool(1 << 20);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, Some(cache.clone()));
        sched.pause_dispatch();
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        sched.drive_queued();
        // The prediction comes true: the demand request's bytes are
        // resident on the contended track.
        let ch = sched.channel();
        ch.request(request(0, 0)).unwrap();
        sched.drive_queued();
        ch.recv().unwrap();
        let events = sched.flash_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].hit_bytes, events[0].bytes, "promoted stage counts as resident");
        assert!(cache.prefetch_stats().hit_bytes > 0);
        sched.shutdown();
    }

    #[test]
    fn speculation_without_a_cache_is_a_silent_no_op() {
        let (store, _, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, 1, 0.0, None);
        sched.pause_dispatch();
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        sched.drive_queued();
        assert!(sched.speculative_events().is_empty());
        sched.shutdown();
    }
}
