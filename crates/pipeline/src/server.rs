//! The multi-session serving runtime (the production face of the engine).
//!
//! [`StiEngine`](crate::engine::StiEngine) reproduces the paper's contract
//! for **one** app: plan once, execute repeatedly. A device serving heavy
//! traffic runs **many** concurrent engagements of the same model, and
//! almost everything they need is shareable: the model's resident
//! parameters, compressed shard blobs (a shared [`ShardCache`]), execution
//! plans and preload buffers (one per knob set in use — replanning happens
//! only on knob changes, §3.2, and a knob set nobody holds any more is
//! freed), and the flash device itself (an [`IoScheduler`]
//! multiplexing layer requests FIFO-per-engagement, round-robin across
//! engagements).
//!
//! [`StiServer`] owns all of that; [`Session`] is a lightweight handle an
//! app holds, carrying only its token, arrival and stripe plus an `Arc` to
//! the record its planning call resolved (knobs, plan, preload buffer).
//! What a plan determines is computed once per plan, not per session: an
//! `open_fleet` batch shares one record, and the streaming jobs and gate
//! profile a session registers, and the stripes a plain session picks
//! from, are built once per record and shared by pointer. Sessions are
//! cheap to open, independently retargetable, and safe to drive from
//! concurrent threads.
//!
//! # Shape: stores, services, one orchestrator
//!
//! This module is the constructor, the orchestration and the session
//! handles; what a server is built with is one [`ServeConfig`].
//! Every serving *decision* has exactly one implementation, in a module of
//! its own that is unit-testable without a model:
//!
//! | piece | owns | decides |
//! |---|---|---|
//! | `RwLock<Arc<ServingMix>>` (`live_mix`) | token → load / SLO profile / stripe of every open session, in a token-sorted slot vector shared copy-on-write | the mix every contended prediction runs against, and its digest |
//! | [`MemoTable`]s (`sti_planner::cache`) | weak handles to the plans, preload buffers and registered loads of the knob sets in use | compute outside the lock, first insert wins; a dropped entry replans |
//! | `Admission` (`admission`) | the [`AdmissionMode`] and the `serving.*_sessions` instruments | take or reject an SLO search outcome, for an open or a retarget |
//! | [`Gate`] ([`sti_planner::gate`]) | the [`BackpressureMode`] and the walk memo | delay or shed one engagement; `Session::infer_issue` counts the decision on the `gate.*` instruments and acts on it |
//! | `ContentionLedger` (`ledger`) | the engagement and gate logs | the one contended replay behind [`ContentionReport`] and the span export |
//! | `PrefetchDriver` (`prefetch`) | the Markov model and its key → working-set table | which speculative jobs a completion triggers |
//!
//! **One session-planning path.** Opening or retargeting a session is
//! always the same sequence — resolve the knobs → (for an SLO: search
//! `(T, |S|)` against the live mix → admission verdict →) resolve plan and
//! preload buffer → register the load → build or patch the [`Session`] —
//! and it is written once: `ServerInner::plan_session` plans, and
//! `Session::install` registers. [`StiServer::session_with`],
//! [`StiServer::open_fleet`], [`StiServer::session_with_slo_at`],
//! [`Session::set_target`], [`Session::set_preload_budget`] and
//! [`Session::retarget_slo`] are thin callers that differ only in the
//! knobs they pass.
//!
//! **Determinism contract:** an engagement's outcome (class, probabilities,
//! simulated timeline, loaded bytes) depends only on the model, the plan,
//! and the tokens — never on cache temperature or on what other sessions
//! are doing. Concurrent serving reproduces sequential results bit-for-bit;
//! the shared caches buy host wall-clock throughput, not simulated-time
//! shortcuts. The serving integration tests pin this down.
//!
//! **One predictor, three views:** every contended question the server
//! asks — SLO admission at [`StiServer::session_with_slo`], the infer-time
//! backpressure gate, and [`Session::retarget_slo`] — is answered by
//! building a [`ServingMix`] from the
//! open-session registry (each session's actual [`CoRunnerLoad`] plus, for
//! SLO sessions, its [`SloProfile`]) and handing it to `sti_planner::mix`.
//! The server never assembles prediction lanes by hand; the gate memo keys
//! on the mix's digest, so a registry change invalidates it.
//! [`AdmissionMode::Enforce`] rejects sessions whose best plan still
//! misses: backpressure before the queue, not after.
//!
//! **Shared-IO batching and device topology** are configured by
//! [`ServeConfig::batch_window`] and [`ServeConfig::channels`] and priced
//! the same way: both are invisible to the uncontended track —
//! per-engagement results stay bit-identical to solo, single-channel runs
//! — and both are folded into every contended prediction and into the
//! contended replay (a batched dispatch appears once; a session's stripe
//! routes its jobs to the device channels it really streams through).
//! Device channels are distinct from
//! the scheduler's per-engagement IO lanes ([`IoChannel`]): a lane is one
//! engagement's FIFO request stream, a device channel is where the
//! simulated flash serves it.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use sti_device::{BalancedStripes, DeviceTopology, FlashModel, HwProfile, IoSharing, SimTime};
use sti_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, ObsSink, SpanEvent};
use sti_planner::compute_plan::dynabert_widths_for;
use sti_planner::gate::Gate;
use sti_planner::mix::{plan_for_slo_mix, PreloadPolicy, ServingMix, SloProfile};
use sti_planner::prefetch::EngagementKey as PrefetchKey;
use sti_planner::serving::ServingPlan;
use sti_planner::{
    plan_two_stage, CoRunnerLoad, ExecutionPlan, ImportanceProfile, LayerIoJob, MemoTable,
    PlanCache, PlanCacheStats, PlanKey,
};
use sti_quant::Bitwidth;
use sti_storage::{
    CachedSource, IoChannel, IoScheduler, IoSchedulerStats, ShardCache, ShardCacheStats,
    ShardSource,
};
use sti_tensor::math;
use sti_transformer::Model;

use crate::admission::{Admission, Origin};
use crate::buffers::PreloadBuffer;
use crate::config::ServeConfig;
use crate::error::PipelineError;
use crate::executor::{GenerationOutcome, Inference, PipelineExecutor};
use crate::ledger::{ContentionLedger, EngagementRecord};
use crate::prefetch::{PrefetchDriver, PrefetchTarget};

pub use crate::admission::AdmissionMode;
pub use crate::ledger::{ContentionReport, EngagementContention, PrefetchContention};
pub use crate::prefetch::PrefetchReport;
pub use sti_planner::gate::{BackpressureMode, GateDecision, GateReason};

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

/// What a session asks the planning path for.
#[derive(Clone, Copy)]
enum Knobs {
    /// A raw target latency `T`: resolved through the knob caches — no
    /// search, no verdict.
    Raw { target: SimTime },
    /// A latency SLO for a session arriving at `arrival`: `(T, |S|)` is
    /// searched against the live mix and the outcome put to the admission
    /// verdict. `exclude` is a retargeting session's own token — it does
    /// not co-run with itself, and its rejection is an error only; `None`
    /// for a fresh open.
    Slo { slo: SimTime, arrival: SimTime, exclude: Option<u64> },
}

/// Everything the planning path decides for a session — what
/// `Session::install` registers and the session then executes against.
/// One record per planning call, shared behind an `Arc` by every session
/// it opened (a whole `open_fleet` batch) and every engagement in flight
/// on it. Its plan's priced reads (`io_jobs`) are what the executor
/// requests, the loads register and every engagement's ledger record holds.
struct Planned {
    target: SimTime,
    preload_budget: u64,
    plan: Arc<ExecutionPlan>,
    /// The preload buffer of `plan`'s key, with its plain loads.
    preloaded: Arc<Preloaded>,
    slo: Option<SimTime>,
    /// The SLO search outcome, when SLO-planned.
    serving: Option<Arc<ServingPlan>>,
    /// What a session on this record registers ([`ServerInner::loads`]).
    loads: Arc<Loads>,
}

/// What a plan key resolves to beside its plan, shared by every record of
/// the key: the preload buffer, and the loads its plain records register.
struct Preloaded {
    buffer: PreloadBuffer,
    /// Built by the key's first plain record, then shared, so the
    /// placement search runs once per plan, not once per planning call.
    plain_loads: OnceLock<Arc<Loads>>,
}

/// A plan's registered loads.
struct Loads {
    /// The streaming jobs, as every session's [`CoRunnerLoad`] holds them.
    jobs: Arc<[LayerIoJob]>,
    /// What a session on the record needs beside the jobs.
    kind: LoadKind,
}

/// What an SLO-planned record and a plain one each need beside their jobs.
enum LoadKind {
    /// The gate profile of an SLO-planned record, whose sessions the SLO
    /// search placed.
    Slo(SloProfile),
    /// The stripes a plain record's sessions pick from
    /// ([`IoSharing::plain_stripes`], [`ServerInner::default_stripe`]).
    Plain(BalancedStripes),
}

impl Loads {
    /// The loads of `plan`, SLO-planned for `slo` or plain, on a device of
    /// `topology` under `sharing`. Jobs know nothing of placement: a
    /// session registers them with its own stripe.
    fn new(
        hw: &HwProfile,
        plan: &ExecutionPlan,
        slo: Option<SimTime>,
        sharing: IoSharing,
        topology: DeviceTopology,
    ) -> Self {
        let kind = match slo {
            Some(slo) => LoadKind::Slo(SloProfile::from_plan(hw, plan, slo)),
            None => LoadKind::Plain(sharing.plain_stripes(
                topology,
                plan.io_jobs.iter().map(|job| job.map(|j| (j.sig, j.service))),
                hw.t_comp(plan.shape.width),
            )),
        };
        Self { jobs: CoRunnerLoad::from_plan(hw, plan).jobs, kind }
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
    /// Behind a lock so a re-profiled table can be installed at runtime
    /// ([`StiServer::set_importance`]); plans derived from the old table are
    /// dropped at the same time.
    importance: RwLock<ImportanceProfile>,
    bitwidths: Vec<Bitwidth>,
    widths: Vec<usize>,
    fingerprint: String,
    /// Bumped by [`StiServer::invalidate_plans`] and folded into every
    /// [`PlanKey`], so no lookup after an invalidation reaches a plan (or
    /// preload buffer, or loads) of an earlier generation, and a session
    /// that raced the invalidation inserts its stale plan under an
    /// unreachable key. Plans, preload buffers and loads are keyed
    /// identically, so a plan can never be paired with a buffer or loads
    /// built for a different generation.
    generation: AtomicU64,
    default_target: SimTime,
    default_preload_budget: u64,
    /// Weak handles to the plans in use, one per plan key.
    plan_cache: PlanCache,
    /// One immutable, shared preload buffer per plan key in use, with its
    /// plain loads (read-mostly state: filled once, then only read through
    /// `Arc`s; freed with the last holder, like the plans).
    preloads: MemoTable<PlanKey, Preloaded>,
    /// `|S|` placement policy for SLO searches.
    plan_sharing: PreloadPolicy,
    /// SLO searches run, for [`StiServer::slo_plan_stats`]. Not a registry
    /// instrument, so the metrics snapshot does not carry it.
    slo_searches: AtomicU64,
    /// Serializes SLO planning (opens and retargets): the mix cannot
    /// change between the admission verdict and the registration of the
    /// admitted load, so two racing SLO opens can never both admit against
    /// a mix that excludes the other. Raw-target planning is admitted
    /// unconditionally, so a racing plain open is indistinguishable from
    /// one that lands just after the verdict and is not serialized.
    slo_planning: Mutex<()>,
    /// Monotonic token handed to each session, keying `live_mix`.
    next_session_token: AtomicU64,
    /// The open-session registry — each open session's actual streaming IO
    /// load (with arrival offset) plus, for SLO sessions, its gate profile:
    /// the one input every contended prediction (admission, gate,
    /// retarget) runs against, instead of modeling co-runners as clones of
    /// the candidate. Token-ordered, so predictions replay registrations
    /// deterministically. One lock: opens, drops and retargets write for
    /// the length of one registry operation; admission and the gate read
    /// for the length of a digest or an `Arc` clone, never across a
    /// prediction. Readers share the registry by pointer, and a writer goes
    /// through `Arc::make_mut`, so the registry is copied only when a write
    /// lands while a reader's snapshot is alive — once per snapshot.
    live_mix: RwLock<Arc<ServingMix>>,
    /// Engagements currently executing (peak tracked in
    /// `peak_engagements`).
    active_engagements: AtomicUsize,
    admission: Admission,
    gate: Gate,
    gate_counts: GateCounts,
    ledger: ContentionLedger,
    /// The Markov prefetch runtime (`None` with prefetch off — the
    /// completion path then pays a single branch).
    prefetch: Option<PrefetchDriver>,
    /// The `serving.*`/`gate.*` metrics registry; each piece resolves its
    /// instruments once at build, so hot paths never touch the map (`io.*`
    /// live in the scheduler's own; [`StiServer::metrics_snapshot`] merges).
    registry: MetricsRegistry,
    engagements: Counter,
    /// Peak-tracking gauge: only the high-water mark is maintained (the
    /// live value stays on `active_engagements`).
    peak_engagements: Gauge,
    /// Live span sink (admission instants here, host-track dispatch spans
    /// via the scheduler); defaults to [`ObsSink::Null`].
    obs: Mutex<ObsSink>,
}

/// The gate's instruments: what the server counts as it acts on a
/// [`GateDecision`].
struct GateCounts {
    decisions: Counter,
    delay_us: Histogram,
    predicted_us: Histogram,
    shed_engagements: Counter,
    queued_engagements: Counter,
}

impl GateCounts {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            decisions: registry.counter("gate.decisions"),
            delay_us: registry.histogram("gate.delay_us"),
            predicted_us: registry.histogram("gate.predicted_us"),
            shed_engagements: registry.counter("serving.shed_engagements"),
            queued_engagements: registry.counter("serving.queued_engagements"),
        }
    }

    /// Counts a decision an engagement is about to act on and turns it into
    /// the queue delay to apply, or into [`PipelineError::Backpressure`].
    fn enforce(&self, decision: &GateDecision) -> Result<SimTime, PipelineError> {
        self.decisions.incr();
        self.delay_us.record(decision.delay.as_us());
        self.predicted_us.record(decision.predicted.as_us());
        if decision.shed {
            self.shed_engagements.incr();
            return Err(PipelineError::Backpressure {
                predicted: decision.predicted,
                slo: decision.slo,
            });
        }
        if decision.delay > SimTime::ZERO {
            self.queued_engagements.incr();
        }
        Ok(decision.delay)
    }
}

impl ServerInner {
    fn plan_key(&self, target: SimTime, preload_budget: u64) -> PlanKey {
        let model = format!("{}@g{}", self.fingerprint, self.generation.load(Ordering::SeqCst));
        PlanKey::new(model, target, preload_budget, &self.widths, &self.bitwidths)
    }

    /// The one session-planning path: resolves `knobs` into a [`Planned`]
    /// and hands it to `install` (which builds or patches the session and
    /// registers its load). For an SLO the search, the admission verdict
    /// and `install` all run under `slo_planning`; a rejected verdict
    /// returns before `install`, leaving a retargeting session untouched.
    fn plan_session<R>(
        &self,
        knobs: Knobs,
        preload_budget: u64,
        install: impl FnOnce(Arc<Planned>) -> R,
    ) -> Result<R, PipelineError> {
        let (target, slo, serving, _serialized) = match knobs {
            Knobs::Raw { target } => (target, None, None, None),
            Knobs::Slo { slo, arrival, exclude } => {
                let serialized = self.slo_planning.lock();
                // Take a pointer to the registry under the guard, predict
                // after it drops: no open or drop waits behind the search,
                // and an open or drop that lands during it pays the copy. A
                // retargeting session does not co-run with itself: removing
                // it copies the snapshot, never the live registry.
                let mut mix = Arc::clone(&self.live_mix.read());
                if let Some(token) = exclude {
                    Arc::make_mut(&mut mix).remove_session(token);
                }
                // Not memoized: the mix folds in every open session's
                // token, and tokens are never reused, so the search's
                // inputs almost never repeat.
                self.slo_searches.fetch_add(1, Ordering::SeqCst);
                let served = Arc::new(plan_for_slo_mix(
                    &self.hw,
                    &self.importance.read(),
                    slo,
                    arrival,
                    &mix,
                    self.plan_sharing,
                    preload_budget,
                    &self.widths,
                    &self.bitwidths,
                ));
                // A fresh open is judged as the token it would take.
                let open_token =
                    exclude.is_none().then(|| self.next_session_token.load(Ordering::SeqCst));
                self.admission.check(&served, open_token, arrival, &self.obs.lock())?;
                (served.target, Some(slo), Some(served), Some(serialized))
            }
        };
        let (plan, preloaded) = self.resolve(target, preload_budget, serving.as_deref())?;
        let loads = self.loads(&plan, &preloaded, slo);
        let planned = Planned { target, preload_budget, plan, preloaded, slo, serving, loads };
        Ok(install(Arc::new(planned)))
    }

    /// Resolves (plan, preload buffer) for a knob combination through both
    /// caches, planning and filling at most once while anything holds the
    /// combination's plan and buffer. An SLO
    /// search that settled on the default byte-prefix placement (always,
    /// under [`PreloadPolicy::PerSession`]) resolves the same way — and if
    /// an importance reprofile raced the search, the freshly resolved plan
    /// is the correct one to run. A mix-aware `|S|` placement instead keys
    /// its buffer by the placement itself, so sessions planned against the
    /// same mix share one buffer and nobody pins an unused prefix buffer.
    fn resolve(
        &self,
        target: SimTime,
        preload_budget: u64,
        served: Option<&ServingPlan>,
    ) -> Result<(Arc<ExecutionPlan>, Arc<Preloaded>), PipelineError> {
        let mut key = self.plan_key(target, preload_budget);
        let mut plan = self.plan_cache.get_or_plan(&key, || {
            plan_two_stage(
                &self.hw,
                &self.importance.read(),
                target,
                preload_budget,
                &self.widths,
                &self.bitwidths,
            )
        });
        // `preload_bytes_reallocated == 0` means the search settled on the
        // default placement.
        if let Some(served) = served.filter(|s| s.preload_bytes_reallocated != 0 && s.plan != *plan)
        {
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
            key.model = format!("{}#mix{:016x}", key.model, h.finish());
            plan = Arc::new(served.plan.clone());
        }
        // The fill runs outside the table lock: it reads the (cached)
        // store, and sessions resolving other knob sets must not wait
        // behind that.
        let preloaded = self.preloads.get_or_try_insert(&key, || {
            PreloadBuffer::fill(plan.preload_budget_bytes, &plan.preload, &*self.cached_source)
                .map(|buffer| Preloaded { buffer, plain_loads: OnceLock::new() })
        })?;
        Ok((plan, preloaded))
    }

    /// Registers (or refreshes, after a retarget or `set_arrival`) a
    /// session's streaming IO load — at its arrival offset — in the live
    /// registry mix; SLO sessions also register their gate profile. An
    /// in-place upsert: the mix's rolling digest updates in O(1). The loads
    /// are `planned`'s ([`ServerInner::loads`]), so a registration clones
    /// pointers to jobs the plan already determined.
    fn register_load(&self, token: u64, planned: &Planned, arrival: SimTime, stripe: u16) {
        let Loads { jobs, kind } = &*planned.loads;
        let load = CoRunnerLoad { jobs: jobs.clone(), arrival, stripe };
        let profile = match kind {
            LoadKind::Slo(profile) => Some(profile.clone()),
            LoadKind::Plain(_) => None,
        };
        Arc::make_mut(&mut self.live_mix.write()).upsert_session(token, load, profile);
    }

    /// The loads a session on `plan`, resolved with `preloaded`, registers,
    /// under the live mix's sharing mode and topology (fixed at build). A
    /// plain record's are its key's, computed at most once while any record
    /// holds the key, so neither an open nor a retarget on a cached plan
    /// pays for the stripe search, and [`StiServer::invalidate_plans`]
    /// makes them unreachable with the plan. An SLO record's depend on its
    /// SLO and are its own, as its search is.
    fn loads(
        &self,
        plan: &ExecutionPlan,
        preloaded: &Preloaded,
        slo: Option<SimTime>,
    ) -> Arc<Loads> {
        let build = || {
            let (sharing, topology) = {
                let mix = self.live_mix.read();
                (mix.sharing(), mix.topology())
            };
            Arc::new(Loads::new(&self.hw, plan, slo, sharing, topology))
        };
        match slo {
            Some(_) => build(),
            None => Arc::clone(preloaded.plain_loads.get_or_init(build)),
        }
    }

    /// The device-channel stripe for a session without an SLO placement.
    /// A stripe is the salt placement hashes a read's content with, so on
    /// one stripe a plan's few streamed layers can pile onto one channel
    /// while the others idle. Of the stripes its plan record's search
    /// found best ([`IoSharing::plain_stripes`], once per record: under
    /// batching the least solo IO makespan among `0..C`, where identical
    /// reads of a stripe still meet; under exclusive IO the least solo
    /// latency, then makespan, among 256 salts, which may be `≥ C`), the
    /// session keeps its round-robin one, `token mod C`, when that is
    /// among them, so a uniform fleet still spreads over every tie; else
    /// it takes the lowest. Always zero on a single-channel device: plain
    /// sessions there are bit-identical to the pre-topology server.
    fn default_stripe(&self, token: u64, planned: &Planned) -> u16 {
        let topology = self.scheduler.topology();
        let round_robin = (token % topology.channel_count() as u64) as u16;
        match &planned.loads.kind {
            LoadKind::Plain(balanced) => balanced.choose(round_robin),
            LoadKind::Slo(_) => round_robin,
        }
    }
}

/// A multi-session serving runtime: owns the model and every shareable
/// resource, hands out [`Session`]s.
pub struct StiServer {
    inner: Arc<ServerInner>,
}

impl StiServer {
    /// Builds a server for a model whose shards live in `source`, on the
    /// device `hw` profiles (its flash model is what the scheduler, the
    /// planner and the contended replay all charge), with shard importance
    /// already profiled (one-time, per model, §3.2), configured by `cfg`
    /// (which fields it reads: [`ServeConfig`]). No planning happens yet —
    /// plans and preload buffers materialize lazily, once per knob
    /// combination in use, when sessions open.
    pub fn new(
        model: Model,
        source: Arc<dyn ShardSource>,
        hw: HwProfile,
        importance: ImportanceProfile,
        cfg: &ServeConfig,
    ) -> StiServer {
        let sharing = match cfg.batch_window {
            Some(window) => IoSharing::Batched(window),
            None => IoSharing::Exclusive,
        };
        let topology = DeviceTopology::with_channels(cfg.channels.max(1));
        let pool_bytes = if cfg.prefetch.enabled() { cfg.prefetch.budget_bytes } else { 0 };
        let shard_cache =
            Arc::new(ShardCache::with_prefetch_pool(cfg.shard_cache_bytes, pool_bytes));
        let cached_source: Arc<dyn ShardSource> =
            Arc::new(CachedSource::new(source.clone(), shard_cache.clone()));
        let scheduler =
            IoScheduler::spawn(source, hw.flash, shard_cache.clone(), sharing, topology);
        let model_cfg = model.config();
        let widths = cfg.widths.clone().unwrap_or_else(|| dynabert_widths_for(model_cfg.heads));
        let fingerprint = format!(
            "model-{}x{}-h{}-f{}-v{}",
            model_cfg.layers, model_cfg.heads, model_cfg.hidden, model_cfg.ffn, model_cfg.vocab
        );
        let dram = cfg.dram_residency.then(FlashModel::dram_residency);
        let registry = MetricsRegistry::new();
        StiServer {
            inner: Arc::new(ServerInner {
                model,
                cached_source,
                shard_cache,
                scheduler,
                ledger: ContentionLedger::new(hw.flash, dram, topology),
                hw,
                importance: RwLock::new(importance),
                bitwidths: cfg.bitwidths.clone(),
                widths,
                fingerprint,
                generation: AtomicU64::new(0),
                default_target: cfg.target,
                default_preload_budget: cfg.preload_bytes,
                plan_cache: PlanCache::new(),
                preloads: MemoTable::default(),
                plan_sharing: cfg.plan_sharing,
                slo_searches: AtomicU64::new(0),
                slo_planning: Mutex::new(()),
                next_session_token: AtomicU64::new(0),
                live_mix: RwLock::new(Arc::new(ServingMix::new(sharing).with_topology(topology))),
                active_engagements: AtomicUsize::new(0),
                admission: Admission::new(cfg.admission, &registry),
                gate: Gate::new(cfg.backpressure),
                gate_counts: GateCounts::new(&registry),
                prefetch: cfg.prefetch.enabled().then(|| PrefetchDriver::new(cfg.prefetch)),
                engagements: registry.counter("serving.engagements"),
                peak_engagements: registry.gauge("serving.peak_concurrent_engagements"),
                registry,
                obs: Mutex::new(ObsSink::Null),
            }),
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
    /// knob combination plans and fills, and later ones attach for free
    /// while anything still holds that plan.
    ///
    /// # Errors
    ///
    /// Fails if preload shards cannot be loaded from the store.
    pub fn session_with(
        &self,
        target: SimTime,
        preload_budget: u64,
    ) -> Result<Session, PipelineError> {
        self.inner.plan_session(Knobs::Raw { target }, preload_budget, |planned| {
            Session::open(&self.inner, planned, SimTime::ZERO)
        })
    }

    /// Opens `count` sessions with uniform knobs in one call. The knobs
    /// are resolved through the plan/preload caches **once**, so pooled
    /// fleet bring-up pays the caches' global locks per *batch* instead of
    /// per open, and every session of the batch shares one plan record and
    /// its streaming jobs, built once — the per-open path touches only the
    /// token counter and the open-session registry. Equivalent to `count` calls to
    /// [`StiServer::session_with`]: the resulting digest (and every gate
    /// decision derived from it) is identical either way.
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
        self.inner.plan_session(Knobs::Raw { target }, preload_budget, |planned| {
            (0..count).map(|_| Session::open(&self.inner, planned.clone(), SimTime::ZERO)).collect()
        })
    }

    /// Opens a session planned against a latency **SLO** instead of a raw
    /// target: the serving planner searches `(T, |S|)` so the session's
    /// *contended* latency — predicted by the flash-queue model with
    /// the currently open sessions' **actual** streaming loads as
    /// co-runners, under the server's shared-IO batching mode — meets
    /// `slo`. Every call runs the search; see [`StiServer::slo_plan_stats`].
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
        let knobs = Knobs::Slo { slo, arrival, exclude: None };
        self.inner.plan_session(knobs, preload_budget, |planned| {
            Session::open(&self.inner, planned, arrival)
        })
    }

    /// The model's resident parameters in bytes (shared across all
    /// sessions, and with every engine or server built over a clone of the
    /// same [`Model`]).
    pub fn resident_bytes(&self) -> usize {
        self.inner.model.resident_byte_size()
    }

    /// Plan-cache effectiveness counters. A lookup of a knob set whose
    /// plan nothing holds any more is a miss: it replans.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache.stats()
    }

    /// Shard-cache effectiveness counters.
    pub fn shard_stats(&self) -> ShardCacheStats {
        self.inner.shard_cache.stats()
    }

    /// Budgeted bytes the shard cache holds right now, `(main map, prefetch
    /// staging pool)` — [`ShardCache::resident_bytes`].
    pub fn shard_cache_resident_bytes(&self) -> (u64, u64) {
        self.inner.shard_cache.resident_bytes()
    }

    /// IO-scheduler accounting (requests, bytes, simulated flash busy time,
    /// observed queue depth, batching counters).
    pub fn io_stats(&self) -> IoSchedulerStats {
        self.inner.scheduler.stats()
    }

    /// Quiesces the IO scheduler: engagements keep queuing layer requests,
    /// and a blocking [`Session::infer`] waits for its layers without
    /// dispatching any, until [`StiServer::resume_io`]. Tests and benches
    /// use the pair to queue a whole co-resident workload and release it in
    /// one burst, making batching fan-outs deterministic.
    /// [`StiServer::drive_io`] ignores the pause.
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
    /// number of dispatches run ([`IoScheduler::drive_queued`]), paused or
    /// not. The event-driven executor issues engagements with
    /// [`Session::infer_issue`], lets the simulated clock's flash component
    /// call this, and completes them with [`Session::infer_complete`], so
    /// dispatch order is a pure function of the queue contents.
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

    /// Number of distinct knob combinations whose plan something still
    /// holds (an open session, an engagement in flight, the prefetcher's
    /// working-set table) — not every knob set ever planned: the plan
    /// cache drops a plan once nothing holds it.
    pub fn cached_plans(&self) -> usize {
        self.inner.plan_cache.len()
    }

    /// Admission and engagement counters, reconstructed from the server's
    /// named instruments (the instruments are the source of truth; this
    /// struct is the stable report shape).
    pub fn serving_stats(&self) -> ServingStats {
        let ServerInner { admission, gate_counts, engagements, peak_engagements, .. } =
            &*self.inner;
        ServingStats {
            admitted_sessions: admission.admitted_sessions.get(),
            rejected_sessions: admission.rejected_sessions.get(),
            monitor_violations: admission.monitor_violations.get(),
            engagements: engagements.get(),
            peak_concurrent_engagements: peak_engagements.max() as usize,
            shed_engagements: gate_counts.shed_engagements.get(),
            queued_engagements: gate_counts.queued_engagements.get(),
            preload_bytes_reallocated: admission.preload_bytes_reallocated.get(),
        }
    }

    /// A merged snapshot of every instrument the serving path maintains:
    /// the server's `serving.*`/`gate.*` registry folded with the IO
    /// scheduler's `io.*` registry (disjoint prefixes, lossless merge).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // `prefetch.*` gauges materialize lazily, at snapshot time, and
        // only when the prefetcher runs — an off-mode server exports no
        // prefetch series at all.
        if let Some(PrefetchReport { pool, speculated_bytes, .. }) = self.prefetch_report() {
            let registry = &self.inner.registry;
            registry.gauge("prefetch.hit_bytes").set(pool.hit_bytes);
            registry.gauge("prefetch.speculated_bytes").set(speculated_bytes);
            registry.gauge("prefetch.evictions").set(pool.evictions);
            registry
                .gauge("prefetch.hit_rate_pct")
                .set(math::round(pool.hit_rate() * 100.0) as u64);
        }
        let mut snap = self.inner.registry.snapshot();
        snap.merge(&self.inner.scheduler.metrics_snapshot());
        snap
    }

    /// Routes live spans (admission instants, host-track scheduler
    /// dispatch spans) to `sink`, and shares it with the IO scheduler.
    /// The deterministic span stream is assembled separately by
    /// [`StiServer::trace_spans`]; the live sink only adds color for
    /// single-run inspection. Installing one is also what makes a replay's
    /// report assemble that stream.
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
    /// * [`TrackKind::Session`](sti_obs::TrackKind::Session) — one
    ///   `engagement` interval per executed engagement (issue → contended
    ///   completion, replaying the same recurrence as
    ///   [`StiServer::contention_report`]), plus one `gate.admit` /
    ///   `gate.delay` / `gate.shed` event per gate decision carrying the
    ///   deciding [`GateReason`] digest and dominant lane.
    /// * [`TrackKind::Flash`](sti_obs::TrackKind::Flash) — one track per
    ///   *device channel*: each channel's `flash.wait` / `flash.service` /
    ///   `flash.depth` timeline from a canonical replay of the dispatch log
    ///   (a single track on the default single-channel topology).
    ///
    /// Scheduler channel ids are assigned in issue order, which differs
    /// between the event replay (sessions interleave) and the sequential
    /// one (client by client), so the flash replay first remaps dispatch
    /// events onto stable engagement ids and re-sorts them by `(arrival,
    /// stable id)` — an order both replays agree on, which only reorders
    /// across channels and preserves per-channel FIFO.
    ///
    /// Whatever the live [`ObsSink`] has buffered (admission markers,
    /// host-track dispatch spans) is drained and appended for single-run
    /// inspection; [`TrackFilter::Deterministic`](sti_obs::TrackFilter)
    /// keeps host/engine tracks out of deterministic exports. The result
    /// is sorted by the canonical span key.
    ///
    /// Each call re-simulates the dispatch log and holds the whole stream,
    /// so a replay's report calls it only when a live sink is installed.
    /// Without one, call this after the replay; the logs persist until
    /// [`StiServer::reset_contention_log`].
    pub fn trace_spans(&self) -> Vec<SpanEvent> {
        let inner = &*self.inner;
        // Lock order: the scheduler's state, then the ledger's logs.
        let mut spans =
            inner.scheduler.with_event_logs(|demand, spec| inner.ledger.spans(demand, spec));
        // Live-sink color (admission markers, host-track dispatch spans).
        let (live, _) = inner.obs.lock().drain();
        spans.extend(live);
        spans.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        spans
    }

    /// SLO searches run so far (opens and retargets), as `misses`. `hits`
    /// is always zero: searches are not memoized.
    pub fn slo_plan_stats(&self) -> PlanCacheStats {
        PlanCacheStats { hits: 0, misses: self.inner.slo_searches.load(Ordering::SeqCst) }
    }

    /// Sessions currently open (the co-runner count the next SLO admission
    /// will plan against).
    pub fn open_sessions(&self) -> usize {
        self.inner.live_mix.read().co_runners()
    }

    /// The live registry mix's rolling digest — the identity the gate's
    /// walk memo keys on, and exactly what a gate decision is memoized
    /// under.
    /// Maintained incrementally (O(1) per open/close/retarget), so this
    /// call costs one read guard plus one small hash, flat in fleet size;
    /// fleet-scale probes use it to measure mix-digest time.
    pub fn mix_digest(&self) -> u64 {
        self.inner.live_mix.read().digest()
    }

    /// Replays the recorded dispatch sequence through the flash-queue
    /// simulator and reports each executed engagement's contended latency
    /// (plus queue aggregates). Under the opt-in DRAM-residency mode
    /// ([`ServeConfig::dram_residency`]), cache-resident bytes are
    /// charged at DRAM service time.
    ///
    /// An engagement's contended latency is measured from its **first flash
    /// service start**: it captures the stretch co-runner jobs interleaved
    /// into its pipeline, not how long ago the server started. Engagements
    /// that ran back-to-back with the queue to themselves report exactly
    /// their uncontended makespan. Trace-supplied arrival offsets are
    /// replayed too: each row's [`EngagementContention::issue`] and
    /// [`EngagementContention::initial_queueing`] quote the wait between
    /// an engagement's issue and its first flash service start.
    ///
    /// The dispatch log grows with every engagement served; long-lived
    /// servers should call [`StiServer::reset_contention_log`] after
    /// harvesting a report.
    pub fn contention_report(&self) -> ContentionReport {
        let inner = &*self.inner;
        let reallocated = inner.admission.preload_bytes_reallocated.get();
        // The logs are read in place. Lock order: the scheduler's state,
        // then the ledger's logs, never the reverse.
        inner.scheduler.with_event_logs(|demand, spec| {
            // Speculation is priced only when a prefetcher runs.
            let speculative = inner.prefetch.as_ref().map(|_| spec);
            inner.ledger.report(demand, speculative, reallocated)
        })
    }

    /// Drops the contended-track history (the scheduler's dispatch log, the
    /// per-engagement records, and the gate-decision log) so the next
    /// [`StiServer::contention_report`] starts fresh. The uncontended track
    /// and all counters are untouched.
    pub fn reset_contention_log(&self) {
        self.inner.scheduler.clear_event_logs();
        self.inner.ledger.clear();
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
    /// staged bytes a later demand miss actually used; the pool keeps a
    /// used blob, and `report.pool.reuse_bytes` counts its later uses.
    pub fn prefetch_report(&self) -> Option<PrefetchReport> {
        let pf = self.inner.prefetch.as_ref()?;
        let (model, pool) = (pf.model_stats(), self.inner.shard_cache.prefetch_stats());
        // The log is summed in place, under the scheduler's lock and no other.
        Some(self.inner.scheduler.with_event_logs(|_, spec| pf.report(model, pool, spec)))
    }

    /// Installs a re-profiled importance table and drops every plan derived
    /// from the old one (via [`StiServer::invalidate_plans`]). Sessions
    /// already open keep their current plan until they change knobs.
    pub fn set_importance(&self, importance: ImportanceProfile) {
        *self.inner.importance.write() = importance;
        self.invalidate_plans();
    }

    /// Makes every cached plan, preload buffer and loads unreachable and drops
    /// every cached or staged shard blob and every working set the
    /// prefetcher registered, forcing the next session (or knob change) to
    /// replan and re-read. Called by [`StiServer::set_importance`]; call
    /// it directly when the backing store's blobs were regenerated
    /// out-of-band. Sessions already open keep executing their old plan
    /// until they change knobs.
    pub fn invalidate_plans(&self) {
        // Every plan key folds the generation in, so bumping it is the
        // whole invalidation: no later lookup reaches an old entry, and the
        // tables hold old plans and buffers only weakly, so each is freed
        // once the last session running it lets go.
        self.inner.generation.fetch_add(1, Ordering::SeqCst);
        self.inner.shard_cache.clear();
        if let Some(pf) = &self.inner.prefetch {
            pf.forget_targets();
        }
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

/// One app's handle onto a [`StiServer`]: its token, arrival and stripe,
/// plus a shared handle to the knobs, plan and preload buffer it was
/// planned with.
///
/// A session holds nothing its plan already determines: the plan record
/// is shared with every session the same planning call opened, and its
/// registered loads with every session on the same plan.
///
/// Sessions are `Send + Sync`; `infer`/`generate` take `&self`, so one
/// session can serve engagements from multiple threads, and many sessions
/// can run concurrently against one server.
pub struct Session {
    inner: Arc<ServerInner>,
    /// Registry token: keys this session's entry in the open-load registry.
    token: u64,
    /// Simulated arrival offset of this session's engagements (contended
    /// track only; see [`Session::set_arrival`]).
    arrival: SimTime,
    /// The knobs, plan and preload buffer the planning path last resolved
    /// for this session.
    planned: Arc<Planned>,
    /// This session's current contribution to
    /// [`ServingStats::preload_bytes_reallocated`], so a retarget replaces
    /// rather than re-adds it.
    realloc_bytes: u64,
    /// The salt this session's reads are placed with
    /// (`channel_for(sig, stripe)`). An SLO-planned session takes the SLO
    /// search's choice among `0..C` ([`ServingPlan::stripe`]), which
    /// prices the co-runners too. A raw-target one takes a stripe that
    /// serves its own streamed reads best, its round-robin stripe among
    /// the ties ([`ServerInner::default_stripe`]); under exclusive IO that
    /// may be `≥ C`. Always zero on single-channel devices. Registered
    /// with the session's load, and the IO lane the session's engagements
    /// stream through is opened on it, unreduced.
    stripe: u16,
    /// Idle gap between this session's successive engagements on the
    /// simulated timeline (see [`Session::set_issue_gap`]; zero — the
    /// legacy back-to-back issue clock — by default).
    issue_gap: SimTime,
    /// Engagements issued so far — the multiplier on `issue_gap`.
    engagement_seq: AtomicU64,
}

impl Drop for Session {
    fn drop(&mut self) {
        Arc::make_mut(&mut self.inner.live_mix.write()).remove_session(self.token);
        if let Some(pf) = &self.inner.prefetch {
            pf.forget(self.token);
        }
    }
}

/// RAII in-flight accounting for one engagement (see
/// [`Session::infer_issue`]): the in-flight counter settles when the
/// engagement finishes or errors out.
struct InFlight(Arc<ServerInner>);
impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.active_engagements.fetch_sub(1, Ordering::SeqCst);
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
/// `infer_complete` on the session that issued it. It remembers what it
/// was issued under: the session may be retargeted before it completes,
/// and the engagement still finishes on the plan its requests were for.
pub struct PendingEngagement {
    channel: IoChannel,
    /// The issuing session's registry token.
    session: u64,
    /// The plan, preload buffer and knobs the requests were issued for.
    planned: Arc<Planned>,
    /// The stripe the lane was opened on.
    stripe: u16,
    /// The engagement's effective issue time: session arrival advanced by
    /// the per-engagement issue gap, plus the gate delay — the tick its
    /// scheduler channel opened at.
    issue: SimTime,
    tokens: Vec<u32>,
    _in_flight: InFlight,
}

impl Session {
    /// Opens a session on `planned`, arriving at `arrival`, under a fresh
    /// registry token.
    fn open(inner: &Arc<ServerInner>, planned: Arc<Planned>, arrival: SimTime) -> Session {
        let token = inner.next_session_token.fetch_add(1, Ordering::SeqCst);
        let mut session = Session {
            inner: inner.clone(),
            token,
            arrival,
            planned,
            realloc_bytes: 0,
            stripe: 0,
            issue_gap: SimTime::ZERO,
            engagement_seq: AtomicU64::new(0),
        };
        session.install(Origin::Open);
        session
    }

    /// Adopts a fresh planning outcome in place (a retarget).
    fn adopt(&mut self, planned: Arc<Planned>) {
        self.planned = planned;
        self.install(Origin::Retarget { replaces: self.realloc_bytes });
    }

    /// Makes `self.planned` live: settles the stripe (the SLO search's
    /// placement choice, else the balanced default), registers the
    /// session's load in the open-session registry, and — for an
    /// SLO-planned outcome — books the admission.
    fn install(&mut self, origin: Origin) {
        let inner = &*self.inner;
        self.stripe = match &self.planned.serving {
            Some(served) => served.stripe,
            None => inner.default_stripe(self.token, &self.planned),
        };
        inner.register_load(self.token, &self.planned, self.arrival, self.stripe);
        if let Some(served) = &self.planned.serving {
            inner.admission.admitted(served, origin, self.token, self.arrival, &inner.obs.lock());
            self.realloc_bytes = served.preload_bytes_reallocated;
        }
    }

    /// The session's registry token: the key under which its load sits in
    /// the open-session registry (and in every mix digest).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The stripe the session's reads are placed with: a salt, read on
    /// device channel `DeviceTopology::channel_for(sig, stripe)`. Under
    /// batching it is also where the session's reads meet byte-identical
    /// reads of co-runners on the same stripe; under exclusive IO a plain
    /// session's stripe may be `≥ C`. Zero on a single-channel device.
    pub fn stripe(&self) -> u16 {
        self.stripe
    }

    /// The session's execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.planned.plan
    }

    /// The session's target latency.
    pub fn target(&self) -> SimTime {
        self.planned.target
    }

    /// The latency SLO this session was admitted under, if it was opened
    /// with [`StiServer::session_with_slo`].
    pub fn slo(&self) -> Option<SimTime> {
        self.planned.slo
    }

    /// The SLO search outcome (chosen `(T, |S|)`, predicted contended
    /// latency, co-runner count), when SLO-planned.
    pub fn serving_plan(&self) -> Option<&ServingPlan> {
        self.planned.serving.as_deref()
    }

    /// Bytes held by the (shared) preload buffer this session executes
    /// against.
    pub fn preload_used(&self) -> u64 {
        self.planned.preloaded.buffer.used_bytes()
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
        self.inner.register_load(self.token, &self.planned, arrival, self.stripe);
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
        self.replan(Knobs::Raw { target }, self.planned.preload_budget)
    }

    /// Changes the session's preload budget `|S|`, resolving through the
    /// shared caches like [`Session::set_target`]. An SLO-planned session
    /// reverts to raw-target mode.
    ///
    /// # Errors
    ///
    /// Fails if new preload shards cannot be loaded.
    pub fn set_preload_budget(&mut self, bytes: u64) -> Result<(), PipelineError> {
        self.replan(Knobs::Raw { target: self.planned.target }, bytes)
    }

    /// Re-plans the session against a latency SLO and the **current** mix:
    /// like [`StiServer::session_with_slo_at`], but in place — the search
    /// builds a `ServingMix` of every *other* open session (a session
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
        let knobs = Knobs::Slo { slo, arrival: self.arrival, exclude: Some(self.token) };
        self.replan(knobs, self.planned.preload_budget)
    }

    fn replan(&mut self, knobs: Knobs, preload_budget: u64) -> Result<(), PipelineError> {
        let inner = self.inner.clone();
        inner.plan_session(knobs, preload_budget, |planned| self.adopt(planned))
    }

    /// Runs the backpressure gate for this session *without* executing an
    /// engagement — the decision an [`Session::infer`] call would be
    /// subject to right now. `None` when the gate is off or the session
    /// carries no SLO. Pure: no queue state is touched, nothing is logged
    /// to the gate log; fleet-scale probes use this to measure per-decision
    /// gate cost without real IO. See [`sti_planner::gate`] for the walk,
    /// its determinism argument and its memoization.
    pub fn gate_decision(&self) -> Option<GateDecision> {
        let inner = &*self.inner;
        inner.gate.decide(self.token, self.arrival, self.planned.slo?, &inner.live_mix)
    }

    /// Executes one engagement over the planned pipeline, streaming through
    /// the server's shared IO scheduler on the calling thread: it issues,
    /// drives the queue while it receives its layers, completes, and —
    /// with a prefetcher on and dispatch not paused — stages the
    /// speculative jobs its completion submitted before returning. The
    /// engagement's dispatch sequence feeds the contended track
    /// ([`StiServer::contention_report`]); its *result* stays on the
    /// uncontended track and is bit-identical to a solo run.
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
        let inference = self.infer_complete(pending)?;
        if self.inner.prefetch.is_some() {
            self.inner.scheduler.drive_unless_paused();
        }
        Ok(inference)
    }

    /// The **issue half** of [`Session::infer`]: runs the backpressure
    /// gate, opens an IO lane on the shared scheduler, and enqueues every
    /// streaming layer's request — then returns without waiting for a
    /// single byte. The returned [`PendingEngagement`] owns the lane (and
    /// the in-flight accounting); hand it back to
    /// [`Session::infer_complete`].
    ///
    /// `infer` is issue-then-complete (then staging its speculation), so
    /// the split changes nothing observable for threaded callers. Its
    /// purpose is the event-driven executor: a simulated-clock host issues
    /// *every* co-arriving engagement first, drives the scheduler once, and
    /// then completes them — one OS thread, same queue contents, same
    /// results.
    ///
    /// # Errors
    ///
    /// Fails on storage errors, plan/model mismatch, or — with the gate on
    /// — [`PipelineError::Backpressure`] when the engagement is shed.
    pub fn infer_issue(&self, tokens: &[u32]) -> Result<PendingEngagement, PipelineError> {
        let inner = &*self.inner;

        // The backpressure gate runs before any queue state is touched: a
        // shed engagement never submits IO (and never perturbs the
        // contended track of the engagements that do run). Queue delays
        // land on the simulated timeline only — the wall clock never
        // sleeps, so fleet-scale synthetic sweeps run at host speed.
        let gate_delay = match self.gate_decision() {
            Some(decision) => {
                inner.ledger.record_gate(decision);
                inner.gate_counts.enforce(&decision)?
            }
            None => SimTime::ZERO,
        };

        let active = inner.active_engagements.fetch_add(1, Ordering::SeqCst) + 1;
        inner.peak_engagements.observe_peak(active as u64);

        // The engagement's position on the session's think-time clock:
        // arrival + n · issue_gap (zero gap — every engagement at the
        // session arrival — is the legacy clock, bit-identically).
        let seq = self.engagement_seq.fetch_add(1, Ordering::SeqCst);
        let base = self.arrival + SimTime::from_us(self.issue_gap.as_us().saturating_mul(seq));
        let issue = base + gate_delay;
        let in_flight = InFlight(self.inner.clone());
        let channel = inner.scheduler.channel_striped_at(issue, self.stripe);
        self.executor().issue_on(&channel, &self.planned.plan)?;
        Ok(PendingEngagement {
            channel,
            session: self.token,
            planned: self.planned.clone(),
            stripe: self.stripe,
            issue,
            tokens: tokens.to_vec(),
            _in_flight: in_flight,
        })
    }

    /// The **complete half** of [`Session::infer`]: receives every layer
    /// the issue half requested, runs the forward pass, and lands the
    /// engagement on both accounting tracks. A layer not yet delivered is
    /// driven off the queue on the calling thread (or waited for while
    /// another caller drives or dispatch is paused) — under the
    /// event-driven executor the host drives the queue dry before calling
    /// this, so everything has already landed.
    ///
    /// # Errors
    ///
    /// Fails on storage errors or plan/model mismatch —
    /// [`PipelineError::PlanMismatch`] also when `pending` was issued by a
    /// different session.
    pub fn infer_complete(&self, pending: PendingEngagement) -> Result<Inference, PipelineError> {
        let inner = &*self.inner;
        if pending.session != self.token {
            return Err(PipelineError::PlanMismatch(format!(
                "engagement issued by session {} completed on session {}",
                pending.session, self.token
            )));
        }
        let Planned { plan, preloaded, target, preload_budget, slo, .. } = &*pending.planned;
        let outcome = self.executor().complete_on(
            &pending.channel,
            plan,
            &preloaded.buffer,
            &pending.tokens,
        )?;

        // Contended-track record: the plan's priced reads (shared) and the
        // uniform per-layer compute delay.
        inner.ledger.record_engagement(EngagementRecord {
            channel: pending.channel.id(),
            session: self.token,
            slo: *slo,
            issue: pending.issue,
            io_jobs: plan.io_jobs.clone(),
            comp: inner.hw.t_comp(plan.shape.width),
            uncontended: outcome.timeline.makespan,
        });
        inner.engagements.incr();

        // Feed the prefetcher *after* both accounting tracks have their
        // records: the observation (and any speculation it triggers) is
        // invisible to this engagement's own outcome by construction.
        // Speculative jobs enter the scheduler's background lane — demand
        // dispatches always go first — and their flash reads land in the
        // staging pool, never the demand event log.
        if let Some(pf) = &inner.prefetch {
            let key = PrefetchKey {
                target_us: target.as_us(),
                preload_bytes: *preload_budget,
                slo_us: slo.map_or(0, |s| s.as_us()),
                stripe: pending.stripe,
            };
            let target = || PrefetchTarget { plan: plan.clone(), stripe: pending.stripe };
            let now = pending.issue + outcome.timeline.makespan;
            let topology = inner.scheduler.topology();
            for job in pf.observe(self.token, key, target, now, topology, &*inner.cached_source) {
                inner.scheduler.submit_speculative(job);
            }
        }

        Ok(Inference::new(plan, outcome))
    }

    fn executor(&self) -> PipelineExecutor<'_> {
        PipelineExecutor::new(&self.inner.model, self.inner.cached_source.clone(), &self.inner.hw)
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
        let Planned { plan, preloaded, .. } = &*self.planned;
        self.executor().generate(plan, &preloaded.buffer, prompt, steps)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("target", &self.planned.target)
            .field("preload_budget", &self.planned.preload_budget)
            .field("shape", &self.planned.plan.shape)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sti_nlp::{Task, TaskKind};
    use sti_planner::prefetch::PrefetchConfig;
    use sti_quant::QuantConfig;
    use sti_storage::ShardStore;
    use sti_transformer::ModelConfig;

    /// The shared unit-test fixture (this module's tests and the
    /// `admission`/`ledger`/`prefetch` ones that drive their piece
    /// through a real server): a tiny-model server over a temporary
    /// store, widths `{2, 4}`, otherwise configured by `cfg`.
    pub(crate) fn tiny_server(cfg: ServeConfig) -> StiServer {
        let model_cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, model_cfg.clone(), 4, 4);
        let hw = HwProfile::measure(&cfg.device, &model_cfg, &QuantConfig::default());
        let source = Arc::new(
            ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
        );
        let importance = ImportanceProfile::from_scores(
            model_cfg.layers,
            model_cfg.heads,
            (0..model_cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        let cfg = ServeConfig { widths: Some(vec![2, 4]), ..cfg };
        StiServer::new(task.model().clone(), source, hw, importance, &cfg)
    }

    fn server() -> StiServer {
        tiny_server(ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 64 << 10,
            ..ServeConfig::default()
        })
    }

    fn server_with_admission(mode: AdmissionMode) -> StiServer {
        tiny_server(ServeConfig { preload_bytes: 0, admission: mode, ..ServeConfig::default() })
    }

    /// An SLO no plan can meet once co-runners exist: the uncontended
    /// makespan of the smallest possible plan.
    pub(crate) fn floor_slo(srv: &StiServer) -> SimTime {
        let s = srv.session_with(SimTime::from_us(1), 0).unwrap();
        s.plan().predicted.makespan
    }

    #[test]
    fn zero_channels_build_the_single_channel_device() {
        let srv = tiny_server(ServeConfig { channels: 0, ..ServeConfig::default() });
        assert_eq!(srv.device_topology().channel_count(), 1);
    }

    #[test]
    fn a_default_config_opens_sessions_at_its_16_kib_preload_budget() {
        let srv = tiny_server(ServeConfig::default());
        assert_eq!(srv.session().unwrap().plan().preload_budget_bytes, 16 << 10);
    }

    #[test]
    fn sessions_share_one_plan_per_knob_set() {
        let srv = server();
        let a = srv.session().unwrap();
        let b = srv.session().unwrap();
        assert!(Arc::ptr_eq(&a.planned.plan, &b.planned.plan), "same knobs must share the plan");
        assert!(Arc::ptr_eq(&a.planned.preloaded, &b.planned.preloaded), "and the preload buffer");
        let stats = srv.plan_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(srv.cached_plans(), 1);
    }

    /// The placement search runs once per plan, not once per planning
    /// call: two opens on one knob set, and a retarget away and back,
    /// register pointer-equal jobs, and the loads go with the last record.
    #[test]
    fn planning_calls_on_one_plan_register_pointer_equal_jobs() {
        let srv = tiny_server(ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            channels: 4,
            ..ServeConfig::default()
        });
        let a = srv.session().unwrap();
        let mut b = srv.session().unwrap();
        assert!(!Arc::ptr_eq(&a.planned, &b.planned), "two planning calls");
        let registered = |srv: &StiServer| -> Vec<Arc<[LayerIoJob]>> {
            srv.inner.live_mix.read().sessions().map(|s| s.load.jobs.clone()).collect()
        };
        let jobs = registered(&srv);
        assert!(!jobs[0].is_empty(), "the plan streams");
        assert!(Arc::ptr_eq(&jobs[0], &jobs[1]), "one knob set registers one job list");
        b.set_target(SimTime::from_ms(1_000)).unwrap();
        assert!(!Arc::ptr_eq(&a.planned.loads, &b.planned.loads));
        b.set_target(SimTime::from_ms(300)).unwrap();
        assert!(Arc::ptr_eq(&a.planned.loads, &b.planned.loads), "a retarget on a cached plan");
        let jobs = registered(&srv);
        assert!(Arc::ptr_eq(&jobs[0], &jobs[1]));
        let loads = Arc::downgrade(&a.planned.loads);
        drop((a, b));
        assert_eq!(srv.inner.preloads.len(), 0);
        assert!(loads.upgrade().is_none(), "no table keeps a closed knob set's loads");
    }

    #[test]
    fn distinct_knobs_get_distinct_plans() {
        let srv = server();
        let a = srv.session_with(SimTime::from_ms(300), 64 << 10).unwrap();
        let b = srv.session_with(SimTime::from_ms(1_000), 64 << 10).unwrap();
        assert!(!Arc::ptr_eq(&a.planned.plan, &b.planned.plan));
        assert!(b.plan().shape.shard_count() >= a.plan().shape.shard_count());
        assert_eq!(srv.cached_plans(), 2);
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
        let original = s.planned.plan.clone();
        s.set_target(SimTime::from_ms(1_000)).unwrap();
        s.set_target(SimTime::from_ms(300)).unwrap();
        assert!(Arc::ptr_eq(&s.planned.plan, &original), "returning to old knobs hits the cache");
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
        assert!(!Arc::ptr_eq(&before.planned.plan, &after.planned.plan));
        assert_eq!(srv.plan_stats().misses, 2, "new table must force a replan");
    }

    #[test]
    fn a_knob_set_nobody_holds_is_freed_and_planned_again() {
        let srv = server();
        let first = srv.session().unwrap();
        let plan = first.plan().clone();
        drop(first);
        assert_eq!(srv.cached_plans(), 0, "the last session took the plan with it");
        let again = srv.session().unwrap();
        assert_eq!(again.plan(), &plan, "replanning is deterministic");
        let stats = srv.plan_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(srv.cached_plans(), 1);
    }

    /// The prefetcher's working-set table holds plans, not preload
    /// buffers: once the last session on a knob set closes, its buffer is
    /// freed while the plan the table registered stays.
    #[test]
    fn the_prefetcher_keeps_a_closed_knob_sets_plan_but_not_its_preload_buffer() {
        let srv = tiny_server(ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 64 << 10,
            prefetch: PrefetchConfig::markov(1 << 20),
            ..ServeConfig::default()
        });
        let session = srv.session().unwrap();
        assert!(session.preload_used() > 0, "|S| > 0: the session holds a buffer");
        session.infer(&[1, 2, 3]).unwrap();
        session.infer(&[1, 2, 3]).unwrap();
        assert_eq!((srv.inner.preloads.len(), srv.cached_plans()), (1, 1));
        drop(session);
        assert_eq!(srv.inner.preloads.len(), 0, "no table keeps a closed knob set's buffer");
        assert_eq!(srv.cached_plans(), 1, "the prefetcher keeps the plan it may stage");
    }

    /// A closed session's Markov chain goes with it: ten thousand open →
    /// engage → close cycles, three sessions open at a time, leave one
    /// chain per open session, not one per session ever opened.
    #[test]
    fn closed_sessions_leave_no_prefetch_chain_behind() {
        const CYCLES: u64 = 10_000;
        let srv = tiny_server(ServeConfig {
            preload_bytes: 0,
            prefetch: PrefetchConfig::markov(1 << 20),
            ..ServeConfig::default()
        });
        let chains = || srv.inner.prefetch.as_ref().expect("prefetch is on").client_count();
        let mut open = std::collections::VecDeque::new();
        for _ in 0..CYCLES {
            let session = srv.session().unwrap();
            session.infer(&[1, 2, 3]).unwrap();
            open.push_back(session);
            if open.len() > 3 {
                open.pop_front();
            }
        }
        assert_eq!(srv.open_sessions(), 3);
        assert_eq!(chains(), 3, "one chain per open session");
        drop(open);
        assert_eq!(chains(), 0);
        let model = srv.prefetch_report().unwrap().model;
        assert_eq!(model.observations, CYCLES, "every engagement was still observed");
    }

    #[test]
    fn invalidation_forces_replan_for_new_sessions() {
        let srv = server();
        let s1 = srv.session().unwrap();
        srv.invalidate_plans();
        let s2 = srv.session().unwrap();
        assert!(
            !Arc::ptr_eq(&s1.planned.plan, &s2.planned.plan),
            "invalidation must drop the entry"
        );
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
        let (main, pool) = srv.shard_cache_resident_bytes();
        assert!(main > 0 && main <= 4 << 20, "the warm cache holds bytes under its budget");
        assert_eq!(pool, 0, "no staging pool without prefetch");
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
    fn batching_admits_identical_sessions_an_unbatched_prediction_rejects() {
        let build = |batch_window: Option<SimTime>| {
            tiny_server(ServeConfig {
                preload_bytes: 0,
                admission: AdmissionMode::Enforce,
                batch_window,
                ..ServeConfig::default()
            })
        };
        let slo = floor_slo(&build(None));

        // Unbatched: a second identical-SLO session queues behind the
        // first's reads and is rejected (the pre-batching behaviour).
        let unbatched = build(None);
        let _first = unbatched.session_with_slo(slo, 0).unwrap();
        assert!(unbatched.session_with_slo(slo, 0).is_err());

        // Batched: identical sessions share every read, so the contended
        // prediction collapses to the uncontended one and both admit.
        let batched = build(Some(SimTime::from_us(1_000)));
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
    fn a_retarget_between_issue_and_complete_finishes_the_engagement_on_its_issued_plan() {
        // Depth 1 → 2, width 4 → 2 and depth 2 → 1 on the tiny model: the
        // requests are on the lane for the plan at issue, whatever the
        // session plans next.
        for (issued, retargeted) in [(20, 40), (100, 40), (100, 20)] {
            let run = |retarget: bool| {
                let srv = tiny_server(ServeConfig { preload_bytes: 0, ..ServeConfig::default() });
                let mut s = srv.session_with(SimTime::from_ms(issued), 0).unwrap();
                let shape = s.plan().shape;
                let pending = s.infer_issue(&[1, 2, 3]).unwrap();
                if retarget {
                    s.set_target(SimTime::from_ms(retargeted)).unwrap();
                    assert_ne!(s.plan().shape, shape, "{issued} → {retargeted} ms moves the shape");
                }
                let inf = s.infer_complete(pending).unwrap();
                assert_eq!(inf.submodel, shape);
                let outcome = inf.outcome;
                let ran = (inf.class, inf.probabilities, outcome.timeline, outcome.loaded_bytes);
                (ran, srv.contention_report())
            };
            assert_eq!(run(true), run(false), "issued at {issued} ms, retargeted to {retargeted}");
        }
    }

    #[test]
    fn a_pending_engagement_completes_only_on_the_session_that_issued_it() {
        let srv = server();
        let (a, b) = (srv.session().unwrap(), srv.session().unwrap());
        let pending = a.infer_issue(&[1, 2, 3]).unwrap();
        assert!(matches!(b.infer_complete(pending), Err(PipelineError::PlanMismatch(_))));
        assert_eq!(srv.serving_stats().engagements, 0);
    }

    /// The one case a search memo could hit — a session drops and the same
    /// request meets the identical registry — searches again and gets what
    /// a hit would have returned.
    #[test]
    fn a_reopen_against_an_identical_registry_searches_again_and_plans_the_same() {
        let srv = server_with_admission(AdmissionMode::Enforce);
        let slo = SimTime::from_ms(5_000);
        let _a = srv.session_with_slo(slo, 0).unwrap();
        let _b = srv.session_with_slo(slo, 0).unwrap();
        let registry = srv.mix_digest();
        let c = srv.session_with_slo(slo, 0).unwrap();
        let (served, plan) = (c.serving_plan().unwrap().clone(), c.plan().clone());
        drop(c);
        assert_eq!(srv.mix_digest(), registry, "the reopen meets the identical registry");
        let d = srv.session_with_slo(slo, 0).unwrap();
        assert_eq!(d.serving_plan(), Some(&served));
        assert_eq!(d.plan(), &plan);
        assert_eq!(srv.serving_stats().admitted_sessions, 4);
        let stats = srv.slo_plan_stats();
        assert_eq!((stats.hits, stats.misses), (0, 4));

        // A rejection repeats too: a rejected open registers nothing.
        let floor = floor_slo(&srv);
        let rejected = || match srv.session_with_slo(floor, 0) {
            Err(PipelineError::AdmissionRejected { predicted, slo, co_runners }) => {
                (predicted, slo, co_runners)
            }
            other => panic!("the floor SLO cannot hold beside three sessions: {other:?}"),
        };
        assert_eq!(rejected(), rejected());
        let stats = srv.slo_plan_stats();
        assert_eq!((stats.hits, stats.misses), (0, 6));
        assert_eq!(srv.serving_stats().rejected_sessions, 2);
    }

    fn server_with_backpressure(mode: BackpressureMode) -> StiServer {
        tiny_server(ServeConfig { preload_bytes: 0, backpressure: mode, ..ServeConfig::default() })
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_ms(n)
    }

    /// What the scheduler holds queued when the gate is asked.
    #[derive(Clone, Copy, PartialEq)]
    enum Queued {
        Nothing,
        /// Three sessions' engagements, issued while dispatch is paused.
        Demand,
        /// Prefetch stages a recurrent session's completions submitted.
        Speculation,
    }

    #[test]
    fn a_decision_is_the_same_whatever_the_scheduler_holds_queued() {
        // Four SLO sessions on a Markov-prefetch server; with demand
        // requests or speculative stages queued while dispatch is paused, the
        // fourth asks the gate. The registry is the same either way, and so
        // is the whole decision — digest, prediction, delay and reason.
        let decision_with = |queued: Queued| {
            let srv = tiny_server(ServeConfig {
                preload_bytes: 0,
                backpressure: BackpressureMode::Queue(ms(60_000)),
                prefetch: PrefetchConfig::markov(1 << 20),
                ..ServeConfig::default()
            });
            let slo = floor_slo(&srv);
            let sessions: Vec<_> = (0..4).map(|_| srv.session_with_slo(slo, 0).unwrap()).collect();
            srv.pause_io();
            let issued = if queued == Queued::Demand { 3 } else { 0 };
            let pending: Vec<_> =
                sessions[..issued].iter().map(|s| s.infer_issue(&[1, 2]).unwrap()).collect();
            assert_eq!(srv.queued_io_requests() > 0, queued == Queued::Demand);
            if queued == Queued::Speculation {
                // The second completion of one knob set predicts a third:
                // its stages are submitted, and nothing runs them.
                for _ in 0..2 {
                    let engagement = sessions[0].infer_issue(&[1, 2]).unwrap();
                    srv.drive_io();
                    sessions[0].infer_complete(engagement).unwrap();
                }
                let report = srv.prefetch_report().unwrap();
                assert_eq!((report.model.plans, report.jobs), (1, 0), "stages queued, none run");
            }
            let decision = sessions[3].gate_decision().expect("the gate is on");
            if queued == Queued::Speculation {
                assert!(srv.drive_io() > 0, "the stages were queued when the gate decided");
            }
            srv.resume_io();
            for (session, pending) in sessions.iter().zip(pending) {
                session.infer_complete(pending).unwrap();
            }
            decision
        };
        let idle = decision_with(Queued::Nothing);
        assert!(idle.delay > SimTime::ZERO, "three co-arriving sessions ahead force a wait");
        assert_eq!(decision_with(Queued::Demand), idle);
        assert_eq!(decision_with(Queued::Speculation), idle);
    }

    #[test]
    fn enforcing_a_decision_counts_it_and_turns_it_into_a_delay_or_a_shed() {
        let gate = GateCounts::new(&MetricsRegistry::new());
        let decision = |delay: SimTime, shed: bool| GateDecision {
            session: 0,
            arrival: SimTime::ZERO,
            slo: ms(25),
            predicted: ms(30),
            delay,
            shed,
            re_gated: false,
            reason: GateReason::default(),
        };
        assert_eq!(gate.enforce(&decision(SimTime::ZERO, false)).unwrap(), SimTime::ZERO);
        assert_eq!(gate.enforce(&decision(ms(4), false)).unwrap(), ms(4));
        match gate.enforce(&decision(SimTime::ZERO, true)) {
            Err(PipelineError::Backpressure { predicted, slo }) => {
                assert_eq!((predicted, slo), (ms(30), ms(25)));
            }
            other => panic!("expected a shed, got {other:?}"),
        }
        let counts =
            (gate.decisions.get(), gate.queued_engagements.get(), gate.shed_engagements.get());
        assert_eq!(counts, (3, 1, 1));
        assert_eq!(gate.delay_us.snapshot().count(), 3);
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

    /// The live registry is shared copy-on-write. An SLO open, a retarget's
    /// search and a cold gate decision each take a pointer to it and let
    /// go before the write that follows, so every open, retarget and close
    /// updates the one registry in place. Only a write under a live
    /// snapshot copies it.
    #[test]
    fn slo_opens_retargets_and_cold_gate_decisions_never_copy_the_live_registry() {
        let srv = server_with_backpressure(BackpressureMode::Queue(ms(60_000)));
        let live = || Arc::as_ptr(&srv.inner.live_mix.read());
        let unshared = || Arc::strong_count(&srv.inner.live_mix.read()) == 1;
        let plain = srv.session().unwrap();
        let registry = live();
        let mut slo = srv.session_with_slo(ms(60_000), 0).unwrap();
        assert!(slo.gate_decision().is_some(), "a cold decision walks the mix");
        slo.retarget_slo(ms(50_000)).unwrap();
        drop(plain);
        let other = srv.session_with_slo(ms(60_000), 0).unwrap();
        assert!(other.gate_decision().is_some());
        assert!(unshared() && live() == registry, "nothing copied the live registry");
        assert_eq!(srv.slo_plan_stats().misses, 3);

        let snapshot = Arc::clone(&srv.inner.live_mix.read());
        drop(other);
        assert_ne!(live(), registry, "a close under a snapshot copies");
        assert_eq!(Arc::as_ptr(&snapshot), registry);
        assert_eq!((snapshot.co_runners(), srv.open_sessions()), (2, 1));
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
}
