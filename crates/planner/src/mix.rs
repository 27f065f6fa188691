//! `ServingMix` — the one canonical picture of "the world as the contended
//! predictors see it".
//!
//! SLO admission, the infer-time backpressure gate, and the gate's replay
//! of earlier sessions' decisions all ask the same contended-latency
//! question; hand-assembling co-runner lanes, arrivals and batching
//! windows per caller is where the arrival-offset and memo-eviction bugs
//! of the backpressure PR crept in. This module answers all three
//! through one abstraction:
//!
//! - [`ServingMix`] canonically represents a prediction's inputs: the
//!   open-session registry (each co-runner's [`CoRunnerLoad`] with its
//!   token and, for SLO sessions, its [`SloProfile`]), the [`IoSharing`]
//!   mode and the device topology — and nothing measured live: like the
//!   paper's planner (§5), predictions run on profiled delays only.
//! - [`ServingMix::predict`] is the contended-latency query: every lane's
//!   FIFO job queue is served round-robin on its device channels, and the
//!   candidate's pipeline recurrence runs over the contended completions.
//!   Predictions fold each channel's queue in closed form (see below),
//!   unbatched and batched, where jobs coalesce exactly as the IO
//!   scheduler batches them ([`IoSharing::coalesces`]).
//! - [`ServingMix::min_delay`] is the two-phase minimal-queue-delay
//!   search, and [`ServingMix::gate_all`] is the deterministic gate walk:
//!   sessions in `(arrival, token)` order, each earlier SLO session's
//!   decision replayed against the lanes accumulated
//!   so far — including the *second gate pass* that re-gates an
//!   equal-arrival earliest session once later-opened co-arriving load
//!   exists (queue mode only; see [`ServingMix::gate_all`]).
//! - [`ServingMix::digest`] is the one memo identity: the gate's walk memo
//!   ([`crate::gate`]) hashes the mix through here, so a registry change
//!   invalidates it.
//!
//! # Sharing-aware `|S|`
//!
//! Under shared-IO batching, preloading a layer that an in-window
//! co-resident streams anyway has near-zero marginal value — the batch
//! fan-out delivers the bytes regardless — while preloading it can even
//! *hurt* by desynchronizing the candidate's request stream from the
//! co-residents' (a partially-preloaded layer reads different bytes, so
//! nothing coalesces). [`plan_for_slo_mix`] therefore ranks each ladder
//! rung's preload placements by their marginal contended latency under the
//! mix: the default byte-prefix plan, a [`reallocate_preload_for_mix`]
//! variant that moves the budget off co-resident-covered layers onto
//! un-shared ones, and the zero-`|S|` allocation (which aligns
//! byte-identically with zero-preload co-residents and rides their batches
//! for free). The placement with the lowest predicted contended latency
//! wins, so batched co-residents shift their preload budget onto un-shared
//! layers — and admit at tighter SLOs — exactly when the mix says it pays.
//!
//! # The closed form of a prediction
//!
//! A prediction knows every arrival before it serves a job: batching raises
//! lane cursors only while a round is grouped, and no completion feeds back
//! into an arrival. So each device channel is one single-server queue, FIFO
//! by `(arrival, submission)`, and serving it is the Lindley fold
//! `free = max(free, a') + s`. `SimTime` is an integer and `max` and `+`
//! are exact, so the fold equals the simulator bit for bit; this module's
//! tests compare the two with `==`, and an `#[ignore]`d release test does
//! so at the `fleet_admit` shape.
//!
//! Under [`IoSharing::Exclusive`] every candidate job arrives at the
//! candidate's own arrival `a`, last in its round. So on each channel:
//!
//! - lanes arriving after `a` are served after every candidate job, so they
//!   are skipped;
//! - lanes arriving before `a` matter only through the channel's free time,
//!   folded in ascending arrival (jobs sharing an arrival leave the same
//!   free time in any order, because after the first of them `free >= a'`);
//! - lanes arriving exactly at `a` interleave round by round, with the
//!   candidate last in each round.
//!
//! That costs O(N) lane handles plus a sort of the lanes arriving by `a`.
//! Under [`IoSharing::Batched`] a later lane can raise the candidate's
//! cursor, so every lane's jobs are grouped into reads, each at its latest
//! member's arrival, and one sort by `(arrival, submission)` orders every
//! channel's fold. The grouping is the IO scheduler's own pick loop,
//! [`IoSharing::pick`], run over fully queued lanes: round-robin turns,
//! every lane whose next job [`IoSharing::coalesces`] with the picked one
//! joining it in lane order, and joined lanes re-entering the turn queue
//! behind the others, as the scheduler delivers them. The delay search's
//! drains are the fold with nothing after it, in both modes. Only the
//! contention ledger's replay of a live run still runs the simulator.
//!
//! # Device-channel placement
//!
//! The mix carries the [`DeviceTopology`] predictions model
//! ([`ServingMix::with_topology`]): one single-server FIFO queue per device
//! channel, the discipline `TopologyQueueSim` serves. A prediction
//! routes each job to its device channel by
//! `DeviceTopology::channel_for(sig, stripe)` over the job's content
//! signature and its session's stripe ([`CoRunnerLoad::stripe`]), the
//! placement the IO scheduler applies to the session's lane, the delay
//! search drains per channel, and
//! [`plan_for_slo_mix`] ranks the candidate's stripe offsets as a
//! placement axis beside the `|S|` placements. A "channel" here is always
//! a *device channel* (hardware lane of the flash package); an
//! engagement's request stream into the scheduler is an *IO lane*
//! (`IoChannel` in `sti-storage`).
//!
//! # Fleet-scale incrementality
//!
//! A serving fleet makes the mix big and the per-decision budget small, so
//! the mix is built to be maintained, not rebuilt:
//!
//! - **One token-ordered slot vector, incremental digest.** Sessions live
//!   in a `Vec` sorted by registry token, so token order — the lane order
//!   predictions replay and the gate's tie-break — is a property of the
//!   type, not a precondition on callers. A server issues tokens in
//!   ascending order and never reuses one, so an open appends, and a
//!   lookup (refresh, close) is a binary search. A close leaves a
//!   tombstone in place, and the vector compacts once tombstones pass half
//!   its length, so iteration skips them and stays in token order. A slot
//!   is 48 B, a session's token, arrival, stripe and handles: a session
//!   costs its slot and no allocation of its own. [`ServingMix::digest`]
//!   folds one sub-digest per session (token, arrival, stripe, jobs, gate
//!   profile) into
//!   a rolling commutative sum. Commutativity is safe because every
//!   sub-digest includes its unique token, so a registry *set* determines
//!   the fold — and it makes [`ServingMix::upsert_session`] /
//!   [`ServingMix::remove_session`] O(1) digest updates (no rehash of the
//!   other sessions). The fold is pinned equal to a from-scratch rebuild
//!   by this module's property test and `tests/serving_fleet.rs`, so the
//!   gate memo keeps its invalidation semantics. A clone copies the live
//!   sessions only, so the server shares its registry copy-on-write: a
//!   reader takes an `Arc` to it, and a writer that finds a reader's
//!   snapshot still alive pays one such copy.
//! - **Shared lanes, recycled scratch.** Job slices are `Arc`-shared: the
//!   [`SloProfile`] and [`EngagementLoad`] of a plan hold its priced reads
//!   ([`ExecutionPlan::io_jobs`]), so the SLO search prices none; every
//!   session's [`CoRunnerLoad`] on one plan holds the list the server builds
//!   from them once; a registry entry holds its gate profile behind an `Arc`.
//!   Assembling lanes and replaying decided sessions in the gate walk borrow
//!   the registry's job slices (a lane is an arrival and a slice reference,
//!   so building one touches no reference count); pricing a profile and
//!   re-timing a delay probe clone pointers, never jobs. No prediction
//!   allocates a completion, and an unbatched one no job either (see the
//!   closed form above). The service-order index, the per-channel free times
//!   and the batched grouping's turn queue, cursors and read buffers are
//!   recycled through a lane arena across a delay search's predictions.
//! - **Delta re-prediction.** [`ServingMix::gate_all`] runs the
//!   `(arrival, token)` walk once and prices *every* open SLO session:
//!   each later decision reuses the decided-lane prefix the walk has
//!   already accumulated (the unchanged round-robin schedule prefix)
//!   instead of re-assembling it, and plain target sessions skip lane
//!   assembly entirely — they always contribute. The gate memoizes the
//!   walk per mix digest, so after a registry append exactly one walk
//!   re-prices the affected suffix and every other session's decision is a
//!   lookup.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sti_device::{
    content_sig, mix64, DeviceTopology, HwProfile, IoSharing, LaneRead, PickLanes, SimTime,
};
use sti_quant::Bitwidth;
use sti_transformer::ShardId;

use crate::gate::BackpressureMode;
use crate::importance::ImportanceProfile;
use crate::io_plan::{plan_two_stage, replan_with_preload};
use crate::plan::ExecutionPlan;
use crate::serving::{contended_makespan, CoRunnerLoad, EngagementLoad, LayerIoJob, ServingPlan};

/// What the gate needs to replay an SLO session's decisions
/// deterministically: its per-layer engagement load and the SLO it is held
/// to. Its stripe is its session's ([`CoRunnerLoad::stripe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloProfile {
    /// Per-layer IO jobs of one engagement (`None` for preload-covered
    /// layers). `Arc`-shared: every session on one plan holds the same
    /// slice, and each walk decision clones a pointer into the
    /// [`EngagementLoad`] it prices.
    pub jobs: Arc<[Option<LayerIoJob>]>,
    /// Per-layer compute delay (uniform across a plan's layers).
    pub comp: SimTime,
    /// The SLO the session's engagements are held to.
    pub slo: SimTime,
}

impl SloProfile {
    /// Builds the gate profile of one engagement of `plan` under `slo`.
    pub fn from_plan(hw: &HwProfile, plan: &ExecutionPlan, slo: SimTime) -> Self {
        Self { jobs: plan.io_jobs.clone(), comp: hw.t_comp(plan.shape.width), slo }
    }

    /// The engagement the gate prices for a session on `stripe`.
    fn load_at(&self, arrival: SimTime, stripe: u16) -> EngagementLoad {
        EngagementLoad { jobs: self.jobs.clone(), comp: self.comp, arrival, stripe }
    }
}

/// One open session as the mix sees it: its registry token (open order —
/// the gate's deterministic tie-break), its streaming load, and its gate
/// profile when it carries an SLO. Both loads are handles: the job slices
/// are `Arc`-shared with every session on the same plan, and the
/// gate profile sits behind its own `Arc`, so a plain session's entry is
/// its token, its arrival and two pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixSession {
    /// The session's registry token.
    pub token: u64,
    /// The session's streaming IO load at its arrival offset.
    pub load: CoRunnerLoad,
    /// The session's gate profile (`None` for plain target sessions, which
    /// are never gated).
    pub slo: Option<Arc<SloProfile>>,
}

/// One gate decision, as the mix computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateOutcome {
    /// Predicted contended latency at the chosen delay (for a shed
    /// outcome: the best achievable prediction, which still missed).
    pub predicted: SimTime,
    /// Queue delay applied on the simulated timeline.
    pub delay: SimTime,
    /// Whether the engagement is shed instead of executed.
    pub shed: bool,
    /// Whether the decision came from the second gate pass — the session
    /// was the equal-arrival earliest and was re-gated against the
    /// later-opened co-arriving load it would otherwise be blind to.
    pub re_gated: bool,
}

/// How an SLO search spends the preload budget `|S|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreloadPolicy {
    /// The classic per-session placement: the maximal byte prefix of the
    /// plan, regardless of what co-residents stream.
    #[default]
    PerSession,
    /// Sharing-aware placement: rank preload candidates by marginal
    /// contended latency under the mix — a layer whose content signature an
    /// in-window co-resident already streams scores ~0 (the batch fan-out
    /// delivers it anyway), so the budget shifts onto un-shared layers.
    SharingAware,
}

/// One co-runner lane of a prediction: a registry entry's FIFO job queue
/// on its stripe, opened at `arrival` (its own, or a gate delay's). The
/// load is borrowed, so lane assembly copies no job and touches no
/// reference count.
#[derive(Debug, Clone, Copy)]
struct Lane<'a> {
    arrival: SimTime,
    load: &'a CoRunnerLoad,
}

/// One flash job of a prediction, as the IO scheduler's dispatch log lists
/// it for the same lanes with every job queued before the first dispatch.
/// Lanes are numbered in token order, the candidate last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictedDispatch {
    /// The lane whose turn it was.
    pub lane: usize,
    /// The lanes whose next job joined it, in lane order.
    pub members: Vec<usize>,
    /// The device channel the read is served on.
    pub device_channel: u16,
    /// The read's arrival: the turn's cursor, raised to its members'.
    pub arrival: SimTime,
}

/// One registry slot: an open session, or the tombstone a close leaves at
/// the session's token until the next compaction. The tombstone keeps only
/// the token, which the binary search needs; the session's handles drop
/// with the close.
#[derive(Debug, Clone)]
enum Slot {
    Live(MixSession),
    Dead(u64),
}

impl Slot {
    fn token(&self) -> u64 {
        match self {
            Slot::Live(s) => s.token,
            Slot::Dead(token) => *token,
        }
    }

    fn live(&self) -> Option<&MixSession> {
        match self {
            Slot::Live(s) => Some(s),
            Slot::Dead(_) => None,
        }
    }
}

/// The canonical workload mix a contended prediction runs against: the
/// open-session registry (in token order), the IO-sharing mode and the
/// device topology. See the module docs.
///
/// The registry is a token-sorted slot vector. Its bounds:
/// - **Slots.** A close leaves a tombstone, and the vector compacts once
///   tombstones pass half its length, so it never holds more than twice
///   as many slots as live sessions.
/// - **Capacity.** An open at a full vector compacts first if it holds a
///   tombstone, so the capacity grows only when every slot is live. Churn
///   at a steady session count — close one, open one — never grows the
///   vector past what opening that many sessions in a row allocates, and
///   pays one pass over the slots per `capacity − live` opens.
/// - **Order.** A server's tokens ascend, so its opens append. An
///   out-of-order insert, which only tests and anonymous mixes make, lands
///   at its binary-search position and costs a memmove of the slots after
///   it.
///
/// `Clone` copies the live sessions only, into one exact-capacity
/// allocation, and equality compares live sessions only: tombstones are
/// not part of the value.
#[derive(Debug, Default)]
pub struct ServingMix {
    /// Sorted by token, tombstones included.
    slots: Vec<Slot>,
    /// How many of `slots` are tombstones.
    tombstones: usize,
    sharing: IoSharing,
    /// The device topology predictions model (one FIFO queue per device
    /// channel).
    topology: DeviceTopology,
    /// Rolling fold of per-session sub-digests (see [`ServingMix::digest`]):
    /// a wrapping sum of finalized sub-digests, updated O(1) by
    /// [`ServingMix::upsert_session`] / [`ServingMix::remove_session`]. A
    /// pure function of the live sessions.
    session_fold: u64,
}

impl Clone for ServingMix {
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.co_runners());
        slots.extend(self.slots.iter().filter(|s| s.live().is_some()).cloned());
        Self {
            slots,
            tombstones: 0,
            sharing: self.sharing,
            topology: self.topology,
            session_fold: self.session_fold,
        }
    }
}

impl PartialEq for ServingMix {
    fn eq(&self, other: &Self) -> bool {
        self.sharing == other.sharing
            && self.topology == other.topology
            && self.session_fold == other.session_fold
            && self.sessions().eq(other.sessions())
    }
}

impl ServingMix {
    /// An empty mix under the given sharing mode.
    pub fn new(sharing: IoSharing) -> Self {
        Self {
            slots: Vec::new(),
            tombstones: 0,
            sharing,
            topology: DeviceTopology::single(),
            session_fold: 0,
        }
    }

    /// A mix of anonymous co-runner loads (tokens are their indices) — the
    /// admission view when only loads are known.
    pub fn from_co_runners(co: &[CoRunnerLoad], sharing: IoSharing) -> Self {
        let mut mix = Self::new(sharing);
        for (i, load) in co.iter().enumerate() {
            mix.push_session(i as u64, load.clone(), None);
        }
        mix
    }

    /// Attaches the device topology predictions model (default: one
    /// channel). Every lane's jobs route to per-channel queues through
    /// `DeviceTopology::channel_for(sig, stripe)` with their session's
    /// stripe.
    #[must_use]
    pub fn with_topology(mut self, topology: DeviceTopology) -> Self {
        self.topology = topology;
        self
    }

    /// The device topology predictions model.
    pub fn topology(&self) -> DeviceTopology {
        self.topology
    }

    /// The sharing mode predictions run under.
    pub fn sharing(&self) -> IoSharing {
        self.sharing
    }

    /// Registers an open session — [`ServingMix::upsert_session`] under
    /// the name mix builders use. Tokens may arrive in any order: the lane
    /// order predictions replay (and the digest) depends only on the
    /// resulting token set.
    pub fn push_session(&mut self, token: u64, load: CoRunnerLoad, slo: Option<SloProfile>) {
        self.upsert_session(token, load, slo);
    }

    /// Inserts or replaces the session holding `token` and updates the
    /// rolling digest in O(1) — the in-place registration path of a
    /// long-lived server (open, `set_arrival`, retarget).
    pub fn upsert_session(&mut self, token: u64, load: CoRunnerLoad, slo: Option<SloProfile>) {
        let session = MixSession { token, load, slo: slo.map(Arc::new) };
        self.session_fold = self.session_fold.wrapping_add(mix64(session_digest(&session)));
        match self.slot_of(token) {
            Ok(i) => match std::mem::replace(&mut self.slots[i], Slot::Live(session)) {
                Slot::Live(old) => {
                    self.session_fold = self.session_fold.wrapping_sub(mix64(session_digest(&old)));
                }
                Slot::Dead(_) => self.tombstones -= 1,
            },
            Err(i) if i == self.slots.len() => {
                if self.slots.len() == self.slots.capacity() && self.tombstones > 0 {
                    self.compact();
                }
                self.slots.push(Slot::Live(session));
            }
            Err(i) => self.slots.insert(i, Slot::Live(session)),
        }
    }

    /// Removes the session holding `token` (if present), updating the
    /// rolling digest in O(1). Returns whether a session was removed.
    pub fn remove_session(&mut self, token: u64) -> bool {
        let Ok(i) = self.slot_of(token) else { return false };
        let Slot::Live(old) = std::mem::replace(&mut self.slots[i], Slot::Dead(token)) else {
            return false;
        };
        self.session_fold = self.session_fold.wrapping_sub(mix64(session_digest(&old)));
        self.tombstones += 1;
        if 2 * self.tombstones > self.slots.len() {
            self.compact();
        }
        true
    }

    /// The slot holding `token`, or where it would be inserted.
    fn slot_of(&self, token: u64) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&token, Slot::token)
    }

    /// Drops every tombstone, keeping the live slots in token order and the
    /// vector's capacity.
    fn compact(&mut self) {
        self.slots.retain(|s| s.live().is_some());
        self.tombstones = 0;
    }

    /// The sessions in the mix, in ascending token order.
    pub fn sessions(&self) -> impl Iterator<Item = &MixSession> {
        self.slots.iter().filter_map(Slot::live)
    }

    /// Number of co-running sessions the mix models.
    pub fn co_runners(&self) -> usize {
        self.slots.len() - self.tombstones
    }

    /// The one memo identity of the mix: every input a prediction (or a
    /// gate decision) depends on — sharing mode, topology, and each
    /// session's token, arrival, stripe, jobs, and gate profile. The gate's walk
    /// memo keys on this, so a registry change invalidates it.
    ///
    /// The session part is `(count, fold)` — the rolling fold maintained
    /// by the mutators stands in for the sessions themselves — so this is
    /// O(1) regardless of fleet size. The single-channel topology folds in
    /// as the identity (every digest minted before topologies existed, and
    /// every `C = 1` deployment today, is bit-identical); multi-channel
    /// shapes rehash, so plans and gate decisions made under different
    /// placements never collide in the memo tables.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.sharing.window().map(|w| w.as_us()).hash(&mut h);
        (self.co_runners() as u64, self.session_fold).hash(&mut h);
        let digest = h.finish();
        if self.topology.is_single() {
            return digest;
        }
        let mut h = DefaultHasher::new();
        (digest, self.topology.channel_count()).hash(&mut h);
        h.finish()
    }

    /// The raw lane set of the mix: every session's load at its own
    /// arrival, in token order. Job slices are borrowed from the registry —
    /// no job is copied.
    fn raw_lanes(&self) -> Vec<Lane<'_>> {
        let mut lanes = Vec::with_capacity(self.co_runners());
        lanes.extend(self.sessions().map(|s| Lane { arrival: s.load.arrival, load: &s.load }));
        lanes
    }

    /// Predicts the candidate engagement's contended end-to-end latency
    /// against the mix: every lane's jobs queue at its arrival on their
    /// device channels, the candidate's ride last in each round-robin
    /// round, and each channel serves FIFO by arrival.
    ///
    /// Admission, the gate and the delay search are all views over this
    /// query. It is the closed form of the module docs in both sharing
    /// modes: batched, each round's byte-identical in-window jobs first
    /// group into one read at their latest member's arrival. That is exact,
    /// because no completion feeds back into an arrival and `SimTime`
    /// arithmetic is integer.
    pub fn predict(&self, load: &EngagementLoad) -> SimTime {
        self.predict_over(&self.raw_lanes(), load)
    }

    /// [`ServingMix::predict`] over an already assembled
    /// [`ServingMix::raw_lanes`], so a search that scores many candidates
    /// against one mix walks the registry once.
    fn predict_over(&self, lanes: &[Lane], load: &EngagementLoad) -> SimTime {
        let arena = &mut LaneArena::default();
        predict_over_lanes_in(arena, lanes, None, load, self.sharing, self.topology)
    }

    /// The flash jobs [`ServingMix::predict`] serves the mix and the
    /// candidate with, in dispatch order.
    pub fn predicted_dispatches(&self, load: &EngagementLoad) -> Vec<PredictedDispatch> {
        let (mut dispatches, arena) = (Vec::new(), &mut LaneArena::default());
        let (lanes, sharing, topology) = (self.raw_lanes(), self.sharing, self.topology);
        group_rounds(arena, &lanes, None, load, sharing, topology, |lane, members, read| {
            let (members, device_channel, arrival) = (members.to_vec(), read.channel, read.arrival);
            dispatches.push(PredictedDispatch { lane, members, device_channel, arrival });
        });
        dispatches
    }

    /// Searches the smallest arrival delay (up to `max_delay`) at which the
    /// candidate's prediction meets `slo` — the queue flavour of
    /// backpressure. `Err(best_predicted)` means even draining the mix
    /// cannot save the engagement.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the best achievable prediction when no
    /// admissible delay meets the SLO.
    pub fn min_delay(
        &self,
        load: &EngagementLoad,
        slo: SimTime,
        max_delay: SimTime,
    ) -> Result<(SimTime, SimTime), SimTime> {
        min_delay_over_lanes_in(
            &mut LaneArena::default(),
            &self.raw_lanes(),
            load,
            self.sharing,
            self.topology,
            slo,
            max_delay,
        )
    }

    /// Content signatures the mix streams that a read of the same content,
    /// from a lane opened at `arrival` on `stripe`, would share a flash
    /// job with ([`IoSharing::coalesces`]). Empty under
    /// [`IoSharing::Exclusive`].
    pub fn streamed_sigs_in_window(&self, arrival: SimTime, stripe: u16) -> HashSet<u64> {
        let mut sigs = HashSet::new();
        for s in self.sessions() {
            for job in s.load.jobs.iter() {
                let theirs =
                    LaneRead { content: job, stripe: s.load.stripe, arrival: s.load.arrival };
                let mine = LaneRead { content: job, stripe, arrival };
                if self.sharing.coalesces(self.topology, job.sig, &theirs, &mine) {
                    sigs.insert(job.sig);
                }
            }
        }
        sigs
    }

    /// Runs the deterministic gate walk once, pricing **every** open SLO
    /// session; returns `(token, outcome)` per SLO session in walk order.
    /// Plain target sessions (no [`SloProfile`]) are never gated and skip
    /// lane assembly entirely. The decided-lane prefix is computed once and
    /// shared by every later decision, and the gate memoizes the walk per
    /// mix digest, so after a registry change exactly one walk re-prices
    /// and every other session's gate decision is a lookup.
    ///
    /// Sessions are walked in `(arrival, token)` order. Each earlier SLO
    /// session's own decision is replayed against the lanes accumulated so
    /// far (a shed session contributes no lane, a queue-delayed one
    /// contributes its lane at the delayed arrival); plain target sessions
    /// always contribute. Sessions arriving strictly later ride along as
    /// raw lanes — they cannot affect a prediction at the candidate's own
    /// arrival, but a queue delay can land inside their windows, so the
    /// delay search prices them. Equal-arrival later tokens are excluded
    /// from the *initial* pass (the deterministic tie-break that staggers
    /// co-arriving gated sessions instead of deadlocking them on each
    /// other) — and then, in queue mode, the second gate pass **iterates
    /// the whole co-arrival group to a fixed point**: every SLO member is
    /// re-gated against its co-arrivals' *decided* positions (queue-delayed
    /// members at their delayed arrivals, plain ones at raw), and the group
    /// sweeps in token order until no decision moves. No member is blind to
    /// a burst that opened just after it, and mutually co-arriving SLO
    /// sessions converge on delays that are consistent with each other
    /// rather than with a one-shot guess. If even the maximum delay cannot
    /// absorb the widened mix, the member's standing decision stays
    /// (re-gating reacts, it never sheds work the initial pass cleared —
    /// shed mode skips re-gating entirely so the gate keeps pricing a
    /// subset of what admission priced). The whole walk — sweep order,
    /// sweep cap, convergence test — is a pure function of the mix, so
    /// concurrent and sequential replays decide identically.
    ///
    /// With [`BackpressureMode::Off`] every SLO session is priced at its
    /// arrival and none is delayed or shed.
    pub fn gate_all(&self, mode: BackpressureMode) -> Vec<(u64, GateOutcome)> {
        self.walk_gate(mode)
            .into_iter()
            .filter_map(|(t, outcome)| outcome.map(|o| (t, o)))
            .collect()
    }

    /// The `(arrival, token)` walk behind [`ServingMix::gate_all`]:
    /// `(token, outcome)` per session visited, in walk order (`None` for
    /// plain target sessions, which are never gated).
    fn walk_gate(&self, mode: BackpressureMode) -> Vec<(u64, Option<GateOutcome>)> {
        /// Sweep cap for the co-arrival fixed point: iteration is
        /// Gauss–Seidel and converges in 2 sweeps for the common
        /// one-gated-session case (re-decide + confirm); the cap only binds
        /// pathological mutual oscillation, and binding it is still
        /// deterministic — the walk is a pure function of the mix either
        /// way.
        const MAX_SWEEPS: usize = 8;
        let mut arena = LaneArena::default();
        let mut order: Vec<&MixSession> = Vec::with_capacity(self.co_runners());
        order.extend(self.sessions());
        order.sort_by_key(|s| (s.load.arrival, s.token));
        let mut decided: Vec<Lane> = Vec::with_capacity(self.co_runners());
        let mut outcomes: Vec<(u64, Option<GateOutcome>)> = Vec::new();
        let mut start = 0usize;
        while start < order.len() {
            // One equal-arrival group at a time: [start, end) in token
            // order (the sort key's tie-break).
            let arrival = order[start].load.arrival;
            let mut end = start + 1;
            while end < order.len() && order[end].load.arrival == arrival {
                end += 1;
            }
            let decided_before = decided.len();
            let outcome_base = outcomes.len();
            // Initial pass: each member decided in token order against
            // everything decided before it and the raw loads of
            // strictly-later arrivals — equal-arrival later tokens
            // excluded, the deterministic tie-break that staggers
            // co-arriving gated sessions instead of deadlocking them on
            // each other. Plain target sessions are never gated: their load
            // always occupies the queue — and needs no lane assembly of its
            // own, which keeps the walk O(decisions · lanes), not
            // O(sessions · lanes).
            for &s in &order[start..end] {
                match &s.slo {
                    None => {
                        outcomes.push((s.token, None));
                        decided.push(Lane { arrival, load: &s.load });
                    }
                    Some(profile) => {
                        let first = lanes_for(&decided, &order[end..], arrival);
                        let outcome = decide(
                            &mut arena,
                            &first,
                            &profile.load_at(arrival, s.load.stripe),
                            profile.slo,
                            self.sharing,
                            self.topology,
                            mode,
                        );
                        outcomes.push((s.token, Some(outcome)));
                        if !outcome.shed {
                            decided.push(Lane { arrival: arrival + outcome.delay, load: &s.load });
                        }
                    }
                }
            }
            // Second pass, iterated to a fixed point (queue mode only):
            // re-gate every SLO member against the *decided* positions of
            // its co-arrivals — initially the staggered first-pass delays —
            // and sweep until no member's decision moves (or the cap
            // binds). Re-gating reacts, it never sheds: a member the first
            // pass cleared keeps its standing decision when even the
            // maximum delay cannot absorb the widened mix, and a first-pass
            // shed stays shed. Shed mode skips this entirely, so the gate
            // keeps pricing a subset of what admission priced.
            if let (BackpressureMode::Queue(max), true) = (mode, end - start > 1) {
                let mut lanes: Vec<Lane> = Vec::new();
                for _ in 0..MAX_SWEEPS {
                    let mut moved = false;
                    for (m, &s) in order[start..end].iter().enumerate() {
                        // SLO members, each with its standing outcome;
                        // plain members are never gated.
                        let (Some(profile), Some(cur)) = (&s.slo, outcomes[outcome_base + m].1)
                        else {
                            continue;
                        };
                        if cur.shed {
                            continue;
                        }
                        lanes.clear();
                        lanes.extend_from_slice(&decided[..decided_before]);
                        for (o, &other) in order[start..end].iter().enumerate() {
                            if o == m {
                                continue;
                            }
                            match outcomes[outcome_base + o].1 {
                                Some(oc) if oc.shed => {}
                                Some(oc) => lanes
                                    .push(Lane { arrival: arrival + oc.delay, load: &other.load }),
                                None => lanes.push(Lane { arrival, load: &other.load }),
                            }
                        }
                        for &other in &order[end..] {
                            lanes.push(Lane { arrival: other.load.arrival, load: &other.load });
                        }
                        if let Ok((delay, predicted)) = min_delay_over_lanes_in(
                            &mut arena,
                            &lanes,
                            &profile.load_at(arrival, s.load.stripe),
                            self.sharing,
                            self.topology,
                            profile.slo,
                            max,
                        ) {
                            moved |= delay != cur.delay || predicted != cur.predicted;
                            outcomes[outcome_base + m].1 =
                                Some(GateOutcome { predicted, delay, shed: false, re_gated: true });
                        }
                    }
                    if !moved {
                        break;
                    }
                }
                // Re-anchor the group's decided lanes at the fixed-point
                // delays for everything walking after the group.
                decided.truncate(decided_before);
                for (m, &s) in order[start..end].iter().enumerate() {
                    match outcomes[outcome_base + m].1 {
                        Some(oc) if oc.shed => {}
                        Some(oc) => {
                            decided.push(Lane { arrival: arrival + oc.delay, load: &s.load })
                        }
                        None => decided.push(Lane { arrival, load: &s.load }),
                    }
                }
            }
            start = end;
        }
        outcomes
    }
}

/// Lanes an initial-pass decision predicts against: everything already
/// decided, and the raw loads of the strictly-later arrivals in `later`.
fn lanes_for<'a>(
    decided: &[Lane<'a>],
    later: &[&'a MixSession],
    arrival: SimTime,
) -> Vec<Lane<'a>> {
    let mut lanes: Vec<Lane> = decided.to_vec();
    for other in later {
        debug_assert!(other.load.arrival > arrival);
        lanes.push(Lane { arrival: other.load.arrival, load: &other.load });
    }
    lanes
}

/// The per-session sub-digest of the rolling fold: everything a prediction
/// reads from one session — token, arrival, stripe, jobs, gate profile.
fn session_digest(s: &MixSession) -> u64 {
    let mut h = DefaultHasher::new();
    (s.token, s.load.arrival.as_us(), s.load.stripe, s.load.jobs.len()).hash(&mut h);
    for j in s.load.jobs.iter() {
        (j.sig, j.service.as_us()).hash(&mut h);
    }
    match &s.slo {
        None => 0u8.hash(&mut h),
        Some(p) => {
            1u8.hash(&mut h);
            (p.slo.as_us(), p.comp.as_us()).hash(&mut h);
        }
    }
    h.finish()
}

/// Reusable scratch for the predictors: a delay search runs dozens of
/// predictions against the same lane set, and a gate walk one search per
/// decision.
///
/// Both folds need an index in service order and one free time per device
/// channel. The grouping of a batched prediction recycles the candidate's
/// jobs, each lane's next-job position and arrival cursor, the turn queue,
/// a dispatch's members and the reads it submits.
#[derive(Default)]
struct LaneArena {
    by_arrival: Vec<usize>,
    free: Vec<SimTime>,
    candidate: Vec<(usize, LayerIoJob)>,
    heads: Vec<(usize, SimTime)>,
    turn: VecDeque<usize>,
    members: Vec<usize>,
    reads: Vec<Read>,
}

/// One flash read of a batched prediction: its arrival, the device channel
/// it is served on, its service time, and the candidate layer it completes
/// when the candidate takes part.
#[derive(Debug, Clone, Copy)]
struct Read {
    arrival: SimTime,
    channel: u16,
    service: SimTime,
    candidate_layer: Option<usize>,
}

/// One initial-pass gate decision for an engagement held to `slo`.
/// Co-arrival re-gating is the walk's fixed-point sweep, not this
/// function's job (queue mode only; see [`ServingMix::gate_all`]).
#[allow(clippy::too_many_arguments)]
fn decide(
    arena: &mut LaneArena,
    first: &[Lane],
    load: &EngagementLoad,
    slo: SimTime,
    sharing: IoSharing,
    topology: DeviceTopology,
    mode: BackpressureMode,
) -> GateOutcome {
    match mode {
        BackpressureMode::Off | BackpressureMode::Shed => {
            let predicted = predict_over_lanes_in(arena, first, None, load, sharing, topology);
            GateOutcome {
                predicted,
                delay: SimTime::ZERO,
                shed: mode == BackpressureMode::Shed && predicted > slo,
                re_gated: false,
            }
        }
        BackpressureMode::Queue(max) => {
            match min_delay_over_lanes_in(arena, first, load, sharing, topology, slo, max) {
                Err(predicted) => {
                    GateOutcome { predicted, delay: SimTime::ZERO, shed: true, re_gated: false }
                }
                Ok((delay, predicted)) => {
                    GateOutcome { predicted, delay, shed: false, re_gated: false }
                }
            }
        }
    }
}

/// The prediction every view shares: `lanes` are co-runner FIFO job queues
/// (each with an arrival offset), of which only those arriving by `cutoff`
/// count (all of them for `None`); the candidate's jobs ride last in each
/// round-robin round. Returns the candidate's end-to-end latency from its
/// arrival, folding each device channel's queue in closed form: over the
/// lanes unbatched ([`fold_predict`]), over the reads of the round grouping
/// batched ([`batched_predict`]). Scratch is caller-owned ([`LaneArena`]).
fn predict_over_lanes_in(
    arena: &mut LaneArena,
    lanes: &[Lane],
    cutoff: Option<SimTime>,
    load: &EngagementLoad,
    sharing: IoSharing,
    topology: DeviceTopology,
) -> SimTime {
    #[cfg(test)]
    if tests::oracle_on() {
        return tests::simulated_predict(arena, lanes, cutoff, load, sharing, topology);
    }
    match sharing {
        IoSharing::Exclusive => fold_predict(arena, lanes, cutoff, load, topology),
        IoSharing::Batched(_) => batched_predict(arena, lanes, cutoff, load, sharing, topology),
    }
}

/// Fills `order` with the indices of the lanes arriving by `bound`, in
/// ascending arrival (the order among equal arrivals is unspecified).
fn index_by_arrival(order: &mut Vec<usize>, lanes: &[Lane], bound: SimTime) {
    order.clear();
    order.extend((0..lanes.len()).filter(|&i| lanes[i].arrival <= bound));
    order.sort_unstable_by_key(|&i| lanes[i].arrival);
}

/// Serves a job of `service`, arriving at `arrival`, on device channel
/// `channel`: one step of the Lindley recursion
/// `free = max(free, arrival) + service`. Returns the job's completion.
fn serve(free: &mut [SimTime], channel: u16, arrival: SimTime, service: SimTime) -> SimTime {
    let c = channel as usize;
    free[c] = free[c].max(arrival) + service;
    free[c]
}

/// Per-channel free times once every job of the lanes in `order` (indices
/// in ascending arrival) has been served. Each channel serves FIFO by
/// arrival, and jobs sharing an arrival leave the same free time in any
/// order, so arrival order is all the fold needs.
fn fold_lanes(free: &mut Vec<SimTime>, lanes: &[Lane], order: &[usize], topology: DeviceTopology) {
    free.clear();
    free.resize(topology.channel_count() as usize, SimTime::ZERO);
    for &i in order {
        let lane = &lanes[i];
        for job in lane.load.jobs.iter() {
            serve(free, topology.channel_for(job.sig, lane.load.stripe), lane.arrival, job.service);
        }
    }
}

/// The closed form of an unbatched prediction (see the module docs): lanes
/// arriving after the candidate's arrival `a` are skipped, lanes arriving
/// before it fold into each channel's free time, and lanes arriving at `a`
/// interleave with the candidate round by round, the candidate last in
/// each round. Equal to the simulator without a window, bit for bit.
fn fold_predict(
    arena: &mut LaneArena,
    lanes: &[Lane],
    cutoff: Option<SimTime>,
    load: &EngagementLoad,
    topology: DeviceTopology,
) -> SimTime {
    let LaneArena { by_arrival, free, .. } = arena;
    let a = load.arrival;
    index_by_arrival(by_arrival, lanes, cutoff.map_or(a, |c| c.min(a)));
    let tied = by_arrival.partition_point(|&i| lanes[i].arrival < a);
    fold_lanes(free, lanes, &by_arrival[..tied], topology);
    let co_arrived = &by_arrival[tied..];
    let mut round = 0;
    let io_ends: Vec<Option<SimTime>> = load
        .jobs
        .iter()
        .map(|job| {
            job.map(|job| {
                for &i in co_arrived {
                    if let Some(theirs) = lanes[i].load.jobs.get(round) {
                        let c = topology.channel_for(theirs.sig, lanes[i].load.stripe);
                        serve(free, c, a, theirs.service);
                    }
                }
                round += 1;
                serve(free, topology.channel_for(job.sig, load.stripe), a, job.service)
            })
        })
        .collect();
    contended_makespan(a, &io_ends, load.comp)
}

/// The grouping behind a batched prediction: the IO scheduler's pick loop,
/// [`IoSharing::pick`], over the lanes arriving by `cutoff` (all of them
/// for `None`) and then the candidate, every job queued up front. Leaves
/// the reads in `arena.reads`, in dispatch order, and hands each dispatch's
/// lane, members and read to `on_dispatch`. Fully queued means delivered
/// at once, so each participant with a job left re-enters the turn queue
/// as soon as it is picked, members first, as the scheduler delivers them.
fn group_rounds(
    arena: &mut LaneArena,
    lanes: &[Lane],
    cutoff: Option<SimTime>,
    load: &EngagementLoad,
    sharing: IoSharing,
    topology: DeviceTopology,
    mut on_dispatch: impl FnMut(usize, &[usize], &Read),
) {
    let LaneArena { candidate, heads, turn, members, reads, .. } = arena;
    candidate.clear();
    candidate.extend(load.jobs.iter().enumerate().filter_map(|(k, j)| j.map(|j| (k, j))));
    // Per lane, its next job and its cursor. A lane arriving after the
    // cutoff starts past its last job, so it neither turns nor joins.
    heads.clear();
    heads.extend(lanes.iter().map(|l| {
        let next = if cutoff.is_none_or(|c| l.arrival <= c) { 0 } else { l.load.jobs.len() };
        (next, l.arrival)
    }));
    heads.push((0, load.arrival));
    reads.clear();
    reads.reserve(
        heads.iter().zip(lanes).map(|(h, l)| l.load.jobs.len() - h.0).sum::<usize>()
            + candidate.len(),
    );
    let candidate_id = lanes.len();
    let mut queued = Queued { lanes, load, candidate, heads };
    turn.clear();
    turn.extend((0..=candidate_id).filter(|&e| queued.head(e).is_some()));
    while let Some(picked) = sharing.pick(topology, &mut queued, turn, None, members) {
        let e = picked.leader;
        let rides = e == candidate_id || members.contains(&candidate_id);
        let dispatched = Read {
            arrival: picked.arrival,
            channel: picked.device_channel,
            service: queued.job(e, queued.heads[e].0 - 1).expect("the leader's job").service,
            candidate_layer: rides.then(|| candidate[queued.heads[candidate_id].0 - 1].0),
        };
        on_dispatch(e, members, &dispatched);
        reads.push(dispatched);
        turn.extend(members.iter().chain([&e]).filter(|&&m| queued.head(m).is_some()));
    }
}

/// A batched prediction's lanes, every job queued up front: lane `e` of
/// `lanes` (token order), or the candidate at `lanes.len()`, with its next
/// job and its cursor at `heads[e]`.
struct Queued<'a> {
    lanes: &'a [Lane<'a>],
    load: &'a EngagementLoad,
    candidate: &'a [(usize, LayerIoJob)],
    heads: &'a mut [(usize, SimTime)],
}

impl Queued<'_> {
    /// Lane `e`'s job `i`.
    fn job(&self, e: usize, i: usize) -> Option<&LayerIoJob> {
        match self.lanes.get(e) {
            Some(lane) => lane.load.jobs.get(i),
            None => self.candidate.get(i).map(|(_, j)| j),
        }
    }
}

impl PickLanes for Queued<'_> {
    type Key = usize;
    type Content = LayerIoJob;

    fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.heads.len()
    }

    /// The window is tested on the lane's opening arrival, never on its
    /// raised cursor.
    fn head(&self, e: usize) -> Option<LaneRead<'_, LayerIoJob>> {
        let job = self.job(e, self.heads[e].0)?;
        let (stripe, arrival) = match self.lanes.get(e) {
            Some(lane) => (lane.load.stripe, lane.arrival),
            None => (self.load.stripe, self.load.arrival),
        };
        Some(LaneRead { content: job, stripe, arrival })
    }

    /// The signature the plan priced: its layer request's content signature.
    fn sig(job: &LayerIoJob) -> u64 {
        job.sig
    }

    fn take(&mut self, e: usize) -> SimTime {
        self.heads[e].0 += 1;
        self.heads[e].1
    }

    fn raise(&mut self, e: usize, arrival: SimTime) {
        self.heads[e].1 = arrival;
    }
}

/// A batched prediction: the grouping's reads, each channel served FIFO by
/// `(arrival, submission)` through [`serve`], which keeps channels apart,
/// so one sort orders them all. The candidate's completions are those of
/// the reads it rides.
fn batched_predict(
    arena: &mut LaneArena,
    lanes: &[Lane],
    cutoff: Option<SimTime>,
    load: &EngagementLoad,
    sharing: IoSharing,
    topology: DeviceTopology,
) -> SimTime {
    group_rounds(arena, lanes, cutoff, load, sharing, topology, |_, _, _| {});
    let LaneArena { by_arrival, free, reads, .. } = arena;
    by_arrival.clear();
    by_arrival.extend(0..reads.len());
    by_arrival.sort_unstable_by_key(|&i| (reads[i].arrival, i));
    free.clear();
    free.resize(topology.channel_count() as usize, SimTime::ZERO);
    let mut io_ends = vec![None; load.jobs.len()];
    for &i in by_arrival.iter() {
        let Read { arrival, channel, service, candidate_layer } = reads[i];
        let done = serve(free, channel, arrival, service);
        if let Some(layer) = candidate_layer {
            io_ends[layer] = Some(done);
        }
    }
    contended_makespan(load.arrival, &io_ends, load.comp)
}

/// When every device channel has served every job of the lanes arriving by
/// `cutoff`: the device goes idle when its slowest channel does. Drains
/// never batch, so this is the closed form's fold with nothing after it, in
/// either sharing mode.
fn drain_by(
    arena: &mut LaneArena,
    lanes: &[Lane],
    cutoff: SimTime,
    topology: DeviceTopology,
) -> SimTime {
    #[cfg(test)]
    if tests::oracle_on() {
        return tests::simulated_drain(lanes, cutoff, topology);
    }
    let LaneArena { by_arrival, free, .. } = arena;
    index_by_arrival(by_arrival, lanes, cutoff);
    fold_lanes(free, lanes, by_arrival, topology);
    free.iter().copied().fold(SimTime::ZERO, SimTime::max)
}

/// The two-phase minimal-delay search over a lane set (the engine behind
/// [`ServingMix::min_delay`] and the gate walk), probing the predictor
/// dozens of times against the same lanes through one [`LaneArena`]:
///
/// 1. Against the lanes already in the candidate's window (arrivals at or
///    before its own), the prediction is non-increasing in the delay and
///    bottoms out at the backlog's drain time — a binary search finds the
///    threshold.
/// 2. If that delay lands the candidate inside a later-arriving lane's
///    window, the full prediction can exceed the SLO again; the search
///    climbs to the drain point of everything arrived by the delayed
///    arrival, re-checking, until the prediction fits or `max_delay`
///    binds. The returned delay's prediction is always verified to meet
///    the SLO.
#[allow(clippy::too_many_arguments)]
fn min_delay_over_lanes_in(
    arena: &mut LaneArena,
    lanes: &[Lane],
    load: &EngagementLoad,
    sharing: IoSharing,
    topology: DeviceTopology,
    slo: SimTime,
    max_delay: SimTime,
) -> Result<(SimTime, SimTime), SimTime> {
    let predict = |arena: &mut LaneArena, cutoff, delay| {
        predict_over_lanes_in(arena, lanes, cutoff, &load.delayed(delay), sharing, topology)
    };
    let now = predict(arena, None, SimTime::ZERO);
    if now <= slo {
        return Ok((SimTime::ZERO, now));
    }
    // Phase 1: monotone search against the already-arrived backlog, the
    // lanes arriving by the candidate's own arrival.
    let early = Some(load.arrival);
    let cap =
        drain_by(arena, lanes, load.arrival, topology).saturating_sub(load.arrival).min(max_delay);
    if predict(arena, early, cap) > slo {
        return Err(predict(arena, None, cap));
    }
    // Smallest delay in [0, cap] whose early-backlog prediction meets the
    // SLO; invariant: the early prediction at `hi` meets the SLO.
    let (mut lo, mut hi) = (0u64, cap.as_us());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if predict(arena, early, SimTime::from_us(mid)) <= slo {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // Phase 2: climb past any later-arriving windows the delay landed in.
    let mut delay = SimTime::from_us(hi);
    loop {
        let predicted = predict(arena, None, delay);
        if predicted <= slo {
            return Ok((delay, predicted));
        }
        let next =
            drain_by(arena, lanes, load.arrival + delay, topology).saturating_sub(load.arrival);
        if next <= delay || next > max_delay {
            return Err(predicted);
        }
        delay = next;
    }
}

/// Re-selects a plan's preload set for a mix: layers whose full streamed
/// signature an in-window co-resident already streams score ~0 (the batch
/// fan-out delivers them anyway) and are never preloaded; the budget goes
/// to un-shared layers instead, in layer order. Returns the re-predicted
/// plan plus the bytes moved off shared coverage, or `None` when the
/// sharing-aware selection coincides with the plan's own (nothing shared,
/// or the prefix already sat entirely on un-shared layers).
///
/// Shared layers are skipped *entirely* rather than partially preloaded: a
/// partial preload changes the layer's request signature, which would break
/// the very batch match that made the layer cheap.
pub fn reallocate_preload_for_mix(
    hw: &HwProfile,
    plan: &ExecutionPlan,
    shared_sigs: &HashSet<u64>,
) -> Option<(ExecutionPlan, u64)> {
    if plan.preload.is_empty() || shared_sigs.is_empty() {
        return None;
    }
    let covered: Vec<bool> = plan
        .layers
        .iter()
        .map(|pl| shared_sigs.contains(&content_sig(pl.layer, pl.items())))
        .collect();
    if !covered.iter().any(|&c| c) {
        return None;
    }
    let budget = plan.preload_budget_bytes;
    let mut used = 0u64;
    let mut selection: Vec<(ShardId, Bitwidth)> = Vec::new();
    'outer: for (pl, &cov) in plan.layers.iter().zip(&covered) {
        if cov {
            continue;
        }
        for (slice, bw) in pl.items() {
            let bytes = hw.shard_bytes(bw);
            if used + bytes > budget {
                break 'outer;
            }
            used += bytes;
            selection.push((ShardId::new(pl.layer, slice), bw));
        }
    }
    if selection == plan.preload {
        return None;
    }
    let freed: u64 = plan
        .preload
        .iter()
        .filter(|entry| !selection.contains(entry))
        .map(|&(_, bw)| hw.shard_bytes(bw))
        .sum();
    Some((replan_with_preload(hw, plan, selection), freed))
}

/// A rung's `|S|` placement in [`plan_for_slo_mix`].
enum Placement {
    Default,
    Reallocated(ExecutionPlan, u64),
    Zero,
}

/// Target-latency search ladder, as fractions of the SLO in per-mille.
/// Descending, so the first hit is the highest-FLOPs plan that fits: the
/// search keeps `|S|` at the session's memory grant (preload only ever
/// shortens latency) and walks `T` down until the contended prediction
/// meets the SLO. If even the smallest rung misses, the least-bad plan is
/// returned with `meets_slo: false`.
const TARGET_LADDER_PER_MILLE: [u64; 12] =
    [1000, 800, 650, 500, 400, 300, 220, 160, 120, 80, 50, 30];

/// The ladder's rung at `per_mille` of `slo`, at least 1 µs. The product
/// is taken in `u128`, so any SLO has a rung (never above `slo` itself).
fn ladder_rung(slo: SimTime, per_mille: u64) -> SimTime {
    let us = u128::from(slo.as_us()) * u128::from(per_mille) / 1000;
    SimTime::from_us(u64::try_from(us).expect("a rung is at most the SLO").max(1))
}

/// The mix-aware SLO search: walks the target ladder (plan each descending
/// `T` with the unmodified two-stage planner, stop at the first rung whose
/// contended prediction meets the SLO), scores every rung with
/// [`ServingMix::predict`] and — under
/// [`PreloadPolicy::SharingAware`] — ranks three `|S|` placements per rung
/// by their marginal contended latency under the mix:
///
/// 1. the default byte-prefix plan;
/// 2. [`reallocate_preload_for_mix`]: the budget moved off layers an
///    in-window co-resident streams, onto un-shared layers;
/// 3. the zero-`|S|` allocation, whose request stream is byte-identical to
///    zero-preload co-residents' and therefore rides their batches for
///    free (spending the buffer would only desynchronize it).
///
/// The placement with the strictly lowest predicted contended latency wins
/// (ties keep the earlier candidate, so `PerSession` behaviour is the
/// fixed point when sharing buys nothing). The winning rung's
/// `preload_bytes_reallocated` records how many default-prefix bytes the
/// mix-aware placement moved or freed.
///
/// # The device-channel placement axis
///
/// On a multi-channel [`DeviceTopology`] every rung additionally ranks the
/// candidate's *stripe offset* `0..C` — which device channels its layer
/// requests stripe across ([`CoRunnerLoad::from_plan_striped`]) —
/// alongside the `|S|` placements, under the same contended prediction and
/// the same strict-improvement tie-break (lowest stripe wins ties, so
/// `C = 1` degenerates to today's stripe-0 search bit-identically). A
/// stripe that routes the candidate around a crowded channel admits at
/// targets the legacy single-channel search had to reject; the winner is
/// recorded in [`ServingPlan::stripe`] for the session to place its lane
/// with.
#[allow(clippy::too_many_arguments)]
pub fn plan_for_slo_mix(
    hw: &HwProfile,
    importance: &ImportanceProfile,
    slo: SimTime,
    arrival: SimTime,
    mix: &ServingMix,
    policy: PreloadPolicy,
    preload_bytes: u64,
    widths: &[usize],
    bitwidths: &[Bitwidth],
) -> ServingPlan {
    let lanes = mix.raw_lanes();
    // Per candidate stripe, the signatures its reads would share.
    let shared: Vec<Option<HashSet<u64>>> = (0..mix.topology().channel_count())
        .map(|stripe| {
            (policy == PreloadPolicy::SharingAware)
                .then(|| mix.streamed_sigs_in_window(arrival, stripe))
                .filter(|sigs| !sigs.is_empty())
        })
        .collect();
    let mut best: Option<ServingPlan> = None;
    let mut seen_target = SimTime::ZERO;
    for per_mille in TARGET_LADDER_PER_MILLE {
        let target = ladder_rung(slo, per_mille);
        if target == seen_target {
            continue;
        }
        seen_target = target;
        let plan_at = |bytes| plan_two_stage(hw, importance, target, bytes, widths, bitwidths);
        let default = plan_at(preload_bytes);
        let default_preload_bytes: u64 =
            default.preload.iter().map(|&(_, bw)| hw.shard_bytes(bw)).sum();
        // Stripe by stripe: default, reallocated, zero-|S|; a later one wins only if lower.
        let (mut zero, mut winner) = (None, None::<(SimTime, u16, Placement)>);
        for stripe in 0..mix.topology().channel_count() {
            let predict = |plan: &ExecutionPlan| {
                let load = EngagementLoad::from_plan_striped(hw, plan, arrival, stripe);
                mix.predict_over(&lanes, &load)
            };
            let mut offer = |predicted: SimTime, placement: Placement| {
                if winner.as_ref().is_none_or(|&(best, ..)| predicted < best) {
                    winner = Some((predicted, stripe, placement));
                }
            };
            offer(predict(&default), Placement::Default);
            let Some(sigs) = &shared[stripe as usize] else { continue };
            if let Some((moved, freed)) = reallocate_preload_for_mix(hw, &default, sigs) {
                offer(predict(&moved), Placement::Reallocated(moved, freed));
            }
            if preload_bytes > 0 && default_preload_bytes > 0 {
                offer(predict(zero.get_or_insert_with(|| plan_at(0))), Placement::Zero);
            }
        }
        let (predicted, stripe, placement) = winner.expect("stripe 0 offers the default");
        let (plan, preload_bytes_reallocated) = match placement {
            Placement::Default => (default, 0),
            Placement::Reallocated(plan, freed) => (plan, freed),
            Placement::Zero => (zero.expect("the zero-|S| plan won"), default_preload_bytes),
        };
        let rung = ServingPlan {
            plan,
            slo,
            co_runners: mix.co_runners(),
            target,
            preload_bytes,
            predicted_contended: predicted,
            meets_slo: predicted <= slo,
            preload_bytes_reallocated,
            stripe,
        };
        if rung.meets_slo {
            return rung;
        }
        if best.as_ref().is_none_or(|b| rung.predicted_contended < b.predicted_contended) {
            best = Some(rung);
        }
    }
    best.expect("the target ladder is non-empty")
}

#[cfg(test)]
// The queue simulator is this module's oracle and nothing else.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::serving::align_io_completions;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use sti_device::{DeviceProfile, FlashJob, TopologyQueueSim};
    use sti_quant::QuantConfig;
    use sti_transformer::ModelConfig;

    thread_local! {
        /// Set by [`oracle`]: this thread's predictions and drains run the
        /// simulator in every sharing mode.
        static ORACLE: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn oracle_on() -> bool {
        ORACLE.with(Cell::get)
    }

    /// `work` with every prediction and drain priced by the simulator: the
    /// reference the folds must equal. Test threads are not shared, so the
    /// switch reaches no other test.
    fn oracle<T>(work: impl FnOnce() -> T) -> T {
        ORACLE.with(|on| on.set(true));
        let out = work();
        ORACLE.with(|on| on.set(false));
        out
    }

    #[test]
    fn ladder_rungs_are_exact_below_the_old_overflow_and_exist_for_any_slo() {
        let max = SimTime::from_us(u64::MAX);
        assert_eq!(ladder_rung(max, 1000), max);
        assert_eq!(ladder_rung(max, 30).as_us(), (u128::from(u64::MAX) * 30 / 1000) as u64);
        for per_mille in TARGET_LADDER_PER_MILLE {
            let slo = SimTime::from_us(u64::MAX / 1000);
            assert_eq!(
                ladder_rung(slo, per_mille).as_us(),
                (slo.as_us() * per_mille / 1000).max(1)
            );
        }
        assert_eq!(ladder_rung(SimTime::from_us(1), 30), SimTime::from_us(1));
    }

    /// The prediction as the simulator prices it: the reads of the same
    /// round grouping, each submitted at its arrival on its device channel,
    /// and the candidate's completions merged in `(arrival, seq)` order.
    pub(super) fn simulated_predict(
        arena: &mut LaneArena,
        lanes: &[Lane],
        cutoff: Option<SimTime>,
        load: &EngagementLoad,
        sharing: IoSharing,
        topology: DeviceTopology,
    ) -> SimTime {
        group_rounds(arena, lanes, cutoff, load, sharing, topology, |_, _, _| {});
        let mut sim = TopologyQueueSim::new(topology);
        for read in &arena.reads {
            sim.submit_on(
                read.channel,
                FlashJob {
                    engagement: read.candidate_layer.is_some() as u64,
                    arrival: read.arrival,
                    service: read.service,
                },
            );
        }
        let completions = sim.run().completions_of(1);
        let io_ends = align_io_completions(&load.jobs, completions.iter().map(|c| c.completion))
            .expect("the simulator served one read per streamed layer");
        contended_makespan(load.arrival, &io_ends, load.comp)
    }

    /// The drain as the simulator prices it: every job of the lanes
    /// arriving by `cutoff`, submitted at its lane's arrival on its device
    /// channel.
    pub(super) fn simulated_drain(
        lanes: &[Lane],
        cutoff: SimTime,
        topology: DeviceTopology,
    ) -> SimTime {
        let mut sim = TopologyQueueSim::new(topology);
        for (e, l) in lanes.iter().enumerate().filter(|(_, l)| l.arrival <= cutoff) {
            for j in l.load.jobs.iter() {
                sim.submit_on(
                    topology.channel_for(j.sig, l.load.stripe),
                    FlashJob { engagement: e as u64, arrival: l.arrival, service: j.service },
                );
            }
        }
        sim.run().makespan()
    }

    /// Arrival slots are 40 µs apart, so a handful of them makes ties
    /// common.
    const SLOT_US: u64 = 40;

    /// Service times are whole multiples of this, so drawn jobs often match
    /// in both signature and service, and batch.
    const SERVICE_US: u64 = 30;

    fn job((sig, services): (u64, u64)) -> LayerIoJob {
        LayerIoJob { sig, service: SimTime::from_us(services * SERVICE_US) }
    }

    /// A drawn co-runner: `(arrival slot, stripe, [(sig, services)])`.
    type Drawn = (u64, u16, Vec<(u64, u64)>);

    /// Co-runner loads from drawn ones.
    fn loads_of(drawn: &[Drawn]) -> Vec<CoRunnerLoad> {
        drawn
            .iter()
            .map(|(slot, stripe, jobs)| CoRunnerLoad {
                arrival: SimTime::from_us(slot * SLOT_US),
                jobs: jobs.iter().copied().map(job).collect(),
                stripe: *stripe,
            })
            .collect()
    }

    /// A candidate from drawn `[(kind, sig, services)]` layers (kind 0 is a
    /// preload-covered `None` layer), a compute delay, an arrival slot and
    /// a stripe.
    fn candidate_of(
        layers: &[(u8, u64, u64)],
        comp_us: u64,
        slot: u64,
        stripe: u16,
    ) -> EngagementLoad {
        EngagementLoad {
            jobs: layers
                .iter()
                .map(|&(kind, sig, services)| (kind > 0).then(|| job((sig, services))))
                .collect(),
            comp: SimTime::from_us(comp_us),
            arrival: SimTime::from_us(slot * SLOT_US),
            stripe,
        }
    }

    const TOPOLOGIES: [u16; 3] = [1, 2, 4];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both folds against the simulator, compared with `==`: predictions
        /// with and without the delay search's early cutoff (the candidate
        /// also delayed onto every lane's arrival), drains at every arrival,
        /// and the delay search, on one, two and four device channels. Each
        /// runs unbatched and under two drawn windows: one below the slot
        /// spacing, so groups form only at tied arrivals, and one spanning
        /// several slots, so they also form across lanes opened apart. Lanes
        /// and the candidate draw their stripes, so reads of one content
        /// meet on a channel from two stripes too. The candidate is the
        /// last lane, so it is a non-leading member of every group it
        /// shares on its first turn.
        #[test]
        fn any_lane_set_predicts_drains_and_searches_as_the_simulator_does(
            drawn in proptest::collection::vec(
                (0u64..6, 0u16..4, proptest::collection::vec((0u64..8, 1u64..4), 0..13)),
                0..10,
            ),
            layers in proptest::collection::vec((0u8..3, 0u64..8, 1u64..4), 0..13),
            knobs in (0u64..60, 0u64..6, 0u64..4_000, 0u64..4_000),
            windows in (0u64..SLOT_US, 2 * SLOT_US..6 * SLOT_US, 0u16..4),
        ) {
            let (comp_us, slot, slo_us, max_us) = knobs;
            let stripe = windows.2;
            let loads = loads_of(&drawn);
            let lanes: Vec<Lane> = loads.iter().map(|l| Lane { arrival: l.arrival, load: l }).collect();
            let load = candidate_of(&layers, comp_us, slot, stripe);
            let (slo, max) = (SimTime::from_us(slo_us), SimTime::from_us(max_us));
            let mut arrivals: Vec<SimTime> = lanes.iter().map(|l| l.arrival).collect();
            arrivals.push(load.arrival);
            let (narrow, wide) = (SimTime::from_us(windows.0), SimTime::from_us(windows.1));
            for channels in TOPOLOGIES {
                let topology = DeviceTopology::with_channels(channels);
                let arena = &mut LaneArena::default();
                for &cutoff in &arrivals {
                    let want = simulated_drain(&lanes, cutoff, topology);
                    prop_assert_eq!(drain_by(arena, &lanes, cutoff, topology), want);
                }
                for sharing in
                    [IoSharing::Exclusive, IoSharing::Batched(narrow), IoSharing::Batched(wide)]
                {
                    let predict = |arena: &mut LaneArena, cutoff, load: &EngagementLoad| {
                        predict_over_lanes_in(arena, &lanes, cutoff, load, sharing, topology)
                    };
                    let want = oracle(|| predict(arena, None, &load));
                    prop_assert_eq!(predict(arena, None, &load), want);
                    for &at in arrivals.iter().filter(|&&at| at >= load.arrival) {
                        let delayed = load.delayed(at - load.arrival);
                        for cutoff in [None, Some(load.arrival)] {
                            let want = oracle(|| predict(arena, cutoff, &delayed));
                            prop_assert_eq!(predict(arena, cutoff, &delayed), want);
                        }
                    }
                    let search = |arena: &mut LaneArena| {
                        min_delay_over_lanes_in(arena, &lanes, &load, sharing, topology, slo, max)
                    };
                    let want = oracle(|| search(arena));
                    prop_assert_eq!(search(arena), want);
                }
            }
        }

        /// The whole gate walk, queue and shed, in both sharing modes,
        /// against the simulator: sessions at tied and distinct arrivals,
        /// some carrying an SLO (their profiles lead with a preload-covered
        /// layer when drawn so).
        #[test]
        fn any_registry_gates_as_the_simulator_does(
            drawn in proptest::collection::vec(
                (0u64..6, 0u16..4, proptest::collection::vec((0u64..8, 1u64..4), 0..13)),
                0..10,
            ),
            slos in proptest::collection::vec((0u8..3, 0u64..3_000), 10..11),
            knobs in (0u64..60, 0u64..3_000),
        ) {
            let (comp_us, max_us) = knobs;
            for channels in TOPOLOGIES {
                for sharing in [IoSharing::Exclusive, IoSharing::Batched(SimTime::from_us(SLOT_US))]
                {
                    let topology = DeviceTopology::with_channels(channels);
                    let mut mix = ServingMix::new(sharing).with_topology(topology);
                    for (token, (load, &(kind, slo_us))) in
                        loads_of(&drawn).into_iter().zip(&slos).enumerate()
                    {
                        let profile = (kind > 0).then(|| SloProfile {
                            jobs: (kind == 2)
                                .then_some(None)
                                .into_iter()
                                .chain(load.jobs.iter().copied().map(Some))
                                .collect(),
                            comp: SimTime::from_us(comp_us),
                            slo: SimTime::from_us(slo_us),
                        });
                        mix.push_session(token as u64, load, profile);
                    }
                    for mode in [BackpressureMode::Queue(SimTime::from_us(max_us)), BackpressureMode::Shed] {
                        let want = oracle(|| mix.gate_all(mode));
                        prop_assert_eq!(mix.gate_all(mode), want);
                    }
                }
            }
        }
    }

    /// Both folds against the simulator at the `fleet_admit` shape: 2 000
    /// sessions on four device channels arriving 100 ms apart, eight live
    /// SLO sessions below 1 s, and an SLO candidate admitted among them;
    /// unbatched, and batched under `burst_shared`'s 2 ms window. Seconds
    /// in release, far longer unoptimised.
    #[test]
    #[ignore = "run under --release with --ignored"]
    fn the_fleet_admit_shape_admits_and_gates_as_the_simulator_does() {
        let hw = HwProfile::measure(
            &DeviceProfile::odroid_n2(),
            &ModelConfig::scaled_bert(),
            &QuantConfig::default(),
        );
        let scores = (0..144).map(|i| 0.5 + (i % 7) as f64 * 0.01).collect();
        let importance = ImportanceProfile::from_scores(12, 12, scores, 0.48);
        let (widths, preload) = ([3, 6, 9, 12], 16 << 10);
        let plans: Vec<ExecutionPlan> = (160..=240)
            .map(|ms| {
                let target = SimTime::from_ms(ms);
                plan_two_stage(&hw, &importance, target, preload, &widths, &Bitwidth::ALL)
            })
            .collect();
        for sharing in [IoSharing::Exclusive, IoSharing::Batched(SimTime::from_ms(2))] {
            let mut mix = ServingMix::new(sharing).with_topology(DeviceTopology::with_channels(4));
            for token in 0..2_000u64 {
                let plan = &plans[(token * 7 % 81) as usize];
                let arrival = SimTime::from_ms(token * 100);
                let load = CoRunnerLoad::from_plan_striped(&hw, plan, arrival, (token % 4) as u16);
                mix.push_session(token, load, None);
            }
            // Two of the eight land exactly on a fleet session's arrival
            // (the first on the session it batches with), and SLOs of
            // 180–320 ms leave the walk delays, sheds and re-gates.
            for k in 0..8u64 {
                let (plan, stripe) = (&plans[(k * 13 % 81) as usize], (k % 4) as u16);
                let arrival = SimTime::from_us(k * 125_000);
                let slo = SimTime::from_ms(180 + k * 20);
                let load = CoRunnerLoad::from_plan_striped(&hw, plan, arrival, stripe);
                mix.push_session(2_000 + k, load, Some(SloProfile::from_plan(&hw, plan, slo)));
            }
            for (arrival_us, slo_ms) in [(300_000, 500), (437_512, 750), (900_000, 1_000)] {
                let (arrival, slo) = (SimTime::from_us(arrival_us), SimTime::from_ms(slo_ms));
                let search = || {
                    plan_for_slo_mix(
                        &hw,
                        &importance,
                        slo,
                        arrival,
                        &mix,
                        PreloadPolicy::PerSession,
                        preload,
                        &widths,
                        &Bitwidth::ALL,
                    )
                };
                assert_eq!(search(), oracle(search), "{sharing:?}: admission at {arrival_us} µs");
            }
            for mode in [BackpressureMode::Queue(SimTime::from_ms(200)), BackpressureMode::Shed] {
                let walk = mix.gate_all(mode);
                assert_eq!(walk.len(), 8);
                assert_eq!(walk, oracle(|| mix.gate_all(mode)), "{sharing:?}: {mode:?}");
            }
        }
    }

    /// A hand-built session: one job whose signature and service time, the
    /// arrival and the optional gate profile all derive from `x`, so a
    /// refresh with a different `x` moves every field the sub-digest reads.
    fn session(x: u64) -> (CoRunnerLoad, Option<SloProfile>) {
        let job = LayerIoJob { sig: x ^ 0x5bd1, service: SimTime::from_us(40 + x % 7) };
        let load = CoRunnerLoad {
            arrival: SimTime::from_us(x % 500),
            jobs: Arc::from([job]),
            stripe: (x % 4) as u16,
        };
        let slo = x.is_multiple_of(3).then(|| SloProfile {
            jobs: Arc::from([Some(job)]),
            comp: SimTime::from_us(5),
            slo: SimTime::from_ms(1 + x % 9),
        });
        (load, slo)
    }

    /// Two sessions on one plan read the same jobs; on two stripes they
    /// are read on other channels and batch with other sessions, so the
    /// gate memo must not take one registry for the other.
    #[test]
    fn the_digest_tells_one_plan_on_two_stripes_apart() {
        let hw = HwProfile::measure(
            &DeviceProfile::odroid_n2(),
            &ModelConfig::tiny(),
            &QuantConfig::default(),
        );
        let importance = ImportanceProfile::from_scores(
            2,
            4,
            (0..8).map(|i| 0.5 + i as f64 * 0.01).collect(),
            0.45,
        );
        let plan =
            plan_two_stage(&hw, &importance, SimTime::from_ms(300), 0, &[2, 4], &Bitwidth::ALL);
        let digest = |stripe| {
            let sharing = IoSharing::Batched(SimTime::from_ms(1));
            let mut mix = ServingMix::new(sharing).with_topology(DeviceTopology::with_channels(2));
            let load = CoRunnerLoad::from_plan_striped(&hw, &plan, SimTime::ZERO, stripe);
            mix.push_session(0, load, Some(SloProfile::from_plan(&hw, &plan, SimTime::from_ms(1))));
            mix.digest()
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(0), digest(1), "the same plan on another stripe is another mix");
    }

    fn rebuilt(survivors: &BTreeMap<u64, u64>, topology: DeviceTopology) -> ServingMix {
        let mut mix = ServingMix::new(IoSharing::Exclusive).with_topology(topology);
        for (&token, &x) in survivors {
            let (load, slo) = session(x);
            mix.push_session(token, load, slo);
        }
        mix
    }

    /// Applies one registry op to `mix` and to the `BTreeMap` oracle of the
    /// survivors (token → the `x` its session was built from): 0 pushes, 1
    /// upserts, anything else removes.
    fn apply(mix: &mut ServingMix, survivors: &mut BTreeMap<u64, u64>, op: u8, token: u64, x: u64) {
        let (load, slo) = session(x);
        match op {
            0 => mix.push_session(token, load, slo),
            1 => mix.upsert_session(token, load, slo),
            _ => assert_eq!(mix.remove_session(token), survivors.contains_key(&token)),
        }
        if op < 2 {
            survivors.insert(token, x);
        } else {
            survivors.remove(&token);
        }
    }

    /// The slot vector's own bounds: its tombstone count is the number of
    /// dead slots, and it never holds more than twice as many slots as
    /// live sessions.
    fn assert_slot_bounds(mix: &ServingMix) {
        let dead = mix.slots.iter().filter(|s| s.live().is_none()).count();
        assert_eq!(mix.tombstones, dead);
        assert!(
            mix.slots.len() <= 2 * mix.co_runners(),
            "{} slots hold {} sessions",
            mix.slots.len(),
            mix.co_runners()
        );
    }

    /// `mix` against the oracle: token order, count, digest and value equal
    /// a from-scratch rebuild of the survivors, and a clone equals it
    /// holding no tombstone, in an allocation of exactly the live count.
    fn assert_matches(mix: &ServingMix, survivors: &BTreeMap<u64, u64>, topology: DeviceTopology) {
        assert_slot_bounds(mix);
        assert!(mix.sessions().map(|s| s.token).eq(survivors.keys().copied()));
        assert_eq!(mix.co_runners(), survivors.len());
        let rebuilt = rebuilt(survivors, topology);
        assert_eq!(mix.digest(), rebuilt.digest());
        assert_eq!(*mix, rebuilt);
        let clone = mix.clone();
        assert_eq!(clone, *mix);
        assert_eq!(clone.tombstones, 0);
        assert_eq!((clone.slots.len(), clone.slots.capacity()), (survivors.len(), survivors.len()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Insert / refresh / remove in arbitrary token order (so pushes
        /// land before, between and after the sessions already held, and
        /// revive tombstones) keep the registry in token order and its
        /// rolling digest equal to a from-scratch rebuild of the survivors,
        /// on one channel and four: up to 200 ops over 64 tokens, half of
        /// them removals, then a teardown, so sequences compact both when
        /// tombstones pass half the slots and when an open finds the vector
        /// full.
        #[test]
        fn any_op_order_keeps_token_order_and_the_rebuild_digest(
            ops in proptest::collection::vec((0u8..4, 0u64..64, 0u64..1_000), 1..200),
        ) {
            for topology in [DeviceTopology::single(), DeviceTopology::with_channels(4)] {
                let mut mix = ServingMix::new(IoSharing::Exclusive).with_topology(topology);
                let mut survivors: BTreeMap<u64, u64> = BTreeMap::new();
                for &(op, token, x) in &ops {
                    apply(&mut mix, &mut survivors, op, token, x);
                    assert_matches(&mix, &survivors, topology);
                }
                // Then a teardown in the ops' reverse token order, which
                // empties the registry through the compaction threshold.
                for &(_, token, x) in ops.iter().rev() {
                    apply(&mut mix, &mut survivors, 2, token, x);
                    assert_matches(&mix, &survivors, topology);
                }
                prop_assert_eq!(mix.co_runners(), 0);
            }
        }
    }

    /// The property above at scale, in release (`-- --ignored`): 10⁵
    /// seeded ops over 10⁴ tokens, inserts at random tokens (before,
    /// between and after the held ones) included. The slot bounds hold
    /// after every op, and the whole oracle every thousand.
    #[test]
    #[ignore = "run under --release with --ignored"]
    fn a_hundred_thousand_ops_keep_the_registry_equal_to_its_oracle() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = mix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            state
        };
        let topology = DeviceTopology::with_channels(4);
        let mut mix = ServingMix::new(IoSharing::Exclusive).with_topology(topology);
        let mut survivors: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..100_000u32 {
            let (op, token, x) = ((next() % 4) as u8, next() % 10_000, next() % 1_000);
            apply(&mut mix, &mut survivors, op, token, x);
            assert_slot_bounds(&mix);
            assert_eq!(mix.co_runners(), survivors.len());
            if i % 1_000 == 999 {
                assert_matches(&mix, &survivors, topology);
            }
        }
        assert_matches(&mix, &survivors, topology);
    }
}
