//! Multi-client serving traces over [`StiServer`].
//!
//! The experiment runner's single-engagement machinery answers "how good is
//! one plan"; this module answers the serving questions: how many
//! engagements per second does a device sustain as concurrent sessions
//! grow, how effective are the shared caches, and — the correctness anchor
//! — does serving N sessions at once reproduce sequential results exactly.
//!
//! A [`ServingTrace`] is a multi-client workload: each client has its own
//! latency/memory knobs, an optional latency **SLO**, and a FIFO list of
//! engagements (token sequences, each client's a range of the one row
//! store its trace shares, [`Engagements`] — drawn
//! deterministically from the task's test split by
//! [`ServingTrace::synthetic`], or replayed from a JSON file via
//! [`crate::trace_file`]). [`replay_event`] is the executor: every
//! client is a [`Component`] on one simulated clock against one shared
//! server, on one OS thread. [`replay_sequential`] is the oracle that
//! defines the uncontended track: the same trace client-by-client,
//! engagement-by-engagement. Both open every client's session **up front,
//! in client order** — so SLO admission sees the same co-runner counts
//! either way — and return per-engagement [`EngagementOutcome`]s in trace
//! order: equality between the two reports is exactly the determinism
//! contract of [`sti_pipeline::server`].
//!
//! Alongside the deterministic outcomes, the report carries the **contended
//! track**: the server's flash-queue replay ([`ContentionReport`]), SLO hit
//! rates, which clients admission control rejected, and — with a
//! [`BackpressureMode`](sti_pipeline::BackpressureMode) configured — the
//! per-engagement gate decisions (queue delays and sheds; shed engagements
//! produce no outcome in either replay, and the decisions themselves are
//! deterministic).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use sti_device::engine::{Component, ComponentId, Engine, System};
use sti_device::{HwProfile, SimTime};
use sti_obs::{MetricsSnapshot, SpanEvent};
use sti_pipeline::{
    ContentionReport, PendingEngagement, PipelineError, PrefetchReport, ServingStats, Session,
    StiServer,
};
use sti_planner::PlanCacheStats;
use sti_storage::{IoSchedulerStats, ShardCacheStats};

pub use sti_pipeline::ServeConfig;

use crate::runner::TaskContext;

/// A client's engagements: token sequences in submission order, read out
/// of the row store its trace shares.
///
/// **Memory shape.** A trace keeps each distinct token row once. One
/// immutable row store per trace, shared by `Arc`, holds the distinct rows
/// back to back in first-occurrence order, their ends, and the trace-wide
/// sequence of row ids; each client holds the store and its own range of
/// that sequence. So a trace holds four heap blocks however many clients
/// it has (the store's header and its three buffers; an empty buffer
/// allocates none), `4·distinct tokens + 4·distinct rows + 4·engagements`
/// bytes in them, and 16 B per client. The traces the workloads replay
/// repeat rows (a client re-asking a question, many clients asking it),
/// and a replay holds its input trace for its whole run. A trace that
/// repeats nothing pays one row end per engagement more than a flat buffer
/// per client would.
///
/// Rows read as `&[u32]`: by [`Engagements::get`] or indexing, or in order
/// by [`Engagements::iter`] and `for tokens in &engagements`. Collect one
/// from any iterator of token rows (`Vec<u32>`, `&[u32]`, arrays, …); it
/// then holds a store of its own. Equality is by content, whatever the
/// stores.
#[derive(Clone)]
pub struct Engagements {
    rows: Arc<RowStore>,
    /// This client's range of `rows.ids`.
    start: u32,
    end: u32,
}

impl Engagements {
    /// The engagements `range` of a finished store's sequence names.
    pub(crate) fn in_store(rows: &Arc<RowStore>, range: Range<u32>) -> Self {
        assert!(
            range.start <= range.end && range.end as usize <= rows.ids.len(),
            "a client's range lies in its trace's row ids"
        );
        Self { rows: Arc::clone(rows), start: range.start, end: range.end }
    }

    fn ids(&self) -> &[u32] {
        &self.rows.ids[self.start as usize..self.end as usize]
    }

    /// Number of engagements.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether there are no engagements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `i`-th engagement's tokens, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[u32]> {
        self.ids().get(i).map(|&id| self.rows.row(id))
    }

    /// The engagements' tokens in submission order.
    pub fn iter(&self) -> EngagementsIter<'_> {
        EngagementsIter { rows: &self.rows, ids: self.ids().iter() }
    }
}

impl std::ops::Index<usize> for Engagements {
    type Output = [u32];

    fn index(&self, i: usize) -> &[u32] {
        self.get(i).unwrap_or_else(|| {
            panic!("engagement index {i} out of range for {} engagements", self.len())
        })
    }
}

impl PartialEq for Engagements {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Engagements {}

impl fmt::Debug for Engagements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<T: AsRef<[u32]>> FromIterator<T> for Engagements {
    fn from_iter<I: IntoIterator<Item = T>>(rows: I) -> Self {
        let rows = rows.into_iter();
        let mut store = RowInterner::with_capacity(0, rows.size_hint().0);
        for row in rows {
            store.extend_row(row.as_ref());
            store
                .finish_row()
                .expect("a trace holds at most u32::MAX distinct tokens and engagements");
        }
        let range = 0..store.engagements();
        Self::in_store(&store.share(), range)
    }
}

impl<'a> IntoIterator for &'a Engagements {
    type Item = &'a [u32];
    type IntoIter = EngagementsIter<'a>;

    fn into_iter(self) -> EngagementsIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Engagements`]' rows, from [`Engagements::iter`].
#[derive(Debug, Clone)]
pub struct EngagementsIter<'a> {
    rows: &'a RowStore,
    ids: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for EngagementsIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        self.ids.next().map(|&id| self.rows.row(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for EngagementsIter<'_> {}

/// One trace's token rows, written once by a [`RowInterner`] and then
/// shared read-only by the trace's clients. Every id in `ids` names a row
/// (`< ends.len()`), and no two rows are equal.
#[derive(Debug)]
pub(crate) struct RowStore {
    /// The distinct rows' tokens, back to back in first-occurrence order.
    tokens: Box<[u32]>,
    /// `ends[r]` is where row `r` stops in `tokens`: non-decreasing, and
    /// the last one is `tokens.len()`. Row `r` starts where row `r - 1`
    /// stops (row 0 at zero).
    ends: Box<[u32]>,
    /// The trace's engagements in client order, each as its row's id.
    ids: Box<[u32]>,
}

impl RowStore {
    fn row(&self, id: u32) -> &[u32] {
        row(&self.tokens, &self.ends, id)
    }
}

/// Row `id` of the rows `ends` closes in `tokens`.
fn row<'a>(tokens: &'a [u32], ends: &[u32], id: u32) -> &'a [u32] {
    let id = id as usize;
    let start = if id == 0 { 0 } else { ends[id - 1] as usize };
    &tokens[start..ends[id] as usize]
}

/// A trace too large for a [`RowStore`]'s `u32` offsets and ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowsOverflow {
    /// More than `u32::MAX` tokens in distinct rows.
    DistinctTokens,
    /// More than `u32::MAX` engagements.
    Engagements,
}

/// Builds a [`RowStore`]: the one writer, which assigns row ids in order of
/// first occurrence, so equal inputs give byte-identical stores whatever
/// the hasher does.
///
/// Rows are found again through an open-addressing table of row ids keyed
/// by the rows' tokens in the store itself, so interning allocates no block
/// per row. A row is written at the end of the token buffer, then either
/// kept as a new row or cut off again as a repeat. Rows come from trace
/// files, so they are hashed with std's randomly keyed hasher: no file can
/// be crafted to collide.
pub(crate) struct RowInterner {
    tokens: Vec<u32>,
    ends: Vec<u32>,
    ids: Vec<u32>,
    hasher: RandomState,
    /// Row ids by hash, [`RowInterner::FREE`] where none sits: a power of
    /// two in length and at most half full, or empty before the first row.
    slots: Vec<u32>,
}

impl RowInterner {
    const FREE: u32 = u32::MAX;

    /// An empty store, sized for `tokens` tokens in `engagements` rows.
    pub(crate) fn with_capacity(tokens: usize, engagements: usize) -> Self {
        let slots = if engagements == 0 { 0 } else { (2 * engagements).next_power_of_two() };
        Self {
            tokens: Vec::with_capacity(tokens),
            ends: Vec::with_capacity(engagements),
            ids: Vec::with_capacity(engagements),
            slots: vec![Self::FREE; slots],
            hasher: RandomState::new(),
        }
    }

    /// Engagements so far: where the next row's id goes in the sequence.
    pub(crate) fn engagements(&self) -> u32 {
        self.ids.len() as u32
    }

    /// Appends a token to the row being written.
    pub(crate) fn push_token(&mut self, token: u32) {
        self.tokens.push(token);
    }

    /// Appends tokens to the row being written.
    pub(crate) fn extend_row(&mut self, row: &[u32]) {
        self.tokens.extend_from_slice(row);
    }

    /// Closes the row being written (the tokens since the last close) as
    /// the next engagement: the id of an equal earlier row, or a new row.
    pub(crate) fn finish_row(&mut self) -> Result<(), RowsOverflow> {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let start = self.ends.last().map_or(0, |&end| end as usize);
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(&self.tokens[start..]) as usize & mask;
        while self.slots[slot] != Self::FREE && self.row(self.slots[slot]) != &self.tokens[start..]
        {
            slot = (slot + 1) & mask;
        }
        let repeat = self.slots[slot] != Self::FREE;
        if repeat {
            self.tokens.truncate(start);
        }
        check_row_store(self.tokens.len(), self.ids.len() + 1)?;
        if !repeat {
            // Fewer rows than engagements, so the id is not `FREE`.
            self.slots[slot] = self.ends.len() as u32;
            self.ends.push(self.tokens.len() as u32);
        }
        self.ids.push(self.slots[slot]);
        Ok(())
    }

    /// A finished row of the store being written.
    fn row(&self, id: u32) -> &[u32] {
        row(&self.tokens, &self.ends, id)
    }

    /// Doubles the table and puts every row back.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let mask = len - 1;
        self.slots = vec![Self::FREE; len];
        for id in 0..self.ends.len() as u32 {
            let mut slot = self.hasher.hash_one(self.row(id)) as usize & mask;
            while self.slots[slot] != Self::FREE {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id;
        }
    }

    /// Publishes the store: from here on it is only read.
    pub(crate) fn share(self) -> Arc<RowStore> {
        Arc::new(RowStore {
            tokens: self.tokens.into_boxed_slice(),
            ends: self.ends.into_boxed_slice(),
            ids: self.ids.into_boxed_slice(),
        })
    }
}

/// Refuses a row store of more than `u32::MAX` tokens in distinct rows or
/// engagements, past its `u32` offsets and ids.
pub(crate) fn check_row_store(tokens: usize, engagements: usize) -> Result<(), RowsOverflow> {
    if engagements > u32::MAX as usize {
        Err(RowsOverflow::Engagements)
    } else if tokens > u32::MAX as usize {
        Err(RowsOverflow::DistinctTokens)
    } else {
        Ok(())
    }
}

/// One client's slice of a trace: its knobs and its engagements in order.
///
/// A client holds no heap block of its own: its [`Engagements`] are a range
/// of the row store its whole trace shares.
#[derive(Debug, Clone)]
pub struct ClientTrace {
    /// The client's target latency.
    pub target: SimTime,
    /// The client's preload budget in bytes.
    pub preload_bytes: u64,
    /// The client's latency SLO: `Some` opens the session through the
    /// SLO-aware planner and admission control, `None` through the plain
    /// target-latency path.
    pub slo: Option<SimTime>,
    /// The client's arrival offset on the simulated timeline (from a trace
    /// file's `arrival_us`; zero when unspecified). Contended-track only:
    /// the flash queue replays this client's requests from its real
    /// arrival, and shared-IO batching coalesces only clients arriving
    /// within the batch window of each other.
    pub arrival: SimTime,
    /// Simulated think time between this client's engagements (from a
    /// trace file's `idle_us`; zero when unspecified). Contended-track
    /// only: the n-th engagement issues no earlier than `arrival + n·idle`
    /// on the flash timeline, opening idle device windows that a
    /// configured prefetcher fills with speculative stages. Zero keeps
    /// the legacy back-to-back issue schedule bit-identical.
    pub idle: SimTime,
    /// Token sequences to classify, in submission order.
    pub engagements: Engagements,
}

/// A multi-client workload.
#[derive(Debug, Clone)]
pub struct ServingTrace {
    /// Per-client traces; index is the client id.
    pub clients: Vec<ClientTrace>,
}

impl ServingTrace {
    /// Builds a deterministic synthetic trace: `sessions` clients, each
    /// with `engagements` token sequences drawn round-robin from the task's
    /// test split, all sharing the config's default knobs.
    pub fn synthetic(
        ctx: &TaskContext,
        cfg: &ServeConfig,
        sessions: usize,
        engagements: usize,
    ) -> Self {
        let examples = ctx.task().test().examples();
        assert!(!examples.is_empty(), "task has no test examples to replay");
        let row = |i: usize| examples[i % examples.len()].tokens.as_slice();
        let total = sessions * engagements;
        // Room for every distinct row, and for one more written at the end
        // before it is found to repeat.
        let distinct: usize = (0..total.min(examples.len())).map(|i| row(i).len()).sum();
        let longest = examples.iter().map(|x| x.tokens.len()).max().unwrap_or(0);
        let mut rows = RowInterner::with_capacity(distinct + longest, total);
        let mut ranges = Vec::with_capacity(sessions);
        for c in 0..sessions {
            let start = rows.engagements();
            for e in 0..engagements {
                rows.extend_row(row(c * engagements + e));
                rows.finish_row()
                    .expect("a trace holds at most u32::MAX distinct tokens and engagements");
            }
            ranges.push(start..rows.engagements());
        }
        let rows = rows.share();
        let clients = ranges
            .into_iter()
            .map(|range| ClientTrace {
                target: cfg.target,
                preload_bytes: cfg.preload_bytes,
                slo: cfg.slo,
                arrival: SimTime::ZERO,
                idle: SimTime::ZERO,
                engagements: Engagements::in_store(&rows, range),
            })
            .collect();
        Self { clients }
    }

    /// Total engagements across every client.
    pub fn total_engagements(&self) -> usize {
        self.clients.iter().map(|c| c.engagements.len()).sum()
    }
}

/// What one engagement produced — the fields the determinism contract
/// compares across event and sequential execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EngagementOutcome {
    /// Predicted class.
    pub class: usize,
    /// Softmax class probabilities.
    pub probabilities: Vec<f32>,
    /// Simulated end-to-end latency.
    pub makespan: SimTime,
    /// Bytes streamed from storage (simulated-device accounting).
    pub loaded_bytes: u64,
}

/// The result of replaying a trace.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Outcomes per client, in engagement order (empty for clients that
    /// admission control rejected).
    pub outcomes: Vec<Vec<EngagementOutcome>>,
    /// Host wall-clock time for the whole replay.
    pub wall: Duration,
    /// Plan-cache counters after the replay (sessions open up front in
    /// client order, so uniform knobs miss once and hit thereafter). A
    /// knob set whose plan nothing held any more when a session asked for
    /// it counts as a miss: it was planned again.
    pub plan_stats: PlanCacheStats,
    /// Distinct knob combinations whose plan is held when the replay
    /// ends (by its still-open sessions, or the prefetcher) — not every
    /// knob set the server ever planned.
    pub distinct_plans: usize,
    /// Shard-cache counters after the replay.
    pub shard_stats: ShardCacheStats,
    /// IO-scheduler counters after the replay.
    pub io_stats: IoSchedulerStats,
    /// Contended-track replay: per-engagement contended latencies, queue
    /// aggregates, SLO hits.
    pub contention: ContentionReport,
    /// Admission and engagement counters.
    pub serving_stats: ServingStats,
    /// Indices of clients rejected by admission control.
    pub rejected_clients: Vec<usize>,
    /// Min-heap operations the discrete-event engine performed — the
    /// event-loop cost witness. Zero for the sequential replay.
    pub heap_ops: u64,
    /// The virtual-clock span stream ([`StiServer::trace_spans`]): the
    /// deterministic session/flash tracks plus whatever the live sink
    /// buffered. Feed to [`sti_obs::chrome_trace_json`] for a
    /// Chrome-trace / Perfetto file.
    ///
    /// Filled only when the server has a live sink
    /// ([`StiServer::set_obs_sink`]); with tracing off it is empty, and a
    /// caller that wants the deterministic tracks reads
    /// [`StiServer::trace_spans`] after the replay (the logs it is built
    /// from persist until [`StiServer::reset_contention_log`]).
    pub spans: Vec<SpanEvent>,
    /// Merged instrument snapshot across the serving path (`serving.*`,
    /// `gate.*`, `io.*`; event replays add `engine.*`).
    pub metrics: MetricsSnapshot,
    /// Prefetcher counters after the replay (`None` with prefetch off):
    /// model stats, staging-pool hit accounting, speculative dispatch
    /// totals.
    pub prefetch: Option<PrefetchReport>,
}

impl ServeReport {
    /// Engagements completed per wall-clock second.
    pub fn engagements_per_sec(&self) -> f64 {
        let n: usize = self.outcomes.iter().map(Vec::len).sum();
        n as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Builds a server for the context's task on the config's device, sharing
/// the context's shard store and importance profile.
pub fn build_server(ctx: &TaskContext, cfg: &ServeConfig) -> StiServer {
    let model = ctx.task().model().clone();
    let hw = HwProfile::measure(&cfg.device, model.config(), ctx.quant());
    StiServer::new(model, ctx.shard_source(), hw, ctx.importance().clone(), cfg)
}

/// Opens every client's session in client order — the deterministic
/// admission sequence both replays share. `None` marks a client that
/// admission control rejected; any other failure aborts the replay.
fn open_sessions(
    server: &StiServer,
    trace: &ServingTrace,
) -> Result<Vec<Option<Session>>, PipelineError> {
    trace
        .clients
        .iter()
        .map(|client| {
            let opened = match client.slo {
                // SLO admission sees the client's real arrival offset, so a
                // straggler is not priced as co-arriving with everyone.
                Some(slo) => server.session_with_slo_at(slo, client.preload_bytes, client.arrival),
                None => server.session_with(client.target, client.preload_bytes),
            };
            match opened {
                Ok(mut session) => {
                    session.set_arrival(client.arrival);
                    session.set_issue_gap(client.idle);
                    Ok(Some(session))
                }
                Err(PipelineError::AdmissionRejected { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        })
        .collect()
}

/// Replays the same trace with no concurrency: clients in order, each
/// engagement completing before the next starts. Sessions still open up
/// front in client order, so admission decisions match [`replay_event`]
/// exactly.
///
/// # Errors
///
/// Returns the first client error encountered.
pub fn replay_sequential(
    server: &StiServer,
    trace: &ServingTrace,
) -> Result<ServeReport, PipelineError> {
    let start = std::time::Instant::now();
    let sessions = open_sessions(server, trace)?;
    let outcomes = trace
        .clients
        .iter()
        .zip(&sessions)
        .map(|(client, session)| run_client(session.as_ref(), client))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(report(server, &sessions, outcomes, start.elapsed()))
}

fn run_client(
    session: Option<&Session>,
    client: &ClientTrace,
) -> Result<Vec<EngagementOutcome>, PipelineError> {
    let Some(session) = session else {
        return Ok(Vec::new()); // rejected at admission
    };
    let mut outcomes = Vec::with_capacity(client.engagements.len());
    for tokens in &client.engagements {
        match session.infer(tokens) {
            Ok(inf) => outcomes.push(EngagementOutcome {
                class: inf.class,
                probabilities: inf.probabilities,
                makespan: inf.outcome.timeline.makespan,
                loaded_bytes: inf.outcome.loaded_bytes,
            }),
            // A shed engagement produces no outcome; the decision is in the
            // contention report's gate log. The client keeps going — the
            // gate is per-engagement, not per-session.
            Err(PipelineError::Backpressure { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(outcomes)
}

fn report(
    server: &StiServer,
    sessions: &[Option<Session>],
    outcomes: Vec<Vec<EngagementOutcome>>,
    wall: Duration,
) -> ServeReport {
    ServeReport {
        outcomes,
        wall,
        plan_stats: server.plan_stats(),
        distinct_plans: server.cached_plans(),
        shard_stats: server.shard_stats(),
        io_stats: server.io_stats(),
        contention: server.contention_report(),
        serving_stats: server.serving_stats(),
        rejected_clients: sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect(),
        heap_ops: 0,
        spans: if server.obs_sink().enabled() { server.trace_spans() } else { Vec::new() },
        metrics: server.metrics_snapshot(),
        prefetch: server.prefetch_report(),
    }
}

/// Replays a trace on the discrete-event engine: one simulated clock, one
/// OS thread, every client a [`Component`]. Sessions still open up front
/// in client order, so admission matches [`replay_sequential`] exactly.
///
/// Dedicated *flash components* — one per device channel, registered after
/// the clients, so at every instant they tick after all co-arriving
/// issuers — are the only dispatchers: they service the queue dry on the
/// engine thread ([`StiServer::drive_io_on`]), and the last channel wakes
/// the issuers. Each client's engagement is split across the instant:
/// [`Session::infer_issue`] enqueues its layer requests, the flash
/// component dispatches them, and the woken client runs
/// [`Session::infer_complete`] (which never blocks — everything it
/// receives was already delivered) before issuing its next engagement.
///
/// **Determinism.** Event order is a pure function of
/// `(next_tick, ComponentId)`; dispatch order is a pure function of the
/// queue contents (no other thread dispatches). Two event
/// replays of one trace are bit-identical — including the contended
/// track — and per-engagement uncontended results are bit-identical to
/// [`replay_sequential`]. With a batching window configured, the event
/// schedule queues every co-arriving request *before* the flash services
/// the instant, so batching fan-outs are maximal and deterministic.
///
/// # Errors
///
/// Returns the first engine-order error encountered (client errors are
/// deterministic under the event schedule).
pub fn replay_event(
    server: &StiServer,
    trace: &ServingTrace,
) -> Result<ServeReport, PipelineError> {
    struct Ctx<'a> {
        server: &'a StiServer,
        sessions: &'a [Option<Session>],
        trace: &'a ServingTrace,
        outcomes: Vec<Vec<EngagementOutcome>>,
        /// One slot per client: an engagement issued this instant, awaiting
        /// completion after the flash component services the queue.
        pendings: Vec<Option<PendingEngagement>>,
        /// Next engagement index per client.
        cursor: Vec<usize>,
        /// Clients that issued this instant, to wake once every flash
        /// channel has serviced its lane of the queue.
        waiting: Vec<ComponentId>,
        /// Component id of device channel 0's flash server; channel `c`
        /// is `flash + c`.
        flash: ComponentId,
        /// Device channels on the simulated flash (one component each).
        channels: usize,
        /// Whether completions need a follow-up flash wake: the server's
        /// prefetcher submits speculative jobs from `infer_complete`, and
        /// a client with nothing left to issue would otherwise leave them
        /// queued. False (prefetch off) keeps the legacy event schedule
        /// bit-identical.
        spec_wake: bool,
        /// First error in engine order; halts the run.
        error: Option<PipelineError>,
    }

    /// One client's engagement state machine.
    struct Client {
        id: ComponentId,
        arrival: SimTime,
    }

    /// Records the first error in engine order and halts the run.
    fn fail(sys: &mut System<'_, Ctx<'_>>, e: PipelineError) -> Option<SimTime> {
        sys.ctx.error = Some(e);
        sys.halt();
        None
    }

    impl<'a> Component<Ctx<'a>> for Client {
        fn id(&self) -> ComponentId {
            self.id
        }
        fn next_tick(&self) -> Option<SimTime> {
            Some(self.arrival)
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx<'a>>) -> Option<SimTime> {
            // Immutable refs copied out of the context so `sys` stays free
            // for wake/halt calls below.
            let sessions = sys.ctx.sessions;
            let trace = sys.ctx.trace;
            let Some(session) = sessions[self.id].as_ref() else {
                return None; // rejected at admission
            };
            let client = &trace.clients[self.id];
            // A woken client first completes the engagement the flash
            // component just serviced...
            if let Some(pending) = sys.ctx.pendings[self.id].take() {
                match session.infer_complete(pending) {
                    Ok(inf) => sys.ctx.outcomes[self.id].push(EngagementOutcome {
                        class: inf.class,
                        probabilities: inf.probabilities,
                        makespan: inf.outcome.timeline.makespan,
                        loaded_bytes: inf.outcome.loaded_bytes,
                    }),
                    Err(e) => return fail(sys, e),
                }
                // The completion may have queued speculative prefetch
                // stages; wake the flash components so they drain even
                // when this client has nothing left to issue. Demand
                // still wins every pick, and with prefetch off the wake
                // is skipped so the legacy schedule is untouched.
                if sys.ctx.spec_wake {
                    let (flash, channels) = (sys.ctx.flash, sys.ctx.channels);
                    for c in 0..channels {
                        sys.wake(flash + c, now);
                    }
                }
            }
            // ...then issues its next engagement at the same instant. Shed
            // engagements (gate decisions are logged either way) produce no
            // outcome and queue no IO — keep going, like `run_client`.
            loop {
                let k = sys.ctx.cursor[self.id];
                if k >= client.engagements.len() {
                    return None;
                }
                sys.ctx.cursor[self.id] = k + 1;
                match session.infer_issue(&client.engagements[k]) {
                    Ok(pending) => {
                        sys.ctx.pendings[self.id] = Some(pending);
                        sys.ctx.waiting.push(self.id);
                        // Wake every device channel's flash component: the
                        // engagement's requests may stripe across any of
                        // them (one component — the legacy schedule — on a
                        // single-channel device).
                        let (flash, channels) = (sys.ctx.flash, sys.ctx.channels);
                        for c in 0..channels {
                            sys.wake(flash + c, now);
                        }
                        return None;
                    }
                    Err(PipelineError::Backpressure { .. }) => continue,
                    Err(e) => return fail(sys, e),
                }
            }
        }
    }

    /// One simulated flash channel: services every request placed on its
    /// device channel on the engine thread; the *last* channel (highest
    /// `ComponentId`, so it ticks after its siblings at every instant)
    /// then wakes the issuers (same instant — completion never blocks).
    /// All flash components are registered after the clients, so every
    /// co-arriving producer ticks before any channel dispatches.
    struct Flash {
        id: ComponentId,
        /// The device channel this component services.
        channel: u16,
        /// Whether this is the highest-id flash component — the one that
        /// wakes the waiting issuers once every channel has drained.
        last: bool,
    }

    impl<'a> Component<Ctx<'a>> for Flash {
        fn id(&self) -> ComponentId {
            self.id
        }
        fn next_tick(&self) -> Option<SimTime> {
            None // woken by issuers, never self-scheduled
        }
        fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx<'a>>) -> Option<SimTime> {
            sys.ctx.server.drive_io_on(self.channel);
            if self.last {
                // A lane is FIFO, but its requests stripe across device
                // channels: serving its head on channel 3 can expose a
                // head for channel 0, whose component already ticked this
                // instant. Sweep the channels in order to a fixpoint so
                // every dispatchable request is served before any issuer
                // wakes (`infer_complete` must never block). The sweep is
                // a pure function of queue state, so determinism holds;
                // under `C = 1` the first pass already drained everything
                // and the single sweep is a no-op.
                loop {
                    let served: usize =
                        (0..sys.ctx.channels).map(|c| sys.ctx.server.drive_io_on(c as u16)).sum();
                    if served == 0 {
                        break;
                    }
                }
                let waiting = std::mem::take(&mut sys.ctx.waiting);
                for id in waiting {
                    sys.wake(id, now);
                }
            }
            None
        }
    }

    let start = std::time::Instant::now();
    let sessions = open_sessions(server, trace)?;
    let mut engine: Engine<Ctx<'_>> = Engine::new();
    // Engine-track spans (per-tick instants, heap-ops samples) join the
    // server's live stream when a sink is installed; with the default
    // `ObsSink::Null` this is free.
    engine.set_obs_sink(server.obs_sink());
    for (id, client) in trace.clients.iter().enumerate() {
        engine.register(Box::new(Client { id, arrival: client.arrival }));
    }
    // One flash component per device channel, ids right after the clients:
    // at every instant all clients issue first, then channel 0..C-1 drain
    // their lanes in order, and the last channel wakes the completers.
    let channels = server.device_topology().channel_count() as usize;
    let mut flash = trace.clients.len();
    for c in 0..channels {
        let id = engine.register(Box::new(Flash {
            id: trace.clients.len() + c,
            channel: c as u16,
            last: c + 1 == channels,
        }));
        if c == 0 {
            flash = id;
        }
    }
    let mut ctx = Ctx {
        server,
        sessions: &sessions,
        trace,
        outcomes: vec![Vec::new(); trace.clients.len()],
        pendings: (0..trace.clients.len()).map(|_| None).collect(),
        cursor: vec![0; trace.clients.len()],
        waiting: Vec::new(),
        flash,
        channels,
        spec_wake: server.prefetch_enabled(),
        error: None,
    };
    let engine_report = engine.run(&mut ctx);
    let Ctx { outcomes, pendings, error, .. } = ctx;
    // Abandoned pendings (halted run) tear their channels down, exactly
    // like an errored `infer`.
    drop(pendings);
    if let Some(e) = error {
        return Err(e);
    }
    let mut rep = report(server, &sessions, outcomes, start.elapsed());
    rep.heap_ops = engine_report.heap_ops;
    // The engine keeps no registry of its own; fold its two counters into
    // the snapshot so `engine.*` sits beside `serving.*`/`io.*`.
    rep.metrics.counters.insert("engine.ticks".to_string(), engine_report.ticks);
    rep.metrics.counters.insert("engine.heap_ops".to_string(), engine_report.heap_ops);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_nlp::TaskKind;
    use sti_pipeline::AdmissionMode;
    use sti_transformer::ModelConfig;

    fn ctx() -> TaskContext {
        TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny())
    }

    fn cfg() -> ServeConfig {
        ServeConfig { target: SimTime::from_ms(300), preload_bytes: 8 << 10, ..Default::default() }
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_sized() {
        let c = ctx();
        let cfg = cfg();
        let a = ServingTrace::synthetic(&c, &cfg, 3, 2);
        let b = ServingTrace::synthetic(&c, &cfg, 3, 2);
        assert_eq!(a.total_engagements(), 6);
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            assert_eq!(ca.engagements, cb.engagements);
            assert!(Arc::ptr_eq(&ca.engagements.rows, &a.clients[0].engagements.rows));
        }
        // Equal inputs give byte-identical stores.
        let (sa, sb) = (&a.clients[0].engagements.rows, &b.clients[0].engagements.rows);
        assert_interned(sa);
        assert_eq!((&sa.tokens, &sa.ends, &sa.ids), (&sb.tokens, &sb.ends, &sb.ids));
    }

    /// splitmix64: the seeded stream the oracle loop draws from.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The store's invariants: row ids in order of first occurrence, each
    /// naming a row, every row named, and no two rows equal. Returns the
    /// row count.
    fn assert_interned(rows: &RowStore) -> usize {
        let mut next = 0;
        for &id in rows.ids.iter() {
            assert!(id <= next, "row {id} before row {next}");
            next += u32::from(id == next);
        }
        assert_eq!(next as usize, rows.ends.len(), "every row is named");
        let distinct: std::collections::HashSet<&[u32]> = (0..next).map(|r| rows.row(r)).collect();
        assert_eq!(distinct.len(), rows.ends.len(), "no two rows are equal");
        rows.ends.len()
    }

    #[test]
    fn engagements_match_the_nested_vec_oracle() {
        let mut state = 45;
        for _ in 0..64 {
            // A pool of up to 6 rows of 0–3 tokens over a 3-token alphabet,
            // so rows of one length differ and the pool repeats itself.
            let pool: Vec<Vec<u32>> = (0..1 + draw(&mut state) % 6)
                .map(|_| (0..draw(&mut state) % 4).map(|_| (draw(&mut state) % 3) as u32).collect())
                .collect();
            // Up to 200 rows, each from the pool or of 0–16 random tokens,
            // empty rows included.
            let rows: Vec<Vec<u32>> = (0..draw(&mut state) % 201)
                .map(|_| match draw(&mut state) % 3 {
                    0 => (0..draw(&mut state) % 17).map(|_| draw(&mut state) as u32).collect(),
                    _ => pool[draw(&mut state) as usize % pool.len()].clone(),
                })
                .collect();
            let distinct =
                |rows: &[Vec<u32>]| rows.iter().collect::<std::collections::HashSet<_>>().len();
            let flat: Engagements = rows.iter().collect();
            assert_eq!(assert_interned(&flat.rows), distinct(&rows));
            assert_eq!((flat.len(), flat.is_empty()), (rows.len(), rows.is_empty()));
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(flat.get(i), Some(row.as_slice()));
                assert_eq!(&flat[i], row.as_slice());
            }
            assert_eq!(flat.get(rows.len()), None);
            assert_eq!(flat.get(rows.len() + 7), None);
            let mut iter = flat.iter();
            assert_eq!(iter.len(), rows.len());
            if iter.next().is_some() {
                assert_eq!(iter.len(), rows.len() - 1, "the exact size counts down");
            }
            assert!(flat.iter().eq(rows.iter().map(Vec::as_slice)));
            assert!((&flat).into_iter().eq(flat.iter()));
            assert_eq!(format!("{flat:?}"), format!("{rows:?}"));
            let clone = flat.clone();
            assert_eq!(clone, flat);
            assert_eq!(rows.clone().into_iter().collect::<Engagements>(), flat);
            // The same tokens split at another row boundary are other rows.
            if rows.len() >= 2 && !rows[0].is_empty() {
                let mut shifted = rows.clone();
                let moved = shifted[0].pop().expect("row 0 is not empty");
                shifted[1].insert(0, moved);
                assert_ne!(shifted.iter().collect::<Engagements>(), flat);
            }
            // A trace rendered from the non-empty rows parses back to them,
            // client by client, into one store that holds each row once.
            let clients = 1 + draw(&mut state) as usize % 4;
            let mut oracle = vec![Vec::new(); clients];
            for (i, row) in rows.iter().filter(|row| !row.is_empty()).enumerate() {
                oracle[i % clients].push(row.clone());
            }
            let rendered: Vec<String> =
                oracle.iter().map(|rows| format!("{{\"engagements\":{rows:?}}}")).collect();
            let json = format!("{{\"clients\":[{}]}}", rendered.join(","));
            let parsed = crate::trace_file::parse_trace(&json).expect("the rendering parses");
            assert_eq!(parsed.clients.len(), clients);
            let store = &parsed.clients[0].engagements.rows;
            assert_eq!(assert_interned(store), distinct(&oracle.concat()));
            for (client, rows) in parsed.clients.iter().zip(&oracle) {
                assert!(Arc::ptr_eq(&client.engagements.rows, store), "one store per trace");
                assert!(client.engagements.iter().eq(rows.iter().map(Vec::as_slice)));
                assert_eq!(client.engagements, rows.iter().collect());
            }
        }
    }

    #[test]
    #[should_panic(expected = "engagement index 3 out of range for 3 engagements")]
    fn indexing_past_the_last_engagement_panics() {
        let flat: Engagements = [[1u32].as_slice(), &[], &[2, 3]].into_iter().collect();
        let _ = &flat[3];
    }

    #[test]
    fn event_replay_matches_sequential_and_counts_heap_ops() {
        let c = ctx();
        let cfg = cfg();
        let trace = ServingTrace::synthetic(&c, &cfg, 4, 2);
        let event = replay_event(&build_server(&c, &cfg), &trace).unwrap();
        let sequential = replay_sequential(&build_server(&c, &cfg), &trace).unwrap();
        assert_eq!(event.outcomes, sequential.outcomes, "event loop must not change results");
        assert!(event.heap_ops > 0, "the engine counts its heap traffic");
        assert_eq!(sequential.heap_ops, 0);
        assert!(event.engagements_per_sec() > 0.0);
    }

    #[test]
    fn multi_channel_replay_keeps_the_determinism_contract() {
        // The uncontended track is topology-independent per engagement:
        // striping changes *placement* (and so contended replay), never
        // per-engagement outcomes. Event and sequential must agree on a
        // C=4 device exactly as they do on the single-channel one.
        let c = ctx();
        let base = cfg();
        let striped = ServeConfig { channels: 4, ..base.clone() };
        let trace = ServingTrace::synthetic(&c, &striped, 4, 2);
        let event = replay_event(&build_server(&c, &striped), &trace).unwrap();
        let sequential = replay_sequential(&build_server(&c, &striped), &trace).unwrap();
        assert_eq!(event.outcomes, sequential.outcomes);
        assert!(event.heap_ops > 0);
        // And the single-channel outcomes are bit-identical to a server
        // built before the knob existed (the default).
        let legacy = replay_sequential(&build_server(&c, &base), &trace).unwrap();
        let single = replay_sequential(
            &build_server(&c, &ServeConfig { channels: 1, ..base.clone() }),
            &trace,
        )
        .unwrap();
        assert_eq!(single.outcomes, legacy.outcomes);
    }

    #[test]
    fn shared_server_plans_once_for_uniform_clients() {
        let c = ctx();
        let cfg = cfg();
        let trace = ServingTrace::synthetic(&c, &cfg, 4, 1);
        let server = build_server(&c, &cfg);
        let report = replay_event(&server, &trace).unwrap();
        // Sessions open up front in client order, so uniform knobs plan
        // exactly once and hit thereafter.
        assert_eq!(report.distinct_plans, 1, "uniform knobs cache exactly one plan");
        assert_eq!((report.plan_stats.hits, report.plan_stats.misses), (3, 1));
    }

    #[test]
    fn slo_clients_admit_and_replay_deterministically() {
        let c = ctx();
        let cfg = ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            slo: Some(SimTime::from_ms(60_000)), // generous: everyone admits
            admission: AdmissionMode::Enforce,
            ..Default::default()
        };
        let trace = ServingTrace::synthetic(&c, &cfg, 3, 2);
        let event = replay_event(&build_server(&c, &cfg), &trace).unwrap();
        let sequential = replay_sequential(&build_server(&c, &cfg), &trace).unwrap();
        assert_eq!(event.outcomes, sequential.outcomes, "admission must not break replay");
        assert!(event.rejected_clients.is_empty());
        assert_eq!(event.serving_stats.admitted_sessions, 3);
        assert_eq!(event.contention.engagements.len(), 6);
        assert_eq!(
            event.contention.slo_hit_rate(),
            Some(1.0),
            "a 60 s SLO is unmissable on this trace"
        );
    }

    #[test]
    fn rejected_clients_are_reported_by_both_replays() {
        let c = ctx();
        let mut cfg = ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            admission: AdmissionMode::Enforce,
            ..Default::default()
        };
        // Client 0 is generous; client 1 asks for the impossible under a
        // co-runner: the floor plan's own uncontended makespan.
        let server_probe = build_server(&c, &cfg);
        let floor =
            server_probe.session_with(SimTime::from_us(1), 0).unwrap().plan().predicted.makespan;
        cfg.slo = None;
        let mut trace = ServingTrace::synthetic(&c, &cfg, 2, 1);
        trace.clients[0].slo = Some(SimTime::from_ms(60_000));
        trace.clients[1].slo = Some(floor);
        let event = replay_event(&build_server(&c, &cfg), &trace).unwrap();
        let sequential = replay_sequential(&build_server(&c, &cfg), &trace).unwrap();
        assert_eq!(event.rejected_clients, vec![1]);
        assert_eq!(sequential.rejected_clients, vec![1], "admission order is deterministic");
        assert!(event.outcomes[1].is_empty());
        assert_eq!(event.outcomes, sequential.outcomes);
        assert_eq!(event.serving_stats.rejected_sessions, 1);
    }

    #[test]
    fn contended_latencies_dominate_uncontended_ones() {
        let c = ctx();
        let cfg = ServeConfig { target: SimTime::from_ms(300), preload_bytes: 0, ..cfg() };
        let trace = ServingTrace::synthetic(&c, &cfg, 4, 2);
        let server = build_server(&c, &cfg);
        let report = replay_event(&server, &trace).unwrap();
        assert_eq!(report.contention.engagements.len(), 8);
        for e in &report.contention.engagements {
            assert!(e.contended >= e.uncontended, "{} < {}", e.contended, e.uncontended);
        }
        assert_eq!(report.contention.flash_busy, report.io_stats.sim_flash_busy);
    }
}
