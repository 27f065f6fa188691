//! The four workloads. Each builds its server from public configuration,
//! receives its inputs through `sti::parse_trace`, and drives the program
//! closed-loop from the calling thread: the scheduler's worker pool stays
//! parked and the benchmark (or `replay_event`) services the IO queue, so
//! dispatch order never depends on host thread timing.

use std::collections::{BTreeMap, HashMap, VecDeque};

use sti::prelude::*;

use crate::bench::{Env, RunParams, SimAcc, Workload};
use crate::gen::{self, Generated};
use crate::probes;
use crate::replay::{outcome_of, traced_replay, Replay};
use crate::tracer::Tracer;

/// Every `VERIFY_STRIDE`-th round (and round 0) is checked against
/// `replay_sequential`.
const VERIFY_STRIDE: usize = 32;
/// Every `PROBE_STRIDE`-th engagement of a traced run is replayed through
/// the layer probes.
const PROBE_STRIDE: u64 = 16;

/// The phase's fixed op count. Counts, not a deadline, end the phase: that
/// is what makes every simulated metric and count a pure function of
/// (code, seed, seconds).
fn ops_for(p: &RunParams) -> usize {
    ((p.workload.ops_per_second * p.seconds * p.opts.length).round() as usize).max(3)
}

/// One op's input: the generated trace and its parsed form.
struct Input {
    gen: Generated,
    trace: ServingTrace,
}

impl Input {
    fn new(gen: Generated) -> Self {
        let trace = parse_trace(&gen.json).expect("the generator emits the trace-file schema");
        Self { gen, trace }
    }
}

/// One engagement on the calling thread through the split path the event
/// executor uses: issue, service the queue dry, complete.
fn infer_split(
    server: &StiServer,
    session: &Session,
    tokens: &[u32],
    tr: &mut Tracer,
) -> Result<Inference, PipelineError> {
    let pending = tr.span("pipeline.infer_issue", "pipeline", |_| session.infer_issue(tokens))?;
    tr.span("storage.drive_io", "storage", |_| server.drive_io());
    tr.span("pipeline.infer_complete", "pipeline", |_| session.infer_complete(pending))
}

/// Harvests and clears the contended-track log of a workload that owns its
/// sessions. In a layer-count run the virtual-clock span stream and the
/// metrics snapshot are assembled too, as a replay's report does.
fn harvest_report(
    server: &StiServer,
    deadlines: &HashMap<u64, u64>,
    layer_counts: bool,
    tr: &mut Tracer,
    acc: &mut SimAcc,
) {
    let report = tr.span("pipeline.contention_report", "pipeline", |_| server.contention_report());
    acc.ingest(&report, deadlines);
    if layer_counts {
        acc.obs_spans += tr.span("obs.trace_spans", "obs", |_| server.trace_spans()).len() as u64;
        tr.span("obs.metrics_snapshot", "obs", |_| server.metrics_snapshot());
    }
    server.reset_contention_log();
}

fn fresh_outcomes(
    env: &Env,
    cfg: &ServeConfig,
    prepare: impl FnOnce(&StiServer) -> Result<Vec<Session>, PipelineError>,
    traces: &[&ServingTrace],
) -> Result<Vec<Vec<Vec<EngagementOutcome>>>, String> {
    let server = build_server(&env.ctx, cfg);
    let _fleet = prepare(&server).map_err(|e| format!("fresh server set-up failed: {e}"))?;
    traces
        .iter()
        .map(|t| {
            let rep =
                replay_sequential(&server, t).map_err(|e| format!("replay_sequential: {e}"))?;
            server.reset_contention_log();
            Ok(rep.outcomes)
        })
        .collect()
}

fn compare_outcomes(
    what: &str,
    kept: &[Vec<EngagementOutcome>],
    fresh: &[Vec<EngagementOutcome>],
) -> Result<(), String> {
    if kept == fresh {
        return Ok(());
    }
    Err(format!(
        "{what}: outcomes differ from replay_sequential on a fresh server ({} vs {} engagements)",
        kept.iter().map(Vec::len).sum::<usize>(),
        fresh.iter().map(Vec::len).sum::<usize>()
    ))
}

// ---------------------------------------------------------------- solo_stream

/// `solo_stream`: one session streaming a cold model, retargeted every
/// [`gen::SOLO_SEGMENT_OPS`] engagements.
pub struct SoloStream {
    cfg: ServeConfig,
    server: StiServer,
    session: Session,
    segments: Vec<Input>,
    seg_ops: usize,
    layer_counts: bool,
    probe_cache: ShardCache,
    last: Option<Inference>,
    kept: BTreeMap<usize, Vec<EngagementOutcome>>,
}

impl SoloStream {
    /// Builds the server, parses the segments, opens the session and runs
    /// one warm-up engagement.
    pub fn setup(env: &Env, p: &RunParams, layer_counts: bool) -> Self {
        let cfg = ServeConfig {
            preload_bytes: gen::SOLO_PRELOAD_KB << 10,
            io_workers: 1,
            shard_cache_bytes: 1 << 10,
            channels: p.opts.channels.unwrap_or(1),
            ..ServeConfig::default()
        };
        let ops = ops_for(p);
        let seg_ops = gen::SOLO_SEGMENT_OPS.min(ops.div_ceil(3));
        // Whole cycles of the three targets, so every run (and every seed)
        // has the same mix of cheap and expensive engagements.
        let cycles = ((ops as f64 / seg_ops as f64 / 3.0).round() as u64).max(1);
        let segments: Vec<Input> = (0..3 * cycles)
            .map(|s| Input::new(gen::solo_segment(&env.pool, p.seed, s, seg_ops)))
            .collect();
        let server = build_server(&env.ctx, &cfg);
        server.pause_io();
        let first = &segments[0].trace.clients[0];
        let session =
            server.session_with(first.target, first.preload_bytes).expect("open the solo session");
        let warm = Input::new(gen::solo_segment(&env.pool, p.seed, gen::WARMUP_ROUND, 1));
        infer_split(
            &server,
            &session,
            &warm.trace.clients[0].engagements[0],
            &mut Tracer::new(false),
        )
        .expect("warm-up engagement");
        server.reset_contention_log();
        Self {
            probe_cache: ShardCache::new(cfg.shard_cache_bytes),
            cfg,
            server,
            session,
            segments,
            seg_ops,
            layer_counts,
            last: None,
            kept: BTreeMap::new(),
        }
    }
}

impl Workload for SoloStream {
    fn ops(&self) -> usize {
        self.segments.len() * self.seg_ops
    }

    fn server(&self) -> &StiServer {
        &self.server
    }

    fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn op(&mut self, i: usize, _env: &Env, tr: &mut Tracer) -> Result<(), PipelineError> {
        let tokens =
            &self.segments[i / self.seg_ops].trace.clients[0].engagements[i % self.seg_ops];
        self.last = Some(infer_split(&self.server, &self.session, tokens, tr)?);
        Ok(())
    }

    fn harvest(&mut self, i: usize, env: &Env, tr: &mut Tracer, acc: &mut SimAcc) {
        let (seg, k) = (i / self.seg_ops, i % self.seg_ops);
        let input = &self.segments[seg];
        let inf = self.last.take().expect("op stored its inference");
        acc.attempted += 1;
        acc.score(inf.class, &inf.probabilities, input.gen.labels[0][k]);
        acc.check_streamed(self.session.plan(), inf.outcome.loaded_bytes);
        acc.count_plan(self.session.plan(), env.ctx.task().model().config());
        if (i as u64).is_multiple_of(PROBE_STRIDE) {
            let tokens = &input.trace.clients[0].engagements[k];
            probes::probe_plan(env, &self.cfg, &self.probe_cache, tr, self.session.plan(), tokens);
        }
        if seg.is_multiple_of(VERIFY_STRIDE) {
            self.kept.entry(seg).or_default().push(outcome_of(inf));
        }
        if k + 1 == self.seg_ops {
            let deadlines =
                HashMap::from([(self.session.token(), input.gen.clients[0].deadline_us())]);
            harvest_report(&self.server, &deadlines, self.layer_counts, tr, acc);
            if let Some(next) = self.segments.get(seg + 1) {
                let target = next.trace.clients[0].target;
                tr.span("pipeline.set_target", "pipeline", |_| self.session.set_target(target))
                    .expect("retarget the solo session");
            }
        }
    }

    fn verify(&self, env: &Env) -> Result<(), String> {
        let traces: Vec<&ServingTrace> =
            self.kept.keys().map(|&s| &self.segments[s].trace).collect();
        let fresh = fresh_outcomes(env, &self.cfg, |_| Ok(Vec::new()), &traces)?;
        for ((seg, kept), fresh) in self.kept.iter().zip(&fresh) {
            compare_outcomes(
                &format!("solo_stream segment {seg}"),
                std::slice::from_ref(kept),
                fresh,
            )?;
        }
        Ok(())
    }

    fn preload_bytes_in_use(&self) -> u64 {
        self.session.preload_used()
    }

    fn sample_trace_json(&self) -> &str {
        &self.segments[0].gen.json
    }

    fn mix_population(&self) -> Vec<(SimTime, u64, SimTime)> {
        vec![(self.session.target(), self.cfg.preload_bytes, SimTime::ZERO)]
    }
}

// ------------------------------------------------- burst_shared, recurrent_think

/// The two `replay_event` workloads: a long-lived server replaying one
/// generated multi-client trace per op.
pub struct Replayed {
    name: &'static str,
    cfg: ServeConfig,
    server: StiServer,
    rounds: Vec<Input>,
    /// The twin stepping loop replaces `replay_event` (layer-count runs:
    /// it exposes the sessions' plans and takes spans).
    twin: bool,
    next_token: u64,
    executed: u64,
    probe_cache: ShardCache,
    last: Option<Replay>,
    kept: BTreeMap<usize, Vec<Vec<EngagementOutcome>>>,
}

impl Replayed {
    /// Builds the server, parses every round and replays one warm-up round.
    pub fn setup(env: &Env, p: &RunParams, twin: bool) -> Self {
        let name = p.workload.name;
        let burst = name == "burst_shared";
        let cfg = if burst {
            ServeConfig {
                preload_bytes: gen::burst::PRELOAD_KB << 10,
                io_workers: 1,
                shard_cache_bytes: 4 << 20,
                channels: p.opts.channels.unwrap_or(2),
                batch_window: p.opts.batching.then_some(SimTime::from_ms(2)),
                backpressure: BackpressureMode::Queue(SimTime::from_ms(200)),
                admission: AdmissionMode::Monitor,
                ..ServeConfig::default()
            }
        } else {
            ServeConfig {
                target: SimTime::from_ms(gen::recurrent::TARGET_MS.0),
                preload_bytes: 0,
                io_workers: 1,
                shard_cache_bytes: 1 << 10,
                channels: p.opts.channels.unwrap_or(1),
                dram_residency: true,
                prefetch: if p.opts.prefetch {
                    PrefetchConfig::markov(64 << 10)
                } else {
                    PrefetchConfig::default()
                },
                ..ServeConfig::default()
            }
        };
        let round = |r: u64| {
            Input::new(if burst {
                gen::burst_round(&env.pool, p.seed, r)
            } else {
                gen::recurrent_round(&env.pool, p.seed, r)
            })
        };
        let rounds: Vec<Input> = (0..ops_for(p) as u64).map(round).collect();
        let server = build_server(&env.ctx, &cfg);
        let warm = round(gen::WARMUP_ROUND);
        let rep = replay_event(&server, &warm.trace).expect("warm-up round");
        server.reset_contention_log();
        let next_token = (warm.trace.clients.len() - rep.rejected_clients.len()) as u64;
        Self {
            name,
            probe_cache: ShardCache::new(cfg.shard_cache_bytes),
            cfg,
            server,
            rounds,
            twin,
            next_token,
            executed: 0,
            last: None,
            kept: BTreeMap::new(),
        }
    }
}

impl Workload for Replayed {
    fn ops(&self) -> usize {
        self.rounds.len()
    }

    fn server(&self) -> &StiServer {
        &self.server
    }

    fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn op(&mut self, i: usize, _env: &Env, tr: &mut Tracer) -> Result<(), PipelineError> {
        let trace = &self.rounds[i].trace;
        let rep = if self.twin {
            traced_replay(&self.server, trace, tr)?
        } else {
            Replay { report: replay_event(&self.server, trace)?, plans: Vec::new() }
        };
        self.server.reset_contention_log();
        self.last = Some(rep);
        Ok(())
    }

    fn harvest(&mut self, i: usize, env: &Env, tr: &mut Tracer, acc: &mut SimAcc) {
        let rep = self.last.take().expect("op stored its report");
        let input = &self.rounds[i];
        self.next_token = acc.ingest_round(&input.gen, &rep.report, self.next_token);
        let cfg = env.ctx.task().model().config();
        for (c, plan) in rep.plans.iter().enumerate() {
            let Some(plan) = plan else { continue };
            for (k, outcome) in rep.report.outcomes[c].iter().enumerate() {
                acc.check_streamed(plan, outcome.loaded_bytes);
                acc.count_plan(plan, cfg);
                if self.executed.is_multiple_of(PROBE_STRIDE) {
                    let tokens = &input.trace.clients[c].engagements[k];
                    probes::probe_plan(env, &self.cfg, &self.probe_cache, tr, plan, tokens);
                }
                self.executed += 1;
            }
        }
        if i.is_multiple_of(VERIFY_STRIDE) {
            self.kept.insert(i, rep.report.outcomes);
        }
    }

    fn verify(&self, env: &Env) -> Result<(), String> {
        let traces: Vec<&ServingTrace> = self.kept.keys().map(|&r| &self.rounds[r].trace).collect();
        let fresh = fresh_outcomes(env, &self.cfg, |_| Ok(Vec::new()), &traces)?;
        for ((round, kept), fresh) in self.kept.iter().zip(&fresh) {
            compare_outcomes(&format!("{} round {round}", self.name), kept, fresh)?;
        }
        if self.twin {
            // The twin must be `replay_event` with spans, nothing else:
            // same outcomes, same contended track, same engine work.
            let trace = &self.rounds[0].trace;
            let event = replay_event(&build_server(&env.ctx, &self.cfg), trace)
                .map_err(|e| format!("replay_event: {e}"))?;
            let twin =
                traced_replay(&build_server(&env.ctx, &self.cfg), trace, &mut Tracer::new(false))
                    .map_err(|e| format!("twin replay: {e}"))?
                    .report;
            if event.outcomes != twin.outcomes
                || event.contention != twin.contention
                || event.heap_ops != twin.heap_ops
                || event.rejected_clients != twin.rejected_clients
            {
                return Err(format!("{}: the traced twin diverges from replay_event", self.name));
            }
        }
        Ok(())
    }

    fn preload_bytes_in_use(&self) -> u64 {
        // The round's sessions are gone; re-open one per distinct knob set
        // (the shared preload cache hands back the buffer they used).
        let mut knobs: Vec<(SimTime, u64)> =
            self.rounds[0].trace.clients.iter().map(|c| (c.target, c.preload_bytes)).collect();
        knobs.sort_unstable();
        knobs.dedup();
        knobs
            .into_iter()
            .filter_map(|(t, s)| self.server.session_with(t, s).ok().map(|s| s.preload_used()))
            .sum()
    }

    fn sample_trace_json(&self) -> &str {
        &self.rounds[0].gen.json
    }

    fn mix_population(&self) -> Vec<(SimTime, u64, SimTime)> {
        self.rounds[0]
            .trace
            .clients
            .iter()
            .map(|c| (c.target, c.preload_bytes, c.arrival))
            .collect()
    }

    fn replays_events(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------- fleet_admit

/// `fleet_admit`: session churn and SLO admission against a large open
/// fleet.
pub struct FleetAdmit {
    cfg: ServeConfig,
    seed: u64,
    server: StiServer,
    plain: Vec<Session>,
    slo: VecDeque<Session>,
    cycles: Vec<Input>,
    rr: usize,
    layer_counts: bool,
    probe_cache: ShardCache,
    last: Option<Inference>,
    kept: BTreeMap<usize, EngagementOutcome>,
    fleet_sessions: usize,
}

/// Opens the set-up fleet with `open_fleet` and spreads its arrivals
/// [`gen::fleet::ARRIVAL_GAP_US`] apart.
fn open_spread_fleet(
    server: &StiServer,
    cfg: &ServeConfig,
    sessions: usize,
) -> Result<Vec<Session>, PipelineError> {
    let mut fleet = server.open_fleet(sessions, cfg.target, cfg.preload_bytes)?;
    for (i, s) in fleet.iter_mut().enumerate() {
        s.set_arrival(SimTime::from_us(i as u64 * gen::fleet::ARRIVAL_GAP_US));
    }
    Ok(fleet)
}

impl FleetAdmit {
    /// Builds the server, opens the fleet, parses the cycles and runs one
    /// warm-up cycle.
    pub fn setup(env: &Env, p: &RunParams, layer_counts: bool) -> Self {
        let cfg = ServeConfig {
            target: SimTime::from_ms(gen::fleet::TARGET_MS),
            preload_bytes: gen::fleet::PRELOAD_KB << 10,
            io_workers: 1,
            channels: p.opts.channels.unwrap_or(4),
            backpressure: BackpressureMode::Queue(SimTime::from_ms(200)),
            admission: AdmissionMode::Monitor,
            ..ServeConfig::default()
        };
        let cycles: Vec<Input> = (0..ops_for(p) as u64)
            .map(|c| Input::new(gen::fleet_cycle(&env.pool, p.seed, c)))
            .collect();
        let server = build_server(&env.ctx, &cfg);
        server.pause_io();
        let plain =
            open_spread_fleet(&server, &cfg, p.opts.fleet_sessions).expect("open the plain fleet");
        let mut this = Self {
            probe_cache: ShardCache::new(cfg.shard_cache_bytes),
            cfg,
            seed: p.seed,
            server,
            plain,
            slo: VecDeque::new(),
            cycles: vec![Input::new(gen::fleet_cycle(&env.pool, p.seed, gen::WARMUP_ROUND))],
            rr: 0,
            layer_counts,
            last: None,
            kept: BTreeMap::new(),
            fleet_sessions: p.opts.fleet_sessions,
        };
        this.op(0, env, &mut Tracer::new(false)).expect("warm-up cycle");
        this.server.reset_contention_log();
        this.last = None;
        this.cycles = cycles;
        this
    }
}

impl Workload for FleetAdmit {
    fn ops(&self) -> usize {
        self.cycles.len()
    }

    fn server(&self) -> &StiServer {
        &self.server
    }

    fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn op(&mut self, i: usize, _env: &Env, tr: &mut Tracer) -> Result<(), PipelineError> {
        let server = &self.server;
        let clients = &self.cycles[i].trace.clients;
        let (plain_c, slo_c) = (&clients[0], &clients[1]);
        let victim =
            self.plain.swap_remove(gen::fleet_victim(self.seed, i as u64, self.plain.len()));
        tr.span("pipeline.session_drop", "pipeline", |_| drop(victim));
        let replacement = tr.span("pipeline.session_open", "pipeline", |_| {
            server.session_with(plain_c.target, plain_c.preload_bytes)
        })?;
        let slo = slo_c.slo.expect("the generator gives the second client an SLO");
        let admitted = tr.span("pipeline.admit_slo", "pipeline", |_| {
            server.session_with_slo_at(slo, slo_c.preload_bytes, slo_c.arrival)
        })?;
        tr.span("pipeline.gate_cold", "pipeline", |_| admitted.gate_decision());
        self.slo.push_back(admitted);
        for _ in 0..gen::fleet::STEADY_GATES {
            let s = &self.slo[self.rr % self.slo.len()];
            self.rr += 1;
            tr.span("pipeline.gate_steady", "pipeline", |_| s.gate_decision());
        }
        let inf = infer_split(server, &replacement, &plain_c.engagements[0], tr)?;
        self.last = Some(inf);
        self.plain.push(replacement);
        if self.slo.len() > gen::fleet::LIVE_SLO {
            let oldest = self.slo.pop_front().expect("non-empty");
            tr.span("pipeline.session_drop", "pipeline", |_| drop(oldest));
        }
        Ok(())
    }

    fn harvest(&mut self, i: usize, env: &Env, tr: &mut Tracer, acc: &mut SimAcc) {
        let inf = self.last.take().expect("op stored its inference");
        let input = &self.cycles[i];
        let session = self.plain.last().expect("the replacement was pushed last");
        acc.attempted += 1;
        acc.clients += 2;
        acc.score(inf.class, &inf.probabilities, input.gen.labels[0][0]);
        acc.check_streamed(session.plan(), inf.outcome.loaded_bytes);
        acc.count_plan(session.plan(), env.ctx.task().model().config());
        let tokens = &input.trace.clients[0].engagements[0];
        probes::probe_plan(env, &self.cfg, &self.probe_cache, tr, session.plan(), tokens);
        harvest_report(
            &self.server,
            &HashMap::from([(session.token(), input.gen.clients[0].deadline_us())]),
            self.layer_counts,
            tr,
            acc,
        );
        if i.is_multiple_of(VERIFY_STRIDE) {
            self.kept.insert(i, outcome_of(inf));
        }
    }

    fn verify(&self, env: &Env) -> Result<(), String> {
        // The fresh server holds the set-up fleet but not the churn that
        // preceded a kept cycle; the engagement runs on the plain
        // replacement session, whose outcome depends on its knobs only.
        let traces: Vec<&ServingTrace> = self.kept.keys().map(|&c| &self.cycles[c].trace).collect();
        let (n, cfg) = (self.fleet_sessions, &self.cfg);
        let fresh = fresh_outcomes(env, cfg, |s| open_spread_fleet(s, cfg, n), &traces)?;
        for ((cycle, kept), fresh) in self.kept.iter().zip(&fresh) {
            let fresh: Vec<&EngagementOutcome> = fresh.iter().flatten().collect();
            if fresh != [kept] {
                return Err(format!(
                    "fleet_admit cycle {cycle}: outcome differs from replay_sequential on a fresh server"
                ));
            }
        }
        Ok(())
    }

    fn preload_bytes_in_use(&self) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        self.plain
            .iter()
            .chain(&self.slo)
            .filter(|s| seen.insert((s.target(), s.slo(), s.preload_used())))
            .map(Session::preload_used)
            .sum()
    }

    fn sample_trace_json(&self) -> &str {
        &self.cycles[0].gen.json
    }

    fn mix_population(&self) -> Vec<(SimTime, u64, SimTime)> {
        self.plain
            .iter()
            .chain(&self.slo)
            .map(|s| (s.target(), self.cfg.preload_bytes, s.arrival()))
            .collect()
    }
}

/// Builds the named workload. `layer_counts` selects the variant the
/// per-layer run uses: the twin stepping loop for the replay workloads,
/// span-stream assembly at every harvest for the others.
pub fn build(env: &Env, p: &RunParams, layer_counts: bool) -> Box<dyn Workload> {
    match p.workload.name {
        "solo_stream" => Box::new(SoloStream::setup(env, p, layer_counts)),
        "fleet_admit" => Box::new(FleetAdmit::setup(env, p, layer_counts)),
        _ => Box::new(Replayed::setup(env, p, layer_counts)),
    }
}
