//! The measuring harness shared by the four workloads: set-up, the timed
//! op loop, simulated-track accounting, and the counter snapshots the
//! per-layer counts are read from.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use sti::prelude::*;
use sti::TaskContext;
use sti_storage::{IoSchedulerStats, PrefetchPoolStats};

use crate::gen::{Generated, Pool};
use crate::spec::WorkloadSpec;
use crate::stats;
use crate::tracer::Tracer;

/// Public configuration the `selftest` perturbs; a normal run uses
/// [`Options::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Overrides the workload's device-channel count.
    pub channels: Option<u16>,
    /// Shared-IO batching where the workload configures a window.
    pub batching: bool,
    /// Markov prefetch where the workload configures it.
    pub prefetch: bool,
    /// Plain sessions `fleet_admit` opens during set-up.
    pub fleet_sessions: usize,
    /// Multiplier on the op count `--seconds` implies.
    pub length: f64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            channels: None,
            batching: true,
            prefetch: true,
            fleet_sessions: crate::gen::fleet::SESSIONS,
            length: 1.0,
        }
    }
}

/// Everything one run is a function of.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase is sized for.
    pub seconds: f64,
    /// Public-config perturbations.
    pub opts: Options,
}

/// Dev examples the set-up profiles shard importance on. The full 32-example
/// split costs ~10 s per set-up here; three set-ups per run would not fit
/// the benchmark's total-time cap, so set-up profiles on the first 8 — the
/// same code path at a quarter of the work, and every plan of the run is
/// built from that profile.
pub const DEV_EXAMPLES: usize = 8;

/// The program-side state every workload builds on: the task (model, test
/// split), its shard store and importance profile.
pub struct Env {
    /// Task + per-model caches.
    pub ctx: TaskContext,
    /// The test split as a generator pool.
    pub pool: Pool,
    /// Wall time of `profile_importance` inside this set-up.
    pub importance_s: f64,
    /// The hardware profile `build_server` measures (every workload serves
    /// on the default device).
    pub hw: HwProfile,
}

impl Env {
    /// Builds the task, the shard store and the importance profile
    /// (computed, never read from disk).
    pub fn build() -> Self {
        let ctx = TaskContext::new(TaskKind::Sst2);
        ctx.shard_source();
        let dev = ctx.task().dev().examples();
        let dev = Dataset::new(dev[..DEV_EXAMPLES.min(dev.len())].to_vec());
        let t = Instant::now();
        let importance = profile_importance(ctx.task().model(), &dev, ctx.quant());
        let importance_s = t.elapsed().as_secs_f64();
        ctx.set_importance(importance);
        let pool = Pool::new(ctx.task().test().iter().map(|e| (e.tokens.clone(), e.label)));
        let hw = HwProfile::measure(
            &ServeConfig::default().device,
            ctx.task().model().config(),
            ctx.quant(),
        );
        Self { ctx, pool, importance_s, hw }
    }
}

/// One workload instance: owns its server, sessions and parsed inputs.
pub trait Workload {
    /// Ops in the timed phase.
    fn ops(&self) -> usize;

    /// The server under test.
    fn server(&self) -> &StiServer;

    /// The serve configuration the server was built from.
    fn config(&self) -> &ServeConfig;

    /// Runs op `i`. Spans go to `tr`; nothing else is timed in here.
    ///
    /// # Errors
    ///
    /// A typed error from the program counts as a failed op.
    fn op(&mut self, i: usize, env: &Env, tr: &mut Tracer) -> Result<(), PipelineError>;

    /// Runs after op `i`, outside the op timer: harvests contention
    /// reports, scores outcomes, keeps what the correctness check needs.
    fn harvest(&mut self, i: usize, env: &Env, tr: &mut Tracer, acc: &mut SimAcc);

    /// Compares kept outcomes with `replay_sequential` on a fresh,
    /// identically configured server.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    fn verify(&self, env: &Env) -> Result<(), String>;

    /// Bytes of distinct preload buffers the workload's sessions use.
    fn preload_bytes_in_use(&self) -> u64;

    /// JSON of op 0's trace (for the parse probe).
    fn sample_trace_json(&self) -> &str;

    /// Whether an op is one `replay_event` of its trace.
    fn replays_events(&self) -> bool {
        false
    }

    /// `(target, preload bytes, arrival)` of the sessions a mix the size of
    /// the live one holds (for the planner probes).
    fn mix_population(&self) -> Vec<(SimTime, u64, SimTime)>;
}

/// Simulated-track accounting over every engagement of a phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimAcc {
    /// Engagements the traces asked for.
    pub attempted: u64,
    /// Engagements that produced an outcome.
    pub completed: u64,
    /// Engagements the gate shed.
    pub shed: u64,
    /// Clients replayed.
    pub clients: u64,
    /// Clients admission control rejected.
    pub rejected_clients: u64,
    /// Engagements whose contended latency met their deadline.
    pub met: u64,
    /// Engagements whose predicted class equals the label.
    pub correct: u64,
    /// Contended latency of every engagement, µs.
    pub contended_us: Vec<u64>,
    /// Initial queueing of every engagement, µs.
    pub initial_queueing_us: Vec<u64>,
    /// Σ (contended − uncontended) ÷ contended.
    pub queueing_share_sum: f64,
    /// Σ queue makespan over reports, µs.
    pub queue_makespan_us: u64,
    /// Σ flash busy over reports, µs.
    pub flash_busy_us: u64,
    /// Deepest queue in any report.
    pub max_queue_depth: usize,
    /// Gate decisions logged.
    pub gate_decisions: u64,
    /// Decisions that queue-delayed.
    pub gate_delayed: u64,
    /// Decisions from the second gate pass.
    pub re_gated: u64,
    /// Applied queue delays, µs.
    pub gate_delays_us: Vec<u64>,
    /// Speculative flash bytes.
    pub spec_bytes: u64,
    /// Speculative channel time, µs.
    pub spec_busy_us: u64,
    /// Speculative jobs demand pushed around.
    pub spec_preempted: u64,
    /// Event-engine heap operations.
    pub heap_ops: u64,
    /// Virtual-clock spans assembled.
    pub obs_spans: u64,
    /// Shards executed.
    pub shards: u64,
    /// Model FLOPs executed.
    pub flops: u64,
    /// Outcomes that failed [`SimAcc::score`]'s well-formedness checks.
    pub malformed: u64,
}

impl SimAcc {
    /// Folds one contention report in. `deadline_us` maps a session token
    /// to the deadline its engagements are held to.
    pub fn ingest(&mut self, report: &ContentionReport, deadline_us: &HashMap<u64, u64>) {
        for e in &report.engagements {
            let contended = e.contended.as_us();
            self.completed += 1;
            self.contended_us.push(contended);
            self.initial_queueing_us.push(e.initial_queueing.as_us());
            if contended > 0 {
                self.queueing_share_sum += e.queueing().as_us() as f64 / contended as f64;
            }
            if deadline_us.get(&e.session).is_some_and(|&d| contended <= d) {
                self.met += 1;
            }
        }
        self.queue_makespan_us += report.queue_makespan.as_us();
        self.flash_busy_us += report.flash_busy.as_us();
        self.max_queue_depth = self.max_queue_depth.max(report.max_queue_depth);
        self.gate_decisions += report.gate.len() as u64;
        self.shed += report.shed_count();
        self.gate_delayed += report.queue_delayed();
        self.re_gated += report.re_gated_count();
        self.gate_delays_us.extend(
            report
                .gate
                .iter()
                .filter(|d| !d.shed && d.delay > SimTime::ZERO)
                .map(|d| d.delay.as_us()),
        );
        if let Some(p) = &report.prefetch {
            self.spec_bytes += p.speculated_bytes;
            self.spec_busy_us += p.busy.as_us();
            self.spec_preempted += p.preempted;
        }
    }

    /// Scores one outcome against its label and checks that its
    /// probabilities are finite and sum to one.
    pub fn score(&mut self, class: usize, probabilities: &[f32], label: usize) {
        if class == label {
            self.correct += 1;
        }
        let sum: f32 = probabilities.iter().sum();
        if !probabilities.iter().all(|p| p.is_finite()) || (sum - 1.0).abs() > 1e-3 {
            self.malformed += 1;
        }
    }

    /// Checks that an engagement whose plan exceeds `|S|` streamed bytes.
    pub fn check_streamed(&mut self, plan: &ExecutionPlan, loaded_bytes: u64) {
        if plan.shape.shard_count() > plan.preload.len() && loaded_bytes == 0 {
            self.malformed += 1;
        }
    }

    /// Counts one executed plan.
    pub fn count_plan(&mut self, plan: &ExecutionPlan, cfg: &ModelConfig) {
        self.shards += plan.shape.shard_count() as u64;
        self.flops += plan.shape.depth as u64 * cfg.layer_flops(plan.shape.width);
    }

    /// Folds a replayed round in: contention, accuracy (shed engagements
    /// produce no outcome, so outcomes are re-aligned through the gate
    /// log), engine and span counts. `first_token` is the registry token
    /// the round's first admitted client received.
    pub fn ingest_round(&mut self, gen: &Generated, rep: &ServeReport, first_token: u64) -> u64 {
        let mut token = first_token;
        let mut deadlines = HashMap::new();
        let mut token_of = vec![None; gen.clients.len()];
        for (i, c) in gen.clients.iter().enumerate() {
            self.clients += 1;
            if rep.rejected_clients.contains(&i) {
                self.rejected_clients += 1;
                continue;
            }
            deadlines.insert(token, c.deadline_us());
            token_of[i] = Some(token);
            token += 1;
        }
        self.attempted += gen.engagements() as u64;
        self.ingest(&rep.contention, &deadlines);
        for (i, outcomes) in rep.outcomes.iter().enumerate() {
            let Some(tok) = token_of[i] else { continue };
            let mut sheds = rep.contention.gate.iter().filter(|d| d.session == tok).map(|d| d.shed);
            let mut served = outcomes.iter();
            for &label in &gen.labels[i] {
                if sheds.next().unwrap_or(false) {
                    continue;
                }
                let Some(o) = served.next() else { break };
                self.score(o.class, &o.probabilities, label);
                // Without the plan at hand, only a zero `|S|` proves the
                // engagement had to stream.
                if gen.clients[i].preload_kb == 0 && o.loaded_bytes == 0 {
                    self.malformed += 1;
                }
            }
        }
        self.heap_ops += rep.heap_ops;
        self.obs_spans += rep.spans.len() as u64;
        token
    }
}

/// The cumulative program counters per-layer counts are deltas of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// IO-scheduler counters.
    pub io: IoSchedulerStats,
    /// Shard-cache counters.
    pub shard: ShardCacheStats,
    /// Plan-cache counters.
    pub plan: PlanCacheStats,
    /// SLO-search memo counters.
    pub slo_plan: PlanCacheStats,
    /// Knob combinations planned.
    pub distinct_plans: usize,
    /// Staging-pool counters (zero with prefetch off).
    pub pool: PrefetchPoolStats,
    /// Markov-model counters (zero with prefetch off).
    pub model: PrefetcherStats,
}

impl Counters {
    /// Reads every counter through the server's public accessors.
    pub fn read(server: &StiServer) -> Self {
        let pf = server.prefetch_report();
        Self {
            io: server.io_stats(),
            shard: server.shard_stats(),
            plan: server.plan_stats(),
            slo_plan: server.slo_plan_stats(),
            distinct_plans: server.cached_plans(),
            pool: pf.map(|p| p.pool).unwrap_or_default(),
            model: pf.map(|p| p.model).unwrap_or_default(),
        }
    }
}

/// What one timed phase produced.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Ops attempted.
    pub ops: usize,
    /// Ops that returned a typed error.
    pub failed_ops: usize,
    /// Host latency of every op, µs.
    pub op_us: Vec<f64>,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Simulated-track accounting.
    pub acc: SimAcc,
    /// Counters at the start of the phase.
    pub before: Counters,
    /// Counters at the end of the phase.
    pub after: Counters,
    /// Modelled resident memory at the end of the phase, KiB.
    pub resident_kb: f64,
    /// Device channels the server ran.
    pub channels: u16,
}

/// Runs the workload's ops once, timing each.
pub fn run_phase(w: &mut dyn Workload, env: &Env, tr: &mut Tracer) -> Phase {
    let ops = w.ops();
    let mut acc = SimAcc::default();
    let mut op_us = Vec::with_capacity(ops);
    let mut failed_ops = 0;
    let before = Counters::read(w.server());
    let start = Instant::now();
    for i in 0..ops {
        tr.set_op(i as u64);
        let t = Instant::now();
        let result = tr.span("bench.op", "bench", |tr| w.op(i, env, tr));
        op_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        match result {
            Ok(()) => w.harvest(i, env, tr, &mut acc),
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                failed_ops += 1;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = Counters::read(w.server());
    let resident =
        w.server().resident_bytes() as u64 + w.preload_bytes_in_use() + after.pool.resident_bytes;
    Phase {
        ops,
        failed_ops,
        op_us,
        wall_s,
        acc,
        before,
        after,
        resident_kb: resident as f64 / 1024.0,
        channels: w.server().device_topology().channel_count(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us_percentile_ms(values: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = values.iter().map(|&u| u as f64 / 1e3).collect();
    stats::percentile(&v, p)
}

impl Phase {
    /// The simulated end-to-end metrics (everything but set-up time and
    /// peak RSS, which are the process's).
    pub fn sim_end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let a = &self.acc;
        let eng = a.completed as f64;
        let flash_bytes = (self.after.io.bytes - self.before.io.bytes) as f64
            - (self.after.io.batch.flash_bytes_saved - self.before.io.batch.flash_bytes_saved)
                as f64
            + a.spec_bytes as f64;
        BTreeMap::from([
            ("sim_contended_p50_ms", us_percentile_ms(&a.contended_us, 0.50)),
            ("sim_contended_p99_ms", us_percentile_ms(&a.contended_us, 0.99)),
            ("sim_slo_hit_rate", ratio(a.met as f64, a.attempted as f64)),
            ("sim_eng_per_s", ratio(eng, a.queue_makespan_us as f64 / 1e6)),
            ("accuracy", ratio(a.correct as f64, a.attempted as f64)),
            ("sim_flash_kb_per_eng", ratio(flash_bytes / 1024.0, eng)),
            ("resident_kb", self.resident_kb),
        ])
    }

    /// Host timings of the op loop: the `host.*` per-layer metrics. Plain
    /// wall-clock statistics, so they carry the sandbox's noise in full.
    pub fn host_op_loop(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("host.eng_per_s", ratio(self.acc.completed as f64, self.wall_s)),
            ("host.op_p50_us", stats::percentile(&self.op_us, 0.50)),
            ("host.op_p90_us", stats::percentile(&self.op_us, 0.90)),
        ])
    }

    /// Per-layer counts: deltas of program counters and simulated-track
    /// aggregates. All repeat exactly for one (seed, length).
    pub fn layer_counts(&self) -> BTreeMap<&'static str, f64> {
        let a = &self.acc;
        let eng = a.completed as f64;
        let (b, e) = (&self.before, &self.after);
        let requests = (e.io.requests - b.io.requests) as f64;
        let coalesced = (e.io.batch.coalesced_requests - b.io.batch.coalesced_requests) as f64;
        let lookups = ((e.shard.hits + e.shard.misses) - (b.shard.hits + b.shard.misses)) as f64;
        let plan_lookups = ((e.plan.hits + e.plan.misses) - (b.plan.hits + b.plan.misses)) as f64;
        let slo_lookups =
            ((e.slo_plan.hits + e.slo_plan.misses) - (b.slo_plan.hits + b.slo_plan.misses)) as f64;
        let staged = (e.pool.staged_flash_bytes + e.pool.pinned_bytes)
            - (b.pool.staged_flash_bytes + b.pool.pinned_bytes);
        let plans = (e.model.plans - b.model.plans) as f64;
        let decisions = a.gate_decisions as f64;
        BTreeMap::from([
            ("tensor.flops_per_eng", ratio(a.flops as f64, eng)),
            ("quant.blobs_per_eng", ratio(a.shards as f64, eng)),
            ("transformer.shards_per_eng", ratio(a.shards as f64, eng)),
            ("storage.cache_hit_rate", ratio((e.shard.hits - b.shard.hits) as f64, lookups)),
            ("storage.cache_evictions", (e.shard.evictions - b.shard.evictions) as f64),
            ("storage.io_requests_per_eng", ratio(requests, eng)),
            ("storage.io_kb_per_eng", ratio((e.io.bytes - b.io.bytes) as f64 / 1024.0, eng)),
            (
                "storage.contended_request_share",
                ratio((e.io.contended_requests - b.io.contended_requests) as f64, requests),
            ),
            ("storage.batch_occupancy", ratio(requests, requests - coalesced)),
            ("storage.coalesced_share", ratio(coalesced, requests)),
            (
                "storage.flash_kb_saved_per_eng",
                ratio(
                    (e.io.batch.flash_bytes_saved - b.io.batch.flash_bytes_saved) as f64 / 1024.0,
                    eng,
                ),
            ),
            (
                "storage.pool_hit_rate",
                ratio((e.pool.hit_bytes - b.pool.hit_bytes) as f64, staged as f64),
            ),
            ("storage.pool_evictions", (e.pool.evictions - b.pool.evictions) as f64),
            ("storage.spec_kb_per_eng", ratio(a.spec_bytes as f64 / 1024.0, eng)),
            (
                "planner.plan_cache_hit_rate",
                ratio((e.plan.hits - b.plan.hits) as f64, plan_lookups),
            ),
            ("planner.distinct_plans", e.distinct_plans as f64),
            (
                "planner.slo_plan_cache_hit_rate",
                ratio((e.slo_plan.hits - b.slo_plan.hits) as f64, slo_lookups),
            ),
            ("planner.prefetch_plans_per_eng", ratio(plans, eng)),
            (
                "planner.prefetch_confirm_rate",
                ratio((e.model.confirmed - b.model.confirmed) as f64, plans),
            ),
            ("planner.prefetch_rejected", (e.model.rejected - b.model.rejected) as f64),
            ("pipeline.rejected_share", ratio(a.rejected_clients as f64, a.clients as f64)),
            ("pipeline.gate_decisions", decisions),
            ("pipeline.gate_shed_share", ratio(a.shed as f64, decisions)),
            ("pipeline.gate_delayed_share", ratio(a.gate_delayed as f64, decisions)),
            ("pipeline.gate_delay_p50_ms", us_percentile_ms(&a.gate_delays_us, 0.50)),
            ("pipeline.re_gated", a.re_gated as f64),
            (
                "device.flash_util",
                ratio(a.flash_busy_us as f64, self.channels as f64 * a.queue_makespan_us as f64),
            ),
            ("device.queue_wait_p50_ms", us_percentile_ms(&a.initial_queueing_us, 0.50)),
            ("device.queue_wait_p99_ms", us_percentile_ms(&a.initial_queueing_us, 0.99)),
            ("device.queueing_share", ratio(a.queueing_share_sum, eng)),
            ("device.max_queue_depth", a.max_queue_depth as f64),
            ("device.spec_busy_share", ratio(a.spec_busy_us as f64, a.flash_busy_us as f64)),
            ("device.spec_preempted", a.spec_preempted as f64),
            ("device.heap_ops_per_eng", ratio(a.heap_ops as f64, eng)),
            ("obs.spans_per_eng", ratio(a.obs_spans as f64, eng)),
        ])
    }
}

/// `VmHWM` of this process in MiB (zero where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
