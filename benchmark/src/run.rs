//! One benchmark run: the end-to-end run (three set-ups, the timed phase,
//! the correctness check) or the per-layer run (an untraced and a traced
//! phase of a quarter of the length, the probe suite, the trace file).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::bench::{self, Env, Phase, RunParams, Workload};
use crate::probes;
use crate::spec::{self, MetricSpec};
use crate::stats;
use crate::tracer::Tracer;
use crate::workloads;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Share of the end-to-end op count a per-layer phase runs.
pub const TRACE_LENGTH: f64 = 0.25;

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Outputs matched the sequential oracle, were well formed, and (for a
    /// per-layer run) tracing left every simulated number unchanged.
    pub correct: bool,
    /// Ops attempted in the measured phase.
    pub attempted: usize,
    /// Ops that returned a typed error.
    pub failed: usize,
    /// `(metric, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result object the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, every value with all its digits.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_num(*v), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric by name and unit, then the result object as the
    /// last line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (m, v) in &self.metrics {
            println!("{:<40} {:>18} {:<10} [{}]", m.name, json_num(*v), m.unit, m.kind.label());
        }
        println!("{}", self.result_json());
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn check(phase: &Phase, verify: Result<(), String>, notes: &mut Vec<String>) -> bool {
    let mut ok = true;
    if let Err(why) = verify {
        notes.push(format!("INCORRECT: {why}"));
        ok = false;
    }
    if phase.acc.malformed > 0 {
        notes.push(format!("INCORRECT: {} malformed outcomes", phase.acc.malformed));
        ok = false;
    }
    if phase.failed_ops > 0 {
        notes.push(format!("INCORRECT: {} ops returned an error", phase.failed_ops));
        ok = false;
    }
    ok
}

fn phase_note(label: &str, phase: &Phase) -> String {
    let a = &phase.acc;
    format!(
        "{label}: {} ops ({} failed) in {:.3} s; engagements attempted {} completed {} shed {} ({:.4} failed share); clients rejected {}/{}",
        phase.ops,
        phase.failed_ops,
        phase.wall_s,
        a.attempted,
        a.completed,
        a.shed,
        if a.attempted == 0 { 0.0 } else { (a.attempted - a.completed) as f64 / a.attempted as f64 },
        a.rejected_clients,
        a.clients,
    )
}

/// The end-to-end run: `setups` full set-ups ([`SETUPS`] in a real run; the
/// last one is measured), the timed phase with tracing off, then the
/// correctness check.
pub fn end_to_end(p: &RunParams, setups: usize) -> Outcome {
    let mut setup_s = Vec::with_capacity(setups);
    let mut state: Option<(Env, Box<dyn Workload>)> = None;
    for _ in 0..setups.max(1) {
        drop(state.take());
        let t = Instant::now();
        let env = Env::build();
        let w = workloads::build(&env, p, false);
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((env, w));
    }
    let (env, mut w) = state.expect("at least one set-up ran");
    let phase = bench::run_phase(&mut *w, &env, &mut Tracer::new(false));
    let mut notes = vec![
        format!(
            "workload {} seed {} seconds {} ({} host threads); set-ups {:?} s",
            p.workload.name,
            p.seed,
            p.seconds,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            setup_s
        ),
        phase_note("timed phase", &phase),
    ];
    let correct = check(&phase, w.verify(&env), &mut notes);
    drop(w);
    drop(env);

    let host = phase.host_op_loop();
    notes.push(format!(
        "host op loop (not bounded; the per-layer run reports it): {:.3} eng/s, op p50 {:.3} us, p90 {:.3} us",
        host["host.eng_per_s"], host["host.op_p50_us"], host["host.op_p90_us"]
    ));
    let mut values = phase.sim_end_to_end();
    values.insert("setup_s", stats::median(&setup_s));
    values.insert("peak_rss_mb", bench::peak_rss_mb());
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| (m, *values.get(m.name).expect("every end-to-end metric is computed")))
        .collect();
    Outcome { correct, attempted: phase.ops, failed: phase.failed_ops, metrics, notes }
}

/// Where a per-layer run writes its Chrome trace unless told otherwise:
/// inside the package's ignored `target/`.
pub fn default_trace_path(p: &RunParams) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("traces")
        .join(format!("{}-seed{}.json", p.workload.name, p.seed))
}

fn median_us(tr: &Tracer, name: &str) -> f64 {
    stats::median(&tr.durations(name)) / 1e3
}

fn per(total_ns: f64, n: f64) -> f64 {
    if n == 0.0 {
        0.0
    } else {
        total_ns / 1e3 / n
    }
}

/// The per-layer run: one set-up, an untraced and a traced phase of a
/// quarter of the length on identically built workloads, the probe suite,
/// and the check that tracing changed no simulated number. Counts come
/// from the untraced phase, times from the traced one.
pub fn per_layer(p: &RunParams, trace_out: &Path) -> std::io::Result<Outcome> {
    let quarter =
        RunParams { opts: bench::Options { length: p.opts.length * TRACE_LENGTH, ..p.opts }, ..*p };
    let env = Env::build();

    let mut plain = workloads::build(&env, &quarter, true);
    let untraced = bench::run_phase(&mut *plain, &env, &mut Tracer::new(false));
    drop(plain);

    let mut w = workloads::build(&env, &quarter, true);
    let mut tr = Tracer::new(true);
    let traced = bench::run_phase(&mut *w, &env, &mut tr);
    let mut notes = vec![
        format!(
            "workload {} seed {} seconds {} (per-layer run)",
            p.workload.name, p.seed, p.seconds
        ),
        phase_note("untraced phase", &untraced),
        phase_note("traced phase", &traced),
    ];
    let mut correct = check(&traced, w.verify(&env), &mut notes);
    tr.set_op(u64::MAX);
    probes::suite(&env, &*w, &mut tr);

    let mut counts = untraced.layer_counts();
    let sim_a: BTreeMap<_, _> =
        untraced.sim_end_to_end().into_iter().chain(counts.clone()).collect();
    let sim_b: BTreeMap<_, _> =
        traced.sim_end_to_end().into_iter().chain(traced.layer_counts()).collect();
    for (name, a) in &sim_a {
        let b = sim_b[name];
        if a.to_bits() != b.to_bits() {
            notes.push(format!("INCORRECT: tracing moved {name}: {a} untraced, {b} traced"));
            correct = false;
        }
    }

    let eng = traced.acc.completed as f64;
    let probed = tr.durations("probe.engagement").len() as f64;
    let mean_op_ns = stats::median(&tr.durations("bench.op"));
    let probe_ns = stats::median(&tr.durations("probe.engagement"));
    let eng_per_op = if traced.ops == 0 { 0.0 } else { eng / traced.ops as f64 };
    let dequant_ns = tr.total_ns("quant.dequant");
    counts.extend(untraced.host_op_loop());
    counts.extend([
        ("tensor.matmul_us", median_us(&tr, "tensor.matmul")),
        ("quant.dequant_us_per_eng", per(dequant_ns, probed)),
        (
            "quant.dequant_mb_per_s",
            if dequant_ns == 0.0 {
                0.0
            } else {
                tr.counted("quant.dequant.bytes") as f64 / 1e6 / (dequant_ns / 1e9)
            },
        ),
        ("transformer.forward_us_per_eng", per(tr.total_ns("transformer.forward"), probed)),
        ("storage.drive_io_us_per_eng", per(tr.total_ns("storage.drive_io"), eng)),
        ("storage.load_hit_us", median_us(&tr, "storage.load_hit")),
        ("storage.load_miss_us", median_us(&tr, "storage.load_miss")),
        ("planner.importance_profile_s", env.importance_s),
        ("planner.plan_cold_us", median_us(&tr, "planner.plan_cold")),
        ("planner.plan_hit_us", median_us(&tr, "planner.plan_hit")),
        ("planner.slo_search_us", median_us(&tr, "planner.slo_search")),
        ("planner.mix_predict_us", median_us(&tr, "planner.mix_predict")),
        ("pipeline.build_server_us", median_us(&tr, "pipeline.build_server")),
        (
            "pipeline.open_fleet_us_per_session",
            median_us(&tr, "pipeline.open_fleet") / probes::SUITE_FLEET as f64,
        ),
        ("pipeline.session_open_us", median_us(&tr, "pipeline.session_open")),
        ("pipeline.admit_slo_us", median_us(&tr, "pipeline.admit_slo")),
        ("pipeline.gate_cold_us", median_us(&tr, "pipeline.gate_cold")),
        ("pipeline.gate_steady_us", median_us(&tr, "pipeline.gate_steady")),
        ("pipeline.infer_issue_us", median_us(&tr, "pipeline.infer_issue")),
        ("pipeline.infer_complete_us", median_us(&tr, "pipeline.infer_complete")),
        ("pipeline.session_drop_us", median_us(&tr, "pipeline.session_drop")),
        ("pipeline.mix_digest_us", median_us(&tr, "pipeline.mix_digest")),
        (
            "pipeline.contention_report_us_per_eng",
            per(tr.total_ns("pipeline.contention_report"), eng),
        ),
        (
            "device.topology_sim_us_per_job",
            per(tr.total_ns("device.topology_sim"), tr.counted("device.topology_sim.jobs") as f64),
        ),
        (
            "core.replay_event_us_per_eng",
            per(
                tr.total_ns("core.replay_event"),
                tr.counted("core.replay_event.engagements") as f64,
            ),
        ),
        ("core.parse_trace_us", median_us(&tr, "core.parse_trace")),
        ("obs.metrics_snapshot_us", median_us(&tr, "obs.metrics_snapshot")),
        ("obs.trace_spans_us", median_us(&tr, "obs.trace_spans")),
    ]);
    counts.insert(
        "trace.coverage",
        if mean_op_ns == 0.0 { 0.0 } else { probe_ns * eng_per_op / mean_op_ns },
    );
    counts.insert(
        "trace.overhead",
        stats::median(&traced.op_us) / stats::median(&untraced.op_us).max(f64::MIN_POSITIVE),
    );

    notes.push(format!(
        "{} spans over {} ops, {probed} probed engagements; layer self time:",
        tr.spans().len(),
        traced.ops
    ));
    let own = tr.layer_self_ns();
    let total: u64 = own.values().sum();
    for (layer, ns) in &own {
        notes.push(format!(
            "  {layer:<12} {:>12.3} ms {:>6.1} %",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        ));
    }
    if let Some(dir) = trace_out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(trace_out, tr.chrome_trace_json())?;
    notes.push(format!("chrome trace written to {}", trace_out.display()));

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| (m, *counts.get(m.name).expect("every per-layer metric is computed")))
        .collect();
    Ok(Outcome { correct, attempted: traced.ops, failed: traced.failed_ops, metrics, notes })
}
