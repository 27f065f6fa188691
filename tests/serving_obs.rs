//! Contracts of the deterministic observability layer (`sti-obs`).
//!
//! 1. **Run-twice determinism.** Replaying a trace twice produces
//!    byte-identical Chrome-trace exports — the event executor on every
//!    shipped fixture, the sequential oracle on smoke and burst.
//! 2. **Event ≡ sequential exports.** The deterministic span tracks
//!    (session/flash — `TrackFilter::Deterministic`) export byte-identically
//!    from the event executor and from the sequential oracle (whose IO each
//!    blocking `infer` drives on its own thread), because spans are clocked
//!    on *simulated* time and assembled from the server's logs, not from
//!    host scheduling.
//! 3. **Gate spans carry the reason.** With backpressure on, the stream
//!    contains `gate.*` markers whose args name the deciding mix digest,
//!    and the structured [`GateReason`] on each decision prices the load
//!    the prediction actually ran against.
//! 4. **Observability never perturbs results.** A replay with a live ring
//!    sink installed reports the same outcomes and gate decisions as one
//!    without.
//! 5. **A bare report assembles no spans.** Without a sink a replay's
//!    `ServeReport::spans` is empty, and `StiServer::trace_spans` read after
//!    the replay is the sink-on stream minus what the sink itself recorded.
//!
//! Tests 1–4 read a bare server's stream through `trace_spans` after the
//! replay and assert it is non-empty, so no comparison passes on two empty
//! streams.

use std::sync::{Arc, Mutex, Weak};

use sti::prelude::*;
use sti::TaskContext;

/// One context for the suite, shared by the tests running at the moment and
/// dropped with the last of them. A `static` context would never drop, and
/// its on-disk shard store would outlive the test process.
fn ctx() -> Arc<TaskContext> {
    static CTX: Mutex<Weak<TaskContext>> = Mutex::new(Weak::new());
    let mut slot = CTX.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    slot.upgrade().unwrap_or_else(|| {
        let fresh = Arc::new(TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny()));
        *slot = Arc::downgrade(&fresh);
        fresh
    })
}

fn serve_config(backpressure: BackpressureMode) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        backpressure,
        ..Default::default()
    }
}

/// `--channels 4 --backpressure queue --max-queue-ms 2000 --batch-window
/// 500 --prefetch markov` on top of the defaults, as `serving_golden` runs.
fn stacked_flags() -> ServeConfig {
    ServeConfig {
        channels: 4,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(2_000)),
        batch_window: Some(SimTime::from_us(500)),
        prefetch: PrefetchConfig::markov(64 << 10),
        ..Default::default()
    }
}

type Replay = fn(&StiServer, &ServingTrace) -> Result<ServeReport, PipelineError>;

/// The deterministic-track export of a span stream.
fn export(spans: &[SpanEvent]) -> String {
    chrome_trace_json(spans, TrackFilter::Deterministic)
}

/// Replays `trace` on a fresh server without a sink and returns the stream
/// `trace_spans` assembles from its logs afterwards, with the report.
fn bare_replay(
    ctx: &TaskContext,
    cfg: &ServeConfig,
    trace: &ServingTrace,
    replay: Replay,
) -> (ServeReport, Vec<SpanEvent>) {
    let server = build_server(ctx, cfg);
    let report = replay(&server, trace).unwrap();
    assert!(report.spans.is_empty(), "a bare report assembles no spans");
    let spans = server.trace_spans();
    assert!(!spans.is_empty(), "the bare server's logs hold a span stream");
    (report, spans)
}

#[test]
fn event_replays_export_byte_identical_traces_on_every_fixture() {
    let ctx = ctx();
    for path in
        ["examples/traces/smoke.json", "examples/traces/burst.json", "examples/traces/mix.json"]
    {
        let trace = load_trace(path).expect("shipped example parses");
        let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
        let a = bare_replay(&ctx, &cfg, &trace, replay_event).1;
        let b = bare_replay(&ctx, &cfg, &trace, replay_event).1;
        assert_eq!(export(&a), export(&b), "{path}: event replays must export identically");
    }
}

#[test]
fn sequential_replays_export_byte_identical_traces() {
    let ctx = ctx();
    for path in ["examples/traces/smoke.json", "examples/traces/burst.json"] {
        let trace = load_trace(path).expect("shipped example parses");
        let cfg = serve_config(BackpressureMode::Shed);
        let a = bare_replay(&ctx, &cfg, &trace, replay_sequential).1;
        let b = bare_replay(&ctx, &cfg, &trace, replay_sequential).1;
        assert_eq!(export(&a), export(&b), "{path}: sequential replays must export identically");
    }
}

#[test]
fn sequential_and_event_exports_agree_on_the_deterministic_tracks() {
    let ctx = ctx();
    // Batching off: the oracle's and the executor's dispatch logs replay to
    // the same canonical flash timeline, so even the flash track matches.
    for path in ["examples/traces/smoke.json", "examples/traces/mix.json"] {
        let trace = load_trace(path).expect("shipped example parses");
        let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
        let sequential = bare_replay(&ctx, &cfg, &trace, replay_sequential).1;
        let event = bare_replay(&ctx, &cfg, &trace, replay_event).1;
        assert_eq!(
            export(&sequential),
            export(&event),
            "{path}: deterministic tracks must not depend on who drives the sessions"
        );
    }
}

#[test]
fn gate_spans_surface_the_deciding_reason() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/mix.json").expect("shipped example parses");
    let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
    let (report, spans) = bare_replay(&ctx, &cfg, &trace, replay_event);
    let gate_spans: Vec<&SpanEvent> =
        spans.iter().filter(|s| s.name.starts_with("gate.")).collect();
    assert!(!gate_spans.is_empty(), "a gated mix emits gate spans");
    for span in &gate_spans {
        assert_eq!(span.kind, TrackKind::Session);
        let keys: Vec<&str> = span.args.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["digest", "predicted_us", "dominant"]);
    }
    // The structured reason on the decision log matches what the walk saw:
    // the digest is the memo identity, and a session never blames itself.
    for d in &report.contention.gate {
        assert_ne!(d.reason.digest, 0, "decisions carry the deciding mix digest");
        if let Some((token, service)) = d.reason.dominant_lane {
            assert_ne!(token, d.session, "the dominant lane excludes the deciding session");
            assert!(service > SimTime::ZERO);
        }
    }
    // And the export renders them (instants or completes on session tracks).
    let json = export(&spans);
    assert!(json.contains("\"gate."), "gate spans reach the Chrome-trace export");
}

#[test]
fn a_live_sink_never_perturbs_simulated_results() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/mix.json").expect("shipped example parses");
    let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
    let (bare, bare_stream) = bare_replay(&ctx, &cfg, &trace, replay_event);
    let traced_server = build_server(&ctx, &cfg);
    traced_server.set_obs_sink(ObsSink::ring(4 << 20));
    let traced = replay_event(&traced_server, &trace).unwrap();
    assert_eq!(bare.outcomes, traced.outcomes, "instruments record, they never decide");
    assert_eq!(bare.contention.gate, traced.contention.gate);
    // The sink adds spans (admission markers on session tracks, engine/host
    // color) but every log-derived span of the bare run is still there.
    assert!(traced.spans.len() > bare_stream.len());
    for span in &bare_stream {
        assert!(traced.spans.contains(span), "traced run dropped a log-derived span: {span:?}");
    }
    assert!(
        traced.spans.iter().any(|s| !s.kind.deterministic()),
        "the live sink contributed engine/host color spans"
    );
    assert!(
        bare_stream.iter().all(|s| s.kind.deterministic()),
        "without a sink only log-derived spans exist"
    );
    // Sink-on exports stay driver-independent too: the added admission
    // markers are a pure function of the (serialized) open sequence.
    let traced_sequential_server = build_server(&ctx, &cfg);
    traced_sequential_server.set_obs_sink(ObsSink::ring(4 << 20));
    let traced_sequential = replay_sequential(&traced_sequential_server, &trace).unwrap();
    assert_eq!(
        export(&traced.spans),
        export(&traced_sequential.spans),
        "deterministic-track export with a live sink must not depend on who drives the sessions"
    );
}

/// Tracing off is the report's switch too: a bare replay leaves
/// `spans` empty, and the bare server's `trace_spans` read afterwards is the
/// sink-on report's stream minus what the sink itself recorded (the
/// `admission.*` markers and the engine/host color tracks) — on every
/// shipped fixture, both executors, default and stacked flags.
#[test]
fn a_bare_report_leaves_the_stream_to_trace_spans() {
    let ctx = ctx();
    let from_the_sink = |s: &SpanEvent| {
        s.name.starts_with("admission.") || matches!(s.kind, TrackKind::Engine | TrackKind::Host)
    };
    let replays: [(&str, Replay); 2] = [("event", replay_event), ("sequential", replay_sequential)];
    // Only SLO admissions leave markers, so some fixtures have none; the
    // subtraction must still remove some somewhere.
    let mut markers = 0;
    for (config, cfg) in [("default", ServeConfig::default()), ("stacked", stacked_flags())] {
        for fixture in ["smoke", "burst", "mix", "recurrent"] {
            let trace = load_trace(format!("examples/traces/{fixture}.json"))
                .expect("shipped example parses");
            for (executor, replay) in replays {
                let bare = bare_replay(&ctx, &cfg, &trace, replay).1;
                let traced_server = build_server(&ctx, &cfg);
                traced_server.set_obs_sink(ObsSink::ring(8 << 20));
                let traced = replay(&traced_server, &trace).unwrap().spans;
                markers += traced.iter().filter(|s| s.name.starts_with("admission.")).count();
                let log_derived: Vec<SpanEvent> =
                    traced.into_iter().filter(|s| !from_the_sink(s)).collect();
                assert_eq!(
                    bare, log_derived,
                    "{fixture}.{config} {executor}: trace_spans is the sink-on stream"
                );
            }
        }
    }
    assert!(markers > 0, "the sink recorded admission markers");
}

#[test]
fn metrics_snapshot_reconciles_with_the_legacy_stats() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/mix.json").expect("shipped example parses");
    let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
    let report = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let m = &report.metrics;
    assert_eq!(m.counters["serving.engagements"], report.serving_stats.engagements);
    assert_eq!(m.counters["io.requests"], report.io_stats.requests);
    assert_eq!(m.counters["io.bytes"], report.io_stats.bytes);
    assert_eq!(
        m.counters["gate.decisions"] as usize,
        report.contention.gate.len(),
        "every logged decision increments the gate counter"
    );
    assert_eq!(m.counters["engine.heap_ops"], report.heap_ops);
    let hist = &m.histograms["io.service_us"];
    assert_eq!(hist.count(), report.io_stats.requests);
    // The snapshot renders as deterministic JSON.
    let json = m.to_json();
    assert!(json.contains("\"serving.engagements\""));
    assert!(json.contains("\"p99\""));
}
