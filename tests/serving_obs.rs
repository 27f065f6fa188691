//! Contracts of the deterministic observability layer (`sti-obs`).
//!
//! 1. **Run-twice determinism.** Replaying a trace twice produces
//!    byte-identical Chrome-trace exports — the event executor on every
//!    shipped fixture, the sequential oracle on smoke and burst.
//! 2. **Event ≡ sequential exports.** The deterministic span tracks
//!    (session/flash — `TrackFilter::Deterministic`) export byte-identically
//!    from the event executor and from the sequential oracle (whose IO runs
//!    on the host worker pool), because spans are clocked on *simulated*
//!    time and assembled from the server's logs, not from host scheduling.
//! 3. **Gate spans carry the reason.** With backpressure on, the stream
//!    contains `gate.*` markers whose args name the deciding mix digest,
//!    and the structured [`GateReason`] on each decision prices the load
//!    the prediction actually ran against.
//! 4. **Observability never perturbs results.** A replay with a live ring
//!    sink installed reports the same outcomes and gate decisions as one
//!    without.

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

/// The deterministic-track export of one replay.
fn export(report: &ServeReport) -> String {
    chrome_trace_json(&report.spans, TrackFilter::Deterministic)
}

#[test]
fn event_replays_export_byte_identical_traces_on_every_fixture() {
    let ctx = ctx();
    for path in
        ["examples/traces/smoke.json", "examples/traces/burst.json", "examples/traces/mix.json"]
    {
        let trace = load_trace(path).expect("shipped example parses");
        let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
        let a = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
        let b = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
        assert_eq!(export(&a), export(&b), "{path}: event replays must export identically");
        assert!(!a.spans.is_empty(), "{path}: the replay emits spans");
    }
}

#[test]
fn sequential_replays_export_byte_identical_traces() {
    let ctx = ctx();
    for path in ["examples/traces/smoke.json", "examples/traces/burst.json"] {
        let trace = load_trace(path).expect("shipped example parses");
        let cfg = serve_config(BackpressureMode::Shed);
        let a = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
        let b = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
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
        let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
        let event = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
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
    let report = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let gate_spans: Vec<&SpanEvent> =
        report.spans.iter().filter(|s| s.name.starts_with("gate.")).collect();
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
    let json = export(&report);
    assert!(json.contains("\"gate."), "gate spans reach the Chrome-trace export");
}

#[test]
fn a_live_sink_never_perturbs_simulated_results() {
    let ctx = ctx();
    let trace = load_trace("examples/traces/mix.json").expect("shipped example parses");
    let cfg = serve_config(BackpressureMode::Queue(SimTime::from_ms(2_000)));
    let bare_server = build_server(&ctx, &cfg);
    let bare = replay_event(&bare_server, &trace).unwrap();
    let traced_server = build_server(&ctx, &cfg);
    traced_server.set_obs_sink(ObsSink::ring(4 << 20));
    let traced = replay_event(&traced_server, &trace).unwrap();
    assert_eq!(bare.outcomes, traced.outcomes, "instruments record, they never decide");
    assert_eq!(bare.contention.gate, traced.contention.gate);
    // The sink adds spans (admission markers on session tracks, engine/host
    // color) but every log-derived span of the bare run is still there.
    assert!(traced.spans.len() > bare.spans.len());
    for span in &bare.spans {
        assert!(traced.spans.contains(span), "traced run dropped a log-derived span: {span:?}");
    }
    assert!(
        traced.spans.iter().any(|s| !s.kind.deterministic()),
        "the live sink contributed engine/host color spans"
    );
    assert!(
        bare.spans.iter().all(|s| s.kind.deterministic()),
        "without a sink only log-derived spans exist"
    );
    // Sink-on exports stay driver-independent too: the added admission
    // markers are a pure function of the (serialized) open sequence.
    let traced_sequential_server = build_server(&ctx, &cfg);
    traced_sequential_server.set_obs_sink(ObsSink::ring(4 << 20));
    let traced_sequential = replay_sequential(&traced_sequential_server, &trace).unwrap();
    assert_eq!(
        export(&traced),
        export(&traced_sequential),
        "deterministic-track export with a live sink must not depend on who drives the sessions"
    );
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
