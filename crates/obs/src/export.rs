//! Chrome-trace / Perfetto JSON export.
//!
//! [`chrome_trace_json`] renders a span stream into the Trace Event
//! Format (`{"traceEvents": [...]}`) that `chrome://tracing` and the
//! Perfetto UI load directly. The export is canonical: events are sorted
//! by value first, track ids (`tid`) are assigned in that sorted order,
//! and every number is an integer — so two streams that agree as
//! multisets produce byte-identical files, whatever order the host
//! emitted them in.

use crate::span::{SpanEvent, SpanPhase, TrackKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which tracks an export includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackFilter {
    /// Only tracks covered by the determinism contract (see
    /// [`TrackKind::deterministic`]) — the default, and the only filter
    /// whose output is guaranteed identical across executors.
    #[default]
    Deterministic,
    /// Every track, including [`TrackKind::Engine`] and
    /// [`TrackKind::Host`]. Useful for inspecting a *particular* run;
    /// byte-stability across executors is not promised.
    All,
}

impl TrackFilter {
    /// Whether a track kind passes this filter.
    pub fn admits(self, kind: TrackKind) -> bool {
        match self {
            TrackFilter::Deterministic => kind.deterministic(),
            TrackFilter::All => true,
        }
    }
}

/// Renders `events` as Chrome-trace JSON.
///
/// All events share one process (`pid` 1); each `(kind, track)` pair
/// becomes a thread (`tid`), numbered in canonical track order and named
/// via `thread_name` metadata (e.g. `session/42`, `flash/0`). Timestamps
/// are simulated µs passed through as integers.
pub fn chrome_trace_json(events: &[SpanEvent], filter: TrackFilter) -> String {
    let mut kept: Vec<&SpanEvent> = events.iter().filter(|e| filter.admits(e.kind)).collect();
    kept.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));

    // Stable tid per (kind, track), assigned in canonical sorted order so
    // numbering never depends on emission order.
    let mut tids: BTreeMap<(u8, u64), (u32, TrackKind)> = BTreeMap::new();
    for e in &kept {
        let next = tids.len() as u32 + 1;
        tids.entry(track_key(e)).or_insert((next, e.kind));
    }

    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    for (&(_, track), &(tid, kind)) in &tids {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}/{track}\"}}}}",
                kind.label()
            ),
        );
    }
    for e in &kept {
        let tid = tids[&track_key(e)].0;
        let mut ev = format!("{{\"name\": \"{}\", \"ph\": \"{}\"", e.name, phase_code(e.phase));
        match e.phase {
            SpanPhase::Complete => {
                let _ = write!(ev, ", \"ts\": {}, \"dur\": {}", e.start_us, e.dur_us());
            }
            SpanPhase::Instant => {
                let _ = write!(ev, ", \"ts\": {}, \"s\": \"t\"", e.start_us);
            }
            SpanPhase::Counter => {
                let _ = write!(ev, ", \"ts\": {}", e.start_us);
            }
        }
        let _ = write!(ev, ", \"pid\": 1, \"tid\": {tid}");
        if !e.args.is_empty() {
            ev.push_str(", \"args\": {");
            for (i, (k, v)) in e.args.entries().iter().enumerate() {
                if i > 0 {
                    ev.push_str(", ");
                }
                let _ = write!(ev, "\"{k}\": {v}");
            }
            ev.push('}');
        }
        ev.push('}');
        push_event(&mut out, &mut first, &ev);
    }
    out.push_str("\n]}\n");
    out
}

fn track_key(e: &SpanEvent) -> (u8, u64) {
    (e.kind.order(), e.track)
}

fn phase_code(phase: SpanPhase) -> &'static str {
    match phase {
        SpanPhase::Complete => "X",
        SpanPhase::Instant => "i",
        SpanPhase::Counter => "C",
    }
}

fn push_event(out: &mut String, first: &mut bool, rendered: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n  ");
    out.push_str(rendered);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanArgs;

    fn sample() -> Vec<SpanEvent> {
        vec![
            SpanEvent::complete(TrackKind::Flash, 0, "flash.service", 50, 90),
            SpanEvent::instant(TrackKind::Session, 7, "gate.shed", 10)
                .with_args(SpanArgs::new().with("digest", 42)),
            SpanEvent::counter(TrackKind::Flash, 0, "flash.depth", 50, 3),
            SpanEvent::complete(TrackKind::Session, 7, "engagement", 10, 60),
            SpanEvent::instant(TrackKind::Engine, 0, "engine.tick", 5),
        ]
    }

    #[test]
    fn export_is_independent_of_emission_order() {
        let mut shuffled = sample();
        shuffled.reverse();
        let a = chrome_trace_json(&sample(), TrackFilter::Deterministic);
        let b = chrome_trace_json(&shuffled, TrackFilter::Deterministic);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_filter_drops_engine_and_host_tracks() {
        let json = chrome_trace_json(&sample(), TrackFilter::Deterministic);
        assert!(!json.contains("engine.tick"));
        assert!(!json.contains("engine/0"));
        let all = chrome_trace_json(&sample(), TrackFilter::All);
        assert!(all.contains("engine.tick"));
    }

    #[test]
    fn phases_render_with_trace_event_codes() {
        let json = chrome_trace_json(&sample(), TrackFilter::All);
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"dur\": 40"));
        assert!(json.contains("\"args\": {\"digest\": 42}"));
    }

    #[test]
    fn tids_are_stable_and_named() {
        let json = chrome_trace_json(&sample(), TrackFilter::Deterministic);
        // Session/7 sorts before flash/0, so it takes tid 1.
        assert!(json.contains("\"args\": {\"name\": \"session/7\"}"));
        assert!(json.contains("\"args\": {\"name\": \"flash/0\"}"));
        let session_meta = json.find("session/7").unwrap();
        let flash_meta = json.find("flash/0").unwrap();
        assert!(session_meta < flash_meta);
    }

    #[test]
    fn empty_stream_is_valid_json() {
        let json = chrome_trace_json(&[], TrackFilter::Deterministic);
        assert_eq!(json, "{\"traceEvents\": [\n]}\n");
    }
}
