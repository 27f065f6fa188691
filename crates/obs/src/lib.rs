//! # sti-obs: deterministic virtual-clock observability
//!
//! An observability layer clocked on **simulated** time, so traces are a
//! pure function of the replay — bit-identical across the event and
//! sequential replays and across runs — never of host scheduling. Three
//! pillars:
//!
//! 1. **Metrics** ([`MetricsRegistry`]): monotonic [`Counter`]s (one
//!    relaxed atomic add), [`Gauge`]s (set/add/sub plus a high-water
//!    mark), and fixed log₂-bucket [`Histogram`]s (65 buckets covering the
//!    full `u64` range; recording is one atomic increment, no allocation).
//!    Snapshots ([`MetricsSnapshot`]) render to deterministic JSON and
//!    merge across registries, so a server can fold its scheduler's
//!    registry into one report.
//! 2. **Spans** ([`SpanEvent`]): intervals and instants keyed
//!    `(track, name, tick)` where the tick is a simulated-time µs value.
//!    The live backend is a byte-bounded overwrite-oldest ring
//!    ([`SpanRing`]) behind an [`ObsSink`]; the disabled mode
//!    ([`ObsSink::Null`]) is a branch on an enum variant — no allocation,
//!    no atomics, nothing to configure away.
//! 3. **Export** ([`chrome_trace_json`]): Chrome-trace/Perfetto JSON.
//!    Events are canonically sorted by *value* (track, time, name, args)
//!    before rendering, so the byte output is independent of the host
//!    order in which threads emitted them.
//!
//! Beside the three, one host-side reading: [`process_rss_kib`] reports the
//! resident set the OS measures, for printing next to analytic byte
//! accounting. It is not an instrument and appears in no export.
//!
//! ## The determinism contract
//!
//! Observability never perturbs simulated results: instruments record,
//! they never decide. Span ticks must come from the simulated clock
//! (`SimTime`-derived µs), never `Instant::now()`. Two span streams whose
//! *multisets* of events agree export byte-identically regardless of
//! emission order; streams fed host-scheduling-dependent data (executor
//! internals, wall-clock durations) belong on [`TrackKind::Host`] or
//! [`TrackKind::Engine`] tracks, which deterministic exports exclude (see
//! [`TrackKind::deterministic`]).
//!
//! ## Instrument naming scheme
//!
//! Dotted lowercase paths, `snake_case` leaves, unit-suffixed where the
//! value has one: `io.requests`, `io.service_us` (histogram),
//! `serving.engagements`, `gate.decisions`, `gate.delay_us`,
//! `engine.heap_ops`. The prefix is the subsystem that owns the
//! instrument; merged snapshots rely on prefixes staying disjoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod export;
pub mod metrics;
pub mod process;
pub mod span;

pub use export::{chrome_trace_json, TrackFilter};
pub use metrics::{
    Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use process::process_rss_kib;
pub use span::{ObsSink, SpanArgs, SpanEvent, SpanPhase, SpanRing, TrackKind};
