//! Virtual-clock spans and the byte-bounded ring that stores them.
//!
//! A [`SpanEvent`] is an interval or instant on a named track, timestamped
//! in **simulated** microseconds — never host time. Events carry plain
//! values (no heap payloads), so they sort canonically by value and two
//! streams that agree as multisets export byte-identically no matter what
//! order threads emitted them in.
//!
//! The live backend is a [`SpanRing`]: a fixed-capacity overwrite-oldest
//! buffer bounded in bytes at construction. The disabled backend is
//! [`ObsSink::Null`] — emitting through it is a single enum-variant branch.

use std::sync::Arc;

use parking_lot::Mutex;

/// The subsystem a span's track belongs to. The track *id* disambiguates
/// within a kind (session token, channel index, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrackKind {
    /// Per-session lifecycle: admission, gate decisions, engagements.
    Session,
    /// Per-channel engagement issue/complete timeline.
    Channel,
    /// Flash device timeline: per-job wait/service, busy, queue depth.
    Flash,
    /// Engine internals (component ticks, heap ops). Event-mode only, so
    /// excluded from deterministic exports.
    Engine,
    /// Host-side activity (dispatch-thread work, wall-clock phases).
    /// Schedule-dependent by nature, so excluded from deterministic
    /// exports.
    Host,
    /// Speculative prefetch staging: per-device-channel windows where
    /// background flash jobs pre-warm the shard cache. Whether a staged
    /// shard was flash-loaded or pinned depends on cache residency at
    /// execution time (host scheduling), so excluded from deterministic
    /// exports.
    Prefetch,
}

impl TrackKind {
    /// Whether spans on this kind of track are part of the determinism
    /// contract: a pure function of the replayed trace, identical across
    /// event and sequential replays and across runs. [`Engine`](Self::Engine)
    /// and [`Host`](Self::Host) tracks are not — they describe *how* a
    /// particular executor ran, not *what* the simulation computed.
    pub fn deterministic(self) -> bool {
        !matches!(self, TrackKind::Engine | TrackKind::Host | TrackKind::Prefetch)
    }

    /// Stable label used in exports and track sorting.
    pub fn label(self) -> &'static str {
        match self {
            TrackKind::Session => "session",
            TrackKind::Channel => "channel",
            TrackKind::Flash => "flash",
            TrackKind::Engine => "engine",
            TrackKind::Host => "host",
            TrackKind::Prefetch => "prefetch",
        }
    }

    /// Canonical ordering index (export lays tracks out in this order).
    pub(crate) fn order(self) -> u8 {
        match self {
            TrackKind::Session => 0,
            TrackKind::Channel => 1,
            TrackKind::Flash => 2,
            TrackKind::Engine => 3,
            TrackKind::Host => 4,
            TrackKind::Prefetch => 5,
        }
    }
}

/// How a span renders in the Chrome-trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// A closed interval (`ph: "X"`): `start_us..end_us`.
    Complete,
    /// A point event (`ph: "i"`) at `start_us`.
    Instant,
    /// A sampled counter value (`ph: "C"`) at `start_us`; the first arg is
    /// the series value.
    Counter,
}

/// Maximum key/value pairs a span can carry inline.
const MAX_ARGS: usize = 4;

/// A fixed-capacity, copyable argument list: up to four
/// `(&'static str, u64)` pairs, attached to a span without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanArgs {
    entries: [(&'static str, u64); MAX_ARGS],
    len: u8,
}

impl SpanArgs {
    /// An empty argument list.
    pub fn new() -> Self {
        Self { entries: [("", 0); MAX_ARGS], len: 0 }
    }

    /// Appends a pair, builder-style. Pairs beyond the inline capacity of
    /// four are silently dropped — args are annotations, never data the
    /// simulation depends on.
    pub fn with(mut self, key: &'static str, value: u64) -> Self {
        if (self.len as usize) < MAX_ARGS {
            self.entries[self.len as usize] = (key, value);
            self.len += 1;
        }
        self
    }

    /// The populated pairs.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.entries[..self.len as usize]
    }

    /// Whether no pairs are attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One observed interval or instant on a virtual-clock track.
///
/// Everything is a plain value: events are `Copy`, compare by value, and
/// carry no references into the emitting subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanEvent {
    /// Which subsystem's track family this event belongs to.
    pub kind: TrackKind,
    /// Track id within the kind (session token, channel index, …).
    pub track: u64,
    /// Event name (a static label, e.g. `"gate.delay"`).
    pub name: &'static str,
    /// Start tick in simulated µs.
    pub start_us: u64,
    /// End tick in simulated µs (equals `start_us` for instants).
    pub end_us: u64,
    /// Render phase.
    pub phase: SpanPhase,
    /// Inline annotations.
    pub args: SpanArgs,
}

impl SpanEvent {
    /// A closed interval on `(kind, track)`.
    pub fn complete(
        kind: TrackKind,
        track: u64,
        name: &'static str,
        start_us: u64,
        end_us: u64,
    ) -> Self {
        Self {
            kind,
            track,
            name,
            start_us,
            end_us,
            phase: SpanPhase::Complete,
            args: SpanArgs::new(),
        }
    }

    /// A point event on `(kind, track)` at `at_us`.
    pub fn instant(kind: TrackKind, track: u64, name: &'static str, at_us: u64) -> Self {
        Self {
            kind,
            track,
            name,
            start_us: at_us,
            end_us: at_us,
            phase: SpanPhase::Instant,
            args: SpanArgs::new(),
        }
    }

    /// A counter sample on `(kind, track)` at `at_us` with value `value`.
    pub fn counter(
        kind: TrackKind,
        track: u64,
        name: &'static str,
        at_us: u64,
        value: u64,
    ) -> Self {
        Self {
            kind,
            track,
            name,
            start_us: at_us,
            end_us: at_us,
            phase: SpanPhase::Counter,
            args: SpanArgs::new().with("value", value),
        }
    }

    /// Replaces the args, builder-style.
    pub fn with_args(mut self, args: SpanArgs) -> Self {
        self.args = args;
        self
    }

    /// Duration in simulated µs (zero for instants).
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The canonical value-based sort key: track layout first (kind
    /// order, track id), then time, then name and payload as
    /// tie-breakers. Sorting by this key makes export output independent
    /// of emission order.
    pub fn sort_key(&self) -> impl Ord + '_ {
        (
            self.kind.order(),
            self.track,
            self.start_us,
            self.end_us,
            self.name,
            self.phase,
            self.args,
        )
    }
}

/// A byte-bounded overwrite-oldest span buffer.
///
/// Capacity is fixed at construction from a byte budget; when full, the
/// oldest event is overwritten and a drop counter increments, so tracing a
/// pathological replay can never grow memory without bound.
pub struct SpanRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

struct RingInner {
    events: Vec<SpanEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl SpanRing {
    /// A ring bounded at roughly `bytes` of span storage (at least one
    /// event).
    pub fn with_byte_budget(bytes: usize) -> Self {
        let capacity = (bytes / std::mem::size_of::<SpanEvent>()).max(1);
        Self { inner: Mutex::new(RingInner { events: Vec::new(), head: 0, dropped: 0 }), capacity }
    }

    /// How many events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&self, event: SpanEvent) {
        let mut inner = self.inner.lock();
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.capacity;
            inner.dropped += 1;
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffered events in arrival order, returning them along
    /// with how many older events were overwritten to make room.
    pub fn drain(&self) -> (Vec<SpanEvent>, u64) {
        let mut inner = self.inner.lock();
        let head = inner.head;
        let mut events = std::mem::take(&mut inner.events);
        events.rotate_left(head);
        inner.head = 0;
        (events, std::mem::take(&mut inner.dropped))
    }
}

/// Where emitted spans go. Cloning a sink shares the backing ring.
#[derive(Clone, Default)]
pub enum ObsSink {
    /// Tracing disabled: `span` is a no-op branch, nothing is stored — and
    /// replays leave their report's span stream empty rather than assemble
    /// it (the serving layer reads [`ObsSink::enabled`] for that).
    #[default]
    Null,
    /// Tracing enabled: events land in the shared ring.
    Ring(Arc<SpanRing>),
}

impl ObsSink {
    /// A sink backed by a fresh ring bounded at `bytes`.
    pub fn ring(bytes: usize) -> Self {
        ObsSink::Ring(Arc::new(SpanRing::with_byte_budget(bytes)))
    }

    /// Whether this sink records anything (lets callers skip building
    /// events entirely on the disabled path).
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, ObsSink::Ring(_))
    }

    /// Records an event (no-op on [`ObsSink::Null`]).
    #[inline]
    pub fn span(&self, event: SpanEvent) {
        if let ObsSink::Ring(ring) = self {
            ring.push(event);
        }
    }

    /// Drains buffered events and the overwrite count; empty for
    /// [`ObsSink::Null`].
    pub fn drain(&self) -> (Vec<SpanEvent>, u64) {
        match self {
            ObsSink::Null => (Vec::new(), 0),
            ObsSink::Ring(ring) => ring.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_cap_at_four_pairs() {
        let args = SpanArgs::new().with("a", 1).with("b", 2).with("c", 3).with("d", 4).with("e", 5);
        assert_eq!(args.entries().len(), 4);
        assert_eq!(args.entries()[3], ("d", 4));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = SpanRing::with_byte_budget(3 * std::mem::size_of::<SpanEvent>());
        assert_eq!(ring.capacity(), 3);
        for t in 0..5u64 {
            ring.push(SpanEvent::instant(TrackKind::Session, 1, "tick", t));
        }
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 2);
        let ticks: Vec<u64> = events.iter().map(|e| e.start_us).collect();
        assert_eq!(ticks, vec![2, 3, 4], "oldest overwritten, arrival order kept");
    }

    #[test]
    fn null_sink_records_nothing() {
        let sink = ObsSink::Null;
        assert!(!sink.enabled());
        sink.span(SpanEvent::instant(TrackKind::Flash, 0, "x", 1));
        assert!(sink.drain().0.is_empty());
    }

    #[test]
    fn ring_sink_shares_the_ring_across_clones() {
        let sink = ObsSink::ring(4096);
        let clone = sink.clone();
        clone.span(SpanEvent::complete(TrackKind::Channel, 2, "engage", 10, 30));
        let (events, dropped) = sink.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].dur_us(), 20);
    }

    #[test]
    fn sort_key_orders_by_track_then_time() {
        let mut events = [
            SpanEvent::instant(TrackKind::Flash, 0, "b", 5),
            SpanEvent::instant(TrackKind::Session, 9, "a", 7),
            SpanEvent::instant(TrackKind::Session, 1, "a", 9),
            SpanEvent::instant(TrackKind::Session, 1, "a", 2),
        ];
        events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let order: Vec<(u64, u64)> = events.iter().map(|e| (e.track, e.start_us)).collect();
        assert_eq!(order, vec![(1, 2), (1, 9), (9, 7), (0, 5)]);
    }

    #[test]
    fn deterministic_kinds_exclude_engine_and_host() {
        assert!(TrackKind::Session.deterministic());
        assert!(TrackKind::Channel.deterministic());
        assert!(TrackKind::Flash.deterministic());
        assert!(!TrackKind::Engine.deterministic());
        assert!(!TrackKind::Host.deterministic());
        assert!(!TrackKind::Prefetch.deterministic());
    }
}
