//! Named instruments: counters, gauges, log₂ histograms.
//!
//! A [`MetricsRegistry`] hands out cheap `Arc`-backed handles, resolved
//! once at construction time so the hot path never touches the registry
//! map: incrementing a [`Counter`] is one relaxed atomic add, recording
//! into a [`Histogram`] one atomic add on a fixed bucket.
//! [`MetricsRegistry::snapshot`] folds every instrument into a
//! [`MetricsSnapshot`] — plain sorted maps that merge across registries
//! and render to deterministic JSON.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A monotonic counter: one relaxed atomic.
///
/// Handles are `Arc`s: clone freely, store them in hot structs, and let
/// every clone feed the same instrument.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry (useful in tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a settable value plus its observed high-water mark. `add` /
/// `sub` wrap a single atomic, so concurrent adjustments never lose
/// updates; `set_max` is the peak-tracking flavour
/// (`peak_concurrent_engagements`, `max_queue_depth`).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

#[derive(Default)]
struct GaugeCell {
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// A gauge not attached to any registry (useful in tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value (and raises the high-water mark if exceeded).
    pub fn set(&self, v: u64) {
        self.cell.value.store(v, Ordering::Relaxed);
        self.cell.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n`, returning the new value (and raises the high-water mark).
    pub fn add(&self, n: u64) -> u64 {
        let v = self.cell.value.fetch_add(n, Ordering::Relaxed) + n;
        self.cell.max.fetch_max(v, Ordering::Relaxed);
        v
    }

    /// Subtracts `n` (saturating at zero under quiesced writers).
    pub fn sub(&self, n: u64) -> u64 {
        self.cell.value.fetch_sub(n, Ordering::Relaxed).wrapping_sub(n)
    }

    /// Raises the high-water mark to at least `v` without moving the value.
    pub fn observe_peak(&self, v: u64) {
        self.cell.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }

    /// The high-water mark.
    pub fn max(&self) -> u64 {
        self.cell.max.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.value.store(0, Ordering::Relaxed);
        self.cell.max.store(0, Ordering::Relaxed);
    }
}

/// Histogram buckets: bucket `i` counts values whose bit width is `i`,
/// i.e. bucket 0 holds the value 0 and bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)` — 65 buckets cover all of `u64`.
const BUCKETS: usize = 65;

/// A fixed log₂-bucket histogram. Recording is one atomic increment plus
/// one atomic add (for the exact total), allocation-free; percentiles are
/// computed from the bucket counts at snapshot time with power-of-two
/// resolution (each reported percentile is its bucket's inclusive upper
/// bound — a deterministic, conservative estimate).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

struct HistCells {
    buckets: [AtomicU64; BUCKETS],
    /// Exact sum of recorded values (wrapping), so snapshots can quote a
    /// true mean next to the bucketed percentiles.
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            cells: Arc::new(HistCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                total: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A histogram not attached to any registry (useful for one-off
    /// measurements like a fleet point's per-decision latencies).
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in (its bit width).
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cells.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.total.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshots the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed)),
            total: self.cells.total.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.cells.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.cells.total.store(0, Ordering::Relaxed);
    }
}

/// A gauge's snapshot: its value and high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The value at snapshot time.
    pub value: u64,
    /// The high-water mark observed so far.
    pub max: u64,
}

/// A histogram's snapshot: per-bucket counts plus the exact value total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per log₂ bucket (see [`Histogram`] for the bucket bounds).
    pub buckets: [u64; BUCKETS],
    /// Exact (wrapping) sum of every recorded value.
    pub total: u64,
}

impl HistogramSnapshot {
    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total as f64 / n as f64
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`), reported as the
    /// inclusive upper bound of the bucket the rank falls in (bucket 0 →
    /// 0, bucket `i` → `2^i - 1`). Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be within [0, 1]");
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1) };
            }
        }
        u64::MAX
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total = self.total.wrapping_add(other.total);
    }
}

/// The three instrument kinds a registry can hold under one name.
#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named instruments. Handles are resolved once (at
/// subsystem construction) and cached by the caller; the registry map is
/// only locked at registration and snapshot time, never per increment.
///
/// The registry owns its names: a literal is borrowed for free, and a name
/// built at run time (`format!("io.channel.{c}.busy_us")`) is stored once
/// and freed with the registry. Snapshots list names in string order,
/// however they were passed in.
#[derive(Default)]
pub struct MetricsRegistry {
    instruments: Mutex<BTreeMap<Cow<'static, str>, Instrument>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name` (registered on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> Counter {
        let name = name.into();
        let mut map = self.instruments.lock();
        match map.get(&*name) {
            Some(Instrument::Counter(c)) => c.clone(),
            Some(_) => panic!("instrument {name} is not a counter"),
            None => {
                let c = Counter::new();
                map.insert(name, Instrument::Counter(c.clone()));
                c
            }
        }
    }

    /// The gauge registered under `name` (registered on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> Gauge {
        let name = name.into();
        let mut map = self.instruments.lock();
        match map.get(&*name) {
            Some(Instrument::Gauge(g)) => g.clone(),
            Some(_) => panic!("instrument {name} is not a gauge"),
            None => {
                let g = Gauge::new();
                map.insert(name, Instrument::Gauge(g.clone()));
                g
            }
        }
    }

    /// The histogram registered under `name` (registered on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> Histogram {
        let name = name.into();
        let mut map = self.instruments.lock();
        match map.get(&*name) {
            Some(Instrument::Histogram(h)) => h.clone(),
            Some(_) => panic!("instrument {name} is not a histogram"),
            None => {
                let h = Histogram::new();
                map.insert(name, Instrument::Histogram(h.clone()));
                h
            }
        }
    }

    /// Snapshots every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.instruments.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    snap.counters.insert(name.to_string(), c.get());
                }
                Instrument::Gauge(g) => {
                    snap.gauges
                        .insert(name.to_string(), GaugeSnapshot { value: g.get(), max: g.max() });
                }
                Instrument::Histogram(h) => {
                    snap.histograms.insert(name.to_string(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Zeroes every instrument (handles stay valid).
    pub fn reset(&self) {
        let map = self.instruments.lock();
        for inst in map.values() {
            match inst {
                Instrument::Counter(c) => c.reset(),
                Instrument::Gauge(g) => g.reset(),
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }
}

/// A point-in-time copy of a registry's instruments: plain sorted maps,
/// mergeable across registries, renderable to deterministic JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values and high-water marks by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram bucket counts by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one: counters and histogram
    /// buckets add, gauges take the later value and the max of the marks.
    /// Subsystems with disjoint name prefixes merge losslessly.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            let e = self.gauges.entry(name.clone()).or_default();
            e.value = g.value;
            e.max = e.max.max(g.max);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the snapshot as deterministic JSON: keys in sorted order,
    /// integers only, histograms quoted as count/mean/percentiles plus the
    /// sparse non-zero buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(&mut out, self.counters.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        out.push_str("},\n  \"gauges\": {");
        push_map(
            &mut out,
            self.gauges.iter().map(|(k, g)| {
                (k.as_str(), format!("{{\"value\": {}, \"max\": {}}}", g.value, g.max))
            }),
        );
        out.push_str("},\n  \"histograms\": {");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| format!("[{i}, {c}]"))
                    .collect();
                (
                    k.as_str(),
                    format!(
                        "{{\"count\": {}, \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                        h.count(),
                        h.mean(),
                        h.percentile(0.50),
                        h.percentile(0.90),
                        h.percentile(0.99),
                        buckets.join(", ")
                    ),
                )
            }),
        );
        out.push_str("}\n}\n");
        out
    }
}

/// Renders `"key": value` pairs (values pre-rendered) into `out`.
fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{k}\": {v}"));
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.requests");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(reg.snapshot().counters["t.requests"], 4000);
    }

    #[test]
    fn registry_returns_the_same_instrument_per_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.counter("a").add(4);
        // A name built at run time finds the literal's instrument.
        reg.counter(String::from("a")).add(1);
        assert_eq!(reg.counter("a").get(), 8);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatch() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let g = Gauge::new();
        g.add(5);
        g.add(7);
        g.sub(4);
        assert_eq!(g.get(), 8);
        assert_eq!(g.max(), 12);
        g.set(1);
        assert_eq!((g.get(), g.max()), (1, 12));
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(s.buckets[1], 1, "1 lands in bucket 1");
        assert_eq!(s.buckets[2], 2, "2 and 3 land in bucket 2");
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[10], 1, "1000 lands in [512, 1024)");
        assert_eq!(s.buckets[64], 1);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(3); // bucket 2, upper bound 3
        }
        h.record(1 << 20); // bucket 21
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 3);
        assert_eq!(s.percentile(0.99), 3);
        assert_eq!(s.percentile(1.0), (1 << 21) - 1);
        assert_eq!(HistogramSnapshot { buckets: [0; BUCKETS], total: 0 }.percentile(0.9), 0);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("io.requests").add(2);
        b.counter("io.requests").add(3);
        b.counter("serving.engagements").add(1);
        a.histogram("io.service_us").record(7);
        b.histogram("io.service_us").record(9);
        a.gauge("io.depth").set(4);
        b.gauge("io.depth").set(2);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters["io.requests"], 5);
        assert_eq!(snap.counters["serving.engagements"], 1);
        assert_eq!(snap.histograms["io.service_us"].count(), 2);
        assert_eq!(snap.gauges["io.depth"], GaugeSnapshot { value: 2, max: 4 });
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.histogram("c.lat_us").record(100);
        let j1 = reg.snapshot().to_json();
        let j2 = reg.snapshot().to_json();
        assert_eq!(j1, j2);
        assert!(j1.find("a.first").unwrap() < j1.find("b.second").unwrap());
        assert!(j1.contains("\"count\": 1"));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.count");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(reg.snapshot().counters["x.count"], 2);
    }
}
