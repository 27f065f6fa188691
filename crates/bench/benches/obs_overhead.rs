//! Observability overhead: the cost of the instrument hot paths, and the
//! null-sink guarantee.
//!
//! - `null_sink`: emitting a span through `ObsSink::Null` — the disabled
//!   mode every uninstrumented run pays. Must sit in the noise floor: a
//!   single enum-variant branch, no allocation, no atomics.
//! - `ring_sink`: the same emission through a live `SpanRing`, for scale.
//! - `counter_hot_path` / `histogram_record`: one sharded-counter add and
//!   one log₂-bucket record — the per-request metrics cost the scheduler
//!   and server now pay unconditionally.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sti_obs::{Histogram, MetricsRegistry, ObsSink, SpanArgs, SpanEvent, TrackKind};

fn sample_event(t: u64) -> SpanEvent {
    SpanEvent::complete(TrackKind::Session, 7, "gate.delay", t, t + 40)
        .with_args(SpanArgs::new().with("digest", 42).with("predicted_us", 1 << 20))
}

fn bench_sinks(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_sink");
    group.throughput(Throughput::Elements(1));

    let null = ObsSink::Null;
    group.bench_function("null_sink", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            null.span(black_box(sample_event(t)));
        })
    });

    let ring = ObsSink::ring(1 << 20);
    group.bench_function("ring_sink", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            ring.span(black_box(sample_event(t)));
        })
    });
    group.finish();
}

fn bench_instruments(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_instruments");
    group.throughput(Throughput::Elements(1));

    let reg = MetricsRegistry::new();
    let counter = reg.counter("io.requests");
    group.bench_function("counter_hot_path", |b| b.iter(|| counter.add(black_box(1))));

    let hist = Histogram::new();
    let mut v = 0u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_add(977);
            hist.record(black_box(v & 0xffff));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sinks, bench_instruments);
criterion_main!(benches);
