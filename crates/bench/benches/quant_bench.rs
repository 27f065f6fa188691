//! Criterion micro-benchmarks for the quantization substrate: the cost of
//! compressing a shard at each bitwidth, the decompression hot path the
//! pipeline pays per layer, and raw bit packing/unpacking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sti_quant::{bitpack, Bitwidth, QuantConfig, QuantizedBlob};
use sti_tensor::Rng;
use sti_transformer::synthetic::synthetic_shard;
use sti_transformer::ModelConfig;

fn shard_weights() -> Vec<f32> {
    synthetic_shard(&ModelConfig::scaled_bert(), 42, 1.0).flatten()
}

fn bench_quantize(c: &mut Criterion) {
    let weights = shard_weights();
    let cfg = QuantConfig::default();
    let mut group = c.benchmark_group("quantize_shard");
    group.throughput(Throughput::Elements(weights.len() as u64));
    for bw in [Bitwidth::B2, Bitwidth::B6, Bitwidth::Full] {
        group.bench_with_input(BenchmarkId::from_parameter(bw), &bw, |b, &bw| {
            b.iter(|| QuantizedBlob::quantize(&weights, bw, &cfg));
        });
    }
    group.finish();
}

fn bench_dequantize(c: &mut Criterion) {
    let weights = shard_weights();
    let cfg = QuantConfig::default();
    // One `scaled_bert()` shard (3 600 weights) at every fidelity the store
    // holds: the fused unpack + lookup the working buffer runs per blob.
    let mut group = c.benchmark_group("dequantize_shard");
    group.throughput(Throughput::Elements(weights.len() as u64));
    for bw in Bitwidth::ALL {
        let blob = QuantizedBlob::quantize(&weights, bw, &cfg);
        let mut out = vec![0.0f32; weights.len()];
        group.bench_with_input(BenchmarkId::from_parameter(bw), &blob, |b, blob| {
            b.iter(|| blob.dequantize_into(&mut out));
        });
    }
    group.finish();
}

fn bench_bitpack(c: &mut Criterion) {
    let mut rng = Rng::new(7);
    let values: Vec<u16> = (0..65536).map(|_| (rng.next_u64() % 64) as u16).collect();
    let mut group = c.benchmark_group("bitpack");
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("pack_6bit", |b| b.iter(|| bitpack::pack(&values, 6)));
    let packed = bitpack::pack(&values, 6);
    let mut out = vec![0u16; values.len()];
    group.bench_function("unpack_6bit", |b| b.iter(|| bitpack::unpack_into(&packed, 6, &mut out)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantize, bench_dequantize, bench_bitpack
}
criterion_main!(benches);
