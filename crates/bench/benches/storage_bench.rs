//! Criterion benchmarks for the shard store: record encode/decode and the
//! record checksum alone, single-shard and layer-grouped reads from a real
//! on-disk store (`shardstore_load` beside the `memstore_load` double), and
//! the per-hop cost of a shard's bytes in memory (a warm `ShardCache` hit).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
use sti_storage::{format, MemStore, ShardCache, ShardKey, ShardSource, ShardStore};
use sti_transformer::synthetic::synthetic_shard;
use sti_transformer::{Model, ModelConfig, ShardId};

fn bench_record_codec(c: &mut Criterion) {
    let weights = synthetic_shard(&ModelConfig::scaled_bert(), 5, 1.0).flatten();
    let blob = QuantizedBlob::quantize(&weights, Bitwidth::B6, &QuantConfig::default());
    let encoded = format::encode_blob(&blob);
    let mut group = c.benchmark_group("record_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| format::encode_blob(&blob)));
    group.bench_function("decode", |b| {
        b.iter(|| format::decode_blob(&encoded).expect("valid record"))
    });
    group.finish();

    // A 2-bit and a full-fidelity scaled-BERT record are ~1 and ~14 KiB.
    let mut group = c.benchmark_group("record_checksum");
    for (name, len) in [("1KiB", 1usize << 10), ("16KiB", 16 << 10)] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| format::checksum(std::hint::black_box(&bytes))));
    }
    group.finish();
}

fn bench_disk_reads(c: &mut Criterion) {
    let cfg = ModelConfig::scaled_bert();
    let model = Model::synthetic(9, cfg.clone());
    let dir = std::env::temp_dir().join(format!("sti-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let versions = [Bitwidth::B2, Bitwidth::B6, Bitwidth::Full];
    let store =
        ShardStore::create(&dir, &model, &versions, &QuantConfig::default()).expect("create store");
    let request: Vec<(u16, Bitwidth)> = (0..cfg.heads as u16).map(|s| (s, Bitwidth::B6)).collect();
    c.bench_function("read_layer_12_shards", |b| {
        b.iter(|| store.read_layer(0, &request).expect("layer reads"))
    });
    let mut group = c.benchmark_group("shardstore_load");
    for bw in versions {
        let key = ShardKey::new(ShardId::new(3, 5), bw);
        group.throughput(Throughput::Bytes(store.size_bytes(key).expect("stored")));
        group.bench_function(format!("{bw:?}"), |b| b.iter(|| store.load(key).expect("stored")));
    }
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_memory_hops(c: &mut Criterion) {
    let model = Model::synthetic(9, ModelConfig::scaled_bert());
    let versions = [Bitwidth::B2, Bitwidth::B6, Bitwidth::Full];
    let store = MemStore::build(&model, &versions, &QuantConfig::default());
    let id = ShardId::new(3, 5);
    let mut group = c.benchmark_group("memstore_load");
    for bw in versions {
        let key = ShardKey::new(id, bw);
        group.throughput(Throughput::Bytes(store.size_bytes(key).expect("stored")));
        group.bench_function(format!("{bw:?}"), |b| b.iter(|| store.load(key).expect("stored")));
    }
    group.finish();
    let cache = ShardCache::new(1 << 20);
    let key = ShardKey::new(id, Bitwidth::B6);
    cache.get_or_load(&store, key).expect("stored");
    c.bench_function("cache_hit", |b| b.iter(|| cache.get_or_load(&store, key).expect("resident")));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_record_codec, bench_disk_reads, bench_memory_hops
}
criterion_main!(benches);
