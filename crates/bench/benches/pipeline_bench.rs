//! Criterion benchmarks for the pipeline executor: one full engine inference
//! (plan already built), the per-layer working-buffer assembly, and building
//! one more server over a task whose store and profile already exist.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use sti::prelude::*;
use sti::TaskContext;
use sti_pipeline::{PreloadBuffer, WorkingBuffer};
use sti_planner::ImportanceProfile;
use sti_quant::QuantizedBlob;

fn engine_fixture() -> (StiEngine, Vec<u32>) {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let store = Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 9) as f64 * 0.01).collect(),
        0.45,
    );
    let engine = StiEngine::builder(task.model().clone(), store, hw, importance)
        .target(SimTime::from_ms(300))
        .preload_budget(8 << 10)
        .widths(&[2, 4])
        .build()
        .expect("engine builds");
    (engine, vec![1, 2, 3, 4])
}

fn bench_engine_infer(c: &mut Criterion) {
    let (engine, tokens) = engine_fixture();
    c.bench_function("engine_infer_tiny", |b| {
        b.iter(|| engine.infer(&tokens).expect("inference succeeds"))
    });
}

fn bench_working_buffer_assembly(c: &mut Criterion) {
    let cfg = ModelConfig::scaled_bert();
    let model = Model::synthetic(3, cfg.clone());
    let blobs: Vec<QuantizedBlob> = (0..cfg.heads as u16)
        .map(|s| {
            QuantizedBlob::quantize(
                &model.shard(ShardId::new(0, s)).flatten(),
                Bitwidth::B6,
                &QuantConfig::default(),
            )
        })
        .collect();
    let refs: Vec<&QuantizedBlob> = blobs.iter().collect();
    let mut wb = WorkingBuffer::new(cfg);
    c.bench_function("working_buffer_assemble_layer", |b| {
        b.iter(|| wb.assemble(&refs).expect("assembly succeeds"))
    });
    // Preload buffer admission cost for context.
    let mut pb = PreloadBuffer::new(1 << 30);
    c.bench_function("preload_buffer_insert", |b| {
        let blob = blobs[0].clone();
        let mut slice = 0u16;
        b.iter(|| {
            slice = slice.wrapping_add(1);
            pb.insert(ShardId::new(0, slice % 12), blob.clone()).expect("fits")
        })
    });
}

fn bench_build_server(c: &mut Criterion) {
    let cfg = ModelConfig::scaled_bert();
    let ctx = TaskContext::with_config(TaskKind::Sst2, cfg.clone());
    let scores = (0..cfg.total_shards()).map(|i| 0.5 + (i % 9) as f64 * 0.01).collect();
    ctx.set_importance(ImportanceProfile::from_scores(cfg.layers, cfg.heads, scores, 0.45));
    ctx.shard_source();
    let serve = ServeConfig::default();
    c.bench_function("build_server", |b| b.iter(|| build_server(&ctx, &serve)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine_infer, bench_working_buffer_assembly, bench_build_server
}
criterion_main!(benches);
