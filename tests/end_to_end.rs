//! End-to-end integration: cloud preprocessing → disk store → profiling →
//! planning → pipelined execution, across crates.

use std::sync::Arc;

use sti::prelude::*;

fn tiny_setup() -> (Task, HwProfile, ImportanceProfile) {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 6, 8);
    let device = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let importance = profile_importance(task.model(), task.dev(), &QuantConfig::default());
    (task, hw, importance)
}

#[test]
fn full_lifecycle_on_disk_store() {
    let (task, hw, importance) = tiny_setup();
    let dir = std::env::temp_dir().join(format!("sti-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cloud preprocessing.
    let created =
        ShardStore::create(&dir, task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap();
    assert!(created.total_bytes() > 0);
    drop(created);

    // Device-side open + engine.
    let store = Arc::new(ShardStore::open(&dir).unwrap());
    let engine = StiEngine::builder(task.model().clone(), store, hw, importance)
        .target(SimTime::from_ms(400))
        .preload_budget(16 << 10)
        .widths(&[2, 4])
        .build()
        .unwrap();

    let inf = engine.infer(&[1, 2, 3, 4]).unwrap();
    assert!(inf.class < 2);
    assert!(inf.outcome.timeline.makespan <= SimTime::from_ms(400));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store written at a chosen path, closed and opened again from its
/// manifest, serves the same shards and sizes as a fresh temporary store
/// written from the same model, and an engine over each answers the same
/// bits.
#[test]
fn an_engine_on_a_reopened_store_equals_one_on_a_fresh_store_bit_for_bit() {
    let (task, hw, importance) = tiny_setup();
    let dir = std::env::temp_dir().join(format!("sti-e2e-twin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let quant = QuantConfig::default();
    drop(ShardStore::create(&dir, task.model(), &Bitwidth::ALL, &quant).unwrap());
    let reopened: Arc<dyn ShardSource> = Arc::new(ShardStore::open(&dir).unwrap());
    let fresh: Arc<dyn ShardSource> =
        Arc::new(ShardStore::create_temp(task.model(), &Bitwidth::ALL, &quant).unwrap());
    // One meaning for `size_bytes`: what the device model is charged.
    for id in task.model().config().shard_ids() {
        for bw in Bitwidth::ALL {
            let key = ShardKey::new(id, bw);
            assert_eq!(reopened.size_bytes(key).unwrap(), fresh.size_bytes(key).unwrap());
            assert_eq!(reopened.load(key).unwrap(), fresh.load(key).unwrap());
        }
    }
    let engine = |source: Arc<dyn ShardSource>| {
        StiEngine::builder(task.model().clone(), source, hw.clone(), importance.clone())
            .target(SimTime::from_ms(300))
            .preload_budget(8 << 10)
            .widths(&[2, 4])
            .build()
            .unwrap()
    };
    let (disk, memory) = (engine(reopened), engine(fresh));
    assert_eq!(disk.plan(), memory.plan());
    for tokens in [&[1u32, 2, 3, 4][..], &[9, 8, 7], &[5]] {
        let (d, m) = (disk.infer(tokens).unwrap(), memory.infer(tokens).unwrap());
        assert_eq!(d.class, m.class);
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d.probabilities), bits(&m.probabilities));
        assert_eq!(d.outcome.timeline, m.outcome.timeline);
        assert_eq!(d.outcome.loaded_bytes, m.outcome.loaded_bytes);
        assert!(d.outcome.loaded_bytes > 0, "the plan streams past its preload buffer");
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The executor runs its last planned layer for the CLS row alone. That is
/// invisible: the outcome equals the same plan — the same preloaded and
/// streamed shards — assembled and run through a full `layer_forward` for
/// every layer, and the simulated device is charged exactly what the plan
/// predicted (a whole last layer included) for exactly the bytes the
/// assembly streamed.
#[test]
fn an_engine_outcome_equals_its_plan_run_through_full_layers_bit_for_bit() {
    use sti_pipeline::executor::assemble_plan_submodel;
    let ctx = sti::TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let device = DeviceProfile::odroid_n2();
    let model = ctx.task().model();
    let hw = HwProfile::measure(&device, model.config(), ctx.quant());
    let source = ctx.shard_source();
    let engine = StiEngine::builder(model.clone(), source.clone(), hw, ctx.importance().clone())
        .target(SimTime::from_ms(300))
        .preload_budget(8 << 10)
        .widths(&[2, 4])
        .build()
        .unwrap();
    let plan = engine.plan();
    let preload = PreloadBuffer::fill(plan.preload_budget_bytes, &plan.preload, &*source).unwrap();
    let (submodel, streamed) =
        assemble_plan_submodel(model, &plan.layers, &preload, &*source).unwrap();
    assert!(!plan.preload.is_empty() && streamed > 0, "both kinds of shard must take part");
    let layers = || {
        submodel.layers().iter().map(|asm| (asm.slice_idxs.as_slice(), asm.shards.iter().collect()))
    };
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for tokens in [&[1u32, 2, 3, 4][..], &[9, 8, 7], &[5]] {
        let inf = engine.infer(tokens).unwrap();
        let hidden = model.forward_layers(model.embedding().embed(tokens), 0, layers());
        let logits = model.classifier().logits(&hidden);
        assert_eq!(bits(&inf.outcome.logits), bits(&logits));
        assert_eq!(bits(&inf.probabilities), bits(&model.classifier().probabilities(&hidden)));
        assert_eq!(Some(inf.class), sti_tensor::stats::argmax(&logits));
        assert_eq!(inf.outcome.timeline, plan.predicted);
        assert_eq!(inf.outcome.loaded_bytes, streamed);
    }
}

#[test]
fn a_contexts_store_directory_lives_exactly_as_long_as_its_handles() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let dir = ctx.shard_store_dir().to_path_buf();
    assert!(dir.starts_with(std::env::temp_dir()));
    assert!(dir.join(ShardStore::MANIFEST_FILE).is_file());
    let server = build_server(&ctx, &ServeConfig::default());
    drop(ctx);
    assert!(dir.is_dir(), "a server still streams from the store");
    assert!(server.session().unwrap().infer(&[1, 2, 3]).is_ok());
    drop(server);
    assert!(!dir.exists(), "the last handle removes the directory");
}

#[test]
fn contexts_built_in_parallel_never_share_a_directory() {
    let barrier = std::sync::Barrier::new(4);
    let dirs: Vec<std::path::PathBuf> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
                    barrier.wait();
                    let dir = ctx.shard_store_dir().to_path_buf();
                    // Every context is alive here: no name can be a reuse.
                    barrier.wait();
                    dir
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("context thread panicked")).collect()
    });
    let distinct: std::collections::BTreeSet<_> = dirs.iter().collect();
    assert_eq!(distinct.len(), dirs.len(), "{dirs:?}");
    assert!(dirs.iter().all(|d| !d.exists()), "every context removed its own directory");
}

#[test]
fn engine_accuracy_tracks_runner_accuracy() {
    // The engine's pipelined execution and the runner's direct evaluation
    // must agree: same plan, same dequantized weights, same predictions.
    let cfg = ModelConfig::tiny();
    let ctx = sti::TaskContext::with_config(TaskKind::Rte, cfg.clone());
    let device = DeviceProfile::odroid_n2();
    let exp = sti::Experiment {
        baseline: Baseline::Sti,
        device: device.clone(),
        target: SimTime::from_ms(300),
        preload_bytes: 4 << 10,
    };
    let result = sti::run_experiment(&ctx, &exp);

    let hw = HwProfile::measure(&device, &cfg, ctx.quant());
    let store = Arc::new(
        ShardStore::create_temp(ctx.task().model(), &Bitwidth::ALL, &QuantConfig::default())
            .unwrap(),
    );
    let engine =
        StiEngine::builder(ctx.task().model().clone(), store, hw, ctx.importance().clone())
            .target(SimTime::from_ms(300))
            .preload_budget(4 << 10)
            .build()
            .unwrap();

    assert_eq!(engine.plan().shape, result.plan.shape);
    let preds: Vec<usize> =
        ctx.task().test().iter().map(|e| engine.infer(&e.tokens).unwrap().class).collect();
    let engine_acc = ctx.task().test_accuracy(&preds);
    assert!(
        (engine_acc - result.accuracy).abs() < 1e-9,
        "engine accuracy {engine_acc} != runner accuracy {}",
        result.accuracy
    );
}

#[test]
fn baseline_ordering_holds_on_tiny_grid() {
    // The paper's headline ordering at a tight target: STI >= StdPL-2bit and
    // STI >= Load&Exec (more FLOPs or better fidelity allocation).
    let ctx = sti::TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let device = DeviceProfile::odroid_n2();
    let run = |baseline| {
        sti::run_experiment(
            &ctx,
            &sti::Experiment {
                baseline,
                device: device.clone(),
                target: SimTime::from_ms(150),
                preload_bytes: 4 << 10,
            },
        )
    };
    let ours = run(Baseline::Sti);
    let le = run(Baseline::LoadAndExec);
    let std_full = run(Baseline::StdPipeline(Bitwidth::Full));
    assert!(
        ours.plan.shape.shard_count() >= le.plan.shape.shard_count(),
        "STI must execute at least as many shards as Load&Exec"
    );
    assert!(
        ours.plan.shape.shard_count() >= std_full.plan.shape.shard_count(),
        "STI must execute at least as many shards as StdPL-full"
    );
}

#[test]
fn replanning_is_only_triggered_by_parameter_changes() {
    let (task, hw, importance) = tiny_setup();
    let store = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let mut engine = StiEngine::builder(task.model().clone(), store, hw, importance)
        .target(SimTime::from_ms(250))
        .preload_budget(4 << 10)
        .widths(&[2, 4])
        .build()
        .unwrap();
    let plan_before = engine.plan().clone();
    for seed in 0..3u32 {
        engine.infer(&[seed, seed + 1]).unwrap();
    }
    assert_eq!(&plan_before, engine.plan());
    engine.set_target(SimTime::from_ms(800)).unwrap();
    assert_ne!(plan_before.target, engine.plan().target);
}

#[test]
fn preload_budget_bounds_memory_and_improves_warmup() {
    let (task, hw, importance) = tiny_setup();
    let store = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let build = |budget: u64| {
        StiEngine::builder(task.model().clone(), store.clone(), hw.clone(), importance.clone())
            .target(SimTime::from_ms(300))
            .preload_budget(budget)
            .widths(&[2, 4])
            .build()
            .unwrap()
    };
    let cold = build(0);
    let warm = build(32 << 10);
    assert_eq!(cold.preload_used(), 0);
    assert!(warm.preload_used() > 0);
    assert!(warm.preload_used() <= 32 << 10);

    let cold_run = cold.infer(&[7, 7]).unwrap();
    let warm_run = warm.infer(&[7, 7]).unwrap();
    assert!(warm_run.outcome.loaded_bytes < cold_run.outcome.loaded_bytes);
    assert!(warm_run.outcome.timeline.layers[0].stall <= cold_run.outcome.timeline.layers[0].stall);
}
