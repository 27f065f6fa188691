//! Engine behaviour under runtime condition changes: DVFS levels, repeat
//! builds, and back-to-back engagement caching — the §3.3 / §5.2 dynamics
//! beyond a single plan-and-run.

use std::sync::Arc;

use sti::prelude::*;
use sti_planner::ImportanceProfile;

fn fixture() -> (Task, DeviceProfile, ImportanceProfile, Arc<ShardStore>) {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 6);
    let device = DeviceProfile::odroid_n2();
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 6) as f64 * 0.015).collect(),
        0.44,
    );
    let store = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    (task, device, importance, store)
}

#[test]
fn dvfs_throttling_shrinks_the_planned_submodel() {
    // The paper profiles T_comp(l, m, freq); a lower operating frequency
    // means less compute fits the target, so the submodel must shrink. Use
    // the full 12x12 grid so shape granularity is fine enough to observe.
    let cfg = ModelConfig::scaled_bert();
    let mut device = DeviceProfile::odroid_n2();
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 11) as f64 * 0.01).collect(),
        0.45,
    );
    let hw_peak = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    device.freq = 0.5;
    let hw_half = HwProfile::measure(&device, &cfg, &QuantConfig::default());

    assert!(hw_half.t_comp(cfg.heads) > hw_peak.t_comp(cfg.heads));
    let plan = |hw: &HwProfile| {
        plan_two_stage(
            hw,
            &importance,
            SimTime::from_ms(200),
            4 << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        )
    };
    let peak = plan(&hw_peak);
    let half = plan(&hw_half);
    assert!(
        half.shape.shard_count() < peak.shape.shard_count(),
        "half frequency must shrink the submodel: {} vs {}",
        half.shape,
        peak.shape
    );
}

#[test]
fn throttled_execution_takes_real_wall_time() {
    // The wall-clock throttle is gone — simulated IO never sleeps — and
    // what survives of this test is its determinism half: two builds of
    // one engine stream real IO and agree on logits and timeline.
    let (task, device, importance, store) = fixture();
    let cfg = task.model().config().clone();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let build = || {
        StiEngine::builder(task.model().clone(), store.clone(), hw.clone(), importance.clone())
            .target(SimTime::from_ms(250))
            .preload_budget(0)
            .widths(&[2, 4])
            .build()
            .unwrap()
    };
    let first = build().infer(&[1, 2]).unwrap();
    let second = build().infer(&[1, 2]).unwrap();
    assert_eq!(first.outcome.logits, second.outcome.logits);
    assert_eq!(first.outcome.timeline, second.outcome.timeline);
    let simulated_io: SimTime =
        first.outcome.timeline.layers.iter().map(|l| l.io_end.saturating_sub(l.io_start)).sum();
    assert!(simulated_io > SimTime::from_ms(10), "the fixture streams real IO");
}

#[test]
fn back_to_back_engagement_reuses_cached_shards() {
    // §3.3: enlarging the buffer between turns caches loaded shards; the
    // next execution streams strictly fewer bytes.
    let (task, device, importance, store) = fixture();
    let cfg = task.model().config().clone();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let mut engine = StiEngine::builder(task.model().clone(), store, hw, importance)
        .target(SimTime::from_ms(250))
        .preload_budget(2 << 10)
        .widths(&[2, 4])
        .build()
        .unwrap();

    let turn1 = engine.infer(&[3, 4]).unwrap();
    engine.set_preload_budget(48 << 10).unwrap();
    let turn2 = engine.infer(&[5, 6]).unwrap();
    assert!(
        turn2.outcome.loaded_bytes < turn1.outcome.loaded_bytes,
        "cached shards must reduce streaming: {} vs {}",
        turn2.outcome.loaded_bytes,
        turn1.outcome.loaded_bytes
    );
    // The enlarged buffer is actually used.
    assert!(engine.preload_used() > 2 << 10);
}

#[test]
fn concurrent_inference_is_safe_and_deterministic() {
    // `infer(&self)` is designed for concurrent use: two threads sharing an
    // engine must produce the same results as sequential runs.
    let (task, device, importance, store) = fixture();
    let cfg = task.model().config().clone();
    let hw = HwProfile::measure(&device, &cfg, &QuantConfig::default());
    let engine = std::sync::Arc::new(
        StiEngine::builder(task.model().clone(), store, hw, importance)
            .target(SimTime::from_ms(250))
            .preload_budget(4 << 10)
            .widths(&[2, 4])
            .build()
            .unwrap(),
    );
    let expected = engine.infer(&[8, 8]).unwrap().outcome.logits;
    let mut handles = Vec::new();
    for _ in 0..4 {
        let e = engine.clone();
        handles.push(std::thread::spawn(move || e.infer(&[8, 8]).unwrap().outcome.logits));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), expected);
    }
}
