//! Criterion micro-benchmarks for the planner: the paper stresses that
//! compute planning enumerates a constant 144 pairs and the whole two-stage
//! plan is cheap enough to re-run whenever T or |S| changes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti::prelude::{Task, TaskKind};
use sti_device::{DeviceProfile, HwProfile, SimTime};
use sti_planner::compute_plan::DYNABERT_WIDTHS;
use sti_planner::{plan_compute, plan_two_stage, profile_importance, AibLedger, ImportanceProfile};
use sti_quant::{Bitwidth, QuantConfig};
use sti_tensor::Rng;
use sti_transformer::ModelConfig;

fn fixtures() -> (HwProfile, ImportanceProfile) {
    let hw = HwProfile::measure(
        &DeviceProfile::odroid_n2(),
        &ModelConfig::scaled_bert(),
        &QuantConfig::default(),
    );
    let mut rng = Rng::new(11);
    let importance = ImportanceProfile::from_scores(
        12,
        12,
        (0..144).map(|_| 0.5 + 0.3 * rng.next_f32() as f64).collect(),
        0.45,
    );
    (hw, importance)
}

fn bench_compute_plan(c: &mut Criterion) {
    let (hw, _) = fixtures();
    c.bench_function("plan_compute_144_pairs", |b| {
        b.iter(|| plan_compute(&hw, 12, SimTime::from_ms(200), &DYNABERT_WIDTHS))
    });
}

fn bench_two_stage(c: &mut Criterion) {
    let (hw, importance) = fixtures();
    let mut group = c.benchmark_group("plan_two_stage");
    for t_ms in [150u64, 400] {
        group.bench_with_input(BenchmarkId::from_parameter(t_ms), &t_ms, |b, &t_ms| {
            b.iter(|| {
                plan_two_stage(
                    &hw,
                    &importance,
                    SimTime::from_ms(t_ms),
                    16 << 10,
                    &DYNABERT_WIDTHS,
                    &Bitwidth::ALL,
                )
            })
        });
    }
    group.finish();
}

fn bench_aib_ledger(c: &mut Criterion) {
    c.bench_function("aib_charge_144_shards", |b| {
        b.iter(|| {
            let mut ledger = AibLedger::new(12, SimTime::from_ms(80), SimTime::from_ms(30));
            for layer in 0..12 {
                for _ in 0..12 {
                    if ledger.can_afford(layer, SimTime::from_ms(1)) {
                        ledger.charge(layer, SimTime::from_ms(1));
                    }
                }
            }
            ledger.is_valid()
        })
    });
}

fn bench_profile_importance(c: &mut Criterion) {
    // §5.2's offline pass at unit-test scale (2 × 4 grid, 8 dev examples):
    // floor-grid dequantization, one baseline pass, 8 resumed probes.
    let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 8, 1);
    c.bench_function("profile_importance_tiny", |b| {
        b.iter(|| profile_importance(task.model(), task.dev(), &QuantConfig::default()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_compute_plan, bench_two_stage, bench_aib_ledger, bench_profile_importance
}
criterion_main!(benches);
