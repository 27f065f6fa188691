//! Property-based contracts of the planner: over random device profiles,
//! targets, and budgets, the invariants of §5 must hold.

use proptest::prelude::*;
use sti::prelude::*;
use sti_device::ComputeModel;
use sti_planner::compute_plan::{dynabert_widths_for, DYNABERT_WIDTHS};
use sti_planner::schedule::{sequential_makespan, simulate_pipeline, LayerTiming};
use sti_planner::{PlannedLayer, SchedulePrediction};
use sti_tensor::Rng;

fn hw_for(bandwidth_kbps: u64, per_shard_ms: u64, fixed_us: u64) -> HwProfile {
    let device = DeviceProfile {
        flash: FlashModel::new(bandwidth_kbps * 1000, SimTime::from_ms(2)),
        compute: ComputeModel {
            fixed_layer: SimTime::from_us(fixed_us),
            per_shard: SimTime::from_ms(per_shard_ms),
            reference_seq: 12,
            decompress_per_shard: SimTime::from_us(500),
        },
        ..DeviceProfile::odroid_n2()
    };
    HwProfile::measure(&device, &ModelConfig::scaled_bert(), &QuantConfig::default())
}

fn importance_from_seed(seed: u64) -> ImportanceProfile {
    let mut rng = Rng::new(seed);
    ImportanceProfile::from_scores(
        12,
        12,
        (0..144).map(|_| 0.4 + 0.4 * rng.next_f32() as f64).collect(),
        0.38,
    )
}

/// Oracle: the planner's uncontended prediction written out by hand — per
/// layer, the profiled bytes of the shards the preload does not hold, read
/// as one request (no IO when the preload holds the whole layer), then
/// `t_comp` of the layer's width, through the pipeline recurrence.
fn oracle_prediction(
    hw: &HwProfile,
    layers: &[PlannedLayer],
    preload: &[(ShardId, Bitwidth)],
) -> SchedulePrediction {
    let timings: Vec<LayerTiming> = layers
        .iter()
        .map(|pl| {
            let pending: Vec<u64> = pl
                .items()
                .filter(|&(slice, _)| {
                    !preload.iter().any(|&(id, _)| id == ShardId::new(pl.layer, slice))
                })
                .map(|(_, bw)| hw.shard_bytes(bw))
                .collect();
            let io = if pending.is_empty() {
                SimTime::ZERO
            } else {
                hw.flash.request_delay(pending.iter().sum())
            };
            LayerTiming { io, comp: hw.t_comp(pl.slices.len()) }
        })
        .collect();
    simulate_pipeline(&timings, SimTime::ZERO)
}

/// Oracle: a uniform-bitwidth baseline's `n` layer timings, each layer's
/// `m` shards read as one request.
fn oracle_uniform_timings(
    hw: &HwProfile,
    n: usize,
    m: usize,
    io_bw: Option<Bitwidth>,
) -> Vec<LayerTiming> {
    let io = io_bw.map_or(SimTime::ZERO, |bw| hw.layer_io_delay(&vec![bw; m]));
    vec![LayerTiming { io, comp: hw.t_comp(m) }; n]
}

/// Oracle: a sequential baseline's timeline — all IO, then all compute.
fn oracle_sequential(timings: &[LayerTiming]) -> SchedulePrediction {
    let io = timings.iter().map(|t| t.io).sum();
    let comp = timings.iter().map(|t| t.comp).sum();
    simulate_pipeline(&[LayerTiming { io, comp }], SimTime::ZERO)
}

/// Oracle: the largest-then-deepest `n x m` whose makespan fits `target`,
/// `1 x widths[0]` when none does.
fn oracle_best_shape(
    hw: &HwProfile,
    widths: &[usize],
    target: SimTime,
    makespan: impl Fn(usize, usize) -> SimTime,
) -> (usize, usize) {
    let mut best: Option<(usize, usize)> = None;
    for &m in widths.iter().filter(|&&m| m <= hw.heads) {
        for n in 1..=12 {
            if makespan(n, m) > target {
                break;
            }
            if best.is_none_or(|(bn, bm)| n * m > bn * bm || (n * m == bn * bm && n > bn)) {
                best = Some((n, m));
            }
        }
    }
    best.unwrap_or((1, widths[0]))
}

/// The baseline's plan as the oracle predicts it: its shape and timeline.
fn oracle_baseline(
    hw: &HwProfile,
    baseline: Baseline,
    plan: &ExecutionPlan,
    target: SimTime,
) -> ((usize, usize), SchedulePrediction) {
    let widths = dynabert_widths_for(12);
    let pipelined =
        |n, m, bw| simulate_pipeline(&oracle_uniform_timings(hw, n, m, bw), SimTime::ZERO);
    match baseline {
        Baseline::StdPipeline(bw) => {
            let (n, m) =
                oracle_best_shape(hw, &widths, target, |n, m| pipelined(n, m, Some(bw)).makespan);
            ((n, m), pipelined(n, m, Some(bw)))
        }
        Baseline::LoadAndExec => {
            let sequential =
                |n, m| oracle_sequential(&oracle_uniform_timings(hw, n, m, Some(Bitwidth::Full)));
            let (n, m) = oracle_best_shape(hw, &widths, target, |n, m| sequential(n, m).makespan);
            ((n, m), sequential(n, m))
        }
        Baseline::PreloadModel(_) => {
            let (n, m) = (plan.shape.depth, plan.shape.width);
            ((n, m), pipelined(n, m, None))
        }
        Baseline::Sti | Baseline::StiNoPreload => (
            (plan.layers.len(), plan.layers[0].slices.len()),
            oracle_prediction(hw, &plan.layers, &plan.preload),
        ),
    }
}

/// A plan's shape is its layer count by its (one) layer width.
fn shape_of_layers(layers: &[PlannedLayer]) -> SubmodelShape {
    let width = layers[0].slices.len();
    assert!(layers.iter().all(|pl| pl.slices.len() == width && pl.bitwidths.len() == width));
    SubmodelShape::new(layers.len(), width)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every plan the planner and the baselines emit predicts exactly the
    /// oracle's timeline: the two-stage plan, the same plan over any prefix
    /// of its preload, and every Table 5 baseline (whose shape the oracle
    /// searches for too). Each plan's shape is its layers' count by their
    /// width, and Load&Exec's makespan is the sequential one. Each of them,
    /// and the plan's preload moved off every other layer by the mix-aware
    /// re-selection, keeps the IO jobs a fresh pricing derives
    /// (`layer_io_jobs`). Both sides run the one pricing over the same
    /// layers and preload, so this guards only against a builder that
    /// changes a plan's public `layers` or `preload` after
    /// `ExecutionPlan::new`. The independent check of the jobs (a job
    /// exactly when a layer streams an item, each request's `content_sig`
    /// its job's `sig`) is sti-pipeline's
    /// `the_planner_the_scheduler_and_the_prefetcher_agree_on_what_streams`.
    #[test]
    fn every_plan_predicts_the_oracle_timeline(
        bandwidth in 100u64..2000,
        per_shard in 1u64..20,
        target_ms in 60u64..1000,
        preload_kb in 0u64..128,
        cut in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let hw = hw_for(bandwidth, per_shard, 500);
        let importance = importance_from_seed(seed);
        let target = SimTime::from_ms(target_ms);
        let plan = plan_two_stage(
            &hw,
            &importance,
            target,
            preload_kb << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        );
        let prefix = plan.preload[..cut as usize % (plan.preload.len() + 1)].to_vec();
        let replanned = replan_with_preload(&hw, &plan, prefix.clone());
        for (p, preload) in [(&plan, &plan.preload), (&replanned, &prefix)] {
            prop_assert_eq!(&p.predicted, &oracle_prediction(&hw, &plan.layers, preload));
            prop_assert_eq!(p.shape, shape_of_layers(&p.layers));
            prop_assert_eq!(&p.io_jobs[..], &layer_io_jobs(&hw, p)[..]);
        }
        let shared: std::collections::HashSet<u64> = plan
            .layers
            .iter()
            .step_by(2)
            .map(|pl| sti_device::content_sig(pl.layer, pl.items()))
            .collect();
        if let Some((moved, _)) = reallocate_preload_for_mix(&hw, &plan, &shared) {
            prop_assert_eq!(&moved.io_jobs[..], &layer_io_jobs(&hw, &moved)[..]);
        }
        for baseline in Baseline::table5_lineup() {
            let p = baseline.plan(&hw, &importance, target, preload_kb << 10);
            prop_assert_eq!(&p.io_jobs[..], &layer_io_jobs(&hw, &p)[..], "{}", baseline);
            let ((n, m), predicted) = oracle_baseline(&hw, baseline, &p, target);
            prop_assert_eq!(p.shape, SubmodelShape::new(n, m), "{}", baseline);
            prop_assert_eq!(p.shape, shape_of_layers(&p.layers), "{}", baseline);
            prop_assert_eq!(&p.predicted, &predicted, "{}", baseline);
            if baseline == Baseline::LoadAndExec {
                let timings = oracle_uniform_timings(&hw, n, m, Some(Bitwidth::Full));
                prop_assert_eq!(p.predicted.makespan, sequential_makespan(&timings));
            }
        }
    }

    /// The planned submodel's computation alone always fits the target (or
    /// the plan is the degraded minimum).
    #[test]
    fn compute_always_fits_target(
        bandwidth in 100u64..2000,
        per_shard in 1u64..20,
        target_ms in 60u64..1000,
        seed in any::<u64>(),
    ) {
        let hw = hw_for(bandwidth, per_shard, 500);
        let importance = importance_from_seed(seed);
        let plan = plan_two_stage(
            &hw,
            &importance,
            SimTime::from_ms(target_ms),
            16 << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        );
        let compute: SimTime = (0..plan.shape.depth)
            .map(|_| hw.t_comp(plan.shape.width))
            .sum();
        prop_assert!(
            compute <= SimTime::from_ms(target_ms) || plan.shape.shard_count() <= 3,
            "compute {compute} exceeds target {target_ms}ms for {}",
            plan.shape
        );
    }

    /// Plans that satisfied their AIBs meet the deadline, and their total
    /// pipeline stall never exceeds the budget the planner granted itself
    /// (preload bonus + compute-planning slack). Stalls beyond that budget
    /// would mean the AIB ledger under-accounted some IO.
    #[test]
    fn satisfied_plans_meet_deadline_with_bounded_stall(
        bandwidth in 200u64..2000,
        target_ms in 100u64..800,
        preload_kb in 0u64..64,
        seed in any::<u64>(),
    ) {
        let hw = hw_for(bandwidth, 8, 500);
        let importance = importance_from_seed(seed);
        let target = SimTime::from_ms(target_ms);
        let plan = plan_two_stage(
            &hw,
            &importance,
            target,
            preload_kb << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        );
        if plan.aib_satisfied {
            prop_assert!(
                plan.predicted.makespan <= target,
                "makespan {} exceeds target {target_ms}ms for {}",
                plan.predicted.makespan,
                plan.shape
            );
            let compute: SimTime =
                (0..plan.shape.depth).map(|_| hw.t_comp(plan.shape.width)).sum();
            let slack = target.saturating_sub(compute);
            let bonus = hw.flash.transfer_delay(preload_kb << 10);
            prop_assert!(
                plan.predicted.total_stall <= slack + bonus,
                "stall {} exceeds granted budget {} for {}",
                plan.predicted.total_stall,
                slack + bonus,
                plan.shape
            );
        }
    }

    /// The planner and the IO path price a layer read with one flash model:
    /// each planned layer's predicted IO span equals the service of its
    /// `layer_io_jobs` job (what the contended track and the gate charge),
    /// or zero when the preload buffer covers the layer.
    #[test]
    fn predicted_io_spans_equal_the_layer_io_jobs(
        bandwidth in 100u64..2000,
        target_ms in 60u64..1000,
        preload_kb in 0u64..128,
        seed in any::<u64>(),
    ) {
        let hw = hw_for(bandwidth, 8, 500);
        let plan = plan_two_stage(
            &hw,
            &importance_from_seed(seed),
            SimTime::from_ms(target_ms),
            preload_kb << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        );
        let jobs = layer_io_jobs(&hw, &plan);
        prop_assert_eq!(jobs.len(), plan.predicted.layers.len());
        for (k, (job, layer)) in jobs.iter().zip(&plan.predicted.layers).enumerate() {
            let span = layer.io_end - layer.io_start;
            prop_assert_eq!(span, job.map_or(SimTime::ZERO, |j| j.service), "layer {}", k);
        }
    }

    /// The plan's structure is always internally consistent.
    #[test]
    fn plan_structure_is_consistent(
        target_ms in 60u64..1000,
        preload_kb in 0u64..128,
        seed in any::<u64>(),
    ) {
        let hw = hw_for(510, 8, 500);
        let importance = importance_from_seed(seed);
        let plan = plan_two_stage(
            &hw,
            &importance,
            SimTime::from_ms(target_ms),
            preload_kb << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        );
        prop_assert_eq!(plan.layers.len(), plan.shape.depth);
        for (l, pl) in plan.layers.iter().enumerate() {
            prop_assert_eq!(pl.layer as usize, l);
            prop_assert_eq!(pl.slices.len(), plan.shape.width);
            prop_assert_eq!(pl.bitwidths.len(), plan.shape.width);
            let mut sorted = pl.slices.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&sorted, &pl.slices, "slices must be sorted and unique");
        }
        // Preload is a prefix in layer order and fits the budget.
        let preload_bytes: u64 =
            plan.preload.iter().map(|&(_, bw)| hw.shard_bytes(bw)).sum();
        prop_assert!(preload_bytes <= preload_kb << 10);
        for (id, bw) in &plan.preload {
            prop_assert_eq!(plan.bitwidth_of(*id), Some(*bw));
        }
    }

    /// More preload memory never shrinks the submodel and never lowers any
    /// shard's planned fidelity sum.
    #[test]
    fn preload_memory_is_monotone(
        target_ms in 100u64..600,
        seed in any::<u64>(),
    ) {
        let hw = hw_for(510, 8, 500);
        let importance = importance_from_seed(seed);
        let plan_at = |kb: u64| plan_two_stage(
            &hw,
            &importance,
            SimTime::from_ms(target_ms),
            kb << 10,
            &DYNABERT_WIDTHS,
            &Bitwidth::ALL,
        );
        let small = plan_at(0);
        let large = plan_at(64);
        prop_assert!(large.shape.shard_count() >= small.shape.shard_count());
        if large.shape == small.shape && small.aib_satisfied {
            let bits = |p: &ExecutionPlan| -> u64 {
                p.layers.iter().flat_map(|l| l.bitwidths.iter()).map(|b| b.bits() as u64).sum()
            };
            prop_assert!(bits(&large) >= bits(&small));
        }
    }
}
