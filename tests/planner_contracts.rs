//! Property-based contracts of the planner: over random device profiles,
//! targets, and budgets, the invariants of §5 must hold.

use proptest::prelude::*;
use sti::prelude::*;
use sti_device::ComputeModel;
use sti_planner::compute_plan::DYNABERT_WIDTHS;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
