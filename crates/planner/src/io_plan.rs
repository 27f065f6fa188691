//! Stage 2: IO planning — two-pass bitwidth allocation under AIBs
//! (paper §5.4).
//!
//! The allocation picks slices, bitwidths and the preload prefix;
//! [`ExecutionPlan::new`] then predicts the timeline, so a plan from
//! [`plan_io`] and one re-selected by [`replan_with_preload`] are priced by
//! the same layer IO jobs the contended predictors use.

use sti_device::{HwProfile, SimTime};
use sti_quant::Bitwidth;
use sti_transformer::ShardId;

use crate::aib::AibLedger;
use crate::compute_plan::{plan_compute, ComputeChoice};
use crate::importance::ImportanceProfile;
use crate::plan::{ExecutionPlan, PlannedLayer};
use crate::preload::select_preload;

/// Inputs to IO planning.
#[derive(Debug, Clone, Copy)]
pub struct IoPlanInputs<'a> {
    /// Profiled device capabilities.
    pub hw: &'a HwProfile,
    /// Profiled shard importance of the target model.
    pub importance: &'a ImportanceProfile,
    /// The submodel proposed by compute planning.
    pub choice: ComputeChoice,
    /// Target latency `T`.
    pub target: SimTime,
    /// Preload-buffer byte budget `|S|`.
    pub preload_bytes: u64,
    /// Fidelity versions available in the shard store.
    pub bitwidths: &'a [Bitwidth],
}

/// Runs IO planning: selects slices by importance, allocates bitwidths in
/// two passes (uniform raise, then importance-guided upgrades), selects the
/// preload set, and predicts the pipeline timeline.
///
/// # Panics
///
/// Panics if `bitwidths` is empty or the submodel exceeds the importance
/// grid.
pub fn plan_io(inputs: &IoPlanInputs<'_>) -> ExecutionPlan {
    plan_io_impl(inputs, false)
}

/// Ablation variant of [`plan_io`]: skips the uniform first pass, leaving
/// every shard at the floor fidelity before the importance-guided upgrade
/// pass. Used to quantify the contribution of the two-pass design (§5.4.3).
pub fn plan_io_greedy_only(inputs: &IoPlanInputs<'_>) -> ExecutionPlan {
    plan_io_impl(inputs, true)
}

fn plan_io_impl(inputs: &IoPlanInputs<'_>, skip_uniform_pass: bool) -> ExecutionPlan {
    let hw = inputs.hw;
    let shape = inputs.choice.shape;
    assert!(!inputs.bitwidths.is_empty(), "no fidelity versions available");

    // Which slices execute: per-layer most important (§5.2 profiles guide
    // both slice choice and fidelity allocation).
    let slices = inputs.importance.top_slices_per_layer(shape.depth, shape.width);

    // The "bonus IO" of the preload buffer is only real for bytes the buffer
    // can actually hold after allocation — upgrading the first shards to
    // large fidelities can shrink the preloadable prefix below |S|. Iterate
    // to a fixpoint: grant a bonus, allocate, measure the resulting preload
    // prefix, and re-allocate with the smaller bonus if they disagree. The
    // effective budget is non-increasing, so this terminates quickly.
    let mut effective_budget = inputs.preload_bytes;
    let (layers, preload, aib_satisfied) = loop {
        let attempt = allocate(inputs, skip_uniform_pass, &slices, effective_budget);
        let actual: u64 = attempt.1.iter().map(|&(_, bw)| hw.shard_bytes(bw)).sum();
        if actual == effective_budget || actual >= effective_budget {
            break attempt;
        }
        effective_budget = actual;
    };

    ExecutionPlan::new(hw, layers, preload, inputs.target, inputs.preload_bytes, aib_satisfied)
}

/// Rebuilds a plan with an explicit preload set: the submodel, slice
/// selection, and bitwidth allocation are untouched, only the preload
/// contents (and hence the predicted timeline) change.
///
/// This is the serving planner's lever for *sharing-aware* `|S|` placement:
/// the two-stage planner always preloads the maximal byte prefix, but under
/// shared-IO batching a co-resident may already stream some layers, making
/// their preload marginal value ~zero — the mix-aware search re-selects
/// where the budget goes and re-predicts with this function. `aib_satisfied`
/// is carried over unchanged (it describes the bitwidth allocation, which
/// this function does not alter); the predicted timeline is recomputed, so
/// a plan whose preload moved off the bottom layers honestly reports any
/// cold-start stall that move reintroduced.
pub fn replan_with_preload(
    hw: &HwProfile,
    plan: &ExecutionPlan,
    preload: Vec<(ShardId, Bitwidth)>,
) -> ExecutionPlan {
    ExecutionPlan::new(
        hw,
        plan.layers.clone(),
        preload,
        plan.target,
        plan.preload_budget_bytes,
        plan.aib_satisfied,
    )
}

type Allocation = (Vec<PlannedLayer>, Vec<(ShardId, Bitwidth)>, bool);

/// One allocation attempt under a given effective preload budget: the
/// two-pass bitwidth assignment of §5.4.3 plus preload-prefix selection.
fn allocate(
    inputs: &IoPlanInputs<'_>,
    skip_uniform_pass: bool,
    slices: &[Vec<u16>],
    preload_budget: u64,
) -> Allocation {
    let hw = inputs.hw;
    let (n, m) = (inputs.choice.shape.depth, inputs.choice.shape.width);

    // Budget ledger. AIB(0) folds in the compute-planning slack so cold
    // starts can afford layer 0's IO (see aib module docs).
    let t_comp = hw.t_comp(m);
    let bonus = hw.flash.transfer_delay(preload_budget);
    let slack = inputs.choice.slack(inputs.target);
    // A bonus saturates for an absurd |S|; the ledger itself is `i128`.
    let mut ledger = AibLedger::new(n, t_comp, bonus.saturating_add(slack));
    // Each layer's grouped IO request pays the flash latency once.
    for k in 0..n {
        ledger.charge(k, hw.flash.request_latency);
    }

    let mut compressed: Vec<Bitwidth> =
        inputs.bitwidths.iter().copied().filter(|bw| !bw.is_full()).collect();
    compressed.sort();
    compressed.dedup();
    let floor = compressed.first().copied().unwrap_or(Bitwidth::Full);

    // Pass 1: the highest uniform bitwidth whose total IO keeps all AIBs
    // non-negative (the greedy-only ablation considers the floor only).
    let candidates: &[Bitwidth] =
        if skip_uniform_pass { &compressed[..1.min(compressed.len())] } else { &compressed };
    let mut uniform = None;
    for &bw in candidates.iter().rev() {
        let mut probe = ledger.clone();
        let per_layer = hw.t_io_shard(bw) * m as u64;
        for k in 0..n {
            probe.charge(k, per_layer);
        }
        if probe.is_valid() {
            uniform = Some(bw);
            break;
        }
    }
    let (uniform, aib_satisfied) = match uniform {
        Some(bw) => (bw, true),
        // Even the floor does not fit: select it anyway (shards are
        // necessary for execution) and abort further allocation (§5.4.3).
        None => (floor, false),
    };
    let per_layer = hw.t_io_shard(uniform) * m as u64;
    for k in 0..n {
        ledger.charge(k, per_layer);
    }

    let mut bitwidths: Vec<Vec<Bitwidth>> = (0..n).map(|_| vec![uniform; m]).collect();

    // Pass 2: importance-guided upgrades, highest fidelity first, until no
    // AIB can absorb another upgrade.
    if aib_satisfied {
        let mut upgrades: Vec<Bitwidth> =
            inputs.bitwidths.iter().copied().filter(|&bw| bw > uniform).collect();
        upgrades.sort();
        upgrades.dedup();
        let base_cost = hw.t_io_shard(uniform);
        for id in inputs.importance.ranking() {
            let layer = id.layer as usize;
            if layer >= n {
                continue;
            }
            let Some(pos) = slices[layer].iter().position(|&s| s == id.slice) else {
                continue;
            };
            for &bw in upgrades.iter().rev() {
                let delta = hw.t_io_shard(bw) - base_cost;
                if ledger.can_afford(layer, delta) {
                    ledger.charge(layer, delta);
                    bitwidths[layer][pos] = bw;
                    break;
                }
            }
        }
    }

    let layers: Vec<PlannedLayer> = (0..n)
        .map(|l| PlannedLayer {
            layer: l as u16,
            slices: slices[l].clone(),
            bitwidths: bitwidths[l].clone(),
        })
        .collect();

    let preload = select_preload(&layers, hw, preload_budget);
    (layers, preload, aib_satisfied)
}

/// Convenience wrapper running both planning stages (paper §5.1).
///
/// When IO planning cannot satisfy the AIB invariant even at the lowest
/// fidelity (the compute proposal left no slack for the cold-start warmup),
/// the wrapper retries with progressively shallower submodels — picking the
/// next-best valid plan instead of accepting unavoidable stalls. Only if
/// even a single layer cannot be warmed in time does it return the degraded
/// minimum-fidelity plan (§5.4.3's abort case).
pub fn plan_two_stage(
    hw: &HwProfile,
    importance: &ImportanceProfile,
    target: SimTime,
    preload_bytes: u64,
    widths: &[usize],
    bitwidths: &[Bitwidth],
) -> ExecutionPlan {
    let mut choice = plan_compute(hw, importance.layers(), target, widths);
    loop {
        let plan =
            plan_io(&IoPlanInputs { hw, importance, choice, target, preload_bytes, bitwidths });
        if plan.aib_satisfied || choice.shape.depth == 1 {
            return plan;
        }
        let depth = choice.shape.depth - 1;
        let shape = crate::plan::SubmodelShape::new(depth, choice.shape.width);
        choice = ComputeChoice {
            shape,
            compute_time: hw.t_comp(shape.width) * depth as u64,
            within_target: choice.within_target,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_plan::DYNABERT_WIDTHS;
    use sti_device::DeviceProfile;
    use sti_quant::QuantConfig;
    use sti_tensor::Rng;
    use sti_transformer::ModelConfig;

    fn hw() -> HwProfile {
        HwProfile::measure(
            &DeviceProfile::odroid_n2(),
            &ModelConfig::scaled_bert(),
            &QuantConfig::default(),
        )
    }

    /// A synthetic 12x12 importance profile with a deterministic spread.
    fn importance() -> ImportanceProfile {
        let mut rng = Rng::new(42);
        let scores: Vec<f64> =
            (0..144).map(|i| 0.5 + 0.3 * rng.next_f32() as f64 + (i % 7) as f64 * 0.01).collect();
        ImportanceProfile::from_scores(12, 12, scores, 0.48)
    }

    fn plan_at(target_ms: u64, preload: u64) -> ExecutionPlan {
        plan_two_stage(
            &hw(),
            &importance(),
            SimTime::from_ms(target_ms),
            preload,
            &DYNABERT_WIDTHS,
            &[Bitwidth::B2, Bitwidth::B3, Bitwidth::B4, Bitwidth::B5, Bitwidth::B6, Bitwidth::Full],
        )
    }

    #[test]
    fn plan_has_consistent_shape() {
        let plan = plan_at(200, 1 << 20);
        assert_eq!(plan.layers.len(), plan.shape.depth);
        for pl in &plan.layers {
            assert_eq!(pl.slices.len(), plan.shape.width);
            assert_eq!(pl.bitwidths.len(), plan.shape.width);
        }
    }

    #[test]
    fn valid_plans_predict_no_stall_after_warmup() {
        let plan = plan_at(400, 1 << 20);
        assert!(plan.aib_satisfied);
        for (k, l) in plan.predicted.layers.iter().enumerate().skip(1) {
            assert_eq!(
                l.stall,
                SimTime::ZERO,
                "layer {k} stalls by {} in a plan that satisfied AIBs",
                l.stall
            );
        }
    }

    #[test]
    fn makespan_stays_within_target_for_satisfied_plans() {
        for t in [150u64, 200, 400] {
            let plan = plan_at(t, 1 << 20);
            assert!(plan.aib_satisfied, "T={t}");
            assert!(
                plan.predicted.makespan <= SimTime::from_ms(t),
                "T={t}: makespan {} exceeds target",
                plan.predicted.makespan
            );
        }
    }

    #[test]
    fn preload_buffer_lifts_fidelity() {
        let without = plan_at(200, 0);
        let with = plan_at(200, 4 << 20);
        let mean_bits = |p: &ExecutionPlan| {
            let total: u64 =
                p.layers.iter().flat_map(|l| l.bitwidths.iter()).map(|bw| bw.bits() as u64).sum();
            total as f64 / p.shape.shard_count() as f64
        };
        assert!(
            mean_bits(&with) > mean_bits(&without),
            "preload memory should buy fidelity: {} vs {}",
            mean_bits(&with),
            mean_bits(&without)
        );
    }

    #[test]
    fn important_shards_get_higher_bitwidths() {
        let plan = plan_at(200, 1 << 20);
        let imp = importance();
        let ranking = imp.ranking();
        // Collect planned bitwidths by importance rank (only in-submodel).
        let bits_by_rank: Vec<(usize, u8)> = ranking
            .iter()
            .enumerate()
            .filter_map(|(rank, &id)| plan.bitwidth_of(id).map(|bw| (rank, bw.bits())))
            .collect();
        let top_mean: f64 =
            bits_by_rank[..bits_by_rank.len() / 4].iter().map(|&(_, b)| b as f64).sum::<f64>()
                / (bits_by_rank.len() / 4) as f64;
        let bottom_mean: f64 =
            bits_by_rank[3 * bits_by_rank.len() / 4..].iter().map(|&(_, b)| b as f64).sum::<f64>()
                / (bits_by_rank.len() - 3 * bits_by_rank.len() / 4) as f64;
        assert!(
            top_mean >= bottom_mean,
            "top-importance shards got {top_mean} bits vs {bottom_mean} for the rest"
        );
    }

    #[test]
    fn impossible_target_degrades_to_floor() {
        let plan = plan_at(5, 0);
        assert!(!plan.aib_satisfied || plan.shape.shard_count() <= 3);
        // All shards at the floor bitwidth when AIBs cannot be satisfied.
        if !plan.aib_satisfied {
            for pl in &plan.layers {
                assert!(pl.bitwidths.iter().all(|&bw| bw == Bitwidth::B2));
            }
        }
    }

    #[test]
    fn preload_is_prefix_of_plan_in_layer_order() {
        let plan = plan_at(200, 2 << 20);
        assert!(!plan.preload.is_empty());
        let mut expected = Vec::new();
        'outer: for pl in &plan.layers {
            for (slice, bw) in pl.items() {
                expected.push((ShardId::new(pl.layer, slice), bw));
                if expected.len() == plan.preload.len() {
                    break 'outer;
                }
            }
        }
        assert_eq!(plan.preload, expected);
    }

    #[test]
    fn larger_target_never_reduces_flops() {
        let small = plan_at(150, 1 << 20);
        let large = plan_at(400, 1 << 20);
        assert!(large.shape.shard_count() >= small.shape.shard_count());
    }

    #[test]
    fn restricted_store_bitwidths_are_respected() {
        let hw = hw();
        let imp = importance();
        let plan = plan_two_stage(
            &hw,
            &imp,
            SimTime::from_ms(300),
            1 << 20,
            &DYNABERT_WIDTHS,
            &[Bitwidth::B2, Bitwidth::B6],
        );
        for pl in &plan.layers {
            for &bw in &pl.bitwidths {
                assert!(bw == Bitwidth::B2 || bw == Bitwidth::B6, "unexpected {bw}");
            }
        }
    }
}
