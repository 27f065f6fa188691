//! The comparison systems of paper Table 4.
//!
//! All baselines are built on the same DynaBERT-style elastic substrate so
//! the comparison isolates STI's contributions (sharded fidelity versions +
//! AIB planning + preload buffer):
//!
//! | Baseline | Preload? | Sharding fidelity | IO & compute |
//! |---|---|---|---|
//! | `LoadAndExec` | no | 32-bit | sequential |
//! | `StdPipeline(X)` | no | one bitwidth X | pipelined |
//! | `PreloadModel(X)` | whole model | one bitwidth X | compute only |
//! | `Sti` | small buffer | per-shard bitwidths | pipelined |
//! | `StiNoPreload` | none | per-shard bitwidths | pipelined |
//!
//! Every baseline's plan is built by [`ExecutionPlan::new`], so its
//! predicted timeline comes from the same per-layer IO jobs the planner's
//! own plans and the contended predictors use. `LoadAndExec` is the one
//! exception to the pipelined timeline: it folds the constructor's IO and
//! compute totals into one sequential stage (all IO, then all compute).

use sti_device::{HwProfile, SimTime};
use sti_planner::compute_plan::dynabert_widths_for;
use sti_planner::schedule::{simulate_pipeline, LayerTiming};
use sti_planner::{plan_compute, ExecutionPlan, ImportanceProfile, PlannedLayer, SubmodelShape};
use sti_quant::Bitwidth;
use sti_transformer::ShardId;

/// A model-execution strategy under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Load the (32-bit) submodel fully, then execute — the default of
    /// popular ML frameworks (§2.2).
    LoadAndExec,
    /// Layerwise IO/compute pipeline with one uniform bitwidth for every
    /// shard.
    StdPipeline(Bitwidth),
    /// Whole model already in memory (at one bitwidth); no IO at all.
    PreloadModel(Bitwidth),
    /// STI with its preload buffer.
    Sti,
    /// STI cold-starting with no preload buffer (`Ours-0MB` in Table 5).
    StiNoPreload,
}

impl Baseline {
    /// Every baseline column of Table 5, in the paper's order.
    pub fn table5_lineup() -> Vec<Baseline> {
        vec![
            Baseline::LoadAndExec,
            Baseline::StdPipeline(Bitwidth::Full),
            Baseline::StdPipeline(Bitwidth::B2),
            Baseline::StdPipeline(Bitwidth::B6),
            Baseline::PreloadModel(Bitwidth::Full),
            Baseline::PreloadModel(Bitwidth::B6),
            Baseline::StiNoPreload,
            Baseline::Sti,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Baseline::LoadAndExec => "Load&Exec".to_string(),
            Baseline::StdPipeline(bw) if bw.is_full() => "StdPL-full".to_string(),
            Baseline::StdPipeline(bw) => format!("StdPL-{}", bw),
            Baseline::PreloadModel(bw) if bw.is_full() => "Preload-full".to_string(),
            Baseline::PreloadModel(bw) => format!("Preload-{}", bw),
            Baseline::Sti => "Ours".to_string(),
            Baseline::StiNoPreload => "Ours-0MB".to_string(),
        }
    }

    /// Whether this baseline keeps the whole model resident.
    pub fn holds_whole_model(&self) -> bool {
        matches!(self, Baseline::PreloadModel(_))
    }

    /// Builds the baseline's execution plan for a target latency.
    ///
    /// STI variants run the full two-stage planner; the others pick their
    /// best submodel under their own cost models (sequential, pipelined
    /// uniform-bitwidth, or compute-only) with importance-*oblivious* slice
    /// selection (the first `m` slices), per Table 4.
    pub fn plan(
        &self,
        hw: &HwProfile,
        importance: &ImportanceProfile,
        target: SimTime,
        preload_bytes: u64,
    ) -> ExecutionPlan {
        let max_layers = importance.layers();
        let widths = dynabert_widths_for(importance.heads());
        match self {
            Baseline::Sti => sti_planner::plan_two_stage(
                hw,
                importance,
                target,
                preload_bytes,
                &widths,
                &Bitwidth::ALL,
            ),
            Baseline::StiNoPreload => {
                sti_planner::plan_two_stage(hw, importance, target, 0, &widths, &Bitwidth::ALL)
            }
            Baseline::PreloadModel(bw) => {
                // Compute-only: same stage-1 search as STI, no IO at all.
                let choice = plan_compute(hw, max_layers, target, &widths);
                let layers = uniform_layers(choice.shape, *bw);
                // Everything is already in memory: model the whole submodel
                // as preloaded.
                let preload = layers
                    .iter()
                    .flat_map(|pl| pl.items().map(move |(s, b)| (ShardId::new(pl.layer, s), b)))
                    .collect();
                ExecutionPlan::new(hw, layers, preload, target, 0, true)
            }
            Baseline::StdPipeline(bw) => best_plan(hw, &widths, max_layers, target, |shape| {
                ExecutionPlan::new(hw, uniform_layers(shape, *bw), vec![], target, 0, true)
            }),
            Baseline::LoadAndExec => best_plan(hw, &widths, max_layers, target, |shape| {
                let mut plan = ExecutionPlan::new(
                    hw,
                    uniform_layers(shape, Bitwidth::Full),
                    vec![],
                    target,
                    0,
                    true,
                );
                // Sequential execution: the timeline is one IO stage (every
                // layer's load) followed by one compute stage.
                let stage = LayerTiming {
                    io: plan.predicted.io_time(),
                    comp: plan.predicted.compute_time(),
                };
                plan.predicted = simulate_pipeline(&[stage], SimTime::ZERO);
                plan
            }),
        }
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Importance-oblivious layers: first `m` slices at a uniform bitwidth.
fn uniform_layers(shape: SubmodelShape, bw: Bitwidth) -> Vec<PlannedLayer> {
    (0..shape.depth as u16)
        .map(|layer| PlannedLayer {
            layer,
            slices: (0..shape.width as u16).collect(),
            bitwidths: vec![bw; shape.width],
        })
        .collect()
}

/// The largest-then-deepest submodel whose plan's makespan fits the target.
/// Falls back to `1 × min-width` when nothing fits (all systems degrade at
/// very low targets, §7.1).
fn best_plan(
    hw: &HwProfile,
    widths: &[usize],
    max_layers: usize,
    target: SimTime,
    plan: impl Fn(SubmodelShape) -> ExecutionPlan,
) -> ExecutionPlan {
    let mut best: Option<ExecutionPlan> = None;
    for &m in widths {
        if m > hw.heads {
            continue;
        }
        for n in 1..=max_layers {
            let cand = plan(SubmodelShape::new(n, m));
            if cand.predicted.makespan > target {
                break;
            }
            let better = best.as_ref().is_none_or(|b| {
                let (c, b) = (cand.shape, b.shape);
                c.shard_count() > b.shard_count()
                    || (c.shard_count() == b.shard_count() && c.depth > b.depth)
            });
            if better {
                best = Some(cand);
            }
        }
    }
    best.unwrap_or_else(|| plan(SubmodelShape::new(1, widths[0])))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn importance() -> ImportanceProfile {
        let mut rng = Rng::new(7);
        ImportanceProfile::from_scores(
            12,
            12,
            (0..144).map(|_| 0.5 + 0.2 * rng.next_f32() as f64).collect(),
            0.45,
        )
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Baseline::LoadAndExec.name(), "Load&Exec");
        assert_eq!(Baseline::StdPipeline(Bitwidth::B6).name(), "StdPL-6bit");
        assert_eq!(Baseline::StdPipeline(Bitwidth::Full).name(), "StdPL-full");
        assert_eq!(Baseline::PreloadModel(Bitwidth::Full).name(), "Preload-full");
        assert_eq!(Baseline::Sti.name(), "Ours");
        assert_eq!(Baseline::StiNoPreload.name(), "Ours-0MB");
    }

    #[test]
    fn load_and_exec_is_crippled_by_io() {
        let hw = hw();
        let imp = importance();
        let t = SimTime::from_ms(400);
        let le = Baseline::LoadAndExec.plan(&hw, &imp, t, 0);
        let sti = Baseline::Sti.plan(&hw, &imp, t, 1 << 20);
        assert!(
            sti.shape.shard_count() > 3 * le.shape.shard_count(),
            "STI should run several times more FLOPs: {} vs {}",
            sti.shape,
            le.shape
        );
    }

    #[test]
    fn stdpl_full_stalls_and_shrinks() {
        let hw = hw();
        let imp = importance();
        let t = SimTime::from_ms(400);
        let full = Baseline::StdPipeline(Bitwidth::Full).plan(&hw, &imp, t, 0);
        let b6 = Baseline::StdPipeline(Bitwidth::B6).plan(&hw, &imp, t, 0);
        assert!(
            b6.shape.shard_count() > full.shape.shard_count(),
            "6-bit pipeline must fit a larger submodel ({} vs {})",
            b6.shape,
            full.shape
        );
    }

    #[test]
    fn preload_model_matches_sti_flops() {
        // PreloadModel has no IO constraint; STI should reach (close to) the
        // same FLOPs thanks to its elastic pipeline (paper §7.3).
        let hw = hw();
        let imp = importance();
        for t_ms in [150u64, 200, 400] {
            let t = SimTime::from_ms(t_ms);
            let pm = Baseline::PreloadModel(Bitwidth::Full).plan(&hw, &imp, t, 0);
            let sti = Baseline::Sti.plan(&hw, &imp, t, 1 << 20);
            assert_eq!(
                sti.shape.shard_count(),
                pm.shape.shard_count(),
                "T={t_ms}: STI {} vs PreloadModel {}",
                sti.shape,
                pm.shape
            );
        }
    }

    #[test]
    fn all_plans_fit_their_targets() {
        let hw = hw();
        let imp = importance();
        for baseline in Baseline::table5_lineup() {
            let plan = baseline.plan(&hw, &imp, SimTime::from_ms(400), 1 << 20);
            let minimum_fallback = plan.shape.shard_count() <= 3;
            assert!(
                plan.predicted.makespan <= SimTime::from_ms(400) || minimum_fallback,
                "{baseline} makespan {} exceeds target with non-minimal submodel {}",
                plan.predicted.makespan,
                plan.shape
            );
        }
    }

    #[test]
    fn preload_model_has_zero_io_in_timeline() {
        let hw = hw();
        let imp = importance();
        let plan = Baseline::PreloadModel(Bitwidth::B6).plan(&hw, &imp, SimTime::from_ms(200), 0);
        assert_eq!(plan.predicted.total_stall, SimTime::ZERO);
        assert!(plan
            .layers
            .iter()
            .all(|pl| pl.items().all(|(s, _)| plan.is_preloaded(ShardId::new(pl.layer, s)))));
    }

    #[test]
    fn sti_outfits_stdpl_at_equal_bitwidth_budget() {
        // Fig 8's story: with the same device and target, STI runs a larger
        // or equal submodel than StdPL-6bit.
        let hw = hw();
        let imp = importance();
        let t = SimTime::from_ms(200);
        let std6 = Baseline::StdPipeline(Bitwidth::B6).plan(&hw, &imp, t, 0);
        let sti = Baseline::Sti.plan(&hw, &imp, t, 1 << 20);
        assert!(sti.shape.shard_count() >= std6.shape.shard_count());
    }
}
