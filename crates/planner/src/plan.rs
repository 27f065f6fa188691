//! The execution plan emitted by the planner.
//!
//! [`ExecutionPlan::new`] is the one way to build a plan: it derives the
//! shape from the layers and predicts the uncontended timeline from the
//! same per-layer IO jobs ([`layer_io_jobs`](crate::serving::layer_io_jobs))
//! every contended load prices. The two-stage planner, its preload
//! re-selection and the comparison baselines all build through it; only
//! the `Load&Exec` baseline then folds the prediction into one sequential
//! stage.
//!
//! This module is also the one place that decides which shards a layer
//! reads from flash: [`PlannedLayer::streamed`], the layer's items outside
//! the plan's preload set `S` (§3.2, §5.5). The planner's IO jobs, the
//! executor's layer requests, the ledger's per-layer mask and the
//! prefetcher's speculative jobs all ask it, so a prediction and the run it
//! predicts cannot disagree on what streams.

use sti_device::{HwProfile, SimTime};
use sti_quant::Bitwidth;
use sti_transformer::ShardId;

use crate::schedule::{simulate_pipeline, LayerTiming, SchedulePrediction};
use crate::serving::plan_layer_jobs;

/// Submodel dimensions: `n` layers × `m` shards per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubmodelShape {
    /// Depth `n` (bottom layers, closest to input).
    pub depth: usize,
    /// Width `m` (shards per layer).
    pub width: usize,
}

impl SubmodelShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth > 0 && width > 0, "submodel dimensions must be positive");
        Self { depth, width }
    }

    /// Total number of shards `n × m` (∝ executed FLOPs).
    pub fn shard_count(&self) -> usize {
        self.depth * self.width
    }
}

impl std::fmt::Display for SubmodelShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.depth, self.width)
    }
}

/// One planned layer: which slices execute and at which fidelity each is
/// loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedLayer {
    /// Source layer index in the original model.
    pub layer: u16,
    /// Selected vertical slices, ascending.
    pub slices: Vec<u16>,
    /// Bitwidth of each selected slice (same order as `slices`).
    pub bitwidths: Vec<Bitwidth>,
}

impl PlannedLayer {
    /// The `(slice, bitwidth)` pairs of this layer.
    pub fn items(&self) -> impl Iterator<Item = (u16, Bitwidth)> + Clone + '_ {
        self.slices.iter().copied().zip(self.bitwidths.iter().copied())
    }

    /// The `(slice, bitwidth)` items of this layer read from flash under
    /// `preload`: every item whose shard the list does not hold, in slice
    /// order. `preload` is a plan's list, in `(layer, slice)` order
    /// ([`ExecutionPlan::preload`]), so the lookup narrows to this layer's
    /// run once and binary-searches it per item.
    pub fn streamed<'a>(
        &'a self,
        preload: &'a [(ShardId, Bitwidth)],
    ) -> impl Iterator<Item = (u16, Bitwidth)> + Clone + 'a {
        let lo = preload.partition_point(|&(id, _)| id.layer < self.layer);
        let len = preload[lo..].partition_point(|&(id, _)| id.layer == self.layer);
        let held = &preload[lo..lo + len];
        self.items().filter(move |&(slice, _)| {
            held.binary_search_by_key(&slice, |&(id, _)| id.slice).is_err()
        })
    }

    /// Whether this layer reads anything from flash under `preload` (see
    /// [`PlannedLayer::streamed`]).
    pub fn streams(&self, preload: &[(ShardId, Bitwidth)]) -> bool {
        self.streamed(preload).next().is_some()
    }
}

/// A complete pipeline execution plan: the submodel, per-shard fidelities,
/// the preload set, and the predicted timeline. Built only by
/// [`ExecutionPlan::new`]; the fields are public to read.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ExecutionPlan {
    /// Submodel shape.
    pub shape: SubmodelShape,
    /// Per-layer slice and bitwidth selections.
    pub layers: Vec<PlannedLayer>,
    /// Shards (with their planned bitwidths) held in the preload buffer,
    /// in (layer, slice) order, each at most once — the order
    /// [`PlannedLayer::streamed`] searches.
    pub preload: Vec<(ShardId, Bitwidth)>,
    /// The target latency the plan was built for.
    pub target: SimTime,
    /// The preload-buffer byte budget the plan was built for.
    pub preload_budget_bytes: u64,
    /// Whether the AIB invariant held for the final allocation (false means
    /// the engine accepted unavoidable stalls at minimum fidelity, §5.4.3).
    pub aib_satisfied: bool,
    /// Predicted pipeline timeline.
    pub predicted: SchedulePrediction,
}

impl ExecutionPlan {
    /// Builds a plan over `layers` and predicts its uncontended timeline.
    ///
    /// The shape is `(layers.len(), width)`. Layer `k`'s IO is the service
    /// time of its [`layer_io_jobs`](crate::serving::layer_io_jobs) job,
    /// zero when `preload` covers the whole layer; its compute is
    /// `hw.t_comp(width)`; [`simulate_pipeline`] runs the recurrence.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, a layer selects no slice, the layers
    /// disagree on their width, or `preload` is not in strictly ascending
    /// `(layer, slice)` order.
    pub fn new(
        hw: &HwProfile,
        layers: Vec<PlannedLayer>,
        preload: Vec<(ShardId, Bitwidth)>,
        target: SimTime,
        preload_budget_bytes: u64,
        aib_satisfied: bool,
    ) -> Self {
        let width = layers.first().map_or(0, |pl| pl.slices.len());
        assert!(layers.iter().all(|pl| pl.slices.len() == width), "layers differ in width");
        assert!(preload.is_sorted_by(|a, b| a.0 < b.0), "preload not in (layer, slice) order");
        let shape = SubmodelShape::new(layers.len(), width);
        let comp = hw.t_comp(width);
        let timings: Vec<LayerTiming> = plan_layer_jobs(hw, &layers, &preload)
            .map(|job| LayerTiming { io: job.map_or(SimTime::ZERO, |j| j.service), comp })
            .collect();
        let predicted = simulate_pipeline(&timings, SimTime::ZERO);
        Self { shape, layers, preload, target, preload_budget_bytes, aib_satisfied, predicted }
    }

    /// The planned bitwidth of a shard, if it is part of the submodel.
    pub fn bitwidth_of(&self, id: ShardId) -> Option<Bitwidth> {
        self.layers.get(id.layer as usize).and_then(|pl| {
            debug_assert_eq!(pl.layer, id.layer);
            pl.slices.iter().position(|&s| s == id.slice).map(|i| pl.bitwidths[i])
        })
    }

    /// Whether a shard is in the preload set.
    pub fn is_preloaded(&self, id: ShardId) -> bool {
        self.preload.binary_search_by_key(&id, |&(id, _)| id).is_ok()
    }

    /// Renders the plan as the per-shard bitwidth grid of paper Figure 8,
    /// one row per layer, `*` marking preloaded shards.
    pub fn grid_string(&self) -> String {
        let mut out = String::new();
        for pl in &self.layers {
            for (slice, bw) in pl.items() {
                let mark = if self.is_preloaded(ShardId::new(pl.layer, slice)) { "*" } else { "" };
                let cell =
                    if bw.is_full() { format!("32{mark}") } else { format!("{}{mark}", bw.bits()) };
                out.push_str(&format!("{cell:>4}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedulePrediction;

    fn sample_plan() -> ExecutionPlan {
        ExecutionPlan {
            shape: SubmodelShape::new(2, 3),
            layers: vec![
                PlannedLayer {
                    layer: 0,
                    slices: vec![0, 2, 5],
                    bitwidths: vec![Bitwidth::B2, Bitwidth::B6, Bitwidth::Full],
                },
                PlannedLayer {
                    layer: 1,
                    slices: vec![1, 2, 3],
                    bitwidths: vec![Bitwidth::B2, Bitwidth::B2, Bitwidth::B4],
                },
            ],
            preload: vec![(ShardId::new(0, 0), Bitwidth::B2)],
            target: SimTime::from_ms(200),
            preload_budget_bytes: 1 << 20,
            aib_satisfied: true,
            predicted: SchedulePrediction {
                layers: vec![],
                makespan: SimTime::from_ms(180),
                total_stall: SimTime::ZERO,
            },
        }
    }

    #[test]
    fn shape_display_and_count() {
        let s = SubmodelShape::new(5, 3);
        assert_eq!(s.to_string(), "5x3");
        assert_eq!(s.shard_count(), 15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shape_rejected() {
        let _ = SubmodelShape::new(0, 3);
    }

    #[test]
    fn bitwidth_lookup_respects_slice_selection() {
        let plan = sample_plan();
        assert_eq!(plan.bitwidth_of(ShardId::new(0, 2)), Some(Bitwidth::B6));
        assert_eq!(plan.bitwidth_of(ShardId::new(0, 1)), None, "slice 1 not selected");
        assert_eq!(plan.bitwidth_of(ShardId::new(1, 3)), Some(Bitwidth::B4));
        assert_eq!(plan.bitwidth_of(ShardId::new(5, 0)), None, "layer outside submodel");
    }

    #[test]
    fn preload_membership() {
        let plan = sample_plan();
        assert!(plan.is_preloaded(ShardId::new(0, 0)));
        assert!(!plan.is_preloaded(ShardId::new(1, 1)));
    }

    #[test]
    fn grid_string_marks_preload() {
        let plan = sample_plan();
        let grid = plan.grid_string();
        assert_eq!(grid.lines().count(), 2);
        assert!(grid.contains("2*"), "preloaded shard must be starred: {grid}");
        assert!(grid.contains("32"));
    }
}
