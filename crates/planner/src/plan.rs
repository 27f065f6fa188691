//! The execution plan emitted by the planner.

use sti_device::SimTime;
use sti_quant::Bitwidth;
use sti_transformer::ShardId;

use crate::schedule::SchedulePrediction;

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
    pub fn items(&self) -> impl Iterator<Item = (u16, Bitwidth)> + '_ {
        self.slices.iter().copied().zip(self.bitwidths.iter().copied())
    }
}

/// A complete pipeline execution plan: the submodel, per-shard fidelities,
/// the preload set, and the predicted timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Submodel shape.
    pub shape: SubmodelShape,
    /// Per-layer slice and bitwidth selections.
    pub layers: Vec<PlannedLayer>,
    /// Shards (with their planned bitwidths) held in the preload buffer,
    /// in (layer, slice) order.
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
    /// The planned bitwidth of a shard, if it is part of the submodel.
    pub fn bitwidth_of(&self, id: ShardId) -> Option<Bitwidth> {
        self.layers.get(id.layer as usize).and_then(|pl| {
            debug_assert_eq!(pl.layer, id.layer);
            pl.slices.iter().position(|&s| s == id.slice).map(|i| pl.bitwidths[i])
        })
    }

    /// Whether a shard is in the preload set.
    pub fn is_preloaded(&self, id: ShardId) -> bool {
        self.preload.iter().any(|&(pid, _)| pid == id)
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
