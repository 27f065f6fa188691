//! # sti-planner
//!
//! STI's two-stage pipeline planner (paper §5). Given a target latency `T`,
//! a preload-buffer budget `|S|`, the device's profiled capability tables,
//! and the model's shard-importance profile, the planner emits an
//! [`ExecutionPlan`]: which `n × m` submodel to run, which fidelity version
//! of each shard to load, and which shards to hold preloaded.
//!
//! The two stages:
//!
//! 1. **Compute planning** ([`compute_plan`]) — pick the submodel shape with
//!    maximum FLOPs whose computation fits in `T`, preferring depth on ties
//!    (§5.3).
//! 2. **IO planning** ([`io_plan`]) — track per-layer *Accumulated IO
//!    Budgets* ([`aib`], §5.4.2) and allocate shard bitwidths in two passes:
//!    a uniform raise for all shards, then importance-guided upgrades until
//!    budgets are exhausted (§5.4.3).
//!
//! Shard importance itself is profiled by [`importance`] exactly as §5.2
//! describes: fix the grid at 2-bit, raise one shard to full fidelity, and
//! measure dev-set accuracy.
//!
//! For serving, [`mix`] prices an engagement against the open sessions and
//! [`gate`] turns that price into the infer-time backpressure decision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod aib;
pub mod cache;
pub mod compute_plan;
pub mod gate;
pub mod importance;
pub mod io_plan;
pub mod mix;
pub mod plan;
pub mod prefetch;
pub mod preload;
pub mod schedule;
pub mod serving;

pub use aib::AibLedger;
pub use cache::{MemoTable, PlanCache, PlanCacheStats, PlanKey};
pub use compute_plan::{plan_compute, ComputeChoice};
pub use importance::{profile_importance, ImportanceProfile};
pub use io_plan::{
    plan_io, plan_io_greedy_only, plan_two_stage, replan_with_preload, IoPlanInputs,
};
pub use mix::{
    plan_for_slo_mix, reallocate_preload_for_mix, GateOutcome, MixSession, PredictedDispatch,
    PreloadPolicy, ServingMix, SloProfile,
};
pub use plan::{ExecutionPlan, PlannedLayer, SubmodelShape};
pub use prefetch::{
    EngagementKey, KeyId, MarkovEdge, PrefetchConfig, PrefetchMode, PrefetchPlan, Prefetcher,
    PrefetcherStats,
};
pub use schedule::{simulate_pipeline, LayerTiming, SchedulePrediction};
pub use serving::{
    align_io_completions, contended_makespan, layer_io_jobs, CoRunnerLoad, EngagementLoad,
    LayerIoJob, ServingPlan,
};
/// The sharing mode every contended prediction runs under — the IO
/// scheduler's batching policy, defined once in `sti-device`.
pub use sti_device::IoSharing;
