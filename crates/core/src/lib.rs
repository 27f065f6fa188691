//! # STI: Speedy Transformer Inference
//!
//! A from-scratch Rust reproduction of *STI: Turbocharge NLP Inference at
//! the Edge via Elastic Pipelining* (Guo, Choe & Lin, ASPLOS '23).
//!
//! STI reconciles the latency/memory tension of on-device transformer
//! inference with two techniques:
//!
//! 1. **Elastic model sharding** — every layer is split into `M` vertical
//!    slices (one attention head + `1/M` of the FFN), each stored on flash
//!    in `K` quantized fidelity versions; any `n × m` subset at any mix of
//!    fidelities is a runnable submodel.
//! 2. **Elastic pipeline planning** — a two-stage planner picks the
//!    max-FLOPs submodel that computes within the target latency, then
//!    allocates per-shard bitwidths under layerwise *Accumulated IO
//!    Budgets* so IO never stalls the compute pipeline, spending a small
//!    *preload buffer* to warm the first layers.
//!
//! ## Quickstart
//!
//! ```
//! use sti_core::prelude::*;
//!
//! // A synthetic "fine-tuned model" + task (offline stand-in for GLUE), its
//! // importance profile, and its quantized shard store on flash (a temp
//! // directory the context removes when it and the engine are dropped).
//! let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
//!
//! // Device profile (one-time, per model/device).
//! let device = DeviceProfile::odroid_n2();
//! let hw = HwProfile::measure(&device, ctx.task().model().config(), ctx.quant());
//!
//! // Plan once, infer repeatedly.
//! let model = ctx.task().model().clone();
//! let importance = ctx.importance().clone();
//! let engine = StiEngine::builder(model, ctx.shard_source(), hw, importance)
//!     .target(SimTime::from_ms(300))
//!     .preload_budget(64 << 10)
//!     .widths(&[2, 4])
//!     .build()?;
//! let inference = engine.infer(&[1, 2, 3])?;
//! assert!(inference.class < 2);
//! # Ok::<(), sti_pipeline::PipelineError>(())
//! ```
//!
//! The [`baselines`] module implements the comparison systems of the
//! paper's Table 4 and [`runner`] evaluates any of them on any task /
//! device / latency — the machinery behind every experiment binary in
//! `sti-bench`.
//!
//! ## Serving a fleet
//!
//! The [`serving`] module turns the single-engagement engine into a
//! multi-session runtime. [`serving::replay_event`] is the executor:
//! traces replay on [`sti_device::engine`]'s deterministic discrete-event
//! engine, where every client is a [`Component`] on one simulated clock
//! and N clients cost one OS thread. [`serving::replay_sequential`] is the
//! oracle that *defines* the uncontended track — per-engagement outcomes
//! and gate decisions are identical between the two by contract (event ≡
//! sequential), and `Session::infer` driven from N host threads matches
//! both on outcomes (`tests/serving_runtime.rs`). A steady-state gate
//! decision costs the same at any fleet size: the registry's digest is a
//! rolling fold, and one walk memo keyed by it answers every repeat.
//! `tests/memory_sharing.rs` pins such decisions at zero heap bytes over
//! 2 000 open sessions, `tests/serving_fleet.rs` gates, replays against
//! and tears down 100 000, and the benchmark's `fleet_admit` workload
//! times each layer. `BENCH_serving.json` is the frozen record of a
//! retired fleet sweep. Every [`ServeReport`] also carries a merged
//! metrics snapshot and, when the server has a live sink, the
//! virtual-clock span stream (export with
//! [`sti_obs::chrome_trace_json`]; without a sink, read
//! `StiServer::trace_spans` after the replay). Both are byte-identical run
//! to run on the deterministic tracks; see `sti_obs` and
//! `tests/serving_obs.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod baselines;
pub mod gold;
pub mod runner;
pub mod serving;
pub mod trace_file;

pub use baselines::Baseline;
pub use runner::{run_experiment, Experiment, RunResult, TaskContext};
pub use serving::{
    build_server, replay_event, replay_sequential, ClientTrace, EngagementOutcome, Engagements,
    EngagementsIter, ServeConfig, ServeReport, ServingTrace,
};
pub use sti_device::engine::{Component, ComponentId, Engine, EngineReport, System};
pub use trace_file::{load_trace, parse_trace, TraceFileError};

/// One-stop imports for applications and experiments.
pub mod prelude {
    pub use crate::baselines::Baseline;
    pub use crate::gold::gold_accuracy;
    pub use crate::runner::{run_experiment, Experiment, RunResult, TaskContext};
    pub use crate::serving::{
        build_server, replay_event, replay_sequential, ClientTrace, EngagementOutcome, Engagements,
        ServeConfig, ServeReport, ServingTrace,
    };
    pub use crate::trace_file::{load_trace, parse_trace, TraceFileError};
    pub use sti_device::engine::{Component, ComponentId, Engine, EngineReport, System};
    pub use sti_device::{
        ComputeModel, DeviceProfile, DeviceTopology, FlashJob, FlashModel, HwProfile, PowerModel,
        SimTime, TopologyQueueSim, TopologyReport,
    };
    pub use sti_nlp::{Dataset, HashingTokenizer, Task, TaskKind};
    pub use sti_obs::{
        chrome_trace_json, MetricsRegistry, MetricsSnapshot, ObsSink, SpanArgs, SpanEvent,
        TrackFilter, TrackKind,
    };
    pub use sti_pipeline::{
        AdmissionMode, BackpressureMode, ContentionReport, EngagementContention, GateDecision,
        GateReason, Inference, PipelineError, PipelineExecutor, PrefetchContention, PrefetchReport,
        PreloadBuffer, ServingStats, Session, StiEngine, StiServer,
    };
    pub use sti_planner::compute_plan::DYNABERT_WIDTHS;
    pub use sti_planner::{
        layer_io_jobs, plan_compute, plan_for_slo_mix, plan_io, plan_two_stage, profile_importance,
        reallocate_preload_for_mix, replan_with_preload, CoRunnerLoad, EngagementKey,
        EngagementLoad, ExecutionPlan, GateOutcome, ImportanceProfile, IoSharing, LayerIoJob,
        MixSession, PlanCache, PlanCacheStats, PlanKey, PrefetchConfig, PrefetchMode, PrefetchPlan,
        PrefetcherStats, PreloadPolicy, ServingMix, ServingPlan, SloProfile, SubmodelShape,
    };
    pub use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
    pub use sti_storage::{
        BatchStats, CachedSource, FlashDispatchEvent, IoChannel, IoScheduler, LayerRequest,
        LoadedLayer, MemStore, ShardCache, ShardCacheStats, ShardKey, ShardSource, ShardStore,
    };
    pub use sti_transformer::{Model, ModelConfig, ShardId};
}
