//! # sti-pipeline
//!
//! STI's execution runtime (paper §3, §5.5): a layerwise IO/compute
//! pipeline that loads each layer's selected shard versions as one IO job,
//! decompresses them shard by shard into a reusable working buffer, and
//! computes the layer while the next layer's IO is in flight. A small *preload buffer* of
//! bottom-layer shards warms the pipeline so early layers do not stall.
//!
//! Two entry points sit on top of the executor:
//!
//! - [`engine::StiEngine`] — the paper's single-app facade: one engagement
//!   at a time, plan once, execute repeatedly, replan on target/budget
//!   changes (§3.2), and keep a preload buffer sized by its preload budget
//!   between back-to-back executions (§3.3) — it holds no shard cache;
//! - [`server::StiServer`] — the serving runtime: one server owns the
//!   model, a shared plan cache, a shared compressed-shard cache, and the
//!   IO scheduler; lightweight [`server::Session`] handles submit
//!   concurrent engagements against it. Single-session results are
//!   bit-identical to the engine's; N concurrent sessions reproduce N
//!   sequential runs exactly (shared caches buy host throughput, not
//!   simulated-time shortcuts).
//!
//! Both are built from a model, a shard source, an importance profile and
//! one `HwProfile`. The profile carries the device's flash model, so the
//! planner's IO budgets, the IO schedulers' charges and the contended
//! replay all price a read with the same function.
//!
//! Layer by layer:
//!
//! - [`buffers`] — the preload buffer (one plan's compressed shards,
//!   built once from the plan and never edited) and the working buffer (one
//!   shard slot of decompressed weights, refilled half a shard at a time as
//!   the layer reaches it, reused across layers);
//! - [`executor`] — the pipeline executor: real storage reads and real
//!   forward passes on the calling thread, with the simulated-time timeline
//!   accounted per layer; [`executor::PipelineExecutor::issue_on`] and
//!   [`executor::PipelineExecutor::complete_on`] borrow an IO lane from a
//!   shared scheduler instead of constructing per-run IO state, and stream
//!   what the plan decides (`sti_planner::PlannedLayer::streamed`);
//! - [`engine`] — the single-app facade over the executor;
//! - [`config`] — [`ServeConfig`], the one serving configuration: every
//!   knob a server is built with and its one set of defaults;
//! - [`server`] — the serving facade: constructor, orchestration and session
//!   handles — including the open-session registry, one
//!   `RwLock<Arc<ServingMix>>` that is the one input of every contended
//!   prediction — with every serving *decision* in a module of its own
//!   beside it (single-purpose services, a thin orchestrator):
//!   - `admission` — the SLO admission verdict and its counters;
//!   - `sti_planner::gate` — the infer-time backpressure gate and its walk
//!     memo, beside the mix it prices (the server counts and acts on its
//!     decisions);
//!   - `ledger` — the contended-track ledger: engagement and gate logs and
//!     the one replay behind the contention report and the span export;
//!   - `prefetch` — the Markov prefetch driver (model, working-set table,
//!     speculative-job assembly);
//! - [`trace`] — ASCII rendering of pipeline timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
pub mod buffers;
pub mod config;
pub mod engine;
pub mod error;
pub mod executor;
mod ledger;
mod prefetch;
pub mod server;
pub mod trace;

pub use buffers::{PreloadBuffer, WorkingBuffer};
pub use config::ServeConfig;
pub use engine::{StiEngine, StiEngineBuilder};
pub use error::PipelineError;
pub use executor::{ExecutionOutcome, GenerationOutcome, Inference, PipelineExecutor};
pub use server::{
    AdmissionMode, BackpressureMode, ContentionReport, EngagementContention, GateDecision,
    GateReason, PendingEngagement, PrefetchContention, PrefetchReport, ServingStats, Session,
    StiServer,
};
