//! # sti-device
//!
//! The hardware-capability substrate of the reproduction. The paper runs on
//! two commodity SoCs (Odroid-N2+ CPU and Jetson Nano GPU, Table 2); offline
//! we model them as *delay functions* over simulated time:
//!
//! - [`FlashModel`] — storage IO delay as bandwidth + per-request latency,
//!   calibrated so a full-fidelity layer load takes ≈339 ms (Odroid), the
//!   skew the paper measures in §2.2;
//! - [`ComputeModel`] — per-layer computation delay as a function of width
//!   `m`, sequence length, and DVFS level, including the GPU's
//!   non-proportionality (§7.3: a 12-shard layer is only ~0.7% slower than a
//!   3-shard layer on Jetson);
//! - [`profiler`] — the installation-time measurement pass of paper §5.2,
//!   producing the `T_io(k)` / `T_comp(l, m, freq)` tables the planner
//!   consumes.
//!
//! ## Dual-track time accounting
//!
//! Simulated time is kept on two tracks:
//!
//! - the **uncontended track** charges every engagement the delay model of
//!   its own requests in isolation — deterministic, bit-identical whether an
//!   engagement runs alone or next to seven neighbours (the serving
//!   runtime's determinism contract);
//! - the **contended track** ([`flash_queue`]) is a discrete-event queue
//!   over the device's flash channels: dispatch sequences from the IO
//!   scheduler are served FIFO-by-arrival per channel, yielding the
//!   per-engagement completion times a serving-SLO planner and admission
//!   controller reason about. [`DeviceTopology`] names the shape (`C`
//!   independent channels) and [`TopologyQueueSim`] serves one
//!   single-server queue per channel under one submission clock — the
//!   single-server fold exists once, and a job's submission index is its
//!   sequence number.
//!   [`FlashModel::dram_residency`] supplies the opt-in cheaper service time
//!   for bytes resident in a host-side shard cache — a service-time tier,
//!   not a separate queue.
//!
//! Terminology: a **device channel** is a hardware lane of the flash
//! package (this crate); an **engagement IO lane** (`IoChannel` in
//! `sti-storage`) is one engagement's request stream into the scheduler. Placement maps lane traffic onto device channels
//! via [`DeviceTopology::channel_for`].
//!
//! The planner and pipeline interact with hardware *only* through the
//! profiled [`profiler::HwProfile`], exactly as in the paper — so swapping
//! the simulation for real measurements is a local change. The profile
//! carries the device's [`FlashModel`] itself, and [`IoSharing`] (beside
//! [`content_sig`]) is the one statement of which reads share a flash job:
//! the planner's predictions and the IO scheduler's charges read the same
//! two values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod clock;
pub mod compute;
pub mod energy;
pub mod engine;
pub mod flash;
pub mod flash_queue;
pub mod profile;
pub mod profiler;
pub mod topology;

pub use clock::SimTime;
pub use compute::ComputeModel;
pub use energy::PowerModel;
pub use engine::{Component, ComponentId, Engine, EngineReport, System};
pub use flash::FlashModel;
pub use flash_queue::{
    contended_makespan, serve_channel, ChannelService, CompletedJob, FlashJob, FlashQueueReport,
    TopologyQueueSim, TopologyReport,
};
pub use profile::DeviceProfile;
pub use profiler::HwProfile;
pub use topology::{
    content_sig, mix64, BalancedStripes, DeviceTopology, IoSharing, LaneRead, PickLanes, Picked,
};
