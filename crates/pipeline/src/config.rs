//! The one serving configuration: every knob a
//! [`StiServer`](crate::server::StiServer) is built with, and its one set
//! of defaults.

use sti_device::{DeviceProfile, SimTime};
use sti_planner::gate::BackpressureMode;
use sti_planner::mix::PreloadPolicy;
use sti_planner::prefetch::PrefetchConfig;
use sti_quant::Bitwidth;

use crate::admission::AdmissionMode;

/// Server-level knobs for a serving run.
///
/// [`StiServer::new`](crate::server::StiServer::new) reads every field
/// except `device`, `slo` and `io_workers`, which configure the code
/// around a server: `sti_core::build_server` measures the
/// [`HwProfile`](sti_device::HwProfile) the server prices reads with from
/// `device`, `sti_core::ServingTrace::synthetic` gives its clients `slo`,
/// and nothing reads `io_workers`. The pipeline sees the hardware only
/// through the `HwProfile` it is handed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The device model to serve on.
    pub device: DeviceProfile,
    /// Default target latency `T` for sessions opened without knobs
    /// (default 200 ms).
    pub target: SimTime,
    /// Default preload budget `|S|` per knob set, in bytes (default
    /// 16 KiB).
    pub preload_bytes: u64,
    /// Read by nothing: the IO scheduler has no worker threads, its callers
    /// drive the IO. Kept only because existing configuration literals
    /// still set it.
    pub io_workers: usize,
    /// Byte budget of the shared compressed-shard cache (default 4 MiB;
    /// zero disables cross-engagement blob reuse).
    pub shard_cache_bytes: u64,
    /// Default SLO for synthetic clients (`None`: plain target sessions).
    pub slo: Option<SimTime>,
    /// Admission policy for SLO sessions (default
    /// [`AdmissionMode::Disabled`]).
    pub admission: AdmissionMode,
    /// Opt-in DRAM-residency mode of the contended track: bytes resident in
    /// the shared shard cache are charged at DRAM service time
    /// ([`sti_device::FlashModel::dram_residency`]) when the dispatch
    /// sequence is replayed. Off by default (cache hits still pay flash
    /// time, the conservative accounting).
    pub dram_residency: bool,
    /// Shared-IO batching window (`None`, the default: batching off).
    /// Sessions requesting byte-identical layers within the window share
    /// one flash job — N identical co-runners pay near-1× flash instead of
    /// N×. The IO scheduler batches and every contended prediction
    /// (admission, the gate) prices under this one value, so windows of
    /// co-arriving sessions admit where an unbatched prediction would
    /// reject. Per-engagement *results* are unaffected (the determinism
    /// contract holds either way).
    pub batch_window: Option<SimTime>,
    /// Infer-time backpressure for SLO sessions (default
    /// [`BackpressureMode::Off`]): before each engagement, the server
    /// re-runs the contended prediction against the open-session registry
    /// and either delays the engagement until the prediction meets its SLO
    /// (`Queue`) or fails fast with
    /// [`PipelineError::Backpressure`](crate::PipelineError::Backpressure)
    /// (`Shed`). Admission decides at session open; this gate reacts to
    /// bursts mid-session. Shed engagements produce no outcome and are
    /// counted in the contention report's gate log.
    pub backpressure: BackpressureMode,
    /// `|S|` placement policy for SLO searches (default
    /// [`PreloadPolicy::PerSession`]). Under [`PreloadPolicy::SharingAware`],
    /// the search ranks preload placements by marginal contended latency
    /// under the live mix: a layer an in-window co-resident already streams
    /// is never preloaded while an un-shared layer wants the budget, and a
    /// zero-`|S|` allocation that rides the co-residents' batches wholesale
    /// can win outright. Only meaningful with a batching window configured.
    pub plan_sharing: PreloadPolicy,
    /// Flash channels the simulated device exposes (default one: the
    /// legacy device; zero builds the same single-channel device). With
    /// `C > 1`, the IO scheduler stripes each session's shard placement
    /// across device channels, the contended track replays per-channel FIFO
    /// queues, batching coalesces only same-channel byte-identical
    /// requests, and the SLO search ranks *which* channels a candidate
    /// stripes across alongside its `(T, |S|)` placements. `C = 1`
    /// reproduces the single-channel server bit-identically.
    pub channels: u16,
    /// Markov next-engagement prefetching (default
    /// [`PrefetchMode::Off`](sti_planner::prefetch::PrefetchMode::Off)): at
    /// each engagement completion the server observes the session's
    /// `(model, knob-set)` key in a per-client Markov chain, and when an
    /// edge clears the confidence floor it emits a budgeted `PrefetchPlan`
    /// — speculative background flash jobs that warm the predicted next
    /// engagement's streamed working set into the shard cache's staging
    /// pool during idle device-channel windows. Speculation is priced
    /// honestly on the contended track and strictly fenced off the demand
    /// path: demand dispatches always preempt it, gate decisions never read
    /// it, and per-engagement outcomes, gate decisions and SLO verdicts are
    /// bit-identical to the prefetch-off run.
    pub prefetch: PrefetchConfig,
    /// Allowed submodel widths (`None`, the default: DynaBERT's widths for
    /// the model's head count).
    pub widths: Option<Vec<usize>>,
    /// Fidelity versions available in the store (default: all).
    pub bitwidths: Vec<Bitwidth>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            device: DeviceProfile::odroid_n2(),
            target: SimTime::from_ms(200),
            preload_bytes: 16 << 10,
            io_workers: 2,
            shard_cache_bytes: 4 << 20,
            slo: None,
            admission: AdmissionMode::Disabled,
            dram_residency: false,
            batch_window: None,
            backpressure: BackpressureMode::Off,
            plan_sharing: PreloadPolicy::PerSession,
            channels: 1,
            prefetch: PrefetchConfig::default(),
            widths: None,
            bitwidths: Bitwidth::ALL.to_vec(),
        }
    }
}
