//! # STI: Speedy Transformer Inference — workspace facade
//!
//! A from-scratch Rust reproduction of *STI: Turbocharge NLP Inference at
//! the Edge via Elastic Pipelining* (Guo, Choe & Lin, ASPLOS '23), grown
//! from the paper's one-app engine into a concurrent serving runtime.
//!
//! STI reconciles the latency/memory tension of on-device transformer
//! inference with two techniques:
//!
//! 1. **Elastic model sharding** — every layer is split into `M` vertical
//!    slices (one attention head + `1/M` of the FFN), each stored on flash
//!    in `K` quantized fidelity versions; any `n × m` subset at any mix of
//!    fidelities is a runnable submodel.
//! 2. **Elastic pipeline planning** — a two-stage planner picks the
//!    max-FLOPs submodel that computes within the target latency `T`, then
//!    allocates per-shard bitwidths under layerwise *Accumulated IO
//!    Budgets* so IO never stalls the compute pipeline, spending a small
//!    *preload buffer* `|S|` to warm the first layers.
//!
//! ## Two execution facades
//!
//! [`prelude::StiEngine`] is the paper's contract: one app, one engagement
//! at a time, plan once, execute repeatedly, replan only when `T` or `|S|`
//! changes (§3.2).
//!
//! [`prelude::StiServer`] is the serving runtime this repository is growing
//! toward: one server owns the model and every shareable resource — a
//! `PlanCache` keyed by the planning knobs, a byte-budgeted `ShardCache` of
//! compressed blobs, shared read-mostly preload buffers, and an
//! `IoScheduler` that multiplexes layer requests from N concurrent
//! engagements over one flash model (FIFO per engagement, round-robin
//! across engagements, and — under an `IoSharing` window — **shared-IO
//! batching**: co-resident sessions' byte-identical layer loads coalesce
//! into one fan-out flash job, so N identical co-runners pay near-1× flash
//! instead of N×). SLO sessions are admission-checked at open and — with a
//! `BackpressureMode` configured — gated again before every engagement
//! against the open-session registry: queue (delay until the predicted
//! contended latency meets the SLO) or shed (fail fast instead of
//! missing). Apps hold lightweight [`prelude::Session`] handles.
//! Sharing is invisible to results: a single session reproduces the engine
//! bit-for-bit, the event replay reproduces the sequential replay exactly
//! (event ≡ sequential), and `Session::infer` driven from N host threads
//! reproduces it on per-engagement outcomes (host threads ≡ sequential)
//! (`tests/serving_runtime.rs` pins all three down;
//! `tests/serving_batching.rs` pins the batched economics).
//!
//! ## Serving quickstart
//!
//! ```
//! use sti::prelude::*;
//! use sti::TaskContext;
//!
//! // A synthetic "fine-tuned model" + task, and the serving knobs.
//! let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
//! let cfg = ServeConfig { target: SimTime::from_ms(300), ..Default::default() };
//!
//! // One server, many sessions.
//! let server = build_server(&ctx, &cfg);
//! let session = server.session()?;
//! let inference = session.infer(&[1, 2, 3])?;
//! assert!(inference.class < 2);
//!
//! // Or replay a whole multi-client trace on the discrete-event engine
//! // (every client a component on one simulated clock, one OS thread).
//! let trace = ServingTrace::synthetic(&ctx, &cfg, 4, 2);
//! let report = replay_event(&server, &trace)?;
//! assert_eq!(report.outcomes.len(), 4);
//! # Ok::<(), sti::prelude::PipelineError>(())
//! ```
//!
//! ## Device topology and placement-aware planning
//!
//! The simulated flash device is a [`prelude::DeviceTopology`]: `C`
//! independent *device channels* — per-channel FIFO queues with tiered
//! service times (flash, or the opt-in DRAM-residency tier for
//! cache-resident bytes). Every contended-track consumer runs on the
//! same model (one single-server FIFO queue per channel, which
//! [`prelude::TopologyQueueSim`] simulates): the post-replay contention
//! report, `ServingMix::predict`/`min_delay`
//! (admission and the gate queue the open sessions' lanes on their device
//! channels, folded in closed form with or without batching), and the SLO
//! search. Placement is a *stripe*: each session's request signatures are
//! hashed with its stripe to a channel (`DeviceTopology::channel_for`),
//! and byte-identical requests from two sessions coalesce into one batched
//! flash job only when placed on the **same** device channel
//! (`IoSharing::coalesces`, the one rule the scheduler and the predictor
//! share). A plain session takes the stripe that serves its own streamed
//! reads best (`IoSharing::plain_stripes`, found once per plan: under
//! batching the least solo IO makespan among the `C` stripes where
//! identical reads meet, under exclusive IO the least solo latency among
//! 256 salts), its round-robin stripe by session token among the ties;
//! SLO sessions get
//! a placement axis in `plan_for_slo_mix` —
//! which channels a candidate's layers stripe across is searched
//! alongside `(T, |S|)`, prefix sharing, and realloc — so an admission
//! that fails on one channel can succeed by striping across four
//! (`tests/serving_device.rs` pins exactly that, plus per-channel
//! busy-time conservation and FIFO). `C = 1` (the default) has no
//! placement freedom; `sti serve --channels N` sets the topology
//! everywhere, and per-device-channel span tracks and
//! `io.channel.<c>.*` metrics make each channel's busy time, queued
//! bytes, and batch fan-out observable.
//!
//! ## Markov next-engagement prefetching
//!
//! Recurrent clients telegraph their future: the same `(target, |S|, SLO,
//! stripe)` engagement keeps coming back after a think-time gap. With
//! `sti serve --prefetch markov` (off by default) the server learns that
//! recurrence online — each completion feeds a per-client chain of
//! interned [`prelude::EngagementKey`]s whose pairwise `MarkovEdge`s count
//! follows and breaks, behind a TTL'd rejection cache — and emits a
//! budgeted `PrefetchPlan` (`--prefetch-budget-kb`, confidence floor)
//! naming the predicted next working set. The executor stages those shards into a bounded
//! **staging pool** beside the `ShardCache` as *background-class* flash
//! jobs: `IoScheduler` dispatches them only when no demand IO is
//! runnable, and the contended track prices them into the **idle
//! windows** the demand replay left on each device channel — real
//! channel time and real flash bytes, but demand completions are inputs
//! to that pricing, so speculation cannot move a demand latency by
//! construction. A later demand miss takes the staged blob out of the
//! pool (with `dram_residency` on, at DRAM speed on the contended
//! track); a wrong prediction costs only the wasted bytes and silences
//! its edge. The fence is pinned by `tests/serving_prefetch.rs`:
//! outcomes, contended rows, whole gate decisions, and SLO verdicts are
//! bit-identical to the prefetch-off run (the gate takes the open-session
//! registry and nothing else, so no scheduler state — speculative or
//! demand — can reach a decision), and the serve report + `prefetch.*`
//! metrics/span track show the hit rate, speculated bytes, and evictions.
//!
//! ## Serving a fleet
//!
//! The serving runtime scales past "dozens of sessions" by making every
//! per-decision cost independent of fleet size: the server keeps one
//! **live `ServingMix`** — one token-keyed ordered map behind one lock —
//! updated in place on open/close/retarget (never rebuilt per decision),
//! the mix's digest is a **rolling per-session fold** updated O(1) by
//! those mutators, session job lists are `Arc`-shared, and one full gate
//! walk per registry change prices *every* open SLO session — each
//! session's steady-state gate decision is a digest probe plus one lookup
//! in the walk memo. Two pins hold this without a wall clock:
//! `tests/memory_sharing.rs` counts 0 heap bytes across 1 000 steady-state
//! decisions over 2 000 open sessions, and `tests/serving_fleet.rs` opens
//! 100 000 sessions on one and on four device channels, gates them,
//! replays a trace against them and drains them in random order (it also
//! pins the rolling digest equal to a from-scratch rehash). The
//! benchmark's `fleet_admit` workload times open, admission, the cold and
//! steady gate and the digest per layer. `BENCH_serving.json` is the
//! frozen record of the retired `serve --fleet` sweep.
//!
//! ## Deterministic observability (`sti-obs`)
//!
//! Everything the runtime reports about itself is clocked on *simulated*
//! time, so observability is a pure function of the replay — and never
//! perturbs it:
//!
//! - **Spans.** Every engagement, flash job, and gate decision becomes a
//!   [`prelude::SpanEvent`] on a `(track, name, tick)` virtual timeline,
//!   assembled canonically from the server's logs after the replay
//!   (`StiServer::trace_spans`; a replay's report carries the stream only
//!   when a live sink is installed).
//!   Scheduler channel ids are remapped to stable
//!   `(session, engagement)` ids, so the deterministic tracks
//!   (session/channel/flash — [`prelude::TrackFilter::Deterministic`])
//!   export **byte-identically** across runs. Engine ticks and host-side dispatch
//!   ride separate non-deterministic "color" tracks that the filter
//!   excludes. Span names are dotted lowercase (`gate.delay`,
//!   `flash.service`, `io.dispatch`, `engine.tick`).
//! - **Metrics.** `IoScheduler` and `StiServer` counters are named
//!   instruments in a [`prelude::MetricsRegistry`] (atomic counters,
//!   peak-tracking gauges, fixed log₂-bucket histograms — no allocation
//!   on the hot path); instrument prefixes (`io.*`, `serving.*`,
//!   `gate.*`, `engine.*`) are disjoint so snapshots merge losslessly.
//! - **Exporters.** `sti serve --trace-out spans.json` writes
//!   Chrome-trace/Perfetto JSON (open in `ui.perfetto.dev`);
//!   `--trace-tracks all` adds the color tracks; `--metrics-out` writes
//!   the metrics snapshot as sorted JSON with histogram percentiles.
//!
//! When no sink is installed the span hot path is a branch on
//! [`prelude::ObsSink::Null`]. `tests/memory_sharing.rs` pins that a
//! null-sink span, a counter add, a gauge set and a histogram record
//! request no heap block (`the_instrument_hot_paths_request_no_heap_block`),
//! and `tests/serving_obs.rs` pins run-twice export determinism plus the
//! never-perturbs contract.
//!
//! ## The compute path of one shard
//!
//! Compute on the few shards a plan selects must never be the bottleneck,
//! and every logit, label and golden is pinned to its rounding, so the path
//! from a `QuantizedBlob` to a shard's contribution to the hidden state is
//! fast *and* frozen bit for bit. `QuantizedBlob::dequantize_range_into`
//! shifts packed indexes out of a 64-bit window straight into centroids;
//! the executor's working buffer has it decode each half of a shard — the
//! attention half when attention reaches the slice, the FFN half when the
//! FFN does — into the one shard slot the kernels read, reused across the
//! engagement (`ShardWeights` keeps Q, K and V packed as one `d × 3·d/M`
//! operand, so a slice's three projections are one multiply; the layer
//! reads its shards through the `ShardOperand` trait, so decoded shards and
//! this coded operand run the same layer code); and
//! `sti_tensor::ops::matmul_into` is register-tiled
//! (4×8 and 4×4 accumulator tiles held in locals across the `k` loop) while
//! each output element still accumulates in ascending `k`, one rounded
//! multiply and one rounded add per term, zero terms skipped. GELU's `tanh`
//! and the softmax's `exp` are in-tree, made of IEEE-exact operations (their
//! bits are the code's, not the host libm's, and their loops vectorise), and
//! the last executed layer computes only the CLS row the classifier reads
//! (`layer::layer_forward_cls`). The kernel
//! and layer compositions these replaced survive as test oracles
//! (`ops::tests`, `sti-transformer`'s `oracle` module,
//! `tests/quant_invariants.rs`), compared by `to_bits` in debug and release
//! builds. No `unsafe`, no target features, no switch.
//!
//! The *byte* path of the same shard is file → `pread` → verify → decode →
//! handles. A `TaskContext` writes its quantised model once, as a
//! `ShardStore` of layer-grouped record files under the temp dir, and holds
//! no copy of it: `ShardSource::load` is one positional read on the layer
//! file's cached handle, the record's word-folded checksum over every byte
//! read, and one decode into a `QuantizedBlob` — the only writer that
//! payload ever has. The store indexes that payload weakly, so while any
//! holder has it, every load of the shard, from any server, engine or
//! executor on the store, returns it instead of decoding a second copy.
//! From there it is shared and immutable: a `ShardCache`
//! admit or hit, the prefetch staging pool and its demand promote, a
//! `PreloadBuffer` fill and the `LoadedLayer` the scheduler fans out to a
//! batch all hand on a reference-counted handle to that payload, and the
//! first new bytes are the FP32 segments the working buffer decodes into
//! its one shard slot. So there is no copy outside the cache: a payload no
//! holder keeps is freed, and the next load reads it from flash again,
//! which is the cost the paper's IO thread pays. Budgets, evictions and hit
//! rates are counted per holder from `byte_size()` — also what
//! `ShardSource::size_bytes` reports for every source, so no simulated
//! number knows where the bytes came from or that they are shared. `Model`
//! follows the same ownership rule: its `clone()` is a handle to its
//! residents and to the source of its FP32 shard weights. A synthesised
//! model's source is its shards' seeds, from which each read regenerates
//! the shard, and a `TaskContext` writes its store from those seeds before
//! anything else reads them, then points the teacher at the store's
//! full-fidelity records. No process builds the FP32 grid. So however many
//! engines and servers a process builds over one context it holds the
//! residents once, the FP32 teacher not at all (every teacher read copies
//! one shard from the store into the reader's memory, and the teacher's
//! own pass holds one layer), and the quantised model not at all
//! (`tests/memory_sharing.rs` pins both with an allocation counter). There
//! is one source of quantised shards, the on-disk `ShardStore`: a context
//! and every test that needs some store write a temporary one
//! (`ShardStore::create_temp`), which removes its directory when its last
//! handle drops.
//!
//! The single-app engine path (`StiEngine::builder(..)`) works exactly as
//! in the seed; see `crates/pipeline` for both facades, and the
//! [`prelude`] for one-stop imports. The `baselines` module implements the
//! comparison systems of the paper's Table 4; `runner` evaluates any of
//! them on any task/device/latency; `serving` replays multi-client traces
//! — the machinery behind every experiment binary in `sti-bench` and the
//! `sti serve` CLI subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use sti_core::*;
