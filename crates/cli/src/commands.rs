//! Subcommand implementations.

use std::sync::Arc;

use sti::prelude::*;

use crate::args::{ArgError, Args};

/// Usage text.
pub(crate) fn usage() -> String {
    "usage: sti <command> [--flag value ...]\n\
     \n\
     commands:\n\
     \x20 preprocess  --task <sst2|rte|qnli|qqp> --out <dir>         shard + quantize to disk\n\
     \x20 profile     [--device <odroid|jetson|accelerated>]         print capability tables\n\
     \x20 importance  --task <...>                                   print the Fig-5 heatmap\n\
     \x20 plan        --task <...> [--device d] [--target-ms 200]\n\
     \x20             [--preload-kb 16]                              print the execution plan\n\
     \x20 infer       --task <...> --text \"...\" [--store <dir>]\n\
     \x20             [--device d] [--target-ms 200] [--preload-kb 16]\n\
     \x20 generate    --task <...> --text \"...\" [--steps 5] [...]    decoder extension\n\
     \x20 serve       --task <...> [--sessions 8] [--engagements 4]\n\
     \x20             [--trace file.json] [--slo-ms 0] [--admission off|monitor|enforce]\n\
     \x20             [--dram-hits 0|1] [--model bert|tiny]\n\
     \x20             [--batch-window 0]   µs window for shared-IO batching: co-resident\n\
     \x20                                  sessions arriving within it share one flash job\n\
     \x20                                  per identical layer read (0 = off)\n\
     \x20             [--backpressure off|queue|shed]  infer-time gate for SLO engagements:\n\
     \x20                                  queue = delay an engagement (simulated time) until\n\
     \x20                                  the open-session prediction meets its SLO,\n\
     \x20                                  shed = fail fast instead of missing\n\
     \x20             [--max-queue-ms 100] queue-mode patience: shed when even this delay\n\
     \x20                                  cannot save the engagement\n\
     \x20             [--plan-sharing off|mix]  |S| placement for SLO searches: mix ranks\n\
     \x20                                  preload candidates by marginal contended value\n\
     \x20                                  under the live mix (a layer an in-window\n\
     \x20                                  co-resident streams is never preloaded while an\n\
     \x20                                  un-shared layer wants the budget)\n\
     \x20             [--device d] [--target-ms 200] [--preload-kb 16]\n\
     \x20             [--shard-cache-kb 4096]          replay a multi-client trace\n\
     \x20             [--channels 1]       device channels on the simulated flash: C per-\n\
     \x20                                  channel FIFO lanes striped across by placement\n\
     \x20                                  (1 = the legacy single-channel device, bit-\n\
     \x20                                  identical to before the knob existed)\n\
     \x20             [--prefetch off|markov]  next-engagement speculation: markov learns\n\
     \x20                                  per-client engagement transitions and pre-warms\n\
     \x20                                  the shard cache's staging pool with background-\n\
     \x20                                  class flash jobs during idle windows; demand\n\
     \x20                                  always preempts speculation, and outcomes, gate\n\
     \x20                                  decisions, and SLO verdicts are bit-identical\n\
     \x20                                  to --prefetch off\n\
     \x20             [--prefetch-budget-kb 64]  staging-pool byte budget for speculation\n\
     \x20             [--trace-out spans.json]  write the replay's virtual-clock span\n\
     \x20                                  stream as Chrome-trace JSON (open in Perfetto or\n\
     \x20                                  about:tracing); clocked on *simulated* time, so\n\
     \x20                                  the file is byte-identical across runs\n\
     \x20             [--trace-tracks sim|all]  sim = deterministic session/flash tracks\n\
     \x20                                  only; all = add host/engine color tracks\n\
     \x20             [--metrics-out metrics.json]  write the merged instrument snapshot\n\
     \x20                                  (serving.*/gate.*/io.* counters, gauges, and\n\
     \x20                                  histogram percentiles)\n\
     \n\
     Replays run on the deterministic discrete-event engine (one OS thread, N\n\
     clients) and are checked against a sequential replay of the same trace. A flag\n\
     the command does not read is an error, never silently ignored.\n"
        .to_string()
}

fn task_kind(name: &str) -> Result<TaskKind, ArgError> {
    match name.to_lowercase().as_str() {
        "sst2" | "sst-2" => Ok(TaskKind::Sst2),
        "rte" => Ok(TaskKind::Rte),
        "qnli" => Ok(TaskKind::Qnli),
        "qqp" => Ok(TaskKind::Qqp),
        other => Err(ArgError(format!("unknown task '{other}' (sst2|rte|qnli|qqp)"))),
    }
}

fn device(name: &str) -> Result<DeviceProfile, ArgError> {
    match name.to_lowercase().as_str() {
        "odroid" | "odroid-n2+" => Ok(DeviceProfile::odroid_n2()),
        "jetson" | "jetson-nano" => Ok(DeviceProfile::jetson_nano()),
        "accelerated" => Ok(DeviceProfile::accelerated()),
        other => Err(ArgError(format!("unknown device '{other}' (odroid|jetson|accelerated)"))),
    }
}

fn build_context(args: &Args) -> Result<TaskContext, ArgError> {
    Ok(TaskContext::new(task_kind(args.require("task")?)?))
}

/// Largest `--*-ms` value: `ms → µs` must not overflow the timeline.
const MAX_FLAG_MS: u64 = u64::MAX / 1_000;
/// Largest `--*-kb` value: `kb << 10` must not drop high bits.
const MAX_FLAG_KB: u64 = u64::MAX >> 10;

/// A millisecond flag as simulated time (`default` when absent).
fn ms_flag(args: &Args, flag: &str, default: u64) -> Result<SimTime, ArgError> {
    let ms = args.get_u64(flag, default)?;
    if ms > MAX_FLAG_MS {
        return Err(ArgError(format!(
            "--{flag} {ms} overflows the simulated timeline (max {MAX_FLAG_MS})"
        )));
    }
    Ok(SimTime::from_ms(ms))
}

/// A KiB flag in bytes (`default` KiB when absent).
fn kb_flag(args: &Args, flag: &str, default: u64) -> Result<u64, ArgError> {
    let kb = args.get_u64(flag, default)?;
    if kb > MAX_FLAG_KB {
        return Err(ArgError(format!("--{flag} {kb} overflows a byte count (max {MAX_FLAG_KB})")));
    }
    Ok(kb << 10)
}

/// The knobs `plan`, `infer` and `generate` build their engine with, parsed
/// before the task context is built.
struct EngineFlags {
    device: DeviceProfile,
    target: SimTime,
    preload_bytes: u64,
}

impl EngineFlags {
    fn parse(args: &Args) -> Result<Self, ArgError> {
        Ok(Self {
            device: device(args.get_or("device", "odroid"))?,
            target: ms_flag(args, "target-ms", 200)?,
            preload_bytes: kb_flag(args, "preload-kb", 16)?,
        })
    }
}

/// The engine `plan`, `infer` and `generate` run: it streams from the
/// `--store` directory when one is named, and otherwise from the context's
/// own on-disk store.
fn build_engine(
    args: &Args,
    ctx: &TaskContext,
    flags: &EngineFlags,
) -> Result<StiEngine, ArgError> {
    let model = ctx.task().model();
    let hw = HwProfile::measure(&flags.device, model.config(), ctx.quant());
    let source = match args.get("store") {
        Some(dir) => {
            Arc::new(ShardStore::open(dir).map_err(|e| ArgError(format!("open store: {e}")))?)
        }
        None => ctx.shard_source(),
    };
    eprintln!("profiling shard importance (one-time per model)...");
    StiEngine::builder(model.clone(), source, hw, ctx.importance().clone())
        .target(flags.target)
        .preload_budget(flags.preload_bytes)
        .build()
        .map_err(|e| ArgError(format!("engine build: {e}")))
}

fn cmd_preprocess(args: &Args) -> Result<String, ArgError> {
    let ctx = build_context(args)?;
    let task = ctx.task();
    let out = args.require("out")?;
    let store = ShardStore::create(out, task.model(), &Bitwidth::ALL, &QuantConfig::default())
        .map_err(|e| ArgError(format!("create store: {e}")))?;
    let mut report =
        format!("preprocessed {} into {}\n", task.kind().name(), store.dir().display());
    for (bw, bytes) in store.stored_bytes_by_bitwidth() {
        report.push_str(&format!("  {bw:<5} {bytes} bytes\n"));
    }
    report.push_str(&format!("  total {} bytes\n", store.total_bytes()));
    Ok(report)
}

fn cmd_profile(args: &Args) -> Result<String, ArgError> {
    let dev = device(args.get_or("device", "odroid"))?;
    let cfg = ModelConfig::scaled_bert();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let mut report = format!(
        "device {} — flash {} B/s (+{} per request)\n\nT_io per shard:\n",
        hw.device_name, hw.flash.bandwidth_bytes_per_sec, hw.flash.request_latency
    );
    for bw in Bitwidth::ALL {
        report.push_str(&format!(
            "  {bw:<5} {:>8} ({} bytes)\n",
            hw.t_io_shard(bw).to_string(),
            hw.shard_bytes(bw)
        ));
    }
    report.push_str("\nT_comp per layer (incl. decompression):\n");
    for m in [3usize, 6, 9, 12] {
        report.push_str(&format!("  m={m:<2} {}\n", hw.t_comp(m)));
    }
    Ok(report)
}

fn cmd_importance(args: &Args) -> Result<String, ArgError> {
    let ctx = build_context(args)?;
    eprintln!("profiling (N*M probes on the dev set)...");
    Ok(format!(
        "{} shard importance (9 = most important):\n{}",
        ctx.task().kind().name(),
        ctx.importance().heatmap_string()
    ))
}

fn cmd_plan(args: &Args) -> Result<String, ArgError> {
    let flags = EngineFlags::parse(args)?;
    let ctx = build_context(args)?;
    let engine = build_engine(args, &ctx, &flags)?;
    let plan = engine.plan();
    Ok(format!(
        "plan for {} @ T={} |S|={}B:\n  submodel {} ({} shards), predicted makespan {}, \
         preload {} shards\n  bitwidth grid ('*' = preloaded):\n{}",
        ctx.task().kind().name(),
        plan.target,
        plan.preload_budget_bytes,
        plan.shape,
        plan.shape.shard_count(),
        plan.predicted.makespan,
        plan.preload.len(),
        plan.grid_string()
    ))
}

fn cmd_infer(args: &Args) -> Result<String, ArgError> {
    let text = args.require("text")?.to_string();
    let flags = EngineFlags::parse(args)?;
    let ctx = build_context(args)?;
    let engine = build_engine(args, &ctx, &flags)?;
    let tokens = HashingTokenizer::new(ctx.task().model().config().vocab).tokenize(&text);
    let inf = engine.infer(&tokens).map_err(|e| ArgError(format!("inference: {e}")))?;
    Ok(format!(
        "\"{text}\" -> class {} (p = {:.3})\n  submodel {}, streamed {} bytes, makespan {}\n",
        inf.class,
        inf.probabilities[inf.class],
        inf.submodel,
        inf.outcome.loaded_bytes,
        inf.outcome.timeline.makespan
    ))
}

fn cmd_generate(args: &Args) -> Result<String, ArgError> {
    let text = args.require("text")?.to_string();
    let steps = checked_usize("steps", args.get_u64("steps", 5)?)?;
    let flags = EngineFlags::parse(args)?;
    let ctx = build_context(args)?;
    let engine = build_engine(args, &ctx, &flags)?;
    let tokens = HashingTokenizer::new(ctx.task().model().config().vocab).tokenize(&text);
    let g = engine.generate(&tokens, steps).map_err(|e| ArgError(format!("generate: {e}")))?;
    Ok(format!(
        "\"{text}\" -> {} generated token ids: {:?}\n  first step {}, each further step {}\n",
        g.generated,
        &g.tokens[tokens.len().min(g.tokens.len())..],
        g.first_step,
        g.per_step
    ))
}

fn admission_mode(name: &str) -> Result<AdmissionMode, ArgError> {
    match name.to_lowercase().as_str() {
        "off" | "disabled" => Ok(AdmissionMode::Disabled),
        "monitor" => Ok(AdmissionMode::Monitor),
        "enforce" => Ok(AdmissionMode::Enforce),
        other => Err(ArgError(format!("unknown admission mode '{other}' (off|monitor|enforce)"))),
    }
}

fn backpressure_mode(name: &str, max_queue: SimTime) -> Result<BackpressureMode, ArgError> {
    match name.to_lowercase().as_str() {
        "off" => Ok(BackpressureMode::Off),
        "queue" => Ok(BackpressureMode::Queue(max_queue)),
        "shed" => Ok(BackpressureMode::Shed),
        other => Err(ArgError(format!("unknown backpressure mode '{other}' (off|queue|shed)"))),
    }
}

fn plan_sharing_mode(name: &str) -> Result<PreloadPolicy, ArgError> {
    match name.to_lowercase().as_str() {
        "off" | "per-session" => Ok(PreloadPolicy::PerSession),
        "mix" => Ok(PreloadPolicy::SharingAware),
        other => Err(ArgError(format!("unknown plan-sharing mode '{other}' (off|mix)"))),
    }
}

/// Bounds-checks a count flag's `u64 → usize` cast. A no-op on 64-bit
/// hosts; on a 32-bit target a 5-billion-session `--sessions` would
/// otherwise truncate silently instead of erroring.
fn checked_usize(flag: &str, value: u64) -> Result<usize, ArgError> {
    usize::try_from(value).map_err(|_| {
        ArgError(format!(
            "--{flag} {value} overflows this host's address width (max {})",
            usize::MAX
        ))
    })
}

fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    let kind = task_kind(args.require("task")?)?;
    let slo = ms_flag(args, "slo-ms", 0)?;
    let batch_window_us = args.get_u64("batch-window", 0)?;
    let backpressure =
        backpressure_mode(args.get_or("backpressure", "off"), ms_flag(args, "max-queue-ms", 100)?)?;
    let plan_sharing = plan_sharing_mode(args.get_or("plan-sharing", "off"))?;
    let prefetch_name = args.get_or("prefetch", "off").to_lowercase();
    let prefetch_mode = PrefetchMode::parse(&prefetch_name)
        .ok_or_else(|| ArgError(format!("unknown prefetch mode '{prefetch_name}' (off|markov)")))?;
    let prefetch_budget = kb_flag(args, "prefetch-budget-kb", 64)?;
    let prefetch = match prefetch_mode {
        PrefetchMode::Off => PrefetchConfig::default(),
        PrefetchMode::Markov => PrefetchConfig::markov(prefetch_budget),
    };
    let channels_raw = args.get_u64("channels", 1)?.max(1);
    let channels = u16::try_from(channels_raw)
        .map_err(|_| ArgError(format!("--channels {channels_raw} exceeds {}", u16::MAX)))?;
    let cfg = ServeConfig {
        device: device(args.get_or("device", "odroid"))?,
        target: ms_flag(args, "target-ms", 200)?,
        preload_bytes: kb_flag(args, "preload-kb", 16)?,
        shard_cache_bytes: kb_flag(args, "shard-cache-kb", 4096)?,
        slo: (slo > SimTime::ZERO).then_some(slo),
        admission: admission_mode(args.get_or("admission", "off"))?,
        dram_residency: args.get_u64("dram-hits", 0)? != 0,
        batch_window: (batch_window_us > 0).then(|| SimTime::from_us(batch_window_us)),
        backpressure,
        plan_sharing,
        channels,
        prefetch,
        ..ServeConfig::default()
    };
    let model_cfg = match args.get_or("model", "bert") {
        "tiny" => ModelConfig::tiny(), // CI smoke scale
        "bert" => ModelConfig::scaled_bert(),
        other => return Err(ArgError(format!("unknown model '{other}' (bert|tiny)"))),
    };
    // Validate the workload before the (slow) importance profiling pass.
    let synthetic_sessions = checked_usize("sessions", args.get_u64("sessions", 8)?)?;
    let synthetic_engagements = checked_usize("engagements", args.get_u64("engagements", 4)?)?;
    let loaded_trace = match args.get("trace") {
        Some(path) => {
            // A trace file carries its own per-client `slo_ms`; a global
            // default would be silently ignored, so reject the combination.
            if cfg.slo.is_some() {
                return Err(ArgError(
                    "--slo-ms applies to synthetic traces only; put per-client \"slo_ms\" in the \
                     trace file instead"
                        .into(),
                ));
            }
            Some(load_trace(path).map_err(|e| ArgError(format!("trace file '{path}': {e}")))?)
        }
        None => {
            if synthetic_sessions == 0 || synthetic_engagements == 0 {
                return Err(ArgError("--sessions and --engagements must be positive".into()));
            }
            None
        }
    };
    let trace_tracks = match args.get_or("trace-tracks", "sim") {
        "sim" => TrackFilter::Deterministic,
        "all" => TrackFilter::All,
        other => return Err(ArgError(format!("unknown trace-tracks '{other}' (sim|all)"))),
    };
    let (trace_out, metrics_out) = (args.get("trace-out"), args.get("metrics-out"));
    args.reject_unread()?;
    let ctx = TaskContext::with_config(kind, model_cfg);
    eprintln!("profiling shard importance (one-time per model)...");
    ctx.importance();

    let trace = match loaded_trace {
        Some(trace) => trace,
        None => ServingTrace::synthetic(&ctx, &cfg, synthetic_sessions, synthetic_engagements),
    };
    let sessions = trace.clients.len();

    let server = build_server(&ctx, &cfg);
    if trace_out.is_some() || metrics_out.is_some() {
        // A live ring sink adds the host/engine color tracks and the
        // admission markers, and is what makes the event report carry the
        // span stream (the deterministic tracks come from the server's
        // logs). Without it the report's `spans` stay empty.
        server.set_obs_sink(ObsSink::ring(8 << 20));
    }
    let event =
        replay_event(&server, &trace).map_err(|e| ArgError(format!("event replay: {e}")))?;
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace)
        .map_err(|e| ArgError(format!("sequential replay: {e}")))?;
    let identical = event.outcomes == sequential.outcomes;

    let first = event
        .outcomes
        .iter()
        .flat_map(|c| c.iter())
        .next()
        .ok_or_else(|| ArgError("every engagement was rejected at admission or shed".into()))?;
    let contention = &event.contention;
    let slo_line = match (contention.slo_hit_rate(), contention.slo_hit_rate_end_to_end()) {
        (Some(rate), Some(end_to_end)) => format!(
            "{:.0}% of SLO engagements met their SLO service-onward, {:.0}% from issue",
            rate * 100.0,
            end_to_end * 100.0,
        ),
        _ => "no SLO clients".to_string(),
    };
    let served: usize = event.outcomes.iter().map(Vec::len).sum();
    let batching_line = if batch_window_us > 0 {
        format!(
            "window {batch_window_us}µs: {} batched dispatches, {} flash bytes saved, \
             occupancy {:.2}",
            contention.batched_dispatches,
            contention.flash_bytes_saved,
            contention.mean_batch_occupancy,
        )
    } else {
        "off".to_string()
    };
    let backpressure_line = match backpressure {
        BackpressureMode::Off => "off".to_string(),
        mode => {
            let name = if matches!(mode, BackpressureMode::Shed) { "shed" } else { "queue" };
            format!(
                "{name}: {} shed, {} queue-delayed (max delay {}, {} re-gated)",
                contention.shed_count(),
                contention.queue_delayed(),
                contention.max_queue_delay(),
                contention.re_gated_count(),
            )
        }
    };
    let plan_sharing_line = match plan_sharing {
        PreloadPolicy::PerSession => "off (per-session |S|)".to_string(),
        PreloadPolicy::SharingAware => format!(
            "mix: {} preload bytes reallocated off co-resident-streamed layers",
            contention.preload_bytes_reallocated,
        ),
    };
    let prefetch_line = match &event.prefetch {
        None => "off".to_string(),
        Some(p) => format!(
            "{} budget {}KiB: prefetch hit rate {:.1}% — {} plans, \
             {} speculative jobs, {} B staged from flash, {} B pinned, \
             {} B served to later misses, {} B reused, {} evictions",
            p.mode.label(),
            prefetch_budget >> 10,
            p.pool.hit_rate() * 100.0,
            p.model.plans,
            p.jobs,
            p.speculated_bytes,
            p.pinned_bytes,
            p.pool.hit_bytes,
            p.pool.reuse_bytes,
            p.pool.evictions,
        ),
    };
    // Structured gate reasons: which co-runner lane the delayed/shed
    // decisions blame.
    let gated: Vec<&GateDecision> =
        contention.gate.iter().filter(|d| d.shed || d.delay > SimTime::ZERO).collect();
    let gate_reason_line = if contention.gate.is_empty() {
        "no gated engagements".to_string()
    } else if gated.is_empty() {
        format!("{} decisions, none delayed or shed", contention.gate.len())
    } else {
        let mut blamed: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for d in &gated {
            if let Some((token, _)) = d.reason.dominant_lane {
                *blamed.entry(token).or_insert(0) += 1;
            }
        }
        match blamed.iter().max_by_key(|(token, count)| (**count, std::cmp::Reverse(**token))) {
            Some((&token, &count)) => format!(
                "{} of {} decisions delayed/shed; co-runner lane {token} dominated {count}",
                gated.len(),
                contention.gate.len(),
            ),
            None => "no co-runner lane to blame".to_string(),
        }
    };
    let queueing_us: Vec<u64> =
        contention.engagements.iter().map(|e| e.initial_queueing.as_us()).collect();
    let mean_queueing = if queueing_us.is_empty() {
        SimTime::ZERO
    } else {
        SimTime::from_us(queueing_us.iter().sum::<u64>() / queueing_us.len() as u64)
    };
    let mut report = format!(
        "served {} of {} engagements over {} sessions ({} rejected at admission)\n\
         \x20 throughput    {:.1} engagements/s event, {:.1} sequential ({:.2}x)\n\
         \x20 per-engagement makespan {} | streamed {} bytes\n\
         \x20 plan cache    {} hit / {} miss ({} distinct plans); SLO sessions {} admitted / {} rejected\n\
         \x20 shard cache   {} hit / {} miss ({:.0}% hit rate), {} evictions\n\
         \x20 io scheduler  {} requests, {} bytes, flash busy {}, max queue depth {}\n\
         \x20 batching      {}\n\
         \x20 backpressure  {}\n\
         \x20 plan-sharing  {}\n\
         \x20 prefetch      {}\n\
         \x20 gate reasons  {}\n\
         \x20 contended     p50 {} | p95 {} | max {} service-onward; mean initial queueing {}; {}\n\
         \x20 determinism   event outcomes {} sequential replay\n",
        served,
        trace.total_engagements(),
        sessions,
        event.rejected_clients.len(),
        event.engagements_per_sec(),
        sequential.engagements_per_sec(),
        event.engagements_per_sec() / sequential.engagements_per_sec().max(1e-9),
        first.makespan,
        first.loaded_bytes,
        event.plan_stats.hits,
        event.plan_stats.misses,
        event.distinct_plans,
        event.serving_stats.admitted_sessions,
        event.serving_stats.rejected_sessions,
        event.shard_stats.hits,
        event.shard_stats.misses,
        event.shard_stats.hit_rate() * 100.0,
        event.shard_stats.evictions,
        event.io_stats.requests,
        event.io_stats.bytes,
        event.io_stats.sim_flash_busy,
        event.io_stats.max_queue_depth,
        batching_line,
        backpressure_line,
        plan_sharing_line,
        prefetch_line,
        gate_reason_line,
        contention.latency_percentile(0.5),
        contention.latency_percentile(0.95),
        contention.latency_percentile(1.0),
        mean_queueing,
        slo_line,
        if identical { "exactly reproduce the" } else { "DIVERGED from the" },
    );
    if let Some(path) = trace_out {
        let json = chrome_trace_json(&event.spans, trace_tracks);
        std::fs::write(path, &json).map_err(|e| ArgError(format!("write trace '{path}': {e}")))?;
        let gate_spans = event
            .spans
            .iter()
            .filter(|s| s.name.starts_with("gate.") && trace_tracks.admits(s.kind))
            .count();
        report.push_str(&format!(
            "trace written to {path} ({} spans, {gate_spans} gate spans)\n",
            event.spans.iter().filter(|s| trace_tracks.admits(s.kind)).count(),
        ));
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, event.metrics.to_json())
            .map_err(|e| ArgError(format!("write metrics '{path}': {e}")))?;
        report.push_str(&format!("metrics snapshot written to {path}\n"));
    }
    Ok(report)
}

/// Routes a parsed command line to its implementation.
pub(crate) fn dispatch(args: &Args) -> Result<String, ArgError> {
    let report = match args.command.as_str() {
        "preprocess" => cmd_preprocess(args),
        "profile" => cmd_profile(args),
        "importance" => cmd_importance(args),
        "plan" => cmd_plan(args),
        "infer" => cmd_infer(args),
        "generate" => cmd_generate(args),
        "serve" => cmd_serve(args),
        other => Err(ArgError(format!("unknown command '{other}'"))),
    }?;
    // `serve` checks before its replay; for the light commands the check
    // after the flags were all read is the same guarantee.
    args.reject_unread()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_runs_for_every_device() {
        for dev in ["odroid", "jetson", "accelerated"] {
            let args = Args::parse(["profile", "--device", dev]).unwrap();
            let report = dispatch(&args).unwrap();
            assert!(report.contains("T_comp"), "{dev} report incomplete");
        }
    }

    #[test]
    fn unknown_inputs_error_cleanly() {
        let args = Args::parse(["frobnicate"]).unwrap();
        assert!(dispatch(&args).is_err());
        let args = Args::parse(["profile", "--device", "pixel"]).unwrap();
        assert!(dispatch(&args).is_err());
        let args = Args::parse(["plan", "--task", "imagenet"]).unwrap();
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn preprocess_writes_a_store() {
        let dir = std::env::temp_dir().join(format!("sti-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args =
            Args::parse(["preprocess", "--task", "sst2", "--out", dir.to_str().unwrap()]).unwrap();
        let report = dispatch(&args).unwrap();
        assert!(report.contains("total"));
        assert!(ShardStore::open(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_engine_streams_from_its_contexts_store_and_leaves_nothing_behind() {
        let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
        let args = Args::parse(["infer", "--target-ms", "300"]).unwrap();
        let engine = build_engine(&args, &ctx, &EngineFlags::parse(&args).unwrap()).unwrap();
        args.reject_unread().unwrap();
        let dir = ctx.shard_store_dir().to_path_buf();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("sti-ctx-"), "{}", dir.display());
        let inference = engine.infer(&[1, 2, 3]).unwrap();
        assert!(inference.outcome.loaded_bytes > 0, "the engine streamed from flash");
        drop(ctx);
        assert!(dir.is_dir(), "the engine's handle keeps the store alive");
        drop(engine);
        assert!(!dir.exists(), "{} outlived the context and the engine", dir.display());
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for cmd in ["preprocess", "profile", "importance", "plan", "infer", "generate", "serve"] {
            assert!(u.contains(cmd), "usage missing {cmd}");
        }
    }

    #[test]
    fn serve_rejects_degenerate_traces() {
        let args = Args::parse(["serve", "--task", "sst2", "--sessions", "0"]).unwrap();
        assert!(dispatch(&args).is_err());
        let args =
            Args::parse(["serve", "--task", "sst2", "--admission", "yolo", "--model", "tiny"])
                .unwrap();
        assert!(dispatch(&args).is_err());
        let args =
            Args::parse(["serve", "--task", "sst2", "--trace", "/no/such/file.json"]).unwrap();
        assert!(dispatch(&args).is_err());
        // A global SLO cannot apply to a trace file (per-client slo_ms
        // wins); rejecting beats silently ignoring the flag.
        let args = Args::parse(["serve", "--task", "sst2", "--trace", "t.json", "--slo-ms", "500"])
            .unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("synthetic traces only"), "{err}");
        // Backpressure modes are validated before any work happens.
        let args =
            Args::parse(["serve", "--task", "sst2", "--backpressure", "panic", "--model", "tiny"])
                .unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("off|queue|shed"), "{err}");
        // A queue patience that would overflow ms→µs is rejected, not
        // silently wrapped.
        let args = Args::parse([
            "serve",
            "--task",
            "sst2",
            "--backpressure",
            "queue",
            "--max-queue-ms",
            "99999999999999999",
            "--model",
            "tiny",
        ])
        .unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("overflows the simulated timeline"), "{err}");
    }

    #[test]
    fn serve_rejects_flags_it_does_not_read() {
        // Retired knobs must not be swallowed: the run would be stamped as
        // something it was not.
        for (flag, value) in [("exec", "threaded"), ("fleet", "4")] {
            let flag_arg = format!("--{flag}");
            let args = Args::parse([
                "serve",
                "--task",
                "sst2",
                "--model",
                "tiny",
                flag_arg.as_str(),
                value,
            ])
            .unwrap();
            let err = dispatch(&args).unwrap_err();
            assert!(err.to_string().contains(&format!("unknown flag --{flag}")), "{err}");
        }
        // Same for a typo, on the replay path and on a light command.
        let args =
            Args::parse(["serve", "--task", "sst2", "--model", "tiny", "--chanels", "4"]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("unknown flag --chanels"), "{err}");
        let args = Args::parse(["profile", "--devcie", "jetson"]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("unknown flag --devcie"), "{err}");
    }

    #[test]
    fn serve_reports_backpressure_sheds_on_a_bursty_trace() {
        let args = Args::parse([
            "serve",
            "--task",
            "sst2",
            "--model",
            "tiny",
            "--trace",
            "../../examples/traces/burst.json",
            "--backpressure",
            "shed",
        ])
        .unwrap();
        let report = dispatch(&args).unwrap();
        assert!(report.contains("backpressure  shed:"), "{report}");
        assert!(!report.contains("backpressure  shed: 0 shed"), "the burst must shed: {report}");
        assert!(report.contains("exactly reproduce"), "{report}");
    }

    #[test]
    fn serve_reports_prefetch_hits_on_a_recurrent_trace() {
        let args = Args::parse([
            "serve",
            "--task",
            "sst2",
            "--model",
            "tiny",
            "--trace",
            "../../examples/traces/recurrent.json",
            "--prefetch",
            "markov",
            "--shard-cache-kb",
            "1",
        ])
        .unwrap();
        let report = dispatch(&args).unwrap();
        assert!(report.contains("prefetch      markov"), "{report}");
        assert!(report.contains("prefetch hit rate"), "{report}");
        assert!(
            !report.contains("prefetch hit rate 0.0%"),
            "the recurrent trace must produce staging-pool hits: {report}"
        );
        assert!(report.contains("exactly reproduce"), "{report}");
        // The same trace with prefetch off reports the fenced-off default.
        let args = Args::parse([
            "serve",
            "--task",
            "sst2",
            "--model",
            "tiny",
            "--trace",
            "../../examples/traces/recurrent.json",
            "--shard-cache-kb",
            "1",
        ])
        .unwrap();
        let off = dispatch(&args).unwrap();
        assert!(off.contains("prefetch      off"), "{off}");
    }

    #[test]
    fn serve_replays_a_trace_file_with_admission() {
        let path = std::env::temp_dir().join(format!("sti-cli-trace-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{ "clients": [
                { "target_ms": 300, "slo_ms": 60000, "engagements": [[1, 2, 3], [7]] },
                { "target_ms": 300, "engagements": [[9, 9]] }
            ] }"#,
        )
        .unwrap();
        let args = Args::parse([
            "serve",
            "--task",
            "sst2",
            "--model",
            "tiny",
            "--admission",
            "enforce",
            "--trace",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let report = dispatch(&args).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(report.contains("served 3 of 3 engagements"), "{report}");
        assert!(report.contains("exactly reproduce"), "{report}");
        assert!(report.contains("SLO engagements met their SLO service-onward"), "{report}");
        assert!(report.contains("% from issue"), "{report}");
        assert!(report.contains("batching      off"), "{report}");
    }

    const MS_FLAGS: [&str; 3] = ["target-ms", "slo-ms", "max-queue-ms"];
    const KB_FLAGS: [&str; 3] = ["preload-kb", "shard-cache-kb", "prefetch-budget-kb"];

    #[test]
    fn unit_flags_reject_their_first_overflowing_value_by_name() {
        let (ms, kb) = ("18446744073709552", "18014398509481984");
        let serve = MS_FLAGS
            .map(|f| ("serve", f, ms))
            .into_iter()
            .chain(KB_FLAGS.map(|f| ("serve", f, kb)));
        let engine = ["plan", "infer", "generate"]
            .into_iter()
            .flat_map(|cmd| [(cmd, "target-ms", ms), (cmd, "preload-kb", kb)]);
        for (cmd, flag, value) in serve.chain(engine) {
            let flag_arg = format!("--{flag}");
            let args =
                Args::parse([cmd, "--task", "sst2", "--text", "hi", flag_arg.as_str(), value])
                    .unwrap();
            let err = dispatch(&args).unwrap_err();
            assert!(
                err.to_string().starts_with(&format!("{flag_arg} {value} overflows")),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn unit_flags_parse_their_largest_value() {
        for flag in MS_FLAGS {
            let args = Args::parse(["serve", &format!("--{flag}"), "18446744073709551"]).unwrap();
            assert_eq!(ms_flag(&args, flag, 0).unwrap().as_us(), 18_446_744_073_709_551_000);
        }
        for flag in KB_FLAGS {
            let args = Args::parse(["serve", &format!("--{flag}"), "18014398509481983"]).unwrap();
            assert_eq!(kb_flag(&args, flag, 0).unwrap(), u64::MAX - 1023);
        }
    }

    #[test]
    fn fleet_size_casts_are_bounds_checked() {
        assert_eq!(checked_usize("sessions", 8).unwrap(), 8);
        // On 64-bit hosts every u64 fits; the guard is for 32-bit targets,
        // where a 5-billion --sessions would otherwise truncate silently.
        if u64::try_from(usize::MAX).is_ok_and(|max| max < u64::MAX) {
            let err = checked_usize("sessions", u64::MAX).unwrap_err();
            assert!(err.to_string().contains("address width"), "{err}");
        }
    }

    #[test]
    fn serve_reports_shared_io_batching() {
        let args = Args::parse([
            "serve",
            "--task",
            "sst2",
            "--model",
            "tiny",
            "--sessions",
            "4",
            "--engagements",
            "1",
            "--preload-kb",
            "0",
            "--batch-window",
            "500",
        ])
        .unwrap();
        let report = dispatch(&args).unwrap();
        assert!(report.contains("window 500µs"), "{report}");
        assert!(
            report.contains("exactly reproduce"),
            "batching must not perturb results: {report}"
        );
    }
}
