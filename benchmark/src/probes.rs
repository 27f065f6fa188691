//! Layer probes for the traced run. In-program host-time tracing is a
//! later change, so the time an engagement spends *inside*
//! `infer_complete` is measured by re-enacting its plan through each
//! layer's public functions (`probe_plan`), and calls no workload makes on
//! its op path are sampled by a fixed suite against the workload's live
//! server (`suite`). Every span is named after the per-layer metric it
//! feeds.

use std::sync::Arc;

use sti::prelude::*;
use sti_pipeline::WorkingBuffer;
use sti_planner::compute_plan::dynabert_widths_for;
use sti_planner::{simulate_pipeline, LayerTiming};
use sti_tensor::{ops, Matrix};
use sti_transformer::layer::layer_forward;
use sti_transformer::ShardWeights;

use crate::bench::{Env, Workload};
use crate::tracer::Tracer;

/// Re-enacts one engagement of `plan` through the layers' public
/// functions, a span per call: shard loads through `cache` (a
/// `ShardCache` of the workload's budget that lives as long as the
/// workload, so it is as warm or as cold as the server's), dequant into a
/// `WorkingBuffer`, the forward pass, the pipeline-timeline simulation,
/// and a `TopologyQueueSim` run over the plan's flash jobs.
pub fn probe_plan(
    env: &Env,
    cfg: &ServeConfig,
    cache: &ShardCache,
    tr: &mut Tracer,
    plan: &ExecutionPlan,
    tokens: &[u32],
) {
    if !tr.enabled() {
        return;
    }
    let model = env.ctx.task().model();
    let mcfg = model.config();
    let source = env.ctx.shard_source();
    let hw = &env.hw;
    tr.count("quant.dequant.bytes", (plan.shape.shard_count() * mcfg.shard_fp32_bytes()) as u64);
    let jobs: Vec<LayerIoJob> = layer_io_jobs(hw, plan).into_iter().flatten().collect();
    tr.count("device.topology_sim.jobs", jobs.len() as u64);
    tr.span("probe.engagement", "bench", |tr| {
        let mut working = WorkingBuffer::new(mcfg.clone());
        let mut x =
            tr.span("transformer.forward", "transformer", |_| model.embedding().embed(tokens));
        let mut timings = Vec::with_capacity(plan.layers.len());
        for (l, pl) in plan.layers.iter().enumerate() {
            let blobs: Vec<QuantizedBlob> = tr.span("storage.load", "storage", |_| {
                pl.items()
                    .map(|(slice, bw)| {
                        cache
                            .get_or_load(&*source, ShardKey::new(ShardId::new(pl.layer, slice), bw))
                            .expect("the store holds every planned shard")
                    })
                    .collect()
            });
            let refs: Vec<&QuantizedBlob> = blobs.iter().collect();
            let shards = tr
                .span("quant.dequant", "quant", |_| working.assemble(&refs))
                .expect("store blobs match the model's shard size");
            let shard_refs: Vec<&ShardWeights> = shards.iter().collect();
            let slices: Vec<usize> = pl.slices.iter().map(|&s| s as usize).collect();
            x = tr.span("transformer.forward", "transformer", |_| {
                layer_forward(&x, &shard_refs, &slices, &model.layers()[l].resident, mcfg)
            });
            let streamed: Vec<Bitwidth> = pl
                .items()
                .filter(|&(slice, _)| !plan.is_preloaded(ShardId::new(pl.layer, slice)))
                .map(|(_, bw)| bw)
                .collect();
            timings.push(LayerTiming {
                io: hw.layer_io_delay(&streamed),
                comp: hw.t_comp(pl.slices.len()),
            });
        }
        std::hint::black_box(
            tr.span("transformer.forward", "transformer", |_| model.classifier().logits(&x)),
        );
        std::hint::black_box(tr.span("planner.simulate_pipeline", "planner", |_| {
            simulate_pipeline(&timings, SimTime::ZERO)
        }));
        let topology = DeviceTopology::with_channels(cfg.channels.max(1));
        std::hint::black_box(tr.span("device.topology_sim", "device", |_| {
            let mut sim = TopologyQueueSim::new(topology);
            for job in &jobs {
                sim.submit_on(
                    topology.channel_for(job.sig, 0),
                    FlashJob { engagement: 0, arrival: SimTime::ZERO, service: job.service },
                );
            }
            sim.run()
        }));
    });
}

/// Samples the calls no op path makes, against the workload's live server:
/// one span per call, repeated a few times so the median is steady.
pub fn suite(env: &Env, w: &dyn Workload, tr: &mut Tracer) {
    let server = w.server();
    let cfg = w.config();
    let model = env.ctx.task().model();
    let mcfg = model.config();
    let hw = &env.hw;
    let importance = env.ctx.importance();
    let widths = dynabert_widths_for(mcfg.heads);
    let population = w.mix_population();
    let (target, preload, _) = population[0];

    let plan = plan_two_stage(hw, importance, target, preload, &widths, &Bitwidth::ALL);
    for i in 0..16u64 {
        let t = SimTime::from_ms(110 + 20 * i);
        std::hint::black_box(tr.span("planner.plan_cold", "planner", |_| {
            plan_two_stage(hw, importance, t, preload, &widths, &Bitwidth::ALL)
        }));
    }

    // FFN-up at the plan's width: activations (seq x hidden) times the
    // plan's slices of the first FFN matrix (hidden x width * ffn/heads).
    let a = Matrix::filled(mcfg.seq_len, mcfg.hidden, 0.5);
    let b = Matrix::filled(mcfg.hidden, plan.shape.width * mcfg.ffn_per_shard(), 0.25);
    for _ in 0..64 {
        std::hint::black_box(tr.span("tensor.matmul", "tensor", |_| ops::matmul(&a, &b)));
    }

    let source = env.ctx.shard_source();
    let cache = ShardCache::new(64 << 20);
    for id in mcfg.shard_ids().take(32) {
        let key = ShardKey::new(id, Bitwidth::B4);
        for name in ["storage.load_miss", "storage.load_hit"] {
            std::hint::black_box(
                tr.span(name, "storage", |_| cache.get_or_load(&*source, key))
                    .expect("store holds the shard"),
            );
        }
    }

    // A mix the size and shape of the live one, built through the planner's
    // public constructors (the server's own mix has no accessor).
    let topology = server.device_topology();
    let sharing = match cfg.batch_window {
        Some(window) => IoSharing::Batched(window),
        None => IoSharing::Exclusive,
    };
    let mut mix = ServingMix::new(sharing).with_topology(topology);
    let mut plans: Vec<((SimTime, u64), Arc<ExecutionPlan>)> = Vec::new();
    for (token, &(t, s, arrival)) in population.iter().enumerate() {
        let p = match plans.iter().find(|(k, _)| *k == (t, s)) {
            Some((_, p)) => p.clone(),
            None => {
                let p = Arc::new(plan_two_stage(hw, importance, t, s, &widths, &Bitwidth::ALL));
                plans.push(((t, s), p.clone()));
                p
            }
        };
        let stripe = (token as u64 % topology.channel_count() as u64) as u16;
        mix.push_session(
            token as u64,
            CoRunnerLoad::from_plan_striped(hw, &p, arrival, stripe),
            None,
        );
    }
    let load = EngagementLoad::from_plan(hw, &plan, SimTime::ZERO);
    for _ in 0..8 {
        std::hint::black_box(tr.span("planner.mix_predict", "planner", |_| mix.predict(&load)));
    }
    let slo = SimTime::from_ms(crate::gen::fleet::SLO_MS.1);
    let late = SimTime::from_us(crate::gen::fleet::SLO_ARRIVAL_US / 2);
    for _ in 0..3 {
        std::hint::black_box(tr.span("planner.slo_search", "planner", |_| {
            plan_for_slo_mix(
                hw,
                importance,
                slo,
                late,
                &mix,
                cfg.plan_sharing,
                preload,
                &widths,
                &Bitwidth::ALL,
            )
        }));
    }
    drop(mix);

    for _ in 0..64 {
        std::hint::black_box(tr.span("pipeline.mix_digest", "pipeline", |_| server.mix_digest()));
    }
    for _ in 0..3 {
        std::hint::black_box(
            tr.span("pipeline.build_server", "pipeline", |_| build_server(&env.ctx, cfg)),
        );
        let fleet = tr
            .span("pipeline.open_fleet", "pipeline", |_| {
                server.open_fleet(SUITE_FLEET, target, preload)
            })
            .expect("open a probe fleet");
        drop(fleet);
    }
    for _ in 0..16 {
        let mut s = tr
            .span("pipeline.session_open", "pipeline", |_| server.session_with(target, preload))
            .expect("open a probe session");
        tr.span("planner.plan_hit", "planner", |_| s.set_target(target))
            .expect("retarget on a cached key");
        tr.span("pipeline.session_drop", "pipeline", |_| drop(s));
    }
    for _ in 0..3 {
        let s = tr
            .span("pipeline.admit_slo", "pipeline", |_| {
                server.session_with_slo_at(slo, preload, late)
            })
            .expect("admission is not enforced in any workload");
        std::hint::black_box(tr.span("pipeline.gate_cold", "pipeline", |_| s.gate_decision()));
        for _ in 0..16 {
            std::hint::black_box(
                tr.span("pipeline.gate_steady", "pipeline", |_| s.gate_decision()),
            );
        }
    }

    let json = w.sample_trace_json();
    for _ in 0..8 {
        std::hint::black_box(tr.span("core.parse_trace", "core", |_| parse_trace(json)))
            .expect("the generator emits the trace-file schema");
    }
    if w.replays_events() {
        let trace = parse_trace(json).expect("the generator emits the trace-file schema");
        for _ in 0..3 {
            tr.span("core.replay_event", "core", |_| replay_event(server, &trace))
                .expect("replay a probe round");
            tr.count("core.replay_event.engagements", trace.total_engagements() as u64);
            server.reset_contention_log();
        }
    }
}

/// Sessions each `pipeline.open_fleet` span of the suite opens: the divisor
/// of `pipeline.open_fleet_us_per_session`.
pub const SUITE_FLEET: usize = 256;
