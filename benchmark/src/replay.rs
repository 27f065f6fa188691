//! The traced twin of `sti::replay_event`: the same parsed trace stepped
//! through the public split API the event replay itself uses, on the same
//! engine, with a span around every call into a layer. The schedule is a
//! pure function of `(next_tick, ComponentId)` and the registration order
//! below copies the replay's, so simulated results, gate decisions and
//! `heap_ops` equal the untraced run's; `run` checks that they do.

use std::time::Instant;

use sti::prelude::*;
use sti_pipeline::PendingEngagement;

use crate::tracer::Tracer;

struct Ctx<'a> {
    server: &'a StiServer,
    sessions: &'a [Option<Session>],
    trace: &'a ServingTrace,
    tr: &'a mut Tracer,
    outcomes: Vec<Vec<EngagementOutcome>>,
    pendings: Vec<Option<PendingEngagement>>,
    cursor: Vec<usize>,
    waiting: Vec<ComponentId>,
    flash: ComponentId,
    channels: usize,
    spec_wake: bool,
    error: Option<PipelineError>,
}

/// The fields of an inference the determinism contract compares.
pub fn outcome_of(inf: Inference) -> EngagementOutcome {
    EngagementOutcome {
        class: inf.class,
        probabilities: inf.probabilities,
        makespan: inf.outcome.timeline.makespan,
        loaded_bytes: inf.outcome.loaded_bytes,
    }
}

struct Client {
    id: ComponentId,
    arrival: SimTime,
}

fn fail(sys: &mut System<'_, Ctx<'_>>, e: PipelineError) -> Option<SimTime> {
    sys.ctx.error = Some(e);
    sys.halt();
    None
}

fn wake_flash(sys: &mut System<'_, Ctx<'_>>, now: SimTime) {
    let (flash, channels) = (sys.ctx.flash, sys.ctx.channels);
    for c in 0..channels {
        sys.wake(flash + c, now);
    }
}

impl<'a> Component<Ctx<'a>> for Client {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<SimTime> {
        Some(self.arrival)
    }

    fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx<'a>>) -> Option<SimTime> {
        let sessions = sys.ctx.sessions;
        let trace = sys.ctx.trace;
        let session = sessions[self.id].as_ref()?;
        let client = &trace.clients[self.id];
        if let Some(pending) = sys.ctx.pendings[self.id].take() {
            let done = sys
                .ctx
                .tr
                .span("pipeline.infer_complete", "pipeline", |_| session.infer_complete(pending));
            match done {
                Ok(inf) => sys.ctx.outcomes[self.id].push(outcome_of(inf)),
                Err(e) => return fail(sys, e),
            }
            if sys.ctx.spec_wake {
                wake_flash(sys, now);
            }
        }
        loop {
            let k = sys.ctx.cursor[self.id];
            if k >= client.engagements.len() {
                return None;
            }
            sys.ctx.cursor[self.id] = k + 1;
            // The gate probe is pure and memoised per mix digest, so the
            // gate inside `infer_issue` right after it is a lookup: the
            // span shows the decision's cost without changing it.
            sys.ctx.tr.span("pipeline.gate", "pipeline", |_| session.gate_decision());
            let issued = sys.ctx.tr.span("pipeline.infer_issue", "pipeline", |_| {
                session.infer_issue(&client.engagements[k])
            });
            match issued {
                Ok(pending) => {
                    sys.ctx.pendings[self.id] = Some(pending);
                    sys.ctx.waiting.push(self.id);
                    wake_flash(sys, now);
                    return None;
                }
                Err(PipelineError::Backpressure { .. }) => continue,
                Err(e) => return fail(sys, e),
            }
        }
    }
}

struct Flash {
    id: ComponentId,
    channel: u16,
    last: bool,
}

impl<'a> Component<Ctx<'a>> for Flash {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<SimTime> {
        None
    }

    fn tick(&mut self, now: SimTime, sys: &mut System<'_, Ctx<'a>>) -> Option<SimTime> {
        let server = sys.ctx.server;
        sys.ctx.tr.span("storage.drive_io", "storage", |_| server.drive_io_on(self.channel));
        if self.last {
            loop {
                let channels = sys.ctx.channels;
                let served: usize = sys.ctx.tr.span("storage.drive_io", "storage", |_| {
                    (0..channels).map(|c| server.drive_io_on(c as u16)).sum()
                });
                if served == 0 {
                    break;
                }
            }
            let waiting = std::mem::take(&mut sys.ctx.waiting);
            for id in waiting {
                sys.wake(id, now);
            }
        }
        None
    }
}

/// What a replayed round produced: the report `replay_event` would return,
/// plus each admitted client's plan (`replay_event` drops its sessions
/// before anyone can ask; the twin reads them first).
pub struct Replay {
    /// The round's report.
    pub report: ServeReport,
    /// The plan each client's session executed (`None`: rejected, or not
    /// known because `replay_event` ran the round).
    pub plans: Vec<Option<ExecutionPlan>>,
}

/// Replays `trace` on the event engine with spans around every layer call.
///
/// # Errors
///
/// Returns the first engine-order error, like `replay_event`.
pub fn traced_replay(
    server: &StiServer,
    trace: &ServingTrace,
    tr: &mut Tracer,
) -> Result<Replay, PipelineError> {
    let start = Instant::now();
    let mut sessions: Vec<Option<Session>> = Vec::with_capacity(trace.clients.len());
    for client in &trace.clients {
        let opened = match client.slo {
            Some(slo) => tr.span("pipeline.admit_slo", "pipeline", |_| {
                server.session_with_slo_at(slo, client.preload_bytes, client.arrival)
            }),
            None => tr.span("pipeline.session_open", "pipeline", |_| {
                server.session_with(client.target, client.preload_bytes)
            }),
        };
        match opened {
            Ok(mut session) => {
                session.set_arrival(client.arrival);
                session.set_issue_gap(client.idle);
                sessions.push(Some(session));
            }
            Err(PipelineError::AdmissionRejected { .. }) => sessions.push(None),
            Err(e) => return Err(e),
        }
    }
    server.pause_io();
    // The engine (and the borrows its context type carries) must be gone
    // before the sessions are read and dropped below.
    let (engine_report, outcomes, pendings, error) = {
        let mut engine: Engine<Ctx<'_>> = Engine::new();
        engine.set_obs_sink(server.obs_sink());
        for (id, client) in trace.clients.iter().enumerate() {
            engine.register(Box::new(Client { id, arrival: client.arrival }));
        }
        let channels = server.device_topology().channel_count() as usize;
        let flash = trace.clients.len();
        for c in 0..channels {
            engine.register(Box::new(Flash {
                id: flash + c,
                channel: c as u16,
                last: c + 1 == channels,
            }));
        }
        let mut ctx = Ctx {
            server,
            sessions: &sessions,
            trace,
            tr: &mut *tr,
            outcomes: vec![Vec::new(); trace.clients.len()],
            pendings: (0..trace.clients.len()).map(|_| None).collect(),
            cursor: vec![0; trace.clients.len()],
            waiting: Vec::new(),
            flash,
            channels,
            spec_wake: server.prefetch_enabled(),
            error: None,
        };
        let engine_report = engine.run(&mut ctx);
        let Ctx { outcomes, pendings, error, .. } = ctx;
        (engine_report, outcomes, pendings, error)
    };
    drop(pendings);
    server.resume_io();
    if let Some(e) = error {
        return Err(e);
    }
    let contention =
        tr.span("pipeline.contention_report", "pipeline", |_| server.contention_report());
    let spans = tr.span("obs.trace_spans", "obs", |_| server.trace_spans());
    let mut metrics = tr.span("obs.metrics_snapshot", "obs", |_| server.metrics_snapshot());
    metrics.counters.insert("engine.ticks".to_string(), engine_report.ticks);
    metrics.counters.insert("engine.heap_ops".to_string(), engine_report.heap_ops);
    let report = ServeReport {
        outcomes,
        wall: start.elapsed(),
        plan_stats: server.plan_stats(),
        distinct_plans: server.cached_plans(),
        shard_stats: server.shard_stats(),
        io_stats: server.io_stats(),
        contention,
        serving_stats: server.serving_stats(),
        rejected_clients: sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect(),
        heap_ops: engine_report.heap_ops,
        spans,
        metrics,
        prefetch: server.prefetch_report(),
    };
    let plans = sessions.iter().map(|s| s.as_ref().map(|s| s.plan().clone())).collect();
    for session in sessions.into_iter().flatten() {
        tr.span("pipeline.session_drop", "pipeline", |_| drop(session));
    }
    Ok(Replay { report, plans })
}
