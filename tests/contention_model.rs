//! Contracts of the contended-time track: the flash-queue simulator, the
//! SLO-aware serving planner, and admission control.
//!
//! The acceptance anchor: a workload where admission control **rejects** an
//! engagement the queue simulator predicts would miss its SLO, while every
//! **admitted** engagement's contended latency meets its own. The
//! uncontended determinism contract (`tests/serving_runtime.rs`) is
//! untouched — these tests only exercise the new track.

use std::sync::Arc;

use sti::prelude::*;
use sti_planner::{align_io_completions, contended_makespan, PredictedDispatch};

fn importance_for(cfg: &ModelConfig) -> ImportanceProfile {
    ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    )
}

fn server(admission: AdmissionMode) -> StiServer {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 6);
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    StiServer::new(
        task.model().clone(),
        source,
        hw,
        importance_for(&cfg),
        &ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            widths: Some(vec![2, 4]),
            admission,
            ..ServeConfig::default()
        },
    )
}

/// The smallest achievable uncontended makespan on this server: what a
/// 1 µs target degrades to. An SLO at this level is satisfiable alone and
/// unsatisfiable under any co-runner.
fn floor_makespan(srv: &StiServer) -> SimTime {
    srv.session_with(SimTime::from_us(1), 0).expect("floor session").plan().predicted.makespan
}

/// The batching window is closed, and the scheduler and the predictor
/// apply the same one: two identical engagements arriving exactly `w` apart
/// share their reads in both, `w + 1 µs` apart in neither.
#[test]
fn the_window_boundary_is_the_same_in_the_scheduler_and_the_predictor() {
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 6);
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let plan = plan_two_stage(
        &hw,
        &importance_for(&cfg),
        SimTime::from_ms(300),
        0,
        &[2, 4],
        &Bitwidth::ALL,
    );
    let solo = plan.predicted.makespan;
    let request = LayerRequest { layer: 0, items: plan.layers[0].items().collect() };
    let window = SimTime::from_ms(1);
    let sharing = IoSharing::Batched(window);
    for (apart, shared) in [(window, true), (window + SimTime::from_us(1), false)] {
        // The scheduler, with both requests queued before the first dispatch.
        let cache = Arc::new(ShardCache::new(0));
        let topology = DeviceTopology::single();
        let sched = IoScheduler::spawn(source.clone(), hw.flash, cache, sharing, topology);
        sched.pause_dispatch();
        let lanes =
            [sched.channel_striped_at(SimTime::ZERO, 0), sched.channel_striped_at(apart, 0)];
        for lane in &lanes {
            lane.request(request.clone()).unwrap();
        }
        sched.resume_dispatch();
        for lane in &lanes {
            lane.recv().unwrap();
        }
        let fanouts: Vec<usize> = sched
            .with_event_logs(|demand, _| demand.iter().map(FlashDispatchEvent::fanout).collect());
        assert_eq!(fanouts, if shared { vec![2] } else { vec![1, 1] }, "{apart} apart");

        // The predictor: the later engagement against the earlier one.
        let mix = ServingMix::from_co_runners(&[CoRunnerLoad::from_plan(&hw, &plan)], sharing);
        let predicted = mix.predict(&EngagementLoad::from_plan(&hw, &plan, apart));
        assert_eq!(predicted == solo, shared, "{apart} apart: predicted {predicted}, solo {solo}");
    }
}

/// A store and the plans lanes draw from, for the differential test: an
/// 8-layer tiny model and two-stage plans at several `(T, |S|)`, some
/// preloading whole layers and some parts of layers.
struct Differential {
    hw: HwProfile,
    source: Arc<ShardStore>,
    plans: Vec<ExecutionPlan>,
}

impl Differential {
    fn new() -> Self {
        let cfg = ModelConfig { layers: 8, ..ModelConfig::tiny() };
        let model = Model::synthetic(53, cfg.clone());
        let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
        let source = Arc::new(
            ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
        );
        let importance = importance_for(&cfg);
        let plans = [(300, 0), (80, 0), (300, 2 << 10), (120, 6 << 10)]
            .map(|(ms, preload)| {
                let target = SimTime::from_ms(ms);
                plan_two_stage(&hw, &importance, target, preload, &[2, 4], &Bitwidth::ALL)
            })
            .into();
        Self { hw, source, plans }
    }
}

/// One drawn lane: its plan, stripe and opening arrival.
#[derive(Debug, Clone, Copy)]
struct DrawnLane {
    plan: usize,
    stripe: u16,
    arrival: SimTime,
}

/// What the differential test saw across its cases.
#[derive(Debug, Default)]
struct Seen {
    /// Dispatches whose members include a lane on another stripe than the
    /// leader's.
    cross_stripe: usize,
    /// Dispatches with members, one of whose lanes had its cursor raised
    /// by an earlier batch.
    after_a_raise: usize,
    /// Dispatches on more than one channel led by a lane whose stripe is
    /// the channel count or more: a salt no stripe of `0..C` repeats.
    beyond_channels: usize,
}

/// One seeded case: channels, sharing and lanes (2 to 5, stripes drawn
/// independently from `0..4 · C`, so some are salts beyond the channel
/// count, arrivals tied, inside, at and outside the window, half of them on
/// the first plan).
fn drawn_case(fixture: &Differential, seed: u64) -> (u16, IoSharing, Vec<DrawnLane>) {
    let mut rng = sti_tensor::Rng::new(seed);
    let channels = [1u16, 2, 4][rng.next_below(3)];
    let window = [0u64, 500, 2_000][rng.next_below(3)];
    let sharing = if rng.next_below(8) == 0 {
        IoSharing::Exclusive
    } else {
        IoSharing::Batched(SimTime::from_us(window))
    };
    let spread = window.max(250);
    let lanes = (0..2 + rng.next_below(4))
        .map(|_| DrawnLane {
            plan: if rng.next_below(2) == 0 { 0 } else { rng.next_below(fixture.plans.len()) },
            stripe: rng.next_below(4 * channels as usize) as u16,
            arrival: SimTime::from_us(
                [0, 0, spread / 2, spread, spread + 1, 2 * spread + 3][rng.next_below(6)],
            ),
        })
        .collect();
    (channels, sharing, lanes)
}

/// Runs one drawn case once per lane, that lane opened last: the
/// predictor's dispatches (`ServingMix::predicted_dispatches`) for it
/// against the mix of the others must be the scheduler's dispatch log for
/// the same lanes queued up front, and its predicted latency the contended
/// replay of that log. Both pick with the one `IoSharing::pick`, so this
/// guards how each builds the lane state it picks from: heads, stripes,
/// opening arrivals, cursors and key order.
fn check_case(fixture: &Differential, seed: u64, seen: &mut Seen) {
    let Differential { hw, source, plans } = fixture;
    let (channels, sharing, lanes) = drawn_case(fixture, seed);
    let topology = DeviceTopology::with_channels(channels);
    for candidate in 0..lanes.len() {
        let order: Vec<DrawnLane> = (0..lanes.len())
            .filter(|&i| i != candidate)
            .chain([candidate])
            .map(|i| lanes[i])
            .collect();
        let case = format!("seed {seed}: {channels} channels, {sharing:?}, lanes {order:?}");

        // The predictor: the last lane against the others.
        let jobs: Vec<Vec<LayerIoJob>> = order
            .iter()
            .map(|l| layer_io_jobs(hw, &plans[l.plan]).into_iter().flatten().collect())
            .collect();
        let mut mix = ServingMix::new(sharing).with_topology(topology);
        for (token, lane) in order[..order.len() - 1].iter().enumerate() {
            let load =
                CoRunnerLoad::from_plan_striped(hw, &plans[lane.plan], lane.arrival, lane.stripe);
            mix.push_session(token as u64, load, None);
        }
        let last = order[order.len() - 1];
        let load =
            EngagementLoad::from_plan_striped(hw, &plans[last.plan], last.arrival, last.stripe);
        let predicted = mix.predicted_dispatches(&load);

        // The scheduler, every request queued before the first dispatch.
        let cache = Arc::new(ShardCache::new(0));
        let sched = IoScheduler::spawn(source.clone(), hw.flash, cache, sharing, topology);
        let opened: Vec<IoChannel> = order
            .iter()
            .map(|lane| {
                let channel = sched.channel_striped_at(lane.arrival, lane.stripe);
                let plan = &plans[lane.plan];
                for pl in &plan.layers {
                    let items: Vec<(u16, Bitwidth)> = pl.streamed(&plan.preload).collect();
                    if !items.is_empty() {
                        channel.request(LayerRequest { layer: pl.layer, items }).unwrap();
                    }
                }
                channel
            })
            .collect();
        sched.drive_queued();
        let logged: Vec<PredictedDispatch> = sched.with_event_logs(|demand, _| {
            let lane = |id: u64| opened.iter().position(|c| c.id() == id).expect("an opened lane");
            let dispatch = |e: &FlashDispatchEvent| PredictedDispatch {
                lane: lane(e.channel),
                members: e.members.iter().map(|&m| lane(m)).collect(),
                device_channel: e.device_channel,
                arrival: e.arrival,
            };
            demand.iter().map(dispatch).collect()
        });
        assert_eq!(predicted, logged, "{case}");

        // The contended replay: each logged job once on its channel,
        // delivered to its leader and every member. It is priced at the
        // plan's profiled service times, as predictions are: the store's
        // records are smaller than the profile's maximum, and so are the
        // delays the scheduler logs.
        let mut next = vec![0usize; order.len()];
        let mut sim = TopologyQueueSim::new(topology);
        for d in &logged {
            let service = jobs[d.lane][next[d.lane]].service;
            for l in std::iter::once(d.lane).chain(d.members.iter().copied()) {
                next[l] += 1;
            }
            let job = FlashJob { engagement: d.lane as u64, arrival: d.arrival, service };
            let members: Vec<u64> = d.members.iter().map(|&m| m as u64).collect();
            sim.submit_shared_on(d.device_channel, job, &members);
        }
        let replayed = sim.run();

        let has_io: Vec<bool> = load.jobs.iter().map(Option::is_some).collect();
        let ends = replayed.completions_of(order.len() as u64 - 1);
        let io_ends = align_io_completions(&has_io, ends.iter().map(|c| c.completion))
            .expect("one logged job per streamed layer");
        let replay = contended_makespan(load.arrival, &io_ends, load.comp);
        assert_eq!(mix.predict(&load), replay, "{case}");

        // What the sample holds.
        let mut raised: Vec<bool> = vec![false; order.len()];
        for d in &logged {
            seen.beyond_channels += usize::from(channels > 1 && order[d.lane].stripe >= channels);
            let lanes_in = || std::iter::once(d.lane).chain(d.members.iter().copied());
            if !d.members.is_empty() {
                seen.cross_stripe +=
                    usize::from(d.members.iter().any(|&m| order[m].stripe != order[d.lane].stripe));
                seen.after_a_raise += usize::from(lanes_in().any(|l| raised[l]));
            }
            for l in lanes_in() {
                raised[l] |= d.arrival > order[l].arrival;
            }
        }
    }
}

/// The contended predictor groups exactly what the IO scheduler batches:
/// over seeded lane sets (one, two and four channels; stripes drawn
/// independently, beyond the channel count too; windows of 0, 500 µs and
/// 2 ms, and unbatched; arrivals tied, inside, at and past the window;
/// shared and distinct plans) every candidate's predicted dispatches equal
/// the scheduler's dispatch log and its prediction the log's contended
/// replay. The sample holds batches across stripes, batches formed after an
/// earlier one raised a cursor, and dispatches on stripes `≥ C`.
#[test]
fn the_predictor_groups_exactly_what_the_scheduler_batches() {
    let fixture = Differential::new();
    let mut seen = Seen::default();
    for seed in 0..36 {
        check_case(&fixture, seed, &mut seen);
    }
    assert!(
        seen.cross_stripe > 0 && seen.after_a_raise > 0 && seen.beyond_channels > 0,
        "a vacuous sample: {seen:?}"
    );
}

/// [`the_predictor_groups_exactly_what_the_scheduler_batches`] over 20 000
/// seeds. Seconds in release.
#[test]
#[ignore = "run under --release with --ignored"]
fn the_predictor_groups_exactly_what_the_scheduler_batches_over_a_long_sweep() {
    let fixture = Differential::new();
    let mut seen = Seen::default();
    for seed in 0..20_000 {
        check_case(&fixture, seed, &mut seen);
    }
    assert!(
        seen.cross_stripe > 0 && seen.after_a_raise > 0 && seen.beyond_channels > 0,
        "a vacuous sample: {seen:?}"
    );
}

#[test]
fn admission_rejects_predicted_slo_misses_and_admitted_engagements_meet_theirs() {
    let srv = server(AdmissionMode::Enforce);
    let generous = SimTime::from_ms(60_000);

    // Three well-behaved clients admit under a generous SLO...
    let admitted: Vec<Session> = (0..3)
        .map(|i| srv.session_with_slo(generous, 0).unwrap_or_else(|e| panic!("{i}: {e}")))
        .collect();
    // ...and the queue simulator's prediction for each meets its SLO.
    for s in &admitted {
        let served = s.serving_plan().expect("SLO sessions carry the search outcome");
        assert!(served.meets_slo);
        assert!(served.predicted_contended <= generous);
    }

    // A fourth client asks for the floor latency — achievable alone, but
    // the simulator predicts three co-runners push it past the SLO, and
    // admission control rejects the engagement.
    let tight = floor_makespan(&srv);
    match srv.session_with_slo(tight, 0) {
        Err(PipelineError::AdmissionRejected { predicted, slo, co_runners }) => {
            assert_eq!(co_runners, 3);
            assert_eq!(slo, tight);
            assert!(predicted > slo, "rejection must quote a predicted miss: {predicted} <= {slo}");
        }
        Ok(_) => panic!("the floor SLO must be rejected with 3 co-runners"),
        Err(other) => panic!("wrong error: {other}"),
    }
    let stats = srv.serving_stats();
    assert_eq!((stats.admitted_sessions, stats.rejected_sessions), (3, 1));

    // Run the admitted engagements; the measured contended track agrees:
    // every admitted engagement's contended latency meets its SLO.
    for s in &admitted {
        s.infer(&[1, 2, 3]).expect("admitted engagement executes");
    }
    let report = srv.contention_report();
    assert_eq!(report.engagements.len(), 3);
    for e in &report.engagements {
        assert_eq!(e.met_slo(), Some(true), "contended {} vs SLO {:?}", e.contended, e.slo);
        assert!(e.contended >= e.uncontended);
    }
    assert_eq!(report.slo_hit_rate(), Some(1.0));
}

#[test]
fn the_same_workload_admits_once_the_channel_frees_up() {
    let srv = server(AdmissionMode::Enforce);
    let tight = floor_makespan(&srv);
    // With no co-runners the floor SLO is exactly achievable.
    let alone = srv.session_with_slo(tight, 0).expect("floor SLO admits on an idle server");
    let served = alone.serving_plan().unwrap();
    assert!(served.meets_slo);
    assert_eq!(served.predicted_contended, tight, "alone, contended == uncontended == floor");
}

#[test]
fn full_replay_rejects_the_infeasible_client_and_serves_the_rest() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let mut cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        admission: AdmissionMode::Enforce,
        ..Default::default()
    };
    let floor = floor_makespan(&build_server(&ctx, &cfg));
    cfg.slo = Some(SimTime::from_ms(60_000));
    let mut trace = ServingTrace::synthetic(&ctx, &cfg, 4, 2);
    trace.clients[3].slo = Some(floor); // the aggressive client opens last

    let server = build_server(&ctx, &cfg);
    let report = replay_event(&server, &trace).unwrap();
    assert_eq!(report.rejected_clients, vec![3]);
    assert!(report.outcomes[3].is_empty());
    for outcomes in &report.outcomes[..3] {
        assert_eq!(outcomes.len(), 2, "admitted clients serve all engagements");
    }
    assert_eq!(report.contention.slo_hit_rate(), Some(1.0), "admitted engagements meet their SLOs");

    // And the deterministic track still matches a sequential replay.
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(report.outcomes, sequential.outcomes);
    assert_eq!(sequential.rejected_clients, vec![3]);
}

#[test]
fn predicted_contention_is_exact_alone_and_monotone_in_co_runners() {
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = importance_for(&cfg);
    for (t, s) in [(300u64, 0u64), (300, 16 << 10), (1_000, 0)] {
        let plan =
            plan_two_stage(&hw, &importance, SimTime::from_ms(t), s, &[2, 4], &Bitwidth::ALL);
        // `co` co-arriving clones of the plan, no IO sharing.
        let predict = |co: usize| {
            let clones = vec![CoRunnerLoad::from_plan(&hw, &plan); co];
            ServingMix::from_co_runners(&clones, IoSharing::Exclusive)
                .predict(&EngagementLoad::from_plan(&hw, &plan, SimTime::ZERO))
        };
        assert_eq!(predict(0), plan.predicted.makespan, "T={t} |S|={s}");
        let mut last = SimTime::ZERO;
        for co in [0usize, 1, 2, 4, 8] {
            let predicted = predict(co);
            assert!(predicted >= last, "contended latency must not shrink as co-runners grow");
            last = predicted;
        }
    }
}

#[test]
fn trace_file_round_trips_through_both_replay_modes() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        admission: AdmissionMode::Enforce,
        ..Default::default()
    };
    let trace = load_trace("examples/traces/smoke.json").expect("shipped example parses");
    let concurrent = replay_event(&build_server(&ctx, &cfg), &trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, &cfg), &trace).unwrap();
    assert_eq!(concurrent.outcomes, sequential.outcomes, "trace replay is deterministic");
    assert_eq!(concurrent.rejected_clients, sequential.rejected_clients);
    let served: usize = concurrent.outcomes.iter().map(Vec::len).sum();
    assert!(served > 0, "the example trace must serve work");
}
