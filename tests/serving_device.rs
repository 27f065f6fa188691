//! Contracts of the multi-channel device topology (`sti-device`'s
//! `DeviceTopology`/`TopologyQueueSim`) and its serving-path integration:
//!
//! 1. **Queue-model invariants per device channel** (proptests): busy-time
//!    conservation channel by channel, FIFO service order within a
//!    channel, each channel's server never overlaps two jobs, and no job
//!    ever migrates to a channel it was not submitted to.
//! 2. **A channel ≡ one independent queue.** For `C ∈ 1..=4` every
//!    channel's report is bit-identical to an independently fed
//!    single-channel queue on arbitrary job streams (shared jobs included),
//!    and a `channels: 1` server reproduces the default server's outcomes,
//!    gate decisions, and contended latencies on every shipped fixture.
//! 3. **Placement wins admissions.** Striping a fleet across `C = 4`
//!    channels admits an SLO session that the single-channel device
//!    rejects at the same SLO — the planner's placement axis turns
//!    channel parallelism into admission headroom.
//! 4. **Per-device-channel observability.** A `C = 4` replay exports
//!    byte-identically run to run on the deterministic tracks and mints
//!    the `io.channel.<c>.*` instruments.
//! 5. **A plain session's placement.** It takes the stripe its own solo
//!    run is best on (256 salts under exclusive IO, `0..C` under
//!    batching), and its IO lane reads exactly where that stripe places
//!    its reads.

use proptest::prelude::*;
use sti::prelude::*;
use sti::TaskContext;
use sti_planner::{contended_makespan, layer_io_jobs};

const CHANNELS: u16 = 4;

/// Builds `(device_channel, job)` pairs from sampled tuples. Arrivals are
/// prefix sums per engagement in submission order — the FIFO contract the
/// IO scheduler's dispatch log guarantees by construction.
fn build_routed_jobs(samples: &[(u16, u64, u64, u64)]) -> Vec<(u16, FlashJob)> {
    let mut clock = std::collections::HashMap::new();
    samples
        .iter()
        .map(|&(channel, engagement, gap_us, service_us)| {
            let engagement = engagement % 5;
            let at = clock.entry(engagement).or_insert(SimTime::ZERO);
            *at += SimTime::from_us(gap_us);
            (
                channel % CHANNELS,
                FlashJob { engagement, arrival: *at, service: SimTime::from_us(service_us) },
            )
        })
        .collect()
}

fn run_topology(routed: &[(u16, FlashJob)]) -> TopologyReport {
    let mut sim = TopologyQueueSim::new(DeviceTopology::with_channels(CHANNELS));
    for &(channel, job) in routed {
        sim.submit_on(channel, job);
    }
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn busy_time_is_conserved_per_device_channel(
        samples in proptest::collection::vec(
            (0u16..CHANNELS, 0u64..5, 0u64..20_000, 1u64..10_000),
            1..60,
        ),
    ) {
        let routed = build_routed_jobs(&samples);
        let report = run_topology(&routed);
        prop_assert_eq!(report.channels.len(), CHANNELS as usize);
        // Channel by channel: busy time is exactly the sum of the service
        // times submitted to that channel — work never leaks across lanes.
        for c in 0..CHANNELS {
            let submitted: SimTime = routed
                .iter()
                .filter(|(ch, _)| *ch == c)
                .map(|(_, j)| j.service)
                .sum();
            prop_assert_eq!(report.channels[c as usize].busy, submitted, "channel {}", c);
            // A single channel server can never finish before its work.
            prop_assert!(report.channels[c as usize].makespan >= report.channels[c as usize].busy);
        }
        let total: SimTime = routed.iter().map(|(_, j)| j.service).sum();
        prop_assert_eq!(report.busy(), total);
        prop_assert_eq!(report.completions().len(), routed.len());
    }

    #[test]
    fn fifo_within_a_channel_and_jobs_never_migrate(
        samples in proptest::collection::vec(
            (0u16..CHANNELS, 0u64..5, 0u64..20_000, 1u64..10_000),
            1..60,
        ),
    ) {
        let routed = build_routed_jobs(&samples);
        let report = run_topology(&routed);
        for c in 0..CHANNELS as usize {
            // Each channel's server works one job at a time, in FIFO order
            // of (arrival, submission seq) — never overlapping two jobs.
            for pair in report.channels[c].completions.windows(2) {
                prop_assert!(pair[0].completion <= pair[1].start, "channel {} overlapped", c);
                prop_assert!(
                    (pair[0].arrival, pair[0].seq) <= (pair[1].arrival, pair[1].seq),
                    "channel {} broke FIFO",
                    c
                );
            }
            // No cross-channel service: a channel completes exactly the
            // global submission seqs routed to it, nothing else.
            let mut submitted: Vec<usize> = routed
                .iter()
                .enumerate()
                .filter(|(_, (ch, _))| *ch as usize == c)
                .map(|(seq, _)| seq)
                .collect();
            submitted.sort_unstable();
            let mut served: Vec<usize> =
                report.channels[c].completions.iter().map(|j| j.seq).collect();
            served.sort_unstable();
            prop_assert_eq!(served, submitted, "channel {} served foreign jobs", c);
        }
    }

    /// Every channel ≡ one independent queue, at the simulator level: for
    /// `C ∈ 1..=4`, channel `c`'s report is exactly an independently fed
    /// single-channel queue of the jobs routed to `c`, its sequence numbers
    /// mapped through the global submission order — shared jobs included.
    #[test]
    fn every_channel_is_bitwise_an_independent_flash_queue_sim(
        channels in 1u16..=CHANNELS,
        samples in proptest::collection::vec(
            (0u16..CHANNELS, 0u64..5, 0u64..20_000, 1u64..10_000),
            1..60,
        ),
    ) {
        let routed = build_routed_jobs(&samples);
        let mut topo = TopologyQueueSim::new(DeviceTopology::with_channels(channels));
        let mut queues =
            vec![TopologyQueueSim::new(DeviceTopology::single()); channels as usize];
        let mut global: Vec<Vec<usize>> = vec![Vec::new(); channels as usize];
        for (seq, &(channel, job)) in routed.iter().enumerate() {
            let c = channel % channels;
            // Every third job is a batch fanned out to a foreign recipient.
            let recipients: &[u64] = if seq % 3 == 0 { &[100 + job.engagement] } else { &[] };
            prop_assert_eq!(topo.submit_shared_on(c, job, recipients), seq);
            queues[c as usize].submit_shared_on(0, job, recipients);
            global[c as usize].push(seq);
        }
        let got = topo.run();
        prop_assert_eq!(got.channels.len(), channels as usize);
        for (c, queue) in queues.iter().enumerate() {
            let mut want = queue.run().channels.remove(0);
            for done in &mut want.completions {
                done.seq = global[c][done.seq];
            }
            prop_assert_eq!(&got.channels[c], &want, "channel {} of {}", c, channels);
        }
        if channels == 1 {
            // Global and channel-local sequences coincide: the report is
            // the single queue's, verbatim.
            let want = queues[0].run();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got.completions(), want.completions());
        }
    }
}

fn ctx() -> TaskContext {
    TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny())
}

/// `tiny()` at eight layers: a plan streams enough layers that where its
/// reads land decides how fast it runs.
fn deep_ctx() -> TaskContext {
    TaskContext::with_config(TaskKind::Sst2, ModelConfig { layers: 8, ..ModelConfig::tiny() })
}

/// `C = 1` is the default, at the server level: on every shipped fixture
/// an explicit `channels: 1` server is bit-identical to the default
/// server — per-engagement outcomes, gate decisions, and the whole
/// contended report alike.
#[test]
fn explicit_single_channel_matches_the_default_device_on_shipped_fixtures() {
    let ctx = ctx();
    for path in
        ["examples/traces/smoke.json", "examples/traces/burst.json", "examples/traces/mix.json"]
    {
        let trace = load_trace(path).expect("shipped example parses");
        let legacy = ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            backpressure: BackpressureMode::Queue(SimTime::from_ms(2_000)),
            ..Default::default()
        };
        let pinned = ServeConfig { channels: 1, ..legacy.clone() };
        let want = replay_event(&build_server(&ctx, &legacy), &trace).unwrap();
        let got = replay_event(&build_server(&ctx, &pinned), &trace).unwrap();
        assert_eq!(got.outcomes, want.outcomes, "{path}");
        assert_eq!(got.rejected_clients, want.rejected_clients, "{path}");
        // The event executor is run-to-run deterministic down to the
        // contended rows (gate log included), so the pin is exact.
        assert_eq!(got.contention, want.contention, "{path}");
    }
}

/// Whether a `channels`-wide server admits one SLO session against a
/// six-strong plain fleet at `slo`.
fn admits(ctx: &TaskContext, channels: u16, slo: SimTime) -> bool {
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        admission: AdmissionMode::Enforce,
        channels,
        ..Default::default()
    };
    let server = build_server(ctx, &cfg);
    let fleet = server.open_fleet(6, cfg.target, 0).expect("plain opens are ungated");
    let admitted = server.session_with_slo(slo, 0).is_ok();
    drop(fleet);
    admitted
}

/// The acceptance claim of the placement axis: striping across `C = 4`
/// admits an SLO session that the single-channel device rejects at the
/// *same* SLO. Six identical co-runners serialize on one channel but
/// spread across four, so the planner's striped prediction clears SLOs
/// the single-lane prediction cannot.
#[test]
fn striping_across_four_channels_admits_where_one_channel_rejects() {
    let ctx = ctx();
    let probe = build_server(&ctx, &ServeConfig { preload_bytes: 0, ..Default::default() });
    let floor = probe.session_with(SimTime::from_us(1), 0).unwrap().plan().predicted.makespan;
    drop(probe);
    // Scan SLOs from just above the uncontended floor to far beyond it;
    // somewhere in between, channel parallelism is the difference between
    // admit and reject.
    let mut witness = None;
    for k in 5..=48u64 {
        let slo = SimTime::from_us(floor.as_us() * k / 4);
        let one = admits(&ctx, 1, slo);
        let four = admits(&ctx, 4, slo);
        if four && !one {
            witness = Some(slo);
            break;
        }
    }
    let witness = witness.expect("some SLO admits striped C=4 but rejects C=1");
    // Pin the witness's shape explicitly for the failure message.
    assert!(admits(&ctx, 4, witness) && !admits(&ctx, 1, witness), "witness {witness} regressed");
}

/// A plain session's solo run on `stripe` of a `C = 4` device: its plan's
/// streamed reads queued FIFO per channel in layer order from time zero,
/// ranked by the latency their pipeline recurrence gives, then by the
/// busiest channel's sum (the solo IO makespan).
fn solo_on_four(hw: &HwProfile, plan: &ExecutionPlan, stripe: u16) -> (SimTime, SimTime) {
    let topology = DeviceTopology::with_channels(4);
    let mut free = [SimTime::ZERO; 4];
    let io_ends: Vec<Option<SimTime>> = layer_io_jobs(hw, plan)
        .into_iter()
        .map(|job| {
            job.map(|job| {
                let channel = topology.channel_for(job.sig, stripe) as usize;
                free[channel] += job.service;
                free[channel]
            })
        })
        .collect();
    let latency = contended_makespan(SimTime::ZERO, &io_ends, hw.t_comp(plan.shape.width));
    (latency, free.into_iter().max().unwrap())
}

/// A plain session takes the stripe that serves its own reads best, and
/// keeps its round-robin stripe, `token mod 4`, wherever that stripe ties.
/// On an exclusive `C = 4` device the search ranks 256 salts by solo
/// latency, then solo IO makespan ([`solo_on_four`]), and on this plan the
/// best of them beats every stripe of `0..4`. Under a batch window a
/// stripe is also where identical reads meet, and the search keeps to
/// `0..4`, ranked by solo IO makespan alone.
#[test]
fn plain_sessions_take_the_stripe_that_balances_their_own_reads() {
    let ctx = deep_ctx();
    for batch_window in [None, Some(SimTime::from_ms(2))] {
        let cfg = ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            channels: 4,
            batch_window,
            ..Default::default()
        };
        let server = build_server(&ctx, &cfg);
        let hw = HwProfile::measure(&cfg.device, ctx.task().model().config(), ctx.quant());
        let fleet = server.open_fleet(8, cfg.target, 0).unwrap();
        let plan = fleet[0].plan();
        assert!(layer_io_jobs(&hw, plan).iter().any(Option::is_some), "the plan streams");
        let rank = |stripe: u16| {
            let (latency, makespan) = solo_on_four(&hw, plan, stripe);
            if batch_window.is_some() {
                (SimTime::ZERO, makespan)
            } else {
                (latency, makespan)
            }
        };
        let searched = if batch_window.is_some() { 4 } else { 256 };
        let best = (0..searched).map(rank).min().unwrap();
        let mut moved = 0;
        for session in &fleet {
            let (token, stripe) = (session.token(), session.stripe());
            assert_eq!(rank(stripe), best, "{batch_window:?}: session {token} on stripe {stripe}");
            let round_robin = (token % 4) as u16;
            if rank(round_robin) == best {
                assert_eq!(stripe, round_robin, "a tie keeps the round-robin stripe");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "on this plan some round-robin stripe piles reads onto one channel");
        if batch_window.is_none() {
            assert!((0..4).all(|s| best < rank(s)), "a salt beyond 0..4 serves this plan best");
        }
    }
}

/// One engagement alone on an exclusive `C = 4` device reads on the
/// channels its session's stripe was chosen for: the report's queue
/// makespan is the busiest channel's sum of the engagement's own IO delays
/// placed with that stripe, as the registry, the predictor and the
/// prefetcher place them. The stripe is a salt beyond `0..4`, so an IO lane
/// that reduced it modulo the channel count would read elsewhere.
#[test]
fn a_lone_engagement_reads_where_its_salt_places_it() {
    let ctx = deep_ctx();
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        channels: 4,
        ..Default::default()
    };
    let server = build_server(&ctx, &cfg);
    let hw = HwProfile::measure(&cfg.device, ctx.task().model().config(), ctx.quant());
    let topology = server.device_topology();
    let session = server.session().unwrap();
    let stripe = session.stripe();
    assert!(stripe >= 4, "the plan's best salt lies beyond 0..4, got {stripe}");
    let inference = session.infer(&[1, 2, 3]).unwrap();
    // The engagement's reads, in layer order, with the delays it paid.
    let reads: Vec<(u64, SimTime)> = layer_io_jobs(&hw, session.plan())
        .into_iter()
        .zip(&inference.outcome.timeline.layers)
        .filter_map(|(job, layer)| job.map(|job| (job.sig, layer.io_end - layer.io_start)))
        .collect();
    let makespan_on = |stripe: u16| {
        let mut busy = [SimTime::ZERO; 4];
        for &(sig, io) in &reads {
            busy[topology.channel_for(sig, stripe) as usize] += io;
        }
        busy.into_iter().max().unwrap()
    };
    assert_ne!(makespan_on(stripe), makespan_on(stripe % 4), "the pin tells the two apart");
    let report = server.contention_report();
    assert_eq!(report.engagements.len(), 1);
    assert_eq!(report.queue_makespan, makespan_on(stripe));
}

/// Per-device-channel observability: a `C = 4` replay (a) run-twice
/// exports byte-identical Chrome-trace JSON on the deterministic tracks
/// and identical metrics snapshots, and (b) mints the per-channel
/// `io.channel.<c>.*` instruments that a single-channel server omits.
#[test]
fn striped_replay_observability_is_deterministic_and_per_channel() {
    let ctx = ctx();
    let cfg = ServeConfig {
        target: SimTime::from_ms(300),
        preload_bytes: 0,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(2_000)),
        channels: 4,
        ..Default::default()
    };
    let trace = load_trace("examples/traces/mix.json").expect("shipped example parses");
    // A bare report carries no spans: read the stream from the server's
    // logs after the replay.
    let replay = || {
        let server = build_server(&ctx, &cfg);
        let report = replay_event(&server, &trace).unwrap();
        let spans = server.trace_spans();
        assert!(!spans.is_empty(), "the striped replay logs a span stream");
        (report, chrome_trace_json(&spans, TrackFilter::Deterministic))
    };
    let (a, a_trace) = replay();
    let (b, b_trace) = replay();
    assert_eq!(a_trace, b_trace, "striped deterministic tracks are byte-identical");
    assert_eq!(a.metrics.to_json(), b.metrics.to_json(), "striped metrics reproduce");
    let metrics = a.metrics.to_json();
    assert!(metrics.contains("io.channel."), "C=4 mints per-channel instruments: {metrics}");
    // The single-channel server keeps its legacy instrument surface.
    let single = ServeConfig { channels: 1, ..cfg };
    let legacy = replay_event(&build_server(&ctx, &single), &trace).unwrap();
    assert!(
        !legacy.metrics.to_json().contains("io.channel."),
        "C=1 keeps the legacy instrument surface"
    );
}
