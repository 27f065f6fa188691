//! Contracts of the shared-IO batching subsystem.
//!
//! Batching coalesces co-resident sessions' identical layer loads into one
//! fan-out flash job. Three things must hold:
//!
//! 1. **Determinism untouched.** Per-engagement results under batching are
//!    bit-identical to sequential (and to batching-off) replays — batching
//!    buys contended latency and flash bytes only.
//! 2. **The acceptance economics.** Eight identical-knob sessions arriving
//!    inside one window turn an 8× flash tax into 1×: the contention
//!    report shows flash-bytes-saved of exactly 7/8 of the unbatched byte
//!    total, and the batched contended p50 sits strictly below the
//!    unbatched one.
//! 3. **Queue invariants survive** (property tests): batched contended
//!    flash bytes never exceed unbatched, every fan-out recipient receives
//!    a bit-identical layer, and per-engagement FIFO is preserved.
//!
//! Determinism of the fan-outs themselves is arranged with the scheduler's
//! quiesce support (`pause_io`/`resume_io`): the whole co-resident workload
//! queues first, then releases in one burst.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sti::prelude::*;
use sti::TaskContext;

fn batched_cfg(window: Option<SimTime>) -> ServeConfig {
    ServeConfig {
        target: SimTime::from_ms(300),
        // Zero preload maximizes streaming through the shared scheduler —
        // the case batching exists for.
        preload_bytes: 0,
        io_workers: 2,
        batch_window: window,
        ..Default::default()
    }
}

#[test]
fn batched_concurrent_replay_is_bit_identical_to_sequential_and_unbatched() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let window = Some(SimTime::from_ms(1));
    let trace = ServingTrace::synthetic(&ctx, &batched_cfg(window), 8, 3);

    let batched = replay_event(&build_server(&ctx, &batched_cfg(window)), &trace).unwrap();
    let sequential = replay_sequential(&build_server(&ctx, &batched_cfg(window)), &trace).unwrap();
    let unbatched = replay_event(&build_server(&ctx, &batched_cfg(None)), &trace).unwrap();

    assert_eq!(
        batched.outcomes, sequential.outcomes,
        "batched concurrent execution must reproduce the sequential replay exactly"
    );
    assert_eq!(
        batched.outcomes, unbatched.outcomes,
        "batching must be invisible to the uncontended track"
    );
    assert_eq!(unbatched.contention.flash_bytes_saved, 0);
    assert_eq!(unbatched.contention.batched_dispatches, 0);
}

/// Runs `sessions` identical-knob sessions, one engagement each, with the
/// IO scheduler quiesced until the whole workload is queued — so every
/// dispatch sees all co-resident requests and fan-outs are deterministic.
fn run_quiesced(server: &StiServer, sessions: usize, tokens: &[u32]) -> ContentionReport {
    let opened: Vec<Session> =
        (0..sessions).map(|_| server.session().expect("session opens")).collect();
    let layers = opened[0].plan().layers.len();
    server.pause_io();
    let outcomes: Vec<Inference> = std::thread::scope(|s| {
        let handles: Vec<_> =
            opened.iter().map(|session| s.spawn(move || session.infer(tokens).unwrap())).collect();
        // Every engagement submits its full layer sequence up front; wait
        // until all of them are queued before releasing the flash.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.queued_io_requests() < sessions * layers {
            assert!(Instant::now() < deadline, "workload never finished queuing");
            std::thread::sleep(Duration::from_micros(200));
        }
        server.resume_io();
        handles.into_iter().map(|h| h.join().expect("engagement thread")).collect()
    });
    // Sanity: identical sessions produce identical (deterministic) results.
    for outcome in &outcomes[1..] {
        assert_eq!(outcome.probabilities, outcomes[0].probabilities);
        assert_eq!(outcome.outcome.loaded_bytes, outcomes[0].outcome.loaded_bytes);
    }
    server.contention_report()
}

#[test]
fn eight_in_window_sessions_save_seven_eighths_of_flash_bytes_and_shrink_p50() {
    let ctx = TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny());
    let tokens = [1u32, 2, 3];

    let batched_server = build_server(&ctx, &batched_cfg(Some(SimTime::from_ms(1))));
    let batched = run_quiesced(&batched_server, 8, &tokens);
    let unbatched_server = build_server(&ctx, &batched_cfg(None));
    let unbatched = run_quiesced(&unbatched_server, 8, &tokens);

    // Flash economics: the unbatched byte total is what the 8 engagements
    // would have read alone; batching coalesces every dispatch 8-ways, so
    // exactly 7/8 of it is never re-read.
    let unbatched_bytes = batched_server.io_stats().bytes;
    assert_eq!(unbatched_bytes, unbatched_server.io_stats().bytes, "same per-engagement traffic");
    assert!(unbatched_bytes > 0);
    assert_eq!(
        batched.flash_bytes_saved,
        unbatched_bytes / 8 * 7,
        "8 co-resident sessions must share every read: saved = 7/8 of unbatched bytes"
    );
    assert_eq!(unbatched.flash_bytes_saved, 0);
    assert!((batched.mean_batch_occupancy - 8.0).abs() < 1e-9, "every dispatch is 8-way");

    // Latency economics: the contended replay charges each shared job once,
    // so the batched p50 must sit strictly below the unbatched one.
    assert_eq!(batched.engagements.len(), 8);
    assert_eq!(unbatched.engagements.len(), 8);
    let batched_p50 = batched.latency_percentile(0.5);
    let unbatched_p50 = unbatched.latency_percentile(0.5);
    assert!(
        batched_p50 < unbatched_p50,
        "batched contended p50 {batched_p50} must be strictly below unbatched {unbatched_p50}"
    );
    // The flash itself did an eighth of the work.
    assert_eq!(batched.flash_busy * 8, unbatched.flash_busy, "shared jobs are served once");
    assert_eq!(unbatched.flash_busy, unbatched_server.io_stats().sim_flash_busy);
}

/// Scheduler-level fixture for the property tests: a tiny model's store
/// and a flash model, shared across both policies.
fn store_fixture() -> (Arc<ShardStore>, FlashModel) {
    let model = Model::synthetic(2, ModelConfig::tiny());
    let store = Arc::new(
        ShardStore::create_temp(&model, &[Bitwidth::B2, Bitwidth::B6], &QuantConfig::default())
            .unwrap(),
    );
    (store, FlashModel::new(1_000_000, SimTime::from_ms(1)))
}

/// Replays `workload` (per-channel request lists plus arrival offsets)
/// under `policy` with dispatch quiesced until everything is queued, and
/// returns each channel's received layers plus the event log.
fn replay_workload(
    store: Arc<ShardStore>,
    flash: FlashModel,
    policy: IoSharing,
    workload: &[(SimTime, Vec<LayerRequest>)],
) -> (Vec<Vec<LoadedLayer>>, Vec<FlashDispatchEvent>) {
    // A cache that keeps every shard of the tiny model, so each layer
    // arrives as payloads: a batch's one read fanned out, or a solo read.
    // Bytes and delays do not depend on cache hits.
    let cache = Arc::new(ShardCache::new(1 << 20));
    let sched = IoScheduler::spawn(store, flash, cache, policy, DeviceTopology::single());
    sched.pause_dispatch();
    let channels: Vec<IoChannel> =
        workload.iter().map(|(arrival, _)| sched.channel_striped_at(*arrival, 0)).collect();
    for ((_, requests), channel) in workload.iter().zip(&channels) {
        for request in requests {
            channel.request(request.clone()).unwrap();
        }
    }
    sched.resume_dispatch();
    let received = workload
        .iter()
        .zip(&channels)
        .map(|((_, requests), channel)| requests.iter().map(|_| channel.recv().unwrap()).collect())
        .collect();
    let events = sched.with_event_logs(|demand, _| demand.to_vec());
    (received, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random co-resident workloads (4 channels, arrivals straddling the
    /// window, arbitrary layer/slice/bitwidth mixes): batching never
    /// charges the contended track more flash bytes than no batching,
    /// every recipient's layer is bit-identical to its unbatched twin, and
    /// per-channel FIFO delivery is preserved.
    #[test]
    fn batched_replay_saves_bytes_and_preserves_fifo_and_payloads(
        samples in proptest::collection::vec((0u64..4, 0u16..2, 0u16..2, 0usize..2), 4..40),
    ) {
        let window = SimTime::from_us(300);
        let bitwidths = [Bitwidth::B2, Bitwidth::B6];
        // Deterministic arrivals: channels 0/1 inside one window, 2 far
        // away, 3 borderline.
        let arrivals =
            [SimTime::ZERO, SimTime::from_us(250), SimTime::from_ms(50), SimTime::from_us(300)];
        let mut workload: Vec<(SimTime, Vec<LayerRequest>)> =
            arrivals.iter().map(|&a| (a, Vec::new())).collect();
        for &(channel, layer, slice, bw) in &samples {
            workload[channel as usize]
                .1
                .push(LayerRequest { layer, items: vec![(slice, bitwidths[bw])] });
        }

        let (store, flash) = store_fixture();
        let (unbatched_layers, unbatched_events) =
            replay_workload(store.clone(), flash, IoSharing::Exclusive, &workload);
        let (batched_layers, batched_events) =
            replay_workload(store, flash, IoSharing::Batched(window), &workload);

        // Contended flash bytes (each event charged once) can only shrink.
        let charged = |events: &[FlashDispatchEvent]| -> u64 {
            events.iter().map(|e| e.bytes).sum()
        };
        prop_assert!(charged(&batched_events) <= charged(&unbatched_events));
        // ...and what shrank is exactly the ledgered fan-out savings.
        let saved: u64 = batched_events.iter().map(|e| e.bytes * e.members.len() as u64).sum();
        prop_assert_eq!(charged(&batched_events) + saved, charged(&unbatched_events));

        // Per-channel FIFO and bit-identical fan-out payloads: each
        // channel's receive sequence matches its submission order and its
        // unbatched twin exactly.
        for (channel, ((_, requests), (batched, unbatched))) in workload
            .iter()
            .zip(batched_layers.iter().zip(&unbatched_layers))
            .enumerate()
        {
            prop_assert_eq!(batched.len(), requests.len());
            for (slot, ((request, b), u)) in
                requests.iter().zip(batched).zip(unbatched).enumerate()
            {
                prop_assert_eq!(b.layer, request.layer, "channel {} slot {}", channel, slot);
                prop_assert_eq!(b.layer, u.layer);
                prop_assert_eq!(b.bytes, u.bytes);
                prop_assert_eq!(b.io_delay, u.io_delay);
                prop_assert_eq!(b.shards.len(), u.shards.len());
                for ((bs, bb), (us, ub)) in b.shards.iter().zip(&u.shards) {
                    prop_assert_eq!(bs, us);
                    prop_assert!(bb.blob().is_some(), "the cache keeps every shard");
                    prop_assert_eq!(bb, ub, "fan-out payloads must be bit-identical");
                }
            }
        }

        // Channel 2 arrived far outside everyone's window: none of its
        // requests may ride a batch, and nobody may ride its.
        let far = 2u64;
        for event in &batched_events {
            if event.fanout() > 1 {
                prop_assert!(event.channel != far && !event.members.contains(&far));
            }
        }
    }
}
