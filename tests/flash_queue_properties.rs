//! Property tests pinning the queue-model invariants of the contended
//! track (offline proptest stub: deterministically seeded samples):
//!
//! 1. contended latency ≥ uncontended latency, per job and per engagement;
//! 2. flash busy-time conservation — the simulator's busy time is exactly
//!    the sum of submitted service times;
//! 3. FIFO order preserved per channel (and the server never overlaps two
//!    jobs).

use proptest::prelude::*;
use sti::prelude::*;

/// Builds a job list from sampled (engagement, inter-arrival µs, service
/// µs) triples. Arrivals are prefix sums per engagement in submission
/// order, so every engagement's jobs arrive in FIFO order — the contract
/// the IO scheduler's dispatch log guarantees by construction.
fn build_jobs(samples: &[(u64, u64, u64)]) -> Vec<FlashJob> {
    let mut clock = std::collections::HashMap::new();
    samples
        .iter()
        .map(|&(engagement, gap_us, service_us)| {
            let engagement = engagement % 5;
            let at = clock.entry(engagement).or_insert(SimTime::ZERO);
            *at += SimTime::from_us(gap_us);
            FlashJob { engagement, arrival: *at, service: SimTime::from_us(service_us) }
        })
        .collect()
}

/// Serves `jobs` on one device channel.
fn run(jobs: &[FlashJob]) -> TopologyReport {
    let mut sim = TopologyQueueSim::new(DeviceTopology::single());
    for &job in jobs {
        sim.submit_on(0, job);
    }
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn busy_time_is_exactly_the_sum_of_service_times(
        samples in proptest::collection::vec((0u64..5, 0u64..20_000, 1u64..10_000), 1..60),
    ) {
        let jobs = build_jobs(&samples);
        let report = run(&jobs);
        let total: SimTime = jobs.iter().map(|j| j.service).sum();
        prop_assert_eq!(report.busy(), total);
        prop_assert_eq!(report.completions().len(), jobs.len());
        // A single server can never finish earlier than its busy time.
        prop_assert!(report.makespan() >= report.busy());
    }

    #[test]
    fn contended_latency_dominates_uncontended_per_job_and_engagement(
        samples in proptest::collection::vec((0u64..5, 0u64..20_000, 1u64..10_000), 1..60),
    ) {
        let jobs = build_jobs(&samples);
        let report = run(&jobs);
        for c in &report.completions() {
            let job = jobs[c.seq];
            // Per job: queueing can only add latency over the service time.
            prop_assert!(c.completion >= c.arrival + job.service);
            prop_assert_eq!(c.completion - c.start, job.service);
        }
        // Per engagement: last contended completion can never beat the
        // engagement's own back-to-back service from its first arrival.
        for engagement in 0..5u64 {
            let mine: Vec<_> = jobs.iter().filter(|j| j.engagement == engagement).collect();
            if mine.is_empty() {
                continue;
            }
            let first_arrival = mine.iter().map(|j| j.arrival).min().unwrap_or(SimTime::ZERO);
            let service_sum: SimTime = mine.iter().map(|j| j.service).sum();
            let last = report
                .completions_of(engagement)
                .iter()
                .map(|c| c.completion)
                .max()
                .expect("engagement has jobs");
            prop_assert!(
                last >= first_arrival + service_sum,
                "engagement {}: contended end {} beats uncontended floor {}",
                engagement,
                last,
                first_arrival + service_sum
            );
        }
    }

    #[test]
    fn fifo_per_engagement_and_no_server_overlap(
        samples in proptest::collection::vec((0u64..5, 0u64..20_000, 1u64..10_000), 1..60),
    ) {
        let jobs = build_jobs(&samples);
        let report = run(&jobs);
        // Per engagement: completions in submission order, non-overlapping.
        for engagement in 0..5u64 {
            let mine = report.completions_of(engagement);
            for pair in mine.windows(2) {
                prop_assert!(pair[0].seq < pair[1].seq, "FIFO order broken");
                prop_assert!(pair[0].completion <= pair[1].start);
            }
        }
        // Globally: one flash channel, jobs in service order never overlap.
        for pair in report.completions().windows(2) {
            prop_assert!(pair[0].completion <= pair[1].start);
        }
    }
}

/// The scheduler end of the same invariants: a live `IoScheduler`'s event
/// log replayed through the simulator conserves busy time and preserves
/// each channel's FIFO order.
#[test]
fn scheduler_event_log_upholds_the_queue_invariants() {
    use std::sync::Arc;
    let cfg = ModelConfig::tiny();
    let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
    let source = Arc::new(
        ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
    );
    let importance = ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    );
    let dev = DeviceProfile::odroid_n2();
    let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
    let server = StiServer::new(
        task.model().clone(),
        source,
        hw,
        importance,
        &ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            widths: Some(vec![2, 4]),
            ..ServeConfig::default()
        },
    );
    let session = server.session().unwrap();
    for tokens in [[1u32, 2].as_slice(), &[3], &[4, 5]] {
        session.infer(tokens).unwrap();
    }
    let report = server.contention_report();
    assert_eq!(report.flash_busy, server.io_stats().sim_flash_busy, "busy-time conservation");
    for e in &report.engagements {
        assert!(e.contended >= e.uncontended, "contended dominates uncontended");
    }
}
