//! The paper's orderings at the shipped model scale — the first slice of
//! ROADMAP item 6(c). The kernels, the quantiser, the importance profiler and
//! now the transcendentals under these numbers have each been pinned bit for
//! bit to their predecessor; this suite pins them to the *paper* instead:
//! STI's accuracy grows with the target latency `T` and with the preload
//! buffer `|S|`, and at equal `T` it is at least that of the baselines that
//! load before executing or pipeline at one fidelity (§7.2, Table 5).
//!
//! Accuracy is measured on a 128-example test split, so two plans of equal
//! quality differ by sampling noise: an ordering holds here when it is not
//! violated by more than two standard errors of a proportion at that split
//! size, `2·√(¼/n) = 1/√n` (0.088). On this synthetic model SST-2 climbs
//! from 0.74 to 0.89 across the grid while RTE stays within 0.54–0.61, so
//! for RTE the bound chiefly says that nothing collapses; exact monotonicity
//! holds at neither task at any commit (CHANGES.md, PR 22, lists the
//! inversions).
//!
//! A set-up per task at `scaled_bert()` and 18 evaluated plans each: seconds
//! under `--release`, minutes without, so the test is `#[ignore]`d and CI
//! runs it optimised.

use sti::prelude::*;

const TARGETS_MS: [u64; 3] = [120, 200, 400];
const PRELOAD_BYTES: [u64; 4] = [0, 16 << 10, 64 << 10, 256 << 10];

#[test]
#[ignore = "two scaled_bert() set-ups and 36 evaluated plans: run under --release (CI does)"]
fn sti_accuracy_grows_with_target_and_preload_and_is_no_lower_than_the_baselines() {
    let device = DeviceProfile::odroid_n2();
    for kind in [TaskKind::Sst2, TaskKind::Rte] {
        let ctx = TaskContext::new(kind);
        let noise = 1.0 / (ctx.task().test().len() as f64).sqrt();
        let accuracy = |baseline, t_ms, preload_bytes| {
            let target = SimTime::from_ms(t_ms);
            let point = Experiment { baseline, device: device.clone(), target, preload_bytes };
            run_experiment(&ctx, &point).accuracy
        };
        let mut ours = Vec::new();
        for t in TARGETS_MS {
            for s in PRELOAD_BYTES {
                ours.push((t, s, accuracy(Baseline::Sti, t, s)));
            }
        }
        for &(t, s, here) in &ours {
            for &(later, larger, there) in &ours {
                if (later > t && larger == s) || (later == t && larger > s) {
                    assert!(
                        there >= here - noise,
                        "{}: {here} at T = {t} ms, |S| = {s} B but {there} at T = {later} ms, \
                         |S| = {larger} B",
                        kind.name()
                    );
                }
            }
        }
        // The baselines of `baseline_ordering_holds_on_tiny_grid`; they hold
        // no preload buffer, so one run per target serves every `|S|`.
        for t in TARGETS_MS {
            for baseline in [Baseline::LoadAndExec, Baseline::StdPipeline(Bitwidth::Full)] {
                let theirs = accuracy(baseline, t, 0);
                for &(_, s, here) in ours.iter().filter(|point| point.0 == t) {
                    assert!(
                        here >= theirs - noise,
                        "{}: {here} at T = {t} ms, |S| = {s} B but {} reaches {theirs}",
                        kind.name(),
                        baseline.name()
                    );
                }
            }
        }
    }
}
