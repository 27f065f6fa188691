//! Cross-commit goldens for the serving exports.
//!
//! The run-twice suites (`serving_obs`, `serving_event`) pin that one
//! build reproduces *itself*. This suite pins that a build reproduces the
//! **previous** one: every shipped trace fixture is replayed on the tiny
//! model under three configurations — the default flags, the stacked one
//! (`--channels 4 --backpressure queue --max-queue-ms 2000 --batch-window
//! 500 --prefetch markov`), and the residual one, which sets every serving
//! knob the other two leave at its default — and three exports are
//! compared byte for byte against files under `tests/golden/`:
//!
//! - `<fixture>.<config>.trace.json` — the deterministic-track
//!   Chrome-trace export ([`chrome_trace_json`]);
//! - `<fixture>.<config>.metrics.json` — the merged metrics snapshot;
//! - `<fixture>.<config>.contention.txt` — the full [`ContentionReport`]
//!   (pretty `Debug`: every engagement row, every gate decision with its
//!   reason, the queue aggregates, the speculation block).
//!
//! A refactor that claims "no behaviour change" passes this suite
//! unmodified. A change that *means* to move an export regenerates the
//! files with `STI_BLESS_GOLDEN=1 cargo test --test serving_golden` and
//! reviews the diff like any other.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, Weak};

use sti::prelude::*;
use sti::TaskContext;

/// One context for the suite, shared by the tests running at the moment and
/// dropped with the last of them. A `static` context would never drop, and
/// its on-disk shard store would outlive the test process.
fn ctx() -> Arc<TaskContext> {
    static CTX: Mutex<Weak<TaskContext>> = Mutex::new(Weak::new());
    let mut slot = CTX.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    slot.upgrade().unwrap_or_else(|| {
        let fresh = Arc::new(TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny()));
        *slot = Arc::downgrade(&fresh);
        fresh
    })
}

/// `--channels 4 --backpressure queue --max-queue-ms 2000 --batch-window
/// 500 --prefetch markov` on top of the defaults (`ServeConfig::default()`
/// is what `sti serve --task sst2 --model tiny` resolves its flags to).
fn stacked_flags() -> ServeConfig {
    ServeConfig {
        channels: 4,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(2_000)),
        batch_window: Some(SimTime::from_us(500)),
        prefetch: PrefetchConfig::markov(64 << 10),
        ..Default::default()
    }
}

/// Every server knob the default and stacked configurations leave at its
/// default: `--admission enforce --backpressure shed --plan-sharing mix
/// --dram-hits 1 --shard-cache-kb 1 --channels 2 --batch-window 500`.
fn residual_flags() -> ServeConfig {
    ServeConfig {
        admission: AdmissionMode::Enforce,
        backpressure: BackpressureMode::Shed,
        plan_sharing: PreloadPolicy::SharingAware,
        dram_residency: true,
        shard_cache_bytes: 1 << 10,
        channels: 2,
        batch_window: Some(SimTime::from_us(500)),
        ..Default::default()
    }
}

/// Compares `actual` against the checked-in golden (or rewrites it under
/// `STI_BLESS_GOLDEN=1`), naming the first differing line on a mismatch.
fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("STI_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} is unreadable: {e}", path.display()));
    if want == actual {
        return;
    }
    let line = want.lines().zip(actual.lines()).position(|(w, a)| w != a);
    let (w, a) = match line {
        Some(i) => (want.lines().nth(i).unwrap(), actual.lines().nth(i).unwrap()),
        None => ("<one export is a prefix of the other>", ""),
    };
    panic!(
        "{name} diverged from its golden at line {}:\n  golden: {w}\n  actual: {a}\n\
         (re-bless with STI_BLESS_GOLDEN=1 only if the change is intended)",
        line.map_or(want.lines().count().min(actual.lines().count()), |i| i) + 1,
    );
}

fn replay_against_goldens(config: &str, cfg: &ServeConfig) {
    let ctx = ctx();
    for fixture in ["smoke", "burst", "mix", "recurrent"] {
        let trace =
            load_trace(format!("examples/traces/{fixture}.json")).expect("shipped example parses");
        let server = build_server(&ctx, cfg);
        // As `sti serve --trace-out` does: the live ring adds the
        // admission markers to the session tracks.
        server.set_obs_sink(ObsSink::ring(8 << 20));
        let report = replay_event(&server, &trace).unwrap();
        check(
            &format!("{fixture}.{config}.trace.json"),
            &chrome_trace_json(&report.spans, TrackFilter::Deterministic),
        );
        check(&format!("{fixture}.{config}.metrics.json"), &report.metrics.to_json());
        check(
            &format!("{fixture}.{config}.contention.txt"),
            &format!("{:#?}\n", report.contention),
        );
    }
}

#[test]
fn default_flag_replays_match_the_checked_in_goldens() {
    replay_against_goldens("default", &ServeConfig::default());
}

#[test]
fn stacked_flag_replays_match_the_checked_in_goldens() {
    replay_against_goldens("stacked", &stacked_flags());
}

#[test]
fn residual_flag_replays_match_the_checked_in_goldens() {
    replay_against_goldens("residual", &residual_flags());
}
