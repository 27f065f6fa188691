//! `selftest`: shows that each metric moves when the thing it measures is
//! changed. Every perturbation is made from the benchmark's side through
//! public configuration; the program is never edited.

use std::collections::BTreeMap;

use crate::bench::{self, Env, Options, RunParams};
use crate::spec;
use crate::tracer::Tracer;
use crate::workloads;

/// Share of the full length each selftest phase runs.
pub const LENGTH: f64 = 0.125;

fn measure(
    env: &Env,
    name: &str,
    seed: u64,
    seconds: f64,
    opts: Options,
) -> BTreeMap<&'static str, f64> {
    let p =
        RunParams { workload: spec::workload(name).expect("known workload"), seed, seconds, opts };
    let mut w = workloads::build(env, &p, false);
    let phase = bench::run_phase(&mut *w, env, &mut Tracer::new(false));
    let mut m = phase.sim_end_to_end();
    m.extend(phase.host_op_loop());
    m.extend(phase.layer_counts());
    m.insert("attempted", phase.acc.attempted as f64);
    m.insert("io_requests", (phase.after.io.requests - phase.before.io.requests) as f64);
    m
}

/// Runs every sensitivity and non-degeneracy check; returns the report and
/// whether all held.
pub fn run(seed: u64, seconds: f64) -> (Vec<String>, bool) {
    let env = Env::build();
    let base = Options { length: LENGTH, ..Options::default() };
    let mut lines = Vec::new();
    let mut pass = true;
    let mut expect = |what: &str, ok: bool, detail: String| {
        lines.push(format!("{} {what}: {detail}", if ok { "ok  " } else { "FAIL" }));
        pass &= ok;
    };

    let burst = measure(&env, "burst_shared", seed, seconds, base);
    let one_channel =
        measure(&env, "burst_shared", seed, seconds, Options { channels: Some(1), ..base });
    // `contended` is service-onward: on one FIFO channel every same-plan
    // client shares the only stripe and batches, so the median *falls*
    // while the wait before the first service grows. The checks assert
    // what the program does: less capacity, more queueing, and a p50 that
    // moves.
    expect(
        "burst_shared at 1 channel lowers sim_eng_per_s",
        one_channel["sim_eng_per_s"] < burst["sim_eng_per_s"],
        format!("{} -> {}", burst["sim_eng_per_s"], one_channel["sim_eng_per_s"]),
    );
    expect(
        "burst_shared at 1 channel raises device.queue_wait_p99_ms",
        one_channel["device.queue_wait_p99_ms"] > burst["device.queue_wait_p99_ms"],
        format!(
            "{} -> {}",
            burst["device.queue_wait_p99_ms"], one_channel["device.queue_wait_p99_ms"]
        ),
    );
    expect(
        "burst_shared at 1 channel moves sim_contended_p50_ms",
        one_channel["sim_contended_p50_ms"] != burst["sim_contended_p50_ms"],
        format!("{} -> {}", burst["sim_contended_p50_ms"], one_channel["sim_contended_p50_ms"]),
    );
    let unbatched =
        measure(&env, "burst_shared", seed, seconds, Options { batching: false, ..base });
    expect(
        "batching off sends storage.batch_occupancy to 1.0",
        unbatched["storage.batch_occupancy"] == 1.0 && burst["storage.batch_occupancy"] > 1.0,
        format!("{} -> {}", burst["storage.batch_occupancy"], unbatched["storage.batch_occupancy"]),
    );
    expect(
        "batching off raises sim_flash_kb_per_eng",
        unbatched["sim_flash_kb_per_eng"] > burst["sim_flash_kb_per_eng"],
        format!("{} -> {}", burst["sim_flash_kb_per_eng"], unbatched["sim_flash_kb_per_eng"]),
    );
    let (hit, p50, p99) =
        (burst["sim_slo_hit_rate"], burst["sim_contended_p50_ms"], burst["sim_contended_p99_ms"]);
    expect(
        "burst_shared sim_slo_hit_rate in [0.3, 0.9]",
        (0.3..=0.9).contains(&hit),
        format!("{hit}"),
    );
    expect("burst_shared p99 >= 1.5 x p50", p99 >= 1.5 * p50, format!("p50 {p50} p99 {p99}"));
    let e2e: Vec<f64> =
        spec::END_TO_END.iter().filter_map(|m| burst.get(m.name).copied()).collect();
    let distinct = e2e.iter().enumerate().all(|(i, a)| e2e[i + 1..].iter().all(|b| a != b));
    expect("burst_shared: no two end-to-end metrics equal", distinct, format!("{e2e:?}"));

    let recurrent = measure(&env, "recurrent_think", seed, seconds, base);
    let no_prefetch =
        measure(&env, "recurrent_think", seed, seconds, Options { prefetch: false, ..base });
    expect(
        "prefetch off sends storage.pool_hit_rate to 0",
        no_prefetch["storage.pool_hit_rate"] == 0.0 && recurrent["storage.pool_hit_rate"] > 0.0,
        format!(
            "{} -> {}",
            recurrent["storage.pool_hit_rate"], no_prefetch["storage.pool_hit_rate"]
        ),
    );
    expect(
        "prefetch off does not lower sim_contended_p50_ms",
        no_prefetch["sim_contended_p50_ms"] >= recurrent["sim_contended_p50_ms"],
        format!("{} -> {}", recurrent["sim_contended_p50_ms"], no_prefetch["sim_contended_p50_ms"]),
    );

    let fleet = measure(&env, "fleet_admit", seed, seconds, base);
    let small = measure(
        &env,
        "fleet_admit",
        seed,
        seconds,
        Options { fleet_sessions: Options::default().fleet_sessions / 4, ..base },
    );
    expect(
        "fleet_admit at a quarter of the sessions at least halves host.op_p50_us",
        small["host.op_p50_us"] * 2.0 <= fleet["host.op_p50_us"],
        format!("{} -> {}", fleet["host.op_p50_us"], small["host.op_p50_us"]),
    );

    let solo = measure(&env, "solo_stream", seed, seconds, base);
    let twice =
        measure(&env, "solo_stream", seed, seconds, Options { length: 2.0 * LENGTH, ..base });
    expect(
        "solo_stream at twice the op count doubles the engagements",
        twice["attempted"] == 2.0 * solo["attempted"],
        format!("{} -> {}", solo["attempted"], twice["attempted"]),
    );
    let per_eng = |m: &BTreeMap<&str, f64>| m["io_requests"] / m["attempted"];
    expect(
        "solo_stream at twice the op count doubles the IO requests (within 10 %: targets follow the seed)",
        (per_eng(&twice) / per_eng(&solo) - 1.0).abs() < 0.10,
        format!("{} -> {} requests", solo["io_requests"], twice["io_requests"]),
    );
    // Two phases of a few seconds each: this sandbox's host speed shifts by
    // tens of percent between them (README, *Steadiness*), so the check
    // only rules out a per-engagement cost that grows with the length.
    let ratio = twice["host.eng_per_s"] / solo["host.eng_per_s"];
    expect(
        "solo_stream at twice the op count holds host.eng_per_s within a factor of 1.5",
        (1.0 / 1.5..=1.5).contains(&ratio),
        format!("{} -> {}", solo["host.eng_per_s"], twice["host.eng_per_s"]),
    );
    expect(
        "failed share is 0 on solo_stream and fleet_admit",
        solo["sim_slo_hit_rate"] == 1.0 && fleet["pipeline.gate_shed_share"] == 0.0,
        format!(
            "solo hit rate {}, fleet shed share {}",
            solo["sim_slo_hit_rate"], fleet["pipeline.gate_shed_share"]
        ),
    );
    (lines, pass)
}
