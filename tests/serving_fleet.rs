//! Fleet-scale serving contracts.
//!
//! 1. **Incremental digest ≡ full rehash.** `ServingMix` maintains its
//!    digest as a rolling per-session fold updated O(1) by
//!    `upsert_session`/`remove_session`/`push_session`. A proptest drives
//!    arbitrary interleavings of register / retarget / drop and pins the
//!    rolling digest equal to a from-scratch rebuild's — the memo identity
//!    behind both gate memos never drifts from the full rehash it replaced.
//! 2. **Excluded views are rebuilds.** The server's `exclude` path (a
//!    retargeting session does not co-run with itself) is now a clone +
//!    `remove_session` view; it must predict bit-identically to a mix
//!    rebuilt from scratch without that session.
//! 3. **`gate_all` prices SLO sessions only.** The one gate walk returns
//!    an outcome for every SLO session of a mixed population and none for
//!    a plain one.
//! 4. **Fleet scale.** 100 000 open sessions on one and on four device
//!    channels: repeated gate decisions agree, a trace replayed against the
//!    live fleet is served in full, and a seeded random-order teardown
//!    drains the registry to the empty mix's digest.
//! 5. **Open/teardown equivalence.** The batch `open_fleet` path and a
//!    seeded-permutation teardown both leave the registry bit-identical to
//!    from-scratch rebuilds.
//! 6. **One lock, many host threads.** Concurrent opens, drops, gate
//!    probes and an SLO admission against the single registry lock finish
//!    (no lock-order inversion) and leave the digest equal to a rebuild
//!    from the survivors.

use proptest::prelude::*;
use sti::prelude::*;
use sti::TaskContext;

fn importance_for(cfg: &ModelConfig) -> ImportanceProfile {
    ImportanceProfile::from_scores(
        cfg.layers,
        cfg.heads,
        (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
        0.45,
    )
}

fn fixture() -> (HwProfile, ImportanceProfile) {
    let cfg = ModelConfig::tiny();
    let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
    let importance = importance_for(&cfg);
    (hw, importance)
}

const WIDTHS: [usize; 2] = [2, 4];

/// The server tests' fixture: the tiny model behind a 100 ms queue gate,
/// nothing preloaded.
fn queue_gated() -> (TaskContext, ServeConfig) {
    let cfg = ServeConfig {
        preload_bytes: 0,
        backpressure: BackpressureMode::Queue(SimTime::from_ms(100)),
        ..Default::default()
    };
    (TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny()), cfg)
}

/// Deterministic xorshift64 op stream (proptest supplies the seed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The test's model of the registry: `(token, plan index, arrival, slo)`
/// in token order, mirrored into the mix under test op-by-op and into a
/// from-scratch rebuild at check time.
type Model = Vec<(u64, usize, SimTime, Option<SimTime>)>;

fn rebuild(
    model: &Model,
    plans: &[ExecutionPlan],
    hw: &HwProfile,
    sharing: IoSharing,
) -> ServingMix {
    let mut mix = ServingMix::new(sharing);
    for &(token, plan, arrival, slo) in model {
        mix.push_session(
            token,
            CoRunnerLoad::from_plan_at(hw, &plans[plan], arrival),
            slo.map(|s| SloProfile::from_plan(hw, &plans[plan], s)),
        );
    }
    mix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary interleavings of register / retarget / drop keep the
    /// rolling digest equal to a from-scratch rebuild's, and
    /// excluded-session views predict bit-identically to rebuilds.
    #[test]
    fn incremental_digest_equals_full_rehash(
        seed in 1u64..u64::MAX,
        ops in 4usize..48,
    ) {
        let (hw, imp) = fixture();
        let plans: Vec<ExecutionPlan> = [200u64, 500, 2_000]
            .iter()
            .map(|&ms| {
                plan_two_stage(&hw, &imp, SimTime::from_ms(ms), 0, &WIDTHS, &Bitwidth::ALL)
            })
            .collect();
        let mut rng = Rng(seed);
        let sharing = if rng.next().is_multiple_of(2) {
            IoSharing::Exclusive
        } else {
            IoSharing::Batched(SimTime::from_ms(1))
        };
        let mut mix = ServingMix::new(sharing);
        let mut model: Model = Vec::new();
        let mut next_token = 0u64;
        for _ in 0..ops {
            let plan = (rng.next() % plans.len() as u64) as usize;
            let arrival = SimTime::from_us(rng.next() % 2_000);
            let slo =
                rng.next().is_multiple_of(2).then(|| SimTime::from_ms(100 + rng.next() % 900));
            match rng.next() % 4 {
                // Register a fresh session (tokens are monotone, like the
                // server's).
                0 | 1 => {
                    let token = next_token;
                    next_token += 1;
                    mix.upsert_session(
                        token,
                        CoRunnerLoad::from_plan_at(&hw, &plans[plan], arrival),
                        slo.map(|s| SloProfile::from_plan(&hw, &plans[plan], s)),
                    );
                    model.push((token, plan, arrival, slo));
                }
                // Retarget / re-register an existing session in place.
                2 if !model.is_empty() => {
                    let i = (rng.next() % model.len() as u64) as usize;
                    let token = model[i].0;
                    mix.upsert_session(
                        token,
                        CoRunnerLoad::from_plan_at(&hw, &plans[plan], arrival),
                        slo.map(|s| SloProfile::from_plan(&hw, &plans[plan], s)),
                    );
                    model[i] = (token, plan, arrival, slo);
                }
                // Drop an existing session (or a no-op miss).
                _ => {
                    if model.is_empty() {
                        prop_assert!(!mix.remove_session(99_999));
                    } else {
                        let i = (rng.next() % model.len() as u64) as usize;
                        let token = model.remove(i).0;
                        prop_assert!(mix.remove_session(token));
                    }
                }
            }
            let fresh = rebuild(&model, &plans, &hw, sharing);
            prop_assert_eq!(mix.digest(), fresh.digest(), "rolling digest drifted at op");
        }
        // Excluded views ≡ rebuilds without the session, bit for bit.
        let probe = EngagementLoad::from_plan(&hw, &plans[0], SimTime::ZERO);
        for &(token, ..) in &model {
            let mut view = mix.clone();
            prop_assert!(view.remove_session(token));
            let without: Model =
                model.iter().copied().filter(|&(t, ..)| t != token).collect();
            let scratch = rebuild(&without, &plans, &hw, sharing);
            prop_assert_eq!(view.digest(), scratch.digest());
            prop_assert_eq!(
                view.predict(&probe),
                scratch.predict(&probe),
                "excluded view must predict bit-identically to a rebuild"
            );
        }
    }
}

#[test]
fn gate_all_prices_every_slo_session_and_no_plain_one() {
    let (hw, imp) = fixture();
    let fast = plan_two_stage(&hw, &imp, SimTime::from_ms(200), 0, &WIDTHS, &Bitwidth::ALL);
    let slow = plan_two_stage(&hw, &imp, SimTime::from_ms(2_000), 0, &WIDTHS, &Bitwidth::ALL);
    for sharing in [IoSharing::Exclusive, IoSharing::Batched(SimTime::from_ms(1))] {
        let mut mix = ServingMix::new(sharing);
        for t in 0..10u64 {
            let plan = if t % 2 == 0 { &fast } else { &slow };
            // Mixed population: equal arrivals (tie-broken by token),
            // stragglers, plain co-residents with no SLO.
            let arrival = SimTime::from_us((t / 3) * 300);
            let slo = (t % 3 != 2)
                .then(|| SloProfile::from_plan(&hw, plan, SimTime::from_ms(150 + t * 40)));
            mix.push_session(t, CoRunnerLoad::from_plan_at(&hw, plan, arrival), slo);
        }
        for policy in [BackpressureMode::Shed, BackpressureMode::Queue(SimTime::from_ms(100))] {
            let all = mix.gate_all(policy);
            assert_eq!(all.len(), 7, "every SLO session is priced, plain ones are not");
        }
    }
}

/// Fleet scale, checked by counts rather than a wall clock. On one and on
/// four device channels: 100 000 plain sessions open in one batch and four
/// SLO sessions are admitted against them; repeated gate decisions agree;
/// an 8 × 4 synthetic trace replayed against the live fleet serves every
/// engagement; and the fleet, dropped in a seeded random order, leaves the
/// registry empty with the empty mix's digest. Each close is one O(log N)
/// removal wherever its token falls, so the teardown stays O(N log N); CI
/// runs this suite under a timeout as the backstop against a close that
/// has gone quadratic.
#[test]
fn a_hundred_thousand_session_fleet_gates_replays_and_drains() {
    const N: usize = 100_000;
    for channels in [1u16, 4] {
        let (ctx, cfg) = queue_gated();
        let cfg = ServeConfig { channels, ..cfg };
        let server = build_server(&ctx, &cfg);
        let plain = server.open_fleet(N, cfg.target, cfg.preload_bytes).unwrap();
        let slo: Vec<Session> = (0..4)
            .map(|_| server.session_with_slo(SimTime::from_ms(60_000), cfg.preload_bytes).unwrap())
            .collect();
        assert_eq!(server.open_sessions(), N + slo.len());
        for session in &slo {
            let first = session.gate_decision().expect("an SLO session under queue mode gates");
            assert_eq!(session.gate_decision(), Some(first), "C = {channels}");
        }

        let trace = ServingTrace::synthetic(&ctx, &cfg, 8, 4);
        let replay = replay_event(&server, &trace).unwrap();
        let served: usize = replay.outcomes.iter().map(Vec::len).sum();
        assert_eq!(served, 32, "C = {channels}: every engagement is served");
        assert!(replay.heap_ops > 0, "the engine counts its heap traffic");

        let mut order: Vec<usize> = (0..N).collect();
        let mut rng = Rng(0x5157 ^ u64::from(channels));
        for i in (1..N).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut plain: Vec<Option<Session>> = plain.into_iter().map(Some).collect();
        for i in order {
            plain[i] = None;
        }
        drop(slo);
        assert_eq!(server.open_sessions(), 0, "C = {channels}");
        let empty = ServingMix::new(IoSharing::Exclusive).with_topology(server.device_topology());
        assert_eq!(server.mix_digest(), empty.digest(), "C = {channels}: the registry drained");
    }
}

/// Seeded-permutation teardown ≡ from-scratch rebuild. Opening a mixed
/// plain/SLO fleet at varying arrivals, then dropping a permuted subset
/// (the order the fleet-scale test tears down in: removals land
/// anywhere in the registry, not just at its tail), must leave the
/// registry's rolling digest bit-identical to a `ServingMix` rebuilt from
/// the survivors alone.
#[test]
fn seeded_teardown_keeps_the_digest_equal_to_a_rebuild() {
    let (ctx, cfg) = queue_gated();
    let server = build_server(&ctx, &cfg);
    let hw = HwProfile::measure(&cfg.device, ctx.task().model().config(), ctx.quant());
    let mut sessions = Vec::new();
    for i in 0..24u64 {
        let mut s = if i % 3 == 0 {
            server.session_with_slo(SimTime::from_ms(60_000), 0).unwrap()
        } else {
            server.session_with(cfg.target, 0).unwrap()
        };
        s.set_arrival(SimTime::from_us(i * 137));
        sessions.push(Some(s));
    }
    // Seeded Fisher–Yates permutation; drop the first half in that order.
    let mut order: Vec<usize> = (0..sessions.len()).collect();
    let mut rng = Rng(0xfeed_5eed);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    for &i in order.iter().take(sessions.len() / 2) {
        sessions[i] = None;
    }
    assert_eq!(
        server.mix_digest(),
        rebuilt_digest(&hw, sessions.iter().flatten()),
        "registry digest drifted from a from-scratch rebuild after teardown"
    );
}

/// The digest of a `ServingMix` rebuilt from scratch from `survivors`.
fn rebuilt_digest<'a>(hw: &HwProfile, survivors: impl Iterator<Item = &'a Session>) -> u64 {
    let mut mix = ServingMix::new(IoSharing::Exclusive);
    for s in survivors {
        mix.push_session(
            s.token(),
            CoRunnerLoad::from_plan_at(hw, s.plan(), s.arrival()),
            s.slo().map(|slo| SloProfile::from_plan(hw, s.plan(), slo)),
        );
    }
    mix.digest()
}

/// Host threads against the single registry lock: four threads open and
/// drop plain sessions while an SLO session probes its gate and the mix
/// digest in a loop and a fifth thread admits an SLO session. The barrier
/// starts them together; the test finishing is the no-lock-order-inversion
/// check (`slo_planning`, the registry lock), and the settled digest must
/// equal a rebuild from the survivors.
#[test]
fn concurrent_opens_drops_and_gate_probes_settle_to_the_rebuild_digest() {
    let (ctx, cfg) = queue_gated();
    let server = build_server(&ctx, &cfg);
    let hw = HwProfile::measure(&cfg.device, ctx.task().model().config(), ctx.quant());
    let slo = SimTime::from_ms(60_000);
    let prober = server.session_with_slo(slo, 0).unwrap();
    const OPENERS: usize = 4;
    let start = std::sync::Barrier::new(OPENERS + 2);
    let (kept, admitted) = std::thread::scope(|s| {
        let (server, start, target) = (&server, &start, cfg.target);
        let openers: Vec<_> = (0..OPENERS)
            .map(|_| {
                s.spawn(move || {
                    start.wait();
                    let mut kept = Vec::new();
                    for i in 0..48 {
                        let session = server.session_with(target, 0).unwrap();
                        // Every third session survives; the rest drop here,
                        // interleaved with the other threads' opens.
                        if i % 3 == 0 {
                            kept.push(session);
                        }
                    }
                    kept
                })
            })
            .collect();
        let admitter = s.spawn(move || {
            start.wait();
            server.session_with_slo(slo, 0).unwrap()
        });
        start.wait();
        for _ in 0..200 {
            assert!(prober.gate_decision().is_some());
            std::hint::black_box(server.mix_digest());
        }
        let kept: Vec<Session> =
            openers.into_iter().flat_map(|h| h.join().expect("opener panicked")).collect();
        (kept, admitter.join().expect("admitter panicked"))
    });
    assert_eq!(server.open_sessions(), kept.len() + 2);
    assert_eq!(
        server.mix_digest(),
        rebuilt_digest(&hw, kept.iter().chain([&prober, &admitted])),
        "registry digest drifted from a from-scratch rebuild after concurrent churn"
    );
    // Settled: the probe is a pure function of the registry again.
    assert_eq!(prober.gate_decision(), prober.gate_decision());
}

/// Batch open ≡ one-by-one open. `open_fleet` resolves the knobs once and
/// registers every session against the registry; the resulting digest (and
/// the per-session plans) must be bit-identical to the same fleet opened
/// through `session_with`.
#[test]
fn open_fleet_is_equivalent_to_one_by_one_opens() {
    let (ctx, cfg) = queue_gated();
    let batch_server = build_server(&ctx, &cfg);
    let batch = batch_server.open_fleet(12, cfg.target, 0).unwrap();
    let one_server = build_server(&ctx, &cfg);
    let ones: Vec<_> = (0..12).map(|_| one_server.session_with(cfg.target, 0).unwrap()).collect();
    assert_eq!(batch.len(), ones.len());
    assert_eq!(batch_server.open_sessions(), one_server.open_sessions());
    assert_eq!(batch_server.mix_digest(), one_server.mix_digest());
    for (b, o) in batch.iter().zip(&ones) {
        assert_eq!(b.token(), o.token());
        assert_eq!(b.plan().predicted.makespan, o.plan().predicted.makespan);
    }
    // Dropping the batch drains the registry exactly like one-by-one drops.
    drop(batch);
    assert_eq!(batch_server.open_sessions(), 0);
    drop(ones);
    assert_eq!(batch_server.mix_digest(), one_server.mix_digest());
}

#[test]
fn repeat_gate_decisions_are_stable_and_pure() {
    let (ctx, cfg) = queue_gated();
    let server = build_server(&ctx, &cfg);
    let _fleet: Vec<_> = (0..16).map(|_| server.session_with(cfg.target, 0).unwrap()).collect();
    let slo = SimTime::from_ms(60_000);
    let a = server.session_with_slo(slo, 0).unwrap();
    let b = server.session_with_slo(slo, 0).unwrap();
    // One session pays for the walk; the other's first decision is a memo
    // lookup off the same walk — and both are stable across repeats.
    let first_a = a.gate_decision().unwrap();
    let first_b = b.gate_decision().unwrap();
    for _ in 0..3 {
        assert_eq!(a.gate_decision().unwrap(), first_a);
        assert_eq!(b.gate_decision().unwrap(), first_b);
    }
    // The probe is pure: no gate log entries, no queue state.
    assert_eq!(server.contention_report().gate.len(), 0);
}
