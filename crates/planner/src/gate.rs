//! The infer-time backpressure gate.
//!
//! Admission decides once, at session open — but SLOs are violated by
//! *bursts*, mid-session. With a [`BackpressureMode`] configured, every
//! SLO engagement first passes this gate, which re-runs the contended
//! prediction against the sessions open now and either delays the
//! engagement on the simulated timeline until the prediction meets its SLO
//! (`Queue`, bounded by a maximum delay) or sheds it (`Shed`). The server
//! acts on a [`GateDecision`]: it counts it, applies the delay, and fails a
//! shed engagement with a backpressure error before it touches the
//! scheduler, so the uncontended determinism contract is untouched.
//!
//! **Determinism.** Gate decisions must be identical between concurrent
//! and sequential replays of the same trace, so they are a pure function
//! of the open-session registry — populated deterministically at session
//! open — and of nothing else: like the paper's planner (§5), the gate
//! prices profiled loads, never the racy live queue. Every demand lane on
//! the server's scheduler belongs to a registered session, so the registry
//! already prices all of it. [`ServingMix::gate_all`] runs the
//! deterministic walk: sessions in `(arrival, token)` order, each
//! earlier SLO session's decision replayed, equal-arrival later tokens
//! excluded on the first pass and re-gated against on the second (queue
//! mode — an equal-arrival earliest session does not run blind ahead of
//! later-opened co-arriving load).
//!
//! The rule is held by the crate graph, not by review: `sti-planner` does
//! not depend on `sti-storage`, where the IO scheduler lives, so no queue
//! state can be named here. The dependency cannot come back, as a normal
//! or a dev-dependency, without this failing to compile:
//!
//! ```compile_fail
//! use sti_storage as _;
//! ```
//!
//! **Memoization.** Decisions are memoized once, per *walk*, keyed by the
//! mix digest ([`ServingMix::digest`]): one walk prices every open SLO
//! session, so after a registry change exactly one engagement re-prices,
//! and every later decision against the unchanged mix — the same
//! session's repeats included — is one `HashMap` lookup. Sessions keep no
//! memo of their own: a decision is a pure function of the digest, so a
//! second level could only return what the walk memo does. The probe
//! digest and, on a miss, the snapshot the walk runs over are taken under
//! one read guard of the registry lock, so a walk is always memoized under
//! the digest of exactly the state it saw; the guard is released before
//! the walk runs, so opens and drops never wait behind one. The registry
//! is held as an `Arc<ServingMix>`, so the snapshot is a pointer: a cold
//! decision copies nothing. A writer that lands while a walk still holds
//! the snapshot pays the copy (`Arc::make_mut`, once per snapshot), and the
//! walk goes on over the state it was memoized under. On a memo hit the
//! snapshot is never taken — the rolling digest (O(1), flat in fleet size)
//! is the whole cost.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sti_device::SimTime;

use crate::mix::{GateOutcome, ServingMix};

/// What the server does, per engagement, when the contended prediction
/// over the open sessions says the engagement would miss its SLO *now* —
/// admission's mid-session counterpart. Only SLO sessions are gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressureMode {
    /// No infer-time gate (the pre-backpressure behaviour, and the
    /// default): every engagement executes, SLO misses only show up in the
    /// contention report.
    #[default]
    Off,
    /// Delay the engagement (on the simulated timeline) until the predicted
    /// contended latency meets the SLO, up to this maximum queue delay; if
    /// even the maximum cannot save it, shed it.
    Queue(SimTime),
    /// Shed the engagement whenever the prediction *now* misses the SLO —
    /// never wait.
    Shed,
}

/// One backpressure-gate decision, recorded per gated engagement.
/// Decisions are a pure function of the open-session registry (see the
/// module docs), so concurrent and sequential replays of the same trace
/// produce identical decision logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateDecision {
    /// The session's registry token (open order).
    pub session: u64,
    /// The session's trace-supplied arrival on the simulated timeline —
    /// the tick gate spans anchor to.
    pub arrival: SimTime,
    /// The SLO the gate held the engagement to.
    pub slo: SimTime,
    /// Predicted contended latency at the chosen delay (for a shed
    /// decision: the best achievable prediction, which still missed).
    pub predicted: SimTime,
    /// Queue delay applied on the simulated timeline (zero when the
    /// prediction met the SLO immediately, and for shed decisions).
    pub delay: SimTime,
    /// Whether the engagement was shed instead of executed.
    pub shed: bool,
    /// Whether the decision came from the second gate pass: the session was
    /// the equal-arrival earliest and was re-gated against later-opened
    /// co-arriving load (queue mode only; see [`ServingMix::gate_all`]).
    pub re_gated: bool,
    /// What drove the decision: the deciding mix digest and the load the
    /// prediction ran against.
    pub reason: GateReason,
}

/// The structured *why* behind a [`GateDecision`]: the mix digest the
/// decision was memoized under and a summary of the load the contended
/// prediction priced — so a shed or delay line in the serve report can
/// name the co-runner lane that crowded the session out. A pure function
/// of the mix, so replays derive identical reasons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateReason {
    /// The mix digest the decision was computed (and memoized) under.
    pub digest: u64,
    /// Open co-runner sessions the prediction priced (the deciding
    /// session itself excluded).
    pub co_runners: usize,
    /// The heaviest co-runner lane by total streamed service time, as
    /// `(registry token, total service time)` — the lane most responsible
    /// for the contention the prediction saw. `None` when the session had
    /// the mix to itself.
    pub dominant_lane: Option<(u64, SimTime)>,
}

/// The load a walk's decisions ran against: how many sessions were open
/// and the two heaviest lanes as `(token, total service µs)`, heaviest
/// first, equal loads ranked by lower token. Keeping two lets a session
/// name its dominant *co-runner* in O(1) even when it is itself the
/// heaviest lane. Computed once per walk (O(sessions)).
#[derive(Debug, Clone, Copy)]
struct LaneSummary {
    sessions: usize,
    heaviest: [Option<(u64, u64)>; 2],
}

impl LaneSummary {
    fn of(mix: &ServingMix) -> Self {
        // Ranks `a` above `b`: more service first, lower token on ties.
        fn outranks(a: (u64, u64), b: (u64, u64)) -> bool {
            a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
        }
        let mut heaviest: [Option<(u64, u64)>; 2] = [None; 2];
        for s in mix.sessions() {
            let service: u64 = s.load.jobs.iter().map(|j| j.service.as_us()).sum();
            let mut cand = (s.token, service);
            for slot in &mut heaviest {
                match slot {
                    Some(held) if outranks(cand, *held) => cand = std::mem::replace(held, cand),
                    Some(_) => {}
                    None => {
                        *slot = Some(cand);
                        break;
                    }
                }
            }
        }
        Self { sessions: mix.co_runners(), heaviest }
    }

    /// The heaviest lane that is not `token` itself (the session asking
    /// "who is crowding me out").
    fn dominant_excluding(&self, token: u64) -> Option<(u64, u64)> {
        self.heaviest.iter().flatten().copied().find(|&(t, _)| t != token)
    }
}

/// One memoized full gate walk: the mix digest it ran against, every open
/// SLO session's outcome from that walk ([`ServingMix::gate_all`]), and
/// the lane summary the walk's reasons derive from — computed once per
/// walk so per-decision reason assembly stays O(1).
type GateWalkMemo = (u64, Arc<HashMap<u64, GateOutcome>>, LaneSummary);

/// The gate's mode and walk memo.
pub struct Gate {
    mode: BackpressureMode,
    /// The last full gate walk, keyed by the mix digest it ran against.
    /// Decisions stay a pure function of the mix, so sharing the walk
    /// across sessions changes nothing observable.
    walk_memo: Mutex<Option<GateWalkMemo>>,
}

impl Gate {
    /// A gate in `mode`, with nothing memoized.
    pub fn new(mode: BackpressureMode) -> Self {
        Self { mode, walk_memo: Mutex::new(None) }
    }

    /// The decision one engagement of the SLO session `token`, arriving at
    /// `arrival` and held to `slo`, is subject to right now against the
    /// open-session `registry` (`None` with the gate off). Pure: nothing is
    /// counted or logged.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not an SLO session of `registry`.
    pub fn decide(
        &self,
        token: u64,
        arrival: SimTime,
        slo: SimTime,
        registry: &RwLock<Arc<ServingMix>>,
    ) -> Option<GateDecision> {
        if self.mode == BackpressureMode::Off {
            return None;
        }
        // The decision is a pure function of the mix. One read guard covers
        // the digest probe, the memo lookup and — on a miss — the snapshot
        // (see the module docs); `Err` carries that snapshot out, to be
        // walked once the guard has dropped.
        let (digest, memoized) = {
            let mix = registry.read();
            let digest = mix.digest();
            let memoized = self.walk_memo.lock().as_ref().and_then(|(seen, walk, summary)| {
                (*seen == digest).then(|| (walk.clone(), *summary))
            });
            (digest, memoized.ok_or_else(|| Arc::clone(&mix)))
        };
        let (walk, summary) = memoized.unwrap_or_else(|mix| {
            let summary = LaneSummary::of(&mix);
            let walk: Arc<HashMap<u64, GateOutcome>> =
                Arc::new(mix.gate_all(self.mode).into_iter().collect());
            *self.walk_memo.lock() = Some((digest, walk.clone(), summary));
            (walk, summary)
        });
        let outcome = *walk.get(&token).expect("an open SLO session is always in the registry");
        Some(GateDecision {
            session: token,
            arrival,
            slo,
            predicted: outcome.predicted,
            delay: outcome.delay,
            shed: outcome.shed,
            re_gated: outcome.re_gated,
            reason: GateReason {
                digest,
                co_runners: summary.sessions.saturating_sub(1),
                dominant_lane: summary
                    .dominant_excluding(token)
                    .map(|(token, us)| (token, SimTime::from_us(us))),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::SloProfile;
    use crate::{CoRunnerLoad, IoSharing, LayerIoJob};

    fn ms(n: u64) -> SimTime {
        SimTime::from_ms(n)
    }

    /// Registers (or, the way `Session::set_arrival` does, re-registers)
    /// session `token`: two 10 ms reads of its own bytes with 1 ms of
    /// compute per layer (21 ms alone), arriving at `arrival`, held to
    /// `slo`.
    fn register_at(registry: &RwLock<Arc<ServingMix>>, token: u64, slo: SimTime, arrival: SimTime) {
        let jobs = [1, 2].map(|layer| LayerIoJob { sig: token * 10 + layer, service: ms(10) });
        let load = CoRunnerLoad { jobs: Arc::from(jobs), arrival, stripe: 0 };
        let profile = SloProfile { jobs: Arc::from(jobs.map(Some)), comp: ms(1), slo };
        Arc::make_mut(&mut registry.write()).upsert_session(token, load, Some(profile));
    }

    /// The digest and the address of the walk the gate's memo holds.
    fn memoized(gate: &Gate) -> Option<(u64, *const HashMap<u64, GateOutcome>)> {
        gate.walk_memo.lock().as_ref().map(|(digest, walk, _)| (*digest, Arc::as_ptr(walk)))
    }

    #[test]
    fn decisions_equal_the_mix_walk_and_are_memoized_per_walk() {
        let registry = RwLock::new(Arc::new(ServingMix::new(IoSharing::Exclusive)));
        let slo = ms(25);
        register_at(&registry, 0, slo, SimTime::ZERO);
        register_at(&registry, 1, slo, SimTime::ZERO);
        let gate = Gate::new(BackpressureMode::Shed);
        let mix = ServingMix::clone(&registry.read());
        let digest = mix.digest();
        let oracle: HashMap<u64, GateOutcome> =
            mix.gate_all(BackpressureMode::Shed).into_iter().collect();
        assert!(!oracle[&0].shed && oracle[&1].shed, "the later token rides behind the earlier");

        let decide = |token: u64, arrival| gate.decide(token, arrival, slo, &registry);
        let first = decide(0, SimTime::ZERO).expect("the gate is on");
        let walk = memoized(&gate).expect("the first decision walked");
        assert_eq!(walk.0, digest);
        for token in [0u64, 1] {
            let d = decide(token, SimTime::ZERO).expect("the gate is on");
            let want = oracle[&token];
            assert_eq!(
                (d.predicted, d.delay, d.shed, d.re_gated),
                (want.predicted, want.delay, want.shed, want.re_gated)
            );
            assert_eq!((d.session, d.slo, d.reason.digest), (token, slo, digest));
            assert_eq!(d.reason.co_runners, 1);
            assert_eq!(d.reason.dominant_lane, Some((1 - token, ms(20))));
            // The one walk priced both sessions: the other's first decision
            // and every repeat are lookups of it.
            assert_eq!(memoized(&gate), Some(walk));
            assert_eq!(decide(token, SimTime::ZERO), Some(d));
        }
        assert_eq!(decide(0, SimTime::ZERO), Some(first));

        // Session 0 moves away and back: the mix returns to the earlier
        // digest while the memo holds the walk from away, so the decision
        // is walked again — and equals the first.
        register_at(&registry, 0, slo, ms(50));
        let away = decide(0, ms(50)).unwrap();
        assert_ne!(away.reason.digest, digest);
        assert_eq!(memoized(&gate).map(|(seen, _)| seen), Some(away.reason.digest));
        register_at(&registry, 0, slo, SimTime::ZERO);
        assert_eq!(registry.read().digest(), digest, "back at the earlier digest");
        assert_eq!(decide(0, SimTime::ZERO), Some(first));
        assert_eq!(memoized(&gate).map(|(seen, _)| seen), Some(digest), "re-walked");

        // A registry change moves the digest and the decision follows.
        Arc::make_mut(&mut registry.write()).remove_session(0);
        let alone = decide(1, SimTime::ZERO).unwrap();
        assert!(!alone.shed && alone.reason.digest != digest);
        assert_eq!((alone.reason.co_runners, alone.reason.dominant_lane), (0, None));
        // Without a mode the gate is off.
        let off = Gate::new(BackpressureMode::Off);
        assert_eq!(off.decide(1, SimTime::ZERO, slo, &registry), None);
    }

    /// The registry is shared copy-on-write: a cold decision walks a
    /// pointer to it, so the live `Arc` stays unshared once the walk is
    /// done and a later write copies nothing. A write while a snapshot is
    /// held copies the registry once, and the snapshot keeps the sessions
    /// and digest it was taken with.
    #[test]
    fn a_cold_decision_copies_nothing_and_a_write_under_a_snapshot_copies_once() {
        let registry = RwLock::new(Arc::new(ServingMix::new(IoSharing::Exclusive)));
        let slo = ms(25);
        for token in 0..4 {
            register_at(&registry, token, slo, SimTime::ZERO);
        }
        let live = || Arc::as_ptr(&registry.read());
        let before = live();
        let gate = Gate::new(BackpressureMode::Queue(ms(200)));
        let cold = gate.decide(0, SimTime::ZERO, slo, &registry).expect("the gate is on");
        assert_eq!(memoized(&gate).map(|(seen, _)| seen), Some(cold.reason.digest), "walked");
        assert_eq!(Arc::strong_count(&registry.read()), 1, "the walk let go of its snapshot");
        register_at(&registry, 4, slo, ms(5));
        assert_eq!(live(), before, "a write after the walk updates in place");

        let snapshot = Arc::clone(&registry.read());
        let (tokens, digest) =
            (snapshot.sessions().map(|s| s.token).collect::<Vec<_>>(), snapshot.digest());
        register_at(&registry, 5, slo, ms(5));
        let copied = live();
        assert_ne!(copied, before, "the first write under a snapshot copies");
        Arc::make_mut(&mut registry.write()).remove_session(1);
        register_at(&registry, 6, slo, ms(5));
        assert_eq!(live(), copied, "and is the only one that does");
        assert!(snapshot.sessions().map(|s| s.token).eq(tokens));
        assert_eq!(snapshot.digest(), digest);
        assert_eq!(Arc::as_ptr(&snapshot), before, "the snapshot kept its registry");
        assert_ne!(registry.read().digest(), digest);
    }
}
