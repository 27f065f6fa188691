//! The infer-time backpressure gate.
//!
//! Admission decides once, at session open — but SLOs are violated by
//! *bursts*, mid-session. With a [`BackpressureMode`] configured, every
//! SLO engagement first passes this gate, which re-runs the contended
//! prediction against the sessions open now and either delays the
//! engagement on the simulated timeline until the prediction meets its SLO
//! (`Queue`, bounded by a maximum delay) or fails fast with
//! [`PipelineError::Backpressure`] (`Shed`). Shed engagements never touch
//! the scheduler, so the uncontended determinism contract is untouched.
//!
//! **Determinism.** Gate decisions must be identical between concurrent
//! and sequential replays of the same trace, so they are a pure function
//! of the open-session registry — populated deterministically at session
//! open — and of nothing else: like the paper's planner (§5), the gate
//! prices profiled loads, never the racy live queue. Every demand lane on
//! the server's scheduler belongs to a registered session, so the registry
//! already prices all of it. `ServingMix::gate_all` runs the deterministic
//! walk: sessions in `(arrival, token)` order, each
//! earlier SLO session's decision replayed, equal-arrival later tokens
//! excluded on the first pass and re-gated against on the second (queue
//! mode — an equal-arrival earliest session does not run blind ahead of
//! later-opened co-arriving load).
//!
//! **Memoization.** Decisions are memoized once, per *walk*, keyed by the
//! mix digest (`ServingMix::digest`): one walk prices every open SLO
//! session, so after a registry change exactly one engagement re-prices,
//! and every later decision against the unchanged mix — the same
//! session's repeats included — is one `HashMap` lookup. Sessions keep no
//! memo of their own: a decision is a pure function of the digest, so a
//! second level could only return what the walk memo does. The probe
//! digest and, on a miss, the snapshot the walk runs over are taken under
//! one read guard of the registry lock, so a walk is always memoized under
//! the digest of exactly the state it saw; the guard is released before
//! the walk runs, so opens and drops never wait behind one. On a memo hit
//! the live mix is never cloned — the rolling digest (O(1), flat in fleet
//! size) is the whole cost.
//!
//! [`Gate::decide`] takes the subject and the registry, nothing else: no
//! scheduler state reaches a decision, not even as a label, so it is
//! unit-testable over a hand-built registry.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sti_device::SimTime;
use sti_obs::{Counter, Histogram, MetricsRegistry};
use sti_planner::mix::{GateOutcome, GatePolicy, MixLaneSummary, ServingMix};

use crate::error::PipelineError;

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
    /// even the maximum cannot save it, fail fast with
    /// [`PipelineError::Backpressure`].
    Queue(SimTime),
    /// Fail fast with [`PipelineError::Backpressure`] whenever the
    /// prediction *now* misses the SLO — never wait.
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
    /// co-arriving load (queue mode only; see
    /// [`ServingMix::gate_all`](sti_planner::mix::ServingMix::gate_all)).
    pub re_gated: bool,
    /// What drove the decision: the deciding mix digest and the load the
    /// prediction ran against.
    pub reason: GateReason,
}

/// The structured *why* behind a [`GateDecision`]: the mix digest the
/// decision was memoized under and a summary of the load the contended
/// prediction priced — so a shed or delay line in the serve report can
/// name the co-runner lane that crowded the session out. A pure function
/// of the mix (`ServingMix::lane_summary`), so replays derive identical
/// reasons.
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

/// One memoized full gate walk: the mix digest it ran against, every open
/// SLO session's outcome from that walk (`ServingMix::gate_all`), and
/// the lane summary the walk's reasons derive from — computed once per
/// walk so per-decision reason assembly stays O(1).
type GateWalkMemo = (u64, Arc<HashMap<u64, GateOutcome>>, MixLaneSummary);

/// The session one gate decision is for.
pub(crate) struct GateSubject {
    pub(crate) token: u64,
    pub(crate) arrival: SimTime,
    pub(crate) slo: SimTime,
}

/// The gate's policy, walk memo and instruments.
pub(crate) struct Gate {
    mode: BackpressureMode,
    /// The last full gate walk, keyed by the mix digest it ran against.
    /// Decisions stay a pure function of the mix, so sharing the walk
    /// across sessions changes nothing observable.
    walk_memo: Mutex<Option<GateWalkMemo>>,
    decisions: Counter,
    delay_us: Histogram,
    predicted_us: Histogram,
    pub(crate) shed_engagements: Counter,
    pub(crate) queued_engagements: Counter,
}

impl Gate {
    pub(crate) fn new(mode: BackpressureMode, registry: &MetricsRegistry) -> Self {
        Self {
            mode,
            walk_memo: Mutex::new(None),
            decisions: registry.counter("gate.decisions"),
            delay_us: registry.histogram("gate.delay_us"),
            predicted_us: registry.histogram("gate.predicted_us"),
            shed_engagements: registry.counter("serving.shed_engagements"),
            queued_engagements: registry.counter("serving.queued_engagements"),
        }
    }

    /// The decision one engagement of `who` is subject to right now
    /// (`None` with the gate off). Pure: nothing is counted or logged.
    pub(crate) fn decide(
        &self,
        who: GateSubject,
        registry: &RwLock<ServingMix>,
    ) -> Option<GateDecision> {
        let policy = match self.mode {
            BackpressureMode::Off => return None,
            BackpressureMode::Queue(max) => GatePolicy::Queue(max),
            BackpressureMode::Shed => GatePolicy::Shed,
        };
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
            (digest, memoized.ok_or_else(|| mix.clone()))
        };
        let (walk, summary) = memoized.unwrap_or_else(|mix| {
            let summary = mix.lane_summary();
            let walk: Arc<HashMap<u64, GateOutcome>> =
                Arc::new(mix.gate_all(policy).into_iter().collect());
            *self.walk_memo.lock() = Some((digest, walk.clone(), summary));
            (walk, summary)
        });
        let outcome = *walk.get(&who.token).expect("an open SLO session is always in the registry");
        Some(GateDecision {
            session: who.token,
            arrival: who.arrival,
            slo: who.slo,
            predicted: outcome.predicted,
            delay: outcome.delay,
            shed: outcome.shed,
            re_gated: outcome.re_gated,
            reason: GateReason {
                digest,
                co_runners: summary.sessions.saturating_sub(1),
                dominant_lane: summary
                    .dominant_excluding(who.token)
                    .map(|(token, us)| (token, SimTime::from_us(us))),
            },
        })
    }

    /// Counts a decision an engagement is about to act on and turns it
    /// into the queue delay to apply on the simulated timeline.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Backpressure`] when the decision is a shed.
    pub(crate) fn enforce(&self, decision: &GateDecision) -> Result<SimTime, PipelineError> {
        self.decisions.incr();
        self.delay_us.record(decision.delay.as_us());
        self.predicted_us.record(decision.predicted.as_us());
        if decision.shed {
            self.shed_engagements.incr();
            return Err(PipelineError::Backpressure {
                predicted: decision.predicted,
                slo: decision.slo,
            });
        }
        if decision.delay > SimTime::ZERO {
            self.queued_engagements.incr();
        }
        Ok(decision.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{floor_slo, tiny_server};
    use crate::server::StiServer;
    use sti_planner::mix::SloProfile;
    use sti_planner::prefetch::PrefetchConfig;
    use sti_planner::{CoRunnerLoad, IoSharing, LayerIoJob};

    fn server_with_backpressure(mode: BackpressureMode) -> StiServer {
        tiny_server(|b| b.preload_budget(0).backpressure(mode))
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_ms(n)
    }

    /// Registers (or, the way `Session::set_arrival` does, re-registers)
    /// session `token`: two 10 ms reads of its own bytes with 1 ms of
    /// compute per layer (21 ms alone), arriving at `arrival`, held to
    /// `slo`.
    fn register_at(registry: &RwLock<ServingMix>, token: u64, slo: SimTime, arrival: SimTime) {
        let jobs = [1, 2].map(|layer| LayerIoJob { sig: token * 10 + layer, service: ms(10) });
        let load = CoRunnerLoad { jobs: Arc::from(jobs), arrival };
        let profile = SloProfile { jobs: Arc::from(jobs.map(Some)), comp: ms(1), slo };
        registry.write().upsert_session(token, load, Some(profile));
    }

    fn subject(token: u64, arrival: SimTime, slo: SimTime) -> GateSubject {
        GateSubject { token, arrival, slo }
    }

    /// The digest and the address of the walk the gate's memo holds.
    fn memoized(gate: &Gate) -> Option<(u64, *const HashMap<u64, GateOutcome>)> {
        gate.walk_memo.lock().as_ref().map(|(digest, walk, _)| (*digest, Arc::as_ptr(walk)))
    }

    #[test]
    fn decisions_equal_the_mix_walk_and_are_memoized_per_walk() {
        let registry = RwLock::new(ServingMix::new(IoSharing::Exclusive));
        let slo = ms(25);
        register_at(&registry, 0, slo, SimTime::ZERO);
        register_at(&registry, 1, slo, SimTime::ZERO);
        let gate = Gate::new(BackpressureMode::Shed, &MetricsRegistry::new());
        let mix = registry.read().clone();
        let digest = mix.digest();
        let oracle: HashMap<u64, GateOutcome> =
            mix.gate_all(GatePolicy::Shed).into_iter().collect();
        assert!(!oracle[&0].shed && oracle[&1].shed, "the later token rides behind the earlier");

        let decide = |token: u64, arrival| gate.decide(subject(token, arrival, slo), &registry);
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
        registry.write().remove_session(0);
        let alone = decide(1, SimTime::ZERO).unwrap();
        assert!(!alone.shed && alone.reason.digest != digest);
        assert_eq!((alone.reason.co_runners, alone.reason.dominant_lane), (0, None));
        // Deciding is pure: nothing was counted.
        assert_eq!(gate.shed_engagements.get() + gate.decisions.get(), 0);
        // Without a mode the gate is off.
        let off = Gate::new(BackpressureMode::Off, &MetricsRegistry::new());
        assert_eq!(off.decide(subject(1, SimTime::ZERO, slo), &registry), None);
    }

    /// What the scheduler holds queued when the gate is asked.
    #[derive(Clone, Copy, PartialEq)]
    enum Queued {
        Nothing,
        /// Three sessions' engagements, issued while dispatch is paused.
        Demand,
        /// Prefetch stages a recurrent session's completions submitted.
        Speculation,
    }

    #[test]
    fn a_decision_is_the_same_whatever_the_scheduler_holds_queued() {
        // Four SLO sessions on a Markov-prefetch server; with demand
        // requests or speculative stages queued while dispatch is paused, the
        // fourth asks the gate. The registry is the same either way, and so
        // is the whole decision — digest, prediction, delay and reason.
        let decision_with = |queued: Queued| {
            let srv = tiny_server(|b| {
                b.preload_budget(0)
                    .backpressure(BackpressureMode::Queue(ms(60_000)))
                    .prefetch(PrefetchConfig::markov(1 << 20))
            });
            let slo = floor_slo(&srv);
            let sessions: Vec<_> = (0..4).map(|_| srv.session_with_slo(slo, 0).unwrap()).collect();
            srv.pause_io();
            let issued = if queued == Queued::Demand { 3 } else { 0 };
            let pending: Vec<_> =
                sessions[..issued].iter().map(|s| s.infer_issue(&[1, 2]).unwrap()).collect();
            assert_eq!(srv.queued_io_requests() > 0, queued == Queued::Demand);
            if queued == Queued::Speculation {
                // The second completion of one knob set predicts a third:
                // its stages are submitted, and nothing runs them.
                for _ in 0..2 {
                    let engagement = sessions[0].infer_issue(&[1, 2]).unwrap();
                    srv.drive_io();
                    sessions[0].infer_complete(engagement).unwrap();
                }
                let report = srv.prefetch_report().unwrap();
                assert_eq!((report.model.plans, report.jobs), (1, 0), "stages queued, none run");
            }
            let decision = sessions[3].gate_decision().expect("the gate is on");
            if queued == Queued::Speculation {
                assert!(srv.drive_io() > 0, "the stages were queued when the gate decided");
            }
            srv.resume_io();
            for (session, pending) in sessions.iter().zip(pending) {
                session.infer_complete(pending).unwrap();
            }
            decision
        };
        let idle = decision_with(Queued::Nothing);
        assert!(idle.delay > SimTime::ZERO, "three co-arriving sessions ahead force a wait");
        assert_eq!(decision_with(Queued::Demand), idle);
        assert_eq!(decision_with(Queued::Speculation), idle);
    }

    #[test]
    fn enforcing_a_decision_counts_it_and_turns_it_into_a_delay_or_a_shed() {
        let gate = Gate::new(BackpressureMode::Shed, &MetricsRegistry::new());
        let decision = |delay: SimTime, shed: bool| GateDecision {
            session: 0,
            arrival: SimTime::ZERO,
            slo: ms(25),
            predicted: ms(30),
            delay,
            shed,
            re_gated: false,
            reason: GateReason::default(),
        };
        assert_eq!(gate.enforce(&decision(SimTime::ZERO, false)).unwrap(), SimTime::ZERO);
        assert_eq!(gate.enforce(&decision(ms(4), false)).unwrap(), ms(4));
        match gate.enforce(&decision(SimTime::ZERO, true)) {
            Err(PipelineError::Backpressure { predicted, slo }) => {
                assert_eq!((predicted, slo), (ms(30), ms(25)));
            }
            other => panic!("expected a shed, got {other:?}"),
        }
        let counts =
            (gate.decisions.get(), gate.queued_engagements.get(), gate.shed_engagements.get());
        assert_eq!(counts, (3, 1, 1));
        assert_eq!(gate.delay_us.snapshot().count(), 3);
    }

    #[test]
    fn shed_gate_fails_fast_when_the_backlog_predicts_a_miss() {
        let srv = server_with_backpressure(BackpressureMode::Shed);
        let slo = floor_slo(&srv);
        // Both sessions admit (admission is disabled); the gate, not
        // admission, is under test.
        let first = srv.session_with_slo(slo, 0).unwrap();
        let second = srv.session_with_slo(slo, 0).unwrap();
        // The first-arriving session has the queue to itself and runs.
        first.infer(&[1, 2]).expect("the first session's engagement passes the gate");
        // The second's prediction rides behind the first's registered load
        // and misses the floor SLO: shed, before touching the scheduler.
        match second.infer(&[1, 2]) {
            Err(PipelineError::Backpressure { predicted, slo: got }) => {
                assert!(predicted > got);
                assert_eq!(got, slo);
            }
            other => panic!("expected a backpressure shed, got {other:?}"),
        }
        let stats = srv.serving_stats();
        assert_eq!((stats.engagements, stats.shed_engagements), (1, 1));
        let report = srv.contention_report();
        assert_eq!(report.engagements.len(), 1, "shed engagements never execute");
        assert_eq!(report.gate.len(), 2);
        assert_eq!(report.shed_count(), 1);
        assert_eq!(report.slo_hit_rate(), Some(1.0), "what ran met its SLO");
        // Harvesting resets the gate log too.
        srv.reset_contention_log();
        assert!(srv.contention_report().gate.is_empty());
    }

    #[test]
    fn queue_gate_delays_instead_of_shedding_and_the_measured_track_agrees() {
        let srv = server_with_backpressure(BackpressureMode::Queue(SimTime::from_ms(60_000)));
        let slo = floor_slo(&srv);
        let first = srv.session_with_slo(slo, 0).unwrap();
        let second = srv.session_with_slo(slo, 0).unwrap();
        first.infer(&[1, 2]).unwrap();
        second.infer(&[1, 2]).expect("queue mode waits instead of shedding");
        let stats = srv.serving_stats();
        assert_eq!(
            (stats.engagements, stats.shed_engagements, stats.queued_engagements),
            (2, 0, 1)
        );
        let report = srv.contention_report();
        assert_eq!(report.shed_count(), 0);
        assert_eq!(report.queue_delayed(), 1);
        assert!(report.max_queue_delay() > SimTime::ZERO);
        // The delayed engagement queued past the first's window, so the
        // measured contended track meets the SLO both engagements carry.
        assert_eq!(report.slo_hit_rate(), Some(1.0));
        // With a maximum delay too small to drain the backlog, the same
        // engagement is shed instead.
        let strict = server_with_backpressure(BackpressureMode::Queue(SimTime::from_us(1)));
        let tight = floor_slo(&strict);
        let a = strict.session_with_slo(tight, 0).unwrap();
        let b = strict.session_with_slo(tight, 0).unwrap();
        a.infer(&[3]).unwrap();
        assert!(
            matches!(b.infer(&[3]), Err(PipelineError::Backpressure { .. })),
            "a 1µs patience cannot absorb a full co-runner engagement"
        );
    }

    #[test]
    fn queue_delay_prices_sessions_arriving_during_the_wait() {
        // A queue delay can land an engagement inside the window of a
        // session that arrives *after* it — the delay search must price
        // that load too, not just what was ahead at the original arrival.
        let run = |with_late_heavy: bool| {
            let srv = server_with_backpressure(BackpressureMode::Queue(SimTime::from_ms(60_000)));
            let full = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
            // ~20% slack over the full-model makespan: meetable alone, not
            // behind a heavy co-runner.
            let makespan = full.plan().predicted.makespan.as_us();
            let slo = SimTime::from_us(makespan + makespan / 5);
            drop(full);
            let mut tight = srv.session_with_slo(slo, 0).unwrap();
            tight.set_arrival(SimTime::from_us(100));
            // A heavy co-runner already queued at time zero...
            let _early = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
            // ...and optionally another arriving 2 ms in — inside any
            // delay that clears the first one.
            let _late = with_late_heavy.then(|| {
                let mut s = srv.session_with(SimTime::from_ms(10_000), 0).unwrap();
                s.set_arrival(SimTime::from_ms(2));
                s
            });
            tight.infer(&[1, 2]).expect("queue mode waits instead of shedding");
            let report = srv.contention_report();
            let decision = report.gate[0];
            assert!(!decision.shed);
            assert!(decision.delay > SimTime::ZERO, "the early heavy load forces a wait");
            assert_eq!(report.slo_hit_rate(), Some(1.0));
            decision.delay
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with > without,
            "a session arriving during the wait must lengthen it: {with} <= {without}"
        );
    }

    #[test]
    fn repeat_engagements_reuse_the_gate_decision_until_the_mix_changes() {
        let srv = server_with_backpressure(BackpressureMode::Queue(SimTime::from_ms(60_000)));
        let slo = floor_slo(&srv);
        let a = srv.session_with_slo(slo, 0).unwrap();
        let b = srv.session_with_slo(slo, 0).unwrap();
        // Fixed-point gate pass: `a` and `b` mutually co-arrive, so the
        // walk iterates until their decisions are consistent — `b` (the
        // later token) queues behind `a`, and `a`, re-gated against `b`'s
        // *decided* (delayed) position rather than its raw arrival, keeps
        // the queue head with no wait of its own.
        a.infer(&[1]).unwrap();
        a.infer(&[2]).unwrap();
        let report = srv.contention_report();
        assert_eq!(report.gate.len(), 2, "every engagement logs a decision");
        let a_token = report.gate.iter().map(|d| d.session).min().unwrap();
        let a_decisions: Vec<_> = report.gate.iter().filter(|d| d.session == a_token).collect();
        assert_eq!(a_decisions.len(), 2);
        assert_eq!(a_decisions[0], a_decisions[1], "an unchanged mix reuses the decision");
        assert_eq!(
            a_decisions[0].delay,
            SimTime::ZERO,
            "at the fixed point the earliest token runs first, not behind its own follower"
        );
        assert!(a_decisions[0].re_gated, "the decision went through the co-arrival iteration");
        assert_eq!(report.re_gated_count(), 2);
        // A registry change (a session closing) invalidates the memo: with
        // the queue to itself, the next engagement needs no delay.
        drop(b);
        a.infer(&[3]).unwrap();
        let report = srv.contention_report();
        let last = report.gate.iter().rfind(|d| d.session == a_token).unwrap();
        assert_eq!(last.delay, SimTime::ZERO, "the mix changed, the decision follows");
        assert!(!last.re_gated, "no co-arriving later session remains to re-gate against");
    }

    #[test]
    fn gate_is_inert_without_an_slo_or_with_mode_off() {
        // Off mode: SLO sessions never gate.
        let off = server_with_backpressure(BackpressureMode::Off);
        let slo = floor_slo(&off);
        let a = off.session_with_slo(slo, 0).unwrap();
        let b = off.session_with_slo(slo, 0).unwrap();
        a.infer(&[1]).unwrap();
        b.infer(&[1]).expect("mode off never sheds");
        assert!(off.contention_report().gate.is_empty());
        // Shed mode, but target sessions (no SLO): nothing to gate on.
        let shed = server_with_backpressure(BackpressureMode::Shed);
        let s1 = shed.session_with(SimTime::from_ms(300), 0).unwrap();
        let s2 = shed.session_with(SimTime::from_ms(300), 0).unwrap();
        s1.infer(&[1]).unwrap();
        s2.infer(&[1]).expect("sessions without an SLO are never gated");
        assert!(shed.contention_report().gate.is_empty());
        assert_eq!(shed.serving_stats().shed_engagements, 0);
    }
}
