//! The SLO admission verdict.
//!
//! Every SLO planning request — a fresh open or an in-place retarget — ends
//! in the same question: the search's best plan is predicted at
//! `predicted_contended` under `co_runners` co-runners; does the server
//! take it? [`Admission::check`] answers per [`AdmissionMode`], and
//! [`Admission::admitted`] books a taken plan. The two request kinds differ
//! only in what they *report*, carried as data (`check`'s `open_token`,
//! `admitted`'s [`Origin`]):
//!
//! | | open | retarget |
//! |---|---|---|
//! | rejected (`Enforce`) | `serving.rejected_sessions` + `admission.reject` marker | error only — the session keeps its plan |
//! | would-be rejection (`Monitor`) | `serving.monitor_violations` | `serving.monitor_violations` |
//! | admitted | `serving.admitted_sessions` + `admission.admit` marker; **adds** its reallocated bytes | **replaces** its reallocated-bytes contribution |

use sti_device::SimTime;
use sti_obs::{Counter, Gauge, MetricsRegistry, ObsSink, SpanArgs, SpanEvent, TrackKind};
use sti_planner::serving::ServingPlan;

use crate::error::PipelineError;

/// What the server does with an engagement whose best SLO-aware plan still
/// misses its SLO under the predicted contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// No admission checks (the pre-SLO behaviour).
    #[default]
    Disabled,
    /// Admit everything but count would-be rejections
    /// ([`ServingStats::monitor_violations`](crate::server::ServingStats::monitor_violations)).
    Monitor,
    /// Reject with [`PipelineError::AdmissionRejected`].
    Enforce,
}

/// Who took a plan — the bookkeeping asymmetry of the module-doc table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// A fresh open.
    Open,
    /// An open session re-planned in place; the new plan's reallocated
    /// bytes replace `replaces`, the session's current contribution to
    /// `serving.preload_bytes_reallocated`.
    Retarget { replaces: u64 },
}

/// The admission policy and its instruments.
pub(crate) struct Admission {
    mode: AdmissionMode,
    pub(crate) admitted_sessions: Counter,
    pub(crate) rejected_sessions: Counter,
    pub(crate) monitor_violations: Counter,
    /// A gauge, not a counter: retargets *replace* a session's
    /// contribution (sub then add), which a monotonic counter cannot
    /// represent.
    pub(crate) preload_bytes_reallocated: Gauge,
}

fn marker(name: &'static str, token: u64, arrival: SimTime, served: &ServingPlan) -> SpanEvent {
    SpanEvent::instant(TrackKind::Session, token, name, arrival.as_us()).with_args(
        SpanArgs::new()
            .with("predicted_us", served.predicted_contended.as_us())
            .with("slo_us", served.slo.as_us())
            .with("co_runners", served.co_runners as u64),
    )
}

impl Admission {
    pub(crate) fn new(mode: AdmissionMode, registry: &MetricsRegistry) -> Self {
        Self {
            mode,
            admitted_sessions: registry.counter("serving.admitted_sessions"),
            rejected_sessions: registry.counter("serving.rejected_sessions"),
            monitor_violations: registry.counter("serving.monitor_violations"),
            preload_bytes_reallocated: registry.gauge("serving.preload_bytes_reallocated"),
        }
    }

    /// The verdict on a search outcome for a session arriving at `arrival`.
    /// `open_token` is the registry token a fresh open would take (stable:
    /// SLO opens serialize, so the marker track is deterministic across
    /// replays) — its rejection is counted and marked on that token's
    /// track; `None` for a retarget, whose rejection is an error only.
    ///
    /// # Errors
    ///
    /// [`PipelineError::AdmissionRejected`] under [`AdmissionMode::Enforce`]
    /// when the prediction misses the SLO.
    pub(crate) fn check(
        &self,
        served: &ServingPlan,
        open_token: Option<u64>,
        arrival: SimTime,
        obs: &ObsSink,
    ) -> Result<(), PipelineError> {
        match self.mode {
            _ if served.meets_slo => Ok(()),
            AdmissionMode::Enforce => {
                if let Some(token) = open_token {
                    self.rejected_sessions.incr();
                    obs.span(marker("admission.reject", token, arrival, served));
                }
                Err(PipelineError::AdmissionRejected {
                    predicted: served.predicted_contended,
                    slo: served.slo,
                    co_runners: served.co_runners,
                })
            }
            AdmissionMode::Monitor => {
                self.monitor_violations.incr();
                Ok(())
            }
            AdmissionMode::Disabled => Ok(()),
        }
    }

    /// Books the plan session `token` has taken (after [`Admission::check`]
    /// passed and its load is registered).
    pub(crate) fn admitted(
        &self,
        served: &ServingPlan,
        origin: Origin,
        token: u64,
        arrival: SimTime,
        obs: &ObsSink,
    ) {
        match origin {
            Origin::Open => {
                self.admitted_sessions.incr();
                obs.span(marker("admission.admit", token, arrival, served));
            }
            Origin::Retarget { replaces } => {
                self.preload_bytes_reallocated.sub(replaces);
            }
        }
        self.preload_bytes_reallocated.add(served.preload_bytes_reallocated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::server::tests::{floor_slo, tiny_server};
    use crate::server::StiServer;
    use sti_device::{DeviceProfile, HwProfile};
    use sti_planner::{plan_two_stage, ImportanceProfile};
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::ModelConfig;

    fn server_with_admission(mode: AdmissionMode) -> StiServer {
        tiny_server(ServeConfig { preload_bytes: 0, admission: mode, ..ServeConfig::default() })
    }

    fn arrival() -> SimTime {
        SimTime::from_us(250)
    }

    /// A hand-built search outcome (planned from device tables — no model,
    /// no store): a 100 ms SLO under 3 co-runners, predicted inside or
    /// outside it.
    fn served(meets_slo: bool, preload_bytes_reallocated: u64) -> ServingPlan {
        let cfg = ModelConfig::tiny();
        let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            vec![0.5; cfg.total_shards()],
            0.45,
        );
        let target = SimTime::from_ms(80);
        ServingPlan {
            plan: plan_two_stage(&hw, &importance, target, 0, &[2, 4], &Bitwidth::ALL),
            slo: SimTime::from_ms(100),
            co_runners: 3,
            target,
            preload_bytes: 0,
            predicted_contended: SimTime::from_ms(if meets_slo { 90 } else { 120 }),
            meets_slo,
            preload_bytes_reallocated,
            stripe: 0,
        }
    }

    /// The marker's `(name, track, tick, args)`.
    fn shape(span: &SpanEvent) -> (&'static str, u64, u64, Vec<(&'static str, u64)>) {
        (span.name, span.track, span.start_us, span.args.entries().to_vec())
    }

    #[test]
    fn the_verdict_table_fires_exactly_the_documented_counters_and_markers() {
        use AdmissionMode::{Disabled, Enforce, Monitor};
        for mode in [Enforce, Monitor, Disabled] {
            for meets in [true, false] {
                for open_token in [Some(7), None] {
                    let case = format!("{mode:?} / meets {meets} / open as {open_token:?}");
                    let admission = Admission::new(mode, &MetricsRegistry::new());
                    let obs = ObsSink::ring(1 << 16);
                    let verdict = admission.check(&served(meets, 0), open_token, arrival(), &obs);
                    let rejected = mode == Enforce && !meets;
                    match verdict {
                        Err(PipelineError::AdmissionRejected { predicted, slo, co_runners }) => {
                            assert!(rejected, "{case}");
                            assert_eq!(
                                (predicted, slo, co_runners),
                                (SimTime::from_ms(120), SimTime::from_ms(100), 3),
                            );
                        }
                        Err(other) => panic!("{case}: unexpected {other}"),
                        Ok(()) => assert!(!rejected, "{case}"),
                    }
                    // Only a rejected *open* is counted and marked; a
                    // rejected retarget is the error and nothing else.
                    let marked = rejected && open_token.is_some();
                    assert_eq!(admission.rejected_sessions.get(), marked as u64, "{case}");
                    let violation = mode == Monitor && !meets;
                    assert_eq!(admission.monitor_violations.get(), violation as u64, "{case}");
                    assert_eq!(admission.admitted_sessions.get(), 0, "{case}: check never books");
                    assert_eq!(admission.preload_bytes_reallocated.get(), 0, "{case}");
                    let (spans, _) = obs.drain();
                    let want = marked.then(|| {
                        let args =
                            vec![("predicted_us", 120_000), ("slo_us", 100_000), ("co_runners", 3)];
                        ("admission.reject", 7, arrival().as_us(), args)
                    });
                    assert_eq!(spans.iter().map(shape).collect::<Vec<_>>(), Vec::from_iter(want));
                }
            }
        }
    }

    #[test]
    fn only_opens_count_as_admitted_and_a_retarget_replaces_its_bytes() {
        let admission = Admission::new(AdmissionMode::Enforce, &MetricsRegistry::new());
        let obs = ObsSink::ring(1 << 16);
        admission.admitted(&served(true, 4096), Origin::Open, 3, arrival(), &obs);
        assert_eq!(admission.admitted_sessions.get(), 1);
        assert_eq!(admission.preload_bytes_reallocated.get(), 4096);
        // The retarget swaps the session's 4096 for 1024: no admit count,
        // no marker.
        let retarget = Origin::Retarget { replaces: 4096 };
        admission.admitted(&served(true, 1024), retarget, 3, arrival(), &obs);
        assert_eq!(admission.admitted_sessions.get(), 1);
        assert_eq!(admission.preload_bytes_reallocated.get(), 1024);
        // A second open adds to it.
        admission.admitted(&served(true, 512), Origin::Open, 4, arrival(), &obs);
        assert_eq!(admission.admitted_sessions.get(), 2);
        assert_eq!(admission.preload_bytes_reallocated.get(), 1536);
        let (spans, _) = obs.drain();
        let tracks: Vec<_> = spans.iter().map(|s| (s.name, s.track)).collect();
        assert_eq!(tracks, [("admission.admit", 3), ("admission.admit", 4)]);
        assert_eq!(admission.rejected_sessions.get() + admission.monitor_violations.get(), 0);
    }

    #[test]
    fn enforce_rejects_an_unmeetable_slo() {
        let srv = server_with_admission(AdmissionMode::Enforce);
        let slo = floor_slo(&srv);
        // Alone the floor SLO is exactly achievable...
        let first = srv.session_with_slo(slo, 0).unwrap();
        // ...but with a co-runner on the flash channel it no longer is.
        let err = srv.session_with_slo(slo, 0).unwrap_err();
        match err {
            PipelineError::AdmissionRejected { predicted, slo: got, co_runners } => {
                assert!(predicted > got);
                assert_eq!(co_runners, 1);
            }
            other => panic!("expected AdmissionRejected, got {other}"),
        }
        let stats = srv.serving_stats();
        assert_eq!((stats.admitted_sessions, stats.rejected_sessions), (1, 1));
        drop(first);
        // With the channel free again the same SLO admits.
        assert!(srv.session_with_slo(slo, 0).is_ok());
    }

    #[test]
    fn monitor_admits_but_counts_violations() {
        let srv = server_with_admission(AdmissionMode::Monitor);
        let slo = floor_slo(&srv);
        let _first = srv.session_with_slo(slo, 0).unwrap();
        let second = srv.session_with_slo(slo, 0);
        assert!(second.is_ok(), "monitor mode must not reject");
        assert_eq!(srv.serving_stats().monitor_violations, 1);
    }
}
