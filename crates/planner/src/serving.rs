//! Serving-SLO planning: pick `(T, |S|)` for a session given its latency
//! SLO and the workload mix sharing the flash channel.
//!
//! # The single-predictor architecture
//!
//! The paper's planner answers "what is the best submodel that fits `T` on
//! an idle device". A serving runtime must answer a harder question: with N
//! co-runners streaming their own layers through the one flash channel, an
//! engagement's *contended* latency is longer than its plan's predicted
//! makespan. Every contended question in the runtime — SLO admission, the
//! infer-time backpressure gate, and the gate's replay of earlier
//! sessions' decisions — is answered by **one** prediction core:
//! [`ServingMix::predict`] in
//! [`crate::mix`]. A [`ServingMix`] canonically
//! represents the world as the predictor sees it (the open-session
//! registry's [`CoRunnerLoad`]s with arrivals and gate profiles, and the
//! [`IoSharing`](crate::IoSharing) mode — profiled loads only, never live queue state).
//! Callers build the mix that states their question and ask it directly:
//!
//! - admission: [`ServingMix::from_co_runners`] (or the server's live
//!   registry) + [`ServingMix::predict`], candidate riding last in each
//!   round-robin round;
//! - the gate: the server's live registry +
//!   [`ServingMix::gate_all`](crate::mix::ServingMix::gate_all), whose walk
//!   asks [`ServingMix::predict`] for each SLO session at its arrival and
//!   [`ServingMix::min_delay`] for the smallest delay at which that
//!   prediction meets the SLO;
//! - [`plan_for_slo_mix`](crate::mix::plan_for_slo_mix) — the `(T, |S|)`
//!   ladder search, each rung scored by the mix prediction and its `|S|`
//!   *placements* ranked by marginal contended value under the mix
//!   (sharing-aware preload; see [`crate::mix`]).
//!
//! Predictions use profiled (maximum) shard bytes and full overlap, which
//! biases conservative. Search outcomes are not memoized. A search is a
//! pure function of its inputs, and the mix among them
//! ([`ServingMix::digest`]) folds in every open session's token. Tokens
//! are never reused, so the inputs repeat only when a session drops and
//! the same request meets an identical registry.
//!
//! [`ServingMix`]: crate::mix::ServingMix
//! [`ServingMix::predict`]: crate::mix::ServingMix::predict
//! [`ServingMix::from_co_runners`]: crate::mix::ServingMix::from_co_runners
//! [`ServingMix::min_delay`]: crate::mix::ServingMix::min_delay
//! [`ServingMix::digest`]: crate::mix::ServingMix::digest

use std::sync::Arc;

/// The pipeline recurrence every contended latency is measured with,
/// defined beside the flash queue in `sti-device`.
pub use sti_device::contended_makespan;
use sti_device::{content_sig, HwProfile, SimTime};
use sti_quant::Bitwidth;
use sti_transformer::ShardId;

use crate::plan::{ExecutionPlan, PlannedLayer};

/// One streaming layer's IO job: a content signature (what would be read)
/// plus the device-model service time. A job knows nothing of placement:
/// the stripe it is read through is its session's ([`CoRunnerLoad`],
/// [`EngagementLoad`]), and two jobs share a flash read when
/// [`IoSharing::coalesces`](crate::IoSharing::coalesces) says so, the same
/// rule the IO scheduler batches by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerIoJob {
    /// The content signature (`content_sig`) of the job's `(layer, shard
    /// set, bitwidths)`: equal signatures read identical bytes, and
    /// `DeviceTopology::channel_for(sig, stripe)` places the read.
    pub sig: u64,
    /// Uncontended device-model service time of the job.
    pub service: SimTime,
}

/// Per-layer IO jobs of a plan: `Some` for layers that stream, `None` for
/// layers fully covered by the preload buffer. The signature identifies the
/// exact bytes read, so equal signatures across plans mean batchable jobs.
/// [`ExecutionPlan::new`] predicts the plan's uncontended timeline from the
/// same jobs.
pub fn layer_io_jobs(hw: &HwProfile, plan: &ExecutionPlan) -> Vec<Option<LayerIoJob>> {
    plan_layer_jobs(hw, &plan.layers, &plan.preload).collect()
}

/// [`layer_io_jobs`] over a plan's parts, before the plan exists.
pub(crate) fn plan_layer_jobs<'a>(
    hw: &'a HwProfile,
    layers: &'a [PlannedLayer],
    preload: &'a [(ShardId, Bitwidth)],
) -> impl Iterator<Item = Option<LayerIoJob>> + 'a {
    layers.iter().map(move |pl| {
        let streamed = pl.streamed(preload);
        let bytes: u64 = streamed.clone().map(|(_, bw)| hw.shard_bytes(bw)).sum();
        // The signature is the content signature of the request the
        // executor will issue for this layer, so plan-derived jobs and
        // the scheduler's queued requests agree on batchability
        // identity.
        (bytes > 0).then(|| LayerIoJob {
            sig: content_sig(pl.layer, streamed),
            service: hw.flash.request_delay(bytes),
        })
    })
}

/// An open co-runner's streaming IO load: its layer jobs in issue order
/// (preload-covered layers contribute nothing), its simulated arrival
/// offset — the time its engagements queue their requests at — and the
/// device-channel stripe its reads are placed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoRunnerLoad {
    /// The co-runner's streaming jobs, in the order its executor issues
    /// them. `Arc`-shared: registry snapshots, lane assembly, and gate
    /// replays clone a pointer, never the jobs themselves.
    pub jobs: Arc<[LayerIoJob]>,
    /// The co-runner's simulated arrival offset. The contended prediction
    /// submits its jobs at this time, so a straggler whose window does not
    /// overlap the candidate's no longer inflates the candidate's
    /// prediction.
    pub arrival: SimTime,
    /// The session's stripe, the salt its reads are placed with: job
    /// `sig` is read on device channel
    /// `DeviceTopology::channel_for(sig, stripe)`, the raw stripe, as the
    /// IO scheduler places its lane's requests. Under batching it is also
    /// where byte-identical reads of sessions on one stripe meet; under
    /// exclusive IO a plain session's stripe may be `≥ C`.
    pub stripe: u16,
}

impl CoRunnerLoad {
    /// Extracts a plan's streaming IO load (what this session contributes
    /// to the flash queue as somebody else's co-runner), arriving at
    /// simulated time zero — full co-arrival, the conservative default.
    pub fn from_plan(hw: &HwProfile, plan: &ExecutionPlan) -> Self {
        Self::from_plan_at(hw, plan, SimTime::ZERO)
    }

    /// [`CoRunnerLoad::from_plan`] with an explicit arrival offset (a trace
    /// file's `arrival_us`, or a session's `set_arrival`).
    pub fn from_plan_at(hw: &HwProfile, plan: &ExecutionPlan, arrival: SimTime) -> Self {
        Self::from_plan_striped(hw, plan, arrival, 0)
    }

    /// [`CoRunnerLoad::from_plan_at`] placed on device-channel stripe
    /// `stripe`, so the contended predictors route — and batch — this load
    /// exactly where the IO scheduler's placement would.
    pub fn from_plan_striped(
        hw: &HwProfile,
        plan: &ExecutionPlan,
        arrival: SimTime,
        stripe: u16,
    ) -> Self {
        Self { jobs: layer_io_jobs(hw, plan).into_iter().flatten().collect(), arrival, stripe }
    }
}

/// One engagement as the backpressure gate sees it: its per-layer streaming
/// jobs (`None` for preload-covered layers), its uniform per-layer compute
/// delay, the simulated time it is being submitted at, and the stripe its
/// reads are placed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngagementLoad {
    /// Per-layer IO jobs, `None` for layers the preload buffer covers.
    /// `Arc`-shared: a delay probe re-times the engagement by cloning a
    /// pointer.
    pub jobs: Arc<[Option<LayerIoJob>]>,
    /// Per-layer compute delay (uniform across a plan's layers).
    pub comp: SimTime,
    /// The engagement's arrival on the simulated timeline.
    pub arrival: SimTime,
    /// The engagement's device-channel stripe offset (see
    /// [`CoRunnerLoad::stripe`]).
    pub stripe: u16,
}

impl EngagementLoad {
    /// Builds the gate's view of one engagement of `plan` arriving at
    /// `arrival`.
    pub fn from_plan(hw: &HwProfile, plan: &ExecutionPlan, arrival: SimTime) -> Self {
        Self::from_plan_striped(hw, plan, arrival, 0)
    }

    /// [`EngagementLoad::from_plan`] placed on device-channel stripe
    /// `stripe` (see [`CoRunnerLoad::from_plan_striped`]).
    pub fn from_plan_striped(
        hw: &HwProfile,
        plan: &ExecutionPlan,
        arrival: SimTime,
        stripe: u16,
    ) -> Self {
        let jobs = layer_io_jobs(hw, plan).into();
        Self { jobs, comp: hw.t_comp(plan.shape.width), arrival, stripe }
    }

    /// The same engagement submitted `delay` later.
    pub fn delayed(&self, delay: SimTime) -> Self {
        Self { jobs: self.jobs.clone(), arrival: self.arrival + delay, ..*self }
    }
}

/// Aligns an engagement's per-layer streaming flags with the completion
/// times of its queue jobs, positionally: layer `k` takes the next
/// completion when it streamed, `None` when it was preload-covered. Returns
/// `None` on a count mismatch (an engagement that errored mid-stream has no
/// coherent contended timeline). Both the predictive track and the measured
/// replay go through here, so the layer↔job mapping cannot drift between
/// them.
pub fn align_io_completions(
    has_io: &[bool],
    completions: impl ExactSizeIterator<Item = SimTime>,
) -> Option<Vec<Option<SimTime>>> {
    if has_io.iter().filter(|&&has| has).count() != completions.len() {
        return None;
    }
    let mut next = completions;
    Some(has_io.iter().map(|&has| has.then(|| next.next().expect("count checked above"))).collect())
}

/// The outcome of an SLO-aware planning search.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPlan {
    /// The chosen execution plan.
    pub plan: ExecutionPlan,
    /// The SLO the search planned against.
    pub slo: SimTime,
    /// Co-runner count the contended prediction assumed.
    pub co_runners: usize,
    /// The chosen target latency `T` (the knob handed to the two-stage
    /// planner; at most the SLO).
    pub target: SimTime,
    /// The chosen preload budget `|S|` in bytes.
    pub preload_bytes: u64,
    /// Predicted contended latency under `co_runners` co-runners.
    pub predicted_contended: SimTime,
    /// Whether the contended prediction meets the SLO. Admission control
    /// rejects engagements whose best plan still misses.
    pub meets_slo: bool,
    /// Bytes of the default byte-prefix preload the sharing-aware `|S|`
    /// placement moved off co-resident-covered layers (or freed entirely,
    /// when riding the mix's batches beat preloading). Zero for
    /// per-session searches and whenever the default placement won.
    pub preload_bytes_reallocated: u64,
    /// The device-channel stripe offset the search placed the session on:
    /// the session's layer requests route to channels through
    /// `DeviceTopology::channel_for(sig, stripe)`. Always zero on a
    /// single-channel topology; under `C > 1` the mix-aware search ranks
    /// every stripe as a placement axis and keeps the best.
    pub stripe: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::ImportanceProfile;
    use crate::io_plan::plan_two_stage;
    use crate::mix::{plan_for_slo_mix, PreloadPolicy, ServingMix};
    use sti_device::{DeviceProfile, IoSharing};
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::ModelConfig;

    fn hw() -> HwProfile {
        HwProfile::measure(
            &DeviceProfile::odroid_n2(),
            &ModelConfig::scaled_bert(),
            &QuantConfig::default(),
        )
    }

    fn importance() -> ImportanceProfile {
        ImportanceProfile::from_scores(
            12,
            12,
            (0..144).map(|i| 0.5 + (i % 7) as f64 * 0.01).collect(),
            0.48,
        )
    }

    const WIDTHS: [usize; 4] = [3, 6, 9, 12];

    fn plan_at(target_ms: u64, preload: u64) -> ExecutionPlan {
        plan_two_stage(
            &hw(),
            &importance(),
            SimTime::from_ms(target_ms),
            preload,
            &WIDTHS,
            &Bitwidth::ALL,
        )
    }

    /// `n` co-arriving clones of `plan` as a mix.
    fn clones(hw: &HwProfile, plan: &ExecutionPlan, n: usize, sharing: IoSharing) -> ServingMix {
        ServingMix::from_co_runners(&vec![CoRunnerLoad::from_plan(hw, plan); n], sharing)
    }

    /// One engagement of `plan` arriving at time zero.
    fn load_of(hw: &HwProfile, plan: &ExecutionPlan) -> EngagementLoad {
        EngagementLoad::from_plan(hw, plan, SimTime::ZERO)
    }

    /// The per-session SLO search against `mix`, candidate arriving at zero.
    fn slo_search(slo: SimTime, mix: &ServingMix, preload: u64) -> ServingPlan {
        plan_for_slo_mix(
            &hw(),
            &importance(),
            slo,
            SimTime::ZERO,
            mix,
            PreloadPolicy::PerSession,
            preload,
            &WIDTHS,
            &Bitwidth::ALL,
        )
    }

    #[test]
    fn an_empty_mix_reproduces_the_plan_prediction() {
        let hw = hw();
        for (t, s) in [(200u64, 0u64), (300, 1 << 20), (400, 2 << 20)] {
            let plan = plan_at(t, s);
            assert_eq!(
                ServingMix::default().predict(&load_of(&hw, &plan)),
                plan.predicted.makespan,
                "T={t} |S|={s}: the contended track must collapse to the uncontended one alone"
            );
        }
    }

    #[test]
    fn contended_latency_grows_with_co_runners() {
        let hw = hw();
        let plan = plan_at(300, 0);
        let with = |n| clones(&hw, &plan, n, IoSharing::Exclusive).predict(&load_of(&hw, &plan));
        let (alone, with_one, with_four) = (with(0), with(1), with(4));
        assert!(alone < with_one, "{alone} !< {with_one}");
        assert!(with_one < with_four, "{with_one} !< {with_four}");
    }

    #[test]
    fn slo_search_meets_generous_slos_at_full_target() {
        let served = slo_search(SimTime::from_ms(2_000), &ServingMix::default(), 1 << 20);
        assert!(served.meets_slo);
        assert_eq!(served.target, SimTime::from_ms(2_000), "no contention: plan at the SLO");
        assert!(served.predicted_contended <= served.slo);
    }

    #[test]
    fn slo_search_shrinks_target_under_contention() {
        let slo = SimTime::from_ms(600);
        let alone = slo_search(slo, &ServingMix::default(), 0);
        assert!(alone.meets_slo);
        let crowded = slo_search(slo, &clones(&hw(), &alone.plan, 6, IoSharing::Exclusive), 0);
        if crowded.meets_slo {
            assert!(
                crowded.target < alone.target,
                "6 co-runners must force a smaller T: {} vs {}",
                crowded.target,
                alone.target
            );
            assert!(crowded.plan.shape.shard_count() <= alone.plan.shape.shard_count());
        } else {
            // Even the smallest ladder step missed: the planner must say so.
            assert!(crowded.predicted_contended > slo);
        }
    }

    #[test]
    fn infeasible_slo_is_flagged_not_hidden() {
        // A 5 ms SLO with 8 co-runners on Odroid flash cannot be met.
        let mix = clones(&hw(), &plan_at(200, 0), 8, IoSharing::Exclusive);
        let served = slo_search(SimTime::from_ms(5), &mix, 0);
        assert!(!served.meets_slo);
        assert!(served.predicted_contended > served.slo);
    }

    /// The batching window planner tests model (any in-window value works:
    /// clone-modeled co-runners co-arrive at time zero).
    fn batched() -> IoSharing {
        IoSharing::Batched(SimTime::from_ms(1))
    }

    #[test]
    fn batched_prediction_collapses_identical_co_runners_to_one_read() {
        let hw = hw();
        let plan = plan_at(300, 0);
        let load = load_of(&hw, &plan);
        let alone = ServingMix::default().predict(&load);
        for co_runners in [1usize, 4, 8] {
            let exclusive = clones(&hw, &plan, co_runners, IoSharing::Exclusive).predict(&load);
            let batched = clones(&hw, &plan, co_runners, batched()).predict(&load);
            assert_eq!(
                batched, alone,
                "identical co-runners share every read: contended collapses to uncontended"
            );
            assert!(batched < exclusive, "co={co_runners}");
        }
    }

    #[test]
    fn batching_does_not_help_disjoint_co_runners() {
        let hw = hw();
        let small = plan_at(200, 0);
        let big = plan_at(2_000, 0);
        assert_ne!(small.shape, big.shape, "the fixture needs genuinely different plans");
        let load = load_of(&hw, &small);
        let exclusive = clones(&hw, &big, 1, IoSharing::Exclusive).predict(&load);
        let shared = clones(&hw, &big, 1, batched()).predict(&load);
        // A bigger co-runner reads different shard sets: nothing coalesces,
        // so batching must not under-predict.
        assert!(shared <= exclusive, "sharing can only remove reads, never add them");
    }

    #[test]
    fn batched_slo_search_admits_what_exclusive_rejects() {
        let hw = hw();
        // Six co-runners already running the exact plan the SLO's first
        // ladder step produces — the identical-knob co-residency batching
        // targets.
        let slo = SimTime::from_ms(600);
        let resident = plan_at(600, 0);
        assert!(resident.predicted.makespan <= slo, "the fixture plan meets the SLO alone");
        let exclusive = slo_search(slo, &clones(&hw, &resident, 6, IoSharing::Exclusive), 0);
        let batched = slo_search(slo, &clones(&hw, &resident, 6, batched()), 0);
        assert!(batched.meets_slo, "shared IO admits the session");
        assert_eq!(
            batched.target, slo,
            "identical co-runners fully coalesce: the search admits at the full SLO target"
        );
        // The unbatched prediction has to degrade (smaller target) or
        // reject outright — that gap is what batching buys admission.
        assert!(
            !exclusive.meets_slo || exclusive.target < batched.target,
            "exclusive IO must not admit the full-target plan under 6 co-runners"
        );
    }

    #[test]
    fn co_runner_digests_distinguish_loads() {
        let hw = hw();
        let a = CoRunnerLoad::from_plan(&hw, &plan_at(300, 0));
        let b = CoRunnerLoad::from_plan(&hw, &plan_at(1_000, 0));
        let one_a = std::slice::from_ref(&a);
        let one_b = std::slice::from_ref(&b);
        let digest =
            |co: &[CoRunnerLoad]| ServingMix::from_co_runners(co, IoSharing::Exclusive).digest();
        assert_eq!(digest(one_a), digest(one_a), "digests are deterministic");
        assert_ne!(digest(one_a), digest(one_b));
        assert_ne!(digest(one_a), digest(&[a.clone(), a.clone()]));
        // The same load at a different arrival offset contends differently,
        // so the offset is part of the digest.
        let mut late = a.clone();
        late.arrival = SimTime::from_ms(500);
        assert_ne!(digest(one_a), digest(std::slice::from_ref(&late)));
        let batched_digest = ServingMix::from_co_runners(one_a, batched()).digest();
        assert_ne!(digest(one_a), batched_digest, "the sharing mode is part of the digest");
    }

    #[test]
    fn straggler_outside_the_window_does_not_inflate_the_prediction() {
        let hw = hw();
        let plan = plan_at(300, 0);
        let load = load_of(&hw, &plan);
        let alone = ServingMix::default().predict(&load);
        // The same co-runner load, co-arriving vs. arriving long after the
        // candidate's window has drained.
        let co_arriving = clones(&hw, &plan, 1, IoSharing::Exclusive);
        let straggler = ServingMix::from_co_runners(
            &[CoRunnerLoad::from_plan_at(&hw, &plan, SimTime::from_ms(600_000))],
            IoSharing::Exclusive,
        );
        assert!(co_arriving.predict(&load) > alone, "full co-arrival contends");
        assert_eq!(
            straggler.predict(&load),
            alone,
            "a straggler outside the candidate's window must not inflate its prediction"
        );
        // And an early co-runner whose work drains before a late candidate
        // arrives barely delays it either.
        let late_candidate = co_arriving.predict(&load.delayed(SimTime::from_ms(600_000)));
        assert_eq!(late_candidate, alone, "a drained queue does not delay a late candidate");
    }

    /// A synthetic co-runner lane of `n` queued jobs with the given
    /// service time each.
    fn backlog(n: usize, service: SimTime, arrival: SimTime) -> CoRunnerLoad {
        CoRunnerLoad { jobs: vec![LayerIoJob { sig: 1, service }; n].into(), arrival, stripe: 0 }
    }

    fn against(co: &[CoRunnerLoad]) -> ServingMix {
        ServingMix::from_co_runners(co, IoSharing::Exclusive)
    }

    #[test]
    fn engagement_prediction_grows_with_the_backlog_and_shrinks_with_delay() {
        let hw = hw();
        let load = load_of(&hw, &plan_at(300, 0));
        let alone = ServingMix::default().predict(&load);
        let service = SimTime::from_ms(40);
        let mut last = alone;
        for n in [1usize, 4, 16] {
            let predicted = against(&[backlog(n, service, SimTime::ZERO)]).predict(&load);
            assert!(predicted >= last, "a deeper backlog cannot predict faster");
            last = predicted;
        }
        // Submitting after the backlog drains restores the solo latency.
        let drained =
            against(&[backlog(16, service, SimTime::ZERO)]).predict(&load.delayed(service * 16));
        assert_eq!(drained, alone, "past the drain point the backlog is invisible");
    }

    #[test]
    fn min_delay_finds_the_threshold_and_flags_the_hopeless() {
        let hw = hw();
        let load = load_of(&hw, &plan_at(300, 0));
        let alone = ServingMix::default().predict(&load);
        let mix = against(&[backlog(8, SimTime::from_ms(50), SimTime::ZERO)]);
        let generous = SimTime::from_ms(600_000);
        // No backlog: zero delay, prediction unchanged.
        let (d, p) = ServingMix::default().min_delay(&load, generous, generous).unwrap();
        assert_eq!((d, p), (SimTime::ZERO, alone));
        // A tight-but-feasible SLO: the search must find a delay whose
        // prediction meets it, and a smaller delay must not.
        let slo = alone + SimTime::from_ms(20);
        let (delay, predicted) = mix
            .min_delay(&load, slo, generous)
            .expect("draining the backlog makes the SLO feasible");
        assert!(delay > SimTime::ZERO);
        assert!(predicted <= slo);
        if let Some(earlier) = delay.checked_sub(SimTime::from_us(1)) {
            assert!(mix.predict(&load.delayed(earlier)) > slo, "the found delay must be minimal");
        }
        // An SLO below the uncontended makespan is hopeless at any delay.
        assert!(mix.min_delay(&load, alone - SimTime::from_us(1), generous).is_err());
        // A max-delay cap below the threshold also sheds.
        let capped = mix.min_delay(&load, slo, SimTime::from_us(1));
        assert!(capped.is_err(), "the cap binds before the backlog drains");
    }

    #[test]
    fn min_delay_climbs_past_windows_the_delay_lands_in() {
        let hw = hw();
        let load = load_of(&hw, &plan_at(300, 0));
        let alone = ServingMix::default().predict(&load);
        let generous = SimTime::from_ms(600_000);
        let slo = alone + SimTime::from_ms(20);
        // Co-arriving backlog alone: the delay clears its drain point.
        let co_arriving = backlog(8, SimTime::from_ms(50), SimTime::ZERO);
        let (d1, _) =
            against(std::slice::from_ref(&co_arriving)).min_delay(&load, slo, generous).unwrap();
        // Add a second lane arriving right where that delay would land the
        // engagement: the search must climb past it too.
        let both = against(&[co_arriving, backlog(8, SimTime::from_ms(50), d1)]);
        let (d2, predicted) = both.min_delay(&load, slo, generous).unwrap();
        assert!(d2 > d1, "a window the delay lands in must lengthen the wait: {d2} <= {d1}");
        assert!(predicted <= slo);
        assert_eq!(both.predict(&load.delayed(d2)), predicted);
    }

    #[test]
    fn batched_engagement_prediction_rides_the_backlog_for_free() {
        let hw = hw();
        let load = load_of(&hw, &plan_at(300, 0));
        // A backlog that is exactly another engagement of the same plan,
        // co-arriving on one lane.
        let twin = [CoRunnerLoad {
            jobs: load.jobs.iter().flatten().copied().collect(),
            arrival: SimTime::ZERO,
            stripe: 0,
        }];
        let exclusive = against(&twin).predict(&load);
        let shared = ServingMix::from_co_runners(&twin, batched()).predict(&load);
        let alone = ServingMix::default().predict(&load);
        assert!(exclusive > alone, "an exclusive twin contends");
        assert_eq!(shared, alone, "a byte-identical in-window backlog batches away");
    }
}
