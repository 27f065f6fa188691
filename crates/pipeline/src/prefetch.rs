//! The server's next-engagement prefetch driver.
//!
//! With a [`PrefetchConfig`] enabled, every engagement completion is
//! observed in a per-client Markov chain
//! ([`sti_planner::prefetch::Prefetcher`]); when an edge clears the
//! confidence floor the model emits a budgeted [`PrefetchPlan`], and
//! [`PrefetchDriver`] turns it into [`SpeculativeJob`]s — background flash
//! jobs that warm the predicted next engagement's streamed working set
//! into the shard cache's staging pool during idle device-channel windows.
//! Speculation is strictly fenced off the demand path: demand dispatches
//! always preempt it, gate decisions never read it, and a wrong prediction
//! costs wasted bytes, never an SLO miss.
//!
//! The driver owns the model and the key → working-set table; it returns
//! jobs instead of submitting them, so it needs no scheduler. A working set
//! is a plan and a stripe, never a preload buffer: the plan says what its
//! engagements stream
//! ([`PlannedLayer::streamed`](sti_planner::PlannedLayer::streamed)), so the
//! table keeps no preload payload alive, and a knob set whose last session
//! closed refills its buffer on its next open.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use sti_device::{content_sig, DeviceTopology, SimTime};
use sti_planner::prefetch::{
    EngagementKey, KeyId, PrefetchConfig, PrefetchMode, PrefetchPlan, Prefetcher, PrefetcherStats,
};
use sti_planner::ExecutionPlan;
use sti_storage::{FlashDispatchEvent, PrefetchPoolStats, ShardKey, ShardSource, SpeculativeJob};
use sti_transformer::ShardId;

/// The prefetcher's end-to-end report surface: the Markov model's
/// counters, the staging pool's hit accounting, and the speculative
/// dispatch totals
/// ([`StiServer::prefetch_report`](crate::server::StiServer::prefetch_report)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchReport {
    /// The configured mode.
    pub mode: PrefetchMode,
    /// Markov-model counters (observations, plans, rejections, feedback).
    pub model: PrefetcherStats,
    /// Staging-pool counters (staged/pinned/hit bytes, evictions).
    pub pool: PrefetchPoolStats,
    /// Speculative flash jobs dispatched so far.
    pub jobs: u64,
    /// Bytes speculatively read from flash.
    pub speculated_bytes: u64,
    /// Bytes pinned from resident blobs at zero flash cost.
    pub pinned_bytes: u64,
}

/// The resolved working set behind one engagement key: the plan, which
/// decides what its engagements stream, and the stripe they stream on.
#[derive(Clone)]
pub(crate) struct PrefetchTarget {
    pub(crate) plan: Arc<ExecutionPlan>,
    pub(crate) stripe: u16,
}

/// The shared Markov model plus the key-to-working-set table that turns a
/// predicted [`KeyId`] back into the concrete plan and stripe to stage.
pub(crate) struct PrefetchDriver {
    cfg: PrefetchConfig,
    /// Observations are serialized through this lock; under the event
    /// executor completions arrive in deterministic simulated order, so
    /// the prediction stream is deterministic too.
    model: Mutex<Prefetcher>,
    /// What to materialize when a key is predicted, registered the first
    /// time the key is *observed* since the last plan invalidation — a
    /// prediction names a key some session has already run, so the lookup
    /// misses only for a key not run again since then.
    targets: Mutex<HashMap<KeyId, PrefetchTarget>>,
}

impl PrefetchDriver {
    pub(crate) fn new(cfg: PrefetchConfig) -> Self {
        Self { cfg, model: Mutex::new(Prefetcher::new(cfg)), targets: Mutex::new(HashMap::new()) }
    }

    /// Observes one completion of `client`'s engagement `key` (whose
    /// working set is `target`) at simulated time `now` — the tick any
    /// speculation becomes available to run, and the arrival its contended
    /// pricing uses — and returns the speculative jobs to submit: empty
    /// unless a prediction cleared the confidence floor.
    pub(crate) fn observe(
        &self,
        client: u64,
        key: EngagementKey,
        target: impl FnOnce() -> PrefetchTarget,
        now: SimTime,
        topology: DeviceTopology,
        source: &dyn ShardSource,
    ) -> Vec<SpeculativeJob> {
        let plan = {
            let mut model = self.model.lock();
            let id = model.intern(key);
            self.targets.lock().entry(id).or_insert_with(target);
            model.observe(client, id, now)
        };
        let Some(plan) = plan else { return Vec::new() };
        let Some(target) = self.targets.lock().get(&plan.predicted).cloned() else {
            return Vec::new();
        };
        speculative_jobs(&plan, &target, topology, source)
    }

    /// Drops a closed session's chain. Session tokens are never reused, so
    /// no later observation could have continued it.
    pub(crate) fn forget(&self, client: u64) {
        self.model.lock().forget(client);
    }

    /// Drops every registered working set, so no invalidated plan is kept
    /// alive or staged by this table; each key re-registers the plan in use
    /// at its next observation.
    pub(crate) fn forget_targets(&self) {
        self.targets.lock().clear();
    }

    /// Chains the model holds: one per session that completed an engagement
    /// and has not closed.
    #[cfg(test)]
    pub(crate) fn client_count(&self) -> usize {
        self.model.lock().client_count()
    }

    /// The Markov model's counters.
    pub(crate) fn model_stats(&self) -> PrefetcherStats {
        self.model.lock().stats()
    }

    /// The end-to-end report over the model's counters, the staging pool's
    /// and the scheduler's speculative dispatch log, which it sums in
    /// place. It takes no lock, so it may run under the scheduler's.
    pub(crate) fn report(
        &self,
        model: PrefetcherStats,
        pool: PrefetchPoolStats,
        speculative: &[FlashDispatchEvent],
    ) -> PrefetchReport {
        PrefetchReport {
            mode: self.cfg.mode,
            model,
            pool,
            jobs: speculative.len() as u64,
            speculated_bytes: speculative.iter().map(|e| e.bytes).sum(),
            pinned_bytes: speculative.iter().map(|e| e.hit_bytes).sum(),
        }
    }
}

/// Turns an emitted [`PrefetchPlan`] into speculative scheduler jobs: the
/// predicted engagement's *streamed* working set (what its plan streams,
/// [`PlannedLayer::streamed`](sti_planner::PlannedLayer::streamed)),
/// grouped onto the device channels its layer requests would really route
/// to, byte-capped at the plan budget.
fn speculative_jobs(
    plan: &PrefetchPlan,
    target: &PrefetchTarget,
    topology: DeviceTopology,
    source: &dyn ShardSource,
) -> Vec<SpeculativeJob> {
    let mut budget = plan.budget_bytes;
    let mut jobs: BTreeMap<u16, Vec<ShardKey>> = BTreeMap::new();
    let preload = &target.plan.preload;
    'layers: for pl in &target.plan.layers {
        let streamed = pl.streamed(preload);
        let dc = topology.channel_for(content_sig(pl.layer, streamed.clone()), target.stripe);
        for (slice, bw) in streamed {
            let key = ShardKey::new(ShardId::new(pl.layer, slice), bw);
            let bytes = match source.size_bytes(key) {
                Ok(bytes) if bytes > 0 => bytes,
                _ => continue,
            };
            if bytes > budget {
                break 'layers;
            }
            budget -= bytes;
            jobs.entry(dc).or_default().push(key);
        }
    }
    jobs.into_iter()
        .map(|(device_channel, keys)| SpeculativeJob {
            session: plan.client,
            device_channel,
            arrival: plan.emitted_at,
            keys,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::executor::PipelineExecutor;
    use crate::server::tests::tiny_server;
    use crate::server::StiServer;
    use sti_device::{DeviceProfile, HwProfile, IoSharing};
    use sti_planner::{
        layer_io_jobs, plan_two_stage, CoRunnerLoad, EngagementLoad, ImportanceProfile, LayerIoJob,
        ServingMix,
    };
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_storage::{IoScheduler, ShardCache, ShardStore};
    use sti_tensor::Rng;
    use sti_transformer::{Model, ModelConfig, ShardId};

    fn server() -> StiServer {
        tiny_server(ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 64 << 10,
            ..ServeConfig::default()
        })
    }

    /// A server with a deliberately tiny main shard cache (so demand
    /// misses recur) and the Markov prefetcher on.
    fn prefetch_server() -> StiServer {
        tiny_server(ServeConfig {
            target: SimTime::from_ms(300),
            preload_bytes: 0,
            shard_cache_bytes: 1 << 10,
            prefetch: PrefetchConfig::markov(1 << 20),
            ..ServeConfig::default()
        })
    }

    #[test]
    fn prefetch_report_is_none_with_prefetch_off() {
        let srv = server();
        assert!(srv.prefetch_report().is_none());
        let s = srv.session().unwrap();
        s.infer(&[1, 2, 3]).unwrap();
        assert!(srv.contention_report().prefetch.is_none());
    }

    #[test]
    fn markov_prefetch_stages_the_predicted_working_set_and_serves_later_misses() {
        let srv = prefetch_server();
        let mut s = srv.session().unwrap();
        s.set_issue_gap(SimTime::from_ms(50));
        s.infer(&[1, 2, 3]).unwrap();
        assert_eq!(srv.drive_io(), 0, "a blocking infer leaves nothing queued");
        // The second completion creates the self-recurrence edge and emits
        // a plan; the blocking infer stages its jobs before it returns.
        s.infer(&[1, 2, 3]).unwrap();
        assert_eq!(srv.drive_io(), 0, "the speculation was staged, not queued");
        let report = srv.prefetch_report().unwrap();
        assert!(report.model.plans >= 1, "a self-recurrent session must emit a plan");
        assert!(report.jobs >= 1, "the plan must materialize into speculative jobs");
        assert!(
            report.speculated_bytes + report.pinned_bytes > 0,
            "speculation must stage or pin something"
        );
        // The next engagement's demand misses promote staged blobs out of
        // the pool instead of re-reading flash.
        s.infer(&[1, 2, 3]).unwrap();
        assert_eq!(srv.drive_io(), 0);
        let pool = srv.prefetch_report().unwrap().pool;
        assert!(pool.hits > 0, "staged shards must serve the next engagement's misses");
        assert!(pool.hit_bytes > 0);
        // Contended pricing exists, charges the speculative service time,
        // and speculation never leaks into demand aggregates.
        let contention = srv.contention_report();
        let spec = contention.prefetch.expect("prefetch pricing present when enabled");
        // The third completion may have emitted (and run) another plan; the
        // priced jobs can only grow past the harvested count.
        assert!(spec.jobs >= report.jobs);
        assert!(spec.busy > SimTime::ZERO || spec.speculated_bytes == 0);
    }

    /// One decision, three readers: over two-stage plans at several `(T,
    /// |S|)` on a 4-channel device, at every stripe, the executor
    /// dispatches one request per layer the plan streams, in layer order,
    /// each on the channel its [`layer_io_jobs`] signature places at the
    /// stripe; and the prefetcher stages exactly those layers' keys, in
    /// layer order as far as its budget reaches, on the same channels. Two
    /// co-arriving sessions on one plan and two stripes, batched, read a
    /// layer once exactly where both stripes place it on one channel, and
    /// the planner's predicted dispatches are the scheduler's.
    #[test]
    fn the_planner_the_scheduler_and_the_prefetcher_agree_on_what_streams() {
        let cfg = ModelConfig { layers: 6, ..ModelConfig::tiny() };
        let model = Model::synthetic(53, cfg.clone());
        let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
        let source = Arc::new(
            ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
        );
        let mut rng = Rng::new(53);
        let scores = (0..cfg.total_shards()).map(|_| f64::from(rng.next_f32())).collect();
        let importance = ImportanceProfile::from_scores(cfg.layers, cfg.heads, scores, 0.45);
        let topology = DeviceTopology::with_channels(4);
        let exec = PipelineExecutor::new(&model, source.clone(), &hw);
        let size = |key: &ShardKey| source.size_bytes(*key).unwrap();
        let (mut streamed, mut covered, mut cut, mut shared) = (0, 0, 0, 0);
        for (target_ms, preload) in [(40, 0), (60, 2 << 10), (80, 6 << 10), (120, 1 << 20)] {
            let target = SimTime::from_ms(target_ms);
            let plan = plan_two_stage(&hw, &importance, target, preload, &[2, 4], &Bitwidth::ALL);
            // Per streamed layer, in layer order: its keys and its job.
            let layers: Vec<(Vec<ShardKey>, LayerIoJob)> = plan
                .layers
                .iter()
                .zip(layer_io_jobs(&hw, &plan))
                .filter_map(|(pl, job)| {
                    let key = |(slice, bw)| ShardKey::new(ShardId::new(pl.layer, slice), bw);
                    Some((pl.streamed(&plan.preload).map(key).collect(), job?))
                })
                .collect();
            streamed += layers.len();
            covered += plan.layers.len() - layers.len();
            let stream_bytes: u64 = layers.iter().flat_map(|(keys, _)| keys).map(size).sum();
            let target = PrefetchTarget { plan: Arc::new(plan), stripe: 0 };
            for stripe in 0..topology.channel_count() {
                let place = |job: &LayerIoJob| topology.channel_for(job.sig, stripe);
                let cache = Arc::new(ShardCache::new(0));
                let sharing = IoSharing::Exclusive;
                let scheduler =
                    IoScheduler::spawn(source.clone(), hw.flash, cache, sharing, topology);
                let lane = scheduler.channel_striped_at(SimTime::ZERO, stripe);
                exec.issue_on(&lane, &target.plan).unwrap();
                scheduler.drive_queued();
                let dispatched: Vec<(u16, u64)> = scheduler.with_event_logs(|demand, _| {
                    demand.iter().map(|e| (e.device_channel, e.bytes)).collect()
                });
                let want: Vec<(u16, u64)> = layers
                    .iter()
                    .map(|(keys, job)| (place(job), keys.iter().map(size).sum()))
                    .collect();
                assert_eq!(
                    dispatched, want,
                    "T = {target_ms} ms, |S| = {preload} B, stripe {stripe}"
                );

                let target = PrefetchTarget { stripe, ..target.clone() };
                for budget in [u64::MAX, stream_bytes / 2] {
                    let prediction = PrefetchPlan {
                        client: 7,
                        predicted: KeyId(0),
                        budget_bytes: budget,
                        emitted_at: SimTime::ZERO,
                    };
                    let staged: Vec<(u16, ShardKey)> =
                        speculative_jobs(&prediction, &target, topology, &*source)
                            .into_iter()
                            .flat_map(|job| {
                                job.keys.into_iter().map(move |k| (job.device_channel, k))
                            })
                            .collect();
                    // The streamed keys in layer order up to the budget,
                    // grouped by channel.
                    let mut left = budget;
                    let mut want: Vec<(u16, ShardKey)> = Vec::new();
                    'layers: for (keys, job) in &layers {
                        for key in keys {
                            if size(key) > left {
                                cut += 1;
                                break 'layers;
                            }
                            left -= size(key);
                            want.push((place(job), *key));
                        }
                    }
                    want.sort_by_key(|&(dc, _)| dc);
                    assert_eq!(
                        staged, want,
                        "T = {target_ms} ms, |S| = {preload} B, stripe {stripe}"
                    );
                }

                // The same plan on this stripe and every higher one, both
                // sessions at time zero, batched.
                for other in stripe + 1..topology.channel_count() {
                    let sharing = IoSharing::Batched(SimTime::ZERO);
                    let cache = Arc::new(ShardCache::new(0));
                    let scheduler =
                        IoScheduler::spawn(source.clone(), hw.flash, cache, sharing, topology);
                    let lanes =
                        [stripe, other].map(|s| scheduler.channel_striped_at(SimTime::ZERO, s));
                    for lane in &lanes {
                        exec.issue_on(lane, &target.plan).unwrap();
                    }
                    scheduler.drive_queued();
                    let dispatched: Vec<(u16, usize)> = scheduler.with_event_logs(|demand, _| {
                        demand.iter().map(|e| (e.device_channel, e.fanout())).collect()
                    });
                    let mut mix = ServingMix::new(sharing).with_topology(topology);
                    let resident =
                        CoRunnerLoad::from_plan_striped(&hw, &target.plan, SimTime::ZERO, stripe);
                    mix.push_session(0, resident, None);
                    let load =
                        EngagementLoad::from_plan_striped(&hw, &target.plan, SimTime::ZERO, other);
                    let predicted: Vec<(u16, usize)> = mix
                        .predicted_dispatches(&load)
                        .iter()
                        .map(|d| (d.device_channel, 1 + d.members.len()))
                        .collect();
                    let case =
                        format!("T = {target_ms} ms, |S| = {preload} B, stripes {stripe}, {other}");
                    assert_eq!(dispatched, predicted, "{case}");
                    let batched = layers.iter().filter(|(_, job)| {
                        topology.channel_for(job.sig, stripe)
                            == topology.channel_for(job.sig, other)
                    });
                    let batched = batched.count();
                    assert_eq!(dispatched.iter().filter(|d| d.1 == 2).count(), batched, "{case}");
                    assert_eq!(dispatched.len(), 2 * layers.len() - batched, "{case}");
                    shared += batched;
                }
            }
        }
        assert!(streamed > 0 && covered > 0, "plans both stream layers and preload whole ones");
        assert!(cut > 0, "a budget cuts some staging short");
        assert!(shared > 0, "two stripes place some layer on one channel");
    }

    /// Invalidation drops both holders of pre-invalidation state: the staged
    /// shards and the working sets the prefetcher registered.
    #[test]
    fn invalidation_drops_staged_shards_and_the_plans_they_were_staged_for() {
        let srv = prefetch_server();
        let mut s = srv.session().unwrap();
        s.set_issue_gap(SimTime::from_ms(50));
        s.infer(&[1, 2, 3]).unwrap();
        s.infer(&[1, 2, 3]).unwrap();
        assert!(srv.shard_cache_resident_bytes().1 > 0, "the prediction staged something");
        srv.invalidate_plans();
        assert_eq!(srv.shard_cache_resident_bytes(), (0, 0), "nothing stale stays staged");
        drop(s);
        assert_eq!(srv.cached_plans(), 0, "no table keeps an invalidated plan alive");
    }
}
