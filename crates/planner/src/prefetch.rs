//! Markov next-engagement prediction: the learning half of the serving
//! prefetcher (mirroring preload-ng's domain model — per-pair Markov edges
//! over ID-keyed stores, a budgeted `PrefetchPlan`, and an admission policy
//! with a TTL/LRU rejection cache).
//!
//! The [`Prefetcher`] watches the engagement completion stream: every
//! completed engagement is an observation `(client, engagement key, time)`,
//! where the **engagement key** is the interned `(model, knob-set)` identity
//! of what the client just ran ([`EngagementKey`]: target, preload budget,
//! SLO, stripe). A per-client chain remembers the client's previous key,
//! feeding a shared store of per-pair [`MarkovEdge`]s keyed by [`KeyId`]
//! pairs — each edge two counters, follows and breaks, and nothing a
//! prediction does not read. Unlike preload-ng's exe pairs, *self*-edges are
//! meaningful here (a recurrent client re-runs the same knob set), so the
//! store keeps them.
//!
//! At each observation the model may emit a [`PrefetchPlan`]: the successor
//! key with the highest follow confidence at or above the confidence floor,
//! plus the byte budget the executor may stage for it. Plans pass an
//! admission policy first — a TTL/LRU **rejection cache** of predictions
//! that keep being wrong (the client's actual next key disagreed), with TTL
//! escalation on repeat offenders, so a pathological edge costs a bounded
//! number of wasted speculations before it is silenced.
//!
//! Everything here is a pure state machine over the observation sequence:
//! feed the same observations in the same order and the emitted plans are
//! identical. Under the event executor the completion stream is
//! deterministic, so prefetch decisions are too; sessions driven from
//! several host threads interleave observations racily and get best-effort
//! predictions (the serving fencing contract makes that safe — wrong or
//! missing predictions cost only bytes).

use std::collections::HashMap;

use sti_device::SimTime;

/// Whether (and how) the serving prefetcher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchMode {
    /// No prediction, no speculative IO (the default).
    #[default]
    Off,
    /// Markov next-engagement prediction over the completion stream.
    Markov,
}

impl PrefetchMode {
    /// Parses the CLI spelling (`off` | `markov`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "markov" => Some(Self::Markov),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Markov => "markov",
        }
    }
}

/// Minimum follow confidence (`follows / (follows + breaks)`) an edge
/// needs before its successor is worth staging.
const CONFIDENCE_FLOOR: f64 = 0.5;
/// Minimum observations of an edge's source before its statistics are
/// trusted at all.
const MIN_SAMPLES: u32 = 1;
/// Rejection-cache TTL in observations: a prediction whose outcome was
/// wrong silences its edge for `REJECTION_TTL * strikes` further
/// observations.
const REJECTION_TTL: u64 = 8;
/// LRU capacity of the rejection cache.
const REJECTION_CAP: usize = 256;
/// Cap on stored Markov edges (LRU-evicted beyond this).
const MAX_EDGES: usize = 4096;

/// Prefetcher knobs: the mode and the byte budget. [`PrefetchConfig::default`]
/// is off; `markov(budget)` enables prediction with the given per-plan byte
/// budget. The model's own constants (confidence floor, sample minimum,
/// rejection-cache TTL and capacity, edge cap) are module constants, not
/// options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Off / Markov.
    pub mode: PrefetchMode,
    /// Byte cap per emitted plan — also the staging-pool budget the
    /// executor warms into.
    pub budget_bytes: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self { mode: PrefetchMode::Off, budget_bytes: 64 << 10 }
    }
}

impl PrefetchConfig {
    /// Markov prediction with an explicit per-plan byte budget.
    pub fn markov(budget_bytes: u64) -> Self {
        Self { mode: PrefetchMode::Markov, budget_bytes }
    }

    /// Whether prediction is enabled at all.
    pub fn enabled(&self) -> bool {
        self.mode != PrefetchMode::Off
    }
}

/// The `(model, knob-set)` identity of an engagement — what distinguishes
/// "which kind of engagement ran" in the completion stream. Two sessions
/// with equal keys resolve the same plan through the shared caches, so a
/// predicted key names a concrete shard working set to warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngagementKey {
    /// Target latency `T` in simulated µs.
    pub target_us: u64,
    /// Preload budget `|S|` in bytes.
    pub preload_bytes: u64,
    /// Session SLO in µs (0 = none).
    pub slo_us: u64,
    /// Device-channel stripe offset the session streams at.
    pub stripe: u16,
}

/// Interned id of an [`EngagementKey`] — the ID-keyed store's handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

/// One directed engagement-pair edge `A → B`: the follow/break counters the
/// prediction confidence derives from.
#[derive(Debug, Clone, Default)]
pub struct MarkovEdge {
    /// Times `B` was observed immediately after `A` on one client's chain.
    pub follows: u32,
    /// Times something other than `B` followed `A`.
    pub breaks: u32,
    /// Observation counter at last touch (LRU victim selection).
    last_touch: u64,
}

impl MarkovEdge {
    /// Follow confidence in `[0, 1]`: the fraction of observed departures
    /// from `A` that went to `B`.
    pub fn confidence(&self) -> f64 {
        let total = self.follows + self.breaks;
        if total == 0 {
            0.0
        } else {
            self.follows as f64 / total as f64
        }
    }

    /// Observed departures from the edge's source.
    pub fn samples(&self) -> u32 {
        self.follows + self.breaks
    }
}

/// A budgeted speculation order: warm the predicted next engagement's
/// working set for `client`, spending at most `budget_bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchPlan {
    /// The client (session token) the prediction is for.
    pub client: u64,
    /// The predicted next engagement key.
    pub predicted: KeyId,
    /// Byte cap on what the executor may stage for this plan.
    pub budget_bytes: u64,
    /// Simulated time the plan was emitted (the triggering engagement's
    /// completion) — speculative jobs arrive on the contended track here.
    pub emitted_at: SimTime,
}

/// Counters describing the model's behaviour (report surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Engagement completions observed.
    pub observations: u64,
    /// Plans emitted.
    pub plans: u64,
    /// Candidate predictions silenced by the rejection cache.
    pub rejected: u64,
    /// Emitted plans whose predicted key matched the client's actual next
    /// engagement.
    pub confirmed: u64,
    /// Emitted plans whose prediction proved wrong (these feed the
    /// rejection cache).
    pub mispredicted: u64,
}

/// One rejection-cache entry: the edge is silenced until the global
/// observation counter passes `until_obs`; `strikes` escalates the TTL on
/// repeat offenses.
#[derive(Debug, Clone, Copy)]
struct Rejection {
    until_obs: u64,
    strikes: u32,
    last_touch: u64,
}

/// A plan the model emitted and has not yet seen the outcome of.
#[derive(Debug, Clone, Copy)]
struct PendingPlan {
    from: KeyId,
    predicted: KeyId,
}

/// One client's observation chain: its previous engagement key, plus the
/// outstanding prediction awaiting feedback.
#[derive(Debug, Default)]
struct ClientChain {
    prev: Option<KeyId>,
    pending: Option<PendingPlan>,
}

/// The Markov next-engagement model: ID-keyed stores (key interner, edge
/// graph, per-client chains) plus the rejection-cache admission policy.
/// See the module docs for the full shape.
#[derive(Debug)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    keys: HashMap<EngagementKey, KeyId>,
    edges: HashMap<(KeyId, KeyId), MarkovEdge>,
    /// Source-key index over `edges` (targets in insertion order).
    by_src: HashMap<KeyId, Vec<KeyId>>,
    clients: HashMap<u64, ClientChain>,
    rejections: HashMap<(KeyId, KeyId), Rejection>,
    obs_count: u64,
    stats: PrefetcherStats,
}

impl Prefetcher {
    /// A model with the given knobs (the mode is the caller's business —
    /// the model itself always learns; callers gate plan *execution*).
    pub fn new(cfg: PrefetchConfig) -> Self {
        Self {
            cfg,
            keys: HashMap::new(),
            edges: HashMap::new(),
            by_src: HashMap::new(),
            clients: HashMap::new(),
            rejections: HashMap::new(),
            obs_count: 0,
            stats: PrefetcherStats::default(),
        }
    }

    /// Interns an engagement key, returning its stable id (ids count up
    /// from zero in first-seen order).
    pub fn intern(&mut self, key: EngagementKey) -> KeyId {
        let next = KeyId(self.keys.len() as u32);
        *self.keys.entry(key).or_insert(next)
    }

    /// Distinct engagement keys observed.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Stored Markov edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Clients with a chain, i.e. observed and not forgotten.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Drops `client`'s chain (its previous key and any prediction still
    /// awaiting feedback). Call it when the client is gone for good: the
    /// next observation of the same id would start a fresh chain.
    pub fn forget(&mut self, client: u64) {
        self.clients.remove(&client);
    }

    /// The edge for a directed key pair, if observed.
    pub fn edge(&self, from: KeyId, to: KeyId) -> Option<&MarkovEdge> {
        self.edges.get(&(from, to))
    }

    /// Model counters.
    pub fn stats(&self) -> PrefetcherStats {
        self.stats
    }

    /// Feeds one engagement completion into the model and returns the plan
    /// it wants executed, if any: feedback for the client's outstanding
    /// prediction, the `prev → key` chain transition into the edge store,
    /// then the admission-filtered best-successor prediction for `key`.
    pub fn observe(&mut self, client: u64, key: KeyId, now: SimTime) -> Option<PrefetchPlan> {
        self.obs_count += 1;
        self.stats.observations += 1;
        let obs = self.obs_count;
        let chain = self.clients.entry(client).or_default();
        let pending = chain.pending.take();
        let prev = chain.prev.replace(key);

        // Admission feedback: did the outstanding prediction come true?
        if let Some(p) = pending {
            if p.predicted == key {
                self.stats.confirmed += 1;
                self.rejections.remove(&(p.from, p.predicted));
            } else {
                self.stats.mispredicted += 1;
                let r = self.rejections.entry((p.from, p.predicted)).or_insert(Rejection {
                    until_obs: 0,
                    strikes: 0,
                    last_touch: obs,
                });
                r.strikes += 1;
                r.until_obs = obs + REJECTION_TTL * r.strikes as u64;
                r.last_touch = obs;
                if self.rejections.len() > REJECTION_CAP {
                    evict_lru(&mut self.rejections);
                }
            }
        }

        // Chain transition: update every out-edge of `prev` (follow for the
        // observed target, break for the rest).
        if let Some(prev) = prev {
            self.edges.entry((prev, key)).or_insert_with(|| {
                self.by_src.entry(prev).or_default().push(key);
                MarkovEdge::default()
            });
            for &tgt in self.by_src.get(&prev).map(Vec::as_slice).unwrap_or(&[]) {
                let edge = self.edges.get_mut(&(prev, tgt)).expect("indexed edge exists");
                edge.last_touch = obs;
                if tgt == key {
                    edge.follows += 1;
                } else {
                    edge.breaks += 1;
                }
            }
            if self.edges.len() > MAX_EDGES {
                if let Some((&victim, _)) =
                    self.edges.iter().min_by_key(|(k, e)| (e.last_touch, **k))
                {
                    self.edges.remove(&victim);
                    if let Some(tgts) = self.by_src.get_mut(&victim.0) {
                        tgts.retain(|&t| t != victim.1);
                    }
                }
            }
        }

        // Prediction: best admitted successor of `key` above the floor.
        let mut best: Option<(KeyId, &MarkovEdge)> = None;
        let mut silenced = 0u64;
        for &tgt in self.by_src.get(&key).map(Vec::as_slice).unwrap_or(&[]) {
            let edge = &self.edges[&(key, tgt)];
            if edge.samples() < MIN_SAMPLES || edge.confidence() < CONFIDENCE_FLOOR {
                continue;
            }
            if self.rejections.get(&(key, tgt)).is_some_and(|r| obs < r.until_obs) {
                silenced += 1;
                continue;
            }
            let better = match best {
                None => true,
                // Deterministic tie-break: higher confidence, then lower id.
                Some((bid, b)) => {
                    edge.confidence() > b.confidence()
                        || (edge.confidence() == b.confidence() && tgt < bid)
                }
            };
            if better {
                best = Some((tgt, edge));
            }
        }
        self.stats.rejected += silenced;
        let (predicted, _) = best?;
        self.stats.plans += 1;
        let plan = PrefetchPlan {
            client,
            predicted,
            budget_bytes: self.cfg.budget_bytes,
            emitted_at: now,
        };
        self.clients.get_mut(&client).expect("chain created above").pending =
            Some(PendingPlan { from: key, predicted });
        Some(plan)
    }
}

/// Evicts the least-recently-touched rejection entry.
fn evict_lru(rejections: &mut HashMap<(KeyId, KeyId), Rejection>) {
    if let Some((&victim, _)) = rejections.iter().min_by_key(|(k, r)| (r.last_touch, **k)) {
        rejections.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> EngagementKey {
        EngagementKey { target_us: n * 1000, preload_bytes: n, slo_us: 0, stripe: 0 }
    }

    fn markov() -> Prefetcher {
        Prefetcher::new(PrefetchConfig::markov(32 << 10))
    }

    #[test]
    fn self_recurrence_is_predicted_after_one_repeat() {
        let mut p = markov();
        let a = p.intern(key(1));
        assert!(p.observe(7, a, SimTime::from_ms(1)).is_none(), "no edge yet");
        let plan = p.observe(7, a, SimTime::from_ms(2)).expect("A→A edge is confident");
        assert_eq!(plan.emitted_at, SimTime::from_ms(2));
        let plan = p.observe(7, a, SimTime::from_ms(3)).expect("still confident");
        assert_eq!(plan.predicted, a);
        assert_eq!(plan.emitted_at, SimTime::from_ms(3));
    }

    #[test]
    fn a_forgotten_client_drops_its_chain_and_keeps_the_edges() {
        let mut p = markov();
        let a = p.intern(key(1));
        p.observe(1, a, SimTime::from_ms(1));
        p.observe(2, a, SimTime::from_ms(2));
        p.observe(2, a, SimTime::from_ms(3));
        assert_eq!(p.client_count(), 2);
        p.forget(1);
        assert_eq!(p.client_count(), 1);
        assert_eq!(p.edge(a, a).expect("client 2 chained A→A").follows, 1);
        // Client 2's chain survived: its next A is a second follow.
        p.observe(2, a, SimTime::from_ms(4));
        assert_eq!(p.edge(a, a).unwrap().follows, 2);
        assert_eq!(p.client_count(), 1);
    }

    #[test]
    fn alternating_clients_learn_cross_edges() {
        let mut p = markov();
        let a = p.intern(key(1));
        let b = p.intern(key(2));
        // One client alternating A, B, A, B...: edges A→B and B→A.
        for i in 0..6u64 {
            let k = if i % 2 == 0 { a } else { b };
            p.observe(1, k, SimTime::from_ms(i * 10));
        }
        let ab = p.edge(a, b).expect("A→B learned");
        assert_eq!(ab.follows, 3);
        assert_eq!(ab.breaks, 0);
        // The prediction after an A observation is B.
        let plan = p
            .observe(1, a, SimTime::from_ms(60))
            .unwrap_or_else(|| p.observe(1, b, SimTime::from_ms(70)).expect("B→A predicted"));
        assert!(plan.predicted == b || plan.predicted == a);
    }

    #[test]
    fn confidence_floor_blocks_coin_flip_edges() {
        let mut p = markov();
        let a = p.intern(key(1));
        let successors = [p.intern(key(2)), p.intern(key(3)), p.intern(key(4))];
        // A→B, A→C, A→D in turn: each edge sits near one in three, under
        // the floor, once all three exist.
        for i in 0..9u64 {
            p.observe(1, a, SimTime::from_ms(i * 20));
            p.observe(1, successors[i as usize % 3], SimTime::from_ms(i * 20 + 10));
        }
        assert!(p.observe(1, a, SimTime::from_ms(400)).is_none(), "no successor clears the floor");
        for s in successors {
            assert!(p.edge(a, s).expect("edge exists").confidence() < CONFIDENCE_FLOOR);
        }
    }

    #[test]
    fn mispredictions_feed_the_rejection_cache_with_escalating_ttl() {
        let mut p = markov();
        let a = p.intern(key(1));
        let b = p.intern(key(2));
        // Teach a confident A→A self edge...
        for i in 0..3u64 {
            p.observe(1, a, SimTime::from_ms(i));
        }
        assert!(p.stats().plans >= 1);
        // ...then betray it: the actual next engagement is B.
        assert!(p.observe(1, b, SimTime::from_ms(10)).is_none());
        assert_eq!(p.stats().mispredicted, 1);
        // Back on A: the A→A edge is silenced (still above the floor, but
        // rejected), so no plan — and the silencing is counted.
        let rejected_before = p.stats().rejected;
        let plan = p.observe(1, a, SimTime::from_ms(20));
        assert!(plan.is_none() || plan.unwrap().predicted != a);
        assert!(p.stats().rejected > rejected_before);
        // The strike silences A→A until the misprediction's observation
        // (the 4th) plus one TTL; A→A is the best admitted edge after that.
        for obs in 6..4 + REJECTION_TTL {
            let plan = p.observe(1, a, SimTime::from_ms(obs));
            assert!(plan.is_none_or(|plan| plan.predicted != a), "observation {obs}");
        }
        let plan = p.observe(1, a, SimTime::from_ms(4 + REJECTION_TTL));
        assert_eq!(plan.map(|plan| plan.predicted), Some(a));
    }

    #[test]
    fn confirmations_clear_rejections() {
        let mut p = markov();
        let a = p.intern(key(1));
        for i in 0..4u64 {
            p.observe(1, a, SimTime::from_ms(i));
        }
        // Plan emitted and confirmed: stats say so, no rejection entries.
        assert!(p.stats().confirmed >= 1);
        assert_eq!(p.stats().mispredicted, 0);
    }

    #[test]
    fn observation_streams_are_deterministic() {
        let run = || {
            let mut p = markov();
            let keys: Vec<KeyId> = (0..3).map(|n| p.intern(key(n))).collect();
            let mut emitted = Vec::new();
            for i in 0..40u64 {
                let client = i % 3;
                let k = keys[(i % 3) as usize];
                if let Some(plan) = p.observe(client, k, SimTime::from_us(i * 500)) {
                    emitted.push((plan.client, plan.predicted));
                }
            }
            (emitted, p.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn edge_store_respects_its_cap() {
        let mut p = markov();
        // One chain over MAX_EDGES + 2 keys: MAX_EDGES + 1 distinct edges.
        let keys: Vec<KeyId> = (0..MAX_EDGES as u64 + 2).map(|n| p.intern(key(n))).collect();
        for (i, &k) in keys.iter().enumerate() {
            p.observe(1, k, SimTime::from_ms(i as u64));
        }
        assert!(p.edge_count() <= MAX_EDGES);
    }
}
