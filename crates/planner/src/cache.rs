//! A shared cache of execution plans keyed by planning knobs.
//!
//! The paper's contract (§3.2) is *plan once, execute repeatedly*:
//! replanning happens only when the app or OS changes the target latency
//! `T` or the preload budget `|S|`. In a serving runtime, many sessions of
//! the same model run under a handful of knob combinations, so the plan for
//! each combination should be computed exactly once and shared.
//!
//! [`PlanCache`] memoizes [`ExecutionPlan`]s under a [`PlanKey`] — the
//! model fingerprint, target `T`, preload budget `|S|`, the allowed
//! submodel widths, and the bitwidth set available in the store. Plans are
//! handed out as `Arc`s (they are immutable once planned), and the table
//! holds them only weakly: a plan lives exactly as long as something that
//! runs it holds it (the app holds its plan, §3.2), so a knob set nobody
//! uses any more costs nothing, and using it again replans.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use sti_device::SimTime;
use sti_quant::Bitwidth;

use crate::plan::ExecutionPlan;

/// Everything the two-stage planner's output depends on, in hashable form.
///
/// Anything *not* in the key (the importance profile, the device tables)
/// must be constant for the cache's lifetime; owners that change those
/// fold a generation into `model`, which leaves the old entries
/// unreachable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Identifies the model (and implicitly its importance profile).
    pub model: String,
    /// Target latency `T`.
    pub target: SimTime,
    /// Preload-buffer budget `|S|` in bytes.
    pub preload_bytes: u64,
    /// Allowed submodel widths, ascending.
    pub widths: Vec<usize>,
    /// Fidelity versions available in the shard store, ascending.
    pub bitwidths: Vec<Bitwidth>,
}

impl PlanKey {
    /// Builds a key, normalizing `widths`/`bitwidths` order so callers that
    /// list the same sets differently share an entry.
    pub fn new(
        model: impl Into<String>,
        target: SimTime,
        preload_bytes: u64,
        widths: &[usize],
        bitwidths: &[Bitwidth],
    ) -> Self {
        let mut widths = widths.to_vec();
        widths.sort_unstable();
        widths.dedup();
        let mut bitwidths = bitwidths.to_vec();
        bitwidths.sort_unstable();
        bitwidths.dedup();
        Self { model: model.into(), target, preload_bytes, widths, bitwidths }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the planner.
    pub misses: u64,
}

#[derive(Debug)]
struct MemoInner<K, V> {
    entries: HashMap<K, Weak<V>>,
    stats: PlanCacheStats,
}

/// A thread-safe memo table: the one implementation behind [`PlanCache`]
/// and the server's preload-buffer table.
///
/// Values are computed **outside** the lock, so a slow fill never
/// serializes lookups of other keys; when two callers race on one key the
/// first insert wins (fills are deterministic, so both computed the same
/// value). Entries are [`Weak`]: a value lives as long as a caller holds
/// its `Arc`, a lookup of a dropped value is a miss that fills again, and
/// every insert prunes the dead entries, so the table holds only what is
/// in use.
#[derive(Debug)]
pub struct MemoTable<K, V> {
    inner: Mutex<MemoInner<K, V>>,
}

/// The memo table of execution plans (see the module docs).
pub type PlanCache = MemoTable<PlanKey, ExecutionPlan>;

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        let inner = MemoInner { entries: HashMap::new(), stats: PlanCacheStats::default() };
        Self { inner: Mutex::new(inner) }
    }
}

impl<K: Hash + Eq + Clone, V> MemoTable<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries some caller still holds.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.values().filter(|value| value.strong_count() > 0).count()
    }

    /// Whether no caller holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().stats
    }

    /// The cached value for `key`, if some caller still holds it, counting
    /// a hit or a miss.
    fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        let found = inner.entries.get(key).and_then(Weak::upgrade);
        match found {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        found
    }

    /// Returns the value for `key`, running `plan_fn` (the planner, the
    /// SLO search) only on a miss.
    pub fn get_or_plan(&self, key: &K, plan_fn: impl FnOnce() -> V) -> Arc<V> {
        match self.get_or_try_insert(key, || Ok::<V, std::convert::Infallible>(plan_fn())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// [`MemoTable::get_or_plan`] for a fallible fill: an error is returned
    /// to the caller and nothing is cached.
    ///
    /// # Errors
    ///
    /// Whatever `fill` fails with.
    pub fn get_or_try_insert<E>(
        &self,
        key: &K,
        fill: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(value) = self.get(key) {
            return Ok(value);
        }
        let value = Arc::new(fill()?);
        let mut inner = self.inner.lock();
        inner.entries.retain(|_, held| held.strong_count() > 0);
        if let Some(winner) = inner.entries.get(key).and_then(Weak::upgrade) {
            return Ok(winner);
        }
        inner.entries.insert(key.clone(), Arc::downgrade(&value));
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::ImportanceProfile;
    use crate::io_plan::plan_two_stage;
    use sti_device::{DeviceProfile, HwProfile};
    use sti_quant::QuantConfig;
    use sti_transformer::ModelConfig;

    fn plan_for(target_ms: u64, preload: u64) -> ExecutionPlan {
        let cfg = ModelConfig::tiny();
        let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), &cfg, &QuantConfig::default());
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 3) as f64 * 0.02).collect(),
            0.45,
        );
        plan_two_stage(
            &hw,
            &importance,
            SimTime::from_ms(target_ms),
            preload,
            &[2, 4],
            &Bitwidth::ALL,
        )
    }

    fn key(target_ms: u64, preload: u64) -> PlanKey {
        PlanKey::new("tiny", SimTime::from_ms(target_ms), preload, &[2, 4], &Bitwidth::ALL)
    }

    #[test]
    fn same_knobs_plan_once() {
        let cache = PlanCache::new();
        let mut planned = 0;
        // The caller holds what it gets, the way a session holds its plan.
        let _held: Vec<_> = (0..3)
            .map(|_| {
                cache.get_or_plan(&key(300, 1 << 10), || {
                    planned += 1;
                    plan_for(300, 1 << 10)
                })
            })
            .collect();
        assert_eq!(planned, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn knob_changes_miss() {
        let cache = PlanCache::new();
        let _held = [
            cache.get_or_plan(&key(300, 1 << 10), || plan_for(300, 1 << 10)),
            cache.get_or_plan(&key(400, 1 << 10), || plan_for(400, 1 << 10)),
            cache.get_or_plan(&key(300, 2 << 10), || plan_for(300, 2 << 10)),
        ];
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn shared_plans_are_the_same_allocation() {
        let cache = PlanCache::new();
        let a = cache.get_or_plan(&key(300, 0), || plan_for(300, 0));
        let b = cache.get_or_plan(&key(300, 0), || plan_for(300, 0));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn a_dropped_plan_is_a_miss_that_replans_an_equal_one() {
        let cache = PlanCache::new();
        let first = cache.get_or_plan(&key(300, 0), || plan_for(300, 0));
        let expected = ExecutionPlan::clone(&first);
        drop(first);
        assert!(cache.is_empty(), "nothing holds the plan, so the table does not");
        let mut replanned = false;
        let again = cache.get_or_plan(&key(300, 0), || {
            replanned = true;
            plan_for(300, 0)
        });
        assert!(replanned);
        assert_eq!(*again, expected, "replanning is deterministic");
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn len_counts_live_entries_and_an_insert_prunes_the_dead() {
        let cache = PlanCache::new();
        let kept = cache.get_or_plan(&key(200, 0), || plan_for(200, 0));
        drop(cache.get_or_plan(&key(300, 0), || plan_for(300, 0)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.inner.lock().entries.len(), 2, "the dead entry waits for an insert");
        let newer = cache.get_or_plan(&key(400, 0), || plan_for(400, 0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.inner.lock().entries.len(), 2, "the insert pruned the dead entry");
        assert!(Arc::ptr_eq(&kept, &cache.get_or_plan(&key(200, 0), || unreachable!())));
        drop((kept, newer));
        assert!(cache.is_empty());
    }

    #[test]
    fn key_normalizes_set_order() {
        let a = PlanKey::new("m", SimTime::from_ms(100), 0, &[4, 2], &[Bitwidth::B6, Bitwidth::B2]);
        let b = PlanKey::new("m", SimTime::from_ms(100), 0, &[2, 4], &[Bitwidth::B2, Bitwidth::B6]);
        assert_eq!(a, b);
    }
}
