//! A shared, byte-budgeted shard cache fronting any [`ShardSource`].
//!
//! In a serving deployment many concurrent engagements execute overlapping
//! submodels of the same model, so the compressed blobs they stream are
//! highly redundant. [`ShardCache`] keeps recently used `(shard, bitwidth)`
//! blobs resident under a byte budget with LRU eviction; [`CachedSource`]
//! layers it transparently over a backing source so every consumer (IO
//! scheduler, preload fill, generation) shares one cache.
//!
//! The cache is a **host-side** optimization: it reduces wall-clock work
//! (store reads, record decoding) but is deliberately invisible to the
//! simulated device model. Per-engagement simulated IO delay and
//! loaded-byte accounting are computed from the request alone, so execution
//! outcomes stay bit-identical whether the cache is cold, warm, or shared
//! with other sessions — the determinism the serving tests pin down.
//!
//! **Ownership:** a [`ShardCache`] holds *handles*. A blob's payload is
//! written once where it is built or decoded, then shared and immutable, so
//! admitting a blob, serving a hit, staging it in the pool and promoting it
//! all pass the source's one copy along; only the byte *budgets* are counted
//! per holder, from `byte_size()`.
//!
//! ## The prefetch staging pool
//!
//! When the serving prefetcher is on, speculatively loaded blobs do **not**
//! enter the main cache — they land in a bounded side pool with its own
//! byte budget and LRU order, sized when the cache is built
//! ([`ShardCache::with_prefetch_pool`]; [`ShardCache::new`] builds a
//! zero-budget pool, which stages nothing). The pool is an LRU tier that
//! only speculation fills: the demand path consults it only on a
//! main-cache miss ([`ShardCache::get_or_load_tracked`] promotes the staged
//! blob via the normal admission and *keeps* it staged, refreshing its
//! recency), so the main cache sees exactly the same mutation sequence it
//! would without prefetch: speculation can never evict or reorder
//! demand-resident state, which is what keeps prefetch fenced off from the
//! determinism contract. A promoted blob counts as *resident* for the
//! contended track's DRAM-residency pricing — that residency is the entire
//! payoff of a correct prediction. Because a hit keeps the blob, and a
//! re-stage of a staged key refreshes it too, a working set predicted
//! again and again is read from flash once, for as long as the pool's
//! budget holds it.
//!
//! **One lock** guards both maps and their counters, so a lookup and its
//! promotion, or a stage's staged/pinned check, is one critical section;
//! only a cold read of the source runs outside it. [`ShardCache::clear`]
//! drops both maps. Blobs enter and leave only through
//! [`ShardCache::get_or_load`] / [`ShardCache::get_or_load_tracked`]
//! (demand) and [`ShardCache::prefetch_load`] (speculation): there is no
//! bare lookup or insert a caller could pair and race between. The IO
//! scheduler's tracked lookup may leave a miss larger than the whole
//! budget, which admission would refuse unchanged, unread for the
//! engagement to read when it computes the layer.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use sti_quant::QuantizedBlob;

use crate::error::StorageError;
use crate::store::{ShardKey, ShardSource};

/// Counters describing cache effectiveness since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed and fell through to the backing source.
    pub misses: u64,
    /// Blobs evicted to respect the byte budget.
    pub evictions: u64,
}

impl ShardCacheStats {
    /// Hit fraction in `[0, 1]` (zero when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters describing the prefetch staging pool (all zero for a cache
/// built without one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchPoolStats {
    /// Bytes flash-loaded into the pool by speculative jobs.
    pub staged_flash_bytes: u64,
    /// Bytes of main-cache-resident blobs the pool took its own handle to
    /// ("pinned") at zero flash cost.
    pub pinned_bytes: u64,
    /// Bytes of staged blobs at their first demand use: each stage counts
    /// once, so these never exceed the staged and pinned bytes.
    pub hit_bytes: u64,
    /// Staged blobs a demand miss used for the first time (first promote
    /// events).
    pub hits: u64,
    /// Bytes served by later demand misses of a blob the pool kept after
    /// its first use: the flash reads that retention saved.
    pub reuse_bytes: u64,
    /// Staged blobs evicted by the pool's own LRU before their first use.
    pub evictions: u64,
    /// Bytes currently staged.
    pub resident_bytes: u64,
}

impl PrefetchPoolStats {
    /// Fraction of staged bytes that a demand miss later used, in `[0, 1]`:
    /// reuse of a blob already used counts in `reuse_bytes`, not here.
    pub fn hit_rate(&self) -> f64 {
        let staged = self.staged_flash_bytes + self.pinned_bytes;
        if staged == 0 {
            0.0
        } else {
            self.hit_bytes as f64 / staged as f64
        }
    }
}

/// One resident blob. Its budgeted bytes are `blob.byte_size()`, read
/// off the handle rather than stored, so an entry stays three words.
#[derive(Debug)]
struct CacheEntry {
    blob: QuantizedBlob,
    last_used: u64,
    /// Whether a demand miss has used this staged blob. Only the staging
    /// pool sets it; the main map marks no entry served.
    served: bool,
}

impl CacheEntry {
    fn bytes(&self) -> u64 {
        self.blob.byte_size() as u64
    }
}

/// A byte-budgeted LRU map of blob handles: the one recency discipline the
/// main cache and the staging pool share. Every lookup and every admission
/// takes a tick; an admission that cannot fit the whole budget takes none.
#[derive(Debug)]
struct Lru {
    budget: u64,
    map: HashMap<ShardKey, CacheEntry>,
    /// Recency index: `last_used` tick -> key. Ticks are unique, so the
    /// first entry is always the LRU victim — eviction is O(log n) instead
    /// of a full-map scan under the lock the whole IO path contends on.
    recency: BTreeMap<u64, ShardKey>,
    used: u64,
    tick: u64,
}

impl Lru {
    fn new(budget: u64) -> Self {
        Self { budget, map: HashMap::new(), recency: BTreeMap::new(), used: 0, tick: 0 }
    }

    /// Looks `key`'s entry up, refreshing its recency on a hit.
    fn touch(&mut self, key: ShardKey) -> Option<&mut CacheEntry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&key)?;
        let stale = std::mem::replace(&mut entry.last_used, tick);
        self.recency.remove(&stale);
        self.recency.insert(tick, key);
        Some(entry)
    }

    /// Looks `key` up, refreshing its recency on a hit.
    fn get(&mut self, key: ShardKey) -> Option<QuantizedBlob> {
        self.touch(key).map(|entry| entry.blob.clone())
    }

    /// Admits `blob`, replacing any entry under `key` and evicting
    /// least-recently-used entries until it fits. Returns how many of the
    /// evicted entries were never served (in the main map, every evicted
    /// entry), or `None` when the blob exceeds the whole budget (nothing
    /// changes).
    fn insert(&mut self, key: ShardKey, blob: &QuantizedBlob) -> Option<u64> {
        let bytes = blob.byte_size() as u64;
        if bytes > self.budget {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        self.remove(key);
        let mut evicted = 0;
        while self.used + bytes > self.budget {
            let (_, victim) = self.recency.pop_first().expect("used > 0 implies a resident entry");
            let entry = self.map.remove(&victim).expect("victim is resident");
            self.used -= entry.bytes();
            evicted += u64::from(!entry.served);
        }
        self.used += bytes;
        self.recency.insert(tick, key);
        self.map.insert(key, CacheEntry { blob: blob.clone(), last_used: tick, served: false });
        Some(evicted)
    }

    /// Removes `key`'s entry, if resident.
    fn remove(&mut self, key: ShardKey) {
        if let Some(entry) = self.map.remove(&key) {
            self.recency.remove(&entry.last_used);
            self.used -= entry.bytes();
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.used = 0;
    }
}

/// Everything the cache's one lock guards: the main map, the staging pool
/// (the same LRU with its own budget, which only speculation fills and
/// whose entries leave only by eviction: a demand use keeps and refreshes
/// one) and both maps' counters.
#[derive(Debug)]
struct State {
    main: Lru,
    stats: ShardCacheStats,
    pool: Lru,
    pool_stats: PrefetchPoolStats,
}

impl State {
    /// A main-map lookup, counted as a hit or a miss.
    fn lookup(&mut self, key: ShardKey) -> Option<QuantizedBlob> {
        let blob = self.main.get(key);
        match blob {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        blob
    }

    /// A main-map admission, counting what it evicted.
    fn admit(&mut self, key: ShardKey, blob: &QuantizedBlob) {
        if let Some(evicted) = self.main.insert(key, blob) {
            self.stats.evictions += evicted;
        }
    }

    /// A staging-pool lookup for a main-map miss. A staged blob stays
    /// staged with its recency refreshed; its first demand use counts as a
    /// hit, every later one as reuse.
    fn serve_staged(&mut self, key: ShardKey) -> Option<QuantizedBlob> {
        let staged = self.pool.touch(key)?;
        let reused = std::mem::replace(&mut staged.served, true);
        let (blob, bytes) = (staged.blob.clone(), staged.bytes());
        if reused {
            self.pool_stats.reuse_bytes += bytes;
        } else {
            self.pool_stats.hits += 1;
            self.pool_stats.hit_bytes += bytes;
        }
        Some(blob)
    }
}

/// A thread-safe LRU cache of compressed shard blobs under a byte budget,
/// with the prefetch staging pool beside it.
#[derive(Debug)]
pub struct ShardCache {
    state: Mutex<State>,
}

impl ShardCache {
    /// Creates a cache with the given byte budget and no staging pool (a
    /// zero-budget one). A budget of zero disables caching (every lookup
    /// misses, nothing is admitted).
    pub fn new(capacity: u64) -> Self {
        Self::with_prefetch_pool(capacity, 0)
    }

    /// Creates a cache with a `capacity`-byte main map and a
    /// `pool_budget`-byte prefetch staging pool. A pool budget of zero
    /// stages nothing.
    pub fn with_prefetch_pool(capacity: u64, pool_budget: u64) -> Self {
        Self {
            state: Mutex::new(State {
                main: Lru::new(capacity),
                stats: ShardCacheStats::default(),
                pool: Lru::new(pool_budget),
                pool_stats: PrefetchPoolStats::default(),
            }),
        }
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> u64 {
        self.state.lock().main.budget
    }

    /// Budgeted bytes currently held, `(main map, staging pool)` — each
    /// counted against its own budget from `byte_size()`, whether or not
    /// the two hold handles to the same payload.
    pub fn resident_bytes(&self) -> (u64, u64) {
        let state = self.state.lock();
        (state.main.used, state.pool.used)
    }

    /// Number of blobs currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().main.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> ShardCacheStats {
        self.state.lock().stats
    }

    /// Drops every resident and every staged blob (counters are kept), so
    /// the next lookup of any key re-reads its source.
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.main.clear();
        state.pool.clear();
    }

    /// Loads through the cache: a hit returns the resident blob, a miss
    /// reads from `source` and admits the result.
    ///
    /// # Errors
    ///
    /// Propagates the backing source's error on a miss.
    pub fn get_or_load(
        &self,
        source: &dyn ShardSource,
        key: ShardKey,
    ) -> Result<QuantizedBlob, StorageError> {
        let (blob, _) = self.get_or_load_tracked(source, key, None)?;
        Ok(blob.expect("a lookup given no size reads every miss"))
    }

    /// [`ShardCache::get_or_load`] that also reports whether the blob was
    /// resident (main map or staging pool), decided in the same critical
    /// section as the lookup — the IO scheduler classifies a request's
    /// bytes for the contended track's DRAM-residency mode from this flag,
    /// and a separate residency probe could disagree with what the lookup
    /// actually did when another worker raced an insert or eviction in
    /// between. Only a cold read runs outside the lock.
    ///
    /// `defer` is the shard's payload size when the caller can read the
    /// shard later itself (the IO scheduler's solo dispatch): a miss larger
    /// than the whole main budget is then not read and comes back as
    /// `None`. Admission would refuse that blob with no tick, no eviction
    /// and no counter, so the cache ends exactly as a read-and-refuse would
    /// have left it. With `defer` at `None` every miss is read.
    ///
    /// # Errors
    ///
    /// Propagates the backing source's error on a miss it reads.
    pub fn get_or_load_tracked(
        &self,
        source: &dyn ShardSource,
        key: ShardKey,
        defer: Option<u64>,
    ) -> Result<(Option<QuantizedBlob>, bool), StorageError> {
        {
            let mut state = self.state.lock();
            if let Some(blob) = state.lookup(key) {
                return Ok((Some(blob), true));
            }
            // Main-map miss: a staged prefetch can serve it. The blob is
            // promoted through the normal admission, so the main map
            // mutates exactly as it would have after `source.load` — but
            // the bytes are already resident, which is what the contended
            // track's residency flag records. The pool keeps its handle,
            // so the next miss on this key is served again.
            if let Some(blob) = state.serve_staged(key) {
                state.admit(key, &blob);
                return Ok((Some(blob), true));
            }
            if defer.is_some_and(|size| size > state.main.budget) {
                return Ok((None, false));
            }
        }
        let blob = source.load(key)?;
        self.state.lock().admit(key, &blob);
        Ok((Some(blob), false))
    }

    /// Staging-pool counters (all zero for a cache built without a pool).
    pub fn prefetch_stats(&self) -> PrefetchPoolStats {
        let state = self.state.lock();
        PrefetchPoolStats { resident_bytes: state.pool.used, ..state.pool_stats }
    }

    /// Stages one shard for a predicted engagement and reports what it cost:
    /// `(flash_bytes, pinned_bytes)`. Pool-resident shards cost nothing and
    /// have their pool recency refreshed, so a working set predicted again
    /// outlives older stages; main-cache-resident shards are "pinned" — the
    /// pool takes its own handle (zero flash bytes; it survives a later
    /// demand eviction); cold shards are read from `source` and charged as
    /// flash bytes. The main-map probe is a pure peek: no recency refresh,
    /// no hit/miss counting, so demand-visible cache state is untouched. A
    /// shard the pool's budget cannot hold is not staged and costs
    /// `(0, 0)`.
    ///
    /// # Errors
    ///
    /// Propagates the backing source's error on a cold load.
    pub fn prefetch_load(
        &self,
        source: &dyn ShardSource,
        key: ShardKey,
    ) -> Result<(u64, u64), StorageError> {
        let pinned = {
            let mut state = self.state.lock();
            if state.pool.touch(key).is_some() {
                return Ok((0, 0));
            }
            state.main.map.get(&key).map(|e| e.blob.clone())
        };
        let cold = pinned.is_none();
        let blob = match pinned {
            Some(blob) => blob,
            None => source.load(key)?,
        };
        let bytes = blob.byte_size() as u64;
        let mut state = self.state.lock();
        let Some(evicted) = state.pool.insert(key, &blob) else { return Ok((0, 0)) };
        state.pool_stats.evictions += evicted;
        if cold {
            state.pool_stats.staged_flash_bytes += bytes;
            Ok((bytes, 0))
        } else {
            state.pool_stats.pinned_bytes += bytes;
            Ok((0, bytes))
        }
    }
}

/// A [`ShardSource`] that fronts another source with a shared [`ShardCache`].
///
/// Size metadata always comes from the backing source so simulated IO
/// accounting is identical with and without the cache.
#[derive(Debug)]
pub struct CachedSource {
    source: Arc<dyn ShardSource>,
    cache: Arc<ShardCache>,
}

impl CachedSource {
    /// Wraps `source` with `cache`.
    pub fn new(source: Arc<dyn ShardSource>, cache: Arc<ShardCache>) -> Self {
        Self { source, cache }
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<ShardCache> {
        &self.cache
    }
}

impl ShardSource for CachedSource {
    fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
        self.cache.get_or_load(&*self.source, key)
    }

    /// Reads past the cache: a cache holds payloads, not records, and a
    /// deferred load is for a shard the caller drops with its layer, so it
    /// neither counts a lookup nor admits anything.
    fn load_deferred(
        &self,
        key: ShardKey,
        records: &mut Vec<u8>,
    ) -> Result<Option<QuantizedBlob>, StorageError> {
        self.source.load_deferred(key, records)
    }

    fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
        self.source.size_bytes(key)
    }
}

impl std::fmt::Debug for dyn ShardSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShardSource { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ShardStore;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::{Model, ModelConfig, ShardId};

    fn store() -> Arc<ShardStore> {
        let model = Model::synthetic(3, ModelConfig::tiny());
        let bitwidths = [Bitwidth::B2, Bitwidth::B6];
        Arc::new(ShardStore::create_temp(&model, &bitwidths, &QuantConfig::default()).unwrap())
    }

    fn key(layer: u16, slice: u16, bw: Bitwidth) -> ShardKey {
        ShardKey::new(ShardId::new(layer, slice), bw)
    }

    #[test]
    fn hit_after_miss_returns_identical_blob() {
        let store = store();
        let cache = ShardCache::new(1 << 20);
        let k = key(0, 0, Bitwidth::B2);
        let first = cache.get_or_load(&*store, k).unwrap();
        let second = cache.get_or_load(&*store, k).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// A fixed-size blob so eviction arithmetic is exact.
    fn uniform_blob() -> QuantizedBlob {
        let weights: Vec<f32> = (0..256).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
        QuantizedBlob::quantize(&weights, Bitwidth::B2, &QuantConfig::default())
    }

    #[test]
    fn eviction_respects_byte_budget_and_lru_order() {
        let blob = uniform_blob();
        let each = blob.byte_size() as u64;
        // Room for exactly two blobs.
        let cache = ShardCache::new(2 * each);
        for slice in 0..3u16 {
            cache.state.lock().admit(key(0, slice, Bitwidth::B2), &blob);
        }
        assert!(cache.resident_bytes().0 <= cache.capacity());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Slice 0 was least recently used, so it is the one gone.
        assert!(cache.state.lock().lookup(key(0, 0, Bitwidth::B2)).is_none());
        assert!(cache.state.lock().lookup(key(0, 2, Bitwidth::B2)).is_some());
    }

    #[test]
    fn resident_bytes_reports_main_map_and_pool_separately_under_eviction() {
        let blob = uniform_blob();
        let each = blob.byte_size() as u64;
        let store = store();
        let staged = store.load(key(1, 0, Bitwidth::B2)).unwrap().byte_size() as u64;
        let cache = ShardCache::with_prefetch_pool(2 * each, staged);
        assert_eq!(cache.resident_bytes(), (0, 0));
        for slice in 0..3u16 {
            cache.state.lock().admit(key(0, slice, Bitwidth::B2), &blob);
        }
        // Three admitted, one evicted; nothing staged yet.
        assert_eq!(cache.resident_bytes(), (2 * each, 0));

        cache.prefetch_load(&*store, key(1, 0, Bitwidth::B2)).unwrap();
        assert_eq!(cache.resident_bytes(), (2 * each, staged));
        // The pool holds one blob of this size: staging a second evicts the
        // first, and the main map is untouched either way.
        cache.prefetch_load(&*store, key(1, 1, Bitwidth::B2)).unwrap();
        let (main, pool) = cache.resident_bytes();
        assert_eq!(main, 2 * each);
        assert!(pool <= staged);
        assert_eq!(pool, cache.prefetch_stats().resident_bytes);
        // A demand miss promotes the staged blob and the pool keeps it: its
        // bytes count once in each budget.
        cache.get_or_load(&*store, key(1, 1, Bitwidth::B2)).unwrap();
        assert_eq!(cache.resident_bytes().1, pool);
        assert!(cache.resident_bytes().0 <= cache.capacity());
    }

    #[test]
    fn recency_refresh_protects_hot_entries() {
        let blob = uniform_blob();
        let each = blob.byte_size() as u64;
        let cache = ShardCache::new(2 * each);
        cache.state.lock().admit(key(0, 0, Bitwidth::B2), &blob);
        cache.state.lock().admit(key(0, 1, Bitwidth::B2), &blob);
        // Touch slice 0 so slice 1 becomes the LRU victim.
        cache.state.lock().lookup(key(0, 0, Bitwidth::B2)).unwrap();
        cache.state.lock().admit(key(0, 2, Bitwidth::B2), &blob);
        assert!(cache.state.lock().lookup(key(0, 0, Bitwidth::B2)).is_some());
        assert!(cache.state.lock().lookup(key(0, 1, Bitwidth::B2)).is_none());
    }

    #[test]
    fn zero_budget_disables_admission() {
        let store = store();
        let cache = ShardCache::new(0);
        cache.get_or_load(&*store, key(0, 0, Bitwidth::B2)).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn oversized_blob_is_passed_through_uncached() {
        let store = store();
        let cache = ShardCache::new(8);
        let blob = cache.get_or_load(&*store, key(1, 1, Bitwidth::B6)).unwrap();
        assert!(blob.byte_size() > 8);
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_source_is_transparent() {
        let store = store();
        let cache = Arc::new(ShardCache::new(1 << 20));
        let cached = CachedSource::new(store.clone(), cache.clone());
        let k = key(1, 0, Bitwidth::B6);
        assert_eq!(cached.load(k).unwrap(), store.load(k).unwrap());
        assert_eq!(cached.size_bytes(k).unwrap(), store.size_bytes(k).unwrap());
        // Second load hits.
        cached.load(k).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn prefetch_pool_stages_cold_shards_and_promotes_on_demand_miss() {
        let store = store();
        let cache = ShardCache::with_prefetch_pool(1 << 20, 1 << 20);
        let k = key(0, 0, Bitwidth::B2);
        let (flash, pinned) = cache.prefetch_load(&*store, k).unwrap();
        assert!(flash > 0);
        assert_eq!(pinned, 0);
        // Staging again is free.
        assert_eq!(cache.prefetch_load(&*store, k).unwrap(), (0, 0));
        // Main cache untouched by speculation.
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), ShardCacheStats::default());
        // Demand miss promotes: resident flag set, blob kept staged, hit
        // counted.
        let (_, resident) = cache.get_or_load_tracked(&*store, k, None).unwrap();
        assert!(resident, "staged blob counts as resident");
        let ps = cache.prefetch_stats();
        assert_eq!(ps.hits, 1);
        assert_eq!(ps.hit_bytes, flash);
        assert_eq!(ps.reuse_bytes, 0);
        assert_eq!(ps.resident_bytes, flash);
        // The promote went through the normal insert path.
        assert_eq!(cache.len(), 1);
        // Off-run parity: the miss was still counted as a miss.
        assert_eq!(cache.stats().misses, 1);
    }

    /// A [`ShardSource`] that counts its loads: every one is a flash read.
    struct CountingSource {
        inner: Arc<dyn ShardSource>,
        loads: AtomicU64,
    }

    impl CountingSource {
        fn new(inner: Arc<dyn ShardSource>) -> Self {
            Self { inner, loads: AtomicU64::new(0) }
        }

        fn loads(&self) -> u64 {
            self.loads.load(Ordering::Relaxed)
        }
    }

    impl ShardSource for CountingSource {
        fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.inner.load(key)
        }

        fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
            self.inner.size_bytes(key)
        }
    }

    /// A source of `count` keys that all hold [`uniform_blob`].
    fn uniform_blobs(count: u16) -> (SizedBlobs, u64) {
        let blob = uniform_blob();
        let each = blob.byte_size() as u64;
        let blobs = (0..count).map(|slice| (key(0, slice, Bitwidth::B2), blob.clone())).collect();
        (SizedBlobs(blobs), each)
    }

    #[test]
    fn one_stage_serves_every_demand_miss_with_one_flash_read() {
        const MISSES: u64 = 5;
        let source = CountingSource::new(store());
        // A zero-budget main map admits nothing, so every demand read misses it.
        let cache = ShardCache::with_prefetch_pool(0, 1 << 20);
        let k = key(0, 0, Bitwidth::B2);
        let (flash, _) = cache.prefetch_load(&source, k).unwrap();
        for _ in 0..MISSES {
            let (_, resident) = cache.get_or_load_tracked(&source, k, None).unwrap();
            assert!(resident, "the pool kept the staged blob");
        }
        assert_eq!(source.loads(), 1, "only the stage read flash");
        let ps = cache.prefetch_stats();
        assert_eq!((ps.hits, ps.hit_bytes), (1, flash), "a stage's first use is its one hit");
        assert_eq!(ps.reuse_bytes, (MISSES - 1) * flash);
        assert_eq!(ps.hit_rate(), 1.0);
        assert_eq!(cache.stats().misses, MISSES, "off-run parity: each was a main-map miss");
    }

    #[test]
    fn a_restage_refreshes_recency_so_the_key_outlives_an_older_stage() {
        let (source, each) = uniform_blobs(3);
        let source = CountingSource::new(Arc::new(source));
        let [a, b, c] = [0, 1, 2].map(|slice| key(0, slice, Bitwidth::B2));
        // Room for exactly two staged blobs.
        let cache = ShardCache::with_prefetch_pool(0, 2 * each);
        cache.prefetch_load(&source, a).unwrap();
        cache.prefetch_load(&source, b).unwrap();
        assert_eq!(cache.prefetch_load(&source, a).unwrap(), (0, 0), "a re-stage is free");
        // `b` is now the older stage, so staging `c` evicts it, not `a`.
        cache.prefetch_load(&source, c).unwrap();
        assert_eq!(source.loads(), 3);
        assert!(cache.get_or_load_tracked(&source, a, None).unwrap().1, "`a` is still staged");
        assert!(!cache.get_or_load_tracked(&source, b, None).unwrap().1, "`b` was evicted");
        assert_eq!(cache.prefetch_stats().evictions, 1);
    }

    #[test]
    fn a_blob_evicted_after_it_was_served_is_not_a_wasted_eviction() {
        let (source, each) = uniform_blobs(3);
        let [a, b, c] = [0, 1, 2].map(|slice| key(0, slice, Bitwidth::B2));
        // Room for one staged blob.
        let cache = ShardCache::with_prefetch_pool(0, each);
        cache.prefetch_load(&source, a).unwrap();
        cache.get_or_load(&source, a).unwrap();
        // Staging `b` evicts `a`, which a demand miss had already used.
        cache.prefetch_load(&source, b).unwrap();
        assert_eq!(cache.prefetch_stats().evictions, 0);
        // Staging `c` evicts `b`, which nothing used.
        cache.prefetch_load(&source, c).unwrap();
        let ps = cache.prefetch_stats();
        assert_eq!((ps.evictions, ps.hits, ps.resident_bytes), (1, 1, each));
    }

    #[test]
    fn prefetch_pins_main_resident_shards_at_zero_flash_cost() {
        let store = store();
        let cache = ShardCache::with_prefetch_pool(1 << 20, 1 << 20);
        let k = key(0, 1, Bitwidth::B2);
        cache.get_or_load(&*store, k).unwrap();
        let before = cache.stats();
        let (flash, pinned) = cache.prefetch_load(&*store, k).unwrap();
        assert_eq!(flash, 0);
        assert!(pinned > 0);
        // The peek left demand-visible counters alone.
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn prefetch_pool_respects_its_own_budget() {
        let store = store();
        let first = store.load(key(0, 0, Bitwidth::B2)).unwrap().byte_size() as u64;
        let second = store.load(key(0, 1, Bitwidth::B2)).unwrap().byte_size() as u64;
        // Room for either alone but not both together.
        let budget = first + second - 1;
        let cache = ShardCache::with_prefetch_pool(1 << 20, budget);
        cache.prefetch_load(&*store, key(0, 0, Bitwidth::B2)).unwrap();
        cache.prefetch_load(&*store, key(0, 1, Bitwidth::B2)).unwrap();
        let ps = cache.prefetch_stats();
        assert!(ps.evictions >= 1, "second stage evicts the first");
        assert!(ps.resident_bytes <= budget);
    }

    #[test]
    fn a_cache_built_without_a_pool_stages_nothing() {
        let store = store();
        let cache = ShardCache::new(1 << 20);
        assert_eq!(cache.prefetch_load(&*store, key(0, 0, Bitwidth::B2)).unwrap(), (0, 0));
        assert_eq!(cache.prefetch_stats(), PrefetchPoolStats::default());
    }

    #[test]
    fn clear_drops_staged_blobs_so_the_next_miss_rereads() {
        let store = store();
        let cache = ShardCache::with_prefetch_pool(1 << 20, 1 << 20);
        let k = key(0, 0, Bitwidth::B2);
        assert!(cache.prefetch_load(&*store, k).unwrap().0 > 0);
        cache.clear();
        assert_eq!(cache.resident_bytes(), (0, 0));
        let (_, resident) = cache.get_or_load_tracked(&*store, k, None).unwrap();
        assert!(!resident, "a cleared pool must not serve a stale staged blob");
        assert_eq!(cache.prefetch_stats().hits, 0);
    }

    #[test]
    fn missing_shard_error_passes_through() {
        let store = store();
        let cache = ShardCache::new(1 << 20);
        assert!(cache.get_or_load(&*store, key(0, 0, Bitwidth::B4)).is_err());
    }

    /// The main map's LRU by Mattson's stack distance, in bytes. Under
    /// `Lru::insert`'s rule (evict least recent until the new blob fits;
    /// refuse a blob larger than the budget) the resident set is always
    /// the longest most-recent prefix of the recency stack of fitting keys
    /// whose bytes fit. So an access hits exactly when its key was seen
    /// before, fits the budget, and its own bytes plus the bytes of the
    /// distinct fitting keys touched since its last access are at most the
    /// budget; a miss evicts whatever leaves that prefix.
    struct StackOracle {
        budget: u64,
        /// Fitting keys with their bytes, most recent last.
        stack: Vec<(ShardKey, u64)>,
        stats: ShardCacheStats,
    }

    impl StackOracle {
        fn new(budget: u64) -> Self {
            Self { budget, stack: Vec::new(), stats: ShardCacheStats::default() }
        }

        /// `(entries, bytes)` of the resident prefix.
        fn resident(&self) -> (usize, u64) {
            let (mut n, mut bytes) = (0, 0);
            for &(_, b) in self.stack.iter().rev() {
                if bytes + b > self.budget {
                    break;
                }
                (n, bytes) = (n + 1, bytes + b);
            }
            (n, bytes)
        }

        fn access(&mut self, key: ShardKey, bytes: u64) {
            if bytes > self.budget {
                self.stats.misses += 1;
                return;
            }
            let before = self.resident().0;
            let last = self.stack.iter().rposition(|&(k, _)| k == key);
            let hit = last.is_some_and(|at| {
                self.stack[at..].iter().map(|&(_, b)| b).sum::<u64>() <= self.budget
            });
            if let Some(at) = last {
                self.stack.remove(at);
            }
            self.stack.push((key, bytes));
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                self.stats.evictions += (before + 1 - self.resident().0) as u64;
            }
        }
    }

    /// A source of blobs of whatever sizes a test picks: the cache's
    /// bookkeeping depends on a blob's size alone, and the oracle tests
    /// need odd sizes no model shape gives.
    struct SizedBlobs(HashMap<ShardKey, QuantizedBlob>);

    impl ShardSource for SizedBlobs {
        fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
            Ok(self.0[&key].clone())
        }

        fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
            Ok(self.0[&key].byte_size() as u64)
        }
    }

    /// `count` keys whose full-fidelity blobs are 4 to 160 bytes.
    fn sized_store(seed: u64, count: u16) -> (SizedBlobs, Vec<(ShardKey, u64)>) {
        let mut rng = sti_tensor::Rng::new(seed);
        let mut blobs = HashMap::new();
        let keys = (0..count)
            .map(|slice| {
                let k = key(0, slice, Bitwidth::Full);
                let blob = QuantizedBlob::quantize(
                    &vec![0.5; 1 + rng.next_below(40)],
                    Bitwidth::Full,
                    &QuantConfig::default(),
                );
                let bytes = blob.byte_size() as u64;
                blobs.insert(k, blob);
                (k, bytes)
            })
            .collect();
        (SizedBlobs(blobs), keys)
    }

    /// A skewed pick (the lower of two uniform draws), so reuse distances
    /// span the whole stack.
    fn skewed(rng: &mut sti_tensor::Rng, n: usize) -> usize {
        rng.next_below(n).min(rng.next_below(n))
    }

    /// Drives `accesses` seeded demand loads through a cache of `budget`
    /// bytes, asserting it against the oracle after every one.
    fn check_against_oracle(
        store: &dyn ShardSource,
        keys: &[(ShardKey, u64)],
        budget: u64,
        seed: u64,
        accesses: usize,
    ) {
        let mut rng = sti_tensor::Rng::new(seed);
        let cache = ShardCache::new(budget);
        let mut oracle = StackOracle::new(budget);
        for i in 0..accesses {
            let (k, bytes) = keys[skewed(&mut rng, keys.len())];
            cache.get_or_load(store, k).unwrap();
            oracle.access(k, bytes);
            let at = format!("budget {budget}, access {i}");
            assert_eq!(cache.stats(), oracle.stats, "{at}");
            assert_eq!(cache.resident_bytes().0, oracle.resident().1, "{at}");
        }
    }

    #[test]
    fn main_map_matches_the_stack_distance_oracle() {
        for seed in 0..4 {
            let (store, keys) = sized_store(seed, 24);
            let total: u64 = keys.iter().map(|&(_, b)| b).sum();
            // Odd budgets make exact fits and off-by-one overruns visible;
            // the small ones sit below the largest keys.
            for budget in [0, 3, 64, 99, 160, 255, 301, 512, total - 1, total] {
                check_against_oracle(&store, &keys, budget, seed, 2_000);
            }
        }
    }

    #[test]
    fn speculation_leaves_the_main_map_as_the_demand_stream_alone_leaves_it() {
        for seed in 0..4 {
            let (store, keys) = sized_store(seed, 24);
            for (budget, pool) in [(99, 160), (255, 64), (512, 512)] {
                let mut rng = sti_tensor::Rng::new(seed);
                let demand_only = ShardCache::new(budget);
                let speculating = ShardCache::with_prefetch_pool(budget, pool);
                let mut oracle = StackOracle::new(budget);
                for i in 0..2_000 {
                    let (k, bytes) = keys[skewed(&mut rng, keys.len())];
                    if rng.next_below(3) == 0 {
                        speculating.prefetch_load(&store, k).unwrap();
                        continue;
                    }
                    demand_only.get_or_load(&store, k).unwrap();
                    speculating.get_or_load(&store, k).unwrap();
                    oracle.access(k, bytes);
                    let at = format!("budget {budget}, pool {pool}, access {i}");
                    assert_eq!(speculating.stats(), demand_only.stats(), "{at}");
                    assert_eq!(speculating.stats(), oracle.stats, "{at}");
                    let main = speculating.resident_bytes().0;
                    assert_eq!(main, demand_only.resident_bytes().0, "{at}");
                    assert_eq!(main, oracle.resident().1, "{at}");
                }
                assert!(speculating.prefetch_stats().hits > 0, "the pool served some misses");
            }
        }
    }

    /// The oracle at `scaled_bert()`'s key count (12 x 12 shards at six
    /// bitwidths) over 10^5 accesses, at every power-of-two budget from
    /// 1 KiB to the whole store. Seconds in release, so it runs with
    /// `cargo test --release -p sti-storage -- --ignored`.
    #[test]
    #[ignore = "long sweep; run in release with --ignored"]
    fn stack_distance_oracle_holds_at_every_budget_at_scaled_bert() {
        let model = Model::synthetic(7, ModelConfig::scaled_bert());
        let store = ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default());
        let store = store.unwrap();
        let keys: Vec<(ShardKey, u64)> = model
            .config()
            .shard_ids()
            .flat_map(|id| Bitwidth::ALL.map(|bw| ShardKey::new(id, bw)))
            .map(|k| (k, store.size_bytes(k).unwrap()))
            .collect();
        assert_eq!(keys.len(), 864);
        let total: u64 = keys.iter().map(|&(_, b)| b).sum();
        let mut budget = 1 << 10;
        loop {
            check_against_oracle(&store, &keys, budget.min(total), 11, 100_000);
            if budget >= total {
                break;
            }
            budget *= 2;
        }
    }
}
