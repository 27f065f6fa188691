//! Servicing a pick: the storage load, the accounting, and handing the
//! result back to the lanes.
//!
//! **Invariants.** The load runs *outside* the scheduler lock, on the
//! thread that holds the drive, and the lock is taken once per dispatch, to
//! land the result. `IoChannel::recv` and `drive_queued` both come through
//! [`run`], so they account identically. The overlap of IO with compute
//! lives on the simulated timeline, not in host threads. The instruments
//! *are* the accounting: `IoScheduler::stats` is reconstructed from them. A
//! failed load counts nothing — each member of a failed batch is charged
//! when its own retry lands. A speculative job touches no `io.*`
//! instrument, no demand lane and no demand event: a wrong prediction's
//! whole footprint is staging-pool bytes and the speculative log.
//!
//! **A dispatch prices; it reads only what the cache keeps.** Sizes come
//! from the source's index and residency from the cache's lookup, so the
//! log entry, the instruments and the delay never depend on a payload. On
//! a dispatch with no batch members, a miss whose payload exceeds the
//! cache's whole budget is handed on as a deferred key instead of being
//! read and then refused by admission: the cache ends in the same state
//! either way, and the engagement reads the shard when it computes the
//! layer (see [`crate::loader`]). Such a dispatch is charged and logged
//! even if that later read fails — the failure surfaces from the
//! consumer's read, not from this dispatch. A batched dispatch still reads
//! every shard once, so all its members share the one payload.

use sti_device::{DeviceTopology, SimTime};
use sti_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanArgs, SpanEvent, TrackKind};
use sti_transformer::ShardId;

use super::lanes::{Dispatch, Pick, SpeculativeJob};
use super::Shared;
use crate::error::StorageError;
use crate::loader::{LayerRequest, LoadedLayer, LoadedShard};
use crate::store::ShardKey;

/// Aggregate accounting across every channel the scheduler served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSchedulerStats {
    /// Layer requests completed (every member of a batched dispatch counts:
    /// this is per-engagement accounting).
    pub requests: u64,
    /// Serialized bytes delivered (simulated-device accounting; cache hits
    /// and batch fan-outs count too, because the per-engagement device
    /// model streams them — the *unbatched* byte total).
    pub bytes: u64,
    /// Simulated flash busy time if every request were served back-to-back
    /// on the single flash channel, with no cross-engagement sharing.
    pub sim_flash_busy: SimTime,
    /// Largest number of channels with queued or in-flight work observed at
    /// a dispatch point.
    pub max_queue_depth: usize,
    /// Requests dispatched while at least one other channel had work queued
    /// (a direct measure of flash contention under concurrency).
    pub contended_requests: u64,
    /// Shared-IO batching counters (all zero under
    /// [`IoSharing::Exclusive`](sti_device::IoSharing::Exclusive)).
    pub batch: BatchStats,
}

/// Per-scheduler batching counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Dispatches that carried more than one engagement's request.
    pub batched_dispatches: u64,
    /// Requests absorbed into another engagement's flash job (the fan-out
    /// beyond each batch's leader).
    pub coalesced_requests: u64,
    /// Serialized bytes those coalesced requests would have re-read from
    /// flash.
    pub flash_bytes_saved: u64,
    /// Largest fan-out (member count including the leader) observed.
    pub max_fanout: usize,
}

/// The scheduler's named instruments, resolved once at spawn so the
/// dispatch path never touches the registry map.
pub(super) struct IoInstruments {
    requests: Counter,
    bytes: Counter,
    sim_flash_busy_us: Counter,
    contended_requests: Counter,
    batched_dispatches: Counter,
    coalesced_requests: Counter,
    flash_bytes_saved: Counter,
    queue_depth: Gauge,
    batch_fanout: Gauge,
    request_bytes: Histogram,
    service_us: Histogram,
    /// `io.channel.<c>.*`, one per device channel — none under the
    /// single-channel topology, whose metric snapshots have no such names.
    per_channel: Vec<DeviceChannelInstruments>,
}

/// `io.channel.<c>.{busy_us, queued_bytes, batch_fanout}`: device-model
/// service time and serialized bytes dispatched on the channel (a batched
/// job charged once, like the replay) and its peak batch fan-out.
struct DeviceChannelInstruments {
    busy_us: Counter,
    queued_bytes: Counter,
    batch_fanout: Gauge,
}

impl IoInstruments {
    pub(super) fn resolve(registry: &MetricsRegistry, topology: DeviceTopology) -> Self {
        let channels = if topology.channel_count() > 1 { topology.channel_count() } else { 0 };
        Self {
            requests: registry.counter("io.requests"),
            bytes: registry.counter("io.bytes"),
            sim_flash_busy_us: registry.counter("io.sim_flash_busy_us"),
            contended_requests: registry.counter("io.contended_requests"),
            batched_dispatches: registry.counter("io.batch.dispatches"),
            coalesced_requests: registry.counter("io.batch.coalesced_requests"),
            flash_bytes_saved: registry.counter("io.batch.flash_bytes_saved"),
            queue_depth: registry.gauge("io.queue_depth"),
            batch_fanout: registry.gauge("io.batch.fanout"),
            request_bytes: registry.histogram("io.request_bytes"),
            service_us: registry.histogram("io.service_us"),
            per_channel: (0..channels)
                .map(|c| DeviceChannelInstruments {
                    busy_us: registry.counter(format!("io.channel.{c}.busy_us")),
                    queued_bytes: registry.counter(format!("io.channel.{c}.queued_bytes")),
                    batch_fanout: registry.gauge(format!("io.channel.{c}.batch_fanout")),
                })
                .collect(),
        }
    }

    /// The stable report shape over the instruments.
    pub(super) fn stats(&self) -> IoSchedulerStats {
        IoSchedulerStats {
            requests: self.requests.get(),
            bytes: self.bytes.get(),
            sim_flash_busy: SimTime::from_us(self.sim_flash_busy_us.get()),
            max_queue_depth: self.queue_depth.max() as usize,
            contended_requests: self.contended_requests.get(),
            batch: BatchStats {
                batched_dispatches: self.batched_dispatches.get(),
                coalesced_requests: self.coalesced_requests.get(),
                flash_bytes_saved: self.flash_bytes_saved.get(),
                max_fanout: self.batch_fanout.max() as usize,
            },
        }
    }

    /// Accounts one successful dispatch. Per-engagement (uncontended-track)
    /// totals charge the fan-out — every member streamed the layer as far
    /// as the device model is concerned; the histograms and per-channel
    /// instruments see the job once, like the replay.
    fn record(&self, dispatch: &Dispatch, loaded: &LoadedLayer) {
        let members = dispatch.members.len() as u64;
        let fanout = 1 + members;
        let service_us = loaded.io_delay.as_us();
        self.requests.add(fanout);
        self.bytes.add(loaded.bytes * fanout);
        self.sim_flash_busy_us.add(service_us * fanout);
        self.queue_depth.observe_peak(dispatch.depth as u64);
        if dispatch.depth > 1 {
            self.contended_requests.add(fanout);
        }
        if members > 0 {
            self.batched_dispatches.incr();
            self.coalesced_requests.add(members);
            self.flash_bytes_saved.add(loaded.bytes * members);
            self.batch_fanout.observe_peak(fanout);
        }
        self.request_bytes.record(loaded.bytes);
        self.service_us.record(service_us);
        if let Some(dci) = self.per_channel.get(dispatch.device_channel as usize) {
            dci.busy_us.add(service_us);
            dci.queued_bytes.add(loaded.bytes);
            dci.batch_fanout.observe_peak(fanout);
        }
    }
}

/// Services whatever a pick handed out, to completion.
pub(super) fn run(shared: &Shared, pick: Pick) {
    match pick {
        Pick::Demand(dispatch) => run_dispatch(shared, dispatch),
        Pick::Spec(job) => run_spec_dispatch(shared, job),
    }
}

/// Services one demand dispatch: the storage load, the accounting, the
/// host-track span, then the lanes' own bookkeeping (event log, fan-out or
/// failed-batch requeue) under the lock.
fn run_dispatch(shared: &Shared, dispatch: Dispatch) {
    let result = service(shared, &dispatch.req, dispatch.members.is_empty());
    shared.land(|lanes| {
        if let Ok((loaded, hit_bytes)) = &result {
            shared.instruments.record(&dispatch, loaded);
            let sink = shared.obs.lock().clone();
            if sink.enabled() {
                let start = dispatch.arrival.as_us();
                let end = (dispatch.arrival + loaded.io_delay).as_us();
                let args = SpanArgs::new()
                    .with("fanout", 1 + dispatch.members.len() as u64)
                    .with("bytes", loaded.bytes)
                    .with("hit_bytes", *hit_bytes);
                let lane = dispatch.channel_id;
                let span = SpanEvent::complete(TrackKind::Host, lane, "io.dispatch", start, end);
                sink.span(span.with_args(args));
            }
        }
        lanes.finish(dispatch, result);
    });
}

/// Stages one speculative job's shards into the shard cache's prefetch
/// pool and logs the speculative event. Load errors are swallowed
/// (speculation may not fail an engagement).
fn run_spec_dispatch(shared: &Shared, job: SpeculativeJob) {
    let mut flash_bytes = 0u64;
    let mut pinned_bytes = 0u64;
    for &key in &job.keys {
        if let Ok((flash, pinned)) = shared.cache.prefetch_load(&*shared.source, key) {
            flash_bytes += flash;
            pinned_bytes += pinned;
        }
    }
    let io_delay =
        if flash_bytes > 0 { shared.flash.request_delay(flash_bytes) } else { SimTime::ZERO };
    shared.land(|lanes| lanes.finish_speculative(&job, flash_bytes, pinned_bytes, io_delay));
}

/// Services one request through the cache, returning the loaded layer plus
/// how many of its bytes were cache-resident at dispatch (contended-track
/// accounting). Each blob is a handle to the source's (or the cache's) one
/// payload. On a `solo` dispatch (no batch members) a miss the cache
/// cannot keep is handed on unread, as a deferred key
/// ([`ShardCache::get_or_load_tracked`](crate::ShardCache::get_or_load_tracked));
/// a batched dispatch reads it once and fans the one payload out to every
/// member. Pricing reads sizes and residency only, never a payload, so
/// deferring changes no simulated number.
fn service(
    shared: &Shared,
    req: &LayerRequest,
    solo: bool,
) -> Result<(LoadedLayer, u64), StorageError> {
    let mut shards = Vec::with_capacity(req.items.len());
    let mut bytes = 0u64;
    let mut hit_bytes = 0u64;
    for &(slice, bw) in &req.items {
        let key = ShardKey::new(ShardId::new(req.layer, slice), bw);
        let size = shared.source.size_bytes(key)?;
        bytes += size;
        let (blob, hit) =
            shared.cache.get_or_load_tracked(&*shared.source, key, solo.then_some(size))?;
        if hit {
            hit_bytes += size;
        }
        shards.push((slice, blob.map_or(LoadedShard::Deferred(key), LoadedShard::Blob)));
    }
    let io_delay =
        if req.items.is_empty() { SimTime::ZERO } else { shared.flash.request_delay(bytes) };
    Ok((LoadedLayer { layer: req.layer, shards, bytes, io_delay }, hit_bytes))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sti_device::{DeviceTopology, IoSharing, SimTime};
    use sti_quant::Bitwidth;
    use sti_transformer::ShardId;

    use super::super::tests::{fixture, paused_sched, request};
    use super::super::{IoScheduler, SpeculativeJob};
    use crate::cache::ShardCache;
    use crate::loader::{LayerRequest, LoadedShard};
    use crate::store::ShardKey;

    #[test]
    fn a_request_loads_its_items_in_order_and_an_empty_one_costs_nothing() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        let items = vec![(0, Bitwidth::B2), (1, Bitwidth::B6), (2, Bitwidth::B2)];
        ch.request(LayerRequest { layer: 0, items }).unwrap();
        ch.request(LayerRequest { layer: 0, items: vec![] }).unwrap();
        let loaded = ch.recv().unwrap();
        assert_eq!(loaded.shards.len(), 3);
        // A zero-byte cache keeps nothing, so every shard is deferred.
        let key = ShardKey::new(ShardId::new(0, 1), Bitwidth::B6);
        assert_eq!(loaded.shards[1], (1, LoadedShard::Deferred(key)));
        assert!(loaded.bytes > 0 && loaded.io_delay > SimTime::ZERO);
        let empty = ch.recv().unwrap();
        assert_eq!((empty.bytes, empty.io_delay), (0, SimTime::ZERO));
    }

    #[test]
    fn io_delay_is_independent_of_concurrency() {
        let (store, cache, flash) = fixture(0);
        // Alone.
        let sched = IoScheduler::spawn(
            store.clone(),
            flash,
            cache.clone(),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        ch.request(request(0, 0)).unwrap();
        let alone = ch.recv().unwrap();
        // Next to a busy neighbour.
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let noisy = sched.channel_striped_at(SimTime::ZERO, 0);
        for _ in 0..4 {
            noisy.request(request(1, 0)).unwrap();
        }
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        ch.request(request(0, 0)).unwrap();
        let contended = ch.recv().unwrap();
        assert_eq!(alone.io_delay, contended.io_delay);
        assert_eq!(alone.bytes, contended.bytes);
    }

    #[test]
    fn shared_cache_absorbs_redundant_reads() {
        let (store, cache, flash) = fixture(1 << 20);
        let sched = IoScheduler::spawn(
            store,
            flash,
            cache.clone(),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        let a = sched.channel_striped_at(SimTime::ZERO, 0);
        let b = sched.channel_striped_at(SimTime::ZERO, 0);
        a.request(request(0, 0)).unwrap();
        a.recv().unwrap();
        b.request(request(0, 0)).unwrap();
        let loaded = b.recv().unwrap();
        // Bytes are still accounted (simulated device streams them) even
        // though the host served the blob from cache.
        assert!(loaded.bytes > 0);
        assert_eq!(cache.stats().hits, 1);
        // The contended track saw the residency: the second request's bytes
        // were all cache hits.
        let events = sched.with_event_logs(|demand, _| demand.to_vec());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].hit_bytes, 0);
        assert_eq!(events[1].hit_bytes, events[1].bytes);
    }

    #[test]
    fn contention_is_measured_not_charged() {
        let (store, cache, flash) = fixture(0);
        // Both lanes queue before the first pick, so the first dispatch
        // observes both channels with work.
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let a = sched.channel_striped_at(SimTime::ZERO, 0);
        let b = sched.channel_striped_at(SimTime::ZERO, 0);
        for layer in 0..2u16 {
            a.request(request(layer, 0)).unwrap();
            b.request(request(layer, 1)).unwrap();
        }
        for _ in 0..2 {
            a.recv().unwrap();
            b.recv().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.requests, 4);
        assert!(stats.bytes > 0);
        assert!(stats.sim_flash_busy > SimTime::ZERO);
        assert!(stats.max_queue_depth >= 2, "two channels queued concurrently");
    }

    #[test]
    fn errors_surface_on_the_right_channel() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let ok = sched.channel_striped_at(SimTime::ZERO, 0);
        let bad = sched.channel_striped_at(SimTime::ZERO, 0);
        ok.request(request(0, 0)).unwrap();
        // A version the store does not hold.
        bad.request(LayerRequest { layer: 1, items: vec![(0, Bitwidth::B4)] }).unwrap();
        assert!(ok.recv().is_ok());
        assert!(bad.recv().is_err());
    }

    #[test]
    fn striped_lanes_route_dispatches_across_device_channels() {
        let topo = DeviceTopology::with_channels(4);
        let sched = paused_sched(IoSharing::Exclusive, topo);
        let a = sched.channel_striped_at(SimTime::ZERO, 0);
        let b = sched.channel_striped_at(SimTime::ZERO, 1);
        a.request(request(0, 0)).unwrap();
        b.request(request(0, 0)).unwrap();
        sched.resume_dispatch();
        a.recv().unwrap();
        b.recv().unwrap();
        let events = sched.with_event_logs(|demand, _| demand.to_vec());
        assert_eq!(events.len(), 2);
        let sig = request(0, 0).content_sig();
        assert_eq!(events[0].device_channel, topo.channel_for(sig, 0));
        assert_eq!(events[1].device_channel, topo.channel_for(sig, 1));
        assert_ne!(events[0].device_channel, events[1].device_channel);
        // Per-device-channel instruments saw one dispatch each.
        let snap = sched.metrics_snapshot();
        let busy: Vec<u64> = (0..4)
            .filter_map(|c| snap.counters.get(&format!("io.channel.{c}.busy_us")))
            .copied()
            .collect();
        assert_eq!(busy.len(), 4, "every device channel has instruments");
        assert_eq!(busy.iter().filter(|&&v| v > 0).count(), 2);
        // Single-channel schedulers mint no per-channel instruments.
        let single = paused_sched(IoSharing::Exclusive, DeviceTopology::single());
        let snap = single.metrics_snapshot();
        assert!(snap.counters.keys().all(|n| !n.starts_with("io.channel.")));
    }

    fn spec_key(layer: u16, slice: u16) -> ShardKey {
        ShardKey::new(ShardId::new(layer, slice), Bitwidth::B2)
    }

    fn spec_job(keys: Vec<ShardKey>) -> SpeculativeJob {
        SpeculativeJob { session: 42, device_channel: 0, arrival: SimTime::from_ms(1), keys }
    }

    #[test]
    fn speculative_job_stages_into_pool_without_touching_demand_state() {
        let (store, _, flash) = fixture(0);
        let cache = Arc::new(ShardCache::with_prefetch_pool(1 << 20, 1 << 20));
        let sched = IoScheduler::spawn(
            store,
            flash,
            cache.clone(),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        sched.pause_dispatch();
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        assert_eq!(sched.drive_queued(), 1);
        // The stage landed in the pool; the demand log, demand counters,
        // and main cache saw nothing.
        let spec = sched.with_event_logs(|_, spec| spec.to_vec());
        assert_eq!(spec.len(), 1);
        assert!(spec[0].bytes > 0, "cold shard was flash-loaded");
        assert_eq!(spec[0].hit_bytes, 0, "nothing was pinned");
        assert_eq!(spec[0].channel, 42);
        assert!(sched.with_event_logs(|demand, _| demand.to_vec()).is_empty());
        assert_eq!(sched.stats().requests, 0);
        assert!(cache.is_empty());
        assert!(cache.prefetch_stats().staged_flash_bytes > 0);
        assert_eq!(sched.drive_queued(), 0, "the job left the queue");
    }

    #[test]
    fn demand_always_dispatches_before_queued_speculation() {
        let (store, _, flash) = fixture(0);
        let cache = Arc::new(ShardCache::with_prefetch_pool(1 << 20, 1 << 20));
        let sched = IoScheduler::spawn(
            store,
            flash,
            cache.clone(),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        sched.pause_dispatch();
        // Speculation submitted *first*, demand for the same shard second.
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        ch.request(request(0, 0)).unwrap();
        sched.drive_queued();
        ch.recv().unwrap();
        // Demand won the race: it flash-loaded the shard into the main
        // cache, so the later speculative dispatch found it resident and
        // *pinned* it instead of reading flash.
        let spec = sched.with_event_logs(|_, spec| spec.to_vec());
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].bytes, 0, "no speculative flash read");
        assert!(spec[0].hit_bytes > 0, "shard was pinned from the main cache");
        assert_eq!(cache.prefetch_stats().staged_flash_bytes, 0);
    }

    #[test]
    fn speculative_stage_serves_a_later_demand_miss_as_resident() {
        let (store, _, flash) = fixture(0);
        let cache = Arc::new(ShardCache::with_prefetch_pool(1 << 20, 1 << 20));
        let sched = IoScheduler::spawn(
            store,
            flash,
            cache.clone(),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        sched.pause_dispatch();
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        sched.drive_queued();
        // The prediction comes true: the demand request's bytes are
        // resident on the contended track.
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        ch.request(request(0, 0)).unwrap();
        sched.drive_queued();
        ch.recv().unwrap();
        let events = sched.with_event_logs(|demand, _| demand.to_vec());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].hit_bytes, events[0].bytes, "promoted stage counts as resident");
        assert!(cache.prefetch_stats().hit_bytes > 0);
    }

    #[test]
    fn speculation_a_cache_has_no_pool_for_is_a_silent_no_op() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        sched.pause_dispatch();
        sched.submit_speculative(spec_job(vec![spec_key(0, 0)]));
        sched.drive_queued();
        assert!(sched.with_event_logs(|_, spec| spec.to_vec()).is_empty());
    }
}
