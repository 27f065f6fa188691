//! The IO scheduler: one flash device, many concurrent engagements, and the
//! dual-track accounting of simulated time.
//!
//! A serving runtime has N concurrent engagements, each streaming its
//! layers in order, all sharing one flash device. The [`IoScheduler`]
//! multiplexes them:
//!
//! - every engagement opens an [`IoChannel`] — its **engagement IO lane**
//!   into the scheduler; requests on a lane are serviced **FIFO** (AIB
//!   planning requires arrival order = execution order, paper §5.4);
//! - across lanes the scheduler dispatches **round-robin**, one layer
//!   request per turn, so no engagement can starve another;
//! - every load reads through the [`ShardCache`] it was built with, which
//!   absorbs redundant reads across engagements executing overlapping
//!   submodels (a zero-budget cache admits nothing, so every read goes to
//!   the source).
//!
//! The scheduler schedules, and nothing else. It is three modules, each
//! stating its invariants at the top: `lanes` is the lane state machine —
//! queues, the round-robin pick with batching and placement, delivery, the
//! two dispatch logs — as plain data that a test can drive one operation
//! at a time; `dispatch` services a pick (the storage load, the `io.*`
//! instruments) and hands the result back; and this module is the public
//! API, whose callers drive the IO. There is no thread of its own: a
//! [`IoChannel::recv`] with nothing landed for its lane services the queue
//! on the calling thread, and [`IoScheduler::drive_queued`] does the same
//! for an event-driven host. The invariants of driving:
//!
//! - **One mutex** guards the lane machine and three flags (`paused`,
//!   `shutdown`, `driving`), and a storage load never runs under it.
//! - **One driver at a time.** The `driving` flag, taken with a pick and
//!   released when its result lands, serialises pick → load → finish across
//!   callers, so the dispatch log of a quiesced release is a pure function
//!   of the queue, whichever thread happens to hold the drive.
//! - **Pause parks callers.** While paused, `recv` waits on the one condvar
//!   and [`IoScheduler::resume_dispatch`] wakes it; `drive_queued` and
//!   `drive_queued_on` ignore the pause.
//! - **An unwinding dispatch fails the scheduler.** A panicking load unwinds
//!   on the thread that drove it, after marking the scheduler shut down, so
//!   every other waiter gets [`StorageError::SchedulerShutdown`] instead of
//!   hanging; dropping the scheduler sets the same flag.
//!
//! **Two kinds of "channel".** An [`IoChannel`] is an engagement IO
//! *lane*: one engagement's request stream, identified by the
//! `channel`/engagement id on events and reports. A
//! **device channel** is a hardware lane of the flash package, named by
//! [`DeviceTopology`]: placement maps each request to the device channel
//! `DeviceTopology::channel_for(content_sig, lane_stripe)`, where the
//! lane's *stripe* offset is fixed at [`IoScheduler::channel_striped_at`]
//! time. Under the default single-channel topology every request lands on
//! device channel 0.
//!
//! Simulated time is kept on **two tracks**:
//!
//! - **Uncontended track.** Each completed load reports the *device-model*
//!   flash delay for its bytes, independent of concurrent queue state, so a
//!   given engagement's outcome is bit-identical whether it ran alone or
//!   next to seven neighbours (the determinism contract of the serving
//!   tests). Aggregates land in [`IoSchedulerStats`].
//! - **Contended track.** The scheduler additionally records its dispatch
//!   sequence as [`FlashDispatchEvent`]s — one per serviced flash job, with
//!   the lane's simulated arrival time, the device channel placement put it
//!   on, and byte/cache-hit accounting — and that is all it does for this
//!   track: the serving runtime's contention ledger (`sti-pipeline`) reads
//!   the log in place ([`IoScheduler::with_event_logs`]) and replays it,
//!   where it lies, through `sti-device`'s single-server fold per device
//!   channel to learn when each request *would* have started and
//!   completed on the contended device. Nothing of that feeds back into
//!   execution results; it exists for serving reports, the SLO planner,
//!   and admission control.
//!
//! **Shared-IO batching.** Co-resident sessions on one plan request
//! byte-identical layer loads. Under [`IoSharing::Batched`], a dispatch
//! takes every other lane's head-of-queue request that
//! [`IoSharing::coalesces`] with its own — the one rule, which the
//! contended predictor groups by too: the same bytes, lanes opened within
//! the window, and placed on the **same device channel**, whatever the
//! lanes' stripes (there is no cross-channel fan-out). The flash services
//! the group as **one** job, every member lane receives a bit-identical
//! [`LoadedLayer`] in its own FIFO position (blobs are shared handles, so
//! the fan-out is reference counting), and the contended track records
//! one event with the member list so the replay charges the bytes once.
//! The uncontended track never sees batching.

mod dispatch;
mod lanes;

use std::sync::{Arc, Condvar, MutexGuard};

use parking_lot::Mutex;

use sti_device::{DeviceTopology, FlashModel, IoSharing, SimTime};
use sti_obs::{MetricsRegistry, MetricsSnapshot, ObsSink};

use self::dispatch::IoInstruments;
use self::lanes::{Pick, SchedState};
use crate::cache::ShardCache;
use crate::error::StorageError;
use crate::loader::{LayerRequest, LoadedLayer};
use crate::store::ShardSource;

pub use self::dispatch::{BatchStats, IoSchedulerStats};
pub use self::lanes::{FlashDispatchEvent, SpeculativeJob};

/// What the scheduler mutex guards: the lane machine and the three flags.
struct Driver {
    lanes: SchedState,
    /// While set, `recv` parks instead of dispatching.
    paused: bool,
    shutdown: bool,
    /// Set while one caller runs a pick to completion (pick → load →
    /// finish); every other caller waits for it.
    driving: bool,
}

/// The scheduler state's lock. It pairs with [`Shared::wake`], a
/// `Condvar`, which waits on std's guard; the `parking_lot` stand-in hands
/// out std guards but offers no `Condvar` over them, so this pair stays on
/// `std::sync` and recovers a poisoned lock by hand ([`Shared::lock_state`]).
#[allow(clippy::disallowed_types)]
type StateLock = std::sync::Mutex<Driver>;

struct Shared {
    source: Arc<dyn ShardSource>,
    cache: Arc<ShardCache>,
    flash: FlashModel,
    /// On `std::sync`, not `parking_lot`: it pairs with `wake` ([`StateLock`]).
    state: StateLock,
    /// Signals waiters that a dispatch landed, dispatch resumed, or
    /// shutdown began.
    wake: Condvar,
    /// The scheduler's own registry ([`IoScheduler::metrics_snapshot`]).
    registry: MetricsRegistry,
    /// Handles resolved from `registry` at spawn.
    instruments: IoInstruments,
    /// Span sink for host-track dispatch spans ([`IoScheduler::set_obs_sink`]).
    obs: Mutex<ObsSink>,
}

impl Shared {
    /// Locks the scheduler state, recovering from poisoning: mutations
    /// happen in short, panic-free critical sections, and a dispatch that
    /// *does* unwind marks shutdown on its way out — so after recovery the
    /// state is consistent and `recv`/`request` report
    /// [`StorageError::SchedulerShutdown`].
    fn lock_state(&self) -> MutexGuard<'_, Driver> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&'a self, state: MutexGuard<'a, Driver>) -> MutexGuard<'a, Driver> {
        self.wake.wait(state).unwrap_or_else(|e| e.into_inner())
    }

    fn begin_shutdown(&self) {
        self.lock_state().shutdown = true;
        self.wake.notify_all();
    }

    /// Takes the drive and services `pick` on the calling thread, with the
    /// lock released for the load, and returns the lock re-taken after the
    /// result landed. A load that unwinds marks the scheduler shut down
    /// first, so no waiter stays parked behind a drive nobody will release.
    fn dispatch<'a>(
        &'a self,
        mut state: MutexGuard<'a, Driver>,
        pick: Pick,
    ) -> MutexGuard<'a, Driver> {
        struct FailOnUnwind<'a>(&'a Shared);
        impl Drop for FailOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.begin_shutdown();
                }
            }
        }
        state.driving = true;
        drop(state);
        let _fail_on_unwind = FailOnUnwind(self);
        dispatch::run(self, pick);
        self.lock_state()
    }

    /// Lands a dispatch: applies `finish` to the lanes under the lock, then
    /// releases the drive and wakes every waiter.
    fn land(&self, finish: impl FnOnce(&mut SchedState)) {
        let mut state = self.lock_state();
        finish(&mut state.lanes);
        state.driving = false;
        drop(state);
        self.wake.notify_all();
    }
}

/// Multiplexes layer requests from many engagements over one shard source
/// and flash model; whoever waits for a load drives it.
pub struct IoScheduler {
    shared: Arc<Shared>,
    topology: DeviceTopology,
}

impl std::fmt::Debug for IoScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoScheduler").field("topology", &self.topology).finish()
    }
}

impl IoScheduler {
    /// Builds the scheduler. Every load reads `source` through `cache`,
    /// which all lanes share. Under [`IoSharing::Batched`], byte-identical
    /// head-of-queue requests from lanes arriving within the window are
    /// coalesced into one fan-out flash job ([`IoSharing::coalesces`]);
    /// [`IoSharing::Exclusive`] gives every request its own job. Placement
    /// resolves every request to a device channel of `topology`, batching
    /// only coalesces same-channel placements, and the contended track
    /// records each dispatch's device channel for the replay to route by.
    pub fn spawn(
        source: Arc<dyn ShardSource>,
        flash: FlashModel,
        cache: Arc<ShardCache>,
        sharing: IoSharing,
        topology: DeviceTopology,
    ) -> Self {
        let registry = MetricsRegistry::new();
        let instruments = IoInstruments::resolve(&registry, topology);
        let shared = Arc::new(Shared {
            source,
            cache,
            flash,
            state: StateLock::new(Driver {
                lanes: SchedState::new(sharing, topology),
                paused: false,
                shutdown: false,
                driving: false,
            }),
            wake: Condvar::new(),
            registry,
            instruments,
            obs: Mutex::new(ObsSink::Null),
        });
        Self { shared, topology }
    }

    /// Opens the lane of one engagement arriving at `arrival` on the
    /// simulated timeline — the arrival the contended track replays its
    /// requests at; the uncontended track is unaffected. Requests on the
    /// lane are serviced FIFO; distinct lanes share the flash round-robin.
    /// Each request is placed on device channel
    /// `channel_for(content_sig, stripe)`, with the stripe as given: a
    /// stripe is a placement salt, so one `≥ C` places reads where no
    /// stripe of `0..C` does, and under a single-channel topology every
    /// stripe places on channel 0.
    pub fn channel_striped_at(&self, arrival: SimTime, stripe: u16) -> IoChannel {
        let id = self.shared.lock_state().lanes.open(arrival, stripe);
        IoChannel { shared: self.shared.clone(), id }
    }

    /// The device topology this scheduler places requests onto.
    pub fn topology(&self) -> DeviceTopology {
        self.topology
    }

    /// Aggregate accounting so far, reconstructed from the scheduler's
    /// named instruments (the instruments are the source of truth; this
    /// struct is the stable report shape).
    pub fn stats(&self) -> IoSchedulerStats {
        self.shared.instruments.stats()
    }

    /// A snapshot of every `io.*` instrument (counters, gauges, and the
    /// per-dispatch byte/service-time histograms).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// Routes host-track `io.dispatch` spans to `sink` (simulated-µs
    /// timestamps, but dispatch *order* and batch fan-out are
    /// executor-dependent — hence [`sti_obs::TrackKind::Host`], which
    /// deterministic exports exclude).
    pub fn set_obs_sink(&self, sink: ObsSink) {
        *self.shared.obs.lock() = sink;
    }

    /// Parks every [`IoChannel::recv`] caller: queued requests stay
    /// queued, a dispatch already running lands, and nothing new dispatches
    /// from `recv` until [`IoScheduler::resume_dispatch`]. Quiesce support —
    /// tests and benches use it to queue a whole co-resident workload and
    /// release it in one burst so batching fan-outs are deterministic.
    pub fn pause_dispatch(&self) {
        self.shared.lock_state().paused = true;
    }

    /// Releases a [`IoScheduler::pause_dispatch`] and wakes the parked
    /// callers; the first to take the lock drives.
    pub fn resume_dispatch(&self) {
        self.shared.lock_state().paused = false;
        self.shared.wake.notify_all();
    }

    /// Requests queued across all channels, not counting in-flight ones
    /// (poll this while paused to know a workload is fully submitted).
    pub fn queued_requests(&self) -> usize {
        self.shared.lock_state().lanes.queued_requests()
    }

    /// The channel-as-component view: services every dispatchable queued
    /// request on the calling thread — the same pick and dispatch path as
    /// [`IoChannel::recv`], so the same round-robin, batching, accounting
    /// and event log — and returns how many dispatches it ran. Ignores
    /// [`IoScheduler::pause_dispatch`] deliberately: an event-driven host
    /// *is* the dispatcher, ticking this from its flash component so
    /// dispatch order is a pure function of queue state. Returns 0 after
    /// shutdown (queued requests then surface
    /// [`StorageError::SchedulerShutdown`] through their channels instead).
    pub fn drive_queued(&self) -> usize {
        self.drive(None, false)
    }

    /// [`IoScheduler::drive_queued`] restricted to one device channel:
    /// services every dispatchable request whose placement resolves to
    /// `device_channel`, leaving other channels' work queued. An
    /// event-driven host registers one flash component per device channel
    /// and ticks each channel's dispatcher independently — under the
    /// single-channel topology `drive_queued_on(0)` is exactly
    /// [`IoScheduler::drive_queued`].
    pub fn drive_queued_on(&self, device_channel: u16) -> usize {
        self.drive(Some(device_channel), false)
    }

    /// [`IoScheduler::drive_queued`] for a caller the pause must hold back:
    /// while dispatch is paused it returns 0 at once and leaves the queue
    /// to whoever drives after the resume. A blocking caller uses it to
    /// stage the speculative jobs its own completion submitted.
    pub fn drive_unless_paused(&self) -> usize {
        self.drive(None, true)
    }

    fn drive(&self, only: Option<u16>, obey_pause: bool) -> usize {
        let shared = &*self.shared;
        let mut state = shared.lock_state();
        let mut serviced = 0;
        while !(state.shutdown || (obey_pause && state.paused)) {
            if state.driving {
                state = shared.wait(state);
                continue;
            }
            let Some(pick) = state.lanes.pick(only) else { break };
            state = shared.dispatch(state, pick);
            serviced += 1;
        }
        serviced
    }

    /// Submits a background-class prefetch job. It dispatches only when no
    /// demand request is dispatchable on its device channel (demand always
    /// preempts queued speculation), stages its shards into the shard
    /// cache's prefetch pool, and logs a speculative event if it staged or
    /// pinned anything (a job whose shards were all staged already only
    /// refreshes them) — never a demand event. A no-op after shutdown.
    pub fn submit_speculative(&self, job: SpeculativeJob) {
        let mut state = self.shared.lock_state();
        if !state.shutdown {
            state.lanes.submit_speculative(job);
        }
    }

    /// Drops the demand and the speculative event log. The logs otherwise
    /// grow by one entry per serviced request.
    pub fn clear_event_logs(&self) {
        let mut state = self.shared.lock_state();
        state.lanes.demand_log.clear();
        state.lanes.spec_log.clear();
    }

    /// Lends the demand (contended-track) and the speculative event logs,
    /// each in dispatch order, to `read` without copying them; in the
    /// speculative one, `bytes` were flash-loaded into the prefetch pool
    /// and `hit_bytes` pinned from the main cache. This is the one way to
    /// read the logs. The scheduler's state lock is held across `read`, so
    /// nothing dispatches meanwhile, and `read` must not call back into
    /// this scheduler. A caller that takes locks of its own inside `read`
    /// takes them after this one, and must never wait for this scheduler
    /// while holding them.
    pub fn with_event_logs<R>(
        &self,
        read: impl FnOnce(&[FlashDispatchEvent], &[FlashDispatchEvent]) -> R,
    ) -> R {
        let state = self.shared.lock_state();
        read(&state.lanes.demand_log, &state.lanes.spec_log)
    }
}

/// Dropping the scheduler shuts it down: a dispatch already running lands,
/// and queued requests on still-open lanes are abandoned.
impl Drop for IoScheduler {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
    }
}

/// One engagement's FIFO lane into the scheduler.
pub struct IoChannel {
    shared: Arc<Shared>,
    id: u64,
}

impl std::fmt::Debug for IoChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoChannel").field("id", &self.id).finish()
    }
}

impl IoChannel {
    /// The channel's scheduler-unique id (the engagement key of the
    /// contended-track event log).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits a layer request; requests on this channel complete in
    /// submission order. Nothing dispatches until someone drives the
    /// queue: [`IoChannel::recv`] or [`IoScheduler::drive_queued`].
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchedulerShutdown`] if the scheduler has
    /// shut down (or a dispatch unwound and failed it).
    pub fn request(&self, req: LayerRequest) -> Result<(), StorageError> {
        let mut state = self.shared.lock_state();
        if state.shutdown || !state.lanes.request(self.id, req) {
            return Err(StorageError::SchedulerShutdown);
        }
        Ok(())
    }

    /// Returns this channel's next completed load. Until it has landed,
    /// the caller drives the queue itself — round-robin across every lane,
    /// so it may service other engagements' requests first — unless
    /// dispatch is paused or another caller holds the drive; then it waits.
    ///
    /// # Errors
    ///
    /// Returns the storage error if the load failed, or
    /// [`StorageError::SchedulerShutdown`] if the scheduler shut down with
    /// the request still pending.
    ///
    /// # Panics
    ///
    /// A panic inside the shard source or a decoder unwinds on the caller
    /// that drove the load, after failing the scheduler for everyone else.
    pub fn recv(&self) -> Result<LoadedLayer, StorageError> {
        let shared = &*self.shared;
        let mut state = shared.lock_state();
        loop {
            match state.lanes.pop_completed(self.id) {
                Some(Some(done)) => return done,
                Some(None) if !state.shutdown => {}
                _ => return Err(StorageError::SchedulerShutdown),
            }
            let pick = if state.paused || state.driving { None } else { state.lanes.pick(None) };
            state = match pick {
                Some(pick) => shared.dispatch(state, pick),
                None => shared.wait(state),
            };
        }
    }
}

impl Drop for IoChannel {
    fn drop(&mut self) {
        self.shared.lock_state().lanes.close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::store::{ShardKey, ShardStore};
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::{Model, ModelConfig};

    /// A two-bitwidth store of the tiny model, a shard cache of
    /// `cache_bytes` (zero caches nothing) and a 1 MB/s + 1 ms flash —
    /// shared with the submodules' tests.
    pub(super) fn fixture(cache_bytes: u64) -> (Arc<ShardStore>, Arc<ShardCache>, FlashModel) {
        let model = Model::synthetic(2, ModelConfig::tiny());
        let bitwidths = [Bitwidth::B2, Bitwidth::B6];
        let store = ShardStore::create_temp(&model, &bitwidths, &QuantConfig::default()).unwrap();
        (
            Arc::new(store),
            Arc::new(ShardCache::new(cache_bytes)),
            FlashModel::new(1_000_000, SimTime::from_ms(1)),
        )
    }

    pub(super) fn request(layer: u16, slice: u16) -> LayerRequest {
        LayerRequest { layer, items: vec![(slice, Bitwidth::B2)] }
    }

    /// A paused scheduler, so tests can queue a whole workload before the
    /// first dispatch (deterministic batching).
    pub(super) fn paused_sched(sharing: IoSharing, topology: DeviceTopology) -> IoScheduler {
        let (store, cache, flash) = fixture(0);
        let sched = IoScheduler::spawn(store, flash, cache, sharing, topology);
        sched.pause_dispatch();
        sched
    }

    #[test]
    fn single_channel_is_fifo() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        // Layers 0 and 1 twice over, interleaved slices: strictly FIFO.
        let sequence = [(0u16, 0u16), (1, 0), (0, 1), (1, 1)];
        for &(layer, slice) in &sequence {
            ch.request(request(layer, slice)).unwrap();
        }
        for &(layer, _) in &sequence {
            assert_eq!(ch.recv().unwrap().layer, layer);
        }
    }

    #[test]
    fn channels_are_independent_fifo_lanes() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let a = sched.channel_striped_at(SimTime::ZERO, 0);
        let b = sched.channel_striped_at(SimTime::ZERO, 0);
        for layer in 0..2u16 {
            a.request(request(layer, 0)).unwrap();
            b.request(request(layer, 1)).unwrap();
        }
        // Each channel sees its own requests in its own order regardless of
        // interleaving on the shared flash.
        assert_eq!(a.recv().unwrap().layer, 0);
        assert_eq!(b.recv().unwrap().layer, 0);
        assert_eq!(b.recv().unwrap().layer, 1);
        assert_eq!(a.recv().unwrap().layer, 1);
    }

    #[test]
    fn dropping_a_channel_releases_it() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        // Dropped with its request queued: nobody drove it.
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        ch.request(request(0, 0)).unwrap();
        drop(ch);
        // Remaining channels keep working.
        let other = sched.channel_striped_at(SimTime::ZERO, 0);
        other.request(request(0, 1)).unwrap();
        assert!(other.recv().is_ok());
        // Dropped while dispatch is paused: the queued request goes with
        // the lane, at once.
        sched.pause_dispatch();
        let parked = sched.channel_striped_at(SimTime::ZERO, 0);
        parked.request(request(0, 0)).unwrap();
        assert_eq!(sched.queued_requests(), 1);
        drop(parked);
        assert_eq!(sched.queued_requests(), 0);
    }

    #[test]
    fn shutdown_surfaces_as_error_not_panic() {
        let (store, cache, flash) = fixture(0);
        let sched =
            IoScheduler::spawn(store, flash, cache, IoSharing::Exclusive, DeviceTopology::single());
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        drop(sched);
        assert!(matches!(ch.request(request(0, 0)), Err(StorageError::SchedulerShutdown)));
        assert!(matches!(ch.recv(), Err(StorageError::SchedulerShutdown)));
    }

    /// A source whose loads panic (stands in for e.g. a decoder assert on a
    /// corrupt record) — once the test has seen the load start and lets it.
    struct PanickingSource {
        started: Mutex<mpsc::Sender<()>>,
        go: Mutex<mpsc::Receiver<()>>,
    }

    impl ShardSource for PanickingSource {
        fn load(&self, _key: ShardKey) -> Result<sti_quant::QuantizedBlob, StorageError> {
            self.started.lock().send(()).unwrap();
            self.go.lock().recv().unwrap();
            panic!("decoder blew up");
        }

        fn size_bytes(&self, _key: ShardKey) -> Result<u64, StorageError> {
            Ok(1)
        }
    }

    #[test]
    fn worker_panic_fails_the_pool_instead_of_hanging() {
        let (started_tx, started) = mpsc::channel();
        let (go, go_rx) = mpsc::channel();
        let source = PanickingSource { started: Mutex::new(started_tx), go: Mutex::new(go_rx) };
        let flash = FlashModel::new(1_000_000, SimTime::from_ms(1));
        // A cache that can keep the 1-byte shard, so the dispatch reads it.
        let sched = IoScheduler::spawn(
            Arc::new(source),
            flash,
            Arc::new(ShardCache::new(1 << 10)),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        let (a, b) = (
            sched.channel_striped_at(SimTime::ZERO, 0),
            sched.channel_striped_at(SimTime::ZERO, 0),
        );
        a.request(request(0, 0)).unwrap();
        b.request(request(1, 0)).unwrap();
        // A drives its own request, the first in round-robin order.
        let thread_a = std::thread::spawn(move || a.recv());
        started.recv().unwrap();
        // B waits behind A's drive, then A's load panics. B is joined only
        // once it answered, so a stranded B fails the test, not hangs it.
        let (tx, got) = mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(b.recv()).unwrap());
        go.send(()).unwrap();
        assert!(thread_a.join().is_err(), "the panic unwinds on the thread that drove it");
        // B observes the failure as an error, not a hang or a panic.
        let got = got.recv_timeout(Duration::from_secs(10)).expect("B is never stranded");
        assert!(matches!(got, Err(StorageError::SchedulerShutdown)));
        waiter.join().unwrap();
        let late = sched.channel_striped_at(SimTime::ZERO, 0);
        assert!(matches!(late.request(request(0, 0)), Err(StorageError::SchedulerShutdown)));
    }

    #[test]
    fn identical_requests_coalesce_into_one_fanout_dispatch() {
        let sched =
            paused_sched(IoSharing::Batched(SimTime::from_us(1_000)), DeviceTopology::single());
        let channels: Vec<IoChannel> =
            (0..4).map(|_| sched.channel_striped_at(SimTime::ZERO, 0)).collect();
        for layer in 0..2u16 {
            for ch in &channels {
                ch.request(request(layer, 0)).unwrap();
            }
        }
        assert_eq!(sched.queued_requests(), 8);
        sched.resume_dispatch();
        // Every channel receives both layers, FIFO, bit-identical blobs.
        let mut first_layer_blobs = Vec::new();
        for ch in &channels {
            let l0 = ch.recv().unwrap();
            assert_eq!(l0.layer, 0);
            first_layer_blobs.push(l0);
            assert_eq!(ch.recv().unwrap().layer, 1);
        }
        for loaded in &first_layer_blobs[1..] {
            assert_eq!(loaded.bytes, first_layer_blobs[0].bytes);
            assert_eq!(loaded.io_delay, first_layer_blobs[0].io_delay);
            // The zero-byte cache keeps nothing, yet a batched dispatch
            // reads the shard once and hands every member the payload.
            let blob = |l: &LoadedLayer| l.shards[0].1.blob().expect("a batch reads it").clone();
            assert_eq!(blob(loaded), blob(&first_layer_blobs[0]), "fan-out is identical");
            // The payload is shared, not copied.
            assert!(blob(loaded).same_payload(&blob(&first_layer_blobs[0])));
        }
        // Two dispatches (one per layer), each 4-way.
        let stats = sched.stats();
        assert_eq!(stats.requests, 8, "per-engagement accounting still counts every request");
        assert_eq!(stats.batch.batched_dispatches, 2);
        assert_eq!(stats.batch.coalesced_requests, 6);
        assert_eq!(stats.batch.max_fanout, 4);
        assert_eq!(stats.batch.flash_bytes_saved, stats.bytes / 4 * 3, "3 of 4 copies saved");
        let events = sched.with_event_logs(|demand, _| demand.to_vec());
        assert_eq!(events.len(), 2, "batched dispatches appear once in the event stream");
        assert!(events.iter().all(|e| e.fanout() == 4));
        // The log charges the bytes once: the flash pays a quarter of the
        // unbatched busy time.
        let logged = events.iter().fold(SimTime::ZERO, |sum, e| sum + e.io_delay);
        assert_eq!(logged * 4, stats.sim_flash_busy);
    }

    /// A source that counts the reads it serves.
    struct CountingSource {
        inner: ShardStore,
        reads: AtomicUsize,
    }

    impl ShardSource for CountingSource {
        fn load(&self, key: ShardKey) -> Result<sti_quant::QuantizedBlob, StorageError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.load(key)
        }

        fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
            self.inner.size_bytes(key)
        }
    }

    #[test]
    fn a_batch_reads_each_record_once_where_a_solo_dispatch_defers_it() {
        let model = Model::synthetic(2, ModelConfig::tiny());
        let inner = ShardStore::create_temp(&model, &[Bitwidth::B2], &QuantConfig::default());
        let inner = inner.unwrap();
        let source = Arc::new(CountingSource { inner, reads: AtomicUsize::new(0) });
        let flash = FlashModel::new(1_000_000, SimTime::from_ms(1));
        let sched = IoScheduler::spawn(
            source.clone(),
            flash,
            Arc::new(ShardCache::new(0)),
            IoSharing::Batched(SimTime::from_us(1_000)),
            DeviceTopology::single(),
        );
        sched.pause_dispatch();
        let channels: Vec<IoChannel> =
            (0..3).map(|_| sched.channel_striped_at(SimTime::ZERO, 0)).collect();
        let two_shards =
            || LayerRequest { layer: 0, items: vec![(0, Bitwidth::B2), (1, Bitwidth::B2)] };
        for ch in &channels {
            ch.request(two_shards()).unwrap();
        }
        sched.resume_dispatch();
        for ch in &channels {
            let loaded = ch.recv().unwrap();
            assert!(loaded.shards.iter().all(|(_, shard)| shard.blob().is_some()));
        }
        assert_eq!(sched.stats().batch.max_fanout, 3);
        assert_eq!(source.reads.load(Ordering::Relaxed), 2, "one read per shard, not per member");
        // Alone, the same request leaves both shards for its consumer.
        channels[0].request(two_shards()).unwrap();
        let loaded = channels[0].recv().unwrap();
        assert!(loaded.shards.iter().all(|(_, shard)| shard.blob().is_none()));
        assert_eq!(source.reads.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn failed_batch_delivers_an_error_to_every_member() {
        let (store, cache, flash) = fixture(0);
        let batched = IoSharing::Batched(SimTime::from_us(1_000));
        let sched = IoScheduler::spawn(store, flash, cache, batched, DeviceTopology::single());
        sched.pause_dispatch();
        let channels: Vec<IoChannel> =
            (0..3).map(|_| sched.channel_striped_at(SimTime::ZERO, 0)).collect();
        for ch in &channels {
            // A version the store does not hold.
            ch.request(LayerRequest { layer: 1, items: vec![(0, Bitwidth::B4)] }).unwrap();
            ch.request(request(0, 0)).unwrap(); // a healthy follow-up
        }
        sched.resume_dispatch();
        for ch in &channels {
            assert!(ch.recv().is_err(), "each member observes its own error");
            let ok = ch.recv().unwrap();
            assert_eq!(ok.layer, 0, "FIFO: the healthy request still lands after the error");
        }
    }

    #[test]
    fn pause_holds_work_and_resume_releases_it() {
        let sched = paused_sched(IoSharing::Exclusive, DeviceTopology::single());
        let ch = sched.channel_striped_at(SimTime::ZERO, 0);
        ch.request(request(0, 0)).unwrap();
        std::thread::scope(|s| {
            let parked = s.spawn(|| ch.recv());
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(sched.queued_requests(), 1, "a paused caller must not dispatch");
            assert!(!parked.is_finished());
            sched.resume_dispatch();
            assert!(parked.join().unwrap().is_ok());
        });
        assert_eq!(sched.queued_requests(), 0);
        // `drive_queued` ignores the pause, and what it landed is received.
        sched.pause_dispatch();
        ch.request(request(1, 0)).unwrap();
        assert_eq!(sched.drive_unless_paused(), 0);
        assert_eq!(sched.drive_queued(), 1);
        assert_eq!(ch.recv().unwrap().layer, 1);
    }
}
