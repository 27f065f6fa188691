//! Deterministic discrete-event executor — the one event heart the fleet
//! path runs on.
//!
//! A thread per session would mean 100k OS threads at fleet scale for work
//! that is almost entirely *simulated* time. This module hosts the session
//! state machines on a single discrete-event loop instead: everything that
//! evolves over time is a [`Component`], and one global min-heap decides
//! who ticks next.
//!
//! # The Component contract
//!
//! A component implements three methods:
//!
//! - [`Component::id`] — its dense index in the engine (assigned at
//!   [`Engine::register`] time; the component must report the same value).
//! - [`Component::next_tick`] — the simulated time it first wants to run,
//!   read **once** at registration (`None`: only when woken).
//! - [`Component::tick`] — advance internal state at `now`, optionally
//!   interact with other components through [`System`], and return the next
//!   time it wants to run (`None`: sleep until woken).
//!
//! Cross-component scheduling goes through [`System::wake`]: a component
//! servicing a shared resource (the flash queue, say) wakes the components
//! whose work it completed. Wake requests never travel backwards in time.
//!
//! # Tie-break determinism rule
//!
//! The heap is keyed by `(next_tick, ComponentId)` and event order is a
//! *pure function* of that key — no wall-clock, no thread scheduling, no
//! hash-map iteration order anywhere in the loop. Components scheduled for
//! the same simulated instant tick in ascending `ComponentId` order; a
//! component that re-arms itself for the *same* instant ticks again after
//! every other component due at that instant (its re-push sits behind the
//! already-popped entries only by id, but the pop removed it from the
//! heap, so the fresh entry competes like any other). Registration order
//! therefore *is* the intra-instant priority: register the shared-resource
//! component (flash) last so producers at an instant all enqueue before it
//! services the instant.
//!
//! Stale heap entries are handled by lazy deletion: the engine keeps an
//! authoritative `next[id]` table (the minimum of the component's own
//! schedule and any [`System::wake`] requests) and drops popped entries
//! that no longer match it. [`EngineReport::heap_ops`] counts every push
//! and pop — the ledger's event-loop cost witness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;
use sti_obs::{ObsSink, SpanArgs, SpanEvent, TrackKind};

/// Dense component index assigned by [`Engine::register`].
pub type ComponentId = usize;

/// One time-evolving participant of the event loop. See the module docs
/// for the contract (`C` is the shared context every tick can read and
/// mutate — the world the components cooperate through).
pub trait Component<C> {
    /// The component's dense engine index (must equal the value
    /// [`Engine::register`] returned for it).
    fn id(&self) -> ComponentId;
    /// When the component first wants to tick (`None`: only when woken).
    /// Read once, at registration.
    fn next_tick(&self) -> Option<SimTime>;
    /// Advances the component at simulated time `now`; returns when it
    /// next wants to tick (`None`: sleep until [`System::wake`]d).
    fn tick(&mut self, now: SimTime, sys: &mut System<'_, C>) -> Option<SimTime>;
}

/// What a ticking component sees of the rest of the world: the shared
/// context, the current simulated time, and the wake/halt controls.
pub struct System<'a, C> {
    /// The shared context all components cooperate through.
    pub ctx: &'a mut C,
    now: SimTime,
    wakes: &'a mut Vec<(ComponentId, SimTime)>,
    halt: &'a mut bool,
}

impl<C> System<'_, C> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Requests that component `id` tick at `at` (which must not precede
    /// `now`). If the component is already scheduled earlier, the request
    /// is a no-op — the engine keeps the minimum.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulated time.
    pub fn wake(&mut self, id: ComponentId, at: SimTime) {
        assert!(at >= self.now, "wake at {at} precedes now {}", self.now);
        self.wakes.push((id, at));
    }

    /// Stops the loop: no component ticks after the current one returns.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// What a finished run did: the determinism/cost witnesses the ledger and
/// the shutdown tests read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineReport {
    /// Component ticks executed.
    pub ticks: u64,
    /// Heap pushes + pops (lazy-deletion traffic included) — the
    /// event-loop cost the perf ledger records as `heap_ops`.
    pub heap_ops: u64,
    /// The simulated time of the last tick executed.
    pub end: SimTime,
    /// Whether a component stopped the loop via [`System::halt`] (pending
    /// events were discarded, not ticked).
    pub halted: bool,
}

/// The deterministic discrete-event executor: a set of [`Component`]s and
/// a global min-heap keyed by `(next_tick, ComponentId)`.
pub struct Engine<C> {
    components: Vec<Box<dyn Component<C>>>,
    /// Authoritative next-tick table: the minimum of each component's own
    /// schedule and any cross-component wake requests. Heap entries not
    /// matching it are stale and dropped on pop.
    next: Vec<Option<SimTime>>,
    heap: BinaryHeap<Reverse<(SimTime, ComponentId)>>,
    heap_ops: u64,
    /// Live span sink: per-tick instants on [`TrackKind::Engine`] tracks.
    /// Observability never perturbs the schedule — the sink only records,
    /// it never decides; [`ObsSink::Null`] (the default) costs one branch.
    obs: ObsSink,
}

impl<C> Default for Engine<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Engine<C> {
    /// An empty engine.
    pub fn new() -> Self {
        Self {
            components: Vec::new(),
            next: Vec::new(),
            heap: BinaryHeap::new(),
            heap_ops: 0,
            obs: ObsSink::Null,
        }
    }

    /// Routes per-tick spans to `sink`: an `engine.tick` instant on the
    /// ticking component's [`TrackKind::Engine`] track for every tick, and
    /// one final `engine.heap_ops` counter sample when the run drains.
    /// Engine tracks describe *how* this executor ran — they are excluded
    /// from deterministic exports by design.
    pub fn set_obs_sink(&mut self, sink: ObsSink) {
        self.obs = sink;
    }

    /// Registers a component, scheduling it at its [`Component::next_tick`]
    /// (if any), and returns its [`ComponentId`] — the next dense index,
    /// which the component's [`Component::id`] must report.
    ///
    /// # Panics
    ///
    /// Panics if the component reports a different id than assigned.
    pub fn register(&mut self, component: Box<dyn Component<C>>) -> ComponentId {
        let id = self.components.len();
        assert_eq!(component.id(), id, "component must report its registration index");
        let first = component.next_tick();
        self.components.push(component);
        self.next.push(first);
        if let Some(t) = first {
            self.heap.push(Reverse((t, id)));
            self.heap_ops += 1;
        }
        id
    }

    /// Runs the loop to completion: pop the earliest `(next_tick, id)`
    /// entry, drop it if stale, tick the component, fold its returned
    /// schedule and any [`System::wake`] requests back into the heap —
    /// until the heap drains or a component halts the loop.
    pub fn run(&mut self, ctx: &mut C) -> EngineReport {
        let mut report = EngineReport::default();
        let mut wakes: Vec<(ComponentId, SimTime)> = Vec::new();
        let mut halt = false;
        while let Some(Reverse((now, id))) = self.heap.pop() {
            self.heap_ops += 1;
            if self.next[id] != Some(now) {
                continue; // stale entry superseded by an earlier wake
            }
            self.next[id] = None;
            let again = {
                let mut sys = System { ctx, now, wakes: &mut wakes, halt: &mut halt };
                self.components[id].tick(now, &mut sys)
            };
            report.ticks += 1;
            report.end = now;
            if self.obs.enabled() {
                self.obs.span(
                    SpanEvent::instant(TrackKind::Engine, id as u64, "engine.tick", now.as_us())
                        .with_args(SpanArgs::new().with("heap_ops", self.heap_ops)),
                );
            }
            if let Some(t) = again {
                assert!(t >= now, "component {id} scheduled itself into the past");
                self.next[id] = Some(t);
                self.heap.push(Reverse((t, id)));
                self.heap_ops += 1;
            }
            for (wid, at) in wakes.drain(..) {
                if self.next[wid].is_none_or(|cur| at < cur) {
                    self.next[wid] = Some(at);
                    self.heap.push(Reverse((at, wid)));
                    self.heap_ops += 1;
                }
            }
            if halt {
                report.halted = true;
                break;
            }
        }
        report.heap_ops = self.heap_ops;
        if self.obs.enabled() {
            self.obs.span(SpanEvent::counter(
                TrackKind::Engine,
                0,
                "engine.heap_ops",
                report.end.as_us(),
                self.heap_ops,
            ));
        }
        report
    }

    /// Heap pushes + pops so far (also in [`EngineReport::heap_ops`]).
    pub fn heap_ops(&self) -> u64 {
        self.heap_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends `(id, tick_us)` to a shared log; optionally wakes a peer.
    struct Logger {
        id: ComponentId,
        ticks: Vec<SimTime>,
        wake_peer: Option<(ComponentId, SimTime)>,
    }

    impl Component<Vec<(ComponentId, SimTime)>> for Logger {
        fn id(&self) -> ComponentId {
            self.id
        }
        fn next_tick(&self) -> Option<SimTime> {
            self.ticks.first().copied()
        }
        fn tick(
            &mut self,
            now: SimTime,
            sys: &mut System<'_, Vec<(ComponentId, SimTime)>>,
        ) -> Option<SimTime> {
            sys.ctx.push((self.id, now));
            if let Some((peer, at)) = self.wake_peer.take() {
                sys.wake(peer, at.max(now));
            }
            self.ticks.retain(|&t| t > now);
            self.ticks.first().copied()
        }
    }

    fn logger(id: ComponentId, ticks_us: &[u64]) -> Box<Logger> {
        Box::new(Logger {
            id,
            ticks: ticks_us.iter().map(|&t| SimTime::from_us(t)).collect(),
            wake_peer: None,
        })
    }

    #[test]
    fn equal_times_tick_in_component_id_order() {
        let mut engine = Engine::new();
        engine.register(logger(0, &[5, 10]));
        engine.register(logger(1, &[5]));
        engine.register(logger(2, &[1, 5]));
        let mut log = Vec::new();
        let report = engine.run(&mut log);
        let expect: Vec<(ComponentId, SimTime)> = [(2, 1), (0, 5), (1, 5), (2, 5), (0, 10)]
            .iter()
            .map(|&(id, t)| (id, SimTime::from_us(t)))
            .collect();
        assert_eq!(log, expect);
        assert_eq!(report.ticks, 5);
        assert_eq!(report.end, SimTime::from_us(10));
        assert!(!report.halted);
    }

    #[test]
    fn wake_reschedules_to_the_minimum_and_ignores_later_requests() {
        let mut engine = Engine::new();
        let mut early = logger(0, &[3]);
        early.wake_peer = Some((1, SimTime::from_us(4)));
        engine.register(early);
        engine.register(logger(1, &[9]));
        let mut log = Vec::new();
        engine.run(&mut log);
        // The 4 µs wake supersedes component 1's pending 9 µs heap entry
        // (it ticks at 4, not 9) — but a tick's return value re-arms the
        // component, so its own 9 µs schedule still runs afterwards.
        assert_eq!(
            log,
            vec![(0, SimTime::from_us(3)), (1, SimTime::from_us(4)), (1, SimTime::from_us(9))]
        );
    }

    #[test]
    fn a_woken_sleeper_ticks_and_the_run_is_replayable() {
        // Sleeper (no self-schedule) only runs when woken; rerunning a
        // fresh identical engine reproduces the log bit-for-bit.
        let build = || {
            let mut engine = Engine::new();
            let mut waker = logger(0, &[2]);
            waker.wake_peer = Some((1, SimTime::from_us(2)));
            engine.register(waker);
            engine.register(logger(1, &[]));
            engine
        };
        let mut a = Vec::new();
        let ra = build().run(&mut a);
        let mut b = Vec::new();
        let rb = build().run(&mut b);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(a, vec![(0, SimTime::from_us(2)), (1, SimTime::from_us(2))]);
    }

    #[test]
    fn halt_stops_the_loop_with_events_still_pending() {
        struct Halter;
        impl Component<Vec<(ComponentId, SimTime)>> for Halter {
            fn id(&self) -> ComponentId {
                0
            }
            fn next_tick(&self) -> Option<SimTime> {
                Some(SimTime::from_us(1))
            }
            fn tick(
                &mut self,
                _now: SimTime,
                sys: &mut System<'_, Vec<(ComponentId, SimTime)>>,
            ) -> Option<SimTime> {
                sys.halt();
                None
            }
        }
        let mut engine = Engine::new();
        engine.register(Box::new(Halter));
        engine.register(logger(1, &[1, 2]));
        let mut log = Vec::new();
        let report = engine.run(&mut log);
        assert!(report.halted);
        assert_eq!(report.ticks, 1, "no component ticks after halt");
        assert!(log.is_empty());
    }
}
