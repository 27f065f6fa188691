//! The lane state machine: which engagement has what queued, whose turn it
//! is, and what the device was asked to do.
//!
//! Plain data advanced one operation at a time — open a lane, queue a
//! request, [`SchedState::pick`] the next dispatch, [`SchedState::finish`]
//! it, close a lane. Nothing here blocks, sleeps, loads a byte or prices
//! one: [`super::dispatch`] services what `pick` hands out, and
//! [`super::IoScheduler`] decides who calls when.
//!
//! **Invariants**, each true after every operation (the op-sequence
//! proptest at the bottom asserts them):
//!
//! - **FIFO per lane, one in flight.** A lane's requests are picked, and
//!   their results delivered, in submission order (AIB planning needs
//!   arrival order = execution order, paper §5.4), and at most one of them
//!   is between `pick` and `finish`.
//! - **Turn queue.** It holds every idle lane with queued work exactly
//!   once and never a lane with a request in flight. Any other id in it
//!   belongs to a dropped lane, which a pick skips; lane ids are never
//!   reused, so it can name no one else.
//! - **Closing is immediate.** A dropped lane leaves the map at once, with
//!   its queue and undelivered results. A dispatch it had in flight is
//!   still logged — the device did the work — and delivered to nobody;
//!   nothing brings the lane back.
//! - **Failed batch.** The error goes to the leader; each surviving
//!   member's request goes back to the *front* of its queue, to be retried
//!   — and to fail — on the member's own dispatch.
//! - **Effective arrival.** A lane's dispatches are stamped with
//!   non-decreasing arrivals (a batch raises every participant to its
//!   latest member's), so the `(arrival, log position)` order a replay
//!   serves the log in preserves each lane's FIFO. A lane's next dispatch
//!   is picked only after its last one landed, so the log lists each lane's
//!   jobs in its pick order.
//! - **Fencing.** A speculative job is picked only when no demand request
//!   is dispatchable for the same device-channel filter, is logged apart
//!   from demand, and touches no lane.

use std::collections::{HashMap, VecDeque};

use sti_device::{DeviceTopology, IoSharing, LaneRead, PickLanes, SimTime};

use crate::error::StorageError;
use crate::loader::{LayerRequest, LoadedLayer};
use crate::store::ShardKey;

/// One serviced flash job on the contended track: the dispatch-order record
/// the flash-queue simulator replays. A batched dispatch appears **once**,
/// with the fan-out recipients in [`FlashDispatchEvent::members`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashDispatchEvent {
    /// The engagement IO lane that led the dispatch.
    pub channel: u64,
    /// The device channel placement resolved the request onto
    /// (`DeviceTopology::channel_for(content_sig, lane_stripe)`; always 0
    /// under the single-channel topology).
    pub device_channel: u16,
    /// The job's simulated arrival time: the leader's effective arrival,
    /// raised to the latest member's for a batched dispatch (the job can
    /// only exist once every member has arrived).
    pub arrival: SimTime,
    /// Serialized bytes of the request (charged once however many members
    /// shared the job).
    pub bytes: u64,
    /// Bytes that were resident in the shared shard cache at dispatch.
    pub hit_bytes: u64,
    /// Uncontended device-model delay of the request.
    pub io_delay: SimTime,
    /// Channels that shared this job beyond the leader (empty for an
    /// exclusive dispatch).
    pub members: Vec<u64>,
}

impl FlashDispatchEvent {
    /// How many engagements this job delivered to (leader included).
    pub fn fanout(&self) -> usize {
        1 + self.members.len()
    }
}

/// A background-class prefetch job: stage `keys` into the shard cache's
/// prefetch pool on behalf of a predicted next engagement. Speculative jobs
/// are **fenced off** from demand traffic — one is only picked when no
/// demand request is dispatchable for the picker's lane filter, so a wrong
/// prediction costs staged bytes, never a demand request's place in line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeculativeJob {
    /// The session token the prediction was made for (the `channel` id its
    /// speculative event is logged under).
    pub session: u64,
    /// The device channel whose idle windows the job may use.
    pub device_channel: u16,
    /// Simulated submission time (the triggering engagement's completion).
    pub arrival: SimTime,
    /// The shards to stage.
    pub keys: Vec<ShardKey>,
}

/// What lands on a lane: the loaded layer, or the load's error.
type Landed = Result<LoadedLayer, StorageError>;

struct Lane {
    pending: VecDeque<LayerRequest>,
    completed: VecDeque<Landed>,
    arrival: SimTime,
    /// The arrival the lane's *next* dispatch is stamped with: `arrival`,
    /// raised to a batch's arrival whenever the lane joins one.
    effective_arrival: SimTime,
    /// Placement resolves each request to device channel
    /// `channel_for(content_sig, stripe)`.
    stripe: u16,
    inflight: bool,
}

impl Lane {
    fn has_work(&self) -> bool {
        self.inflight || !self.pending.is_empty()
    }
}

/// The lanes as [`IoSharing::pick`] sees them, keyed by lane id: a head is
/// the next pending request of a lane with none in flight, a cursor is the
/// effective arrival, and taking a head marks its lane in flight.
struct Heads<'a>(&'a mut HashMap<u64, Lane>);

impl PickLanes for Heads<'_> {
    type Key = u64;
    type Content = LayerRequest;

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.keys().copied()
    }

    fn head(&self, id: u64) -> Option<(LaneRead<'_, LayerRequest>, u64)> {
        let lane = self.0.get(&id).filter(|lane| !lane.inflight)?;
        let head = lane.pending.front()?;
        let read = LaneRead { content: head, stripe: lane.stripe, arrival: lane.arrival };
        Some((read, head.content_sig()))
    }

    fn take(&mut self, id: u64) -> SimTime {
        let lane = self.0.get_mut(&id).expect("a picked lane is open");
        lane.inflight = true;
        lane.effective_arrival
    }

    fn raise(&mut self, id: u64, arrival: SimTime) {
        self.0.get_mut(&id).expect("a picked lane is open").effective_arrival = arrival;
    }
}

/// One dispatch: the leading lane's request plus any batch members that
/// joined it (each with the — identical — request popped from its queue,
/// held so a failed batch can requeue them).
pub(super) struct Dispatch {
    pub(super) channel_id: u64,
    pub(super) req: LayerRequest,
    /// Lanes with queued or in-flight work observed at the pick.
    pub(super) depth: usize,
    /// The leader's effective arrival, raised to the latest member's.
    pub(super) arrival: SimTime,
    /// Where placement put the leader's request (and every member's).
    pub(super) device_channel: u16,
    pub(super) members: Vec<(u64, LayerRequest)>,
}

/// What a pick handed out: a demand dispatch, or — only when no demand
/// request was dispatchable for the lane filter — a speculative prefetch
/// job. The ordering of the two arms *is* the fencing rule.
pub(super) enum Pick {
    Demand(Dispatch),
    Spec(SpeculativeJob),
}

/// The lanes, the round-robin turn queue, the speculative class and the
/// two dispatch logs (see the module docs for what holds between them).
pub(super) struct SchedState {
    sharing: IoSharing,
    /// Placement is a pure function of the topology.
    topology: DeviceTopology,
    lanes: HashMap<u64, Lane>,
    /// Lane ids with pending work, in round-robin dispatch order.
    turn_queue: VecDeque<u64>,
    next_lane_id: u64,
    /// Queued speculative (prefetch) jobs, FIFO.
    spec: VecDeque<SpeculativeJob>,
    /// Every serviced demand dispatch (the contended track), in the order
    /// the dispatches landed. One driver at a time runs pick → load → land,
    /// so that is also the order they were picked.
    pub(super) demand_log: Vec<FlashDispatchEvent>,
    /// Every serviced speculative job, in landing order, kept apart so the
    /// demand log is bit-identical with and without prefetch (`bytes` =
    /// flash-loaded into the pool, `hit_bytes` = pinned from the cache).
    pub(super) spec_log: Vec<FlashDispatchEvent>,
}

impl SchedState {
    pub(super) fn new(sharing: IoSharing, topology: DeviceTopology) -> Self {
        Self {
            sharing,
            topology,
            lanes: HashMap::new(),
            turn_queue: VecDeque::new(),
            next_lane_id: 0,
            spec: VecDeque::new(),
            demand_log: Vec::new(),
            spec_log: Vec::new(),
        }
    }

    /// Opens a lane arriving at `arrival` on `stripe` and returns its id.
    /// The stripe is kept as given: it is a placement salt, and the
    /// registry, the predictor and the prefetcher place this session's
    /// reads with the same raw value.
    pub(super) fn open(&mut self, arrival: SimTime, stripe: u16) -> u64 {
        let id = self.next_lane_id;
        self.next_lane_id += 1;
        self.lanes.insert(
            id,
            Lane {
                pending: VecDeque::new(),
                completed: VecDeque::new(),
                arrival,
                effective_arrival: arrival,
                stripe,
                inflight: false,
            },
        );
        id
    }

    /// Queues `req` at the back of lane `id`; `false` when the lane is
    /// not open.
    pub(super) fn request(&mut self, id: u64, req: LayerRequest) -> bool {
        let Some(lane) = self.lanes.get_mut(&id) else { return false };
        let had_work = lane.has_work();
        lane.pending.push_back(req);
        if !had_work {
            self.turn_queue.push_back(id);
        }
        true
    }

    /// Lane `id`'s next undelivered result, oldest first: `None` when the
    /// lane is not open, `Some(None)` when nothing has landed yet.
    pub(super) fn pop_completed(&mut self, id: u64) -> Option<Option<Landed>> {
        self.lanes.get_mut(&id).map(|lane| lane.completed.pop_front())
    }

    /// Closes lane `id`, at once (see the module docs).
    pub(super) fn close(&mut self, id: u64) {
        self.lanes.remove(&id);
    }

    /// Demand-first pick: a speculative job is only handed out when the
    /// demand pick comes up empty for the filter (idle windows only).
    pub(super) fn pick(&mut self, only: Option<u16>) -> Option<Pick> {
        if let Some(dispatch) = self.pick_demand(only) {
            return Some(Pick::Demand(dispatch));
        }
        // FIFO within the speculative class.
        let idx =
            self.spec.iter().position(|job| only.is_none_or(|dc| dc == job.device_channel))?;
        self.spec.remove(idx).map(Pick::Spec)
    }

    /// Picks the next request round-robin with [`IoSharing::pick`] (only
    /// from heads placed on device channel `only`, when set), and pops the
    /// leader's and every member's request into the dispatch.
    fn pick_demand(&mut self, only: Option<u16>) -> Option<Dispatch> {
        let depth = self.lanes.values().filter(|lane| lane.has_work()).count();
        // Allocates only for a batch; kept in the state, it would stay held.
        let mut members = Vec::new();
        let Self { sharing, topology, lanes, turn_queue, .. } = self;
        let picked = sharing.pick(*topology, &mut Heads(lanes), turn_queue, only, &mut members)?;
        let mut pop = |id| {
            let lane = lanes.get_mut(&id).expect("a picked lane is open");
            lane.pending.pop_front().expect("a picked lane has a head")
        };
        Some(Dispatch {
            channel_id: picked.leader,
            req: pop(picked.leader),
            depth,
            arrival: picked.arrival,
            device_channel: picked.device_channel,
            members: members.iter().map(|&id| (id, pop(id))).collect(),
        })
    }

    /// Lands a picked dispatch. `Ok` carries the loaded layer and how many
    /// of its bytes were cache-resident: the dispatch is logged once and
    /// the layer fanned out to the leader and every member (blobs are
    /// shared handles, so a member's copy is reference counts). `Err` goes
    /// to the leader; the members retry, so each observes its own error.
    pub(super) fn finish(
        &mut self,
        dispatch: Dispatch,
        result: Result<(LoadedLayer, u64), StorageError>,
    ) {
        let Dispatch { channel_id, arrival, device_channel, members, .. } = dispatch;
        let result = match result {
            Ok((loaded, hit_bytes)) => {
                self.demand_log.push(FlashDispatchEvent {
                    channel: channel_id,
                    device_channel,
                    arrival,
                    bytes: loaded.bytes,
                    hit_bytes,
                    io_delay: loaded.io_delay,
                    members: members.iter().map(|(id, _)| *id).collect(),
                });
                for (member_id, _) in &members {
                    self.deliver(*member_id, Ok(loaded.clone()));
                }
                Ok(loaded)
            }
            Err(e) => {
                for (member_id, member_req) in members {
                    if let Some(lane) = self.lanes.get_mut(&member_id) {
                        lane.inflight = false;
                        lane.pending.push_front(member_req);
                        self.turn_queue.push_back(member_id);
                    }
                }
                Err(e)
            }
        };
        self.deliver(channel_id, result);
    }

    /// Hands a landed load to a lane and gives the lane its next turn when
    /// it still has pending work; a dropped lane has nothing to deliver to.
    fn deliver(&mut self, id: u64, result: Landed) {
        let Some(lane) = self.lanes.get_mut(&id) else { return };
        lane.inflight = false;
        lane.completed.push_back(result);
        if !lane.pending.is_empty() {
            self.turn_queue.push_back(id);
        }
    }

    pub(super) fn submit_speculative(&mut self, job: SpeculativeJob) {
        self.spec.push_back(job);
    }

    /// Logs a serviced speculative job that staged `flash_bytes` and pinned
    /// `pinned_bytes` already resident (one that did neither leaves no trace).
    pub(super) fn finish_speculative(
        &mut self,
        job: &SpeculativeJob,
        flash_bytes: u64,
        pinned_bytes: u64,
        io_delay: SimTime,
    ) {
        if flash_bytes == 0 && pinned_bytes == 0 {
            return;
        }
        self.spec_log.push(FlashDispatchEvent {
            channel: job.session,
            device_channel: job.device_channel,
            arrival: job.arrival,
            bytes: flash_bytes,
            hit_bytes: pinned_bytes,
            io_delay,
            members: Vec::new(),
        });
    }

    /// Requests queued across all lanes, not counting in-flight ones.
    pub(super) fn queued_requests(&self) -> usize {
        self.lanes.values().map(|lane| lane.pending.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use sti_quant::Bitwidth;

    use super::*;

    fn request(layer: u16, slice: u16) -> LayerRequest {
        LayerRequest { layer, items: vec![(slice, Bitwidth::B2)] }
    }

    /// What a load of `req` would hand back, minus the payload.
    fn loaded(req: &LayerRequest) -> LoadedLayer {
        LoadedLayer {
            layer: req.layer,
            shards: Vec::new(),
            bytes: 100 * (1 + req.layer as u64),
            io_delay: SimTime::from_us(50),
        }
    }

    fn injected() -> StorageError {
        StorageError::Corrupt { context: "test".into(), reason: "injected".into() }
    }

    fn single(sharing: IoSharing) -> SchedState {
        SchedState::new(sharing, DeviceTopology::single())
    }

    fn pick_demand(state: &mut SchedState, only: Option<u16>) -> Option<Dispatch> {
        match state.pick(only)? {
            Pick::Demand(dispatch) => Some(dispatch),
            Pick::Spec(_) => None,
        }
    }

    /// The lanes a dispatch serves: its leader, then its members.
    fn participants(dispatch: &Dispatch) -> Vec<u64> {
        std::iter::once(dispatch.channel_id).chain(dispatch.members.iter().map(|m| m.0)).collect()
    }

    fn land(state: &mut SchedState, dispatch: Dispatch) {
        let layer = loaded(&dispatch.req);
        state.finish(dispatch, Ok((layer, 0)));
    }

    /// Picks and lands until nothing is dispatchable.
    fn drain(state: &mut SchedState) {
        while let Some(dispatch) = pick_demand(state, None) {
            land(state, dispatch);
        }
    }

    #[test]
    fn batching_respects_the_arrival_window() {
        let mut state = single(IoSharing::Batched(SimTime::from_us(100)));
        let near_a = state.open(SimTime::ZERO, 0);
        let near_b = state.open(SimTime::from_us(100), 0);
        let far = state.open(SimTime::from_ms(10), 0);
        for id in [near_a, near_b, far] {
            assert!(state.request(id, request(0, 0)));
        }
        let pair = pick_demand(&mut state, None).unwrap();
        assert_eq!(participants(&pair), [near_a, near_b]);
        let solo = pick_demand(&mut state, None).unwrap();
        assert_eq!(participants(&solo), [far]);
        assert!(state.pick(None).is_none());
        land(&mut state, pair);
        land(&mut state, solo);
        assert_eq!(state.demand_log.len(), 2, "only the in-window pair coalesces");
    }

    /// Two co-arriving lanes read `request(0, 0)` and `other`: the fan-out
    /// of each logged dispatch.
    fn fanouts_of_a_co_arriving_pair(sharing: IoSharing, other: LayerRequest) -> Vec<usize> {
        let mut state = single(sharing);
        let a = state.open(SimTime::ZERO, 0);
        let b = state.open(SimTime::ZERO, 0);
        state.request(a, request(0, 0));
        state.request(b, other);
        drain(&mut state);
        state.demand_log.iter().map(FlashDispatchEvent::fanout).collect()
    }

    #[test]
    fn different_requests_do_not_coalesce() {
        let window = IoSharing::Batched(SimTime::from_us(1_000));
        let items = |items: &[(u16, Bitwidth)]| LayerRequest { layer: 0, items: items.to_vec() };
        for other in [
            request(0, 1),                                  // different slice
            request(1, 0),                                  // different layer
            items(&[(0, Bitwidth::B6)]),                    // different bitwidth
            items(&[(0, Bitwidth::B2), (1, Bitwidth::B2)]), // different shard set
        ] {
            assert_eq!(fanouts_of_a_co_arriving_pair(window, other.clone()), [1, 1], "{other:?}");
        }
        assert_eq!(fanouts_of_a_co_arriving_pair(window, request(0, 0)), [2]);
    }

    #[test]
    fn exclusive_sharing_never_batches_even_when_requests_align() {
        assert_eq!(fanouts_of_a_co_arriving_pair(IoSharing::Exclusive, request(0, 0)), [1, 1]);
    }

    #[test]
    fn batched_event_arrival_is_the_latest_member_and_stays_monotone() {
        let mut state = single(IoSharing::Batched(SimTime::from_us(500)));
        let early = state.open(SimTime::ZERO, 0);
        let late = state.open(SimTime::from_us(400), 0);
        // Layer 0 batches; layer 1 runs solo on the early lane.
        state.request(early, request(0, 0));
        state.request(late, request(0, 0));
        state.request(early, request(1, 0));
        drain(&mut state);
        let events = &state.demand_log;
        assert_eq!(events.len(), 2);
        let (batch, solo) = (&events[0], &events[1]);
        assert_eq!((batch.fanout(), solo.fanout()), (2, 1));
        assert_eq!(batch.arrival, SimTime::from_us(400), "the job exists once all members have");
        // The early lane's later event inherits the raised arrival so the
        // replay's (arrival, log position) order preserves its FIFO.
        assert_eq!((solo.channel, solo.arrival), (early, SimTime::from_us(400)));
    }

    #[test]
    fn batching_requires_same_device_channel_placement() {
        let topo = DeviceTopology::with_channels(4);
        let mut state = SchedState::new(IoSharing::Batched(SimTime::from_us(1_000)), topo);
        let same_a = state.open(SimTime::ZERO, 0);
        let same_b = state.open(SimTime::ZERO, 0);
        let elsewhere = state.open(SimTime::ZERO, 1);
        for id in [same_a, same_b, elsewhere] {
            state.request(id, request(0, 0));
        }
        let batch = pick_demand(&mut state, None).unwrap();
        let solo = pick_demand(&mut state, None).unwrap();
        assert_eq!(participants(&batch), [same_a, same_b], "only the co-placed pair coalesces");
        assert_eq!(participants(&solo), [elsewhere]);
        let sig = request(0, 0).content_sig();
        assert_eq!(batch.device_channel, topo.channel_for(sig, 0));
        assert_eq!(solo.device_channel, topo.channel_for(sig, 1));
        assert_ne!(batch.device_channel, solo.device_channel);
    }

    #[test]
    fn a_filtered_pick_takes_one_device_channels_heads_and_leaves_the_rest_queued() {
        let topo = DeviceTopology::with_channels(2);
        let mut state = SchedState::new(IoSharing::Exclusive, topo);
        let a = state.open(SimTime::ZERO, 0);
        let b = state.open(SimTime::ZERO, 1);
        state.request(a, request(0, 0));
        state.request(b, request(0, 0));
        let sig = request(0, 0).content_sig();
        let (on_a, on_b) = (topo.channel_for(sig, 0), topo.channel_for(sig, 1));
        let first = pick_demand(&mut state, Some(on_a)).unwrap();
        assert_eq!((first.channel_id, first.device_channel), (a, on_a));
        assert!(state.pick(Some(on_a)).is_none(), "only lane a's head is placed here");
        assert_eq!(state.queued_requests(), 1, "lane b's request stays queued");
        let second = pick_demand(&mut state, Some(on_b)).unwrap();
        assert_eq!((second.channel_id, second.device_channel), (b, on_b));
    }

    /// A lane dropped while its request is in flight — as the leader of a
    /// batch and as a member of one, under a load that succeeds and one
    /// that fails — without a tombstone left in the map.
    #[test]
    fn a_lane_dropped_with_its_request_in_flight_is_logged_and_never_comes_back() {
        for dropped_is_leader in [true, false] {
            for load_fails in [false, true] {
                let mut state = single(IoSharing::Batched(SimTime::from_us(1_000)));
                let leader = state.open(SimTime::ZERO, 0);
                let member = state.open(SimTime::ZERO, 0);
                for id in [leader, member] {
                    state.request(id, request(0, 0));
                    state.request(id, request(1, 0));
                }
                let dispatch = pick_demand(&mut state, None).unwrap();
                assert_eq!(participants(&dispatch), [leader, member]);
                let (dropped, survivor) =
                    if dropped_is_leader { (leader, member) } else { (member, leader) };
                state.close(dropped);
                assert!(!state.lanes.contains_key(&dropped), "closing is immediate");
                assert!(!state.request(dropped, request(2, 0)));
                assert!(state.pop_completed(dropped).is_none());

                if load_fails {
                    state.finish(dispatch, Err(injected()));
                    assert!(state.demand_log.is_empty(), "a failed load is not logged");
                    if dropped_is_leader {
                        // The error had nobody to go to; the member retries
                        // the same request first.
                        assert!(matches!(state.pop_completed(survivor), Some(None)));
                    } else {
                        assert!(matches!(state.pop_completed(survivor), Some(Some(Err(_)))));
                    }
                } else {
                    land(&mut state, dispatch);
                    // The device did the work: the job is logged with its
                    // full member list, delivered to the survivor alone.
                    let events = &state.demand_log;
                    assert_eq!((events.len(), events[0].channel), (1, leader));
                    assert_eq!(events[0].members, [member]);
                    let got = state.pop_completed(survivor).unwrap().unwrap().unwrap();
                    assert_eq!(got.layer, 0);
                }
                assert_eq!(state.lanes.keys().copied().collect::<Vec<_>>(), [survivor]);

                // The survivor streams on, FIFO, and the dropped lane's
                // stale turn is skipped.
                let retried = load_fails && dropped_is_leader;
                let next = pick_demand(&mut state, None).unwrap();
                assert_eq!(next.channel_id, survivor);
                assert_eq!(next.req, request(if retried { 0 } else { 1 }, 0));
                assert!(next.members.is_empty());
                land(&mut state, next);
                drain(&mut state);
                assert!(state.turn_queue.is_empty());
                assert_eq!(state.lanes.keys().copied().collect::<Vec<_>>(), [survivor]);
            }
        }
    }

    /// What the op-sequence test knows about a live lane, kept beside the
    /// machine and never derived from it.
    #[derive(Default)]
    struct Shadow {
        arrival: SimTime,
        stripe: u16,
        /// Submitted and not yet picked (a failed batch puts one back).
        queued: VecDeque<LayerRequest>,
        /// Landed and not yet received: the layer, or an error.
        delivered: VecDeque<Result<u16, ()>>,
    }

    /// Every stated invariant that can be read off the machine's state.
    fn check(state: &SchedState, shadows: &BTreeMap<u64, Shadow>, outstanding: &[Dispatch]) {
        // Closing is immediate and nothing resurrects a lane.
        let live: BTreeSet<u64> = state.lanes.keys().copied().collect();
        assert_eq!(live, shadows.keys().copied().collect::<BTreeSet<u64>>());
        // One in flight: the in-flight lanes are exactly the live
        // participants of outstanding dispatches, each in one dispatch.
        let busy: Vec<u64> = outstanding.iter().flat_map(participants).collect();
        let distinct: BTreeSet<u64> = busy.iter().copied().collect();
        assert_eq!(distinct.len(), busy.len(), "a lane is in two dispatches");
        for (id, lane) in &state.lanes {
            assert_eq!(lane.inflight, distinct.contains(id), "lane {id}");
            // FIFO per lane, both directions.
            let shadow = &shadows[id];
            assert_eq!(lane.pending, shadow.queued, "lane {id} queue order");
            let landed: Vec<Result<u16, ()>> = lane
                .completed
                .iter()
                .map(|r| r.as_ref().map(|l| l.layer).map_err(|_| ()))
                .collect();
            assert_eq!(landed, Vec::from(shadow.delivered.clone()), "lane {id} delivery order");
        }
        // Turn queue: every idle lane with queued work exactly once, no
        // in-flight lane, anything else a dropped lane's id.
        let mut queued_live = Vec::new();
        for id in &state.turn_queue {
            if let Some(lane) = state.lanes.get(id) {
                assert!(!lane.inflight && !lane.pending.is_empty(), "lane {id} has no turn due");
                queued_live.push(*id);
            }
        }
        queued_live.sort_unstable();
        let mut due: Vec<u64> = state
            .lanes
            .iter()
            .filter(|(_, lane)| !lane.inflight && !lane.pending.is_empty())
            .map(|(id, _)| *id)
            .collect();
        due.sort_unstable();
        assert_eq!(queued_live, due);
        // Effective arrival: in landing order, a lane's events never step
        // back in time.
        let mut last: BTreeMap<u64, SimTime> = BTreeMap::new();
        for (at, e) in state.demand_log.iter().enumerate() {
            for lane in std::iter::once(e.channel).chain(e.members.iter().copied()) {
                let prev = last.insert(lane, e.arrival).unwrap_or(SimTime::ZERO);
                assert!(prev <= e.arrival, "lane {lane} steps back in time at log entry {at}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Open / request / pick (any channel or one) / land / fail / drop
        /// (idle or in flight) / speculate / receive in arbitrary order:
        /// the module's invariants hold after every operation, batching on
        /// and off, on one device channel and on three, with lanes opened
        /// on stripes beyond the channel count.
        #[test]
        fn any_op_order_keeps_the_lane_invariants(
            ops in proptest::collection::vec((0u8..9, 0u64..64, 0u64..64), 1..90),
        ) {
            for (sharing, channels) in [
                (IoSharing::Exclusive, 1),
                (IoSharing::Exclusive, 3),
                (IoSharing::Batched(SimTime::from_us(300)), 1),
                (IoSharing::Batched(SimTime::from_us(300)), 3),
            ] {
                let topology = DeviceTopology::with_channels(channels);
                let mut state = SchedState::new(sharing, topology);
                let mut shadows: BTreeMap<u64, Shadow> = BTreeMap::new();
                let mut outstanding: Vec<Dispatch> = Vec::new();
                let nth_live = |shadows: &BTreeMap<u64, Shadow>, n: u64| {
                    shadows.keys().copied().nth(n as usize % shadows.len().max(1))
                };
                for &(op, a, b) in &ops {
                    match op {
                        0 => {
                            let arrival = SimTime::from_us(a * 10);
                            let id = state.open(arrival, b as u16);
                            prop_assert!(shadows
                                .insert(id, Shadow { arrival, stripe: b as u16, ..Shadow::default() })
                                .is_none(), "lane ids are never reused");
                        }
                        1 | 2 => {
                            let Some(id) = nth_live(&shadows, a) else { continue };
                            let req = request(b as u16 % 3, (b as u16 / 3) % 2);
                            prop_assert!(state.request(id, req.clone()));
                            shadows.get_mut(&id).unwrap().queued.push_back(req);
                        }
                        3 | 4 => {
                            let only = (b % 3 != 0).then_some(a as u16 % channels);
                            let on = |s: &Shadow, req: &LayerRequest| {
                                topology.channel_for(req.content_sig(), s.stripe)
                            };
                            let busy: BTreeSet<u64> =
                                outstanding.iter().flat_map(participants).collect();
                            let depth = shadows
                                .iter()
                                .filter(|(id, s)| busy.contains(id) || !s.queued.is_empty())
                                .count();
                            let dispatchable = shadows.iter().any(|(id, s)| {
                                !busy.contains(id)
                                    && s.queued.front().is_some_and(|head| {
                                        only.is_none_or(|dc| dc == on(s, head))
                                    })
                            });
                            let spec_before = state.spec.len();
                            match state.pick(only) {
                                Some(Pick::Demand(d)) => {
                                    prop_assert!(dispatchable);
                                    prop_assert_eq!(d.depth, depth);
                                    prop_assert!(only.is_none_or(|dc| dc == d.device_channel));
                                    prop_assert_eq!(state.spec.len(), spec_before);
                                    let lead = shadows.get_mut(&d.channel_id).unwrap();
                                    prop_assert_eq!(lead.queued.pop_front(), Some(d.req.clone()));
                                    prop_assert_eq!(on(lead, &d.req), d.device_channel);
                                    let leader =
                                        LaneRead { content: &d.req, stripe: lead.stripe, arrival: lead.arrival };
                                    prop_assert!(d.arrival >= leader.arrival);
                                    prop_assert!(d.members.is_empty() || sharing != IoSharing::Exclusive);
                                    prop_assert!(d.members.windows(2).all(|w| w[0].0 < w[1].0));
                                    let sig = d.req.content_sig();
                                    for (id, req) in &d.members {
                                        let m = shadows.get_mut(id).unwrap();
                                        prop_assert_eq!(m.queued.pop_front().as_ref(), Some(req));
                                        let member =
                                            LaneRead { content: req, stripe: m.stripe, arrival: m.arrival };
                                        prop_assert!(sharing.coalesces(topology, sig, &leader, &member));
                                        prop_assert_eq!(on(m, req), d.device_channel);
                                        prop_assert!(d.arrival >= m.arrival);
                                    }
                                    outstanding.push(d);
                                }
                                // Fencing: speculation (or nothing) only
                                // when no demand head fits the filter.
                                Some(Pick::Spec(job)) => {
                                    prop_assert!(!dispatchable);
                                    prop_assert!(only.is_none_or(|dc| dc == job.device_channel));
                                    let demand = state.demand_log.len();
                                    let spec = state.spec_log.len();
                                    state.finish_speculative(&job, 64, 0, SimTime::from_us(5));
                                    prop_assert_eq!(state.demand_log.len(), demand);
                                    prop_assert_eq!(state.spec_log.len(), spec + 1);
                                }
                                None => prop_assert!(!dispatchable),
                            }
                        }
                        5 | 6 if !outstanding.is_empty() => {
                            let d = outstanding.remove(a as usize % outstanding.len());
                            let logged = state.demand_log.len();
                            if op == 5 {
                                let layer = loaded(&d.req);
                                for id in participants(&d) {
                                    if let Some(s) = shadows.get_mut(&id) {
                                        s.delivered.push_back(Ok(layer.layer));
                                    }
                                }
                                state.finish(d, Ok((layer, b)));
                                prop_assert_eq!(state.demand_log.len(), logged + 1);
                            } else {
                                if let Some(s) = shadows.get_mut(&d.channel_id) {
                                    s.delivered.push_back(Err(()));
                                }
                                for (id, req) in &d.members {
                                    if let Some(s) = shadows.get_mut(id) {
                                        s.queued.push_front(req.clone());
                                    }
                                }
                                state.finish(d, Err(injected()));
                                prop_assert_eq!(state.demand_log.len(), logged);
                            }
                        }
                        7 => {
                            if b % 2 == 0 {
                                let Some(id) = nth_live(&shadows, a) else { continue };
                                state.close(id);
                                shadows.remove(&id);
                            } else {
                                state.submit_speculative(SpeculativeJob {
                                    session: a,
                                    device_channel: b as u16 % channels,
                                    arrival: SimTime::from_us(a),
                                    keys: Vec::new(),
                                });
                            }
                        }
                        _ => {
                            let Some(id) = nth_live(&shadows, a) else { continue };
                            let got = state.pop_completed(id).unwrap();
                            let got = got.map(|r| r.map(|l| l.layer).map_err(|_| ()));
                            let want = shadows.get_mut(&id).unwrap().delivered.pop_front();
                            prop_assert_eq!(got, want);
                        }
                    }
                    check(&state, &shadows, &outstanding);
                }
            }
        }
    }
}
