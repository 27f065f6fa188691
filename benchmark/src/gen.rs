//! Workload generators: seeded inputs rendered in the repo's JSON trace
//! format. The program under test sees them only through
//! `sti::parse_trace`; the labels stay on the benchmark's side to score
//! accuracy.

use crate::rng::Rng;

/// Labelled token sequences to draw engagements from (the task's test
/// split in a real run).
#[derive(Debug, Clone)]
pub struct Pool {
    /// Token sequences.
    pub tokens: Vec<Vec<u32>>,
    /// Gold label of each sequence.
    pub labels: Vec<usize>,
}

impl Pool {
    /// Builds a pool from `(tokens, label)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool: there would be nothing to replay.
    pub fn new(examples: impl IntoIterator<Item = (Vec<u32>, usize)>) -> Self {
        let (tokens, labels): (Vec<_>, Vec<_>) = examples.into_iter().unzip();
        assert!(!tokens.is_empty(), "the example pool is empty");
        Self { tokens, labels }
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        rng.below(self.tokens.len() as u64) as usize
    }
}

/// One client of a trace before rendering: knobs plus pool indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Target latency `T`.
    pub target_ms: u64,
    /// Preload budget `|S|`.
    pub preload_kb: u64,
    /// Session SLO, if the client is SLO-admitted.
    pub slo_ms: Option<u64>,
    /// Arrival offset on the simulated timeline.
    pub arrival_us: u64,
    /// Think time between engagements.
    pub idle_us: u64,
    /// Pool index of each engagement.
    pub picks: Vec<usize>,
}

impl ClientSpec {
    /// The deadline an engagement of this client is held to: the session
    /// SLO, else the target `T`.
    pub fn deadline_us(&self) -> u64 {
        self.slo_ms.unwrap_or(self.target_ms) * 1000
    }
}

/// A rendered trace: the JSON the program receives, the specs it was
/// rendered from, and the gold labels per client per engagement.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Trace-file JSON (`sti::parse_trace` input).
    pub json: String,
    /// The clients, in trace order.
    pub clients: Vec<ClientSpec>,
    /// Gold labels, `[client][engagement]`.
    pub labels: Vec<Vec<usize>>,
}

impl Generated {
    /// Engagements in the trace.
    pub fn engagements(&self) -> usize {
        self.clients.iter().map(|c| c.picks.len()).sum()
    }
}

/// Renders client specs as trace-file JSON.
pub fn render(pool: &Pool, clients: Vec<ClientSpec>) -> Generated {
    let mut json = String::from("{\"clients\":[");
    for (i, c) in clients.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"target_ms\":{},\"preload_kb\":{},\"slo_ms\":{},\"arrival_us\":{},\"idle_us\":{},\"engagements\":[",
            c.target_ms,
            c.preload_kb,
            c.slo_ms.unwrap_or(0),
            c.arrival_us,
            c.idle_us
        ));
        for (e, &pick) in c.picks.iter().enumerate() {
            if e > 0 {
                json.push(',');
            }
            json.push('[');
            for (t, tok) in pool.tokens[pick].iter().enumerate() {
                if t > 0 {
                    json.push(',');
                }
                json.push_str(&tok.to_string());
            }
            json.push(']');
        }
        json.push_str("]}");
    }
    json.push_str("]}");
    let labels =
        clients.iter().map(|c| c.picks.iter().map(|&p| pool.labels[p]).collect()).collect();
    Generated { json, clients, labels }
}

/// Stream tags keep the workloads' random streams apart.
const TAG_SOLO: u64 = 1 << 40;
const TAG_BURST: u64 = 2 << 40;
const TAG_RECURRENT: u64 = 3 << 40;
const TAG_FLEET: u64 = 4 << 40;

/// Round index of the untimed warm-up op of every workload.
pub const WARMUP_ROUND: u64 = (1 << 32) - 1;

/// Engagements between two retargets of `solo_stream`.
pub const SOLO_SEGMENT_OPS: usize = 250;
/// `solo_stream`'s preload budget `|S|`.
pub const SOLO_PRELOAD_KB: u64 = 16;

/// One `solo_stream` segment: a single client whose target is the next of a
/// seeded cycle over {120, 200, 400} ms plus a seeded 0–15 ms, so the
/// simulated latencies have three modes (p50 != p99) whose exact values
/// follow the seed.
pub fn solo_segment(pool: &Pool, seed: u64, segment: u64, ops: usize) -> Generated {
    let mut order = [120u64, 200, 400];
    Rng::new(seed, TAG_SOLO).shuffle(&mut order);
    let mut rng = Rng::new(seed, TAG_SOLO | (segment + 1));
    let target_ms = order[(segment % 3) as usize] + rng.below(16);
    let picks = (0..ops).map(|_| pool.pick(&mut rng)).collect();
    render(
        pool,
        vec![ClientSpec {
            target_ms,
            preload_kb: SOLO_PRELOAD_KB,
            slo_ms: None,
            arrival_us: 0,
            idle_us: 0,
            picks,
        }],
    )
}

/// The frozen `burst_shared` shape, calibrated on this program so that the
/// device is busy but not saturated (flash utilisation ~0.85), the SLO hit
/// rate sits mid-range, p99 is well above p50 and nothing is shed;
/// `selftest` asserts all of it.
///
/// A burst is four clients arriving at the *same* simulated instant: the
/// event executor services the flash queue once per instant, so only
/// same-instant arrivals can share a flash job (a sub-window jitter
/// between members would silently turn batching off). The member order
/// plain-A, plain-B, plain-A, SLO puts the two A clients on tokens of equal
/// parity, hence on the same stripe of a two-channel device, where their
/// byte-identical requests coalesce.
pub mod burst {
    /// Bursts per round.
    pub const GROUPS: u64 = 6;
    /// Simulated gap between bursts, plus a seeded jitter below
    /// `JITTER_US` so neighbouring bursts overlap differently per seed.
    pub const GROUP_GAP_US: u64 = 300_000;
    /// Seeded jitter on a burst's arrival.
    pub const JITTER_US: u64 = 100_000;
    /// The A clients' target is drawn per burst from `A_MS.0..=A_MS.1`.
    pub const A_MS: (u64, u64) = (170, 230);
    /// The B client's target is drawn per burst from `B_MS.0..=B_MS.1`.
    pub const B_MS: (u64, u64) = (105, 135);
    /// The SLO client's SLO is drawn per burst from `SLO_MS.0..=SLO_MS.1`.
    pub const SLO_MS: (u64, u64) = (420, 480);
    /// Engagements per client, one every `GROUPS * GROUP_GAP_US` of think
    /// time, so a round is a steady stream of bursts.
    pub const ENGAGEMENTS: usize = 4;
    /// Preload budget `|S|`.
    pub const PRELOAD_KB: u64 = 16;
}

fn draw(rng: &mut Rng, (lo, hi): (u64, u64)) -> u64 {
    lo + rng.below(hi - lo + 1)
}

/// One `burst_shared` round: [`burst::GROUPS`] bursts of four co-arriving
/// clients.
pub fn burst_round(pool: &Pool, seed: u64, round: u64) -> Generated {
    let mut rng = Rng::new(seed, TAG_BURST | round);
    let mut clients = Vec::new();
    for g in 0..burst::GROUPS {
        let arrival_us = g * burst::GROUP_GAP_US + rng.below(burst::JITTER_US);
        let (a, b) = (draw(&mut rng, burst::A_MS), draw(&mut rng, burst::B_MS));
        let slo = draw(&mut rng, burst::SLO_MS);
        for (target_ms, slo_ms) in [(a, None), (b, None), (a, None), (a, Some(slo))] {
            clients.push(ClientSpec {
                target_ms,
                preload_kb: burst::PRELOAD_KB,
                slo_ms,
                arrival_us,
                idle_us: burst::GROUPS * burst::GROUP_GAP_US,
                picks: (0..burst::ENGAGEMENTS).map(|_| pool.pick(&mut rng)).collect(),
            });
        }
    }
    render(pool, clients)
}

/// The `recurrent_think` shape.
pub mod recurrent {
    /// Clients per round.
    pub const CLIENTS: u64 = 6;
    /// Engagements per client.
    pub const ENGAGEMENTS: usize = 8;
    /// Arrival spacing between clients, plus a seeded jitter below
    /// `ARRIVAL_JITTER_US`.
    pub const ARRIVAL_GAP_US: u64 = 5_000;
    /// Seeded arrival jitter.
    pub const ARRIVAL_JITTER_US: u64 = 1_000;
    /// Think time between a client's engagements.
    pub const IDLE_US: u64 = 20_000;
    /// Each client's target latency is drawn from
    /// `TARGET_MS.0..=TARGET_MS.1`, so the simulated latencies follow the
    /// seed (and the prefetcher sees a handful of engagement keys).
    pub const TARGET_MS: (u64, u64) = (270, 330);
    /// Chance (percent) that an engagement breaks its client's pattern.
    pub const BREAK_PERCENT: u64 = 10;
}

/// One `recurrent_think` round: each client cycles a seeded pattern of
/// period 1–3 with seeded breaks.
pub fn recurrent_round(pool: &Pool, seed: u64, round: u64) -> Generated {
    let mut rng = Rng::new(seed, TAG_RECURRENT | round);
    let clients = (0..recurrent::CLIENTS)
        .map(|i| {
            let period = 1 + rng.below(3) as usize;
            let pattern: Vec<usize> = (0..period).map(|_| pool.pick(&mut rng)).collect();
            let picks = (0..recurrent::ENGAGEMENTS)
                .map(|k| {
                    if rng.chance(recurrent::BREAK_PERCENT) {
                        pool.pick(&mut rng)
                    } else {
                        pattern[k % period]
                    }
                })
                .collect();
            ClientSpec {
                target_ms: draw(&mut rng, recurrent::TARGET_MS),
                preload_kb: 0,
                slo_ms: None,
                arrival_us: i * recurrent::ARRIVAL_GAP_US + rng.below(recurrent::ARRIVAL_JITTER_US),
                idle_us: recurrent::IDLE_US,
                picks,
            }
        })
        .collect();
    render(pool, clients)
}

/// The `fleet_admit` shape.
pub mod fleet {
    /// Plain sessions opened during set-up.
    pub const SESSIONS: usize = 2_000;
    /// Target of the set-up fleet.
    pub const TARGET_MS: u64 = 200;
    /// Replacement sessions draw their target from `TARGET_MS - SPREAD ..=
    /// TARGET_MS + SPREAD`, so the fleet turns heterogeneous as it churns.
    pub const TARGET_SPREAD_MS: u64 = 40;
    /// Preload budget `|S|`.
    pub const PRELOAD_KB: u64 = 16;
    /// The set-up fleet's sessions arrive this far apart on the simulated
    /// timeline. Opened all at time zero, 2000 co-arriving streams are
    /// predicted to occupy the four channels for ~78 simulated seconds, so
    /// even the fleet sweep's 60 s SLO is missed and every SLO engagement
    /// would be shed — a failed op. A fleet that arrived over time leaves
    /// admission a feasible answer while it still prices every open
    /// session to find it.
    pub const ARRIVAL_GAP_US: u64 = 100_000;
    /// Admitted SLO sessions arrive at a seeded offset below this.
    pub const SLO_ARRIVAL_US: u64 = 1_000_000;
    /// The admitted sessions' SLO is drawn per cycle from
    /// `SLO_MS.0..=SLO_MS.1`.
    pub const SLO_MS: (u64, u64) = (500, 1_000);
    /// SLO sessions kept live.
    pub const LIVE_SLO: usize = 8;
    /// Memoised gate decisions per cycle.
    pub const STEADY_GATES: usize = 16;
}

/// One `fleet_admit` cycle as a two-client trace: the plain replacement
/// session, which carries the cycle's single engagement, then the SLO
/// session to admit and gate. (Run on the SLO session instead, the
/// engagement's plan is whatever rung of the SLO ladder the seeded
/// co-arrivals leave feasible — from 26 to 640 simulated ms in one run —
/// and the p99 of ~150 such values does not repeat within any bound.)
pub fn fleet_cycle(pool: &Pool, seed: u64, cycle: u64) -> Generated {
    let mut rng = Rng::new(seed, TAG_FLEET | cycle);
    let target_ms =
        fleet::TARGET_MS - fleet::TARGET_SPREAD_MS + rng.below(2 * fleet::TARGET_SPREAD_MS + 1);
    let plain = ClientSpec {
        target_ms,
        preload_kb: fleet::PRELOAD_KB,
        slo_ms: None,
        arrival_us: 0,
        idle_us: 0,
        picks: vec![fleet_pick(pool, seed, cycle)],
    };
    let slo = ClientSpec {
        target_ms: fleet::TARGET_MS,
        preload_kb: fleet::PRELOAD_KB,
        slo_ms: Some(draw(&mut rng, fleet::SLO_MS)),
        arrival_us: rng.below(fleet::SLO_ARRIVAL_US),
        idle_us: 0,
        picks: Vec::new(),
    };
    render(pool, vec![plain, slo])
}

/// The example a `fleet_admit` cycle classifies: the cycles walk a seeded
/// permutation of the pool, so the ~110 engagements of a run are (almost)
/// a sample without replacement and `accuracy` varies far less from seed
/// to seed than 110 independent draws would.
fn fleet_pick(pool: &Pool, seed: u64, cycle: u64) -> usize {
    let mut order: Vec<usize> = (0..pool.tokens.len()).collect();
    Rng::new(seed, TAG_FLEET | (1 << 37)).shuffle(&mut order);
    order[(cycle % order.len() as u64) as usize]
}

/// Which plain session a `fleet_admit` cycle drops: a seeded index into the
/// `live` plain sessions.
pub fn fleet_victim(seed: u64, cycle: u64, live: usize) -> usize {
    Rng::new(seed, TAG_FLEET | (1 << 36) | cycle).below(live as u64) as usize
}
