//! The device's channel shape and which reads share a flash job.
//!
//! Real flash exposes `C` independent channels (and a DRAM tier behind the
//! shard cache); a [`DeviceTopology`] names that shape and places each
//! request on a channel by its [`content_sig`] and its session's stripe,
//! [`IoSharing::plain_stripes`] names the stripes a session without an SLO
//! placement picks from, and
//! [`TopologyQueueSim`](crate::flash_queue::TopologyQueueSim) serves one
//! FIFO queue per channel. [`IoSharing::coalesces`] is the one rule for
//! which reads share one flash job, and [`IoSharing::pick`] the one loop
//! the IO scheduler and the contended predictor apply it with.
//!
//! **Naming.** "Device channel" here is a hardware lane of the flash
//! package — distinct from the *engagement IO lanes* (`IoChannel` in
//! `sti-storage`) that carry one engagement's request stream to the
//! scheduler. An engagement's lane fans its requests out
//! across device channels according to placement.

use std::hash::{Hash, Hasher};

use crate::{contended_makespan, SimTime};
use sti_quant::Bitwidth;

/// The device's contended-path shape: how many independent flash channels
/// it exposes.
///
/// Placement maps a request to a channel via [`DeviceTopology::channel_for`]
/// — a hash of the request's content signature salted with the session's
/// stripe, so byte-identical requests from sessions on one stripe land on
/// the *same* channel (and stay batchable); on two stripes they share a
/// channel only where placement happens to put both there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTopology {
    channels: u16,
}

impl Default for DeviceTopology {
    fn default() -> Self {
        Self::single()
    }
}

impl DeviceTopology {
    /// The legacy shape: one flash channel.
    pub fn single() -> Self {
        Self { channels: 1 }
    }

    /// A topology with `channels` independent flash channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(channels: u16) -> Self {
        assert!(channels >= 1, "a device exposes at least one channel");
        Self { channels }
    }

    /// Number of flash channels.
    pub fn channel_count(&self) -> u16 {
        self.channels
    }

    /// Whether this is the legacy single-channel shape.
    pub fn is_single(&self) -> bool {
        self.channels == 1
    }

    /// The device channel a request is placed on: a hash of the request's
    /// content signature salted with the session's stripe. `C = 1` always
    /// maps to channel 0, so the single-channel topology has no placement
    /// freedom — exactly today's model.
    ///
    /// A stripe is a salt, not a channel: it folds in *before* mixing, so a
    /// stripe shift is exactly a signature shift (`channel_for(sig, s) ==
    /// channel_for(sig + s, 0)`), every `u16` is a valid stripe, and a
    /// stripe `≥ C` is a placement of its own, not a repeat of `s mod C`.
    /// Under batching a stripe is also where byte-identical reads meet: two
    /// sessions on one stripe put each shared content on one channel.
    pub fn channel_for(&self, content_sig: u64, stripe: u16) -> u16 {
        // Content signatures are structured (layer indices, shard slices),
        // so a bare modulus aliases whole signature classes onto one
        // channel at small C; finalize through a splitmix64 mix first.
        (mix64(content_sig.wrapping_add(stripe as u64)) % self.channels as u64) as u16
    }

    /// The stripes `0..C` that minimise a session's solo IO makespan: the
    /// largest per-channel sum of `service` when each of its streamed jobs
    /// `(sig, service)` is read on `channel_for(sig, stripe)`. The batched
    /// half of [`IoSharing::plain_stripes`]: placement stays a content
    /// hash, so byte-identical reads on one stripe still meet on one
    /// channel, and the search keeps to the `C` salts a batched fleet
    /// spreads over, choosing only which spreads the session's own reads
    /// most evenly. Every stripe ties when the session streams nothing, and
    /// `C = 1` has only stripe 0.
    ///
    /// A channel's sum is found by re-walking the jobs, `O(C · J²)` for `J`
    /// jobs (a plan's streamed layers), so the search needs no per-channel
    /// scratch and, up to 64 channels, allocates nothing.
    pub fn balanced_stripes<I>(&self, jobs: I) -> BalancedStripes
    where
        I: IntoIterator<Item = (u64, SimTime)>,
        I::IntoIter: Clone,
    {
        let jobs = jobs.into_iter();
        let on_channel = |stripe: u16, channel: u16| {
            jobs.clone()
                .filter(|&(sig, _)| self.channel_for(sig, stripe) == channel)
                .fold(SimTime::ZERO, |sum, (_, service)| sum.saturating_add(service))
        };
        let makespan = |stripe: u16| {
            let sums =
                jobs.clone().map(|(sig, _)| on_channel(stripe, self.channel_for(sig, stripe)));
            sums.max().unwrap_or(SimTime::ZERO)
        };
        BalancedStripes::least(self.channels, makespan)
    }
}

/// The stripes a placement search found tied for its best rank
/// ([`DeviceTopology::balanced_stripes`], [`IoSharing::plain_stripes`]),
/// never empty: a bit set over the searched stripes, its first word
/// inline, so a search of up to 64 stripes holds no heap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancedStripes {
    first: u64,
    rest: Box<[u64]>,
}

impl BalancedStripes {
    /// No stripe of `0..domain`.
    fn empty(domain: u16) -> Self {
        Self { first: 0, rest: vec![0; (domain as usize).saturating_sub(1) / 64].into() }
    }

    /// The stripes of `0..domain` (at least one) whose `rank` is least.
    fn least<K: Ord + Copy>(domain: u16, mut rank: impl FnMut(u16) -> K) -> Self {
        let mut tied = Self::empty(domain);
        let mut least = rank(0);
        tied.insert(0);
        for stripe in 1..domain {
            let key = rank(stripe);
            if key < least {
                least = key;
                tied.first = 0;
                tied.rest.fill(0);
            }
            if key == least {
                tied.insert(stripe);
            }
        }
        tied
    }

    fn insert(&mut self, stripe: u16) {
        let word = match stripe / 64 {
            0 => &mut self.first,
            w => &mut self.rest[w as usize - 1],
        };
        *word |= 1 << (stripe % 64);
    }

    /// Whether `stripe` is among the balanced stripes.
    pub fn contains(&self, stripe: u16) -> bool {
        let word = match stripe / 64 {
            0 => Some(&self.first),
            w => self.rest.get(w as usize - 1),
        };
        word.is_some_and(|word| word & (1 << (stripe % 64)) != 0)
    }

    /// The stripe a session that would otherwise take `preferred` takes:
    /// `preferred` itself when it is among the balanced stripes, so every
    /// tie keeps it, else the lowest balanced stripe.
    pub fn choose(&self, preferred: u16) -> u16 {
        if self.contains(preferred) {
            return preferred;
        }
        (0..=u16::MAX).find(|&stripe| self.contains(stripe)).expect("the set is never empty")
    }
}

/// The SplitMix64 finalizer: decorrelates structured inputs (placement's
/// signatures, the serving mix's sub-digests) before they are reduced.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The content signature [`DeviceTopology::channel_for`] places: a hash of
/// one layer read's layer and `(slice, bits)` items, in order. Equal
/// signatures read identical bytes, so queued requests and plan-derived IO
/// jobs agree on batchability.
pub fn content_sig(layer: u16, items: impl IntoIterator<Item = (u16, Bitwidth)>) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    layer.hash(&mut hasher);
    for (slice, bw) in items {
        (slice, bw.bits()).hash(&mut hasher);
    }
    hasher.finish()
}

/// Whether co-resident engagements' byte-identical reads share one flash
/// job: the IO scheduler's batching policy and the contended predictors'
/// sharing mode are this one value, and [`IoSharing::coalesces`] is the
/// one rule both apply, so the two cannot disagree on which reads
/// coalesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoSharing {
    /// Every engagement pays for its own reads (the default).
    #[default]
    Exclusive,
    /// Byte-identical layer reads of engagements whose arrivals fall within
    /// this window of each other coalesce into one flash job.
    Batched(SimTime),
}

impl IoSharing {
    /// How many salts an exclusive plain session's placement searches
    /// ([`IoSharing::plain_stripes`]). `channel_for` is a salted hash, so
    /// the `C` salts `0..C` seldom hold a plan's best split of its own
    /// reads across the channels. On the benchmark's `fleet_admit` plans
    /// (`C = 4`), 256 salts raise `sim_eng_per_s` 24–30 % over `0..C`, 64
    /// salts 19–23 %, and 1 024 barely more than 256. A fixed width, not a
    /// knob: the search runs once per plan record.
    pub const EXCLUSIVE_SALTS: u16 = 256;

    /// The batching arrival window, when reads are shared.
    pub fn window(&self) -> Option<SimTime> {
        match self {
            IoSharing::Exclusive => None,
            IoSharing::Batched(w) => Some(*w),
        }
    }

    /// The window test: whether engagements arriving at `a` and `b` may
    /// share a read, `|a − b| ≤ window` (never, when exclusive).
    pub fn shares(&self, a: SimTime, b: SimTime) -> bool {
        self.window().is_some_and(|w| a.max(b) - a.min(b) <= w)
    }

    /// The coalescing rule: `member`'s read joins the flash job `leader`'s
    /// read leads iff both read the same content, the window test holds on
    /// their lanes' opening arrivals, and placement puts both on one device
    /// channel (`topology.channel_for(sig, stripe)`, `sig` the content's
    /// [`content_sig`]), whatever their stripes. The IO scheduler asks it
    /// with whole requests as the content (a signature is a hash), the
    /// contended predictor with its plan-derived IO jobs.
    pub fn coalesces<C: PartialEq + ?Sized>(
        self,
        topology: DeviceTopology,
        sig: u64,
        leader: &LaneRead<'_, C>,
        member: &LaneRead<'_, C>,
    ) -> bool {
        leader.content == member.content
            && self.shares(leader.arrival, member.arrival)
            && topology.channel_for(sig, leader.stripe) == topology.channel_for(sig, member.stripe)
    }

    /// The one pick loop: the next flash job of `lanes`, whose leader is
    /// the first lane in `turn` with a head on device channel `only` (any,
    /// for `None`). A head on another channel goes to the back of `turn`; a
    /// lane without one leaves it. Only the leader's read is hashed; every
    /// lane whose head [`coalesces`](IoSharing::coalesces) with it joins, and
    /// `members` is refilled with them in ascending key order. The batch
    /// arrives at its latest participant's cursor (the job exists once its
    /// last member has), every participant is raised to it, and members
    /// leave `turn`; requeueing the participants is the caller's.
    pub fn pick<L: PickLanes>(
        self,
        topology: DeviceTopology,
        lanes: &mut L,
        turn: &mut std::collections::VecDeque<L::Key>,
        only: Option<u16>,
        members: &mut Vec<L::Key>,
    ) -> Option<Picked<L::Key>> {
        members.clear();
        for _ in 0..turn.len() {
            let key = turn.pop_front()?;
            let Some(leader) = lanes.head(key) else { continue };
            let sig = L::sig(leader.content);
            let device_channel = topology.channel_for(sig, leader.stripe);
            if only.is_some_and(|dc| dc != device_channel) {
                turn.push_back(key);
                continue;
            }
            // Exclusive reads never join one another: skip the scan.
            if self.window().is_some() {
                let joins =
                    |m| lanes.head(m).is_some_and(|h| self.coalesces(topology, sig, &leader, &h));
                members.extend(lanes.keys().filter(|&m| m != key && joins(m)));
                members.sort_unstable();
            }
            let arrival = members.iter().fold(lanes.take(key), |a, &m| a.max(lanes.take(m)));
            members.iter().chain([&key]).for_each(|&m| lanes.raise(m, arrival));
            if !members.is_empty() {
                turn.retain(|q| !members.contains(q));
            }
            return Some(Picked { leader: key, device_channel, arrival });
        }
        None
    }

    /// The stripes a session without an SLO placement picks from, for a
    /// plan whose layers stream `layers` in order (`Some((sig, service))`,
    /// `None` for a layer the preload covers) and compute `comp` each.
    /// What a stripe means differs by sharing mode, and so does the search:
    ///
    /// - **`Batched`:** a stripe is also where co-resident sessions'
    ///   byte-identical reads meet on one channel, and a wide search
    ///   scatters those meetings. The stripes `0..C` of least solo IO
    ///   makespan, [`DeviceTopology::balanced_stripes`].
    /// - **`Exclusive`:** no read is shared, so a stripe only decides where
    ///   the session's own reads go. The salts `0..max(256, C)`
    ///   ([`IoSharing::EXCLUSIVE_SALTS`]; only 0 when `C = 1`) ranked by
    ///   the session's solo latency, then its solo IO makespan: each read
    ///   completes on its channel's FIFO queue, served in layer order from
    ///   time zero, and the latency is [`contended_makespan`] over those
    ///   completions, the recurrence the contended track measures with.
    ///
    /// The chosen stripe may be `≥ C` under `Exclusive`; the IO scheduler
    /// and every predictor place a read with the raw stripe.
    pub fn plain_stripes<I>(
        self,
        topology: DeviceTopology,
        layers: I,
        comp: SimTime,
    ) -> BalancedStripes
    where
        I: IntoIterator<Item = Option<(u64, SimTime)>>,
        I::IntoIter: Clone,
    {
        let layers = layers.into_iter();
        // One channel has one placement, which `balanced_stripes` names
        // without a search or a heap block.
        if self.window().is_some() || topology.is_single() {
            return topology.balanced_stripes(layers.flatten());
        }
        let salts = Self::EXCLUSIVE_SALTS.max(topology.channels);
        let mut free = vec![SimTime::ZERO; topology.channels as usize];
        BalancedStripes::least(salts, |salt| {
            free.fill(SimTime::ZERO);
            let io_ends = layers.clone().map(|job| {
                job.map(|(sig, service)| {
                    let free = &mut free[topology.channel_for(sig, salt) as usize];
                    *free += service;
                    *free
                })
            });
            let latency = contended_makespan(SimTime::ZERO, io_ends, comp);
            (latency, free.iter().copied().max().unwrap_or(SimTime::ZERO))
        })
    }
}

/// One engagement lane's next read, as [`IoSharing::coalesces`] sees it.
#[derive(Debug)]
pub struct LaneRead<'a, C: ?Sized> {
    /// What the read fetches; equal contents are byte-identical reads.
    pub content: &'a C,
    /// The lane's stripe, the salt its reads are placed with.
    pub stripe: u16,
    /// When the lane was opened (not the arrival a batch raises it to).
    pub arrival: SimTime,
}

/// The engagement lanes [`IoSharing::pick`] picks from: each lane's next
/// read, a read's signature, and each lane's cursor (the arrival its next
/// job is stamped with). Keys order a batch's members, so the holders' key
/// orders must agree: the IO scheduler's are lane ids, in opening order,
/// and the contended predictor's registry token order, the candidate last.
/// They agree where lanes open in token order, as in
/// `tests/contention_model.rs`. Where a live server opens them otherwise,
/// the two differ in their inputs, not in the pick, and the prediction
/// audit (ROADMAP item 34) names that.
pub trait PickLanes {
    /// A lane's name.
    type Key: Copy + Ord;
    /// What a read fetches; equal contents are byte-identical reads.
    type Content: PartialEq + ?Sized;

    /// Every lane, in any order.
    fn keys(&self) -> impl Iterator<Item = Self::Key> + '_;

    /// Lane `key`'s next read, or `None` when it has nothing to dispatch
    /// now (nothing queued, or a job in flight).
    fn head(&self, key: Self::Key) -> Option<LaneRead<'_, Self::Content>>;

    /// A read's [`content_sig`]: its content alone, never its lane or stripe.
    fn sig(content: &Self::Content) -> u64;

    /// Takes lane `key`'s head into the picked job; returns its cursor.
    fn take(&mut self, key: Self::Key) -> SimTime;

    /// Raises lane `key`'s cursor to a batch's `arrival`.
    fn raise(&mut self, key: Self::Key, arrival: SimTime);
}

/// What [`IoSharing::pick`] picked, besides its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Picked<K> {
    /// The lane whose turn it was.
    pub leader: K,
    /// Where placement put the leader's read, and every member's.
    pub device_channel: u16,
    /// The batch arrival: the latest participant's cursor.
    pub arrival: SimTime,
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// A fixed plan's layer reads: layer `l` reads `l % 4 + 1` slices, slice
    /// `s` at `Bitwidth::ALL[(l + s) % 6]`.
    fn fixed_plan() -> Vec<(u16, Vec<(u16, Bitwidth)>)> {
        (0..12u16)
            .map(|l| {
                (l, (0..l % 4 + 1).map(|s| (s, Bitwidth::ALL[(l + s) as usize % 6])).collect())
            })
            .collect()
    }

    /// A canary for the hasher under placement. `content_sig` hashes with
    /// std's `DefaultHasher`, whose algorithm std does not promise to keep
    /// from one release to the next, and through `channel_for` it decides
    /// which device channel serves a read: every multi-channel golden and
    /// simulated metric depends on it. These values were computed once and
    /// checked in; if they no longer match, the toolchain's hasher changed,
    /// not this crate, and every placement with more than one channel moved
    /// with it.
    #[test]
    fn content_sig_and_placement_match_their_checked_in_values() {
        const SIGS: [u64; 12] = [
            7_815_574_569_662_360_103,
            11_500_513_833_573_499_698,
            75_735_604_603_833_570,
            9_210_168_447_252_576_441,
            2_793_900_013_803_617_193,
            12_327_902_102_416_670_069,
            18_265_417_277_287_256_892,
            14_044_820_930_622_003_379,
            5_323_925_352_372_476_732,
            15_557_432_712_310_016_372,
            5_057_625_881_334_733_869,
            11_088_983_867_678_102_573,
        ];
        const ON_TWO: [u16; 12] = [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0];
        const ON_FOUR: [u16; 12] = [0, 0, 3, 0, 0, 2, 0, 3, 0, 0, 3, 2];
        let sigs: Vec<u64> =
            fixed_plan().into_iter().map(|(l, items)| content_sig(l, items)).collect();
        let on = |c: u16| -> Vec<u16> {
            let topo = DeviceTopology::with_channels(c);
            sigs.iter().enumerate().map(|(l, &sig)| topo.channel_for(sig, l as u16 % 3)).collect()
        };
        let cause = "std's DefaultHasher no longer hashes as it did when these values were \
                     checked in, so content_sig, and with it every multi-channel placement, \
                     golden and simulated metric, moved";
        assert_eq!(sigs, SIGS, "{cause}");
        assert_eq!(on(2), ON_TWO, "{cause}");
        assert_eq!(on(4), ON_FOUR, "{cause}");
    }

    #[test]
    fn channel_for_is_stable_and_covers_all_channels() {
        let single = DeviceTopology::single();
        for sig in 0..64u64 {
            assert_eq!(single.channel_for(sig, 0), 0);
            assert_eq!(single.channel_for(sig, 9), 0, "C = 1 has no placement freedom");
        }
        let quad = DeviceTopology::with_channels(4);
        // Same signature + same stripe → same channel (batching contract);
        // a stripe shift moves the whole placement by a constant.
        for sig in 0..64u64 {
            assert_eq!(quad.channel_for(sig, 1), quad.channel_for(sig + 1, 0));
        }
        let hit: std::collections::HashSet<u16> =
            (0..64u64).map(|sig| quad.channel_for(sig, 0)).collect();
        assert_eq!(hit.len(), 4, "consecutive signatures cover every channel");
    }

    /// A read of `content` on a lane opened at `us` µs on `stripe`.
    fn read(content: &str, stripe: u16, us: u64) -> LaneRead<'_, str> {
        LaneRead { content, stripe, arrival: SimTime::from_us(us) }
    }

    #[test]
    fn reads_coalesce_on_content_window_and_channel_and_on_nothing_else() {
        let batched = IoSharing::Batched(SimTime::from_us(500));
        let one = DeviceTopology::single();
        let coalesces = |topo, leader, member| batched.coalesces(topo, 7, &leader, &member);
        assert!(coalesces(one, read("a", 0, 0), read("a", 0, 500)));
        assert!(coalesces(one, read("a", 0, 500), read("a", 0, 0)), "the window is symmetric");
        assert!(!coalesces(one, read("a", 0, 0), read("a", 0, 501)), "outside the window");
        assert!(!coalesces(one, read("a", 0, 0), read("b", 0, 0)), "other content");
        assert!(!IoSharing::Exclusive.coalesces(one, 7, &read("a", 0, 0), &read("a", 0, 0)));
        // On a multi-channel device the stripes matter only through the
        // channel they place the read on.
        let quad = DeviceTopology::with_channels(4);
        let sig = (0..64u64)
            .find(|&sig| {
                quad.channel_for(sig, 0) == quad.channel_for(sig, 1)
                    && quad.channel_for(sig, 0) != quad.channel_for(sig, 2)
            })
            .expect("some signature shares a channel across stripes 0 and 1 but not 2");
        let on = |stripe| read("a", stripe, 0);
        assert!(batched.coalesces(quad, sig, &on(0), &on(1)), "two stripes, one channel");
        assert!(!batched.coalesces(quad, sig, &on(0), &on(2)), "two stripes, two channels");
    }

    /// Seeded job sets against a brute-force makespan per stripe: the
    /// balanced set is exactly the stripes of least solo makespan, the
    /// chosen stripe is no slower than any other, a preferred stripe
    /// survives every tie, and `C = 1` always gives stripe 0.
    #[test]
    fn the_chosen_stripe_has_the_least_solo_makespan_and_keeps_every_tie() {
        let mut state = 0x5eed_0061_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..400 {
            // Few distinct signatures and services, so ties are common;
            // some sets are empty, and some repeat one content.
            let len = next() % 13;
            let jobs: Vec<(u64, SimTime)> =
                (0..len).map(|_| (next() % 24, SimTime::from_us(1 + next() % 4 * 250))).collect();
            for c in [1, 2, 3, 4, 8, 130] {
                let topo = DeviceTopology::with_channels(c);
                let makespan = |stripe: u16| {
                    let mut sums = vec![SimTime::ZERO; c as usize];
                    for &(sig, service) in &jobs {
                        sums[topo.channel_for(sig, stripe) as usize] += service;
                    }
                    sums.into_iter().max().unwrap()
                };
                let spans: Vec<SimTime> = (0..c).map(makespan).collect();
                let least = *spans.iter().min().unwrap();
                let balanced = topo.balanced_stripes(jobs.iter().copied());
                let expected: Vec<u16> = (0..c).filter(|&s| spans[s as usize] == least).collect();
                let found: Vec<u16> = (0..=c).filter(|&s| balanced.contains(s)).collect();
                assert_eq!(found, expected, "case {case}, C = {c}");
                for preferred in 0..c {
                    let chosen = balanced.choose(preferred);
                    assert!(chosen < c, "case {case}, C = {c}");
                    assert!(
                        spans.iter().all(|&span| spans[chosen as usize] <= span),
                        "case {case}, C = {c}: stripe {chosen} is not the least makespan"
                    );
                    if spans[preferred as usize] == least {
                        assert_eq!(chosen, preferred, "case {case}, C = {c}: a tie moved");
                    } else {
                        assert_eq!(chosen, expected[0], "case {case}, C = {c}");
                    }
                }
                if c == 1 {
                    assert_eq!(found, [0], "case {case}: C = 1 has one stripe");
                }
                if jobs.is_empty() {
                    assert_eq!(found.len(), c as usize, "nothing streamed ties every stripe");
                }
            }
        }
    }

    /// Seeded plans against brute force, per sharing mode. Under
    /// `Exclusive` the chosen salt has the least (solo latency, solo IO
    /// makespan) of all the salts searched, so it is no worse than any
    /// stripe of `0..C`; its makespan is at least max(longest job,
    /// ⌈Σ service / C⌉); a preferred stripe survives a tie; and `C = 1`
    /// gives 0. Under `Batched` the search is `balanced_stripes` over the
    /// streamed jobs, unchanged.
    #[test]
    fn a_plain_session_searches_salts_when_exclusive_and_c_stripes_when_batched() {
        let mut state = 0x5eed_0062_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let us = SimTime::from_us;
        let mut beyond_channels = 0;
        for case in 0..300 {
            // Some layers preload-covered, few distinct services so ties
            // are common, and compute from none to longer than a read.
            let len = next() % 13;
            let layers: Vec<Option<(u64, SimTime)>> = (0..len)
                .map(|_| (next() % 4 != 0).then(|| (next(), us(1 + next() % 4 * 250))))
                .collect();
            let comp = us([0, 100, 400, 1_200][next() as usize % 4]);
            let jobs = || layers.iter().flatten().copied();
            for c in [1, 2, 3, 4, 8] {
                let topo = DeviceTopology::with_channels(c);
                let solo = |stripe: u16| {
                    let mut free = vec![SimTime::ZERO; c as usize];
                    let mut computed = SimTime::ZERO;
                    for layer in &layers {
                        let ready = layer.map_or(SimTime::ZERO, |(sig, service)| {
                            let channel = topo.channel_for(sig, stripe) as usize;
                            free[channel] += service;
                            free[channel]
                        });
                        computed = computed.max(ready) + comp;
                    }
                    (computed, free.into_iter().max().unwrap())
                };
                let searched = if c == 1 { 1 } else { IoSharing::EXCLUSIVE_SALTS };
                let best = (0..searched).map(solo).min().unwrap();
                let exclusive =
                    IoSharing::Exclusive.plain_stripes(topo, layers.iter().copied(), comp);
                let longest = jobs().map(|(_, service)| service).max().unwrap_or(SimTime::ZERO);
                let total: u64 = jobs().map(|(_, service)| service.as_us()).sum();
                let bound = longest.max(us(total.div_ceil(c as u64)));
                for preferred in 0..c {
                    let chosen = exclusive.choose(preferred);
                    let at = format!("case {case}, C = {c}, preferred {preferred}");
                    assert_eq!(solo(chosen), best, "{at}: salt {chosen}");
                    assert!((0..c).all(|s| solo(chosen) <= solo(s)), "{at}");
                    assert!(solo(chosen).1 >= bound, "{at}: below the makespan bound");
                    if solo(preferred) == best {
                        assert_eq!(chosen, preferred, "{at}: a tie moved");
                    }
                    if c == 1 {
                        assert_eq!(chosen, 0, "{at}: C = 1 has one stripe");
                    }
                    beyond_channels += usize::from((0..c).all(|s| best < solo(s)));
                }
                let batched =
                    IoSharing::Batched(us(500)).plain_stripes(topo, layers.iter().copied(), comp);
                assert_eq!(batched, topo.balanced_stripes(jobs()), "case {case}, C = {c}");
            }
        }
        assert!(beyond_channels > 0, "some plan is served best by a salt beyond 0..C");
    }

    #[test]
    fn the_sharing_window_is_closed_and_symmetric() {
        let us = SimTime::from_us;
        let batched = IoSharing::Batched(us(500));
        assert!(batched.shares(us(100), us(600)), "exactly the window apart shares");
        assert!(batched.shares(us(600), us(100)), "the test is symmetric");
        assert!(!batched.shares(us(0), us(501)));
        assert!(!IoSharing::Exclusive.shares(us(0), us(0)), "exclusive never shares");
    }

    /// A lane holder for [`IoSharing::pick`]'s tests: lane `k` is `0[k]`.
    /// Its keys come out in descending order, so only the pick's sort puts
    /// members in key order.
    struct Held(Vec<HeldLane>);

    /// One held lane: its one queued read, its stripe, when it opened, its
    /// cursor, and whether a job of it is in flight (then it has no head).
    struct HeldLane {
        read: Option<&'static str>,
        stripe: u16,
        opened: SimTime,
        cursor: SimTime,
        busy: bool,
    }

    impl PickLanes for Held {
        type Key = usize;
        type Content = str;

        fn keys(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.0.len()).rev()
        }

        fn head(&self, k: usize) -> Option<LaneRead<'_, str>> {
            let lane = self.0.get(k).filter(|lane| !lane.busy)?;
            Some(LaneRead { content: lane.read?, stripe: lane.stripe, arrival: lane.opened })
        }

        /// A read's signature is its length, so `"a"` and `"b"` share one.
        fn sig(content: &str) -> u64 {
            content.len() as u64
        }

        fn take(&mut self, k: usize) -> SimTime {
            self.0[k].read = None;
            self.0[k].cursor
        }

        fn raise(&mut self, k: usize, arrival: SimTime) {
            self.0[k].cursor = arrival;
        }
    }

    /// A lane opened at `us` µs on stripe 0, its cursor there, that reads
    /// `content`.
    fn held(content: &'static str, us: u64) -> HeldLane {
        let at = SimTime::from_us(us);
        HeldLane { read: Some(content), stripe: 0, opened: at, cursor: at, busy: false }
    }

    /// One pick over `lanes` with the turn queue `turn`: what it picked,
    /// its members, and the turn queue it left.
    fn pick_once(
        sharing: IoSharing,
        topology: DeviceTopology,
        lanes: &mut Held,
        turn: &[usize],
        only: Option<u16>,
    ) -> (Option<Picked<usize>>, Vec<usize>, Vec<usize>) {
        let mut turn: VecDeque<usize> = turn.iter().copied().collect();
        let mut members = vec![99];
        let picked = sharing.pick(topology, lanes, &mut turn, only, &mut members);
        (picked, members, turn.into())
    }

    /// Sharing with a 100 µs window.
    fn batched() -> IoSharing {
        IoSharing::Batched(SimTime::from_us(100))
    }

    #[test]
    fn a_filtered_pick_sends_the_other_channels_heads_to_the_back() {
        let two = DeviceTopology::with_channels(2);
        // Signature 1 (a one-byte read) lands on another channel from
        // stripe `away` than from stripe 0.
        let away = (1..).find(|&s| two.channel_for(1, s) != two.channel_for(1, 0)).unwrap();
        let here = two.channel_for(1, 0);
        for sharing in [IoSharing::Exclusive, batched()] {
            let mut lanes = Held(vec![held("a", 0), held("a", 0), held("a", 0)]);
            lanes.0[0].stripe = away;
            lanes.0[2].stripe = away;
            let (picked, members, turn) =
                pick_once(sharing, two, &mut lanes, &[0, 1, 2], Some(here));
            let picked = picked.unwrap();
            assert_eq!((picked.leader, picked.device_channel), (1, here), "{sharing:?}");
            assert!(members.is_empty(), "{sharing:?}: the other channel's heads do not join");
            assert_eq!(turn, [2, 0], "{sharing:?}: lane 0 went to the back");
            let (again, _, turn) = pick_once(sharing, two, &mut lanes, &turn, Some(here));
            assert_eq!((again, turn), (None, vec![2, 0]), "{sharing:?}: nothing left here");
        }
    }

    #[test]
    fn members_join_in_key_order_whatever_the_turn_and_iteration_orders() {
        for turn in [[3, 1, 0, 2], [0, 3, 2, 1], [2, 0, 1, 3]] {
            let mut lanes = Held((0..4).map(|_| held("a", 0)).collect());
            let (picked, members, _) =
                pick_once(batched(), DeviceTopology::single(), &mut lanes, &turn, None);
            let leader = turn[0];
            assert_eq!(picked.unwrap().leader, leader);
            let rest: Vec<usize> = (0..4).filter(|&k| k != leader).collect();
            assert_eq!(members, rest, "turn {turn:?}");
        }
    }

    #[test]
    fn the_window_is_tested_on_opening_arrivals_not_on_raised_cursors() {
        // Lane 0's cursor was raised far past the window by an earlier
        // batch; lane 2 opened outside it, though its cursor is inside.
        let mut lanes = Held(vec![held("a", 0), held("a", 50), held("a", 300)]);
        lanes.0[0].cursor = SimTime::from_us(1_000);
        lanes.0[2].cursor = SimTime::from_us(1_000);
        let (picked, members, _) =
            pick_once(batched(), DeviceTopology::single(), &mut lanes, &[0, 1, 2], None);
        assert_eq!(picked.unwrap().leader, 0);
        assert_eq!(members, [1]);
    }

    #[test]
    fn the_batch_arrives_at_the_latest_cursor_and_raises_every_participant() {
        let mut lanes = Held(vec![held("a", 10), held("a", 70), held("b", 90), held("a", 40)]);
        let (picked, members, _) =
            pick_once(batched(), DeviceTopology::single(), &mut lanes, &[0, 1, 2, 3], None);
        let picked = picked.unwrap();
        assert_eq!((picked.leader, members), (0, vec![1, 3]));
        assert_eq!(picked.arrival, SimTime::from_us(70));
        let cursors: Vec<u64> = lanes.0.iter().map(|l| l.cursor.as_us()).collect();
        assert_eq!(cursors, [70, 70, 90, 70], "every participant, and no one else, is raised");
    }

    #[test]
    fn members_leave_the_turn_queue() {
        let mut lanes = Held(vec![held("a", 0), held("b", 0), held("a", 0), held("b", 0)]);
        let (picked, members, turn) =
            pick_once(batched(), DeviceTopology::single(), &mut lanes, &[0, 1, 2, 3], None);
        assert_eq!((picked.unwrap().leader, members), (0, vec![2]));
        assert_eq!(turn, [1, 3]);
    }

    #[test]
    fn a_lane_without_a_head_neither_leads_nor_joins() {
        let mut lanes = Held(vec![held("a", 0), held("a", 0), held("a", 0)]);
        lanes.0[0].busy = true;
        lanes.0[2].busy = true;
        let (picked, members, turn) =
            pick_once(batched(), DeviceTopology::single(), &mut lanes, &[0, 1, 2], None);
        assert_eq!(picked.unwrap().leader, 1);
        assert!(members.is_empty());
        assert_eq!(turn, [2], "a lane without a head leaves its turn");
    }

    #[test]
    fn exclusive_sharing_never_batches() {
        let mut lanes = Held(vec![held("a", 0), held("a", 20)]);
        let (picked, members, turn) =
            pick_once(IoSharing::Exclusive, DeviceTopology::single(), &mut lanes, &[0, 1], None);
        let picked = picked.unwrap();
        assert_eq!((picked.leader, picked.arrival), (0, SimTime::ZERO));
        assert!(members.is_empty());
        assert_eq!((turn, lanes.0[1].cursor), (vec![1], SimTime::from_us(20)));
    }
}
