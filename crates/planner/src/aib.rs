//! Accumulated IO Budgets (paper §5.4.2).
//!
//! `AIB(k)` is the IO time available to finish loading all shards of layers
//! `0..=k` before layer `k`'s computation would begin:
//! `AIB(k) = AIB(k-1) + T_comp(k-1)`, with `AIB(0)` seeded by the "bonus IO"
//! of the preload buffer (plus the compute-planning slack `T − n·T_comp`,
//! which this implementation folds into layer 0 so that cold starts — no
//! preload buffer — can still afford the first layer's low-bit IO).
//!
//! Charging a shard's IO at layer `k` debits `AIB(k)` *and every subsequent
//! layer's budget* — loading it delays all yet-to-execute layers but not
//! already-executed ones. A plan is valid iff every budget is non-negative.

use sti_device::SimTime;

/// The per-layer IO budget ledger.
///
/// Budgets are signed internally so that an over-charge is representable and
/// detectable rather than a panic; [`AibLedger::is_valid`] reports whether
/// all budgets remain non-negative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AibLedger {
    /// Budgets in signed microseconds, indexed by layer.
    budgets: Vec<i128>,
}

impl AibLedger {
    /// Initializes budgets for an `n`-layer submodel with constant per-layer
    /// compute delay (layers are structurally identical, §5.4.2) and an
    /// `AIB(0)` seed of `bonus`:
    /// `AIB(k) = bonus + k · t_comp`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, t_comp: SimTime, bonus: SimTime) -> Self {
        assert!(n > 0, "a submodel has at least one layer");
        let budgets =
            (0..n).map(|k| bonus.as_us() as i128 + k as i128 * t_comp.as_us() as i128).collect();
        Self { budgets }
    }

    /// Number of layers tracked.
    pub fn layers(&self) -> usize {
        self.budgets.len()
    }

    /// Remaining budget of `layer` in microseconds (negative if violated).
    pub fn headroom_us(&self, layer: usize) -> i128 {
        self.budgets[layer]
    }

    /// Whether charging `cost` at `layer` would keep all budgets
    /// non-negative.
    pub fn can_afford(&self, layer: usize, cost: SimTime) -> bool {
        let c = cost.as_us() as i128;
        self.budgets[layer..].iter().all(|&b| b >= c)
    }

    /// Debits `cost` from `layer` and all subsequent layers.
    pub fn charge(&mut self, layer: usize, cost: SimTime) {
        let c = cost.as_us() as i128;
        for b in &mut self.budgets[layer..] {
            *b -= c;
        }
    }

    /// Whether all budgets are non-negative (the plan-validity invariant).
    pub fn is_valid(&self) -> bool {
        self.budgets.iter().all(|&b| b >= 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_ms(v)
    }

    /// The paper's Figure 6 mini-example: a 2×3 submodel, T = 2 s,
    /// T_comp = 1 s, three 2-bit preloaded shards worth 0.6 s of IO, and the
    /// T_IO table {2b: 0.2s, 3b: 0.3s, 4b: 0.4s, 5b: 0.5s, 6b: 0.6s}.
    fn figure6_ledger() -> AibLedger {
        let mut ledger = AibLedger::new(2, ms(1000), ms(600));
        // Fill S' with S: the three preloaded 2-bit shards live in L0.
        for _ in 0..3 {
            ledger.charge(0, ms(200));
        }
        ledger
    }

    #[test]
    fn figure6_initialization() {
        let ledger = AibLedger::new(2, ms(1000), ms(600));
        assert_eq!(ledger.headroom_us(0), 600_000);
        assert_eq!(ledger.headroom_us(1), 1_600_000);
    }

    #[test]
    fn figure6_after_preload_charge() {
        let ledger = figure6_ledger();
        assert_eq!(ledger.headroom_us(0), 0);
        assert_eq!(ledger.headroom_us(1), 1_000_000);
    }

    #[test]
    fn figure6_candidate_a_is_valid() {
        // Candidate A: three more 2-bit shards at L1 (0.6 s total).
        let mut ledger = figure6_ledger();
        for _ in 0..3 {
            assert!(ledger.can_afford(1, ms(200)));
            ledger.charge(1, ms(200));
        }
        assert!(ledger.is_valid());
        assert_eq!(ledger.headroom_us(1), 400_000);
    }

    #[test]
    fn figure6_candidate_b_is_valid() {
        // Candidate B: three 3-bit shards at L1 (0.9 s total).
        let mut ledger = figure6_ledger();
        for _ in 0..3 {
            ledger.charge(1, ms(300));
        }
        assert!(ledger.is_valid());
        assert_eq!(ledger.headroom_us(1), 100_000);
    }

    #[test]
    fn figure6_candidate_c_is_invalid() {
        // Candidate C: 5-bit + 2-bit + 4-bit at L1 (1.1 s) -> AIB(1) = -0.1 s.
        let mut ledger = figure6_ledger();
        ledger.charge(1, ms(500));
        ledger.charge(1, ms(200));
        assert!(!ledger.can_afford(1, ms(400)), "C must be rejected by affordability check");
        ledger.charge(1, ms(400));
        assert!(!ledger.is_valid());
        assert_eq!(ledger.headroom_us(1), -100_000);
    }

    #[test]
    fn charging_early_layers_debits_later_ones() {
        let mut ledger = AibLedger::new(3, ms(100), ms(50));
        ledger.charge(0, ms(30));
        assert_eq!(ledger.headroom_us(0), 20_000);
        assert_eq!(ledger.headroom_us(1), 120_000);
        assert_eq!(ledger.headroom_us(2), 220_000);
    }

    #[test]
    fn charging_later_layers_leaves_earlier_untouched() {
        let mut ledger = AibLedger::new(3, ms(100), ms(50));
        ledger.charge(2, ms(30));
        assert_eq!(ledger.headroom_us(0), 50_000);
        assert_eq!(ledger.headroom_us(1), 150_000);
        assert_eq!(ledger.headroom_us(2), 220_000);
    }

    #[test]
    fn can_afford_looks_at_all_downstream_layers() {
        let mut ledger = AibLedger::new(3, ms(100), ms(0));
        // Drain layer 2 down to 10 ms of headroom.
        ledger.charge(2, ms(190));
        // Layer 0 budget is 0: can't afford anything there.
        assert!(!ledger.can_afford(0, ms(1)));
        // Layer 1 has 100 ms but charging >10 ms would break layer 2.
        assert!(ledger.can_afford(1, ms(10)));
        assert!(!ledger.can_afford(1, ms(11)));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        let _ = AibLedger::new(0, ms(1), ms(0));
    }
}
