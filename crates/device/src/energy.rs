//! Energy accounting over pipeline timelines.
//!
//! The paper discusses energy qualitatively (§7.2): STI should cost notably
//! more than low-accuracy baselines (it keeps both IO and compute busy) but
//! only moderately more than similar-accuracy preload baselines, because
//! active compute dominates and similar accuracy implies similar FLOPs,
//! while IO adds marginal power on an already-active SoC. This module makes
//! that discussion quantitative: a three-state power model integrated over a
//! schedule.

use crate::clock::SimTime;

/// Average power draw (milliwatts) of the SoC in each pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerModel {
    /// Power while the compute channel is busy (FLOPs are the major
    /// consumer, §7.2).
    pub compute_mw: u64,
    /// *Additional* power while the IO channel streams (marginal on an
    /// active SoC).
    pub io_mw: u64,
    /// Baseline power while the engagement is active but a channel idles.
    pub idle_mw: u64,
}

impl PowerModel {
    /// A mobile-SoC-flavored default: compute-dominated, IO marginal.
    pub fn mobile_soc() -> Self {
        Self { compute_mw: 4_000, io_mw: 600, idle_mw: 800 }
    }

    /// Energy (millijoules) of an execution described by its makespan,
    /// total busy compute time, and total busy IO time.
    ///
    /// `E = idle·makespan + (compute − idle)·t_comp + io·t_io`
    ///
    /// # Panics
    ///
    /// Panics if the busy times exceed the makespan (an inconsistent
    /// schedule).
    pub fn energy_mj(&self, makespan: SimTime, compute_busy: SimTime, io_busy: SimTime) -> f64 {
        assert!(compute_busy <= makespan, "compute busy time exceeds makespan");
        assert!(io_busy <= makespan, "io busy time exceeds makespan");
        let s = |t: SimTime| t.as_secs();
        self.idle_mw as f64 * s(makespan)
            + (self.compute_mw.saturating_sub(self.idle_mw)) as f64 * s(compute_busy)
            + self.io_mw as f64 * s(io_busy)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::mobile_soc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn compute_dominates_energy() {
        let p = PowerModel::mobile_soc();
        let compute_heavy = p.energy_mj(ms(400), ms(380), ms(50));
        let io_heavy = p.energy_mj(ms(400), ms(50), ms(380));
        assert!(compute_heavy > 2.0 * io_heavy);
    }

    #[test]
    fn longer_makespans_cost_idle_power() {
        let p = PowerModel::mobile_soc();
        let short = p.energy_mj(ms(200), ms(100), ms(100));
        let long = p.energy_mj(ms(400), ms(100), ms(100));
        assert!(long > short);
        let delta = long - short;
        assert!((delta - p.idle_mw as f64 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn known_value() {
        let p = PowerModel { compute_mw: 1000, io_mw: 100, idle_mw: 200 };
        // 1s makespan all idle = 200 mJ; +0.5s compute upgrade = +400; +0.5s io = +50.
        let e = p.energy_mj(SimTime::from_ms(1000), ms(500), ms(500));
        assert!((e - 650.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds makespan")]
    fn rejects_inconsistent_schedules() {
        let _ = PowerModel::mobile_soc().energy_mj(ms(100), ms(200), ms(0));
    }
}
