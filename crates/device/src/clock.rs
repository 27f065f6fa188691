//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point or span on the simulated timeline, in microseconds.
///
/// All experiment timing is computed over simulated time so results are
/// deterministic and independent of the host machine. Nothing maps a
/// simulated delay onto the wall clock: simulated IO and queueing never
/// sleep, so a host runs a simulated second as fast as it can compute it.
///
/// ```
/// use sti_device::SimTime;
///
/// let t = SimTime::from_ms(2) + SimTime::from_us(500);
/// assert_eq!(t.as_us(), 2_500);
/// assert!((t.as_ms() - 2.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub fn from_us(us: u64) -> Self {
        Self(us)
    }

    /// Creates a time from milliseconds.
    pub fn from_ms(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Creates a time from fractional milliseconds (rounded to µs).
    pub fn from_ms_f64(ms: f64) -> Self {
        assert!(ms >= 0.0 && ms.is_finite(), "time must be finite and non-negative");
        Self((ms * 1_000.0).round() as u64)
    }

    /// Microseconds.
    pub fn as_us(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition (clamps at `u64::MAX` µs).
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_sub(other.0).map(SimTime)
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Scales the time by a non-negative factor (used for DVFS levels).
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(factor >= 0.0 && factor.is_finite(), "scale factor must be finite and >= 0");
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow; use [`SimTime::saturating_sub`] or
    /// [`SimTime::checked_sub`] when the order is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflow"))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}s", self.as_secs())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", self.as_ms())
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ms(3).as_us(), 3_000);
        assert_eq!(SimTime::from_ms_f64(1.5).as_us(), 1_500);
        assert!((SimTime::from_us(2_500_000).as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_ms(2);
        let b = SimTime::from_ms(1);
        assert_eq!(a + b, SimTime::from_ms(3));
        assert_eq!(a - b, SimTime::from_ms(1));
        assert_eq!(a * 3, SimTime::from_ms(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_ms(1) - SimTime::from_ms(2);
    }

    #[test]
    fn sum_and_max() {
        let total: SimTime = [1, 2, 3].iter().map(|&ms| SimTime::from_ms(ms)).sum();
        assert_eq!(total, SimTime::from_ms(6));
        assert_eq!(SimTime::from_ms(1).max(SimTime::from_ms(2)), SimTime::from_ms(2));
    }

    #[test]
    fn scale_applies_dvfs_factor() {
        assert_eq!(SimTime::from_ms(100).scale(1.5), SimTime::from_ms(150));
        assert_eq!(SimTime::from_ms(100).scale(0.0), SimTime::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_us(3).to_string(), "3µs");
        assert_eq!(SimTime::from_ms(12).to_string(), "12.0ms");
        assert_eq!(SimTime::from_ms(2_500).to_string(), "2.50s");
    }
}
