//! Unit newtypes for the energy, power and time arithmetic in the models.
//!
//! The energy evaluation of the paper mixes quantities from several sources
//! (IDD currents in mA, SRAM leakage in mW, EBDI energy in pJ, times in ns
//! and ms). These newtypes make the units part of the type so conversions
//! are explicit and cannot silently go wrong.
//!
//! # Examples
//!
//! ```
//! use zr_types::units::{Milliwatts, Nanoseconds, Picojoules};
//!
//! let leakage = Milliwatts(2.71);
//! let window = Nanoseconds::from_millis(32.0);
//! let spent: Picojoules = leakage * window;
//! assert!((spent.0 - 2.71e-3 * 32.0e-3 * 1e12).abs() < 1e-3);
//! ```

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An energy quantity in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picojoules(pub f64);

/// A power quantity in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Milliwatts(pub f64);

/// A time quantity in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanoseconds(pub f64);

impl Picojoules {
    /// Zero energy.
    pub const ZERO: Picojoules = Picojoules(0.0);

    /// Converts to millijoules.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_types::units::Picojoules;
    /// assert_eq!(Picojoules(1e9).to_millijoules(), 1.0);
    /// ```
    pub fn to_millijoules(self) -> f64 {
        self.0 * 1e-9
    }
}

impl Milliwatts {
    /// Zero power.
    pub const ZERO: Milliwatts = Milliwatts(0.0);

    /// Builds a power value from watts.
    pub fn from_watts(w: f64) -> Self {
        Milliwatts(w * 1e3)
    }
}

impl Nanoseconds {
    /// Zero duration.
    pub const ZERO: Nanoseconds = Nanoseconds(0.0);

    /// Builds a duration from milliseconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_types::units::Nanoseconds;
    /// assert_eq!(Nanoseconds::from_millis(1.0).0, 1e6);
    /// ```
    pub fn from_millis(ms: f64) -> Self {
        Nanoseconds(ms * 1e6)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Nanoseconds(us * 1e3)
    }

    /// Converts to seconds.
    pub fn to_seconds(self) -> f64 {
        self.0 * 1e-9
    }

    /// Converts to milliseconds.
    pub fn to_millis(self) -> f64 {
        self.0 * 1e-6
    }
}

impl Add for Picojoules {
    type Output = Picojoules;
    fn add(self, rhs: Self) -> Self {
        Picojoules(self.0 + rhs.0)
    }
}

impl AddAssign for Picojoules {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Picojoules {
    type Output = Picojoules;
    fn sub(self, rhs: Self) -> Self {
        Picojoules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Picojoules {
    type Output = Picojoules;
    fn mul(self, rhs: f64) -> Self {
        Picojoules(self.0 * rhs)
    }
}

impl Div<Picojoules> for Picojoules {
    type Output = f64;
    fn div(self, rhs: Picojoules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Picojoules {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Picojoules::ZERO, Add::add)
    }
}

impl Add for Milliwatts {
    type Output = Milliwatts;
    fn add(self, rhs: Self) -> Self {
        Milliwatts(self.0 + rhs.0)
    }
}

impl AddAssign for Milliwatts {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Milliwatts {
    type Output = Milliwatts;
    fn sub(self, rhs: Self) -> Self {
        Milliwatts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Milliwatts {
    type Output = Milliwatts;
    fn mul(self, rhs: f64) -> Self {
        Milliwatts(self.0 * rhs)
    }
}

impl Sum for Milliwatts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Milliwatts::ZERO, Add::add)
    }
}

/// Power × time = energy: `mW · ns = pJ` exactly (1e-3 W · 1e-9 s = 1e-12 J).
impl Mul<Nanoseconds> for Milliwatts {
    type Output = Picojoules;
    fn mul(self, rhs: Nanoseconds) -> Picojoules {
        Picojoules(self.0 * rhs.0)
    }
}

/// Energy ÷ time = power.
impl Div<Nanoseconds> for Picojoules {
    type Output = Milliwatts;
    fn div(self, rhs: Nanoseconds) -> Milliwatts {
        Milliwatts(self.0 / rhs.0)
    }
}

impl Add for Nanoseconds {
    type Output = Nanoseconds;
    fn add(self, rhs: Self) -> Self {
        Nanoseconds(self.0 + rhs.0)
    }
}

impl AddAssign for Nanoseconds {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanoseconds {
    type Output = Nanoseconds;
    fn sub(self, rhs: Self) -> Self {
        Nanoseconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Nanoseconds {
    type Output = Nanoseconds;
    fn mul(self, rhs: f64) -> Self {
        Nanoseconds(self.0 * rhs)
    }
}

impl Sum for Nanoseconds {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Nanoseconds::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        // 1 mW for 1 ms = 1 uJ = 1e6 pJ.
        let e = Milliwatts(1.0) * Nanoseconds::from_millis(1.0);
        assert!((e.0 - 1e6).abs() < 1e-9);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Picojoules(1e6) / Nanoseconds::from_millis(1.0);
        assert!((p.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sums_work() {
        let total: Picojoules = [Picojoules(1.0), Picojoules(2.0), Picojoules(3.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Picojoules(6.0));
        let t: Nanoseconds = [Nanoseconds(4.0), Nanoseconds(6.0)].into_iter().sum();
        assert_eq!(t, Nanoseconds(10.0));
    }

    #[test]
    fn conversions_round_trip() {
        assert!((Picojoules(5e9).to_millijoules() - 5.0).abs() < 1e-12);
        assert!((Nanoseconds::from_millis(32.0).to_seconds() - 0.032).abs() < 1e-15);
        assert!((Milliwatts::from_watts(0.337).0 - 337.0).abs() < 1e-9);
        assert!((Nanoseconds::from_micros(7.8).0 - 7800.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_identities() {
        assert_eq!(Picojoules(3.0) - Picojoules(1.0), Picojoules(2.0));
        assert_eq!(Picojoules(3.0) * 2.0, Picojoules(6.0));
        assert_eq!(Milliwatts(3.0) - Milliwatts(1.0), Milliwatts(2.0));
        assert!((Picojoules(6.0) / Picojoules(3.0) - 2.0).abs() < 1e-12);
    }
}
