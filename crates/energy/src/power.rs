//! A Micron-power-calculator-style DDR4 device power model (§III-A,
//! Fig. 4).
//!
//! Fig. 4 of the paper shows the refresh share of device power growing
//! with density, computed with the Micron DDR4 system-power calculator at
//! 8% read / 2% write cycle utilization. We rebuild the same analysis from
//! the Table II IDD currents: each power component is an
//! `(IDD_x - IDD_background) * VDD * duty` term, and the refresh duty is
//! `tRFC(density) / tREFI(temperature)`. Refresh cycle times per density
//! follow JEDEC values up to 16 Gb and the standard projections used by
//! the refresh literature beyond that.

use zr_types::units::Milliwatts;
use zr_types::{IddParams, TemperatureMode};

/// Read/write bus utilization assumed by the paper's Fig. 4 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityProfile {
    /// Fraction of clock cycles spent bursting reads.
    pub read_cycle_fraction: f64,
    /// Fraction of clock cycles spent bursting writes.
    pub write_cycle_fraction: f64,
    /// Fraction of time a row is open (activate/precharge activity).
    pub activate_fraction: f64,
}

impl ActivityProfile {
    /// The paper's profile: 8% read cycles, 2% write cycles.
    pub fn paper_default() -> Self {
        ActivityProfile {
            read_cycle_fraction: 0.08,
            write_cycle_fraction: 0.02,
            activate_fraction: 0.10,
        }
    }
}

impl Default for ActivityProfile {
    fn default() -> Self {
        ActivityProfile::paper_default()
    }
}

/// Power breakdown of one DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Standby/background power.
    pub background: Milliwatts,
    /// Activate/precharge power.
    pub activate: Milliwatts,
    /// Read burst power.
    pub read: Milliwatts,
    /// Write burst power.
    pub write: Milliwatts,
    /// Refresh power.
    pub refresh: Milliwatts,
}

impl PowerBreakdown {
    /// Total device power.
    pub fn total(&self) -> Milliwatts {
        self.background + self.activate + self.read + self.write + self.refresh
    }

    /// Refresh share of the total (0..1).
    pub fn refresh_share(&self) -> f64 {
        self.refresh.0 / self.total().0
    }
}

/// The IDD-based device power model.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePowerModel {
    idd: IddParams,
    activity: ActivityProfile,
}

impl DevicePowerModel {
    /// Builds the model from IDD currents and an activity profile.
    pub fn new(idd: IddParams, activity: ActivityProfile) -> Self {
        DevicePowerModel { idd, activity }
    }

    /// The paper's model: Table II currents, 8%/2% activity.
    pub fn paper_default() -> Self {
        DevicePowerModel::new(IddParams::paper_default(), ActivityProfile::paper_default())
    }

    /// Refresh cycle time (ns) for a device of `density_gbit` gigabits.
    ///
    /// JEDEC DDR4 values through 16 Gb; 32/64 Gb use the projections
    /// common in the refresh-reduction literature.
    ///
    /// # Panics
    ///
    /// Panics if `density_gbit` is not one of 2, 4, 8, 16, 32 or 64.
    pub fn t_rfc_ns(density_gbit: u32) -> f64 {
        match density_gbit {
            2 => 160.0,
            4 => 260.0,
            8 => 350.0,
            16 => 550.0,
            32 => 1000.0,
            64 => 1900.0,
            other => panic!("unsupported device density: {other} Gb"),
        }
    }

    /// Power breakdown for one device of `density_gbit` at `temperature`.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_energy::power::DevicePowerModel;
    /// use zr_types::TemperatureMode;
    ///
    /// let model = DevicePowerModel::paper_default();
    /// let normal = model.breakdown(16, TemperatureMode::Normal);
    /// let hot = model.breakdown(16, TemperatureMode::Extended);
    /// // Halving the retention window doubles refresh power.
    /// assert!(hot.refresh.0 > 1.9 * normal.refresh.0);
    /// ```
    pub fn breakdown(&self, density_gbit: u32, temperature: TemperatureMode) -> PowerBreakdown {
        let vdd = self.idd.vdd;
        let bg = self.idd.idd2n * vdd;
        let act = (self.idd.idd0 - self.idd.idd2n).max(0.0) * vdd * self.activity.activate_fraction;
        let rd =
            (self.idd.idd4r - self.idd.idd2n).max(0.0) * vdd * self.activity.read_cycle_fraction;
        let wr =
            (self.idd.idd4w - self.idd.idd2n).max(0.0) * vdd * self.activity.write_cycle_fraction;
        let refresh_duty = Self::t_rfc_ns(density_gbit) / temperature.t_refi().0;
        let refresh = (self.idd.idd5 - self.idd.idd2n).max(0.0) * vdd * refresh_duty;
        PowerBreakdown {
            background: Milliwatts(bg),
            activate: Milliwatts(act),
            read: Milliwatts(rd),
            write: Milliwatts(wr),
            refresh: Milliwatts(refresh),
        }
    }
}

impl Default for DevicePowerModel {
    fn default() -> Self {
        DevicePowerModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_share_grows_with_density() {
        let m = DevicePowerModel::paper_default();
        let shares = [2, 4, 8, 16, 32, 64]
            .map(|d| m.breakdown(d, TemperatureMode::Extended).refresh_share());
        for pair in shares.windows(2) {
            assert!(pair[1] > pair[0], "share must grow: {pair:?}");
        }
    }

    #[test]
    fn extended_temperature_doubles_refresh_power() {
        let m = DevicePowerModel::paper_default();
        for d in [4, 8, 16] {
            let n = m.breakdown(d, TemperatureMode::Normal).refresh;
            let e = m.breakdown(d, TemperatureMode::Extended).refresh;
            assert!((e.0 / n.0 - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn high_density_hot_devices_are_refresh_dominated() {
        // Fig. 4's headline: at short retention and high density, refresh
        // approaches (and passes) half of the device power.
        let m = DevicePowerModel::paper_default();
        let b16 = m.breakdown(16, TemperatureMode::Extended);
        assert!(b16.refresh_share() > 0.40, "share {}", b16.refresh_share());
        let b32 = m.breakdown(32, TemperatureMode::Extended);
        assert!(b32.refresh_share() > 0.5, "share {}", b32.refresh_share());
    }

    #[test]
    fn low_density_cool_devices_are_not() {
        let m = DevicePowerModel::paper_default();
        let b = m.breakdown(2, TemperatureMode::Normal);
        assert!(b.refresh_share() < 0.15, "share {}", b.refresh_share());
    }

    #[test]
    fn totals_add_up() {
        let m = DevicePowerModel::paper_default();
        let b = m.breakdown(8, TemperatureMode::Normal);
        let sum = b.background.0 + b.activate.0 + b.read.0 + b.write.0 + b.refresh.0;
        assert!((b.total().0 - sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn unknown_density_panics() {
        DevicePowerModel::t_rfc_ns(3);
    }
}
