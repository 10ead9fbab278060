//! Weight and volume budgets (§4, "Weight and volume").
//!
//! > "Compared to the latest Starlink satellites launched, the weight is
//! > 6 % of a satellite's weight, and the volume is 1 %. These are
//! > significant costs, but not prohibitive."

use crate::hardware::{SatelliteBus, ServerSpec};
use serde::{Deserialize, Serialize};

/// Mass/volume impact of adding a server to a satellite bus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MassBudget {
    /// Server mass as a fraction of the bus mass.
    pub mass_fraction: f64,
    /// Server volume as a fraction of the bus volume.
    pub volume_fraction: f64,
    /// Combined mass, kilograms.
    pub total_mass_kg: f64,
}

impl MassBudget {
    /// Computes the budget for one server on one bus.
    pub fn compute(server: &ServerSpec, bus: &SatelliteBus) -> Self {
        MassBudget {
            mass_fraction: server.mass_kg / bus.mass_kg,
            volume_fraction: server.volume_m3 / bus.volume_m3,
            total_mass_kg: server.mass_kg + bus.mass_kg,
        }
    }

    /// How many fewer satellites fit per launch when each carries a
    /// server, for a launcher with `payload_kg` capacity (the paper's
    /// remark that extra components "may result in fewer satellites per
    /// launch"). Returns `(without_server, with_server)`.
    pub fn satellites_per_launch(
        server: &ServerSpec,
        bus: &SatelliteBus,
        payload_kg: f64,
    ) -> (u32, u32) {
        let without = (payload_kg / bus.mass_kg).floor() as u32;
        let with = (payload_kg / (bus.mass_kg + server.mass_kg)).floor() as u32;
        (without, with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_fractions_hold() {
        let b = MassBudget::compute(&ServerSpec::hpe_dl325_gen10(), &SatelliteBus::starlink_v1());
        // Paper: 6 % weight, 1 % volume.
        assert!(
            (b.mass_fraction - 0.06).abs() < 0.005,
            "{}",
            b.mass_fraction
        );
        assert!(
            (b.volume_fraction - 0.01).abs() < 0.003,
            "{}",
            b.volume_fraction
        );
    }

    #[test]
    fn falcon9_loses_a_few_satellites_per_launch() {
        // Starlink launches carry 60 satellites; with 15.6 kg servers the
        // same mass budget carries ~56.
        let (without, with) = MassBudget::satellites_per_launch(
            &ServerSpec::hpe_dl325_gen10(),
            &SatelliteBus::starlink_v1(),
            15_600.0,
        );
        assert_eq!(without, 60);
        assert!((55..60).contains(&with), "{with}");
    }
}
