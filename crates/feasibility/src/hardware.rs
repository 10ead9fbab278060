//! Reference hardware specifications.
//!
//! The paper's §4 analysis is anchored on two concrete artifacts:
//!
//! * the **HPE ProLiant DL325 Gen10** server (64 cores at 2.4–3.35 GHz,
//!   up to 2 TB memory, 15.6 kg, 1U) — the commodity server whose weight,
//!   volume, power, and cost are compared against the satellite bus;
//! * the **Starlink v1.0** satellite (~260 kg, flat-panel bus with a
//!   single solar array; average available solar power estimated around
//!   1.5 kW in the paper's cited community analysis).

use serde::{Deserialize, Serialize};

/// A commodity server's physical and electrical envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Model name.
    pub name: String,
    /// Mass, kilograms.
    pub mass_kg: f64,
    /// Bounding volume, cubic meters.
    pub volume_m3: f64,
    /// Typical operating power draw, watts.
    pub typical_power_w: f64,
    /// Peak operating power draw, watts.
    pub peak_power_w: f64,
    /// CPU core count.
    pub cores: u32,
    /// Maximum memory, gigabytes.
    pub max_memory_gb: u32,
}

impl ServerSpec {
    /// The HPE ProLiant DL325 Gen10 used throughout §4.
    ///
    /// 1U chassis: 4.29 cm (H) × 43.46 cm (W) × 70.7 cm (D) ≈ 0.0132 m³;
    /// 15.6 kg per the QuickSpecs the paper cites; the paper analyzes
    /// operating points of 225 W and 350 W.
    pub fn hpe_dl325_gen10() -> Self {
        ServerSpec {
            name: "HPE ProLiant DL325 Gen10".into(),
            mass_kg: 15.6,
            volume_m3: 0.0429 * 0.4346 * 0.707,
            typical_power_w: 225.0,
            peak_power_w: 350.0,
            cores: 64,
            max_memory_gb: 2048,
        }
    }
}

/// A satellite bus's physical envelope and power system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatelliteBus {
    /// Bus name.
    pub name: String,
    /// Mass, kilograms.
    pub mass_kg: f64,
    /// Bus volume (stowed), cubic meters.
    pub volume_m3: f64,
    /// Orbit-average available solar power, watts.
    pub avg_solar_power_w: f64,
    /// Design life, years.
    pub design_life_years: f64,
    /// Operating altitude, meters.
    pub altitude_m: f64,
}

impl SatelliteBus {
    /// The Starlink v1.0 satellite: ~260 kg, flat-panel bus roughly
    /// 2.8 m × 1.4 m × 0.32 m stowed (≈ 1.25 m³), ~1.5 kW average solar
    /// output (the paper's estimate from array size and ISS solar
    /// efficiency), 5-year design life, 550 km.
    pub fn starlink_v1() -> Self {
        SatelliteBus {
            name: "Starlink v1.0".into(),
            mass_kg: 260.0,
            volume_m3: 2.8 * 1.4 * 0.32,
            avg_solar_power_w: 1500.0,
            design_life_years: 5.0,
            altitude_m: 550e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl325_matches_the_quickspecs_the_paper_cites() {
        let s = ServerSpec::hpe_dl325_gen10();
        assert_eq!(s.mass_kg, 15.6);
        assert_eq!(s.cores, 64);
        assert_eq!(s.max_memory_gb, 2048);
        assert!((s.volume_m3 - 0.0132).abs() < 0.001);
    }

    #[test]
    fn starlink_bus_matches_paper_assumptions() {
        let b = SatelliteBus::starlink_v1();
        assert_eq!(b.mass_kg, 260.0);
        assert_eq!(b.avg_solar_power_w, 1500.0);
        assert_eq!(b.design_life_years, 5.0);
    }
}
