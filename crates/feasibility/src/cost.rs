//! Cost model (§4, "Cost").
//!
//! > "Based on the per-kilogram launch cost for the Falcon 9 rockets used
//! > for Starlink launches, and the 15.6 kg server weight, the cost of
//! > launching the server is ~42,000 USD. The per-server total cost of
//! > ownership for a data center is estimated to be roughly 5,000 USD per
//! > year. If we assume the satellite-server is also used for only
//! > 3 years instead of 5, then over 3 years, a coarse estimate for a
//! > satellite-server would be roughly 3× as expensive as a data center
//! > server."

use crate::hardware::ServerSpec;
use serde::{Deserialize, Serialize};

/// Falcon 9 cost per kilogram to LEO, USD (≈ $62 M list price over
/// ~22,800 kg to LEO — the figure behind the paper's 42 k USD).
pub const FALCON9_USD_PER_KG: f64 = 2_720.0;

/// Terrestrial per-server total cost of ownership, USD per year (Koomey
/// et al. as cited by the paper).
pub const DATACENTER_TCO_USD_PER_YEAR: f64 = 5_000.0;

/// Cost-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Launch cost per kilogram, USD.
    pub launch_usd_per_kg: f64,
    /// Terrestrial TCO per server-year, USD.
    pub terrestrial_tco_usd_per_year: f64,
    /// Comparison horizon, years (paper: 3).
    pub horizon_years: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            launch_usd_per_kg: FALCON9_USD_PER_KG,
            terrestrial_tco_usd_per_year: DATACENTER_TCO_USD_PER_YEAR,
            horizon_years: 3.0,
        }
    }
}

/// The cost comparison the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostComparison {
    /// Cost of launching the server's mass, USD.
    pub launch_cost_usd: f64,
    /// Terrestrial TCO over the horizon, USD.
    pub terrestrial_cost_usd: f64,
    /// Ratio satellite / terrestrial (paper: ~3×).
    pub cost_ratio: f64,
}

impl CostModel {
    /// Compares one satellite-server against a terrestrial server over
    /// the horizon. As in the paper, the orbital side counts the launch
    /// cost of the server's mass (the server hardware itself being "much
    /// cheaper than the cost of launching its weight").
    pub fn compare(&self, server: &ServerSpec) -> CostComparison {
        let launch = server.mass_kg * self.launch_usd_per_kg;
        let terrestrial = self.terrestrial_tco_usd_per_year * self.horizon_years;
        CostComparison {
            launch_cost_usd: launch,
            terrestrial_cost_usd: terrestrial,
            cost_ratio: launch / terrestrial,
        }
    }

    /// Launch cost of fitting the whole constellation with servers, USD.
    pub fn fleet_launch_cost_usd(&self, server: &ServerSpec, fleet_size: usize) -> f64 {
        server.mass_kg * self.launch_usd_per_kg * fleet_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launching_the_dl325_costs_about_42k_usd() {
        let c = CostModel::default().compare(&ServerSpec::hpe_dl325_gen10());
        assert!(
            (41_000.0..44_000.0).contains(&c.launch_cost_usd),
            "{}",
            c.launch_cost_usd
        );
    }

    #[test]
    fn three_year_ratio_is_about_3x() {
        let c = CostModel::default().compare(&ServerSpec::hpe_dl325_gen10());
        assert_eq!(c.terrestrial_cost_usd, 15_000.0);
        assert!((2.5..3.2).contains(&c.cost_ratio), "{}", c.cost_ratio);
    }

    #[test]
    fn outfitting_starlink_phase1_costs_under_200m_usd() {
        // 4,409 × 42.4 k ≈ 187 M USD — small next to constellation capex,
        // which is the paper's implicit point.
        let fleet =
            CostModel::default().fleet_launch_cost_usd(&ServerSpec::hpe_dl325_gen10(), 4409);
        assert!((150e6..210e6).contains(&fleet), "{fleet}");
    }

    #[test]
    fn cheaper_launch_closes_the_gap() {
        // Starship-class pricing (~$100/kg aspiration) would make the
        // orbital server cheaper than the terrestrial TCO.
        let model = CostModel {
            launch_usd_per_kg: 100.0,
            ..CostModel::default()
        };
        let c = model.compare(&ServerSpec::hpe_dl325_gen10());
        assert!(c.cost_ratio < 0.2, "{}", c.cost_ratio);
    }
}
