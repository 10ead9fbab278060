//! Life-cycle and fleet-survival model (§4, "Life-cycle").
//!
//! > "Starlink satellites will have a life of ~5 years. This is a bit
//! > longer than the typical data center server life of 3 years. Of
//! > course, if a satellite-server malfunctions before its expected life,
//! > unlike in a data center, it would not be replaced immediately.
//! > However, operators continually replenish their satellite fleet (…)
//! > Thus, even with a substantial fraction of servers failing, a large
//! > LEO constellation could continue to provide valuable in-orbit
//! > computing resources."
//!
//! The model: servers fail exponentially with a constant annual rate and
//! are never repaired in orbit; satellites retire at their design life
//! and are replaced by fresh ones (steady-state replenishment). The
//! steady-state fraction of satellites with a *working* server follows in
//! closed form; a test cross-checks it against a deterministic fleet
//! simulation.

use serde::{Deserialize, Serialize};

/// Reliability parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityParams {
    /// Annual server failure rate λ (fraction/year). Data-center AFRs run
    /// 2–8 %; space adds radiation-induced faults, so 5–15 % is the band
    /// worth studying.
    pub annual_failure_rate: f64,
    /// Satellite design life, years (Starlink: 5).
    pub satellite_life_years: f64,
}

impl ReliabilityParams {
    /// Steady-state fraction of the fleet with a working server, under
    /// uniform-age replenishment: the fleet's ages are uniform on
    /// `[0, L]`, so the working fraction is `∫₀ᴸ e^{−λt} dt / L
    /// = (1 − e^{−λL}) / (λL)`.
    pub fn steady_state_working_fraction(&self) -> f64 {
        let x = self.annual_failure_rate * self.satellite_life_years;
        if x < 1e-12 {
            1.0
        } else {
            (1.0 - (-x).exp()) / x
        }
    }

    /// Working servers in a constellation of `fleet_size` satellites at
    /// steady state.
    pub fn working_servers(&self, fleet_size: usize) -> f64 {
        fleet_size as f64 * self.steady_state_working_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn starlink(rate: f64) -> ReliabilityParams {
        ReliabilityParams {
            annual_failure_rate: rate,
            satellite_life_years: 5.0,
        }
    }

    #[test]
    fn zero_failure_rate_keeps_the_whole_fleet() {
        let p = starlink(0.0);
        assert_eq!(p.steady_state_working_fraction(), 1.0);
    }

    #[test]
    fn ten_percent_afr_keeps_about_79_percent_of_the_fleet() {
        // (1 − e^{−0.5}) / 0.5 ≈ 0.787: even a harsh 10 %/yr failure rate
        // keeps ~4/5 of servers working — the paper's qualitative claim.
        let f = starlink(0.10).steady_state_working_fraction();
        assert!((f - 0.787).abs() < 0.005, "{f}");
    }

    /// Deterministic fleet simulation: a fleet of `n` satellites with ages
    /// spread uniformly, each alive with its survival probability
    /// `e^{−λ·age}`; returns the expected working fraction.
    fn simulate_fleet_fraction(p: &ReliabilityParams, n: usize) -> f64 {
        assert!(n > 0);
        let mut total = 0.0;
        for i in 0..n {
            // Satellite i's age is uniformly placed in [0, L).
            let age = (i as f64 + 0.5) / n as f64 * p.satellite_life_years;
            total += (-p.annual_failure_rate * age).exp();
        }
        total / n as f64
    }

    #[test]
    fn closed_form_matches_the_fleet_simulation() {
        for rate in [0.02, 0.05, 0.10, 0.20] {
            let p = starlink(rate);
            let closed = p.steady_state_working_fraction();
            let sim = simulate_fleet_fraction(&p, 100_000);
            assert!(
                (closed - sim).abs() < 1e-4,
                "rate {rate}: closed {closed} vs sim {sim}"
            );
        }
    }

    #[test]
    fn starlink_scale_fleet_retains_thousands_of_servers() {
        // 4,409 satellites at 10 %/yr AFR → ~3,470 working servers: still
        // only ~7× smaller than Akamai per the paper's comparison.
        let working = starlink(0.10).working_servers(4409);
        assert!(working > 3400.0, "{working}");
    }

    proptest! {
        #[test]
        fn prop_working_fraction_decreases_with_failure_rate(
            r1 in 0.001..0.5f64,
            dr in 0.001..0.5f64,
        ) {
            let lo = starlink(r1 + dr).steady_state_working_fraction();
            let hi = starlink(r1).steady_state_working_fraction();
            prop_assert!(lo < hi);
        }

        #[test]
        fn prop_fraction_is_a_probability(r in 0.0..1.0f64, life in 1.0..10.0f64) {
            let p = ReliabilityParams { annual_failure_rate: r, satellite_life_years: life };
            let f = p.steady_state_working_fraction();
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}
