//! Multi-user interactive applications (§3.2): QoE thresholds.
//!
//! The paper argues that for "meetup server" workloads the group's
//! worst-case latency must clear an application-specific threshold.

use serde::{Deserialize, Serialize};

/// Latency requirements for interactive application classes (RTT, ms).
/// Bands follow the paper's citations: first-person gaming degrades
/// beyond ~100 ms; AR/VR co-immersion needs small tens of ms; haptic
/// "Tactile Internet" loops need ~25 ms or less end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppClass {
    /// First-person / competitive online gaming.
    Gaming,
    /// Augmented/virtual reality co-immersion.
    ArVr,
    /// Real-time haptic feedback (tactile internet).
    Haptic,
    /// Collaborative music performance (ensemble latency tolerance).
    Music,
}

impl AppClass {
    /// Maximum acceptable group RTT, milliseconds.
    pub fn max_rtt_ms(self) -> f64 {
        match self {
            AppClass::Gaming => 100.0,
            AppClass::ArVr => 50.0,
            AppClass::Haptic => 25.0,
            AppClass::Music => 30.0,
        }
    }

    /// All classes, for sweeps.
    pub fn all() -> [AppClass; 4] {
        [
            AppClass::Gaming,
            AppClass::ArVr,
            AppClass::Haptic,
            AppClass::Music,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_core::{InOrbitService, Policy, SessionConfig};
    use leo_geo::Geodetic;
    use leo_net::routing::GroundEndpoint;

    fn west_africa() -> Vec<GroundEndpoint> {
        vec![
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
            GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
        ]
    }

    #[test]
    fn thresholds_are_ordered_by_strictness() {
        assert!(AppClass::Haptic.max_rtt_ms() < AppClass::ArVr.max_rtt_ms());
        assert!(AppClass::ArVr.max_rtt_ms() < AppClass::Gaming.max_rtt_ms());
    }

    #[test]
    fn west_africa_meets_even_the_haptic_budget_in_orbit() {
        // §3.2's argument: in-orbit meetup servers unlock latency classes
        // terrestrial servers cannot reach for this group (46 ms hybrid
        // fails AR/haptics; the in-orbit server meets them).
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            start_s: 0.0,
            duration_s: 300.0,
            tick_s: 10.0,
        };
        let r = leo_core::session::run_session(&service, &west_africa(), Policy::MinMax, &cfg);
        // Fraction of the session's RTT samples within the class's budget.
        let met = |class: AppClass| {
            let ok = r
                .rtt_samples
                .iter()
                .filter(|&&(_, rtt)| rtt <= class.max_rtt_ms())
                .count();
            ok as f64 / r.rtt_samples.len() as f64
        };
        assert!(met(AppClass::Haptic) > 0.9);
        assert!(met(AppClass::Gaming) == 1.0);
    }
}
