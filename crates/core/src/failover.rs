//! Server failure model: deterministic deaths on an unreliable fleet.
//!
//! §4 ("Life-cycle"): *"if a satellite-server malfunctions before its
//! expected life, unlike in a data center, it would not be replaced
//! immediately."* §5's virtual stationarity must therefore survive not
//! just orbital hand-offs but *server deaths mid-session*. This module
//! draws each server's death time; [`FailureModel::schedule`] lowers the
//! draws into a [`leo_net::FailureSchedule`], and a service built with
//! [`InOrbitService::with_faults`](crate::InOrbitService::with_faults)
//! masks the dead out of every query. A session on a failing fleet is
//! plain [`run_session`](crate::session::run_session) on such a service.
//!
//! Failure times are sampled per satellite from `Exp(λ)` using the same
//! SplitMix64 generator as every other stochastic piece of the
//! reproduction, keyed by `(seed, satellite id)` — so runs are exactly
//! repeatable and adding satellites does not reshuffle existing draws.

use leo_cities::synth::SplitMix64;
use leo_constellation::SatId;
use serde::{Deserialize, Serialize};

/// Server failure model for a session run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Annual failure rate λ, fraction per year. Real servers are a few
    /// percent; tests exaggerate to make failures land inside short
    /// sessions.
    pub annual_failure_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FailureModel {
    /// The deterministic failure time of a satellite's server, in
    /// seconds after the epoch (`INFINITY` effectively, when the draw
    /// lands beyond any simulated horizon).
    fn failure_time_s(&self, sat: SatId) -> f64 {
        if self.annual_failure_rate <= 0.0 {
            return f64::INFINITY;
        }
        let mut rng = SplitMix64::new(
            self.seed ^ (0x9E37_79B9 ^ u64::from(sat.0)).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        // Exponential draw: −ln(U)/λ years → seconds.
        let u = rng.next_f64().max(1e-18);
        let years = -u.ln() / self.annual_failure_rate;
        years * 365.25 * 86_400.0
    }

    /// True when the satellite's server is still alive at time `t`.
    pub fn alive(&self, sat: SatId, t: f64) -> bool {
        t < self.failure_time_s(sat)
    }

    /// Lowers this model into a [`leo_net::FailureSchedule`] over the
    /// first `num_sats` satellites — the bridge from the failure model to
    /// the network-layer fault plan. Handed to
    /// [`InOrbitService::with_faults`](crate::InOrbitService::with_faults),
    /// the schedule masks each server out of routing, visibility,
    /// attachment, and sessions from its death time on.
    pub fn schedule(&self, num_sats: usize) -> leo_net::FailureSchedule {
        leo_net::FailureSchedule::from_death_times(
            (0..num_sats)
                .map(|i| self.failure_time_s(SatId(i as u32)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_times_are_deterministic_and_exponentialish() {
        let m = FailureModel {
            annual_failure_rate: 0.1,
            seed: 7,
        };
        assert_eq!(m.failure_time_s(SatId(3)), m.failure_time_s(SatId(3)));
        assert_ne!(m.failure_time_s(SatId(3)), m.failure_time_s(SatId(4)));
        // Mean of Exp(0.1/yr) is 10 years; sample mean over many sats
        // should land within a factor of ~1.5.
        let n = 2000;
        let mean_years: f64 = (0..n)
            .map(|i| m.failure_time_s(SatId(i)) / (365.25 * 86_400.0))
            .sum::<f64>()
            / n as f64;
        assert!((6.5..15.0).contains(&mean_years), "mean {mean_years}");
    }

    #[test]
    fn schedule_bridge_agrees_with_the_model() {
        let m = FailureModel {
            annual_failure_rate: 500.0,
            seed: 9,
        };
        let sched = m.schedule(64);
        assert_eq!(sched.len(), 64);
        for i in 0..64u32 {
            let id = SatId(i);
            assert_eq!(sched.death_time_s(id), m.failure_time_s(id));
            for t in [0.0, 3600.0, 86_400.0, 1e9] {
                assert_eq!(sched.alive(id, t), m.alive(id, t), "sat {i} at t={t}");
            }
        }
        // Out-of-range satellites default to alive, matching a fleet that
        // grew after the schedule was drawn.
        assert!(sched.alive(SatId(64), 1e12));
    }

    #[test]
    fn zero_rate_never_fails() {
        let m = FailureModel {
            annual_failure_rate: 0.0,
            seed: 1,
        };
        assert!(m.alive(SatId(0), 1e12));
    }
}
