//! Fault injection: outage masks over the network substrate.
//!
//! §4–§5 of the paper: satellite-servers die without immediate
//! replacement, and §6 notes weather interruptions on the ground–sat
//! links. The routing engine and visibility index are fault-blind on
//! their own; this module supplies the mask they consult so that dead
//! satellites and rain-faded access links never carry traffic or enter
//! candidate sets.
//!
//! The split mirrors the engine's compile/refresh split:
//!
//! * [`FaultConfig`] — the *scenario*: a deterministic per-satellite
//!   death schedule ([`FailureSchedule`]) and a rain fade on the ground
//!   segment ([`RainFade`]), the two fault kinds of §4–§6.
//!   Time-invariant, built once per run; [`FaultConfig::none`] is the
//!   no-fault scenario a plain service runs under.
//! * [`FaultPlan`] — the *instantaneous mask* the hot paths consume:
//!   which satellites are dead now, and the minimum elevation an access
//!   link needs to close through the rain ([`GroundFade`]). Built per
//!   snapshot by [`FaultConfig::plan_at`].
//!
//! Every visibility, attachment and weight-refresh entry point takes a
//! plan; there is no unmasked twin to call instead. A fault-free caller
//! passes [`FaultPlan::empty`], which masks nothing.

use crate::weather::{LinkBudget, RainClimate};
use leo_constellation::SatId;
use leo_geo::{look, Angle, Ecef};
use serde::{Deserialize, Serialize};

/// Deterministic per-satellite server death times, seconds after the
/// epoch (`INFINITY` = never dies). The schedule is the bridge between
/// a stochastic failure model (e.g. `leo-core`'s exponential draws) and
/// the per-instant [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSchedule {
    death_time_s: Vec<f64>,
}

impl FailureSchedule {
    /// A schedule from explicit death times (seconds; `INFINITY` = never).
    ///
    /// # Panics
    /// Panics when any death time is NaN.
    pub fn from_death_times(death_time_s: Vec<f64>) -> FailureSchedule {
        assert!(death_time_s.iter().all(|t| !t.is_nan()), "NaN death time");
        FailureSchedule { death_time_s }
    }

    /// Number of satellites covered.
    pub fn len(&self) -> usize {
        self.death_time_s.len()
    }

    /// True when the schedule covers no satellites.
    pub fn is_empty(&self) -> bool {
        self.death_time_s.is_empty()
    }

    /// The death time of one satellite's server, seconds (`INFINITY`
    /// when never, or when `sat` is outside the schedule).
    pub fn death_time_s(&self, sat: SatId) -> f64 {
        self.death_time_s
            .get(sat.0 as usize)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// True when the satellite's server is still alive at `t`.
    pub fn alive(&self, sat: SatId, t: f64) -> bool {
        t < self.death_time_s(sat)
    }
}

/// A rain scenario on the ground segment: one budget, one rain rate,
/// common-mode across every user (rain at a site hits all its links).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RainFade {
    /// The terminal's link budget.
    pub budget: LinkBudget,
    /// Rain rate the scenario holds, mm/h.
    pub rain_rate_mm_h: f64,
}

impl RainFade {
    /// A fade scenario at the rain rate a climate exceeds a fraction `p`
    /// of the time — e.g. `p = 0.005` is a solidly rainy episode.
    pub fn at_exceedance(budget: LinkBudget, climate: &RainClimate, p: f64) -> RainFade {
        RainFade {
            budget,
            rain_rate_mm_h: climate.rain_rate_at_exceedance(p),
        }
    }

    /// The access-link restriction this scenario imposes.
    ///
    /// # Panics
    /// Panics when the rain rate is NaN or negative, or the fade margin
    /// is not finite: every link test would then be false, and the
    /// scenario would silently become a total outage.
    pub fn ground_fade(&self) -> GroundFade {
        assert!(
            self.rain_rate_mm_h >= 0.0,
            "rain rate must be a non-negative number of mm/h, got {}",
            self.rain_rate_mm_h
        );
        assert!(
            self.budget.fade_margin_db.is_finite(),
            "fade margin must be finite, got {} dB",
            self.budget.fade_margin_db
        );
        match self.budget.min_surviving_elevation(self.rain_rate_mm_h) {
            None => GroundFade::Outage,
            Some(e) if e.radians() <= 0.0 => GroundFade::Clear,
            Some(e) => GroundFade::MinElevation(e),
        }
    }
}

/// The instantaneous state of the ground segment under rain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GroundFade {
    /// No restriction beyond each shell's own elevation mask.
    #[default]
    Clear,
    /// Links close only above this elevation (raises the effective mask
    /// where it exceeds the shell minimum).
    MinElevation(Angle),
    /// Not even a zenith link closes: the ground segment is down.
    Outage,
}

/// The per-instant outage mask the routing engine and visibility index
/// consume. Dense over satellites, cheap to probe on hot paths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `dead[sat]` — empty when no satellite is dead.
    dead: Vec<bool>,
    fade: GroundFade,
}

impl FaultPlan {
    /// The no-fault plan. Consumers treat it as a guaranteed no-op.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan masks nothing — the byte-identity fast path.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty() && self.fade == GroundFade::Clear
    }

    /// Marks a satellite's server dead (its ISLs and access links all
    /// drop, and it leaves every candidate set).
    pub fn kill(&mut self, sat: SatId) {
        let i = sat.0 as usize;
        if self.dead.len() <= i {
            self.dead.resize(i + 1, false);
        }
        self.dead[i] = true;
    }

    /// Imposes a ground-segment fade.
    pub fn set_ground_fade(&mut self, fade: GroundFade) {
        self.fade = fade;
    }

    /// True when the satellite's server is dead in this plan.
    pub fn sat_dead(&self, sat: SatId) -> bool {
        self.dead.get(sat.0 as usize).copied().unwrap_or(false)
    }

    /// True when an ISL between `a` and `b` cannot carry traffic: an
    /// endpoint is dead.
    pub fn isl_edge_masked(&self, a: SatId, b: SatId) -> bool {
        self.sat_dead(a) || self.sat_dead(b)
    }

    /// The ground-segment restriction in force.
    pub fn ground_fade(&self) -> GroundFade {
        self.fade
    }

    /// True when the *access link* from `ground_ecef` to a satellite at
    /// `sat_pos` is faded out by rain — independent of the shell's own
    /// elevation mask, which the caller has already applied, and of
    /// server death, which [`FaultPlan::sat_dead`] covers.
    pub fn access_link_masked(&self, ground_ecef: Ecef, sat_pos: Ecef) -> bool {
        match self.fade {
            GroundFade::Clear => false,
            GroundFade::Outage => true,
            GroundFade::MinElevation(e) => !look::is_visible_spherical(ground_ecef, sat_pos, e),
        }
    }
}

/// A fault scenario: the time-invariant description that yields a
/// [`FaultPlan`] per instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Per-satellite server death times, if any fail.
    pub schedule: Option<FailureSchedule>,
    /// Rain on the ground segment, if any.
    pub rain: Option<RainFade>,
}

impl FaultConfig {
    /// A scenario with no faults at all: every plan it yields is
    /// [`FaultPlan::empty`]. A plain service runs under it.
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// The outage mask at time `t`.
    pub fn plan_at(&self, t: f64) -> FaultPlan {
        let mut plan = FaultPlan::empty();
        if let Some(s) = &self.schedule {
            for i in 0..s.len() {
                let id = SatId(i as u32);
                if !s.alive(id, t) {
                    plan.kill(id);
                }
            }
        }
        if let Some(rain) = &self.rain {
            plan.set_ground_fade(rain.ground_fade());
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_geo::Geodetic;

    #[test]
    fn empty_plan_masks_nothing() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
        assert!(!p.sat_dead(SatId(0)));
        assert!(!p.isl_edge_masked(SatId(0), SatId(1)));
        let g = Geodetic::ground(0.0, 0.0).to_ecef_spherical();
        assert!(!p.access_link_masked(g, Ecef::new(7e6, 0.0, 0.0)));
    }

    #[test]
    fn killing_a_satellite_masks_all_its_edges() {
        let mut p = FaultPlan::empty();
        p.kill(SatId(7));
        p.kill(SatId(7)); // idempotent
        assert!(!p.is_empty());
        assert_eq!((0..10).filter(|&i| p.sat_dead(SatId(i))).count(), 1);
        assert!(p.isl_edge_masked(SatId(7), SatId(3)));
        assert!(p.isl_edge_masked(SatId(3), SatId(7)));
        assert!(!p.isl_edge_masked(SatId(3), SatId(4)));
    }

    #[test]
    fn schedule_gates_deaths_by_time() {
        let s = FailureSchedule::from_death_times(vec![100.0, f64::INFINITY]);
        assert!(s.alive(SatId(0), 99.9));
        assert!(!s.alive(SatId(0), 100.0), "death at exactly t");
        assert!(s.alive(SatId(1), 1e12));
        assert!(s.alive(SatId(99), 1e12), "outside the schedule = alive");
    }

    #[test]
    fn config_plans_respect_the_schedule_clock() {
        let cfg = FaultConfig {
            schedule: Some(FailureSchedule::from_death_times(vec![
                50.0,
                f64::INFINITY,
                200.0,
            ])),
            ..FaultConfig::default()
        };
        assert!(cfg.plan_at(0.0).is_empty());
        let mid = cfg.plan_at(60.0);
        assert!(mid.sat_dead(SatId(0)) && !mid.sat_dead(SatId(2)));
        let late = cfg.plan_at(500.0);
        assert!(late.sat_dead(SatId(0)) && !late.sat_dead(SatId(1)) && late.sat_dead(SatId(2)));
    }

    #[test]
    fn none_config_yields_empty_plans_forever() {
        let cfg = FaultConfig::none();
        for t in [0.0, 1e3, 1e9] {
            assert!(cfg.plan_at(t).is_empty());
        }
    }

    #[test]
    fn rain_fade_maps_to_the_three_ground_states() {
        let clear = RainFade {
            budget: LinkBudget::CONSUMER,
            rain_rate_mm_h: 0.0,
        };
        assert_eq!(clear.ground_fade(), GroundFade::Clear);
        let moderate = RainFade {
            budget: LinkBudget::CONSUMER,
            rain_rate_mm_h: 17.0,
        };
        match moderate.ground_fade() {
            GroundFade::MinElevation(e) => {
                assert!(e > Angle::ZERO && e < Angle::from_degrees(90.0))
            }
            other => panic!("expected a raised elevation mask, got {other:?}"),
        }
        let downpour = RainFade {
            budget: LinkBudget::CONSUMER,
            rain_rate_mm_h: 120.0,
        };
        assert_eq!(downpour.ground_fade(), GroundFade::Outage);
    }

    #[test]
    #[should_panic(expected = "rain rate must be a non-negative number")]
    fn nan_rain_rate_is_rejected() {
        RainFade {
            budget: LinkBudget::CONSUMER,
            rain_rate_mm_h: f64::NAN,
        }
        .ground_fade();
    }

    #[test]
    #[should_panic(expected = "fade margin must be finite")]
    fn nan_fade_margin_is_rejected() {
        RainFade {
            budget: LinkBudget {
                fade_margin_db: f64::NAN,
            },
            rain_rate_mm_h: 10.0,
        }
        .ground_fade();
    }

    #[test]
    fn faded_plan_masks_low_elevation_access_links() {
        let mut p = FaultPlan::empty();
        p.set_ground_fade(GroundFade::MinElevation(Angle::from_degrees(60.0)));
        assert!(!p.is_empty());
        let g = Geodetic::ground(0.0, 0.0).to_ecef_spherical();
        // Straight overhead: well above any mask.
        let zenith = Ecef::new(g.0.x + 550e3 * g.0.x / g.0.norm(), g.0.y, g.0.z);
        assert!(!p.access_link_masked(g, zenith));
        // A satellite over the pole sits below 60° elevation from the
        // equator at LEO altitude.
        let low = Ecef::new(0.0, 0.0, 6.92e6);
        assert!(p.access_link_masked(g, low));
        p.set_ground_fade(GroundFade::Outage);
        assert!(p.access_link_masked(g, zenith), "outage masks even zenith");
    }

    #[test]
    fn exceedance_constructor_uses_the_climate_curve() {
        let f = RainFade::at_exceedance(LinkBudget::CONSUMER, &RainClimate::ARID, 0.5);
        assert_eq!(f.rain_rate_mm_h, 0.0, "arid is usually dry");
        let t = RainFade::at_exceedance(LinkBudget::CONSUMER, &RainClimate::TROPICAL, 0.001);
        assert!(t.rain_rate_mm_h > 10.0);
    }
}
