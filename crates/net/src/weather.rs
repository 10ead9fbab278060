//! Weather attenuation and availability on ground–satellite links.
//!
//! §6 of the paper: *"Weather, which we did not analyze yet, also poses
//! limitations on availability: LEO network interruptions due to weather
//! attenuation on the ground-satellite links would make in-orbit compute
//! temporarily unavailable from the affected locations."* This module
//! implements that missing analysis with a simplified ITU-style rain
//! model:
//!
//! * specific attenuation `γ = k·R^α` (dB/km) from the rain rate `R`
//!   (mm/h), with Ka-band coefficients (the up/down links of both
//!   constellations are Ka/Ku);
//! * an effective rain-column slant length that grows as elevation
//!   drops (low passes cross more troposphere);
//! * a link budget margin: the link drops when attenuation exceeds it;
//! * climate presets for the rain climates relevant to the paper's use
//!   cases (tropical West Africa vs. temperate Europe vs. arid zones).

use leo_geo::Angle;
use serde::{Deserialize, Serialize};

/// Rain height (top of the melting layer) above ground, meters. ~4.8 km
/// in the tropics, lower at high latitude; a fixed mid value keeps the
/// model simple and errs conservative at high latitudes.
pub const RAIN_HEIGHT_M: f64 = 4_200.0;

/// Ka-band (~20 GHz downlink) power-law coefficients `k`, `α` of the
/// specific-attenuation relation `γ = k·R^α` (ITU-R P.838-3 ballpark).
pub const KA_BAND_K: f64 = 0.075;
/// See [`KA_BAND_K`].
pub const KA_BAND_ALPHA: f64 = 1.10;

/// A rain climate: how often it rains and how hard when it does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RainClimate {
    /// Fraction of time any rain falls (0–1).
    pub rain_probability: f64,
    /// Rain rate exceeded 0.01 % of the time, mm/h — the classic ITU
    /// planning number (R₀.₀₁).
    pub rain_rate_p001_mm_h: f64,
}

impl RainClimate {
    /// Tropical (equatorial Africa, Southeast Asia): frequent, intense.
    pub const TROPICAL: RainClimate = RainClimate {
        rain_probability: 0.08,
        rain_rate_p001_mm_h: 120.0,
    };
    /// Temperate maritime (Western Europe).
    pub const TEMPERATE: RainClimate = RainClimate {
        rain_probability: 0.05,
        rain_rate_p001_mm_h: 42.0,
    };
    /// Arid (deserts, polar deserts).
    pub const ARID: RainClimate = RainClimate {
        rain_probability: 0.01,
        rain_rate_p001_mm_h: 22.0,
    };

    /// Rain rate exceeded a fraction `p` of the time, mm/h, using the
    /// standard single-parameter scaling from R₀.₀₁
    /// (`R(p) ≈ R₀.₀₁ · (p / 0.0001)^−0.5` capped below at drizzle).
    pub fn rain_rate_at_exceedance(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "exceedance must be in (0,1]");
        if p >= self.rain_probability {
            return 0.0; // not raining at all this often
        }
        let scaled = self.rain_rate_p001_mm_h * (p / 1e-4).powf(-0.5);
        scaled.min(self.rain_rate_p001_mm_h * 4.0)
    }
}

/// Slant length of the rain column for a link at `elevation`, meters.
///
/// Simple geometric model: the rain layer is `RAIN_HEIGHT_M` thick, so
/// the path through it is `h / sin ε`, capped at the horizontal extent
/// typical of rain cells (~20 km) for very low elevations.
fn rain_slant_length_m(elevation: Angle) -> f64 {
    let s = elevation.sin().max(0.05);
    (RAIN_HEIGHT_M / s).min(20_000.0 * 4.0)
}

/// Rain attenuation in dB for a link at `elevation` under rain rate
/// `rain_rate_mm_h`.
fn rain_attenuation_db(elevation: Angle, rain_rate_mm_h: f64) -> f64 {
    if rain_rate_mm_h <= 0.0 {
        return 0.0;
    }
    let gamma_db_km = KA_BAND_K * rain_rate_mm_h.powf(KA_BAND_ALPHA);
    // Effective path shrinks for long slants (rain cells are finite).
    let slant_km = rain_slant_length_m(elevation) / 1e3;
    let reduction = 1.0 / (1.0 + slant_km / 35.0);
    gamma_db_km * slant_km * reduction
}

/// A ground-satellite link budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Clear-sky margin available to absorb rain fade, dB. Consumer
    /// Ka-band terminals carry on the order of 6–10 dB.
    pub fade_margin_db: f64,
}

impl LinkBudget {
    /// A consumer-terminal budget (8 dB margin).
    pub const CONSUMER: LinkBudget = LinkBudget {
        fade_margin_db: 8.0,
    };
    /// A gateway-class budget (16 dB margin, larger dishes + uplink
    /// power control).
    pub const GATEWAY: LinkBudget = LinkBudget {
        fade_margin_db: 16.0,
    };

    /// True when the link survives the given rain rate at the given
    /// elevation.
    fn link_up(&self, elevation: Angle, rain_rate_mm_h: f64) -> bool {
        rain_attenuation_db(elevation, rain_rate_mm_h) <= self.fade_margin_db
    }

    /// The lowest elevation at which a link still closes under
    /// `rain_rate_mm_h`, found by bisection (attenuation is monotone
    /// decreasing in elevation: higher passes cross less rain).
    ///
    /// Returns `Angle::ZERO` when even a horizon-grazing link survives
    /// (no fade restriction beyond the shell's own elevation mask) and
    /// `None` when not even a zenith link closes — a total outage for
    /// this budget at this rain rate.
    pub fn min_surviving_elevation(&self, rain_rate_mm_h: f64) -> Option<Angle> {
        let up = |deg: f64| self.link_up(Angle::from_degrees(deg), rain_rate_mm_h);
        if !up(90.0) {
            return None;
        }
        if up(0.0) {
            return Some(Angle::ZERO);
        }
        let (mut lo, mut hi) = (0.0f64, 90.0f64); // link down at lo, up at hi
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if up(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(Angle::from_degrees(hi))
    }

    /// Long-run availability (0–1) of a link at `elevation` in a
    /// climate: the fraction of time attenuation stays within the
    /// margin, found by bisecting the exceedance curve.
    pub fn availability(&self, elevation: Angle, climate: &RainClimate) -> f64 {
        // Attenuation grows as exceedance p shrinks (rarer = harder
        // rain). Find the outage probability: the largest p whose rain
        // rate still breaks the link.
        let breaks = |p: f64| !self.link_up(elevation, climate.rain_rate_at_exceedance(p));
        if !breaks(1e-7) {
            return 1.0; // survives even the most extreme rain modeled
        }
        if breaks(climate.rain_probability) {
            // Any rain at all breaks it (un-physical for sane margins,
            // but keep the model total).
            return 1.0 - climate.rain_probability;
        }
        let (mut lo, mut hi) = (1e-7, climate.rain_probability);
        for _ in 0..60 {
            let mid = (lo * hi).sqrt(); // bisect in log space
            if breaks(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        1.0 - lo
    }
}

/// Availability of in-orbit compute from a ground site: the chance that
/// at least one of `elevations` (the currently reachable satellites'
/// elevations) has a working link. Rain is common-mode at one site, so
/// the *deepest* fade (lowest elevation requirement) dominates: we take
/// the best single link.
pub fn site_availability(budget: &LinkBudget, climate: &RainClimate, elevations: &[Angle]) -> f64 {
    elevations
        .iter()
        .map(|&e| budget.availability(e, climate))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_rain_means_no_attenuation() {
        assert_eq!(rain_attenuation_db(Angle::from_degrees(45.0), 0.0), 0.0);
    }

    #[test]
    fn attenuation_grows_with_rain_rate() {
        let e = Angle::from_degrees(40.0);
        let a = rain_attenuation_db(e, 10.0);
        let b = rain_attenuation_db(e, 50.0);
        let c = rain_attenuation_db(e, 120.0);
        assert!(a < b && b < c);
        assert!(a > 0.0);
    }

    #[test]
    fn low_elevation_links_fade_harder() {
        let hard = rain_attenuation_db(Angle::from_degrees(10.0), 30.0);
        let easy = rain_attenuation_db(Angle::from_degrees(80.0), 30.0);
        assert!(hard > easy * 1.5, "{hard} vs {easy}");
    }

    #[test]
    fn ka_band_heavy_rain_at_mid_elevation_is_double_digit_db() {
        // 120 mm/h tropical downpour at 40°: tens of dB — far beyond any
        // consumer margin, which is why tropical availability suffers.
        let a = rain_attenuation_db(Angle::from_degrees(40.0), 120.0);
        assert!(a > 10.0, "{a} dB");
    }

    #[test]
    fn exceedance_curve_is_monotone() {
        let c = RainClimate::TROPICAL;
        let mut prev = f64::INFINITY;
        for p in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
            let r = c.rain_rate_at_exceedance(p);
            assert!(r <= prev, "p={p}: {r} > {prev}");
            prev = r;
        }
    }

    #[test]
    fn it_is_usually_not_raining() {
        assert_eq!(RainClimate::TEMPERATE.rain_rate_at_exceedance(0.2), 0.0);
        assert_eq!(RainClimate::ARID.rain_rate_at_exceedance(0.05), 0.0);
    }

    #[test]
    fn consumer_availability_ordering_matches_climate_severity() {
        let e = Angle::from_degrees(40.0);
        let b = LinkBudget::CONSUMER;
        let tropical = b.availability(e, &RainClimate::TROPICAL);
        let temperate = b.availability(e, &RainClimate::TEMPERATE);
        let arid = b.availability(e, &RainClimate::ARID);
        assert!(arid >= temperate && temperate >= tropical);
        assert!(tropical > 0.9, "tropical availability {tropical}");
        assert!(arid > 0.999, "arid availability {arid}");
    }

    #[test]
    fn gateway_budget_beats_consumer_budget() {
        let e = Angle::from_degrees(30.0);
        let c = RainClimate::TROPICAL;
        assert!(
            LinkBudget::GATEWAY.availability(e, &c) >= LinkBudget::CONSUMER.availability(e, &c)
        );
    }

    #[test]
    fn site_availability_uses_the_best_elevation() {
        let b = LinkBudget::CONSUMER;
        let c = RainClimate::TROPICAL;
        let low = Angle::from_degrees(25.0);
        let high = Angle::from_degrees(75.0);
        let combined = site_availability(&b, &c, &[low, high]);
        assert_eq!(
            combined,
            b.availability(high, &c).max(b.availability(low, &c))
        );
        assert!(combined >= b.availability(low, &c));
    }

    #[test]
    fn empty_site_has_zero_availability() {
        assert_eq!(
            site_availability(&LinkBudget::CONSUMER, &RainClimate::ARID, &[]),
            0.0
        );
    }

    #[test]
    fn min_surviving_elevation_is_zero_in_clear_sky() {
        assert_eq!(
            LinkBudget::CONSUMER.min_surviving_elevation(0.0),
            Some(Angle::ZERO)
        );
    }

    #[test]
    fn min_surviving_elevation_brackets_the_link_budget() {
        // 17 mm/h on a consumer budget: zenith survives, the horizon does
        // not — the boundary must split exactly between up and down.
        let b = LinkBudget::CONSUMER;
        let e = b.min_surviving_elevation(17.0).expect("zenith survives");
        assert!(e > Angle::ZERO && e < Angle::from_degrees(90.0));
        assert!(b.link_up(Angle::from_degrees(e.degrees() + 0.01), 17.0));
        assert!(!b.link_up(Angle::from_degrees(e.degrees() - 0.01), 17.0));
    }

    #[test]
    fn tropical_downpour_is_a_total_outage_for_consumer_terminals() {
        // 120 mm/h: >15 dB even at zenith, far over the 8 dB margin.
        assert_eq!(LinkBudget::CONSUMER.min_surviving_elevation(120.0), None);
    }

    #[test]
    fn more_margin_lowers_the_surviving_elevation() {
        let rate = 17.0;
        let c = LinkBudget::CONSUMER.min_surviving_elevation(rate).unwrap();
        let g = LinkBudget::GATEWAY.min_surviving_elevation(rate).unwrap();
        assert!(g <= c, "gateway {g:?} vs consumer {c:?}");
    }

    proptest! {
        #[test]
        fn prop_min_surviving_elevation_is_consistent_with_link_up(
            rate in 0.0..200.0f64,
            margin in 1.0..30.0f64,
        ) {
            let b = LinkBudget { fade_margin_db: margin };
            match b.min_surviving_elevation(rate) {
                None => prop_assert!(!b.link_up(Angle::from_degrees(90.0), rate)),
                Some(e) => {
                    prop_assert!(b.link_up(
                        Angle::from_degrees((e.degrees() + 0.01).min(90.0)), rate));
                    if e > Angle::ZERO {
                        prop_assert!(!b.link_up(
                            Angle::from_degrees(e.degrees() - 0.01), rate));
                    }
                }
            }
        }

        #[test]
        fn prop_availability_is_a_probability(
            el in 5.0..90.0f64,
            margin in 1.0..30.0f64,
        ) {
            let b = LinkBudget { fade_margin_db: margin };
            for c in [RainClimate::TROPICAL, RainClimate::TEMPERATE, RainClimate::ARID] {
                let a = b.availability(Angle::from_degrees(el), &c);
                prop_assert!((0.0..=1.0).contains(&a));
                // Can never be worse than "down whenever it rains".
                prop_assert!(a >= 1.0 - c.rain_probability - 1e-9);
            }
        }

        #[test]
        fn prop_more_margin_never_hurts(
            el in 5.0..90.0f64,
            m1 in 1.0..20.0f64,
            dm in 0.5..10.0f64,
        ) {
            let c = RainClimate::TROPICAL;
            let a1 = LinkBudget { fade_margin_db: m1 }
                .availability(Angle::from_degrees(el), &c);
            let a2 = LinkBudget { fade_margin_db: m1 + dm }
                .availability(Angle::from_degrees(el), &c);
            prop_assert!(a2 >= a1 - 1e-9);
        }

        #[test]
        fn prop_higher_elevation_never_hurts(
            e1 in 5.0..80.0f64,
            de in 1.0..10.0f64,
            margin in 2.0..20.0f64,
        ) {
            let b = LinkBudget { fade_margin_db: margin };
            let c = RainClimate::TEMPERATE;
            let lo = b.availability(Angle::from_degrees(e1), &c);
            let hi = b.availability(Angle::from_degrees(e1 + de), &c);
            prop_assert!(hi >= lo - 1e-9);
        }
    }
}
