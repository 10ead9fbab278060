//! Ground-to-satellite visibility queries.
//!
//! A satellite is *reachable* from a ground point when its elevation above
//! the local horizon is at least the minimum elevation angle of its shell
//! (25° for Starlink, 35° for Kuiper, per the FCC filings). These queries
//! drive Figs 1, 2, 4 and 5 of the paper and the server-selection
//! algorithms in `leo-core`.

use crate::fault::FaultPlan;
use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::consts::SPEED_OF_LIGHT_M_S;
use leo_geo::look;
use leo_geo::{Ecef, Geodetic};
use serde::{Deserialize, Serialize};

/// One satellite visible from a ground point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VisibleSat {
    /// Which satellite.
    pub id: SatId,
    /// Slant range from the ground point, meters.
    pub range_m: f64,
}

impl VisibleSat {
    /// One-way propagation delay to the satellite, seconds.
    pub fn delay_s(&self) -> f64 {
        self.range_m / SPEED_OF_LIGHT_M_S
    }

    /// Round-trip propagation time, milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        2.0 * self.range_m / SPEED_OF_LIGHT_M_S * 1e3
    }
}

/// All satellites visible from `ground` in `snapshot`, unsorted.
///
/// Visibility uses the spherical-Earth dot-product test
/// ([`look::is_visible_spherical`]) with each satellite's own shell
/// minimum elevation. `ground_ecef` must be the spherical-model ECEF of
/// `ground` (pass the result of [`Geodetic::to_ecef_spherical`]).
pub fn visible_sats(
    constellation: &Constellation,
    snapshot: &Snapshot,
    ground: Geodetic,
    ground_ecef: Ecef,
) -> Vec<VisibleSat> {
    let _ = ground; // geodetic kept in the signature for API symmetry
    let mut out = Vec::new();
    // Per-shell max slant range is a cheap distance prefilter that is also
    // *exact* for circular shells: elevation ≥ ε ⟺ range ≤ max range.
    let max_ranges: Vec<f64> = constellation
        .shells()
        .iter()
        .map(|s| look::max_slant_range_m(s.altitude_m, s.min_elevation))
        .collect();
    for (id, pos) in snapshot.iter() {
        let sat = constellation.satellite(id);
        let range = ground_ecef.distance_m(pos);
        if range > max_ranges[sat.shell as usize] {
            continue;
        }
        let min_el = constellation.shells()[sat.shell as usize].min_elevation;
        if look::is_visible_spherical(ground_ecef, pos, min_el) {
            out.push(VisibleSat { id, range_m: range });
        }
    }
    out
}

/// [`visible_sats`] under a fault plan: satellites whose server is dead
/// and links the plan's ground fade cannot close are filtered out. The
/// brute-force reference that tests compare
/// [`VisibilityIndex::query_masked`](crate::index::VisibilityIndex::query_masked)
/// against; no library code calls it. Identical to [`visible_sats`] when
/// the plan is empty.
pub fn visible_sats_masked(
    constellation: &Constellation,
    snapshot: &Snapshot,
    ground: Geodetic,
    ground_ecef: Ecef,
    plan: &FaultPlan,
) -> Vec<VisibleSat> {
    if plan.is_empty() {
        return visible_sats(constellation, snapshot, ground, ground_ecef);
    }
    visible_sats(constellation, snapshot, ground, ground_ecef)
        .into_iter()
        .filter(|v| {
            !plan.sat_dead(v.id) && !plan.access_link_masked(ground_ecef, snapshot.position(v.id))
        })
        .collect()
}

/// The nearest visible satellite, if any.
pub fn nearest_visible(
    constellation: &Constellation,
    snapshot: &Snapshot,
    ground: Geodetic,
    ground_ecef: Ecef,
) -> Option<VisibleSat> {
    visible_sats(constellation, snapshot, ground, ground_ecef)
        .into_iter()
        .min_by(|a, b| a.range_m.total_cmp(&b.range_m))
}

/// The farthest directly reachable satellite, if any.
pub fn farthest_visible(
    constellation: &Constellation,
    snapshot: &Snapshot,
    ground: Geodetic,
    ground_ecef: Ecef,
) -> Option<VisibleSat> {
    visible_sats(constellation, snapshot, ground, ground_ecef)
        .into_iter()
        .max_by(|a, b| a.range_m.total_cmp(&b.range_m))
}

/// Marks which satellites are visible from *at least one* of the given
/// ground stations — the complement is the paper's "invisible" satellite
/// set (Figs 4–5). Returns a boolean per satellite, indexed by `SatId.0`.
pub fn coverage_mask(
    constellation: &Constellation,
    snapshot: &Snapshot,
    grounds: &[(Geodetic, Ecef)],
) -> Vec<bool> {
    let max_ranges: Vec<f64> = constellation
        .shells()
        .iter()
        .map(|s| look::max_slant_range_m(s.altitude_m, s.min_elevation))
        .collect();
    let mut mask = vec![false; snapshot.len()];
    for (id, pos) in snapshot.iter() {
        let sat = constellation.satellite(id);
        let max_range = max_ranges[sat.shell as usize];
        let min_el = constellation.shells()[sat.shell as usize].min_elevation;
        for &(_, ge) in grounds {
            if ge.distance_m(pos) <= max_range && look::is_visible_spherical(ge, pos, min_el) {
                mask[id.0 as usize] = true;
                break;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn ground(lat: f64, lon: f64) -> (Geodetic, Ecef) {
        let g = Geodetic::ground(lat, lon);
        (g, g.to_ecef_spherical())
    }

    #[test]
    fn equator_sees_dozens_of_starlink_satellites() {
        // Fig. 2: 30+ satellites visible from almost all Starlink-served
        // locations.
        let c = presets::starlink_phase1();
        let snap = c.snapshot(0.0);
        let (g, ge) = ground(0.0, 0.0);
        let vis = visible_sats(&c, &snap, g, ge);
        assert!(vis.len() >= 20, "only {} visible", vis.len());
    }

    #[test]
    fn kuiper_provides_no_service_at_high_latitude() {
        // Fig. 1: "Kuiper's design does not provide service beyond 60°".
        let c = presets::kuiper();
        let snap = c.snapshot(0.0);
        let (g, ge) = ground(65.0, 0.0);
        assert!(visible_sats(&c, &snap, g, ge).is_empty());
    }

    #[test]
    fn starlink_serves_the_poles_via_high_shells() {
        let c = presets::starlink_phase1();
        // Sample several times — polar coverage comes from the sparse
        // 81°/70° shells, so a single instant could be a gap.
        let mut seen = 0;
        for i in 0..10 {
            let snap = c.snapshot(i as f64 * 300.0);
            let (g, ge) = ground(85.0, 0.0);
            seen += visible_sats(&c, &snap, g, ge).len();
        }
        assert!(seen > 0, "no polar coverage in any sample");
    }

    #[test]
    fn masked_visibility_filters_dead_and_faded() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let (g, ge) = ground(0.0, 0.0);
        let plain = visible_sats(&c, &snap, g, ge);
        assert!(plain.len() >= 2);
        assert_eq!(
            visible_sats_masked(&c, &snap, g, ge, &FaultPlan::empty()),
            plain,
            "empty plan is invisible"
        );
        let mut plan = FaultPlan::empty();
        plan.kill(plain[0].id);
        let masked = visible_sats_masked(&c, &snap, g, ge, &plan);
        assert_eq!(masked, plain[1..].to_vec());
        plan.set_ground_fade(crate::fault::GroundFade::Outage);
        assert!(visible_sats_masked(&c, &snap, g, ge, &plan).is_empty());
    }

    #[test]
    fn nearest_is_closer_than_farthest() {
        let c = presets::starlink_phase1();
        let snap = c.snapshot(0.0);
        let (g, ge) = ground(30.0, -100.0);
        let near = nearest_visible(&c, &snap, g, ge).unwrap();
        let far = farthest_visible(&c, &snap, g, ge).unwrap();
        assert!(near.range_m <= far.range_m);
    }

    #[test]
    fn nearest_satellite_rtt_is_single_digit_ms_at_mid_latitude() {
        // Fig. 1: nearest reachable satellite within ~4 ms at most
        // latitudes (some instants are worse; stay under the 11 ms bound).
        let c = presets::starlink_phase1();
        let (g, ge) = ground(40.0, 7.0);
        for i in 0..8 {
            let snap = c.snapshot(i as f64 * 450.0);
            let near = nearest_visible(&c, &snap, g, ge).unwrap();
            assert!(near.rtt_ms() < 11.0, "t={}: rtt {}", i * 450, near.rtt_ms());
        }
    }

    #[test]
    fn farthest_reachable_rtt_is_bounded_by_16ms() {
        // Fig. 1: even the farthest directly reachable satellite is within
        // 16 ms RTT.
        let c = presets::starlink_phase1();
        let (g, ge) = ground(25.0, 60.0);
        for i in 0..8 {
            let snap = c.snapshot(i as f64 * 450.0);
            let far = farthest_visible(&c, &snap, g, ge).unwrap();
            assert!(far.rtt_ms() <= 16.2, "rtt {}", far.rtt_ms());
        }
    }

    #[test]
    fn visible_set_respects_per_shell_elevation_rule() {
        let c = presets::kuiper();
        let snap = c.snapshot(600.0);
        let (g, ge) = ground(10.0, 20.0);
        for v in visible_sats(&c, &snap, g, ge) {
            let look = leo_geo::LookAngles::compute(g, ge, snap.position(v.id));
            let min_el = c.min_elevation_of(v.id);
            assert!(
                look.elevation.degrees() >= min_el.degrees() - 1e-6,
                "sat {} below minimum elevation",
                v.id
            );
        }
    }

    #[test]
    fn coverage_mask_agrees_with_per_station_queries() {
        let c = presets::kuiper();
        let snap = c.snapshot(0.0);
        let grounds = vec![ground(0.0, 0.0), ground(30.0, 100.0), ground(-30.0, -60.0)];
        let mask = coverage_mask(&c, &snap, &grounds);
        let mut expect = vec![false; snap.len()];
        for &(g, ge) in &grounds {
            for v in visible_sats(&c, &snap, g, ge) {
                expect[v.id.0 as usize] = true;
            }
        }
        assert_eq!(mask, expect);
    }

    #[test]
    fn many_satellites_are_invisible_from_few_stations() {
        // Fig. 4's premise: a handful of ground sites leaves most of the
        // constellation unseen.
        let c = presets::starlink_phase1();
        let snap = c.snapshot(0.0);
        let grounds = vec![ground(47.4, 8.5)];
        let mask = coverage_mask(&c, &snap, &grounds);
        let visible = mask.iter().filter(|&&b| b).count();
        assert!(visible < snap.len() / 10);
    }
}
