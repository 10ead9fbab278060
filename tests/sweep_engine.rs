//! Integration tests for the parallel time-sweep engine: the spatial
//! visibility index must be indistinguishable from brute force, the
//! satellite-major frontier from the index, and the sweep output must
//! not depend on the worker-pool size.

use in_orbit::net::frontier::settle_nearest;
use in_orbit::net::visibility::visible_sats;
use in_orbit::net::{
    BandedGroundSets, FaultPlan, GroundFade, GroundSet, VisibilityIndex, VisibleSat,
};
use in_orbit::prelude::*;
use in_orbit::sim::{SweepViews, TimeSweep};
use proptest::prelude::*;

/// A fault plan from sampled inputs: the `dead` satellite ids plus a
/// ground fade chosen by `fade.0` (0 = clear, 1 = a raised elevation
/// mask of `fade.1` degrees, otherwise a total outage).
fn plan_from(dead: &[u32], fade: (u8, f64)) -> FaultPlan {
    let mut plan = FaultPlan::empty();
    for &id in dead {
        plan.kill(SatId(id));
    }
    plan.set_ground_fade(match fade.0 {
        0 => GroundFade::Clear,
        1 => GroundFade::MinElevation(Angle::from_degrees(fade.1)),
        _ => GroundFade::Outage,
    });
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The latitude-band index is an exact accelerator: for any ground
    /// point, any epoch and any fault plan it returns precisely the
    /// brute-force visible set, same satellites, same ranges, same order.
    #[test]
    fn index_matches_brute_force_everywhere(
        lat in -90.0..90.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..86_400.0f64,
        dead in collection::vec(0u32..1584, 0..40),
        fade in (0u8..3, 25.0..70.0f64),
    ) {
        let c = starlink_550_only();
        let snap = c.snapshot(t);
        let index = VisibilityIndex::build(&c, &snap);
        let ge = Geodetic::ground(lat, lon).to_ecef_spherical();
        let plan = plan_from(&dead, fade);
        prop_assert_eq!(index.query(ge, &plan), visible_sats(&c, &snap, ge, &plan));
    }

    /// Multi-shell constellations go through the same per-shell pruning;
    /// the merged result must still match brute force exactly.
    #[test]
    fn index_matches_brute_force_multi_shell(
        lat in -60.0..60.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..43_200.0f64,
        dead in collection::vec(0u32..3236, 0..40),
        fade in (0u8..3, 25.0..70.0f64),
    ) {
        let c = kuiper();
        let snap = c.snapshot(t);
        let index = VisibilityIndex::build(&c, &snap);
        let ge = Geodetic::ground(lat, lon).to_ecef_spherical();
        let plan = plan_from(&dead, fade);
        prop_assert_eq!(index.query(ge, &plan), visible_sats(&c, &snap, ge, &plan));
    }

    /// The satellite-major frontier is exact against the index: over
    /// random points (both poles and both sides of the antimeridian
    /// included) cut into latitude bands of a random height, each
    /// point lands in exactly one band, its band's candidate list is its
    /// sorted index query, and the band's nearest-server settle is that
    /// query's minimum (range, then lowest id).
    #[test]
    fn frontier_matches_per_point_queries(
        t in 0.0..86_400.0f64,
        multi_shell in 0u8..2,
        dead in collection::vec(0.0..1.0f64, 0..40),
        fade in (0u8..3, 25.0..70.0f64),
        random_pts in collection::vec((-90.0..90.0f64, -180.0..180.0f64), 0..=80),
        antimeridian_lat in -60.0..60.0f64,
        band_deg in 0.5..30.0f64,
    ) {
        let c = if multi_shell == 1 { kuiper() } else { starlink_550_only() };
        let snap = c.snapshot(t);
        let index = VisibilityIndex::build(&c, &snap);
        let n = c.num_satellites() as f64;
        let dead: Vec<u32> = dead.iter().map(|&u| (u * n) as u32).collect();
        let plan = plan_from(&dead, fade);
        let fixed = [
            (90.0, 0.0),
            (-90.0, 0.0),
            (antimeridian_lat, 179.999),
            (antimeridian_lat, -179.999),
        ];
        let pts: Vec<Ecef> = fixed
            .iter()
            .chain(&random_pts)
            .map(|&(lat, lon)| Geodetic::ground(lat, lon).to_ecef_spherical())
            .collect();
        let want: Vec<Vec<VisibleSat>> = pts
            .iter()
            .map(|&ge| {
                let mut v = index.query(ge, &plan);
                v.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
                v
            })
            .collect();
        let mut bands_per_point = vec![0u32; pts.len()];
        for band in BandedGroundSets::build(&pts, band_deg).bands() {
            let lists = band.visible_lists(&index, &plan);
            prop_assert_eq!(lists.iter().len(), band.points().len());
            let band_pts: Vec<Ecef> = band.points().iter().map(|&g| pts[g as usize]).collect();
            let mut nearest = Vec::new();
            settle_nearest(&index, &GroundSet::build(&band_pts), &plan, &mut nearest);
            for ((&g, list), best) in band.points().iter().zip(lists.iter()).zip(&nearest) {
                let g = g as usize;
                bands_per_point[g] += 1;
                prop_assert_eq!(list, &want[g][..], "candidate list of point {}", g);
                prop_assert_eq!(best.as_ref(), want[g].first(), "nearest server of point {}", g);
            }
        }
        prop_assert!(
            bands_per_point.iter().all(|&k| k == 1),
            "bands per point: {:?}",
            bands_per_point
        );
    }
}

/// A sweep over the same schedule must produce byte-identical output no
/// matter how many workers run it: results are slotted by input order
/// and each ground point folds its instants sequentially.
#[test]
fn sweep_output_is_independent_of_thread_count() {
    let service = InOrbitService::new(starlink_550_only());
    let times: Vec<f64> = (0..8).map(|i| i as f64 * 450.0).collect();
    let grounds: Vec<Geodetic> = (-50..=50)
        .step_by(10)
        .map(|lat| Geodetic::ground(lat as f64, 2.0 * lat as f64))
        .collect();

    let run = |threads: usize| {
        TimeSweep::new(&service, times.iter().copied())
            .with_threads(threads)
            .run(grounds.clone(), |g: &Geodetic, views: SweepViews| {
                let ge = g.to_ecef_spherical();
                views
                    .iter()
                    .map(|(_, v)| v.index().query(ge, &FaultPlan::empty()))
                    .collect::<Vec<_>>()
            })
    };

    let serial = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(serial, run(threads), "{threads} threads diverged");
    }
}

/// Preparing a sweep warms the service cache: every instant resolves to
/// the same shared snapshot view afterwards, with positions equal to a
/// direct propagation.
#[test]
fn sweep_prepare_populates_the_shared_cache() {
    let service = InOrbitService::new(starlink_550_only());
    let times = [0.0, 120.0, 240.0];
    let sweep = TimeSweep::new(&service, times);
    let views = sweep.prepare();
    for (&t, view) in times.iter().zip(&views) {
        assert!(std::sync::Arc::ptr_eq(view, &service.view(t)));
        let direct = service.constellation().snapshot(t);
        assert_eq!(view.snapshot().positions, direct.positions);
    }
}
