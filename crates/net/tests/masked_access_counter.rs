//! `fault.masked_access_links` means one thing on both visibility
//! paths: live access links that are geometrically servable at the
//! shell's elevation but closed by the plan's ground fade. Dead
//! satellites leave both the frontier pass and the index scan before
//! any geometry, so neither counts them.
//!
//! The counter is process-wide, so this binary holds this one test.

use leo_constellation::{presets, SatId};
use leo_geo::{Angle, Ecef, Geodetic};
use leo_net::frontier::settle_visible_lists;
use leo_net::{FaultPlan, GroundFade, GroundSet, VisibilityIndex, VisibleLists, VisibleSat};

fn masked_links() -> u64 {
    leo_obs::counter!("fault.masked_access_links").value()
}

/// Each path's counter increment and per-point answers, nearest first:
/// the frontier's flat lists, then the index scans' one list per point.
type PathRuns = ((u64, VisibleLists), (u64, Vec<Vec<VisibleSat>>));

/// True when the flat lists hold exactly `scans`, point for point.
fn same_lists(lists: &VisibleLists, scans: &[Vec<VisibleSat>]) -> bool {
    lists.iter().eq(scans.iter().map(Vec::as_slice))
}

/// Runs the frontier pass and then the per-point index scans over `pts`.
fn both_paths(index: &VisibilityIndex, pts: &[Ecef], plan: &FaultPlan) -> PathRuns {
    let before = masked_links();
    let mut lists = VisibleLists::default();
    settle_visible_lists(index, &GroundSet::build(pts), plan, &mut lists);
    let frontier = (masked_links() - before, lists);
    let before = masked_links();
    let scans: Vec<Vec<VisibleSat>> = pts
        .iter()
        .map(|&ge| {
            let mut v = index.query(ge, plan);
            v.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            v
        })
        .collect();
    (frontier, (masked_links() - before, scans))
}

#[test]
fn frontier_and_index_scan_count_the_same_faded_links() {
    leo_obs::set_level(leo_obs::Level::Metrics);
    let c = presets::starlink_550_only();
    let snap = c.snapshot(450.0);
    let index = VisibilityIndex::build(&c, &snap);
    let pts: Vec<Ecef> = (0..400)
        .map(|i| {
            let lat = -55.0 + 0.29 * i as f64;
            let lon = -180.0 + (i as f64 * 7.13) % 360.0;
            Geodetic::ground(lat, lon).to_ecef_spherical()
        })
        .collect();
    let mut dead = FaultPlan::empty();
    for i in (0..snap.len() as u32).step_by(9) {
        dead.kill(SatId(i));
    }
    let mut faded = dead.clone();
    faded.set_ground_fade(GroundFade::MinElevation(Angle::from_degrees(35.0)));
    let mut outage = dead.clone();
    outage.set_ground_fade(GroundFade::Outage);

    // Deaths alone close no access link.
    let ((frontier, lists), (scans, answers)) = both_paths(&index, &pts, &dead);
    assert_eq!(
        (frontier, scans),
        (0, 0),
        "dead satellites are not faded links"
    );
    assert!(same_lists(&lists, &answers));
    let live_pairs: u64 = answers.iter().map(|v| v.len() as u64).sum();

    // A fade closes the low links of live satellites, the same ones on
    // both paths.
    let ((frontier, lists), (scans, answers)) = both_paths(&index, &pts, &faded);
    assert_eq!(frontier, scans, "frontier and index scan disagree");
    assert!(frontier > 0, "a 35° fade must close some 25°-mask links");
    assert!(same_lists(&lists, &answers));
    let open: u64 = answers.iter().map(|v| v.len() as u64).sum();
    assert_eq!(
        open + frontier,
        live_pairs,
        "every live link is open or faded"
    );

    // An outage closes every live link.
    let ((frontier, lists), (scans, answers)) = both_paths(&index, &pts, &outage);
    assert_eq!((frontier, scans), (live_pairs, live_pairs));
    assert_eq!(lists.iter().len(), pts.len());
    assert!(lists.iter().all(<[VisibleSat]>::is_empty));
    assert!(answers.iter().all(Vec::is_empty));
}
