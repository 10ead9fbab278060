//! Satellite-major settled frontier: one arg-min pass per ground set
//! per snapshot instead of one visibility scan per ground point.
//!
//! [`VisibilityIndex`] answers *"which
//! satellites can this point see?"* one point at a time, scanning the
//! point's whole latitude window (hundreds of candidates at Starlink
//! scale) per query. The serving layer asks the transposed question at
//! scale — *"which satellite serves each of these N points?"* — and for
//! that shape a **satellite-major** pass is far cheaper: fetch the
//! ground set's candidate satellites once, then let each satellite
//! challenge only the points inside its **longitude wedge** (the only
//! points it could possibly cover), updating a running arg-min label
//! per point.
//!
//! The result is *bit-identical* to the per-point scans, by
//! construction rather than by luck:
//!
//! - The candidate window (`VisibilityIndex::shell_windows`) and the
//!   longitude wedge are conservative prunes — provable supersets of
//!   every pair the per-point scan would accept (the wedge bound is
//!   derived below; every cut carries an explicit epsilon margin).
//! - Every surviving pair runs the *exact same* slant-range and
//!   elevation tests, on the same expressions, as
//!   [`VisibilityIndex::for_each_visible`].
//! - The arg-min update uses the serving layer's exact comparison
//!   (smallest `range_m`, ties to the lowest `SatId`), which is a total
//!   preference independent of scan order.
//!
//! **Wedge bound.** For a satellite at geocentric latitude `φs` and a
//! ground point at `φg`, the Earth-central angle `c` between them obeys
//! `cos c = sin φs sin φg + cos φs cos φg cos Δλ`, i.e.
//! `cos φs cos φg (1 − cos Δλ) = cos(φs − φg) − cos c ≤ 1 − cos c`.
//! A pair within slant range `R` satisfies (planar law of cosines over
//! the orbit and ground radii) `cos c ≥ cos_c_min(rs, rg, R)`, so
//! `1 − cos Δλ ≤ (1 − cos_c_min) / (cos φs · min cos φg)` — an explicit
//! longitude wedge around the sub-satellite point. Points are kept
//! longitude-sorted, so a wedge is one or two contiguous slices.
//!
//! A settled frontier also supports **warm-started refreshes**: when
//! only a subset of satellites moved between snapshots (and the fault
//! plan is unchanged), [`refresh_nearest`] re-derives exactly the
//! answers that could have changed — points whose winner moved rescan
//! their candidates, and the moved satellites re-challenge everyone —
//! and is bit-identical to a cold [`settle_nearest`] because both
//! compute the same arg-min over the same candidate set.

use crate::fault::FaultPlan;
use crate::index::{geocentric_latitude, VisibilityIndex};
use crate::visibility::VisibleSat;
use leo_constellation::SatId;
use leo_geo::{look, Ecef};
use std::f64::consts::{FRAC_PI_2, PI};

/// Angular margin added to every wedge half-width, radians. Orders of
/// magnitude above the floating-point error of the wedge computation
/// (≲1e-10 rad) and orders of magnitude below a useful wedge (≳1e-2
/// rad), so it can never cut a true candidate and costs nothing.
const WEDGE_EPS_RAD: f64 = 1e-6;
/// Absolute slack subtracted from the conservative central-angle cosine.
const COS_EPS: f64 = 1e-12;
/// Relative slack on the squared-range prefilter: a pair rejected here
/// exceeds the slant-range bound by ≥5e-10 relative — far beyond one
/// ulp — so the exact test it skips could only have rejected it too.
const RANGE2_SLACK: f64 = 1e-9;

/// A set of ground points prepared for satellite-major passes: sorted
/// by longitude, with the latitude/radius envelopes the wedge bound
/// needs. Built once per point set (points are static across
/// snapshots); all per-snapshot work happens in the settle functions.
#[derive(Debug, Clone)]
pub struct GroundSet {
    /// Point positions in ascending-longitude order.
    ecef: Vec<Ecef>,
    /// Longitudes (radians, `[-π, π]`) of `ecef`, ascending.
    lon: Vec<f64>,
    /// `ecef[j]` is the caller's point `orig[j]`.
    orig: Vec<u32>,
    /// Geocentric-latitude envelope of the set, radians.
    lat_lo: f64,
    lat_hi: f64,
    /// `min_j cos(lat_j)` — the wedge bound's ground-latitude factor.
    cos_lat_min: f64,
    /// Geocentric-radius envelope of the set, meters.
    r_lo: f64,
    r_hi: f64,
}

impl GroundSet {
    /// Prepares `points` (spherical-model ECEF, as everywhere in this
    /// crate) for satellite-major passes. Longitude ties sort by input
    /// index, so the set is a pure function of the input.
    pub fn build(points: &[Ecef]) -> GroundSet {
        let lons: Vec<f64> = points.iter().map(|p| p.0.y.atan2(p.0.x)).collect();
        let mut orig: Vec<u32> = (0..points.len() as u32).collect();
        orig.sort_by(|&a, &b| {
            lons[a as usize]
                .total_cmp(&lons[b as usize])
                .then(a.cmp(&b))
        });
        let mut lat_lo = FRAC_PI_2;
        let mut lat_hi = -FRAC_PI_2;
        let mut cos_lat_min = 1.0f64;
        let mut r_lo = f64::INFINITY;
        let mut r_hi = 0.0f64;
        for p in points {
            let lat = geocentric_latitude(*p);
            lat_lo = lat_lo.min(lat);
            lat_hi = lat_hi.max(lat);
            cos_lat_min = cos_lat_min.min(lat.cos());
            let r = p.0.norm();
            r_lo = r_lo.min(r);
            r_hi = r_hi.max(r);
        }
        GroundSet {
            ecef: orig.iter().map(|&i| points[i as usize]).collect(),
            lon: orig.iter().map(|&i| lons[i as usize]).collect(),
            orig,
            lat_lo,
            lat_hi,
            cos_lat_min,
            r_lo,
            r_hi,
        }
    }

    /// Number of points in the set.
    pub fn len(&self) -> usize {
        self.ecef.len()
    }

    /// True when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.ecef.is_empty()
    }

    /// Visits every point whose longitude lies within `half` radians of
    /// `center`, handling the ±π wrap as up to two contiguous slices.
    fn for_each_in_wedge(&self, center: f64, half: f64, mut f: impl FnMut(usize)) {
        let n = self.lon.len();
        if n == 0 {
            return;
        }
        if half >= PI {
            for j in 0..n {
                f(j);
            }
            return;
        }
        let lo = center - half;
        let hi = center + half;
        let lower = |x: f64| self.lon.partition_point(|&l| l < x);
        let upper = |x: f64| self.lon.partition_point(|&l| l <= x);
        if lo < -PI {
            for j in lower(lo + 2.0 * PI)..n {
                f(j);
            }
            for j in 0..upper(hi) {
                f(j);
            }
        } else if hi > PI {
            for j in lower(lo)..n {
                f(j);
            }
            for j in 0..upper(hi - 2.0 * PI) {
                f(j);
            }
        } else {
            for j in lower(lo)..upper(hi) {
                f(j);
            }
        }
    }
}

/// Persistent arg-min labels of one [`GroundSet`] — the settled
/// frontier. Kept in the set's longitude order; reused across
/// snapshots by [`refresh_nearest`].
#[derive(Debug, Clone, Default)]
pub struct NearestState {
    /// Winning slant range per point (`INFINITY` = no server).
    best_range: Vec<f64>,
    /// Winning satellite per point (`u32::MAX` = no server).
    best_id: Vec<u32>,
}

impl NearestState {
    fn reset(&mut self, n: usize) {
        self.best_range.clear();
        self.best_range.resize(n, f64::INFINITY);
        self.best_id.clear();
        self.best_id.resize(n, u32::MAX);
    }
}

/// Work tallies of one satellite-major pass, flushed to the
/// `engine.frontier.*` counters on drop. Pure work-done counts: they
/// depend only on the inputs, never on threads or scheduling.
#[derive(Default)]
struct PassTally {
    candidates: u64,
    pairs_tested: u64,
    pairs_exact: u64,
    masked_links: u64,
}

impl Drop for PassTally {
    fn drop(&mut self) {
        leo_obs::counter!("engine.frontier.candidates").add(self.candidates);
        leo_obs::counter!("engine.frontier.pairs_tested").add(self.pairs_tested);
        leo_obs::counter!("engine.frontier.pairs_exact").add(self.pairs_exact);
        if self.masked_links != 0 {
            leo_obs::counter!("fault.masked_access_links").add(self.masked_links);
        }
    }
}

/// An empty plan masks nothing; treat it exactly like no plan (the
/// per-point scans delegate the same way).
fn effective_plan(plan: Option<&FaultPlan>) -> Option<&FaultPlan> {
    plan.filter(|p| !p.is_empty())
}

/// Cold settle: the nearest visible (non-faulted) server for every
/// point of `set`, written to `out` in the caller's point order —
/// bit-identical to running the serving layer's per-point
/// nearest-server query on each point, in one satellite-major pass.
pub fn settle_nearest(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: Option<&FaultPlan>,
    state: &mut NearestState,
    out: &mut Vec<Option<VisibleSat>>,
) {
    let _span = leo_obs::span!("engine.frontier.settle_s");
    leo_obs::counter!("engine.frontier.settles").incr();
    state.reset(set.len());
    challenge(index, set, effective_plan(plan), None, state);
    scatter(set, state, out);
}

/// Warm-started refresh of a settled frontier when only the satellites
/// flagged in `moved` changed position since the settle that produced
/// `state` — under the **same** fault plan and the same point set.
///
/// Two phases, together bit-identical to a cold settle: points whose
/// recorded winner moved (their label is stale) rescan their own
/// candidates among the *unmoved* satellites; then every moved
/// satellite re-challenges the whole set satellite-major. Unmoved
/// satellites' ranges are bitwise unchanged, so every other label is
/// still the arg-min over the unmoved candidates, and the arg-min
/// comparison is scan-order independent — the two phases reconstruct
/// exactly the full arg-min. With `moved` all-false this reduces to a
/// scatter of the prior labels (the cross-snapshot reuse fast path).
pub fn refresh_nearest(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: Option<&FaultPlan>,
    moved: &[bool],
    state: &mut NearestState,
    out: &mut Vec<Option<VisibleSat>>,
) {
    assert_eq!(
        state.best_id.len(),
        set.len(),
        "refresh_nearest needs a previously settled state for this set"
    );
    let _span = leo_obs::span!("engine.frontier.refresh_s");
    leo_obs::counter!("engine.frontier.refreshes").incr();
    let plan = effective_plan(plan);
    let mut dirty = 0u64;
    for j in 0..set.len() {
        let id = state.best_id[j];
        if id != u32::MAX && moved[id as usize] {
            dirty += 1;
            state.best_range[j] = f64::INFINITY;
            state.best_id[j] = u32::MAX;
            let ge = set.ecef[j];
            let consider = |v: VisibleSat| {
                if !moved[v.id.0 as usize] {
                    challenge_point(state, j, v.range_m, v.id.0);
                }
            };
            match plan {
                Some(p) => index.for_each_visible_masked(ge, p, consider),
                None => index.for_each_visible(ge, consider),
            }
        }
    }
    leo_obs::counter!("engine.frontier.dirty_rescans").add(dirty);
    challenge(index, set, plan, Some(moved), state);
    scatter(set, state, out);
}

/// The full candidate lists variant: every visible (non-faulted)
/// satellite per point, sorted nearest-first with `SatId` tie-breaks —
/// the edge fleet's per-cell candidate shape — in one satellite-major
/// pass. `(range, id)` is a total order over a snapshot's visible set,
/// so the output is identical however the pairs were discovered.
pub fn settle_visible_lists(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: Option<&FaultPlan>,
    out: &mut Vec<Vec<VisibleSat>>,
) {
    let _span = leo_obs::span!("engine.frontier.list_settle_s");
    leo_obs::counter!("engine.frontier.list_settles").incr();
    out.clear();
    out.resize_with(set.len(), Vec::new);
    if set.is_empty() {
        return;
    }
    let plan = effective_plan(plan);
    let mut tally = PassTally::default();
    for sh in index.shell_windows(set.lat_lo, set.lat_hi) {
        let max_r2s = sh.max_range_m * sh.max_range_m * (1.0 + RANGE2_SLACK);
        for &(id, pos) in sh.entries {
            if plan.is_some_and_dead(id) {
                continue;
            }
            tally.candidates += 1;
            let half = wedge_half_width(set, pos, sh.max_range_m);
            set.for_each_in_wedge(pos.0.y.atan2(pos.0.x), half, |j| {
                let ge = set.ecef[j];
                tally.pairs_tested += 1;
                if (ge.0 - pos.0).norm_squared() > max_r2s {
                    return;
                }
                tally.pairs_exact += 1;
                let range = ge.distance_m(pos);
                if range <= sh.max_range_m && look::is_visible_spherical(ge, pos, sh.min_elevation)
                {
                    if let Some(p) = plan {
                        if p.access_link_masked(ge, pos) {
                            tally.masked_links += 1;
                            return;
                        }
                    }
                    out[set.orig[j] as usize].push(VisibleSat { id, range_m: range });
                }
            });
        }
    }
    for cands in out.iter_mut() {
        cands.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
    }
}

/// Satellite-major arg-min pass over `set`: every candidate satellite
/// (restricted to `only_moved` when given) challenges the points in its
/// longitude wedge. Exact per-pair tests; order-independent updates.
fn challenge(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: Option<&FaultPlan>,
    only: Option<&[bool]>,
    state: &mut NearestState,
) {
    if set.is_empty() {
        return;
    }
    let mut tally = PassTally::default();
    for sh in index.shell_windows(set.lat_lo, set.lat_hi) {
        let max_r2s = sh.max_range_m * sh.max_range_m * (1.0 + RANGE2_SLACK);
        for &(id, pos) in sh.entries {
            if let Some(flags) = only {
                if !flags[id.0 as usize] {
                    continue;
                }
            }
            if plan.is_some_and_dead(id) {
                continue;
            }
            tally.candidates += 1;
            let half = wedge_half_width(set, pos, sh.max_range_m);
            set.for_each_in_wedge(pos.0.y.atan2(pos.0.x), half, |j| {
                let ge = set.ecef[j];
                tally.pairs_tested += 1;
                if (ge.0 - pos.0).norm_squared() > max_r2s {
                    return;
                }
                tally.pairs_exact += 1;
                let range = ge.distance_m(pos);
                if range <= sh.max_range_m && look::is_visible_spherical(ge, pos, sh.min_elevation)
                {
                    if let Some(p) = plan {
                        if p.access_link_masked(ge, pos) {
                            tally.masked_links += 1;
                            return;
                        }
                    }
                    challenge_point(state, j, range, id.0);
                }
            });
        }
    }
}

/// The serving layer's exact preference: smallest slant range wins,
/// exact range ties break to the lower satellite id.
#[inline]
fn challenge_point(state: &mut NearestState, j: usize, range: f64, id: u32) {
    if range < state.best_range[j] || (range == state.best_range[j] && id < state.best_id[j]) {
        state.best_range[j] = range;
        state.best_id[j] = id;
    }
}

/// Writes the settled labels back in the caller's point order.
fn scatter(set: &GroundSet, state: &NearestState, out: &mut Vec<Option<VisibleSat>>) {
    out.clear();
    out.resize(set.len(), None);
    for j in 0..set.len() {
        if state.best_id[j] != u32::MAX {
            out[set.orig[j] as usize] = Some(VisibleSat {
                id: SatId(state.best_id[j]),
                range_m: state.best_range[j],
            });
        }
    }
}

/// Conservative half-width (radians) of the longitude wedge a satellite
/// at `pos` must scan to cover every point of `set` within slant range
/// `max_range_m` — the bound derived in the module docs, evaluated at
/// the ground-radius envelope (including the interior stationary point
/// of the central-angle cosine) and padded with explicit margins.
fn wedge_half_width(set: &GroundSet, pos: Ecef, max_range_m: f64) -> f64 {
    let rs = pos.0.norm();
    if rs == 0.0 {
        return PI;
    }
    let sin_s = (pos.0.z / rs).clamp(-1.0, 1.0);
    let cos_s = (1.0 - sin_s * sin_s).max(0.0).sqrt();
    let max_r2 = max_range_m * max_range_m;
    let cos_c = |rg: f64| (rs * rs + rg * rg - max_r2) / (2.0 * rs * rg);
    let mut cos_c_min = cos_c(set.r_lo).min(cos_c(set.r_hi));
    // cos_c is convex in rg when rs² > R²: check its stationary point.
    let a = rs * rs - max_r2;
    if a > 0.0 {
        let rg_star = a.sqrt();
        if rg_star > set.r_lo && rg_star < set.r_hi {
            cos_c_min = cos_c_min.min(cos_c(rg_star));
        }
    }
    cos_c_min -= COS_EPS;
    let denom = cos_s * set.cos_lat_min;
    if denom < 1e-9 {
        return PI; // polar geometry: no useful wedge, scan everything
    }
    let t = (1.0 - cos_c_min) / denom;
    if t >= 2.0 {
        return PI;
    }
    (1.0 - t).clamp(-1.0, 1.0).acos() + WEDGE_EPS_RAD
}

/// Convenience trait: `plan.is_some_and_dead(id)` without unwrapping.
trait PlanExt {
    fn is_some_and_dead(&self, id: SatId) -> bool;
}

impl PlanExt for Option<&FaultPlan> {
    fn is_some_and_dead(&self, id: SatId) -> bool {
        self.is_some_and(|p| p.sat_dead(id))
    }
}

/// Ground points grouped into latitude bands, each prepared as a
/// [`GroundSet`] — the shape for globe-spanning point sets (the edge
/// fleet's demand cells), where one set's latitude envelope would make
/// every wedge degenerate.
#[derive(Debug, Clone)]
pub struct BandedGroundSets {
    bands: Vec<BandSet>,
    num_points: usize,
}

/// One latitude band's point set plus the caller-order indices of its
/// points.
#[derive(Debug, Clone)]
pub struct BandSet {
    set: GroundSet,
    global: Vec<u32>,
}

impl BandedGroundSets {
    /// Groups `points` into latitude bands `band_deg` degrees tall and
    /// prepares each band. Banding is a pure function of the points.
    ///
    /// # Panics
    /// Panics when `band_deg` is not positive.
    pub fn build(points: &[Ecef], band_deg: f64) -> BandedGroundSets {
        assert!(band_deg > 0.0, "band_deg must be positive");
        let band_rad = band_deg.to_radians();
        let mut groups: std::collections::BTreeMap<i32, Vec<u32>> = Default::default();
        for (i, p) in points.iter().enumerate() {
            let band = ((geocentric_latitude(*p) + FRAC_PI_2) / band_rad) as i32;
            groups.entry(band).or_default().push(i as u32);
        }
        let bands: Vec<BandSet> = groups
            .into_values()
            .map(|global| {
                let pts: Vec<Ecef> = global.iter().map(|&i| points[i as usize]).collect();
                BandSet {
                    set: GroundSet::build(&pts),
                    global,
                }
            })
            .collect();
        BandedGroundSets {
            bands,
            num_points: points.len(),
        }
    }

    /// Number of latitude bands (parallelism units).
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// Total points across all bands.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// The bands, for fanning across a worker pool.
    pub fn bands(&self) -> &[BandSet] {
        &self.bands
    }
}

impl BandSet {
    /// [`settle_visible_lists`] over this band, returned as
    /// `(caller_point_index, candidates)` pairs.
    pub fn visible_lists(
        &self,
        index: &VisibilityIndex,
        plan: Option<&FaultPlan>,
    ) -> Vec<(u32, Vec<VisibleSat>)> {
        let mut lists = Vec::new();
        settle_visible_lists(index, &self.set, plan, &mut lists);
        self.global.iter().copied().zip(lists).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::GroundFade;
    use leo_constellation::presets;
    use leo_geo::{Angle, Geodetic};

    fn grounds(n: usize) -> Vec<Ecef> {
        // Deterministic spread, biased toward a latitude band but with
        // outliers (poles, antimeridian) to stress the wedge math.
        let mut pts: Vec<Ecef> = (0..n)
            .map(|i| {
                let lat = -28.0 + 0.37 * (i % 160) as f64;
                let lon = -180.0 + (i as f64 * 7.13) % 360.0;
                Geodetic::ground(lat, lon).to_ecef_spherical()
            })
            .collect();
        pts.push(Geodetic::ground(89.9, 12.0).to_ecef_spherical());
        pts.push(Geodetic::ground(-89.9, -12.0).to_ecef_spherical());
        pts.push(Geodetic::ground(3.0, 179.999).to_ecef_spherical());
        pts.push(Geodetic::ground(-3.0, -179.999).to_ecef_spherical());
        pts
    }

    /// The reference: per-point nearest via the index, exactly the
    /// serving layer's comparison.
    fn nearest_reference(
        index: &VisibilityIndex,
        pts: &[Ecef],
        plan: Option<&FaultPlan>,
    ) -> Vec<Option<VisibleSat>> {
        pts.iter()
            .map(|&ge| {
                let mut best: Option<VisibleSat> = None;
                let consider = |v: VisibleSat| {
                    let better = match best.as_ref() {
                        None => true,
                        Some(b) => {
                            v.range_m < b.range_m || (v.range_m == b.range_m && v.id.0 < b.id.0)
                        }
                    };
                    if better {
                        best = Some(v);
                    }
                };
                match plan {
                    Some(p) => index.for_each_visible_masked(ge, p, consider),
                    None => index.for_each_visible(ge, consider),
                }
                best
            })
            .collect()
    }

    fn assert_bitwise_eq(a: &[Option<VisibleSat>], b: &[Option<VisibleSat>]) {
        assert_eq!(a.len(), b.len());
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            match (x, y) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.id, q.id, "point {j}");
                    assert_eq!(p.range_m.to_bits(), q.range_m.to_bits(), "point {j}");
                }
                _ => panic!("point {j}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn settled_frontier_matches_per_point_scans_bitwise() {
        let c = presets::starlink_550_only();
        for t in [0.0, 137.0, 1800.0] {
            let snap = c.snapshot(t);
            let index = VisibilityIndex::build(&c, &snap);
            let pts = grounds(500);
            let set = GroundSet::build(&pts);
            let mut state = NearestState::default();
            let mut out = Vec::new();
            settle_nearest(&index, &set, None, &mut state, &mut out);
            assert_bitwise_eq(&out, &nearest_reference(&index, &pts, None));
        }
    }

    #[test]
    fn settled_frontier_matches_per_point_scans_multi_shell() {
        let c = presets::starlink_phase1();
        let snap = c.snapshot(600.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(300);
        let set = GroundSet::build(&pts);
        let mut state = NearestState::default();
        let mut out = Vec::new();
        settle_nearest(&index, &set, None, &mut state, &mut out);
        assert_bitwise_eq(&out, &nearest_reference(&index, &pts, None));
    }

    #[test]
    fn masked_settle_matches_masked_per_point_scans() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(450.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(400);
        let set = GroundSet::build(&pts);
        let mut plan = FaultPlan::empty();
        for i in (0..snap.len() as u32).step_by(9) {
            plan.kill(SatId(i));
        }
        plan.set_ground_fade(GroundFade::MinElevation(Angle::from_degrees(35.0)));
        let mut state = NearestState::default();
        let mut out = Vec::new();
        settle_nearest(&index, &set, Some(&plan), &mut state, &mut out);
        assert_bitwise_eq(&out, &nearest_reference(&index, &pts, Some(&plan)));
        for v in out.iter().flatten() {
            assert!(!plan.sat_dead(v.id), "dead satellite won a point");
        }
    }

    #[test]
    fn empty_plan_settle_equals_plain_settle() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(60.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(200);
        let set = GroundSet::build(&pts);
        let plan = FaultPlan::empty();
        let (mut s1, mut s2) = (NearestState::default(), NearestState::default());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        settle_nearest(&index, &set, Some(&plan), &mut s1, &mut a);
        settle_nearest(&index, &set, None, &mut s2, &mut b);
        assert_bitwise_eq(&a, &b);
    }

    #[test]
    fn empty_set_settles_to_nothing() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let index = VisibilityIndex::build(&c, &snap);
        let set = GroundSet::build(&[]);
        let mut state = NearestState::default();
        let mut out = vec![None; 3];
        settle_nearest(&index, &set, None, &mut state, &mut out);
        assert!(out.is_empty());
        let mut lists = Vec::new();
        settle_visible_lists(&index, &set, None, &mut lists);
        assert!(lists.is_empty());
    }

    #[test]
    fn refresh_with_nothing_moved_reuses_the_settled_labels() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(90.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(300);
        let set = GroundSet::build(&pts);
        let mut state = NearestState::default();
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        settle_nearest(&index, &set, None, &mut state, &mut cold);
        let moved = vec![false; snap.len()];
        refresh_nearest(&index, &set, None, &moved, &mut state, &mut warm);
        assert_bitwise_eq(&cold, &warm);
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_a_cold_settle() {
        // Settle at t0, move a subset of satellites (t1 positions), then
        // refresh incrementally — must equal a cold settle at t1.
        let c = presets::starlink_550_only();
        let snap0 = c.snapshot(300.0);
        let mut snap1 = c.snapshot(300.0);
        let moved_ids: Vec<usize> = (0..snap1.len()).step_by(5).collect();
        let t1 = c.snapshot(360.0);
        let mut moved = vec![false; snap1.len()];
        for &i in &moved_ids {
            snap1.positions[i] = t1.positions[i];
            moved[i] = true;
        }
        let index0 = VisibilityIndex::build(&c, &snap0);
        let index1 = VisibilityIndex::build(&c, &snap1);
        let pts = grounds(400);
        let set = GroundSet::build(&pts);
        let mut state = NearestState::default();
        let (mut out0, mut warm, mut cold) = (Vec::new(), Vec::new(), Vec::new());
        settle_nearest(&index0, &set, None, &mut state, &mut out0);
        refresh_nearest(&index1, &set, None, &moved, &mut state, &mut warm);
        let mut cold_state = NearestState::default();
        settle_nearest(&index1, &set, None, &mut cold_state, &mut cold);
        assert_bitwise_eq(&warm, &cold);
    }

    #[test]
    fn incremental_refresh_under_a_plan_matches_cold_settle() {
        let c = presets::starlink_550_only();
        let snap0 = c.snapshot(0.0);
        let mut snap1 = c.snapshot(0.0);
        let t1 = c.snapshot(60.0);
        let mut moved = vec![false; snap1.len()];
        for i in (0..snap1.len()).step_by(3) {
            snap1.positions[i] = t1.positions[i];
            moved[i] = true;
        }
        let mut plan = FaultPlan::empty();
        for i in (0..snap1.len() as u32).step_by(11) {
            plan.kill(SatId(i));
        }
        let index0 = VisibilityIndex::build(&c, &snap0);
        let index1 = VisibilityIndex::build(&c, &snap1);
        let pts = grounds(350);
        let set = GroundSet::build(&pts);
        let mut state = NearestState::default();
        let (mut out0, mut warm, mut cold) = (Vec::new(), Vec::new(), Vec::new());
        settle_nearest(&index0, &set, Some(&plan), &mut state, &mut out0);
        refresh_nearest(&index1, &set, Some(&plan), &moved, &mut state, &mut warm);
        let mut cold_state = NearestState::default();
        settle_nearest(&index1, &set, Some(&plan), &mut cold_state, &mut cold);
        assert_bitwise_eq(&warm, &cold);
    }

    #[test]
    fn visible_lists_match_per_point_queries_sorted_nearest_first() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(137.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(250);
        let set = GroundSet::build(&pts);
        let mut lists = Vec::new();
        settle_visible_lists(&index, &set, None, &mut lists);
        for (j, (&ge, got)) in pts.iter().zip(&lists).enumerate() {
            let mut want = index.query(ge);
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(got, &want, "point {j}");
        }
    }

    #[test]
    fn masked_visible_lists_match_masked_queries() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(777.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(200);
        let set = GroundSet::build(&pts);
        let mut plan = FaultPlan::empty();
        for i in (0..snap.len() as u32).step_by(7) {
            plan.kill(SatId(i));
        }
        let mut lists = Vec::new();
        settle_visible_lists(&index, &set, Some(&plan), &mut lists);
        for (j, (&ge, got)) in pts.iter().zip(&lists).enumerate() {
            let mut want = index.query_masked(ge, &plan);
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(got, &want, "point {j}");
        }
    }

    #[test]
    fn equal_range_ties_break_to_the_lowest_sat_id() {
        // Plant two satellites mirrored in y over a point on the prime
        // meridian: the squared-coordinate range computation kills the
        // sign exactly, so the ranges are bit-equal and the arg-min must
        // pick the lower id — whatever order the pass discovers them in.
        let c = presets::starlink_550_only();
        let mut snap = c.snapshot(0.0);
        let ge = Geodetic::ground(0.0, 0.0).to_ecef_spherical();
        // ~412 km slant range: closer than any genuine 550 km-shell
        // satellite can ever be (range ≥ altitude), so the pair wins.
        let a = Ecef::new(ge.0.x + 400e3, ge.0.y + 100e3, ge.0.z);
        let b = Ecef::new(ge.0.x + 400e3, -(ge.0.y + 100e3), ge.0.z);
        assert_eq!(ge.distance_m(a).to_bits(), ge.distance_m(b).to_bits());
        // The planted pair must be the closest servers: park them nearer
        // than anything else can be (550 km shell ⇒ range ≥ altitude).
        snap.positions[100] = a;
        snap.positions[101] = b;
        let index = VisibilityIndex::build(&c, &snap);
        let set = GroundSet::build(&[ge]);
        let mut state = NearestState::default();
        let mut out = Vec::new();
        settle_nearest(&index, &set, None, &mut state, &mut out);
        let won = out[0].expect("planted satellites are visible");
        assert!(
            ge.distance_m(a) <= won.range_m,
            "nothing beats the planted pair"
        );
        assert_eq!(won.id, SatId(100), "tie must break to the lowest id");
        assert_eq!(won.range_m.to_bits(), ge.distance_m(a).to_bits());
        // And the reference per-point scan agrees on the same snapshot.
        assert_bitwise_eq(&out, &nearest_reference(&index, &[ge], None));
    }

    #[test]
    fn banded_sets_partition_the_points_and_match_flat_lists() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(240.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(300);
        let banded = BandedGroundSets::build(&pts, 4.0);
        assert_eq!(banded.num_points(), pts.len());
        let mut seen = vec![false; pts.len()];
        let mut assembled: Vec<Vec<VisibleSat>> = vec![Vec::new(); pts.len()];
        for band in banded.bands() {
            for (g, list) in band.visible_lists(&index, None) {
                assert!(!seen[g as usize], "point {g} in two bands");
                seen[g as usize] = true;
                assembled[g as usize] = list;
            }
        }
        assert!(seen.iter().all(|&s| s), "bands must cover every point");
        for (j, (&ge, got)) in pts.iter().zip(&assembled).enumerate() {
            let mut want = index.query(ge);
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(got, &want, "point {j}");
        }
    }
}
