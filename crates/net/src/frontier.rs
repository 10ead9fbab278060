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
//! points it could possibly cover). One private pass finds every
//! visible `(point, satellite)` pair this way; [`settle_nearest`] folds
//! the pairs into a running arg-min label per point, and
//! [`settle_visible_lists`] into a sorted candidate list per point, all
//! of a set's lists in one flat [`VisibleLists`] buffer.
//!
//! The result is *bit-identical* to the per-point scans, by
//! construction rather than by luck:
//!
//! - The candidate window (`VisibilityIndex::shell_windows`) and the
//!   longitude wedge are conservative prunes — provable supersets of
//!   every pair the per-point scan would accept (the wedge bound is
//!   derived below; every cut carries an explicit epsilon margin).
//! - Every surviving pair runs the same private kernel as
//!   [`VisibilityIndex::for_each_visible`]: the exact range, elevation
//!   and ground-fade test, fed the pair's difference vector, its norm
//!   and the point's up vector (the normalised ground point). The up
//!   vectors are filled into a buffer at the top of each pass and
//!   dropped when it ends (≤ 24 B per point of one shard), not stored
//!   in [`GroundSet`]: a persistent field would add 24 B for each of
//!   `serve`'s 1.2 M users (~27 MB, +16.7 % peak memory).
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

use crate::fault::FaultPlan;
use crate::index::{geocentric_latitude, Access, VisibilityIndex};
use crate::visibility::VisibleSat;
use leo_constellation::SatId;
use leo_geo::{Ecef, Vec3};
use std::f64::consts::{FRAC_PI_2, PI};
use std::ops::Range;

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
/// Points per block of the squared-range prefilter. A block's squared
/// ranges fill a stack buffer in one branch-free loop over the axis
/// slices, which the compiler vectorises; then its survivors run the
/// exact test one by one.
const PREFILTER_BLOCK: usize = 64;

/// A set of ground points prepared for satellite-major passes: sorted
/// by longitude, with the latitude/radius envelopes the wedge bound
/// needs. Built once per point set (points are static across
/// snapshots); all per-snapshot work happens in the settle functions.
#[derive(Debug, Clone)]
pub struct GroundSet {
    /// Point positions in ascending-longitude order, one slice per axis
    /// (the same bytes as a `Vec<Ecef>`), so the prefilter reads
    /// contiguous lanes.
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    /// Longitudes (radians, `[-π, π]`) of the points, ascending.
    lon: Vec<f64>,
    /// Point `j` is the caller's point `orig[j]`.
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
        let axis = |f: fn(&Ecef) -> f64| orig.iter().map(|&i| f(&points[i as usize])).collect();
        GroundSet {
            xs: axis(|p| p.0.x),
            ys: axis(|p| p.0.y),
            zs: axis(|p| p.0.z),
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
        self.xs.len()
    }

    /// True when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Point `j` of the longitude order.
    fn point(&self, j: usize) -> Vec3 {
        Vec3::new(self.xs[j], self.ys[j], self.zs[j])
    }

    /// Calls `f` with each index range of the points whose longitude
    /// lies within `half` radians of `center`: one contiguous slice, or
    /// two across the ±π wrap.
    fn for_each_in_wedge(&self, center: f64, half: f64, mut f: impl FnMut(Range<usize>)) {
        let n = self.lon.len();
        if n == 0 {
            return;
        }
        if half >= PI {
            f(0..n);
            return;
        }
        let lo = center - half;
        let hi = center + half;
        let lower = |x: f64| self.lon.partition_point(|&l| l < x);
        let upper = |x: f64| self.lon.partition_point(|&l| l <= x);
        if lo < -PI {
            f(lower(lo + 2.0 * PI)..n);
            f(0..upper(hi));
        } else if hi > PI {
            f(lower(lo)..n);
            f(0..upper(hi - 2.0 * PI));
        } else {
            f(lower(lo)..upper(hi));
        }
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

/// The nearest visible (non-faulted) server for every point of `set`,
/// written to `out` in the caller's point order — bit-identical to
/// running the serving layer's per-point nearest-server query on each
/// point, in one satellite-major pass.
pub fn settle_nearest(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: &FaultPlan,
    out: &mut Vec<Option<VisibleSat>>,
) {
    let _span = leo_obs::span!("engine.frontier.settle_s");
    leo_obs::counter!("engine.frontier.settles").incr();
    // Arg-min labels in the set's longitude order (`INFINITY` and
    // `u32::MAX` = no server yet).
    let mut best_range = vec![f64::INFINITY; set.len()];
    let mut best_id = vec![u32::MAX; set.len()];
    for_each_visible_pair(index, set, plan, |j, v| {
        // The serving layer's exact preference: smallest slant range
        // wins, exact range ties break to the lower satellite id.
        if v.range_m < best_range[j] || (v.range_m == best_range[j] && v.id.0 < best_id[j]) {
            best_range[j] = v.range_m;
            best_id[j] = v.id.0;
        }
    });
    out.clear();
    out.resize(set.len(), None);
    for (j, &orig) in set.orig.iter().enumerate() {
        if best_id[j] != u32::MAX {
            out[orig as usize] = Some(VisibleSat {
                id: SatId(best_id[j]),
                range_m: best_range[j],
            });
        }
    }
}

/// Every point's visible (non-faulted) satellites, sorted nearest-first
/// with `SatId` tie-breaks, held flat: one offsets array and one entry
/// buffer for a whole ground set instead of one `Vec` per point.
#[derive(Debug, Clone, Default)]
pub struct VisibleLists {
    /// Point `i`'s list is `entries[offsets[i]..offsets[i + 1]]`; no
    /// offsets at all before the first settle.
    offsets: Vec<usize>,
    entries: Vec<VisibleSat>,
}

impl VisibleLists {
    /// Point `i`'s candidates, nearest first.
    ///
    /// # Panics
    /// Panics when the lists hold no point `i`.
    pub fn get(&self, i: usize) -> &[VisibleSat] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Every point's candidates, in point order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[VisibleSat]> + '_ {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }
}

/// The full candidate lists variant: every visible (non-faulted)
/// satellite per point, in the caller's point order, sorted
/// nearest-first with `SatId` tie-breaks — the edge fleet's per-cell
/// candidate shape — in one satellite-major pass. `(range, id)` is a
/// total order over a snapshot's visible set, so the output is
/// identical however the pairs were discovered. The pass's pairs are
/// bucketed by point with one counting pass, then each point's slice is
/// sorted in place.
pub fn settle_visible_lists(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: &FaultPlan,
    out: &mut VisibleLists,
) {
    let _span = leo_obs::span!("engine.frontier.list_settle_s");
    leo_obs::counter!("engine.frontier.list_settles").incr();
    let mut pairs: Vec<(u32, VisibleSat)> = Vec::new();
    for_each_visible_pair(index, set, plan, |j, v| pairs.push((set.orig[j], v)));
    let offsets = &mut out.offsets;
    offsets.clear();
    offsets.resize(set.len() + 1, 0);
    for &(p, _) in &pairs {
        offsets[p as usize + 1] += 1;
    }
    for p in 0..set.len() {
        offsets[p + 1] += offsets[p];
    }
    // Scatter in discovery order: each point's next free entry.
    let mut next = offsets[..set.len()].to_vec();
    let unset = VisibleSat {
        id: SatId(u32::MAX),
        range_m: f64::NAN,
    };
    out.entries.clear();
    out.entries.resize(pairs.len(), unset);
    for (p, v) in pairs {
        out.entries[next[p as usize]] = v;
        next[p as usize] += 1;
    }
    for w in out.offsets.windows(2) {
        out.entries[w[0]..w[1]]
            .sort_unstable_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
    }
}

/// The prefix of a nearest-first list whose round trip is within
/// `bound_ms` — exactly the entries `filter(|v| v.rtt_ms() <= bound_ms)`
/// keeps: [`VisibleSat::rtt_ms`] scales the range by positive constants,
/// and IEEE rounding keeps each step monotone, so on a range-sorted list
/// the in-bound entries form a prefix.
pub fn within_rtt(nearest_first: &[VisibleSat], bound_ms: f64) -> &[VisibleSat] {
    debug_assert!(
        nearest_first
            .windows(2)
            .all(|w| w[0].range_m <= w[1].range_m),
        "candidate list is not sorted nearest-first"
    );
    &nearest_first[..nearest_first.partition_point(|v| v.rtt_ms() <= bound_ms)]
}

/// The satellite-major pass both settles share: every live candidate
/// satellite challenges the points inside its longitude wedge, and each
/// pair that passes the exact range, elevation and ground-fade tests
/// reaches `visit` as `(point, satellite)`, the point indexed in the
/// set's longitude order.
fn for_each_visible_pair(
    index: &VisibilityIndex,
    set: &GroundSet,
    plan: &FaultPlan,
    mut visit: impl FnMut(usize, VisibleSat),
) {
    if set.is_empty() {
        return;
    }
    // Each point's up vector, once per pass instead of once per pair.
    let up: Vec<Vec3> = (0..set.len()).map(|j| set.point(j).normalized()).collect();
    let mut range2 = [0.0f64; PREFILTER_BLOCK];
    let mut tally = PassTally::default();
    for sh in index.shell_windows(set.lat_lo, set.lat_hi, plan.ground_fade()) {
        let max_range_m = sh.test.max_range_m;
        let max_r2s = max_range_m * max_range_m * (1.0 + RANGE2_SLACK);
        for &(id, pos) in sh.entries {
            if plan.sat_dead(id) {
                continue;
            }
            tally.candidates += 1;
            let half = wedge_half_width(set, pos, max_range_m);
            set.for_each_in_wedge(pos.0.y.atan2(pos.0.x), half, |slice| {
                tally.pairs_tested += slice.len() as u64;
                for start in slice.clone().step_by(PREFILTER_BLOCK) {
                    let end = slice.end.min(start + PREFILTER_BLOCK);
                    let block = &mut range2[..end - start];
                    let lanes = set.xs[start..end]
                        .iter()
                        .zip(&set.ys[start..end])
                        .zip(&set.zs[start..end]);
                    for (r2, ((x, y), z)) in block.iter_mut().zip(lanes) {
                        // `Vec3::norm_squared` of `pos − point`, term
                        // for term, so the root below is `d.norm()`.
                        let (dx, dy, dz) = (pos.0.x - x, pos.0.y - y, pos.0.z - z);
                        *r2 = dx * dx + dy * dy + dz * dz;
                    }
                    for (j, &r2) in (start..end).zip(block.iter()) {
                        if r2 > max_r2s {
                            continue;
                        }
                        tally.pairs_exact += 1;
                        let range = r2.sqrt();
                        match sh.test.classify(pos.0 - set.point(j), range, up[j]) {
                            Access::Open => visit(j, VisibleSat { id, range_m: range }),
                            Access::Faded => tally.masked_links += 1,
                            Access::Hidden => {}
                        }
                    }
                }
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

/// Ground points grouped into latitude bands, each prepared as a
/// [`GroundSet`] — the shape for globe-spanning point sets (the edge
/// fleet's demand cells), where one set's latitude envelope would make
/// every wedge degenerate.
#[derive(Debug, Clone)]
pub struct BandedGroundSets {
    bands: Vec<BandSet>,
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
        BandedGroundSets { bands }
    }

    /// Number of latitude bands (parallelism units).
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// The bands, for fanning across a worker pool.
    pub fn bands(&self) -> &[BandSet] {
        &self.bands
    }
}

impl BandSet {
    /// The caller-order indices of this band's points: list `s` of
    /// [`BandSet::visible_lists`] belongs to point `points()[s]`.
    pub fn points(&self) -> &[u32] {
        &self.global
    }

    /// [`settle_visible_lists`] over this band, one list per entry of
    /// [`BandSet::points`].
    pub fn visible_lists(&self, index: &VisibilityIndex, plan: &FaultPlan) -> VisibleLists {
        let mut lists = VisibleLists::default();
        settle_visible_lists(index, &self.set, plan, &mut lists);
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::GroundFade;
    use leo_constellation::presets;
    use leo_geo::{Angle, Geodetic};
    use proptest::prelude::*;

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
        plan: &FaultPlan,
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
                index.for_each_visible(ge, plan, consider);
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
            let mut out = Vec::new();
            settle_nearest(&index, &set, &FaultPlan::empty(), &mut out);
            assert_bitwise_eq(&out, &nearest_reference(&index, &pts, &FaultPlan::empty()));
        }
    }

    #[test]
    fn settled_frontier_matches_per_point_scans_multi_shell() {
        let c = presets::starlink_phase1();
        let snap = c.snapshot(600.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(300);
        let set = GroundSet::build(&pts);
        let mut out = Vec::new();
        settle_nearest(&index, &set, &FaultPlan::empty(), &mut out);
        assert_bitwise_eq(&out, &nearest_reference(&index, &pts, &FaultPlan::empty()));
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
        let mut out = Vec::new();
        settle_nearest(&index, &set, &plan, &mut out);
        assert_bitwise_eq(&out, &nearest_reference(&index, &pts, &plan));
        for v in out.iter().flatten() {
            assert!(!plan.sat_dead(v.id), "dead satellite won a point");
        }
    }

    #[test]
    fn empty_set_settles_to_nothing() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let index = VisibilityIndex::build(&c, &snap);
        let set = GroundSet::build(&[]);
        let mut out = vec![None; 3];
        settle_nearest(&index, &set, &FaultPlan::empty(), &mut out);
        assert!(out.is_empty());
        let mut lists = VisibleLists::default();
        settle_visible_lists(&index, &set, &FaultPlan::empty(), &mut lists);
        assert_eq!(lists.iter().len(), 0);
    }

    #[test]
    fn visible_lists_match_per_point_queries_sorted_nearest_first() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(137.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(250);
        let set = GroundSet::build(&pts);
        let mut lists = VisibleLists::default();
        settle_visible_lists(&index, &set, &FaultPlan::empty(), &mut lists);
        assert_eq!(lists.iter().len(), pts.len());
        for (j, (&ge, got)) in pts.iter().zip(lists.iter()).enumerate() {
            assert_eq!(got, lists.get(j));
            let mut want = index.query(ge, &FaultPlan::empty());
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(got, want, "point {j}");
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
        let mut lists = VisibleLists::default();
        settle_visible_lists(&index, &set, &plan, &mut lists);
        assert_eq!(lists.iter().len(), pts.len());
        for (j, (&ge, got)) in pts.iter().zip(lists.iter()).enumerate() {
            let mut want = index.query(ge, &plan);
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(got, want, "point {j}");
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
        let mut out = Vec::new();
        settle_nearest(&index, &set, &FaultPlan::empty(), &mut out);
        let won = out[0].expect("planted satellites are visible");
        assert!(
            ge.distance_m(a) <= won.range_m,
            "nothing beats the planted pair"
        );
        assert_eq!(won.id, SatId(100), "tie must break to the lowest id");
        assert_eq!(won.range_m.to_bits(), ge.distance_m(a).to_bits());
        // And the reference per-point scan agrees on the same snapshot.
        assert_bitwise_eq(&out, &nearest_reference(&index, &[ge], &FaultPlan::empty()));
    }

    #[test]
    fn banded_sets_partition_the_points_and_match_flat_lists() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(240.0);
        let index = VisibilityIndex::build(&c, &snap);
        let pts = grounds(300);
        let banded = BandedGroundSets::build(&pts, 4.0);
        let mut seen = vec![false; pts.len()];
        let mut assembled: Vec<Vec<VisibleSat>> = vec![Vec::new(); pts.len()];
        for band in banded.bands() {
            let lists = band.visible_lists(&index, &FaultPlan::empty());
            assert_eq!(lists.iter().len(), band.points().len());
            for (&g, list) in band.points().iter().zip(lists.iter()) {
                assert!(!seen[g as usize], "point {g} in two bands");
                seen[g as usize] = true;
                assembled[g as usize] = list.to_vec();
            }
        }
        assert!(seen.iter().all(|&s| s), "bands must cover every point");
        for (j, (&ge, got)) in pts.iter().zip(&assembled).enumerate() {
            let mut want = index.query(ge, &FaultPlan::empty());
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(got, &want, "point {j}");
        }
    }

    /// `(range, id)` order, the lists' sort key.
    fn nearest_first(list: &mut [VisibleSat]) {
        list.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bound prefix keeps exactly what the per-entry filter
        /// keeps, on range-sorted lists with equal ranges, ranges one ulp
        /// apart (which round to equal round trips), and a bound equal to
        /// an entry's own round trip or one ulp either side of it.
        #[test]
        fn bound_prefix_equals_the_rtt_filter(
            steps in collection::vec((0u64..6, 0u32..2000), 0..40),
            base_m in 300e3f64..3000e3,
            ulp_close in 0u8..2,
            bound_pick in (0usize..64, 0u8..4, 0.0f64..30.0),
        ) {
            // Ranges from a non-decreasing walk: coarse kilometre steps
            // (zero steps make equal ranges) or single-ulp steps.
            let mut range_m = base_m;
            let mut list: Vec<VisibleSat> = steps
                .iter()
                .map(|&(step, id)| {
                    range_m = if ulp_close == 1 {
                        f64::from_bits(range_m.to_bits() + step)
                    } else {
                        range_m + 1e3 * step as f64
                    };
                    VisibleSat { id: SatId(id), range_m }
                })
                .collect();
            nearest_first(&mut list);
            let (pick, how, random_ms) = bound_pick;
            let bound_ms = match (list.get(pick % list.len().max(1)), how) {
                (Some(v), 0) => v.rtt_ms(),
                (Some(v), 1) => f64::from_bits(v.rtt_ms().to_bits() + 1),
                (Some(v), 2) => f64::from_bits(v.rtt_ms().to_bits() - 1),
                _ => random_ms,
            };
            let filtered: Vec<VisibleSat> =
                list.iter().filter(|v| v.rtt_ms() <= bound_ms).copied().collect();
            prop_assert_eq!(within_rtt(&list, bound_ms), &filtered[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The flat lists of a random ground set (duplicate points and
        /// the empty set included) are the per-point index queries sorted
        /// by `(range, id)`, point for point in the caller's order.
        #[test]
        fn flat_lists_equal_sorted_per_point_queries(
            raw in collection::vec((-90.0f64..90.0, -180.0f64..180.0), 0..48),
            repeats in collection::vec(0usize..48, 0..6),
            t in 0.0f64..6000.0,
            dead_every in 0u32..12,
        ) {
            let c = presets::starlink_550_only();
            let snap = c.snapshot(t);
            let index = VisibilityIndex::build(&c, &snap);
            let mut plan = FaultPlan::empty();
            if dead_every > 1 {
                for i in (0..snap.len() as u32).step_by(dead_every as usize) {
                    plan.kill(SatId(i));
                }
            }
            let mut pts: Vec<Ecef> = raw
                .iter()
                .map(|&(lat, lon)| Geodetic::ground(lat, lon).to_ecef_spherical())
                .collect();
            let copies: Vec<Ecef> = repeats.iter().filter_map(|&i| pts.get(i).copied()).collect();
            pts.extend(copies);
            let mut lists = VisibleLists::default();
            settle_visible_lists(&index, &GroundSet::build(&pts), &plan, &mut lists);
            prop_assert_eq!(lists.iter().len(), pts.len());
            for (j, (&ge, got)) in pts.iter().zip(lists.iter()).enumerate() {
                let mut want = index.query(ge, &plan);
                nearest_first(&mut want);
                prop_assert_eq!(got, &want[..], "point {}", j);
            }
        }
    }
}
