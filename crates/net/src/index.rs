//! A per-snapshot spatial index for visibility queries.
//!
//! [`visible_sats`](crate::visibility::visible_sats) scans every satellite
//! for every query. That is fine once, but the experiment sweeps
//! (Figs 1–7) issue the same query for hundreds of ground points against
//! the same instant, and the session runner issues one per user per tick.
//! [`VisibilityIndex`] buckets the constellation by geocentric latitude,
//! per shell, so a query only tests the satellites whose coverage cone can
//! possibly reach the ground point's latitude.
//!
//! The pruning rule is exact, not approximate: a satellite at geocentric
//! latitude `φ_s` covers a ground point at latitude `φ_g` only if the
//! Earth-central angle between them is at most the shell's coverage
//! central angle `λ` ([`look::coverage_central_angle`]), and the central
//! angle is never smaller than the latitude difference, so
//! `|φ_s − φ_g| > λ` proves invisibility. Candidates that survive the
//! band filter go through `AccessTest`, the one exact range, elevation
//! and ground-fade kernel this scan shares with the settled frontier
//! (`crate::frontier`). The kernel runs the float operations of
//! [`look::is_visible_spherical`] on values hoisted out of the pair
//! loop: the query point's up vector once per query, the mask's sine
//! once per shell, the slant range once per pair. The result is
//! therefore bit-for-bit identical to the brute-force scan
//! ([`crate::visibility::visible_sats`]), which keeps calling
//! [`look::is_visible_spherical`] as the oracle: property tests in
//! `tests/` pin the equality, and a unit test pins the kernel against
//! the oracle's expression at planted boundary cases.

use crate::fault::{FaultPlan, GroundFade};
use crate::visibility::VisibleSat;
use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::look;
use leo_geo::{Ecef, Vec3};

/// Small angular guard (radians) absorbing floating-point error in the
/// latitude computations; ~0.6 m on the ground, far below one band.
const LAT_EPS_RAD: f64 = 1e-7;

/// What the exact access test made of one ground–satellite pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Beyond the shell's slant range or below its elevation mask.
    Hidden,
    /// Geometrically servable, but the plan's ground fade closes the link.
    Faded,
    /// Servable.
    Open,
}

/// The ground fade with its elevation's sine hoisted out of the pair
/// loop.
#[derive(Debug, Clone, Copy)]
enum FadeSine {
    Clear,
    Above(f64),
    Outage,
}

/// The exact per-pair access test of one shell under one plan's ground
/// fade: the one kernel behind [`VisibilityIndex::for_each_visible`] and
/// the frontier's satellite-major pass.
///
/// [`AccessTest::classify`] takes what the scans already hold — the
/// satellite-minus-ground vector `d`, its norm and the ground point's
/// up vector (`ground.normalized()`) — and evaluates
/// `range <= max_range_m && look::is_visible_spherical(ground, sat, el)`
/// and then `!plan.access_link_masked(ground, sat)` with the same float
/// operations on the same values, so every result bit matches the
/// brute-force scan. Only the sines are precomputed, and `Angle::sin`
/// is a pure function of the angle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessTest {
    /// Exact distance bound: elevation ≥ ε ⟺ range ≤ this (circular shell).
    pub max_range_m: f64,
    /// Sine of the shell's minimum elevation.
    sin_min_el: f64,
    fade: FadeSine,
}

impl AccessTest {
    /// The test for a shell with this slant-range bound and elevation
    /// mask sine, under `fade`.
    pub(crate) fn new(max_range_m: f64, sin_min_el: f64, fade: GroundFade) -> AccessTest {
        AccessTest {
            max_range_m,
            sin_min_el,
            fade: match fade {
                GroundFade::Clear => FadeSine::Clear,
                GroundFade::MinElevation(e) => FadeSine::Above(e.sin()),
                GroundFade::Outage => FadeSine::Outage,
            },
        }
    }

    /// Classifies the pair with satellite-minus-ground vector `d`,
    /// `range = d.norm()` and ground up vector `up`.
    #[inline]
    pub(crate) fn classify(&self, d: Vec3, range: f64, up: Vec3) -> Access {
        // `is_visible_spherical` rejects a zero range before its dot test.
        if range <= self.max_range_m && range != 0.0 {
            let height = d.dot(up);
            if height >= range * self.sin_min_el {
                // The range is non-zero, so the fade's
                // `is_visible_spherical` is exactly its dot test at the
                // fade elevation.
                return match self.fade {
                    FadeSine::Clear => Access::Open,
                    FadeSine::Above(sin_e) if height >= range * sin_e => Access::Open,
                    FadeSine::Above(_) | FadeSine::Outage => Access::Faded,
                };
            }
        }
        Access::Hidden
    }
}

/// One shell's latitude-banded satellite bucket.
#[derive(Debug, Clone)]
struct ShellBands {
    /// Exact distance bound: elevation ≥ ε ⟺ range ≤ this (circular shell).
    max_range_m: f64,
    /// The shell's minimum-elevation sine, for the dot-product test.
    sin_min_el: f64,
    /// Coverage central angle λ of the shell, radians.
    central_angle_rad: f64,
    /// Band width, radians. Bands partition `[-π/2, π/2]`.
    band_rad: f64,
    /// `band_offsets[b]..band_offsets[b+1]` indexes `entries` of band `b`.
    band_offsets: Vec<u32>,
    /// `(id, position)` grouped by band, ascending `SatId` within a band.
    entries: Vec<(SatId, Ecef)>,
}

impl ShellBands {
    fn band_of(&self, lat_rad: f64) -> usize {
        let n = self.band_offsets.len() - 1;
        let b = ((lat_rad + std::f64::consts::FRAC_PI_2) / self.band_rad) as usize;
        b.min(n - 1)
    }

    fn access_test(&self, fade: GroundFade) -> AccessTest {
        AccessTest::new(self.max_range_m, self.sin_min_el, fade)
    }
}

/// Latitude-banded visibility index over one [`Snapshot`].
///
/// Build once per instant, query for many ground points:
///
/// ```
/// use leo_constellation::presets::starlink_550_only;
/// use leo_geo::Geodetic;
/// use leo_net::fault::FaultPlan;
/// use leo_net::index::VisibilityIndex;
/// use leo_net::visibility::visible_sats;
///
/// let c = starlink_550_only();
/// let snap = c.snapshot(0.0);
/// let index = VisibilityIndex::build(&c, &snap);
/// let ge = Geodetic::ground(6.52, 3.38).to_ecef_spherical();
/// let plan = FaultPlan::empty();
/// let fast = index.query(ge, &plan);
/// let slow = visible_sats(&c, &snap, ge, &plan);
/// assert_eq!(fast, slow);
/// ```
#[derive(Debug, Clone)]
pub struct VisibilityIndex {
    shells: Vec<ShellBands>,
    num_satellites: usize,
}

impl VisibilityIndex {
    /// Builds the index for `snapshot` of `constellation`. `O(N)` via a
    /// counting sort into latitude bands.
    pub fn build(constellation: &Constellation, snapshot: &Snapshot) -> VisibilityIndex {
        let num_satellites = snapshot.len();
        if num_satellites == 0 {
            // An empty snapshot (or a constellation with no shells) gets
            // an index with no shell bands: every query returns nothing
            // instead of tripping over empty band arrays.
            return VisibilityIndex {
                shells: Vec::new(),
                num_satellites: 0,
            };
        }
        let mut shells: Vec<ShellBands> = constellation
            .shells()
            .iter()
            .map(|s| {
                let central = look::coverage_central_angle(s.altitude_m, s.min_elevation);
                // Bands of ~λ/4 keep the scanned window tight (≈2λ + 2
                // band widths) without thousands of mostly-empty bands.
                let target = (central.radians() / 4.0).max(1e-3);
                let n_bands = (std::f64::consts::PI / target).ceil().clamp(1.0, 4096.0) as usize;
                ShellBands {
                    max_range_m: look::max_slant_range_m(s.altitude_m, s.min_elevation),
                    sin_min_el: s.min_elevation.sin(),
                    central_angle_rad: central.radians(),
                    band_rad: std::f64::consts::PI / n_bands as f64,
                    band_offsets: vec![0; n_bands + 1],
                    entries: Vec::new(),
                }
            })
            .collect();

        // Counting sort per shell: count band occupancy, prefix-sum, place.
        // Placement iterates satellites in `SatId` order, so each band's
        // entries stay id-sorted (the query relies on this to return the
        // exact order `visible_sats` produces).
        let sat_band: Vec<(usize, usize)> = snapshot
            .iter()
            .map(|(id, pos)| {
                let shell = constellation.satellite(id).shell as usize;
                let band = shells[shell].band_of(geocentric_latitude(pos));
                shells[shell].band_offsets[band + 1] += 1;
                (shell, band)
            })
            .collect();
        for sh in &mut shells {
            for b in 1..sh.band_offsets.len() {
                sh.band_offsets[b] += sh.band_offsets[b - 1];
            }
            sh.entries = vec![
                (SatId(0), Ecef::new(0.0, 0.0, 0.0));
                *sh.band_offsets.last().unwrap() as usize
            ];
        }
        let mut cursor: Vec<Vec<u32>> = shells
            .iter()
            .map(|sh| sh.band_offsets[..sh.band_offsets.len() - 1].to_vec())
            .collect();
        for ((id, pos), &(shell, band)) in snapshot.iter().zip(&sat_band) {
            let slot = cursor[shell][band] as usize;
            shells[shell].entries[slot] = (id, pos);
            cursor[shell][band] += 1;
        }

        VisibilityIndex {
            shells,
            num_satellites,
        }
    }

    /// Number of satellites the snapshot held.
    pub fn num_satellites(&self) -> usize {
        self.num_satellites
    }

    /// All satellites visible from `ground_ecef` (spherical-model ECEF,
    /// from [`leo_geo::Geodetic::to_ecef_spherical`]) that `plan` leaves
    /// up. Identical output — order included — to
    /// [`crate::visibility::visible_sats`] over the snapshot the index was
    /// built from.
    pub fn query(&self, ground_ecef: Ecef, plan: &FaultPlan) -> Vec<VisibleSat> {
        let mut out = Vec::new();
        self.for_each_visible(ground_ecef, plan, |v| out.push(v));
        // Bands (and shells) are scanned one after another, so ids come
        // back interleaved; restore the global SatId order of the
        // brute-force scan. The visible set is tiny, so this is cheap.
        out.sort_unstable_by_key(|v| v.id.0);
        out
    }

    /// Calls `f` for every satellite visible from `ground_ecef` that
    /// `plan` leaves up, in band-bucket order — ascending `SatId` only
    /// *within a band* (use [`Self::query`] when global order matters).
    /// Avoids the `Vec` when the caller only aggregates.
    ///
    /// The plan skips satellites whose server is dead, before any
    /// geometry, and those whose access link its ground fade cannot
    /// close. Under a non-empty plan, live candidates that are
    /// geometrically servable at the shell elevation but faded are
    /// tallied in the `fault.masked_access_links` counter — the
    /// frontier's meaning of the counter too.
    pub fn for_each_visible<F: FnMut(VisibleSat)>(
        &self,
        ground_ecef: Ecef,
        plan: &FaultPlan,
        mut f: F,
    ) {
        let glat = geocentric_latitude(ground_ecef);
        let up = ground_ecef.0.normalized();
        let (mut scanned, mut returned, mut masked) = (0u64, 0u64, 0u64);
        for sh in &self.shells {
            let test = sh.access_test(plan.ground_fade());
            let reach = sh.central_angle_rad + LAT_EPS_RAD;
            let lo = sh.band_of((glat - reach).max(-std::f64::consts::FRAC_PI_2));
            let hi = sh.band_of((glat + reach).min(std::f64::consts::FRAC_PI_2));
            let start = sh.band_offsets[lo] as usize;
            let end = sh.band_offsets[hi + 1] as usize;
            scanned += (end - start) as u64;
            for &(id, pos) in &sh.entries[start..end] {
                if plan.sat_dead(id) {
                    continue;
                }
                let d = pos.0 - ground_ecef.0;
                let range = d.norm();
                match test.classify(d, range, up) {
                    Access::Open => {
                        returned += 1;
                        f(VisibleSat { id, range_m: range });
                    }
                    Access::Faded => masked += 1,
                    Access::Hidden => {}
                }
            }
        }
        leo_obs::counter!("visibility.candidates_scanned").add(scanned);
        leo_obs::counter!("visibility.returned").add(returned);
        if !plan.is_empty() {
            leo_obs::counter!("fault.masked_access_links").add(masked);
        }
    }

    /// The per-shell candidate windows covering every ground point with
    /// geocentric latitude in `[lat_lo, lat_hi]` — the satellite-major
    /// entry point of the settled frontier (`crate::frontier`). Each
    /// window is the union over the latitude interval of the band
    /// windows [`Self::for_each_visible`] would scan per point
    /// (`band_of` is monotone in latitude, so taking the interval's
    /// endpoints covers every point between them), carrying the shell's
    /// exact access test under `fade`.
    pub(crate) fn shell_windows(
        &self,
        lat_lo: f64,
        lat_hi: f64,
        fade: GroundFade,
    ) -> Vec<ShellWindow<'_>> {
        debug_assert!(lat_lo <= lat_hi, "empty latitude interval");
        self.shells
            .iter()
            .map(|sh| {
                let reach = sh.central_angle_rad + LAT_EPS_RAD;
                let lo = sh.band_of((lat_lo - reach).max(-std::f64::consts::FRAC_PI_2));
                let hi = sh.band_of((lat_hi + reach).min(std::f64::consts::FRAC_PI_2));
                ShellWindow {
                    test: sh.access_test(fade),
                    entries: &sh.entries
                        [sh.band_offsets[lo] as usize..sh.band_offsets[hi + 1] as usize],
                }
            })
            .collect()
    }

    /// Indexed version of [`crate::visibility::coverage_mask`]: marks the
    /// satellites visible from at least one of `grounds` (spherical-model
    /// ECEF), fault-free. Returns one boolean per satellite, indexed by
    /// `SatId.0`.
    pub fn coverage_mask(&self, grounds: &[Ecef]) -> Vec<bool> {
        let mut mask = vec![false; self.num_satellites];
        self.mark_coverage(grounds, &mut mask);
        mask
    }

    /// Ors the coverage of `grounds` into an existing mask — the
    /// incremental form used when growing a ground-station set one site
    /// at a time (Fig 4's top-N city sweep).
    pub fn mark_coverage(&self, grounds: &[Ecef], mask: &mut [bool]) {
        assert_eq!(mask.len(), self.num_satellites, "mask length");
        let plan = FaultPlan::empty();
        for &ge in grounds {
            self.for_each_visible(ge, &plan, |v| mask[v.id.0 as usize] = true);
        }
    }
}

/// One shell's candidate slice for a latitude interval, with the exact
/// per-pair test [`VisibilityIndex::for_each_visible`] uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShellWindow<'a> {
    pub test: AccessTest,
    /// `(id, position)` candidates, id-sorted within each latitude band.
    pub entries: &'a [(SatId, Ecef)],
}

/// Geocentric latitude (radians) of an ECEF position; 0 for the origin.
pub(crate) fn geocentric_latitude(p: Ecef) -> f64 {
    let r = p.0.norm();
    if r == 0.0 {
        return 0.0;
    }
    (p.0.z / r).clamp(-1.0, 1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visibility::{coverage_mask, visible_sats};
    use leo_constellation::presets;
    use leo_geo::{Angle, Geodetic};

    fn grounds() -> Vec<Ecef> {
        [
            (0.0, 0.0),
            (6.52, 3.38),
            (30.0, -100.0),
            (-33.9, 18.4),
            (53.0, 0.0),
            (-52.9, 170.0),
            (85.0, 10.0),
            (-90.0, 0.0),
        ]
        .iter()
        .map(|&(lat, lon)| Geodetic::ground(lat, lon).to_ecef_spherical())
        .collect()
    }

    #[test]
    fn indexed_query_equals_brute_force_single_shell() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(137.0);
        let index = VisibilityIndex::build(&c, &snap);
        let plan = FaultPlan::empty();
        for ge in grounds() {
            assert_eq!(
                index.query(ge, &plan),
                visible_sats(&c, &snap, ge, &plan),
                "at {ge:?}"
            );
        }
    }

    #[test]
    fn indexed_query_equals_brute_force_multi_shell() {
        // starlink_phase1 has five shells at three altitudes — the
        // cross-shell SatId interleaving case.
        let c = presets::starlink_phase1();
        let snap = c.snapshot(1800.0);
        let index = VisibilityIndex::build(&c, &snap);
        let plan = FaultPlan::empty();
        for ge in grounds() {
            assert_eq!(
                index.query(ge, &plan),
                visible_sats(&c, &snap, ge, &plan),
                "at {ge:?}"
            );
        }
    }

    #[test]
    fn indexed_coverage_mask_equals_brute_force() {
        let c = presets::kuiper();
        let snap = c.snapshot(300.0);
        let index = VisibilityIndex::build(&c, &snap);
        let gs = grounds();
        assert_eq!(index.coverage_mask(&gs), coverage_mask(&c, &snap, &gs));
    }

    #[test]
    fn incremental_coverage_equals_batch() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let index = VisibilityIndex::build(&c, &snap);
        let ecefs = grounds();
        let mut mask = vec![false; index.num_satellites()];
        for ge in &ecefs {
            index.mark_coverage(std::slice::from_ref(ge), &mut mask);
        }
        assert_eq!(mask, index.coverage_mask(&ecefs));
    }

    #[test]
    fn index_prunes_most_of_the_constellation() {
        // The point of the exercise: the candidate window is a small
        // fraction of the shell. Count candidates via band offsets.
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let index = VisibilityIndex::build(&c, &snap);
        let sh = &index.shells[0];
        let glat = 0.0f64;
        let reach = sh.central_angle_rad + LAT_EPS_RAD;
        let lo = sh.band_of(glat - reach);
        let hi = sh.band_of(glat + reach);
        let candidates = (sh.band_offsets[hi + 1] - sh.band_offsets[lo]) as usize;
        assert!(
            candidates * 3 < snap.len(),
            "candidates {candidates} of {} — index prunes nothing",
            snap.len()
        );
    }

    #[test]
    fn empty_constellation_yields_empty_index() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let index = VisibilityIndex::build(&c, &snap);
        assert_eq!(index.num_satellites(), snap.len());
    }

    #[test]
    fn empty_snapshot_builds_an_empty_index_without_panicking() {
        // Regression: building over an empty snapshot/constellation must
        // return an empty index, and every query on it must be empty.
        let c = leo_constellation::Constellation::from_shells("empty", vec![]);
        let snap = c.snapshot(0.0);
        assert_eq!(snap.len(), 0);
        let index = VisibilityIndex::build(&c, &snap);
        assert_eq!(index.num_satellites(), 0);
        for ge in grounds() {
            assert!(index.query(ge, &FaultPlan::empty()).is_empty());
        }
        assert_eq!(index.coverage_mask(&[]), Vec::<bool>::new());
    }

    #[test]
    fn masked_query_drops_dead_satellites_only() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(137.0);
        let index = VisibilityIndex::build(&c, &snap);
        let ge = Geodetic::ground(6.52, 3.38).to_ecef_spherical();
        let plain = index.query(ge, &FaultPlan::empty());
        assert!(plain.len() >= 2);
        let mut plan = FaultPlan::empty();
        plan.kill(plain[0].id);
        let masked = index.query(ge, &plan);
        let expect: Vec<_> = plain[1..].to_vec();
        assert_eq!(masked, expect);
    }

    /// The oracle's verdict on one pair: the brute-force scan's range and
    /// elevation test, then the plan's fade, with its slant range.
    fn oracle(ge: Ecef, pos: Ecef, max_range_m: f64, el: Angle, fade: GroundFade) -> (Access, u64) {
        let range = ge.distance_m(pos);
        let mut plan = FaultPlan::empty();
        plan.set_ground_fade(fade);
        let access = if range <= max_range_m && look::is_visible_spherical(ge, pos, el) {
            if plan.access_link_masked(ge, pos) {
                Access::Faded
            } else {
                Access::Open
            }
        } else {
            Access::Hidden
        };
        (access, range.to_bits())
    }

    /// The kernel's verdict, fed as both scans feed it (the frontier
    /// takes the root of the squared norm it prefilters on, which is
    /// `d.norm()` bit for bit).
    fn kernel(ge: Ecef, pos: Ecef, max_range_m: f64, el: Angle, fade: GroundFade) -> (Access, u64) {
        let d = pos.0 - ge.0;
        let range = d.norm_squared().sqrt();
        assert_eq!(range.to_bits(), d.norm().to_bits());
        let test = AccessTest::new(max_range_m, el.sin(), fade);
        (test.classify(d, range, ge.0.normalized()), range.to_bits())
    }

    /// A satellite `range_m` from `ge` at elevation `el_rad` (any real
    /// value: past 90° it leans over the zenith to the other side).
    fn plant(ge: Ecef, el_rad: f64, range_m: f64) -> Ecef {
        let cross = |a: Vec3, b: Vec3| {
            Vec3::new(
                a.y * b.z - a.z * b.y,
                a.z * b.x - a.x * b.z,
                a.x * b.y - a.y * b.x,
            )
        };
        let up = ge.0.normalized();
        let east = cross(Vec3::Z, up);
        let east = if east.norm() < 1e-9 {
            Vec3::X
        } else {
            east.normalized()
        };
        let north = cross(up, east);
        let horizontal = (north + east).normalized();
        Ecef(ge.0 + (horizontal * el_rad.cos() + up * el_rad.sin()) * range_m)
    }

    /// `x` moved `k` units in the last place (zero stays zero).
    fn ulps(x: f64, k: i64) -> f64 {
        if x == 0.0 {
            return x;
        }
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    const MASKS_DEG: [f64; 4] = [0.0, 25.0, 89.9, 90.0];

    /// Both poles (as geodetic conversions and as exact axis points),
    /// both sides of the antimeridian, and an ordinary site.
    fn boundary_grounds() -> Vec<Ecef> {
        [
            (90.0, 0.0),
            (-90.0, 0.0),
            (10.0, 180.0),
            (10.0, -180.0),
            (-35.0, 179.9999),
            (-35.0, -179.9999),
            (6.52, 3.38),
        ]
        .iter()
        .map(|&(lat, lon)| Geodetic::ground(lat, lon).to_ecef_spherical())
        .chain([Ecef::new(0.0, 0.0, 6_371e3), Ecef::new(0.0, 0.0, -6_371e3)])
        .collect()
    }

    /// Satellites `range_m` from `ge` on both sides of elevation `mask`:
    /// the planted elevation is bisected down to the last bit where the
    /// oracle's verdict flips, and each side is also moved `-nudge..=nudge`
    /// ulps along every axis. Empty when no flip lies within a
    /// milliradian (a 90° mask away from the poles).
    fn straddle(ge: Ecef, mask: Angle, range_m: f64, nudge: i64) -> Vec<Ecef> {
        let visible = |t: f64| {
            let pos = plant(ge, mask.radians() + t, range_m);
            oracle(ge, pos, f64::INFINITY, mask, GroundFade::Clear).0 == Access::Open
        };
        let (mut lo, mut hi) = (-1e-3, if mask.degrees() >= 90.0 { 0.0 } else { 1e-3 });
        if visible(lo) || !visible(hi) {
            return Vec::new();
        }
        loop {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            if visible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let mut out = Vec::new();
        for t in [lo, hi] {
            let pos = plant(ge, mask.radians() + t, range_m);
            for k in -nudge..=nudge {
                out.push(Ecef::new(ulps(pos.0.x, k), pos.0.y, pos.0.z));
                out.push(Ecef::new(pos.0.x, ulps(pos.0.y, k), pos.0.z));
                out.push(Ecef::new(pos.0.x, pos.0.y, ulps(pos.0.z, k)));
            }
        }
        out
    }

    #[test]
    fn access_kernel_matches_the_oracle_at_planted_boundaries() {
        let masks = MASKS_DEG.map(Angle::from_degrees);
        let mut fades = vec![GroundFade::Clear, GroundFade::Outage];
        fades.extend(masks.iter().map(|&m| GroundFade::MinElevation(m)));
        let check = |ge: Ecef, pos: Ecef, max_range_m: f64| {
            for &el in &masks {
                for &fade in &fades {
                    assert_eq!(
                        kernel(ge, pos, max_range_m, el, fade),
                        oracle(ge, pos, max_range_m, el, fade),
                        "ground {ge:?}, satellite {pos:?}, mask {el:?}, {fade:?}"
                    );
                }
            }
        };
        let far = 1e9;
        let mut straddled = [false; 4];
        for ge in boundary_grounds() {
            for (m, &mask) in masks.iter().enumerate() {
                check(ge, plant(ge, mask.radians(), 800e3), far);
                let sats = straddle(ge, mask, 800e3, 3);
                straddled[m] |= !sats.is_empty();
                for pos in sats {
                    check(ge, pos, far);
                }
            }
            // A satellite at exactly the range bound passes; a bound one
            // ulp shorter rejects it.
            let pos = plant(ge, 60f64.to_radians(), 1_000e3);
            let range = ge.distance_m(pos);
            for max_range_m in [ulps(range, -1), range, ulps(range, 1)] {
                check(ge, pos, max_range_m);
            }
            assert_eq!(
                kernel(ge, pos, range, masks[1], GroundFade::Clear).0,
                Access::Open
            );
            assert_eq!(
                kernel(ge, pos, ulps(range, -1), masks[1], GroundFade::Clear).0,
                Access::Hidden
            );
            // Zero range: the satellite sits on the ground point.
            check(ge, ge, far);
            assert_eq!(
                kernel(ge, ge, far, masks[0], GroundFade::Clear).0,
                Access::Hidden
            );
        }
        assert_eq!(straddled, [true; 4], "every mask's boundary was planted");
    }

    #[test]
    fn planted_boundary_satellites_agree_on_every_path() {
        // The kernel test's boundary satellites, planted into a snapshot
        // of a shell with each mask (a shell mask stays below 90°, so the
        // 90° boundary is planted for the fade): the index scan and the
        // frontier pass (one set per point, so each point gets its own
        // wedge, and one set of all points) must return the brute-force
        // scan.
        let zenith = Angle::from_degrees(90.0);
        for mask in MASKS_DEG[..3].iter().map(|&m| Angle::from_degrees(m)) {
            let c = Constellation::from_shells(
                "planted",
                vec![leo_constellation::ShellSpec {
                    name: "shell".into(),
                    altitude_m: 550e3,
                    inclination: Angle::from_degrees(53.0),
                    num_planes: 24,
                    sats_per_plane: 24,
                    phase_factor: 1,
                    pattern: leo_constellation::WalkerPattern::Delta,
                    min_elevation: mask,
                }],
            );
            let mut snap = c.snapshot(0.0);
            let range_m = 0.9 * look::max_slant_range_m(550e3, mask);
            let grounds = boundary_grounds();
            let planted: Vec<Ecef> = grounds
                .iter()
                .flat_map(|&ge| {
                    let mut sats = straddle(ge, mask, range_m, 1);
                    sats.extend(straddle(ge, zenith, range_m, 1));
                    sats
                })
                .collect();
            assert!(!planted.is_empty() && planted.len() <= snap.len());
            snap.positions[..planted.len()].copy_from_slice(&planted);
            let index = VisibilityIndex::build(&c, &snap);
            let fades = [
                GroundFade::Clear,
                GroundFade::MinElevation(mask),
                GroundFade::MinElevation(zenith),
                GroundFade::Outage,
            ];
            for fade in fades {
                let mut plan = FaultPlan::empty();
                plan.set_ground_fade(fade);
                let lists_of = |pts: &[Ecef]| {
                    let mut lists = crate::frontier::VisibleLists::default();
                    crate::frontier::settle_visible_lists(
                        &index,
                        &crate::frontier::GroundSet::build(pts),
                        &plan,
                        &mut lists,
                    );
                    lists
                };
                let together = lists_of(&grounds);
                for (j, &ge) in grounds.iter().enumerate() {
                    let want = visible_sats(&c, &snap, ge, &plan);
                    assert_eq!(index.query(ge, &plan), want, "{mask:?}, {fade:?}, {ge:?}");
                    let mut nearest_first = want;
                    nearest_first
                        .sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
                    assert_eq!(lists_of(&[ge]).get(0), nearest_first, "{mask:?}, {fade:?}");
                    assert_eq!(together.get(j), nearest_first, "{mask:?}, {fade:?}");
                }
            }
        }
    }

    #[test]
    fn ground_fade_raises_the_effective_elevation_mask() {
        let c = presets::starlink_550_only();
        let snap = c.snapshot(0.0);
        let index = VisibilityIndex::build(&c, &snap);
        let ge = Geodetic::ground(0.0, 0.0).to_ecef_spherical();
        let mut plan = FaultPlan::empty();
        plan.set_ground_fade(crate::fault::GroundFade::MinElevation(
            leo_geo::Angle::from_degrees(60.0),
        ));
        let faded = index.query(ge, &plan);
        let plain = index.query(ge, &FaultPlan::empty());
        assert!(faded.len() < plain.len(), "a 60° mask must shrink the set");
        for v in &faded {
            assert!(look::is_visible_spherical(
                ge,
                snap.position(v.id),
                leo_geo::Angle::from_degrees(60.0)
            ));
        }
        plan.set_ground_fade(crate::fault::GroundFade::Outage);
        assert!(index.query(ge, &plan).is_empty());
    }
}
