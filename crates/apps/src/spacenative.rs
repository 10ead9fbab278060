//! Processing space-native data (§3.3) and the "invisible satellites"
//! analysis (Figs 4–5).
//!
//! Two models live here:
//!
//! 1. **Invisible satellites** — at a snapshot, how many satellites are
//!    not directly reachable from any of the largest *n* population
//!    centers. The paper finds >⅓ of Starlink and >½ of Kuiper invisible
//!    even with ground stations at 1,000 cities.
//! 2. **Sensing pipeline** — an Earth-observation satellite produces data
//!    faster than it can downlink; in-orbit pre-processing (and
//!    cooperative processing over ISLs) raises the achievable sensing
//!    duty cycle and cuts downlink volume.

use leo_core::InOrbitService;
use leo_geo::{Ecef, Geodetic};
use serde::{Deserialize, Serialize};

/// Result of the invisible-satellite count for one ground-station set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvisibleReport {
    /// Number of ground sites used.
    pub num_sites: usize,
    /// Total satellites in the constellation.
    pub total_sats: usize,
    /// Satellites invisible from every site.
    pub invisible: usize,
}

impl InvisibleReport {
    /// Invisible fraction of the constellation.
    pub fn fraction(&self) -> f64 {
        self.invisible as f64 / self.total_sats as f64
    }
}

/// Counts satellites invisible from all of `sites` at time `t`, through
/// the service's cached snapshot view and its spatial index.
pub fn invisible_count(service: &InOrbitService, sites: &[Geodetic], t: f64) -> InvisibleReport {
    let _span = leo_obs::span!("apps.spacenative.coverage_s");
    leo_obs::counter!("apps.spacenative.coverage_sites").add(sites.len() as u64);
    let view = service.view(t);
    let grounds: Vec<Ecef> = sites.iter().map(|g| g.to_ecef_spherical()).collect();
    let mask = view.index().coverage_mask(&grounds);
    let invisible = mask.iter().filter(|&&v| !v).count();
    InvisibleReport {
        num_sites: sites.len(),
        total_sats: mask.len(),
        invisible,
    }
}

/// Invisible-satellite counts for a growing ground-station set, and the
/// satellites the whole set still cannot see.
#[derive(Debug, Clone, PartialEq)]
pub struct InvisibleSeries {
    /// One report per prefix length, in the order requested.
    pub reports: Vec<InvisibleReport>,
    /// Geodetic subpoints of the satellites invisible from every site of
    /// the longest prefix, in satellite order — the data behind Fig 5's
    /// map.
    pub positions: Vec<Geodetic>,
}

/// [`InvisibleReport`]s for a *growing* ground-station set: one report
/// per prefix length in `prefix_sizes` (ascending) of `sites`, plus the
/// subpoints of the satellites the longest prefix leaves invisible. The
/// coverage mask is extended incrementally — each site's visibility is
/// computed exactly once however many prefixes it appears in — which is
/// what makes Fig 4's 100..=1000-city sweep cheap, and Fig 5's map reads
/// the same mask.
///
/// # Panics
/// Panics when `prefix_sizes` is not ascending or a size exceeds
/// `sites.len()`.
pub fn invisible_series(
    service: &InOrbitService,
    sites: &[Geodetic],
    t: f64,
    prefix_sizes: &[usize],
) -> InvisibleSeries {
    let _span = leo_obs::span!("apps.spacenative.coverage_s");
    let view = service.view(t);
    let total_sats = view.index().num_satellites();
    let mut mask = vec![false; total_sats];
    let mut covered = 0usize;
    let mut reports = Vec::with_capacity(prefix_sizes.len());
    for &n in prefix_sizes {
        assert!(covered <= n && n <= sites.len(), "prefix sizes must ascend");
        let grounds: Vec<Ecef> = sites[covered..n]
            .iter()
            .map(|g| g.to_ecef_spherical())
            .collect();
        // Sites are counted as they are *covered*, not per prefix, so the
        // total matches the incremental work actually done.
        leo_obs::counter!("apps.spacenative.coverage_sites").add(grounds.len() as u64);
        view.index().mark_coverage(&grounds, &mut mask);
        covered = n;
        reports.push(InvisibleReport {
            num_sites: n,
            total_sats,
            invisible: mask.iter().filter(|&&v| !v).count(),
        });
    }
    let positions = view
        .snapshot()
        .iter()
        .filter(|(id, _)| !mask[id.0 as usize])
        .map(|(_, pos)| pos.to_geodetic_spherical())
        .collect();
    InvisibleSeries { reports, positions }
}

/// An Earth-observation sensing pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensingPipeline {
    /// Raw sensor data production rate while sensing, bits/s (the paper
    /// cites "multi-Gbps data production").
    pub sensor_rate_bps: f64,
    /// Downlink rate available for sensing data, bits/s (the paper notes
    /// ~10 Gbps links shared with the network service).
    pub downlink_rate_bps: f64,
    /// In-orbit pre-processing data reduction factor ≥ 1 (output =
    /// input / factor). 1 = no processing. §3.3: "the amount of actually
    /// interesting or actionable data is often a minute fraction of the
    /// data gathered".
    pub reduction_factor: f64,
}

impl SensingPipeline {
    /// Fraction of time the satellite can sense, bounded by draining the
    /// (possibly reduced) data through the downlink: duty ≤ D·k / R.
    pub fn sensing_duty_cycle(&self) -> f64 {
        assert!(self.reduction_factor >= 1.0, "reduction must be ≥ 1");
        (self.downlink_rate_bps * self.reduction_factor / self.sensor_rate_bps).min(1.0)
    }

    /// Downlink volume per sensing-second, bits (after reduction).
    pub fn downlink_bits_per_sensing_s(&self) -> f64 {
        self.sensor_rate_bps / self.reduction_factor
    }

    /// Daily sensed data volume, bits, given the duty cycle.
    pub fn daily_sensed_bits(&self) -> f64 {
        self.sensor_rate_bps * self.sensing_duty_cycle() * 86_400.0
    }
}

/// Cooperative processing: offloading a sensing backlog to `helpers` idle
/// neighbor satellites over ISLs. Returns the makespan (seconds) of
/// processing `backlog_bits` when each satellite computes at
/// `compute_bps` and the backlog must first be spread over ISLs of rate
/// `isl_rate_bps` (one hop, store-and-forward; distribution and local
/// compute overlap is ignored — this is the paper's bulk-processing
/// regime where "milliseconds … should still be sufficient").
pub fn cooperative_makespan_s(
    backlog_bits: f64,
    compute_bps: f64,
    isl_rate_bps: f64,
    helpers: usize,
) -> f64 {
    assert!(backlog_bits >= 0.0 && compute_bps > 0.0 && isl_rate_bps > 0.0);
    let n = helpers as f64 + 1.0; // self plus helpers
    let share = backlog_bits / n;
    // Ship each helper's share sequentially over the local ISLs, then all
    // compute in parallel.
    let distribution = (backlog_bits - share) / isl_rate_bps;
    distribution + share / compute_bps
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_cities::WorldCities;
    use leo_constellation::presets;

    #[test]
    fn over_a_third_of_starlink_is_invisible_from_1000_cities() {
        // Fig 4: "more than a third of Starlink's … satellites are
        // 'invisible' in this manner at any time".
        let service = InOrbitService::new(presets::starlink_phase1());
        let cities = WorldCities::load_at_least(1000).top_n_geodetic(1000);
        let r = invisible_count(&service, &cities, 0.0);
        assert_eq!(r.total_sats, 4409);
        assert!(
            r.fraction() > 0.33,
            "invisible fraction {} (paper: >1/3)",
            r.fraction()
        );
        assert!(r.fraction() < 0.75, "implausibly high {}", r.fraction());
    }

    #[test]
    fn over_half_of_kuiper_is_invisible_from_1000_cities() {
        // Fig 4: "more than a half of Kuiper's satellites".
        let service = InOrbitService::new(presets::kuiper());
        let cities = WorldCities::load_at_least(1000).top_n_geodetic(1000);
        let r = invisible_count(&service, &cities, 0.0);
        assert!(
            r.fraction() > 0.5,
            "invisible fraction {} (paper: >1/2)",
            r.fraction()
        );
    }

    #[test]
    fn more_cities_means_fewer_invisible_satellites() {
        let service = InOrbitService::new(presets::kuiper());
        let ds = WorldCities::load_at_least(1000);
        let r100 = invisible_count(&service, &ds.top_n_geodetic(100), 0.0);
        let r1000 = invisible_count(&service, &ds.top_n_geodetic(1000), 0.0);
        assert!(r1000.invisible < r100.invisible);
    }

    #[test]
    fn invisible_series_matches_pointwise_counts() {
        let service = InOrbitService::new(presets::kuiper());
        let sites = WorldCities::load_at_least(400).top_n_geodetic(400);
        let series = invisible_series(&service, &sites, 0.0, &[100, 250, 400]);
        assert_eq!(series.reports.len(), 3);
        for r in &series.reports {
            let direct = invisible_count(&service, &sites[..r.num_sites], 0.0);
            assert_eq!(r.invisible, direct.invisible, "at {} sites", r.num_sites);
            assert_eq!(r.total_sats, direct.total_sats);
        }
    }

    #[test]
    #[should_panic(expected = "prefix sizes must ascend")]
    fn invisible_series_rejects_descending_prefixes() {
        let service = InOrbitService::new(presets::kuiper());
        let sites = WorldCities::load().top_n_geodetic(50);
        invisible_series(&service, &sites, 0.0, &[50, 10]);
    }

    #[test]
    fn invisible_positions_match_the_count() {
        // The positions belong to the longest prefix, not to the first.
        let service = InOrbitService::new(presets::kuiper());
        let cities = WorldCities::load().top_n_geodetic(200);
        let r = invisible_count(&service, &cities, 0.0);
        let series = invisible_series(&service, &cities, 0.0, &[50, 200]);
        assert_eq!(series.positions.len(), r.invisible);
        assert!(series.reports[0].invisible > r.invisible);
    }

    #[test]
    fn invisible_starlink_satellites_skew_south() {
        // Fig 5: "the vast majority of invisible satellites are the ones
        // South of most of the World's population".
        let service = InOrbitService::new(presets::starlink_phase1());
        let cities = WorldCities::load_at_least(1000).top_n_geodetic(1000);
        let pos = invisible_series(&service, &cities, 0.0, &[1000]).positions;
        let south = pos.iter().filter(|p| p.lat.degrees() < 0.0).count();
        assert!(
            south * 2 > pos.len(),
            "south {} of {} — expected southern skew",
            south,
            pos.len()
        );
    }

    #[test]
    fn sensing_duty_cycle_is_downlink_bound_without_processing() {
        // 8 Gbps sensor, 2 Gbps downlink share: 25 % duty cycle raw.
        let p = SensingPipeline {
            sensor_rate_bps: 8e9,
            downlink_rate_bps: 2e9,
            reduction_factor: 1.0,
        };
        assert!((p.sensing_duty_cycle() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn preprocessing_multiplies_sensing_time_up_to_saturation() {
        let mut p = SensingPipeline {
            sensor_rate_bps: 8e9,
            downlink_rate_bps: 2e9,
            reduction_factor: 2.0,
        };
        // Twice the raw 25 % duty cycle.
        assert!((p.sensing_duty_cycle() - 0.5).abs() < 1e-12);
        // ×10 reduction saturates at 100 % duty (4× the raw duty).
        p.reduction_factor = 10.0;
        assert_eq!(p.sensing_duty_cycle(), 1.0);
    }

    #[test]
    fn preprocessing_cuts_downlink_volume_proportionally() {
        let p = SensingPipeline {
            sensor_rate_bps: 8e9,
            downlink_rate_bps: 2e9,
            reduction_factor: 16.0,
        };
        assert!((p.downlink_bits_per_sensing_s() - 0.5e9).abs() < 1e-3);
    }

    #[test]
    fn cooperative_processing_beats_solo_for_large_backlogs() {
        // 1 Tbit backlog, 10 Gbps of compute per satellite, 100 Gbps ISLs.
        let solo = cooperative_makespan_s(1e12, 1e10, 1e11, 0);
        let coop = cooperative_makespan_s(1e12, 1e10, 1e11, 9);
        assert!((solo - 100.0).abs() < 1e-9);
        assert!(coop < solo / 2.0, "coop {coop} vs solo {solo}");
    }

    #[test]
    fn slow_isls_erase_the_cooperative_benefit() {
        // When shipping costs as much as computing, helpers don't pay off.
        let solo = cooperative_makespan_s(1e12, 1e10, 1e9, 0);
        let coop = cooperative_makespan_s(1e12, 1e10, 1e9, 9);
        assert!(coop > solo, "coop {coop} vs solo {solo}");
    }
}
