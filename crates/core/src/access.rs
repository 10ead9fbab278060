//! Per-latitude access statistics — the measurements behind Figs 1 and 2.
//!
//! The paper: *"For each constellation, we compute the RTT from a ground
//! location every minute over two hours, and use the maximum value across
//! these measurements. We do so for the nearest reachable satellite, as
//! well as the farthest (directly) reachable satellite."* Fig 2 reports
//! the number of reachable satellites (average over time, with min/max
//! range).

use crate::service::InOrbitService;
use leo_geo::Geodetic;
use leo_net::VisibleSat;
use serde::{Deserialize, Serialize};

/// Sampling schedule for the access experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// First sample time, seconds after the constellation epoch.
    pub start_s: f64,
    /// Interval between samples, seconds (paper: 60 s).
    pub interval_s: f64,
    /// Number of samples (paper: 2 h / 1 min = 120 + 1).
    pub samples: usize,
}

impl SamplingConfig {
    /// The paper's schedule: every minute over two hours.
    pub fn paper() -> Self {
        SamplingConfig {
            start_s: 0.0,
            interval_s: 60.0,
            samples: 121,
        }
    }

    /// A faster schedule for tests: every 5 minutes over one hour.
    pub fn coarse() -> Self {
        SamplingConfig {
            start_s: 0.0,
            interval_s: 300.0,
            samples: 13,
        }
    }

    /// Iterator over sample times.
    pub fn times(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.samples).map(move |i| self.start_s + i as f64 * self.interval_s)
    }
}

/// Access statistics for one ground location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Worst-case-over-time RTT to the *nearest* reachable satellite, ms.
    /// `None` when some sample had no reachable satellite (no service).
    pub nearest_rtt_ms: Option<f64>,
    /// Worst-case-over-time RTT to the *farthest* directly reachable
    /// satellite, ms. `None` under the same condition.
    pub farthest_rtt_ms: Option<f64>,
    /// Minimum over time of the reachable-satellite count.
    pub min_count: usize,
    /// Mean over time of the reachable-satellite count.
    pub avg_count: f64,
    /// Maximum over time of the reachable-satellite count.
    pub max_count: usize,
}

impl AccessStats {
    /// Folds per-sample visible-satellite sets into the worst-case /
    /// count statistics. This is the aggregation shared by
    /// [`access_stats`] and the sweep-engine ports of Figs 1–2, which
    /// produce the per-instant sets from prebuilt snapshot views.
    pub fn from_visible_sets<I>(sets: I) -> AccessStats
    where
        I: IntoIterator,
        I::Item: AsRef<[VisibleSat]>,
    {
        let mut nearest_worst: f64 = 0.0;
        let mut farthest_worst: f64 = 0.0;
        let mut served_everywhere = true;
        let mut min_count = usize::MAX;
        let mut max_count = 0usize;
        let mut total_count = 0usize;
        let mut samples = 0usize;

        for set in sets {
            let vis = set.as_ref();
            samples += 1;
            min_count = min_count.min(vis.len());
            max_count = max_count.max(vis.len());
            total_count += vis.len();
            if vis.is_empty() {
                served_everywhere = false;
                continue;
            }
            let near = vis.iter().map(|v| v.rtt_ms()).fold(f64::INFINITY, f64::min);
            let far = vis.iter().map(|v| v.rtt_ms()).fold(0.0, f64::max);
            nearest_worst = nearest_worst.max(near);
            farthest_worst = farthest_worst.max(far);
        }

        AccessStats {
            nearest_rtt_ms: (served_everywhere && samples > 0).then_some(nearest_worst),
            farthest_rtt_ms: (served_everywhere && samples > 0).then_some(farthest_worst),
            min_count: if samples == 0 { 0 } else { min_count },
            avg_count: if samples == 0 {
                0.0
            } else {
                total_count as f64 / samples as f64
            },
            max_count,
        }
    }
}

/// Computes [`AccessStats`] for a ground location.
pub fn access_stats(
    service: &InOrbitService,
    ground: Geodetic,
    sampling: &SamplingConfig,
) -> AccessStats {
    AccessStats::from_visible_sets(
        sampling
            .times()
            .map(|t| service.reachable_servers(ground, t)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    #[test]
    fn sampling_schedule_matches_paper() {
        let s = SamplingConfig::paper();
        let times: Vec<f64> = s.times().collect();
        assert_eq!(times.len(), 121);
        assert_eq!(times[0], 0.0);
        assert_eq!(*times.last().unwrap(), 7200.0);
    }

    #[test]
    fn starlink_equator_stats_match_fig1_and_fig2() {
        let service = InOrbitService::new(presets::starlink_phase1());
        let stats = access_stats(
            &service,
            Geodetic::ground(0.0, 0.0),
            &SamplingConfig::coarse(),
        );
        // Fig 1: nearest within ~11 ms everywhere; farthest within 16 ms.
        let near = stats.nearest_rtt_ms.expect("served");
        let far = stats.farthest_rtt_ms.expect("served");
        assert!(near < 11.0, "nearest {near}");
        assert!(far <= 16.2, "farthest {far}");
        // Fig 2: 30+ satellites visible from almost all locations.
        assert!(stats.min_count >= 20, "min count {}", stats.min_count);
        assert!(stats.avg_count >= 30.0, "avg count {}", stats.avg_count);
    }

    #[test]
    fn kuiper_is_unserved_beyond_60_degrees() {
        let service = InOrbitService::new(presets::kuiper());
        let stats = access_stats(
            &service,
            Geodetic::ground(62.0, 0.0),
            &SamplingConfig::coarse(),
        );
        assert_eq!(stats.nearest_rtt_ms, None);
        assert_eq!(stats.max_count, 0);
    }

    #[test]
    fn counts_are_internally_consistent() {
        let service = InOrbitService::new(presets::kuiper());
        let stats = access_stats(
            &service,
            Geodetic::ground(30.0, 0.0),
            &SamplingConfig::coarse(),
        );
        assert!(stats.min_count as f64 <= stats.avg_count);
        assert!(stats.avg_count <= stats.max_count as f64);
    }

    #[test]
    fn nearest_never_exceeds_farthest() {
        let service = InOrbitService::new(presets::kuiper());
        let stats = access_stats(
            &service,
            Geodetic::ground(40.0, 0.0),
            &SamplingConfig::coarse(),
        );
        if let (Some(n), Some(f)) = (stats.nearest_rtt_ms, stats.farthest_rtt_ms) {
            assert!(n <= f);
        }
    }
}
