//! # leo-bench
//!
//! The experiment harness: one binary per table/figure of the paper, or
//! per pair of figures read off one run (`fig1`, `fig3`, `fig4`, `fig6`,
//! `feasibility`; `fig1` also writes Fig 2 from the same sweep, `fig4`
//! writes Fig 5 from the same coverage mask, and `fig6` writes Fig 7
//! from the same sessions), plus Criterion micro-benchmarks and
//! ablation benches. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! Every binary prints gnuplot-ready columns to stdout and writes the
//! same series as JSON under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;

pub mod cli;
pub mod watchdog;

/// The `LEO_QUICK` decision as a pure function of the variable's value
/// (`None` = unset): anything but `0` or the empty string enables quick
/// mode. Split out so tests never have to mutate the process
/// environment, which is racy under the parallel test runner.
pub fn quick_mode_from(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// The user trios of the Fig 6/7 sessions: the paper's West Africa
/// group (Fig 3), then Southern South America, South-East Asia and
/// Central Europe, so the CDFs aggregate diverse geometry.
pub fn user_trios() -> Vec<Vec<GroundEndpoint>> {
    let trio = |pts: [(f64, f64); 3]| {
        pts.iter()
            .enumerate()
            .map(|(i, &(lat, lon))| GroundEndpoint::new(i as u32, Geodetic::ground(lat, lon)))
            .collect()
    };
    vec![
        trio([(9.06, 7.49), (3.87, 11.52), (6.52, 3.38)]),
        trio([(-34.60, -58.38), (-33.45, -70.67), (-31.42, -64.18)]),
        trio([(1.35, 103.82), (3.139, 101.69), (-6.21, 106.85)]),
        trio([(47.38, 8.54), (48.86, 2.35), (52.52, 13.40)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_honors_the_environment() {
        assert!(quick_mode_from(Some("1")));
        assert!(quick_mode_from(Some("yes")));
        assert!(!quick_mode_from(Some("0")));
        assert!(!quick_mode_from(Some("")));
        assert!(!quick_mode_from(None));
    }
}
