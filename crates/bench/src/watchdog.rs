//! Run-vs-run checks on two manifests.
//!
//! * [`compare`] is the quantile-aware regression watchdog. The CI
//!   throughput gate (`perf_report --min-qps-ratio`) watches one number;
//!   latency *distributions* can drift a long way underneath it (a
//!   fatter tail at the same mean, a bimodal split). So candidate p50
//!   and p99 of each histogram may each grow by at most a configured
//!   factor over baseline (one-sided: these are latencies and work
//!   sizes, getting smaller is fine). [`WatchdogReport::markdown`]
//!   renders the verdict for a CI job summary.
//! * [`same_work`] is the determinism check: two runs of one binary at
//!   different thread counts must report the same counters and the same
//!   work time series, point for point.
//!
//! The `perf_report` binary wires the watchdog behind
//! `--p50-tol`/`--p99-tol`/`--quantile-metric`/`--md-report` and the
//! determinism check behind `--same-work`/`--require`.

use crate::cli::{RunManifest, TimeSeriesRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Tolerances for [`compare`]. Each is a ratio ceiling relative to
/// baseline; `f64::INFINITY` disables that check.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Candidate p50 may be at most `p50_tol` × baseline p50.
    pub p50_tol: f64,
    /// Candidate p99 may be at most `p99_tol` × baseline p99.
    pub p99_tol: f64,
    /// When non-empty, only the histograms named here are checked, and
    /// each must be present in both manifests. CI uses this to restrict
    /// a mixed-scale diff (full-run committed baseline vs quick-mode
    /// candidate) to the scale-invariant per-query latency histogram.
    pub metrics: Vec<String>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // Log-bucketed quantiles are accurate to one bucket (≲ 19 %),
            // so anything under ~1.2 would flake on bucket boundaries;
            // the defaults leave room for machine noise on top.
            p50_tol: 2.0,
            p99_tol: 2.0,
            metrics: Vec::new(),
        }
    }
}

/// The [`Finding::stat`] of a [`WatchdogConfig::metrics`] name that one
/// manifest or both lack.
pub const MISSING: &str = "missing";

/// One watchdog finding: `metric`'s `stat` moved from `baseline` to
/// `candidate`, a ratio of `ratio` against a tolerance of `tolerance`.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Histogram name.
    pub metric: String,
    /// Which statistic regressed: `p50` or `p99`; or [`MISSING`].
    pub stat: &'static str,
    /// Baseline value; for [`MISSING`], the baseline's sample count (0
    /// when the histogram is absent).
    pub baseline: f64,
    /// Candidate value; for [`MISSING`], the candidate's sample count.
    pub candidate: f64,
    /// `candidate / baseline` (`INFINITY` when baseline is zero; NaN for
    /// [`MISSING`]).
    pub ratio: f64,
    /// The tolerance the ratio violated (NaN for [`MISSING`]).
    pub tolerance: f64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stat == MISSING {
            write!(
                f,
                "{} is missing — baseline has {} sample(s), candidate {}",
                self.metric, self.baseline, self.candidate
            )
        } else {
            write!(
                f,
                "{} {} regressed — baseline {:.6}, candidate {:.6}, ratio {:.3} breaks tolerance {:.3}",
                self.metric, self.stat, self.baseline, self.candidate, self.ratio, self.tolerance
            )
        }
    }
}

/// The outcome of one [`compare`]: findings plus how much was checked
/// (so an empty findings list from an empty comparison is visibly
/// vacuous, not silently green).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WatchdogReport {
    /// Missing named metrics first, then tolerance violations in
    /// manifest order.
    pub findings: Vec<Finding>,
    /// Histograms present in both manifests and quantile-checked.
    pub histograms_checked: usize,
}

impl WatchdogReport {
    /// True when nothing was missing or violated its tolerance.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as markdown (a table of findings, or a green
    /// one-liner), for CI job summaries.
    pub fn markdown(&self, baseline: &str, candidate: &str) -> String {
        let mut out = String::new();
        out.push_str("## Quantile watchdog\n\n");
        out.push_str(&format!(
            "Compared `{candidate}` against `{baseline}`: {} histogram(s) on p50/p99.\n\n",
            self.histograms_checked
        ));
        if self.is_clean() {
            out.push_str("No regressions: every quantile within tolerance.\n");
            return out;
        }
        out.push_str(&format!("**{} violation(s):**\n\n", self.findings.len()));
        out.push_str("| metric | stat | baseline | candidate | ratio | tolerance |\n");
        out.push_str("|---|---|---:|---:|---:|---:|\n");
        for f in &self.findings {
            out.push_str(&format!(
                "| `{}` | {} | {:.6} | {:.6} | {:.3} | {:.3} |\n",
                f.metric, f.stat, f.baseline, f.candidate, f.ratio, f.tolerance
            ));
        }
        out
    }
}

/// `candidate / baseline` with the zero-baseline convention: both zero is
/// a clean 1.0, baseline-only-zero is `INFINITY` (flagged by any finite
/// tolerance).
fn ratio(baseline: f64, candidate: f64) -> f64 {
    if baseline > 0.0 {
        candidate / baseline
    } else if candidate == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// Diffs `cand` against `base` under `cfg`. A name in `cfg.metrics` that
/// either manifest lacks is a [`MISSING`] finding. Without that filter,
/// histograms present in only one manifest are skipped — the watchdog
/// judges drift, not coverage (the counter diff in `perf_report` already
/// shows appearing/disappearing metrics).
pub fn compare(base: &RunManifest, cand: &RunManifest, cfg: &WatchdogConfig) -> WatchdogReport {
    let mut report = WatchdogReport::default();
    let samples = |m: &RunManifest, name: &str| {
        m.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.count)
    };
    for name in &cfg.metrics {
        let (b, c) = (samples(base, name), samples(cand, name));
        if b == 0 || c == 0 {
            report.findings.push(Finding {
                metric: name.clone(),
                stat: MISSING,
                baseline: b as f64,
                candidate: c as f64,
                ratio: f64::NAN,
                tolerance: f64::NAN,
            });
        }
    }
    for b in &base.histograms {
        if !cfg.metrics.is_empty() && !cfg.metrics.contains(&b.name) {
            continue;
        }
        let Some(c) = cand.histograms.iter().find(|c| c.name == b.name) else {
            continue;
        };
        report.histograms_checked += 1;
        for (stat, bv, cv, tol) in [
            ("p50", b.p50, c.p50, cfg.p50_tol),
            ("p99", b.p99, c.p99, cfg.p99_tol),
        ] {
            let r = ratio(bv, cv);
            if r > tol {
                report.findings.push(Finding {
                    metric: b.name.clone(),
                    stat,
                    baseline: bv,
                    candidate: cv,
                    ratio: r,
                    tolerance: tol,
                });
            }
        }
    }
    report
}

/// The outcome of one [`same_work`]: how much matched, and every
/// difference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SameWork {
    /// Counters equal by name and value in both manifests.
    pub counters_equal: usize,
    /// Work time series equal point for point, bitwise, in both.
    pub series_equal: usize,
    /// One line per difference, each naming its metric. Empty means the
    /// two runs did the same work.
    pub offenders: Vec<String>,
}

/// Checks that manifests `a` and `b` record the same work: every counter
/// equal by name and value, and every work time series (`timing: false`)
/// equal point for point, compared bitwise. Each name in `require` must
/// be a counter or a work series of `a`, and `a` must count some work (a
/// counter above zero), so a run made without metrics — no counters, or
/// all of them zero at `LEO_OBS=off` — cannot pass vacuously.
/// Histograms, phases and timing series measure wall-clock time, so they
/// are ignored.
pub fn same_work(a: &RunManifest, b: &RunManifest, require: &[String]) -> SameWork {
    let mut report = SameWork::default();
    if a.counters.iter().all(|c| c.value == 0) {
        report.offenders.push(
            "the first manifest counts no work: no counter above zero (run with LEO_OBS set)"
                .into(),
        );
    }
    let (ca, cb) = (counters(a), counters(b));
    for name in ca.keys().chain(cb.keys()).collect::<BTreeSet<_>>() {
        match (ca.get(name), cb.get(name)) {
            (Some(x), Some(y)) if x == y => report.counters_equal += 1,
            (x, y) => report
                .offenders
                .push(format!("counter {name}: {} vs {}", show(x), show(y))),
        }
    }
    let (wa, wb) = (work_series(a), work_series(b));
    for name in wa.keys().chain(wb.keys()).collect::<BTreeSet<_>>() {
        match (wa.get(name), wb.get(name)) {
            (Some(x), Some(y)) => match first_difference(x, y) {
                None => report.series_equal += 1,
                Some(diff) => report.offenders.push(format!("work series {name}: {diff}")),
            },
            (x, y) => {
                let points =
                    |s: Option<&&TimeSeriesRecord>| s.map(|s| format!("{} points", s.points.len()));
                report.offenders.push(format!(
                    "work series {name}: {} vs {}",
                    show(points(x)),
                    show(points(y))
                ))
            }
        }
    }
    for name in require {
        if !ca.contains_key(name.as_str()) && !wa.contains_key(name.as_str()) {
            report.offenders.push(format!(
                "required {name}: neither a counter nor a work series of the first manifest"
            ));
        }
    }
    report
}

fn counters(m: &RunManifest) -> BTreeMap<&str, u64> {
    m.counters
        .iter()
        .map(|c| (c.name.as_str(), c.value))
        .collect()
}

fn work_series(m: &RunManifest) -> BTreeMap<&str, &TimeSeriesRecord> {
    m.timeseries
        .iter()
        .filter(|s| !s.timing)
        .map(|s| (s.name.as_str(), s))
        .collect()
}

/// A value, or `absent` when one side lacks the metric.
fn show<T: fmt::Display>(v: Option<T>) -> String {
    v.map_or("absent".into(), |v| v.to_string())
}

/// Where two series first differ bitwise, `None` when they are equal.
fn first_difference(a: &TimeSeriesRecord, b: &TimeSeriesRecord) -> Option<String> {
    let bits = |&(x, v): &(f64, f64)| (x.to_bits(), v.to_bits());
    match a
        .points
        .iter()
        .zip(&b.points)
        .position(|(p, q)| bits(p) != bits(q))
    {
        Some(i) => Some(format!(
            "point {i} is {:?} vs {:?}",
            a.points[i], b.points[i]
        )),
        None if a.points.len() != b.points.len() => {
            Some(format!("{} points vs {}", a.points.len(), b.points.len()))
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{CounterRecord, HistogramRecord, PhaseRecord};

    fn manifest(
        histograms: Vec<HistogramRecord>,
        timeseries: Vec<TimeSeriesRecord>,
    ) -> RunManifest {
        RunManifest {
            name: "t".into(),
            quick: false,
            threads: 1,
            config_warnings: vec![],
            obs_level: "metrics".into(),
            total_s: 1.0,
            phases: vec![],
            counters: vec![],
            histograms,
            timeseries,
        }
    }

    fn hist(name: &str, p50: f64, p99: f64) -> HistogramRecord {
        HistogramRecord {
            name: name.into(),
            count: 100,
            sum: 100.0 * p50,
            mean: p50,
            p50,
            p99,
            max: p99 * 2.0,
        }
    }

    fn series(name: &str, timing: bool, values: &[f64]) -> TimeSeriesRecord {
        TimeSeriesRecord {
            name: name.into(),
            timing,
            points: values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 * 60.0, v))
                .collect(),
        }
    }

    /// The acceptance fixture: a synthetic p99 regression (fat tail at a
    /// steady median) must be flagged, and the markdown must name it.
    #[test]
    fn flags_a_synthetic_p99_regression() {
        let base = manifest(vec![hist("serve.query_latency_s", 1e-3, 2e-3)], vec![]);
        let cand = manifest(vec![hist("serve.query_latency_s", 1e-3, 9e-3)], vec![]);
        let report = compare(&base, &cand, &WatchdogConfig::default());
        assert_eq!(report.histograms_checked, 1);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(
            (f.metric.as_str(), f.stat),
            ("serve.query_latency_s", "p99")
        );
        assert!((f.ratio - 4.5).abs() < 1e-9);
        assert!(!report.is_clean());
        let md = report.markdown("base.meta.json", "cand.meta.json");
        assert!(md.contains("serve.query_latency_s") && md.contains("p99"));
        assert!(md.contains("1 violation"));
    }

    #[test]
    fn within_tolerance_is_clean_and_improvements_never_flag() {
        let base = manifest(vec![hist("h", 1.0, 2.0)], vec![]);
        // 1.5x p50 and p99: inside the default 2.0 tolerance.
        let close = manifest(vec![hist("h", 1.5, 3.0)], vec![]);
        assert!(compare(&base, &close, &WatchdogConfig::default()).is_clean());
        // 10x *better* is one-sided fine.
        let faster = manifest(vec![hist("h", 0.1, 0.2)], vec![]);
        assert!(compare(&base, &faster, &WatchdogConfig::default()).is_clean());
    }

    #[test]
    fn metric_filter_restricts_quantile_and_envelope_checks() {
        let base = manifest(
            vec![hist("noisy", 1.0, 1.0), hist("gated", 1.0, 1.0)],
            vec![],
        );
        let cand = manifest(
            vec![hist("noisy", 50.0, 50.0), hist("gated", 1.0, 1.0)],
            vec![],
        );
        let cfg = WatchdogConfig {
            metrics: vec!["gated".into()],
            ..WatchdogConfig::default()
        };
        let report = compare(&base, &cand, &cfg);
        assert_eq!(report.histograms_checked, 1);
        assert!(report.is_clean(), "filtered-out metric still flagged");
        // Without the filter the noisy histogram trips both quantile
        // checks.
        let unfiltered = compare(&base, &cand, &WatchdogConfig::default());
        assert_eq!(unfiltered.histograms_checked, 2);
        assert_eq!(unfiltered.findings.len(), 2);
        assert!(unfiltered.findings.iter().all(|f| f.metric == "noisy"));
    }

    #[test]
    fn zero_baselines_follow_the_ratio_convention() {
        // Both zero: clean. Baseline zero, candidate not: flagged.
        let base = manifest(vec![hist("h", 0.0, 0.0)], vec![]);
        let same = manifest(vec![hist("h", 0.0, 0.0)], vec![]);
        assert!(compare(&base, &same, &WatchdogConfig::default()).is_clean());
        let grew = manifest(vec![hist("h", 0.0, 5.0)], vec![]);
        let report = compare(&base, &grew, &WatchdogConfig::default());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].stat, "p99");
        assert!(report.findings[0].ratio.is_infinite());
    }

    #[test]
    fn disjoint_manifests_are_vacuously_clean_but_visibly_so() {
        let base = manifest(vec![hist("only.base", 1.0, 1.0)], vec![]);
        let cand = manifest(vec![hist("only.cand", 1.0, 1.0)], vec![]);
        let report = compare(&base, &cand, &WatchdogConfig::default());
        assert!(report.is_clean());
        assert_eq!(report.histograms_checked, 0);
        let md = report.markdown("b", "c");
        assert!(md.contains("0 histogram(s)"));
    }

    /// A named metric must be there to be judged: absent from either
    /// manifest (or both), it is a finding, not a vacuous pass.
    #[test]
    fn a_named_metric_missing_from_either_manifest_is_a_finding() {
        let both = manifest(vec![hist("h", 1.0, 1.0)], vec![]);
        let none = manifest(vec![], vec![]);
        for name in ["h", "no.such.histogram"] {
            let cfg = WatchdogConfig {
                metrics: vec![name.into()],
                ..WatchdogConfig::default()
            };
            for (base, cand) in [(&both, &none), (&none, &both), (&none, &none)] {
                let report = compare(base, cand, &cfg);
                assert_eq!(report.histograms_checked, 0);
                assert_eq!(report.findings.len(), 1, "{name}");
                let f = &report.findings[0];
                assert_eq!((f.metric.as_str(), f.stat), (name, MISSING));
                assert!(f.to_string().contains(name) && f.to_string().contains("missing"));
            }
        }
        let cfg = WatchdogConfig {
            metrics: vec!["h".into()],
            ..WatchdogConfig::default()
        };
        let f = &compare(&both, &none, &cfg).findings[0];
        assert_eq!((f.baseline, f.candidate), (100.0, 0.0));
        assert!(compare(&both, &both, &cfg).is_clean());
    }

    // ------------------------------------------------------ same_work

    /// A run with two counters, one work series, one timing series, one
    /// histogram and one phase — every kind of record [`same_work`]
    /// judges or ignores.
    fn run() -> RunManifest {
        let mut m = manifest(
            vec![hist("sim.worker_busy_s", 1.0, 2.0)],
            vec![
                series("serve.served", false, &[10.0, 12.0, 11.0]),
                series("serve.snapshot_wall_s", true, &[0.1, 0.2, 0.3]),
            ],
        );
        m.counters = vec![
            CounterRecord {
                name: "engine.dijkstra.pops".into(),
                value: 1234,
            },
            CounterRecord {
                name: "serve.queries".into(),
                value: 99,
            },
        ];
        m.phases = vec![PhaseRecord {
            name: "sweep".into(),
            wall_s: 1.0,
        }];
        m
    }

    fn offenders(a: &RunManifest, b: &RunManifest) -> Vec<String> {
        same_work(a, b, &[]).offenders
    }

    #[test]
    fn identical_work_passes_and_counts_what_matched() {
        let report = same_work(&run(), &run(), &["serve.queries".into()]);
        assert_eq!(
            report,
            SameWork {
                counters_equal: 2,
                series_equal: 1,
                offenders: vec![],
            }
        );
    }

    #[test]
    fn a_changed_counter_fails_and_names_it() {
        let mut b = run();
        b.counters[1].value = 100;
        let found = offenders(&run(), &b);
        assert_eq!(found, ["counter serve.queries: 99 vs 100"]);
    }

    #[test]
    fn a_counter_on_one_side_only_fails_and_names_it() {
        let mut b = run();
        b.counters.remove(0);
        assert_eq!(
            offenders(&run(), &b),
            ["counter engine.dijkstra.pops: 1234 vs absent"]
        );
        assert_eq!(
            offenders(&b, &run()),
            ["counter engine.dijkstra.pops: absent vs 1234"]
        );
    }

    #[test]
    fn a_changed_work_series_point_fails_and_names_it() {
        let mut b = run();
        b.timeseries[0].points[2].1 = 11.000000000000002;
        let found = offenders(&run(), &b);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].starts_with("work series serve.served: point 2"),
            "{found:?}"
        );
        // A dropped point is a difference too.
        let mut short = run();
        short.timeseries[0].points.pop();
        assert_eq!(
            offenders(&run(), &short),
            ["work series serve.served: 3 points vs 2"]
        );
    }

    #[test]
    fn a_work_series_on_one_side_only_fails_and_names_it() {
        let mut b = run();
        b.timeseries.remove(0);
        assert_eq!(
            offenders(&run(), &b),
            ["work series serve.served: 3 points vs absent"]
        );
        // Flipping the kind moves it out of the work set as well.
        let mut timing = run();
        timing.timeseries[0].timing = true;
        assert_eq!(offenders(&timing, &run()).len(), 1);
    }

    #[test]
    fn timing_series_histograms_and_phases_are_ignored() {
        let mut b = run();
        b.timeseries[1].points[0].1 = 99.0;
        b.histograms[0] = hist("sim.worker_busy_s", 50.0, 80.0);
        b.phases[0].wall_s = 7.5;
        b.total_s = 9.0;
        b.threads = 4;
        assert_eq!(offenders(&run(), &b), Vec::<String>::new());
    }

    #[test]
    fn a_required_name_must_be_a_counter_or_work_series_of_the_first() {
        let require = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            same_work(&run(), &run(), &names).offenders
        };
        assert!(require(&["serve.queries", "serve.served"]).is_empty());
        // A timing series or a histogram does not satisfy the list.
        for name in ["serve.snapshot_wall_s", "sim.worker_busy_s", "no.such"] {
            let found = require(&[name]);
            assert_eq!(found.len(), 1, "{name}");
            assert!(found[0].contains(name), "{found:?}");
        }
    }

    /// A run made without metrics has no counters, or (at
    /// `LEO_OBS=off`) every registered counter at zero; two such runs
    /// agree on everything, so the check must refuse them.
    #[test]
    fn a_manifest_without_counted_work_fails() {
        let mut empty = run();
        empty.counters.clear();
        let mut zeros = run();
        zeros.counters.iter_mut().for_each(|c| c.value = 0);
        for a in [empty, zeros] {
            let found = offenders(&a, &a);
            assert_eq!(found.len(), 1);
            assert!(found[0].contains("counts no work"), "{found:?}");
        }
    }
}
