//! The determinism check on two run manifests.
//!
//! [`same_work`] checks that two runs did the same work: every counter
//! equal, and every time series equal point for point. [`SameWork`]
//! is its verdict. Two runs of one binary in one mode must pass it at
//! any thread count and at any `LEO_OBS` level that records metrics
//! (full-mode `fig6` only at one thread: when its snapshot cache clears
//! depends on scheduling), and a fresh full-mode run at one thread must
//! pass it against the manifest committed in `results/`. The
//! `perf_report` binary wires it behind `--same-work`/`--require`.

use crate::cli::{RunManifest, TimeSeriesRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The outcome of one [`same_work`]: how much matched, and every
/// difference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SameWork {
    /// Counters equal by name and value in both manifests.
    pub counters_equal: usize,
    /// Time series equal point for point, bitwise, in both.
    pub series_equal: usize,
    /// One line per difference, each naming its metric. Empty means the
    /// two runs did the same work.
    pub offenders: Vec<String>,
}

/// Checks that manifests `a` and `b` record the same work: every counter
/// equal by name and value, and every time series equal point for
/// point, compared bitwise. Each name in `require` must be a counter or a
/// series of `a`, and `a` must count some work (a counter above zero),
/// so a run made without metrics — no counters, or all of them zero at
/// `LEO_OBS=off` — cannot pass vacuously. Histograms and phases measure
/// wall-clock time, so they are ignored.
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
    let (wa, wb) = (named_series(a), named_series(b));
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

fn named_series(m: &RunManifest) -> BTreeMap<&str, &TimeSeriesRecord> {
    m.timeseries.iter().map(|s| (s.name.as_str(), s)).collect()
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

    fn hist(name: &str, mean: f64) -> HistogramRecord {
        HistogramRecord {
            name: name.into(),
            count: 100,
            sum: 100.0 * mean,
            mean,
            max: mean * 2.0,
        }
    }

    fn series(name: &str, values: &[f64]) -> TimeSeriesRecord {
        TimeSeriesRecord {
            name: name.into(),
            points: values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 * 60.0, v))
                .collect(),
        }
    }

    /// A run with two counters, one series, one histogram and one phase
    /// — every kind of record [`same_work`] judges or ignores.
    fn run() -> RunManifest {
        RunManifest {
            name: "t".into(),
            quick: false,
            threads: 1,
            config_warnings: vec![],
            obs_level: "metrics".into(),
            total_s: 1.0,
            phases: vec![PhaseRecord {
                name: "sweep".into(),
                wall_s: 1.0,
            }],
            counters: vec![
                CounterRecord {
                    name: "engine.dijkstra.pops".into(),
                    value: 1234,
                },
                CounterRecord {
                    name: "serve.queries".into(),
                    value: 99,
                },
            ],
            histograms: vec![hist("sim.worker_busy_s", 1.0)],
            timeseries: vec![series("serve.served", &[10.0, 12.0, 11.0])],
        }
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
    }

    #[test]
    fn histograms_and_phases_are_ignored() {
        let mut b = run();
        b.histograms[0] = hist("sim.worker_busy_s", 50.0);
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
        // A histogram does not satisfy the list.
        for name in ["sim.worker_busy_s", "no.such"] {
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
