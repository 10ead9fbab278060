//! `--compare base.jsonl change.jsonl`: the parent-versus-change rule.
//!
//! Each file is a run set, one `target/benchmark/<W>.json` record per
//! line, runs of the two commits made alternately. The i-th base run of
//! a workload pairs with its i-th change run. Per workload and
//! end-to-end metric:
//!
//! * **regression**: the change's median is worse than the base median
//!   by more than the metric's bound from `BENCHMARK.json`;
//! * **gain**: at least ten pairs, the change wins at least nine tenths
//!   of them (ties count for neither side), and the medians differ, in
//!   the better direction, by more than the base runs' interquartile
//!   range;
//! * **unresolved**: the base runs spread wider than the bound, unless
//!   every change run reads better than every base run;
//! * otherwise **no change**.
//!
//! A workload gets no verdict at all when any of its paired runs failed
//! its output checks, when a pair's seeds differ, or when the two sets
//! ran for different lengths. A change whose runs fail more operations
//! than the base's is never a gain.

use crate::spec::{Declaration, DeclaredMetric, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pairs below this leave a row without a verdict.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Deserialize)]
struct MetricIn {
    value: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct RunIn {
    workload: String,
    seed: u64,
    trace: bool,
    seconds: f64,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, MetricIn>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoChange,
    Unresolved,
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoChange => "no change",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One metric of one workload, judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    pub base_median: f64,
    pub base_q1: f64,
    pub base_q3: f64,
    pub change_median: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rule to paired values of one metric. `fails_more`: the
/// change's runs failed more operations than the base's, which rules out
/// a gain.
pub fn judge(
    base: &[f64],
    change: &[f64],
    higher_better: bool,
    bound: f64,
    fails_more: bool,
) -> Option<Judged> {
    let pairs = base.len().min(change.len());
    let (base, change) = (&base[..pairs], &change[..pairs]);
    let (mb, mc) = (median(base)?, median(change)?);
    let (q1, q3) = quartiles(base)?;
    let better = |c: f64, b: f64| if higher_better { c > b } else { c < b };
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better(c, b))
        .count();
    let worse_by = if higher_better {
        (mb - mc) / mb.abs()
    } else {
        (mc - mb) / mb.abs()
    };
    let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if !fails_more
        && pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(mc, mb)
        && (mc - mb).abs() > q3 - q1
    {
        Verdict::Gain
    } else if spread(base).is_some_and(|s| s > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::NoChange
    };
    Some(Judged {
        base_median: mb,
        base_q1: q1,
        base_q3: q3,
        change_median: mc,
        wins,
        pairs,
        verdict,
    })
}

fn parse_runs(text: &str, what: &str) -> Result<Vec<RunIn>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str::<RunIn>(l).map_err(|e| format!("{what} line {}: {e}", i + 1))
        })
        .filter(|r| r.as_ref().map_or(true, |r| !r.trace))
        .collect()
}

/// Why a workload's paired runs cannot be compared, if they cannot: a
/// run that failed its output checks, a pair of different seeds, or two
/// run lengths.
fn unpairable(base: &[&RunIn], change: &[&RunIn]) -> Option<String> {
    let wrong = base.iter().chain(change).filter(|r| !r.correct).count();
    if wrong > 0 {
        return Some(format!("{wrong} run(s) failed their output checks"));
    }
    if let Some((i, (b, c))) = base
        .iter()
        .zip(change)
        .enumerate()
        .find(|(_, (b, c))| b.seed != c.seed)
    {
        return Some(format!(
            "pair {} ran seed {} on the base and {} on the change",
            i + 1,
            b.seed,
            c.seed
        ));
    }
    let first = base[0].seconds;
    base.iter()
        .chain(change)
        .find(|r| r.seconds != first)
        .map(|r| {
            format!(
                "runs measured for different lengths ({first} s and {} s)",
                r.seconds
            )
        })
}

/// The report: one row per workload present in both sets.
pub fn compare_runs<'a>(
    base: &'a [RunIn],
    change: &'a [RunIn],
    metrics: &[DeclaredMetric],
) -> String {
    let mut out = String::new();
    let of = |runs: &'a [RunIn], w: &str| -> Vec<&'a RunIn> {
        runs.iter().filter(|r| r.workload == w).collect()
    };
    let values = |runs: &[&RunIn], m: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.metrics.get(m).map(|v| v.value))
            .collect()
    };
    for w in WORKLOADS {
        let (mut b, mut c) = (of(base, w), of(change, w));
        let pairs = b.len().min(c.len());
        if pairs == 0 {
            continue;
        }
        b.truncate(pairs);
        c.truncate(pairs);
        let _ = write!(out, "{w:<10} pairs={pairs:<3}");
        if let Some(why) = unpairable(&b, &c) {
            let _ = writeln!(out, " no verdict: {why}");
            continue;
        }
        if pairs < MIN_PAIRS {
            let _ = write!(out, " too few pairs for a verdict (need {MIN_PAIRS})");
        }
        let failed = |runs: &[&RunIn]| runs.iter().map(|r| r.failed).sum::<u64>();
        let fails_more = failed(&c) > failed(&b);
        if fails_more {
            let _ = write!(
                out,
                " change failed {} operations, base {}: no gain",
                failed(&c),
                failed(&b)
            );
        }
        for m in metrics {
            let higher = m.better == "higher";
            let bound = m.bound.unwrap_or(0.0);
            let Some(j) = judge(
                &values(&b, &m.name),
                &values(&c, &m.name),
                higher,
                bound,
                fails_more,
            ) else {
                continue;
            };
            let rel = (j.change_median - j.base_median) / j.base_median.abs() * 100.0;
            let _ = write!(
                out,
                " | {}: {:.4} [{:.4}, {:.4}] -> {:.4} ({rel:+.1}%, wins {}/{}) {}",
                m.name,
                j.base_median,
                j.base_q1,
                j.base_q3,
                j.change_median,
                j.wins,
                j.pairs,
                j.verdict.label()
            );
        }
        out.push('\n');
    }
    out
}

pub fn compare_files(base: &str, change: &str, decl: &Declaration) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let b = parse_runs(&read(base)?, base)?;
    let c = parse_runs(&read(change)?, change)?;
    Ok(compare_runs(&b, &c, &decl.end_to_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, run_s: f64) -> RunIn {
        let mut metrics = BTreeMap::new();
        metrics.insert("run_s".to_string(), MetricIn { value: run_s });
        RunIn {
            workload: workload.into(),
            seed,
            trace: false,
            seconds: 15.0,
            correct: true,
            failed: 0,
            metrics,
        }
    }

    /// Ten runs of `workload` per set, seeds 1–10, base around 1 s and
    /// change around `change_s`.
    fn sets(workload: &str, change_s: f64) -> (Vec<RunIn>, Vec<RunIn>) {
        let runs = |center: f64| -> Vec<RunIn> {
            wobble(center, 10)
                .into_iter()
                .zip(1..)
                .map(|(v, seed)| run(workload, seed, v))
                .collect()
        };
        (runs(1.0), runs(change_s))
    }

    fn lower(bound: f64) -> Vec<DeclaredMetric> {
        vec![DeclaredMetric {
            name: "run_s".into(),
            unit: "s".into(),
            better: "lower".into(),
            bound: Some(bound),
        }]
    }

    fn wobble(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i % 5) as f64))
            .collect()
    }

    fn verdict(base: &[f64], change: &[f64], higher: bool) -> Verdict {
        judge(base, change, higher, 0.1, false).unwrap().verdict
    }

    #[test]
    fn a_clear_speedup_is_a_gain() {
        let j = judge(&wobble(1.0, 10), &wobble(0.9, 10), false, 0.1, false).unwrap();
        assert_eq!(j.verdict, Verdict::Gain);
        assert_eq!((j.wins, j.pairs), (10, 10));
    }

    #[test]
    fn nine_pairs_are_too_few_for_a_gain() {
        assert_eq!(
            verdict(&wobble(1.0, 9), &wobble(0.9, 9), false),
            Verdict::NoChange
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = wobble(1.0, 10);
        let mut change = wobble(0.9, 10);
        change[0] = base[0];
        change[1] = base[1];
        // 8 wins of 10 pairs: below nine tenths.
        let j = judge(&base, &change, false, 0.1, false).unwrap();
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::NoChange);
    }

    #[test]
    fn a_gap_inside_the_base_spread_is_no_gain() {
        let base: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * i as f64).collect();
        let change: Vec<f64> = base.iter().map(|b| b - 0.005).collect();
        let j = judge(&base, &change, false, 0.1, false).unwrap();
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::NoChange);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_for_either_direction() {
        assert_eq!(
            verdict(&wobble(1.0, 10), &wobble(1.2, 10), false),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&wobble(100.0, 10), &wobble(80.0, 10), true),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&wobble(100.0, 10), &wobble(120.0, 10), true),
            Verdict::Gain
        );
    }

    #[test]
    fn a_noisy_base_leaves_the_metric_unresolved() {
        let base: Vec<f64> = (0..10).map(|i| [0.8, 1.2][i % 2]).collect();
        let change: Vec<f64> = base.iter().map(|b| b * 1.01).collect();
        assert_eq!(verdict(&base, &change, false), Verdict::Unresolved);
    }

    #[test]
    fn failing_more_operations_is_never_a_gain() {
        let j = judge(&wobble(1.0, 10), &wobble(0.5, 10), false, 0.1, true).unwrap();
        assert_eq!(j.verdict, Verdict::NoChange);
        // A regression still shows.
        let j = judge(&wobble(1.0, 10), &wobble(1.5, 10), false, 0.1, true).unwrap();
        assert_eq!(j.verdict, Verdict::Regression);

        let (base, mut change) = sets("serve", 0.5);
        change[3].failed = 2;
        let report = compare_runs(&base, &change, &lower(0.1));
        assert!(report.contains("change failed 2 operations, base 0: no gain"));
        assert!(report.trim_end().ends_with("no change"), "{report}");
    }

    #[test]
    fn incorrect_runs_get_no_verdict() {
        let (base, mut change) = sets("serve", 0.5);
        change[9].correct = false;
        let report = compare_runs(&base, &change, &lower(0.1));
        assert!(report.contains("no verdict: 1 run(s) failed their output checks"));
        assert!(!report.contains("gain"), "{report}");
    }

    #[test]
    fn mismatched_seeds_or_run_lengths_get_no_verdict() {
        let (base, mut change) = sets("serve", 0.5);
        change[4].seed = 99;
        let report = compare_runs(&base, &change, &lower(0.1));
        assert!(
            report.contains("no verdict: pair 5 ran seed 5 on the base and 99 on the change"),
            "{report}"
        );

        let (base, mut change) = sets("serve", 0.5);
        for r in &mut change {
            r.seconds = 10.0;
        }
        let report = compare_runs(&base, &change, &lower(0.1));
        assert!(
            report.contains("no verdict: runs measured for different lengths (15 s and 10 s)"),
            "{report}"
        );
    }

    #[test]
    fn report_has_one_row_per_workload() {
        let (mut base, mut change) = sets("serve", 0.9);
        let (edge_base, edge_change) = sets("edge", 1.0);
        base.extend(edge_base);
        change.extend(edge_change);
        let report = compare_runs(&base, &change, &lower(0.1));
        let rows: Vec<&str> = report.lines().collect();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[0].starts_with("serve") && rows[0].ends_with("gain"),
            "{}",
            rows[0]
        );
        assert!(
            rows[1].starts_with("edge") && rows[1].ends_with("no change"),
            "{}",
            rows[1]
        );
    }

    #[test]
    fn run_sets_parse_from_json_lines_and_skip_traced_runs() {
        let head =
            "\"workload\":\"serve\",\"seed\":1,\"seconds\":15.0,\"correct\":true,\"failed\":0";
        let text = format!(
            "{{{head},\"trace\":false,\"metrics\":{{\"run_s\":{{\"value\":1.5,\"unit\":\"s\"}}}}}}\n\n\
             {{{head},\"trace\":true,\"metrics\":{{}}}}\n"
        );
        let runs = parse_runs(&text, "t").unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].metrics["run_s"].value, 1.5);
        assert!(parse_runs("{not json", "t").is_err());
        // A record without its check results cannot be judged.
        assert!(parse_runs(
            "{\"workload\":\"serve\",\"trace\":false,\"metrics\":{}}",
            "t"
        )
        .is_err());
    }
}
