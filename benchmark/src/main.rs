//! The benchmark of the in-orbit computing stack: five workloads, each
//! timed end to end, and a traced run that breaks one batch down by
//! layer. See `README.md` beside this package for what each workload
//! and metric is for.
//!
//! ```text
//! benchmark                                  every workload, each in its own process
//! benchmark --workload W [--seed N] [--threads T] [--trace 0|1]
//! benchmark --bless [--workload W]           rewrite expected.json
//! benchmark --compare base.jsonl change.jsonl
//! ```
//!
//! A single-workload run sets up several times (`setup_s` is the
//! median), runs one untimed batch to fill caches and fix the reference
//! output, then times batches for `run_seconds` of `BENCHMARK.json`
//! (`run_s` is the median batch). It prints
//! every metric as `name value unit`, writes `target/benchmark/<W>.json`
//! (one line, ready to append to a `--compare` run set) and ends with
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use layers::{from_obs, Layers, Obs};
use serde::Serialize;
use stats::{fnv1a, median, peak_rss_mb, percentile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Recorder;
use workloads::{Edge, Handoffs, Migration, Serve, Sessions, Workload};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_REPS`, and more while they add up to under `SETUP_MIN_S`, so
/// millisecond set-ups get enough samples to be steady.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;
/// Timed batches per run at the least, however short the run is.
const MIN_BATCHES: usize = 3;
/// Timed batches a run needs before its record carries a p90.
const P90_MIN_BATCHES: usize = 10;
/// Seeds `--bless` records fingerprints for.
const BLESS_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
/// Committed fingerprints: workload → seed → FNV-1a of the serialized
/// output, as 16 hex digits.
const EXPECTED_JSON: &str = include_str!("../expected.json");
const OUT_DIR: &str = "target/benchmark";

/// Runs `$f::<W>(args..)` for the workload named `$name`.
macro_rules! for_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            "serve" => $f::<Serve>($($arg),*),
            "sessions" => $f::<Sessions>($($arg),*),
            "edge" => $f::<Edge>($($arg),*),
            "handoffs" => $f::<Handoffs>($($arg),*),
            "migration" => $f::<Migration>($($arg),*),
            other => Err(format!(
                "unknown workload {other:?} (one of {})",
                spec::WORKLOADS.join(", ")
            )),
        }
    };
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
    bless: bool,
    compare: Option<(String, String)>,
}

/// Parses the command line. The run length is `run_seconds` of
/// `BENCHMARK.json`, the same on every commit compared; `--seconds` is
/// accepted only with that value, because harnesses that read
/// `BENCHMARK.json` pass it along.
fn parse_args(argv: &[String], run_seconds: f64) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: run_seconds,
        threads: 2,
        trace: false,
        bless: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                value("a duration")?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s == run_seconds)
                    .ok_or(format!(
                        "--seconds must be {run_seconds}, the run_seconds of BENCHMARK.json"
                    ))?;
            }
            "--threads" => {
                args.threads = value("a thread count")?
                    .parse()
                    .ok()
                    .filter(|&t: &usize| t > 0)
                    .ok_or("--threads takes a positive whole number")?
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--bless" => args.bless = true,
            "--compare" => {
                let base = value("two run-set files")?;
                args.compare = Some((base, value("two run-set files")?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.threads > cores {
        return Err(format!(
            "--threads {} exceeds the {cores} cores here",
            args.threads
        ));
    }
    Ok(args)
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The final stdout line of a single-workload run.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// `target/benchmark/<W>.json`: one run of one workload.
#[derive(Serialize)]
struct RunRecord {
    workload: String,
    seed: u64,
    threads: usize,
    trace: bool,
    /// The run length, `run_seconds` of the `BENCHMARK.json` it ran with.
    seconds: f64,
    batches: usize,
    /// Fastest and 90th-percentile timed batch (nearest rank); the p90
    /// only once there are `P90_MIN_BATCHES`. `None` on a traced run.
    batch_min_s: Option<f64>,
    batch_p90_s: Option<f64>,
    fingerprint: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

fn metric_map(values: &[(&str, f64)]) -> BTreeMap<String, MetricValue> {
    values
        .iter()
        .map(|&(name, value)| {
            let unit = spec::unit_of(name).expect("every reported metric is declared");
            (
                name.to_string(),
                MetricValue {
                    value,
                    unit: unit.into(),
                },
            )
        })
        .collect()
}

fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

fn fingerprint<T: Serialize>(out: &T) -> u64 {
    fnv1a(
        serde_json::to_string(out)
            .expect("outputs serialize")
            .as_bytes(),
    )
}

/// The committed fingerprint for `(workload, seed)`, if there is one.
fn expected(workload: &str, seed: u64) -> Result<Option<String>, String> {
    let all: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(EXPECTED_JSON).map_err(|e| format!("expected.json: {e}"))?;
    Ok(all
        .get(workload)
        .and_then(|m| m.get(&seed.to_string()))
        .cloned())
}

/// Everything a single-workload run found, before printing.
struct Outcome {
    batches: usize,
    /// Wall time of each timed batch; empty on a traced run.
    batch_s: Vec<f64>,
    fingerprint: u64,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// Fingerprint, tally and failed checks of a run's first batch: the
/// workload's own checks, and the committed fingerprint when the seed
/// has one.
fn first_batch<W: Workload>(
    name: &str,
    seed: u64,
    w: &W,
    out: &W::Output,
) -> Result<(u64, workloads::Tally, Vec<String>), String> {
    let fp = fingerprint(out);
    let mut problems = Vec::new();
    if let Err(e) = w.check(out) {
        problems.push(format!("{name}: {e}"));
    }
    if let Some(want) = expected(name, seed)? {
        if want != hex(fp) {
            problems.push(format!(
                "{name} seed {seed}: output fingerprint {} differs from the committed {want}",
                hex(fp)
            ));
        }
    }
    Ok((fp, w.tally(out), problems))
}

/// The untraced run: the end-to-end metrics.
fn measure<W: Workload>(name: &str, args: &Args) -> Result<Outcome, String> {
    leo_obs::set_level(leo_obs::Level::Off);
    let off = Recorder::off();
    let mut setups: Vec<f64> = Vec::new();
    let mut prepared = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        drop(prepared.take());
        let t0 = Instant::now();
        let w = W::setup(args.seed, args.threads, &off, None)?;
        setups.push(t0.elapsed().as_secs_f64());
        prepared = Some(w);
    }
    let w = prepared.expect("at least one set-up");

    // The untimed first batch fills caches and fixes the reference.
    let fresh = w.fresh(args.threads);
    let reference = w.run(&fresh, args.threads, &off, None);
    drop(fresh);
    let (fp, tally, mut problems) = first_batch(name, args.seed, &w, &reference)?;
    drop(reference);

    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < args.seconds {
        let fresh = w.fresh(args.threads);
        let t0 = Instant::now();
        let out = black_box(w.run(&fresh, args.threads, &off, None));
        times.push(t0.elapsed().as_secs_f64());
        if fingerprint(&out) != fp {
            problems.push(format!(
                "{name}: batch {} output differs from the first",
                times.len()
            ));
        }
    }
    let run_s = median(&times).expect("batches ran");
    let batches = times.len() as u64;
    Ok(Outcome {
        batches: times.len(),
        batch_s: times,
        fingerprint: fp,
        problems,
        attempted: tally.ops * batches,
        failed: tally.failed * batches,
        metrics: vec![
            ("setup_s", median(&setups).expect("set-ups ran")),
            ("run_s", run_s),
            ("work_per_s", tally.work / run_s),
            ("peak_rss_mb", peak_rss_mb()?),
        ],
    })
}

/// Per-layer trace file: spans, self times and the layer numbers.
#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    threads: usize,
    spans: Vec<trace::SpanRecord>,
    self_times_s: BTreeMap<String, f64>,
    attributed: Vec<String>,
    layers: BTreeMap<String, f64>,
}

/// The traced run: the per-layer metrics, on the same inputs as the
/// untraced run. At `--threads`: a reference batch, then plain and
/// instrumented (`leo-obs` counters and spans on) batches alternately,
/// for worker busy time and the tracing overhead. Then one
/// single-threaded traced batch, whose spans and counters attribute its
/// wall time layer by layer, and the probes.
fn traced<W: Workload>(name: &str, args: &Args) -> Result<Outcome, String> {
    let rec = Recorder::on();
    let off = Recorder::off();
    leo_obs::set_level(leo_obs::Level::Off);
    let w = rec.span(None, "setup", |p| {
        W::setup(args.seed, args.threads, &rec, p)
    })?;

    let batch = |level: leo_obs::Level| {
        let fresh = w.fresh(args.threads);
        leo_obs::reset();
        leo_obs::set_level(level);
        let t0 = Instant::now();
        let out = w.run(&fresh, args.threads, &off, None);
        let wall = t0.elapsed().as_secs_f64();
        leo_obs::set_level(leo_obs::Level::Off);
        (out, wall)
    };
    // The first batch fills caches and fixes the reference; then plain
    // and instrumented batches alternate, two of each.
    let (reference, _) = batch(leo_obs::Level::Off);
    let (fp, tally, mut problems) = first_batch(name, args.seed, &w, &reference)?;
    drop(reference);
    let (mut wall_plain, mut wall_instr, mut busy) = (0.0, 0.0, 0.0);
    for _ in 0..2 {
        for level in [leo_obs::Level::Off, leo_obs::Level::Full] {
            let (out, wall) = batch(level);
            if level == leo_obs::Level::Off {
                wall_plain += wall;
            } else {
                wall_instr += wall;
                busy += Obs(leo_obs::snapshot()).span_sum("sim.worker_busy_s");
            }
            if fingerprint(&out) != fp {
                problems.push(format!(
                    "{name}: output at obs level {level:?} differs from the first batch"
                ));
            }
        }
    }

    let fresh = w.fresh(1);
    leo_obs::reset();
    leo_obs::set_level(leo_obs::Level::Full);
    let out = rec.span(None, "run", |p| w.run(&fresh, 1, &rec, p));
    let obs = Obs(leo_obs::snapshot());
    leo_obs::set_level(leo_obs::Level::Off);
    let json = rec.span(None, "serialize", |_| {
        serde_json::to_string(&out).expect("outputs serialize")
    });
    if fnv1a(json.as_bytes()) != fp {
        problems.push(format!("{name}: traced output differs from untraced"));
    }

    let mut layers = Layers::new();
    from_obs(&obs, &mut layers);
    let attributed = rec.span(None, "probes", |p| {
        layers::probe_congestion(&rec, p, &mut layers);
        w.layers(&fresh, &out, &obs, &rec, p, &mut layers)
    });
    for (metric, span) in [
        ("engine.compile_s", "engine.compile"),
        ("serve.shard_s", "serve.shard"),
        ("edge.generate_s", "edge.generate"),
        ("replication.predict_s", "replication.predict"),
        ("serialize_s", "serialize"),
    ] {
        layers.set(metric, rec.total(span).0);
    }
    let wall = rec.total("run").0;
    let explained: f64 = attributed.iter().map(|m| layers.get(m)).sum();
    layers.set("run.wall_s", wall);
    layers.set("run.items", tally.ops as f64);
    layers.set("unserved_frac", tally.unserved_frac);
    layers.set("unattributed_s", wall - explained);
    layers.set("unattributed_frac", (wall - explained) / wall);
    layers.set("sim.busy_s", busy);
    layers.set("sim.utilization", busy / (wall_instr * args.threads as f64));
    layers.set("trace.overhead_frac", wall_instr / wall_plain - 1.0);

    let spans = rec.finish()?;
    let file = TraceFile {
        workload: name.into(),
        seed: args.seed,
        threads: args.threads,
        self_times_s: trace::self_times(&spans),
        spans,
        attributed: attributed.iter().map(|s| s.to_string()).collect(),
        layers: layers.iter().map(|(k, v)| (k.to_string(), v)).collect(),
    };
    write_out(
        &format!("{name}.trace.json"),
        &serde_json::to_string_pretty(&file).expect("trace serializes"),
    )?;
    Ok(Outcome {
        batches: 1,
        batch_s: Vec::new(),
        fingerprint: fp,
        problems,
        attempted: tally.ops,
        failed: tally.failed,
        metrics: layers.iter().collect(),
    })
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One workload in this process: measure, print, record.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let outcome = if args.trace {
        for_workload!(name, traced(name, args))?
    } else {
        for_workload!(name, measure(name, args))?
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "# {name}: seed {}, {} thread(s), {} {} batch(es), fingerprint {}",
        args.seed,
        args.threads,
        outcome.batches,
        if args.trace { "traced" } else { "timed" },
        hex(outcome.fingerprint)
    );
    let batch_min_s = outcome.batch_s.iter().copied().reduce(f64::min);
    let batch_p90_s = (outcome.batch_s.len() >= P90_MIN_BATCHES)
        .then(|| percentile(&outcome.batch_s, 0.9))
        .flatten();
    if let Some(min) = batch_min_s {
        let p90 = batch_p90_s.map_or("-".to_string(), |p| p.to_string());
        println!("# batch seconds: min {min}, p90 {p90}");
    }
    for &(metric, value) in &outcome.metrics {
        println!(
            "{metric} {value} {}",
            spec::unit_of(metric).expect("declared")
        );
    }
    let correct = outcome.problems.is_empty();
    let record = RunRecord {
        workload: name.into(),
        seed: args.seed,
        threads: args.threads,
        trace: args.trace,
        seconds: args.seconds,
        batches: outcome.batches,
        batch_min_s,
        batch_p90_s,
        fingerprint: hex(outcome.fingerprint),
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: metric_map(&outcome.metrics),
    };
    let line = serde_json::to_string(&record).expect("record serializes");
    write_out(&format!("{name}.json"), &(line + "\n"))?;
    let result = ResultLine {
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: metric_map(&outcome.metrics),
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(correct)
}

/// Every workload, each in its own process so peak memory is its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut all_ok = true;
    let mut summary = Vec::new();
    for name in spec::WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--threads", &args.threads.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        if let Some((last, body)) = lines.split_last() {
            for l in body {
                println!("{l}");
            }
            summary.push((name, last.to_string()));
        }
        if !out.status.success() {
            eprintln!("{name}: run failed ({})", out.status);
            all_ok = false;
        }
    }
    println!("# summary");
    for (name, last) in summary {
        println!("{name} {last}");
    }
    Ok(all_ok)
}

/// One batch per seed, recording its fingerprint.
fn bless_one<W: Workload>(name: &str, threads: usize) -> Result<BTreeMap<String, String>, String> {
    let off = Recorder::off();
    let mut out = BTreeMap::new();
    for seed in BLESS_SEEDS {
        let w = W::setup(seed, threads, &off, None)?;
        let fresh = w.fresh(threads);
        let result = w.run(&fresh, threads, &off, None);
        w.check(&result)
            .map_err(|e| format!("{name} seed {seed}: {e}"))?;
        out.insert(seed.to_string(), hex(fingerprint(&result)));
        eprintln!("blessed {name} seed {seed}");
    }
    Ok(out)
}

fn bless(args: &Args) -> Result<(), String> {
    let mut all: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(EXPECTED_JSON).map_err(|e| format!("expected.json: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.to_vec(),
    };
    for name in names {
        let seeds = for_workload!(name, bless_one(name, args.threads))?;
        all.insert(name.to_string(), seeds);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    let text = serde_json::to_string_pretty(&all).expect("fingerprints serialize") + "\n";
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let decl = spec::declaration()?;
    let args = parse_args(argv, decl.run_seconds as f64)?;
    if let Some((base, change)) = &args.compare {
        print!("{}", compare::compare_files(base, change, &decl)?);
        return Ok(true);
    }
    if args.bless {
        bless(&args)?;
        return Ok(true);
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_single_workload_invocation() {
        let a = parse_args(
            &argv("--workload edge --seed 7 --seconds 10 --trace 0"),
            10.0,
        )
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("edge"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let b = parse_args(&argv("--trace 1 --workload serve"), 10.0).unwrap();
        assert!(b.trace);
        let c = parse_args(&argv("--trace --seed 2"), 10.0).unwrap();
        assert!(c.trace && c.seed == 2 && c.seconds == 10.0);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&argv("--seed x"), 10.0).is_err());
        assert!(parse_args(&argv("--seconds 0"), 10.0).is_err());
        // The run length is fixed by BENCHMARK.json, not per invocation.
        assert!(parse_args(&argv("--seconds 3"), 10.0).is_err());
        assert!(parse_args(&argv("--seconds 10.0"), 10.0).is_ok());
        assert!(parse_args(&argv("--threads 0"), 10.0).is_err());
        assert!(parse_args(&argv("--threads 100000"), 10.0).is_err());
        assert!(parse_args(&argv("--frobnicate"), 10.0).is_err());
        assert!(parse_args(&argv("--compare one.jsonl"), 10.0).is_err());
    }

    #[test]
    fn fingerprint_of_a_real_output_is_stable_across_threads() {
        let sweep = |threads, times: &[f64]| {
            let config = leo_serve::ServeConfig {
                band_deg: 4.0,
                max_shard: 512,
                threads,
                validate_every: 1,
            };
            let users = leo_serve::synthesize_users(2000, 2.0, 1);
            let service =
                leo_core::InOrbitService::new(leo_constellation::presets::starlink_550_only());
            fingerprint(&leo_serve::ServeEngine::new(service, users, config).sweep(times))
        };
        let one = sweep(1, &[0.0, 60.0]);
        assert_eq!(one, sweep(2, &[0.0, 60.0]));
        assert_ne!(one, sweep(1, &[0.0, 120.0]));
    }

    #[test]
    fn committed_fingerprints_parse() {
        for w in spec::WORKLOADS {
            if let Some(fp) = expected(w, 1).expect("expected.json parses") {
                assert_eq!(fp.len(), 16);
                assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
            }
        }
    }
}
