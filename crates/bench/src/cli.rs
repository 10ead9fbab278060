//! Shared plumbing for the experiment binaries: one place that reads
//! `--quick`/`LEO_QUICK`, `LEO_THREADS`, and `--out-dir`/`LEO_OUT_DIR`,
//! plus the per-run manifest every binary writes next to its results.
//!
//! A binary wraps its work in a [`Run`]:
//!
//! ```no_run
//! use leo_bench::cli::Run;
//!
//! let mut run = Run::start("fig0");
//! let data = run.phase("sweep", || vec![1.0, 2.0]);
//! run.write_results(&data);
//! run.finish(); // writes results/fig0.meta.json
//! ```
//!
//! The manifest (`<name>.meta.json`) records the run configuration,
//! per-phase wall-clock times, and a dump of every `leo-obs` counter and
//! histogram — see EXPERIMENTS.md for the schema and the `perf_report`
//! binary for pretty-printing and run-vs-run diffing.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Run configuration shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Coarse sampling for CI / smoke runs (`--quick` or `LEO_QUICK`).
    pub quick: bool,
    /// Worker-pool size (`LEO_THREADS`, default machine parallelism).
    pub threads: usize,
    /// Where results and manifests go (`--out-dir`, `LEO_OUT_DIR`,
    /// default `results`).
    pub out_dir: PathBuf,
    /// Environment values that did not parse cleanly and what the run
    /// fell back to. Printed to stderr at startup and recorded in the
    /// manifest, so a typo'd `LEO_THREADS=eight` is visible in the run's
    /// paper trail instead of silently benchmarking on the default pool.
    pub warnings: Vec<String>,
}

impl RunConfig {
    /// Reads the process arguments and environment, reporting any
    /// mis-set variables on stderr.
    fn from_env() -> RunConfig {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let config = RunConfig::from_parts(
            &args,
            std::env::var("LEO_QUICK").ok().as_deref(),
            std::env::var("LEO_THREADS").ok().as_deref(),
            std::env::var("LEO_OUT_DIR").ok().as_deref(),
            std::env::var("LEO_OBS").ok().as_deref(),
        );
        for w in &config.warnings {
            eprintln!("warning: {w}");
        }
        config
    }

    /// The same decision as a pure function of the inputs (`None` =
    /// variable unset), so tests never mutate the process environment.
    /// Flags win over environment variables.
    fn from_parts(
        args: &[String],
        quick_env: Option<&str>,
        threads_env: Option<&str>,
        out_env: Option<&str>,
        obs_env: Option<&str>,
    ) -> RunConfig {
        let mut warnings = Vec::new();
        let quick = args.iter().any(|a| a == "--quick") || crate::quick_mode_from(quick_env);
        if let Some(v) = quick_env {
            // Anything but "0"/"" enables quick mode (historical
            // contract); flag values outside the documented {"", "0",
            // "1"} so a stray `LEO_QUICK=o` is not mistaken for "off".
            if !matches!(v, "" | "0" | "1") {
                warnings.push(format!(
                    "LEO_QUICK={v:?} is not \"0\" or \"1\"; treating it as quick mode ON"
                ));
            }
        }
        let threads = leo_sim::threads_from(threads_env);
        if let Some(v) = threads_env {
            if v.trim().parse::<usize>().ok().map_or(true, |n| n == 0) {
                warnings.push(format!(
                    "LEO_THREADS={v:?} is not a positive integer; using {threads} worker threads"
                ));
            }
        }
        if let Some(v) = obs_env {
            // `leo_obs::level()` reads the same variable itself; this
            // only surfaces the typo in the manifest paper trail, it
            // never sets the level.
            let (fallback, recognized) = leo_obs::level_from_checked(Some(v));
            if !recognized {
                warnings.push(format!(
                    "LEO_OBS={v:?} is not one of 0/off, 1/metrics, 2/full, 3/trace; \
                     observability is {fallback:?}"
                ));
            }
        }
        let out_dir = args
            .iter()
            .position(|a| a == "--out-dir")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .or(out_env)
            .unwrap_or("results")
            .into();
        RunConfig {
            quick,
            threads,
            out_dir,
            warnings,
        }
    }
}

/// One experiment binary's execution context: the parsed [`RunConfig`],
/// a wall clock, and the phase log that ends up in the manifest.
pub struct Run {
    name: String,
    config: RunConfig,
    started: Instant,
    phases: Vec<PhaseRecord>,
}

impl Run {
    /// Starts a run named `name` (the results/manifest file stem),
    /// configured from the process arguments and environment.
    pub fn start(name: &str) -> Run {
        Run::with_config(name, RunConfig::from_env())
    }

    /// Starts a run with an explicit configuration (tests, embedding).
    pub fn with_config(name: &str, config: RunConfig) -> Run {
        Run {
            name: name.to_string(),
            config,
            started: Instant::now(),
            phases: Vec::new(),
        }
    }

    /// Quick mode?
    pub fn quick(&self) -> bool {
        self.config.quick
    }

    /// Worker-pool size for `parallel_map` / `TimeSweep::with_threads`.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Runs `f`, recording its wall-clock time as phase `label` in the
    /// manifest. Phases appear in execution order. At `LEO_OBS=trace`
    /// the phase is also an interval in the exported trace.
    pub fn phase<R>(&mut self, label: &str, f: impl FnOnce() -> R) -> R {
        let trace = leo_obs::trace_scope(label.to_string(), "phase");
        let t0 = Instant::now();
        let result = f();
        self.phases.push(PhaseRecord {
            name: label.to_string(),
            wall_s: t0.elapsed().as_secs_f64(),
        });
        drop(trace);
        result
    }

    /// Writes `data` as pretty JSON to `<out_dir>/<name>.json`. The data
    /// file is the experiment's *result* — it must be byte-identical
    /// whatever the observability level, which is why timings and
    /// counters go to the separate manifest instead.
    pub fn write_results<T: Serialize>(&self, data: &T) {
        self.write_json(&format!("{}.json", self.name), data);
    }

    /// Writes `data` as pretty JSON to `<out_dir>/<filename>` (creating
    /// the directory) and reports where it went on stderr. A run that
    /// cannot write what it computed has failed: the process then exits
    /// with status 1, naming the path and the error.
    pub fn write_json<T: Serialize>(&self, filename: &str, data: &T) {
        let dir = &self.config.out_dir;
        let path = dir.join(filename);
        let written = std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))
            .and_then(|()| {
                serde_json::to_string_pretty(data)
                    .map_err(|e| format!("cannot serialize {}: {e}", path.display()))
            })
            .and_then(|json| {
                std::fs::write(&path, json)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))
            });
        match written {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Builds the manifest (configuration, phase wall-clocks, and a dump
    /// of every `leo-obs` metric), writes it to
    /// `<out_dir>/<name>.meta.json`, and returns it. At `LEO_OBS=trace`
    /// the buffered trace events are additionally drained into
    /// `<out_dir>/<name>.trace.json` (Chrome trace-event JSON — open in
    /// Perfetto or chrome://tracing). A manifest that cannot be written
    /// ends the process like a result ([`Run::write_json`]); a trace that
    /// cannot be written is only a warning.
    pub fn finish(self) -> RunManifest {
        let manifest = self.manifest();
        self.write_json(&format!("{}.meta.json", manifest.name), &manifest);
        if leo_obs::trace_enabled() {
            let dump = leo_obs::take_trace();
            let path = self
                .config
                .out_dir
                .join(format!("{}.trace.json", manifest.name));
            match std::fs::write(&path, leo_obs::chrome_trace_json(&dump)) {
                Ok(()) => eprintln!(
                    "wrote {} ({} events{})",
                    path.display(),
                    dump.events.len(),
                    if dump.dropped > 0 {
                        format!(", {} dropped", dump.dropped)
                    } else {
                        String::new()
                    }
                ),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
        manifest
    }

    /// The manifest [`Run::finish`] would write, without writing it.
    pub fn manifest(&self) -> RunManifest {
        let obs = leo_obs::snapshot();
        RunManifest {
            name: self.name.clone(),
            quick: self.config.quick,
            threads: self.config.threads,
            config_warnings: self.config.warnings.clone(),
            obs_level: level_name(leo_obs::level()).to_string(),
            total_s: self.started.elapsed().as_secs_f64(),
            phases: self.phases.clone(),
            counters: obs
                .counters
                .into_iter()
                .map(|(name, value)| CounterRecord { name, value })
                .collect(),
            histograms: obs
                .histograms
                .iter()
                .filter(|d| d.count > 0)
                .map(HistogramRecord::from_dump)
                .collect(),
            timeseries: obs
                .series
                .iter()
                .filter(|d| !d.points.is_empty())
                .map(TimeSeriesRecord::from_dump)
                .collect(),
        }
    }
}

fn level_name(l: leo_obs::Level) -> &'static str {
    match l {
        leo_obs::Level::Off => "off",
        leo_obs::Level::Metrics => "metrics",
        leo_obs::Level::Full => "full",
        leo_obs::Level::Trace => "trace",
    }
}

/// One timed phase of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase label, unique within a run by convention.
    pub name: String,
    /// Wall-clock seconds the phase took.
    pub wall_s: f64,
}

/// One counter's total at the end of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Registered metric name.
    pub name: String,
    /// Final value. Exact: counters stay far below 2^53.
    pub value: u64,
}

/// One histogram's summary at the end of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramRecord {
    /// Registered metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Exact sum of all samples (seconds for span histograms).
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median, accurate to one log-bucket (≲ 19 %) and clamped to the
    /// exact extremes.
    pub p50: f64,
    /// 99th percentile, same accuracy and clamp.
    pub p99: f64,
    /// Exact largest sample.
    pub max: f64,
}

impl HistogramRecord {
    fn from_dump(d: &leo_obs::HistogramDump) -> HistogramRecord {
        HistogramRecord {
            name: d.name.clone(),
            count: d.count,
            sum: d.sum,
            mean: d.mean().unwrap_or(0.0),
            p50: d.quantile(0.5).unwrap_or(0.0),
            p99: d.quantile(0.99).unwrap_or(0.0),
            max: d.max().unwrap_or(0.0),
        }
    }
}

/// One time series' sampled points at the end of a run (one gauge over
/// the run's own x-axis — orbital seconds for the sweeps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesRecord {
    /// Registered series name.
    pub name: String,
    /// True for wall-clock series: gated like spans, *not* deterministic
    /// across thread counts, and excluded from the determinism check
    /// ([`crate::watchdog::same_work`]).
    pub timing: bool,
    /// `[x, value]` points in sample order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeriesRecord {
    fn from_dump(d: &leo_obs::TimeSeriesDump) -> TimeSeriesRecord {
        TimeSeriesRecord {
            name: d.name.clone(),
            timing: d.timing,
            points: d.points.clone(),
        }
    }

    /// Largest sampled value, `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Arithmetic mean of the sampled values, `None` when empty.
    pub fn mean_value(&self) -> Option<f64> {
        (!self.points.is_empty())
            .then(|| self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }
}

/// The per-run manifest written as `<name>.meta.json` — everything about
/// *how* a run went, kept apart from *what* it computed so result files
/// stay byte-identical across observability levels and machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Run name (the results file stem, e.g. `fig3`).
    pub name: String,
    /// Whether the run sampled coarsely (`--quick` / `LEO_QUICK`).
    pub quick: bool,
    /// Worker-pool size the run used.
    pub threads: usize,
    /// Configuration values that did not parse and the fallbacks taken
    /// (see [`RunConfig::warnings`]). Empty on a clean run.
    pub config_warnings: Vec<String>,
    /// Observability level: `off`, `metrics`, `full`, or `trace`.
    pub obs_level: String,
    /// Total wall-clock seconds from `Run::start` to `Run::finish`.
    pub total_s: f64,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseRecord>,
    /// Every registered counter, sorted by name.
    pub counters: Vec<CounterRecord>,
    /// Every non-empty histogram, sorted by name.
    pub histograms: Vec<HistogramRecord>,
    /// Every non-empty time series, sorted by name.
    pub timeseries: Vec<TimeSeriesRecord>,
}

impl RunManifest {
    /// Parses a manifest from a JSON file.
    pub fn load(path: &Path) -> Result<RunManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// The named counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named phase's wall-clock seconds, if recorded.
    pub fn phase_wall(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.wall_s)
    }

    /// `count` items over phase `phase`'s wall-clock. `None` when the
    /// phase is missing or took no measurable time. The binaries print
    /// their throughput this way, from the work their own sweep report
    /// counts, so the rate covers exactly the work the phase timed.
    pub fn phase_rate(&self, count: u64, phase: &str) -> Option<f64> {
        let wall = self.phase_wall(phase)?;
        (wall > 0.0).then(|| count as f64 / wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(args: &[&str], quick: Option<&str>, out: Option<&str>) -> RunConfig {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunConfig::from_parts(&args, quick, Some("3"), out, None)
    }

    #[test]
    fn quick_flag_and_env_both_enable_quick_mode() {
        assert!(cfg(&["--quick"], None, None).quick);
        assert!(cfg(&[], Some("1"), None).quick);
        assert!(!cfg(&[], Some("0"), None).quick);
        assert!(!cfg(&[], None, None).quick);
    }

    #[test]
    fn out_dir_flag_wins_over_env_and_default() {
        assert_eq!(
            cfg(&["--out-dir", "/tmp/x"], None, Some("/tmp/y")).out_dir,
            PathBuf::from("/tmp/x")
        );
        assert_eq!(
            cfg(&[], None, Some("/tmp/y")).out_dir,
            PathBuf::from("/tmp/y")
        );
        assert_eq!(cfg(&[], None, None).out_dir, PathBuf::from("results"));
    }

    #[test]
    fn threads_env_flows_through() {
        let c = cfg(&[], None, None);
        assert_eq!(c.threads, 3);
        assert!(c.warnings.is_empty(), "clean env warns: {:?}", c.warnings);
    }

    #[test]
    fn garbage_threads_env_warns_and_falls_back() {
        for bad in ["eight", "0", "-2", "3.5", ""] {
            let args: Vec<String> = Vec::new();
            let c = RunConfig::from_parts(&args, None, Some(bad), None, None);
            assert_eq!(c.threads, leo_sim::threads_from(None), "value {bad:?}");
            assert_eq!(c.warnings.len(), 1, "value {bad:?}");
            assert!(
                c.warnings[0].contains("LEO_THREADS") && c.warnings[0].contains("positive"),
                "warning text: {}",
                c.warnings[0]
            );
        }
        // Whitespace-padded integers parse; no warning.
        let c = RunConfig::from_parts(&[], None, Some(" 5 "), None, None);
        assert_eq!((c.threads, c.warnings.len()), (5, 0));
    }

    #[test]
    fn odd_quick_env_warns_but_still_enables_quick_mode() {
        for (v, expect_quick) in [("yes", true), ("o", true), ("TRUE", true)] {
            let c = RunConfig::from_parts(&[], Some(v), Some("3"), None, None);
            assert_eq!(c.quick, expect_quick, "value {v:?}");
            assert_eq!(c.warnings.len(), 1, "value {v:?}");
            assert!(c.warnings[0].contains("LEO_QUICK"));
        }
        for v in ["", "0", "1"] {
            let c = RunConfig::from_parts(&[], Some(v), Some("3"), None, None);
            assert!(c.warnings.is_empty(), "documented value {v:?} warned");
        }
    }

    #[test]
    fn malformed_obs_env_warns_and_lands_in_the_manifest() {
        // Documented spellings are quiet.
        for ok in ["", "0", "off", "1", "metrics", "2", "full", "3", "trace"] {
            let c = RunConfig::from_parts(&[], None, Some("3"), None, Some(ok));
            assert!(c.warnings.is_empty(), "documented value {ok:?} warned");
        }
        // A typo is surfaced — and rides into the manifest like a bad
        // LEO_THREADS does.
        let config = RunConfig::from_parts(&[], None, Some("3"), None, Some("ful"));
        assert_eq!(config.warnings.len(), 1);
        assert!(
            config.warnings[0].contains("LEO_OBS") && config.warnings[0].contains("trace"),
            "warning text: {}",
            config.warnings[0]
        );
        let m = Run::with_config("t", config).manifest();
        assert_eq!(m.config_warnings.len(), 1);
        assert!(serde_json::to_string(&m).unwrap().contains("LEO_OBS"));
    }

    #[test]
    fn warnings_land_in_the_manifest() {
        let args: Vec<String> = Vec::new();
        let config = RunConfig::from_parts(&args, Some("maybe"), Some("many"), None, None);
        assert_eq!(config.warnings.len(), 2);
        let run = Run::with_config("t", config.clone());
        let m = run.manifest();
        assert_eq!(m.config_warnings, config.warnings);
    }

    #[test]
    fn malformed_threads_env_surfaces_in_the_serve_manifest() {
        // The serve_bench path: RunConfig parsed from a garbage
        // LEO_THREADS, manifest named "serve" — the warning must ride
        // all the way into serve.meta.json.
        let args: Vec<String> = Vec::new();
        let config = RunConfig::from_parts(&args, None, Some("eight"), None, None);
        let m = Run::with_config("serve", config).manifest();
        assert_eq!(m.name, "serve");
        assert_eq!(m.config_warnings.len(), 1);
        assert!(m.config_warnings[0].contains("LEO_THREADS"));
        let text = serde_json::to_string(&m).unwrap();
        assert!(text.contains("LEO_THREADS"));
    }

    #[test]
    fn run_records_phases_in_order() {
        let mut run = Run::with_config(
            "t",
            RunConfig {
                quick: true,
                threads: 2,
                out_dir: PathBuf::from("results"),
                warnings: Vec::new(),
            },
        );
        let x = run.phase("a", || 1 + 1);
        assert_eq!(x, 2);
        run.phase("b", || ());
        let m = run.manifest();
        let names: Vec<&str> = m.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(m.phases.iter().all(|p| p.wall_s >= 0.0));
        assert!(m.quick);
        assert_eq!(m.threads, 2);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest {
            name: "fig9".into(),
            quick: false,
            threads: 8,
            config_warnings: vec!["LEO_THREADS=\"x\" is not a positive integer".into()],
            obs_level: "metrics".into(),
            total_s: 1.25,
            phases: vec![PhaseRecord {
                name: "sweep".into(),
                wall_s: 1.0,
            }],
            counters: vec![CounterRecord {
                name: "engine.dijkstra.pops".into(),
                value: 123_456,
            }],
            histograms: vec![HistogramRecord {
                name: "sim.worker_busy_s".into(),
                count: 4,
                sum: 2.0,
                mean: 0.5,
                p50: 0.5,
                p99: 0.7,
                max: 0.8,
            }],
            timeseries: vec![TimeSeriesRecord {
                name: "serve.handoffs".into(),
                timing: false,
                points: vec![(0.0, 0.0), (60.0, 17.0), (120.0, 9.0)],
            }],
        };
        let text = serde_json::to_string_pretty(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.counter("engine.dijkstra.pops"), Some(123_456));
        assert_eq!(back.phase_wall("sweep"), Some(1.0));
        assert_eq!(back.counter("missing"), None);
        assert_eq!(back.phase_rate(123_456, "sweep"), Some(123_456.0));
        assert_eq!(back.phase_rate(123_456, "missing"), None);
        let s = &back.timeseries[0];
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.max_value(), Some(17.0));
        assert!((s.mean_value().unwrap() - 26.0 / 3.0).abs() < 1e-12);
    }

    /// A phase can legitimately record zero wall time (sub-resolution
    /// work, or a clock that didn't advance). The rate must then be
    /// `None`, never a division artifact like `inf` or `NaN`.
    #[test]
    fn phase_rate_of_zero_duration_phase_is_none() {
        let m = RunManifest {
            name: "edge".into(),
            quick: true,
            threads: 1,
            config_warnings: vec![],
            obs_level: "metrics".into(),
            total_s: 0.0,
            phases: vec![
                PhaseRecord {
                    name: "instant".into(),
                    wall_s: 0.0,
                },
                PhaseRecord {
                    name: "negative".into(),
                    wall_s: -1.0, // a corrupted manifest must not yield a rate either
                },
            ],
            counters: vec![],
            histograms: vec![],
            timeseries: vec![],
        };
        assert_eq!(m.phase_rate(42, "instant"), None);
        assert_eq!(m.phase_rate(42, "negative"), None);
        // A zero *count* over real time is a legitimate rate of zero.
        let mut m2 = m;
        m2.phases[0].wall_s = 2.0;
        assert_eq!(m2.phase_rate(0, "instant"), Some(0.0));
    }
}
