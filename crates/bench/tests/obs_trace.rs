//! Trace / time-series determinism and export validity.
//!
//! The standing guarantee extended to the new observability layer:
//!
//! * results and every *work* metric (counters, time-series points) are
//!   byte-identical across `LEO_THREADS` 1/4 and `LEO_OBS`
//!   metrics/trace;
//! * the Chrome trace-event export is valid JSON and its span tree
//!   nests correctly (begin/end balanced per thread ordinal).
//!
//! The obs level is process-global, so every test here serializes on
//! one mutex and resets the registries around itself.

use leo_bench::cli::{Run, RunConfig};
use leo_constellation::presets;
use leo_core::InOrbitService;
use leo_obs::Level;
use leo_serve::{synthesize_users, ServeConfig, ServeEngine, SweepReport, USER_SEED};
use leo_sim::TimeSweep;
use std::path::PathBuf;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        band_deg: 6.0,
        max_shard: 512,
        threads,
        validate_every: 2,
    }
}

fn times() -> Vec<f64> {
    (0..3).map(|i| i as f64 * 60.0).collect()
}

/// One small serve sweep at the given level and thread count, returning
/// the result, the counter totals, and the *work* time series (the
/// deterministic subset — timing series are wall-clock by definition).
fn run_sweep(level: Level, threads: usize) -> (SweepReport, String, String) {
    leo_obs::set_level(level);
    leo_obs::reset();
    let report = ServeEngine::new(
        InOrbitService::new(presets::starlink_550_only()),
        synthesize_users(1500, 2.0, USER_SEED),
        config(threads),
    )
    .sweep(&times());
    let snap = leo_obs::snapshot();
    let counters = format!("{:?}", snap.counters);
    let work_series: Vec<_> = snap.series.iter().filter(|s| !s.timing).collect();
    let series = format!("{work_series:?}");
    leo_obs::set_level(Level::Off);
    (report, counters, series)
}

#[test]
fn counters_and_timeseries_identical_across_threads_and_levels() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (base_report, base_counters, base_series) = run_sweep(Level::Metrics, 1);
    assert!(
        base_counters.contains("serve.queries"),
        "sweep recorded no counters"
    );
    assert!(
        base_series.contains("serve.served") && base_series.contains("serve.delta_recomputed"),
        "sweep recorded no work series: {base_series}"
    );
    for (level, threads) in [(Level::Metrics, 4), (Level::Trace, 1), (Level::Trace, 4)] {
        let (report, counters, series) = run_sweep(level, threads);
        assert_eq!(report, base_report, "{level:?}/{threads} result drift");
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&base_report).unwrap(),
            "{level:?}/{threads} serialized result drift"
        );
        assert_eq!(counters, base_counters, "{level:?}/{threads} counter drift");
        assert_eq!(series, base_series, "{level:?}/{threads} series drift");
    }
    // Off records nothing but must compute the same bytes. (Series
    // registrations are interned for the process lifetime; at Off they
    // simply accumulate no points.)
    let (off_report, _, off_series) = run_sweep(Level::Off, 4);
    assert_eq!(off_report, base_report, "off-level result drift");
    assert!(
        !off_series.contains("points: [("),
        "off level must record no points: {off_series}"
    );
    let _ = leo_obs::take_trace();
}

#[test]
fn timesweep_edge_gauge_is_thread_invariant() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sample = |threads: usize| {
        leo_obs::set_level(Level::Metrics);
        leo_obs::reset();
        let service = InOrbitService::new(presets::starlink_550_only());
        let sweep = TimeSweep::new(&service, times()).with_threads(threads);
        let views = sweep.prepare();
        assert_eq!(views.len(), 3);
        let snap = leo_obs::snapshot();
        let series = snap
            .series
            .iter()
            .find(|s| s.name == "engine.isl_active_edges")
            .expect("prepare samples the engine gauge")
            .clone();
        leo_obs::set_level(Level::Off);
        series
    };
    let one = sample(1);
    assert_eq!(one.points.len(), 3, "one point per instant");
    assert!(one.points.iter().all(|&(_, v)| v > 0.0));
    assert_eq!(
        one.points.iter().map(|p| p.0).collect::<Vec<_>>(),
        times(),
        "x-axis must be the schedule, in order"
    );
    assert_eq!(sample(4), one, "thread count changed the gauge series");
}

/// The trace-event JSON shape, for the vendored serde facade: fields
/// absent on a given event read as `None`.
#[allow(non_snake_case)]
#[derive(serde::Deserialize)]
struct TraceFile {
    displayTimeUnit: String,
    traceEvents: Vec<TraceEventJson>,
}

#[derive(serde::Deserialize)]
struct TraceEventJson {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    pid: u64,
    tid: u64,
    s: Option<String>,
}

#[test]
fn trace_export_is_valid_and_nests_per_thread() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    leo_obs::set_level(Level::Trace);
    leo_obs::reset();

    let out_dir: PathBuf =
        std::env::temp_dir().join(format!("leo-obs-trace-test-{}", std::process::id()));
    let mut run = Run::with_config(
        "trace_probe",
        RunConfig {
            quick: true,
            threads: 4,
            out_dir: out_dir.clone(),
            warnings: Vec::new(),
        },
    );
    let report = run.phase("sweep", || {
        ServeEngine::new(
            InOrbitService::new(presets::starlink_550_only()),
            synthesize_users(1500, 2.0, USER_SEED),
            config(4),
        )
        .sweep(&times())
    });
    assert!(report.total_queries > 0);
    let manifest = run.finish();
    leo_obs::set_level(Level::Off);

    // The manifest carries the timeseries section...
    assert_eq!(manifest.obs_level, "trace");
    assert!(
        manifest.timeseries.iter().any(|s| s.name == "serve.served"),
        "manifest lost the work series"
    );
    assert!(
        manifest.timeseries.iter().any(|s| s.timing),
        "trace level should include the wall-clock series"
    );

    // ...and finish() wrote a loadable Chrome trace next to it.
    let trace_path = out_dir.join("trace_probe.trace.json");
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed: TraceFile = serde_json::from_str(&text).expect("trace JSON parses");
    assert_eq!(parsed.displayTimeUnit, "ms");
    assert!(
        !parsed.traceEvents.is_empty(),
        "a traced sweep must emit events"
    );

    // Structural validity: phases and instants present, pids constant,
    // instants carry thread scope.
    assert!(parsed.traceEvents.iter().any(|e| e.cat == "phase"));
    assert!(parsed
        .traceEvents
        .iter()
        .any(|e| e.ph == "i" && e.name == "serve.snapshot"));
    for e in &parsed.traceEvents {
        assert_eq!(e.pid, 1);
        assert!(e.ts >= 0.0);
        assert!(!e.name.is_empty() && !e.cat.is_empty());
        match e.ph.as_str() {
            "B" | "E" => assert!(e.s.is_none()),
            "i" => assert_eq!(e.s.as_deref(), Some("t")),
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Span-tree nesting: per tid, begins and ends pair LIFO with
    // matching names and non-decreasing timestamps.
    let mut stacks: std::collections::HashMap<u64, Vec<&str>> = std::collections::HashMap::new();
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for e in &parsed.traceEvents {
        let prev = last_ts.entry(e.tid).or_insert(0.0);
        assert!(
            e.ts >= *prev,
            "tid {} timestamps regressed: {} after {}",
            e.tid,
            e.ts,
            prev
        );
        *prev = e.ts;
        match e.ph.as_str() {
            "B" => stacks.entry(e.tid).or_default().push(&e.name),
            "E" => {
                let open = stacks
                    .entry(e.tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("tid {}: end without begin ({})", e.tid, e.name));
                assert_eq!(open, e.name, "tid {}: mis-nested span", e.tid);
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "tid {tid}: {} span(s) left open: {stack:?}",
            stack.len()
        );
    }

    let _ = std::fs::remove_dir_all(&out_dir);
}
