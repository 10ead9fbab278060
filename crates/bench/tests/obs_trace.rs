//! Trace / time-series determinism and export validity.
//!
//! The standing guarantee extended to the new observability layer:
//!
//! * results and every *work* metric (counters, time-series points) are
//!   byte-identical across `LEO_THREADS` 1/4 and `LEO_OBS`
//!   metrics/trace;
//! * the Chrome trace-event export is valid JSON and its span tree
//!   nests correctly (begin/end balanced per thread ordinal);
//! * a snapshot view refreshes its ISL weights once, on its first route
//!   query, so the `engine.refresh_s` span and the masked-edge counter
//!   count only views that routed.
//!
//! The obs level is process-global, so every test here serializes on
//! one mutex and resets the registries around itself.

use leo_bench::cli::{Run, RunConfig};
use leo_constellation::{presets, SatId};
use leo_core::{GroupDelays, InOrbitService};
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use leo_net::{FailureSchedule, FaultConfig, FaultPlan};
use leo_obs::Level;
use leo_serve::{synthesize_users, ServeConfig, ServeEngine, SweepReport, USER_SEED};
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};

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

/// Samples recorded so far in one span's histogram.
fn span_samples(name: &str) -> u64 {
    leo_obs::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}

/// A counter's total so far.
fn counter(name: &str) -> u64 {
    leo_obs::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn views_refresh_isl_weights_once_on_the_first_route_query() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Spans record from `Full` on.
    leo_obs::set_level(Level::Full);
    leo_obs::reset();
    // Every fourth of the first 300 satellites dead from the start, so
    // every view carries a non-empty plan that masks ISL edges.
    let mut deaths = vec![f64::INFINITY; 300];
    for d in deaths.iter_mut().step_by(4) {
        *d = 0.0;
    }
    let faults = FaultConfig {
        schedule: Some(FailureSchedule::from_death_times(deaths)),
        ..FaultConfig::none()
    };
    let service = InOrbitService::with_faults(presets::starlink_550_only(), faults);
    let users = [
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(6.52, 3.38)),
    ];

    // Direct-visibility selection builds views and never routes.
    for t in times() {
        GroupDelays::direct(&service, &users, t);
    }
    assert_eq!(span_samples("engine.refresh_s"), 0, "a view refreshed");
    assert_eq!(counter("fault.masked_isl_edges"), 0);

    // Two threads route on one fresh view at once: one refresh between
    // them, and one tally of its masked edges.
    let view = service.view(times()[1]);
    let barrier = Barrier::new(2);
    let delays: Vec<Option<f64>> = std::thread::scope(|s| {
        let route = || {
            barrier.wait();
            view.sat_to_sat_delay(None, SatId(1), SatId(701))
        };
        let workers = [s.spawn(route), s.spawn(route)];
        workers.map(|w| w.join().expect("routing thread")).to_vec()
    });
    assert!(delays[0].is_some());
    assert_eq!(delays[0], delays[1]);
    assert_eq!(span_samples("engine.refresh_s"), 1, "one refresh per view");
    let masked = counter("fault.masked_isl_edges");
    assert!(masked > 0, "the plan masks no edge");

    // The lazily built weights are the full refresh under the view's
    // plan, bit for bit, and the plan did mask them.
    assert!(!view.fault_plan().is_empty());
    let engine = service.routing_engine();
    let eager = engine.refresh(view.snapshot(), view.fault_plan());
    assert!(view.isl_weights().bits_eq(&eager));
    assert_eq!(counter("fault.masked_isl_edges"), 2 * masked);
    let unmasked = engine.refresh(view.snapshot(), &FaultPlan::empty());
    assert!(!view.isl_weights().bits_eq(&unmasked));
    leo_obs::set_level(Level::Off);
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
