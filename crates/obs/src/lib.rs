//! # leo-obs
//!
//! Zero-dependency observability for the in-orbit computing stack:
//! process-wide registries of named [`Counter`]s, [`TimeSeries`]
//! gauges, and scoped [`Span`] timers, each summed into its
//! [`Histogram`] (count, sum and exact extremes).
//!
//! The design target is *hot-path safe* instrumentation. The routing
//! engine settles ~1,600 nodes per Dijkstra query and the sweeps run
//! millions of such queries, so:
//!
//! * **disabled** (the default): every record path is one relaxed atomic
//!   load of the cached `LEO_OBS` level plus a predictable branch —
//!   nothing else. Figure outputs are byte-identical with observability
//!   on and off because the metrics never feed back into computation.
//! * **enabled**: counters and histograms are sharded per thread
//!   ([`NUM_SHARDS`] cache-line-padded cells, threads assigned
//!   round-robin), so a record is a couple of *relaxed* atomic ops with
//!   no cross-core contention on the sweep pool.
//! * **span timers** read the clock, so they sit behind a second level:
//!   `LEO_OBS=1` enables counters and time series, `LEO_OBS=2` (or
//!   `full`) additionally enables spans, the only writers of histograms.
//! * **structured trace events** sit behind a third level (`LEO_OBS=3`
//!   or `trace`): span begin/end and instant events with thread
//!   attribution, buffered in per-thread-shard ring buffers and drained
//!   by [`take_trace`] into Chrome trace-event JSON
//!   ([`chrome_trace_json`], loadable in Perfetto / chrome://tracing).
//!
//! Handles are interned per call site through the [`counter!`],
//! [`histogram!`], [`span!`], and [`timeseries!`] macros: the first
//! execution registers the metric (by name, deduplicated) in the
//! process-wide registry and leaks it to `&'static`; later executions
//! are a single `OnceLock::get`. [`snapshot`] walks the registry and
//! folds the shards into a serializer-friendly dump; [`reset`] zeroes
//! everything (tests and multi-run tools).
//!
//! Counters must be deterministic functions of the work performed — not
//! of scheduling — so that run manifests can be diffed across thread
//! counts; anything timing-derived belongs in a span.
//! [`TimeSeries`] gauges carry the same contract over orbital time: they
//! are sampled from sequential fold loops only (one point per
//! snapshot/tick, deterministic order).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ----------------------------------------------------------------- level

/// How much instrumentation is live, cached from `LEO_OBS` on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No recording: every record path is one load + branch.
    Off = 0,
    /// Counters and time series record; span timers stay off (no clock
    /// reads on hot paths), so histograms stay empty.
    Metrics = 1,
    /// Metrics plus span timers.
    Full = 2,
    /// Everything, plus structured trace events (span begin/end and
    /// instants) buffered for Chrome trace-event export.
    Trace = 3,
}

/// Sentinel meaning "not yet read from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The level [`level_from_checked`] decides, without the spelling check.
fn level_from(value: Option<&str>) -> Level {
    level_from_checked(value).0
}

/// The `LEO_OBS` decision as a pure function of the variable's value
/// (`None` = unset): `1`/`metrics` → [`Level::Metrics`], `2`/`full` →
/// [`Level::Full`], `3`/`trace` → [`Level::Trace`], anything else
/// (including unset, empty, and `0`) → [`Level::Off`]. Split out so
/// tests never mutate the process environment.
///
/// The flag says whether the value was a *documented* spelling (unset,
/// empty, `0`/`off`, `1`/`metrics`, `2`/`full`, `3`/`trace`). A typo'd
/// `LEO_OBS=ful` still falls back to [`Level::Off`], but the `false` lets
/// callers surface it (the run manifests record it under
/// `config_warnings`).
pub fn level_from_checked(value: Option<&str>) -> (Level, bool) {
    match value.map(str::trim) {
        None | Some("") | Some("0") | Some("off") => (Level::Off, true),
        Some("1") | Some("metrics") => (Level::Metrics, true),
        Some("2") | Some("full") => (Level::Full, true),
        Some("3") | Some("trace") => (Level::Trace, true),
        Some(_) => (Level::Off, false),
    }
}

fn decode(raw: u8) -> Level {
    match raw {
        1 => Level::Metrics,
        2 => Level::Full,
        3 => Level::Trace,
        _ => Level::Off,
    }
}

/// The active level. First call reads `LEO_OBS`; later calls are one
/// relaxed atomic load.
#[inline]
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == LEVEL_UNSET {
        let l = level_from(std::env::var("LEO_OBS").ok().as_deref());
        LEVEL.store(l as u8, Ordering::Relaxed);
        l
    } else {
        decode(raw)
    }
}

/// Overrides the level for the rest of the process (tests, tools that
/// enable metrics programmatically). Takes effect immediately on all
/// threads.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when counters and time series record.
#[inline]
pub fn metrics_enabled() -> bool {
    level() >= Level::Metrics
}

/// True when span timers read the clock.
#[inline]
pub fn spans_enabled() -> bool {
    level() >= Level::Full
}

/// True when structured trace events are buffered.
#[inline]
pub fn trace_enabled() -> bool {
    level() >= Level::Trace
}

// -------------------------------------------------------------- sharding

/// Number of per-metric shards. Threads are assigned round-robin, so any
/// pool up to this wide records contention-free.
pub const NUM_SHARDS: usize = 16;

/// One cache line per shard so two workers never bounce a line.
#[repr(align(64))]
#[derive(Default)]
struct ShardCell(AtomicU64);

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
    }
    SHARD.with(|s| *s)
}

// -------------------------------------------------------------- registry

#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    series: Mutex<Vec<&'static TimeSeries>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

// -------------------------------------------------------------- counters

/// A named monotonic counter, sharded per thread.
///
/// Obtain a handle with [`counter!`] (interned per call site) or
/// [`Counter::register`]; both deduplicate by name process-wide.
pub struct Counter {
    name: &'static str,
    shards: [ShardCell; NUM_SHARDS],
}

impl Counter {
    /// The counter registered under `name`, creating it on first use.
    pub fn register(name: &'static str) -> &'static Counter {
        let mut list = registry().counters.lock().expect("counter registry");
        if let Some(c) = list.iter().find(|c| c.name == name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter {
            name,
            shards: Default::default(),
        }));
        list.push(c);
        c
    }

    /// Adds `n` when metrics are enabled; a load + branch otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

// ------------------------------------------------------------ histograms

/// One shard of a span's summary, in one cache line: the sample count,
/// a bit-CAS `f64` sum and the exact extremes (relaxed; only folded at
/// snapshot time). The extremes are `f64` bits of non-negative samples,
/// whose unsigned order is their numeric order, so `fetch_min`/
/// `fetch_max` track them.
#[repr(align(64))]
struct HistShard {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        let shard = HistShard {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        };
        shard.reset();
        shard
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        // The identities of min and max over non-negative samples.
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    /// Folds `v` into the extremes. NaN, negatives and `-0.0` count as
    /// `+0.0`; an elapsed time is never any of them. The loads skip the
    /// read-modify-write when the extreme does not move.
    fn add_extremes(&self, v: f64) {
        let bits = if v > 0.0 { v } else { 0.0 }.to_bits();
        if bits < self.min_bits.load(Ordering::Relaxed) {
            self.min_bits.fetch_min(bits, Ordering::Relaxed);
        }
        if bits > self.max_bits.load(Ordering::Relaxed) {
            self.max_bits.fetch_max(bits, Ordering::Relaxed);
        }
    }

    fn add_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A named span's summary, sharded per thread: the exact count, sum and
/// extremes of the seconds its [`Span`]s measured. Spans are its only
/// writers, so it holds samples only from [`Level::Full`] on.
pub struct Histogram {
    name: &'static str,
    shards: [HistShard; NUM_SHARDS],
}

impl Histogram {
    /// The histogram registered under `name`, creating it on first use.
    pub fn register(name: &'static str) -> &'static Histogram {
        let mut list = registry().histograms.lock().expect("histogram registry");
        if let Some(h) = list.iter().find(|h| h.name == name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram {
            name,
            shards: std::array::from_fn(|_| HistShard::new()),
        }));
        list.push(h);
        h
    }

    /// Records one sample: one relaxed `fetch_add` on the count, a
    /// relaxed CAS on the sum, and a relaxed update of the extremes when
    /// the sample moves them.
    fn record(&self, v: f64) {
        let shard = &self.shards[shard_index()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.add_sum(v);
        shard.add_extremes(v);
    }

    /// Starts a scoped timer recording seconds into this histogram on
    /// drop — a no-op (no clock read) unless [`spans_enabled`]. At
    /// [`Level::Trace`] the span additionally emits begin/end trace
    /// events under its histogram name (category `"span"`).
    pub fn span(&'static self) -> Span {
        Span {
            start: spans_enabled().then(Instant::now),
            trace: trace_enabled().then(|| trace_scope(self.name, "span")),
            histogram: self,
        }
    }

    /// Times `f`, recording its wall time in seconds (level-gated like
    /// [`Histogram::span`]).
    pub fn time<R>(&'static self, f: impl FnOnce() -> R) -> R {
        let _span = self.span();
        f()
    }

    /// Folds the shards into an immutable dump.
    pub fn dump(&self) -> HistogramDump {
        let mut dump = HistogramDump {
            name: self.name.to_string(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        };
        for shard in &self.shards {
            dump.count += shard.count.load(Ordering::Relaxed);
            dump.sum += f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
            dump.min = dump
                .min
                .min(f64::from_bits(shard.min_bits.load(Ordering::Relaxed)));
            dump.max = dump
                .max
                .max(f64::from_bits(shard.max_bits.load(Ordering::Relaxed)));
        }
        dump
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.reset();
        }
    }
}

/// A scoped span timer: measures from construction to drop and records
/// the elapsed seconds into its histogram. Inert (no clock read at all)
/// below [`Level::Full`]; at [`Level::Trace`] it also carries a
/// [`TraceScope`] so the interval shows up in the exported trace. Like
/// the trace scope, it latches the level at creation: a span that read
/// the clock records on drop.
pub struct Span {
    start: Option<Instant>,
    trace: Option<TraceScope>,
    histogram: &'static Histogram,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record(start.elapsed().as_secs_f64());
        }
        // `trace` drops after this body, closing the trace interval.
        let _ = &self.trace;
    }
}

// --------------------------------------------------------------- tracing

/// Maximum buffered trace events per shard. A full shard drops further
/// *begin*/*instant* events (counted, reported in the dump) — *end*
/// events whose begin made it in are always recorded, so the per-thread
/// span tree stays balanced; the only overshoot is the open-span depth.
pub const TRACE_SHARD_CAP: usize = 1 << 16;

/// One structured trace event, Chrome trace-event shaped: `ph` is `'B'`
/// (span begin), `'E'` (span end), or `'i'` (instant); `ts_us` is
/// microseconds since the process trace epoch; `tid` is a stable
/// per-thread ordinal (assigned on first trace emission).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or instant label).
    pub name: Cow<'static, str>,
    /// Category, e.g. `"phase"`, `"span"`, `"mark"`.
    pub cat: &'static str,
    /// Chrome phase: `'B'`, `'E'`, or `'i'`.
    pub ph: char,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Per-thread ordinal; all events of one thread share it.
    pub tid: u64,
}

#[derive(Default)]
struct TraceShard {
    events: Vec<TraceEvent>,
    dropped: u64,
}

fn trace_shards() -> &'static [Mutex<TraceShard>; NUM_SHARDS] {
    static SHARDS: OnceLock<[Mutex<TraceShard>; NUM_SHARDS]> = OnceLock::new();
    SHARDS.get_or_init(Default::default)
}

/// The instant all trace timestamps are measured from: first trace
/// emission in the process.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn trace_now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// This thread's trace ordinal, assigned on first use. Unlike
/// [`shard_index`] (round-robin, reused), tids are unique per thread, so
/// begin/end pairs of one tid are strictly LIFO even when two threads
/// share a buffer shard.
fn trace_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Pushes one event into its shard's buffer. `force` bypasses the
/// capacity cap (span ends, to keep trees balanced); a capped non-forced
/// push is counted as dropped instead.
fn trace_push(ev: TraceEvent, force: bool) -> bool {
    let shard = &trace_shards()[(ev.tid as usize) % NUM_SHARDS];
    let mut s = shard.lock().expect("trace shard");
    if force || s.events.len() < TRACE_SHARD_CAP {
        s.events.push(ev);
        true
    } else {
        s.dropped += 1;
        false
    }
}

/// Records an instant trace event (category `"mark"`) when
/// [`trace_enabled`]; one relaxed load otherwise.
#[inline]
pub fn trace_instant(name: impl Into<Cow<'static, str>>) {
    if trace_enabled() {
        trace_push(
            TraceEvent {
                name: name.into(),
                cat: "mark",
                ph: 'i',
                ts_us: trace_now_us(),
                tid: trace_tid(),
            },
            false,
        );
    }
}

/// Opens a scoped trace interval: emits a begin event now and the
/// matching end event on drop. Inert (one relaxed load, no clock read)
/// below [`Level::Trace`]. The level is latched at creation: the end is
/// emitted iff the begin was, so buffers always hold balanced trees.
pub fn trace_scope(name: impl Into<Cow<'static, str>>, cat: &'static str) -> TraceScope {
    if !trace_enabled() {
        return TraceScope {
            name: Cow::Borrowed(""),
            cat,
            tid: 0,
            armed: false,
        };
    }
    let name = name.into();
    let tid = trace_tid();
    let armed = trace_push(
        TraceEvent {
            name: name.clone(),
            cat,
            ph: 'B',
            ts_us: trace_now_us(),
            tid,
        },
        false,
    );
    TraceScope {
        name,
        cat,
        tid,
        armed,
    }
}

/// An open trace interval; closes (emits the end event) on drop. See
/// [`trace_scope`].
pub struct TraceScope {
    name: Cow<'static, str>,
    cat: &'static str,
    tid: u64,
    armed: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.armed {
            trace_push(
                TraceEvent {
                    name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                    cat: self.cat,
                    ph: 'E',
                    ts_us: trace_now_us(),
                    tid: self.tid,
                },
                true,
            );
        }
    }
}

/// Everything buffered since the last drain: events ordered by
/// `(ts_us, tid)` (stable, so each thread's emission order is kept) and
/// the number of events dropped to the capacity cap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDump {
    /// Buffered events, ordered by timestamp then tid.
    pub events: Vec<TraceEvent>,
    /// Begin/instant events dropped because a shard was full.
    pub dropped: u64,
}

/// Drains every trace buffer into one dump (and resets the dropped
/// counts). Trace events are wall-clock data: unlike counters they are
/// *not* deterministic across runs or thread counts, which is why they
/// are exported to a separate `.trace.json`, never into result files.
pub fn take_trace() -> TraceDump {
    let mut dump = TraceDump::default();
    for shard in trace_shards() {
        let mut s = shard.lock().expect("trace shard");
        dump.events.append(&mut s.events);
        dump.dropped += s.dropped;
        s.dropped = 0;
    }
    dump.events.sort_by_key(|e| (e.ts_us, e.tid));
    dump
}

fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serializes a [`TraceDump`] as Chrome trace-event JSON (the
/// "JSON object format"): open the result in Perfetto
/// (<https://ui.perfetto.dev>) or chrome://tracing. Instant events carry
/// thread scope (`"s":"t"`); the drop count, when nonzero, is recorded
/// under `otherData`.
pub fn chrome_trace_json(dump: &TraceDump) -> String {
    let mut out = String::with_capacity(64 + dump.events.len() * 80);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in dump.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json_into(&e.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json_into(e.cat, &mut out);
        out.push_str("\",\"ph\":\"");
        out.push(e.ph);
        out.push_str("\",\"ts\":");
        out.push_str(&e.ts_us.to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        if e.ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        out.push('}');
    }
    out.push_str("],\"otherData\":{\"droppedEvents\":");
    out.push_str(&dump.dropped.to_string());
    out.push_str("}}");
    out
}

// ----------------------------------------------------------- time series

/// A named gauge sampled over an experiment's own x-axis (orbital time,
/// snapshot index): each [`TimeSeries::sample`] appends one `(x, value)`
/// point. A series records a deterministic function of the work done:
/// it is gated like counters ([`metrics_enabled`]) and sampled only from
/// sequential fold loops (one point per snapshot/tick on the main
/// thread), so dumps are byte-identical across thread counts.
pub struct TimeSeries {
    name: &'static str,
    points: Mutex<Vec<(f64, f64)>>,
}

impl TimeSeries {
    /// The series registered under `name`, creating it on first use.
    pub fn register(name: &'static str) -> &'static TimeSeries {
        let mut list = registry().series.lock().expect("series registry");
        if let Some(s) = list.iter().find(|s| s.name == name) {
            return s;
        }
        let s: &'static TimeSeries = Box::leak(Box::new(TimeSeries {
            name,
            points: Mutex::new(Vec::new()),
        }));
        list.push(s);
        s
    }

    /// Appends one `(x, value)` point when [`metrics_enabled`]; a load +
    /// branch otherwise.
    #[inline]
    pub fn sample(&self, x: f64, value: f64) {
        if metrics_enabled() {
            self.points.lock().expect("time series").push((x, value));
        }
    }

    /// Copies the recorded points into an immutable dump.
    pub fn dump(&self) -> TimeSeriesDump {
        TimeSeriesDump {
            name: self.name.to_string(),
            points: self.points.lock().expect("time series").clone(),
        }
    }

    fn reset(&self) {
        self.points.lock().expect("time series").clear();
    }
}

/// An immutable copy of one time series' points, in sample order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesDump {
    /// Registered series name.
    pub name: String,
    /// `(x, value)` points in the order sampled.
    pub points: Vec<(f64, f64)>,
}

// ----------------------------------------------------------------- dumps

/// An immutable fold of one histogram: its sample count, exact sum and
/// exact extremes.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDump {
    /// Registered metric name.
    pub name: String,
    /// Total number of samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Exact smallest sample (`INFINITY` when empty).
    pub min: f64,
    /// Exact largest sample (`0.0` when empty).
    pub max: f64,
}

impl HistogramDump {
    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// A point-in-time fold of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// `(name, total)` per registered counter.
    pub counters: Vec<(String, u64)>,
    /// One dump per registered histogram.
    pub histograms: Vec<HistogramDump>,
    /// One dump per registered time series.
    pub series: Vec<TimeSeriesDump>,
}

/// Folds every registered counter and histogram into a snapshot. Metrics
/// register on first use, so a snapshot taken before any instrumented
/// code ran is empty.
pub fn snapshot() -> ObsSnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .lock()
        .expect("counter registry")
        .iter()
        .map(|c| (c.name.to_string(), c.value()))
        .collect();
    counters.sort();
    let mut histograms: Vec<HistogramDump> = reg
        .histograms
        .lock()
        .expect("histogram registry")
        .iter()
        .map(|h| h.dump())
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let mut series: Vec<TimeSeriesDump> = reg
        .series
        .lock()
        .expect("series registry")
        .iter()
        .map(|s| s.dump())
        .collect();
    series.sort_by(|a, b| a.name.cmp(&b.name));
    ObsSnapshot {
        counters,
        histograms,
        series,
    }
}

/// Zeroes every registered counter, histogram, and time series
/// (registration is kept), and discards any buffered trace events.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("counter registry").iter() {
        c.reset();
    }
    for h in reg.histograms.lock().expect("histogram registry").iter() {
        h.reset();
    }
    for s in reg.series.lock().expect("series registry").iter() {
        s.reset();
    }
    let _ = take_trace();
}

// ---------------------------------------------------------------- macros

/// The `&'static Counter` named by the literal, interned per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::Counter::register($name))
    }};
}

/// The `&'static Histogram` named by the literal, interned per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::Histogram::register($name))
    }};
}

/// A scoped [`Span`] timer recording seconds into the named histogram;
/// bind it (`let _span = span!("phase");`) so it drops at scope end.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::histogram!($name).span()
    };
}

/// The `&'static TimeSeries` named by the literal, interned per call
/// site.
#[macro_export]
macro_rules! timeseries {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::TimeSeries> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::TimeSeries::register($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Level is process-global; tests that flip it serialize here so the
    /// parallel runner cannot interleave them.
    fn with_level<R>(l: Level, f: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let prev = level();
        set_level(l);
        let r = f();
        set_level(prev);
        r
    }

    #[test]
    fn level_parsing_is_pure() {
        assert_eq!(level_from(None), Level::Off);
        assert_eq!(level_from(Some("")), Level::Off);
        assert_eq!(level_from(Some("0")), Level::Off);
        assert_eq!(level_from(Some("off")), Level::Off);
        assert_eq!(level_from(Some("1")), Level::Metrics);
        assert_eq!(level_from(Some("metrics")), Level::Metrics);
        assert_eq!(level_from(Some("2")), Level::Full);
        assert_eq!(level_from(Some("full")), Level::Full);
        assert_eq!(level_from(Some("3")), Level::Trace);
        assert_eq!(level_from(Some("trace")), Level::Trace);
        assert_eq!(level_from(Some(" 1 ")), Level::Metrics);
        assert_eq!(level_from(Some("nonsense")), Level::Off);
    }

    #[test]
    fn level_from_checked_flags_typos() {
        for ok in [
            None,
            Some(""),
            Some("0"),
            Some("off"),
            Some("1"),
            Some("metrics"),
            Some("2"),
            Some("full"),
            Some("3"),
            Some("trace"),
            Some(" trace "),
        ] {
            assert!(level_from_checked(ok).1, "value {ok:?} flagged as typo");
        }
        for bad in [Some("ful"), Some("4"), Some("tracing"), Some("on")] {
            let (l, recognized) = level_from_checked(bad);
            assert_eq!(l, Level::Off, "value {bad:?}");
            assert!(!recognized, "value {bad:?} not flagged");
        }
    }

    #[test]
    fn disabled_counter_records_nothing() {
        with_level(Level::Off, || {
            let c = Counter::register("test.disabled");
            let before = c.value();
            c.add(42);
            c.incr();
            assert_eq!(c.value(), before);
        });
    }

    #[test]
    fn counter_sums_across_threads() {
        with_level(Level::Metrics, || {
            let c = Counter::register("test.threads");
            c.reset();
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            c.incr();
                        }
                    });
                }
            });
            assert_eq!(c.value(), 8000);
        });
    }

    #[test]
    fn registration_deduplicates_by_name() {
        let a = Counter::register("test.dedupe");
        let b = Counter::register("test.dedupe");
        assert!(std::ptr::eq(a, b));
        let h1 = Histogram::register("test.hdedupe");
        let h2 = Histogram::register("test.hdedupe");
        assert!(std::ptr::eq(h1, h2));
    }

    #[test]
    fn macro_handles_are_interned() {
        let a = counter!("test.macro");
        let b = counter!("test.macro");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn histogram_sums_and_extremes_are_exact() {
        with_level(Level::Full, || {
            let h = Histogram::register("test.exact");
            h.reset();
            for i in 1..=1000 {
                h.record(i as f64);
            }
            let d = h.dump();
            assert_eq!(d.count, 1000);
            assert_eq!(d.sum, 500_500.0);
            assert_eq!((d.min, d.max), (1.0, 1000.0));
            assert_eq!(d.mean(), Some(500.5));
        });
    }

    /// Spans below [`Level::Full`] touch no shard: every shard keeps its
    /// reset identities, and the dump is empty with a `+0.0` sum.
    #[test]
    fn a_histogram_that_never_records_holds_no_buckets() {
        let h = Histogram::register("test.lazy.off");
        with_level(Level::Off, || {
            h.time(|| std::hint::black_box(1 + 1));
            drop(h.span());
        });
        for shard in &h.shards {
            assert_eq!(shard.count.load(Ordering::Relaxed), 0);
            assert_eq!(shard.sum_bits.load(Ordering::Relaxed), 0f64.to_bits());
            assert_eq!(
                shard.min_bits.load(Ordering::Relaxed),
                f64::INFINITY.to_bits()
            );
            assert_eq!(shard.max_bits.load(Ordering::Relaxed), 0f64.to_bits());
        }
        let empty = HistogramDump {
            name: "test.lazy.off".to_string(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        };
        assert_eq!(h.dump(), empty);
        assert_eq!(h.dump().sum.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn span_records_only_at_full_level() {
        let h = Histogram::register("test.span");
        let empty = HistogramDump {
            name: "test.span".to_string(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        };
        for below in [Level::Off, Level::Metrics] {
            with_level(below, || {
                h.reset();
                h.time(|| std::hint::black_box(1 + 1));
                assert_eq!(h.dump(), empty, "spans must stay off at {below:?}");
                assert_eq!(h.dump().sum.to_bits(), 0.0f64.to_bits());
            });
        }
        with_level(Level::Full, || {
            h.reset();
            h.time(|| std::hint::black_box(1 + 1));
            assert_eq!(h.dump().count, 1);
            assert!(h.dump().sum >= 0.0);
        });
        with_level(Level::Trace, || {
            h.reset();
            h.time(|| std::hint::black_box(1 + 1));
            assert_eq!(h.dump().count, 1, "trace level must keep spans on");
            let _ = take_trace();
        });
    }

    /// One sample of 86.24 s: the dump reports the sample itself as its
    /// sum, mean and both extremes.
    #[test]
    fn one_sample_reports_the_sample_as_every_statistic() {
        with_level(Level::Full, || {
            let h = Histogram::register("test.one");
            h.reset();
            h.record(86.24);
            let d = h.dump();
            assert_eq!(d.count, 1);
            assert_eq!((d.sum, d.min, d.max), (86.24, 86.24, 86.24));
            assert_eq!(d.mean(), Some(86.24));
        });
    }

    #[test]
    fn timeseries_gating_follows_the_level() {
        let series = TimeSeries::register("test.series.gated");
        with_level(Level::Off, || {
            series.reset();
            series.sample(0.0, 1.0);
            assert!(series.dump().points.is_empty());
        });
        for on in [Level::Metrics, Level::Full] {
            with_level(on, || {
                series.reset();
                series.sample(1.0, 2.0);
                assert_eq!(series.dump().points, vec![(1.0, 2.0)], "{on:?}");
            });
        }
    }

    #[test]
    fn timeseries_register_deduplicates_and_snapshots() {
        with_level(Level::Metrics, || {
            let a = timeseries!("test.series.dedupe");
            let b = TimeSeries::register("test.series.dedupe");
            assert!(std::ptr::eq(a, b));
            a.reset();
            a.sample(0.0, 10.0);
            a.sample(60.0, 12.0);
            let snap = snapshot();
            let d = snap
                .series
                .iter()
                .find(|s| s.name == "test.series.dedupe")
                .expect("series registered");
            assert_eq!(d.points, vec![(0.0, 10.0), (60.0, 12.0)]);
            let names: Vec<&String> = snap.series.iter().map(|s| &s.name).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted, "snapshot series must be name-sorted");
            reset();
            assert!(a.dump().points.is_empty());
        });
    }

    #[test]
    fn trace_scopes_balance_and_drain() {
        with_level(Level::Trace, || {
            let _ = take_trace(); // drain anything earlier tests left
            {
                let _outer = trace_scope("outer", "phase");
                trace_instant("tick");
                let _inner = trace_scope("inner", "span");
            }
            let dump = take_trace();
            assert_eq!(dump.dropped, 0);
            let phases: Vec<(char, &str)> = dump
                .events
                .iter()
                .map(|e| (e.ph, e.name.as_ref()))
                .collect();
            assert_eq!(
                phases,
                vec![
                    ('B', "outer"),
                    ('i', "tick"),
                    ('B', "inner"),
                    ('E', "inner"),
                    ('E', "outer"),
                ]
            );
            // All on one thread: one tid, timestamps non-decreasing.
            let tid = dump.events[0].tid;
            assert!(dump.events.iter().all(|e| e.tid == tid));
            assert!(dump.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
            // A second take is empty: the drain consumed the buffers.
            assert!(take_trace().events.is_empty());
        });
    }

    #[test]
    fn trace_is_inert_below_trace_level() {
        with_level(Level::Full, || {
            let _ = take_trace();
            {
                let _s = trace_scope("quiet", "span");
                trace_instant("quiet.mark");
            }
            let h = Histogram::register("test.trace.span");
            h.time(|| ());
            assert!(
                take_trace().events.is_empty(),
                "Full level must not buffer trace events"
            );
        });
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let dump = TraceDump {
            events: vec![
                TraceEvent {
                    name: Cow::Borrowed("a \"quoted\"\nname"),
                    cat: "phase",
                    ph: 'B',
                    ts_us: 0,
                    tid: 1,
                },
                TraceEvent {
                    name: Cow::Borrowed("mark"),
                    cat: "mark",
                    ph: 'i',
                    ts_us: 5,
                    tid: 1,
                },
                TraceEvent {
                    name: Cow::Borrowed("a \"quoted\"\nname"),
                    cat: "phase",
                    ph: 'E',
                    ts_us: 9,
                    tid: 1,
                },
            ],
            dropped: 2,
        };
        let json = chrome_trace_json(&dump);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("a \\\"quoted\\\"\\u000aname"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"i\",") || json.contains("\"s\":\"t\""));
        assert!(json.contains("\"droppedEvents\":2"));
        // Balanced quotes and braces — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn trace_capacity_drops_begins_but_never_ends() {
        with_level(Level::Trace, || {
            let _ = take_trace();
            // Saturate this thread's shard with instants, then check a
            // span opened at capacity still closes cleanly (no E without
            // B, no B without E).
            for _ in 0..TRACE_SHARD_CAP {
                trace_instant("fill");
            }
            {
                let _s = trace_scope("late", "span");
            }
            let dump = take_trace();
            assert!(dump.dropped >= 1, "capped pushes must be counted");
            let b = dump.events.iter().filter(|e| e.ph == 'B').count();
            let e = dump.events.iter().filter(|e| e.ph == 'E').count();
            assert_eq!(b, e, "span tree out of balance: {b} begins, {e} ends");
        });
    }

    #[test]
    fn snapshot_and_reset_cover_the_registry() {
        with_level(Level::Metrics, || {
            let c = Counter::register("test.snapshot.counter");
            let h = Histogram::register("test.snapshot.hist");
            c.reset();
            h.reset();
            c.add(7);
            h.record(2.5);
            let snap = snapshot();
            let cv = snap
                .counters
                .iter()
                .find(|(n, _)| n == "test.snapshot.counter")
                .expect("counter registered");
            assert_eq!(cv.1, 7);
            let hv = snap
                .histograms
                .iter()
                .find(|d| d.name == "test.snapshot.hist")
                .expect("histogram registered");
            assert_eq!(hv.count, 1);
            reset();
            assert_eq!(c.value(), 0);
            assert_eq!(h.dump().count, 0);
            // Reset clears the extremes too: the next sample sets both.
            h.record(1.5);
            assert_eq!((h.dump().min, h.dump().max), (1.5, 1.5));
        });
    }

    #[test]
    fn snapshot_names_are_sorted() {
        let _ = Counter::register("test.zz");
        let _ = Counter::register("test.aa");
        let snap = snapshot();
        let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
