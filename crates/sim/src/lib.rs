//! # leo-sim
//!
//! The parallel sweep engine behind the experiment harness.
//!
//! Every figure of the paper has the same computational shape: evaluate
//! some per-ground-point quantity at each instant of a sampling schedule.
//! Done naively that re-propagates the constellation (and rescans every
//! satellite) once per *(ground, time)* pair. [`TimeSweep`] restructures
//! the work:
//!
//! 1. each instant is propagated **once**, into a shared
//!    [`SnapshotView`] (positions + spatial visibility index; the ISL
//!    edge weights of the compiled routing engine are refreshed on the
//!    view's first route query), in parallel across the pool;
//! 2. ground points are fanned across the worker pool, each worker
//!    folding sequentially over the prebuilt views;
//! 3. results come back in input order, and — because each ground
//!    point's fold is sequential and pure — the output is identical
//!    whatever the thread count.
//!
//! [`parallel_map`] is the underlying order-preserving fork/join
//! primitive, exposed for workloads that don't fit the time-sweep mold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use leo_core::{InOrbitService, SnapshotView};
use std::sync::Arc;

/// Splits `items` across `threads` chunks and maps them in parallel with
/// scoped threads, preserving input order in the output. At one thread, or
/// for one item, the items run on the caller's thread and nothing is
/// spawned.
///
/// # Panics
/// Panics when `threads` is zero. A panic in `f` is re-raised on the
/// caller's thread with its *original payload* (the first one in chunk
/// order when several workers panic), so `catch_unwind` callers and test
/// harnesses see the real message rather than the scope's generic
/// "a scoped thread panicked".
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads > 0);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    leo_obs::counter!("sim.parallel_map_calls").incr();
    leo_obs::counter!("sim.items_processed").add(n as u64);
    if threads == 1 || n == 1 {
        let _busy = leo_obs::histogram!("sim.worker_busy_s").span();
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let first_panic = std::thread::scope(|s| {
        let handles: Vec<_> = out
            .chunks_mut(chunk)
            .zip(items.chunks(chunk))
            .map(|(slot_chunk, item_chunk)| {
                let f = &f;
                s.spawn(move || {
                    let _busy = leo_obs::histogram!("sim.worker_busy_s").span();
                    for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                        *slot = Some(f(item));
                    }
                })
            })
            .collect();
        // Join every handle explicitly: a panic left unjoined would make
        // the scope itself panic with a generic message, discarding the
        // worker's payload. All handles must be joined (not just up to
        // the first error), so collect before picking the first payload
        // in chunk order to re-raise below.
        let panics: Vec<_> = handles.into_iter().filter_map(|h| h.join().err()).collect();
        panics.into_iter().next()
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out.into_iter().map(|r| r.expect("slot filled")).collect()
}

/// Worker-pool size: the `LEO_THREADS` environment variable when set to a
/// positive integer, otherwise the machine's available parallelism
/// (capped at 16 — the sweeps are memory-bandwidth-bound well before
/// that).
pub fn default_threads() -> usize {
    threads_from(std::env::var("LEO_THREADS").ok().as_deref())
}

/// The `LEO_THREADS` decision as a pure function of the variable's value
/// (`None` = unset). Split out so tests and the experiment harness's CLI
/// layer never have to mutate the process environment, which is racy
/// under the parallel test runner.
pub fn threads_from(value: Option<&str>) -> usize {
    if let Some(v) = value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// The prebuilt per-instant views a sweep worker reads from: the sampling
/// times paired with their shared [`SnapshotView`]s.
#[derive(Clone, Copy)]
pub struct SweepViews<'a> {
    times: &'a [f64],
    views: &'a [Arc<SnapshotView>],
}

impl<'a> SweepViews<'a> {
    /// Number of instants in the sweep.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the sweep has no instants.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates `(time, view)` pairs in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &'a SnapshotView)> + '_ {
        self.times
            .iter()
            .zip(self.views)
            .map(|(&t, v)| (t, v.as_ref()))
    }
}

/// A parallel sweep of per-ground-point work over a sampling schedule.
///
/// ```
/// use leo_constellation::presets::starlink_550_only;
/// use leo_core::InOrbitService;
/// use leo_geo::Geodetic;
/// use leo_sim::TimeSweep;
///
/// let service = InOrbitService::new(starlink_550_only());
/// let sweep = TimeSweep::new(&service, (0..4).map(|i| i as f64 * 60.0));
/// let lats = vec![0.0, 30.0, 60.0];
/// // Worst-case visible-satellite count per latitude over the schedule:
/// let worst: Vec<usize> = sweep.run(lats, |&lat, views| {
///     let ge = Geodetic::ground(lat, 0.0).to_ecef_spherical();
///     views
///         .iter()
///         .map(|(_, v)| v.index().query(ge, v.fault_plan()).len())
///         .max()
///         .unwrap()
/// });
/// assert_eq!(worst.len(), 3);
/// ```
pub struct TimeSweep<'a> {
    service: &'a InOrbitService,
    times: Vec<f64>,
    threads: usize,
}

impl<'a> TimeSweep<'a> {
    /// A sweep over `times` with the default worker-pool size
    /// ([`default_threads`]).
    pub fn new(service: &'a InOrbitService, times: impl IntoIterator<Item = f64>) -> Self {
        TimeSweep {
            service,
            times: times.into_iter().collect(),
            threads: default_threads(),
        }
    }

    /// Overrides the worker-pool size.
    ///
    /// # Panics
    /// Panics when `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.threads = threads;
        self
    }

    /// Propagates and indexes every instant of the schedule, in parallel,
    /// returning the shared views in schedule order. Idempotent: views
    /// come from the service's snapshot cache, so a second call (or a
    /// concurrent session touching the same instants) reuses them.
    pub fn prepare(&self) -> Vec<Arc<SnapshotView>> {
        let _span = leo_obs::span!("sim.prepare_s");
        leo_obs::counter!("sim.sweep_instants").add(self.times.len() as u64);
        parallel_map(self.times.clone(), self.threads, |&t| self.service.view(t))
    }

    /// Runs `f` once per ground item against the prebuilt views, fanning
    /// the items across the worker pool. Output order matches input
    /// order, and — `f` being pure — the result is independent of the
    /// thread count.
    pub fn run<G, R, F>(&self, grounds: Vec<G>, f: F) -> Vec<R>
    where
        G: Send + Sync,
        R: Send,
        F: Fn(&G, SweepViews<'_>) -> R + Sync,
    {
        let views = self.prepare();
        let ctx = SweepViews {
            times: &self.times,
            views: &views,
        };
        parallel_map(grounds, self.threads, |g| f(g, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<i64> = (0..100).collect();
        let out = parallel_map(items.clone(), 7, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(
            parallel_map(Vec::<i32>::new(), 4, |&x| x),
            Vec::<i32>::new()
        );
        assert_eq!(parallel_map(vec![42], 4, |&x| x + 1), vec![43]);
    }

    #[test]
    fn one_thread_or_one_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let on_caller = |items: Vec<i32>, threads| {
            parallel_map(items, threads, |_| std::thread::current().id())
                .into_iter()
                .all(|id| id == caller)
        };
        assert!(on_caller(vec![1, 2, 3], 1));
        assert!(on_caller(vec![1], 4));
        assert!(!on_caller(vec![1, 2], 2), "two threads spawn workers");
    }

    #[test]
    fn parallel_map_with_more_threads_than_items() {
        let out = parallel_map(vec![1, 2, 3], 16, |&x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() > 0);
    }

    #[test]
    fn prepare_shares_views_through_the_cache() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let sweep = TimeSweep::new(&service, [0.0, 60.0]).with_threads(2);
        let a = sweep.prepare();
        let b = sweep.prepare();
        for (x, y) in a.iter().zip(&b) {
            assert!(Arc::ptr_eq(x, y));
        }
    }

    #[test]
    fn run_is_deterministic_across_thread_counts() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let times: Vec<f64> = (0..3).map(|i| i as f64 * 120.0).collect();
        let lats: Vec<f64> = (0..10).map(|i| i as f64 * 8.0).collect();
        let count_worst = |&lat: &f64, views: SweepViews<'_>| -> Vec<usize> {
            let ge = Geodetic::ground(lat, 0.0).to_ecef_spherical();
            views
                .iter()
                .map(|(_, v)| v.index().query(ge, v.fault_plan()).len())
                .collect()
        };
        let one = TimeSweep::new(&service, times.clone())
            .with_threads(1)
            .run(lats.clone(), count_worst);
        let many = TimeSweep::new(&service, times)
            .with_threads(8)
            .run(lats, count_worst);
        assert_eq!(one, many);
    }

    #[test]
    fn sweep_views_expose_schedule_order() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let sweep = TimeSweep::new(&service, [0.0, 30.0, 60.0]).with_threads(2);
        let order: Vec<Vec<f64>> = sweep.run(vec![()], |_, views| {
            assert_eq!(views.len(), 3);
            assert!(!views.is_empty());
            views.iter().map(|(t, _)| t).collect()
        });
        assert_eq!(order, vec![vec![0.0, 30.0, 60.0]]);
    }

    #[test]
    fn parallel_map_preserves_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(vec![1, 2, 3, 4], 2, |&x| {
                if x == 3 {
                    panic!("item {x} exploded");
                }
                x
            })
        })
        .expect_err("worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("payload must be the worker's formatted message");
        assert_eq!(msg, "item 3 exploded");
    }

    #[test]
    fn parallel_map_reports_first_panic_in_chunk_order() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..8).collect::<Vec<i32>>(), 4, |&x| {
                if x % 2 == 1 {
                    panic!("odd item {x}");
                }
                x
            })
        })
        .expect_err("worker panic must propagate");
        let msg = caught.downcast_ref::<String>().expect("formatted message");
        assert_eq!(msg, "odd item 1");
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_is_rejected() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let _ = TimeSweep::new(&service, [0.0]).with_threads(0);
    }
}
