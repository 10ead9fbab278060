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
//! Its workers claim items one at a time, each walking a contiguous run of
//! the input from one end while a worker that ran out walks it from the
//! other, so one costly item never waits behind a fixed share of cheap
//! ones and neighbouring items still run on one worker. A panic re-raises
//! the payload of the lowest input index that panicked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use leo_core::{InOrbitService, SnapshotView};
use std::any::Any;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard};

/// Maps `items` in parallel with scoped threads, preserving input order in
/// the output. At one thread, or for one item, the items run on the
/// caller's thread and nothing is spawned.
///
/// # Claim rule
/// The input is cut into contiguous runs of
/// `items.len().div_ceil(threads)` items, one worker per run, and each
/// worker claims one item at a time. Even-numbered workers walk their run
/// forward and odd-numbered ones backward. A worker whose run is empty
/// moves to the run with the most items left and walks it from the end
/// its owner has not reached. At two workers this is one shared range,
/// claimed from the front by one worker and from the back by the other
/// until they meet: a costly last item starts at once, and each worker
/// still runs adjacent items, so items that share a lazily filled cache
/// stay together.
///
/// # Panics
/// Panics when `threads` is zero. A panic in `f` is caught per item, the
/// other items still run, and the payload of the lowest input index that
/// panicked is re-raised on the caller's thread unchanged, so
/// `catch_unwind` callers and test harnesses see the real message rather
/// than the scope's generic "a scoped thread panicked".
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
    let runs: Vec<Mutex<Range<usize>>> = (0..n)
        .step_by(chunk)
        .map(|lo| Mutex::new(lo..n.min(lo + chunk)))
        .collect();
    let workers: Vec<Claimed<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..runs.len())
            .map(|w| {
                let (runs, items, f) = (&runs, &items, &f);
                s.spawn(move || work(w, runs, items, f))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let (mut out, mut panics) = (Vec::with_capacity(n), Vec::new());
    for (results, caught) in workers {
        out.extend(results);
        panics.extend(caught);
    }
    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(i, _)| i) {
        std::panic::resume_unwind(payload);
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// What one worker hands back: its `(index, result)` pairs, and the
/// lowest-index panic it caught.
type Claimed<R> = (Vec<(usize, R)>, Option<(usize, Box<dyn Any + Send>)>);

/// Worker `w`'s loop: claims items one at a time until every run is empty.
fn work<T, R, F>(w: usize, runs: &[Mutex<Range<usize>>], items: &[T], f: &F) -> Claimed<R>
where
    F: Fn(&T) -> R,
{
    let _busy = leo_obs::histogram!("sim.worker_busy_s").span();
    let (mut results, mut caught) = (Vec::new(), None);
    // Run `r`'s owner walks it forward when `r` is even; a worker that
    // moves in walks it the other way.
    let (mut run, mut forward) = (w, w % 2 == 0);
    loop {
        let claimed = {
            let mut left = lock(&runs[run]);
            if forward {
                left.next()
            } else {
                left.next_back()
            }
        };
        match claimed {
            Some(i) => match std::panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => results.push((i, r)),
                Err(p) => {
                    if caught.as_ref().map_or(true, |&(j, _)| i < j) {
                        caught = Some((i, p));
                    }
                }
            },
            None => match fullest(runs) {
                Some(r) => (run, forward) = (r, r % 2 == 1),
                None => return (results, caught),
            },
        }
    }
}

/// The run with the most items left, or `None` when all are empty.
fn fullest(runs: &[Mutex<Range<usize>>]) -> Option<usize> {
    runs.iter()
        .map(|r| lock(r).len())
        .enumerate()
        .filter(|&(_, left)| left > 0)
        .max_by_key(|&(_, left)| left)
        .map(|(r, _)| r)
}

fn lock(run: &Mutex<Range<usize>>) -> MutexGuard<'_, Range<usize>> {
    run.lock()
        .expect("a run's lock is held only to step a range, which cannot panic")
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Spins until `ready` holds. After 10 s it fails the test instead, so
    /// a claim rule that never makes `ready` true fails rather than hangs.
    fn wait_until(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn flags(n: usize) -> Vec<AtomicBool> {
        (0..n).map(|_| AtomicBool::new(false)).collect()
    }

    #[test]
    fn parallel_map_preserves_order() {
        // Every item runs exactly once and the outputs keep input order,
        // for every item count against every pool size: no items, one
        // item, and more threads than items included.
        for n in 0..=40 {
            for threads in 1..=9 {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = parallel_map((0..n).collect(), threads, |&i: &usize| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i * 2
                });
                let want: Vec<usize> = (0..n).map(|i| i * 2).collect();
                assert_eq!(out, want, "{n} items on {threads} threads");
                let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                assert_eq!(counts, vec![1; n], "{n} items on {threads} threads");
            }
        }
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
    fn parallel_map_with_more_threads_than_items() {
        let out = parallel_map(vec![1, 2, 3], 16, |&x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn two_workers_each_run_one_contiguous_range() {
        // Item 0 holds its worker until another item has started, so both
        // workers run; every later item waits until its predecessor has
        // finished. Claiming from one shared front would then alternate
        // the workers item by item.
        for n in 3..=20 {
            let (started, finished) = (flags(n), flags(n));
            let ran_on = parallel_map((0..n).collect(), 2, |&i: &usize| {
                started[i].store(true, Ordering::SeqCst);
                if i == 0 {
                    wait_until("a second item starts", || {
                        started[1..].iter().any(|s| s.load(Ordering::SeqCst))
                    });
                } else {
                    wait_until("the item before finishes", || {
                        finished[i - 1].load(Ordering::SeqCst)
                    });
                }
                finished[i].store(true, Ordering::SeqCst);
                std::thread::current().id()
            });
            let split = ran_on
                .iter()
                .position(|&id| id != ran_on[0])
                .expect("both workers ran");
            assert!(
                ran_on[split..].iter().all(|&id| id == ran_on[split]),
                "{n} items: not a prefix and a suffix: {ran_on:?}"
            );
        }
    }

    #[test]
    fn the_second_of_two_workers_starts_with_the_last_item() {
        for n in [3, 8, 40] {
            let log = Mutex::new(Vec::new());
            let started = |i| log.lock().expect("log lock").contains(&i);
            parallel_map((0..n).collect(), 2, |&i: &usize| {
                log.lock().expect("log lock").push(i);
                if i == 0 {
                    wait_until("the last item starts", || started(n - 1));
                }
            });
            let log = log.into_inner().expect("log lock");
            let last = log.iter().position(|&i| i == n - 1).expect("last item ran");
            assert!(
                log[..last].iter().all(|&i| i == 0),
                "{n} items: started {:?} before the last one",
                &log[..last]
            );
        }
    }

    #[test]
    fn a_later_panic_at_a_lower_index_wins() {
        // The second worker panics on item n−1 at once and goes on to item
        // n−2; only once that has started does item 1 panic on the first.
        let n = 8;
        let started = flags(n);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..n).collect(), 2, |&i: &usize| {
                started[i].store(true, Ordering::SeqCst);
                if i == n - 1 {
                    panic!("item {i} panicked first");
                }
                if i == 1 {
                    wait_until("item n−2 starts", || {
                        started[n - 2].load(Ordering::SeqCst)
                    });
                    panic!("item {i} panicked later");
                }
                i
            })
        }))
        .expect_err("worker panic must propagate");
        let msg = caught.downcast_ref::<String>().expect("formatted message");
        assert_eq!(msg, "item 1 panicked later");
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
        let order: Vec<Vec<f64>> =
            sweep.run(vec![()], |_, views| views.iter().map(|(t, _)| t).collect());
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
