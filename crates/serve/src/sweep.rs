//! The serve sweep: nearest-server answers for a sharded user
//! population over a snapshot schedule, on delta-refreshed routing
//! state.
//!
//! **Frontier-primary.** Each shard's assignments come from one cold,
//! settled satellite-major pass ([`SnapshotView::settle_nearest_servers`])
//! per snapshot — candidate satellites challenge the shard's
//! longitude-sorted users inside their coverage wedges — instead of one
//! visibility scan per user. The settled pass is bit-identical to the
//! per-user scans by construction (conservative prunes, exact per-pair
//! tests, order-independent arg-min; see `leo_net::frontier`), and the
//! demoted per-user scan survives as an opt-in, sampled validation mode
//! ([`ServeConfig::validate_every`]) that re-derives whole shards and
//! asserts equality.
//!
//! Per snapshot the engine still runs one incremental weight refresh
//! ([`RoutingEngine::refresh_delta`]) on the main thread and
//! **asserts** the result bit-identical to the view's full refresh —
//! the serving layer never trades correctness for an incremental path's
//! speed, it proves the two equal on every instant it serves. In
//! validation mode the batched multi-source **arg-min** frontier
//! ([`RoutingEngine::multi_source_ground_frontier_into`]) additionally
//! re-derives the sampled shard's winners and delays through the
//! delta-refreshed weights as a third, independent proof.
//!
//! Everything reported in [`SnapshotStats`] is a pure function of the
//! population and the schedule: thread counts change wall-clock, never
//! bytes.
//!
//! [`RoutingEngine::refresh_delta`]: leo_net::RoutingEngine::refresh_delta
//! [`RoutingEngine::multi_source_ground_frontier_into`]: leo_net::RoutingEngine::multi_source_ground_frontier_into

use crate::shard::ShardedUsers;
use leo_constellation::SatId;
use leo_core::{InOrbitService, SnapshotView};
use leo_net::engine::with_thread_arena;
use leo_net::{GroundSet, IslWeights, VisibleSat};
use leo_sim::parallel_map;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Knobs of a serve sweep. Sharding and validation cadence are part of
/// the result-determinism contract; threads are not.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Latitude band height for sharding, degrees.
    pub band_deg: f64,
    /// Maximum users per shard (bands above this split).
    pub max_shard: usize,
    /// Worker-pool size for the per-shard fan-out.
    pub threads: usize,
    /// Validation cadence: every `validate_every`-th snapshot, re-derive
    /// one shard through the demoted per-user scans *and* the batched
    /// multi-source arg-min frontier, asserting both bit-identical to
    /// the settled answers. `1` validates every snapshot, `0` disables
    /// validation entirely. Observation-only: the reported bytes are
    /// identical at any cadence.
    pub validate_every: usize,
}

/// Aggregate serving stats at one snapshot. Every field is independent
/// of the thread count — these rows are what the CI byte-identity gate
/// diffs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SnapshotStats {
    /// Snapshot time, seconds.
    pub time_s: f64,
    /// Users with at least one visible (non-faulted) server.
    pub served: u64,
    /// Users with no server in view.
    pub unserved: u64,
    /// Users whose serving satellite changed since the previous
    /// snapshot (both instants served). Zero at the first snapshot.
    pub handoffs: u64,
    /// Mean round-trip time to the assigned server over served users,
    /// milliseconds.
    pub mean_rtt_ms: f64,
    /// FNV-1a checksum over the full `(user, server, delay)` assignment
    /// vector — a byte-identity fingerprint of every individual answer
    /// without shipping millions of rows.
    pub assignment_checksum: u64,
}

/// The outcome of a serve sweep.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepReport {
    /// Per-snapshot serving stats, in schedule order.
    pub snapshots: Vec<SnapshotStats>,
    /// Total nearest-server queries answered.
    pub total_queries: u64,
    /// Edges the delta refresh recomputed, summed over the sweep.
    pub delta_recomputed: u64,
    /// Edges the delta refresh skipped as provably unchanged.
    pub delta_skipped: u64,
    /// Delta refreshes that fell back to a full rebuild (the cold first
    /// snapshot, normally exactly one).
    pub delta_full_rebuilds: u64,
}

/// A user population wired to a service, ready to sweep.
pub struct ServeEngine {
    service: InOrbitService,
    users: ShardedUsers,
    /// One longitude-sorted [`GroundSet`] per shard, built once — the
    /// satellite-major pass's static half.
    sets: Vec<GroundSet>,
    config: ServeConfig,
}

/// Per-shard fold of one snapshot's answers.
struct ShardOut {
    assignments: Vec<Option<VisibleSat>>,
    served: u64,
    rtt_sum_ms: f64,
}

impl ServeEngine {
    /// Shards `users` per `config` and binds them to `service`.
    pub fn new(
        service: InOrbitService,
        users: Vec<leo_net::routing::GroundEndpoint>,
        config: ServeConfig,
    ) -> Self {
        let users = ShardedUsers::build(users, config.band_deg, config.max_shard);
        let sets = (0..users.num_shards())
            .map(|i| {
                let pts: Vec<_> = users.shard(i).iter().map(|u| u.ecef).collect();
                GroundSet::build(&pts)
            })
            .collect();
        ServeEngine {
            service,
            users,
            sets,
            config,
        }
    }

    /// The sharded population.
    pub fn users(&self) -> &ShardedUsers {
        &self.users
    }

    /// The service being swept.
    pub fn service(&self) -> &InOrbitService {
        &self.service
    }

    /// Answers every user at every instant of `times` with one settled
    /// frontier pass per shard, chaining the delta weight refresh across
    /// snapshots.
    ///
    /// # Panics
    /// Panics if the delta-refreshed weights ever diverge from the
    /// view's full refresh, or if — in validation mode — the settled
    /// frontier disagrees with the demoted per-user scans or with the
    /// multi-source arg-min frontier. All are broken-build signals, not
    /// runtime conditions to tolerate.
    pub fn sweep(&self, times: &[f64]) -> SweepReport {
        let _span = leo_obs::span!("serve.sweep_s");
        let engine = self.service.routing_engine().clone();
        let mut delta = IslWeights::default();
        let mut prev: Vec<Option<SatId>> = Vec::new();
        let mut report = SweepReport {
            snapshots: Vec::with_capacity(times.len()),
            total_queries: 0,
            delta_recomputed: 0,
            delta_skipped: 0,
            delta_full_rebuilds: 0,
        };
        for (step, &t) in times.iter().enumerate() {
            let snap_t0 = leo_obs::spans_enabled().then(Instant::now);
            let view = self.service.view(t);
            // Incremental weight refresh, chained from the previous
            // instant and proven against the view's full refresh.
            let stats = engine.refresh_delta(view.snapshot(), view.fault_plan(), &mut delta);
            assert!(
                delta.bits_eq(view.isl_weights()),
                "delta refresh diverged from full refresh at t={t}"
            );
            report.delta_recomputed += stats.recomputed as u64;
            report.delta_skipped += stats.skipped() as u64;
            report.delta_full_rebuilds += u64::from(stats.full_rebuild);

            // Fan the shards across the pool; results come back in shard
            // order, so the fold below is thread-count-invariant.
            let shards: Vec<usize> = (0..self.users.num_shards()).collect();
            let outs = parallel_map(shards, self.config.threads, |&i| {
                self.answer_shard(&view, i)
            });

            let mut row = SnapshotStats {
                time_s: t,
                served: 0,
                unserved: 0,
                handoffs: 0,
                mean_rtt_ms: 0.0,
                assignment_checksum: FNV_OFFSET,
            };
            let mut current: Vec<Option<SatId>> = Vec::with_capacity(self.users.num_users());
            let mut rtt_sum = 0.0;
            for out in &outs {
                row.served += out.served;
                row.unserved += out.assignments.len() as u64 - out.served;
                rtt_sum += out.rtt_sum_ms;
                for a in &out.assignments {
                    row.assignment_checksum = fnv_assignment(row.assignment_checksum, a);
                    current.push(a.map(|v| v.id));
                }
            }
            row.mean_rtt_ms = if row.served > 0 {
                rtt_sum / row.served as f64
            } else {
                0.0
            };
            if step > 0 {
                row.handoffs = prev
                    .iter()
                    .zip(&current)
                    .filter(|(p, c)| matches!((p, c), (Some(a), Some(b)) if a != b))
                    .count() as u64;
            }
            leo_obs::counter!("serve.queries").add(current.len() as u64);
            leo_obs::counter!("serve.handoffs").add(row.handoffs);
            leo_obs::counter!("serve.snapshots").incr();
            report.total_queries += current.len() as u64;

            // Per-snapshot gauges, sampled here in the sequential fold
            // (never from the shard workers) so point order — and the
            // manifest's timeseries section — is thread-count-invariant.
            leo_obs::timeseries!("serve.served").sample(t, row.served as f64);
            leo_obs::timeseries!("serve.handoffs").sample(t, row.handoffs as f64);
            leo_obs::timeseries!("serve.delta_recomputed").sample(t, stats.recomputed as f64);
            leo_obs::trace_instant("serve.snapshot");
            if let Some(t0) = snap_t0 {
                // Wall-clock series: spans-gated, excluded from the
                // determinism comparisons like every timing metric.
                leo_obs::timeseries_wall!("serve.snapshot_wall_s")
                    .sample(t, t0.elapsed().as_secs_f64());
            }

            let every = self.config.validate_every;
            if every > 0 && step % every == 0 && self.users.num_shards() > 0 {
                let k = step % self.users.num_shards();
                self.validate_shard_frontier(&view, &delta, k, &outs[k]);
            }
            prev = current;
            report.snapshots.push(row);
        }
        report
    }

    /// Answers one shard against a view via its settled frontier.
    fn answer_shard(&self, view: &SnapshotView, i: usize) -> ShardOut {
        let mut assignments = Vec::new();
        view.settle_nearest_servers(&self.sets[i], &mut assignments);
        let mut served = 0;
        let mut rtt_sum_ms = 0.0;
        for a in assignments.iter().flatten() {
            served += 1;
            rtt_sum_ms += a.rtt_ms();
        }
        ShardOut {
            assignments,
            served,
            rtt_sum_ms,
        }
    }

    /// Re-derives shard `k`'s answers two independent ways and asserts
    /// both bit-identical to the settled frontier's:
    ///
    /// 1. the demoted per-user visibility scans
    ///    ([`InOrbitService::nearest_servers_view`]) — the legacy
    ///    primary path, now validation-only;
    /// 2. the batched multi-source **arg-min** frontier over the
    ///    delta-refreshed weights: seed every satellite, settle once,
    ///    and each user's delay *and winner* must match. (ISL weights
    ///    are strictly positive, so every satellite keeps its own label
    ///    and a ground cell's winner is exactly its nearest-by-delay
    ///    satellite, ties to the lowest id — range ties and delay ties
    ///    coincide because delay is range scaled by a constant.)
    fn validate_shard_frontier(
        &self,
        view: &SnapshotView,
        delta: &IslWeights,
        k: usize,
        out: &ShardOut,
    ) {
        leo_obs::counter!("serve.frontier_validations").incr();
        let users = self.users.shard(k);
        if users.is_empty() {
            return;
        }
        let legacy = self.service.nearest_servers_view(view, users);
        assert_eq!(
            legacy.len(),
            out.assignments.len(),
            "settled frontier answered a different user count (shard {k})"
        );
        for (j, (a, b)) in legacy.iter().zip(&out.assignments).enumerate() {
            assert!(
                a == b,
                "settled frontier disagrees with per-user scan \
                 (shard {k}, user {j}: scan {a:?}, frontier {b:?})"
            );
        }
        let engine = self.service.routing_engine();
        let links = view.attach(users);
        let sources: Vec<SatId> = (0..engine.num_sats() as u32).map(SatId).collect();
        let mut delays = Vec::new();
        let mut winners = Vec::new();
        with_thread_arena(|arena| {
            engine.multi_source_ground_frontier_into(
                delta,
                &links,
                &sources,
                &mut delays,
                &mut winners,
                arena,
            );
        });
        for (j, (a, (&f, w))) in out
            .assignments
            .iter()
            .zip(delays.iter().zip(&winners))
            .enumerate()
        {
            let direct = a.map_or(f64::INFINITY, |v| v.delay_s());
            assert!(
                f.to_bits() == direct.to_bits(),
                "multi-source frontier disagrees with nearest assignment \
                 (shard {k}, user {j}: frontier {f}, direct {direct})"
            );
            assert!(
                *w == a.map(|v| v.id),
                "multi-source frontier winner disagrees with nearest assignment \
                 (shard {k}, user {j}: frontier {w:?}, direct {:?})",
                a.map(|v| v.id)
            );
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one assignment into the checksum: the serving satellite (or a
/// sentinel for unserved) and the exact delay bits.
fn fnv_assignment(h: u64, a: &Option<VisibleSat>) -> u64 {
    match a {
        Some(v) => fnv_u64(fnv_u64(h, u64::from(v.id.0)), v.delay_s().to_bits()),
        None => fnv_u64(h, u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::{synthesize_users, USER_SEED};
    use leo_constellation::presets;
    use leo_net::FaultConfig;

    fn quick_config(threads: usize) -> ServeConfig {
        ServeConfig {
            band_deg: 6.0,
            max_shard: 512,
            threads,
            validate_every: 1,
        }
    }

    fn population(n: usize) -> Vec<leo_net::routing::GroundEndpoint> {
        synthesize_users(n, 2.0, USER_SEED)
    }

    #[test]
    fn sweep_is_identical_across_thread_counts() {
        let times: Vec<f64> = (0..3).map(|i| i as f64 * 60.0).collect();
        let sweep = |threads| {
            ServeEngine::new(
                InOrbitService::new(presets::starlink_550_only()),
                population(2000),
                quick_config(threads),
            )
            .sweep(&times)
        };
        let one = sweep(1);
        for threads in [2, 3, 8] {
            assert_eq!(one, sweep(threads), "{threads} threads");
        }
        assert_eq!(one.total_queries, 6000);
        assert_eq!(one.delta_full_rebuilds, 1, "only the cold start rebuilds");
    }

    #[test]
    fn validation_cadence_never_changes_the_bytes() {
        // Validation is observation-only: any cadence — including off —
        // reports identical bytes. (This is also what licenses sampling
        // it down in full bench runs.)
        let times: Vec<f64> = (0..4).map(|i| i as f64 * 60.0).collect();
        let reports: Vec<SweepReport> = [0usize, 1, 3]
            .iter()
            .map(|&every| {
                let mut cfg = quick_config(4);
                cfg.validate_every = every;
                ServeEngine::new(
                    InOrbitService::new(presets::starlink_550_only()),
                    population(1500),
                    cfg,
                )
                .sweep(&times)
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn dead_satellites_never_serve() {
        let mut deaths = vec![f64::INFINITY; 400];
        for d in deaths.iter_mut().take(400).skip(390) {
            *d = 0.0;
        }
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let service = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let engine = ServeEngine::new(service, population(1200), quick_config(4));
        // The sweep's internal frontier validation and delta assertions
        // all run under the fault plan.
        let report = engine.sweep(&[0.0, 60.0]);
        assert_eq!(report.snapshots.len(), 2);
        // Killing satellites can only lose coverage relative to plain.
        let plain = ServeEngine::new(
            InOrbitService::new(presets::starlink_550_only()),
            population(1200),
            quick_config(4),
        )
        .sweep(&[0.0, 60.0]);
        for (f, p) in report.snapshots.iter().zip(&plain.snapshots) {
            assert!(f.served <= p.served);
        }
    }

    #[test]
    fn empty_population_sweeps_cleanly() {
        let report = ServeEngine::new(
            InOrbitService::new(presets::starlink_550_only()),
            population(0),
            quick_config(2),
        )
        .sweep(&[0.0, 60.0]);
        assert_eq!(report.total_queries, 0);
        for row in &report.snapshots {
            assert_eq!(row.served, 0);
            assert_eq!(row.unserved, 0);
        }
    }

    #[test]
    fn handoffs_are_zero_on_a_static_schedule() {
        let engine = ServeEngine::new(
            InOrbitService::new(presets::starlink_550_only()),
            population(800),
            quick_config(2),
        );
        let n_edges = leo_net::IslTopology::plus_grid(engine.service().constellation())
            .edges()
            .len() as u64;
        let report = engine.sweep(&[120.0, 120.0]);
        assert_eq!(report.snapshots[0].handoffs, 0);
        assert_eq!(
            report.snapshots[1].handoffs, 0,
            "identical snapshots cannot hand off"
        );
        assert_eq!(
            report.snapshots[0].assignment_checksum,
            report.snapshots[1].assignment_checksum
        );
        // The repeated instant is where the delta refresh pays off: the
        // cold start rebuilds every edge, the second snapshot recomputes
        // none.
        assert_eq!(report.delta_full_rebuilds, 1);
        assert_eq!(report.delta_recomputed, n_edges);
        assert_eq!(report.delta_skipped, n_edges);
    }
}
