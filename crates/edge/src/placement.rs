//! Sticky function placement on the satellite fleet.
//!
//! Komet's central cost model: a function invocation is cheap when its
//! host is *warm* (code and state already resident) and expensive when
//! it must *cold-start* (ship code, hydrate state). On a LEO fleet the
//! hosts themselves move, so even a perfectly sticky placement is
//! forced to migrate when its satellite sets below the horizon or dies
//! — the FaaS analogue of the session-layer handover.
//!
//! Policy per cell×function each tick, in deterministic order:
//!
//! 1. **Stay** — the previous host is still a candidate (visible, in
//!    RTT bound, not fault-masked) and its slots can be re-reserved via
//!    [`leo_core::capacity::CapacityPool::try_reserve`]: warm, free.
//! 2. **Migrate** — otherwise prefer the nearest candidate already
//!    holding the cell's state replica (*warm* start — the whole point
//!    of the QoS replica layer), falling back to the nearest candidate
//!    with free slots (*cold* start, `edge.cold_starts`). Either way
//!    counts as a migration (`edge.migrations`).
//! 3. **Unserved** — no candidate has capacity (or none is in range);
//!    the function is down for this tick and will cold-start wherever
//!    it lands next, replica hosts excepted.

use crate::replica::ReplicaSets;
use leo_constellation::SatId;
use leo_core::capacity::CapacityPool;
use leo_net::frontier::within_rtt;
use leo_net::visibility::VisibleSat;
use serde::{Deserialize, Serialize};

/// A function class deployed at every demand cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Function name (for reports).
    pub name: String,
    /// Slots one instance occupies on its host.
    pub slots: u32,
    /// Maximum acceptable RTT from the cell to the host, ms.
    pub max_rtt_ms: f64,
    /// Cost of a cold start, ms (code ship + state hydration).
    pub cold_start_ms: f64,
    /// Cost of a warm start on a replica host, ms.
    pub warm_start_ms: f64,
}

impl FunctionSpec {
    /// A small latency-sensitive function — the paper's gaming/telemetry
    /// class.
    pub fn interactive() -> Self {
        FunctionSpec {
            name: "interactive".into(),
            slots: 1,
            max_rtt_ms: 12.0,
            cold_start_ms: 450.0,
            warm_start_ms: 8.0,
        }
    }

    /// A heavier batch-ish function with a looser bound.
    pub fn analytics() -> Self {
        FunctionSpec {
            name: "analytics".into(),
            slots: 2,
            max_rtt_ms: 16.0,
            cold_start_ms: 1200.0,
            warm_start_ms: 20.0,
        }
    }
}

/// What one placement tick did across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlaceStats {
    /// Instances that stayed on their previous host.
    pub stays: u64,
    /// Instances that moved hosts (`edge.migrations`; includes first
    /// placements, which migrate from "nowhere").
    pub migrations: u64,
    /// Migrations that cold-started (`edge.cold_starts`).
    pub cold_starts: u64,
    /// Migrations that warm-started on a replica host.
    pub warm_starts: u64,
    /// Instances left unserved this tick.
    pub unserved: u64,
    /// Total start latency paid this tick, ms.
    pub start_latency_ms: f64,
}

/// The sticky host table: one optional host per cell × function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionPlacement {
    /// `hosts[cell][func]`.
    hosts: Vec<Vec<Option<SatId>>>,
}

impl FunctionPlacement {
    /// An empty placement for `num_cells` cells × `num_functions`
    /// function classes; every instance cold-starts on first placement
    /// unless it lands on a replica host.
    pub fn new(num_cells: usize, num_functions: usize) -> Self {
        FunctionPlacement {
            hosts: vec![vec![None; num_functions]; num_cells],
        }
    }

    /// The current host of a cell's function instance.
    pub fn host(&self, cell: u32, func: usize) -> Option<SatId> {
        self.hosts[cell as usize][func]
    }

    /// Satellites hosting at least one function instance, ascending and
    /// deduplicated — the engine's busy-fleet accounting.
    pub fn busy_hosts(&self) -> Vec<SatId> {
        let mut hosts: Vec<SatId> = self.hosts.iter().flatten().flatten().copied().collect();
        hosts.sort_by_key(|id| id.0);
        hosts.dedup();
        hosts
    }

    /// One placement tick. `candidates[cell]` must be bound-filtered by
    /// the *loosest* function bound, sorted nearest-first, and built on
    /// the masked routing path; each function's RTT bound is applied
    /// here as a prefix of that list ([`leo_net::frontier::within_rtt`]).
    /// `pool` carries this tick's capacity; `replicas` decides warm vs
    /// cold on migration.
    ///
    /// Cells and functions are visited in index order, so placement is a
    /// pure function of its inputs — thread counts never reorder it.
    pub fn tick(
        &mut self,
        candidates: &[&[VisibleSat]],
        functions: &[FunctionSpec],
        pool: &mut CapacityPool<'_>,
        replicas: &ReplicaSets,
    ) -> PlaceStats {
        assert_eq!(
            candidates.len(),
            self.hosts.len(),
            "one candidate list per cell"
        );
        let mut stats = PlaceStats::default();
        for (cell, (cell_hosts, cands)) in self.hosts.iter_mut().zip(candidates).enumerate() {
            for (func, spec) in functions.iter().enumerate() {
                let in_bound = within_rtt(cands, spec.max_rtt_ms);
                // 1. Stay warm on the incumbent when it is still in
                //    bound and still has room.
                if let Some(prev) = cell_hosts[func] {
                    if in_bound.iter().any(|c| c.id == prev) && pool.try_reserve(prev, spec.slots) {
                        stats.stays += 1;
                        continue;
                    }
                }
                // 2. Migrate: warm replica hosts first (nearest-first),
                //    then any in-bound candidate. A failed try_reserve
                //    holds nothing, so the fallback pass is safe.
                let next = in_bound
                    .iter()
                    .filter(|c| replicas.is_replica(cell as u32, c.id))
                    .find(|c| pool.try_reserve(c.id, spec.slots))
                    .or_else(|| {
                        in_bound
                            .iter()
                            .filter(|c| !replicas.is_replica(cell as u32, c.id))
                            .find(|c| pool.try_reserve(c.id, spec.slots))
                    });
                match next {
                    Some(c) => {
                        stats.migrations += 1;
                        leo_obs::counter!("edge.migrations").incr();
                        if replicas.is_replica(cell as u32, c.id) {
                            stats.warm_starts += 1;
                            stats.start_latency_ms += spec.warm_start_ms;
                        } else {
                            stats.cold_starts += 1;
                            leo_obs::counter!("edge.cold_starts").incr();
                            stats.start_latency_ms += spec.cold_start_ms;
                        }
                        cell_hosts[func] = Some(c.id);
                    }
                    None => {
                        stats.unserved += 1;
                        cell_hosts[func] = None;
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::QosSpec;
    use leo_constellation::presets;
    use leo_core::InOrbitService;
    use leo_geo::Geodetic;

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_550_only())
    }

    fn candidates(s: &InOrbitService, t: f64, max_rtt_ms: f64) -> Vec<VisibleSat> {
        let mut c = s.reachable_servers(Geodetic::ground(10.0, 10.0), t);
        c.retain(|v| v.rtt_ms() <= max_rtt_ms);
        c.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
        c
    }

    #[test]
    fn first_placement_cold_starts_on_the_nearest_host() {
        let s = service();
        let list = candidates(&s, 0.0, 16.0);
        let cands = [&list[..]];
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        let mut placement = FunctionPlacement::new(1, 1);
        let funcs = vec![FunctionSpec::interactive()];
        let stats = placement.tick(&cands, &funcs, &mut pool, &ReplicaSets::new(1));
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.cold_starts, 1);
        assert_eq!(stats.warm_starts, 0);
        assert_eq!(placement.host(0, 0), Some(cands[0][0].id));
        assert_eq!(stats.start_latency_ms, funcs[0].cold_start_ms);
    }

    #[test]
    fn second_tick_stays_warm_on_the_same_snapshot() {
        let s = service();
        let list = candidates(&s, 0.0, 16.0);
        let cands = [&list[..]];
        let funcs = vec![FunctionSpec::interactive()];
        let mut placement = FunctionPlacement::new(1, 1);
        let replicas = ReplicaSets::new(1);
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        placement.tick(&cands, &funcs, &mut pool, &replicas);
        let host = placement.host(0, 0);
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        let stats = placement.tick(&cands, &funcs, &mut pool, &replicas);
        assert_eq!(stats.stays, 1);
        assert_eq!(stats.migrations, 0);
        assert_eq!(placement.host(0, 0), host, "sticky host");
    }

    #[test]
    fn migration_to_a_replica_host_is_a_warm_start() {
        let s = service();
        let list = candidates(&s, 0.0, 16.0);
        let cands = [&list[..]];
        let funcs = vec![FunctionSpec::interactive()];
        // Prime the replica set with the nearest candidates, then force a
        // migration by starting with no incumbent.
        let mut replicas = ReplicaSets::new(1);
        replicas.maintain(&cands, &QosSpec::default());
        let mut placement = FunctionPlacement::new(1, 1);
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        let stats = placement.tick(&cands, &funcs, &mut pool, &replicas);
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.warm_starts, 1);
        assert_eq!(stats.cold_starts, 0);
        assert_eq!(stats.start_latency_ms, funcs[0].warm_start_ms);
    }

    #[test]
    fn exhausted_fleet_leaves_instances_unserved() {
        let s = service();
        let list = candidates(&s, 0.0, 16.0);
        let cands = [&list[..]];
        let n = cands[0].len();
        // One slot per server, and more single-slot functions than servers.
        let funcs: Vec<FunctionSpec> = (0..n + 3)
            .map(|i| FunctionSpec {
                name: format!("f{i}"),
                ..FunctionSpec::interactive()
            })
            .collect();
        let mut placement = FunctionPlacement::new(1, funcs.len());
        let mut pool = CapacityPool::new(&s, 0.0, 1);
        let stats = placement.tick(&cands, &funcs, &mut pool, &ReplicaSets::new(1));
        assert_eq!(stats.migrations as usize, n);
        assert_eq!(stats.unserved as usize, 3);
        assert_eq!(placement.busy_hosts().len(), n);
        assert_eq!(placement.host(0, n + 1), None);
    }

    #[test]
    fn tight_rtt_bound_restricts_hosts_even_within_candidates() {
        let s = service();
        // Candidate list cut at 16 ms, but the function demands 5 ms.
        let list = candidates(&s, 0.0, 16.0);
        let cands = [&list[..]];
        let tight = FunctionSpec {
            max_rtt_ms: 5.0,
            ..FunctionSpec::interactive()
        };
        let mut placement = FunctionPlacement::new(1, 1);
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        let stats = placement.tick(&cands, &[tight], &mut pool, &ReplicaSets::new(1));
        if let Some(host) = placement.host(0, 0) {
            let v = cands[0].iter().find(|c| c.id == host).unwrap();
            assert!(v.rtt_ms() <= 5.0, "host must meet the per-function bound");
            assert_eq!(stats.migrations, 1);
        } else {
            assert_eq!(stats.unserved, 1);
        }
    }
}
