//! The edge engine: scenario × replicas × placement over a snapshot
//! schedule, reported as fleet utilization.
//!
//! This is the experiment the workload layer exists for. The paper's
//! Figs 4–5 argue most of a mega-constellation idles over ocean and
//! desert while demand crowds the cities; the engine quantifies that
//! directly by splitting every tick's fleet into **busy** satellites
//! (hosting at least one function instance), **standby** satellites
//! (holding only warm state replicas), and **idle** satellites (the
//! rest), and integrating each class into satellite-seconds.
//!
//! Candidate lists come from the settled frontier
//! ([`leo_net::frontier`]): demand cells are grouped into latitude
//! bands once, and each tick runs one satellite-major pass per band —
//! bit-identical to the per-cell visibility scans it replaced, which
//! survive as a rotating one-cell-per-tick cross-check against the
//! serving layer's own nearest-server answer.
//!
//! Determinism: band passes are fanned with [`leo_sim::parallel_map`]
//! (order-preserving), and everything stateful — replica maintenance,
//! capacity reservation, placement, demand accounting — runs in a
//! sequential fold in cell order. Thread counts and observability
//! levels change wall-clock, never bytes.

use crate::placement::{FunctionPlacement, FunctionSpec};
use crate::replica::{QosSpec, ReplicaSets};
use crate::scenario::Scenario;
use leo_constellation::SatId;
use leo_core::capacity::CapacityPool;
use leo_core::InOrbitService;
use leo_net::frontier::within_rtt;
use leo_net::visibility::VisibleSat;
use serde::{Deserialize, Serialize};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Latitude band height for grouping demand cells into frontier ground
/// sets — the serving layer's sharding default. Purely a work knob:
/// banding never changes candidate lists, only pass shapes.
const CELL_BAND_DEG: f64 = 4.0;

fn fnv_fold(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeConfig {
    /// Tenant slots per satellite-server ([`leo_core::capacity`]).
    pub slots_per_server: u32,
    /// Replica coverage requirements.
    pub qos: QosSpec,
    /// Worker threads for the per-tick candidate fan-out. Never changes
    /// results, only wall-clock.
    pub threads: usize,
}

/// One tick of fleet state, fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickStats {
    /// Tick time, seconds after the epoch.
    pub time_s: f64,
    /// Satellites hosting at least one function instance.
    pub busy_sats: u64,
    /// Satellites holding only warm replicas (no instances).
    pub standby_sats: u64,
    /// Slots in use across the fleet.
    pub busy_slots: u64,
    /// Invocations demanded this tick.
    pub demand: u64,
    /// Invocations served (hosted function classes' share of demand).
    pub served: u64,
    /// Host migrations this tick.
    pub migrations: u64,
    /// Cold starts this tick.
    pub cold_starts: u64,
    /// Warm starts on replica hosts this tick.
    pub warm_starts: u64,
    /// Start latency paid this tick, ms.
    pub start_latency_ms: f64,
    /// Replica repairs this tick (0 on the initial-fill tick).
    pub replica_repairs: u64,
    /// Cells whose replica coverage is infeasible this tick.
    pub replica_shortfall_cells: u64,
    /// FNV-1a fingerprint of the full `(cell, function, host)` table —
    /// the byte-level identity the invariance tests compare.
    pub placement_checksum: u64,
}

/// The full run: per-tick stats plus the utilization headline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeReport {
    /// Fleet size.
    pub num_sats: u64,
    /// Tick length, seconds.
    pub tick_s: f64,
    /// Per-tick fleet state.
    pub ticks: Vec<TickStats>,
    /// Satellite-seconds spent hosting function instances.
    pub busy_sat_seconds: f64,
    /// Satellite-seconds spent holding only replicas.
    pub standby_sat_seconds: f64,
    /// Satellite-seconds spent doing neither — the paper's idle fleet.
    pub idle_sat_seconds: f64,
    /// `busy / (busy + standby + idle)`.
    pub utilization: f64,
    /// Total invocations demanded.
    pub total_demand: u64,
    /// Total invocations served.
    pub total_served: u64,
    /// `served / demand` (1.0 for an empty scenario).
    pub service_ratio: f64,
    /// Total migrations across the run.
    pub total_migrations: u64,
    /// Total cold starts across the run.
    pub total_cold_starts: u64,
    /// Total replica repairs across the run.
    pub total_replica_repairs: u64,
    /// FNV-1a fold of every tick's placement checksum.
    pub run_checksum: u64,
}

/// The edge workload engine.
pub struct EdgeEngine<'a> {
    service: &'a InOrbitService,
    scenario: &'a Scenario,
    functions: Vec<FunctionSpec>,
    config: EdgeConfig,
}

impl<'a> EdgeEngine<'a> {
    /// Builds an engine. Each function class is deployed at every
    /// demand cell.
    ///
    /// # Panics
    /// Panics when `functions` is empty or `threads` is zero.
    pub fn new(
        service: &'a InOrbitService,
        scenario: &'a Scenario,
        functions: Vec<FunctionSpec>,
        config: EdgeConfig,
    ) -> Self {
        assert!(!functions.is_empty(), "deploy at least one function class");
        assert!(config.threads > 0, "at least one worker thread");
        EdgeEngine {
            service,
            scenario,
            functions,
            config,
        }
    }

    /// The loosest RTT bound any consumer of the candidate lists needs.
    fn candidate_bound_ms(&self) -> f64 {
        self.functions
            .iter()
            .map(|f| f.max_rtt_ms)
            .fold(self.config.qos.latency_bound_ms, f64::max)
    }

    /// Runs the scenario tick by tick. The run records into the
    /// `edge.run_s` span, and each tick's parts into child spans:
    /// `edge.view_s`, `edge.bands_s` (band fan-out), `edge.filter_s`
    /// (head cross-check and bound prefixes), `edge.placement_s`,
    /// `edge.replicas_s` and `edge.fold_s` (demand and checksum fold,
    /// with its gauges).
    pub fn run(&self) -> EdgeReport {
        let _span = leo_obs::span!("edge.run_s");
        let endpoints = self.scenario.endpoints();
        let num_funcs = self.functions.len();
        let mut replicas = ReplicaSets::new(endpoints.len());
        let mut placement = FunctionPlacement::new(endpoints.len(), num_funcs);
        let bound_ms = self.candidate_bound_ms();
        // Band the demand cells once: each tick then answers every
        // cell's candidate list with one settled satellite-major pass
        // per band instead of one visibility scan per cell. Each cell
        // belongs to exactly one band, at one slot of its lists.
        let cells: Vec<_> = endpoints.iter().map(|e| e.ecef).collect();
        let banded = leo_net::BandedGroundSets::build(&cells, CELL_BAND_DEG);
        let mut slot_of = vec![(0, 0); endpoints.len()];
        for (b, band) in banded.bands().iter().enumerate() {
            for (slot, &cell) in band.points().iter().enumerate() {
                slot_of[cell as usize] = (b, slot);
            }
        }
        let mut ticks: Vec<TickStats> = Vec::new();
        for (tick_i, t) in self.scenario.ticks().into_iter().enumerate() {
            let view = leo_obs::histogram!("edge.view_s").time(|| self.service.view(t));
            // Parallel fan-out over latitude bands: per-cell
            // visible-server lists, sorted nearest-first with id
            // tie-breaks. Order-preserving, so thread count never
            // reorders the fold below.
            let per_band = leo_obs::histogram!("edge.bands_s").time(|| {
                let band_ids: Vec<usize> = (0..banded.num_bands()).collect();
                leo_sim::parallel_map(band_ids, self.config.threads, |&b| {
                    view.frontier_visible_lists(&banded.bands()[b])
                })
            });
            let (qos_cands, place_cands) = leo_obs::histogram!("edge.filter_s").time(|| {
                let all: Vec<&[VisibleSat]> = slot_of
                    .iter()
                    .map(|&(b, slot)| per_band[b].get(slot))
                    .collect();
                // One rotating cell per tick re-runs the demoted per-cell
                // scan through the service's own nearest-server answer —
                // the cross-check tying this crate to the serving layer
                // without re-scanning the whole fleet's visibility.
                if !endpoints.is_empty() {
                    let probe = tick_i % endpoints.len();
                    let near = self.service.nearest_server_view(&view, &endpoints[probe]);
                    assert_eq!(
                        all[probe].first().map(|c| (c.id, c.range_m.to_bits())),
                        near.map(|v| (v.id, v.range_m.to_bits())),
                        "candidate head disagrees with nearest_server_view (cell {probe})"
                    );
                }
                let prefixes = |bound_ms: f64| -> Vec<&[VisibleSat]> {
                    all.iter().map(|&list| within_rtt(list, bound_ms)).collect()
                };
                (
                    prefixes(self.config.qos.latency_bound_ms),
                    prefixes(bound_ms),
                )
            });

            // Sequential fold, deterministic in cell order. Placement
            // sees *last* tick's replica sets — a migration is warm only
            // when the state was replicated before the host moved, so
            // same-tick repairs can't retroactively pre-warm it.
            let (pool, place_stats) = leo_obs::histogram!("edge.placement_s").time(|| {
                let mut pool = CapacityPool::new(self.service, t, self.config.slots_per_server);
                let stats = placement.tick(&place_cands, &self.functions, &mut pool, &replicas);
                (pool, stats)
            });
            let (_, repair_stats) = leo_obs::histogram!("edge.replicas_s")
                .time(|| replicas.maintain(&qos_cands, &self.config.qos));

            let _fold = leo_obs::span!("edge.fold_s");
            let mut demand = 0u64;
            let mut served = 0u64;
            let mut checksum = FNV_OFFSET;
            for cell in 0..endpoints.len() as u32 {
                let cell_demand = self.scenario.demand_at(cell, t);
                demand += cell_demand;
                let hosted = (0..num_funcs)
                    .filter(|&f| placement.host(cell, f).is_some())
                    .count() as u64;
                // Each function class carries an equal share of the
                // cell's demand; integer division is deterministic.
                served += cell_demand * hosted / num_funcs as u64;
                for f in 0..num_funcs {
                    let h = placement
                        .host(cell, f)
                        .map(|id| u64::from(id.0) + 1)
                        .unwrap_or(0);
                    checksum = fnv_fold(checksum, u64::from(cell));
                    checksum = fnv_fold(checksum, f as u64);
                    checksum = fnv_fold(checksum, h);
                }
            }

            let busy = placement.busy_hosts();
            let standby = count_absent(&replicas.hosts(), &busy);
            leo_obs::counter!("edge.ticks").incr();
            // Per-tick gauges, sampled in this sequential cell-order
            // fold so point order is thread-count-invariant. A binary
            // running several sweeps (fig_edge: sweep, empty-plan check,
            // outage sweep) concatenates its passes into one series.
            leo_obs::timeseries!("edge.busy_sats").sample(t, busy.len() as f64);
            leo_obs::timeseries!("edge.standby_sats").sample(t, standby as f64);
            leo_obs::timeseries!("edge.demand").sample(t, demand as f64);
            leo_obs::timeseries!("edge.served").sample(t, served as f64);
            leo_obs::timeseries!("edge.cold_starts").sample(t, place_stats.cold_starts as f64);
            leo_obs::timeseries!("edge.replica_repairs").sample(t, repair_stats.repairs as f64);
            leo_obs::trace_instant("edge.tick");
            ticks.push(TickStats {
                time_s: t,
                busy_sats: busy.len() as u64,
                standby_sats: standby,
                busy_slots: pool.used_slots(),
                demand,
                served,
                migrations: place_stats.migrations,
                cold_starts: place_stats.cold_starts,
                warm_starts: place_stats.warm_starts,
                start_latency_ms: place_stats.start_latency_ms,
                replica_repairs: repair_stats.repairs,
                replica_shortfall_cells: repair_stats.shortfall_cells,
                placement_checksum: checksum,
            });
        }
        self.report(ticks)
    }

    fn report(&self, ticks: Vec<TickStats>) -> EdgeReport {
        let num_sats = self.service.num_servers() as u64;
        let tick_s = self.scenario.config().tick_s;
        let mut busy_s = 0.0;
        let mut standby_s = 0.0;
        let mut idle_s = 0.0;
        let mut demand = 0u64;
        let mut served = 0u64;
        let mut migrations = 0u64;
        let mut cold = 0u64;
        let mut repairs = 0u64;
        let mut run_checksum = FNV_OFFSET;
        for t in &ticks {
            busy_s += t.busy_sats as f64 * tick_s;
            standby_s += t.standby_sats as f64 * tick_s;
            idle_s += (num_sats - t.busy_sats - t.standby_sats) as f64 * tick_s;
            demand += t.demand;
            served += t.served;
            migrations += t.migrations;
            cold += t.cold_starts;
            repairs += t.replica_repairs;
            run_checksum = fnv_fold(run_checksum, t.placement_checksum);
        }
        let total = busy_s + standby_s + idle_s;
        EdgeReport {
            num_sats,
            tick_s,
            ticks,
            busy_sat_seconds: busy_s,
            standby_sat_seconds: standby_s,
            idle_sat_seconds: idle_s,
            utilization: if total > 0.0 { busy_s / total } else { 0.0 },
            total_demand: demand,
            total_served: served,
            service_ratio: if demand > 0 {
                served as f64 / demand as f64
            } else {
                1.0
            },
            total_migrations: migrations,
            total_cold_starts: cold,
            total_replica_repairs: repairs,
            run_checksum,
        }
    }
}

/// How many entries of `hosts` are absent from `busy`, both ascending
/// and deduplicated: one merge pass.
fn count_absent(hosts: &[SatId], busy: &[SatId]) -> u64 {
    let mut busy = busy.iter().peekable();
    hosts
        .iter()
        .filter(|&h| {
            while busy.next_if(|&b| b < h).is_some() {}
            busy.peek() != Some(&h)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use leo_constellation::{Constellation, ShellSpec, WalkerPattern};
    use leo_geo::Angle;

    fn small_constellation() -> Constellation {
        Constellation::from_shells(
            "edge-test",
            vec![ShellSpec {
                name: "shell".into(),
                altitude_m: 550e3,
                inclination: Angle::from_degrees(53.0),
                num_planes: 10,
                sats_per_plane: 10,
                phase_factor: 1,
                pattern: WalkerPattern::Delta,
                min_elevation: Angle::from_degrees(25.0),
            }],
        )
    }

    fn small_scenario() -> Scenario {
        Scenario::generate(ScenarioConfig {
            num_cells: 8,
            duration_s: 600.0,
            tick_s: 120.0,
            ..ScenarioConfig::default()
        })
    }

    fn config() -> EdgeConfig {
        EdgeConfig {
            slots_per_server: 4,
            qos: QosSpec {
                replicas: 2,
                latency_bound_ms: 16.0,
            },
            threads: 1,
        }
    }

    fn funcs() -> Vec<FunctionSpec> {
        vec![FunctionSpec {
            max_rtt_ms: 16.0,
            ..FunctionSpec::interactive()
        }]
    }

    #[test]
    fn run_is_deterministic() {
        let service = InOrbitService::new(small_constellation());
        let scenario = small_scenario();
        let a = EdgeEngine::new(&service, &scenario, funcs(), config()).run();
        let b = EdgeEngine::new(&service, &scenario, funcs(), config()).run();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let service = InOrbitService::new(small_constellation());
        let scenario = small_scenario();
        let one = EdgeEngine::new(&service, &scenario, funcs(), config()).run();
        let four = EdgeEngine::new(
            &service,
            &scenario,
            funcs(),
            EdgeConfig {
                threads: 4,
                ..config()
            },
        )
        .run();
        assert_eq!(one, four);
    }

    #[test]
    fn fleet_accounting_partitions_the_constellation() {
        let service = InOrbitService::new(small_constellation());
        let scenario = small_scenario();
        let report = EdgeEngine::new(&service, &scenario, funcs(), config()).run();
        assert_eq!(report.num_sats, 100);
        for t in &report.ticks {
            assert!(t.busy_sats + t.standby_sats <= report.num_sats);
            assert!(t.served <= t.demand);
        }
        let total = report.busy_sat_seconds + report.standby_sat_seconds + report.idle_sat_seconds;
        let expect = report.num_sats as f64 * report.tick_s * report.ticks.len() as f64;
        assert!((total - expect).abs() < 1e-6);
        assert!(report.utilization > 0.0 && report.utilization < 1.0);
        assert!(
            report.idle_sat_seconds > 0.0,
            "a 100-sat fleet over 8 cells idles"
        );
    }

    #[test]
    fn standby_count_merges_the_sorted_host_lists() {
        let ids = |v: &[u32]| v.iter().map(|&i| SatId(i)).collect::<Vec<_>>();
        assert_eq!(count_absent(&[], &ids(&[1, 2])), 0);
        assert_eq!(count_absent(&ids(&[1, 2]), &[]), 2);
        assert_eq!(
            count_absent(&ids(&[1, 3, 5, 9]), &ids(&[0, 3, 4, 9, 12])),
            2
        );
        assert_eq!(count_absent(&ids(&[2, 4]), &ids(&[1, 2, 3, 4])), 0);
    }

    #[test]
    fn first_tick_is_all_cold_then_the_fleet_warms_up() {
        let service = InOrbitService::new(small_constellation());
        let scenario = small_scenario();
        let report = EdgeEngine::new(&service, &scenario, funcs(), config()).run();
        let first = &report.ticks[0];
        assert_eq!(first.replica_repairs, 0, "first pass is initial fill");
        assert_eq!(
            first.migrations, first.cold_starts,
            "no replicas exist before the first tick, so every first placement is cold"
        );
        assert_eq!(first.warm_starts, 0);
        let later_stays: u64 = report.ticks[1..].iter().map(|t| t.migrations).sum();
        assert!(
            later_stays < first.migrations * report.ticks.len() as u64,
            "sticky placement must beat re-placing everything every tick"
        );
    }
}
