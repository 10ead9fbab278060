//! The five workloads. Each generates its inputs from the seed in
//! `setup`, and its timed call reaches the layers only through their
//! public APIs. Sizes are set so one batch takes about half a second on
//! two threads, so a run holds tens of batches.

use crate::layers::{probe_dijkstra, probe_views, ratio, DijkstraProbe, Layers, Obs};
use crate::trace::{Recorder, SpanId};
use leo_constellation::{presets, SatId};
use leo_core::replication::{
    migrate_via_packets, predict_servers, MigrationNetConfig, MigrationOutcome,
};
use leo_core::selection::sticky_select;
use leo_core::session::run_session;
use leo_core::{FailureModel, GroupDelays, InOrbitService, Policy, SessionConfig, SessionResult};
use leo_edge::{
    EdgeConfig, EdgeEngine, EdgeReport, FunctionSpec, QosSpec, Scenario, ScenarioConfig,
};
use leo_geo::Geodetic;
use leo_net::engine::with_thread_arena;
use leo_net::routing::{self, GroundEndpoint};
use leo_net::weather::{LinkBudget, RainClimate};
use leo_net::{BandedGroundSets, FaultConfig, RainFade};
use leo_serve::{synthesize_users, ServeConfig, ServeEngine, SweepReport};
use leo_sim::parallel_map;
use serde::Serialize;
use std::collections::HashSet;
use std::hint::black_box;

/// What one batch did, for the end-to-end numbers.
pub struct Tally {
    /// Operations attempted: queries, session ticks, edge ticks or
    /// transfers.
    pub ops: u64,
    /// Operations that produced no result (a transfer that never
    /// completed). Unserved answers are results, counted in
    /// `unserved_frac`.
    pub failed: u64,
    /// Units of work for `work_per_s`: `ops`, or simulated transfer
    /// seconds on `migration`.
    pub work: f64,
    /// Share of `ops` answered with "no service".
    pub unserved_frac: f64,
}

pub trait Workload: Sized {
    /// Per-batch state built outside the timed region, so every batch
    /// starts from the same (cold) caches.
    type Fresh;
    type Output: Serialize;

    /// Generates the inputs from `seed` and builds what the timed call
    /// needs. Set-up layers record their spans under `parent`.
    fn setup(
        seed: u64,
        threads: usize,
        rec: &Recorder,
        parent: Option<SpanId>,
    ) -> Result<Self, String>;

    fn fresh(&self, threads: usize) -> Self::Fresh;

    /// The timed call.
    fn run(
        &self,
        fresh: &Self::Fresh,
        threads: usize,
        rec: &Recorder,
        parent: Option<SpanId>,
    ) -> Self::Output;

    fn tally(&self, out: &Self::Output) -> Tally;

    /// Workload-specific output checks, beyond the fingerprint.
    fn check(&self, out: &Self::Output) -> Result<(), String>;

    /// Runs the probes after a traced batch and fills `layers`. Returns
    /// the names of the metrics that are disjoint direct parts of the
    /// timed call; what they leave of its wall time is unattributed.
    fn layers(
        &self,
        fresh: &Self::Fresh,
        out: &Self::Output,
        obs: &Obs,
        rec: &Recorder,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Vec<&'static str>;
}

/// Up to `n` instants spread evenly over `times`.
fn spread_sample(times: &[f64], n: usize) -> Vec<f64> {
    let step = times.len().div_ceil(n.max(1)).max(1);
    times.iter().step_by(step).copied().collect()
}

fn compile(rec: &Recorder, parent: Option<SpanId>, faults: Option<FaultConfig>) -> InOrbitService {
    rec.span(parent, "engine.compile", |_| match faults {
        Some(f) => InOrbitService::with_faults(presets::starlink_550_only(), f),
        None => InOrbitService::new(presets::starlink_550_only()),
    })
}

// ------------------------------------------------------------------ serve

const SERVE_USERS: usize = 1_200_000;
const SERVE_SNAPSHOTS: usize = 2;
const SERVE_STEP_S: f64 = 60.0;
const SERVE_VALIDATE_EVERY: usize = 4;

/// 1.2 M population-weighted users answered by the settled frontier at
/// one-minute snapshots. Every satellite moves between snapshots, so
/// each snapshot is a cold settle. The engine and its cached views are
/// kept across batches (the views are a few milliseconds of a
/// half-second sweep), so the batches repeat the same work exactly.
pub struct Serve {
    seed: u64,
    threads: usize,
    engine: ServeEngine,
    times: Vec<f64>,
}

fn serve_engine(seed: u64, threads: usize, rec: &Recorder, parent: Option<SpanId>) -> ServeEngine {
    let users = synthesize_users(SERVE_USERS, 2.0, seed);
    let service = compile(rec, parent, None);
    let config = ServeConfig {
        band_deg: 4.0,
        max_shard: 65_536,
        threads,
        validate_every: SERVE_VALIDATE_EVERY,
    };
    rec.span(parent, "serve.shard", |_| {
        ServeEngine::new(service, users, config)
    })
}

impl Workload for Serve {
    /// A second engine when a batch runs at another thread count (the
    /// traced single-thread batch).
    type Fresh = Option<ServeEngine>;
    type Output = SweepReport;

    fn setup(
        seed: u64,
        threads: usize,
        rec: &Recorder,
        parent: Option<SpanId>,
    ) -> Result<Self, String> {
        Ok(Serve {
            seed,
            threads,
            engine: serve_engine(seed, threads, rec, parent),
            times: (0..SERVE_SNAPSHOTS)
                .map(|i| i as f64 * SERVE_STEP_S)
                .collect(),
        })
    }

    fn fresh(&self, threads: usize) -> Option<ServeEngine> {
        (threads != self.threads).then(|| serve_engine(self.seed, threads, &Recorder::off(), None))
    }

    fn run(
        &self,
        fresh: &Option<ServeEngine>,
        _: usize,
        _: &Recorder,
        _: Option<SpanId>,
    ) -> SweepReport {
        fresh.as_ref().unwrap_or(&self.engine).sweep(&self.times)
    }

    fn tally(&self, out: &SweepReport) -> Tally {
        let unserved: u64 = out.snapshots.iter().map(|s| s.unserved).sum();
        Tally {
            ops: out.total_queries,
            failed: 0,
            work: out.total_queries as f64,
            unserved_frac: ratio(unserved as f64, out.total_queries as f64),
        }
    }

    fn check(&self, out: &SweepReport) -> Result<(), String> {
        let users = SERVE_USERS as u64;
        if out.snapshots.len() != SERVE_SNAPSHOTS
            || out.total_queries != users * SERVE_SNAPSHOTS as u64
        {
            return Err(format!(
                "serve answered {} queries over {} snapshots",
                out.total_queries,
                out.snapshots.len()
            ));
        }
        if let Some(s) = out
            .snapshots
            .iter()
            .find(|s| s.served + s.unserved != users)
        {
            return Err(format!("serve lost users at t={}", s.time_s));
        }
        if out.delta_full_rebuilds != 1 {
            return Err(format!(
                "{} full weight rebuilds, expected only the cold first",
                out.delta_full_rebuilds
            ));
        }
        Ok(())
    }

    fn layers(
        &self,
        fresh: &Option<ServeEngine>,
        _: &SweepReport,
        obs: &Obs,
        rec: &Recorder,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Vec<&'static str> {
        let engine = fresh.as_ref().unwrap_or(&self.engine);
        let service = engine.service();
        let misses = obs.counter("service.snapshot_misses");
        let at = self.times.iter().map(|&t| (service, t));
        probe_views(rec, parent, at, misses, layers);
        // The sampled validation, re-executed through the same public
        // calls the sweep makes: per-user scans of one shard, then the
        // multi-source arg-min frontier over the view's weights.
        let routing = service.routing_engine();
        let sources: Vec<SatId> = (0..routing.num_sats() as u32).map(SatId).collect();
        for (step, &t) in self.times.iter().enumerate().step_by(SERVE_VALIDATE_EVERY) {
            let users = engine.users().shard(step % engine.users().num_shards());
            let view = service.view(t);
            rec.span(parent, "probe.serve.validate", |p| {
                black_box(service.nearest_servers_view(&view, users));
                let links = view.attach(users);
                let (mut delays, mut winners) = (Vec::new(), Vec::new());
                rec.span(p, "probe.engine.dijkstra", |_| {
                    with_thread_arena(|arena| {
                        routing.multi_source_ground_frontier_into(
                            view.isl_weights(),
                            &links,
                            &sources,
                            &mut delays,
                            &mut winners,
                            arena,
                        )
                    })
                });
                black_box((delays, winners));
            });
        }
        layers.set("serve.validate_s", rec.total("probe.serve.validate").0);
        // The sweep's only Dijkstra queries are the validation's.
        layers.set("engine.dijkstra_s", rec.total("probe.engine.dijkstra").0);
        vec![
            "service.view_cold_s",
            "engine.refresh_delta_s",
            "frontier.settle_s",
            "serve.validate_s",
        ]
    }
}

// --------------------------------------------------------------- sessions

const FAILURE_RATES: [f64; 4] = [0.0, 500.0, 2000.0, 8000.0];
const CLIMATES: [Option<RainClimate>; 4] = [
    None,
    Some(RainClimate::ARID),
    Some(RainClimate::TEMPERATE),
    Some(RainClimate::TROPICAL),
];
/// Rain rate exceeded 1 % of the year, as in `fig6_faults`.
const RAIN_EXCEEDANCE: f64 = 0.01;
const SESSION_S: f64 = 450.0;
const SESSION_TICK_S: f64 = 5.0;

/// The West-Africa and South-East-Asia trios of Fig 6.
fn trios() -> Vec<Vec<GroundEndpoint>> {
    let mk = |pts: &[(f64, f64)]| -> Vec<GroundEndpoint> {
        pts.iter()
            .enumerate()
            .map(|(i, &(lat, lon))| GroundEndpoint::new(i as u32, Geodetic::ground(lat, lon)))
            .collect()
    };
    vec![
        mk(&[(9.06, 7.49), (3.87, 11.52), (6.52, 3.38)]),
        mk(&[(1.35, 103.82), (3.139, 101.69), (-6.21, 106.85)]),
    ]
}

/// The `fig6_faults` grid: 4 seeded failure rates × 4 rain climates =
/// 16 fault-carrying services, MinMax and Sticky on both trios, at 5 s
/// ticks. Every tick builds a cold view per service and selects by
/// direct visibility, on the masked paths; fresh service copies give
/// every batch cold caches.
pub struct Sessions {
    services: Vec<InOrbitService>,
    groups: Vec<Vec<GroundEndpoint>>,
    combos: Vec<(usize, Policy, usize)>,
    config: SessionConfig,
}

fn ticks_per_session() -> u64 {
    (SESSION_S / SESSION_TICK_S).round() as u64 + 1
}

impl Workload for Sessions {
    type Fresh = Vec<InOrbitService>;
    type Output = Vec<SessionResult>;

    fn setup(seed: u64, _: usize, rec: &Recorder, parent: Option<SpanId>) -> Result<Self, String> {
        let num_sats = presets::starlink_550_only().num_satellites();
        let mut services = Vec::new();
        for rate in FAILURE_RATES {
            for climate in &CLIMATES {
                let faults = FaultConfig {
                    schedule: Some(
                        FailureModel {
                            annual_failure_rate: rate,
                            seed,
                        }
                        .schedule(num_sats),
                    ),
                    rain: climate
                        .as_ref()
                        .map(|c| RainFade::at_exceedance(LinkBudget::CONSUMER, c, RAIN_EXCEEDANCE)),
                    ..FaultConfig::none()
                };
                services.push(compile(rec, parent, Some(faults)));
            }
        }
        let policies = [Policy::MinMax, Policy::sticky_default()];
        let combos = (0..services.len())
            .flat_map(|s| {
                policies
                    .iter()
                    .flat_map(move |&p| (0..2).map(move |g| (s, p, g)))
            })
            .collect();
        Ok(Sessions {
            services,
            groups: trios(),
            combos,
            config: SessionConfig {
                start_s: 0.0,
                duration_s: SESSION_S,
                tick_s: SESSION_TICK_S,
            },
        })
    }

    fn fresh(&self, _: usize) -> Vec<InOrbitService> {
        self.services.clone()
    }

    fn run(
        &self,
        fresh: &Vec<InOrbitService>,
        threads: usize,
        _: &Recorder,
        _: Option<SpanId>,
    ) -> Vec<SessionResult> {
        parallel_map(self.combos.clone(), threads, |&(s, policy, g)| {
            run_session(&fresh[s], &self.groups[g], policy, &self.config)
        })
    }

    fn tally(&self, out: &Vec<SessionResult>) -> Tally {
        let ops = out.len() as u64 * ticks_per_session();
        let served: u64 = out.iter().map(|r| r.rtt_samples.len() as u64).sum();
        Tally {
            ops,
            failed: 0,
            work: ops as f64,
            unserved_frac: ratio((ops - served) as f64, ops as f64),
        }
    }

    fn check(&self, out: &Vec<SessionResult>) -> Result<(), String> {
        if out.len() != self.combos.len() {
            return Err(format!(
                "{} sessions ran, {} expected",
                out.len(),
                self.combos.len()
            ));
        }
        for r in out {
            if r.rtt_samples.len() as u64 > ticks_per_session() {
                return Err("a session served more ticks than it has".into());
            }
            if r.events.windows(2).any(|w| w[1].time_s <= w[0].time_s) {
                return Err("hand-off events out of time order".into());
            }
        }
        Ok(())
    }

    fn layers(
        &self,
        fresh: &Vec<InOrbitService>,
        out: &Vec<SessionResult>,
        obs: &Obs,
        rec: &Recorder,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Vec<&'static str> {
        let ticks: Vec<f64> = (0..ticks_per_session())
            .map(|i| self.config.start_s + i as f64 * self.config.tick_s)
            .collect();
        // Eight probe instants per service, so masked and plain views
        // are priced in the mix the timed call built them.
        let at =
            (0..8 * fresh.len()).map(|k| (&fresh[k % fresh.len()], ticks[k * 7 % ticks.len()]));
        probe_views(
            rec,
            parent,
            at,
            obs.counter("service.snapshot_misses"),
            layers,
        );

        // Selection on warm views: one untimed call fills the cache.
        for (k, &(s, policy, g)) in self.combos.iter().enumerate() {
            let (service, users) = (&fresh[s], &self.groups[g][..]);
            let t = ticks[k * 7 % ticks.len()];
            GroupDelays::direct(service, users, t);
            rec.span(parent, "probe.selection.direct", |_| {
                black_box(GroupDelays::direct(service, users, t))
            });
            if let Policy::Sticky(params) = policy {
                sticky_select(service, users, t, &params);
                rec.span(parent, "probe.selection.sticky", |_| {
                    black_box(sticky_select(service, users, t, &params))
                });
            }
        }
        let sticky_calls = out
            .iter()
            .filter(|r| matches!(r.policy, Policy::Sticky(_)))
            .map(|r| r.events.len())
            .sum::<usize>();
        let total_ticks = self.tally(out).ops as f64;
        layers.set(
            "selection.direct_s",
            rec.mean("probe.selection.direct") * total_ticks,
        );
        layers.set(
            "selection.sticky_s",
            rec.mean("probe.selection.sticky") * sticky_calls as f64,
        );

        // Dijkstra at the hand-offs the sessions actually made.
        let mut probes = Vec::new();
        for (&(s, _, g), r) in self.combos.iter().zip(out) {
            if s != 0 {
                continue;
            }
            for e in r.events.iter().filter(|e| e.from.is_some()) {
                probes.push(DijkstraProbe {
                    t: e.time_s,
                    from: e.from.expect("filtered to hand-offs"),
                    to: e.to,
                    via: Some(&self.groups[g][..]),
                });
            }
        }
        probe_dijkstra(rec, parent, &fresh[0], &probes, layers);
        vec![
            "service.view_cold_s",
            "selection.direct_s",
            "selection.sticky_s",
            "engine.dijkstra_s",
        ]
    }
}

// ------------------------------------------------------------------- edge

const EDGE_CELLS: usize = 2000;
const EDGE_TICK_S: f64 = 60.0;
const EDGE_DURATION_S: f64 = 2.0 * 3600.0;
/// The fleet's latitude band height for its candidate-list passes.
const EDGE_BAND_DEG: f64 = 4.0;

/// Two hours of seeded diurnal and flash-crowd demand on 2000 cells at
/// one-minute ticks: full frontier candidate lists plus placement writes
/// (reservations, migrations, replica repairs). The cells span every
/// longitude, so every local hour of the diurnal curve is live at every
/// tick. A fresh service copy per batch makes every tick's view cold.
pub struct Edge {
    service: InOrbitService,
    scenario: Scenario,
}

fn edge_functions() -> Vec<FunctionSpec> {
    vec![FunctionSpec::interactive(), FunctionSpec::analytics()]
}

impl Workload for Edge {
    type Fresh = InOrbitService;
    type Output = EdgeReport;

    fn setup(seed: u64, _: usize, rec: &Recorder, parent: Option<SpanId>) -> Result<Self, String> {
        let scenario = rec.span(parent, "edge.generate", |_| {
            Scenario::generate(ScenarioConfig {
                num_cells: EDGE_CELLS,
                duration_s: EDGE_DURATION_S,
                tick_s: EDGE_TICK_S,
                seed,
                ..ScenarioConfig::default()
            })
        });
        Ok(Edge {
            service: compile(rec, parent, None),
            scenario,
        })
    }

    fn fresh(&self, _: usize) -> InOrbitService {
        self.service.clone()
    }

    fn run(
        &self,
        fresh: &InOrbitService,
        threads: usize,
        _: &Recorder,
        _: Option<SpanId>,
    ) -> EdgeReport {
        let config = EdgeConfig {
            slots_per_server: 8,
            qos: QosSpec::default(),
            threads,
        };
        EdgeEngine::new(fresh, &self.scenario, edge_functions(), config).run()
    }

    fn tally(&self, out: &EdgeReport) -> Tally {
        let ops = out.ticks.len() as u64;
        Tally {
            ops,
            failed: 0,
            work: ops as f64,
            unserved_frac: 1.0 - out.service_ratio,
        }
    }

    fn check(&self, out: &EdgeReport) -> Result<(), String> {
        if out.ticks.len() != self.scenario.ticks().len() {
            return Err(format!(
                "edge ran {} of {} ticks",
                out.ticks.len(),
                self.scenario.ticks().len()
            ));
        }
        if out.total_served > out.total_demand {
            return Err("edge served more than was demanded".into());
        }
        Ok(())
    }

    fn layers(
        &self,
        fresh: &InOrbitService,
        _: &EdgeReport,
        obs: &Obs,
        rec: &Recorder,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Vec<&'static str> {
        let ticks = spread_sample(&self.scenario.ticks(), 16);
        let at = ticks.iter().map(|&t| (fresh, t));
        probe_views(
            rec,
            parent,
            at,
            obs.counter("service.snapshot_misses"),
            layers,
        );
        // The run bands the cells once.
        let cells: Vec<_> = self.scenario.endpoints().iter().map(|e| e.ecef).collect();
        rec.span(parent, "probe.frontier.groundset_build", |_| {
            black_box(BandedGroundSets::build(&cells, EDGE_BAND_DEG))
        });
        layers.set(
            "frontier.groundset_build_s",
            rec.total("probe.frontier.groundset_build").0,
        );
        vec![
            "service.view_cold_s",
            "frontier.lists_s",
            "frontier.groundset_build_s",
        ]
    }
}

// ------------------------------------------------------- handoffs, migration

/// A transfer, with its outcome, as the fingerprinted output records it.
#[derive(Debug, Clone, Serialize)]
pub struct Transfer {
    from: SatId,
    to: SatId,
    at_s: f64,
    size_bytes: f64,
    cross_load: f64,
    isl_rate_bps: f64,
    outcome: Option<MigrationOutcome>,
}

impl Transfer {
    fn config(&self) -> MigrationNetConfig {
        MigrationNetConfig {
            isl_rate_bps: self.isl_rate_bps,
            cross_load_frac: self.cross_load,
            ..MigrationNetConfig::default()
        }
    }

    fn outcome(&self) -> &MigrationOutcome {
        self.outcome.as_ref().expect("a run fills every outcome")
    }
}

/// The timed call of both transfer workloads: every transfer through the
/// packet engine, fanned across the pool, one span per transfer.
fn migrate_all(
    service: &InOrbitService,
    plan: &[Transfer],
    threads: usize,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Vec<Transfer> {
    let outcomes = parallel_map(plan.to_vec(), threads, |t| {
        rec.span(parent, "replication.migrate", |_| {
            migrate_via_packets(service, t.from, t.to, t.at_s, t.size_bytes, &t.config())
        })
    });
    plan.iter()
        .zip(outcomes)
        .map(|(t, o)| Transfer {
            outcome: Some(o),
            ..t.clone()
        })
        .collect()
}

fn transfer_tally(out: &[Transfer], work: f64) -> Tally {
    let failed = out
        .iter()
        .filter(|t| t.outcome().duration_s.is_none())
        .count() as u64;
    Tally {
        ops: out.len() as u64,
        failed,
        work,
        unserved_frac: ratio(failed as f64, out.len() as f64),
    }
}

/// The layers under `migrate_via_packets`: cold views, the legacy graph
/// rebuild and route re-executed at every segment instant of every
/// transfer, and the packet engine as what the transfer spans leave.
fn transfer_layers(
    service: &InOrbitService,
    out: &[Transfer],
    obs: &Obs,
    rec: &Recorder,
    parent: Option<SpanId>,
    layers: &mut Layers,
) -> Vec<&'static str> {
    let segment_s = MigrationNetConfig::default().segment_s;
    let instants: Vec<f64> = out.iter().map(|t| t.at_s).collect();
    let at = spread_sample(&instants, 16)
        .into_iter()
        .map(|t| (service, t));
    let view_cold = probe_views(
        rec,
        parent,
        at,
        obs.counter("service.snapshot_misses"),
        layers,
    );
    let mut builds = 0;
    for t in out {
        for seg in 0..t.outcome().segments {
            let view = service.view(t.at_s + seg as f64 * segment_s);
            let graph = rec.span(parent, "probe.graph.build", |_| {
                service.graph(view.snapshot(), &[])
            });
            rec.span(parent, "probe.graph.route", |_| {
                black_box(routing::sat_to_sat(&graph, t.from, t.to))
            });
            builds += 1;
        }
    }
    let build = rec.total("probe.graph.build").0;
    let route = rec.total("probe.graph.route").0;
    let migrate = rec.total("replication.migrate").0;
    layers.set("graph.build_s", build);
    layers.set("graph.route_s", route);
    layers.set("graph.builds", builds as f64);
    layers.set("replication.migrate_s", migrate);
    layers.set("congestion.run_s", migrate - build - route - view_cold);
    let sum =
        |f: fn(&MigrationOutcome) -> u64| out.iter().map(|t| f(t.outcome())).sum::<u64>() as f64;
    let transmissions = sum(|o| o.transmissions);
    layers.set(
        "congestion.retx_frac",
        ratio(sum(|o| o.retransmissions), transmissions),
    );
    layers.set(
        "congestion.drop_frac",
        ratio(sum(|o| o.dropped), transmissions),
    );
    vec!["replication.migrate_s"]
}

const HANDOFF_TRANSFERS: usize = 400;
const HANDOFF_USER_POOL: usize = 40_000;
const HANDOFF_INSTANTS: usize = 24;
const HANDOFF_BYTES: f64 = 10e6;

/// 400 serve-style hand-offs: seeded users at seeded instants, nearest
/// server at `t` vs `t + 60 s`; each distinct pair moves 10 MB
/// uncontended. Single-segment transfers with no cross-traffic, so the
/// per-segment graph rebuild and route are a large share of the work.
pub struct Handoffs {
    service: InOrbitService,
    plan: Vec<Transfer>,
}

impl Workload for Handoffs {
    type Fresh = InOrbitService;
    type Output = Vec<Transfer>;

    fn setup(seed: u64, _: usize, rec: &Recorder, parent: Option<SpanId>) -> Result<Self, String> {
        let service = compile(rec, parent, None);
        let lookup = service.clone();
        let users = synthesize_users(HANDOFF_USER_POOL, 2.0, seed);
        let offset_s = (seed % 60) as f64 * 60.0;
        let mut seen = HashSet::new();
        let mut plan = Vec::with_capacity(HANDOFF_TRANSFERS);
        for (i, user) in users.iter().enumerate() {
            let t = offset_s + 3600.0 * (i % HANDOFF_INSTANTS) as f64;
            let before = lookup.nearest_server_view(&lookup.view(t), user);
            let after = lookup.nearest_server_view(&lookup.view(t + 60.0), user);
            let (Some(a), Some(b)) = (before, after) else {
                continue;
            };
            if a.id != b.id && seen.insert((a.id, b.id, (t + 60.0).to_bits())) {
                plan.push(Transfer {
                    from: a.id,
                    to: b.id,
                    at_s: t + 60.0,
                    size_bytes: HANDOFF_BYTES,
                    cross_load: 0.0,
                    isl_rate_bps: MigrationNetConfig::default().isl_rate_bps,
                    outcome: None,
                });
                if plan.len() == HANDOFF_TRANSFERS {
                    return Ok(Handoffs { service, plan });
                }
            }
        }
        Err(format!(
            "only {} distinct hand-offs among {HANDOFF_USER_POOL} users",
            plan.len()
        ))
    }

    fn fresh(&self, _: usize) -> InOrbitService {
        self.service.clone()
    }

    fn run(
        &self,
        fresh: &InOrbitService,
        threads: usize,
        rec: &Recorder,
        parent: Option<SpanId>,
    ) -> Vec<Transfer> {
        migrate_all(fresh, &self.plan, threads, rec, parent)
    }

    fn tally(&self, out: &Vec<Transfer>) -> Tally {
        transfer_tally(out, out.len() as f64)
    }

    fn check(&self, out: &Vec<Transfer>) -> Result<(), String> {
        // Uncontended transfers land in the analytic bracket and never
        // retransmit.
        for t in out {
            let o = t.outcome();
            let d = o
                .duration_s
                .ok_or("an uncontended transfer did not complete")?;
            if d < o.analytic_packet_s - 1e-9 || d > o.analytic_packet_s * 1.15 + 1e-6 {
                return Err(format!(
                    "{}->{}: {d} s outside the analytic bracket at {} s",
                    t.from, t.to, o.analytic_packet_s
                ));
            }
            if o.retransmissions != 0 {
                return Err(format!("{}->{} retransmitted uncontended", t.from, t.to));
            }
        }
        Ok(())
    }

    fn layers(
        &self,
        fresh: &InOrbitService,
        out: &Vec<Transfer>,
        obs: &Obs,
        rec: &Recorder,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Vec<&'static str> {
        transfer_layers(fresh, out, obs, rec, parent, layers)
    }
}

const MIGRATION_HORIZON_S: f64 = 3600.0;
const MIGRATION_STEP_S: f64 = 15.0;
const MIGRATION_HANDOFFS: usize = 12;
const MIGRATION_BYTES: f64 = 3e6;
const MIGRATION_LOADS: [f64; 2] = [0.5, 0.9];
/// A far-apart pair on slow ISLs: the transfer spans several route
/// segments and the route changes under it.
const ROUTE_CHANGE: (SatId, SatId) = (SatId(5), SatId(795));
const ROUTE_CHANGE_BYTES: f64 = 750e6;
const ROUTE_CHANGE_RATE_BPS: f64 = 2e8;

/// The first 12 predicted hand-offs of Sticky and of MinMax for the
/// West-Africa trio, from a seeded start, each moving 3 MB under 50 %
/// and under 90 % CBR cross-traffic, plus one multi-segment transfer
/// whose route changes: the congestion event loop carries the work. A
/// transfer's cost grows with its hop count, so many small hand-offs
/// keep the batch cost from swinging with the seed's pairs.
pub struct Migration {
    service: InOrbitService,
    plan: Vec<Transfer>,
}

impl Workload for Migration {
    type Fresh = InOrbitService;
    type Output = Vec<Transfer>;

    fn setup(seed: u64, _: usize, rec: &Recorder, parent: Option<SpanId>) -> Result<Self, String> {
        let service = compile(rec, parent, None);
        let predictor = service.clone();
        let trio = trios().swap_remove(0);
        // Seeds scatter the start over a day (Fibonacci hashing), so
        // neighbouring seeds share no hand-offs.
        let start_s = (seed.wrapping_mul(2_654_435_761) % 86_400) as f64;
        let default = MigrationNetConfig::default();
        let mut plan = Vec::new();
        for policy in [Policy::sticky_default(), Policy::MinMax] {
            let intervals = rec.span(parent, "replication.predict", |_| {
                predict_servers(
                    &predictor,
                    &trio,
                    policy,
                    start_s,
                    MIGRATION_HORIZON_S,
                    MIGRATION_STEP_S,
                )
            });
            let handoffs: Vec<_> = intervals.windows(2).take(MIGRATION_HANDOFFS).collect();
            if handoffs.len() < MIGRATION_HANDOFFS {
                return Err(format!(
                    "{} predicted only {} hand-offs",
                    policy.name(),
                    handoffs.len()
                ));
            }
            for w in handoffs {
                for load in MIGRATION_LOADS {
                    plan.push(Transfer {
                        from: w[0].server,
                        to: w[1].server,
                        at_s: w[1].from_s,
                        size_bytes: MIGRATION_BYTES,
                        cross_load: load,
                        isl_rate_bps: default.isl_rate_bps,
                        outcome: None,
                    });
                }
            }
        }
        plan.push(Transfer {
            from: ROUTE_CHANGE.0,
            to: ROUTE_CHANGE.1,
            at_s: 0.0,
            size_bytes: ROUTE_CHANGE_BYTES,
            cross_load: 0.5,
            isl_rate_bps: ROUTE_CHANGE_RATE_BPS,
            outcome: None,
        });
        Ok(Migration { service, plan })
    }

    fn fresh(&self, _: usize) -> InOrbitService {
        self.service.clone()
    }

    fn run(
        &self,
        fresh: &InOrbitService,
        threads: usize,
        rec: &Recorder,
        parent: Option<SpanId>,
    ) -> Vec<Transfer> {
        migrate_all(fresh, &self.plan, threads, rec, parent)
    }

    fn tally(&self, out: &Vec<Transfer>) -> Tally {
        let simulated = out.iter().filter_map(|t| t.outcome().duration_s).sum();
        transfer_tally(out, simulated)
    }

    fn check(&self, out: &Vec<Transfer>) -> Result<(), String> {
        for t in out {
            let o = t.outcome();
            let d = o
                .duration_s
                .ok_or_else(|| format!("{}->{} did not complete", t.from, t.to))?;
            if d < o.analytic_packet_s - 1e-9 {
                return Err(format!("{}->{} beat the analytic floor", t.from, t.to));
            }
        }
        let rc = out
            .last()
            .expect("the plan ends with the route-change transfer")
            .outcome();
        if rc.route_changes == 0 {
            return Err(format!(
                "the {}->{} transfer kept one route over {} segments",
                ROUTE_CHANGE.0, ROUTE_CHANGE.1, rc.segments
            ));
        }
        Ok(())
    }

    fn layers(
        &self,
        fresh: &InOrbitService,
        out: &Vec<Transfer>,
        obs: &Obs,
        rec: &Recorder,
        parent: Option<SpanId>,
        layers: &mut Layers,
    ) -> Vec<&'static str> {
        transfer_layers(fresh, out, obs, rec, parent, layers)
    }
}
