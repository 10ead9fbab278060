//! End-to-end properties of the fault-injection layer.
//!
//! Contracts the unit tests cannot pin alone:
//!
//! 1. **No masked traversal** — every delay the masked engine reports
//!    equals the shortest path over a reference graph from which the
//!    masked satellites, cut ISLs, and faded access links were *removed
//!    before* Dijkstra ran. Routing around the mask is therefore exact,
//!    not best-effort.
//! 2. **Empty plan = no plan** — a service carrying a fault scenario
//!    that masks nothing produces byte-identical session results to a
//!    service with no fault layer at all.
//! 3. **Fade-forced re-selection** — Sticky drops a held server whose
//!    access link rains out, not just one that dies or sets.
//! 4. **Fault-aware migration** — state hand-offs route around cut ISLs
//!    and dead satellites, and stall on a dead endpoint.
//! 5. **Failing fleets** — a session on a fleet whose servers die is
//!    plain `run_session` on a `with_faults` service: it never acquires a
//!    dead server, hands off a dead one without a state transfer, and
//!    stalls only when no live server is in view.

use leo_constellation::{presets, SatId};
use leo_core::replication::{migrate_via_packets, MigrationNetConfig};
use leo_core::session::run_session;
use leo_core::{FailureModel, InOrbitService, Policy, SessionConfig, SessionResult, SnapshotView};
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use leo_net::visibility::visible_sats_masked;
use leo_net::weather::LinkBudget;
use leo_net::{FailureSchedule, FaultConfig, FaultPlan, NetworkGraph, NodeId, RainFade};

fn users() -> Vec<GroundEndpoint> {
    vec![
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
    ]
}

/// The ground truth: a graph with every masked element *absent*, so its
/// shortest paths cannot traverse them by construction.
fn reference_graph(
    service: &InOrbitService,
    snapshot: &leo_constellation::Snapshot,
    grounds: &[GroundEndpoint],
    plan: &FaultPlan,
) -> NetworkGraph {
    let c = service.constellation();
    let mut net = NetworkGraph::new();
    for sat in c.satellites() {
        net.add_node(NodeId::Sat(sat.id));
    }
    for (edge, len) in service.topology().active_edges(snapshot) {
        if !plan.isl_edge_masked(edge.a, edge.b) {
            net.add_edge_distance(NodeId::Sat(edge.a), NodeId::Sat(edge.b), len);
        }
    }
    for gp in grounds {
        net.add_node(gp.node());
        for v in visible_sats_masked(c, snapshot, gp.geodetic, gp.ecef, plan) {
            net.add_edge_distance(gp.node(), NodeId::Sat(v.id), v.range_m);
        }
    }
    net
}

#[test]
fn masked_routes_equal_shortest_paths_on_the_masked_graph() {
    // A scenario with all three fault kinds live at once: a failure
    // schedule that has already killed a band of satellites, two cut
    // ISLs, and a rain fade that raises the access mask.
    let mut cfg = FaultConfig::none();
    cfg.schedule = Some(
        FailureModel {
            annual_failure_rate: 4000.0,
            seed: 17,
        }
        .schedule(1584),
    );
    cfg.cut_links.push((SatId(100), SatId(101)));
    cfg.cut_links.push((SatId(40), SatId(62)));
    cfg.rain = Some(RainFade {
        budget: LinkBudget::CONSUMER,
        rain_rate_mm_h: 10.0,
    });
    let service = InOrbitService::with_faults(presets::starlink_550_only(), cfg.clone());
    let grounds = users();

    for t in [0.0, 1800.0, 3600.0] {
        let view = service.view(t);
        let plan = view.fault_plan().expect("fault service carries a plan");
        // λ = 4000/yr kills ~20 % of the fleet per half hour; t = 0
        // exercises the cuts+rain-only plan instead.
        assert!(
            t == 0.0 || plan.num_dead() > 0,
            "schedule should have killed sats by t={t}"
        );
        let reference = reference_graph(&service, view.snapshot(), &grounds, plan);
        let links = view.attach(&grounds);

        // Ground-to-ground: every pair, both directions.
        for i in 0..grounds.len() {
            for j in 0..grounds.len() {
                if i == j {
                    continue;
                }
                let engine = view.ground_to_ground_delay(&links, i, j);
                let reference_path = reference.shortest_path(grounds[i].node(), grounds[j].node());
                match (engine, reference_path) {
                    (Some(d), Some(p)) => {
                        assert!(
                            (d - p.delay_s).abs() <= 1e-12 * p.delay_s.max(1.0),
                            "t={t} {i}->{j}: engine {d} vs reference {}",
                            p.delay_s
                        );
                        for node in &p.nodes {
                            if let NodeId::Sat(s) = node {
                                assert!(!plan.sat_dead(*s), "path crosses dead {s}");
                            }
                        }
                    }
                    (None, None) => {}
                    (e, r) => panic!("t={t} {i}->{j}: engine {e:?} vs reference {r:?}"),
                }
            }
        }

        // Sat-to-sat over the masked ISL mesh, including dead endpoints.
        let isl_only = reference_graph(&service, view.snapshot(), &[], plan);
        let probes = [
            (SatId(0), SatId(700)),
            (SatId(100), SatId(101)),
            (SatId(40), SatId(62)),
            (SatId(3), SatId(1583)),
        ];
        for (a, b) in probes {
            let engine = view.sat_to_sat_delay(None, a, b);
            let reference_d = reference
                .shortest_path(NodeId::Sat(a), NodeId::Sat(b))
                .map(|p| p.delay_s);
            match (engine, reference_d) {
                (Some(d), Some(r)) => {
                    // The reference graph includes ground nodes; a
                    // sat-to-sat route must not use them, so recheck on
                    // path nodes instead of delay when they differ.
                    let path = reference
                        .shortest_path(NodeId::Sat(a), NodeId::Sat(b))
                        .unwrap();
                    if path.nodes.iter().all(|n| matches!(n, NodeId::Sat(_))) {
                        assert!(
                            (d - r).abs() <= 1e-12 * r.max(1.0),
                            "t={t} {a}->{b}: engine {d} vs reference {r}"
                        );
                    } else {
                        assert!(d >= r - 1e-12, "ISL-only route beat the relayed one");
                    }
                }
                (None, None) => {}
                (Some(d), None) => panic!("t={t} {a}->{b}: engine found {d}, reference none"),
                (None, Some(_)) => {
                    // Reference may relay through ground; the ISL-only
                    // query is allowed to fail where the mesh is severed.
                }
            }
            assert_masked_path_matches(&view, &isl_only, plan, a, b);
        }
        // A spread of further pairs, so the hop-list check sees long
        // routes around the dead band too.
        for i in 0..24u32 {
            let a = SatId((i * 131) % 1584);
            let b = SatId((i * 131 + 700) % 1584);
            assert_masked_path_matches(&view, &isl_only, plan, a, b);
        }
    }
}

/// The masked path query against the ISL-only reference graph: the same
/// hop list and delay bits, and no dead satellite or cut link on it.
fn assert_masked_path_matches(
    view: &SnapshotView,
    reference: &NetworkGraph,
    plan: &FaultPlan,
    a: SatId,
    b: SatId,
) {
    let engine = view.sat_to_sat_path(a, b);
    let expected = reference.shortest_path(NodeId::Sat(a), NodeId::Sat(b));
    match (engine, expected) {
        (Some(path), Some(r)) => {
            let sats: Vec<NodeId> = path.sats.iter().map(|&s| NodeId::Sat(s)).collect();
            assert_eq!(sats, r.nodes, "{a}->{b}: hop lists differ");
            assert_eq!(path.delay_s.to_bits(), r.delay_s.to_bits(), "{a}->{b}");
            assert!(path.sats.iter().all(|&s| !plan.sat_dead(s)), "{a}->{b}");
            assert!(
                path.sats.windows(2).all(|p| !plan.link_cut(p[0], p[1])),
                "{a}->{b} crosses a cut link"
            );
        }
        (None, None) => {}
        (e, r) => panic!("{a}->{b}: engine {e:?} vs reference {r:?}"),
    }
}

/// A migration config small enough for tests: 1 Gb/s ISLs, 10 segments.
fn mig_cfg() -> MigrationNetConfig {
    MigrationNetConfig {
        isl_rate_bps: 1e9,
        max_segments: 10,
        ..MigrationNetConfig::default()
    }
}

#[test]
fn migration_routes_around_a_cut_first_hop() {
    let (from, to, t) = (SatId(0), SatId(700), 60.0);
    let plain = InOrbitService::new(presets::starlink_550_only());
    let route = plain.view(t).sat_to_sat_path(from, to).expect("route");
    let mut cfg = FaultConfig::none();
    cfg.cut_links.push((route.sats[0], route.sats[1]));
    let faulted = InOrbitService::with_faults(presets::starlink_550_only(), cfg);

    let detour = faulted.view(t).sat_to_sat_path(from, to).expect("detour");
    assert_ne!(detour.sats, route.sats);
    assert_ne!(detour.sats[1], route.sats[1], "the cut first hop is unused");
    assert!(detour.delay_s > route.delay_s);

    let before = migrate_via_packets(&plain, from, to, t, 10e6, &mig_cfg());
    let after = migrate_via_packets(&faulted, from, to, t, 10e6, &mig_cfg());
    assert_eq!(before.hops, route.hops());
    assert_eq!(after.hops, detour.hops());
    assert_ne!(
        (after.hops, after.analytic_packet_s.to_bits()),
        (before.hops, before.analytic_packet_s.to_bits()),
        "the faulted migration must time the detour, not the cut route"
    );
    assert!(
        after.duration_s.is_some(),
        "the detour completes: {after:?}"
    );
}

#[test]
fn migration_to_a_dead_server_stalls() {
    let (from, to) = (SatId(0), SatId(700));
    let mut deaths = vec![f64::INFINITY; 1584];
    deaths[to.0 as usize] = 0.0;
    let mut cfg = FaultConfig::none();
    cfg.schedule = Some(FailureSchedule::from_death_times(deaths));
    let faulted = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    assert_eq!(faulted.view(0.0).sat_to_sat_path(from, to), None);
    let out = migrate_via_packets(&faulted, from, to, 0.0, 10e6, &mig_cfg());
    assert_eq!(out.duration_s, None);
    assert_eq!(out.segments, mig_cfg().max_segments);
    assert_eq!(out.hops, 0, "no route was ever found");
    assert_eq!(out.transmissions, 0);
}

#[test]
fn empty_fault_config_migrations_equal_plain_ones() {
    let plain = InOrbitService::new(presets::starlink_550_only());
    let faulted = InOrbitService::with_faults(presets::starlink_550_only(), FaultConfig::none());
    for (from, to, t) in [(SatId(0), SatId(700), 60.0), (SatId(5), SatId(9), 900.0)] {
        let cfg = MigrationNetConfig {
            cross_load_frac: 0.5,
            ..mig_cfg()
        };
        assert_eq!(
            migrate_via_packets(&plain, from, to, t, 5e6, &cfg),
            migrate_via_packets(&faulted, from, to, t, 5e6, &cfg),
        );
    }
}

#[test]
fn dead_endpoints_are_unreachable_not_rerouted() {
    let mut cfg = FaultConfig::none();
    cfg.schedule = Some(
        FailureModel {
            annual_failure_rate: 4000.0,
            seed: 17,
        }
        .schedule(1584),
    );
    let service = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let view = service.view(3600.0);
    let plan = view.fault_plan().unwrap();
    let dead: Vec<SatId> = (0..1584)
        .map(|i| SatId(i as u32))
        .filter(|&s| plan.sat_dead(s))
        .collect();
    assert!(!dead.is_empty());
    for &d in dead.iter().take(5) {
        assert_eq!(view.sat_to_sat_delay(None, SatId(0), d), None);
        assert_eq!(
            service.migration_delay_view(&view, &users(), SatId(0), d),
            None
        );
    }
}

#[test]
fn empty_fault_plan_sessions_are_byte_identical() {
    let plain = InOrbitService::new(presets::starlink_550_only());
    let mut cfg = FaultConfig::none();
    // A schedule where nothing ever dies: plans are empty, but every
    // query flows through the masked entry points.
    cfg.schedule = Some(leo_net::FailureSchedule::never(1584));
    let faulted = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let session = SessionConfig {
        start_s: 0.0,
        duration_s: 600.0,
        tick_s: 10.0,
    };
    for policy in [Policy::MinMax, Policy::sticky_default()] {
        let a = run_session(&plain, &users(), policy, &session);
        let b = run_session(&faulted, &users(), policy, &session);
        let a_text = serde_json::to_string(&a).unwrap();
        let b_text = serde_json::to_string(&b).unwrap();
        assert_eq!(
            a_text,
            b_text,
            "{} diverged under an empty plan",
            policy.name()
        );
    }
}

#[test]
fn sticky_reselects_when_the_access_link_fades() {
    // A ~46° rain mask (14 mm/h on the consumer budget) forces servers
    // out of service well above the 25° geometric horizon, so holds
    // shorten and hand-offs multiply — without any satellite dying.
    let mut cfg = FaultConfig::none();
    cfg.rain = Some(RainFade {
        budget: LinkBudget::CONSUMER,
        rain_rate_mm_h: 14.0,
    });
    let clear = InOrbitService::new(presets::starlink_550_only());
    let rainy = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let session = SessionConfig {
        start_s: 0.0,
        duration_s: 1800.0,
        tick_s: 10.0,
    };
    let single_user = vec![GroundEndpoint::new(0, Geodetic::ground(6.52, 3.38))];

    let prev = leo_obs::level();
    leo_obs::set_level(leo_obs::Level::Metrics);
    let clear_run = run_session(&clear, &single_user, Policy::sticky_default(), &session);
    let handoffs_before = fault_handoff_count();
    let rainy_run = run_session(&rainy, &single_user, Policy::sticky_default(), &session);
    let handoffs_after = fault_handoff_count();
    leo_obs::set_level(prev);

    // Rain shortens holds and punches service gaps; both show up as
    // extra events (hand-offs + re-acquisitions).
    assert!(
        rainy_run.events.len() > clear_run.events.len(),
        "rain fade must disrupt the session: rainy {} vs clear {} events",
        rainy_run.events.len(),
        clear_run.events.len()
    );
    assert!(
        handoffs_after > handoffs_before,
        "fade-forced hand-offs must be attributed to the fault layer"
    );
    // And the session never *holds* a faulted server across a tick: at
    // each event the acquired satellite is unmasked at acquisition time.
    for e in &rainy_run.events {
        let view = rainy.view(e.time_s);
        assert!(
            !rainy.fault_masked_server(&view, &single_user, e.to),
            "acquired a rain-masked server at t={}",
            e.time_s
        );
    }
}

fn fault_handoff_count() -> u64 {
    leo_obs::snapshot()
        .counters
        .into_iter()
        .find(|(name, _)| name == "fault.handoffs")
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// A service whose servers die on `model`'s schedule.
fn failing_fleet(model: FailureModel) -> InOrbitService {
    let cfg = FaultConfig {
        schedule: Some(model.schedule(1584)),
        ..FaultConfig::none()
    };
    InOrbitService::with_faults(presets::starlink_550_only(), cfg)
}

/// Fifteen minutes at 15 s ticks.
fn short_session() -> SessionConfig {
    SessionConfig {
        start_s: 0.0,
        duration_s: 900.0,
        tick_s: 15.0,
    }
}

#[test]
fn realistic_failure_rates_leave_short_sessions_untouched() {
    // At 8 %/yr, a 15-minute session sees essentially no deaths.
    let plain = InOrbitService::new(presets::starlink_550_only());
    let failing = failing_fleet(FailureModel {
        annual_failure_rate: 0.08,
        seed: 42,
    });
    for policy in [Policy::MinMax, Policy::sticky_default()] {
        assert_eq!(
            run_session(&failing, &users(), policy, &short_session()),
            run_session(&plain, &users(), policy, &short_session()),
            "{}",
            policy.name()
        );
    }
}

#[test]
fn absurd_failure_rates_disrupt_but_do_not_stall_the_session() {
    // λ = 2000/yr → mean server life ≈ 4.4 h; several of the ~25
    // commonly-visible servers die during the session, yet the dense
    // shell keeps the group served at every tick the plain fleet serves.
    let plain = InOrbitService::new(presets::starlink_550_only());
    let failing = failing_fleet(FailureModel {
        annual_failure_rate: 2000.0,
        seed: 42,
    });
    let served = run_session(&plain, &users(), Policy::MinMax, &short_session());
    let result = run_session(&failing, &users(), Policy::MinMax, &short_session());
    let ticks = |r: &SessionResult| r.rtt_samples.iter().map(|&(t, _)| t).collect::<Vec<_>>();
    assert!(result.rtt_samples.len() > 50, "session mostly served");
    assert_eq!(
        ticks(&result),
        ticks(&served),
        "no full outage at this density"
    );
    assert_ne!(result.events, served.events, "deaths must change the picks");
    // The RTT stays within the direct-visibility envelope even with the
    // best servers dying.
    for &(_, rtt) in &result.rtt_samples {
        assert!(rtt < 16.5);
    }
}

#[test]
fn total_fleet_death_stalls_service_and_counts_dead_ticks() {
    let plain = InOrbitService::new(presets::starlink_550_only());
    let failing = failing_fleet(FailureModel {
        annual_failure_rate: 1e9, // everything dead at t ≈ 0⁺
        seed: 3,
    });
    let served = run_session(&plain, &users(), Policy::MinMax, &short_session());
    let result = run_session(&failing, &users(), Policy::MinMax, &short_session());
    // Dead ticks: the plain fleet serves the group, the failing one cannot.
    let dead_ticks = served.rtt_samples.len() - result.rtt_samples.len();
    assert!(dead_ticks > 50, "dead ticks {dead_ticks}");
    assert!(result.rtt_samples.len() < 5);
}

#[test]
fn sticky_survives_failures_of_its_held_server() {
    let m = FailureModel {
        annual_failure_rate: 2000.0,
        seed: 11,
    };
    let result = run_session(
        &failing_fleet(m),
        &users(),
        Policy::sticky_default(),
        &short_session(),
    );
    // Every held server in the event log must have been alive when
    // acquired.
    for e in &result.events {
        assert!(
            m.alive(e.to, e.time_s),
            "acquired a dead server at {}",
            e.time_s
        );
    }
}

#[test]
fn death_forced_handoffs_carry_no_transfer_latency() {
    // A dead server cannot push its state, so the hand-off off it reports
    // no transfer latency, and the fault layer is charged with it.
    let failing = failing_fleet(FailureModel {
        annual_failure_rate: 8000.0,
        seed: 42,
    });
    let result = run_session(
        &failing,
        &users(),
        Policy::sticky_default(),
        &short_session(),
    );
    let mut forced = 0;
    for e in &result.events {
        let Some(from) = e.from else { continue };
        let view = failing.view(e.time_s);
        if view.fault_plan().expect("plan").sat_dead(from) {
            forced += 1;
            assert_eq!(e.transfer_latency_ms, None, "t={}", e.time_s);
            assert!(
                failing.fault_masked_server(&view, &users(), from),
                "t={}",
                e.time_s
            );
        }
    }
    assert!(forced > 0, "a held server must die under the session");
}
