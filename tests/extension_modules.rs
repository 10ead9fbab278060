//! Integration tests for the extension modules (DESIGN.md "Extension
//! modules" table): the §5/§6 open questions, exercised across crates.

use in_orbit::apps::geo_baseline::GeoSatellite;
use in_orbit::apps::interactive::AppClass;
use in_orbit::apps::matchmaking::{classify_group, Feasibility, Player};
use in_orbit::core::capacity::CapacityPool;
use in_orbit::core::replication::{predict_servers, ReplicationPlan, StateSizes};
use in_orbit::net::congestion::Link;
use in_orbit::net::handover::{handover_schedule, predict_passes};

use in_orbit::prelude::*;

#[test]
fn replication_plan_fits_inside_sticky_serving_intervals() {
    // End-to-end: predict Sticky servers, build a plan, verify the
    // generic-state prefetch fits in the holds the sessions actually
    // produce.
    let service =
        InOrbitService::new(in_orbit::constellation::presets::starlink_phase1_conservative());
    let users = vec![
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
    ];
    let intervals = predict_servers(
        &service,
        &users,
        Policy::sticky_default(),
        0.0,
        1200.0,
        10.0,
    );
    assert!(intervals.len() >= 2, "need at least one hand-off");
    let plan = ReplicationPlan::build(
        intervals,
        StateSizes {
            session_bytes: 10e6,
            generic_bytes: 1e9,
        },
        2,
        30.0,
    );
    let isl = [Link::new(100e9, 0.003)];
    assert!(plan.prefetches_feasible(&isl));
    let (with, without) = plan.handoff_times_s(&isl);
    assert!(with < without);
}

#[test]
fn handover_schedule_matches_session_scale_hold_times() {
    // The single-station network hand-over plan should hold satellites
    // for minutes — the same scale §5 reports for sessions.
    let c = starlink_550_only();
    let passes = predict_passes(&c, Geodetic::ground(6.5, 3.4), 0.0, 3600.0, 10.0);
    let slots = handover_schedule(&passes, 0.0, 3600.0);
    assert!(slots.len() >= 5);
    let mean_hold = slots.iter().map(|s| s.until_s - s.from_s).sum::<f64>() / slots.len() as f64;
    assert!(
        (60.0..500.0).contains(&mean_hold),
        "mean hold {mean_hold} s"
    );
}

#[test]
fn capacity_pool_admits_a_metro_worth_of_edge_tenants() {
    // §3.1: reachable servers ≈ a cloudlet. With 32 slots each, a metro
    // can place hundreds of small tenants within the 16 ms envelope.
    let service = InOrbitService::new(starlink_phase1());
    let mut pool = CapacityPool::new(&service, 0.0, 32);
    let metro = Geodetic::ground(6.52, 3.38);
    let free = pool.reachable_free_slots(metro, 16.0);
    let mut placed = 0u64;
    for server in service.reachable_servers(metro, 0.0) {
        if server.rtt_ms() > 16.0 {
            continue;
        }
        while pool.try_reserve(server.id, 4) {
            placed += 1;
        }
    }
    assert_eq!(
        pool.reachable_free_slots(metro, 16.0),
        0,
        "every in-range slot filled"
    );
    assert_eq!(placed * 4, free);
    assert!(placed >= 100, "only {placed} tenants placed");
}

#[test]
fn geo_baseline_and_leo_access_are_consistent() {
    // The 65× claim, computed end-to-end: GEO server RTT from the
    // equator over the actual LEO nearest-server RTT at the same spot.
    let service = InOrbitService::new(starlink_550_only());
    let ground = Geodetic::ground(0.0, 10.0);
    let leo_rtt = service
        .reachable_servers(ground, 0.0)
        .iter()
        .map(|v| v.rtt_ms())
        .fold(f64::INFINITY, f64::min);
    let geo_rtt = GeoSatellite {
        longitude_deg: 10.0,
    }
    .server_rtt_ms(ground);
    let ratio = geo_rtt / leo_rtt;
    assert!(
        (30.0..70.0).contains(&ratio),
        "GEO/LEO ratio {ratio} (65× at zenith, less when the nearest LEO sat is off-zenith)"
    );
}

#[test]
fn matchmaking_census_and_meetup_comparison_agree() {
    // If the matchmaking module says a pair is orbit-only under the AR
    // budget, the meetup machinery must find an in-orbit server under
    // that budget too.
    let service = InOrbitService::new(starlink_phase1());
    let sites: Vec<Geodetic> = in_orbit::cities::azure_regions()
        .iter()
        .map(|r| r.geodetic())
        .collect();
    let a = Player::new("abuja", 9.06, 7.49);
    let b = Player::new("yaounde", 3.87, 11.52);
    let f = classify_group(&service, &[&a, &b], &sites, AppClass::ArVr, 0.0);
    assert_eq!(f, Feasibility::OrbitOnly);
    let users = vec![
        GroundEndpoint::new(0, a.location),
        GroundEndpoint::new(1, b.location),
    ];
    let delays = GroupDelays::direct(&service, &users, 0.0);
    let (_, d) = delays.minmax().expect("orbit-only implies servable");
    assert!(2.0 * d * 1e3 <= AppClass::ArVr.max_rtt_ms());
}
