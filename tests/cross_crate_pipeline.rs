//! Integration tests spanning the whole stack: orbit → constellation →
//! net → core → apps, exercising the pipelines the experiment binaries
//! are built from.

use in_orbit::apps::spacenative::SensingPipeline;
use in_orbit::core::replication::{migrate_via_packets, MigrationNetConfig};
use in_orbit::net::congestion::{
    uncontended_packet_transfer_s, uncontended_transfer_s, CcAlgorithm, CongestionLink,
    CongestionNetwork, Link, WindowedFlow,
};
use in_orbit::net::routing::{build_graph, ground_to_ground};
use in_orbit::prelude::*;

#[test]
fn tle_export_reimport_preserves_constellation_geometry() {
    // Export the 550 km shell as TLEs, re-import, and verify positions
    // agree (the TLE format quantizes mean motion; tolerate km-level).
    let original = starlink_550_only();
    let tles = original.to_tles();
    for (tle, sat) in tles
        .iter()
        .step_by(97)
        .zip(original.satellites().iter().step_by(97))
    {
        let parsed = Tle::parse(&tle.format()).expect("round-trip");
        let reprop = Propagator::new(parsed.elements, parsed.epoch);
        let d = reprop
            .position_eci(0.0)
            .0
            .distance(sat.propagator.position_eci(0.0).0);
        assert!(
            d < 20_000.0,
            "sat {}: {d} m drift after TLE round-trip",
            sat.id
        );
    }
}

#[test]
fn ground_paths_obey_physical_lower_bounds() {
    // No route can beat straight-line light travel between endpoints.
    let constellation = starlink_550_only();
    let topo = IslTopology::plus_grid(&constellation);
    let snap = constellation.snapshot(0.0);
    let pairs = [
        ((51.51, -0.13), (40.71, -74.01)),   // London - New York
        ((35.68, 139.69), (-33.87, 151.21)), // Tokyo - Sydney
        ((9.06, 7.49), (3.87, 11.52)),       // Abuja - Yaoundé
    ];
    for ((la1, lo1), (la2, lo2)) in pairs {
        let a = GroundEndpoint::new(0, Geodetic::ground(la1, lo1));
        let b = GroundEndpoint::new(1, Geodetic::ground(la2, lo2));
        let graph = build_graph(&constellation, &topo, &snap, &[a, b]);
        let p = ground_to_ground(&graph, &a, &b).expect("connected");
        let chord = a.ecef.distance_m(b.ecef);
        let min_delay = chord / in_orbit::geo::consts::SPEED_OF_LIGHT_M_S;
        assert!(
            p.delay_s >= min_delay,
            "path beats light: {} < {min_delay}",
            p.delay_s
        );
        // And satellite paths shouldn't be absurdly stretched either.
        assert!(p.delay_s < min_delay * 4.0 + 0.01, "path too long");
    }
}

#[test]
fn state_migration_transfer_times_are_practical() {
    // §5: "state migration after every few minutes is still a substantial
    // overhead. However, the high inter-satellite bandwidth could
    // accommodate this." Time a 1 GB session-state migration between two
    // adjacent meetup servers over 100 Gbps ISLs on the routed path.
    let service = InOrbitService::new(starlink_550_only());
    let cfg = MigrationNetConfig {
        isl_rate_bps: 100e9,
        ..MigrationNetConfig::default()
    };
    let out = migrate_via_packets(&service, SatId(0), SatId(1), 0.0, 1e9, &cfg);
    let t = out.duration_s.expect("idle route completes");
    // Well under the ~164 s Sticky hand-off interval, and no faster than
    // the route allows.
    assert!(t < 1.0, "1 GB migration took {t} s");
    assert!(t >= out.analytic_packet_s - 1e-9);
}

#[test]
fn des_agrees_with_analytic_bound_on_isl_paths() {
    // On an idle two-hop ISL path the packet simulator meets both analytic
    // bounds: one 1 Gbit message store-and-forwards exactly, and the same
    // gigabit in 1,000 packets pipelines to within 5 % of the packetized
    // bound.
    let hops = [(10e9, 0.004), (10e9, 0.002)];
    let transfer = |packets: u64| {
        let mut net = CongestionNetwork::new();
        let route = hops
            .iter()
            .map(|&(rate, delay)| net.add_link(CongestionLink::new(rate, delay, 1024)))
            .collect();
        let mut flow =
            WindowedFlow::new(route, 1e9 / packets as f64, packets, 0.0, CcAlgorithm::Aimd);
        flow.init_cwnd = packets as f64;
        let id = net.add_windowed(flow);
        net.run();
        net.windowed_stats(id)
            .completion_s
            .expect("idle route completes")
    };
    let message: Vec<_> = hops.iter().map(|&(r, d)| Link::new(r, d)).collect();
    let expect = uncontended_transfer_s(1e9, &message);
    assert!((transfer(1) - expect).abs() < 1e-9);
    let links = hops.map(|(r, d)| CongestionLink::new(r, d, 1024));
    let bound = uncontended_packet_transfer_s(1e6, 1_000, &links);
    let t = transfer(1_000);
    assert!(
        t >= bound - 1e-9 && t <= bound * 1.05,
        "{t} vs bound {bound}"
    );
}

#[test]
fn earth_observation_pipeline_composes_with_visibility() {
    // A sensing satellite that is invisible from ground stations can
    // still drain its backlog later; verify duty-cycle math is coherent
    // with a finite downlink window fraction.
    let pipeline = SensingPipeline {
        sensor_rate_bps: 8e9,
        downlink_rate_bps: 2e9,
        reduction_factor: 4.0,
    };
    let duty = pipeline.sensing_duty_cycle();
    assert!((duty - 1.0).abs() < 1e-12, "4× reduction saturates duty");
    // Halve the downlink (sharing with network service, per the paper's
    // footnote): duty drops accordingly.
    let constrained = SensingPipeline {
        downlink_rate_bps: 1e9,
        ..pipeline
    };
    assert!((constrained.sensing_duty_cycle() - 0.5).abs() < 1e-12);
}

#[test]
fn every_preset_builds_and_snapshots_consistently() {
    for (name, c) in [
        ("starlink", starlink_phase1()),
        ("kuiper", kuiper()),
        ("telesat", telesat()),
    ] {
        let snap = c.snapshot(3600.0);
        assert_eq!(snap.len(), c.num_satellites(), "{name}");
        for (id, pos) in snap.iter() {
            let alt = pos.0.norm() - in_orbit::geo::consts::EARTH_RADIUS_MEAN_M;
            let expect = c.shell_of(id).altitude_m;
            assert!(
                (alt - expect).abs() < 1_000.0,
                "{name} {id}: altitude {alt} vs {expect}"
            );
        }
    }
}

#[test]
fn service_survives_a_full_orbital_period() {
    // Run access queries across a complete orbit to catch any
    // time-dependence bugs (GMST wrap, anomaly wrap, etc.).
    let service = InOrbitService::new(starlink_550_only());
    let period = service.constellation().satellites()[0]
        .propagator
        .elements()
        .period_s();
    let ground = Geodetic::ground(30.0, -60.0);
    for i in 0..12 {
        let t = period * i as f64 / 11.0;
        let vis = service.reachable_servers(ground, t);
        assert!(!vis.is_empty(), "no service at t={t}");
        for v in &vis {
            assert!(v.rtt_ms() < 16.5);
        }
    }
}
