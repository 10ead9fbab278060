//! The CSR routing engine must be a drop-in replacement for the
//! allocating graph path: not "close", but bit-identical. Both run
//! Dijkstra over the same edge set with the same weights from the same
//! source, and floating-point shortest-path distances are determined by
//! the chosen path's left-to-right summation — so any divergence at all
//! means the engine wired an edge differently.

use in_orbit::net::engine::{DijkstraArena, IslWeights, RoutingEngine};
use in_orbit::net::graph::{NetworkGraph, NodeId, Path};
use in_orbit::net::routing::{self, build_graph, delays_to_all_sats};
use in_orbit::net::FaultPlan;
use in_orbit::prelude::*;
use proptest::prelude::*;

fn small_constellation() -> Constellation {
    use in_orbit::constellation::{ShellSpec, WalkerPattern};
    Constellation::from_shells(
        "engine-prop",
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

/// The satellites of a reference-graph route, in order.
fn graph_sats(path: &Path) -> Vec<SatId> {
    path.nodes
        .iter()
        .map(|n| match n {
            NodeId::Sat(s) => *s,
            other => panic!("ground node {other} on an ISL route"),
        })
        .collect()
}

/// The engine's path query against the graph route for one pair: the
/// same hop list, and a delay bit-identical to both the graph and the
/// engine's delay-only query.
fn assert_path_matches(
    engine: &RoutingEngine,
    weights: &IslWeights,
    graph: &NetworkGraph,
    a: SatId,
    b: SatId,
    arena: &mut DijkstraArena,
) {
    let fast = engine.sat_to_sat_path(weights, a, b, arena);
    let slow = routing::sat_to_sat(graph, a, b);
    let delay = engine.sat_to_sat_delay(weights, None, a, b, arena);
    match (fast, slow) {
        (Some(f), Some(s)) => {
            assert_eq!(f.sats, graph_sats(&s), "{a}->{b}: hop lists differ");
            assert_eq!(f.delay_s.to_bits(), s.delay_s.to_bits(), "{a}->{b}");
            assert_eq!(
                Some(f.delay_s.to_bits()),
                delay.map(f64::to_bits),
                "{a}->{b}"
            );
        }
        (None, None) => assert_eq!(delay, None, "{a}->{b}"),
        (f, s) => panic!("{a}->{b}: engine {f:?} vs graph {s:?}"),
    }
}

/// Bulk delays from every ground endpoint, both ways, compared bitwise.
fn assert_bulk_bitwise(c: &Constellation, t: f64, users: &[GroundEndpoint]) {
    let topo = IslTopology::plus_grid(c);
    let engine = RoutingEngine::compile(c, &topo);
    let snap = c.snapshot(t);
    let weights = engine.refresh(&snap, &FaultPlan::empty());
    let links = engine.attach_scan(c, &snap, users, &FaultPlan::empty());
    let mut arena = DijkstraArena::new();
    let fast = engine.delays_from_all(&weights, &links, &mut arena);

    let graph = build_graph(c, &topo, &snap, users);
    for (slot, u) in users.iter().enumerate() {
        let slow = delays_to_all_sats(&graph, c, u);
        assert_eq!(slow.len(), fast[slot].len());
        for (sat, (a, b)) in slow.iter().zip(&fast[slot]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "user {slot} sat {sat}: graph {a} vs engine {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine bulk delays equal graph Dijkstra bit-for-bit on randomized
    /// snapshots and user groups.
    #[test]
    fn bulk_delays_are_bit_identical(
        lat1 in -50.0..50.0f64,
        lat2 in -50.0..50.0f64,
        dlon in -60.0..60.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let users = [
            GroundEndpoint::new(0, Geodetic::ground(lat1, 10.0)),
            GroundEndpoint::new(1, Geodetic::ground(lat2, 10.0 + dlon)),
        ];
        assert_bulk_bitwise(&c, t, &users);
    }

    /// Early-exit satellite-to-satellite queries match the graph path,
    /// with and without a ground segment to relay through.
    #[test]
    fn sat_to_sat_is_bit_identical(
        a in 0u32..100,
        b in 0u32..100,
        lat in -50.0..50.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let topo = IslTopology::plus_grid(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        let snap = c.snapshot(t);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();

        let graph = build_graph(&c, &topo, &snap, &[]);
        let slow = routing::sat_to_sat(&graph, SatId(a), SatId(b)).map(|p| p.delay_s);
        let fast = engine.sat_to_sat_delay(&weights, None, SatId(a), SatId(b), &mut arena);
        prop_assert_eq!(slow.map(f64::to_bits), fast.map(f64::to_bits));

        let grounds = [GroundEndpoint::new(0, Geodetic::ground(lat, 0.0))];
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let relayed_graph = build_graph(&c, &topo, &snap, &grounds);
        let slow = routing::sat_to_sat(&relayed_graph, SatId(a), SatId(b)).map(|p| p.delay_s);
        let fast =
            engine.sat_to_sat_delay(&weights, Some(&links), SatId(a), SatId(b), &mut arena);
        prop_assert_eq!(slow.map(f64::to_bits), fast.map(f64::to_bits));
    }

    /// Satellite-to-satellite paths (the state-migration route) match the
    /// graph's hop lists exactly, with bit-identical delays.
    #[test]
    fn sat_to_sat_paths_match_graph_routes(
        pairs in proptest::collection::vec((0u32..100, 0u32..100), 1..8),
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let topo = IslTopology::plus_grid(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        let snap = c.snapshot(t);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let graph = build_graph(&c, &topo, &snap, &[]);
        let mut arena = DijkstraArena::new();
        for (a, b) in pairs {
            assert_path_matches(&engine, &weights, &graph, SatId(a), SatId(b), &mut arena);
        }
    }

    /// Ground-to-ground delays (the meetup hybrid query) match the graph
    /// path bit-for-bit.
    #[test]
    fn ground_to_ground_is_bit_identical(
        lat1 in -50.0..50.0f64,
        lat2 in -50.0..50.0f64,
        dlon in -90.0..90.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let topo = IslTopology::plus_grid(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        let snap = c.snapshot(t);
        let grounds = [
            GroundEndpoint::new(0, Geodetic::ground(lat1, -20.0)),
            GroundEndpoint::new(1, Geodetic::ground(lat2, -20.0 + dlon)),
        ];
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();

        let graph = build_graph(&c, &topo, &snap, &grounds);
        let slow = routing::ground_to_ground(&graph, &grounds[0], &grounds[1]).map(|p| p.delay_s);
        let fast = engine.ground_to_ground_delay(&weights, &links, 0, 1, &mut arena);
        prop_assert_eq!(slow.map(f64::to_bits), fast.map(f64::to_bits));
    }
}

/// One deterministic full-scale case: the paper's 1,584-satellite shell
/// with the Fig 3 West Africa user group.
#[test]
fn starlink_scale_bulk_delays_are_bit_identical() {
    let c = starlink_550_only();
    let users = [
        GroundEndpoint::new(0, Geodetic::ground(6.52, 3.38)), // Lagos
        GroundEndpoint::new(1, Geodetic::ground(5.56, -0.20)), // Accra
        GroundEndpoint::new(2, Geodetic::ground(9.06, 7.49)), // Abuja
    ];
    assert_bulk_bitwise(&c, 300.0, &users);
}

/// Hop lists at full scale: the 1,584-satellite shell at several instants,
/// over pairs spread across the whole constellation (near neighbours,
/// cross-plane and antipodal routes).
#[test]
fn starlink_scale_paths_match_graph_routes() {
    let c = starlink_550_only();
    let topo = IslTopology::plus_grid(&c);
    let engine = RoutingEngine::compile(&c, &topo);
    let n = c.num_satellites() as u32;
    let mut arena = DijkstraArena::new();
    for t in [0.0, 450.0, 1800.0, 3600.0, 5400.0] {
        let snap = c.snapshot(t);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let graph = build_graph(&c, &topo, &snap, &[]);
        for i in 0..40u32 {
            let a = (i * 389) % n;
            for b in [
                (a + 1) % n,
                (a + 22) % n,
                (a * 7 + 501) % n,
                (a + n / 2) % n,
            ] {
                assert_path_matches(&engine, &weights, &graph, SatId(a), SatId(b), &mut arena);
            }
        }
    }
}
