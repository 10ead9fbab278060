//! End-to-end routing over the constellation: graph construction at a
//! snapshot and the ground–ground / ground–satellite / satellite–satellite
//! path helpers over it.
//!
//! This is the reference oracle, not a production router: every library
//! query runs on the CSR [`RoutingEngine`](crate::engine::RoutingEngine),
//! whose delays and hop lists the oracle tests compare against these
//! helpers bit for bit. They stay public for those tests and for the
//! benchmark's legacy-router probes.

use crate::fault::FaultPlan;
use crate::graph::{NetworkGraph, NodeId, Path};
use crate::isl::IslTopology;
use crate::visibility::visible_sats;
use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::{Ecef, Geodetic};

/// A ground endpoint to wire into the network graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundEndpoint {
    /// Caller-assigned index; becomes [`NodeId::Ground`].
    pub index: u32,
    /// Geodetic position.
    pub geodetic: Geodetic,
    /// Spherical-model ECEF position (cache of `geodetic.to_ecef_spherical()`).
    pub ecef: Ecef,
}

impl GroundEndpoint {
    /// Creates an endpoint from a geodetic position.
    pub fn new(index: u32, geodetic: Geodetic) -> Self {
        GroundEndpoint {
            index,
            geodetic,
            ecef: geodetic.to_ecef_spherical(),
        }
    }

    /// The endpoint's node id.
    pub fn node(&self) -> NodeId {
        NodeId::Ground(self.index)
    }
}

/// Builds the time-`t` network graph: all usable ISLs plus an up/down link
/// from every ground endpoint to every satellite it can currently see.
///
/// Edge weights are one-way propagation delays; the paper's latency
/// numbers account for propagation only (§3.1), so no processing or
/// queueing terms are added here. (The DES layer models serialization
/// when transfer *times* rather than latencies are needed.)
pub fn build_graph(
    constellation: &Constellation,
    topology: &IslTopology,
    snapshot: &Snapshot,
    grounds: &[GroundEndpoint],
) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    // Satellites + ISLs.
    for sat in constellation.satellites() {
        net.add_node(NodeId::Sat(sat.id));
    }
    for (edge, len) in topology.active_edges(snapshot) {
        net.add_edge_distance(NodeId::Sat(edge.a), NodeId::Sat(edge.b), len);
    }
    // Ground endpoints and their visible satellites.
    for gp in grounds {
        net.add_node(gp.node());
        for v in visible_sats(constellation, snapshot, gp.ecef, &FaultPlan::empty()) {
            net.add_edge_distance(gp.node(), NodeId::Sat(v.id), v.range_m);
        }
    }
    net
}

/// Shortest path between two ground endpoints through the constellation.
pub fn ground_to_ground(
    graph: &NetworkGraph,
    a: &GroundEndpoint,
    b: &GroundEndpoint,
) -> Option<Path> {
    graph.shortest_path(a.node(), b.node())
}

/// Shortest path between two satellites over the ISL mesh.
pub fn sat_to_sat(graph: &NetworkGraph, a: SatId, b: SatId) -> Option<Path> {
    graph.shortest_path(NodeId::Sat(a), NodeId::Sat(b))
}

/// One-way delays from a ground endpoint to *every* satellite, indexed by
/// `SatId.0`; `f64::INFINITY` for unreachable satellites. This is the bulk
/// query behind meetup-server selection.
pub fn delays_to_all_sats(
    graph: &NetworkGraph,
    constellation: &Constellation,
    a: &GroundEndpoint,
) -> Vec<f64> {
    let mut delays = vec![f64::INFINITY; constellation.num_satellites()];
    for (node, d) in graph.shortest_paths_from(a.node()) {
        if let NodeId::Sat(s) = node {
            delays[s.0 as usize] = d;
        }
    }
    delays
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn setup() -> (Constellation, IslTopology) {
        let c = presets::starlink_550_only();
        let topo = IslTopology::plus_grid(&c);
        (c, topo)
    }

    fn endpoint(i: u32, lat: f64, lon: f64) -> GroundEndpoint {
        GroundEndpoint::new(i, Geodetic::ground(lat, lon))
    }

    #[test]
    fn nearby_cities_route_with_few_hops() {
        let (c, topo) = setup();
        let snap = c.snapshot(0.0);
        let a = endpoint(0, 47.38, 8.54); // Zurich
        let b = endpoint(1, 48.86, 2.35); // Paris
        let graph = build_graph(&c, &topo, &snap, &[a, b]);
        let p = ground_to_ground(&graph, &a, &b).expect("path");
        // Zurich-Paris is ~490 km; via one or two satellites the RTT stays
        // below ~25 ms.
        assert!(p.rtt_ms() < 25.0, "rtt {}", p.rtt_ms());
        assert!(p.nodes.len() >= 3, "must go up and down");
    }

    #[test]
    fn transatlantic_route_beats_geo_by_far() {
        let (c, topo) = setup();
        let snap = c.snapshot(0.0);
        let a = endpoint(0, 51.51, -0.13); // London
        let b = endpoint(1, 40.71, -74.01); // New York
        let graph = build_graph(&c, &topo, &snap, &[a, b]);
        let p = ground_to_ground(&graph, &a, &b).expect("path");
        // Fiber great-circle floor is ~37 ms RTT; LEO path should be in
        // the 40-70 ms band, far below the ~480 ms GEO bounce.
        assert!(p.rtt_ms() > 35.0 && p.rtt_ms() < 90.0, "rtt {}", p.rtt_ms());
    }

    #[test]
    fn path_endpoints_are_the_requested_nodes() {
        let (c, topo) = setup();
        let snap = c.snapshot(300.0);
        let a = endpoint(0, 9.06, 7.49); // Abuja
        let b = endpoint(1, 3.87, 11.52); // Yaounde
        let graph = build_graph(&c, &topo, &snap, &[a, b]);
        let p = ground_to_ground(&graph, &a, &b).unwrap();
        assert_eq!(p.nodes.first(), Some(&a.node()));
        assert_eq!(p.nodes.last(), Some(&b.node()));
        // All intermediate nodes are satellites.
        for n in &p.nodes[1..p.nodes.len() - 1] {
            assert!(matches!(n, NodeId::Sat(_)));
        }
    }

    #[test]
    fn ground_to_sat_reaches_non_visible_satellites_via_isls() {
        let (c, topo) = setup();
        let snap = c.snapshot(0.0);
        let a = endpoint(0, 0.0, 0.0);
        let graph = build_graph(&c, &topo, &snap, &[a]);
        let delays = delays_to_all_sats(&graph, &c, &a);
        // Every satellite in the connected shell is reachable.
        assert!(delays.iter().all(|d| d.is_finite()));
        // And the direct ones are the nearest.
        let direct = visible_sats(&c, &snap, a.ecef, &FaultPlan::empty());
        let min_direct = direct
            .iter()
            .map(|v| v.delay_s())
            .fold(f64::INFINITY, f64::min);
        let global_min = delays.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((global_min - min_direct).abs() < 1e-12);
    }

    #[test]
    fn sat_to_sat_paths_ride_the_isl_mesh() {
        let (c, topo) = setup();
        let snap = c.snapshot(0.0);
        let graph = build_graph(&c, &topo, &snap, &[]);
        let a = SatId(0);
        let b = SatId((c.num_satellites() / 2) as u32);
        let p = sat_to_sat(&graph, a, b).expect("isl path");
        assert!(p.nodes.len() >= 2);
        for n in &p.nodes {
            assert!(matches!(n, NodeId::Sat(_)));
        }
    }

    #[test]
    fn delays_to_all_sats_matches_individual_queries() {
        let (c, topo) = setup();
        let snap = c.snapshot(120.0);
        let a = endpoint(0, -33.87, 151.21); // Sydney
        let graph = build_graph(&c, &topo, &snap, &[a]);
        let delays = delays_to_all_sats(&graph, &c, &a);
        for sat_idx in [0usize, 100, 777, 1500] {
            let p = graph
                .shortest_path(a.node(), NodeId::Sat(SatId(sat_idx as u32)))
                .unwrap();
            assert!((p.delay_s - delays[sat_idx]).abs() < 1e-12);
        }
    }
}
