//! A propagation-delay-weighted network graph over satellites and ground
//! endpoints, with Dijkstra shortest paths.
//!
//! Node identifiers distinguish satellites (backed by
//! [`leo_constellation::SatId`]) from ground endpoints (user terminals,
//! ground stations, data centers). Edge weights are one-way propagation
//! delays in seconds; shortest paths therefore minimize latency, matching
//! how the paper computes its RTT numbers (propagation only, §3.1).
//!
//! The reference oracle: no library code routes through this graph. The
//! CSR [`RoutingEngine`](crate::engine::RoutingEngine) answers every
//! query and is tested against it; it stays public for those tests and
//! for the benchmark's legacy-router probes.

use leo_constellation::SatId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A node in the network graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NodeId {
    /// A satellite.
    Sat(SatId),
    /// A ground endpoint, identified by an index the caller assigns.
    Ground(u32),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Sat(s) => write!(f, "{s}"),
            NodeId::Ground(g) => write!(f, "gnd{g}"),
        }
    }
}

/// A shortest path: ordered nodes and the total one-way delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Path {
    /// Nodes from source to destination, inclusive.
    pub nodes: Vec<NodeId>,
    /// Total one-way propagation delay, seconds.
    pub delay_s: f64,
}

impl Path {
    /// Round-trip time, milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        2.0 * self.delay_s * 1e3
    }
}

/// A weighted undirected graph over [`NodeId`]s.
///
/// Build one per snapshot: insert the ISL edges and the ground up/down
/// links in view, then run [`NetworkGraph::shortest_path`] /
/// [`NetworkGraph::shortest_paths_from`].
#[derive(Debug, Clone, Default)]
pub struct NetworkGraph {
    /// Dense node storage; edges index into it.
    nodes: Vec<NodeId>,
    /// node → its index.
    index: std::collections::HashMap<NodeId, usize>,
    /// adjacency: `(neighbor_index, delay_s)`.
    adj: Vec<Vec<(usize, f64)>>,
}

impl NetworkGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures a node exists, returning its dense index.
    pub fn add_node(&mut self, node: NodeId) -> usize {
        if let Some(&i) = self.index.get(&node) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(node);
        self.index.insert(node, i);
        self.adj.push(Vec::new());
        i
    }

    /// Adds an undirected edge with a one-way delay in seconds.
    ///
    /// # Panics
    /// Panics on negative or non-finite delays — those would corrupt
    /// Dijkstra's invariant.
    fn add_edge(&mut self, a: NodeId, b: NodeId, delay_s: f64) {
        assert!(
            delay_s.is_finite() && delay_s >= 0.0,
            "invalid edge delay {delay_s}"
        );
        let ia = self.add_node(a);
        let ib = self.add_node(b);
        self.adj[ia].push((ib, delay_s));
        self.adj[ib].push((ia, delay_s));
    }

    /// Adds an undirected edge weighted by distance at light speed.
    pub fn add_edge_distance(&mut self, a: NodeId, b: NodeId, distance_m: f64) {
        self.add_edge(a, b, distance_m / leo_geo::consts::SPEED_OF_LIGHT_M_S);
    }

    /// Dijkstra from `src`: one-way delay to every reachable node, and the
    /// predecessor array for path extraction.
    fn dijkstra(&self, src: usize) -> (Vec<f64>, Vec<usize>) {
        #[derive(PartialEq)]
        struct Item(f64, usize);
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> Ordering {
                // Min-heap on delay.
                o.0.total_cmp(&self.0)
            }
        }

        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Item(0.0, src));
        while let Some(Item(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Item(nd, v));
                }
            }
        }
        (dist, prev)
    }

    /// Shortest (minimum-delay) path between two nodes, or `None` when
    /// disconnected or absent.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Path> {
        let (&isrc, &idst) = (self.index.get(&src)?, self.index.get(&dst)?);
        let (dist, prev) = self.dijkstra(isrc);
        if dist[idst].is_infinite() {
            return None;
        }
        let mut nodes = vec![self.nodes[idst]];
        let mut cur = idst;
        while cur != isrc {
            cur = prev[cur];
            nodes.push(self.nodes[cur]);
        }
        nodes.reverse();
        Some(Path {
            nodes,
            delay_s: dist[idst],
        })
    }

    /// One-way delays from `src` to every node, as `(node, delay_s)` for
    /// reachable nodes only.
    pub fn shortest_paths_from(&self, src: NodeId) -> Vec<(NodeId, f64)> {
        let Some(&isrc) = self.index.get(&src) else {
            return Vec::new();
        };
        let (dist, _) = self.dijkstra(isrc);
        dist.iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(i, &d)| (self.nodes[i], d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn g(i: u32) -> NodeId {
        NodeId::Ground(i)
    }
    fn s(i: u32) -> NodeId {
        NodeId::Sat(SatId(i))
    }

    #[test]
    fn direct_edge_is_the_shortest_path() {
        let mut net = NetworkGraph::new();
        net.add_edge(g(0), g(1), 5.0);
        let p = net.shortest_path(g(0), g(1)).unwrap();
        assert_eq!(p.nodes, vec![g(0), g(1)]);
        assert_eq!(p.delay_s, 5.0);
    }

    #[test]
    fn dijkstra_prefers_the_cheaper_detour() {
        let mut net = NetworkGraph::new();
        net.add_edge(g(0), g(1), 10.0);
        net.add_edge(g(0), s(0), 2.0);
        net.add_edge(s(0), s(1), 3.0);
        net.add_edge(s(1), g(1), 2.0);
        let p = net.shortest_path(g(0), g(1)).unwrap();
        assert_eq!(p.delay_s, 7.0);
        assert_eq!(p.nodes, vec![g(0), s(0), s(1), g(1)]);
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut net = NetworkGraph::new();
        net.add_node(g(0));
        net.add_node(g(1));
        assert!(net.shortest_path(g(0), g(1)).is_none());
    }

    #[test]
    fn absent_nodes_yield_none() {
        let net = NetworkGraph::new();
        assert!(net.shortest_path(g(0), g(1)).is_none());
    }

    #[test]
    fn path_to_self_is_empty_with_zero_delay() {
        let mut net = NetworkGraph::new();
        net.add_node(g(0));
        let p = net.shortest_path(g(0), g(0)).unwrap();
        assert_eq!(p.delay_s, 0.0);
        assert_eq!(p.nodes, vec![g(0)]);
    }

    #[test]
    fn rtt_is_twice_the_one_way_delay_in_ms() {
        let mut net = NetworkGraph::new();
        net.add_edge(g(0), g(1), 0.008);
        let p = net.shortest_path(g(0), g(1)).unwrap();
        assert!((p.rtt_ms() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn distance_edges_use_light_speed() {
        let mut net = NetworkGraph::new();
        net.add_edge_distance(g(0), s(0), 299_792_458.0);
        let p = net.shortest_path(g(0), s(0)).unwrap();
        assert!((p.delay_s - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid edge delay")]
    fn negative_delays_are_rejected() {
        let mut net = NetworkGraph::new();
        net.add_edge(g(0), g(1), -1.0);
    }

    #[test]
    fn shortest_paths_from_covers_the_component() {
        let mut net = NetworkGraph::new();
        net.add_edge(g(0), s(0), 1.0);
        net.add_edge(s(0), s(1), 1.0);
        net.add_node(g(9)); // isolated
        let all = net.shortest_paths_from(g(0));
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(n, _)| *n != g(9)));
    }

    proptest! {
        /// Triangle inequality: adding an intermediate node never makes the
        /// reported shortest path longer than any 2-hop alternative.
        #[test]
        fn prop_shortest_path_is_minimal(
            w01 in 0.1..10.0f64,
            w02 in 0.1..10.0f64,
            w12 in 0.1..10.0f64,
        ) {
            let mut net = NetworkGraph::new();
            net.add_edge(g(0), g(1), w01);
            net.add_edge(g(0), g(2), w02);
            net.add_edge(g(1), g(2), w12);
            let p = net.shortest_path(g(0), g(1)).unwrap();
            prop_assert!(p.delay_s <= w01 + 1e-12);
            prop_assert!(p.delay_s <= w02 + w12 + 1e-12);
            prop_assert!((p.delay_s - w01.min(w02 + w12)).abs() < 1e-12);
        }

        /// Dijkstra distances satisfy the triangle inequality pairwise on a
        /// random graph.
        #[test]
        fn prop_distances_satisfy_triangle_inequality(
            edges in proptest::collection::vec((0u32..8, 0u32..8, 0.1..5.0f64), 5..30),
        ) {
            let mut net = NetworkGraph::new();
            for node in 0..8 { net.add_node(g(node)); }
            for (a, b, w) in edges {
                if a != b { net.add_edge(g(a), g(b), w); }
            }
            let d0: std::collections::HashMap<_, _> =
                net.shortest_paths_from(g(0)).into_iter().collect();
            for mid in 1..8u32 {
                let Some(&dm) = d0.get(&g(mid)) else { continue };
                let dmid: std::collections::HashMap<_, _> =
                    net.shortest_paths_from(g(mid)).into_iter().collect();
                for tgt in 1..8u32 {
                    if let (Some(&dt), Some(&dmt)) = (d0.get(&g(tgt)), dmid.get(&g(tgt))) {
                        prop_assert!(dt <= dm + dmt + 1e-9);
                    }
                }
            }
        }
    }
}
