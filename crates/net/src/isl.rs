//! Inter-satellite-link (ISL) topology.
//!
//! The planned constellations carry laser ISLs. The de-facto standard
//! connectivity assumption in the literature (and in the paper's group's
//! own topology work, "Network topology design at 27,000 km/hour") is
//! **+Grid**: each satellite links to the satellite ahead and behind in
//! its own plane, and to the nearest-slot satellite in each adjacent
//! plane — four links per satellite, within a shell. Cross-shell ISLs are
//! not assumed.
//!
//! Links are only usable when the straight-line path clears the Earth's
//! atmosphere; [`line_of_sight_clear`] enforces a grazing altitude, and
//! every topology here uses [`GRAZING_ALTITUDE_M`].

use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::consts::EARTH_RADIUS_MEAN_M;
use leo_geo::Ecef;
use serde::{Deserialize, Serialize};

/// Minimum altitude (meters) an ISL ray must keep above the surface; laser
/// links grazing the thick atmosphere are unusable. 80 km is the common
/// assumption (top of the mesosphere).
pub const GRAZING_ALTITUDE_M: f64 = 80_000.0;

/// True when the straight line between two ECEF points stays at least
/// `grazing_altitude_m` above the (spherical) Earth surface.
pub fn line_of_sight_clear(a: Ecef, b: Ecef, grazing_altitude_m: f64) -> bool {
    let limit = EARTH_RADIUS_MEAN_M + grazing_altitude_m;
    // Distance from the origin to the segment a-b.
    let ab = b.0 - a.0;
    let len2 = ab.norm_squared();
    if len2 == 0.0 {
        return a.0.norm() >= limit;
    }
    let t = (-a.0.dot(ab) / len2).clamp(0.0, 1.0);
    let closest = a.0 + ab * t;
    closest.norm() >= limit
}

/// One undirected inter-satellite link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IslEdge {
    /// One endpoint (always the smaller id).
    pub a: SatId,
    /// The other endpoint.
    pub b: SatId,
}

impl IslEdge {
    fn new(x: SatId, y: SatId) -> Self {
        if x <= y {
            IslEdge { a: x, b: y }
        } else {
            IslEdge { a: y, b: x }
        }
    }
}

/// The static +Grid ISL topology of a constellation (edges don't change
/// over time; only their lengths do).
#[derive(Debug, Clone)]
pub struct IslTopology {
    edges: Vec<IslEdge>,
    /// Adjacency: neighbor satellite ids, indexed by `SatId.0`.
    neighbors: Vec<Vec<SatId>>,
}

impl IslTopology {
    /// Intra-plane rings only (no cross-plane lasers) — the ablation
    /// baseline for the topology comparison in DESIGN.md §6. Cheaper
    /// terminals, but cross-plane traffic must ride the ground segment.
    pub fn ring_only(constellation: &Constellation) -> Self {
        let mut edges = Vec::new();
        for (shell_idx, shell) in constellation.shells().iter().enumerate() {
            let shell_idx = shell_idx as u32;
            if shell.sats_per_plane < 2 {
                continue;
            }
            for plane in 0..shell.num_planes {
                for slot in 0..shell.sats_per_plane {
                    let here = constellation.id_at(shell_idx, plane, slot);
                    let next =
                        constellation.id_at(shell_idx, plane, (slot + 1) % shell.sats_per_plane);
                    edges.push(IslEdge::new(here, next));
                }
            }
        }
        edges.sort_by_key(|e| (e.a, e.b));
        edges.dedup();
        let mut neighbors = vec![Vec::new(); constellation.num_satellites()];
        for e in &edges {
            neighbors[e.a.0 as usize].push(e.b);
            neighbors[e.b.0 as usize].push(e.a);
        }
        IslTopology { edges, neighbors }
    }

    /// No inter-satellite links at all — bent-pipe operation, every
    /// satellite hop must bounce through a ground station.
    pub fn none(constellation: &Constellation) -> Self {
        IslTopology {
            edges: Vec::new(),
            neighbors: vec![Vec::new(); constellation.num_satellites()],
        }
    }

    /// Builds the +Grid topology for every shell of the constellation.
    pub fn plus_grid(constellation: &Constellation) -> Self {
        // Within a shell every satellite shares the same semi-major axis,
        // eccentricity, and inclination, so the shell's relative geometry
        // is rigid over time: the nearest adjacent-plane neighbor at the
        // epoch stays the nearest forever. Evaluate positions once at t=0.
        let epoch_positions: Vec<_> = constellation
            .satellites()
            .iter()
            .map(|s| s.propagator.position_eci(0.0).0)
            .collect();
        let mut set = std::collections::HashSet::new();
        for (shell_idx, shell) in constellation.shells().iter().enumerate() {
            let shell_idx = shell_idx as u32;
            let planes = shell.num_planes;
            let spp = shell.sats_per_plane;
            for plane in 0..planes {
                for slot in 0..spp {
                    let here = constellation.id_at(shell_idx, plane, slot);
                    // Intra-plane ring: next slot (prev is covered by the
                    // next slot's own edge).
                    if spp > 1 {
                        let next = constellation.id_at(shell_idx, plane, (slot + 1) % spp);
                        set.insert(IslEdge::new(here, next));
                    }
                    // Inter-plane: nearest satellite in the next plane.
                    // With uniform Walker phasing the nearest-slot offset
                    // is the same for every slot, so this mapping is a
                    // bijection and every satellite keeps degree 4. Naive
                    // same-slot linking breaks at the plane-wrap seam,
                    // where the accumulated phase offset approaches 180°.
                    if planes > 1 {
                        let next_plane = (plane + 1) % planes;
                        let nearest = (0..spp)
                            .map(|s2| constellation.id_at(shell_idx, next_plane, s2))
                            .min_by(|&x, &y| {
                                let dx = epoch_positions[here.0 as usize]
                                    .distance(epoch_positions[x.0 as usize]);
                                let dy = epoch_positions[here.0 as usize]
                                    .distance(epoch_positions[y.0 as usize]);
                                dx.total_cmp(&dy)
                            })
                            .expect("non-empty plane");
                        set.insert(IslEdge::new(here, nearest));
                    }
                }
            }
        }
        let mut edges: Vec<IslEdge> = set.into_iter().collect();
        edges.sort_by_key(|e| (e.a, e.b));
        let mut neighbors = vec![Vec::new(); constellation.num_satellites()];
        for e in &edges {
            neighbors[e.a.0 as usize].push(e.b);
            neighbors[e.b.0 as usize].push(e.a);
        }
        IslTopology { edges, neighbors }
    }

    /// All undirected edges.
    pub fn edges(&self) -> &[IslEdge] {
        &self.edges
    }

    /// ISL neighbors of one satellite.
    pub fn neighbors(&self, id: SatId) -> &[SatId] {
        &self.neighbors[id.0 as usize]
    }

    /// Edge lengths at a snapshot, skipping edges whose line of sight is
    /// blocked by the Earth. Returns `(edge, length_m)` pairs.
    pub fn active_edges(&self, snapshot: &Snapshot) -> Vec<(IslEdge, f64)> {
        self.edges
            .iter()
            .filter_map(|&e| {
                let pa = snapshot.position(e.a);
                let pb = snapshot.position(e.b);
                line_of_sight_clear(pa, pb, GRAZING_ALTITUDE_M).then(|| (e, pa.distance_m(pb)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    #[test]
    fn line_of_sight_between_opposite_sides_is_blocked() {
        let a = Geodetic::from_degrees(0.0, 0.0, 550e3).to_ecef_spherical();
        let b = Geodetic::from_degrees(0.0, 180.0, 550e3).to_ecef_spherical();
        assert!(!line_of_sight_clear(a, b, GRAZING_ALTITUDE_M));
    }

    #[test]
    fn line_of_sight_between_neighbors_is_clear() {
        let a = Geodetic::from_degrees(0.0, 0.0, 550e3).to_ecef_spherical();
        let b = Geodetic::from_degrees(0.0, 20.0, 550e3).to_ecef_spherical();
        assert!(line_of_sight_clear(a, b, GRAZING_ALTITUDE_M));
    }

    #[test]
    fn grazing_altitude_tightens_the_rule() {
        // Two satellites whose connecting ray grazes ~200 km altitude.
        let a = Geodetic::from_degrees(0.0, -21.0, 550e3).to_ecef_spherical();
        let b = Geodetic::from_degrees(0.0, 21.0, 550e3).to_ecef_spherical();
        assert!(line_of_sight_clear(a, b, 80e3));
        assert!(!line_of_sight_clear(a, b, 400e3));
    }

    #[test]
    fn plus_grid_gives_each_satellite_four_neighbors() {
        let c = presets::starlink_550_only();
        let topo = IslTopology::plus_grid(&c);
        for sat in c.satellites() {
            assert_eq!(
                topo.neighbors(sat.id).len(),
                4,
                "sat {} has wrong degree",
                sat.id
            );
        }
        // Edge count = 2 per satellite (4 endpoints / 2).
        assert_eq!(topo.edges().len(), c.num_satellites() * 2);
    }

    #[test]
    fn edges_stay_within_a_shell() {
        let c = presets::starlink_phase1();
        let topo = IslTopology::plus_grid(&c);
        for e in topo.edges() {
            assert_eq!(
                c.satellite(e.a).shell,
                c.satellite(e.b).shell,
                "cross-shell edge {e:?}"
            );
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let c = presets::kuiper();
        let topo = IslTopology::plus_grid(&c);
        for sat in c.satellites() {
            for &n in topo.neighbors(sat.id) {
                assert!(topo.neighbors(n).contains(&sat.id));
            }
        }
    }

    #[test]
    fn plus_grid_links_are_short_and_unobstructed() {
        let c = presets::starlink_550_only();
        let topo = IslTopology::plus_grid(&c);
        let snap = c.snapshot(0.0);
        let active = topo.active_edges(&snap);
        // +Grid neighbors at 550 km are always mutually visible.
        assert_eq!(active.len(), topo.edges().len());
        for (e, len) in active {
            assert!(
                len < 6_000e3,
                "edge {e:?} is {} km — not a neighbor link",
                len / 1e3
            );
        }
    }

    #[test]
    fn grid_is_connected() {
        // BFS from satellite 0 must reach the whole 550 km shell.
        let c = presets::starlink_550_only();
        let topo = IslTopology::plus_grid(&c);
        let mut seen = vec![false; c.num_satellites()];
        let mut queue = std::collections::VecDeque::from([SatId(0)]);
        seen[0] = true;
        let mut count = 1;
        while let Some(s) = queue.pop_front() {
            for &n in topo.neighbors(s) {
                if !seen[n.0 as usize] {
                    seen[n.0 as usize] = true;
                    count += 1;
                    queue.push_back(n);
                }
            }
        }
        assert_eq!(count, c.num_satellites());
    }

    #[test]
    fn ring_only_topology_has_degree_two() {
        let c = presets::starlink_550_only();
        let topo = IslTopology::ring_only(&c);
        for sat in c.satellites() {
            assert_eq!(topo.neighbors(sat.id).len(), 2);
        }
        assert_eq!(topo.edges().len(), c.num_satellites());
    }

    #[test]
    fn ring_only_is_disconnected_across_planes() {
        // BFS from sat 0 must stay inside its own plane.
        let c = presets::starlink_550_only();
        let topo = IslTopology::ring_only(&c);
        let mut seen = std::collections::HashSet::from([SatId(0)]);
        let mut queue = std::collections::VecDeque::from([SatId(0)]);
        while let Some(s) = queue.pop_front() {
            for &n in topo.neighbors(s) {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        assert_eq!(seen.len(), 22, "one plane of 22 satellites");
    }

    #[test]
    fn none_topology_is_empty() {
        let c = presets::starlink_550_only();
        let topo = IslTopology::none(&c);
        assert!(topo.edges().is_empty());
        assert!(topo.active_edges(&c.snapshot(0.0)).is_empty());
        for sat in c.satellites() {
            assert!(topo.neighbors(sat.id).is_empty());
        }
    }

    #[test]
    fn degenerate_single_plane_shell_builds_a_ring() {
        use leo_constellation::{Constellation, ShellSpec, WalkerPattern};
        use leo_geo::Angle;
        let c = Constellation::from_shells(
            "ring",
            vec![ShellSpec {
                name: "ring".into(),
                altitude_m: 550e3,
                inclination: Angle::from_degrees(53.0),
                num_planes: 1,
                sats_per_plane: 6,
                phase_factor: 0,
                pattern: WalkerPattern::Delta,
                min_elevation: Angle::from_degrees(25.0),
            }],
        );
        let topo = IslTopology::plus_grid(&c);
        assert_eq!(topo.edges().len(), 6); // pure ring
        for sat in c.satellites() {
            assert_eq!(topo.neighbors(sat.id).len(), 2);
        }
    }
}
