//! The incremental CSR routing engine.
//!
//! The reference router, [`build_graph`](crate::routing::build_graph),
//! reconstructs a `HashMap`-backed
//! [`NetworkGraph`](crate::graph::NetworkGraph) from scratch at every
//! snapshot. The +Grid ISL structure never changes, though: only edge
//! lengths (and the occasional Earth-occluded link) vary with time.
//! [`RoutingEngine`] exploits that split, and is the only router the
//! library itself runs — delay queries, bulk and multi-source settles,
//! and the hop lists that state migration hands to the packet engine
//! ([`RoutingEngine::sat_to_sat_path`]), so hand-off loops no longer
//! rebuild a graph per route segment:
//!
//! * **compile once** — the ISL adjacency is flattened into a compressed
//!   sparse row (CSR) array over dense satellite indices at construction;
//! * **refresh per snapshot** — [`RoutingEngine::refresh_into`] rewrites
//!   only the weights in place, each edge's one-way delay into both of
//!   its directed CSR slots (`INFINITY` marks an occluded link; an
//!   infinite weight can never relax a vertex, so inactive edges need no
//!   flag of their own);
//! * **attach per query group** — ground endpoints occupy indices after
//!   the satellites; [`RoutingEngine::attach`] wires their up/down links
//!   from a visibility query into a small two-sided CSR
//!   ([`GroundLinks`]);
//! * **query with a reusable arena** — Dijkstra runs against the CSR
//!   arrays with caller-owned scratch buffers ([`DijkstraArena`]) whose
//!   clears are O(touched) via generation stamps, plus an early-exit
//!   variant for single-target queries and a path variant that keeps
//!   predecessors.
//!
//! Three loops settle nodes. Delay, bulk and multi-source queries all go
//! through one private `settle`, the only place that picks a queue: the
//! monotone bucket loop (the hot path) when the smallest edge weight
//! allows it, else the one binary-heap loop. That heap loop also runs the
//! arg-min frontier, carrying a source label per node. The path query
//! keeps its own heap loop, which pops delay ties in the reference
//! graph's order.
//!
//! Delays are **bit-identical** to the brute-force
//! `build_graph` + Dijkstra path: the same edge set, the same weights
//! (`distance_m / c`, computed the same way), and the same left-to-right
//! association of path sums from the same source vertex. Hop lists match
//! too: a predecessor is recorded only on a strict improvement, the rule
//! the graph's Dijkstra uses. Property tests in `tests/engine_vs_graph.rs`
//! pin both on randomized snapshots.

use crate::fault::FaultPlan;
use crate::index::VisibilityIndex;
use crate::isl::{line_of_sight_clear, IslTopology, GRAZING_ALTITUDE_M};
use crate::routing::GroundEndpoint;
use crate::visibility::visible_sats;
use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::consts::SPEED_OF_LIGHT_M_S;
use leo_geo::Ecef;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The compiled, time-invariant half of the routing state: the +Grid ISL
/// adjacency in CSR form over dense satellite indices `0..num_sats`.
/// Ground endpoints, when attached, occupy indices `num_sats..`.
#[derive(Debug, Clone)]
pub struct RoutingEngine {
    num_sats: usize,
    /// CSR row offsets: satellite `i`'s slots are `offsets[i]..offsets[i+1]`.
    offsets: Vec<u32>,
    /// Neighbor satellite index per slot.
    targets: Vec<u32>,
    /// Endpoint indices per undirected edge id.
    edge_ends: Vec<(u32, u32)>,
    /// The two directed slots of each undirected edge, which both hold
    /// its weight in [`IslWeights`].
    slots_of_edge: Vec<[u32; 2]>,
}

/// Per-snapshot ISL weights (one-way delay, seconds) for a compiled
/// engine, one per directed CSR slot so the Dijkstra inner loop streams
/// one contiguous array; both slots of an edge hold its weight, and
/// `INFINITY` marks an Earth-occluded or masked link. This is the only
/// routing state that changes between instants — refresh it in place
/// and share it across every query at that instant.
#[derive(Debug, Clone, Default)]
pub struct IslWeights {
    slots: Vec<f64>,
    /// Smallest finite weight, or `INFINITY` when every link is occluded
    /// — the bucket width of the monotone queue.
    min_finite: f64,
    /// Fingerprint of the inputs of the last
    /// [`RoutingEngine::refresh_delta`], which alone writes and reads it.
    /// A full refresh resets it to `None`, so weights it wrote are cold
    /// to the next delta.
    inputs: Option<RefreshInputs>,
}

/// The exact inputs of the last delta refresh: per-satellite position
/// bits and per-edge mask status. An edge whose fingerprint entries are
/// unchanged would get bit-for-bit the same weight from a full refresh —
/// the same positions through the same expressions — so the delta path
/// can skip it *provably*, not approximately.
#[derive(Debug, Clone, Default)]
struct RefreshInputs {
    /// `(x, y, z)` bit patterns per satellite at the last delta.
    sat_bits: Vec<[u64; 3]>,
    /// Whether the fault plan masked each edge at the last delta.
    masked: Vec<bool>,
}

/// The exact bit patterns of a position, the fingerprint's unit.
fn position_bits(p: &Ecef) -> [u64; 3] {
    [p.0.x.to_bits(), p.0.y.to_bits(), p.0.z.to_bits()]
}

/// What one [`RoutingEngine::refresh_delta`] call did — the change-rate
/// telemetry the serving layer reports per snapshot step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Compiled undirected edges.
    pub edges: usize,
    /// Edges whose weight had to be recomputed: an endpoint position's
    /// bits changed, or the fault-mask status flipped.
    pub recomputed: usize,
    /// Recomputed edges whose weight actually differs from the stored
    /// value (and therefore got written back).
    pub changed: usize,
    /// True when no usable fingerprint existed and the call degenerated
    /// to a full refresh: a cold buffer, weights a full refresh wrote,
    /// or a size mismatch.
    pub full_rebuild: bool,
}

impl DeltaStats {
    /// Edges skipped as provably unchanged.
    pub fn skipped(&self) -> usize {
        self.edges - self.recomputed
    }
}

impl IslWeights {
    /// Number of compiled edges.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True when the engine compiled no ISL edges.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of edges currently usable (finite weight).
    #[cfg(test)]
    fn active_edges(&self) -> usize {
        self.slots.iter().filter(|d| d.is_finite()).count() / 2
    }

    /// True when `other` holds bit-for-bit the same weights: every
    /// directed slot and `min_finite` compare equal as bit patterns (so
    /// `INFINITY == INFINITY`, unlike `f64` equality on whole-slice
    /// compares with NaN semantics in mind). The delta fingerprint is not
    /// compared. The delta-refresh identity guarantee is stated — and
    /// CI-gated — in terms of this predicate.
    pub fn bits_eq(&self, other: &IslWeights) -> bool {
        self.slots.len() == other.slots.len()
            && self.min_finite.to_bits() == other.min_finite.to_bits()
            && self
                .slots
                .iter()
                .zip(&other.slots)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Up/down links of one ground-endpoint group at one instant, as a
/// two-sided CSR: per ground its visible satellites, and per satellite
/// the grounds that see it. Attach once per (snapshot, group) and run any
/// number of queries against it.
#[derive(Debug, Clone)]
pub struct GroundLinks {
    num_sats: usize,
    /// Ground `g`'s up-links are `up[up_offsets[g]..up_offsets[g+1]]`.
    up_offsets: Vec<u32>,
    /// `(satellite index, one-way delay seconds)`.
    up: Vec<(u32, f64)>,
    /// Satellite `s`'s down-links are `down[down_offsets[s]..down_offsets[s+1]]`.
    down_offsets: Vec<u32>,
    /// `(ground slot, one-way delay seconds)`.
    down: Vec<(u32, f64)>,
    /// Smallest up-link weight (seconds), `INFINITY` when no ground sees
    /// any satellite.
    min_up: f64,
}

impl GroundLinks {
    /// Number of attached ground endpoints.
    fn num_grounds(&self) -> usize {
        self.up_offsets.len() - 1
    }

    fn up_of(&self, g: usize) -> &[(u32, f64)] {
        &self.up[self.up_offsets[g] as usize..self.up_offsets[g + 1] as usize]
    }

    fn down_of(&self, s: usize) -> &[(u32, f64)] {
        &self.down[self.down_offsets[s] as usize..self.down_offsets[s + 1] as usize]
    }
}

/// One node's scratch state, packed to 16 bytes so a relaxation touches
/// a single cache line instead of three parallel arrays.
#[derive(Debug, Clone, Copy)]
struct NodeScratch {
    dist: f64,
    stamp: u32,
}

/// Below this bucket width (seconds — about 3 km of path) the monotone
/// bucket queue could need an unbounded number of buckets, so queries
/// fall back to the binary heap. Physical constellations sit far above
/// it: the shortest possible link is one satellite altitude (> 300 km).
const MIN_BUCKET_WIDTH_S: f64 = 1e-5;

/// Where a search keeps tentative distances. Two implementations: the
/// generation-stamped scratch (early-exit queries — only touched nodes
/// pay) and a caller's plain output row (bulk full-settle queries — no
/// stamp branches, and the result needs no extraction pass).
trait DistStore {
    fn dist_of(&self, v: u32) -> f64;
    fn set(&mut self, v: u32, d: f64);
}

/// Generation-stamped distances: an entry is valid only when its stamp
/// matches the current generation, so a new query clears O(1) state.
#[derive(Debug, Default)]
struct StampedScratch {
    nodes: Vec<NodeScratch>,
    gen: u32,
}

impl StampedScratch {
    /// Starts a new query over `n` nodes: bumps the generation (O(1))
    /// and grows the buffer if this query is larger than any before.
    fn begin(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(
                n,
                NodeScratch {
                    dist: f64::INFINITY,
                    stamp: 0,
                },
            );
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped after 2^32 queries: stamps from the previous cycle
            // could alias generation 0, so clear them once.
            for s in &mut self.nodes {
                s.stamp = 0;
            }
            self.gen = 1;
        }
    }
}

impl DistStore for StampedScratch {
    #[inline]
    fn dist_of(&self, v: u32) -> f64 {
        let s = &self.nodes[v as usize];
        if s.stamp == self.gen {
            s.dist
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, v: u32, d: f64) {
        self.nodes[v as usize] = NodeScratch {
            dist: d,
            stamp: self.gen,
        };
    }
}

/// Distances kept directly in an `INFINITY`-prefilled slice.
struct SliceStore<'a>(&'a mut [f64]);

impl DistStore for SliceStore<'_> {
    #[inline]
    fn dist_of(&self, v: u32) -> f64 {
        self.0[v as usize]
    }

    #[inline]
    fn set(&mut self, v: u32, d: f64) {
        self.0[v as usize] = d;
    }
}

/// A path-search heap entry ordered by delay alone, exactly like the
/// entries of the reference graph's Dijkstra: equal delays compare
/// equal, so for the same push sequence the std heap pops exact ties in
/// the same order, and the recovered route is the one the graph returns
/// even where two routes have bit-identical delays.
#[derive(Debug, Clone, Copy)]
struct PathItem {
    /// Bits of a non-negative delay, which order like the delay itself.
    delay_bits: u64,
    node: u32,
}

impl PartialEq for PathItem {
    fn eq(&self, other: &Self) -> bool {
        self.delay_bits == other.delay_bits
    }
}

impl Eq for PathItem {}

impl PartialOrd for PathItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PathItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on delay.
        other.delay_bits.cmp(&self.delay_bits)
    }
}

/// A minimum-delay satellite-to-satellite route over the ISL mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct SatPath {
    /// One-way propagation delay, seconds — bit-identical to
    /// [`RoutingEngine::sat_to_sat_delay`] without ground links.
    pub delay_s: f64,
    /// Satellites from source to destination, inclusive.
    pub sats: Vec<SatId>,
}

/// Reusable Dijkstra scratch: stamped distance entries plus the priority
/// queues. One arena per worker thread; a single arena serves any number
/// of queries of any size.
#[derive(Debug, Default)]
pub struct DijkstraArena {
    scratch: StampedScratch,
    /// Per-node predecessors for [`RoutingEngine::sat_to_sat_path`]; grown
    /// on demand and never cleared (every node on a recovered route was
    /// improved, and so written, by the same query).
    preds: Vec<u32>,
    /// The path search's heap, in the reference graph's order.
    path_heap: BinaryHeap<PathItem>,
    /// The shared searches' queues.
    queues: Queues,
    /// Per-node winning-source labels for the arg-min settle
    /// ([`RoutingEngine::multi_source_ground_frontier_into`]); resized
    /// and reset per query, reused across queries.
    labels: Vec<u32>,
}

impl DijkstraArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The two priority queues a shared search settles from.
#[derive(Debug, Default)]
struct Queues {
    /// Monotone bucket queue: `(node, tentative delay)` by
    /// `delay / width` bucket. With the width at most the smallest edge
    /// weight, every pop from the lowest non-empty bucket is final, so
    /// this settles in a valid label-setting order with O(1) queue ops.
    buckets: Vec<Vec<(u32, f64)>>,
    /// Fallback min-heap of `delay bits << 32 | node` — non-negative
    /// finite `f64` bit patterns order like the floats themselves, so one
    /// integer compare replaces `total_cmp` plus a tie-break.
    heap: BinaryHeap<Reverse<u128>>,
}

/// Local Dijkstra work tallies — plain register increments on the hot
/// path, flushed to the process-wide [`leo_obs`] counters once per query
/// on drop (covering every return path of the searches).
#[derive(Default)]
struct SearchTally {
    /// Nodes settled (stale queue copies excluded).
    pops: u64,
    /// Successful edge relaxations (tentative-distance improvements).
    relaxations: u64,
}

impl Drop for SearchTally {
    fn drop(&mut self) {
        if self.pops != 0 || self.relaxations != 0 {
            leo_obs::counter!("engine.dijkstra.pops").add(self.pops);
            leo_obs::counter!("engine.dijkstra.relaxations").add(self.relaxations);
        }
    }
}

/// Pushes into the bucket for `d`, growing the bucket array as needed.
#[inline]
fn bucket_push(buckets: &mut Vec<Vec<(u32, f64)>>, v: u32, d: f64, inv_width: f64) {
    let b = (d * inv_width) as usize;
    if b >= buckets.len() {
        buckets.resize_with(b + 1, Vec::new);
    }
    buckets[b].push((v, d));
}

/// Packs a non-negative delay and a node index into one ordered heap key.
#[inline]
fn heap_key(d: f64, v: u32) -> u128 {
    ((d.to_bits() as u128) << 32) | v as u128
}

impl RoutingEngine {
    /// Compiles the CSR adjacency of `topology` over `constellation`'s
    /// satellites. Run once per constellation; the result is immutable
    /// and shareable across threads.
    pub fn compile(constellation: &Constellation, topology: &IslTopology) -> Self {
        let num_sats = constellation.num_satellites();
        let edges = topology.edges();
        // Counting sort into CSR: degree count, prefix sum, placement.
        let mut offsets = vec![0u32; num_sats + 1];
        for e in edges {
            offsets[e.a.0 as usize + 1] += 1;
            offsets[e.b.0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = *offsets.last().unwrap() as usize;
        let mut targets = vec![0u32; total];
        let mut cursor = offsets[..num_sats].to_vec();
        let mut edge_ends = Vec::with_capacity(edges.len());
        let mut slots_of_edge = vec![[0u32; 2]; edges.len()];
        for (id, e) in edges.iter().enumerate() {
            let (a, b) = (e.a.0, e.b.0);
            for (dir, (from, to)) in [(a, b), (b, a)].into_iter().enumerate() {
                let slot = cursor[from as usize] as usize;
                targets[slot] = to;
                slots_of_edge[id][dir] = slot as u32;
                cursor[from as usize] += 1;
            }
            edge_ends.push((a, b));
        }
        RoutingEngine {
            num_sats,
            offsets,
            targets,
            edge_ends,
            slots_of_edge,
        }
    }

    /// Number of satellites (dense node indices `0..num_sats`).
    pub fn num_sats(&self) -> usize {
        self.num_sats
    }

    /// Edge weights at `snapshot` under `plan`, freshly allocated. Prefer
    /// [`RoutingEngine::refresh_into`] when a buffer can be reused.
    pub fn refresh(&self, snapshot: &Snapshot, plan: &FaultPlan) -> IslWeights {
        let mut w = IslWeights::default();
        self.refresh_into(snapshot, plan, &mut w);
        w
    }

    /// Rewrites `weights` in place for `snapshot` under `plan`: one-way
    /// delay per edge, written into both of its directed slots,
    /// `INFINITY` where the straight line dips into the atmosphere or
    /// where the plan masks the edge (a dead endpoint), so no search can
    /// relax through it. Records no delta fingerprint. Under a non-empty
    /// plan, masked edges that would otherwise be up are tallied in the
    /// `fault.masked_isl_edges` counter — per refresh, so a service's
    /// snapshot views add to it only once a route query has read their
    /// weights: the counter sums over the views that routed, not over
    /// every instant a run touched.
    pub fn refresh_into(&self, snapshot: &Snapshot, plan: &FaultPlan, weights: &mut IslWeights) {
        let _span = leo_obs::span!("engine.refresh_s");
        let plan_empty = plan.is_empty();
        // A fingerprint left from an earlier delta no longer describes
        // these weights; a delta that trusted it would skip edges that
        // moved.
        weights.inputs = None;
        weights.slots.resize(self.targets.len(), f64::INFINITY);
        let mut min_finite = f64::INFINITY;
        let mut masked = 0u64;
        for (&(a, b), &[s1, s2]) in self.edge_ends.iter().zip(&self.slots_of_edge) {
            let mut w = self.edge_weight(snapshot, a, b);
            if !plan_empty && plan.isl_edge_masked(SatId(a), SatId(b)) {
                masked += u64::from(w.is_finite());
                w = f64::INFINITY;
            }
            weights.slots[s1 as usize] = w;
            weights.slots[s2 as usize] = w;
            min_finite = min_finite.min(w);
        }
        weights.min_finite = min_finite;
        if !plan_empty {
            leo_obs::counter!("fault.masked_isl_edges").add(masked);
        }
    }

    /// The unmasked weight of edge `a`–`b` at `snapshot`: one-way delay,
    /// or `INFINITY` when the line of sight is Earth-occluded. Full and
    /// delta refreshes share it, so a recomputed weight lands on the bits
    /// a full refresh produces.
    #[inline]
    fn edge_weight(&self, snapshot: &Snapshot, a: u32, b: u32) -> f64 {
        let pa = snapshot.position(SatId(a));
        let pb = snapshot.position(SatId(b));
        if line_of_sight_clear(pa, pb, GRAZING_ALTITUDE_M) {
            pa.distance_m(pb) / SPEED_OF_LIGHT_M_S
        } else {
            f64::INFINITY
        }
    }

    /// Incremental [`RoutingEngine::refresh_into`]: recomputes only the
    /// edges whose endpoint positions changed, or whose mask status under
    /// `plan` flipped, since the previous delta on `weights`. The output
    /// is **bit-for-bit** what a full refresh would produce
    /// (`IslWeights::bits_eq` — property-tested in
    /// `tests/delta_refresh.rs`), from any starting state. "Changed" is
    /// decided on exact position bit patterns recorded by the previous
    /// delta, so a skipped edge is provably identical, never
    /// approximately so; plan-only transitions (the same instant, a new
    /// outage) touch exactly the affected edges. Weights with no
    /// fingerprint (a cold buffer, or weights a full refresh wrote) or of
    /// the wrong size fall back to a full refresh, which records the
    /// fingerprint, and report `full_rebuild`.
    pub fn refresh_delta(
        &self,
        snapshot: &Snapshot,
        plan: &FaultPlan,
        weights: &mut IslWeights,
    ) -> DeltaStats {
        let _span = leo_obs::span!("engine.refresh_delta_s");
        let n_edges = self.edge_ends.len();
        let plan_empty = plan.is_empty();
        let usable = snapshot.len() == self.num_sats
            && weights.slots.len() == self.targets.len()
            && weights
                .inputs
                .as_ref()
                .is_some_and(|c| c.sat_bits.len() == self.num_sats && c.masked.len() == n_edges);
        if !usable {
            self.refresh_into(snapshot, plan, weights);
            weights.inputs = Some(RefreshInputs {
                sat_bits: snapshot.positions.iter().map(position_bits).collect(),
                masked: self
                    .edge_ends
                    .iter()
                    .map(|&(a, b)| !plan_empty && plan.isl_edge_masked(SatId(a), SatId(b)))
                    .collect(),
            });
            let stats = DeltaStats {
                edges: n_edges,
                recomputed: n_edges,
                changed: n_edges,
                full_rebuild: true,
            };
            self.tally_delta(stats);
            return stats;
        }
        let mut inputs = weights.inputs.take().expect("checked above");
        // Which satellites actually moved — exact bit compare, updating
        // the fingerprint in the same pass.
        let mut moved = vec![false; self.num_sats];
        for (i, p) in snapshot.positions.iter().enumerate() {
            let bits = position_bits(p);
            if inputs.sat_bits[i] != bits {
                inputs.sat_bits[i] = bits;
                moved[i] = true;
            }
        }
        let mut recomputed = 0usize;
        let mut changed = 0usize;
        for (e, &(a, b)) in self.edge_ends.iter().enumerate() {
            let now_masked = !plan_empty && plan.isl_edge_masked(SatId(a), SatId(b));
            if !moved[a as usize] && !moved[b as usize] && now_masked == inputs.masked[e] {
                continue;
            }
            recomputed += 1;
            inputs.masked[e] = now_masked;
            let w = if now_masked {
                f64::INFINITY
            } else {
                self.edge_weight(snapshot, a, b)
            };
            let [s1, s2] = self.slots_of_edge[e];
            if w.to_bits() != weights.slots[s1 as usize].to_bits() {
                changed += 1;
                weights.slots[s1 as usize] = w;
                weights.slots[s2 as usize] = w;
            }
        }
        weights.inputs = Some(inputs);
        if changed > 0 {
            // Re-fold the minimum in edge order, exactly as the full
            // refresh accumulates it.
            weights.min_finite = self
                .slots_of_edge
                .iter()
                .map(|&[s, _]| weights.slots[s as usize])
                .fold(f64::INFINITY, f64::min);
        }
        let stats = DeltaStats {
            edges: n_edges,
            recomputed,
            changed,
            full_rebuild: false,
        };
        self.tally_delta(stats);
        stats
    }

    fn tally_delta(&self, stats: DeltaStats) {
        leo_obs::counter!("engine.delta.refreshes").incr();
        leo_obs::counter!("engine.delta.recomputed_edges").add(stats.recomputed as u64);
        leo_obs::counter!("engine.delta.changed_edges").add(stats.changed as u64);
        leo_obs::counter!("engine.delta.skipped_edges").add(stats.skipped() as u64);
        if stats.full_rebuild {
            leo_obs::counter!("engine.delta.full_rebuilds").incr();
            // A self-validating fallback is correct but expensive; make
            // it visible as a point event in the exported trace, where
            // an unexpected burst of rebuilds is much easier to spot
            // than in an end-of-run total.
            leo_obs::trace_instant("engine.delta.full_rebuild");
        }
    }

    /// Wires `grounds` into the node space through a prebuilt
    /// [`VisibilityIndex`] — the hot path: every [`SnapshotView`] already
    /// carries one. Dead satellites and access links the plan's ground
    /// fade cannot close contribute no up/down links.
    ///
    /// [`SnapshotView`]: https://docs.rs/leo-core
    pub fn attach(
        &self,
        index: &VisibilityIndex,
        grounds: &[GroundEndpoint],
        plan: &FaultPlan,
    ) -> GroundLinks {
        self.attach_from(grounds, |gp, out| {
            index.for_each_visible(gp.ecef, plan, |v| out.push((v.id.0, v.range_m)));
        })
    }

    /// Wires `grounds` in by brute-force scan over the snapshot: the
    /// reference that tests and benches compare [`RoutingEngine::attach`]
    /// against (the same links; the index is exact). No library code
    /// calls it.
    pub fn attach_scan(
        &self,
        constellation: &Constellation,
        snapshot: &Snapshot,
        grounds: &[GroundEndpoint],
        plan: &FaultPlan,
    ) -> GroundLinks {
        self.attach_from(grounds, |gp, out| {
            for v in visible_sats(constellation, snapshot, gp.ecef, plan) {
                out.push((v.id.0, v.range_m));
            }
        })
    }

    fn attach_from<F>(&self, grounds: &[GroundEndpoint], mut visible: F) -> GroundLinks
    where
        F: FnMut(&GroundEndpoint, &mut Vec<(u32, f64)>),
    {
        let mut up_offsets = Vec::with_capacity(grounds.len() + 1);
        up_offsets.push(0u32);
        let mut raw: Vec<(u32, f64)> = Vec::new();
        for gp in grounds {
            visible(gp, &mut raw);
            up_offsets.push(raw.len() as u32);
        }
        let up: Vec<(u32, f64)> = raw
            .iter()
            .map(|&(sat, range_m)| (sat, range_m / SPEED_OF_LIGHT_M_S))
            .collect();
        // Transpose into the satellite-side CSR by counting sort.
        let mut down_offsets = vec![0u32; self.num_sats + 1];
        for &(sat, _) in &up {
            down_offsets[sat as usize + 1] += 1;
        }
        for i in 1..down_offsets.len() {
            down_offsets[i] += down_offsets[i - 1];
        }
        let mut down = vec![(0u32, 0.0f64); up.len()];
        let mut cursor = down_offsets[..self.num_sats].to_vec();
        for g in 0..grounds.len() {
            for &(sat, w) in &up[up_offsets[g] as usize..up_offsets[g + 1] as usize] {
                let slot = cursor[sat as usize] as usize;
                down[slot] = (g as u32, w);
                cursor[sat as usize] += 1;
            }
        }
        let min_up = up.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min);
        GroundLinks {
            num_sats: self.num_sats,
            up_offsets,
            up,
            down_offsets,
            down,
            min_up,
        }
    }

    /// The node index of ground slot `g` (position in the attached
    /// group), after all satellites.
    fn ground_node(&self, g: usize) -> u32 {
        (self.num_sats + g) as u32
    }

    /// Dijkstra from node `src`: with `target`, settles nodes until the
    /// target pops and returns its delay (early exit); without, settles
    /// the whole reachable component and returns `None`.
    fn run(
        &self,
        weights: &IslWeights,
        links: Option<&GroundLinks>,
        src: u32,
        target: Option<u32>,
        arena: &mut DijkstraArena,
    ) -> Option<f64> {
        let n = self.num_sats + links.map_or(0, GroundLinks::num_grounds);
        arena.scratch.begin(n);
        let (scratch, queues) = (&mut arena.scratch, &mut arena.queues);
        self.settle(weights, links, [src], target, scratch, queues)
    }

    /// Seeds every node of `sources` at distance zero and settles from
    /// them, with or without a `target` as in [`RoutingEngine::run`].
    ///
    /// The one place a search picks its queue: the monotone bucket queue
    /// when the smallest edge weight allows it, else the binary heap.
    /// Both settle nodes in a valid label-setting order over the same
    /// weights, so each node's final distance is the minimum of the same
    /// relaxation set computed with the same arithmetic — the results are
    /// bit-identical.
    fn settle<S: DistStore>(
        &self,
        weights: &IslWeights,
        links: Option<&GroundLinks>,
        sources: impl IntoIterator<Item = u32>,
        target: Option<u32>,
        store: &mut S,
        queues: &mut Queues,
    ) -> Option<f64> {
        let wmin = weights
            .min_finite
            .min(links.map_or(f64::INFINITY, |l| l.min_up));
        if wmin.is_finite() && wmin > MIN_BUCKET_WIDTH_S {
            leo_obs::counter!("engine.dijkstra.bucket_queries").incr();
            queues.buckets.iter_mut().for_each(Vec::clear);
            for s in sources {
                store.set(s, 0.0);
                // Distance zero lands in bucket 0 whatever the bucket width.
                bucket_push(&mut queues.buckets, s, 0.0, 0.0);
            }
            self.search_buckets(weights, links, target, store, &mut queues.buckets, wmin)
        } else {
            leo_obs::counter!("engine.dijkstra.heap_queries").incr();
            queues.heap.clear();
            for s in sources {
                store.set(s, 0.0);
                queues.heap.push(Reverse(heap_key(0.0, s)));
            }
            self.search_heap(weights, links, target, store, &mut queues.heap, None)
        }
    }

    /// Label-setting over a monotone bucket queue of width strictly below
    /// the smallest edge weight: every pop from the lowest non-empty
    /// bucket is already final (an improvement would have to come through
    /// an unsettled node at least one full edge weight — more than one
    /// bucket — below it), so queue operations are O(1) instead of
    /// O(log n) and nothing is ever re-settled.
    fn search_buckets<S: DistStore>(
        &self,
        weights: &IslWeights,
        links: Option<&GroundLinks>,
        target: Option<u32>,
        store: &mut S,
        buckets: &mut Vec<Vec<(u32, f64)>>,
        wmin: f64,
    ) -> Option<f64> {
        // A hair under 1/wmin so rounding can never stretch a bucket's
        // span in delay space beyond the smallest edge weight. The caller
        // seeded the source into bucket 0.
        let inv_width = (1.0 - 1e-9) / wmin;
        let mut tally = SearchTally::default();
        let mut cur = 0;
        loop {
            while cur < buckets.len() && buckets[cur].is_empty() {
                cur += 1;
            }
            if cur >= buckets.len() {
                return None;
            }
            let Some((u, d)) = buckets[cur].pop() else {
                continue;
            };
            if d > store.dist_of(u) {
                continue; // stale copy, improved since pushed
            }
            tally.pops += 1;
            if target == Some(u) {
                return Some(d);
            }
            if (u as usize) < self.num_sats {
                let (lo, hi) = (
                    self.offsets[u as usize] as usize,
                    self.offsets[u as usize + 1] as usize,
                );
                for (&v, &w) in self.targets[lo..hi].iter().zip(&weights.slots[lo..hi]) {
                    let nd = d + w;
                    if nd < store.dist_of(v) {
                        store.set(v, nd);
                        tally.relaxations += 1;
                        bucket_push(buckets, v, nd, inv_width);
                    }
                }
                if let Some(gl) = links {
                    for &(g, w) in gl.down_of(u as usize) {
                        let v = self.ground_node(g as usize);
                        let nd = d + w;
                        if nd < store.dist_of(v) {
                            store.set(v, nd);
                            tally.relaxations += 1;
                            bucket_push(buckets, v, nd, inv_width);
                        }
                    }
                }
            } else if let Some(gl) = links {
                for &(s, w) in gl.up_of(u as usize - self.num_sats) {
                    let nd = d + w;
                    if nd < store.dist_of(s) {
                        store.set(s, nd);
                        tally.relaxations += 1;
                        bucket_push(buckets, s, nd, inv_width);
                    }
                }
            }
        }
    }

    /// Lazy-deletion binary-heap Dijkstra — the fallback for degenerate
    /// weights (sub-[`MIN_BUCKET_WIDTH_S`] or all-occluded topologies,
    /// where the bucket count would be unbounded), and the arg-min
    /// frontier's settle.
    ///
    /// With `labels`, each node carries the source that reaches it: a
    /// strict improvement inherits the popped node's label, and an
    /// equal-distance relaxation that would lower a node's label takes it
    /// and re-queues the node so the lower label propagates. Every edge
    /// weight is strictly positive, so all equal-distance improvements to
    /// a node are queued before it first pops, and re-pops re-relax
    /// idempotently. Distances relax the same way with or without labels.
    fn search_heap<S: DistStore>(
        &self,
        weights: &IslWeights,
        links: Option<&GroundLinks>,
        target: Option<u32>,
        store: &mut S,
        heap: &mut BinaryHeap<Reverse<u128>>,
        mut labels: Option<&mut [u32]>,
    ) -> Option<f64> {
        let mut tally = SearchTally::default();
        while let Some(Reverse(key)) = heap.pop() {
            let u = key as u32;
            let d = f64::from_bits((key >> 32) as u64);
            if d > store.dist_of(u) {
                continue; // stale heap entry
            }
            tally.pops += 1;
            if target == Some(u) {
                return Some(d);
            }
            let label = labels.as_ref().map_or(u32::MAX, |l| l[u as usize]);
            let mut relax = |v: u32, nd: f64| {
                let dv = store.dist_of(v);
                if nd < dv {
                    store.set(v, nd);
                    tally.relaxations += 1;
                    if let Some(l) = labels.as_deref_mut() {
                        l[v as usize] = label;
                    }
                    heap.push(Reverse(heap_key(nd, v)));
                } else if nd == dv {
                    if let Some(l) = labels.as_deref_mut().filter(|l| label < l[v as usize]) {
                        l[v as usize] = label;
                        heap.push(Reverse(heap_key(nd, v)));
                    }
                }
            };
            if (u as usize) < self.num_sats {
                let (lo, hi) = (
                    self.offsets[u as usize] as usize,
                    self.offsets[u as usize + 1] as usize,
                );
                for (&v, &w) in self.targets[lo..hi].iter().zip(&weights.slots[lo..hi]) {
                    relax(v, d + w);
                }
                if let Some(gl) = links {
                    for &(g, w) in gl.down_of(u as usize) {
                        relax(self.ground_node(g as usize), d + w);
                    }
                }
            } else if let Some(gl) = links {
                for &(s, w) in gl.up_of(u as usize - self.num_sats) {
                    relax(s, d + w);
                }
            }
        }
        None
    }

    /// One-way delay between two satellites over the refreshed ISL mesh
    /// (and, when `links` is given, via any attached ground endpoint —
    /// the state-migration relay path), or `None` when disconnected.
    /// Early-exits once the target settles.
    pub fn sat_to_sat_delay(
        &self,
        weights: &IslWeights,
        links: Option<&GroundLinks>,
        a: SatId,
        b: SatId,
        arena: &mut DijkstraArena,
    ) -> Option<f64> {
        self.run(weights, links, a.0, Some(b.0), arena)
    }

    /// The minimum-delay route between two satellites over the refreshed
    /// ISL mesh, or `None` when disconnected. Under masked weights the
    /// route never touches a dead satellite.
    ///
    /// Its own early-exit loop, so the shared searches behind delay, bulk
    /// and multi-source queries carry no predecessor writes. It settles in
    /// the reference graph's order — the same neighbour order, the same
    /// delay-only heap — and records a predecessor only on a strict
    /// improvement, as the graph does, so the hop list equals the graph's
    /// route even on exact delay ties. The delay is bit-identical to
    /// [`RoutingEngine::sat_to_sat_delay`] without ground links.
    pub fn sat_to_sat_path(
        &self,
        weights: &IslWeights,
        a: SatId,
        b: SatId,
        arena: &mut DijkstraArena,
    ) -> Option<SatPath> {
        leo_obs::counter!("engine.dijkstra.heap_queries").incr();
        arena.scratch.begin(self.num_sats);
        if arena.preds.len() < self.num_sats {
            arena.preds.resize(self.num_sats, u32::MAX);
        }
        let DijkstraArena {
            scratch,
            preds,
            path_heap: heap,
            ..
        } = arena;
        heap.clear();
        scratch.set(a.0, 0.0);
        heap.push(PathItem {
            delay_bits: 0.0f64.to_bits(),
            node: a.0,
        });
        let mut tally = SearchTally::default();
        let delay_s = loop {
            let PathItem {
                delay_bits,
                node: u,
            } = heap.pop()?;
            let d = f64::from_bits(delay_bits);
            if d > scratch.dist_of(u) {
                continue; // stale heap entry
            }
            tally.pops += 1;
            if u == b.0 {
                break d;
            }
            let (lo, hi) = (
                self.offsets[u as usize] as usize,
                self.offsets[u as usize + 1] as usize,
            );
            for (&v, &w) in self.targets[lo..hi].iter().zip(&weights.slots[lo..hi]) {
                let nd = d + w;
                if nd < scratch.dist_of(v) {
                    scratch.set(v, nd);
                    preds[v as usize] = u;
                    tally.relaxations += 1;
                    heap.push(PathItem {
                        delay_bits: nd.to_bits(),
                        node: v,
                    });
                }
            }
        };
        let mut sats = vec![b];
        let mut cur = b.0;
        while cur != a.0 {
            cur = preds[cur as usize];
            sats.push(SatId(cur));
        }
        sats.reverse();
        Some(SatPath { delay_s, sats })
    }

    /// One-way delay between two attached ground endpoints (by slot in
    /// the attached group), or `None` when disconnected. The source is
    /// `a` — matching the brute-force path's summation order exactly.
    pub fn ground_to_ground_delay(
        &self,
        weights: &IslWeights,
        links: &GroundLinks,
        a: usize,
        b: usize,
        arena: &mut DijkstraArena,
    ) -> Option<f64> {
        self.run(
            weights,
            Some(links),
            self.ground_node(a),
            Some(self.ground_node(b)),
            arena,
        )
    }

    /// One-way delays from ground slot `src` to every satellite, written
    /// into `out` (`INFINITY` where unreachable). `out` is resized to
    /// `num_sats`.
    pub fn delays_from_ground_into(
        &self,
        weights: &IslWeights,
        links: &GroundLinks,
        src: usize,
        out: &mut Vec<f64>,
        arena: &mut DijkstraArena,
    ) {
        debug_assert_eq!(links.num_sats, self.num_sats);
        // Full-settle query: the output row doubles as the distance
        // array (ground slots ride along past the end and are trimmed),
        // skipping both the stamp branches and an extraction pass.
        let n = self.num_sats + links.num_grounds();
        out.clear();
        out.resize(n, f64::INFINITY);
        let src = [self.ground_node(src)];
        let mut store = SliceStore(out);
        self.settle(
            weights,
            Some(links),
            src,
            None,
            &mut store,
            &mut arena.queues,
        );
        out.truncate(self.num_sats);
    }

    /// Bulk query behind meetup-server selection: one delay row per
    /// attached ground endpoint (`result[ground][sat]`), all rows sharing
    /// one arena.
    pub fn delays_from_all(
        &self,
        weights: &IslWeights,
        links: &GroundLinks,
        arena: &mut DijkstraArena,
    ) -> Vec<Vec<f64>> {
        (0..links.num_grounds())
            .map(|g| {
                let mut row = Vec::new();
                self.delays_from_ground_into(weights, links, g, &mut row, arena);
                row
            })
            .collect()
    }

    /// Minimum one-way delay from **any** of `sources` to every attached
    /// ground slot, sharing one settled frontier across the whole group —
    /// the serving layer's batched query. Writes one delay per ground
    /// slot into `out` (`INFINITY` where no source reaches).
    ///
    /// Seeding every source at distance zero and settling once costs one
    /// Dijkstra pass however many sources there are, and the result is
    /// exactly the elementwise minimum of per-source runs: a settled
    /// distance is the minimum left-to-right path sum over all
    /// source-rooted paths, which doesn't depend on how sources share the
    /// frontier (the property suite in `tests/delta_refresh.rs` pins this
    /// bitwise). Duplicate sources are allowed and change nothing.
    pub fn multi_source_ground_delays_into(
        &self,
        weights: &IslWeights,
        links: &GroundLinks,
        sources: &[SatId],
        out: &mut Vec<f64>,
        arena: &mut DijkstraArena,
    ) {
        debug_assert_eq!(links.num_sats, self.num_sats);
        let n = self.num_sats + links.num_grounds();
        out.clear();
        out.resize(n, f64::INFINITY);
        let seeds = sources.iter().map(|s| s.0);
        let mut store = SliceStore(out);
        self.settle(
            weights,
            Some(links),
            seeds,
            None,
            &mut store,
            &mut arena.queues,
        );
        // Ground slots live after the satellites; move them to the front.
        out.copy_within(self.num_sats.., 0);
        out.truncate(links.num_grounds());
    }

    /// [`RoutingEngine::multi_source_ground_delays_into`] extended to an
    /// **arg-min frontier**: alongside each ground slot's minimum delay,
    /// records *which* source wins it (`None` where no source reaches).
    /// `delays` is bit-identical to the plain multi-source settle.
    ///
    /// Ties are deterministic: when several sources reach a ground slot
    /// at the exact same settled delay, the lowest `SatId` wins —
    /// matching the `selection` module's tie-break rules, so the winner
    /// is a pure function of the weights, never of settle order. The
    /// settle carries one source label per node and re-relaxes on
    /// equal-distance label improvements; labels at a node only ever
    /// decrease, so the pass terminates at the unique least-label
    /// fixpoint over all shortest paths.
    ///
    /// Always settles on the binary heap: this is the validation-side
    /// query (cadence-sampled by the serving layer), so the bucket-queue
    /// fast path is not worth carrying the equal-distance re-push proof
    /// for. Heap and bucket settles are bit-identical in the distances
    /// they produce, so `delays` still matches the plain settle exactly.
    pub fn multi_source_ground_frontier_into(
        &self,
        weights: &IslWeights,
        links: &GroundLinks,
        sources: &[SatId],
        delays: &mut Vec<f64>,
        winners: &mut Vec<Option<SatId>>,
        arena: &mut DijkstraArena,
    ) {
        debug_assert_eq!(links.num_sats, self.num_sats);
        leo_obs::counter!("engine.frontier.argmin_settles").incr();
        leo_obs::counter!("engine.dijkstra.heap_queries").incr();
        let n = self.num_sats + links.num_grounds();
        delays.clear();
        delays.resize(n, f64::INFINITY);
        let DijkstraArena { queues, labels, .. } = arena;
        labels.clear();
        labels.resize(n, u32::MAX);
        queues.heap.clear();
        for &s in sources {
            delays[s.0 as usize] = 0.0;
            labels[s.0 as usize] = s.0;
            queues.heap.push(Reverse(heap_key(0.0, s.0)));
        }
        let mut store = SliceStore(delays);
        let heap = &mut queues.heap;
        self.search_heap(weights, Some(links), None, &mut store, heap, Some(labels));
        winners.clear();
        winners.extend((0..links.num_grounds()).map(|g| {
            let node = self.ground_node(g) as usize;
            (delays[node].is_finite()).then(|| SatId(labels[node]))
        }));
        delays.copy_within(self.num_sats.., 0);
        delays.truncate(links.num_grounds());
    }
}

/// Runs `f` with this thread's reusable [`DijkstraArena`]. Worker threads
/// (the sweep pool, the session runners) thereby share one arena across
/// every query they issue, without any caller-side plumbing.
///
/// The closure must not recurse into `with_thread_arena` (the arena is
/// exclusively borrowed for its duration).
pub fn with_thread_arena<R>(f: impl FnOnce(&mut DijkstraArena) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static ARENA: RefCell<DijkstraArena> = RefCell::new(DijkstraArena::new());
    }
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{self, build_graph};
    use leo_constellation::presets;
    use leo_geo::{Ecef, Geodetic};

    fn setup() -> (Constellation, IslTopology, RoutingEngine) {
        let c = presets::starlink_550_only();
        let topo = IslTopology::plus_grid(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        (c, topo, engine)
    }

    fn endpoint(i: u32, lat: f64, lon: f64) -> GroundEndpoint {
        GroundEndpoint::new(i, Geodetic::ground(lat, lon))
    }

    #[test]
    fn compiled_csr_mirrors_the_topology() {
        let (c, topo, engine) = setup();
        assert_eq!(engine.num_sats(), c.num_satellites());
        assert_eq!(engine.edge_ends.len(), topo.edges().len());
        for sat in c.satellites() {
            let i = sat.id.0 as usize;
            let mut csr: Vec<u32> =
                engine.targets[engine.offsets[i] as usize..engine.offsets[i + 1] as usize].to_vec();
            csr.sort_unstable();
            let mut expect: Vec<u32> = topo.neighbors(sat.id).iter().map(|n| n.0).collect();
            expect.sort_unstable();
            assert_eq!(csr, expect, "sat {i}");
        }
    }

    #[test]
    fn refresh_matches_active_edges() {
        let (c, topo, engine) = setup();
        let snap = c.snapshot(450.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let active = topo.active_edges(&snap);
        assert_eq!(weights.active_edges(), active.len());
        // Weights are the same delays active_edges would produce.
        let by_pair: std::collections::HashMap<(u32, u32), f64> = active
            .iter()
            .map(|(e, len)| ((e.a.0, e.b.0), len / SPEED_OF_LIGHT_M_S))
            .collect();
        for (&(a, b), slots) in engine.edge_ends.iter().zip(&engine.slots_of_edge) {
            for &s in slots {
                match by_pair.get(&(a, b)) {
                    Some(&d) => assert_eq!(weights.slots[s as usize], d),
                    None => assert!(weights.slots[s as usize].is_infinite()),
                }
            }
        }
    }

    #[test]
    fn refresh_into_reuses_the_buffer() {
        let (c, _, engine) = setup();
        let mut w = engine.refresh(&c.snapshot(0.0), &FaultPlan::empty());
        let before = w.len();
        engine.refresh_into(&c.snapshot(60.0), &FaultPlan::empty(), &mut w);
        assert_eq!(w.len(), before);
        assert_eq!(w.active_edges(), before, "+Grid links stay visible");
    }

    #[test]
    fn engine_sat_to_sat_matches_graph_dijkstra() {
        let (c, topo, engine) = setup();
        let snap = c.snapshot(0.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let graph = build_graph(&c, &topo, &snap, &[]);
        let mut arena = DijkstraArena::new();
        for (a, b) in [(0u32, 792u32), (3, 3), (100, 1500), (5, 6)] {
            let fast = engine.sat_to_sat_delay(&weights, None, SatId(a), SatId(b), &mut arena);
            let slow = routing::sat_to_sat(&graph, SatId(a), SatId(b)).map(|p| p.delay_s);
            assert_eq!(fast, slow, "{a}->{b}");
        }
    }

    #[test]
    fn path_and_delay_queries_share_an_arena() {
        // Interleaving path and delay queries must not leak predecessor
        // or distance state between them.
        let (c, _, engine) = setup();
        let weights = engine.refresh(&c.snapshot(60.0), &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let first = engine.sat_to_sat_path(&weights, SatId(10), SatId(900), &mut arena);
        let d = engine.sat_to_sat_delay(&weights, None, SatId(900), SatId(11), &mut arena);
        let again = engine.sat_to_sat_path(&weights, SatId(10), SatId(900), &mut arena);
        assert_eq!(first, again);
        let first = first.unwrap();
        assert_eq!(first.sats.first(), Some(&SatId(10)));
        assert_eq!(first.sats.last(), Some(&SatId(900)));
        assert!(d.is_some());
        let self_path = engine
            .sat_to_sat_path(&weights, SatId(4), SatId(4), &mut arena)
            .unwrap();
        assert_eq!(self_path.sats, vec![SatId(4)]);
        assert_eq!(self_path.delay_s, 0.0);
    }

    #[test]
    fn engine_bulk_delays_match_graph_dijkstra_bitwise() {
        let (c, topo, engine) = setup();
        let snap = c.snapshot(120.0);
        let grounds = [endpoint(0, 9.06, 7.49), endpoint(1, -33.87, 151.21)];
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let fast = engine.delays_from_all(&weights, &links, &mut arena);
        let graph = build_graph(&c, &topo, &snap, &grounds);
        for (g, gp) in grounds.iter().enumerate() {
            let slow = routing::delays_to_all_sats(&graph, &c, gp);
            assert_eq!(fast[g], slow, "ground {g}");
        }
    }

    #[test]
    fn ground_to_ground_matches_graph_path_delay() {
        let (c, topo, engine) = setup();
        let snap = c.snapshot(0.0);
        let a = endpoint(0, 51.51, -0.13);
        let b = endpoint(1, 40.71, -74.01);
        let grounds = [a, b];
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let fast = engine
            .ground_to_ground_delay(&weights, &links, 0, 1, &mut arena)
            .unwrap();
        let graph = build_graph(&c, &topo, &snap, &grounds);
        let slow = routing::ground_to_ground(&graph, &a, &b).unwrap().delay_s;
        assert_eq!(fast, slow);
    }

    #[test]
    fn indexed_attachment_equals_scan_attachment() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(300.0);
        let index = VisibilityIndex::build(&c, &snap);
        let grounds = [endpoint(0, 0.0, 0.0), endpoint(1, 47.38, 8.54)];
        let by_index = engine.attach(&index, &grounds, &FaultPlan::empty());
        let by_scan = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        assert_eq!(
            engine.delays_from_all(&weights, &by_index, &mut arena),
            engine.delays_from_all(&weights, &by_scan, &mut arena),
        );
    }

    #[test]
    fn arena_is_reusable_across_queries_of_different_sizes() {
        let (c, _, engine) = setup();
        let small = presets::telesat();
        let small_topo = IslTopology::plus_grid(&small);
        let small_engine = RoutingEngine::compile(&small, &small_topo);
        let mut arena = DijkstraArena::new();
        let w_big = engine.refresh(&c.snapshot(0.0), &FaultPlan::empty());
        let w_small = small_engine.refresh(&small.snapshot(0.0), &FaultPlan::empty());
        let d1 = engine.sat_to_sat_delay(&w_big, None, SatId(0), SatId(700), &mut arena);
        let d2 = small_engine.sat_to_sat_delay(&w_small, None, SatId(0), SatId(50), &mut arena);
        let d3 = engine.sat_to_sat_delay(&w_big, None, SatId(0), SatId(700), &mut arena);
        assert_eq!(d1, d3, "arena state must not leak between queries");
        assert!(d2.is_some());
    }

    #[test]
    fn unreachable_targets_return_none() {
        // A bent-pipe (no-ISL) engine: satellites are mutually unreachable
        // without a ground relay.
        let c = presets::starlink_550_only();
        let topo = IslTopology::none(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        let snap = c.snapshot(0.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        assert_eq!(
            engine.sat_to_sat_delay(&weights, None, SatId(0), SatId(1), &mut arena),
            None
        );
        // With a ground endpoint attached, two satellites it sees become
        // mutually reachable through the bounce.
        let g = endpoint(0, 0.0, 0.0);
        let links = engine.attach_scan(&c, &snap, &[g], &FaultPlan::empty());
        let vis = visible_sats(&c, &snap, g.ecef, &FaultPlan::empty());
        assert!(vis.len() >= 2);
        let d = engine.sat_to_sat_delay(&weights, Some(&links), vis[0].id, vis[1].id, &mut arena);
        assert_eq!(
            d.unwrap(),
            vis[0].delay_s() + vis[1].delay_s(),
            "bounce path is the only route"
        );
    }

    #[test]
    fn self_delay_is_zero() {
        let (c, _, engine) = setup();
        let weights = engine.refresh(&c.snapshot(0.0), &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        assert_eq!(
            engine.sat_to_sat_delay(&weights, None, SatId(9), SatId(9), &mut arena),
            Some(0.0)
        );
    }

    #[test]
    fn dead_satellite_loses_every_edge() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(0.0);
        let mut plan = FaultPlan::empty();
        plan.kill(SatId(100));
        let mut w = IslWeights::default();
        engine.refresh_into(&snap, &plan, &mut w);
        for (&(a, b), slots) in engine.edge_ends.iter().zip(&engine.slots_of_edge) {
            if a == 100 || b == 100 {
                let masked = slots.iter().all(|&s| w.slots[s as usize].is_infinite());
                assert!(masked, "edge {a}-{b} must be masked");
            }
        }
        let plain = engine.refresh(&snap, &FaultPlan::empty());
        assert_eq!(plain.active_edges(), w.active_edges() + 4, "+Grid degree 4");
    }

    #[test]
    fn masked_routes_avoid_the_dead_satellite() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(0.0);
        let dead = SatId(50);
        let (a, b) = (SatId(49), SatId(51));
        let plain = engine.refresh(&snap, &FaultPlan::empty());
        let mut plan = FaultPlan::empty();
        plan.kill(dead);
        let mut w = IslWeights::default();
        engine.refresh_into(&snap, &plan, &mut w);
        let mut arena = DijkstraArena::new();
        // The dead satellite has no usable edge left, so it is simply
        // unreachable over the masked mesh.
        assert_eq!(engine.sat_to_sat_delay(&w, None, a, dead, &mut arena), None);
        // Its neighbors stay mutually reachable around it, at a delay no
        // better than the unmasked mesh offered.
        let before = engine
            .sat_to_sat_delay(&plain, None, a, b, &mut arena)
            .unwrap();
        let after = engine.sat_to_sat_delay(&w, None, a, b, &mut arena).unwrap();
        assert!(after.is_finite() && after >= before);
    }

    #[test]
    fn masked_attach_drops_dead_and_keeps_the_rest() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(300.0);
        let index = VisibilityIndex::build(&c, &snap);
        let g = endpoint(0, 0.0, 0.0);
        let plain = engine.attach(&index, &[g], &FaultPlan::empty());
        let visible = plain.up_of(0).to_vec();
        assert!(visible.len() >= 2);
        let dead = SatId(visible[0].0);
        let mut plan = FaultPlan::empty();
        plan.kill(dead);
        let masked = engine.attach(&index, &[g], &plan);
        let kept: Vec<(u32, f64)> = masked.up_of(0).to_vec();
        assert_eq!(kept.len(), visible.len() - 1);
        assert!(kept.iter().all(|&(s, _)| s != dead.0));
        // Scan mirror agrees as a set (the index emits band order, the
        // scan emits id order — same links either way).
        let scanned = engine.attach_scan(&c, &snap, &[g], &plan);
        let sort = |links: &GroundLinks| {
            let mut v = links.up_of(0).to_vec();
            v.sort_by_key(|a| a.0);
            v
        };
        assert_eq!(sort(&scanned), sort(&masked));
    }

    #[test]
    fn thread_arena_round_trips() {
        let (c, _, engine) = setup();
        let weights = engine.refresh(&c.snapshot(0.0), &FaultPlan::empty());
        let a = with_thread_arena(|arena| {
            engine.sat_to_sat_delay(&weights, None, SatId(0), SatId(100), arena)
        });
        let b = with_thread_arena(|arena| {
            engine.sat_to_sat_delay(&weights, None, SatId(0), SatId(100), arena)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn delta_refresh_matches_full_refresh_across_instants() {
        let (c, _, engine) = setup();
        let mut delta = IslWeights::default();
        engine.refresh_delta(&c.snapshot(0.0), &FaultPlan::empty(), &mut delta);
        for t in [60.0, 120.0, 180.0] {
            let stats = engine.refresh_delta(&c.snapshot(t), &FaultPlan::empty(), &mut delta);
            assert!(!stats.full_rebuild, "warm buffer must stay incremental");
            let full = engine.refresh(&c.snapshot(t), &FaultPlan::empty());
            assert!(delta.bits_eq(&full), "t={t}");
        }
    }

    #[test]
    fn delta_refresh_skips_everything_on_a_repeated_snapshot() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(300.0);
        let mut w = IslWeights::default();
        engine.refresh_delta(&snap, &FaultPlan::empty(), &mut w);
        let stats = engine.refresh_delta(&snap, &FaultPlan::empty(), &mut w);
        assert_eq!(stats.recomputed, 0, "no position bit changed");
        assert_eq!(stats.changed, 0);
        assert_eq!(stats.skipped(), engine.edge_ends.len());
        assert!(w.bits_eq(&engine.refresh(&snap, &FaultPlan::empty())));
    }

    #[test]
    fn delta_refresh_on_a_cold_buffer_is_a_full_rebuild() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(0.0);
        let mut cold = IslWeights::default();
        let stats = engine.refresh_delta(&snap, &FaultPlan::empty(), &mut cold);
        assert!(stats.full_rebuild);
        assert!(cold.bits_eq(&engine.refresh(&snap, &FaultPlan::empty())));
    }

    #[test]
    fn plan_only_delta_touches_exactly_the_masked_edges() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(0.0);
        let mut w = IslWeights::default();
        engine.refresh_delta(&snap, &FaultPlan::empty(), &mut w);
        let mut plan = FaultPlan::empty();
        plan.kill(SatId(100));
        // Same instant, new outage: only the dead satellite's +Grid edges
        // flip mask status, so only those are recomputed.
        let stats = engine.refresh_delta(&snap, &plan, &mut w);
        assert_eq!(stats.recomputed, 4, "+Grid degree 4");
        assert_eq!(stats.changed, 4);
        let mut full = IslWeights::default();
        engine.refresh_into(&snap, &plan, &mut full);
        assert!(w.bits_eq(&full));
        // Lifting the outage again recomputes the same four edges back.
        let back = engine.refresh_delta(&snap, &FaultPlan::empty(), &mut w);
        assert_eq!(back.recomputed, 4);
        assert!(w.bits_eq(&engine.refresh(&snap, &FaultPlan::empty())));
    }

    #[test]
    fn delta_refresh_recovers_from_a_masked_starting_state() {
        let (c, _, engine) = setup();
        let mut plan = FaultPlan::empty();
        plan.kill(SatId(7));
        plan.kill(SatId(200));
        let mut w = IslWeights::default();
        engine.refresh_delta(&c.snapshot(0.0), &plan, &mut w);
        // Advance under the same plan, then drop it — both transitions
        // must land bit-for-bit on the full-refresh result.
        engine.refresh_delta(&c.snapshot(60.0), &plan, &mut w);
        let mut full = IslWeights::default();
        engine.refresh_into(&c.snapshot(60.0), &plan, &mut full);
        assert!(w.bits_eq(&full));
        engine.refresh_delta(&c.snapshot(60.0), &FaultPlan::empty(), &mut w);
        assert!(w.bits_eq(&engine.refresh(&c.snapshot(60.0), &FaultPlan::empty())));
    }

    #[test]
    fn delta_on_fully_refreshed_weights_is_a_full_rebuild() {
        let (c, _, engine) = setup();
        let mut w = engine.refresh(&c.snapshot(0.0), &FaultPlan::empty());
        let stats = engine.refresh_delta(&c.snapshot(60.0), &FaultPlan::empty(), &mut w);
        assert!(stats.full_rebuild, "a full refresh records no fingerprint");
        assert!(w.bits_eq(&engine.refresh(&c.snapshot(60.0), &FaultPlan::empty())));
    }

    #[test]
    fn full_refresh_inside_a_delta_chain_drops_the_fingerprint() {
        // The delta buffer's fingerprint describes instant 0; once a full
        // refresh has rewritten the weights for 60 s, a delta back to 0 s
        // must not skip edges on the strength of that stale fingerprint.
        let (c, _, engine) = setup();
        let mut w = IslWeights::default();
        engine.refresh_delta(&c.snapshot(0.0), &FaultPlan::empty(), &mut w);
        engine.refresh_into(&c.snapshot(60.0), &FaultPlan::empty(), &mut w);
        engine.refresh_delta(&c.snapshot(0.0), &FaultPlan::empty(), &mut w);
        assert!(w.bits_eq(&engine.refresh(&c.snapshot(0.0), &FaultPlan::empty())));
    }

    #[test]
    fn multi_source_equals_elementwise_min_of_single_sources() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(120.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let grounds = [endpoint(0, 9.06, 7.49), endpoint(1, -33.87, 151.21)];
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let sources = [SatId(3), SatId(700), SatId(1400)];
        let mut batched = Vec::new();
        engine.multi_source_ground_delays_into(
            &weights,
            &links,
            &sources,
            &mut batched,
            &mut arena,
        );
        assert_eq!(batched.len(), grounds.len());
        let mut single = Vec::new();
        for g in 0..grounds.len() {
            let best = sources
                .iter()
                .map(|&s| {
                    engine.multi_source_ground_delays_into(
                        &weights,
                        &links,
                        std::slice::from_ref(&s),
                        &mut single,
                        &mut arena,
                    );
                    single[g]
                })
                .fold(f64::INFINITY, f64::min);
            assert_eq!(batched[g].to_bits(), best.to_bits(), "ground {g}");
        }
    }

    #[test]
    fn multi_source_over_all_sats_is_the_best_up_link() {
        // Seeding every satellite at zero makes each ground's answer the
        // minimum over its own up-links — one hop beats any detour.
        let (c, _, engine) = setup();
        let snap = c.snapshot(0.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let grounds = [endpoint(0, 0.0, 0.0), endpoint(1, 47.38, 8.54)];
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let all: Vec<SatId> = (0..engine.num_sats() as u32).map(SatId).collect();
        let mut out = Vec::new();
        let mut arena = DijkstraArena::new();
        engine.multi_source_ground_delays_into(&weights, &links, &all, &mut out, &mut arena);
        for (g, &got) in out.iter().enumerate() {
            let best = links
                .up_of(g)
                .iter()
                .map(|&(_, w)| w)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(got.to_bits(), best.to_bits(), "ground {g}");
        }
    }

    #[test]
    fn multi_source_with_no_sources_reaches_nothing() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(0.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let links = engine.attach_scan(&c, &snap, &[endpoint(0, 0.0, 0.0)], &FaultPlan::empty());
        let mut out = Vec::new();
        let mut arena = DijkstraArena::new();
        engine.multi_source_ground_delays_into(&weights, &links, &[], &mut out, &mut arena);
        assert_eq!(out, vec![f64::INFINITY]);
    }

    #[test]
    fn argmin_frontier_delays_match_plain_multi_source() {
        let (c, _, engine) = setup();
        let snap = c.snapshot(240.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let grounds = [
            endpoint(0, 9.06, 7.49),
            endpoint(1, -33.87, 151.21),
            endpoint(2, 51.5, -0.1),
        ];
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let sources = [SatId(11), SatId(480), SatId(909), SatId(1501)];
        let mut plain = Vec::new();
        engine.multi_source_ground_delays_into(&weights, &links, &sources, &mut plain, &mut arena);
        let (mut delays, mut winners) = (Vec::new(), Vec::new());
        engine.multi_source_ground_frontier_into(
            &weights,
            &links,
            &sources,
            &mut delays,
            &mut winners,
            &mut arena,
        );
        assert_eq!(plain.len(), delays.len());
        for (g, (a, b)) in plain.iter().zip(&delays).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "ground {g}");
        }
        // Every winner is one of the sources and reproduces the delay as
        // its own single-source run.
        let mut single = Vec::new();
        for (g, w) in winners.iter().enumerate() {
            match w {
                Some(s) => {
                    assert!(sources.contains(s), "ground {g} won by a non-source");
                    engine.multi_source_ground_delays_into(
                        &weights,
                        &links,
                        std::slice::from_ref(s),
                        &mut single,
                        &mut arena,
                    );
                    assert_eq!(single[g].to_bits(), delays[g].to_bits(), "ground {g}");
                }
                None => assert!(delays[g].is_infinite(), "ground {g}"),
            }
        }
    }

    #[test]
    fn argmin_frontier_winner_is_the_lowest_id_single_source_argmin() {
        // The winner must be exactly the arg-min over per-source runs,
        // ties to the lowest SatId — never an artifact of settle order.
        let (c, _, engine) = setup();
        let snap = c.snapshot(777.0);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let grounds = [endpoint(0, 0.0, 0.0), endpoint(1, 47.38, 8.54)];
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let mut arena = DijkstraArena::new();
        let sources: Vec<SatId> = (0..engine.num_sats() as u32)
            .step_by(7)
            .map(SatId)
            .collect();
        let (mut delays, mut winners) = (Vec::new(), Vec::new());
        engine.multi_source_ground_frontier_into(
            &weights,
            &links,
            &sources,
            &mut delays,
            &mut winners,
            &mut arena,
        );
        let mut single = Vec::new();
        for g in 0..grounds.len() {
            let mut best: Option<(f64, u32)> = None;
            for &s in &sources {
                engine.multi_source_ground_delays_into(
                    &weights,
                    &links,
                    std::slice::from_ref(&s),
                    &mut single,
                    &mut arena,
                );
                let d = single[g];
                let better = match best {
                    None => true,
                    Some((bd, bi)) => d < bd || (d == bd && s.0 < bi),
                };
                if d.is_finite() && better {
                    best = Some((d, s.0));
                }
            }
            match best {
                Some((d, i)) => {
                    assert_eq!(delays[g].to_bits(), d.to_bits(), "ground {g}");
                    assert_eq!(winners[g], Some(SatId(i)), "ground {g}");
                }
                None => assert_eq!(winners[g], None, "ground {g}"),
            }
        }
    }

    #[test]
    fn argmin_frontier_breaks_equal_delay_ties_to_the_lowest_sat_id() {
        // Two sources at mirrored positions relative to a ground point on
        // the prime meridian: their up-link delays are bit-equal (the
        // range computation squares the mirrored coordinate, so the sign
        // vanishes exactly), and the tie must break to the lower SatId.
        let (c, _, engine) = setup();
        let mut snap = c.snapshot(0.0);
        let ground = endpoint(0, 0.0, 0.0);
        let ge = ground.ecef.0;
        // Plant two satellites symmetrically above the ground point,
        // mirrored in y, and park them high enough to be each other's
        // best visible servers for this ground.
        let a = Ecef::new(ge.x + 550e3, ge.y + 200e3, ge.z);
        let b = Ecef::new(ge.x + 550e3, -(ge.y + 200e3), ge.z);
        snap.positions[40] = a;
        snap.positions[41] = b;
        assert_eq!(
            ground.ecef.distance_m(a).to_bits(),
            ground.ecef.distance_m(b).to_bits(),
            "mirrored geometry must give bit-equal ranges"
        );
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let links = engine.attach_scan(
            &c,
            &snap,
            std::slice::from_ref(&ground),
            &FaultPlan::empty(),
        );
        let mut arena = DijkstraArena::new();
        let (mut delays, mut winners) = (Vec::new(), Vec::new());
        // Seed in descending id order: the tie-break must not care.
        engine.multi_source_ground_frontier_into(
            &weights,
            &links,
            &[SatId(41), SatId(40)],
            &mut delays,
            &mut winners,
            &mut arena,
        );
        assert!(delays[0].is_finite(), "planted sats must reach the ground");
        assert_eq!(
            winners[0],
            Some(SatId(40)),
            "equal-delay tie must break to the lowest SatId"
        );
    }
}
