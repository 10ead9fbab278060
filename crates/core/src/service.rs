//! The [`InOrbitService`] facade: a constellation operated as a compute
//! provider.

use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::{look, Geodetic};
use leo_net::engine::{with_thread_arena, GroundLinks, IslWeights, RoutingEngine, SatPath};
use leo_net::fault::{FaultConfig, FaultPlan};
use leo_net::frontier::{self, BandSet, GroundSet, NearestState};
use leo_net::routing::{self, GroundEndpoint};
use leo_net::visibility::VisibleSat;
use leo_net::{IslTopology, NetworkGraph, VisibilityIndex};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Propagated positions at one instant, paired with the spatial
/// visibility index over them and the refreshed ISL routing weights of
/// the service's compiled [`RoutingEngine`]. This is the unit the
/// snapshot cache holds and what the sweep engine in `leo-sim` hands to
/// its workers: one propagation + one index build + one weight refresh,
/// shared by every query at that instant.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    snapshot: Snapshot,
    index: VisibilityIndex,
    engine: Arc<RoutingEngine>,
    isl: IslWeights,
    /// The outage mask at this instant, when the owning service carries
    /// a fault scenario. `None` keeps every code path on the exact
    /// pre-fault route.
    fault: Option<Arc<FaultPlan>>,
}

impl SnapshotView {
    /// Builds a view by propagating `constellation` to `t` and refreshing
    /// `engine`'s edge weights at that instant. Under a fault scenario,
    /// the scenario's plan at `t` masks the refreshed ISL weights and
    /// rides along for the view's visibility and attachment queries.
    ///
    /// # Panics
    /// Panics when `t` is not finite: such an instant propagates to NaN
    /// positions, which no query could answer.
    pub fn build_with(
        constellation: &Constellation,
        engine: &Arc<RoutingEngine>,
        t: f64,
        faults: Option<&FaultConfig>,
    ) -> SnapshotView {
        assert!(t.is_finite(), "snapshot instant must be finite, got {t}");
        let snapshot = constellation.snapshot(t);
        let index = VisibilityIndex::build(constellation, &snapshot);
        match faults {
            None => {
                let isl = engine.refresh(&snapshot);
                SnapshotView {
                    snapshot,
                    index,
                    engine: Arc::clone(engine),
                    isl,
                    fault: None,
                }
            }
            Some(cfg) => {
                let plan = cfg.plan_at(t);
                let mut isl = IslWeights::default();
                engine.refresh_into_masked(&snapshot, &plan, &mut isl);
                SnapshotView {
                    snapshot,
                    index,
                    engine: Arc::clone(engine),
                    isl,
                    fault: Some(Arc::new(plan)),
                }
            }
        }
    }

    /// The outage mask at this instant, when the owning service carries
    /// a fault scenario.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// The propagated positions.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The latitude-banded visibility index over this snapshot.
    pub fn index(&self) -> &VisibilityIndex {
        &self.index
    }

    /// The compiled routing engine the weights belong to.
    pub fn engine(&self) -> &RoutingEngine {
        &self.engine
    }

    /// The ISL edge weights refreshed for this instant.
    pub fn isl_weights(&self) -> &IslWeights {
        &self.isl
    }

    /// Wires ground endpoints into the routing node space through this
    /// view's visibility index (honoring the view's fault plan, if any).
    /// Attach once per query group, then run any number of delay queries
    /// against the result.
    pub fn attach(&self, grounds: &[GroundEndpoint]) -> GroundLinks {
        match &self.fault {
            Some(plan) => self.engine.attach_masked(&self.index, grounds, plan),
            None => self.engine.attach(&self.index, grounds),
        }
    }

    /// One-way delay between two satellites at this instant — over the
    /// ISL mesh alone, or also via the attached ground endpoints when
    /// `links` is given. Early-exits at the target; `None` when
    /// disconnected.
    pub fn sat_to_sat_delay(&self, links: Option<&GroundLinks>, a: SatId, b: SatId) -> Option<f64> {
        with_thread_arena(|arena| self.engine.sat_to_sat_delay(&self.isl, links, a, b, arena))
    }

    /// The minimum-delay ISL route between two satellites at this instant,
    /// with its hop list, or `None` when disconnected. It runs over this
    /// view's own weights, so under a fault scenario it never crosses a
    /// dead satellite or a cut link.
    pub fn sat_to_sat_path(&self, a: SatId, b: SatId) -> Option<SatPath> {
        with_thread_arena(|arena| self.engine.sat_to_sat_path(&self.isl, a, b, arena))
    }

    /// One-way delay between two attached ground endpoints (by slot in
    /// the group passed to [`SnapshotView::attach`]), or `None` when
    /// disconnected.
    pub fn ground_to_ground_delay(&self, links: &GroundLinks, a: usize, b: usize) -> Option<f64> {
        with_thread_arena(|arena| {
            self.engine
                .ground_to_ground_delay(&self.isl, links, a, b, arena)
        })
    }

    /// One-way delays from every attached ground endpoint to every
    /// satellite (`result[ground][sat]`, `INFINITY` when unreachable),
    /// all rows sharing this worker's arena.
    pub fn delays_from_all(&self, links: &GroundLinks) -> Vec<Vec<f64>> {
        with_thread_arena(|arena| self.engine.delays_from_all(&self.isl, links, arena))
    }

    /// One settled satellite-major frontier pass over `set`: the nearest
    /// visible (non-faulted) server for every point, in the caller's
    /// point order — bit-identical to running
    /// [`InOrbitService::nearest_servers_view`] over the same points, at
    /// a fraction of the candidate scans. The settled labels stay in
    /// `state` for [`SnapshotView::refresh_nearest_servers`] at the next
    /// instant. Fault-plan aware through the view, like every query.
    pub fn settle_nearest_servers(
        &self,
        set: &GroundSet,
        state: &mut NearestState,
        out: &mut Vec<Option<VisibleSat>>,
    ) {
        frontier::settle_nearest(&self.index, set, self.fault_plan(), state, out);
    }

    /// Warm-started refresh of a frontier settled at an earlier instant:
    /// valid when this view's snapshot differs from the settled one by
    /// exactly the satellites flagged in `moved` (bitwise position
    /// compare) under an equal fault plan — then bit-identical to a cold
    /// [`SnapshotView::settle_nearest_servers`]. Callers are expected to
    /// verify both preconditions and fall back to a cold settle.
    pub fn refresh_nearest_servers(
        &self,
        set: &GroundSet,
        moved: &[bool],
        state: &mut NearestState,
        out: &mut Vec<Option<VisibleSat>>,
    ) {
        frontier::refresh_nearest(&self.index, set, self.fault_plan(), moved, state, out);
    }

    /// Full candidate lists for one latitude band of prepared points via
    /// the settled frontier, as `(caller_point_index, candidates)` pairs
    /// sorted nearest-first with `SatId` tie-breaks — the edge fleet's
    /// per-cell query shape, without a per-cell visibility scan.
    pub fn frontier_visible_lists(&self, band: &BandSet) -> Vec<(u32, Vec<VisibleSat>)> {
        band.visible_lists(&self.index, self.fault_plan())
    }
}

/// How many instants the snapshot cache holds before it is cleared.
/// Sweeps (121 sample times shared across ~91 ground points in Fig 1)
/// fit comfortably; hour-long 1 s-tick sessions stream through, clearing
/// a few times, which costs re-propagation but bounds memory.
const SNAPSHOT_CACHE_CAP: usize = 1024;

/// A LEO constellation operated as an in-orbit computing provider: every
/// satellite hosts a server, reachable directly from the ground or over
/// inter-satellite links.
///
/// Repeated queries at the same instant — the normal shape of every
/// experiment sweep — share one propagated [`SnapshotView`] through an
/// internal cache keyed by the query time, so positions are computed and
/// indexed once per instant no matter how many ground points ask.
///
/// ```
/// use leo_core::InOrbitService;
/// use leo_constellation::presets::starlink_550_only;
/// use leo_geo::Geodetic;
///
/// let service = InOrbitService::new(starlink_550_only());
/// let lagos = Geodetic::ground(6.52, 3.38);
/// let servers = service.reachable_servers(lagos, 0.0);
/// assert!(!servers.is_empty());
/// // Every reachable server is within the paper's 16 ms bound:
/// assert!(servers.iter().all(|s| s.rtt_ms() < 16.5));
/// ```
#[derive(Debug)]
pub struct InOrbitService {
    constellation: Constellation,
    topology: IslTopology,
    engine: Arc<RoutingEngine>,
    faults: Option<Arc<FaultConfig>>,
    cache: Mutex<HashMap<u64, Arc<SnapshotView>>>,
}

impl Clone for InOrbitService {
    fn clone(&self) -> Self {
        InOrbitService {
            constellation: self.constellation.clone(),
            topology: self.topology.clone(),
            engine: Arc::clone(&self.engine),
            faults: self.faults.clone(),
            // Cached views are immutable and Arc-shared; cloning the map
            // is a handful of pointer bumps.
            cache: Mutex::new(self.cache.lock().expect("cache lock").clone()),
        }
    }
}

impl InOrbitService {
    /// Wraps a constellation, building its +Grid ISL topology and
    /// compiling the CSR routing engine over it.
    pub fn new(constellation: Constellation) -> Self {
        Self::with_fault_option(constellation, None)
    }

    /// [`InOrbitService::new`] under a fault scenario: every view the
    /// service builds carries the scenario's outage mask at its instant,
    /// so routing, visibility, selection, and sessions all see dead
    /// satellites, cut ISLs, and rain fades. A scenario with no faults
    /// still routes queries through the masked entry points (which
    /// delegate to the unmasked ones), so outputs stay byte-identical to
    /// a plain service — the property `tests/fault_injection.rs` pins.
    pub fn with_faults(constellation: Constellation, faults: FaultConfig) -> Self {
        Self::with_fault_option(constellation, Some(Arc::new(faults)))
    }

    fn with_fault_option(constellation: Constellation, faults: Option<Arc<FaultConfig>>) -> Self {
        let topology = IslTopology::plus_grid(&constellation);
        let engine = Arc::new(RoutingEngine::compile(&constellation, &topology));
        InOrbitService {
            constellation,
            topology,
            engine,
            faults,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The fault scenario this service runs under, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_deref()
    }

    /// The compiled CSR routing engine (static topology; weights are
    /// refreshed per [`SnapshotView`]).
    pub fn routing_engine(&self) -> &Arc<RoutingEngine> {
        &self.engine
    }

    /// The cached [`SnapshotView`] at `t` seconds after the epoch,
    /// propagating and indexing on first use. Distinct times propagate
    /// concurrently: the cache lock is held only for lookup and insert,
    /// not during propagation. Panics when `t` is not finite (see
    /// [`SnapshotView::build_with`]).
    pub fn view(&self, t: f64) -> Arc<SnapshotView> {
        let key = t.to_bits();
        if let Some(v) = self.cache.lock().expect("cache lock").get(&key) {
            leo_obs::counter!("service.snapshot_hits").incr();
            return Arc::clone(v);
        }
        let built = Arc::new(SnapshotView::build_with(
            &self.constellation,
            &self.engine,
            t,
            self.faults.as_deref(),
        ));
        let mut cache = self.cache.lock().expect("cache lock");
        if cache.len() >= SNAPSHOT_CACHE_CAP {
            cache.clear();
        }
        // Two threads may race to build the same instant; keep the first
        // insert so all holders share one allocation. Hit/miss is
        // classified by who *inserts* (the race loser counts a hit even
        // though it built), so the totals per instant — one miss, k−1
        // hits for k calls — do not depend on thread interleaving. The
        // CI determinism check relies on this.
        match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                leo_obs::counter!("service.snapshot_hits").incr();
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                leo_obs::counter!("service.snapshot_misses").incr();
                Arc::clone(e.insert(built))
            }
        }
    }

    /// The underlying constellation.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// The ISL topology.
    pub fn topology(&self) -> &IslTopology {
        &self.topology
    }

    /// Number of satellite-servers (one per satellite — the paper's
    /// "if just one server were added to each of its satellites").
    pub fn num_servers(&self) -> usize {
        self.constellation.num_satellites()
    }

    /// Positions at `t` seconds after the epoch. Served from the snapshot
    /// cache: repeated calls at one instant cost a copy, not a
    /// re-propagation.
    pub fn snapshot(&self, t: f64) -> Snapshot {
        self.view(t).snapshot().clone()
    }

    /// Satellite-servers directly reachable from a ground point at `t`,
    /// answered through the cached spatial index. Under a fault scenario,
    /// dead satellites and rain-faded access links are excluded.
    pub fn reachable_servers(&self, ground: Geodetic, t: f64) -> Vec<VisibleSat> {
        let view = self.view(t);
        let ge = ground.to_ecef_spherical();
        match view.fault_plan() {
            Some(plan) => view.index().query_masked(ge, plan),
            None => view.index().query(ge),
        }
    }

    /// The full network graph at a snapshot with the given ground
    /// endpoints attached.
    ///
    /// The reference oracle, with no production caller: every library
    /// query routes on the CSR engine through [`SnapshotView`]. The graph
    /// ignores the service's fault scenario. It stays public for tests
    /// and the benchmark's legacy-router probes.
    pub fn graph(&self, snapshot: &Snapshot, grounds: &[GroundEndpoint]) -> NetworkGraph {
        routing::build_graph(&self.constellation, &self.topology, snapshot, grounds)
    }

    /// One-way delays (seconds) from each ground endpoint to every
    /// satellite at the view's instant: `result[user][sat_id]`, `INFINITY`
    /// when unreachable. The bulk query behind meetup-server selection:
    /// one shared weight refresh per instant, arena-backed Dijkstra per
    /// row.
    pub fn user_delays_view(&self, view: &SnapshotView, users: &[GroundEndpoint]) -> Vec<Vec<f64>> {
        let links = view.attach(users);
        view.delays_from_all(&links)
    }

    /// One-way state-migration delay (seconds) between two servers when
    /// the session's ground segment may relay: the shortest path over
    /// ISLs *or* down through any of `grounds` and back up. Successive
    /// meetup-servers both sit above the same user group, so the
    /// via-ground bounce often beats winding across the +Grid between an
    /// ascending and a descending plane. `None` when disconnected, which
    /// includes a dead endpoint under a fault scenario.
    pub fn migration_delay_view(
        &self,
        view: &SnapshotView,
        grounds: &[GroundEndpoint],
        a: SatId,
        b: SatId,
    ) -> Option<f64> {
        if a == b {
            return Some(0.0);
        }
        let links = view.attach(grounds);
        view.sat_to_sat_delay(Some(&links), a, b)
    }

    /// Direct (single-hop) one-way delays from each user to every
    /// satellite: `result[user][sat]` is the slant-range delay when the
    /// satellite is visible to that user (and not masked by the view's
    /// fault plan), `INFINITY` otherwise. Answered through the view's
    /// spatial index — the per-tick hot path of the session runner and
    /// the Sticky lookahead.
    ///
    /// This is the paper's gateway-free session model (§3.2: "user
    /// terminals can communicate directly via satellites without any
    /// gateway intervention") — and it needs no graph construction, so
    /// per-tick session costs stay tiny.
    pub fn user_direct_delays_view(
        &self,
        view: &SnapshotView,
        users: &[GroundEndpoint],
    ) -> Vec<Vec<f64>> {
        users
            .iter()
            .map(|u| {
                let mut row = vec![f64::INFINITY; self.constellation.num_satellites()];
                match view.fault_plan() {
                    Some(plan) => view.index().for_each_visible_masked(u.ecef, plan, |v| {
                        row[v.id.0 as usize] = v.delay_s()
                    }),
                    None => view
                        .index()
                        .for_each_visible(u.ecef, |v| row[v.id.0 as usize] = v.delay_s()),
                }
                row
            })
            .collect()
    }

    /// The nearest visible server for one user at this instant — the
    /// serving layer's primitive query. Smallest slant range wins; exact
    /// range ties (possible for symmetric geometries) break toward the
    /// lower satellite id, so the answer is a pure function of the view
    /// and never depends on scan order. Fault-plan aware through the
    /// view: dead or rain-faded satellites are never returned, and with
    /// an empty plan the answer is identical to the plain service.
    pub fn nearest_server_view(
        &self,
        view: &SnapshotView,
        user: &GroundEndpoint,
    ) -> Option<VisibleSat> {
        let mut best: Option<VisibleSat> = None;
        let mut consider = |v: VisibleSat| {
            let better = match best.as_ref() {
                None => true,
                Some(b) => v.range_m < b.range_m || (v.range_m == b.range_m && v.id.0 < b.id.0),
            };
            if better {
                best = Some(v);
            }
        };
        match view.fault_plan() {
            Some(plan) => view
                .index()
                .for_each_visible_masked(user.ecef, plan, &mut consider),
            None => view.index().for_each_visible(user.ecef, &mut consider),
        }
        best
    }

    /// [`InOrbitService::nearest_server_view`] over a whole user batch,
    /// one entry per user in input order (`None` where no server is
    /// visible). This is what a serve shard runs per snapshot.
    pub fn nearest_servers_view(
        &self,
        view: &SnapshotView,
        users: &[GroundEndpoint],
    ) -> Vec<Option<VisibleSat>> {
        users
            .iter()
            .map(|u| self.nearest_server_view(view, u))
            .collect()
    }

    /// True when the fault plan of `view` rules out `sat` as a server for
    /// this user group: the satellite is dead, or some user's access link
    /// to it is rain-faded shut. Geometric invisibility is *not* a fault —
    /// the session layer already hands off on that — so satellites no user
    /// could see anyway return `false`. Always `false` without a plan,
    /// keeping fault-free sessions byte-identical.
    pub fn fault_masked_server(
        &self,
        view: &SnapshotView,
        users: &[GroundEndpoint],
        sat: SatId,
    ) -> bool {
        let Some(plan) = view.fault_plan() else {
            return false;
        };
        if plan.is_empty() {
            return false;
        }
        if plan.sat_dead(sat) {
            return true;
        }
        let pos = view.snapshot().position(sat);
        let min_el = self.constellation.min_elevation_of(sat);
        users.iter().any(|u| {
            look::is_visible_spherical(u.ecef, pos, min_el) && plan.access_link_masked(u.ecef, pos)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureModel;
    use leo_constellation::presets;
    use leo_net::visibility;
    use leo_net::weather::LinkBudget;
    use leo_net::RainFade;

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_550_only())
    }

    /// The brute-force reference: every satellite scanned, masked by the
    /// view's fault plan when it has one.
    fn scan(s: &InOrbitService, view: &SnapshotView, ground: Geodetic) -> Vec<VisibleSat> {
        let (c, snap) = (s.constellation(), view.snapshot());
        let ge = ground.to_ecef_spherical();
        match view.fault_plan() {
            Some(plan) => visibility::visible_sats_masked(c, snap, ground, ge, plan),
            None => visibility::visible_sats(c, snap, ground, ge),
        }
    }

    /// Direct-delay rows (`[user][sat]`) built from [`scan`].
    fn scan_rows(
        s: &InOrbitService,
        view: &SnapshotView,
        users: &[GroundEndpoint],
    ) -> Vec<Vec<f64>> {
        users
            .iter()
            .map(|u| {
                let mut row = vec![f64::INFINITY; s.num_servers()];
                for v in scan(s, view, u.geodetic) {
                    row[v.id.0 as usize] = v.delay_s();
                }
                row
            })
            .collect()
    }

    #[test]
    fn server_count_equals_satellite_count() {
        let s = service();
        assert_eq!(s.num_servers(), 1584);
    }

    #[test]
    fn reachable_servers_are_nonempty_at_served_latitudes() {
        let s = service();
        let vis = s.reachable_servers(Geodetic::ground(20.0, 30.0), 0.0);
        assert!(!vis.is_empty());
    }

    #[test]
    fn user_delays_shape_matches_users_and_servers() {
        let s = service();
        let users = [
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        ];
        let delays = s.user_delays_view(&s.view(0.0), &users);
        assert_eq!(delays.len(), 2);
        assert_eq!(delays[0].len(), s.num_servers());
        // Shell is ISL-connected, so every server is reachable.
        assert!(delays.iter().flatten().all(|d| d.is_finite()));
    }

    #[test]
    fn server_to_server_delay_is_symmetric_and_zero_on_diagonal() {
        let view = service().view(100.0);
        assert_eq!(view.sat_to_sat_delay(None, SatId(5), SatId(5)), Some(0.0));
        let ab = view.sat_to_sat_delay(None, SatId(0), SatId(700)).unwrap();
        let ba = view.sat_to_sat_delay(None, SatId(700), SatId(0)).unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0);
    }

    #[test]
    fn cached_view_is_shared_and_matches_direct_propagation() {
        let s = service();
        let a = s.view(321.0);
        let b = s.view(321.0);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let fresh = s.constellation().snapshot(321.0);
        assert_eq!(a.snapshot().len(), fresh.len());
        for (id, pos) in fresh.iter() {
            assert_eq!(a.snapshot().position(id), pos);
        }
    }

    #[test]
    fn indexed_direct_delays_equal_brute_force() {
        let users = [
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(-33.9, 18.4)),
        ];
        // Deaths and a rain fade, so the masked index path is checked too.
        let cfg = FaultConfig {
            schedule: Some(
                FailureModel {
                    annual_failure_rate: 4000.0,
                    seed: 17,
                }
                .schedule(1584),
            ),
            rain: Some(RainFade {
                budget: LinkBudget::CONSUMER,
                rain_rate_mm_h: 10.0,
            }),
            ..FaultConfig::none()
        };
        let faulted = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let plain = service();
        for (s, t) in [(&plain, 777.0), (&faulted, 777.0), (&faulted, 3600.0)] {
            let view = s.view(t);
            let brute = scan_rows(s, &view, &users);
            assert_eq!(brute, s.user_direct_delays_view(&view, &users), "t={t}");
            if view.fault_plan().is_some() {
                let unmasked = scan_rows(&plain, &plain.view(t), &users);
                assert_ne!(brute, unmasked, "t={t}: the plan must mask some entry");
            }
        }
    }

    #[test]
    #[should_panic(expected = "snapshot instant must be finite")]
    fn nan_view_is_rejected() {
        service().view(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "snapshot instant must be finite")]
    fn infinite_view_is_rejected() {
        service().view(f64::INFINITY);
    }

    #[test]
    fn clones_share_cached_views() {
        let s = service();
        let a = s.view(10.0);
        let s2 = s.clone();
        let b = s2.view(10.0);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn faultless_fault_config_changes_nothing() {
        let plain = service();
        let faulted =
            InOrbitService::with_faults(presets::starlink_550_only(), FaultConfig::none());
        let g = Geodetic::ground(6.52, 3.38);
        assert_eq!(
            plain.reachable_servers(g, 60.0),
            faulted.reachable_servers(g, 60.0)
        );
        let users = [GroundEndpoint::new(0, g)];
        assert_eq!(
            plain.user_delays_view(&plain.view(60.0), &users),
            faulted.user_delays_view(&faulted.view(60.0), &users)
        );
        assert!(faulted.view(60.0).fault_plan().unwrap().is_empty());
    }

    #[test]
    fn dead_satellite_is_excluded_from_every_query() {
        let plain = service();
        let g = Geodetic::ground(0.0, 0.0);
        let victim = plain.reachable_servers(g, 0.0)[0].id;
        let mut deaths = vec![f64::INFINITY; victim.0 as usize + 1];
        deaths[victim.0 as usize] = 0.0;
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        assert!(s.reachable_servers(g, 0.0).iter().all(|v| v.id != victim));
        let view = s.view(0.0);
        assert_eq!(view.sat_to_sat_delay(None, SatId(0), victim), None);
        let users = [GroundEndpoint::new(0, g)];
        let delays = s.user_delays_view(&view, &users);
        assert!(delays[0][victim.0 as usize].is_infinite());
        let direct = s.user_direct_delays_view(&view, &users);
        assert!(direct[0][victim.0 as usize].is_infinite());
        assert!(s.fault_masked_server(&s.view(0.0), &users, victim));
        assert!(!plain.fault_masked_server(&plain.view(0.0), &users, victim));
    }

    #[test]
    fn total_ground_outage_masks_every_server_in_view() {
        let mut cfg = FaultConfig::none();
        cfg.cut_links.push((SatId(0), SatId(1)));
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let view = s.view(0.0);
        let g = Geodetic::ground(0.0, 0.0);
        let users = [GroundEndpoint::new(0, g)];
        // A cut ISL is not an access fault: no server is masked for users.
        let up = s.user_direct_delays_view(&view, &users);
        let plain = service();
        assert_eq!(up, plain.user_direct_delays_view(&plain.view(0.0), &users));
        // But the cut edge itself is gone from the mesh.
        let before = plain
            .view(0.0)
            .sat_to_sat_delay(None, SatId(0), SatId(1))
            .unwrap();
        let after = view.sat_to_sat_delay(None, SatId(0), SatId(1)).unwrap();
        assert!(after >= before);
    }

    #[test]
    fn direct_visibility_gives_single_hop_minimum_delay() {
        let s = service();
        let g = Geodetic::ground(0.0, 0.0);
        let view = s.view(0.0);
        let direct = scan(&s, &view, g);
        let users = [GroundEndpoint::new(0, g)];
        let delays = &s.user_delays_view(&view, &users)[0];
        for v in direct {
            // The graph delay to a directly visible satellite equals the
            // direct slant-range delay (straight line beats any relay).
            assert!((delays[v.id.0 as usize] - v.delay_s()).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_server_is_the_smallest_visible_range() {
        let s = service();
        let view = s.view(150.0);
        let user = GroundEndpoint::new(0, Geodetic::ground(12.0, 77.0));
        let nearest = s.nearest_server_view(&view, &user).unwrap();
        let all = scan(&s, &view, user.geodetic);
        let best = all.iter().map(|v| v.range_m).fold(f64::INFINITY, f64::min);
        assert_eq!(nearest.range_m, best);
        // Batched answers equal the one-by-one answers, in input order.
        let users = [
            user,
            GroundEndpoint::new(1, Geodetic::ground(-26.2, 28.0)),
            GroundEndpoint::new(2, Geodetic::ground(89.0, 0.0)),
        ];
        let batch = s.nearest_servers_view(&view, &users);
        for (u, got) in users.iter().zip(&batch) {
            assert_eq!(*got, s.nearest_server_view(&view, u));
        }
    }

    #[test]
    fn nearest_server_skips_a_dead_satellite() {
        let plain = service();
        let g = Geodetic::ground(0.0, 0.0);
        let user = GroundEndpoint::new(0, g);
        let victim = plain
            .nearest_server_view(&plain.view(0.0), &user)
            .unwrap()
            .id;
        let mut deaths = vec![f64::INFINITY; victim.0 as usize + 1];
        deaths[victim.0 as usize] = 0.0;
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let next = s.nearest_server_view(&s.view(0.0), &user).unwrap();
        assert_ne!(next.id, victim, "a dead satellite must never serve");
    }

    fn spread_users(n: usize) -> Vec<GroundEndpoint> {
        (0..n)
            .map(|i| {
                GroundEndpoint::new(
                    i as u32,
                    Geodetic::ground(
                        -54.0 + (i as f64 * 1.37) % 108.0,
                        -180.0 + (i as f64 * 11.31) % 360.0,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn settled_frontier_equals_per_user_scans_through_the_view() {
        let s = service();
        let users = spread_users(400);
        let set = GroundSet::build(&users.iter().map(|u| u.ecef).collect::<Vec<_>>());
        for t in [0.0, 333.0] {
            let view = s.view(t);
            let legacy = s.nearest_servers_view(&view, &users);
            let mut state = NearestState::default();
            let mut settled = Vec::new();
            view.settle_nearest_servers(&set, &mut state, &mut settled);
            assert_eq!(legacy.len(), settled.len());
            for (j, (a, b)) in legacy.iter().zip(&settled).enumerate() {
                match (a, b) {
                    (None, None) => {}
                    (Some(p), Some(q)) => {
                        assert_eq!(p.id, q.id, "user {j}");
                        assert_eq!(p.range_m.to_bits(), q.range_m.to_bits(), "user {j}");
                    }
                    _ => panic!("user {j}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn settled_frontier_equals_per_user_scans_under_faults() {
        let mut deaths = vec![f64::INFINITY; 300];
        for d in deaths.iter_mut().step_by(4) {
            *d = 0.0;
        }
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let users = spread_users(300);
        let set = GroundSet::build(&users.iter().map(|u| u.ecef).collect::<Vec<_>>());
        let view = s.view(120.0);
        assert!(!view.fault_plan().unwrap().is_empty());
        let legacy = s.nearest_servers_view(&view, &users);
        let mut state = NearestState::default();
        let mut settled = Vec::new();
        view.settle_nearest_servers(&set, &mut state, &mut settled);
        assert_eq!(legacy, settled);
        for v in settled.iter().flatten() {
            assert!(!view.fault_plan().unwrap().sat_dead(v.id));
        }
    }

    #[test]
    fn frontier_visible_lists_match_reachable_servers() {
        let s = service();
        let users = spread_users(120);
        let pts: Vec<_> = users.iter().map(|u| u.ecef).collect();
        let banded = leo_net::BandedGroundSets::build(&pts, 4.0);
        let view = s.view(200.0);
        let mut got: Vec<Option<Vec<VisibleSat>>> = vec![None; users.len()];
        for band in banded.bands() {
            for (g, list) in view.frontier_visible_lists(band) {
                got[g as usize] = Some(list);
            }
        }
        for (u, g) in users.iter().zip(got) {
            let mut want = scan(&s, &view, u.geodetic);
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(g.expect("every user banded"), want);
        }
    }

    #[test]
    fn empty_fault_plan_gives_identical_nearest_servers() {
        let plain = service();
        let faulted =
            InOrbitService::with_faults(presets::starlink_550_only(), FaultConfig::none());
        let users: Vec<GroundEndpoint> = (0..8)
            .map(|i| GroundEndpoint::new(i, Geodetic::ground(i as f64 * 9.0 - 30.0, 17.0)))
            .collect();
        assert_eq!(
            plain.nearest_servers_view(&plain.view(45.0), &users),
            faulted.nearest_servers_view(&faulted.view(45.0), &users),
        );
    }
}
