//! Delta refresh must be indistinguishable from a full refresh — not
//! "close", bit-identical. `refresh_delta` skips an edge only when both
//! endpoint position bit patterns and the edge's mask status are exactly
//! what the previous refresh recorded, and recomputed edges reuse the
//! full path's expressions verbatim; these properties pin that down
//! across random snapshot pairs, fault plans, and chained transitions,
//! including the downstream Dijkstra results and the batched
//! multi-source query the serving layer leans on.

use leo_constellation::{Constellation, SatId, ShellSpec, WalkerPattern};
use leo_geo::{Angle, Geodetic};
use leo_net::engine::{DijkstraArena, RoutingEngine};
use leo_net::routing::GroundEndpoint;
use leo_net::{FaultPlan, IslTopology, IslWeights};
use proptest::prelude::*;

fn small_constellation() -> Constellation {
    Constellation::from_shells(
        "delta-prop",
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

fn compiled() -> (Constellation, RoutingEngine) {
    let c = small_constellation();
    let topo = IslTopology::plus_grid(&c);
    let engine = RoutingEngine::compile(&c, &topo);
    (c, engine)
}

/// A fault plan from arbitrary dead-satellite picks.
fn plan_from(dead: &[u8], engine: &RoutingEngine) -> FaultPlan {
    let n = engine.num_sats() as u32;
    let mut plan = FaultPlan::empty();
    for &d in dead {
        plan.kill(SatId(u32::from(d) % n));
    }
    plan
}

fn assert_bits_eq(delta: &IslWeights, full: &IslWeights, ctx: &str) {
    assert!(
        delta.bits_eq(full),
        "{ctx}: delta diverged from full refresh"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unmasked delta across a random snapshot pair lands bit-for-bit on
    /// the full refresh, whatever the time step (including zero).
    #[test]
    fn delta_equals_full_across_snapshot_pairs(
        t0 in 0.0f64..5400.0,
        dt in (0u8..4, 1e-3f64..600.0).prop_map(|(z, v)| if z == 0 { 0.0 } else { v }),
    ) {
        let (c, engine) = compiled();
        let mut w = IslWeights::default();
        engine.refresh_delta(&c.snapshot(t0), &FaultPlan::empty(), &mut w);
        let stats = engine.refresh_delta(&c.snapshot(t0 + dt), &FaultPlan::empty(), &mut w);
        prop_assert!(!stats.full_rebuild);
        assert_bits_eq(&w, &engine.refresh(&c.snapshot(t0 + dt), &FaultPlan::empty()), "unmasked pair");
        if dt == 0.0 {
            prop_assert_eq!(stats.recomputed, 0);
        }
    }

    /// Masked delta across random snapshot pairs and random fault-plan
    /// transitions (plan appears, changes, or disappears) matches the
    /// full masked refresh bitwise at every step.
    #[test]
    fn masked_delta_equals_full_across_plan_transitions(
        t0 in 0.0f64..5400.0,
        dt in 0.0f64..600.0,
        dead0 in proptest::collection::vec(0u8..255, 0..4),
        dead1 in proptest::collection::vec(0u8..255, 0..4),
    ) {
        let (c, engine) = compiled();
        let plan0 = plan_from(&dead0, &engine);
        let plan1 = plan_from(&dead1, &engine);
        let mut w = IslWeights::default();
        engine.refresh_delta(&c.snapshot(t0), &plan0, &mut w);
        // Transition 1: new instant, new plan.
        engine.refresh_delta(&c.snapshot(t0 + dt), &plan1, &mut w);
        let mut full = IslWeights::default();
        engine.refresh_into(&c.snapshot(t0 + dt), &plan1, &mut full);
        assert_bits_eq(&w, &full, "plan transition");
        // Transition 2: same instant, plan lifted entirely.
        engine.refresh_delta(&c.snapshot(t0 + dt), &FaultPlan::empty(), &mut w);
        assert_bits_eq(&w, &engine.refresh(&c.snapshot(t0 + dt), &FaultPlan::empty()), "plan lifted");
    }

    /// A chain of deltas tracks a chain of full refreshes bitwise — no
    /// drift accumulates step over step.
    #[test]
    fn chained_deltas_never_drift(
        t0 in 0.0f64..5400.0,
        steps in proptest::collection::vec(0.0f64..240.0, 1..6),
    ) {
        let (c, engine) = compiled();
        let mut w = IslWeights::default();
        engine.refresh_delta(&c.snapshot(t0), &FaultPlan::empty(), &mut w);
        let mut t = t0;
        for (i, dt) in steps.iter().enumerate() {
            t += dt;
            engine.refresh_delta(&c.snapshot(t), &FaultPlan::empty(), &mut w);
            assert_bits_eq(&w, &engine.refresh(&c.snapshot(t), &FaultPlan::empty()), &format!("step {i}"));
        }
    }

    /// Downstream of the weights, per-ground Dijkstra rows computed over
    /// delta-refreshed weights equal the full-refresh rows bitwise —
    /// under a fault plan too.
    #[test]
    fn downstream_delays_are_identical(
        t0 in 0.0f64..5400.0,
        dt in 0.0f64..600.0,
        dead in proptest::collection::vec(0u8..255, 0..3),
        lat in -60.0f64..60.0,
        lon in -180.0f64..180.0,
    ) {
        let (c, engine) = compiled();
        let plan = plan_from(&dead, &engine);
        let mut w = IslWeights::default();
        engine.refresh_delta(&c.snapshot(t0), &plan, &mut w);
        let snap = c.snapshot(t0 + dt);
        engine.refresh_delta(&snap, &plan, &mut w);
        let mut full = IslWeights::default();
        engine.refresh_into(&snap, &plan, &mut full);
        let grounds = [GroundEndpoint::new(0, Geodetic::ground(lat, lon))];
        let links = engine.attach_scan(&c, &snap, &grounds, &plan);
        let mut arena = DijkstraArena::new();
        let mut via_delta = Vec::new();
        let mut via_full = Vec::new();
        engine.delays_from_ground_into(&w, &links, 0, &mut via_delta, &mut arena);
        engine.delays_from_ground_into(&full, &links, 0, &mut via_full, &mut arena);
        for (s, (a, b)) in via_delta.iter().zip(&via_full).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "sat {}", s);
        }
    }

    /// The batched multi-source query decomposes: sharing one settled
    /// frontier across a random source group equals the elementwise
    /// minimum of the per-source runs, bit for bit.
    #[test]
    fn multi_source_decomposes_into_single_sources(
        t in 0.0f64..5400.0,
        picks in proptest::collection::vec(0u8..255, 1..8),
        lats in proptest::collection::vec(-60.0f64..60.0, 1..4),
    ) {
        let (c, engine) = compiled();
        let snap = c.snapshot(t);
        let weights = engine.refresh(&snap, &FaultPlan::empty());
        let grounds: Vec<GroundEndpoint> = lats
            .iter()
            .enumerate()
            .map(|(i, &lat)| {
                GroundEndpoint::new(i as u32, Geodetic::ground(lat, 31.0 * i as f64))
            })
            .collect();
        let links = engine.attach_scan(&c, &snap, &grounds, &FaultPlan::empty());
        let n = engine.num_sats() as u32;
        let sources: Vec<SatId> = picks.iter().map(|&p| SatId(u32::from(p) % n)).collect();
        let mut arena = DijkstraArena::new();
        let mut batched = Vec::new();
        engine.multi_source_ground_delays_into(&weights, &links, &sources, &mut batched, &mut arena);
        let mut row = Vec::new();
        for g in 0..grounds.len() {
            let mut best = f64::INFINITY;
            for &s in &sources {
                engine.multi_source_ground_delays_into(
                    &weights,
                    &links,
                    std::slice::from_ref(&s),
                    &mut row,
                    &mut arena,
                );
                best = best.min(row[g]);
            }
            prop_assert_eq!(batched[g].to_bits(), best.to_bits(), "ground {}", g);
        }
    }
}
