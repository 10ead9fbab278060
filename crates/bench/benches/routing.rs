//! Routing cost: ISL topology construction, per-snapshot graph build, and
//! Dijkstra shortest paths — the per-tick cost of every session.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leo_constellation::presets;
use leo_constellation::SatId;
use leo_geo::Geodetic;
use leo_net::engine::{DijkstraArena, RoutingEngine};
use leo_net::fault::FaultPlan;
use leo_net::routing::{
    build_graph, delays_to_all_sats, ground_to_ground, sat_to_sat, GroundEndpoint,
};
use leo_net::IslTopology;

fn bench_topology_build(c: &mut Criterion) {
    let starlink550 = presets::starlink_550_only();
    let starlink = presets::starlink_phase1();
    let mut group = c.benchmark_group("isl_topology");
    group.sample_size(10);
    group.bench_function("plus_grid_1584", |b| {
        b.iter(|| black_box(IslTopology::plus_grid(&starlink550)))
    });
    group.bench_function("plus_grid_4409", |b| {
        b.iter(|| black_box(IslTopology::plus_grid(&starlink)))
    });
    group.finish();
}

fn bench_graph_and_paths(c: &mut Criterion) {
    let constellation = presets::starlink_550_only();
    let topo = IslTopology::plus_grid(&constellation);
    let snap = constellation.snapshot(0.0);
    let a = GroundEndpoint::new(0, Geodetic::ground(51.51, -0.13));
    let b = GroundEndpoint::new(1, Geodetic::ground(40.71, -74.01));
    let grounds = [a, b];
    let graph = build_graph(&constellation, &topo, &snap, &grounds);

    let mut group = c.benchmark_group("routing");
    group.sample_size(30);
    group.bench_function("build_graph_1584", |bch| {
        bch.iter(|| black_box(build_graph(&constellation, &topo, &snap, &grounds)))
    });
    group.bench_function("dijkstra_london_newyork", |bch| {
        bch.iter(|| black_box(ground_to_ground(&graph, &a, &b)))
    });
    group.bench_function("delays_to_all_sats", |bch| {
        bch.iter(|| black_box(delays_to_all_sats(&graph, &constellation, &a)))
    });
    group.finish();
}

/// The CSR engine against the allocating graph path at full 1,584-sat
/// scale, on the Fig 3 West Africa group: the per-snapshot bulk-delay
/// query that dominates fig3/fig6/fig7 sweeps. The `baseline_*` entry
/// rebuilds the graph per snapshot like the pre-engine code did; the
/// `engine_*` entry refreshes weights in place and reuses one arena.
fn bench_engine_1584(c: &mut Criterion) {
    let constellation = presets::starlink_550_only();
    let topo = IslTopology::plus_grid(&constellation);
    let snap = constellation.snapshot(300.0);
    let users = [
        GroundEndpoint::new(0, Geodetic::ground(6.52, 3.38)), // Lagos
        GroundEndpoint::new(1, Geodetic::ground(5.56, -0.20)), // Accra
        GroundEndpoint::new(2, Geodetic::ground(9.06, 7.49)), // Abuja
    ];

    let single = [users[0]];

    let engine = RoutingEngine::compile(&constellation, &topo);
    let mut weights = engine.refresh(&snap, &FaultPlan::empty());
    let links = engine.attach_scan(&constellation, &snap, &users, &FaultPlan::empty());
    let mut arena = DijkstraArena::new();

    let mut group = c.benchmark_group("routing_1584");
    group.sample_size(20);
    // The bulk-delays primitive: one ground source to every satellite,
    // per snapshot (what the pre-engine code paid build_graph for on
    // every call).
    group.bench_function("baseline_bulk_delays", |bch| {
        bch.iter(|| {
            let graph = build_graph(&constellation, &topo, &snap, &single);
            black_box(delays_to_all_sats(&graph, &constellation, &single[0]))
        })
    });
    group.bench_function("engine_bulk_delays", |bch| {
        bch.iter(|| {
            engine.refresh_into(&snap, &FaultPlan::empty(), &mut weights);
            let links = engine.attach_scan(&constellation, &snap, &single, &FaultPlan::empty());
            black_box(engine.delays_from_all(&weights, &links, &mut arena))
        })
    });
    // The Fig 3 meetup query: the same, for the 3-user West Africa group.
    group.bench_function("baseline_group_delays", |bch| {
        bch.iter(|| {
            let graph = build_graph(&constellation, &topo, &snap, &users);
            let per_user: Vec<Vec<f64>> = users
                .iter()
                .map(|u| delays_to_all_sats(&graph, &constellation, u))
                .collect();
            black_box(per_user)
        })
    });
    group.bench_function("engine_group_delays", |bch| {
        bch.iter(|| {
            engine.refresh_into(&snap, &FaultPlan::empty(), &mut weights);
            let links = engine.attach_scan(&constellation, &snap, &users, &FaultPlan::empty());
            black_box(engine.delays_from_all(&weights, &links, &mut arena))
        })
    });
    group.bench_function("engine_refresh_only", |bch| {
        bch.iter(|| {
            engine.refresh_into(&snap, &FaultPlan::empty(), &mut weights);
            black_box(weights.len())
        })
    });
    group.bench_function("engine_sat_to_sat", |bch| {
        bch.iter(|| {
            black_box(engine.sat_to_sat_delay(
                &weights,
                Some(&links),
                SatId(0),
                SatId(700),
                &mut arena,
            ))
        })
    });
    // The state-migration route: a hop list between two satellites, as
    // the hand-off loop asks for it once per route segment. The baseline
    // rebuilds the graph per segment like the pre-engine code did.
    group.bench_function("baseline_sat_to_sat_path", |bch| {
        bch.iter(|| {
            let graph = build_graph(&constellation, &topo, &snap, &[]);
            black_box(sat_to_sat(&graph, SatId(0), SatId(700)))
        })
    });
    group.bench_function("engine_sat_to_sat_path", |bch| {
        bch.iter(|| black_box(engine.sat_to_sat_path(&weights, SatId(0), SatId(700), &mut arena)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_topology_build,
    bench_graph_and_paths,
    bench_engine_1584
);
criterion_main!(benches);
