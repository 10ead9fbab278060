//! Visibility-query cost: the inner loop of Figs 1, 2, 4 and of every
//! selection tick.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leo_cities::WorldCities;
use leo_constellation::presets;
use leo_geo::{Ecef, Geodetic};
use leo_net::fault::FaultPlan;
use leo_net::index::VisibilityIndex;
use leo_net::visibility::{coverage_mask, visible_sats};

fn bench_visible_sats(c: &mut Criterion) {
    let starlink = presets::starlink_phase1();
    let kuiper = presets::kuiper();
    let snap_s = starlink.snapshot(0.0);
    let snap_k = kuiper.snapshot(0.0);
    let ge = Geodetic::ground(20.0, 30.0).to_ecef_spherical();

    let plan = FaultPlan::empty();

    let mut group = c.benchmark_group("visible_sats");
    group.bench_function("starlink_phase1", |b| {
        b.iter(|| black_box(visible_sats(&starlink, &snap_s, ge, &plan)))
    });
    group.bench_function("kuiper", |b| {
        b.iter(|| black_box(visible_sats(&kuiper, &snap_k, ge, &plan)))
    });
    group.finish();
}

/// Indexed vs brute-force visibility at Starlink Phase I first-shell
/// scale (1,584 satellites): the acceptance benchmark of the spatial
/// index. The two paths return identical results; only the candidate-set
/// size differs.
fn bench_indexed_vs_brute(c: &mut Criterion) {
    let shell = presets::starlink_550_only();
    let snap = shell.snapshot(0.0);
    let index = VisibilityIndex::build(&shell, &snap);
    // Average over a spread of latitudes so neither path is cherry-picked.
    let grounds: Vec<Ecef> = [0.0, 15.0, 30.0, 45.0]
        .iter()
        .map(|&lat| Geodetic::ground(lat, 17.0).to_ecef_spherical())
        .collect();
    let plan = FaultPlan::empty();

    let mut group = c.benchmark_group("visibility_1584");
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            for &ge in &grounds {
                black_box(visible_sats(&shell, &snap, ge, &plan));
            }
        })
    });
    group.bench_function("indexed", |b| {
        b.iter(|| {
            for &ge in &grounds {
                black_box(index.query(ge, &plan));
            }
        })
    });
    group.bench_function("index_build", |b| {
        b.iter(|| black_box(VisibilityIndex::build(&shell, &snap)))
    });
    group.finish();
}

fn bench_coverage_mask(c: &mut Criterion) {
    let starlink = presets::starlink_phase1();
    let snap = starlink.snapshot(0.0);
    let cities = WorldCities::load();
    let grounds: Vec<Ecef> = cities
        .top_n_geodetic(100)
        .into_iter()
        .map(|g| g.to_ecef_spherical())
        .collect();

    let mut group = c.benchmark_group("coverage_mask");
    group.sample_size(20);
    group.bench_function("starlink_100_cities", |b| {
        b.iter(|| black_box(coverage_mask(&starlink, &snap, &grounds)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_visible_sats,
    bench_indexed_vs_brute,
    bench_coverage_mask
);
criterion_main!(benches);
