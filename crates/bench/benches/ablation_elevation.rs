//! Ablation of the minimum-elevation assumption (DESIGN.md §6): the
//! paper does not state its elevation mask, and Figs 1–3 depend on it.
//! This bench prints the Fig 1/2 headline quantities under 25° / 30° /
//! 35° / 40° masks, then measures the visibility query at each mask.
//! It also prints the J2-vs-two-body position divergence over the paper's
//! two-hour horizon, validating the propagation substitution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leo_constellation::shell::ShellSpec;
use leo_constellation::{presets, Constellation};
use leo_geo::{Angle, Epoch, Geodetic};
use leo_net::fault::FaultPlan;
use leo_net::visibility::visible_sats;
use leo_orbit::propagate::ForceModel;
use leo_orbit::Propagator;

fn starlink_with_elevation(min_el_deg: f64) -> Constellation {
    let shells: Vec<ShellSpec> = presets::starlink_phase1_shells()
        .into_iter()
        .map(|mut s| {
            s.min_elevation = Angle::from_degrees(min_el_deg);
            s
        })
        .collect();
    Constellation::from_shells("starlink-ablation", shells)
}

fn print_elevation_table() {
    println!("\n# Elevation-mask ablation (Starlink P1, equator, t=0):");
    println!(
        "{:>10} {:>10} {:>14} {:>14}",
        "mask", "visible", "nearest rtt", "farthest rtt"
    );
    let g = Geodetic::ground(0.0, 0.0);
    let ge = g.to_ecef_spherical();
    for el in [25.0, 30.0, 35.0, 40.0] {
        let c = starlink_with_elevation(el);
        let snap = c.snapshot(0.0);
        let vis = visible_sats(&c, &snap, ge, &FaultPlan::empty());
        let near = vis.iter().map(|v| v.rtt_ms()).fold(f64::INFINITY, f64::min);
        let far = vis.iter().map(|v| v.rtt_ms()).fold(0.0, f64::max);
        println!(
            "{:>9.0}° {:>10} {:>11.2} ms {:>11.2} ms",
            el,
            vis.len(),
            near,
            far
        );
    }
}

fn print_j2_divergence() {
    println!("\n# J2 vs two-body divergence over the paper's 2-hour horizon:");
    let e = leo_orbit::KeplerianElements::circular(
        550e3,
        Angle::from_degrees(53.0),
        Angle::ZERO,
        Angle::ZERO,
    );
    let j2 = Propagator::new(e, Epoch::J2000);
    let tb = Propagator::with_force_model(e, Epoch::J2000, ForceModel::TwoBody);
    for t in [600.0, 1800.0, 3600.0, 7200.0] {
        let d = j2.position_eci(t).0.distance(tb.position_eci(t).0);
        println!("  t = {:>5.0} s: {:>8.2} km", t, d / 1e3);
    }
    println!("  (≪ the ~600 km inter-satellite spacing — latency figures unaffected)");
}

fn bench_elevation(c: &mut Criterion) {
    print_elevation_table();
    print_j2_divergence();

    let g = Geodetic::ground(0.0, 0.0);
    let ge = g.to_ecef_spherical();
    let mut group = c.benchmark_group("visibility_by_elevation");
    group.sample_size(20);
    for el in [25.0, 40.0] {
        let constellation = starlink_with_elevation(el);
        let snap = constellation.snapshot(0.0);
        group.bench_function(format!("mask_{el:.0}_deg"), |b| {
            b.iter(|| black_box(visible_sats(&constellation, &snap, ge, &FaultPlan::empty())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_elevation);
criterion_main!(benches);
