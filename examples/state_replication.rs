//! Ahead-of-time state replication (§5's closing idea): predict the
//! future meetup-servers, pre-replicate the bulky generic state, and
//! migrate only the small session state at hand-off time.
//!
//! Run with: `cargo run --release --example state_replication`

use in_orbit::core::replication::{predict_servers, ReplicationPlan, StateSizes};
use in_orbit::net::congestion::Link;
use in_orbit::prelude::*;

fn main() {
    let service =
        InOrbitService::new(in_orbit::constellation::presets::starlink_phase1_conservative());
    let users = vec![
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)), // Abuja
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)), // Yaoundé
        GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)), // Lagos
    ];

    // Predict the next 30 minutes of Sticky meetup-servers.
    let intervals = predict_servers(
        &service,
        &users,
        Policy::sticky_default(),
        0.0,
        1800.0,
        10.0,
    );
    println!("predicted serving sequence (Sticky, next 30 min):");
    for iv in &intervals {
        println!(
            "  {}  {:>6.0} s → {:>6.0} s  ({:>4.0} s)",
            iv.server,
            iv.from_s,
            iv.until_s,
            iv.duration_s()
        );
    }

    // A game: 10 MB of session state, 2 GB of world data.
    let sizes = StateSizes {
        session_bytes: 10e6,
        generic_bytes: 2e9,
    };
    let plan = ReplicationPlan::build(intervals, sizes, 3, 60.0);
    println!("\nprefetch orders (generic state, 60 s lead):");
    for o in &plan.orders {
        println!(
            "  push world data to {} during [{:.0} s, {:.0} s]",
            o.target, o.start_s, o.deadline_s
        );
    }

    // Hand-off critical path over a 100 Gbps ISL with 3 ms propagation.
    let links = [Link::new(100e9, 0.003)];
    let (with, without) = plan.handoff_times_s(&links);
    println!("\nhand-off critical path (100 Gbps ISL):");
    println!(
        "  migrate everything at hand-off : {:>8.1} ms",
        without * 1e3
    );
    println!("  with ahead-of-time replication : {:>8.1} ms", with * 1e3);
    println!(
        "  feasible within the lead time  : {}",
        plan.prefetches_feasible(&links)
    );
}
