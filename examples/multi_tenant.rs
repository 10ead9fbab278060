//! Multi-tenant placement: many meetup services competing for finite
//! per-satellite compute (§3.1's capacity question applied to §3.2's
//! sessions), on the edge layer's sticky function placement and its
//! one slot accounting, `CapacityPool`.
//!
//! Run with: `cargo run --release --example multi_tenant`

use in_orbit::core::capacity::CapacityPool;
use in_orbit::edge::{FunctionPlacement, FunctionSpec, ReplicaSets};
use in_orbit::net::frontier::within_rtt;
use in_orbit::net::{BandedGroundSets, VisibleSat};
use in_orbit::prelude::*;

fn main() {
    let service = InOrbitService::new(starlink_550_only());
    // Eight gaming cells clustered around the Gulf of Guinea — the worst
    // case for capacity: they all want the same satellites.
    let cells: Vec<Ecef> = (0..8)
        .map(|i| {
            let (lat, lon) = (5.0 + (i % 4) as f64 * 1.5, 3.0 + (i / 4) as f64 * 3.0);
            Geodetic::ground(lat, lon).to_ecef_spherical()
        })
        .collect();
    let bands = BandedGroundSets::build(&cells, 4.0);
    let functions = [FunctionSpec {
        name: "meetup".into(),
        slots: 8,
        ..FunctionSpec::interactive()
    }];
    // No warm replicas: every move is a cold start.
    let replicas = ReplicaSets::new(cells.len());
    let ticks: Vec<f64> = (0..=60).map(|i| i as f64 * 20.0).collect();

    println!("8 cells × one 8-slot function on the 550 km shell, 20-minute run:\n");
    for slots_per_server in [64, 16, 8] {
        let mut placement = FunctionPlacement::new(cells.len(), functions.len());
        let mut handoffs = vec![0u32; cells.len()];
        let mut served = vec![0u32; cells.len()];
        let mut rtt_sums = vec![0.0f64; cells.len()];
        let mut peak_slots = 0u64;
        for &t in &ticks {
            let view = service.view(t);
            let lists: Vec<_> = bands
                .bands()
                .iter()
                .map(|band| view.frontier_visible_lists(band))
                .collect();
            let mut candidates: Vec<&[VisibleSat]> = vec![&[]; cells.len()];
            for (band, lists) in bands.bands().iter().zip(&lists) {
                for (&cell, list) in band.points().iter().zip(lists.iter()) {
                    candidates[cell as usize] = within_rtt(list, functions[0].max_rtt_ms);
                }
            }
            let before: Vec<_> = (0..cells.len() as u32)
                .map(|c| placement.host(c, 0))
                .collect();
            let mut pool = CapacityPool::new(&service, t, slots_per_server);
            placement.tick(&candidates, &functions, &mut pool, &replicas);
            peak_slots = peak_slots.max(pool.used_slots());
            for (cell, cands) in candidates.iter().enumerate() {
                let Some(host) = placement.host(cell as u32, 0) else {
                    continue;
                };
                // A move after earlier service is a hand-off; the first
                // placement is not.
                if before[cell] != Some(host) && served[cell] > 0 {
                    handoffs[cell] += 1;
                }
                served[cell] += 1;
                let hosted = cands.iter().find(|c| c.id == host);
                rtt_sums[cell] += hosted.expect("host is a candidate").rtt_ms();
            }
        }
        let total_served: u32 = served.iter().sum();
        println!(
            "server capacity {slots_per_server:>3} slots: service ratio {:>5.1} %, peak {:>3} slots in use",
            100.0 * total_served as f64 / (cells.len() * ticks.len()) as f64,
            peak_slots
        );
        for cell in 0..3 {
            println!(
                "    cell-{cell}: {:>2} hand-offs, mean RTT {:>5.2} ms, unserved {} ticks",
                handoffs[cell],
                rtt_sums[cell] / served[cell] as f64,
                ticks.len() as u32 - served[cell]
            );
        }
        println!("    …");
    }

    println!(
        "\nWith one DL325-class server per satellite (≈64 tenant slots),\n\
         even colocated cells never go unserved; scarcity only bites when a\n\
         satellite hosts a single small board shared eight ways."
    );
}
