//! Downlink contention between Earth-observation bulk data and user
//! traffic — footnote 1 of §3.3: using a substantial fraction of the
//! ~10 Gbps down-links for sensing data "may require compromising one
//! or the other function". In-orbit pre-processing shrinks the bulk
//! share and removes the compromise.
//!
//! Both flows are open-loop CBR on one 10 Gbps downlink with a 256-packet
//! drop-tail queue. Where the EO flow starts within the user flow's 120 µs
//! packet period decides which packets meet at the queue, so each row
//! reports the min–max over 24 EO start offsets spread across one period.
//! Below capacity the range is narrow. The oversubscribed row depends on
//! the phase: the queue stays full, and whether user packets find room
//! depends on when they arrive relative to the EO packets.
//!
//! Run with: `cargo run --release --example downlink_contention`

use in_orbit::apps::spacenative::SensingPipeline;
use in_orbit::net::congestion::{CbrFlow, CongestionLink, CongestionNetwork};

/// Interactive user traffic: 100 Mbps of 1,500-byte packets.
const USER_BITS: f64 = 12_000.0;
const USER_PERIOD_S: f64 = USER_BITS / 0.1e9;
/// EO download: 15,000-byte jumbo packets.
const EO_BITS: f64 = 120_000.0;
/// EO start offsets per row, evenly spread over one user period.
const OFFSETS: usize = 24;

/// User-traffic mean latency (ms) and delivered fraction when EO data at
/// `bulk_bps` starts `eo_start_s` after the user flow.
fn scenario(bulk_bps: f64, eo_start_s: f64) -> (f64, f64) {
    let mut net = CongestionNetwork::new();
    let downlink = net.add_link(CongestionLink::new(10e9, 0.002, 256));
    let user = net.add_cbr(CbrFlow {
        route: vec![downlink],
        packet_bits: USER_BITS,
        interval_s: USER_PERIOD_S,
        start_s: 0.0,
        packets: 2_000,
    });
    if bulk_bps > 0.0 {
        net.add_cbr(CbrFlow {
            route: vec![downlink],
            packet_bits: EO_BITS,
            interval_s: EO_BITS / bulk_bps,
            start_s: eo_start_s,
            packets: (bulk_bps / EO_BITS * 0.25) as u64, // ~250 ms worth
        });
    }
    net.run();
    let stats = net.cbr_stats(user);
    let mean_s = stats
        .mean_latency_s()
        .expect("the first user packet precedes the EO flow");
    (mean_s * 1e3, stats.delivered as f64 / stats.emitted as f64)
}

fn main() {
    println!("user-traffic latency on a 10 Gbps downlink shared with EO data");
    println!(
        "(min–max over {OFFSETS} EO start offsets across one {:.0} µs user packet period):\n",
        USER_PERIOD_S * 1e6
    );
    println!(
        "{:>28} {:>19} {:>15}",
        "EO download share", "user latency", "delivered"
    );
    for (label, bulk) in [
        ("none (network only)", 0.0),
        ("2 Gbps (20 %)", 2e9),
        ("8 Gbps (80 %)", 8e9),
        ("9.9 Gbps (99 %)", 9.9e9),
        ("11 Gbps (oversubscribed)", 11e9),
    ] {
        let (mut lat, mut ratio) = ((f64::INFINITY, 0.0_f64), (f64::INFINITY, 0.0_f64));
        for k in 0..OFFSETS {
            let offset_s = (k as f64 + 0.5) * USER_PERIOD_S / OFFSETS as f64;
            let (l, r) = scenario(bulk, offset_s);
            lat = (lat.0.min(l), lat.1.max(l));
            ratio = (ratio.0.min(r), ratio.1.max(r));
        }
        println!(
            "{label:>28} {:>9.4}–{:.4} ms {:>7.1}–{:.1} %",
            lat.0,
            lat.1,
            ratio.0 * 100.0,
            ratio.1 * 100.0
        );
    }

    // The fix: pre-process in orbit so less needs downlinking.
    println!("\nwith in-orbit pre-processing (8 Gbps sensor):");
    for k in [1.0, 4.0, 16.0] {
        let p = SensingPipeline {
            sensor_rate_bps: 8e9,
            downlink_rate_bps: 2e9,
            reduction_factor: k,
        };
        println!(
            "  {k:>4}× reduction → {:.1} Gbps to downlink per sensing-second, duty {:.0} %",
            p.downlink_bits_per_sensing_s() / 1e9,
            p.sensing_duty_cycle() * 100.0
        );
    }
}
