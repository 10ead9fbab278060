//! Packet simulator throughput: event-loop cost of open-loop CBR flows on a
//! shared downlink and of a windowed transfer across a multi-hop route.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leo_net::congestion::{CbrFlow, CcAlgorithm, CongestionLink, CongestionNetwork, WindowedFlow};

/// User traffic (2 Gbps of 1,500-byte packets) and an EO download (9 Gbps
/// of 15,000-byte packets) sharing one 10 Gbps downlink. Returns the
/// packets delivered.
fn shared_downlink(packets: u64) -> u64 {
    let mut net = CongestionNetwork::new();
    let l = net.add_link(CongestionLink::new(10e9, 0.002, 128));
    let flows = [(12_000.0, 2e9, packets), (120_000.0, 9e9, packets / 10)].map(|(bits, bps, n)| {
        net.add_cbr(CbrFlow {
            route: vec![l],
            packet_bits: bits,
            interval_s: bits / bps,
            start_s: 0.0,
            packets: n,
        })
    });
    net.run();
    flows.iter().map(|&id| net.cbr_stats(id).delivered).sum()
}

/// A DCTCP transfer of `packets` 48 kB packets over eight 10 Gbps ISLs,
/// each carrying 50 % CBR cross-traffic. Returns the completion time.
fn multi_hop_windowed(packets: u64) -> f64 {
    let (bits, rate) = (384_000.0, 10e9);
    let mut net = CongestionNetwork::new();
    let route: Vec<_> = (0..8)
        .map(|_| net.add_link(CongestionLink::new(rate, 0.003, 256).with_ecn(64)))
        .collect();
    for &id in &route {
        net.add_cbr(CbrFlow::with_load(vec![id], bits, 0.5 * rate, 0.0, 15.0));
    }
    let id = net.add_windowed(WindowedFlow::new(
        route,
        bits,
        packets,
        0.0,
        CcAlgorithm::Dctcp { gain: 0.0625 },
    ));
    assert!(net.run_while_incomplete(15.0), "transfer must finish");
    net.windowed_stats(id)
        .completion_s
        .expect("completed transfer has a time")
}

fn bench_congestion(c: &mut Criterion) {
    let mut group = c.benchmark_group("congestion");
    group.sample_size(20);
    group.bench_function("shared_downlink_10k_packets", |b| {
        b.iter(|| black_box(shared_downlink(10_000)))
    });
    group.bench_function("shared_downlink_100k_packets", |b| {
        b.iter(|| black_box(shared_downlink(100_000)))
    });
    group.bench_function("multi_hop_8_links_windowed_2k_packets", |b| {
        b.iter(|| black_box(multi_hop_windowed(2_000)))
    });
    group.finish();
}

criterion_group!(benches, bench_congestion);
criterion_main!(benches);
