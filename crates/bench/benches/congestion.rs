//! Packet simulator throughput: event-loop cost of open-loop CBR flows on a
//! shared downlink, of a windowed transfer across a multi-hop route, and of
//! a state hand-off shaped like the benchmark's `migration` transfers.

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

/// A 3 MB hand-off (63 packets of 48 kB) over 42 10 Gbps ISLs, each
/// carrying 90 % CBR cross-traffic, with the sender `migrate_via_packets`
/// sets up: a window at the path's bandwidth-delay product, in congestion
/// avoidance. Every CBR flow starts at t = 0 with one interval, so about
/// 42 emissions and 42 transmit completions share each timestamp. Returns
/// the completion time.
fn cross_loaded_handoff() -> f64 {
    let (bits, rate, hops) = (384_000.0, 10e9, 42);
    let link = CongestionLink::new(rate, 0.003, 256).with_ecn(64);
    let mut net = CongestionNetwork::new();
    let route: Vec<_> = (0..hops).map(|_| net.add_link(link)).collect();
    for &id in &route {
        net.add_cbr(CbrFlow::with_load(vec![id], bits, 0.9 * rate, 0.0, 15.0));
    }
    let base_rtt_s = f64::from(hops) * (bits / rate + 2.0 * link.prop_delay_s);
    let bdp = (rate * base_rtt_s / bits).max(10.0);
    let id = net.add_windowed(WindowedFlow {
        init_cwnd: bdp,
        max_cwnd: 2.0 * bdp,
        base_rtt_s: Some(base_rtt_s),
        init_ssthresh: Some(bdp),
        ..WindowedFlow::new(route, bits, 63, 0.0, CcAlgorithm::Dctcp { gain: 0.0625 })
    });
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
    group.bench_function("handoff_42_links_load_0.9_63_packets", |b| {
        b.iter(|| black_box(cross_loaded_handoff()))
    });
    group.finish();
}

criterion_group!(benches, bench_congestion);
criterion_main!(benches);
