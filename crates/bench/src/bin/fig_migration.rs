//! Fig 6 hand-offs under contention: Sticky-vs-naive state migration
//! timed through the congestion-aware packet engine.
//!
//! The paper's §5 waves the migration cost away — "the high
//! inter-satellite bandwidth could accommodate" moving meetup-server
//! state — and §3.3 concedes in a footnote that EO bulk downloads
//! compete with user traffic on the same links. This binary puts the two
//! claims in one place: it predicts each policy's hand-off sequence over
//! the horizon ([`predict_servers`]), then times every hand-off's state
//! transfer with [`migrate_via_packets`] — real ISL routes from the
//! constellation geometry, drop-tail queues, DCTCP-style congestion
//! control, and open-loop cross-traffic at a sweep of load levels —
//! instead of the analytic `uncontended_transfer_s` bound.
//!
//! Sweeps state size × cross-traffic load × policy (Sticky's few long
//! serving intervals vs MinMax's ~4× more frequent hand-offs — the Fig 6
//! comparison, now with each hand-off carrying a congestion-priced
//! transfer). Each cell times its first 3 hand-offs (2 in quick mode).
//! Run: `cargo run -p leo-bench --release --bin fig_migration`
//! (add `--quick`).
//!
//! Determinism contract: `results/migration.json` is byte-identical
//! across `LEO_THREADS` and `LEO_OBS` levels; the per-transfer
//! `net.pkt.*` counters and time series are accumulated on the
//! sequential fold over the cell grid, and `net.pkt.events` is a sum over
//! the workers, so the manifest's work-done metrics are thread-invariant
//! too. `net.pkt.events` counts the events the engine pops: one per
//! emission instant for a route's cross-traffic, none for a completion
//! that settles in place, so it moves when the engine's bookkeeping does
//! even where the results do not. CI greps the `#`-prefixed identity
//! markers printed below.

use leo_bench::cli::Run;
use leo_bench::user_trios;
use leo_constellation::{presets, SatId};
use leo_core::replication::{
    migrate_via_packets, predict_servers, MigrationNetConfig, MigrationOutcome,
};
use leo_core::{InOrbitService, Policy};
use leo_sim::parallel_map;
use serde::Serialize;

/// One timed hand-off transfer.
#[derive(Serialize)]
struct HandoffTransfer {
    from: SatId,
    to: SatId,
    at_s: f64,
    outcome: MigrationOutcome,
}

/// One (policy × state size × cross-load) cell of the sweep.
#[derive(Serialize)]
struct MigrationCell {
    policy: String,
    size_bytes: f64,
    cross_load: f64,
    /// Hand-offs the policy's predicted serving sequence contains over
    /// the whole horizon.
    predicted_handoffs: usize,
    /// Predicted hand-off rate, per hour — the Fig 6 axis.
    handoff_rate_per_hour: f64,
    /// The timed subset (the first 3 hand-offs, 2 in quick mode).
    measured: Vec<HandoffTransfer>,
    completed: usize,
    mean_duration_s: Option<f64>,
    max_duration_s: Option<f64>,
    mean_analytic_packet_s: f64,
    mean_analytic_message_s: f64,
    total_retransmissions: u64,
    total_dropped: u64,
    total_ecn_marked: u64,
    total_route_changes: usize,
}

#[derive(Serialize)]
struct MigrationResults {
    net: MigrationNetConfig,
    horizon_s: f64,
    step_s: f64,
    cells: Vec<MigrationCell>,
}

fn sizes(quick: bool) -> Vec<f64> {
    if quick {
        vec![10e6, 100e6]
    } else {
        vec![10e6, 100e6, 1e9]
    }
}

fn loads(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.9]
    } else {
        vec![0.0, 0.5, 0.9]
    }
}

fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn main() {
    let mut run = Run::start("migration");
    let (quick, threads) = (run.quick(), run.threads());
    let max_handoffs = if quick { 2 } else { 3 };
    let horizon_s = if quick { 1800.0 } else { 3600.0 };
    let step_s = 15.0;
    let net_cfg = MigrationNetConfig::default();
    let policies = [Policy::sticky_default(), Policy::MinMax];

    let service = InOrbitService::new(presets::starlink_550_only());
    // The Fig 6 West-Africa user trio.
    let users = user_trios().remove(0);

    // Each policy's hand-off sequence over the horizon: (from, to, when).
    let handoffs: Vec<Vec<(SatId, SatId, f64)>> = run.phase("predict", || {
        policies
            .iter()
            .map(|&p| {
                let intervals = predict_servers(&service, &users, p, 0.0, horizon_s, step_s);
                intervals
                    .windows(2)
                    .map(|w| (w[0].server, w[1].server, w[1].from_s))
                    .collect()
            })
            .collect()
    });

    // Fan the (policy × size × load × hand-off) grid across the pool.
    // Every transfer is independent; the shared snapshot cache only
    // memoizes deterministic values.
    let combos: Vec<(usize, f64, f64, SatId, SatId, f64)> = (0..policies.len())
        .flat_map(|pi| {
            let hs = &handoffs[pi];
            sizes(quick).into_iter().flat_map(move |size| {
                loads(quick).into_iter().flat_map(move |load| {
                    hs.iter()
                        .take(max_handoffs)
                        .map(move |&(from, to, at)| (pi, size, load, from, to, at))
                })
            })
        })
        .collect();
    // The determinism rerun below repeats the last transfer at the
    // heaviest load. It runs as one more pool item after the grid's, so
    // the fold's zip over `combos` never reads it.
    let max_load = loads(quick).into_iter().fold(0.0_f64, f64::max);
    let rerun = combos
        .iter()
        .rposition(|&(_, _, load, ..)| load == max_load);
    let outcomes: Vec<MigrationOutcome> = run.phase("transfers", || {
        let items = combos.iter().chain(rerun.map(|k| &combos[k])).copied();
        parallel_map(items.collect(), threads, |(_, size, load, from, to, at)| {
            let cfg = MigrationNetConfig {
                cross_load_frac: *load,
                ..net_cfg
            };
            migrate_via_packets(&service, *from, *to, *at, *size, &cfg)
        })
    });

    // Sequential fold in grid order: build the cells and accumulate the
    // per-transfer net.pkt.* counters / time series here — never inside
    // the workers — so the manifest's work-done metrics are
    // thread-invariant.
    let mut cells: Vec<MigrationCell> = Vec::new();
    run.phase("fold", || {
        for pi in 0..policies.len() {
            let predicted = handoffs[pi].len();
            let rate_per_hour = predicted as f64 / horizon_s * 3600.0;
            for size in sizes(quick) {
                for load in loads(quick) {
                    let measured: Vec<HandoffTransfer> = combos
                        .iter()
                        .zip(&outcomes)
                        .filter(|((ci, cs, cl, ..), _)| *ci == pi && *cs == size && *cl == load)
                        .map(|(&(_, _, _, from, to, at), o)| {
                            leo_obs::counter!("net.pkt.transfers").incr();
                            leo_obs::counter!("net.pkt.transmissions").add(o.transmissions);
                            leo_obs::counter!("net.pkt.retransmissions").add(o.retransmissions);
                            leo_obs::counter!("net.pkt.drops").add(o.dropped);
                            leo_obs::counter!("net.pkt.ecn_marks").add(o.ecn_marked);
                            leo_obs::counter!("net.pkt.route_changes").add(o.route_changes as u64);
                            if let Some(d) = o.duration_s {
                                leo_obs::timeseries!("net.pkt.transfer_s").sample(at, d);
                                leo_obs::timeseries!("net.pkt.transfer_retx")
                                    .sample(at, o.retransmissions as f64);
                            }
                            HandoffTransfer {
                                from,
                                to,
                                at_s: at,
                                outcome: *o,
                            }
                        })
                        .collect();
                    let durations: Vec<f64> = measured
                        .iter()
                        .filter_map(|t| t.outcome.duration_s)
                        .collect();
                    cells.push(MigrationCell {
                        policy: policies[pi].name().into(),
                        size_bytes: size,
                        cross_load: load,
                        predicted_handoffs: predicted,
                        handoff_rate_per_hour: rate_per_hour,
                        completed: durations.len(),
                        mean_duration_s: mean(&durations),
                        max_duration_s: durations.iter().copied().reduce(f64::max),
                        mean_analytic_packet_s: mean(
                            &measured
                                .iter()
                                .map(|t| t.outcome.analytic_packet_s)
                                .collect::<Vec<_>>(),
                        )
                        .unwrap_or(0.0),
                        mean_analytic_message_s: mean(
                            &measured
                                .iter()
                                .map(|t| t.outcome.analytic_message_s)
                                .collect::<Vec<_>>(),
                        )
                        .unwrap_or(0.0),
                        total_retransmissions: measured
                            .iter()
                            .map(|t| t.outcome.retransmissions)
                            .sum(),
                        total_dropped: measured.iter().map(|t| t.outcome.dropped).sum(),
                        total_ecn_marked: measured.iter().map(|t| t.outcome.ecn_marked).sum(),
                        total_route_changes: measured.iter().map(|t| t.outcome.route_changes).sum(),
                        measured,
                    });
                }
            }
        }
    });

    // Identity checks CI greps for.
    run.phase("identity_checks", || {
        // 1. Uncontended transfers must land inside the analytic bracket:
        //    at or above the packetized (pipelined) bound, and within
        //    tolerance of it — never slower than the message-level
        //    store-and-forward bound by more than the slack.
        let mut anchored = 0;
        for cell in cells.iter().filter(|c| c.cross_load == 0.0) {
            for t in &cell.measured {
                let o = &t.outcome;
                let d = o.duration_s.expect("uncontended transfer must complete");
                assert!(
                    d >= o.analytic_packet_s - 1e-9,
                    "measured {d} beat the analytic floor {}",
                    o.analytic_packet_s
                );
                assert!(
                    d <= o.analytic_packet_s * 1.15 + 1e-6,
                    "uncontended measured {d} strayed from the packetized bound {} \
                     (message-level bound {})",
                    o.analytic_packet_s,
                    o.analytic_message_s
                );
                assert_eq!(o.retransmissions, 0, "uncontended transfer retransmitted");
                anchored += 1;
            }
        }
        println!("# uncontended transfers match the analytic bound within tolerance ({anchored} checked)");

        // 2. Contention is never free: for each (policy, size) the mean
        //    transfer at the heaviest load is at least the uncontended mean.
        for policy in &policies {
            for size in sizes(quick) {
                let pick = |l: f64| {
                    cells
                        .iter()
                        .find(|c| {
                            c.policy == policy.name() && c.size_bytes == size && c.cross_load == l
                        })
                        .and_then(|c| c.mean_duration_s)
                };
                if let (Some(idle), Some(busy)) = (pick(0.0), pick(max_load)) {
                    assert!(
                        busy >= idle,
                        "load {max_load} mean {busy} faster than uncontended {idle}"
                    );
                }
            }
        }
        println!("# contention never speeds up a transfer");

        // 3. The rerun of the most contended cell's last transfer must
        //    match it byte for byte: the packet engine is deterministic.
        if let Some(k) = rerun {
            let a = serde_json::to_string(&outcomes[k]).expect("serialize");
            let b = serde_json::to_string(&outcomes[combos.len()]).expect("serialize");
            assert_eq!(a, b, "packet-level migration diverged between reruns");
        }
        println!("# migration outcomes identical across reruns");
    });

    let sticky_rate = cells
        .iter()
        .find(|c| c.policy == policies[0].name())
        .map(|c| c.handoff_rate_per_hour)
        .unwrap_or(0.0);
    let minmax_rate = cells
        .iter()
        .find(|c| c.policy == policies[1].name())
        .map(|c| c.handoff_rate_per_hour)
        .unwrap_or(0.0);
    println!(
        "# Fig 6 under contention: sticky {sticky_rate:.1} vs minmax {minmax_rate:.1} handoffs/hour, \
         {} transfers timed",
        combos.len()
    );
    println!(
        "{:>8} {:>10} {:>6} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "policy", "size", "load", "ho/hr", "mean xfer", "analytic", "retx", "drops"
    );
    for c in &cells {
        println!(
            "{:>8} {:>8.0}MB {:>6.2} {:>8.1} {:>10.4} s {:>10.4} s {:>8} {:>8}",
            c.policy,
            c.size_bytes / 1e6,
            c.cross_load,
            c.handoff_rate_per_hour,
            c.mean_duration_s.unwrap_or(f64::NAN),
            c.mean_analytic_packet_s,
            c.total_retransmissions,
            c.total_dropped,
        );
    }

    run.write_results(&MigrationResults {
        net: net_cfg,
        horizon_s,
        step_s,
        cells,
    });
    run.finish();
}
