//! Figs 6 and 7 from one set of sessions, Sticky vs MinMax.
//!
//! Fig 6, the CDF of the time between satellite hand-offs. Paper: "the
//! median time between hand-offs is 164 sec for Sticky, i.e., 4× longer
//! than for MinMax."
//!
//! Fig 7, the CDF of the state-transfer latency to the successor server,
//! read from the same hand-offs. Paper: "the latency incurred in
//! migrating state to the successor server is similar and low for both
//! approaches, with Sticky providing an advantage in the tail."
//!
//! Writes `results/fig6.json` and `results/fig7.json`. Run:
//! `cargo run -p leo-bench --release --bin fig6` (add `--quick`).

use leo_bench::cli::Run;
use leo_bench::user_trios;
use leo_constellation::presets;
use leo_core::session::run_session;
use leo_core::{Cdf, InOrbitService, Policy, SessionConfig};
use leo_net::routing::GroundEndpoint;
use leo_sim::parallel_map;
use serde::Serialize;

const QUANTILES: [f64; 6] = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

#[derive(Serialize)]
struct IntervalSeries {
    policy: String,
    intervals_s: Vec<f64>,
    median_s: Option<f64>,
}

#[derive(Serialize)]
struct LatencySeries {
    policy: String,
    transfer_latencies_ms: Vec<f64>,
    median_ms: Option<f64>,
    p99_ms: Option<f64>,
}

fn main() {
    let mut run = Run::start("fig6");
    let (quick, threads) = (run.quick(), run.threads());
    let service = run.phase("compile", || {
        InOrbitService::new(presets::starlink_phase1_conservative())
    });
    let cfg = SessionConfig {
        start_s: 0.0,
        duration_s: if quick { 900.0 } else { 7200.0 },
        tick_s: if quick { 5.0 } else { 1.0 },
    };

    // All (policy × group) sessions tick the same schedule against one
    // service, so the engine fans them across the pool and each instant's
    // snapshot is propagated once into the shared cache.
    let trios = user_trios();
    let policies = [Policy::MinMax, Policy::sticky_default()];
    let combos: Vec<(Policy, &[GroundEndpoint])> = policies
        .iter()
        .flat_map(|&p| trios.iter().map(move |g| (p, g.as_slice())))
        .collect();
    let runs = run.phase("sessions", || {
        parallel_map(combos, threads, |&(policy, users)| {
            run_session(&service, users, policy, &cfg)
        })
    });

    let mut fig6 = Vec::new();
    let mut fig7 = Vec::new();
    for (policy, runs) in policies.iter().zip(runs.chunks(trios.len())) {
        let intervals = Cdf::new(
            runs.iter()
                .flat_map(|r| r.times_between_handoffs())
                .collect(),
        );
        fig6.push(IntervalSeries {
            policy: policy.name().into(),
            median_s: intervals.median(),
            intervals_s: intervals.samples().to_vec(),
        });
        let latencies = Cdf::new(
            runs.iter()
                .flat_map(|r| r.events.iter().filter_map(|e| e.transfer_latency_ms))
                .collect(),
        );
        fig7.push(LatencySeries {
            policy: policy.name().into(),
            median_ms: latencies.median(),
            p99_ms: latencies.quantile(0.99),
            transfer_latencies_ms: latencies.samples().to_vec(),
        });
    }

    println!(
        "# Fig 6: CDF of time between hand-offs (s), {} user groups, {:.0}-s ticks",
        trios.len(),
        cfg.tick_s
    );
    println!("{:>10} {:>12} {:>12}", "quantile", "MinMax", "Sticky");
    let mm = Cdf::new(fig6[0].intervals_s.clone());
    let st = Cdf::new(fig6[1].intervals_s.clone());
    for q in QUANTILES {
        println!(
            "{:>10.2} {:>10.0} s {:>10.0} s",
            q,
            mm.quantile(q).unwrap_or(f64::NAN),
            st.quantile(q).unwrap_or(f64::NAN)
        );
    }
    let (mmed, smed) = (
        mm.median().unwrap_or(f64::NAN),
        st.median().unwrap_or(f64::NAN),
    );
    println!("\n# summary (paper in parentheses)");
    println!("#   MinMax median interval : {mmed:.0} s");
    println!("#   Sticky median interval : {smed:.0} s (164 s)");
    println!("#   Sticky/MinMax ratio    : {:.1}x (4x)", smed / mmed);

    println!("# Fig 7: CDF of state-transfer latency to the successor (ms)");
    println!("{:>10} {:>12} {:>12}", "quantile", "MinMax", "Sticky");
    let mm = Cdf::new(fig7[0].transfer_latencies_ms.clone());
    let st = Cdf::new(fig7[1].transfer_latencies_ms.clone());
    for q in QUANTILES {
        println!(
            "{:>10.2} {:>9.2} ms {:>9.2} ms",
            q,
            mm.quantile(q).unwrap_or(f64::NAN),
            st.quantile(q).unwrap_or(f64::NAN)
        );
    }
    println!("\n# summary (paper: similar medians, Sticky better in the tail)");
    println!(
        "#   medians: MinMax {:.2} ms vs Sticky {:.2} ms",
        mm.median().unwrap_or(f64::NAN),
        st.median().unwrap_or(f64::NAN)
    );
    println!(
        "#   p99    : MinMax {:.2} ms vs Sticky {:.2} ms",
        mm.quantile(0.99).unwrap_or(f64::NAN),
        st.quantile(0.99).unwrap_or(f64::NAN)
    );

    run.write_results(&fig6);
    run.write_json("fig7.json", &fig7);
    run.finish();
}
