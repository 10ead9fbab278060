//! §4 feasibility numbers as a table: every quantitative claim of the
//! paper's feasibility section, paper value vs. model output.
//!
//! Run: `cargo run -p leo-bench --release --bin feasibility`.

use leo_bench::cli::Run;
use leo_feasibility::cost::CostModel;
use leo_feasibility::power::{battery_wh_for_load, generation_w_for_load, radiator_area_m2};
use leo_feasibility::reliability::ReliabilityParams;
use leo_feasibility::{MassBudget, PowerBudget, SatelliteBus, ServerSpec};
use serde::Serialize;

#[derive(Serialize)]
struct FeasibilityRow {
    quantity: String,
    model: f64,
    paper: f64,
    unit: String,
}

fn main() {
    let run = Run::start("feasibility");
    let server = ServerSpec::hpe_dl325_gen10();
    let bus = SatelliteBus::starlink_v1();
    let mass = MassBudget::compute(&server, &bus);
    let power = PowerBudget::compute(&server, &bus);
    let cost = CostModel::default().compare(&server);
    let rel = ReliabilityParams {
        annual_failure_rate: 0.10,
        satellite_life_years: bus.design_life_years,
    };

    let rows = vec![
        FeasibilityRow {
            quantity: "server weight / satellite weight".into(),
            model: mass.mass_fraction * 100.0,
            paper: 6.0,
            unit: "%".into(),
        },
        FeasibilityRow {
            quantity: "server volume / satellite volume".into(),
            model: mass.volume_fraction * 100.0,
            paper: 1.0,
            unit: "%".into(),
        },
        FeasibilityRow {
            quantity: "power draw at 225 W / avg solar".into(),
            model: power.typical_fraction * 100.0,
            paper: 15.0,
            unit: "%".into(),
        },
        FeasibilityRow {
            quantity: "power draw at 350 W / avg solar".into(),
            model: power.peak_fraction * 100.0,
            paper: 23.0,
            unit: "%".into(),
        },
        FeasibilityRow {
            quantity: "launch cost of one server".into(),
            model: cost.launch_cost_usd,
            paper: 42_000.0,
            unit: "USD".into(),
        },
        FeasibilityRow {
            quantity: "3-year cost ratio vs terrestrial".into(),
            model: cost.cost_ratio,
            paper: 3.0,
            unit: "x".into(),
        },
        FeasibilityRow {
            quantity: "satellite design life".into(),
            model: bus.design_life_years,
            paper: 5.0,
            unit: "years".into(),
        },
        FeasibilityRow {
            quantity: "fleet with working server @10%/yr AFR".into(),
            model: rel.steady_state_working_fraction() * 100.0,
            paper: f64::NAN, // qualitative in the paper
            unit: "%".into(),
        },
    ];

    // The run's work, so the determinism check has something to compare.
    leo_obs::counter!("feasibility.rows").add(rows.len() as u64);

    println!("# §4 feasibility: model vs paper");
    println!(
        "{:<42} {:>12} {:>12} {:>6}",
        "quantity", "model", "paper", "unit"
    );
    for r in &rows {
        let paper = if r.paper.is_nan() {
            "(qual.)".to_string()
        } else {
            format!("{:.1}", r.paper)
        };
        println!(
            "{:<42} {:>12.1} {:>12} {:>6}",
            r.quantity, r.model, paper, r.unit
        );
    }

    println!("\n# supporting engineering quantities");
    println!(
        "  battery through worst eclipse at 225 W : {:.0} Wh",
        battery_wh_for_load(225.0, bus.altitude_m)
    );
    println!(
        "  sunlit generation for constant 225 W   : {:.0} W (η=0.9)",
        generation_w_for_load(225.0, bus.altitude_m, 0.9)
    );
    println!(
        "  radiator for the 350 W peak            : {:.2} m² (300 K, ε=0.85)",
        radiator_area_m2(350.0, 300.0, 0.85)
    );

    run.write_results(&rows);
    run.finish();
}
