//! Figs 4 and 5 from one coverage pass, for Starlink Phase I and Kuiper.
//!
//! Fig 4: number of satellites not directly reachable from the largest
//! *n* cities, n ∈ {100, 200, …, 1000}. Paper: even with ground stations
//! at 1,000 cities, more than a third of Starlink's and more than half of
//! Kuiper's satellites are "invisible" at any time.
//!
//! Fig 5: map of the invisible Starlink satellites against the 1,000
//! largest population centers, read off the coverage mask of Fig 4's
//! 1,000-city row. Prints an ASCII plate-carrée world map (cities `.`,
//! invisible satellites `o`) and writes both point layers as JSON for
//! external plotting.
//!
//! Writes `results/fig4.json` and `results/fig5.json`. Run:
//! `cargo run -p leo-bench --release --bin fig4`.

use leo_apps::spacenative::invisible_series;
use leo_bench::cli::Run;
use leo_cities::WorldCities;
use leo_constellation::presets;
use leo_core::InOrbitService;
use leo_geo::projection::AsciiMap;
use leo_geo::Geodetic;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    num_cities: usize,
    starlink_invisible: usize,
    starlink_fraction: f64,
    kuiper_invisible: usize,
    kuiper_fraction: f64,
}

#[derive(Serialize)]
struct Fig5Data {
    cities: Vec<(f64, f64)>,
    invisible_satellites: Vec<(f64, f64)>,
}

fn main() {
    let mut run = Run::start("fig4");
    let (starlink, kuiper, cities) = run.phase("compile", || {
        (
            InOrbitService::new(presets::starlink_phase1()),
            InOrbitService::new(presets::kuiper()),
            WorldCities::load_at_least(1000),
        )
    });

    // The catalog is population-sorted, so the top-n sets are prefixes of
    // the top-1000 list: one propagated snapshot (cached view) per
    // constellation and one visibility query per city covers all ten rows.
    let sites = cities.top_n_geodetic(1000);
    let sizes: Vec<usize> = (100..=1000).step_by(100).collect();
    let s_series = run.phase("starlink_series", || {
        invisible_series(&starlink, &sites, 0.0, &sizes)
    });
    let k_series = run.phase("kuiper_series", || {
        invisible_series(&kuiper, &sites, 0.0, &sizes)
    });

    let rows: Vec<Row> = s_series
        .reports
        .iter()
        .zip(&k_series.reports)
        .map(|(s, k)| Row {
            num_cities: s.num_sites,
            starlink_invisible: s.invisible,
            starlink_fraction: s.fraction(),
            kuiper_invisible: k.invisible,
            kuiper_fraction: k.fraction(),
        })
        .collect();

    println!("# Fig 4: invisible satellites vs number of ground cities (snapshot at t=0)");
    println!("# constellation sizes: Starlink P1 = 4409, Kuiper = 3236");
    println!(
        "{:>8} {:>12} {:>8} {:>12} {:>8}",
        "cities", "starlink", "frac", "kuiper", "frac"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12} {:>7.1}% {:>12} {:>7.1}%",
            r.num_cities,
            r.starlink_invisible,
            r.starlink_fraction * 100.0,
            r.kuiper_invisible,
            r.kuiper_fraction * 100.0,
        );
    }

    let last = rows.last().unwrap();
    println!("\n# summary (paper in parentheses)");
    println!(
        "#   Starlink invisible at 1000 cities: {:.0}% (more than a third)",
        last.starlink_fraction * 100.0
    );
    println!(
        "#   Kuiper invisible at 1000 cities  : {:.0}% (more than a half)",
        last.kuiper_fraction * 100.0
    );

    let invisible = &s_series.positions;
    let total = s_series.reports.last().unwrap().total_sats;
    println!(
        "# Fig 5: invisible Starlink satellites ({} of {total}) vs the 1000 largest cities",
        invisible.len()
    );
    println!("# '.' = city, 'o' = invisible satellite\n");
    let mut map = AsciiMap::new(144, 40);
    map.plot(sites.iter(), '.');
    map.plot(invisible.iter(), 'o');
    println!("{}", map.render());
    let south = invisible.iter().filter(|p| p.lat.degrees() < 0.0).count();
    println!(
        "\n# {south} of {} invisible satellites are in the southern hemisphere \
         (paper: \"the vast majority … South of most of the World's population\")",
        invisible.len()
    );

    run.write_results(&rows);
    let lat_lon = |g: &Geodetic| (g.lat.degrees(), g.lon.degrees());
    let fig5 = Fig5Data {
        cities: sites.iter().map(lat_lon).collect(),
        invisible_satellites: invisible.iter().map(lat_lon).collect(),
    };
    run.write_json("fig5.json", &fig5);
    run.finish();
}
