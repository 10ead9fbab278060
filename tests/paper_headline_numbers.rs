//! Regression tests pinning the paper's headline numbers (with the
//! tolerances documented in EXPERIMENTS.md). If any of these move, a
//! figure reproduction has drifted.

use in_orbit::apps::spacenative::invisible_count;
use in_orbit::cities::WorldCities;
use in_orbit::core::access::{access_stats, SamplingConfig};
use in_orbit::core::meetup::{azure_sites, compare};
use in_orbit::feasibility::cost::CostModel;
use in_orbit::feasibility::{MassBudget, PowerBudget, SatelliteBus, ServerSpec};
use in_orbit::prelude::*;

fn west_africa() -> Vec<GroundEndpoint> {
    vec![
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
    ]
}

#[test]
fn section2_orbital_mechanics_at_550_km() {
    // §2: 27,306 km/h and 95 min 39 s at 550 km.
    let e = KeplerianElements::circular(550e3, Angle::from_degrees(53.0), Angle::ZERO, Angle::ZERO);
    let speed_m_s = std::f64::consts::TAU * e.semi_major_axis_m / e.period_s();
    assert!((speed_m_s * 3.6 - 27_306.0).abs() < 120.0);
    assert!((e.period_s() - (95.0 * 60.0 + 39.0)).abs() < 40.0);
}

#[test]
fn section2_geo_latency_ratio_is_65x() {
    // §2: LEO at 550 km offers ~65× lower propagation latency than GEO.
    let ratio = in_orbit::geo::consts::GEO_ALTITUDE_M / 550e3;
    assert!((ratio - 65.0).abs() < 1.5, "{ratio}");
}

#[test]
fn fig1_starlink_nearest_and_farthest_bounds() {
    // Fig 1: nearest ≤ 11 ms at all latitudes Starlink serves; farthest
    // ≤ 16 ms. Spot-check three latitudes with coarse sampling.
    let service = InOrbitService::new(starlink_phase1());
    for lat in [0.0, 40.0, 75.0] {
        let stats = access_stats(
            &service,
            Geodetic::ground(lat, 0.0),
            &SamplingConfig::coarse(),
        );
        if let Some(near) = stats.nearest_rtt_ms {
            assert!(near <= 11.5, "lat {lat}: nearest {near}");
        }
        if let Some(far) = stats.farthest_rtt_ms {
            assert!(far <= 16.5, "lat {lat}: farthest {far}");
        }
    }
}

#[test]
fn fig2_server_counts_match_paper_bands() {
    // Fig 2: Kuiper 10+ for most served latitudes; Starlink 30–40+.
    let starlink = InOrbitService::new(starlink_phase1());
    let kuiper = InOrbitService::new(kuiper());
    let sampling = SamplingConfig::coarse();

    let s = access_stats(&starlink, Geodetic::ground(30.0, 0.0), &sampling);
    assert!(s.avg_count >= 30.0, "starlink avg {}", s.avg_count);

    let k = access_stats(&kuiper, Geodetic::ground(30.0, 0.0), &sampling);
    assert!(k.avg_count >= 10.0, "kuiper avg {}", k.avg_count);
}

#[test]
fn fig3_west_africa_meetup_improvement() {
    // Fig 3: in-orbit ~3× better than the hybrid terrestrial option for
    // the West Africa group (we measure ≥2× at every instant; see
    // EXPERIMENTS.md for the absolute-number discussion).
    let service = InOrbitService::new(starlink_phase1());
    let cmp = compare(&service, &west_africa(), &azure_sites(), 0.0).expect("served");
    assert!(
        cmp.improvement_factor() >= 2.0,
        "{}",
        cmp.improvement_factor()
    );
    assert!(cmp.in_orbit_rtt_ms < 22.0);
}

#[test]
fn fig3_golden_worst_case_values_are_pinned() {
    // Golden regression for the fig3 binary's reported worst-case rows.
    // The full sweep takes its maximum (by in-orbit RTT) over 13
    // instants 600 s apart; these are the argmax instants of that sweep,
    // so the values below are exactly what fig3 prints: West Africa
    // 43.3 ms hybrid / 9.6 ms in-orbit, tri-continent 92.6 / 68.3 ms.
    // A shift here means the routing engine (or the constellation
    // geometry feeding it) changed fig3's output.
    let starlink =
        InOrbitService::new(in_orbit::constellation::presets::starlink_phase1_conservative());
    let cmp = compare(&starlink, &west_africa(), &azure_sites(), 3600.0).expect("served");
    assert!(
        (cmp.hybrid_rtt_ms - 43.319231).abs() < 0.05,
        "west africa hybrid {}",
        cmp.hybrid_rtt_ms
    );
    assert!(
        (cmp.in_orbit_rtt_ms - 9.625884).abs() < 0.05,
        "west africa in-orbit {}",
        cmp.in_orbit_rtt_ms
    );

    let kuiper = InOrbitService::new(kuiper());
    let tri = vec![
        GroundEndpoint::new(0, Geodetic::ground(29.42, -98.49)),
        GroundEndpoint::new(1, Geodetic::ground(-23.55, -46.63)),
        GroundEndpoint::new(2, Geodetic::ground(-33.87, 151.21)),
    ];
    let cmp = compare(&kuiper, &tri, &azure_sites(), 1800.0).expect("served");
    assert!(
        (cmp.hybrid_rtt_ms - 92.560125).abs() < 0.05,
        "tri-continent hybrid {}",
        cmp.hybrid_rtt_ms
    );
    assert!(
        (cmp.in_orbit_rtt_ms - 68.281732).abs() < 0.05,
        "tri-continent in-orbit {}",
        cmp.in_orbit_rtt_ms
    );
}

#[test]
fn fig4_invisible_fractions() {
    // Fig 4 at n = 1000: > 1/3 of Starlink, > 1/2 of Kuiper invisible.
    let cities = WorldCities::load_at_least(1000);
    let sites = cities.top_n_geodetic(1000);

    let s = invisible_count(&InOrbitService::new(starlink_phase1()), &sites, 0.0);
    assert!(s.fraction() > 1.0 / 3.0, "starlink {}", s.fraction());

    let k = invisible_count(&InOrbitService::new(kuiper()), &sites, 0.0);
    assert!(k.fraction() > 0.5, "kuiper {}", k.fraction());
}

#[test]
fn fig4_absolute_counts_are_pinned() {
    // Regression guard on the exact snapshot counts behind Fig 4 (t = 0,
    // n = 1000). These move only if the city catalog, the constellation
    // geometry, or the visibility rule changes — all of which should be
    // deliberate. Bands are ±10 % of the current golden values
    // (Starlink 1672, Kuiper 1747; see EXPERIMENTS.md).
    let cities = WorldCities::load_at_least(1000);
    let sites = cities.top_n_geodetic(1000);
    let s = invisible_count(&InOrbitService::new(starlink_phase1()), &sites, 0.0);
    assert!(
        (1505..=1840).contains(&s.invisible),
        "starlink invisible {} drifted from golden 1672",
        s.invisible
    );
    let k = invisible_count(&InOrbitService::new(kuiper()), &sites, 0.0);
    assert!(
        (1572..=1922).contains(&k.invisible),
        "kuiper invisible {} drifted from golden 1747",
        k.invisible
    );
}

#[test]
fn fig6_sticky_reduces_handoffs_substantially() {
    // Fig 6: Sticky's median inter-hand-off time ≈ 4× MinMax's (paper:
    // 164 s vs ~41 s) under the 40° session mask. On a 30-minute session
    // with 10-s ticks we require ≥ 3× and fewer hand-offs overall (the
    // full 2-h, 1-s run in the `fig6` binary sharpens this).
    let service =
        InOrbitService::new(in_orbit::constellation::presets::starlink_phase1_conservative());
    let cfg = SessionConfig {
        start_s: 0.0,
        duration_s: 1800.0,
        tick_s: 10.0,
    };
    let users = west_africa();
    let mm = in_orbit::core::session::run_session(&service, &users, Policy::MinMax, &cfg);
    let st = in_orbit::core::session::run_session(&service, &users, Policy::sticky_default(), &cfg);
    assert!(st.handoff_count() < mm.handoff_count());
    let (m1, m2) = (
        mm.handoff_interval_cdf().median().unwrap_or(0.0),
        st.handoff_interval_cdf().median().unwrap_or(f64::INFINITY),
    );
    assert!(m2 >= 3.0 * m1, "sticky median {m2} vs minmax {m1}");
    assert!(
        (60.0..300.0).contains(&m2),
        "sticky median {m2} s (paper: 164 s)"
    );
}

#[test]
fn fig7_transfer_latencies_are_low_for_both_policies() {
    // Fig 7: state-transfer latency "similar and low for both
    // approaches, with Sticky providing an advantage in the tail".
    let service =
        InOrbitService::new(in_orbit::constellation::presets::starlink_phase1_conservative());
    let cfg = SessionConfig {
        start_s: 0.0,
        duration_s: 1800.0,
        tick_s: 10.0,
    };
    let users = west_africa();
    let mm = in_orbit::core::session::run_session(&service, &users, Policy::MinMax, &cfg);
    let st = in_orbit::core::session::run_session(&service, &users, Policy::sticky_default(), &cfg);
    let mm_cdf = mm.transfer_latency_cdf();
    let st_cdf = st.transfer_latency_cdf();
    assert!(
        mm_cdf.median().unwrap() < 20.0,
        "MinMax median {:?}",
        mm_cdf.median()
    );
    assert!(
        st_cdf.median().unwrap() < 20.0,
        "Sticky median {:?}",
        st_cdf.median()
    );
    // Sticky's tail is no worse than MinMax's.
    assert!(
        st_cdf.quantile(0.9).unwrap() <= mm_cdf.quantile(0.9).unwrap() + 2.0,
        "sticky p90 {:?} vs minmax p90 {:?}",
        st_cdf.quantile(0.9),
        mm_cdf.quantile(0.9)
    );
}

#[test]
fn section4_feasibility_numbers() {
    let server = ServerSpec::hpe_dl325_gen10();
    let bus = SatelliteBus::starlink_v1();
    let mass = MassBudget::compute(&server, &bus);
    let power = PowerBudget::compute(&server, &bus);
    let cost = CostModel::default().compare(&server);

    assert!((mass.mass_fraction - 0.06).abs() < 0.005); // 6 %
    assert!(mass.volume_fraction < 0.02); // ~1 %
    assert!((power.typical_fraction - 0.15).abs() < 0.01); // 15 %
    assert!((power.peak_fraction - 0.233).abs() < 0.01); // 23 %
    assert!((cost.launch_cost_usd - 42_000.0).abs() < 2_000.0); // ~42 k
    assert!((cost.cost_ratio - 3.0).abs() < 0.5); // ~3×
}

/// Akamai's deployed server count circa 2020 (≈ 325,000 per its public
/// facts page, cited by the paper).
const AKAMAI_SERVERS_2020: f64 = 325_000.0;

/// Starlink's full planned scale (§3.1: "40,000 planned satellites").
const STARLINK_FULL_SCALE: f64 = 40_000.0;

#[test]
fn section31_starlink_is_7x_smaller_than_akamai_at_full_scale() {
    let ratio = AKAMAI_SERVERS_2020 / STARLINK_FULL_SCALE;
    assert!((7.0..9.0).contains(&ratio), "{ratio}");
}
