//! Cross-crate property-based tests: invariants that must hold for any
//! geometry, time, or configuration.

use in_orbit::net::routing::{build_graph, delays_to_all_sats};
use in_orbit::net::visibility::visible_sats;
use in_orbit::net::FaultPlan;
use in_orbit::prelude::*;
use proptest::prelude::*;

fn small_constellation() -> Constellation {
    use in_orbit::constellation::{ShellSpec, WalkerPattern};
    Constellation::from_shells(
        "prop-test",
        vec![ShellSpec {
            name: "shell".into(),
            altitude_m: 550e3,
            inclination: Angle::from_degrees(53.0),
            num_planes: 12,
            sats_per_plane: 12,
            phase_factor: 1,
            pattern: WalkerPattern::Delta,
            min_elevation: Angle::from_degrees(25.0),
        }],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every visible satellite's RTT lies between the zenith bound and
    /// the max-slant-range bound for its shell.
    #[test]
    fn visible_rtts_are_within_geometric_bounds(
        lat in -55.0..55.0f64,
        lon in -180.0..180.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let snap = c.snapshot(t);
        let g = Geodetic::ground(lat, lon);
        let ge = g.to_ecef_spherical();
        let min_rtt = 2.0 * 550e3 / in_orbit::geo::consts::SPEED_OF_LIGHT_M_S * 1e3;
        let max_range = in_orbit::geo::look::max_slant_range_m(
            550e3, Angle::from_degrees(25.0));
        let max_rtt = 2.0 * max_range / in_orbit::geo::consts::SPEED_OF_LIGHT_M_S * 1e3;
        for v in visible_sats(&c, &snap, ge, &FaultPlan::empty()) {
            prop_assert!(v.rtt_ms() >= min_rtt - 1e-6);
            prop_assert!(v.rtt_ms() <= max_rtt + 1e-6);
        }
    }

    /// Graph delays to directly visible satellites equal the straight-
    /// line delay, and delays to all others are at least the nearest
    /// direct delay (you must go up before you can go sideways).
    #[test]
    fn graph_delays_dominate_direct_links(
        lat in -55.0..55.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let topo = IslTopology::plus_grid(&c);
        let snap = c.snapshot(t);
        let user = GroundEndpoint::new(0, Geodetic::ground(lat, 0.0));
        let graph = build_graph(&c, &topo, &snap, &[user]);
        let delays = delays_to_all_sats(&graph, &c, &user);
        let direct = visible_sats(&c, &snap, user.ecef, &FaultPlan::empty());
        prop_assume!(!direct.is_empty());
        let min_direct = direct.iter().map(|v| v.delay_s()).fold(f64::INFINITY, f64::min);
        for v in &direct {
            prop_assert!((delays[v.id.0 as usize] - v.delay_s()).abs() < 1e-12);
        }
        for d in delays.iter().filter(|d| d.is_finite()) {
            prop_assert!(*d >= min_direct - 1e-12);
        }
    }

    /// The group delay of any satellite is at least every individual
    /// user's delay to it (max is an upper bound of each).
    #[test]
    fn group_delay_bounds_individual_delays(
        lat1 in -40.0..40.0f64,
        lat2 in -40.0..40.0f64,
        dlon in 1.0..30.0f64,
        t in 0.0..3600.0f64,
    ) {
        let c = small_constellation();
        let service = InOrbitService::new(c);
        let users = vec![
            GroundEndpoint::new(0, Geodetic::ground(lat1, 0.0)),
            GroundEndpoint::new(1, Geodetic::ground(lat2, dlon)),
        ];
        let per_user = service.user_delays_view(&service.view(t), &users);
        let group = GroupDelays::from_user_delays(&per_user);
        for sat in 0..per_user[0].len() {
            let id = SatId(sat as u32);
            for u in &per_user {
                prop_assert!(group.delay_s(id) >= u[sat] - 1e-15
                    || (group.delay_s(id).is_infinite() && u[sat].is_infinite()));
            }
        }
    }

    /// MinMax is optimal: no satellite has a strictly smaller group delay
    /// than the MinMax pick.
    #[test]
    fn minmax_is_actually_minimal(
        lat in -40.0..40.0f64,
        t in 0.0..3600.0f64,
    ) {
        let service = InOrbitService::new(small_constellation());
        let users = vec![
            GroundEndpoint::new(0, Geodetic::ground(lat, 0.0)),
            GroundEndpoint::new(1, Geodetic::ground(lat + 3.0, 4.0)),
        ];
        let g = GroupDelays::compute(&service, &users, t);
        prop_assume!(g.minmax().is_some());
        let (_, best) = g.minmax().unwrap();
        for sat in 0..service.num_servers() {
            prop_assert!(g.delay_s(SatId(sat as u32)) >= best - 1e-15);
        }
    }
}
