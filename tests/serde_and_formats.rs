//! Serialization and text-format round-trips: the experiment harness
//! persists every result as JSON and exports constellations as TLEs, so
//! the public types must survive those round-trips losslessly.

use in_orbit::core::access::AccessStats;
use in_orbit::core::session::{HandoffEvent, SessionResult};
use in_orbit::net::weather::RainClimate;
use in_orbit::prelude::*;

fn json_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let text = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&text).expect("deserialize")
}

#[test]
fn geodetic_and_angle_round_trip_via_json() {
    let g = Geodetic::from_degrees(-33.8688, 151.2093, 42.5);
    let back: Geodetic = json_roundtrip(&g);
    assert_eq!(g, back);

    let a = Angle::from_degrees(53.0);
    let back: Angle = json_roundtrip(&a);
    assert_eq!(a, back);
}

#[test]
fn keplerian_elements_round_trip_via_json() {
    let e = KeplerianElements::circular(
        550e3,
        Angle::from_degrees(53.0),
        Angle::from_degrees(123.0),
        Angle::from_degrees(77.0),
    );
    let back: KeplerianElements = json_roundtrip(&e);
    assert_eq!(e, back);
}

#[test]
fn session_results_round_trip_via_json() {
    let r = SessionResult {
        policy: Policy::sticky_default(),
        events: vec![HandoffEvent {
            time_s: 60.0,
            from: Some(SatId(7)),
            to: SatId(12),
            transfer_latency_ms: Some(4.2),
            group_rtt_ms: 8.9,
        }],
        rtt_samples: vec![(0.0, 8.0), (60.0, 8.9)],
        end_s: 120.0,
    };
    let back: SessionResult = json_roundtrip(&r);
    assert_eq!(r, back);
    assert_eq!(back.handoff_count(), 1);
}

#[test]
fn access_stats_round_trip_including_the_unserved_case() {
    let served = AccessStats {
        nearest_rtt_ms: Some(4.1),
        farthest_rtt_ms: Some(15.9),
        min_count: 20,
        avg_count: 41.5,
        max_count: 60,
    };
    assert_eq!(json_roundtrip(&served), served);

    let unserved = AccessStats {
        nearest_rtt_ms: None,
        farthest_rtt_ms: None,
        min_count: 0,
        avg_count: 0.0,
        max_count: 0,
    };
    assert_eq!(json_roundtrip(&unserved), unserved);
}

#[test]
fn weather_climates_round_trip_via_json() {
    for c in [
        RainClimate::TROPICAL,
        RainClimate::TEMPERATE,
        RainClimate::ARID,
    ] {
        assert_eq!(json_roundtrip(&c), c);
    }
}

#[test]
fn cdf_round_trips_preserving_quantiles() {
    let cdf = Cdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0]);
    let back: Cdf = json_roundtrip(&cdf);
    assert_eq!(back, cdf);
    assert_eq!(back.median(), cdf.median());
}

#[test]
fn whole_constellation_survives_tle_text_export() {
    // A realistic persistence path: dump a constellation to TLE text,
    // read it back line-by-line, verify the count and a sample satellite.
    let c = kuiper();
    let text: String = c.to_tles().iter().map(|t| t.format() + "\n").collect();
    let mut parsed = 0;
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i + 2 < lines.len() + 1 {
        // name + two element lines per record
        let chunk = lines[i..(i + 3).min(lines.len())].join("\n");
        let tle = Tle::parse(&chunk).expect("exported TLE parses");
        let el = &tle.elements;
        let perigee_m = el.semi_major_axis_m * (1.0 - el.eccentricity);
        assert!(perigee_m - in_orbit::geo::consts::EARTH_RADIUS_MEAN_M > 0.0);
        parsed += 1;
        i += 3;
    }
    assert_eq!(parsed, c.num_satellites());
}

#[test]
fn fig5_map_renders_to_fixed_dimensions() {
    use in_orbit::geo::projection::AsciiMap;
    let mut map = AsciiMap::new(144, 40);
    let cities = in_orbit::cities::WorldCities::load().top_n_geodetic(500);
    map.plot(cities.iter(), '.');
    let rendered = map.render();
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines.len(), 42); // 40 rows + border
    assert!(lines.iter().all(|l| l.chars().count() == 146));
    assert!(rendered.matches('.').count() > 100, "city layer missing");
}
