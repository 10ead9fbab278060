//! The Fig 3 meetup-server comparison: best terrestrial data center
//! reached *through* the constellation ("hybrid") vs. the best in-orbit
//! satellite-server.
//!
//! §3.2 of the paper, West Africa example: three users in Abuja, Yaoundé,
//! and a third West African location need a meetup server. The nearest
//! Azure regions are in South Africa; connecting to them over Starlink
//! costs 46 ms for the worst-off user, while an in-orbit server on the
//! same constellation costs 16 ms — "an almost 3× reduction". A second
//! scenario on Kuiper (users at South Central US, Brazil South, Australia
//! East) yields 97 ms vs 66 ms.

use crate::selection::GroupDelays;
use crate::service::InOrbitService;
use leo_constellation::SatId;
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// A candidate terrestrial hosting site (e.g. an Azure region).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TerrestrialSite {
    /// Site name (e.g. `"South Africa North"`).
    pub name: String,
    /// Ground position.
    pub position: Geodetic,
}

/// The outcome of a meetup comparison at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeetupComparison {
    /// Best terrestrial site (by group max RTT over the constellation).
    pub best_site: String,
    /// Group RTT to that site (max over users), milliseconds.
    pub hybrid_rtt_ms: f64,
    /// Best in-orbit server.
    pub in_orbit_server: SatId,
    /// Group RTT to the in-orbit server, milliseconds.
    pub in_orbit_rtt_ms: f64,
}

impl MeetupComparison {
    /// How many times lower the in-orbit latency is (paper: ~3× for West
    /// Africa, ~1.5× for the tri-continent scenario).
    pub fn improvement_factor(&self) -> f64 {
        self.hybrid_rtt_ms / self.in_orbit_rtt_ms
    }
}

/// Group RTT (max over users) to one terrestrial site through the
/// constellation at time `t`, or `None` when some user cannot reach it.
fn hybrid_group_rtt_ms(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    site: &TerrestrialSite,
    t: f64,
) -> Option<f64> {
    let view = service.view(t);
    // The site joins the routing node space as one more ground endpoint;
    // its index must not collide with the users'.
    let site_index = users.iter().map(|u| u.index).max().unwrap_or(0) + 1;
    let site_ep = GroundEndpoint::new(site_index, site.position);
    let mut grounds = users.to_vec();
    grounds.push(site_ep);
    let links = view.attach(&grounds);
    let site_slot = grounds.len() - 1;
    let mut worst: f64 = 0.0;
    for (u_slot, _) in users.iter().enumerate() {
        let delay_s = view.ground_to_ground_delay(&links, u_slot, site_slot)?;
        worst = worst.max(2.0 * delay_s * 1e3);
    }
    Some(worst)
}

/// Full comparison: the best terrestrial site from `sites` vs. the best
/// in-orbit server, at time `t`. Returns `None` when either option is
/// entirely unreachable.
pub fn compare(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    sites: &[TerrestrialSite],
    t: f64,
) -> Option<MeetupComparison> {
    assert!(!users.is_empty(), "no users");
    let best_site = sites
        .iter()
        .filter_map(|s| hybrid_group_rtt_ms(service, users, s, t).map(|r| (s, r)))
        .min_by(|a, b| a.1.total_cmp(&b.1))?;

    // Prefer the direct model (every user sees the meetup satellite — the
    // paper's West Africa setting); fall back to ISL-relayed paths for
    // dispersed groups no single satellite covers (the tri-continent
    // Kuiper scenario).
    let direct = GroupDelays::direct(service, users, t);
    let (sat, delay) = match direct.minmax() {
        Some(pick) => pick,
        None => GroupDelays::compute(service, users, t).minmax()?,
    };

    Some(MeetupComparison {
        best_site: best_site.0.name.clone(),
        hybrid_rtt_ms: best_site.1,
        in_orbit_server: sat,
        in_orbit_rtt_ms: 2.0 * delay * 1e3,
    })
}

/// The Azure catalog as terrestrial sites.
pub fn azure_sites() -> Vec<TerrestrialSite> {
    leo_cities::azure_regions()
        .iter()
        .map(|r| TerrestrialSite {
            name: r.name.to_string(),
            position: r.geodetic(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn west_africa() -> Vec<GroundEndpoint> {
        vec![
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)), // Abuja
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)), // Yaoundé
            GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)), // Lagos
        ]
    }

    #[test]
    fn west_africa_prefers_in_orbit_by_a_wide_margin() {
        // The paper's headline Fig 3 numbers: 46 ms hybrid vs 16 ms
        // in-orbit (~3×). Exact values depend on the constellation phase;
        // assert the bands and the ordering.
        let service = InOrbitService::new(presets::starlink_phase1());
        let cmp = compare(&service, &west_africa(), &azure_sites(), 0.0).expect("served");
        assert!(
            (4.0..22.0).contains(&cmp.in_orbit_rtt_ms),
            "in-orbit {} ms (paper: 16)",
            cmp.in_orbit_rtt_ms
        );
        assert!(
            (25.0..70.0).contains(&cmp.hybrid_rtt_ms),
            "hybrid {} ms (paper: 46)",
            cmp.hybrid_rtt_ms
        );
        assert!(
            cmp.improvement_factor() > 2.0,
            "improvement {}",
            cmp.improvement_factor()
        );
        assert!(
            cmp.best_site.contains("South Africa") || cmp.best_site.contains("Europe"),
            "unexpected best site {}",
            cmp.best_site
        );
    }

    #[test]
    fn tri_continent_group_on_kuiper_still_prefers_orbit() {
        // Second Fig 3 scenario: users at three Azure metros — South
        // Central US, Brazil South, Australia East — on Kuiper: 97 ms
        // hybrid vs 66 ms in-orbit.
        let service = InOrbitService::new(presets::kuiper());
        let users = vec![
            GroundEndpoint::new(0, Geodetic::ground(29.42, -98.49)), // San Antonio
            GroundEndpoint::new(1, Geodetic::ground(-23.55, -46.63)), // São Paulo
            GroundEndpoint::new(2, Geodetic::ground(-33.87, 151.21)), // Sydney
        ];
        let cmp = compare(&service, &users, &azure_sites(), 0.0).expect("served");
        assert!(
            cmp.in_orbit_rtt_ms < cmp.hybrid_rtt_ms,
            "in-orbit {} vs hybrid {}",
            cmp.in_orbit_rtt_ms,
            cmp.hybrid_rtt_ms
        );
        assert!(
            (50.0..90.0).contains(&cmp.in_orbit_rtt_ms),
            "in-orbit {} ms (paper: 66)",
            cmp.in_orbit_rtt_ms
        );
        assert!(
            (80.0..130.0).contains(&cmp.hybrid_rtt_ms),
            "hybrid {} ms (paper: 97)",
            cmp.hybrid_rtt_ms
        );
    }

    #[test]
    fn hybrid_rtt_to_a_colocated_site_is_small() {
        // A user group next to a data center: the hybrid path is a short
        // satellite bounce.
        let service = InOrbitService::new(presets::starlink_550_only());
        let users = vec![GroundEndpoint::new(0, Geodetic::ground(29.5, -98.4))];
        let site = TerrestrialSite {
            name: "South Central US".into(),
            position: Geodetic::ground(29.42, -98.49),
        };
        let rtt = hybrid_group_rtt_ms(&service, &users, &site, 0.0).expect("reachable");
        assert!(rtt < 12.0, "bounce rtt {rtt}");
    }

    #[test]
    fn relayed_in_orbit_optimum_never_loses_to_hybrid() {
        // Over the full network graph the in-orbit optimum can match but
        // never exceed the hybrid optimum: the path to any terrestrial
        // site passes through some satellite, and stopping at that
        // satellite is never worse. (The *direct* model used by
        // `compare` can be slightly worse than a hybrid bounce when a
        // data center sits between the users — which is exactly when
        // in-orbit compute isn't needed.)
        let service = InOrbitService::new(presets::starlink_550_only());
        for (lat, lon) in [(40.0, -100.0), (-10.0, 25.0), (50.0, 10.0)] {
            let users = vec![
                GroundEndpoint::new(0, Geodetic::ground(lat, lon)),
                GroundEndpoint::new(1, Geodetic::ground(lat - 4.0, lon + 5.0)),
            ];
            let relayed = GroupDelays::compute(&service, &users, 0.0);
            let Some((_, best)) = relayed.minmax() else {
                continue;
            };
            let in_orbit_rtt = 2.0 * best * 1e3;
            for site in azure_sites().iter().take(8) {
                if let Some(hybrid) = hybrid_group_rtt_ms(&service, &users, site, 0.0) {
                    assert!(
                        in_orbit_rtt <= hybrid + 1e-9,
                        "at ({lat},{lon}) vs {}: {in_orbit_rtt} > {hybrid}",
                        site.name
                    );
                }
            }
        }
    }

    #[test]
    fn azure_sites_cover_the_catalog() {
        assert_eq!(azure_sites().len(), leo_cities::azure_regions().len());
    }
}
