//! Matchmaking: which user groups *can* play together?
//!
//! §3.2: *"Today, these problems are side-stepped by restrictions on
//! which users can participate together, e.g., by matchmaking in online
//! games, which typically accounts for player latencies to the game
//! server. This is, of course, limiting, as it prevents certain sets of
//! users from participating with their friends. With in-orbit computing,
//! this limitation can be overcome."*
//!
//! This module quantifies the claim: given a population of players and
//! an application latency budget, compare the set of *feasible groups*
//! under (a) terrestrial servers only, and (b) in-orbit meetup servers.

use crate::interactive::AppClass;
use leo_core::{GroupDelays, InOrbitService};
use leo_geo::spherical::great_circle_distance_m;
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// A player in the matchmaking population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Player {
    /// Display name.
    pub name: String,
    /// Location.
    pub location: Geodetic,
}

impl Player {
    /// Creates a player.
    pub fn new(name: &str, lat_deg: f64, lon_deg: f64) -> Self {
        Player {
            name: name.to_string(),
            location: Geodetic::ground(lat_deg, lon_deg),
        }
    }
}

/// Where a group's meetup server could run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feasibility {
    /// A terrestrial server meets the budget (in-orbit unnecessary).
    Terrestrial,
    /// Only an in-orbit server meets the budget.
    OrbitOnly,
    /// Neither option meets the budget.
    Infeasible,
}

/// Best terrestrial option for a group: the minimum over candidate sites
/// of the worst player RTT, over fiber at the standard path stretch.
fn best_terrestrial_rtt_ms(players: &[&Player], sites: &[Geodetic]) -> Option<f64> {
    sites
        .iter()
        .map(|&site| {
            players
                .iter()
                .map(|p| {
                    2.0 * great_circle_distance_m(p.location, site)
                        * crate::edge::TERRESTRIAL_PATH_STRETCH
                        / crate::edge::FIBER_SPEED_M_S
                        * 1e3
                })
                .fold(0.0f64, f64::max)
        })
        .min_by(f64::total_cmp)
}

/// Best in-orbit option for a group at time `t` (direct model), ms.
fn best_orbit_rtt_ms(service: &InOrbitService, players: &[&Player], t: f64) -> Option<f64> {
    let endpoints: Vec<GroundEndpoint> = players
        .iter()
        .enumerate()
        .map(|(i, p)| GroundEndpoint::new(i as u32, p.location))
        .collect();
    let delays = GroupDelays::direct(service, &endpoints, t);
    delays.minmax().map(|(_, d)| 2.0 * d * 1e3)
}

/// Classifies one group under an application class's latency budget.
pub fn classify_group(
    service: &InOrbitService,
    players: &[&Player],
    sites: &[Geodetic],
    class: AppClass,
    t: f64,
) -> Feasibility {
    let budget = class.max_rtt_ms();
    if best_terrestrial_rtt_ms(players, sites).is_some_and(|r| r <= budget) {
        return Feasibility::Terrestrial;
    }
    if best_orbit_rtt_ms(service, players, t).is_some_and(|r| r <= budget) {
        return Feasibility::OrbitOnly;
    }
    Feasibility::Infeasible
}

/// Matchmaking census: classify every pair in a population.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Census {
    /// Pairs servable terrestrially.
    pub terrestrial: usize,
    /// Pairs only servable in orbit — the communities in-orbit compute
    /// *adds*.
    pub orbit_only: usize,
    /// Pairs nobody can serve under the budget.
    pub infeasible: usize,
}

/// Classifies all pairs of `players`.
pub fn pairwise_census(
    service: &InOrbitService,
    players: &[Player],
    sites: &[Geodetic],
    class: AppClass,
    t: f64,
) -> Census {
    let mut census = Census::default();
    for i in 0..players.len() {
        for j in i + 1..players.len() {
            let group = [&players[i], &players[j]];
            match classify_group(service, &group, sites, class, t) {
                Feasibility::Terrestrial => census.terrestrial += 1,
                Feasibility::OrbitOnly => census.orbit_only += 1,
                Feasibility::Infeasible => census.infeasible += 1,
            }
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_phase1())
    }

    fn azure_sites() -> Vec<Geodetic> {
        leo_cities::azure_regions()
            .iter()
            .map(|r| r.geodetic())
            .collect()
    }

    #[test]
    fn colocated_players_next_to_a_dc_stay_terrestrial() {
        let s = service();
        let a = Player::new("a", 52.4, 4.9);
        let b = Player::new("b", 52.3, 5.0);
        let f = classify_group(&s, &[&a, &b], &azure_sites(), AppClass::Gaming, 0.0);
        assert_eq!(f, Feasibility::Terrestrial);
    }

    #[test]
    fn west_african_pair_needs_orbit_for_arvr() {
        // Abuja + Yaoundé: nearest DCs are in South Africa/Europe — far
        // beyond the 50 ms AR budget terrestrially, fine in orbit.
        let s = service();
        let a = Player::new("abuja", 9.06, 7.49);
        let b = Player::new("yaounde", 3.87, 11.52);
        let f = classify_group(&s, &[&a, &b], &azure_sites(), AppClass::ArVr, 0.0);
        assert_eq!(f, Feasibility::OrbitOnly);
    }

    #[test]
    fn antipodal_pair_is_infeasible_for_haptics() {
        // Physics: ~134 ms RTT floor between antipodes beats any server.
        let s = service();
        let a = Player::new("zurich", 47.38, 8.54);
        let b = Player::new("auckland", -36.85, 174.76);
        let f = classify_group(&s, &[&a, &b], &azure_sites(), AppClass::Haptic, 0.0);
        assert_eq!(f, Feasibility::Infeasible);
    }

    #[test]
    fn terrestrial_rtt_uses_the_best_site() {
        let a = Player::new("a", 0.0, 0.0);
        let b = Player::new("b", 1.0, 1.0);
        let near = Geodetic::ground(0.5, 0.5);
        let far = Geodetic::ground(50.0, 100.0);
        let best = best_terrestrial_rtt_ms(&[&a, &b], &[far, near]).unwrap();
        let only_far = best_terrestrial_rtt_ms(&[&a, &b], &[far]).unwrap();
        assert!(best < only_far);
    }

    #[test]
    fn no_sites_means_no_terrestrial_option() {
        let a = Player::new("a", 0.0, 0.0);
        assert_eq!(best_terrestrial_rtt_ms(&[&a], &[]), None);
    }

    #[test]
    fn census_counts_add_up_and_orbit_expands_matchmaking() {
        // A population straddling the coverage gap between African DCs:
        // orbit must unlock extra pairs for AR-class budgets.
        let s = service();
        let players = vec![
            Player::new("lagos", 6.52, 3.38),
            Player::new("abuja", 9.06, 7.49),
            Player::new("yaounde", 3.87, 11.52),
            Player::new("accra", 5.60, -0.19),
            Player::new("johannesburg", -26.20, 28.04),
            Player::new("cape town", -33.92, 18.42),
        ];
        let census = pairwise_census(&s, &players, &azure_sites(), AppClass::ArVr, 0.0);
        assert_eq!(
            census.terrestrial + census.orbit_only + census.infeasible,
            15
        );
        assert!(census.orbit_only > 0, "orbit adds nothing?");
        assert!(census.terrestrial > 0, "SA pair should be terrestrial");
    }
}
