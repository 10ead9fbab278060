//! Meetup-server selection: the MinMax baseline and the Sticky heuristic.
//!
//! §5 of the paper:
//!
//! > The naive approach for selecting a meetup-server picks the
//! > latency-optimal satellite at each instant. We refer to this as
//! > "MinMax", as it minimizes the maximum latency across a set of
//! > clients connected. (…) We thus propose an alternative heuristic,
//! > "Sticky", that prioritizes stationarity by planning ahead leveraging
//! > predictable satellite motions, as follows:
//! >
//! > 1. Compute the set of meetup-servers that provide latency within
//! >    10 % of MinMax.
//! > 2. For each of these candidate meetup-servers, compute the time
//! >    until the next hand-off. Pick the 5 candidates with the longest
//! >    time until a hand-off.
//! > 3. Among these 5, pick one which would result in the least latency
//! >    for hand-off to its successor.

use crate::service::InOrbitService;
use leo_constellation::SatId;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// The group-latency vector at one instant: for each satellite, the
/// *maximum* one-way delay (seconds) any user in the group experiences to
/// reach it. `INFINITY` marks unreachable satellites.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDelays {
    delays: Vec<f64>,
}

impl GroupDelays {
    /// Collapses per-user delay vectors (`[user][sat]`) into the group
    /// max-delay vector.
    ///
    /// # Panics
    /// Panics when user vectors have inconsistent lengths or no users are
    /// given.
    pub fn from_user_delays(per_user: &[Vec<f64>]) -> Self {
        assert!(!per_user.is_empty(), "no users");
        let n = per_user[0].len();
        assert!(
            per_user.iter().all(|v| v.len() == n),
            "inconsistent satellite counts"
        );
        let mut delays = vec![0.0f64; n];
        for v in per_user {
            for (d, &u) in delays.iter_mut().zip(v) {
                *d = d.max(u);
            }
        }
        GroupDelays { delays }
    }

    /// Group delays over the *full network graph*: a satellite's delay
    /// for a user may traverse ISLs when the satellite is not directly
    /// visible. Used for meetup placement across dispersed groups
    /// (Fig 3's tri-continent scenario).
    pub fn compute(service: &InOrbitService, users: &[GroundEndpoint], t: f64) -> Self {
        let view = service.view(t);
        Self::from_user_delays(&service.user_delays_view(&view, users))
    }

    /// Group delays under the *direct-visibility* session model: a
    /// satellite is a candidate only while every user sees it above the
    /// minimum elevation, and each user's delay is the slant-range delay
    /// (§3.2: user terminals talk to the satellite directly, no gateway).
    /// This is the model §5's hand-off analysis runs on.
    pub fn direct(service: &InOrbitService, users: &[GroundEndpoint], t: f64) -> Self {
        let view = service.view(t);
        Self::from_user_delays(&service.user_direct_delays_view(&view, users))
    }

    /// Group delay of one satellite, seconds (max over users, one-way).
    pub fn delay_s(&self, sat: SatId) -> f64 {
        self.delays[sat.0 as usize]
    }

    /// Group RTT of one satellite, milliseconds.
    pub fn rtt_ms(&self, sat: SatId) -> f64 {
        2.0 * self.delay_s(sat) * 1e3
    }

    /// Number of satellites covered.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// True when no satellites are covered.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// The latency-optimal satellite and its group delay, or `None` when
    /// no satellite is reachable by all users.
    pub fn minmax(&self) -> Option<(SatId, f64)> {
        self.delays
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &d)| (SatId(i as u32), d))
    }

    /// Satellites whose group delay is within `(1 + slack)` of the MinMax
    /// optimum (Sticky step 1), sorted by increasing delay.
    pub fn within_slack(&self, slack: f64) -> Vec<(SatId, f64)> {
        let Some((_, best)) = self.minmax() else {
            return Vec::new();
        };
        let bound = best * (1.0 + slack);
        let mut out: Vec<(SatId, f64)> = self
            .delays
            .iter()
            .enumerate()
            // The explicit finiteness check matters when callers pass an
            // infinite slack to mean "all servable": INF ≤ INF is true,
            // so unreachable satellites would otherwise slip through.
            .filter(|(_, &d)| d.is_finite() && d <= bound)
            .map(|(i, &d)| (SatId(i as u32), d))
            .collect();
        // Delay ties (two satellites at the exact same group delay) break
        // by SatId so the candidate order is a pure function of the set.
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Parameters of the Sticky heuristic (paper defaults: 10 % slack, pool
/// of 5, lookahead sampled every 10 s up to 20 min).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StickyParams {
    /// Latency slack over MinMax for candidacy (step 1; paper: 0.10).
    pub latency_slack: f64,
    /// How many longest-lived candidates reach step 3 (paper: 5).
    pub pool_size: usize,
    /// Lookahead sampling step for "time until next hand-off", seconds.
    pub lookahead_step_s: f64,
    /// Lookahead horizon, seconds. Candidates still alive at the horizon
    /// are treated as equally long-lived.
    pub lookahead_horizon_s: f64,
}

impl Default for StickyParams {
    fn default() -> Self {
        StickyParams {
            latency_slack: 0.10,
            pool_size: 5,
            lookahead_step_s: 10.0,
            lookahead_horizon_s: 1200.0,
        }
    }
}

/// A meetup-server selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Re-pick the latency-optimal satellite at every instant.
    MinMax,
    /// The paper's stationarity-first heuristic.
    Sticky(StickyParams),
}

impl Policy {
    /// The paper's Sticky configuration.
    pub fn sticky_default() -> Policy {
        Policy::Sticky(StickyParams::default())
    }

    /// Short display name used by the experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::MinMax => "MinMax",
            Policy::Sticky(_) => "Sticky",
        }
    }
}

/// How long (seconds from `t0`) each candidate remains *servable* — i.e.
/// directly visible to every user in the group — by lookahead sampling
/// of the predictable satellite motion. This is §5's "time until the
/// next hand-off": once any user loses sight of the server, a hand-off
/// is forced. Returns `lookahead_horizon_s` for candidates still
/// servable at the horizon.
pub fn candidate_lifetimes(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    t0: f64,
    candidates: &[SatId],
    params: &StickyParams,
) -> Vec<f64> {
    let mut lifetimes = vec![params.lookahead_horizon_s; candidates.len()];
    let mut alive: Vec<bool> = vec![true; candidates.len()];
    let mut remaining = candidates.len();
    let mut tau = params.lookahead_step_s;
    while remaining > 0 && tau <= params.lookahead_horizon_s + 1e-9 {
        let delays = GroupDelays::direct(service, users, t0 + tau);
        for (i, &cand) in candidates.iter().enumerate() {
            if alive[i] && !delays.delay_s(cand).is_finite() {
                lifetimes[i] = tau - params.lookahead_step_s;
                alive[i] = false;
                remaining -= 1;
            }
        }
        tau += params.lookahead_step_s;
    }
    lifetimes
}

/// Sticky step 2's ranking, factored out so determinism is testable:
/// order `(satellite, group delay)` candidates by lifetime (longest
/// first), breaking ties by group delay (lowest first) and finally by
/// `SatId`, and keep the top `pool`. Returns `(satellite, lifetime)`
/// pairs. The explicit tie-breaks make the finalist pool a pure function
/// of the candidate *set*, independent of the order candidates arrive in
/// — lookahead sampling quantizes lifetimes to the step size, so exact
/// ties are the common case, not a corner one.
pub fn rank_by_lifetime(
    candidates: &[(SatId, f64)],
    lifetimes: &[f64],
    pool: usize,
) -> Vec<(SatId, f64)> {
    assert_eq!(
        candidates.len(),
        lifetimes.len(),
        "one lifetime per candidate"
    );
    let mut ranked: Vec<(SatId, f64, f64)> = candidates
        .iter()
        .zip(lifetimes)
        .map(|(&(sat, delay), &lifetime)| (sat, delay, lifetime))
        .collect();
    ranked.sort_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then(a.1.total_cmp(&b.1))
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(pool.max(1));
    ranked
        .into_iter()
        .map(|(sat, _, lifetime)| (sat, lifetime))
        .collect()
}

/// Runs the full Sticky selection at time `t0` under the
/// direct-visibility session model, returning the chosen server, or
/// `None` when no satellite currently serves the whole group.
///
/// The three steps of §5:
/// 1. candidates = servers within `latency_slack` of the MinMax optimum;
/// 2. keep the `pool_size` candidates with the longest time until a
///    forced hand-off (loss of common visibility);
/// 3. among those, pick the one whose hand-off to *its own* successor
///    (the MinMax pick at its death time) has the least latency.
pub fn sticky_select(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    t0: f64,
    params: &StickyParams,
) -> Option<SatId> {
    let now = GroupDelays::direct(service, users, t0);
    let candidates = now.within_slack(params.latency_slack);
    if candidates.is_empty() {
        return None;
    }
    let ids: Vec<SatId> = candidates.iter().map(|&(s, _)| s).collect();

    // Step 2: keep the pool_size longest-lived candidates.
    let lifetimes = candidate_lifetimes(service, users, t0, &ids, params);
    let ranked = rank_by_lifetime(&candidates, &lifetimes, params.pool_size);

    // Step 3: among finalists, minimize the hand-off latency to each
    // one's successor at its own death time. The migration may relay
    // through the users' ground segment when that is shorter than the
    // +Grid path.
    let mut best: Option<(SatId, f64)> = None;
    for &(cand, lifetime) in &ranked {
        let death = t0 + lifetime.max(params.lookahead_step_s);
        let future = GroupDelays::direct(service, users, death);
        let Some((successor, _)) = future.minmax() else {
            continue;
        };
        let view = service.view(death);
        let handoff = service
            .migration_delay_view(&view, users, cand, successor)
            .unwrap_or(f64::INFINITY);
        if best.map_or(true, |(_, d)| handoff < d) {
            best = Some((cand, handoff));
        }
    }
    best.map(|(s, _)| s).or_else(|| Some(ranked[0].0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    fn west_africa_users() -> Vec<GroundEndpoint> {
        // The Fig 3 scenario: three users in West Africa (Abuja, Yaoundé,
        // and Lagos as the third endpoint pictured).
        vec![
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
            GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
        ]
    }

    #[test]
    fn group_delays_take_the_per_user_maximum() {
        let per_user = vec![vec![1.0, 5.0, f64::INFINITY], vec![2.0, 3.0, 4.0]];
        let g = GroupDelays::from_user_delays(&per_user);
        assert_eq!(g.delay_s(SatId(0)), 2.0);
        assert_eq!(g.delay_s(SatId(1)), 5.0);
        assert!(g.delay_s(SatId(2)).is_infinite());
        assert_eq!(g.minmax(), Some((SatId(0), 2.0)));
    }

    #[test]
    fn within_slack_is_sorted_and_contains_the_optimum() {
        let per_user = vec![vec![10.0, 10.9, 11.5, 10.05, f64::INFINITY]];
        let g = GroupDelays::from_user_delays(&per_user);
        let c = g.within_slack(0.10);
        let ids: Vec<u32> = c.iter().map(|&(s, _)| s.0).collect();
        assert_eq!(ids, vec![0, 3, 1]); // 11.5 is outside 10 %, INF excluded
        for w in c.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn infinite_slack_returns_all_servable_but_no_unreachable() {
        let g = GroupDelays::from_user_delays(&[vec![1.0, 3.0, f64::INFINITY, 2.0]]);
        let c = g.within_slack(f64::INFINITY);
        let ids: Vec<u32> = c.iter().map(|&(s, _)| s.0).collect();
        assert_eq!(ids, vec![0, 3, 1]);
    }

    #[test]
    fn minmax_of_all_unreachable_is_none() {
        let g = GroupDelays::from_user_delays(&[vec![f64::INFINITY; 4]]);
        assert_eq!(g.minmax(), None);
        assert!(g.within_slack(0.1).is_empty());
    }

    #[test]
    #[should_panic(expected = "no users")]
    fn empty_user_set_is_rejected() {
        GroupDelays::from_user_delays(&[]);
    }

    #[test]
    fn west_africa_minmax_rtt_is_about_16_ms() {
        // Fig 3: "the RTT to a meetup server hosted using in-orbit compute
        // on the same constellation would be 16 ms".
        let service = InOrbitService::new(presets::starlink_phase1());
        let users = west_africa_users();
        let g = GroupDelays::compute(&service, &users, 0.0);
        let (_, d) = g.minmax().expect("served");
        let rtt = 2.0 * d * 1e3;
        // Paper: 16 ms. With the 25° FCC elevation mask our selection finds
        // nearer servers (~6 ms); the qualitative claim — comfortably below
        // the 46 ms hybrid — is what this test pins (see EXPERIMENTS.md).
        assert!(
            (4.0..20.0).contains(&rtt),
            "West Africa in-orbit RTT {rtt} ms, paper says ≤16"
        );
    }

    #[test]
    fn sticky_picks_a_candidate_within_the_latency_band() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let users = west_africa_users();
        let params = StickyParams {
            lookahead_step_s: 30.0,
            lookahead_horizon_s: 300.0,
            ..StickyParams::default()
        };
        let g = GroupDelays::direct(&service, &users, 0.0);
        let (_, best) = g.minmax().unwrap();
        let chosen = sticky_select(&service, &users, 0.0, &params).expect("selection");
        assert!(
            g.delay_s(chosen) <= best * 1.10 + 1e-12,
            "sticky choice violates the 10 % band"
        );
    }

    #[test]
    fn candidate_lifetimes_are_bounded_by_the_horizon() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let users = west_africa_users();
        let params = StickyParams {
            lookahead_step_s: 60.0,
            lookahead_horizon_s: 240.0,
            ..StickyParams::default()
        };
        let g = GroupDelays::direct(&service, &users, 0.0);
        let ids: Vec<SatId> = g.within_slack(0.1).iter().map(|&(s, _)| s).collect();
        let lifetimes = candidate_lifetimes(&service, &users, 0.0, &ids, &params);
        assert_eq!(lifetimes.len(), ids.len());
        for lt in lifetimes {
            assert!((0.0..=240.0).contains(&lt));
        }
    }

    #[test]
    fn within_slack_breaks_delay_ties_by_sat_id() {
        // Satellites 1 and 3 tie exactly; the candidate list must order
        // them by id, not by float whim.
        let g = GroupDelays::from_user_delays(&[vec![2.0, 1.5, 9.0, 1.5, 1.0]]);
        let ids: Vec<u32> = g
            .within_slack(f64::INFINITY)
            .iter()
            .map(|&(s, _)| s.0)
            .collect();
        assert_eq!(ids, vec![4, 1, 3, 0, 2]);
    }

    #[test]
    fn ranking_is_independent_of_candidate_order() {
        // Lifetimes quantized to the lookahead step tie constantly; the
        // finalist pool must be a function of the set, not the arrival
        // order.
        let forward: Vec<(SatId, f64)> = vec![
            (SatId(2), 0.010),
            (SatId(7), 0.010),
            (SatId(1), 0.011),
            (SatId(9), 0.012),
        ];
        let lifetimes_fwd = vec![120.0, 120.0, 120.0, 60.0];
        let mut reversed = forward.clone();
        reversed.reverse();
        let lifetimes_rev: Vec<f64> = lifetimes_fwd.iter().rev().copied().collect();
        let a = rank_by_lifetime(&forward, &lifetimes_fwd, 3);
        let b = rank_by_lifetime(&reversed, &lifetimes_rev, 3);
        assert_eq!(a, b);
        // lifetime desc, then delay asc, then SatId asc.
        assert_eq!(
            a.iter().map(|&(s, _)| s.0).collect::<Vec<_>>(),
            vec![2, 7, 1]
        );
    }

    #[test]
    fn rank_pool_of_zero_still_yields_one_finalist() {
        let ranked = rank_by_lifetime(&[(SatId(3), 0.01)], &[30.0], 0);
        assert_eq!(ranked, vec![(SatId(3), 30.0)]);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(Policy::MinMax.name(), "MinMax");
        assert_eq!(Policy::sticky_default().name(), "Sticky");
    }
}
