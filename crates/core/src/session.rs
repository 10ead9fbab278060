//! The virtual stationarity session runner (Figs 6–7).
//!
//! A *session* is a user group holding state on a sequence of
//! satellite-servers over time: the "GEO-like stationarity" abstraction of
//! §5. The runner ticks the clock, re-evaluates the selection policy, and
//! records a [`HandoffEvent`] every time the meetup-server changes. Two
//! measurements reproduce the paper's figures:
//!
//! * **time between hand-offs** (Fig 6) — the stationarity the policy
//!   achieves;
//! * **state-transfer latency** (Fig 7) — the one-way delay from the old
//!   server to its successor over the ISL mesh at the hand-off instant.

use crate::selection::{sticky_select, GroupDelays, Policy};
use crate::service::InOrbitService;
use crate::stats::Cdf;
use leo_constellation::SatId;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// Session timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Session start, seconds after the constellation epoch.
    pub start_s: f64,
    /// Session length, seconds.
    pub duration_s: f64,
    /// Re-evaluation interval, seconds (1 s reproduces the paper's
    /// second-scale hand-off timing; coarser ticks quantize Fig 6).
    pub tick_s: f64,
}

impl SessionConfig {
    /// Two hours at 1 s ticks from the epoch.
    pub fn paper() -> Self {
        SessionConfig {
            start_s: 0.0,
            duration_s: 7200.0,
            tick_s: 1.0,
        }
    }
}

/// One server hand-off (or the initial acquisition, with `from == None`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoffEvent {
    /// When the hand-off happened, seconds after the epoch.
    pub time_s: f64,
    /// Previous server; `None` for the initial acquisition.
    pub from: Option<SatId>,
    /// New server.
    pub to: SatId,
    /// One-way state-transfer latency old → new over the ISL mesh at the
    /// hand-off instant, milliseconds. `None` for the initial acquisition.
    pub transfer_latency_ms: Option<f64>,
    /// Group RTT to the new server right after the hand-off, ms.
    pub group_rtt_ms: f64,
}

/// The outcome of a session run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// Policy that produced this run.
    pub policy: Policy,
    /// All hand-off events, in time order (first is the acquisition).
    pub events: Vec<HandoffEvent>,
    /// `(time_s, group_rtt_ms)` samples at every tick where a server was
    /// held.
    pub rtt_samples: Vec<(f64, f64)>,
    /// When the session ended, seconds.
    pub end_s: f64,
}

impl SessionResult {
    /// Times between consecutive hand-offs, seconds (Fig 6's quantity).
    /// The interval from the last hand-off to the session end is *not*
    /// counted (censored observation).
    pub fn times_between_handoffs(&self) -> Vec<f64> {
        self.events
            .windows(2)
            .map(|w| w[1].time_s - w[0].time_s)
            .collect()
    }

    /// CDF of times between hand-offs.
    pub fn handoff_interval_cdf(&self) -> Cdf {
        Cdf::new(self.times_between_handoffs())
    }

    /// CDF of state-transfer latencies, ms (Fig 7's quantity).
    pub fn transfer_latency_cdf(&self) -> Cdf {
        Cdf::new(
            self.events
                .iter()
                .filter_map(|e| e.transfer_latency_ms)
                .collect(),
        )
    }

    /// Number of true hand-offs (excludes the initial acquisition).
    pub fn handoff_count(&self) -> usize {
        self.events.iter().filter(|e| e.from.is_some()).count()
    }

    /// Mean group RTT over the session, ms.
    pub fn mean_group_rtt_ms(&self) -> Option<f64> {
        if self.rtt_samples.is_empty() {
            return None;
        }
        Some(self.rtt_samples.iter().map(|&(_, r)| r).sum::<f64>() / self.rtt_samples.len() as f64)
    }
}

/// Runs one session for `users` under `policy`, in the
/// direct-visibility model of §3.2/§5 (every user talks to the meetup
/// satellite directly; a hand-off is *forced* when any user loses sight
/// of it).
///
/// * **MinMax** re-picks the latency-optimal commonly-visible satellite
///   every tick.
/// * **Sticky** holds its server until the forced hand-off, then runs the
///   three-step selection of §5 — that is what "prioritizes
///   stationarity" buys.
///
/// Ticks where no satellite serves the whole group drop the current
/// server (the session stalls); service resumes with a fresh acquisition.
///
/// # Panics
/// Panics unless the tick is positive, the start finite, and the
/// duration finite and non-negative.
pub fn run_session(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    policy: Policy,
    config: &SessionConfig,
) -> SessionResult {
    assert!(config.tick_s > 0.0, "tick must be positive");
    assert!(
        config.start_s.is_finite(),
        "session start must be finite, got {}",
        config.start_s
    );
    assert!(
        config.duration_s.is_finite() && config.duration_s >= 0.0,
        "session duration must be finite and non-negative, got {}",
        config.duration_s
    );
    let mut events = Vec::new();
    let mut rtt_samples = Vec::new();
    let mut current: Option<SatId> = None;

    let ticks = (config.duration_s / config.tick_s).round() as usize;
    for i in 0..=ticks {
        let t = config.start_s + i as f64 * config.tick_s;
        let delays = GroupDelays::direct(service, users, t);
        let Some((optimal, _)) = delays.minmax() else {
            current = None;
            continue;
        };

        let desired = match policy {
            Policy::MinMax => optimal,
            Policy::Sticky(params) => match current {
                // Hold while the incumbent still serves the whole group.
                Some(cur) if delays.delay_s(cur).is_finite() => cur,
                _ => sticky_select(service, users, t, &params).unwrap_or(optimal),
            },
        };

        if current != Some(desired) {
            let transfer_latency_ms = current.and_then(|old| {
                let view = service.view(t);
                // Attribute the hand-off to the fault layer when the old
                // server was taken out by it (death or rain-faded access
                // link) rather than by orbital motion. No-op without a
                // fault plan, so fault-free counter totals are unchanged.
                if service.fault_masked_server(&view, users, old) {
                    leo_obs::counter!("fault.handoffs").incr();
                }
                service
                    .migration_delay_view(&view, users, old, desired)
                    .map(|d| d * 1e3)
            });
            events.push(HandoffEvent {
                time_s: t,
                from: current,
                to: desired,
                transfer_latency_ms,
                group_rtt_ms: delays.rtt_ms(desired),
            });
            current = Some(desired);
        }
        rtt_samples.push((t, delays.rtt_ms(desired)));
    }

    SessionResult {
        policy,
        events,
        rtt_samples,
        end_s: config.start_s + config.duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::StickyParams;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    fn users() -> Vec<GroundEndpoint> {
        vec![
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
            GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
        ]
    }

    fn quick_sticky() -> Policy {
        Policy::Sticky(StickyParams {
            lookahead_step_s: 30.0,
            lookahead_horizon_s: 300.0,
            ..StickyParams::default()
        })
    }

    fn short_config() -> SessionConfig {
        SessionConfig {
            start_s: 0.0,
            duration_s: 600.0,
            tick_s: 10.0,
        }
    }

    #[test]
    fn sessions_start_with_an_acquisition_event() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let r = run_session(&service, &users(), Policy::MinMax, &short_config());
        assert!(!r.events.is_empty());
        assert_eq!(r.events[0].from, None);
        assert_eq!(r.events[0].transfer_latency_ms, None);
    }

    #[test]
    fn handoff_events_chain_consistently() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let r = run_session(&service, &users(), Policy::MinMax, &short_config());
        for w in r.events.windows(2) {
            assert_eq!(w[1].from, Some(w[0].to), "events must chain");
            assert!(w[1].time_s > w[0].time_s);
        }
    }

    #[test]
    fn true_handoffs_carry_transfer_latencies() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let r = run_session(&service, &users(), Policy::MinMax, &short_config());
        for e in r.events.iter().skip(1) {
            let lat = e.transfer_latency_ms.expect("transfer latency");
            // Most transfers are a few ms; the tail reaches ~100+ ms when
            // MinMax jumps between ascending and descending passes whose
            // +Grid path winds across many planes (the Fig 7 tail).
            assert!((0.0..500.0).contains(&lat), "latency {lat} ms");
        }
    }

    #[test]
    fn sticky_hands_off_less_often_than_minmax() {
        // The paper's headline (Fig 6): Sticky reduces hand-off frequency
        // substantially (4× median interval on the paper's workload).
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            start_s: 0.0,
            duration_s: 1800.0,
            tick_s: 10.0,
        };
        let mm = run_session(&service, &users(), Policy::MinMax, &cfg);
        let st = run_session(&service, &users(), quick_sticky(), &cfg);
        assert!(
            st.handoff_count() <= mm.handoff_count(),
            "sticky {} vs minmax {}",
            st.handoff_count(),
            mm.handoff_count()
        );
        assert!(mm.handoff_count() >= 2, "MinMax should churn on 30 min");
    }

    #[test]
    fn sticky_pays_a_small_latency_premium() {
        // §5: Sticky costs +1.4 ms on the West Africa group. Holding a
        // server to the end of its pass costs a few ms of mean RTT.
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = short_config();
        let mm = run_session(&service, &users(), Policy::MinMax, &cfg);
        let st = run_session(&service, &users(), quick_sticky(), &cfg);
        let (mm_rtt, st_rtt) = (
            mm.mean_group_rtt_ms().unwrap(),
            st.mean_group_rtt_ms().unwrap(),
        );
        assert!(
            st_rtt <= mm_rtt + 5.0,
            "sticky mean {st_rtt} vs minmax mean {mm_rtt}"
        );
    }

    #[test]
    fn rtt_samples_cover_every_tick_when_served() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = short_config();
        let r = run_session(&service, &users(), Policy::MinMax, &cfg);
        assert_eq!(r.rtt_samples.len(), 61); // 600/10 + 1 ticks, all served
        for &(_, rtt) in &r.rtt_samples {
            assert!(rtt > 0.0 && rtt < 60.0);
        }
    }

    #[test]
    fn interval_and_transfer_cdfs_are_consistent_with_events() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let r = run_session(&service, &users(), Policy::MinMax, &short_config());
        assert_eq!(r.times_between_handoffs().len() + 1, r.events.len().max(1));
        assert_eq!(r.transfer_latency_cdf().len(), r.handoff_count());
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_is_rejected() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            start_s: 0.0,
            duration_s: 10.0,
            tick_s: 0.0,
        };
        run_session(&service, &users(), Policy::MinMax, &cfg);
    }

    #[test]
    #[should_panic(expected = "session start must be finite")]
    fn nan_start_is_rejected() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            start_s: f64::NAN,
            ..short_config()
        };
        run_session(&service, &users(), Policy::MinMax, &cfg);
    }

    #[test]
    #[should_panic(expected = "session duration must be finite and non-negative")]
    fn infinite_duration_is_rejected() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            duration_s: f64::INFINITY,
            ..short_config()
        };
        run_session(&service, &users(), Policy::MinMax, &cfg);
    }
}
