//! Ahead-of-time state replication planning.
//!
//! §5's closing paragraph: *"it may be beneficial to separate
//! session-specific state from generic application state, e.g., the
//! player and game state versus the virtual world of a game, and perform
//! live migration only for the session-specific state, while generic
//! state is replicated even further ahead."*
//!
//! Satellite motion is predictable, so the sequence of future
//! meetup-servers is computable in advance. [`predict_servers`] rolls
//! the selection policy forward; [`ReplicationPlan`] turns the
//! prediction into a prefetch schedule for the generic state (replicate
//! to the next `depth` future servers, `lead_time_s` before they take
//! over) and quantifies the payoff: at hand-off time only the small
//! session state moves on the critical path.

use crate::selection::Policy;
use crate::service::InOrbitService;
use crate::session::{held_servers, SessionConfig};
use leo_constellation::SatId;
use leo_geo::consts::SPEED_OF_LIGHT_M_S;
use leo_net::congestion::{
    uncontended_packet_transfer_s, uncontended_transfer_s, CbrFlow, CcAlgorithm, CongestionLink,
    CongestionNetwork, Link, WindowedFlow,
};
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// One predicted serving interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingInterval {
    /// The server.
    pub server: SatId,
    /// When it takes over, seconds.
    pub from_s: f64,
    /// When it hands off (exclusive), seconds.
    pub until_s: f64,
}

impl ServingInterval {
    /// Interval length, seconds.
    pub fn duration_s(&self) -> f64 {
        self.until_s - self.from_s
    }
}

/// Rolls the selection policy forward from `start_s` for `horizon_s`,
/// sampling every `step_s`, and returns the predicted sequence of
/// serving intervals. Gaps (no satellite serves the whole group) end the
/// current interval; prediction resumes at the next served sample. The
/// servers are the ones [`run_session`](crate::session::run_session)
/// hands off to on the same schedule; no state-transfer path is routed.
///
/// # Panics
/// Panics unless the step is positive, the start finite, and the
/// horizon finite and positive.
pub fn predict_servers(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    policy: Policy,
    start_s: f64,
    horizon_s: f64,
    step_s: f64,
) -> Vec<ServingInterval> {
    assert!(
        horizon_s > 0.0,
        "prediction horizon must be positive, got {horizon_s}"
    );
    let config = SessionConfig {
        start_s,
        duration_s: horizon_s,
        tick_s: step_s,
    };
    let mut intervals: Vec<ServingInterval> = Vec::new();
    let mut prev: Option<SatId> = None;
    for (t, held) in held_servers(service, users, policy, &config) {
        let server = held.map(|(server, _)| server);
        if let Some(server) = server {
            match intervals.last_mut() {
                Some(iv) if prev == Some(server) => iv.until_s = t + step_s,
                _ => intervals.push(ServingInterval {
                    server,
                    from_s: t,
                    until_s: t + step_s,
                }),
            }
        }
        prev = server;
    }
    intervals
}

/// Sizes of the two state classes, bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateSizes {
    /// Session-specific state (player positions, scores…): migrated live
    /// at each hand-off, on the critical path.
    pub session_bytes: f64,
    /// Generic application state (the virtual world…): replicated ahead,
    /// off the critical path.
    pub generic_bytes: f64,
}

/// One prefetch order: push the generic state to `target` by `by_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchOrder {
    /// Destination server.
    pub target: SatId,
    /// Start the push at this time, seconds.
    pub start_s: f64,
    /// Must complete by this time (the server's takeover), seconds.
    pub deadline_s: f64,
}

/// A replication plan over a predicted server sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationPlan {
    /// The predicted serving sequence the plan is built on.
    pub intervals: Vec<ServingInterval>,
    /// Prefetch orders for the generic state.
    pub orders: Vec<PrefetchOrder>,
    /// State sizes the plan was built for.
    pub sizes: StateSizes,
}

impl ReplicationPlan {
    /// Builds a plan: for each future serving interval (up to `depth`
    /// ahead of the current one), schedule the generic-state push to
    /// start `lead_time_s` before takeover.
    pub fn build(
        intervals: Vec<ServingInterval>,
        sizes: StateSizes,
        depth: usize,
        lead_time_s: f64,
    ) -> Self {
        let orders = intervals
            .iter()
            .skip(1)
            .take(depth)
            .map(|iv| PrefetchOrder {
                target: iv.server,
                start_s: (iv.from_s - lead_time_s).max(0.0),
                deadline_s: iv.from_s,
            })
            .collect();
        ReplicationPlan {
            intervals,
            orders,
            sizes,
        }
    }

    /// Critical-path data volume at each hand-off *with* the plan:
    /// session state only.
    fn critical_path_bytes(&self) -> f64 {
        self.sizes.session_bytes
    }

    /// Critical-path volume *without* the plan: everything moves at
    /// hand-off time.
    fn unplanned_critical_path_bytes(&self) -> f64 {
        self.sizes.session_bytes + self.sizes.generic_bytes
    }

    /// Hand-off critical-path time (seconds) with and without the plan,
    /// over a migration path of `links`.
    pub fn handoff_times_s(&self, links: &[Link]) -> (f64, f64) {
        let with = uncontended_transfer_s(self.critical_path_bytes() * 8.0, links);
        let without = uncontended_transfer_s(self.unplanned_critical_path_bytes() * 8.0, links);
        (with, without)
    }

    /// True when every prefetch has enough time to finish over `links`
    /// before its deadline.
    pub fn prefetches_feasible(&self, links: &[Link]) -> bool {
        let t = uncontended_transfer_s(self.sizes.generic_bytes * 8.0, links);
        self.orders.iter().all(|o| o.deadline_s - o.start_s >= t)
    }
}

/// Network model for packet-level migration timing: per-ISL capacity,
/// queueing, marking, the sender's congestion-control algorithm, and the
/// background load competing for each hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationNetConfig {
    /// Capacity of every ISL on the route, bits per second.
    pub isl_rate_bps: f64,
    /// Drop-tail queue capacity per ISL, packets.
    pub queue_packets: usize,
    /// ECN marking threshold (queue occupancy, packets); `None` disables
    /// marking.
    pub ecn_threshold: Option<usize>,
    /// Simulated packet size, bits. Large "GSO-burst" packets keep event
    /// counts tractable without changing queueing behavior qualitatively.
    pub packet_bits: f64,
    /// Congestion-control algorithm for the migration sender.
    pub algorithm: CcAlgorithm,
    /// Background EO/user cross-traffic on *each* ISL of the route, as a
    /// fraction of `isl_rate_bps`. Open-loop: it does not back off. Must be
    /// finite and non-negative; above 1.0 it models overload.
    pub cross_load_frac: f64,
    /// Route-refresh cadence, seconds: every `segment_s` the ISL route is
    /// recomputed from the snapshot view at that instant. Packets in
    /// flight across a route change are lost (handover loss) and the
    /// window restarts halved.
    pub segment_s: f64,
    /// Give up after this many route segments without completing.
    pub max_segments: usize,
}

impl Default for MigrationNetConfig {
    fn default() -> Self {
        Self {
            isl_rate_bps: 10e9,
            queue_packets: 256,
            ecn_threshold: Some(64),
            packet_bits: 384_000.0, // 48 kB GSO bursts
            algorithm: CcAlgorithm::Dctcp { gain: 0.0625 },
            cross_load_frac: 0.0,
            segment_s: 15.0,
            max_segments: 240,
        }
    }
}

/// Outcome of one packet-level state migration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationOutcome {
    /// Wall-clock transfer time, seconds; `None` if the transfer did not
    /// complete within `max_segments` route segments.
    pub duration_s: Option<f64>,
    /// Analytic uncontended bound for the *initial* route, packetized
    /// (first packet store-and-forwards, the rest pipeline behind the
    /// slowest hop). Equals [`uncontended_transfer_s`] on one-hop routes.
    pub analytic_packet_s: f64,
    /// Analytic uncontended bound for the initial route with the state as
    /// one indivisible message ([`uncontended_transfer_s`]); an upper
    /// bound on the packetized bound.
    pub analytic_message_s: f64,
    /// ISL hops on the initial route.
    pub hops: usize,
    /// Distinct packets the transfer comprises.
    pub packets: u64,
    /// Route segments the transfer spanned.
    pub segments: usize,
    /// Segments whose route differed from the previous segment's.
    pub route_changes: usize,
    /// Total packet transmissions, including retransmissions.
    pub transmissions: u64,
    /// Retransmissions after drop-tail loss or timeout.
    pub retransmissions: u64,
    /// Transmissions lost to full queues.
    pub dropped: u64,
    /// Packets still in flight when a route segment ended: lost to the
    /// handover, re-sent on the next segment.
    pub boundary_loss: u64,
    /// Deliveries carrying an ECN congestion-experienced mark.
    pub ecn_marked: u64,
}

/// Times a live state migration from `from` to `to` starting at `start_s`
/// through the congestion-aware packet engine, instead of the analytic
/// [`uncontended_transfer_s`] bound.
///
/// The transfer is simulated in segments of [`MigrationNetConfig::segment_s`]
/// seconds. For each segment the shortest ISL route comes from the
/// service's [`SnapshotView`](crate::SnapshotView) at the segment's start
/// (link propagation delays from actual inter-satellite distances,
/// capacity and queueing from the config). The view's weights carry the
/// service's fault plan at that instant, so the route never crosses a dead
/// satellite, and a dead endpoint stalls the transfer until
/// `max_segments` runs out. An independent open-loop cross-traffic flow is
/// placed on every hop, and the windowed sender moves as much of the
/// remaining state as the segment allows. Packets in flight when the segment ends are lost —
/// the handover-loss case — and the window restarts halved on the next
/// segment's route.
///
/// Deterministic: identical inputs produce identical outcomes, independent
/// of thread count or observability level. Each segment's event loop is
/// timed by the `net.pkt.segment_s` span, and its events add to the
/// `net.pkt.events` counter.
///
/// # Panics
/// Panics on a non-positive or non-finite size, a non-finite start, a
/// non-positive or non-finite segment length, or a negative or non-finite
/// cross-traffic load.
pub fn migrate_via_packets(
    service: &InOrbitService,
    from: SatId,
    to: SatId,
    start_s: f64,
    size_bytes: f64,
    cfg: &MigrationNetConfig,
) -> MigrationOutcome {
    assert!(
        size_bytes.is_finite() && size_bytes > 0.0,
        "state size must be positive and finite, got {size_bytes}"
    );
    assert!(
        start_s.is_finite(),
        "migration start must be finite, got {start_s}"
    );
    assert!(
        cfg.segment_s.is_finite() && cfg.segment_s > 0.0,
        "segment length must be positive and finite, got {}",
        cfg.segment_s
    );
    assert!(
        cfg.cross_load_frac.is_finite() && cfg.cross_load_frac >= 0.0,
        "cross-traffic load must be non-negative and finite, got {}",
        cfg.cross_load_frac
    );
    let total_packets = ((size_bytes * 8.0) / cfg.packet_bits).ceil().max(1.0) as u64;
    let mut outcome = MigrationOutcome {
        duration_s: None,
        analytic_packet_s: 0.0,
        analytic_message_s: 0.0,
        hops: 0,
        packets: total_packets,
        segments: 0,
        route_changes: 0,
        transmissions: 0,
        retransmissions: 0,
        dropped: 0,
        boundary_loss: 0,
        ecn_marked: 0,
    };
    if from == to {
        outcome.duration_s = Some(0.0);
        outcome.packets = 0;
        return outcome;
    }

    let mut remaining = total_packets;
    let mut elapsed_s = 0.0;
    let mut prev_route: Option<Vec<SatId>> = None;
    let mut carried_cwnd: Option<f64> = None;

    for seg in 0..cfg.max_segments {
        let seg_start = start_s + elapsed_s;
        let view = service.view(seg_start);
        let Some(path) = view.sat_to_sat_path(from, to) else {
            // No route this segment; wait for the topology to change.
            outcome.segments = seg + 1;
            elapsed_s += cfg.segment_s;
            prev_route = None;
            continue;
        };
        let route_changed = prev_route.as_deref().is_some_and(|r| r != path.sats);
        if route_changed {
            outcome.route_changes += 1;
        }

        // Materialize the route as congestion links: configured capacity
        // and queueing, propagation from the actual hop geometry.
        let snap = view.snapshot();
        let links: Vec<CongestionLink> = path
            .sats
            .windows(2)
            .map(|pair| {
                let (a, b) = (snap.position(pair[0]), snap.position(pair[1]));
                let prop_s = a.distance_m(b) / SPEED_OF_LIGHT_M_S;
                let link = CongestionLink::new(cfg.isl_rate_bps, prop_s, cfg.queue_packets);
                match cfg.ecn_threshold {
                    Some(t) => link.with_ecn(t.min(cfg.queue_packets)),
                    None => link,
                }
            })
            .collect();
        if outcome.hops == 0 {
            outcome.hops = links.len();
            outcome.analytic_packet_s =
                uncontended_packet_transfer_s(cfg.packet_bits, total_packets, &links);
            let des_links: Vec<Link> = links
                .iter()
                .map(|l| Link::new(l.rate_bps, l.prop_delay_s))
                .collect();
            outcome.analytic_message_s = uncontended_transfer_s(size_bytes * 8.0, &des_links);
        }
        outcome.segments = seg + 1;

        let mut net = CongestionNetwork::new();
        let ids: Vec<_> = links.iter().map(|l| net.add_link(*l)).collect();
        if cfg.cross_load_frac > 0.0 {
            for id in &ids {
                net.add_cbr(CbrFlow::with_load(
                    vec![*id],
                    cfg.packet_bits,
                    cfg.cross_load_frac * cfg.isl_rate_bps,
                    0.0,
                    cfg.segment_s,
                ));
            }
        }
        // The sender knows the route it was handed: start at the path
        // bandwidth-delay product (pacing prevents a burst) so an
        // uncontended transfer runs at line rate immediately; carry the
        // halved window across route changes.
        let base_rtt_s: f64 = links
            .iter()
            .map(|l| cfg.packet_bits / l.rate_bps + 2.0 * l.prop_delay_s)
            .sum();
        let bdp_packets = (cfg.isl_rate_bps * base_rtt_s / cfg.packet_bits).max(10.0);
        let init_cwnd = match carried_cwnd {
            Some(w) if route_changed => (w / 2.0).max(1.0),
            Some(w) => w,
            None => bdp_packets,
        };
        let flow = WindowedFlow {
            route: ids,
            packet_bits: cfg.packet_bits,
            packets: remaining,
            start_s: 0.0,
            init_cwnd,
            max_cwnd: (2.0 * bdp_packets).max(init_cwnd),
            algorithm: cfg.algorithm,
            base_rtt_s: Some(base_rtt_s),
            // The sender knows the route's BDP: start in congestion
            // avoidance, not slow start, or the first RTT doubles past
            // 2x BDP and overflows the queue the window was sized for.
            init_ssthresh: Some(init_cwnd),
        };
        let sender = net.add_windowed(flow);
        let done = {
            let _span = leo_obs::span!("net.pkt.segment_s");
            net.run_while_incomplete(cfg.segment_s)
        };
        leo_obs::counter!("net.pkt.events").add(net.events_processed());
        let stats = net.windowed_stats(sender);
        outcome.transmissions += stats.transmissions;
        outcome.retransmissions += stats.retransmissions;
        outcome.dropped += stats.dropped;
        outcome.ecn_marked += stats.ecn_marked;
        if done {
            outcome.duration_s =
                Some(elapsed_s + stats.completion_s.expect("completed transfer has a time"));
            return outcome;
        }
        // Segment over: in-flight packets die with the old route.
        outcome.boundary_loss += stats
            .transmissions
            .saturating_sub(stats.arrivals + stats.dropped);
        remaining -= stats.delivered;
        elapsed_s += cfg.segment_s;
        carried_cwnd = Some(stats.final_cwnd);
        prev_route = Some(path.sats);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    fn users() -> Vec<GroundEndpoint> {
        vec![
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
            GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
        ]
    }

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_phase1_conservative())
    }

    #[test]
    fn prediction_intervals_are_ordered_and_disjoint() {
        let s = service();
        let iv = predict_servers(&s, &users(), Policy::MinMax, 0.0, 900.0, 15.0);
        assert!(!iv.is_empty());
        for w in iv.windows(2) {
            assert!(w[0].until_s <= w[1].from_s + 1e-9);
            assert_ne!(w[0].server, w[1].server, "adjacent intervals must differ");
        }
        for i in &iv {
            assert!(i.duration_s() > 0.0);
        }
    }

    #[test]
    fn sticky_prediction_yields_fewer_longer_intervals() {
        let s = service();
        let mm = predict_servers(&s, &users(), Policy::MinMax, 0.0, 1800.0, 15.0);
        let st = predict_servers(&s, &users(), Policy::sticky_default(), 0.0, 1800.0, 15.0);
        assert!(
            st.len() <= mm.len(),
            "sticky {} vs minmax {}",
            st.len(),
            mm.len()
        );
    }

    #[test]
    #[should_panic(expected = "session duration must be finite and non-negative")]
    fn infinite_horizon_predictions_are_rejected() {
        // `(INF / step).round() as usize` saturates to `usize::MAX`:
        // unchecked, the prediction would run until the process is killed.
        let s = service();
        predict_servers(&s, &users(), Policy::MinMax, 0.0, f64::INFINITY, 15.0);
    }

    #[test]
    fn plan_covers_the_requested_depth() {
        let s = service();
        let iv = predict_servers(&s, &users(), Policy::sticky_default(), 0.0, 1800.0, 15.0);
        let sizes = StateSizes {
            session_bytes: 10e6,
            generic_bytes: 2e9,
        };
        let depth = 2.min(iv.len().saturating_sub(1));
        let plan = ReplicationPlan::build(iv.clone(), sizes, 2, 60.0);
        assert_eq!(plan.orders.len(), depth);
        for (o, target_iv) in plan.orders.iter().zip(iv.iter().skip(1)) {
            assert_eq!(o.target, target_iv.server);
            assert!(o.start_s <= o.deadline_s);
            assert_eq!(o.deadline_s, target_iv.from_s);
        }
    }

    #[test]
    fn plan_shrinks_the_critical_path_by_the_generic_share() {
        let sizes = StateSizes {
            session_bytes: 10e6, // 10 MB of player state
            generic_bytes: 2e9,  // 2 GB virtual world
        };
        let plan = ReplicationPlan::build(vec![], sizes, 0, 0.0);
        let links = [Link::new(100e9, 0.003)];
        let (with, without) = plan.handoff_times_s(&links);
        // 10 MB at 100 Gbps ≈ 0.8 ms (+3 ms prop) vs 2.01 GB ≈ 161 ms:
        // the propagation floor keeps the ratio near ~40×.
        assert!(with < 0.005, "with plan: {with} s");
        assert!(without > 0.1, "without plan: {without} s");
        assert!(without / with > 30.0);
    }

    #[test]
    fn prefetch_feasibility_depends_on_lead_time() {
        let iv = vec![
            ServingInterval {
                server: SatId(0),
                from_s: 0.0,
                until_s: 100.0,
            },
            ServingInterval {
                server: SatId(1),
                from_s: 100.0,
                until_s: 250.0,
            },
        ];
        let sizes = StateSizes {
            session_bytes: 1e6,
            generic_bytes: 12.5e9, // 100 Gbit → 1 s at 100 Gbps
        };
        let links = [Link::new(100e9, 0.003)];
        let tight = ReplicationPlan::build(iv.clone(), sizes, 1, 0.5);
        assert!(!tight.prefetches_feasible(&links));
        let relaxed = ReplicationPlan::build(iv, sizes, 1, 5.0);
        assert!(relaxed.prefetches_feasible(&links));
    }

    /// A small config that keeps packet counts tractable in tests.
    fn mig_cfg() -> MigrationNetConfig {
        MigrationNetConfig {
            isl_rate_bps: 1e9,
            ..MigrationNetConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "state size must be positive and finite")]
    fn infinite_size_migrations_are_rejected() {
        let s = service();
        migrate_via_packets(&s, SatId(0), SatId(3), 0.0, f64::INFINITY, &mig_cfg());
    }

    #[test]
    #[should_panic(expected = "cross-traffic load must be non-negative and finite")]
    fn nan_cross_load_migrations_are_rejected() {
        // `NaN > 0.0` is false: unchecked, a NaN load would silently run
        // an uncontended transfer.
        let s = service();
        let cfg = MigrationNetConfig {
            cross_load_frac: f64::NAN,
            ..mig_cfg()
        };
        migrate_via_packets(&s, SatId(0), SatId(3), 0.0, 1e6, &cfg);
    }

    #[test]
    #[should_panic(expected = "cross-traffic load must be non-negative and finite")]
    fn negative_cross_load_migrations_are_rejected() {
        // Checked before the same-server shortcut, which would skip it.
        let s = service();
        let cfg = MigrationNetConfig {
            cross_load_frac: -0.5,
            ..mig_cfg()
        };
        migrate_via_packets(&s, SatId(5), SatId(5), 0.0, 1e6, &cfg);
    }

    #[test]
    #[should_panic(expected = "migration start must be finite")]
    fn nan_start_migrations_are_rejected() {
        // A NaN start would corrupt the deterministic tie-break order of
        // the event heap.
        let s = service();
        migrate_via_packets(&s, SatId(0), SatId(3), f64::NAN, 1e6, &mig_cfg());
    }

    #[test]
    fn migrating_to_the_same_server_is_free() {
        let s = service();
        let out = migrate_via_packets(&s, SatId(5), SatId(5), 0.0, 1e6, &mig_cfg());
        assert_eq!(out.duration_s, Some(0.0));
        assert_eq!(out.transmissions, 0);
        assert_eq!(out.packets, 0);
    }

    #[test]
    fn uncontended_migration_lands_between_the_analytic_bounds() {
        let s = service();
        // 10 MB of session state over an idle route: the measured time
        // must be at least the packetized (pipelined) bound and, with a
        // window sized to the path BDP, close to it — certainly no worse
        // than the message-level store-and-forward bound.
        let out = migrate_via_packets(&s, SatId(0), SatId(3), 0.0, 10e6, &mig_cfg());
        let t = out.duration_s.expect("uncontended transfer completes");
        assert!(out.hops >= 1);
        assert!(
            out.analytic_packet_s <= out.analytic_message_s + 1e-12,
            "packetized bound must not exceed the message bound"
        );
        assert!(
            t >= out.analytic_packet_s - 1e-9,
            "measured {t} below the analytic floor {}",
            out.analytic_packet_s
        );
        assert!(
            t <= out.analytic_packet_s * 1.15 + 1e-6,
            "uncontended measured {t} should track the packetized bound {}",
            out.analytic_packet_s
        );
        assert_eq!(out.retransmissions, 0);
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn cross_traffic_slows_migration_monotonically() {
        let s = service();
        let run = |load: f64| {
            let cfg = MigrationNetConfig {
                cross_load_frac: load,
                ..mig_cfg()
            };
            migrate_via_packets(&s, SatId(0), SatId(3), 0.0, 10e6, &cfg)
                .duration_s
                .expect("transfer completes")
        };
        let idle = run(0.0);
        let busy = run(0.85);
        assert!(
            busy > idle,
            "cross-traffic must slow the transfer: {busy} vs {idle}"
        );
    }

    #[test]
    fn contended_migration_sees_congestion_signals() {
        let s = service();
        let cfg = MigrationNetConfig {
            cross_load_frac: 0.9,
            ..mig_cfg()
        };
        let out = migrate_via_packets(&s, SatId(0), SatId(3), 0.0, 20e6, &cfg);
        assert!(out.duration_s.is_some());
        assert!(
            out.ecn_marked > 0 || out.dropped > 0,
            "a 90%-loaded route must produce marks or drops: {out:?}"
        );
    }

    #[test]
    fn migration_outcomes_are_deterministic() {
        let s = service();
        let cfg = MigrationNetConfig {
            cross_load_frac: 0.6,
            ..mig_cfg()
        };
        let a = migrate_via_packets(&s, SatId(0), SatId(7), 120.0, 5e6, &cfg);
        let b = migrate_via_packets(&s, SatId(0), SatId(7), 120.0, 5e6, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn slow_transfers_span_segments_and_survive_route_refreshes() {
        let s = service();
        // Starve the transfer so it cannot finish inside one segment:
        // heavy cross-traffic, short segments, a bigger payload.
        let cfg = MigrationNetConfig {
            isl_rate_bps: 50e6,
            cross_load_frac: 0.9,
            segment_s: 2.0,
            max_segments: 400,
            packet_bits: 48_000.0,
            ..MigrationNetConfig::default()
        };
        let out = migrate_via_packets(&s, SatId(0), SatId(3), 0.0, 20e6, &cfg);
        assert!(
            out.segments > 1,
            "expected a multi-segment transfer, got {out:?}"
        );
        if let Some(t) = out.duration_s {
            assert!(
                t > cfg.segment_s,
                "duration {t} vs segment {}",
                cfg.segment_s
            );
        }
    }

    #[test]
    fn slow_transfers_between_far_satellites_change_route_mid_transfer() {
        // At 5 Mb/s, 25 MB between satellites on opposite sides of the
        // shell outlasts the shortest route several times over.
        let s = InOrbitService::new(presets::starlink_550_only());
        let cfg = MigrationNetConfig {
            isl_rate_bps: 5e6,
            ..MigrationNetConfig::default()
        };
        let out = migrate_via_packets(&s, SatId(5), SatId(795), 0.0, 25e6, &cfg);
        let t = out.duration_s.expect("transfer completes");
        assert!(out.route_changes >= 1, "no route change: {out:?}");
        assert!(out.boundary_loss > 0, "no handover loss: {out:?}");
        assert!(
            t >= out.analytic_packet_s,
            "{t} beats {}",
            out.analytic_packet_s
        );
        // Every packet reached the receiver at least once, and each lost
        // transmission was sent again.
        assert!(
            out.transmissions >= out.packets + out.dropped + out.boundary_loss,
            "{out:?}"
        );
    }

    #[test]
    fn lead_time_never_schedules_before_time_zero() {
        let iv = vec![
            ServingInterval {
                server: SatId(0),
                from_s: 0.0,
                until_s: 30.0,
            },
            ServingInterval {
                server: SatId(1),
                from_s: 30.0,
                until_s: 60.0,
            },
        ];
        let plan = ReplicationPlan::build(
            iv,
            StateSizes {
                session_bytes: 1.0,
                generic_bytes: 1.0,
            },
            1,
            300.0,
        );
        assert_eq!(plan.orders[0].start_s, 0.0);
    }
}
