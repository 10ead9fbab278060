//! `run_session` and `predict_servers` fold the same hold-or-reselect
//! loop: on the same schedule, every session hand-off (or acquisition)
//! opens a predicted serving interval on the same server at the same
//! instant, and nothing else does.

use leo_constellation::presets;
use leo_core::replication::predict_servers;
use leo_core::session::run_session;
use leo_core::{InOrbitService, Policy, SessionConfig};
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;

#[test]
fn session_handoffs_open_the_predicted_intervals() {
    let service = InOrbitService::new(presets::starlink_550_only());
    let users = vec![
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
    ];
    for policy in [Policy::MinMax, Policy::sticky_default()] {
        for start_s in [0.0, 5000.0] {
            let cfg = SessionConfig {
                start_s,
                duration_s: 1800.0,
                tick_s: 15.0,
            };
            let session: Vec<_> = run_session(&service, &users, policy, &cfg)
                .events
                .iter()
                .map(|e| (e.time_s, e.to))
                .collect();
            let predicted: Vec<_> = predict_servers(
                &service,
                &users,
                policy,
                start_s,
                cfg.duration_s,
                cfg.tick_s,
            )
            .iter()
            .map(|iv| (iv.from_s, iv.server))
            .collect();
            assert!(session.len() > 2, "{} from {start_s} s", policy.name());
            assert_eq!(session, predicted, "{} from {start_s} s", policy.name());
        }
    }
}
