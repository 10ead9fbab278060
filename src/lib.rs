//! # in-orbit
//!
//! A full reproduction of *"In-orbit Computing: An Outlandish thought
//! Experiment?"* (Bhattacherjee, Kassing, Licciardello, Singla —
//! HotNets 2020): a LEO mega-constellation simulator plus an in-orbit
//! computing service layer built on top of it.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geo`] | `leo-geo` | Earth model, frames, look angles, eclipse |
//! | [`orbit`] | `leo-orbit` | Kepler + J2 propagation, TLE I/O |
//! | [`constellation`] | `leo-constellation` | Walker shells, Starlink/Kuiper presets |
//! | [`cities`] | `leo-cities` | World cities, Azure regions |
//! | [`net`] | `leo-net` | Visibility, +Grid ISLs, routing, packet simulation |
//! | [`core`] | `leo-core` | The paper's contribution: in-orbit compute service, MinMax/Sticky selection, virtual stationarity |
//! | [`feasibility`] | `leo-feasibility` | §4 mass/power/thermal/reliability/cost models |
//! | [`apps`] | `leo-apps` | Edge/CDN, multi-user QoE, Earth-observation models |
//! | [`sim`] | `leo-sim` | Parallel time-sweep engine over cached snapshot views |
//! | [`serve`] | `leo-serve` | Sharded million-user serving sweeps on delta-refreshed routing |
//! | [`edge`] | `leo-edge` | Serverless FaaS workload layer: function placement, QoS replicas, demand scenarios |
//! | [`obs`] | `leo-obs` | Counters, histograms, span timers, run manifests |
//!
//! ## Quickstart
//!
//! ```
//! use in_orbit::prelude::*;
//!
//! // Starlink's first shell as an in-orbit compute provider.
//! let service = InOrbitService::new(starlink_550_only());
//!
//! // Who can a user in Lagos reach right now?
//! let lagos = Geodetic::ground(6.52, 3.38);
//! let servers = service.reachable_servers(lagos, 0.0);
//! assert!(!servers.is_empty());
//! let nearest = servers
//!     .iter()
//!     .min_by(|a, b| a.range_m.total_cmp(&b.range_m))
//!     .unwrap();
//! assert!(nearest.rtt_ms() < 11.0); // single-digit milliseconds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use leo_apps as apps;
pub use leo_cities as cities;
pub use leo_constellation as constellation;
pub use leo_core as core;
pub use leo_edge as edge;
pub use leo_feasibility as feasibility;
pub use leo_geo as geo;
pub use leo_net as net;
pub use leo_obs as obs;
pub use leo_orbit as orbit;
pub use leo_serve as serve;
pub use leo_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use leo_constellation::presets::{kuiper, starlink_550_only, starlink_phase1, telesat};
    pub use leo_constellation::{Constellation, SatId};
    pub use leo_core::{Cdf, GroupDelays, InOrbitService, Policy, SessionConfig, StickyParams};
    pub use leo_geo::{Angle, Ecef, Eci, Epoch, Geodetic, Vec3};
    pub use leo_net::routing::GroundEndpoint;
    pub use leo_net::{IslTopology, NetworkGraph};
    pub use leo_orbit::{KeplerianElements, Propagator, Tle};
    pub use leo_sim::TimeSweep;
}
