//! # leo-core
//!
//! The in-orbit computing service layer — the primary contribution of
//! *"In-orbit Computing: An Outlandish thought Experiment?"* (HotNets '20).
//!
//! The paper's thesis: LEO mega-constellations could sell compute on each
//! satellite, the way clouds sell compute in data centers. This crate
//! turns that idea into an API over the `leo-*` substrates:
//!
//! * [`service::InOrbitService`] — the entry point: a constellation plus
//!   its ISL topology, exposing reachable-server queries, network graphs
//!   at any instant, and the selection/session machinery below.
//! * [`access`] — per-latitude access statistics: min/max RTT to
//!   reachable satellite-servers and reachable-server counts over time
//!   (reproduces Figs 1–2).
//! * [`selection`] — meetup-server placement for a user group:
//!   the latency-optimal **MinMax** baseline and the paper's **Sticky**
//!   heuristic (§5: candidates within 10 % of MinMax → the 5 with the
//!   longest time to hand-off → least successor hand-off latency).
//! * [`session`] — the **virtual stationarity** session runner: drives a
//!   user group over time under a selection policy, recording hand-off
//!   events and state-transfer latencies (reproduces Figs 6–7).
//! * [`meetup`] — the Fig 3 scenario: best terrestrial (hybrid) meetup
//!   server via the constellation vs. best in-orbit server.
//! * [`stats`] — empirical CDFs and summaries used by the experiments.
//! * [`replication`] — §5's closing idea: predict future servers and
//!   replicate generic state ahead of the hand-off.
//! * [`capacity`] — per-server slot budgets and reservations (§3.1's
//!   "one satellite may not offer a large amount of compute").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod capacity;
pub mod failover;
pub mod meetup;
pub mod replication;
pub mod selection;
pub mod service;
pub mod session;
pub mod stats;

pub use failover::FailureModel;
pub use selection::{GroupDelays, Policy, StickyParams};
pub use service::{InOrbitService, SnapshotView};
pub use session::{HandoffEvent, SessionConfig, SessionResult};
pub use stats::Cdf;
