//! # leo-net
//!
//! The LEO network substrate: everything between orbital mechanics and the
//! in-orbit compute service layer.
//!
//! * [`visibility`] — which satellites a ground point can reach at an
//!   instant, under each shell's minimum-elevation rule, with slant ranges
//!   and RTTs ([`visibility::VisibleSat`]): the brute-force reference scan
//!   the index is tested against.
//! * [`index`] — a latitude-banded spatial index over one snapshot
//!   ([`index::VisibilityIndex`]) answering the same queries by testing
//!   only the satellites whose coverage cone can reach the ground
//!   point's latitude; exact, not approximate.
//! * [`isl`] — the +Grid inter-satellite-link topology (intra-plane ring +
//!   nearest neighbor in each adjacent plane) with an Earth-occlusion
//!   check, plus link lengths at any time.
//! * [`graph`] — a propagation-delay-weighted network graph over
//!   satellites and ground endpoints with Dijkstra shortest paths: the
//!   reference oracle the engine is tested against. No library code
//!   routes through it.
//! * [`engine`] — the incremental CSR routing engine and the library's
//!   one router: the ISL adjacency compiled once
//!   ([`engine::RoutingEngine`]), per-snapshot weight refreshes in place
//!   ([`engine::IslWeights`]), per-group ground attachment
//!   ([`engine::GroundLinks`]), and arena-backed Dijkstra
//!   ([`engine::DijkstraArena`]) with early-exit, path, and bulk
//!   variants — bit-identical delays and hop lists to the [`graph`]
//!   path, several times faster.
//! * [`routing`] — graph construction at a snapshot plus ground–ground,
//!   ground–satellite and satellite–satellite path helpers over it: the
//!   reference side of the engine's oracle tests, with no production
//!   caller. [`routing::GroundEndpoint`] lives here too.
//! * [`congestion`] — the packet simulator: window-based senders
//!   (AIMD / DCTCP) with pacing, retransmission on drop-tail loss, and
//!   ECN-style marking at a configurable queue threshold, sharing queues
//!   with open-loop CBR flows whose delivery and latency it reports. Used
//!   by `leo-core` to time state migration over contended ISLs and by the
//!   `downlink_contention` example for the §3.3 downlink footnote. Also
//!   home of the analytic uncontended-transfer bounds
//!   ([`congestion::uncontended_transfer_s`],
//!   [`congestion::uncontended_packet_transfer_s`]).
//! * [`handover`] — single-ground-station pass prediction (sampled
//!   through the visibility index) and hand-over schedules for the plain
//!   network service (§2).
//! * [`weather`] — rain-fade link budgets and availability (§6's
//!   unanalyzed weather question).
//! * [`fault`] — outage masks over all of the above: dead satellites
//!   and rain-faded access links ([`fault::FaultPlan`]). Every
//!   visibility query, ground attachment, frontier pass and weight
//!   refresh takes a plan as a required argument, so no caller can skip
//!   the mask; fault-free callers pass the empty plan, which masks
//!   nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod engine;
pub mod fault;
pub mod frontier;
pub mod graph;
pub mod handover;
pub mod index;
pub mod isl;
pub mod routing;
pub mod visibility;
pub mod weather;

pub use engine::{DeltaStats, DijkstraArena, GroundLinks, IslWeights, RoutingEngine, SatPath};
pub use fault::{FailureSchedule, FaultConfig, FaultPlan, GroundFade, RainFade};
pub use frontier::{BandedGroundSets, GroundSet, VisibleLists};
pub use graph::{NetworkGraph, NodeId, Path};
pub use index::VisibilityIndex;
pub use isl::IslTopology;
pub use visibility::{visible_sats, VisibleSat};
