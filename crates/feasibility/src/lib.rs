//! # leo-feasibility
//!
//! Quantitative models for §4 of the paper — *"Feasibility of in-orbit
//! compute"* — covering every axis the paper analyzes:
//!
//! * [`hardware`] — the reference hardware: HPE ProLiant DL325 Gen10
//!   server and the Starlink v1.0 satellite bus.
//! * [`mass`] — weight and volume budgets (paper: 6 % and 1 %).
//! * [`power`] — solar/battery/eclipse power model and the server's draw
//!   as a fraction of the bus budget (paper: 15 % at 225 W, 23 % at
//!   350 W), plus radiator sizing for the added heat.
//! * [`reliability`] — life-cycle model: servers fail at a constant rate
//!   with no repair, satellites are replaced at end of life, and the
//!   steady-state fraction with a working server follows in closed form
//!   (paper: "even with a substantial fraction of servers failing, a large
//!   LEO constellation could continue to provide valuable in-orbit
//!   computing resources").
//! * [`cost`] — launch cost per server and the 3-year TCO ratio against a
//!   terrestrial data-center server (paper: ~42,000 USD launch, ~3×).
//!
//! Constants carry doc-comment provenance to the paper's cited sources.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod hardware;
pub mod mass;
pub mod power;
pub mod reliability;

pub use hardware::{SatelliteBus, ServerSpec};
pub use mass::MassBudget;
pub use power::PowerBudget;
