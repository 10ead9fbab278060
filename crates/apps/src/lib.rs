//! # leo-apps
//!
//! Application models for the three use-case families of §3:
//!
//! * [`edge`] — CDN and edge computing (§3.1): terrestrial CDN latency vs
//!   in-orbit edge latency from arbitrary ground locations, and the
//!   CDN-scale comparison ("Starlink at full scale would be only 7×
//!   smaller than Akamai").
//! * [`interactive`] — multi-user interaction (§3.2): QoE thresholds for
//!   gaming / AR / haptics.
//! * [`spacenative`] — processing space-native data (§3.3): the
//!   "invisible satellites" analysis behind Figs 4–5, and the
//!   sensing-vs-downlink pipeline model showing how in-orbit
//!   pre-processing raises sensing duty cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edge;
pub mod geo_baseline;
pub mod interactive;
pub mod matchmaking;
pub mod spacenative;
