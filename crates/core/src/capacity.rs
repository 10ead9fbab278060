//! Capacity-aware placement on satellite-servers.
//!
//! §3.1: *"One satellite may not offer a large amount of available
//! compute, so we quantify how many satellites are reachable from a
//! ground location at any time."* The paper's answer (Fig 2) is that
//! 10–40+ servers are in view — comparable to a "cloudlet". This module
//! closes the loop: given each satellite a finite number of tenant
//! slots, admit workloads to reachable servers and report utilization
//! and rejection, so the aggregate capacity over a location can be
//! studied rather than just counted.

use crate::service::InOrbitService;
use leo_constellation::SatId;
use leo_geo::Geodetic;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A workload request from one ground location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// Where the tenant is.
    pub location: Geodetic,
    /// Slots requested (a slot ≈ one vCPU-bundle of the onboard server).
    pub slots: u32,
    /// Maximum acceptable RTT to the hosting server, ms.
    pub max_rtt_ms: f64,
}

/// Outcome of one placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementOutcome {
    /// Admitted on a server with the achieved RTT.
    Placed {
        /// The hosting satellite-server.
        server: SatId,
        /// RTT from the tenant to the server, ms.
        rtt_ms: f64,
    },
    /// No reachable server met the RTT bound.
    NoServerInRange,
    /// Reachable servers exist but all are full.
    CapacityExhausted,
}

impl PlacementOutcome {
    /// True when the request was admitted.
    pub fn is_placed(&self) -> bool {
        matches!(self, PlacementOutcome::Placed { .. })
    }
}

/// A capacity-aware placement pool over one constellation snapshot.
///
/// Placement policy: admit on the *nearest* reachable server with free
/// slots (latency-first, as the paper's use cases are latency-driven).
#[derive(Debug, Clone)]
pub struct CapacityPool<'a> {
    service: &'a InOrbitService,
    time_s: f64,
    slots_per_server: u32,
    used: HashMap<SatId, u32>,
}

impl<'a> CapacityPool<'a> {
    /// Creates a pool at simulation time `time_s` with uniform per-server
    /// capacity.
    ///
    /// # Panics
    /// Panics when `slots_per_server` is zero.
    pub fn new(service: &'a InOrbitService, time_s: f64, slots_per_server: u32) -> Self {
        assert!(slots_per_server > 0, "servers need at least one slot");
        CapacityPool {
            service,
            time_s,
            slots_per_server,
            used: HashMap::new(),
        }
    }

    /// Free slots on one server.
    fn free_slots(&self, server: SatId) -> u32 {
        self.slots_per_server - self.used.get(&server).copied().unwrap_or(0)
    }

    /// Total slots in use across the pool.
    pub fn used_slots(&self) -> u64 {
        self.used.values().map(|&v| v as u64).sum()
    }

    /// Attempts one placement.
    pub fn place(&mut self, request: &PlacementRequest) -> PlacementOutcome {
        let mut reachable = self
            .service
            .reachable_servers(request.location, self.time_s)
            .into_iter()
            .filter(|v| v.rtt_ms() <= request.max_rtt_ms)
            .collect::<Vec<_>>();
        if reachable.is_empty() {
            return PlacementOutcome::NoServerInRange;
        }
        reachable.sort_by(|a, b| a.range_m.total_cmp(&b.range_m));
        for v in reachable {
            if self.free_slots(v.id) >= request.slots {
                *self.used.entry(v.id).or_insert(0) += request.slots;
                return PlacementOutcome::Placed {
                    server: v.id,
                    rtt_ms: v.rtt_ms(),
                };
            }
        }
        PlacementOutcome::CapacityExhausted
    }

    /// Attempts to reserve `slots` on one *specific* server, returning
    /// whether the reservation was admitted. This is the sticky-placement
    /// primitive: a workload that already runs on a server wants to stay
    /// there (no migration cost) even when a nearer server has opened up,
    /// so the caller names the server instead of letting
    /// [`CapacityPool::place`] pick the latency optimum.
    pub fn try_reserve(&mut self, server: SatId, slots: u32) -> bool {
        if self.free_slots(server) >= slots {
            *self.used.entry(server).or_insert(0) += slots;
            true
        } else {
            false
        }
    }

    /// Aggregate free capacity reachable from a location under an RTT
    /// bound — the "cloudlet size" overhead the paper compares against.
    pub fn reachable_free_slots(&self, location: Geodetic, max_rtt_ms: f64) -> u64 {
        self.service
            .reachable_servers(location, self.time_s)
            .into_iter()
            .filter(|v| v.rtt_ms() <= max_rtt_ms)
            .map(|v| self.free_slots(v.id) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_550_only())
    }

    fn request(lat: f64, lon: f64, slots: u32) -> PlacementRequest {
        PlacementRequest {
            location: Geodetic::ground(lat, lon),
            slots,
            max_rtt_ms: 16.0,
        }
    }

    #[test]
    fn placement_prefers_the_nearest_server() {
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        let req = request(10.0, 10.0, 1);
        let PlacementOutcome::Placed { server, rtt_ms } = pool.place(&req) else {
            panic!("expected placement");
        };
        let nearest = s
            .reachable_servers(req.location, 0.0)
            .into_iter()
            .min_by(|a, b| a.range_m.total_cmp(&b.range_m))
            .unwrap();
        assert_eq!(server, nearest.id);
        assert!((rtt_ms - nearest.rtt_ms()).abs() < 1e-12);
    }

    #[test]
    fn full_servers_spill_to_the_next_nearest() {
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 1);
        let req = request(10.0, 10.0, 1);
        let first = pool.place(&req);
        let second = pool.place(&req);
        let (
            PlacementOutcome::Placed { server: s1, .. },
            PlacementOutcome::Placed { server: s2, rtt_ms },
        ) = (first, second)
        else {
            panic!("both should place");
        };
        assert_ne!(s1, s2);
        assert!(rtt_ms <= req.max_rtt_ms);
    }

    #[test]
    fn capacity_eventually_exhausts() {
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 1);
        let req = request(10.0, 10.0, 1);
        let visible = s.reachable_servers(req.location, 0.0).len();
        for _ in 0..visible {
            assert!(pool.place(&req).is_placed());
        }
        assert_eq!(pool.place(&req), PlacementOutcome::CapacityExhausted);
        assert_eq!(pool.used_slots(), visible as u64);
    }

    #[test]
    fn unserved_latitude_reports_no_server() {
        // The 53°-only shell cannot serve the poles.
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 8);
        let req = request(89.0, 0.0, 1);
        assert_eq!(pool.place(&req), PlacementOutcome::NoServerInRange);
    }

    #[test]
    fn tight_rtt_bounds_shrink_the_candidate_set() {
        let s = service();
        let pool = CapacityPool::new(&s, 0.0, 4);
        let loc = Geodetic::ground(20.0, 30.0);
        let wide = pool.reachable_free_slots(loc, 16.0);
        let tight = pool.reachable_free_slots(loc, 5.0);
        assert!(tight < wide, "tight {tight} vs wide {wide}");
        assert!(tight > 0);
    }

    #[test]
    fn try_reserve_pins_a_specific_server_until_it_fills() {
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 2);
        let target = s.reachable_servers(Geodetic::ground(10.0, 10.0), 0.0)[0].id;
        assert!(pool.try_reserve(target, 1));
        assert!(pool.try_reserve(target, 1));
        assert_eq!(pool.free_slots(target), 0);
        assert!(!pool.try_reserve(target, 1), "full server must refuse");
        assert_eq!(pool.used_slots(), 2);
    }

    #[test]
    fn try_reserve_respects_oversized_requests() {
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 4);
        let target = s.reachable_servers(Geodetic::ground(10.0, 10.0), 0.0)[0].id;
        assert!(!pool.try_reserve(target, 5), "request exceeds the server");
        assert_eq!(pool.used_slots(), 0, "a refused reservation holds nothing");
    }
}
