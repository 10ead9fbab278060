//! Capacity-aware placement on satellite-servers.
//!
//! §3.1: *"One satellite may not offer a large amount of available
//! compute, so we quantify how many satellites are reachable from a
//! ground location at any time."* The paper's answer (Fig 2) is that
//! 10–40+ servers are in view — comparable to a "cloudlet". This module
//! closes the loop: given each satellite a finite number of tenant
//! slots, reserve workloads on reachable servers and report the slots in
//! use and the free capacity over a location, so the aggregate capacity
//! can be studied rather than just counted.

use crate::service::InOrbitService;
use leo_constellation::SatId;
use leo_geo::Geodetic;

/// Per-server slot accounting over one constellation snapshot: every
/// satellite-server offers the same number of tenant slots, and callers
/// reserve on the server they choose.
#[derive(Debug, Clone)]
pub struct CapacityPool<'a> {
    service: &'a InOrbitService,
    time_s: f64,
    slots_per_server: u32,
    /// Slots in use, indexed by `SatId`: one entry per server.
    used: Vec<u32>,
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
            used: vec![0; service.num_servers()],
        }
    }

    /// Free slots on one server.
    fn free_slots(&self, server: SatId) -> u32 {
        self.slots_per_server - self.used[server.0 as usize]
    }

    /// Total slots in use across the pool.
    pub fn used_slots(&self) -> u64 {
        self.used.iter().map(|&v| u64::from(v)).sum()
    }

    /// Attempts to reserve `slots` on one *specific* server, returning
    /// whether the reservation was admitted; a refused reservation holds
    /// nothing. This is the sticky-placement primitive: a workload that
    /// already runs on a server wants to stay there (no migration cost)
    /// even when a nearer server has opened up, so the caller names the
    /// server.
    ///
    /// # Panics
    /// Panics when `server` is not a satellite of the service's
    /// constellation.
    pub fn try_reserve(&mut self, server: SatId, slots: u32) -> bool {
        let fleet = self.used.len();
        assert!(
            (server.0 as usize) < fleet,
            "try_reserve: {server:?} is not one of the {fleet} servers"
        );
        if self.free_slots(server) >= slots {
            self.used[server.0 as usize] += slots;
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
            .map(|v| u64::from(self.free_slots(v.id)))
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

    #[test]
    fn capacity_eventually_exhausts() {
        let s = service();
        let mut pool = CapacityPool::new(&s, 0.0, 1);
        let loc = Geodetic::ground(10.0, 10.0);
        let visible = s.reachable_servers(loc, 0.0);
        assert_eq!(
            pool.reachable_free_slots(loc, f64::INFINITY),
            visible.len() as u64
        );
        for v in &visible {
            assert!(pool.try_reserve(v.id, 1));
        }
        assert_eq!(pool.reachable_free_slots(loc, f64::INFINITY), 0);
        assert!(visible.iter().all(|v| !pool.try_reserve(v.id, 1)));
        assert_eq!(pool.used_slots(), visible.len() as u64);
    }

    #[test]
    fn unserved_latitude_reports_no_server() {
        // The 53°-only shell cannot serve the poles.
        let s = service();
        let pool = CapacityPool::new(&s, 0.0, 8);
        assert_eq!(
            pool.reachable_free_slots(Geodetic::ground(89.0, 0.0), 16.0),
            0
        );
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
