//! Edge cases of [`leo_core::capacity`], the slot accounting the
//! `leo-edge` workload layer builds on: zero-capacity servers, zero-slot
//! and oversized requests, all-satellites-dead services, the budget
//! `try_reserve` and `reachable_free_slots` share, and servers outside
//! the constellation.

use leo_constellation::{presets, SatId};
use leo_core::capacity::CapacityPool;
use leo_core::InOrbitService;
use leo_geo::Geodetic;
use leo_net::visibility::VisibleSat;
use leo_net::{FailureSchedule, FaultConfig};

fn service() -> InOrbitService {
    InOrbitService::new(presets::starlink_550_only())
}

/// A service whose every satellite is dead from t=0.
fn dead_service() -> InOrbitService {
    let constellation = presets::starlink_550_only();
    let n = constellation.num_satellites();
    let cfg = FaultConfig {
        schedule: Some(FailureSchedule::from_death_times(vec![0.0; n])),
        ..FaultConfig::none()
    };
    InOrbitService::with_faults(constellation, cfg)
}

/// The tenant location every case uses.
fn tenant() -> Geodetic {
    Geodetic::ground(10.0, 10.0)
}

/// Servers reachable from the tenant within 16 ms, nearest first.
fn in_range(s: &InOrbitService) -> Vec<VisibleSat> {
    let mut v = s.reachable_servers(tenant(), 0.0);
    v.retain(|v| v.rtt_ms() <= 16.0);
    v.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
    v
}

// ------------------------------------------------- zero-capacity servers

#[test]
#[should_panic(expected = "servers need at least one slot")]
fn zero_capacity_pool_is_rejected_loudly() {
    let s = service();
    let _ = CapacityPool::new(&s, 0.0, 0);
}

#[test]
fn zero_slot_requests_admit_without_consuming_capacity() {
    // A request for zero slots is vacuous but legal: it books the
    // nearest server and holds nothing.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 1);
    let nearest = in_range(&s)[0].id;
    assert!(pool.try_reserve(nearest, 0));
    assert_eq!(pool.used_slots(), 0);
    assert!(pool.try_reserve(nearest, 1), "real capacity unaffected");
}

#[test]
fn oversized_single_request_exhausts_without_placing() {
    // One request bigger than any single server: every server is
    // reachable yet none can host it, and nothing is held.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 4);
    let servers = in_range(&s);
    assert!(!servers.is_empty());
    assert!(servers.iter().all(|v| !pool.try_reserve(v.id, 5)));
    assert_eq!(pool.used_slots(), 0, "failed placement holds nothing");
    assert_eq!(
        pool.reachable_free_slots(tenant(), 16.0),
        4 * servers.len() as u64
    );
}

// ------------------------------------------------- all satellites dead

#[test]
fn dead_fleet_reports_no_server_in_range() {
    let s = dead_service();
    assert!(in_range(&s).is_empty());
    let pool = CapacityPool::new(&s, 0.0, 8);
    assert_eq!(pool.reachable_free_slots(tenant(), 16.0), 0);
}

// ------------------------------------------------- sticky reservations

#[test]
fn try_reserve_and_reachable_free_slots_share_one_budget() {
    // A server pinned full via try_reserve leaves the reachable free
    // capacity, and the next-nearest server still admits.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 1);
    let servers = in_range(&s);
    let before = pool.reachable_free_slots(tenant(), 16.0);
    assert!(pool.try_reserve(servers[0].id, 1));
    assert_eq!(pool.reachable_free_slots(tenant(), 16.0), before - 1);
    assert!(!pool.try_reserve(servers[0].id, 1));
    assert!(
        pool.try_reserve(servers[1].id, 1),
        "spill to the next server"
    );
}

#[test]
fn try_reserve_on_an_unseen_server_is_bounded_by_capacity() {
    // try_reserve names servers directly, so even a satellite no ground
    // user could see is bookable — but never beyond its slot budget.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 2);
    let far = SatId(0);
    assert!(pool.try_reserve(far, 2));
    assert!(!pool.try_reserve(far, 1));
    assert_eq!(pool.used_slots(), 2);
}

#[test]
#[should_panic(expected = "SatId(1584) is not one of the 1584 servers")]
fn try_reserve_outside_the_constellation_panics() {
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 2);
    pool.try_reserve(SatId(s.num_servers() as u32), 1);
}
