//! Edge cases of [`leo_core::capacity`], the slot accounting the
//! `leo-edge` workload layer builds on: zero-capacity servers, zero-slot
//! and oversized requests, all-satellites-dead services, and the budget
//! `try_reserve` and `place` share.

use leo_constellation::{presets, SatId};
use leo_core::capacity::{CapacityPool, PlacementOutcome, PlacementRequest};
use leo_core::InOrbitService;
use leo_geo::Geodetic;
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

fn request(slots: u32) -> PlacementRequest {
    PlacementRequest {
        location: Geodetic::ground(10.0, 10.0),
        slots,
        max_rtt_ms: 16.0,
    }
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
    // A request for zero slots is vacuous but legal: it places on the
    // nearest server and holds nothing.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 1);
    let outcome = pool.place(&request(0));
    assert!(outcome.is_placed());
    assert_eq!(pool.used_slots(), 0);
    let outcome = pool.place(&request(1));
    assert!(outcome.is_placed(), "real capacity unaffected");
}

#[test]
fn oversized_single_request_exhausts_without_placing() {
    // One request bigger than any single server: every server is
    // reachable yet none can host — CapacityExhausted, not NoServer.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 4);
    assert_eq!(pool.place(&request(5)), PlacementOutcome::CapacityExhausted);
    assert_eq!(pool.used_slots(), 0, "failed placement holds nothing");
}

// ------------------------------------------------- all satellites dead

#[test]
fn dead_fleet_reports_no_server_in_range() {
    let s = dead_service();
    let mut pool = CapacityPool::new(&s, 0.0, 8);
    assert_eq!(pool.place(&request(1)), PlacementOutcome::NoServerInRange);
    assert_eq!(
        pool.reachable_free_slots(Geodetic::ground(10.0, 10.0), 16.0),
        0
    );
}

// ------------------------------------------------- sticky reservations

#[test]
fn try_reserve_and_place_share_one_budget() {
    // The sticky path (try_reserve) and the nearest-first path (place)
    // must deplete the same pool: a server pinned full via try_reserve
    // is skipped by place.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 1);
    let req = request(1);
    let nearest = s
        .reachable_servers(req.location, 0.0)
        .into_iter()
        .min_by(|a, b| a.range_m.total_cmp(&b.range_m))
        .unwrap();
    assert!(pool.try_reserve(nearest.id, 1));
    let PlacementOutcome::Placed { server, .. } = pool.place(&req) else {
        panic!("spill to the next server");
    };
    assert_ne!(
        server, nearest.id,
        "place must spill past the pinned server"
    );
}

#[test]
fn try_reserve_on_an_unknown_server_is_bounded_by_capacity() {
    // try_reserve names servers directly, so even a satellite no ground
    // user could see is bookable — but never beyond its slot budget.
    let s = service();
    let mut pool = CapacityPool::new(&s, 0.0, 2);
    let far = SatId(0);
    assert!(pool.try_reserve(far, 2));
    assert!(!pool.try_reserve(far, 1));
    assert_eq!(pool.used_slots(), 2);
}
