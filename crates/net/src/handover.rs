//! Ground-station pass prediction and connection hand-over schedules.
//!
//! §2 of the paper: *"a ground station sees a particular LEO satellite
//! only for a few minutes. After this time, if continuous connectivity
//! is desired, the ground station must execute a connection hand-off to
//! another LEO satellite that becomes reachable."* This module computes
//! those passes and hand-over schedules for the plain network service —
//! the machinery the compute-layer sessions in `leo-core` generalize to
//! whole user groups.

use crate::fault::FaultPlan;
use crate::index::VisibilityIndex;
use leo_constellation::{Constellation, SatId};
use leo_geo::{Ecef, Geodetic};
use serde::{Deserialize, Serialize};

/// One visibility pass of a satellite over a ground station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pass {
    /// The satellite.
    pub sat: SatId,
    /// First sample time the satellite was visible, seconds.
    pub rise_s: f64,
    /// Last sample time it was visible, seconds.
    pub set_s: f64,
    /// Minimum slant range over the pass, meters (closest approach).
    pub min_range_m: f64,
}

/// Predicts every visibility pass of every satellite over `ground`
/// within `[start_s, end_s]`, sampling each `step_s` seconds through a
/// [`VisibilityIndex`] built per sample. The plain network service has
/// no faults, so every satellite in view counts.
///
/// Sampling bounds the rise/set accuracy to ±`step_s`; the paper's
/// minutes-scale passes are well resolved at 10 s steps.
///
/// # Panics
/// Panics when `start_s` or `end_s` is not finite, when `end_s` precedes
/// `start_s`, or when `step_s` is not finite and positive: such a window
/// has no finite sample count.
pub fn predict_passes(
    constellation: &Constellation,
    ground: Geodetic,
    start_s: f64,
    end_s: f64,
    step_s: f64,
) -> Vec<Pass> {
    assert!(
        start_s.is_finite() && end_s.is_finite(),
        "pass window bounds must be finite, got [{start_s}, {end_s}]"
    );
    assert!(
        end_s >= start_s,
        "pass window ends at {end_s} s, before its start at {start_s} s"
    );
    assert!(
        step_s.is_finite() && step_s > 0.0,
        "pass sampling step must be finite and positive, got {step_s}"
    );
    let ground_ecef: Ecef = ground.to_ecef_spherical();
    let no_faults = FaultPlan::empty();
    let mut open: std::collections::HashMap<SatId, Pass> = std::collections::HashMap::new();
    let mut done: Vec<Pass> = Vec::new();
    let steps = ((end_s - start_s) / step_s).round() as usize;
    for i in 0..=steps {
        let t = start_s + i as f64 * step_s;
        let snap = constellation.snapshot(t);
        let visible = VisibilityIndex::build(constellation, &snap).query(ground_ecef, &no_faults);
        let mut seen: std::collections::HashSet<SatId> = std::collections::HashSet::new();
        for v in visible {
            seen.insert(v.id);
            open.entry(v.id)
                .and_modify(|p| {
                    p.set_s = t;
                    p.min_range_m = p.min_range_m.min(v.range_m);
                })
                .or_insert(Pass {
                    sat: v.id,
                    rise_s: t,
                    set_s: t,
                    min_range_m: v.range_m,
                });
        }
        // Close passes that ended this step.
        let ended: Vec<SatId> = open
            .keys()
            .filter(|id| !seen.contains(id))
            .copied()
            .collect();
        for id in ended {
            done.push(open.remove(&id).expect("open pass"));
        }
    }
    done.extend(open.into_values());
    done.sort_by(|a, b| a.rise_s.total_cmp(&b.rise_s).then(a.sat.cmp(&b.sat)));
    done
}

/// One entry of a hand-over schedule: serve from `sat` during
/// `[from_s, until_s)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeSlot {
    /// Serving satellite.
    pub sat: SatId,
    /// Slot start, seconds.
    pub from_s: f64,
    /// Slot end, seconds.
    pub until_s: f64,
}

/// Builds a max-stickiness hand-over schedule from predicted passes:
/// at each hand-over, pick the visible satellite whose pass lasts
/// longest, and ride it until it sets. This minimizes the hand-over
/// count for a single ground station (greedy interval covering, which
/// is optimal for this objective).
///
/// Window boundaries are strict: no slot starts at `end_s` and no slot
/// collapses to zero length — a pass that merely grazes the window (or
/// a degenerate single-sample pass with `rise_s == set_s`) contributes
/// nothing.
pub fn handover_schedule(passes: &[Pass], start_s: f64, end_s: f64) -> Vec<ServeSlot> {
    let mut slots = Vec::new();
    let mut t = start_s;
    while t < end_s {
        // Among passes covering t, take the one that sets last. The
        // `set_s > t` bound drops zero-length passes outright.
        let best = passes
            .iter()
            .filter(|p| p.rise_s <= t + 1e-9 && p.set_s > t)
            .max_by(|a, b| a.set_s.total_cmp(&b.set_s));
        match best {
            Some(p) => {
                let until = p.set_s.min(end_s);
                if until <= t {
                    // Defensive: a slot that cannot advance the clock
                    // would loop forever; the filters above make this
                    // unreachable, but a guard beats a hang.
                    break;
                }
                slots.push(ServeSlot {
                    sat: p.sat,
                    from_s: t,
                    until_s: until,
                });
                t = until;
            }
            None => {
                // Coverage gap: jump to the next rise, if any.
                match passes
                    .iter()
                    .filter(|p| p.rise_s > t)
                    .map(|p| p.rise_s)
                    .min_by(f64::total_cmp)
                {
                    Some(next) if next < end_s => t = next,
                    _ => break,
                }
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn passes_for(lat: f64, lon: f64) -> Vec<Pass> {
        let c = presets::starlink_550_only();
        predict_passes(&c, Geodetic::ground(lat, lon), 0.0, 3600.0, 10.0)
    }

    #[test]
    fn passes_last_a_few_minutes() {
        // §2: "a ground station sees a particular LEO satellite only for
        // a few minutes". Interior passes (not clipped by the window)
        // must sit in the 10 s – 12 min band for the 550 km / 25° shell.
        let passes = passes_for(30.0, 10.0);
        assert!(passes.len() > 20, "only {} passes", passes.len());
        for p in passes.iter().filter(|p| p.rise_s > 0.0 && p.set_s < 3600.0) {
            let duration_s = p.set_s - p.rise_s;
            assert!(duration_s <= 720.0, "pass {} lasts {duration_s} s", p.sat);
        }
        let longest = passes
            .iter()
            .map(|p| p.set_s - p.rise_s)
            .fold(0.0, f64::max);
        assert!(longest > 200.0, "longest pass only {longest} s");
    }

    #[test]
    fn min_range_is_within_geometric_bounds() {
        let max_range = leo_geo::look::max_slant_range_m(550e3, leo_geo::Angle::from_degrees(25.0));
        for p in passes_for(0.0, 0.0) {
            assert!(p.min_range_m >= 550e3 - 1e3);
            assert!(p.min_range_m <= max_range + 1e3);
        }
    }

    #[test]
    fn passes_of_one_satellite_do_not_overlap() {
        let passes = passes_for(45.0, -30.0);
        let mut by_sat: std::collections::HashMap<SatId, Vec<&Pass>> = Default::default();
        for p in &passes {
            by_sat.entry(p.sat).or_default().push(p);
        }
        for (sat, mut ps) in by_sat {
            ps.sort_by(|a, b| a.rise_s.total_cmp(&b.rise_s));
            for w in ps.windows(2) {
                assert!(w[0].set_s < w[1].rise_s, "{sat}: overlapping passes");
            }
        }
    }

    #[test]
    fn schedule_is_contiguous_where_coverage_exists() {
        let passes = passes_for(20.0, 50.0);
        let slots = handover_schedule(&passes, 0.0, 3600.0);
        assert!(!slots.is_empty());
        for w in slots.windows(2) {
            assert!(w[0].until_s <= w[1].from_s + 1e-9);
        }
        // 550-shell coverage at 20° latitude is continuous: no gaps.
        let covered: f64 = slots.iter().map(|s| s.until_s - s.from_s).sum();
        assert!(covered > 3590.0, "covered {covered} s of 3600");
    }

    #[test]
    fn greedy_schedule_rides_each_satellite_to_its_set() {
        let passes = passes_for(20.0, 50.0);
        let slots = handover_schedule(&passes, 0.0, 3600.0);
        for s in &slots[..slots.len() - 1] {
            let pass = passes
                .iter()
                .find(|p| {
                    p.sat == s.sat && p.rise_s <= s.from_s + 1e-9 && p.set_s >= s.until_s - 1e-9
                })
                .expect("slot maps to a pass");
            assert!(
                (pass.set_s - s.until_s).abs() < 1e-9,
                "slot ends before its pass sets"
            );
        }
    }

    #[test]
    fn schedule_respects_the_window() {
        let passes = passes_for(0.0, 0.0);
        let slots = handover_schedule(&passes, 600.0, 1200.0);
        for s in &slots {
            assert!(s.from_s >= 600.0 - 1e-9);
            assert!(s.until_s <= 1200.0 + 1e-9);
        }
    }

    fn pass(sat: u32, rise_s: f64, set_s: f64) -> Pass {
        Pass {
            sat: SatId(sat),
            rise_s,
            set_s,
            min_range_m: 600e3,
        }
    }

    #[test]
    fn zero_length_passes_produce_no_slots() {
        // A single-sample pass (rise == set) covers no open interval.
        let passes = [pass(0, 100.0, 100.0)];
        assert!(handover_schedule(&passes, 0.0, 200.0).is_empty());
        // Even amid real coverage it must not surface.
        let mixed = [pass(0, 0.0, 50.0), pass(1, 50.0, 50.0), pass(2, 50.0, 90.0)];
        let slots = handover_schedule(&mixed, 0.0, 90.0);
        assert!(slots.iter().all(|s| s.until_s > s.from_s));
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[1].sat, SatId(2));
    }

    #[test]
    fn no_slot_starts_at_the_window_end() {
        // One pass ends exactly at end_s, the next rises there: the gap
        // jump must not emit a slot beginning at end_s.
        let passes = [pass(0, 0.0, 300.0), pass(1, 300.0, 600.0)];
        let slots = handover_schedule(&passes, 0.0, 300.0);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].until_s, 300.0);
        // And a pass rising exactly at end_s contributes nothing either,
        // even when it is the only pass.
        let only = [pass(7, 300.0, 600.0)];
        assert!(handover_schedule(&only, 0.0, 300.0).is_empty());
    }

    #[test]
    fn schedule_slots_always_have_positive_length() {
        let passes = passes_for(20.0, 50.0);
        for (a, b) in [(0.0, 3600.0), (595.0, 605.0), (0.0, 10.0)] {
            for s in handover_schedule(&passes, a, b) {
                assert!(s.until_s > s.from_s, "zero-length slot {s:?}");
                assert!(s.from_s < b, "slot starts at/after end_s: {s:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pass window bounds must be finite")]
    fn infinite_window_is_rejected() {
        let c = presets::starlink_550_only();
        predict_passes(&c, Geodetic::ground(0.0, 0.0), 0.0, f64::INFINITY, 10.0);
    }

    #[test]
    #[should_panic(expected = "before its start")]
    fn reversed_window_is_rejected() {
        let c = presets::starlink_550_only();
        predict_passes(&c, Geodetic::ground(0.0, 0.0), 60.0, 0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "pass sampling step must be finite and positive")]
    fn nan_step_is_rejected() {
        let c = presets::starlink_550_only();
        predict_passes(&c, Geodetic::ground(0.0, 0.0), 0.0, 60.0, f64::NAN);
    }

    #[test]
    fn passes_cover_exactly_the_brute_force_samples() {
        // Oracle: the brute-force scan at every sample instant. Each
        // visible sample falls inside a pass of its satellite, and the
        // passes span no other samples.
        let c = presets::starlink_550_only();
        let g = Geodetic::ground(20.0, 50.0);
        let ge = g.to_ecef_spherical();
        let passes = predict_passes(&c, g, 0.0, 600.0, 10.0);
        let mut samples = 0;
        for i in 0..=60 {
            let t = i as f64 * 10.0;
            for v in crate::visibility::visible_sats(&c, &c.snapshot(t), ge, &FaultPlan::empty()) {
                samples += 1;
                let pass = passes
                    .iter()
                    .find(|p| p.sat == v.id && p.rise_s <= t && t <= p.set_s)
                    .expect("every visible sample lies in a pass");
                assert!(pass.min_range_m <= v.range_m);
            }
        }
        let spanned: usize = passes
            .iter()
            .map(|p| ((p.set_s - p.rise_s) / 10.0).round() as usize + 1)
            .sum();
        assert_eq!(spanned, samples);
    }

    #[test]
    fn polar_station_on_inclined_shell_sees_gaps() {
        // 53°-inclined shell leaves the high Arctic uncovered.
        let c = presets::starlink_550_only();
        let passes = predict_passes(&c, Geodetic::ground(85.0, 0.0), 0.0, 1800.0, 10.0);
        assert!(passes.is_empty());
        assert!(handover_schedule(&passes, 0.0, 1800.0).is_empty());
    }
}
