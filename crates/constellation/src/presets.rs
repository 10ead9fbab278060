//! Filed constellation configurations.
//!
//! Shell parameters are taken from the operators' FCC filings — the same
//! sources the paper cites:
//!
//! * **Starlink Phase I** (SpaceX 2019 modification, 4,409 satellites):
//!   1,584 @ 550 km / 53.0°, 1,600 @ 1,110 km / 53.8°, 400 @ 1,130 km /
//!   74.0°, 375 @ 1,275 km / 81.0°, 450 @ 1,325 km / 70.0°.
//! * **Kuiper** (Kuiper Systems 2019 technical appendix, 3,236
//!   satellites): 1,156 @ 630 km / 51.9°, 1,296 @ 610 km / 42.0°,
//!   784 @ 590 km / 33.0°.
//! * **Telesat** (2020 modification): 351 satellites in a polar + inclined
//!   hybrid (78 @ 1,015 km / 98.98°, 273 @ 1,325 km / 50.88°) — included
//!   because §1 of the paper names Telesat among the >1,000-satellite
//!   proposals (its later expansion); useful as a smaller comparison
//!   point.
//!
//! Minimum elevation angles follow the filings (25° Starlink, 35° Kuiper,
//! 10° Telesat — Telesat files very low elevation masks for its polar
//! shell). The Walker phase factors are not public; we use the offsets
//! adopted by the Hypatia simulator, which the paper's group published.
//! Fig. 1/2 shapes are insensitive to phasing (verified by the
//! `ablation_sticky` bench's phasing sweep).

use crate::constellation::Constellation;
use crate::shell::{ShellSpec, WalkerPattern};
use leo_geo::Angle;

/// Starlink's minimum elevation angle (degrees) from the FCC filing.
pub const STARLINK_MIN_ELEVATION_DEG: f64 = 25.0;

/// Kuiper's minimum elevation angle (degrees) from the FCC filing.
pub const KUIPER_MIN_ELEVATION_DEG: f64 = 35.0;

fn shell(
    name: &str,
    altitude_km: f64,
    incl_deg: f64,
    planes: u32,
    spp: u32,
    phase: u32,
    min_el_deg: f64,
) -> ShellSpec {
    ShellSpec {
        name: name.to_string(),
        altitude_m: altitude_km * 1e3,
        inclination: Angle::from_degrees(incl_deg),
        num_planes: planes,
        sats_per_plane: spp,
        phase_factor: phase,
        pattern: WalkerPattern::Delta,
        min_elevation: Angle::from_degrees(min_el_deg),
    }
}

/// The five shells of Starlink Phase I (4,409 satellites).
pub fn starlink_phase1_shells() -> Vec<ShellSpec> {
    let e = STARLINK_MIN_ELEVATION_DEG;
    vec![
        shell("starlink-550", 550.0, 53.0, 72, 22, 11, e),
        shell("starlink-1110", 1110.0, 53.8, 32, 50, 17, e),
        shell("starlink-1130", 1130.0, 74.0, 8, 50, 17, e),
        shell("starlink-1275", 1275.0, 81.0, 5, 75, 25, e),
        shell("starlink-1325", 1325.0, 70.0, 6, 75, 25, e),
    ]
}

/// Starlink Phase I: 4,409 satellites in 5 shells.
pub fn starlink_phase1() -> Constellation {
    Constellation::from_shells("Starlink Phase I", starlink_phase1_shells())
}

/// Starlink Phase I under the conservative 40° elevation mask used by
/// the authors' earlier topology work (CoNEXT '19) — the mask that
/// reproduces the paper's §3.2/§5 numbers (16 ms West-Africa meetup RTT,
/// 164 s Sticky hand-off intervals). The FCC-filed 25° mask in
/// [`starlink_phase1`] reproduces Figs 1/2/4/5.
pub fn starlink_phase1_conservative() -> Constellation {
    let shells = starlink_phase1_shells()
        .into_iter()
        .map(|mut s| {
            s.min_elevation = Angle::from_degrees(40.0);
            s
        })
        .collect();
    Constellation::from_shells("Starlink Phase I (40° mask)", shells)
}

/// Only the first (550 km) Starlink shell — the 1,584 satellites actually
/// being launched first; convenient for faster simulations.
pub fn starlink_550_only() -> Constellation {
    Constellation::from_shells(
        "Starlink 550km shell",
        vec![starlink_phase1_shells().remove(0)],
    )
}

/// The three shells of Kuiper (3,236 satellites).
fn kuiper_shells() -> Vec<ShellSpec> {
    let e = KUIPER_MIN_ELEVATION_DEG;
    vec![
        shell("kuiper-630", 630.0, 51.9, 34, 34, 17, e),
        shell("kuiper-610", 610.0, 42.0, 36, 36, 18, e),
        shell("kuiper-590", 590.0, 33.0, 28, 28, 14, e),
    ]
}

/// Kuiper: 3,236 satellites in 3 shells.
pub fn kuiper() -> Constellation {
    Constellation::from_shells("Kuiper", kuiper_shells())
}

/// Telesat's 351-satellite hybrid constellation.
pub fn telesat() -> Constellation {
    Constellation::from_shells(
        "Telesat",
        vec![
            ShellSpec {
                pattern: WalkerPattern::Star,
                ..shell("telesat-polar", 1015.0, 98.98, 6, 13, 1, 10.0)
            },
            shell("telesat-inclined", 1325.0, 50.88, 21, 13, 7, 10.0),
        ],
    )
}

/// Looks a preset up by name (`"starlink"`, `"starlink-550"`, `"kuiper"`,
/// `"telesat"`), case-insensitive. Used by the experiment binaries.
pub fn by_name(name: &str) -> Option<Constellation> {
    match name.to_ascii_lowercase().as_str() {
        "starlink" | "starlink-phase1" | "starlink-p1" => Some(starlink_phase1()),
        "starlink-550" => Some(starlink_550_only()),
        "kuiper" => Some(kuiper()),
        "telesat" => Some(telesat()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starlink_phase1_has_4409_satellites() {
        // §3.1 of the paper: "the Phase I configuration, comprising 4,409
        // satellites".
        assert_eq!(starlink_phase1().num_satellites(), 4409);
    }

    #[test]
    fn kuiper_has_3236_satellites() {
        assert_eq!(kuiper().num_satellites(), 3236);
    }

    #[test]
    fn telesat_has_351_satellites() {
        assert_eq!(telesat().num_satellites(), 351);
    }

    #[test]
    fn first_starlink_shell_matches_the_launched_configuration() {
        let shells = starlink_phase1_shells();
        assert_eq!(shells[0].num_planes, 72);
        assert_eq!(shells[0].sats_per_plane, 22);
        assert!((shells[0].altitude_m - 550e3).abs() < 1.0);
        assert!((shells[0].inclination.degrees() - 53.0).abs() < 1e-9);
    }

    #[test]
    fn every_preset_shell_validates() {
        for s in starlink_phase1_shells().into_iter().chain(kuiper_shells()) {
            assert!(s.validate().is_ok(), "{}", s.name);
        }
    }

    #[test]
    fn kuiper_inclinations_cap_coverage_below_60_degrees() {
        // §3.1: "Kuiper's design does not provide service beyond 60°
        // latitude" — no Kuiper shell is inclined above 52°.
        for s in kuiper_shells() {
            assert!(s.inclination.degrees() < 52.0);
        }
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(by_name("Starlink").is_some());
        assert!(by_name("KUIPER").is_some());
        assert!(by_name("starlink-550").is_some());
        assert!(by_name("oneweb").is_none());
    }
}
