//! A whole constellation: identity, propagators, and position snapshots.

use crate::shell::ShellSpec;
use leo_geo::coords::Ecef;
use leo_geo::{Angle, Epoch};
use leo_orbit::{Propagator, Tle};
use serde::{Deserialize, Serialize};

/// Stable identifier of a satellite within one [`Constellation`]: its index
/// in the flat satellite array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SatId(pub u32);

impl std::fmt::Display for SatId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sat{}", self.0)
    }
}

/// One satellite: its identity within the Walker structure plus its
/// propagator.
#[derive(Debug, Clone)]
pub struct Satellite {
    /// Flat identifier.
    pub id: SatId,
    /// Index of the shell this satellite belongs to.
    pub shell: u32,
    /// Orbital plane within the shell.
    pub plane: u32,
    /// Slot within the plane.
    pub slot: u32,
    /// The satellite's propagator.
    pub propagator: Propagator,
}

/// All satellite positions at one instant, in ECEF, indexed by [`SatId`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulation time of the snapshot, seconds after the epoch.
    pub time_s: f64,
    /// ECEF position of each satellite, indexed by `SatId.0`.
    pub positions: Vec<Ecef>,
}

impl Snapshot {
    /// Position of one satellite.
    pub fn position(&self, id: SatId) -> Ecef {
        self.positions[id.0 as usize]
    }

    /// Number of satellites in the snapshot.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the snapshot holds no satellites.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterates over `(SatId, Ecef)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SatId, Ecef)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (SatId(i as u32), p))
    }
}

/// A generated constellation with per-shell structure preserved.
#[derive(Debug, Clone)]
pub struct Constellation {
    name: String,
    epoch: Epoch,
    shells: Vec<ShellSpec>,
    satellites: Vec<Satellite>,
    /// First flat index of each shell (length = shells + 1; last entry is
    /// the total satellite count), for O(1) shell lookup.
    shell_offsets: Vec<u32>,
}

impl Constellation {
    /// Generates a constellation from shell specifications at the default
    /// epoch ([`Epoch::J2000`]) with the J2 force model.
    ///
    /// # Panics
    /// Panics when a shell fails validation — presets are validated by
    /// construction; custom shells should be checked with
    /// [`ShellSpec::validate`] first.
    pub fn from_shells(name: &str, shells: Vec<ShellSpec>) -> Self {
        let epoch = Epoch::J2000;
        let mut satellites = Vec::new();
        let mut shell_offsets = Vec::with_capacity(shells.len() + 1);
        for (shell_idx, spec) in shells.iter().enumerate() {
            spec.validate()
                .unwrap_or_else(|e| panic!("shell {}: {e}", spec.name));
            shell_offsets.push(satellites.len() as u32);
            for (plane, slot) in spec.positions() {
                let id = SatId(satellites.len() as u32);
                satellites.push(Satellite {
                    id,
                    shell: shell_idx as u32,
                    plane,
                    slot,
                    propagator: Propagator::new(spec.elements(plane, slot), epoch),
                });
            }
        }
        shell_offsets.push(satellites.len() as u32);
        Constellation {
            name: name.to_string(),
            epoch,
            shells,
            satellites,
            shell_offsets,
        }
    }

    /// Constellation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shell specifications.
    pub fn shells(&self) -> &[ShellSpec] {
        &self.shells
    }

    /// Total number of satellites.
    pub fn num_satellites(&self) -> usize {
        self.satellites.len()
    }

    /// All satellites, ordered by [`SatId`].
    pub fn satellites(&self) -> &[Satellite] {
        &self.satellites
    }

    /// One satellite by id.
    pub fn satellite(&self, id: SatId) -> &Satellite {
        &self.satellites[id.0 as usize]
    }

    /// The shell spec a satellite belongs to.
    pub fn shell_of(&self, id: SatId) -> &ShellSpec {
        &self.shells[self.satellite(id).shell as usize]
    }

    /// The minimum elevation angle that applies to a satellite.
    pub fn min_elevation_of(&self, id: SatId) -> Angle {
        self.shell_of(id).min_elevation
    }

    /// The flat id of the satellite at `(shell, plane, slot)`.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn id_at(&self, shell: u32, plane: u32, slot: u32) -> SatId {
        let spec = &self.shells[shell as usize];
        assert!(plane < spec.num_planes && slot < spec.sats_per_plane);
        SatId(self.shell_offsets[shell as usize] + plane * spec.sats_per_plane + slot)
    }

    /// ECEF positions of every satellite at `t` seconds after the epoch,
    /// through the position-only kernel
    /// ([`leo_orbit::propagate::positions_ecef`]): satellites are stored
    /// shell- and plane-major, so each shell's inclination and each
    /// plane's RAAN rotation is taken once.
    pub fn snapshot(&self, t: f64) -> Snapshot {
        Snapshot {
            time_s: t,
            positions: leo_orbit::propagate::positions_ecef(
                self.satellites.iter().map(|s| &s.propagator),
                t,
                leo_geo::gmst(self.epoch, t),
            ),
        }
    }

    /// Exports every satellite as a synthesized TLE (catalog numbers are
    /// `70000 + SatId`).
    pub fn to_tles(&self) -> Vec<Tle> {
        self.satellites
            .iter()
            .map(|s| {
                let shell_name = &self.shells[s.shell as usize].name;
                Tle::synthesize(
                    &format!("{} P{}S{}", shell_name.to_uppercase(), s.plane, s.slot),
                    70_000 + s.id.0,
                    self.epoch,
                    s.propagator.elements(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::WalkerPattern;

    fn small() -> Constellation {
        Constellation::from_shells(
            "small",
            vec![
                ShellSpec {
                    name: "a".into(),
                    altitude_m: 550e3,
                    inclination: Angle::from_degrees(53.0),
                    num_planes: 3,
                    sats_per_plane: 4,
                    phase_factor: 1,
                    pattern: WalkerPattern::Delta,
                    min_elevation: Angle::from_degrees(25.0),
                },
                ShellSpec {
                    name: "b".into(),
                    altitude_m: 1110e3,
                    inclination: Angle::from_degrees(53.8),
                    num_planes: 2,
                    sats_per_plane: 5,
                    phase_factor: 0,
                    pattern: WalkerPattern::Delta,
                    min_elevation: Angle::from_degrees(25.0),
                },
            ],
        )
    }

    #[test]
    fn satellite_count_and_ids_are_dense() {
        let c = small();
        assert_eq!(c.num_satellites(), 3 * 4 + 2 * 5);
        for (i, s) in c.satellites().iter().enumerate() {
            assert_eq!(s.id, SatId(i as u32));
        }
    }

    #[test]
    fn id_at_round_trips_with_satellite_structure() {
        let c = small();
        for s in c.satellites() {
            assert_eq!(c.id_at(s.shell, s.plane, s.slot), s.id);
        }
    }

    #[test]
    fn shell_of_matches_altitude() {
        let c = small();
        let first = c.satellites()[0].id;
        let last = c.satellites().last().unwrap().id;
        assert_eq!(c.shell_of(first).name, "a");
        assert_eq!(c.shell_of(last).name, "b");
    }

    #[test]
    fn snapshot_positions_have_correct_radii() {
        let c = small();
        let snap = c.snapshot(600.0);
        assert_eq!(snap.len(), c.num_satellites());
        for (id, pos) in snap.iter() {
            let expect = leo_geo::consts::EARTH_RADIUS_MEAN_M + c.shell_of(id).altitude_m;
            assert!((pos.0.norm() - expect).abs() < 1.0, "{id}");
        }
    }

    #[test]
    fn snapshot_agrees_with_per_satellite_query() {
        // Bit for bit, on every preset, at instants before the epoch,
        // past a day, and non-finite. A non-finite instant gives NaN
        // positions, compared as NaN: Rust leaves a NaN's sign and
        // payload unspecified.
        let times = [
            0.0,
            -5_400.25,
            1_234.5,
            1.5 * 86_400.0 + 17.0,
            7.0 * 86_400.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let bits = |p: Ecef| {
            [p.0.x, p.0.y, p.0.z].map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
        };
        for c in [
            crate::presets::starlink_550_only(),
            crate::presets::starlink_phase1(),
            crate::presets::starlink_phase1_conservative(),
            crate::presets::kuiper(),
            crate::presets::telesat(),
        ] {
            for t in times {
                let snap = c.snapshot(t);
                let gmst = leo_geo::gmst(c.epoch, t);
                for s in c.satellites() {
                    let want = s.propagator.position_eci(t).to_ecef(gmst);
                    assert_eq!(
                        bits(snap.position(s.id)),
                        bits(want),
                        "{} {} at t={t}",
                        c.name(),
                        s.id
                    );
                }
            }
        }
    }

    #[test]
    fn satellites_in_a_plane_share_their_orbital_plane() {
        let c = small();
        // Same shell, same plane → same RAAN and inclination.
        let a = c.satellite(c.id_at(0, 1, 0)).propagator.elements().raan;
        let b = c.satellite(c.id_at(0, 1, 3)).propagator.elements().raan;
        assert_eq!(a, b);
    }

    #[test]
    fn tle_export_round_trips() {
        let c = small();
        let tles = c.to_tles();
        assert_eq!(tles.len(), c.num_satellites());
        for (tle, sat) in tles.iter().zip(c.satellites()) {
            let text = tle.format();
            let back = Tle::parse(&text).expect("round-trip");
            let orig = sat.propagator.elements();
            assert!(
                (back.elements.semi_major_axis_m - orig.semi_major_axis_m).abs() < 200.0,
                "sma mismatch for {}",
                sat.id
            );
            assert!(
                (back.elements.inclination.degrees() - orig.inclination.degrees()).abs() < 1e-3
            );
        }
    }

    #[test]
    fn distinct_satellites_do_not_collide_at_epoch() {
        let c = small();
        let snap = c.snapshot(0.0);
        for (i, (_, a)) in snap.iter().enumerate() {
            for (_, b) in snap.iter().skip(i + 1) {
                assert!(a.0.distance(b.0) > 1e3, "satellites coincide");
            }
        }
    }
}
