//! NORAD two-line element (TLE) parsing, validation, and synthesis.
//!
//! The operational ecosystem around LEO constellations (Celestrak,
//! Space-Track, Hypatia, StarPerf) exchanges orbits as TLEs. This module
//! lets the simulator import real catalogs and export its synthetic Walker
//! shells in the same format. Parsing is strict about the fixed-column
//! layout and verifies the per-line modulo-10 checksums; synthesis always
//! emits checksummed, column-exact lines.
//!
//! Only the mean elements are used downstream (the drag and B* terms are
//! parsed but ignored — the force model is two-body + J2, see
//! [`crate::propagate`]).

use crate::elements::KeplerianElements;
use leo_geo::consts::EARTH_MU_M3_S2;
use leo_geo::{Angle, Epoch};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// A parsed two-line element set.
///
/// ```
/// use leo_orbit::Tle;
///
/// let text = "ISS (ZARYA)\n\
///     1 25544U 98067A   20316.41516162  .00001589  00000-0  36371-4 0  9995\n\
///     2 25544  51.6454 111.3004 0001372  94.0447  67.1080 15.49326316254113";
/// let tle = Tle::parse(text).unwrap();
/// assert_eq!(tle.catalog_number, 25544);
/// assert!((tle.elements.inclination.degrees() - 51.6454).abs() < 1e-9);
/// // Round-trips through the formatter with valid checksums:
/// assert!(Tle::parse(&tle.format()).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tle {
    /// Satellite name (line 0), empty when absent.
    pub name: String,
    /// NORAD catalog number.
    pub catalog_number: u32,
    /// International designator (e.g. `98067A`), trimmed.
    pub intl_designator: String,
    /// Epoch of the elements.
    pub epoch: Epoch,
    /// Orbital elements at the epoch.
    pub elements: KeplerianElements,
    /// First derivative of mean motion (rev/day²) — parsed, unused.
    pub mean_motion_dot: f64,
    /// B* drag term (1/Earth radii) — parsed, unused.
    pub bstar: f64,
    /// Revolution number at epoch.
    pub rev_number: u32,
}

/// Errors from TLE parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TleError {
    /// Input did not contain the expected number of lines.
    MissingLines,
    /// A line was shorter than the mandatory 69 columns.
    LineTooShort {
        /// Which TLE line (1 or 2).
        line: u8,
        /// Actual length found.
        len: usize,
    },
    /// A line did not start with its line number.
    BadLineNumber {
        /// Which TLE line (1 or 2).
        line: u8,
    },
    /// The modulo-10 checksum did not match.
    Checksum {
        /// Which TLE line (1 or 2).
        line: u8,
        /// Checksum we computed from the first 68 columns.
        computed: u8,
        /// Checksum digit present in column 69.
        found: u8,
    },
    /// A numeric field failed to parse.
    Field {
        /// Which TLE line (1 or 2).
        line: u8,
        /// Field name.
        field: &'static str,
    },
    /// Catalog numbers on lines 1 and 2 disagree.
    CatalogMismatch,
}

impl std::fmt::Display for TleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TleError::MissingLines => write!(f, "expected two element lines"),
            TleError::LineTooShort { line, len } => {
                write!(f, "line {line} is {len} columns, need 69")
            }
            TleError::BadLineNumber { line } => write!(f, "line {line} has wrong line number"),
            TleError::Checksum {
                line,
                computed,
                found,
            } => write!(f, "line {line} checksum {found} != computed {computed}"),
            TleError::Field { line, field } => write!(f, "line {line}: bad field {field}"),
            TleError::CatalogMismatch => write!(f, "catalog numbers differ between lines"),
        }
    }
}

impl std::error::Error for TleError {}

/// Modulo-10 checksum of the first 68 columns: digits count as themselves,
/// `-` counts as 1, everything else as 0.
fn line_checksum(line: &str) -> u8 {
    let mut sum: u32 = 0;
    for c in line.chars().take(68) {
        match c {
            '0'..='9' => sum += c as u32 - '0' as u32,
            '-' => sum += 1,
            _ => {}
        }
    }
    (sum % 10) as u8
}

fn field<T: std::str::FromStr>(
    line: &str,
    range: std::ops::Range<usize>,
    l: u8,
    name: &'static str,
) -> Result<T, TleError> {
    line.get(range)
        .map(str::trim)
        .and_then(|s| s.parse().ok())
        .ok_or(TleError::Field {
            line: l,
            field: name,
        })
}

/// Parses the TLE's `YYDDD.DDDDDDDD` epoch into an [`Epoch`].
fn parse_epoch(yy: u32, doy: f64) -> Epoch {
    // TLE convention: years 57–99 → 1957–1999, 00–56 → 2000–2056.
    let year = if yy >= 57 { 1900 + yy } else { 2000 + yy } as i32;
    let jan1 = Epoch::from_calendar(year, 1, 1, 0, 0, 0.0);
    Epoch::from_julian_date(jan1.julian_date() + doy - 1.0)
}

/// Formats an [`Epoch`] as the TLE `YYDDD.DDDDDDDD` pair (year, day).
fn epoch_to_tle(epoch: Epoch) -> (u32, f64) {
    // Walk back to January 1 of the epoch's year.
    let jd = epoch.julian_date();
    // Rough year from JD, then adjust.
    let mut year = 2000 + ((jd - 2_451_544.5) / 365.25).floor() as i32;
    loop {
        let jan1 = Epoch::from_calendar(year, 1, 1, 0, 0, 0.0).julian_date();
        let next = Epoch::from_calendar(year + 1, 1, 1, 0, 0, 0.0).julian_date();
        if jd < jan1 {
            year -= 1;
        } else if jd >= next {
            year += 1;
        } else {
            return ((year % 100) as u32, jd - jan1 + 1.0);
        }
    }
}

impl Tle {
    /// Parses a TLE from two or three lines (optional name line first).
    pub fn parse(text: &str) -> Result<Tle, TleError> {
        let lines: Vec<&str> = text
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.trim().is_empty())
            .collect();
        let (name, l1, l2) = match lines.len() {
            2 => (String::new(), lines[0], lines[1]),
            3 => (lines[0].trim().to_string(), lines[1], lines[2]),
            _ => return Err(TleError::MissingLines),
        };
        for (idx, l) in [(1u8, l1), (2u8, l2)] {
            if l.len() < 69 {
                return Err(TleError::LineTooShort {
                    line: idx,
                    len: l.len(),
                });
            }
            if !l.starts_with(&idx.to_string()) {
                return Err(TleError::BadLineNumber { line: idx });
            }
            let computed = line_checksum(l);
            let found = l.as_bytes()[68].wrapping_sub(b'0');
            if computed != found {
                return Err(TleError::Checksum {
                    line: idx,
                    computed,
                    found,
                });
            }
        }

        let catalog_number: u32 = field(l1, 2..7, 1, "catalog number")?;
        let cat2: u32 = field(l2, 2..7, 2, "catalog number")?;
        if catalog_number != cat2 {
            return Err(TleError::CatalogMismatch);
        }
        let intl_designator = l1.get(9..17).unwrap_or("").trim().to_string();
        let epoch_yy: u32 = field(l1, 18..20, 1, "epoch year")?;
        let epoch_doy: f64 = field(l1, 20..32, 1, "epoch day")?;
        let mean_motion_dot: f64 = {
            let s = l1.get(33..43).unwrap_or("").trim();
            // Format like " .00001589" or "-.00001589".
            let normalized = s.replace(" .", "0.").replace("-.", "-0.");
            normalized.parse().map_err(|_| TleError::Field {
                line: 1,
                field: "mean motion dot",
            })?
        };
        let bstar = parse_exponential(l1.get(53..61).unwrap_or("")).ok_or(TleError::Field {
            line: 1,
            field: "bstar",
        })?;

        let inclination: f64 = field(l2, 8..16, 2, "inclination")?;
        let raan: f64 = field(l2, 17..25, 2, "raan")?;
        let ecc_str = l2.get(26..33).unwrap_or("").trim();
        let eccentricity: f64 = format!("0.{ecc_str}")
            .parse()
            .map_err(|_| TleError::Field {
                line: 2,
                field: "eccentricity",
            })?;
        let arg_perigee: f64 = field(l2, 34..42, 2, "argument of perigee")?;
        let mean_anomaly: f64 = field(l2, 43..51, 2, "mean anomaly")?;
        let mean_motion_rev_day: f64 = field(l2, 52..63, 2, "mean motion")?;
        let rev_number: u32 = field(l2, 63..68, 2, "rev number")?;

        // Mean motion (rev/day) → semi-major axis via Kepler's third law.
        let n_rad_s = mean_motion_rev_day * TAU / 86_400.0;
        let semi_major_axis_m = (EARTH_MU_M3_S2 / (n_rad_s * n_rad_s)).powf(1.0 / 3.0);

        Ok(Tle {
            name,
            catalog_number,
            intl_designator,
            epoch: parse_epoch(epoch_yy, epoch_doy),
            elements: KeplerianElements {
                semi_major_axis_m,
                eccentricity,
                inclination: Angle::from_degrees(inclination),
                raan: Angle::from_degrees(raan),
                arg_perigee: Angle::from_degrees(arg_perigee),
                mean_anomaly: Angle::from_degrees(mean_anomaly),
            },
            mean_motion_dot,
            bstar,
            rev_number,
        })
    }

    /// Synthesizes a TLE for the given elements — the inverse of
    /// [`Tle::parse`] for the fields the simulator cares about.
    pub fn synthesize(
        name: &str,
        catalog_number: u32,
        epoch: Epoch,
        elements: &KeplerianElements,
    ) -> Tle {
        Tle {
            name: name.to_string(),
            catalog_number,
            intl_designator: format!("{:05}A", catalog_number % 100_000),
            epoch,
            elements: *elements,
            mean_motion_dot: 0.0,
            bstar: 0.0,
            rev_number: 0,
        }
    }

    /// Formats as the canonical three-line text (name + 2 element lines),
    /// with valid checksums.
    pub fn format(&self) -> String {
        let (yy, doy) = epoch_to_tle(self.epoch);
        let e = &self.elements;
        let mut l1 = format!(
            "1 {:05}U {:<8} {:02}{:012.8} {} {} {} 0 {:4}",
            self.catalog_number % 100_000,
            self.intl_designator,
            yy,
            doy,
            format_mm_dot(self.mean_motion_dot),
            format_exponential(0.0),
            format_exponential(self.bstar),
            999,
        );
        l1.truncate(68);
        while l1.len() < 68 {
            l1.push(' ');
        }
        l1.push((b'0' + line_checksum(&l1)) as char);

        let mut l2 = format!(
            "2 {:05} {:8.4} {:8.4} {:07} {:8.4} {:8.4} {:11.8}{:5}",
            self.catalog_number % 100_000,
            e.inclination.normalized().degrees(),
            e.raan.normalized().degrees(),
            (e.eccentricity * 1e7).round() as u32,
            e.arg_perigee.normalized().degrees(),
            e.mean_anomaly.normalized().degrees(),
            e.mean_motion_rev_day(),
            self.rev_number % 100_000,
        );
        l2.truncate(68);
        while l2.len() < 68 {
            l2.push(' ');
        }
        l2.push((b'0' + line_checksum(&l2)) as char);

        if self.name.is_empty() {
            format!("{l1}\n{l2}")
        } else {
            format!("{}\n{l1}\n{l2}", self.name)
        }
    }
}

/// Parses the TLE's compact exponential notation (`36371-4` → 0.36371e-4).
fn parse_exponential(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.is_empty() || s == "00000-0" || s == "00000+0" {
        return Some(0.0);
    }
    let (sign, rest) = match s.strip_prefix('-') {
        Some(r) => (-1.0, r),
        None => (1.0, s.strip_prefix('+').unwrap_or(s)),
    };
    // Split mantissa and exponent at the last '+' or '-'.
    let split = rest.rfind(['+', '-'])?;
    let (mant, exp) = rest.split_at(split);
    let mantissa: f64 = format!("0.{}", mant.trim()).parse().ok()?;
    let exponent: i32 = exp.parse().ok()?;
    Some(sign * mantissa * 10f64.powi(exponent))
}

/// Formats a value in the TLE compact exponential notation (8 columns).
fn format_exponential(v: f64) -> String {
    if v == 0.0 {
        return " 00000-0".to_string();
    }
    let sign = if v < 0.0 { '-' } else { ' ' };
    let mut exp = v.abs().log10().floor() as i32 + 1;
    let mut mant = v.abs() / 10f64.powi(exp);
    let mut digits = (mant * 1e5).round() as u32;
    if digits >= 100_000 {
        digits /= 10;
        exp += 1;
        mant = v.abs() / 10f64.powi(exp);
        let _ = mant;
    }
    format!("{sign}{digits:05}{exp:+1}")
}

/// Formats the first mean-motion derivative (` .00000000` style, 10 cols).
fn format_mm_dot(v: f64) -> String {
    let sign = if v < 0.0 { '-' } else { ' ' };
    format!("{sign}.{:08}", (v.abs() * 1e8).round() as u64 % 100_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Real ISS element set (the canonical example set used by SGP4
    // implementations).
    const ISS: &str = "ISS (ZARYA)\n\
        1 25544U 98067A   20316.41516162  .00001589  00000-0  36371-4 0  9995\n\
        2 25544  51.6454 111.3004 0001372  94.0447  67.1080 15.49326316254113";

    #[test]
    fn parses_the_iss_element_set() {
        let tle = Tle::parse(ISS).expect("parse");
        assert_eq!(tle.name, "ISS (ZARYA)");
        assert_eq!(tle.catalog_number, 25544);
        assert_eq!(tle.intl_designator, "98067A");
        assert!((tle.elements.inclination.degrees() - 51.6454).abs() < 1e-9);
        assert!((tle.elements.raan.degrees() - 111.3004).abs() < 1e-9);
        assert!((tle.elements.eccentricity - 0.0001372).abs() < 1e-12);
        assert!((tle.elements.mean_motion_rev_day() - 15.493_263_16).abs() < 1e-6);
        // ISS perigee altitude ≈ 420 km.
        let el = &tle.elements;
        let alt = (el.semi_major_axis_m * (1.0 - el.eccentricity)
            - leo_geo::consts::EARTH_RADIUS_MEAN_M)
            / 1e3;
        assert!((alt - 420.0).abs() < 20.0, "ISS altitude {alt} km");
        assert!((tle.bstar - 0.36371e-4).abs() < 1e-12);
        assert_eq!(tle.rev_number, 25411);
    }

    #[test]
    fn iss_epoch_lands_in_november_2020() {
        let tle = Tle::parse(ISS).unwrap();
        // Day 316 of 2020 (leap year) is November 11.
        let nov11 = Epoch::from_calendar(2020, 11, 11, 0, 0, 0.0);
        let diff = tle.epoch.julian_date() - nov11.julian_date();
        assert!((0.0..1.0).contains(&diff), "diff {diff} days");
    }

    #[test]
    fn rejects_corrupted_checksum() {
        let bad = ISS.replace("  9995", "  9996");
        assert!(matches!(
            Tle::parse(&bad),
            Err(TleError::Checksum { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_short_lines() {
        assert!(matches!(
            Tle::parse("1 25544\n2 25544"),
            Err(TleError::LineTooShort { .. })
        ));
    }

    #[test]
    fn rejects_swapped_lines() {
        let lines: Vec<&str> = ISS.lines().collect();
        let swapped = format!("{}\n{}", lines[2], lines[1]);
        assert!(matches!(
            Tle::parse(&swapped),
            Err(TleError::BadLineNumber { line: 1 })
        ));
    }

    #[test]
    fn rejects_catalog_mismatch() {
        // Change catalog number on line 2 and fix up its checksum.
        let lines: Vec<&str> = ISS.lines().collect();
        let mut l2 = lines[2].to_string();
        l2.replace_range(2..7, "25545");
        l2.truncate(68);
        let ck = line_checksum(&l2);
        l2.push((b'0' + ck) as char);
        let text = format!("{}\n{}", lines[1], l2);
        assert_eq!(Tle::parse(&text), Err(TleError::CatalogMismatch));
    }

    #[test]
    fn checksum_counts_minus_as_one() {
        // 68 spaces then nothing: checksum 0. One '-' → 1.
        let blank = " ".repeat(68);
        assert_eq!(line_checksum(&blank), 0);
        let dash = format!("-{}", " ".repeat(67));
        assert_eq!(line_checksum(&dash), 1);
    }

    #[test]
    fn exponential_field_round_trips() {
        for v in [0.0, 0.36371e-4, -0.12345e-2, 0.9e-6] {
            let s = format_exponential(v);
            assert_eq!(s.len(), 8, "{s:?}");
            let back = parse_exponential(&s).unwrap();
            assert!((back - v).abs() < v.abs() * 1e-4 + 1e-12, "{v} vs {back}");
        }
    }

    #[test]
    fn synthesized_tle_round_trips_through_parser() {
        let elements = KeplerianElements::circular(
            550e3,
            Angle::from_degrees(53.0),
            Angle::from_degrees(123.4),
            Angle::from_degrees(271.8),
        );
        let epoch = Epoch::from_calendar(2020, 11, 4, 6, 30, 0.0);
        let tle = Tle::synthesize("STARLINK-SIM 1", 70001, epoch, &elements);
        let text = tle.format();
        let back = Tle::parse(&text).expect("round-trip parse");
        assert_eq!(back.name, "STARLINK-SIM 1");
        assert_eq!(back.catalog_number, 70001);
        let b = &back.elements;
        assert!((b.inclination.degrees() - 53.0).abs() < 1e-3);
        assert!((b.raan.degrees() - 123.4).abs() < 1e-3);
        assert!((b.mean_anomaly.degrees() - 271.8).abs() < 1e-3);
        assert!(b.eccentricity < 1e-6);
        assert!((b.semi_major_axis_m - elements.semi_major_axis_m).abs() < 100.0);
        assert!((back.epoch.julian_date() - epoch.julian_date()).abs() < 1e-7);
    }

    #[test]
    fn formatted_lines_are_exactly_69_columns() {
        let elements = KeplerianElements::circular(
            1110e3,
            Angle::from_degrees(53.8),
            Angle::ZERO,
            Angle::ZERO,
        );
        let tle = Tle::synthesize("X", 1, Epoch::J2000, &elements);
        for line in tle.format().lines().skip(1) {
            assert_eq!(line.len(), 69, "{line:?}");
        }
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser must reject or accept arbitrary input without
            /// panicking.
            #[test]
            fn parser_never_panics_on_arbitrary_text(s in "\\PC{0,200}") {
                let _ = Tle::parse(&s);
            }

            /// Arbitrary bytes shaped like two 69-column lines must not
            /// panic either (exercises all the fixed-column slicing).
            #[test]
            fn parser_never_panics_on_line_shaped_noise(
                a in proptest::collection::vec(32u8..127, 69),
                b in proptest::collection::vec(32u8..127, 69),
            ) {
                let mut l1 = String::from_utf8(a).unwrap();
                let mut l2 = String::from_utf8(b).unwrap();
                l1.replace_range(0..1, "1");
                l2.replace_range(0..1, "2");
                let _ = Tle::parse(&format!("{l1}\n{l2}"));
            }

            /// Synthesized TLEs for any circular LEO shell always format
            /// to valid, re-parseable element sets.
            #[test]
            fn synthesis_round_trips_for_any_shell(
                alt_km in 300.0..2000.0f64,
                incl in 0.0..120.0f64,
                raan in 0.0..360.0f64,
                ma in 0.0..360.0f64,
                cat in 1u32..99_999,
            ) {
                let e = KeplerianElements::circular(
                    alt_km * 1e3,
                    Angle::from_degrees(incl),
                    Angle::from_degrees(raan),
                    Angle::from_degrees(ma),
                );
                let tle = Tle::synthesize("FUZZ", cat, Epoch::J2000, &e);
                let back = Tle::parse(&tle.format()).expect("round-trip");
                prop_assert_eq!(back.catalog_number, cat);
                prop_assert!((back.elements.semi_major_axis_m - e.semi_major_axis_m).abs() < 500.0);
                prop_assert!((back.elements.inclination.degrees() - incl).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn parsed_iss_propagates_to_sane_altitude() {
        let tle = Tle::parse(ISS).unwrap();
        let prop = crate::Propagator::new(tle.elements, tle.epoch);
        for t in [0.0, 1800.0, 3600.0] {
            let alt = prop.position_eci(t).0.norm() - leo_geo::consts::EARTH_RADIUS_MEAN_M;
            assert!((350e3..500e3).contains(&alt), "t={t}: alt {alt}");
        }
    }
}
