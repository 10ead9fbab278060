//! The [`City`] record.

use leo_geo::Geodetic;
use serde::{Deserialize, Serialize};

/// A population center usable as a ground-station site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct City {
    /// City name.
    pub name: String,
    /// ISO-ish country name.
    pub country: String,
    /// Latitude, degrees north.
    pub lat_deg: f64,
    /// Longitude, degrees east.
    pub lon_deg: f64,
    /// Metro-area population.
    pub population: u64,
}

impl City {
    /// The city's ground position (sea level).
    pub fn geodetic(&self) -> Geodetic {
        Geodetic::ground(self.lat_deg, self.lon_deg)
    }
}

impl std::fmt::Display for City {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}, {}", self.name, self.country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geodetic_conversion_preserves_coordinates() {
        let c = City {
            name: "Abuja".into(),
            country: "Nigeria".into(),
            lat_deg: 9.06,
            lon_deg: 7.49,
            population: 3_278_000,
        };
        let g = c.geodetic();
        assert!((g.lat.degrees() - 9.06).abs() < 1e-12);
        assert!((g.lon.degrees() - 7.49).abs() < 1e-12);
        assert_eq!(g.alt_m, 0.0);
    }

    #[test]
    fn display_is_name_comma_country() {
        let c = City {
            name: "Yaoundé".into(),
            country: "Cameroon".into(),
            lat_deg: 3.87,
            lon_deg: 11.52,
            population: 2_765_000,
        };
        assert_eq!(c.to_string(), "Yaoundé, Cameroon");
    }
}
