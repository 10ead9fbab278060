//! The 2020-era Microsoft Azure region catalog.
//!
//! §3.2 of the paper compares in-orbit meetup servers against the best
//! Azure data center reachable through the constellation. The coordinates
//! below are the approximate metro locations of each region (Azure
//! publishes regions by metro, not street address); the regions named in
//! the paper's two scenarios — South Africa North/West, South Central US,
//! Brazil South, Australia East — are all present.

use leo_geo::Geodetic;
use serde::Serialize;

/// An Azure data-center region.
///
/// Serialize-only: the catalog is a compiled-in constant (`&'static str`
/// names cannot be deserialized into), and nothing reads regions back.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AzureRegion {
    /// Official region name, e.g. `"South Africa North"`.
    pub name: &'static str,
    /// Metro the region is hosted in.
    pub metro: &'static str,
    /// Latitude, degrees north.
    pub lat_deg: f64,
    /// Longitude, degrees east.
    pub lon_deg: f64,
}

impl AzureRegion {
    /// Ground position of the region.
    pub fn geodetic(&self) -> Geodetic {
        Geodetic::ground(self.lat_deg, self.lon_deg)
    }
}

/// All Azure regions generally available circa 2020.
pub fn azure_regions() -> &'static [AzureRegion] {
    const REGIONS: &[AzureRegion] = &[
        AzureRegion {
            name: "East US",
            metro: "Virginia",
            lat_deg: 36.68,
            lon_deg: -78.39,
        },
        AzureRegion {
            name: "East US 2",
            metro: "Virginia",
            lat_deg: 36.87,
            lon_deg: -78.25,
        },
        AzureRegion {
            name: "Central US",
            metro: "Iowa",
            lat_deg: 41.59,
            lon_deg: -93.62,
        },
        AzureRegion {
            name: "North Central US",
            metro: "Illinois",
            lat_deg: 41.88,
            lon_deg: -87.63,
        },
        AzureRegion {
            name: "South Central US",
            metro: "Texas",
            lat_deg: 29.42,
            lon_deg: -98.49,
        },
        AzureRegion {
            name: "West Central US",
            metro: "Wyoming",
            lat_deg: 41.14,
            lon_deg: -104.80,
        },
        AzureRegion {
            name: "West US",
            metro: "California",
            lat_deg: 37.39,
            lon_deg: -121.96,
        },
        AzureRegion {
            name: "West US 2",
            metro: "Washington",
            lat_deg: 47.23,
            lon_deg: -119.85,
        },
        AzureRegion {
            name: "Canada Central",
            metro: "Toronto",
            lat_deg: 43.65,
            lon_deg: -79.38,
        },
        AzureRegion {
            name: "Canada East",
            metro: "Quebec City",
            lat_deg: 46.81,
            lon_deg: -71.21,
        },
        AzureRegion {
            name: "Brazil South",
            metro: "Sao Paulo",
            lat_deg: -23.55,
            lon_deg: -46.63,
        },
        AzureRegion {
            name: "North Europe",
            metro: "Dublin",
            lat_deg: 53.35,
            lon_deg: -6.26,
        },
        AzureRegion {
            name: "West Europe",
            metro: "Amsterdam",
            lat_deg: 52.37,
            lon_deg: 4.90,
        },
        AzureRegion {
            name: "UK South",
            metro: "London",
            lat_deg: 51.51,
            lon_deg: -0.13,
        },
        AzureRegion {
            name: "UK West",
            metro: "Cardiff",
            lat_deg: 51.48,
            lon_deg: -3.18,
        },
        AzureRegion {
            name: "France Central",
            metro: "Paris",
            lat_deg: 48.86,
            lon_deg: 2.35,
        },
        AzureRegion {
            name: "France South",
            metro: "Marseille",
            lat_deg: 43.30,
            lon_deg: 5.37,
        },
        AzureRegion {
            name: "Germany West Central",
            metro: "Frankfurt",
            lat_deg: 50.11,
            lon_deg: 8.68,
        },
        AzureRegion {
            name: "Germany North",
            metro: "Berlin",
            lat_deg: 52.52,
            lon_deg: 13.40,
        },
        AzureRegion {
            name: "Switzerland North",
            metro: "Zurich",
            lat_deg: 47.38,
            lon_deg: 8.54,
        },
        AzureRegion {
            name: "Switzerland West",
            metro: "Geneva",
            lat_deg: 46.20,
            lon_deg: 6.14,
        },
        AzureRegion {
            name: "Norway East",
            metro: "Oslo",
            lat_deg: 59.91,
            lon_deg: 10.75,
        },
        AzureRegion {
            name: "Norway West",
            metro: "Stavanger",
            lat_deg: 58.97,
            lon_deg: 5.73,
        },
        AzureRegion {
            name: "Southeast Asia",
            metro: "Singapore",
            lat_deg: 1.35,
            lon_deg: 103.82,
        },
        AzureRegion {
            name: "East Asia",
            metro: "Hong Kong",
            lat_deg: 22.32,
            lon_deg: 114.17,
        },
        AzureRegion {
            name: "Japan East",
            metro: "Tokyo",
            lat_deg: 35.68,
            lon_deg: 139.69,
        },
        AzureRegion {
            name: "Japan West",
            metro: "Osaka",
            lat_deg: 34.69,
            lon_deg: 135.50,
        },
        AzureRegion {
            name: "Korea Central",
            metro: "Seoul",
            lat_deg: 37.57,
            lon_deg: 126.98,
        },
        AzureRegion {
            name: "Korea South",
            metro: "Busan",
            lat_deg: 35.18,
            lon_deg: 129.08,
        },
        AzureRegion {
            name: "Australia East",
            metro: "Sydney",
            lat_deg: -33.87,
            lon_deg: 151.21,
        },
        AzureRegion {
            name: "Australia Southeast",
            metro: "Melbourne",
            lat_deg: -37.81,
            lon_deg: 144.96,
        },
        AzureRegion {
            name: "Australia Central",
            metro: "Canberra",
            lat_deg: -35.28,
            lon_deg: 149.13,
        },
        AzureRegion {
            name: "Central India",
            metro: "Pune",
            lat_deg: 18.52,
            lon_deg: 73.86,
        },
        AzureRegion {
            name: "South India",
            metro: "Chennai",
            lat_deg: 13.08,
            lon_deg: 80.27,
        },
        AzureRegion {
            name: "West India",
            metro: "Mumbai",
            lat_deg: 19.08,
            lon_deg: 72.88,
        },
        AzureRegion {
            name: "UAE North",
            metro: "Dubai",
            lat_deg: 25.20,
            lon_deg: 55.27,
        },
        AzureRegion {
            name: "UAE Central",
            metro: "Abu Dhabi",
            lat_deg: 24.45,
            lon_deg: 54.38,
        },
        AzureRegion {
            name: "South Africa North",
            metro: "Johannesburg",
            lat_deg: -26.20,
            lon_deg: 28.04,
        },
        AzureRegion {
            name: "South Africa West",
            metro: "Cape Town",
            lat_deg: -33.92,
            lon_deg: 18.42,
        },
        AzureRegion {
            name: "China East",
            metro: "Shanghai",
            lat_deg: 31.23,
            lon_deg: 121.47,
        },
        AzureRegion {
            name: "China North",
            metro: "Beijing",
            lat_deg: 39.90,
            lon_deg: 116.41,
        },
    ];
    REGIONS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_by_name(name: &str) -> Option<&'static AzureRegion> {
        azure_regions().iter().find(|r| r.name == name)
    }

    #[test]
    fn paper_scenario_regions_exist() {
        for name in [
            "South Africa North",
            "South Africa West",
            "South Central US",
            "Brazil South",
            "Australia East",
        ] {
            assert!(region_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn africa_has_exactly_two_regions() {
        // §3.2: "Microsoft Azure … has two data center regions in Africa".
        let africa = azure_regions()
            .iter()
            .filter(|r| r.name.contains("South Africa"))
            .count();
        assert_eq!(africa, 2);
    }

    #[test]
    fn coordinates_are_valid() {
        for r in azure_regions() {
            assert!((-90.0..=90.0).contains(&r.lat_deg), "{}", r.name);
            assert!((-180.0..=180.0).contains(&r.lon_deg), "{}", r.name);
        }
    }

    #[test]
    fn no_duplicate_region_names() {
        let mut seen = std::collections::HashSet::new();
        for r in azure_regions() {
            assert!(seen.insert(r.name), "duplicate {}", r.name);
        }
    }

    #[test]
    fn catalog_size_matches_2020_era_azure() {
        // "More global regions than any other cloud provider" — ~40 GA
        // regions in 2020.
        assert!(azure_regions().len() >= 38);
    }

    #[test]
    fn south_africa_north_is_johannesburg() {
        let r = region_by_name("South Africa North").unwrap();
        assert_eq!(r.metro, "Johannesburg");
        assert!((r.lat_deg + 26.2).abs() < 0.1);
    }
}
