//! The [`WorldCities`] ranked dataset.

use crate::city::City;
use crate::data::RAW_CITIES;
use crate::synth;
use leo_geo::Geodetic;

/// The world-city catalog, sorted by descending population, extensible
/// with deterministic synthetic cities beyond the real records.
///
/// ```
/// use leo_cities::WorldCities;
///
/// let cities = WorldCities::load();
/// assert_eq!(cities.top_n(1)[0].name, "Tokyo");
/// // Fig 4 uses ground stations at the 1000 largest cities:
/// let sites = WorldCities::load_at_least(1000).top_n_geodetic(1000);
/// assert_eq!(sites.len(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct WorldCities {
    cities: Vec<City>,
}

impl WorldCities {
    /// Loads the real embedded catalog (1,000+ cities), population-sorted.
    pub fn load() -> Self {
        let mut cities: Vec<City> = RAW_CITIES
            .iter()
            .map(|&(name, country, lat, lon, pop_k)| City {
                name: name.to_string(),
                country: country.to_string(),
                lat_deg: lat,
                lon_deg: lon,
                population: pop_k * 1000,
            })
            .collect();
        cities.sort_by_key(|c| std::cmp::Reverse(c.population));
        WorldCities { cities }
    }

    /// Loads a catalog of at least `n` cities, synthesizing beyond the
    /// real records when needed (see [`crate::synth`]).
    pub fn load_at_least(n: usize) -> Self {
        let mut ds = Self::load();
        if n > ds.cities.len() {
            ds.cities.extend(synth::synthesize(n - ds.cities.len()));
            // Real cities all outrank synthetic ones by construction, but
            // re-sort to keep the invariant explicit.
            ds.cities.sort_by_key(|c| std::cmp::Reverse(c.population));
        }
        ds
    }

    /// All cities, descending population.
    pub fn all(&self) -> &[City] {
        &self.cities
    }

    /// The `n` largest cities by population.
    ///
    /// # Panics
    /// Panics when `n` exceeds the loaded catalog size — call
    /// [`WorldCities::load_at_least`] first for large `n`.
    pub fn top_n(&self, n: usize) -> &[City] {
        assert!(
            n <= self.cities.len(),
            "requested {n} cities, catalog holds {}; use load_at_least",
            self.cities.len()
        );
        &self.cities[..n]
    }

    /// Ground positions of the `n` largest cities.
    pub fn top_n_geodetic(&self, n: usize) -> Vec<Geodetic> {
        self.top_n(n).iter().map(City::geodetic).collect()
    }
}

impl Default for WorldCities {
    fn default() -> Self {
        Self::load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_by_descending_population() {
        let ds = WorldCities::load();
        for w in ds.all().windows(2) {
            assert!(w[0].population >= w[1].population);
        }
    }

    #[test]
    fn tokyo_is_the_largest_city() {
        let ds = WorldCities::load();
        assert_eq!(ds.all()[0].name, "Tokyo");
    }

    #[test]
    fn top_n_returns_exactly_n() {
        let ds = WorldCities::load();
        assert_eq!(ds.top_n(100).len(), 100);
        assert_eq!(ds.top_n(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "use load_at_least")]
    fn top_n_beyond_catalog_panics() {
        let ds = WorldCities::load();
        let _ = ds.top_n(10_000);
    }

    #[test]
    fn load_at_least_reaches_1000_for_fig4() {
        let ds = WorldCities::load_at_least(1000);
        assert!(ds.all().len() >= 1000);
        let top = ds.top_n(1000);
        assert_eq!(top.len(), 1000);
        // Real cities must rank ahead of synthetic ones.
        assert!(top[..100].iter().all(|c| !c.name.contains("satellite")));
    }

    #[test]
    fn by_name_finds_fig3_cities() {
        let ds = WorldCities::load();
        for name in [
            "Abuja",
            "Yaounde",
            "Lagos",
            "San Antonio",
            "Sydney",
            "Sao Paulo",
        ] {
            assert!(ds.all().iter().any(|c| c.name == name), "missing {name}");
        }
    }

    #[test]
    fn geodetic_export_matches_city_records() {
        let ds = WorldCities::load();
        let points = ds.top_n_geodetic(50);
        for (p, c) in points.iter().zip(ds.top_n(50)) {
            assert!((p.lat.degrees() - c.lat_deg).abs() < 1e-12);
        }
    }
}
