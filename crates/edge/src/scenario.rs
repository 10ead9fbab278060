//! Deterministic, seedable demand scenarios.
//!
//! A scenario is the workload side of the thought experiment: *who*
//! wants in-orbit compute, *where*, and *when*. Demand cells sit at the
//! largest world cities (population-weighted, like the serving layer's
//! user synthesis); each cell's invocation rate follows a diurnal curve
//! in its own local solar time, spiked by seeded flash crowds.
//! Regional outages are not modeled here — they arrive through
//! [`leo_net::fault`] on the service the engine runs against, so the
//! demand trace itself stays identical between a faulted and a plain
//! run (only the fleet's ability to serve it changes).
//!
//! Everything is a pure function of `(config, seed)`: two generations
//! from the same config are `==`, which the property suite and the
//! `fig_edge` binary both assert.

use leo_cities::synth::SplitMix64;
use leo_cities::WorldCities;
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// Default seed for scenario generation. Changing it reshuffles every
/// committed edge baseline, so don't.
pub const SCENARIO_SEED: u64 = 0xED6E_2026;

/// Base invocations per tick per 100k anchor population.
const BASE_RATE_PER_100K: f64 = 2.0;

/// Diurnal swing: demand scales by `1 + amplitude·cos(...)`, so it
/// stays positive for any amplitude below one.
const DIURNAL_AMPLITUDE: f64 = 0.6;

/// Local solar hour of peak demand.
const PEAK_LOCAL_HOUR: f64 = 20.0;

/// Number of flash crowds drawn over a scenario.
const FLASH_CROWDS: usize = 6;

/// Demand multiplier while a flash crowd is live.
const FLASH_MULTIPLIER: f64 = 8.0;

/// Flash-crowd duration, seconds.
const FLASH_DURATION_S: f64 = 900.0;

/// One demand cell: a city-anchored population center that invokes
/// functions on the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandCell {
    /// City name (for reports).
    pub name: String,
    /// Cell index, equal to its position in the scenario's cell list.
    pub index: u32,
    /// Latitude, degrees.
    pub lat_deg: f64,
    /// Longitude, degrees (drives the local-solar-time diurnal phase).
    pub lon_deg: f64,
    /// Anchor city population.
    pub population: u64,
}

impl DemandCell {
    /// The cell as a ground endpoint (index = cell index).
    pub fn endpoint(&self) -> GroundEndpoint {
        GroundEndpoint::new(self.index, Geodetic::ground(self.lat_deg, self.lon_deg))
    }
}

/// A seeded demand spike at one cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowd {
    /// Which cell spikes.
    pub cell: u32,
    /// Spike start, seconds after the scenario start.
    pub start_s: f64,
    /// Spike duration, seconds.
    pub duration_s: f64,
    /// Demand multiplier while the spike is live.
    pub multiplier: f64,
}

impl FlashCrowd {
    /// True while the spike is live at scenario-relative time `rel_s`.
    pub fn active(&self, rel_s: f64) -> bool {
        rel_s >= self.start_s && rel_s < self.start_s + self.duration_s
    }
}

/// Scenario knobs. The defaults are the `fig_edge` full-run shape. A
/// scenario starts at the epoch; the demand shape is fixed: 2 base
/// invocations per tick per 100k population, a ±60 % diurnal swing
/// peaking at 20:00 local solar time, and six flash crowds of 8× demand
/// lasting 15 minutes each.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of demand cells (the `num_cells` largest cities).
    pub num_cells: usize,
    /// Scenario duration, seconds.
    pub duration_s: f64,
    /// Tick length, seconds.
    pub tick_s: f64,
    /// Seed for flash-crowd draws.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            num_cells: 96,
            duration_s: 7200.0,
            tick_s: 60.0,
            seed: SCENARIO_SEED,
        }
    }
}

/// A generated scenario: cells, flash crowds, and the demand function
/// over them. Pure data — `==` between two generations from the same
/// config is the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    config: ScenarioConfig,
    cells: Vec<DemandCell>,
    crowds: Vec<FlashCrowd>,
}

impl Scenario {
    /// Generates the scenario: the `num_cells` largest cities become
    /// demand cells, and six flash crowds are drawn with a SplitMix64
    /// stream seeded by `config.seed`.
    ///
    /// # Panics
    /// Panics when `tick_s` or `num_cells` is not positive.
    pub fn generate(config: ScenarioConfig) -> Scenario {
        assert!(config.tick_s > 0.0, "tick must be positive");
        assert!(config.num_cells > 0, "a scenario needs demand cells");
        let catalog = WorldCities::load_at_least(config.num_cells);
        let cells: Vec<DemandCell> = catalog
            .top_n(config.num_cells)
            .iter()
            .enumerate()
            .map(|(i, c)| DemandCell {
                name: c.name.clone(),
                index: i as u32,
                lat_deg: c.lat_deg,
                lon_deg: c.lon_deg,
                population: c.population,
            })
            .collect();
        let mut rng = SplitMix64::new(config.seed);
        let crowds: Vec<FlashCrowd> = (0..FLASH_CROWDS)
            .map(|_| {
                let cell = (rng.next_u64() % cells.len() as u64) as u32;
                // Keep the whole spike inside the scenario window.
                let latest = (config.duration_s - FLASH_DURATION_S).max(0.0);
                FlashCrowd {
                    cell,
                    start_s: rng.range(0.0, latest.max(f64::MIN_POSITIVE)),
                    duration_s: FLASH_DURATION_S,
                    multiplier: FLASH_MULTIPLIER,
                }
            })
            .collect();
        Scenario {
            config,
            cells,
            crowds,
        }
    }

    /// The configuration the scenario was generated from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The demand cells, in index order.
    pub fn cells(&self) -> &[DemandCell] {
        &self.cells
    }

    /// The seeded flash crowds.
    pub fn crowds(&self) -> &[FlashCrowd] {
        &self.crowds
    }

    /// The cells as ground endpoints (endpoint index = cell index).
    pub fn endpoints(&self) -> Vec<GroundEndpoint> {
        self.cells.iter().map(DemandCell::endpoint).collect()
    }

    /// The tick schedule, seconds after the epoch (the scenario start).
    pub fn ticks(&self) -> Vec<f64> {
        let n = (self.config.duration_s / self.config.tick_s).round() as usize;
        (0..=n).map(|i| i as f64 * self.config.tick_s).collect()
    }

    /// The diurnal factor for a cell at time `t`: peaks at 20:00 in the
    /// cell's local solar time, troughs twelve hours away.
    fn diurnal_factor(&self, cell: &DemandCell, t: f64) -> f64 {
        let local_hour = (t / 3600.0 + cell.lon_deg / 15.0).rem_euclid(24.0);
        let phase = (local_hour - PEAK_LOCAL_HOUR) / 24.0 * std::f64::consts::TAU;
        1.0 + DIURNAL_AMPLITUDE * phase.cos()
    }

    /// The flash-crowd multiplier at a cell at time `t` (1.0 when no
    /// spike is live; concurrent spikes on one cell compound).
    fn flash_factor(&self, cell_index: u32, t: f64) -> f64 {
        self.crowds
            .iter()
            .filter(|c| c.cell == cell_index && c.active(t))
            .map(|c| c.multiplier)
            .product()
    }

    /// Invocations a cell issues in the tick at time `t` — the
    /// population-scaled base rate shaped by the diurnal curve and any
    /// live flash crowd, rounded to a whole number of invocations.
    pub fn demand_at(&self, cell_index: u32, t: f64) -> u64 {
        let cell = &self.cells[cell_index as usize];
        let base = cell.population as f64 / 1e5 * BASE_RATE_PER_100K;
        let shaped = base * self.diurnal_factor(cell, t) * self.flash_factor(cell_index, t);
        shaped.round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            num_cells: 12,
            duration_s: 1800.0,
            tick_s: 300.0,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = Scenario::generate(small());
        let b = Scenario::generate(small());
        assert_eq!(a, b);
        let c = Scenario::generate(ScenarioConfig {
            seed: SCENARIO_SEED + 1,
            ..small()
        });
        assert_eq!(a.cells(), c.cells(), "cells do not depend on the seed");
        assert_ne!(a.crowds(), c.crowds(), "crowds must re-draw");
    }

    #[test]
    fn cells_are_the_largest_cities_in_order() {
        let s = Scenario::generate(small());
        assert_eq!(s.cells().len(), 12);
        assert_eq!(s.cells()[0].name, "Tokyo");
        for (i, c) in s.cells().iter().enumerate() {
            assert_eq!(c.index, i as u32);
            assert_eq!(s.endpoints()[i].index, i as u32);
        }
        for w in s.cells().windows(2) {
            assert!(w[0].population >= w[1].population);
        }
    }

    #[test]
    fn tick_schedule_spans_the_window_inclusively() {
        let s = Scenario::generate(small());
        let ticks = s.ticks();
        assert_eq!(ticks.len(), 7);
        assert_eq!(ticks[0], 0.0);
        assert_eq!(*ticks.last().unwrap(), 1800.0);
    }

    #[test]
    fn diurnal_factor_peaks_at_the_configured_hour() {
        let s = Scenario::generate(small());
        let cell = &s.cells()[0];
        // Absolute time putting the cell exactly at its peak local hour.
        let peak_t = (PEAK_LOCAL_HOUR - cell.lon_deg / 15.0).rem_euclid(24.0) * 3600.0;
        let trough_t = peak_t + 12.0 * 3600.0;
        let peak = s.diurnal_factor(cell, peak_t);
        let trough = s.diurnal_factor(cell, trough_t);
        assert!((peak - 1.6).abs() < 1e-9, "peak {peak}");
        assert!((trough - 0.4).abs() < 1e-9, "trough {trough}");
        assert!(trough > 0.0, "demand never goes negative");
    }

    #[test]
    fn flash_crowds_multiply_demand_only_while_live() {
        let s = Scenario::generate(small());
        let crowd = s.crowds()[0];
        let quiet_before = s.flash_factor(crowd.cell, crowd.start_s - 1.0);
        let live = s.flash_factor(crowd.cell, crowd.start_s + 1.0);
        let quiet_after = s.flash_factor(crowd.cell, crowd.start_s + crowd.duration_s + 1.0);
        assert_eq!(quiet_before, 1.0);
        assert!(live >= crowd.multiplier);
        // Another crowd could overlap the tail; it can only raise it.
        assert!(quiet_after >= 1.0);
        let lively = s.demand_at(crowd.cell, crowd.start_s + 1.0);
        let base = s.demand_at(crowd.cell, crowd.start_s - 1.0);
        assert!(lively > base, "spike {lively} vs base {base}");
    }

    #[test]
    fn demand_scales_with_population() {
        let s = Scenario::generate(small());
        // Tokyo (rank 0) vs the smallest cell, far from any flash crowd
        // influence: compare pure diurnal-free base by averaging a full day.
        let day: Vec<f64> = (0..24).map(|h| h as f64 * 3600.0).collect();
        let tokyo: u64 = day.iter().map(|&t| s.demand_at(0, t)).sum();
        let small_cell: u64 = day.iter().map(|&t| s.demand_at(11, t)).sum();
        assert!(tokyo > small_cell);
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_is_rejected() {
        Scenario::generate(ScenarioConfig {
            tick_s: 0.0,
            ..small()
        });
    }
}
