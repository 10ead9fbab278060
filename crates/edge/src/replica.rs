//! QoS k-replica coverage for demand cells.
//!
//! Pfandzelter's QoS-aware placement question, scaled to our fleet:
//! every demand cell should keep `k` warm state replicas on satellites
//! within a latency bound, so a function can fail over (or warm-start)
//! without hauling state across the constellation. Orbital motion and
//! faults constantly invalidate replicas; [`ReplicaSets::maintain`]
//! repairs the sets each snapshot and counts the repair churn
//! (`edge.replica_repairs`) — itself a cost the paper's idle-fleet
//! pitch has to pay.
//!
//! Candidate lists arrive pre-masked from the engine (the view's
//! frontier pass applies its fault plan), so replicas route around
//! faults exactly like the serving layer: a dead satellite simply never
//! appears as a candidate, and with an empty fault plan the candidates
//! — and therefore the replica sets — are byte-identical to a plain
//! run.

use leo_constellation::SatId;
use leo_net::visibility::VisibleSat;
use serde::{Deserialize, Serialize};

/// QoS requirements for replica coverage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosSpec {
    /// Replicas each demand cell must keep in range (`k`).
    pub replicas: usize,
    /// Maximum acceptable RTT from the cell to a replica host, ms.
    pub latency_bound_ms: f64,
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec {
            replicas: 2,
            latency_bound_ms: 12.0,
        }
    }
}

/// Coverage of one cell after maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageReport {
    /// All `k` replicas are hosted within the bound.
    Satisfied,
    /// Only `held` of `want` replicas could be hosted — explicitly
    /// infeasible at this snapshot, never silently under-replicated.
    Infeasible {
        /// Replicas actually held.
        held: usize,
        /// Replicas the QoS spec asks for.
        want: usize,
    },
}

/// What one maintenance pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MaintainStats {
    /// Replicas newly hosted to replace ones that set, died, or drifted
    /// out of the latency bound (excludes the very first placement).
    pub repairs: u64,
    /// Replicas placed for the first time (initial fill).
    pub initial_placements: u64,
    /// Cells whose coverage came up short this pass.
    pub shortfall_cells: u64,
}

/// Chooses a replica set for one cell from its (bound-filtered,
/// nearest-first) candidate list, keeping as many incumbents as
/// possible and refilling nearest-first. Pure — the property suite
/// drives this directly.
///
/// Returns the new set plus the number of slots that had to be
/// (re)filled.
pub fn cover(incumbents: &[SatId], candidates: &[VisibleSat], k: usize) -> (Vec<SatId>, usize) {
    // Keep incumbents that are still candidates, in incumbent order, so
    // a stable pass is a no-op (no churn, no repairs).
    let mut set: Vec<SatId> = incumbents
        .iter()
        .filter(|id| candidates.iter().any(|c| c.id == **id))
        .take(k)
        .copied()
        .collect();
    let mut filled = 0;
    for c in candidates {
        if set.len() >= k {
            break;
        }
        if !set.contains(&c.id) {
            set.push(c.id);
            filled += 1;
        }
    }
    (set, filled)
}

/// The per-cell replica sets, maintained across snapshots.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReplicaSets {
    sets: Vec<Vec<SatId>>,
    primed: bool,
}

impl ReplicaSets {
    /// Empty sets for `num_cells` cells; the first
    /// [`ReplicaSets::maintain`] pass does the initial fill.
    pub fn new(num_cells: usize) -> Self {
        ReplicaSets {
            sets: vec![Vec::new(); num_cells],
            primed: false,
        }
    }

    /// True when `sat` holds a replica for `cell` — a warm-start host.
    pub fn is_replica(&self, cell: u32, sat: SatId) -> bool {
        self.sets[cell as usize].contains(&sat)
    }

    /// All satellites currently holding at least one replica, ascending
    /// and deduplicated (the engine's standby-fleet accounting).
    pub fn hosts(&self) -> Vec<SatId> {
        let mut hosts: Vec<SatId> = self.sets.iter().flatten().copied().collect();
        hosts.sort_by_key(|id| id.0);
        hosts.dedup();
        hosts
    }

    /// One maintenance pass: for each cell, drop replicas whose host is
    /// no longer a candidate (set, died, or drifted past the bound) and
    /// refill nearest-first. `candidates[cell]` must be bound-filtered
    /// and sorted nearest-first; the engine builds it on the masked
    /// routing path so faults are already excluded.
    ///
    /// Returns per-cell coverage plus churn stats. Fills after the
    /// first pass count as repairs ([`leo_obs`] counter
    /// `edge.replica_repairs`); the first pass counts as initial
    /// placement.
    pub fn maintain(
        &mut self,
        candidates: &[&[VisibleSat]],
        qos: &QosSpec,
    ) -> (Vec<CoverageReport>, MaintainStats) {
        assert_eq!(
            candidates.len(),
            self.sets.len(),
            "one candidate list per cell"
        );
        let mut stats = MaintainStats::default();
        let reports: Vec<CoverageReport> = self
            .sets
            .iter_mut()
            .zip(candidates)
            .map(|(set, cands)| {
                let (next, filled) = cover(set, cands, qos.replicas);
                *set = next;
                if self.primed {
                    stats.repairs += filled as u64;
                    leo_obs::counter!("edge.replica_repairs").add(filled as u64);
                } else {
                    stats.initial_placements += filled as u64;
                }
                if set.len() >= qos.replicas {
                    CoverageReport::Satisfied
                } else {
                    stats.shortfall_cells += 1;
                    CoverageReport::Infeasible {
                        held: set.len(),
                        want: qos.replicas,
                    }
                }
            })
            .collect();
        self.primed = true;
        (reports, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vis(id: u32, range_m: f64) -> VisibleSat {
        VisibleSat {
            id: SatId(id),
            range_m,
        }
    }

    #[test]
    fn cover_fills_nearest_first() {
        let cands = vec![vis(3, 100.0), vis(7, 200.0), vis(1, 300.0)];
        let (set, filled) = cover(&[], &cands, 2);
        assert_eq!(set, vec![SatId(3), SatId(7)]);
        assert_eq!(filled, 2);
    }

    #[test]
    fn cover_keeps_incumbents_over_nearer_newcomers() {
        // Incumbent 1 is the farthest candidate, but replica state is
        // sticky: no churn while the bound still holds.
        let cands = vec![vis(3, 100.0), vis(7, 200.0), vis(1, 300.0)];
        let (set, filled) = cover(&[SatId(1), SatId(7)], &cands, 2);
        assert_eq!(set, vec![SatId(1), SatId(7)]);
        assert_eq!(filled, 0);
    }

    #[test]
    fn cover_replaces_vanished_incumbents() {
        let cands = vec![vis(3, 100.0), vis(7, 200.0)];
        let (set, filled) = cover(&[SatId(9), SatId(7)], &cands, 2);
        assert_eq!(set, vec![SatId(7), SatId(3)]);
        assert_eq!(filled, 1);
    }

    #[test]
    fn cover_reports_underfill_when_candidates_run_out() {
        let cands = vec![vis(3, 100.0)];
        let (set, filled) = cover(&[], &cands, 3);
        assert_eq!(set, vec![SatId(3)]);
        assert_eq!(filled, 1);
    }

    #[test]
    fn maintain_counts_initial_fill_separately_from_repairs() {
        let qos = QosSpec {
            replicas: 2,
            latency_bound_ms: 12.0,
        };
        let mut sets = ReplicaSets::new(1);
        let round1 = [vis(1, 100.0), vis(2, 200.0), vis(3, 300.0)];
        let (reports, stats) = sets.maintain(&[&round1], &qos);
        assert!(matches!(reports[0], CoverageReport::Satisfied));
        assert_eq!(stats.initial_placements, 2);
        assert_eq!(stats.repairs, 0);
        // Satellite 1 sets; the repair draws the next-nearest newcomer.
        let round2 = [vis(2, 150.0), vis(3, 250.0)];
        let (reports, stats) = sets.maintain(&[&round2], &qos);
        assert!(matches!(reports[0], CoverageReport::Satisfied));
        assert_eq!(stats.initial_placements, 0);
        assert_eq!(stats.repairs, 1);
        assert_eq!(sets.hosts(), vec![SatId(2), SatId(3)]);
    }

    #[test]
    fn maintain_reports_infeasible_cells_explicitly() {
        let qos = QosSpec {
            replicas: 3,
            latency_bound_ms: 12.0,
        };
        let mut sets = ReplicaSets::new(2);
        let (reports, stats) = sets.maintain(&[&[vis(1, 100.0)], &[]], &qos);
        assert_eq!(reports[0], CoverageReport::Infeasible { held: 1, want: 3 });
        assert_eq!(reports[1], CoverageReport::Infeasible { held: 0, want: 3 });
        assert_eq!(stats.shortfall_cells, 2);
    }

    #[test]
    fn hosts_are_sorted_and_deduplicated() {
        let qos = QosSpec {
            replicas: 2,
            latency_bound_ms: 12.0,
        };
        let mut sets = ReplicaSets::new(2);
        let cands = [
            [vis(9, 100.0), vis(2, 200.0)],
            [vis(2, 120.0), vis(9, 130.0)],
        ];
        sets.maintain(&[&cands[0], &cands[1]], &qos);
        assert_eq!(sets.hosts(), vec![SatId(2), SatId(9)]);
        assert!(sets.is_replica(0, SatId(9)));
        assert!(!sets.is_replica(0, SatId(5)));
    }
}
