//! Per-layer numbers of a traced run.
//!
//! Two sources, never mixed within one metric:
//!
//! * **in-call**: the counters and span sums the layers already record
//!   through `leo-obs`, harvested after the traced timed call (only
//!   `sum` and `count`, never the bucket-edge quantiles);
//! * **probe**: benchmark-side spans around direct calls into a layer's
//!   public functions, on the workload's own instants and points. A
//!   layer's in-call time is then its mean probe cost times the exact
//!   number of calls the timed call made (a counter or the output).

use crate::spec::PER_LAYER;
use crate::trace::{Recorder, SpanId};
use leo_constellation::SatId;
use leo_core::{InOrbitService, SnapshotView};
use leo_net::congestion::{CbrFlow, CongestionLink, CongestionNetwork, WindowedFlow};
use leo_net::routing::GroundEndpoint;
use leo_net::VisibilityIndex;
use std::collections::BTreeMap;

/// Every declared per-layer metric, 0 until a workload sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// On a name `spec::PER_LAYER` does not declare: a bug here, not an
    /// input condition.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// The `leo-obs` counters and span sums of the traced timed call.
pub struct Obs(pub leo_obs::ObsSnapshot);

impl Obs {
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Summed seconds of a layer's span (its histogram's exact `sum`).
    pub fn span_sum(&self, name: &str) -> f64 {
        self.0
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0.0, |h| h.sum)
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The in-call layers every workload reports straight from `leo-obs`.
pub fn from_obs(obs: &Obs, layers: &mut Layers) {
    let c = |n: &str| obs.counter(n) as f64;
    layers.set(
        "frontier.settle_s",
        obs.span_sum("engine.frontier.settle_s") + obs.span_sum("engine.frontier.refresh_s"),
    );
    layers.set(
        "frontier.pair_exact_ratio",
        ratio(
            c("engine.frontier.pairs_exact"),
            c("engine.frontier.pairs_tested"),
        ),
    );
    layers.set("frontier.candidates", c("engine.frontier.candidates"));
    layers.set(
        "frontier.lists_s",
        obs.span_sum("engine.frontier.list_settle_s"),
    );
    layers.set(
        "index.scan_ratio",
        ratio(c("visibility.returned"), c("visibility.candidates_scanned")),
    );
    layers.set("engine.refresh_s", obs.span_sum("engine.refresh_s"));
    layers.set(
        "engine.refresh_delta_s",
        obs.span_sum("engine.refresh_delta_s"),
    );
    let recomputed = c("engine.delta.recomputed_edges");
    layers.set(
        "engine.delta_recomputed_frac",
        ratio(recomputed, recomputed + c("engine.delta.skipped_edges")),
    );
    let queries = c("engine.dijkstra.heap_queries") + c("engine.dijkstra.bucket_queries");
    layers.set("engine.dijkstra_queries", queries);
    layers.set(
        "engine.pops_per_query",
        ratio(c("engine.dijkstra.pops"), queries),
    );
    let (hits, misses) = (c("service.snapshot_hits"), c("service.snapshot_misses"));
    layers.set("service.cache_hit_ratio", ratio(hits, hits + misses));
    layers.set("serve.validations", c("serve.frontier_validations"));
    layers.set("edge.migrations", c("edge.migrations"));
    layers.set("edge.cold_starts", c("edge.cold_starts"));
    layers.set("edge.replica_repairs", c("edge.replica_repairs"));
}

/// Probes the layers a cold [`SnapshotView`] build runs — propagation,
/// index build and the whole view — for each `(service, instant)`, and
/// prices the timed call's cold views (`misses`) at those means.
/// Returns `service.view_cold_s`.
pub fn probe_views<'a>(
    rec: &Recorder,
    parent: Option<SpanId>,
    at: impl IntoIterator<Item = (&'a InOrbitService, f64)>,
    misses: u64,
    layers: &mut Layers,
) -> f64 {
    for (service, t) in at {
        let constellation = service.constellation();
        let snap = rec.span(parent, "probe.orbit.snapshot", |_| {
            constellation.snapshot(t)
        });
        rec.span(parent, "probe.index.build", |_| {
            std::hint::black_box(VisibilityIndex::build(constellation, &snap))
        });
        rec.span(parent, "probe.service.view_cold", |_| {
            std::hint::black_box(SnapshotView::build_with(
                constellation,
                service.routing_engine(),
                t,
                service.fault_config(),
            ))
        });
    }
    let n = misses as f64;
    let snapshot = rec.mean("probe.orbit.snapshot");
    layers.set("orbit.snapshot_us", snapshot * 1e6);
    layers.set("orbit.snapshot_s", snapshot * n);
    layers.set("index.build_s", rec.mean("probe.index.build") * n);
    let view_cold = rec.mean("probe.service.view_cold") * n;
    layers.set("service.view_cold_s", view_cold);
    view_cold
}

/// One point-to-point Dijkstra probe: at instant `t`, `from` → `to`,
/// optionally also through the ground endpoints `via`.
pub struct DijkstraProbe<'a> {
    pub t: f64,
    pub from: SatId,
    pub to: SatId,
    pub via: Option<&'a [GroundEndpoint]>,
}

/// Prices the timed call's Dijkstra queries at the mean cost of
/// `probes` (views warmed first, ground links attached outside the
/// span). Returns `engine.dijkstra_s`.
pub fn probe_dijkstra(
    rec: &Recorder,
    parent: Option<SpanId>,
    service: &InOrbitService,
    probes: &[DijkstraProbe],
    layers: &mut Layers,
) -> f64 {
    for p in probes {
        let view = service.view(p.t);
        let links = p.via.map(|g| view.attach(g));
        rec.span(parent, "probe.engine.dijkstra", |_| {
            std::hint::black_box(view.sat_to_sat_delay(links.as_ref(), p.from, p.to))
        });
    }
    let total = rec.mean("probe.engine.dijkstra") * layers.get("engine.dijkstra_queries");
    layers.set("engine.dijkstra_s", total);
    total
}

/// Hops in the standalone congestion probe chain.
const CHAIN_HOPS: usize = 8;

/// A standalone hop chain at the migration network config (10 Gb/s
/// ISLs, 256-packet drop-tail queues marking at 64, 48 kB packets,
/// DCTCP) under 90 % CBR cross-traffic on every hop, moving 10 MB.
/// Sets `congestion.pkts_per_s`: packets the engine carried (sender
/// transmissions plus cross-traffic emissions) per host second.
pub fn probe_congestion(rec: &Recorder, parent: Option<SpanId>, layers: &mut Layers) {
    let cfg = leo_core::replication::MigrationNetConfig::default();
    let mut packets = 0u64;
    for _ in 0..3 {
        packets += rec.span(parent, "probe.congestion.chain", |_| {
            let mut net = CongestionNetwork::new();
            let link = CongestionLink::new(cfg.isl_rate_bps, 1.5e-3, cfg.queue_packets)
                .with_ecn(cfg.ecn_threshold.unwrap_or(cfg.queue_packets));
            let route: Vec<_> = (0..CHAIN_HOPS).map(|_| net.add_link(link)).collect();
            let cross: Vec<_> = route
                .iter()
                .map(|&id| {
                    net.add_cbr(CbrFlow::with_load(
                        vec![id],
                        cfg.packet_bits,
                        0.9 * cfg.isl_rate_bps,
                        0.0,
                        cfg.segment_s,
                    ))
                })
                .collect();
            let packets = (10e6 * 8.0 / cfg.packet_bits).ceil() as u64;
            let sender = net.add_windowed(WindowedFlow::new(
                route,
                cfg.packet_bits,
                packets,
                0.0,
                cfg.algorithm,
            ));
            assert!(
                net.run_while_incomplete(cfg.segment_s),
                "the probe transfer must finish inside one segment"
            );
            net.windowed_stats(sender).transmissions
                + cross.iter().map(|&c| net.cbr_stats(c).emitted).sum::<u64>()
        });
    }
    let (secs, _) = rec.total("probe.congestion.chain");
    layers.set("congestion.pkts_per_s", ratio(packets as f64, secs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_start_with_every_declared_metric_at_zero() {
        let l = Layers::new();
        let names: Vec<&str> = l.iter().map(|(n, _)| n).collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(l.iter().all(|(_, v)| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_metric_is_a_bug() {
        Layers::new().set("no.such_metric", 1.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
