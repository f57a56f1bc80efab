//! Per-layer counts, read from what the program already publishes: the
//! world and LPM metric registries (`metrics_sections`), the engine's
//! queue stats, and the world's connection records.

use std::collections::BTreeMap;

use ppm::harness::harness::PpmHarness;
use ppm::proto::types::MetricRow;
use ppm::simos::net::ConnState;

use crate::stats::median;

/// Registry name → per-layer metric name, for plain sums.
const SUMMED: [(&str, &str); 19] = [
    ("engine.schedules", "simnet.engine.schedules"),
    ("engine.fired", "simnet.engine.fired"),
    ("engine.cancels", "simnet.engine.cancels"),
    ("kernel.events", "simos.kernel.events"),
    ("kernel.wakeups", "simos.kernel.wakeups"),
    ("net.routed_sends", "simnet.netmodel.routed_sends"),
    ("net.congested_sends", "simnet.netmodel.congested_sends"),
    ("net.bisection_bytes", "simnet.netmodel.bisection_bytes"),
    ("faults.injected", "simnet.fault.injected"),
    ("rpc.requests", "core.rpc.requests"),
    ("rpc.retries", "core.rpc.retries"),
    ("rpc.dups_suppressed", "core.rpc.dups_suppressed"),
    ("rpc.deadline_refused", "core.rpc.deadline_refused"),
    ("bcast.parts_spliced", "core.bcast.parts_spliced"),
    ("bcast.partial_flushes", "core.bcast.partial_flushes"),
    ("bcast.missing_hosts", "core.bcast.missing_hosts"),
    ("lpm.restarts", "core.recovery.restarts"),
    ("lpm.readopted", "core.recovery.readopted"),
    ("recov.ccs_elections", "core.recovery.ccs_elections"),
];

/// Accumulates counts over one world (or, for `sweep_cells`, over every
/// cell's world).
#[derive(Debug, Default)]
pub struct LayerCounts {
    sums: BTreeMap<&'static str, f64>,
    overflow_peak: f64,
    /// One sample per LPM that recorded recoveries: its mean MTTR, µs.
    pub mttr_us: Vec<f64>,
}

impl LayerCounts {
    pub fn add_sections(&mut self, sections: &[(String, Vec<MetricRow>)]) {
        for (_, rows) in sections {
            for row in rows {
                if let Some((_, to)) = SUMMED.iter().find(|(from, _)| *from == row.name) {
                    *self.sums.entry(to).or_default() += row.value as f64;
                }
                match row.name.as_str() {
                    "engine.overflow_peak" => {
                        self.overflow_peak = self.overflow_peak.max(row.value as f64);
                    }
                    "net.link_queue_us" => {
                        *self
                            .sums
                            .entry("simnet.netmodel.link_queue_us")
                            .or_default() += row.sum as f64;
                    }
                    "lpm.mttr_us" if row.value > 0 => {
                        self.mttr_us.push(row.sum as f64 / row.value as f64);
                    }
                    _ => {}
                }
            }
        }
    }

    pub fn add_connections(&mut self, ppm: &PpmHarness) {
        let mut add = |k: &'static str, v: f64| *self.sums.entry(k).or_default() += v;
        for c in ppm.world().core().connections() {
            add("simos.net.conns_opened", 1.0);
            if c.state == ConnState::Closed {
                // Closed, yet still a record the world walks and hashes.
                add("simos.net.conns_retained", 1.0);
            }
            add(
                "simos.net.msgs",
                (c.stats.msgs_to_server + c.stats.msgs_to_client) as f64,
            );
            add(
                "simos.net.bytes",
                (c.stats.bytes_to_server + c.stats.bytes_to_client) as f64,
            );
        }
    }

    pub fn finish(&self, out: &mut BTreeMap<&'static str, f64>) {
        for (k, v) in &self.sums {
            out.insert(k, *v);
        }
        out.insert("simnet.engine.overflow_peak", self.overflow_peak);
        let events = self.sums.get("simos.kernel.events").copied().unwrap_or(0.0);
        let wakeups = self
            .sums
            .get("simos.kernel.wakeups")
            .copied()
            .unwrap_or(0.0);
        if wakeups > 0.0 {
            out.insert("simos.kernel.events_per_wakeup", events / wakeups);
        }
        out.insert("core.recovery.mttr_us_p50", median(&self.mttr_us));
    }
}

/// The counts of one simulated world.
pub fn sim_layer_counts(ppm: &PpmHarness, out: &mut BTreeMap<&'static str, f64>) {
    let mut counts = LayerCounts::default();
    counts.add_sections(&ppm.metrics_sections());
    counts.add_connections(ppm);
    counts.finish(out);
}
