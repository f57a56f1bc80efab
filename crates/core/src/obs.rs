//! PPM observability: the LPM's metric set, wire conversion, and the
//! exporters behind `ppm-sim --metrics` / `--spans`.
//!
//! Every LPM owns a [`ppm_runtime::obs::Registry`] behind a shared handle
//! (`LpmObs`) and registers it with the world's observability hub at
//! start, so a harness samples every
//! registry at end of run without generating simulated traffic. The same
//! registry is what [`ppm_proto::msg::Op::Metrics`] snapshots remotely.
//! [`section_rows`] reads a registry straight into wire [`MetricRow`]s;
//! [`rows`] converts a snapshot's samples into the same rows.
//!
//! All output is keyed to the deterministic simulation clock, so a
//! same-seed run renders byte-identical metrics and span files (the CI
//! determinism gate diffs them).

use std::fmt::Write as _;

use ppm_proto::types::{MetricRow, Name};
use ppm_runtime::obs::{
    CounterId, Hist, HistId, MetricRef, MetricSample, MetricValue, Registry, Section,
    SharedRegistry, SpanEvent, SpanPhase,
};

/// The LPM's registered metric set: ids into its shared registry.
///
/// A hot-path update is a relaxed atomic add into the sealed registry —
/// no lock on any backend.
pub(crate) struct LpmObs {
    pub registry: SharedRegistry,
    /// Requests entering the pipeline.
    pub requests: CounterId,
    /// Origin-side transport retries.
    pub retries: CounterId,
    /// Duplicate directed-request deliveries absorbed by the dedup window.
    pub dups_suppressed: CounterId,
    /// Sibling requests refused because their deadline decayed to nothing.
    pub deadline_refused: CounterId,
    /// Backoff delay (µs) at each scheduled retry — depth of the doubling.
    pub backoff_us: HistId,
    /// Relay-side aggregate part frames spliced upstream.
    pub parts_spliced: CounterId,
    /// Broadcast waves that completed with missing hosts.
    pub partial_flushes: CounterId,
    /// Hosts reported missing across all waves.
    pub missing_hosts: CounterId,
    /// Times this LPM entered orphanhood.
    pub orphan_entries: CounterId,
    /// CCS elections this LPM won (became or adopted the role).
    pub ccs_elections: CounterId,
    /// Round-trip time (µs) of recovery probes.
    pub probe_rtt_us: HistId,
    /// Times this LPM started as a crash respawn (1 for a respawned LPM).
    pub restarts: CounterId,
    /// Surviving same-user processes re-adopted after a respawn.
    pub readopted: CounterId,
    /// Mean-time-to-recover (µs): crash stamp to respawned-LPM start.
    pub mttr_us: HistId,
}

impl LpmObs {
    pub(crate) fn new() -> Self {
        // Room for the 11 counters and 3 histograms registered below.
        let mut r = Registry::with_capacity(11, 3);
        let requests = r.counter("rpc.requests");
        let retries = r.counter("rpc.retries");
        let dups_suppressed = r.counter("rpc.dups_suppressed");
        let deadline_refused = r.counter("rpc.deadline_refused");
        let backoff_us = r.hist("rpc.backoff_us");
        let parts_spliced = r.counter("bcast.parts_spliced");
        let partial_flushes = r.counter("bcast.partial_flushes");
        let missing_hosts = r.counter("bcast.missing_hosts");
        let orphan_entries = r.counter("recov.orphan_entries");
        let ccs_elections = r.counter("recov.ccs_elections");
        let probe_rtt_us = r.hist("recov.probe_rtt_us");
        let restarts = r.counter("lpm.restarts");
        let readopted = r.counter("lpm.readopted");
        let mttr_us = r.hist("lpm.mttr_us");
        LpmObs {
            registry: r.into_shared(),
            requests,
            retries,
            dups_suppressed,
            deadline_refused,
            backoff_us,
            parts_spliced,
            partial_flushes,
            missing_hosts,
            orphan_entries,
            ccs_elections,
            probe_rtt_us,
            restarts,
            readopted,
            mttr_us,
        }
    }

    /// Samples the registry into wire rows (name-sorted, deterministic).
    pub(crate) fn rows(&self) -> Vec<MetricRow> {
        let mut rows = Vec::with_capacity(self.registry.len());
        self.registry
            .each(|name, value| rows.push(row(name, value)));
        rows
    }
}

/// Converts registry samples into wire [`MetricRow`]s. Histogram buckets
/// are trimmed of trailing zeros so idle histograms cost a few bytes.
pub fn rows(samples: &[MetricSample]) -> Vec<MetricRow> {
    let value = |s: &MetricSample| match &s.value {
        MetricValue::Counter(v) => row(s.name, MetricRef::Counter(*v)),
        MetricValue::Gauge(v) => row(s.name, MetricRef::Gauge(*v)),
        MetricValue::Hist(h) => row(s.name, MetricRef::Hist(h)),
    };
    samples.iter().map(value).collect()
}

/// A section's wire rows, read from its registry's cells in place: one
/// allocation for the rows, and one more for each histogram with an
/// occupied bucket.
pub fn section_rows(section: &Section<'_>) -> Vec<MetricRow> {
    let mut rows = Vec::with_capacity(section.len());
    section.each(|name, value| rows.push(row(name, value)));
    rows
}

/// One metric as a wire row; a histogram keeps its buckets up to the
/// last occupied one, and an idle one keeps none (and allocates nothing).
fn row(name: &str, value: MetricRef<'_>) -> MetricRow {
    let (kind, value, sum, buckets) = match value {
        MetricRef::Counter(v) => (0, v as i64, 0, Vec::new()),
        MetricRef::Gauge(v) => (1, v, 0, Vec::new()),
        MetricRef::Hist(h) => (2, h.count as i64, h.sum, occupied(h).to_vec()),
    };
    MetricRow {
        name: Name::new(name),
        kind,
        value,
        sum,
        buckets,
    }
}

/// A histogram's buckets up to its last occupied one.
fn occupied(h: &Hist) -> &[u64] {
    let len = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    &h.buckets[..len]
}

/// Renders labelled metric sections as stable text, one metric per line:
/// `label name value` for counters/gauges,
/// `label name count=N sum=S buckets=[..]` for histograms. Sections
/// render in the order given; callers pass them label-sorted. The text
/// is written into one `String`, sized for it first.
pub fn render_metrics(sections: &[(String, Vec<MetricRow>)]) -> String {
    // Room for the widest value: an `i64` or `u64` in decimal.
    const NUM: usize = 20;
    let line = |label: &str, row: &MetricRow| {
        let head = label.len() + 1 + row.name.len() + 1;
        match row.kind {
            2 => head + "count= sum= buckets=[]\n".len() + 2 * NUM + row.buckets.len() * (NUM + 1),
            _ => head + NUM + 1,
        }
    };
    let size = sections
        .iter()
        .flat_map(|(label, rows)| rows.iter().map(move |row| line(label, row)))
        .sum();
    let mut out = String::with_capacity(size);
    for (label, rows) in sections {
        for row in rows {
            match row.kind {
                2 => {
                    let _ = write!(
                        out,
                        "{label} {} count={} sum={}",
                        row.name, row.value, row.sum
                    );
                    let _ = write!(out, " buckets=[");
                    for (i, b) in row.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("]\n");
                }
                _ => {
                    let _ = writeln!(out, "{label} {} {}", row.name, row.value);
                }
            }
        }
    }
    out
}

/// Renders span events as JSONL, one record per line, in emission order.
/// `host_names` maps `HostId` indices to names.
pub fn spans_jsonl(events: &[SpanEvent], host_names: &[String]) -> String {
    let mut out = String::new();
    for ev in events {
        let host = ev
            .host
            .and_then(|h| host_names.get(h.0 as usize))
            .map(String::as_str)
            .unwrap_or("-");
        let phase = match ev.phase {
            SpanPhase::Begin => "B",
            SpanPhase::End => "E",
        };
        let _ = writeln!(
            out,
            "{{\"at_us\":{},\"host\":\"{}\",\"name\":\"{}\",\"corr\":\"{}\",\"phase\":\"{}\"}}",
            ev.at.as_micros(),
            json_escape(host),
            json_escape(ev.name),
            json_escape(&ev.corr),
            phase
        );
    }
    out
}

/// Renders span events as a Chrome `trace_event` JSON document (async
/// begin/end events keyed by the correlation id; one pid per host), ready
/// for `chrome://tracing` / Perfetto.
pub fn spans_chrome(events: &[SpanEvent], host_names: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        let pid = ev.host.map(|h| h.0 as u64 + 1).unwrap_or(0);
        let host = ev
            .host
            .and_then(|h| host_names.get(h.0 as usize))
            .map(String::as_str)
            .unwrap_or("-");
        let ph = match ev.phase {
            SpanPhase::Begin => "b",
            SpanPhase::End => "e",
        };
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"ppm\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":1,\
             \"id\":\"{}\",\"args\":{{\"host\":\"{}\"}}}}",
            json_escape(ev.name),
            ph,
            ev.at.as_micros(),
            pid,
            json_escape(&ev.corr),
            json_escape(host)
        );
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_runtime::ids::HostId;
    use ppm_runtime::time::SimTime;

    #[test]
    fn lpm_obs_samples_to_trimmed_rows() {
        let obs = LpmObs::new();
        obs.registry.inc(obs.retries);
        obs.registry.record(obs.backoff_us, 250_000);
        let rows = obs.rows();
        assert!(rows.iter().any(|r| r.name == "rpc.retries" && r.value == 1));
        let h = rows.iter().find(|r| r.name == "rpc.backoff_us").unwrap();
        assert_eq!(h.kind, 2);
        assert_eq!(h.value, 1);
        assert_eq!(h.sum, 250_000);
        assert!(!h.buckets.is_empty());
        assert_ne!(h.buckets.last(), Some(&0), "trailing zeros trimmed");
        let idle = rows
            .iter()
            .find(|r| r.name == "recov.probe_rtt_us")
            .unwrap();
        assert!(idle.buckets.is_empty(), "idle hist has no buckets");
    }

    #[test]
    fn the_lpm_registry_is_sized_for_what_it_registers() {
        let obs = LpmObs::new();
        assert_eq!(obs.registry.len(), 11 + 3);
    }

    #[test]
    fn render_metrics_is_stable_text() {
        let sections = vec![(
            "calder/100".to_string(),
            vec![
                MetricRow {
                    name: "rpc.requests".into(),
                    kind: 0,
                    value: 3,
                    sum: 0,
                    buckets: vec![],
                },
                MetricRow {
                    name: "rpc.backoff_us".into(),
                    kind: 2,
                    value: 2,
                    sum: 750_000,
                    buckets: vec![0, 0, 1, 1],
                },
            ],
        )];
        let text = render_metrics(&sections);
        assert_eq!(
            text,
            "calder/100 rpc.requests 3\n\
             calder/100 rpc.backoff_us count=2 sum=750000 buckets=[0 0 1 1]\n"
        );
    }

    #[test]
    fn span_exports_are_wellformed() {
        let events = vec![
            SpanEvent {
                at: SimTime::from_millis(1),
                host: Some(HostId(0)),
                name: "req",
                corr: "calder#7".into(),
                phase: SpanPhase::Begin,
            },
            SpanEvent {
                at: SimTime::from_millis(4),
                host: Some(HostId(0)),
                name: "req",
                corr: "calder#7".into(),
                phase: SpanPhase::End,
            },
        ];
        let names = vec!["calder".to_string()];
        let jsonl = spans_jsonl(&events, &names);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"phase\":\"B\""));
        assert!(jsonl.contains("\"corr\":\"calder#7\""));
        let chrome = spans_chrome(&events, &names);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"ph\":\"b\""));
        assert!(chrome.contains("\"ph\":\"e\""));
        assert!(chrome.contains("\"pid\":1"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }
}
