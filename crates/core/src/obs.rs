//! PPM observability: the LPM's metric set, wire conversion, and the
//! exporters behind `ppm-sim --metrics` / `--spans`.
//!
//! Every LPM owns a [`ppm_runtime::obs::Registry`] behind a shared handle
//! (`LpmObs`) and registers it with the world's observability hub at
//! start, so a harness samples every
//! registry at end of run without generating simulated traffic. The same
//! registry is what [`ppm_proto::msg::Op::Metrics`] snapshots remotely:
//! [`rows`] converts samples into wire [`MetricRow`]s.
//!
//! All output is keyed to the deterministic simulation clock, so a
//! same-seed run renders byte-identical metrics and span files (the CI
//! determinism gate diffs them).

use std::fmt::Write as _;

use ppm_proto::types::MetricRow;
use ppm_runtime::obs::SharedRegistry;
use ppm_runtime::obs::{CounterId, HistId, MetricSample, MetricValue, SpanEvent, SpanPhase};

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
        let mut r = ppm_runtime::obs::Registry::new();
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
        rows(&self.registry.snapshot())
    }
}

/// Converts registry samples into wire [`MetricRow`]s. Histogram buckets
/// are trimmed of trailing zeros so idle histograms cost a few bytes.
pub fn rows(samples: &[MetricSample]) -> Vec<MetricRow> {
    samples
        .iter()
        .map(|s| match &s.value {
            MetricValue::Counter(v) => MetricRow {
                name: s.name.to_string(),
                kind: 0,
                value: *v as i64,
                sum: 0,
                buckets: Vec::new(),
            },
            MetricValue::Gauge(v) => MetricRow {
                name: s.name.to_string(),
                kind: 1,
                value: *v,
                sum: 0,
                buckets: Vec::new(),
            },
            MetricValue::Hist(h) => {
                let mut buckets: Vec<u64> = h.buckets.to_vec();
                while buckets.last() == Some(&0) {
                    buckets.pop();
                }
                MetricRow {
                    name: s.name.to_string(),
                    kind: 2,
                    value: h.count as i64,
                    sum: h.sum,
                    buckets,
                }
            }
        })
        .collect()
}

/// Renders labelled metric sections as stable text, one metric per line:
/// `label name value` for counters/gauges,
/// `label name count=N sum=S buckets=[..]` for histograms. Sections
/// render in the order given; callers pass them label-sorted.
pub fn render_metrics(sections: &[(String, Vec<MetricRow>)]) -> String {
    let mut out = String::new();
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
