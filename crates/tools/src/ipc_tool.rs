//! IPC activity tracing and analysis — one of the tools Section 7 plans
//! ("one for IPC activity tracing and analysis").
//!
//! Two data sources: per-connection statistics from the substrate (what a
//! kernel instrumentation system à la METRIC would export) and the LPM's
//! `msg-sent`/`msg-recv` history events for traced processes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ppm_proto::types::HistoryRecord;
use ppm_simos::world::World;

/// One row of the connection report.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnReport {
    /// `host:pid` of the initiator.
    pub client: String,
    /// `host:pid` of the acceptor.
    pub server: String,
    /// Server port.
    pub port: u16,
    /// Messages each way (to server, to client).
    pub msgs: (u64, u64),
    /// Bytes each way.
    pub bytes: (u64, u64),
    /// Whether the connection is still open.
    pub open: bool,
}

/// Extracts the connection table from the world.
pub fn connection_report(world: &World) -> Vec<ConnReport> {
    world
        .core()
        .connections()
        .map(|c| {
            let name = |(h, p): (ppm_simos::ids::HostId, ppm_simos::ids::Pid)| {
                format!("{}:{}", world.core().host_name(h), p)
            };
            ConnReport {
                client: name(c.client),
                server: name(c.server),
                port: c.port.0,
                msgs: (c.stats.msgs_to_server, c.stats.msgs_to_client),
                bytes: (c.stats.bytes_to_server, c.stats.bytes_to_client),
                open: c.stats.closed_at.is_none(),
            }
        })
        .collect()
}

/// Per-process message activity derived from LPM history events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcIpcActivity {
    /// Messages sent.
    pub sent: u64,
    /// Messages received.
    pub received: u64,
}

/// Aggregates `msg-sent`/`msg-recv` history events per process.
pub fn activity_from_history(events: &[HistoryRecord]) -> BTreeMap<String, ProcIpcActivity> {
    let mut map: BTreeMap<String, ProcIpcActivity> = BTreeMap::new();
    for e in events {
        let entry = map.entry(e.gpid.to_string()).or_default();
        match e.kind.as_str() {
            "msg-sent" => entry.sent += 1,
            "msg-recv" => entry.received += 1,
            _ => {}
        }
    }
    map.retain(|_, a| a.sent + a.received > 0);
    map
}

/// Renders the connection report.
pub fn render_connections(rows: &[ConnReport], title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>6} {:>12} {:>14} {:>6}",
        "client", "server", "port", "msgs(>/<)", "bytes(>/<)", "state"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<18} {:>6} {:>5}/{:<6} {:>6}/{:<7} {:>6}",
            r.client,
            r.server,
            r.port,
            r.msgs.0,
            r.msgs.1,
            r.bytes.0,
            r.bytes.1,
            if r.open { "open" } else { "closed" }
        );
    }
    let total_msgs: u64 = rows.iter().map(|r| r.msgs.0 + r.msgs.1).sum();
    let total_bytes: u64 = rows.iter().map(|r| r.bytes.0 + r.bytes.1).sum();
    let _ = writeln!(
        out,
        "{} connection(s), {total_msgs} messages, {total_bytes} bytes",
        rows.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_proto::types::Gpid;

    fn hist(pid: u32, kind: &str) -> HistoryRecord {
        HistoryRecord {
            at_us: 0,
            gpid: Gpid::new("h", pid),
            kind: kind.into(),
            detail: String::new(),
        }
    }

    #[test]
    fn activity_counts_per_process() {
        let events = vec![
            hist(1, "msg-sent"),
            hist(1, "msg-sent"),
            hist(1, "msg-recv"),
            hist(2, "msg-recv"),
            hist(3, "exit"),
        ];
        let act = activity_from_history(&events);
        assert_eq!(act.len(), 2, "processes without IPC excluded");
        assert_eq!(
            act["<h, 1>"],
            ProcIpcActivity {
                sent: 2,
                received: 1
            }
        );
        assert_eq!(
            act["<h, 2>"],
            ProcIpcActivity {
                sent: 0,
                received: 1
            }
        );
    }

    #[test]
    fn render_includes_totals() {
        let rows = vec![ConnReport {
            client: "a:1".into(),
            server: "b:2".into(),
            port: 40,
            msgs: (3, 2),
            bytes: (300, 200),
            open: true,
        }];
        let out = render_connections(&rows, "ipc report");
        assert!(out.contains("ipc report"));
        assert!(out.contains("a:1"));
        assert!(out.contains("open"));
        assert!(out.contains("1 connection(s), 5 messages, 500 bytes"));
    }
}
