//! The metrics tool — pulls a live LPM's metrics registry over the wire.
//!
//! Where `ppm-sim --metrics` samples every registry out-of-band at end of
//! run, this tool asks a *running* LPM for its counters through the same
//! authenticated request path as every other operation
//! ([`ppm_proto::msg::Op::Metrics`]). The LPM answers with a
//! [`ppm_proto::msg::Reply::Metrics`] in the `Resp` every reply rides, so
//! the registry arrives timestamped on the answering host's sim clock.

use ppm_core::client::ToolStep;
use ppm_harness::harness::{HarnessError, PpmHarness, Runtime};
use ppm_proto::msg::{Op, Reply};
use ppm_proto::types::MetricRow;
use ppm_simnet::time::SimDuration;
use ppm_simos::ids::Uid;

/// One LPM's pulled registry.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMetrics {
    /// The answering host.
    pub host: String,
    /// The answering host's sim clock when it sampled the registry (µs).
    pub at_us: u64,
    /// Name-sorted metric rows.
    pub rows: Vec<MetricRow>,
}

/// Pulls the metrics registry of the LPM on `dest`.
///
/// # Errors
///
/// Tool/LPM/timeout errors as [`HarnessError`].
pub fn pull<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
    dest: &str,
) -> Result<HostMetrics, HarnessError> {
    let (host, at_us, rows) = ppm.metrics_pull(from_host, uid, dest)?;
    Ok(HostMetrics { host, at_us, rows })
}

/// Wait budget for the all-hosts sweep.
const WAIT: SimDuration = SimDuration::from_secs(60);

/// Pulls every host's registry through one pipelined tool, tolerating
/// unreachable hosts (they are simply absent from the result).
///
/// # Errors
///
/// Only infrastructure failures (the tool could not run at all)
/// propagate.
pub fn pull_all<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
) -> Result<Vec<HostMetrics>, HarnessError> {
    let hosts = ppm.host_names();
    let script: Vec<ToolStep> = hosts
        .iter()
        .map(|h| ToolStep::new(h.clone(), Op::Metrics))
        .collect();
    let window = script.len().max(1);
    let outcome = match ppm.run_tool_pipelined(from_host, uid, script, window, WAIT) {
        Ok(outcome) => outcome,
        Err(HarnessError::Timeout) => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for i in 0..hosts.len() {
        if let Some(Reply::Metrics { host, at_us, rows }) = outcome.reply(i) {
            out.push(HostMetrics {
                host: host.clone(),
                at_us: *at_us,
                rows: rows.clone(),
            });
        }
    }
    Ok(out)
}

/// Renders pulled registries in the same stable text format as
/// `ppm-sim --metrics`, one section per host.
pub fn report(pulls: &[HostMetrics]) -> String {
    let sections: Vec<(String, Vec<MetricRow>)> = pulls
        .iter()
        .map(|p| (p.host.clone(), p.rows.clone()))
        .collect();
    ppm_core::obs::render_metrics(&sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::config::PpmConfig;
    use ppm_simnet::topology::CpuClass;

    const USER: Uid = Uid(100);

    fn harness() -> PpmHarness {
        PpmHarness::builder()
            .host("a", CpuClass::Vax780)
            .host("b", CpuClass::Vax750)
            .link("a", "b")
            .user(USER, 7, &["a"], PpmConfig::default())
            .build()
    }

    #[test]
    fn remote_pull_reflects_lpm_activity() {
        let mut ppm = harness();
        // Generate request traffic through b's LPM.
        ppm.spawn_remote("a", USER, "b", "w", None, None).unwrap();

        let m = pull(&mut ppm, "a", USER, "b").unwrap();
        assert_eq!(m.host, "b");
        assert!(m.at_us > 0);
        let req = m.rows.iter().find(|r| r.name == "rpc.requests").unwrap();
        assert_eq!(req.kind, 0);
        assert!(req.value >= 1, "spawn must count as a request: {m:?}");
    }

    #[test]
    fn pull_all_covers_every_host_and_renders() {
        let mut ppm = harness();
        ppm.spawn_remote("a", USER, "b", "w", None, None).unwrap();

        let pulls = pull_all(&mut ppm, "a", USER).unwrap();
        let mut hosts: Vec<&str> = pulls.iter().map(|p| p.host.as_str()).collect();
        hosts.sort_unstable();
        assert_eq!(hosts, vec!["a", "b"]);

        let text = report(&pulls);
        assert!(text.contains("rpc.requests"), "{text}");
        assert!(text
            .lines()
            .all(|l| l.starts_with("a ") || l.starts_with("b ")));
    }
}
