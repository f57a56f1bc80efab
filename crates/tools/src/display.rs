//! The display tool — first on Section 7's wish list ("In particular a
//! display tool"). One call produces a dashboard of the user's entire
//! PPM: per-host LPM status (load, managed processes, sibling channels,
//! CCS view) plus the genealogical forest of the computations.

use std::fmt::Write as _;

use ppm_core::client::ToolStep;
use ppm_harness::harness::{HarnessError, PpmHarness, Runtime};
use ppm_proto::msg::{Op, Reply};
use ppm_proto::types::{Name, ProcRecord};
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::HostId;
use ppm_simos::ids::Uid;
use ppm_simos::World;

use crate::forest::Forest;
use crate::snapshot::indent;

/// Host liveness as the runtime sees it: whether the host is powered
/// and whether it has ever been power-cycled (only the sim's hosts are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Powered, never crashed.
    Up,
    /// Powered off (crashed, not yet restarted).
    Down,
    /// Powered, but rebooted at least once since the world started.
    Restarted,
}

impl std::fmt::Display for Liveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // pad, not write_str: honour width flags in table columns.
        f.pad(match self {
            Liveness::Up => "up",
            Liveness::Down => "down",
            Liveness::Restarted => "restarted",
        })
    }
}

/// One host's row of the dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStatus {
    /// Host name.
    pub host: Name,
    /// Power state.
    pub liveness: Liveness,
    /// Load average × 1000.
    pub load_milli: u32,
    /// Managed live processes.
    pub managed: u32,
    /// Sibling channel peers.
    pub siblings: Vec<Name>,
    /// CCS as this LPM sees it.
    pub ccs: Name,
    /// CCS epoch.
    pub epoch: u64,
    /// Whether the host answered at all.
    pub reachable: bool,
}

/// Collects per-host status for every host in the network, tolerating
/// unreachable ones (they appear with `reachable = false`).
///
/// All the status requests go out through one tool with a pipeline
/// window covering the whole host list, so slow hosts are probed
/// concurrently instead of serializing the dashboard.
///
/// # Errors
///
/// Only infrastructure failures (tool could not run at all) propagate.
pub fn gather_status<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
) -> Result<Vec<HostStatus>, HarnessError> {
    let names = ppm.host_names().into_iter().enumerate();
    let hosts: Vec<(String, Liveness)> = names
        .map(|(i, name)| {
            let live = match ppm.power(HostId(i as u32)) {
                (false, _) => Liveness::Down,
                (true, boots) if boots > 1 => Liveness::Restarted,
                (true, _) => Liveness::Up,
            };
            (name, live)
        })
        .collect();
    let script: Vec<ToolStep> = hosts
        .iter()
        .map(|(h, _)| ToolStep::new(h.clone(), Op::Status))
        .collect();
    let window = script.len().max(1);
    // Tolerate a partial outcome (e.g. the tool hit its own deadline):
    // hosts without a reply simply show as unreachable.
    let outcome = match ppm.run_tool_pipelined(from_host, uid, script, window, WAIT) {
        Ok(outcome) => outcome,
        Err(HarnessError::Timeout) => {
            return Ok(hosts.iter().map(|(h, l)| dark_row(h, *l)).collect())
        }
        Err(e) => return Err(e),
    };
    let mut rows = Vec::new();
    for (i, (queried, live)) in hosts.iter().enumerate() {
        match outcome.reply(i) {
            Some(Reply::Status {
                host,
                load_milli,
                managed,
                siblings,
                ccs,
                epoch,
            }) => {
                rows.push(HostStatus {
                    host: host.clone(),
                    liveness: *live,
                    load_milli: *load_milli,
                    managed: *managed,
                    siblings: siblings.clone(),
                    ccs: ccs.clone(),
                    epoch: *epoch,
                    reachable: true,
                });
            }
            _ => rows.push(dark_row(queried, *live)),
        }
    }
    Ok(rows)
}

/// Wait budget for the dashboard sweep.
const WAIT: SimDuration = SimDuration::from_secs(60);

fn dark_row(host: &str, liveness: Liveness) -> HostStatus {
    HostStatus {
        host: host.into(),
        liveness,
        load_milli: 0,
        managed: 0,
        siblings: Vec::new(),
        ccs: Name::default(),
        epoch: 0,
        reachable: false,
    }
}

/// What a dashboard shows: the status rows, the user's managed
/// processes and the hosts the snapshot sweep missed.
pub type Gathered = (Vec<HostStatus>, Vec<ProcRecord>, Vec<Name>);

/// Gathers what a dashboard shows, on any runtime.
///
/// # Errors
///
/// Propagates snapshot/tool failures.
pub fn gather<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
) -> Result<Gathered, HarnessError> {
    let rows = gather_status(ppm, from_host, uid)?;
    let (records, missing) = ppm.snapshot_partial(from_host, uid, "*")?;
    Ok((rows, records, missing))
}

/// Renders the full dashboard on any runtime: status table plus
/// computation forest. A sim world with a network model adds its
/// per-link section ([`net_section`]).
///
/// # Errors
///
/// Propagates snapshot/tool failures.
pub fn dashboard<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
) -> Result<String, HarnessError> {
    let (rows, records, missing) = gather(ppm, from_host, uid)?;
    let forest = Forest::build(records);
    Ok(render_dashboard(from_host, uid, &rows, &forest, &missing))
}

/// The dashboard's network section, or `None` when the sim world runs
/// the flat wire law (which renders exactly the pre-netmodel bytes).
#[must_use]
pub fn net_section<R: Runtime + AsRef<World> + AsMut<World>>(
    ppm: &PpmHarness<R>,
) -> Option<String> {
    let (name, links) = net_rows(ppm)?;
    Some(render_net(&name, &links, NET_TOP_LINKS))
}

/// How many of the busiest links the dashboard's network section shows.
pub const NET_TOP_LINKS: usize = 8;

/// One link's row of the dashboard's network section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLinkRow {
    /// Link name as declared in the topology spec.
    pub name: String,
    /// Total bytes admitted.
    pub bytes: u64,
    /// Transfers admitted.
    pub sends: u64,
    /// Transfers that saw at least one in-flight competitor.
    pub congested: u64,
    /// Total queueing penalty accrued, µs.
    pub queue_us: u64,
    /// Counts toward bisection bandwidth (`core` flag in the spec).
    pub core: bool,
    /// Administratively up (not cut by a fault plan).
    pub up: bool,
}

/// Per-link traffic rows, busiest first (ties keep declaration order),
/// or `None` when the world runs the flat wire law (no net model).
#[must_use]
pub fn net_rows<R: Runtime + AsRef<World> + AsMut<World>>(
    ppm: &PpmHarness<R>,
) -> Option<(String, Vec<NetLinkRow>)> {
    let net = ppm.world().net()?;
    let mut rows: Vec<NetLinkRow> = net
        .graph
        .links
        .iter()
        .zip(net.link_stats())
        .map(|(l, (name, s))| NetLinkRow {
            name: name.to_string(),
            bytes: s.bytes,
            sends: s.sends,
            congested: s.congested,
            queue_us: s.queue_us,
            core: l.core,
            up: l.up,
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.bytes));
    Some((net.name.clone(), rows))
}

/// Renders the network section: totals plus the `max` busiest links.
#[must_use]
pub fn render_net(name: &str, rows: &[NetLinkRow], max: usize) -> String {
    let mut out = String::new();
    let sends: u64 = rows.iter().map(|r| r.sends).sum();
    let congested: u64 = rows.iter().map(|r| r.congested).sum();
    let bisection: u64 = rows.iter().filter(|r| r.core).map(|r| r.bytes).sum();
    let _ = writeln!(
        out,
        "\nnetwork {name}: {} link(s), {sends} traversal(s), {congested} congested, \
         {bisection} bisection byte(s)",
        rows.len(),
    );
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>7} {:>9} {:>9}",
        "link", "bytes", "sends", "congested", "queue_ms"
    );
    for r in rows.iter().take(max) {
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>7} {:>9} {:>9.2}{}{}",
            r.name,
            r.bytes,
            r.sends,
            r.congested,
            r.queue_us as f64 / 1000.0,
            if r.core { "  core" } else { "" },
            if r.up { "" } else { "  DOWN" },
        );
    }
    if rows.len() > max {
        let _ = writeln!(out, "  ... and {} more link(s)", rows.len() - max);
    }
    out
}

/// Renders the dashboard from already-gathered pieces. `missing` lists
/// hosts the snapshot sweep never heard from; a non-empty list is
/// surfaced as a warning so a partial result is never mistaken for the
/// whole picture.
pub fn render_dashboard(
    from_host: &str,
    uid: Uid,
    rows: &[HostStatus],
    forest: &Forest,
    missing: &[Name],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "PPM display for {uid} (from {from_host})");
    let _ = writeln!(
        out,
        "{:<12} {:<10} {:>6} {:>8}  {:<10} {:>5}  siblings",
        "host", "state", "load", "managed", "ccs", "epoch"
    );
    for r in rows {
        if r.reachable {
            let _ = writeln!(
                out,
                "{:<12} {:<10} {:>6.2} {:>8}  {:<10} {:>5}  {}",
                r.host,
                r.liveness,
                r.load_milli as f64 / 1000.0,
                r.managed,
                r.ccs,
                r.epoch,
                r.siblings.join(", ")
            );
        } else {
            let _ = writeln!(
                out,
                "{:<12} {:<10} {:>6}  (unreachable)",
                r.host, r.liveness, "-"
            );
        }
    }
    let _ = writeln!(
        out,
        "\ncomputations: {} tree(s), {} process(es) across {}",
        forest.tree_count(),
        forest.len(),
        forest.hosts().join(", ")
    );
    if !missing.is_empty() {
        let _ = writeln!(
            out,
            "  warning: snapshot incomplete, no answer from {}",
            missing.join(", ")
        );
    }
    let mut failure_roots = 0;
    for (depth, node) in forest.walk() {
        let marker = match depth {
            0 if forest.is_failure_root(&node.record.gpid) => {
                failure_roots += 1;
                "!"
            }
            0 => "*",
            _ => "-",
        };
        indent(&mut out, "  ", depth + 1);
        let _ = writeln!(
            out,
            "{marker} {} {} ({})",
            node.record.gpid, node.record.command, node.record.state
        );
    }
    if failure_roots > 0 {
        let _ = writeln!(
            out,
            "  !: {failure_roots} root(s) created by a failure (re-adopted, \
             logical parent unknown)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::config::PpmConfig;
    use ppm_simnet::time::SimDuration;
    use ppm_simnet::topology::CpuClass;

    const USER: Uid = Uid(100);

    #[test]
    fn dashboard_covers_all_hosts_and_trees() {
        let mut ppm = PpmHarness::builder()
            .host("x", CpuClass::Vax780)
            .host("y", CpuClass::Vax750)
            .link("x", "y")
            .user(USER, 7, &["x"], PpmConfig::default())
            .build();
        let root = ppm
            .spawn_remote("x", USER, "x", "master", None, None)
            .unwrap();
        ppm.spawn_remote("x", USER, "y", "worker", Some(root), None)
            .unwrap();

        let out = dashboard(&mut ppm, "x", USER).unwrap();
        assert!(out.contains("PPM display"));
        assert!(out.contains("x "));
        assert!(out.contains("y "));
        assert!(out.contains("master"));
        assert!(out.contains("1 tree(s)"));
        assert!(out.contains("2 process(es)"));
    }

    #[test]
    fn render_warns_on_partial_snapshot() {
        let rows = vec![dark_row("y", Liveness::Down)];
        let forest = Forest::build(Vec::new());
        let missing = vec![Name::from("y")];
        let out = render_dashboard("x", USER, &rows, &forest, &missing);
        assert!(out.contains("snapshot incomplete"), "{out}");
        assert!(out.contains("no answer from y"), "{out}");
        // A complete sweep renders no warning.
        let out = render_dashboard("x", USER, &rows, &forest, &[]);
        assert!(!out.contains("snapshot incomplete"), "{out}");
    }

    #[test]
    fn liveness_column_tracks_crash_and_restart() {
        let mut ppm = PpmHarness::builder()
            .host("x", CpuClass::Vax780)
            .host("y", CpuClass::Vax750)
            .link("x", "y")
            .user(USER, 7, &["x"], PpmConfig::fast_recovery())
            .build();
        let y = ppm.host("y").unwrap();
        ppm.world_mut()
            .schedule_crash(y, SimDuration::from_millis(10));
        ppm.run_for(SimDuration::from_secs(1));
        let rows = gather_status(&mut ppm, "x", USER).unwrap();
        let yrow = rows.iter().find(|r| r.host == "y").unwrap();
        assert_eq!(yrow.liveness, Liveness::Down);

        ppm.world_mut()
            .schedule_restart(y, SimDuration::from_millis(10));
        ppm.run_for(SimDuration::from_secs(2));
        let rows = gather_status(&mut ppm, "x", USER).unwrap();
        let yrow = rows.iter().find(|r| r.host == "y").unwrap();
        assert_eq!(yrow.liveness, Liveness::Restarted);
        let xrow = rows.iter().find(|r| r.host == "x").unwrap();
        assert_eq!(xrow.liveness, Liveness::Up);
    }

    #[test]
    fn failure_created_roots_are_marked() {
        use ppm_proto::types::{Gpid, ProcRecord, WireProcState};
        let rec = |pid: u32, ppid: u32| ProcRecord {
            gpid: Gpid::new("x", pid),
            ppid,
            logical_parent: None,
            command: "job".into(),
            state: WireProcState::Running,
            started_us: 0,
            cpu_us: 0,
            adopted: true,
        };
        // pid 9: re-adopted survivor, real parent lost (ppid 0 marker);
        // pid 10: normal root created by its LPM (pid 4).
        let forest = Forest::build(vec![rec(9, 0), rec(10, 4)]);
        let out = render_dashboard("x", USER, &[], &forest, &[]);
        assert!(out.contains("! <x, 9>"), "{out}");
        assert!(out.contains("* <x, 10>"), "{out}");
        assert!(out.contains("1 root(s) created by a failure"), "{out}");
    }

    #[test]
    fn network_section_appears_only_with_a_topology_model() {
        use ppm_simnet::topology::NetSpec;
        let build = |topo: Option<NetSpec>| {
            let mut b = PpmHarness::builder()
                .host("x", CpuClass::Vax780)
                .host("y", CpuClass::Vax750)
                .link("x", "y")
                .user(USER, 7, &["x"], PpmConfig::default());
            if let Some(t) = topo {
                b = b.topology(t);
            }
            b.build()
        };
        let mut flat = build(None);
        flat.spawn_remote("x", USER, "y", "w", None, None).unwrap();
        let out = dashboard(&mut flat, "x", USER).unwrap();
        assert!(!out.contains("network "), "{out}");
        assert!(net_rows(&flat).is_none());
        assert!(net_section(&flat).is_none());

        let spec = NetSpec::preset("full-mesh", &["x".into(), "y".into()]).unwrap();
        let mut routed = build(Some(spec));
        routed
            .spawn_remote("x", USER, "y", "w", None, None)
            .unwrap();
        let out = net_section(&routed).unwrap();
        assert!(out.contains("network full-mesh: 1 link(s)"), "{out}");
        assert!(out.contains("queue_ms"), "{out}");
        let (_, rows) = net_rows(&routed).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].bytes > 0, "spawn traffic crossed the link");
        assert!(rows[0].up);
    }

    #[test]
    fn net_section_sorts_busiest_first_and_truncates() {
        let row = |name: &str, bytes: u64, core: bool| NetLinkRow {
            name: name.into(),
            bytes,
            sends: 1,
            congested: 0,
            queue_us: 1500,
            core,
            up: bytes != 7,
        };
        let rows = vec![row("b", 99, true), row("a", 10, false), row("c", 7, false)];
        let out = render_net("t", &rows, 2);
        assert!(out.contains("3 link(s), 3 traversal(s)"), "{out}");
        assert!(out.contains("99 bisection byte(s)"), "{out}");
        assert!(out.contains("core"), "{out}");
        assert!(out.contains("... and 1 more link(s)"), "{out}");
        assert!(!out.contains("c "), "truncated row rendered: {out}");
    }

    #[test]
    fn unreachable_hosts_are_marked() {
        let mut ppm = PpmHarness::builder()
            .host("x", CpuClass::Vax780)
            .host("y", CpuClass::Vax750)
            .link("x", "y")
            .user(USER, 7, &["x"], PpmConfig::fast_recovery())
            .build();
        ppm.spawn_remote("x", USER, "y", "w", None, None).unwrap();
        let y = ppm.host("y").unwrap();
        ppm.world_mut()
            .schedule_crash(y, SimDuration::from_millis(10));
        ppm.run_for(SimDuration::from_secs(2));
        let rows = gather_status(&mut ppm, "x", USER).unwrap();
        let yrow = rows.iter().find(|r| r.host == "y").unwrap();
        assert!(!yrow.reachable);
        let xrow = rows.iter().find(|r| r.host == "x").unwrap();
        assert!(xrow.reachable);
    }
}
