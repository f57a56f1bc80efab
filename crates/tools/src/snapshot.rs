//! The snapshot display tool.
//!
//! "Our present tools include snapshots, with basic process control
//! functionalities (stop a process, execute it in the foreground, execute
//! it in the background, kill it)." This module renders the assembled
//! forest the way Figure 1 draws it, and provides the control verbs.

use std::fmt::Write as _;

use ppm_harness::harness::{HarnessError, PpmHarness, Runtime};
use ppm_proto::msg::ControlAction;
use ppm_proto::types::{Gpid, Name, ProcRecord, WireProcState};
use ppm_simos::ids::Uid;
use ppm_simos::world::World;

use crate::forest::Forest;

/// Renders a snapshot as an ASCII forest grouped per tree, with states
/// and host boundaries visible — the Figure 1 display.
///
/// # Examples
///
/// ```
/// use ppm_proto::types::{Gpid, ProcRecord, WireProcState};
///
/// let art = ppm_tools::snapshot::render(
///     vec![ProcRecord {
///         gpid: Gpid::new("calder", 4),
///         ppid: 1,
///         logical_parent: None,
///         command: "simulate".into(),
///         state: WireProcState::Stopped,
///         started_us: 0,
///         cpu_us: 0,
///         adopted: true,
///     }],
///     "my snapshot",
/// );
/// assert!(art.contains("<calder, 4> simulate [stopped]"));
/// ```
pub fn render(records: Vec<ProcRecord>, title: &str) -> String {
    let forest = Forest::build(records);
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{} process(es) in {} tree(s) across hosts: {}",
        forest.len(),
        forest.tree_count(),
        forest.hosts().join(", ")
    );
    for root in forest.roots() {
        for (depth, node) in forest.walk(root) {
            let indent = "   ".repeat(depth);
            let marker = if depth == 0 { "*" } else { "└─" };
            let state = match node.record.state {
                WireProcState::Dead => " [exited]",
                WireProcState::Stopped => " [stopped]",
                WireProcState::Embryo => " [embryo]",
                WireProcState::Running => "",
            };
            let cross = match (&node.record.logical_parent, depth) {
                (Some(lp), d) if d > 0 && lp.host != node.record.gpid.host => "  <- remote child",
                _ => "",
            };
            let _ = writeln!(
                out,
                "{indent}{marker} {} {}{state}{cross}",
                node.record.gpid, node.record.command
            );
        }
    }
    out
}

/// Renders a snapshot like [`render`]; a partial sweep (`missing` names
/// the hosts that sent no slice) gets a warning footer, so an incomplete
/// forest is never mistaken for the whole computation.
pub fn render_partial(records: Vec<ProcRecord>, title: &str, missing: &[Name]) -> String {
    let mut out = render(records, title);
    if !missing.is_empty() {
        let _ = writeln!(
            out,
            "! partial result: no answer from {}",
            missing.join(", ")
        );
    }
    out
}

/// The interactive snapshot tool: display plus the four control verbs.
#[derive(Debug)]
pub struct SnapshotTool<'a, R: Runtime = World> {
    ppm: &'a mut PpmHarness<R>,
    from_host: String,
    uid: Uid,
}

impl<'a, R: Runtime> SnapshotTool<'a, R> {
    /// Creates a tool session for a user at a host.
    pub fn new(ppm: &'a mut PpmHarness<R>, from_host: impl Into<String>, uid: Uid) -> Self {
        SnapshotTool {
            ppm,
            from_host: from_host.into(),
            uid,
        }
    }

    /// Takes and renders a snapshot of `dest` (host name or `"*"`). A
    /// partial sweep (some hosts unreachable) renders a warning footer
    /// naming the hosts whose slices are absent.
    ///
    /// # Errors
    ///
    /// Propagates harness/tool errors.
    pub fn show(&mut self, dest: &str) -> Result<String, HarnessError> {
        let (records, missing) = self.ppm.snapshot_partial(&self.from_host, self.uid, dest)?;
        let title = format!("PPM snapshot of {dest} for {}", self.uid);
        Ok(render_partial(records, &title, &missing))
    }

    /// Stops a process.
    ///
    /// # Errors
    ///
    /// Propagates harness/tool errors.
    pub fn stop(&mut self, target: &Gpid) -> Result<(), HarnessError> {
        self.ppm
            .control(&self.from_host, self.uid, target, ControlAction::Stop)
    }

    /// Continues a process in the foreground.
    ///
    /// # Errors
    ///
    /// Propagates harness/tool errors.
    pub fn foreground(&mut self, target: &Gpid) -> Result<(), HarnessError> {
        self.ppm
            .control(&self.from_host, self.uid, target, ControlAction::Foreground)
    }

    /// Continues a process in the background.
    ///
    /// # Errors
    ///
    /// Propagates harness/tool errors.
    pub fn background(&mut self, target: &Gpid) -> Result<(), HarnessError> {
        self.ppm
            .control(&self.from_host, self.uid, target, ControlAction::Background)
    }

    /// Kills a process.
    ///
    /// # Errors
    ///
    /// Propagates harness/tool errors.
    pub fn kill(&mut self, target: &Gpid) -> Result<(), HarnessError> {
        self.ppm
            .control(&self.from_host, self.uid, target, ControlAction::Kill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(host: &str, pid: u32, logical: Option<(&str, u32)>, state: WireProcState) -> ProcRecord {
        ProcRecord {
            gpid: Gpid::new(host, pid),
            ppid: 1,
            logical_parent: logical.map(|(h, p)| Gpid::new(h, p)),
            command: format!("cmd{pid}").into(),
            state,
            started_us: 0,
            cpu_us: 0,
            adopted: true,
        }
    }

    #[test]
    fn render_shows_tree_structure_and_states() {
        let out = render(
            vec![
                rec("a", 10, None, WireProcState::Dead),
                rec("b", 20, Some(("a", 10)), WireProcState::Running),
                rec("c", 30, Some(("a", 10)), WireProcState::Stopped),
            ],
            "test snapshot",
        );
        assert!(out.contains("test snapshot"));
        assert!(out.contains("3 process(es) in 1 tree(s)"));
        assert!(out.contains("<a, 10> cmd10 [exited]"));
        assert!(out.contains("<b, 20> cmd20"));
        assert!(out.contains("<c, 30> cmd30 [stopped]"));
        assert!(out.contains("remote child"));
        // Children indented under the root.
        let root_line = out.lines().position(|l| l.contains("<a, 10>")).unwrap();
        let child_line = out.lines().position(|l| l.contains("<b, 20>")).unwrap();
        assert!(child_line > root_line);
        assert!(out.lines().nth(child_line).unwrap().starts_with("   "));
    }

    #[test]
    fn render_empty_snapshot() {
        let out = render(vec![], "empty");
        assert!(out.contains("0 process(es) in 0 tree(s)"));
    }
}
