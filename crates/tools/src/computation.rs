//! Whole-computation operations.
//!
//! The paper's introduction motivates "user facilities for locating the
//! execution sites of a distributed computation and broadcasting, say, a
//! software interrupt to stop execution". This tool implements exactly
//! that: locate every member of the computation rooted at a process
//! (via a distributed snapshot and the assembled forest), then deliver a
//! control action to each member through the PPM.

use ppm_core::client::ToolStep;
use ppm_harness::harness::{HarnessError, PpmHarness, Runtime};
use ppm_proto::msg::{ControlAction, ErrCode, Op, Reply};
use ppm_proto::types::{Gpid, Name, WireProcState};
use ppm_simnet::time::SimDuration;
use ppm_simos::ids::Uid;

use crate::forest::Forest;

/// Where the members of a computation execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationSites {
    /// The root.
    pub root: Gpid,
    /// Every live member (root included, when alive), sorted.
    pub members: Vec<Gpid>,
    /// The distinct hosts involved, sorted.
    pub hosts: Vec<String>,
    /// Hosts the locating snapshot never heard from — members executing
    /// there, if any, are unknown. Empty for a complete sweep.
    pub unreachable: Vec<Name>,
}

/// Locates the live members of the computation rooted at `root`.
///
/// A partial sweep (some hosts down or cut off) still succeeds: the
/// members found are returned and the silent hosts are listed in
/// [`ComputationSites::unreachable`] so the caller knows the answer may
/// be incomplete.
///
/// # Errors
///
/// Snapshot errors as [`HarnessError`]; an unknown root yields an empty
/// member list rather than an error (the computation may have ended).
pub fn locate<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
    root: &Gpid,
) -> Result<ComputationSites, HarnessError> {
    let (records, unreachable) = ppm.snapshot_partial(from_host, uid, "*")?;
    let forest = Forest::build(records);
    let mut members = Vec::new();
    for (_, node) in forest.walk_from(root) {
        if node.record.state != WireProcState::Dead {
            members.push(node.record.gpid.clone());
        }
    }
    members.sort();
    let mut hosts: Vec<String> = members.iter().map(|g| g.host.to_string()).collect();
    hosts.sort();
    hosts.dedup();
    Ok(ComputationSites {
        root: root.clone(),
        members,
        hosts,
        unreachable,
    })
}

/// Delivers `action` to every live member of the computation rooted at
/// `root` — the "broadcast a software interrupt" facility. Returns how
/// many members were signalled.
///
/// Members that disappear between the locating snapshot and the delivery
/// are skipped (their error is tolerated); other errors propagate. When
/// the locating snapshot was partial, members on the unreachable hosts
/// are unknown and therefore not signalled — use [`locate`] first if you
/// need to know the sweep was complete.
///
/// # Errors
///
/// Snapshot/tool failures as [`HarnessError`].
pub fn signal_computation<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    from_host: &str,
    uid: Uid,
    root: &Gpid,
    action: ControlAction,
) -> Result<usize, HarnessError> {
    let sites = locate(ppm, from_host, uid, root)?;
    if sites.members.is_empty() {
        return Ok(0);
    }
    // One tool delivers the whole interrupt wave: all control requests go
    // out pipelined on a single LPM connection instead of one tool run
    // per member.
    let script: Vec<ToolStep> = sites
        .members
        .iter()
        .map(|m| ToolStep::new(m.host.to_string(), Op::Control { pid: m.pid, action }))
        .collect();
    let window = script.len();
    let wait = SimDuration::from_secs(60);
    let outcome = ppm.run_tool_pipelined(from_host, uid, script, window, wait)?;
    if let Some(err) = outcome.error {
        return Err(HarnessError::Tool(err));
    }
    let mut delivered = 0;
    for (i, member) in sites.members.iter().enumerate() {
        match outcome.reply(i) {
            Some(Reply::Ok) => delivered += 1,
            Some(Reply::Err {
                code: ErrCode::NoSuchProcess,
                ..
            }) => {
                // Raced with the process's own exit; consistent with the
                // paper's on-demand, best-effort administration.
            }
            Some(Reply::Err { code, detail }) => {
                return Err(HarnessError::Lpm(format!("{code:?}: {detail} ({member})")));
            }
            _ => return Err(HarnessError::UnexpectedReply),
        }
    }
    Ok(delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::config::PpmConfig;
    use ppm_simnet::fault::FaultKind;
    use ppm_simnet::time::SimDuration;
    use ppm_simnet::topology::CpuClass;

    const USER: Uid = Uid(100);

    fn harness() -> PpmHarness {
        PpmHarness::builder()
            .host("a", CpuClass::Vax780)
            .host("b", CpuClass::Vax750)
            .host("c", CpuClass::Sun2)
            .link("a", "b")
            .link("b", "c")
            .user(USER, 7, &["a"], PpmConfig::default())
            .build()
    }

    fn build_computation(ppm: &mut PpmHarness) -> (Gpid, Vec<Gpid>) {
        let root = ppm
            .spawn_remote("a", USER, "a", "root", None, None)
            .unwrap();
        let w1 = ppm
            .spawn_remote("a", USER, "b", "w1", Some(root.clone()), None)
            .unwrap();
        let w2 = ppm
            .spawn_remote("a", USER, "c", "w2", Some(root.clone()), None)
            .unwrap();
        let w3 = ppm
            .spawn_remote("a", USER, "c", "w3", Some(w2.clone()), None)
            .unwrap();
        (root.clone(), vec![root, w1, w2, w3])
    }

    #[test]
    fn locate_finds_all_execution_sites() {
        let mut ppm = harness();
        let (root, members) = build_computation(&mut ppm);
        // An unrelated process must not be included.
        ppm.spawn_remote("a", USER, "b", "unrelated", None, None)
            .unwrap();

        let sites = locate(&mut ppm, "a", USER, &root).unwrap();
        assert_eq!(sites.hosts, vec!["a", "b", "c"]);
        let mut expect = members.clone();
        expect.sort();
        assert_eq!(sites.members, expect);
    }

    #[test]
    fn stop_interrupt_reaches_every_member() {
        let mut ppm = harness();
        let (root, members) = build_computation(&mut ppm);
        let n = signal_computation(&mut ppm, "a", USER, &root, ControlAction::Stop).unwrap();
        assert_eq!(n, members.len());
        ppm.run_for(SimDuration::from_millis(500));
        for m in &members {
            let host = ppm.host(&m.host).unwrap();
            let state = ppm
                .world()
                .kernel(host)
                .get(ppm_simos::ids::Pid(m.pid))
                .unwrap()
                .state;
            assert_eq!(state.to_string(), "stopped", "{m}");
        }
        // And resume it.
        let n = signal_computation(&mut ppm, "a", USER, &root, ControlAction::Background).unwrap();
        assert_eq!(n, members.len());
        ppm.run_for(SimDuration::from_millis(500));
        let host = ppm.host(&members[1].host).unwrap();
        assert_eq!(
            ppm.world()
                .kernel(host)
                .get(ppm_simos::ids::Pid(members[1].pid))
                .unwrap()
                .state
                .to_string(),
            "running"
        );
    }

    #[test]
    fn kill_terminates_the_whole_computation() {
        let mut ppm = harness();
        let (root, members) = build_computation(&mut ppm);
        let n = signal_computation(&mut ppm, "a", USER, &root, ControlAction::Kill).unwrap();
        assert_eq!(n, members.len());
        ppm.run_for(SimDuration::from_secs(1));
        for m in &members {
            let host = ppm.host(&m.host).unwrap();
            assert!(
                !ppm.world()
                    .kernel(host)
                    .get(ppm_simos::ids::Pid(m.pid))
                    .unwrap()
                    .is_alive(),
                "{m}"
            );
        }
        // A later locate returns no live members.
        let sites = locate(&mut ppm, "a", USER, &root).unwrap();
        assert!(sites.members.is_empty());
    }

    #[test]
    fn locate_reports_unreachable_hosts() {
        // Short request timers, default (slow) recovery: the severed host
        // stays in the sibling membership, so the sweep runs partial.
        let cfg = PpmConfig {
            req_timeout: SimDuration::from_secs(1),
            req_deadline: SimDuration::from_secs(3),
            bcast_timeout: SimDuration::from_secs(2),
            ..PpmConfig::default()
        };
        let mut ppm = PpmHarness::builder()
            .host("a", CpuClass::Vax780)
            .host("b", CpuClass::Vax750)
            .link("a", "b")
            .user(USER, 7, &["a"], cfg)
            .build();
        let root = ppm
            .spawn_remote("a", USER, "a", "root", None, None)
            .unwrap();
        ppm.spawn_remote("a", USER, "b", "w1", Some(root.clone()), None)
            .unwrap();
        ppm.run_for(SimDuration::from_millis(100));
        ppm.world_mut()
            .schedule_fault(
                &FaultKind::LinkDown {
                    a: "a".into(),
                    b: "b".into(),
                },
                SimDuration::from_millis(1),
            )
            .unwrap();
        ppm.run_for(SimDuration::from_millis(50));

        let sites = locate(&mut ppm, "a", USER, &root).unwrap();
        assert_eq!(sites.unreachable, vec!["b".to_string()]);
        // The members that did answer are still reported.
        assert!(sites.members.iter().any(|g| g.host == "a"));
        assert!(sites.members.iter().all(|g| g.host != "b"));
    }

    #[test]
    fn locate_of_unknown_root_is_empty() {
        let mut ppm = harness();
        build_computation(&mut ppm);
        let sites = locate(&mut ppm, "a", USER, &Gpid::new("b", 4242)).unwrap();
        assert!(sites.members.is_empty());
        assert!(sites.hosts.is_empty());
    }
}
