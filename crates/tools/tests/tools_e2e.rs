//! End-to-end exercises of the tool layer against a live simulated PPM:
//! the SnapshotTool's four control verbs, the computation locator under
//! churn, and dashboard/IPC reports on real data.

use ppm_core::config::PpmConfig;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::ControlAction;
use ppm_proto::types::WireProcState;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::{Pid, Uid};
use ppm_tools::{computation, display, SnapshotTool};

const USER: Uid = Uid(100);
const OTHER: Uid = Uid(200);

fn harness() -> PpmHarness {
    PpmHarness::builder()
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax750)
        .link("a", "b")
        .user(USER, 0x70015, &["a"], PpmConfig::default())
        .build()
}

fn two_user_harness() -> PpmHarness {
    PpmHarness::builder()
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax750)
        .link("a", "b")
        .user(USER, 0x70015, &["a"], PpmConfig::default())
        .user(OTHER, 0x70200, &["a"], PpmConfig::default())
        .build()
}

#[test]
fn snapshot_tool_verbs_drive_remote_processes() {
    let mut ppm = harness();
    let g = ppm
        .spawn_remote("a", USER, "b", "victim", None, None)
        .unwrap();
    let b = ppm.host("b").unwrap();
    let pid = Pid(g.pid);
    let state = |ppm: &PpmHarness| ppm.world().kernel(b).get(pid).unwrap().state;

    let mut tool = SnapshotTool::new(&mut ppm, "a", USER);
    // show/stop/fg/bg/kill — the paper's built-in verbs, end to end.
    let art = tool.show("*").unwrap();
    assert!(art.contains("victim"));

    tool.stop(&g).unwrap();
    let art = tool.show("b").unwrap();
    assert!(art.contains("[stopped]"), "{art}");

    tool.foreground(&g).unwrap();
    let art = tool.show("b").unwrap();
    assert!(!art.contains("[stopped]"), "{art}");

    tool.background(&g).unwrap();
    tool.kill(&g).unwrap();
    let art = tool.show("b").unwrap();
    assert!(art.contains("[exited]"), "{art}");

    drop(tool);
    ppm.run_for(SimDuration::from_millis(200));
    assert!(!state(&ppm).is_alive());
}

#[test]
fn computation_locate_tracks_membership_changes() {
    let mut ppm = harness();
    let root = ppm
        .spawn_remote("a", USER, "a", "root", None, None)
        .unwrap();
    let w1 = ppm
        .spawn_remote("a", USER, "b", "w1", Some(root.clone()), None)
        .unwrap();
    let w2 = ppm
        .spawn_remote("a", USER, "b", "w2", Some(root.clone()), None)
        .unwrap();

    let sites = computation::locate(&mut ppm, "a", USER, &root).unwrap();
    assert_eq!(sites.members.len(), 3);

    // Kill one member: the located set shrinks accordingly.
    ppm.control("a", USER, &w1, ControlAction::Kill).unwrap();
    ppm.run_for(SimDuration::from_secs(1));
    let sites = computation::locate(&mut ppm, "a", USER, &root).unwrap();
    assert_eq!(sites.members.len(), 2);
    assert!(sites.members.contains(&w2));
    assert!(!sites.members.contains(&w1));

    // The dead member is still *displayed* in the raw snapshot, marked
    // exited — locate() only returns live members.
    let procs = ppm.snapshot("a", USER, "*").unwrap();
    let dead = procs.iter().find(|p| p.gpid == w1).expect("retained");
    assert_eq!(dead.state, WireProcState::Dead);
}

/// Every tool speaks for exactly one tenant: with two users running
/// distinctly named computations on the same hosts, one user's
/// dashboard, locator and snapshot display never surface the other's
/// processes.
#[test]
fn display_and_locate_are_tenant_scoped() {
    let mut ppm = two_user_harness();

    // USER: a rooted computation spanning both hosts. OTHER: two
    // stand-alone jobs on b.
    let root = ppm
        .spawn_remote("a", USER, "a", "alpha-root", None, None)
        .unwrap();
    for i in 0..2 {
        ppm.spawn_remote(
            "a",
            USER,
            "b",
            &format!("alpha-{i}"),
            Some(root.clone()),
            None,
        )
        .unwrap();
    }
    for i in 0..2 {
        ppm.spawn_remote("a", OTHER, "b", &format!("beta-{i}"), None, None)
            .unwrap();
    }

    // The dashboard counts only the calling user's managed processes.
    let rows = display::gather_status(&mut ppm, "a", USER).unwrap();
    assert_eq!(rows.iter().find(|r| r.host == "b").unwrap().managed, 2);
    let rows = display::gather_status(&mut ppm, "a", OTHER).unwrap();
    assert_eq!(rows.iter().find(|r| r.host == "b").unwrap().managed, 2);

    // Locating USER's computation finds USER's members only; the same
    // root is invisible to OTHER's sweep.
    let sites = computation::locate(&mut ppm, "a", USER, &root).unwrap();
    assert_eq!(sites.members.len(), 3);
    let sites = computation::locate(&mut ppm, "a", OTHER, &root).unwrap();
    assert!(sites.members.is_empty(), "OTHER cannot locate USER's root");

    // The snapshot display renders only the calling user's commands.
    let art = SnapshotTool::new(&mut ppm, "a", USER).show("*").unwrap();
    assert!(art.contains("alpha-root") && !art.contains("beta"), "{art}");
    let art = SnapshotTool::new(&mut ppm, "a", OTHER).show("*").unwrap();
    assert!(art.contains("beta-0") && !art.contains("alpha"), "{art}");
}

#[test]
fn dashboard_reflects_load_and_management_counts() {
    let mut ppm = harness();
    for i in 0..3 {
        ppm.spawn_remote("a", USER, "b", &format!("job{i}"), None, None)
            .unwrap();
    }
    let rows = display::gather_status(&mut ppm, "a", USER).unwrap();
    let b_row = rows.iter().find(|r| r.host == "b").unwrap();
    assert_eq!(b_row.managed, 3, "all three jobs managed on b");
    assert!(b_row.reachable);
    let a_row = rows.iter().find(|r| r.host == "a").unwrap();
    assert!(a_row.siblings.iter().any(|s| s == "b"));
}

#[test]
fn dashboard_network_section_tracks_link_traffic_and_cuts() {
    use ppm_simnet::fault::FaultPlan;
    use ppm_simnet::topology::NetSpec;
    let hosts: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
    let spec = NetSpec::preset("wan-hub", &hosts).unwrap();
    let mut ppm = PpmHarness::builder()
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax750)
        .host("c", CpuClass::Vax750)
        .link("a", "b")
        .link("a", "c")
        .link("b", "c")
        .user(USER, 0x70015, &["a"], PpmConfig::default())
        .topology(spec)
        .build();
    ppm.spawn_remote("a", USER, "b", "job", None, None).unwrap();
    ppm.spawn_remote("a", USER, "c", "job", None, None).unwrap();

    let out = display::net_section(&ppm).unwrap();
    assert!(out.contains("network wan-hub"), "{out}");
    let (name, links) = display::net_rows(&ppm).unwrap();
    assert_eq!(name, "wan-hub");
    // Every host hangs off the hub, and both spawns moved real bytes.
    assert_eq!(links.len(), 3);
    assert!(links.iter().all(|l| l.up));
    assert!(links[0].bytes > 0, "busiest link saw traffic: {links:?}");

    // Cut a spoke mid-run; the dashboard marks it DOWN.
    let plan = FaultPlan::parse("at 10ms cut link wan:c\n").unwrap();
    ppm.world_mut().apply_fault_plan(&plan).unwrap();
    ppm.run_for(SimDuration::from_millis(50));
    let (_, links) = display::net_rows(&ppm).unwrap();
    let cut = links.iter().find(|l| l.name == "wan:c").unwrap();
    assert!(!cut.up, "cut link reported down: {links:?}");
    let out = display::render_net("wan-hub", &links, display::NET_TOP_LINKS);
    assert!(out.contains("DOWN"), "{out}");
}
