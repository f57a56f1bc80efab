//! End-to-end crash/recovery under the scripted fault-injection
//! subsystem.
//!
//! These tests exercise the full loop the paper's Section 5 sketches but
//! never implemented: an LPM dies while its computation is live, the pmd
//! respawns it, the replacement re-adopts the surviving processes, and
//! sibling gossip rebuilds the logical (cross-host) edges of the
//! genealogy forest that died with the old LPM's memory.

use std::collections::BTreeSet;

use ppm_core::config::PpmConfig;
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::ControlAction;
use ppm_proto::types::{Gpid, WireProcState};
use ppm_runtime::signal::Signal;
use ppm_simnet::fault::FaultPlan;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::{Pid, Uid};
use ppm_tools::drill::recovery_drill;

const USER: Uid = Uid(100);
const OTHER: Uid = Uid(200);

fn harness() -> PpmHarness {
    PpmHarness::builder()
        .seed(0xFA017)
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Sun2)
        .host("far", CpuClass::Sun2)
        .link("home", "work")
        .link("work", "far")
        .pmd_options(PmdOptions {
            stable_storage: true,
            respawn_lpms: true,
        })
        .user(USER, 0xFA017, &["home", "work"], PpmConfig::fast_recovery())
        .build()
}

/// The same network with a second, unrelated tenant sharing every host.
fn two_user_harness() -> PpmHarness {
    PpmHarness::builder()
        .seed(0xFA017)
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Sun2)
        .host("far", CpuClass::Sun2)
        .link("home", "work")
        .link("work", "far")
        .pmd_options(PmdOptions {
            stable_storage: true,
            respawn_lpms: true,
        })
        .user(USER, 0xFA017, &["home", "work"], PpmConfig::fast_recovery())
        .user(
            OTHER,
            0xFA200,
            &["home", "work"],
            PpmConfig::fast_recovery(),
        )
        .build()
}

/// The pid of `uid`'s live LPM on `host`, if any.
fn lpm_pid_of(ppm: &PpmHarness, host: &str, uid: Uid) -> Option<Pid> {
    ppm.find_proc(host, uid, &format!("lpm-{}", uid.0))
}

/// The pid of [`USER`]'s live LPM on `host`, if any.
fn lpm_pid(ppm: &PpmHarness, host: &str) -> Option<Pid> {
    lpm_pid_of(ppm, host, USER)
}

/// Adopted, live user processes on `host` as seen by a sweep from
/// `from`: the forest's node set for that host.
fn forest_nodes(ppm: &mut PpmHarness, from: &str, host: &str) -> BTreeSet<u32> {
    let procs = ppm.snapshot(from, USER, "*").expect("snapshot");
    ppm_tools::drill::forest_nodes(&procs, host)
}

/// Killing the LPM out from under a live computation: the pmd notices the
/// unclean exit, respawns the LPM, and the replacement re-adopts every
/// surviving process — the forest's node set is exactly the pre-crash
/// live set, and the recovery metrics are visible in the registry. The
/// script is the backend-generic drill the real loopback e2e test and
/// `ppm-real` also run; the metrics asserts are this test's own.
#[test]
fn killed_lpm_is_respawned_and_readopts_survivors() {
    let mut ppm = harness();

    // A root on home, three jobs on work, work's LPM the victim.
    let report = recovery_drill(&mut ppm, USER, "home", &["work"; 3], Some("work"))
        .expect("drill on the simulated world");
    let recovery = report.recovery.expect("the kill leg ran");
    assert_eq!(recovery.forest.len(), 3, "three live managed jobs on work");
    assert_ne!(recovery.respawned, recovery.victim, "a fresh LPM process");

    // Recovery metrics are in the respawned LPM's registry section.
    let report = ppm.metrics_report();
    assert!(
        report.contains("work/uid100 lpm.restarts 1"),
        "one restart counted:\n{report}"
    );
    assert!(
        report.contains("work/uid100 lpm.readopted 3"),
        "three survivors re-adopted:\n{report}"
    );
    assert!(
        report.contains("work/uid100 lpm.mttr_us count=1"),
        "recovery time recorded"
    );
}

/// Logical (cross-host) parent edges live only in LPM memory, so they
/// die with the killed LPM — and come back through sibling gossip: the
/// respawned LPM pulls from the sibling that originated the spawns, which
/// remembers the logical parent of every child it created remotely.
#[test]
fn sibling_gossip_rebuilds_logical_edges_after_lpm_death() {
    let mut ppm = harness();

    // A parent on home with two logical children on work.
    let parent = ppm
        .spawn_remote("home", USER, "home", "parent", None, None)
        .expect("spawn parent");
    let mut children = Vec::new();
    for i in 0..2 {
        let g = ppm
            .spawn_remote(
                "home",
                USER,
                "work",
                &format!("child-{i}"),
                Some(parent.clone()),
                None,
            )
            .expect("spawn child");
        children.push(g);
    }
    ppm.run_for(SimDuration::from_secs(1));

    let edge_of = |procs: &[ppm_proto::types::ProcRecord], g: &Gpid| -> Option<Gpid> {
        procs
            .iter()
            .find(|p| &p.gpid == g)
            .and_then(|p| p.logical_parent.clone())
    };
    let procs = ppm.snapshot("home", USER, "*").expect("snapshot");
    for c in &children {
        assert_eq!(
            edge_of(&procs, c).as_ref(),
            Some(&parent),
            "logical edge present before the crash"
        );
    }

    // Kill work's LPM; its forest (and the logical edges) die with it.
    let victim = lpm_pid(&ppm, "work").expect("work has an LPM");
    ppm.post_signal("work", Uid::ROOT, victim, Signal::Kill)
        .expect("kill LPM");
    ppm.run_for(SimDuration::from_secs(5));

    // Traffic from home re-opens the sibling channel; the respawned LPM
    // answers the hello with a forest pull and grafts the reply.
    let procs = ppm
        .snapshot("home", USER, "*")
        .expect("post-crash snapshot");
    ppm.run_for(SimDuration::from_secs(2));
    for c in &children {
        assert!(
            procs.iter().any(|p| &p.gpid == c),
            "child {c} was re-adopted"
        );
    }
    let procs = ppm
        .snapshot("home", USER, "*")
        .expect("post-gossip snapshot");
    for c in &children {
        assert_eq!(
            edge_of(&procs, c).as_ref(),
            Some(&parent),
            "sibling gossip restored the logical edge of {c}"
        );
    }
}

/// The same recovery driven end-to-end by a scripted plan: `kill work
/// lpm` at 2 s. The subsystem (not the test) schedules the fault, and the
/// faults.injected counter records it.
#[test]
fn scripted_kill_plan_drives_respawn() {
    let mut ppm = harness();
    for i in 0..2 {
        ppm.spawn_remote("home", USER, "work", &format!("job-{i}"), None, None)
            .expect("spawn");
    }
    let before = forest_nodes(&mut ppm, "home", "work");
    let victim = lpm_pid(&ppm, "work").expect("work has an LPM");

    let plan = FaultPlan::parse("at 2s kill work lpm\n").expect("plan parses");
    ppm.world_mut()
        .apply_fault_plan(&plan)
        .expect("plan applies");
    ppm.run_for(SimDuration::from_secs(10));

    let respawned = lpm_pid(&ppm, "work").expect("LPM respawned");
    assert_ne!(respawned, victim);
    assert_eq!(forest_nodes(&mut ppm, "home", "work"), before);
    assert!(
        ppm.metrics_report().contains("faults.injected 1"),
        "the scheduled fault was counted"
    );
}

/// A scripted host crash with heal: the host reboots, inetd re-runs the
/// pmd, the pmd's stable-storage registry names an LPM that died in the
/// crash, and respawn brings the user's presence on that host back — new
/// work lands there again.
#[test]
fn scripted_crash_restart_plan_recovers_the_host() {
    let mut ppm = harness();
    ppm.spawn_remote("home", USER, "work", "doomed", None, None)
        .expect("spawn");
    ppm.run_for(SimDuration::from_millis(500));

    let plan = FaultPlan::parse(concat!(
        "seed 11\n",
        "at 1s crash work restart 2s\n",
        "at 1s cut work far heal 4s\n",
    ))
    .expect("plan parses");
    ppm.world_mut()
        .apply_fault_plan(&plan)
        .expect("plan applies");
    ppm.run_for(SimDuration::from_secs(12));

    // The host is back: a pmd answers and an LPM serves a new spawn.
    let g = ppm
        .spawn_remote("home", USER, "work", "reborn", None, None)
        .expect("restarted host serves spawns");
    assert_eq!(g.host, "work");
    // The crash killed the old computation; the sweep must not report
    // ghosts of it.
    let nodes = forest_nodes(&mut ppm, "home", "work");
    assert!(nodes.contains(&g.pid), "the new job is managed");
    // The sugared plan expands to four scheduled faults: crash+restart
    // and cut+heal.
    let report = ppm.metrics_report();
    assert!(report.contains("faults.injected 4"), "{report}");
    assert!(report.contains("work/uid100 lpm.restarts 1"), "{report}");
}

/// Exactly-once under forced duplication: every wire message between
/// home and work is delivered twice, yet each spawn executes once —
/// the dedup window absorbs the duplicates.
#[test]
fn forced_duplication_preserves_exactly_once() {
    let mut ppm = harness();
    let plan = FaultPlan::parse("dup 1.0 from home to work\n").expect("plan parses");
    ppm.world_mut()
        .apply_fault_plan(&plan)
        .expect("plan applies");

    for i in 0..3 {
        ppm.spawn_remote("home", USER, "work", &format!("once-{i}"), None, None)
            .expect("spawn under duplication");
    }
    ppm.run_for(SimDuration::from_secs(2));

    let procs = ppm.snapshot("home", USER, "*").expect("snapshot");
    for i in 0..3 {
        let name = format!("once-{i}");
        assert_eq!(
            procs
                .iter()
                .filter(|p| p.command == name && p.state != WireProcState::Dead)
                .count(),
            1,
            "{name} executed exactly once despite duplicated delivery"
        );
    }
}

/// A duplicated aggregate is merged once. Every wire message from work
/// to home is delivered twice, so work's aggregate reaches the
/// originator twice (the test above duplicates home → work, which no
/// aggregate travels); yet the `*` snapshot has each process once and
/// `rusage *` counts each exit once.
#[test]
fn a_duplicated_aggregate_is_merged_once() {
    let mut ppm = harness();
    let plan = FaultPlan::parse("dup 1.0 from work to home\n").expect("plan parses");
    ppm.world_mut()
        .apply_fault_plan(&plan)
        .expect("plan applies");

    let job = ppm
        .spawn_remote("home", USER, "work", "job", None, None)
        .expect("spawn on work");
    let brief = SimDuration::from_millis(300);
    ppm.spawn_remote("home", USER, "far", "brief", None, Some(brief))
        .expect("spawn on far");
    ppm.control("home", USER, &job, ControlAction::Kill)
        .expect("kill the job");
    ppm.run_for(SimDuration::from_secs(2));

    let procs = ppm.snapshot("home", USER, "*").expect("snapshot");
    let keys: Vec<(&str, u32)> = procs
        .iter()
        .map(|p| (p.gpid.host.as_str(), p.gpid.pid))
        .collect();
    let distinct: BTreeSet<(&str, u32)> = keys.iter().copied().collect();
    assert_eq!(keys.len(), distinct.len(), "each process once: {keys:?}");
    assert!(distinct.iter().any(|(host, _)| *host == "far"), "{keys:?}");

    let exits = ppm.rusage("home", USER, "*", None).expect("rusage");
    let mut commands: Vec<&str> = exits.iter().map(|r| r.command.as_str()).collect();
    commands.sort_unstable();
    assert_eq!(commands, ["brief", "job"], "each exit counted once");
}

/// Two tenants on the same hosts: one user's sweep never observes the
/// other's processes — before a crash, while one tenant's LPM is dead,
/// and after the respawned LPM re-adopts its survivors. The crash of
/// tenant A's LPM must also leave tenant B's LPM process untouched.
#[test]
fn tenant_isolation_holds_across_lpm_crash_and_readoption() {
    let mut ppm = two_user_harness();

    // Each tenant runs a distinctly named computation on work.
    for i in 0..3 {
        ppm.spawn_remote("home", USER, "work", &format!("alpha-{i}"), None, None)
            .expect("spawn for USER");
    }
    for i in 0..2 {
        ppm.spawn_remote("home", OTHER, "work", &format!("beta-{i}"), None, None)
            .expect("spawn for OTHER");
    }
    ppm.run_for(SimDuration::from_secs(1));

    let sweep = |ppm: &mut PpmHarness, uid: Uid| -> Vec<ppm_proto::types::ProcRecord> {
        ppm.snapshot("home", uid, "*").expect("snapshot")
    };
    let disjoint = |ppm: &mut PpmHarness| {
        let a = sweep(ppm, USER);
        let b = sweep(ppm, OTHER);
        assert!(
            a.iter().all(|p| !p.command.starts_with("beta")),
            "USER's sweep leaked OTHER's processes: {a:?}"
        );
        assert!(
            b.iter().all(|p| !p.command.starts_with("alpha")),
            "OTHER's sweep leaked USER's processes: {b:?}"
        );
        let apids: BTreeSet<u32> = a
            .iter()
            .filter(|p| p.gpid.host == "work")
            .map(|p| p.gpid.pid)
            .collect();
        let bpids: BTreeSet<u32> = b
            .iter()
            .filter(|p| p.gpid.host == "work")
            .map(|p| p.gpid.pid)
            .collect();
        assert!(apids.is_disjoint(&bpids), "tenants share pids on work");
    };
    disjoint(&mut ppm);

    let user_before: BTreeSet<u32> = sweep(&mut ppm, USER)
        .into_iter()
        .filter(|p| p.gpid.host == "work" && p.adopted && p.state != WireProcState::Dead)
        .map(|p| p.gpid.pid)
        .collect();
    assert_eq!(user_before.len(), 3);

    // Kill USER's LPM on work; OTHER's LPM on the same host must survive.
    let victim = lpm_pid_of(&ppm, "work", USER).expect("USER has an LPM on work");
    let bystander = lpm_pid_of(&ppm, "work", OTHER).expect("OTHER has an LPM on work");
    ppm.post_signal("work", Uid::ROOT, victim, Signal::Kill)
        .expect("kill USER's LPM");

    // While USER's LPM is down, OTHER's view is unperturbed and clean.
    ppm.run_for(SimDuration::from_millis(200));
    let b = sweep(&mut ppm, OTHER);
    assert_eq!(
        b.iter()
            .filter(|p| p.command.starts_with("beta") && p.state != WireProcState::Dead)
            .count(),
        2,
        "OTHER's computation is intact mid-crash"
    );
    assert!(b.iter().all(|p| !p.command.starts_with("alpha")));

    ppm.run_for(SimDuration::from_secs(5));

    // USER's replacement LPM re-adopted exactly the pre-crash set.
    let respawned = lpm_pid_of(&ppm, "work", USER).expect("USER's LPM respawned");
    assert_ne!(respawned, victim);
    assert_eq!(
        lpm_pid_of(&ppm, "work", OTHER),
        Some(bystander),
        "OTHER's LPM was never restarted"
    );
    let user_after: BTreeSet<u32> = sweep(&mut ppm, USER)
        .into_iter()
        .filter(|p| p.gpid.host == "work" && p.adopted && p.state != WireProcState::Dead)
        .map(|p| p.gpid.pid)
        .collect();
    assert_eq!(
        user_after, user_before,
        "re-adoption restored USER's forest"
    );
    disjoint(&mut ppm);

    // The restart is attributed to USER's registry section only.
    let report = ppm.metrics_report();
    assert!(report.contains("work/uid100 lpm.restarts 1"), "{report}");
    assert!(report.contains("work/uid200 lpm.restarts 0"), "{report}");
}

/// The same plan and seed replayed from scratch produce byte-identical
/// metrics: the fault schedule is deterministic end to end.
#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let mut ppm = harness();
        let plan = FaultPlan::parse(concat!(
            "seed 7\n",
            "at 1s kill work lpm\n",
            "drop 0.2 from home to work after 500ms until 3s\n",
            "delay 0.3 add 5ms\n",
        ))
        .expect("plan parses");
        ppm.world_mut()
            .apply_fault_plan(&plan)
            .expect("plan applies");
        for i in 0..2 {
            let _ = ppm.spawn_remote("home", USER, "work", &format!("job-{i}"), None, None);
        }
        ppm.run_for(SimDuration::from_secs(8));
        (ppm.now(), ppm.metrics_report())
    };
    let (t1, m1) = run();
    let (t2, m2) = run();
    assert_eq!(t1, t2, "same final clock");
    assert_eq!(m1, m2, "byte-identical metrics");
}
