//! Robustness and recovery tests — Section 5 of the paper: host and LPM
//! crashes, CCS election over the `.recovery` list, probing and CCS
//! resumption, network partitions, time-to-die, LPM time-to-live, and the
//! pmd stable-storage hardening.

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::{ControlAction, Op, Reply};
use ppm_runtime::signal::Signal;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::{Pid, Uid};

const USER: Uid = Uid(100);
const SECRET: u64 = 0x1986;

/// home — work — far in a line; `.recovery` prefers home, then work.
fn harness(cfg: PpmConfig) -> PpmHarness {
    PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Vax750)
        .host("far", CpuClass::Sun2)
        .link("home", "work")
        .link("work", "far")
        .link("home", "far")
        .user(USER, SECRET, &["home", "work"], cfg)
        .build()
}

fn status_of(ppm: &mut PpmHarness, from: &str, dest: &str) -> (String, u64, Vec<String>) {
    match ppm.status(from, USER, dest).unwrap() {
        Reply::Status {
            ccs,
            epoch,
            siblings,
            ..
        } => (ccs, epoch, siblings),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn ccs_crash_elects_next_recovery_host() {
    let mut ppm = harness(PpmConfig::fast_recovery());
    // Establish LPMs on all three hosts via remote creation from home.
    ppm.spawn_remote("home", USER, "work", "j1", None, None)
        .unwrap();
    ppm.spawn_remote("home", USER, "far", "j2", None, None)
        .unwrap();
    let (ccs, _, _) = status_of(&mut ppm, "work", "work");
    assert_eq!(ccs, "home");

    // The CCS host crashes.
    let home = ppm.host("home").unwrap();
    ppm.world_mut()
        .schedule_crash(home, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(20));

    // Survivors converge on the next host in the .recovery list.
    let (ccs_w, epoch_w, _) = status_of(&mut ppm, "work", "work");
    assert_eq!(ccs_w, "work", "second-priority host took over");
    assert!(epoch_w > 0, "election bumped the epoch");
    let (ccs_f, _, _) = status_of(&mut ppm, "far", "far");
    assert_eq!(ccs_f, "work", "announcement reached the third host");
}

#[test]
fn recovered_top_priority_host_resumes_ccs_role() {
    let mut ppm = harness(PpmConfig::fast_recovery());
    ppm.spawn_remote("home", USER, "work", "j1", None, None)
        .unwrap();
    ppm.spawn_remote("home", USER, "far", "j2", None, None)
        .unwrap();

    let home = ppm.host("home").unwrap();
    ppm.world_mut()
        .schedule_crash(home, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(20));
    let (ccs, _, _) = status_of(&mut ppm, "work", "work");
    assert_eq!(ccs, "work");

    // home comes back; the acting CCS probes it at low frequency and
    // hands the role back ("whenever such host comes up, they connect").
    ppm.world_mut()
        .schedule_restart(home, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(40));
    let (ccs, epoch, _) = status_of(&mut ppm, "work", "work");
    assert_eq!(ccs, "home", "top-priority host resumed as CCS");
    assert!(epoch >= 2);
}

#[test]
fn host_crash_turns_snapshot_into_a_forest() {
    let mut ppm = harness(PpmConfig::fast_recovery());
    let root = ppm
        .spawn_remote("home", USER, "home", "root", None, None)
        .unwrap();
    let _w = ppm
        .spawn_remote("home", USER, "work", "leaf-w", Some(root.clone()), None)
        .unwrap();
    let f = ppm
        .spawn_remote("home", USER, "far", "leaf-f", Some(root.clone()), None)
        .unwrap();

    // work crashes: its slice of the computation is gone; the remainder
    // is a forest (root on home + orphaned view of far's leaf).
    let work = ppm.host("work").unwrap();
    ppm.world_mut()
        .schedule_crash(work, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(10));

    let procs = ppm.snapshot("home", USER, "*").unwrap();
    let hosts: std::collections::BTreeSet<&str> =
        procs.iter().map(|p| p.gpid.host.as_str()).collect();
    assert!(hosts.contains("home"));
    assert!(
        hosts.contains("far"),
        "far still reachable via surviving links"
    );
    assert!(!hosts.contains("work"), "crashed host contributes nothing");
    assert!(procs.iter().any(|p| p.gpid == f));
}

#[test]
fn orphaned_lpm_kills_local_processes_after_time_to_die() {
    // far is connected only through work; its .recovery list is
    // home, work — when both are unreachable it must eventually close
    // down the user's local activity.
    let mut cfg = PpmConfig::fast_recovery();
    cfg.time_to_die = SimDuration::from_secs(10);
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Vax750)
        .host("far", CpuClass::Sun2)
        .link("home", "work")
        .link("work", "far")
        .user(USER, SECRET, &["home", "work"], cfg)
        .build();
    let far_job = ppm
        .spawn_remote("home", USER, "far", "lonely", None, None)
        .unwrap();
    let far = ppm.host("far").unwrap();
    let pid = Pid(far_job.pid);
    assert!(ppm.world().core().kernel(far).get(pid).unwrap().is_alive());

    // Cut far off completely and give it a reason to notice (its only
    // sibling connection breaks when home crashes the link path).
    let home = ppm.host("home").unwrap();
    let work = ppm.host("work").unwrap();
    ppm.world_mut()
        .schedule_crash(home, SimDuration::from_millis(10));
    ppm.world_mut()
        .schedule_crash(work, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(60));

    let p = ppm.world().core().kernel(far).get(pid).unwrap();
    assert!(!p.is_alive(), "time-to-die terminated the user's processes");
    assert_eq!(
        p.state,
        ppm_runtime::process::ProcState::Exited(ppm_runtime::signal::ExitStatus::Signaled(
            Signal::Kill
        ))
    );
    // The LPM itself exited too.
    let lpm_alive = ppm.find_proc("far", USER, "lpm").is_some();
    assert!(!lpm_alive, "orphaned LPM exited after time-to-die");
}

#[test]
fn partitioned_lpm_in_contact_with_a_recovery_host_survives_indefinitely() {
    // "Our current implementation allows connected components of this kind
    // to continue their operations with no bounds in time because they
    // include a host which the user is presumed to log into frequently."
    let mut cfg = PpmConfig::fast_recovery();
    cfg.time_to_die = SimDuration::from_secs(5);
    let mut ppm = harness(cfg);
    ppm.spawn_remote("home", USER, "work", "j1", None, None)
        .unwrap();
    ppm.spawn_remote("home", USER, "far", "j2", None, None)
        .unwrap();

    // Partition {home} from {work, far}: work is itself in the recovery
    // list, so the work/far component continues under work as CCS.
    let home = ppm.host("home").unwrap();
    let work = ppm.host("work").unwrap();
    let far = ppm.host("far").unwrap();
    ppm.world_mut()
        .schedule_link(home, work, false, SimDuration::from_millis(10));
    ppm.world_mut()
        .schedule_link(home, far, false, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(30));

    // Far past the (short) time-to-die: everything still runs.
    let (ccs, _, _) = status_of(&mut ppm, "work", "work");
    assert_eq!(ccs, "work");
    let work_jobs = ppm.snapshot("work", USER, "*").unwrap();
    assert!(work_jobs.iter().any(|p| p.gpid.host == "work"));
    assert!(work_jobs.iter().any(|p| p.gpid.host == "far"));

    // Heal the partition: probing reconnects to home, which resumes CCS.
    ppm.world_mut()
        .schedule_link(home, work, true, SimDuration::from_millis(10));
    ppm.world_mut()
        .schedule_link(home, far, true, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(40));
    let (ccs, _, _) = status_of(&mut ppm, "work", "work");
    assert_eq!(ccs, "home", "healed partition reunifies under the home CCS");
}

#[test]
fn lpm_outlives_login_session_and_expires_after_ttl() {
    let mut cfg = PpmConfig::fast_recovery();
    cfg.lpm_ttl = SimDuration::from_secs(15);
    let mut ppm = PpmHarness::builder()
        .host("solo", CpuClass::Vax780)
        .user(USER, SECRET, &["solo"], cfg)
        .build();

    // A short job managed by the PPM.
    ppm.spawn_remote(
        "solo",
        USER,
        "solo",
        "short",
        None,
        Some(SimDuration::from_secs(3)),
    )
    .unwrap();
    let lpm_running = |ppm: &PpmHarness| ppm.find_proc("solo", USER, "lpm").is_some();
    assert!(lpm_running(&ppm));

    // The job exits; the LPM lingers through its time-to-live…
    ppm.run_for(SimDuration::from_secs(10));
    assert!(
        lpm_running(&ppm),
        "LPM outlives the session that created it"
    );

    // …and eventually expires.
    ppm.run_for(SimDuration::from_secs(30));
    assert!(!lpm_running(&ppm), "LPM exits after its time-to-live");

    // A later login simply creates a fresh one.
    let outcome = ppm
        .run_tool(
            "solo",
            USER,
            vec![ToolStep::new("solo", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(outcome.created_lpm);
}

#[test]
fn lpm_with_live_processes_does_not_expire() {
    let mut cfg = PpmConfig::fast_recovery();
    cfg.lpm_ttl = SimDuration::from_secs(5);
    let mut ppm = PpmHarness::builder()
        .host("solo", CpuClass::Vax780)
        .user(USER, SECRET, &["solo"], cfg)
        .build();
    ppm.spawn_remote("solo", USER, "solo", "long-job", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(60));
    let lpm_alive = ppm.find_proc("solo", USER, "lpm").is_some();
    assert!(lpm_alive, "managed processes keep the LPM alive");
}

#[test]
fn pmd_crash_without_stable_storage_spawns_duplicate_lpm() {
    let mut ppm = harness(PpmConfig::default());
    ppm.spawn_remote("home", USER, "home", "j", None, None)
        .unwrap();
    let home = ppm.host("home").unwrap();

    // Kill only the pmd (LPM survives).
    let pmd_pid = ppm
        .find_proc("home", Uid::ROOT, "pmd")
        .expect("pmd running");
    ppm.post_signal("home", Uid::ROOT, pmd_pid, Signal::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    // Next tool contact restarts pmd, which — having lost its registry —
    // creates a duplicate LPM. The duplicate finds the accept port taken
    // and yields; the paper calls this out as the broken mode.
    let outcome = ppm
        .run_tool(
            "home",
            USER,
            vec![ToolStep::new("home", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(
        outcome.error.is_none(),
        "service still works via the surviving LPM"
    );
    assert!(
        outcome.created_lpm,
        "pmd wrongly believes it created the LPM"
    );
    // Let the duplicate finish its fork+exec and die on the taken port.
    ppm.run_for(SimDuration::from_secs(2));
    let duplicates = ppm
        .world()
        .core()
        .kernel(home)
        .processes()
        .filter(|p| p.command.starts_with("lpm") && !p.is_alive())
        .count();
    assert!(duplicates >= 1, "a duplicate LPM was spawned and died");
}

#[test]
fn pmd_crash_with_stable_storage_finds_existing_lpm() {
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .user(USER, SECRET, &["home"], PpmConfig::default())
        .pmd_options(PmdOptions {
            stable_storage: true,
            ..PmdOptions::default()
        })
        .build();
    ppm.spawn_remote("home", USER, "home", "j", None, None)
        .unwrap();
    let home = ppm.host("home").unwrap();
    let pmd_pid = ppm
        .find_proc("home", Uid::ROOT, "pmd")
        .expect("pmd running");
    ppm.post_signal("home", Uid::ROOT, pmd_pid, Signal::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    let outcome = ppm
        .run_tool(
            "home",
            USER,
            vec![ToolStep::new("home", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(outcome.error.is_none());
    assert!(!outcome.created_lpm, "restored registry found the live LPM");
    let duplicates = ppm
        .world()
        .core()
        .kernel(home)
        .processes()
        .filter(|p| p.command.starts_with("lpm") && !p.is_alive())
        .count();
    assert_eq!(duplicates, 0, "no duplicate LPM with stable storage");
}

#[test]
fn in_flight_request_fails_cleanly_when_target_crashes() {
    let mut ppm = harness(PpmConfig::fast_recovery());
    let g = ppm
        .spawn_remote("home", USER, "far", "victim", None, None)
        .unwrap();
    // Crash far, then immediately try to control the process there.
    let far = ppm.host("far").unwrap();
    ppm.world_mut()
        .schedule_crash(far, SimDuration::from_millis(1));
    ppm.run_for(SimDuration::from_millis(100));
    let err = ppm
        .control("home", USER, &g, ControlAction::Kill)
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("HostDown")
            || text.contains("Timeout")
            || text.contains("NoRoute")
            || text.contains("cannot reach"),
        "crash surfaced as a clean error: {text}"
    );
}

#[test]
fn broadcast_completes_despite_crashed_participant() {
    let mut ppm = harness(PpmConfig::fast_recovery());
    ppm.spawn_remote("home", USER, "work", "a", None, None)
        .unwrap();
    ppm.spawn_remote("home", USER, "far", "b", None, None)
        .unwrap();
    let far = ppm.host("far").unwrap();
    ppm.world_mut()
        .schedule_crash(far, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(5));

    // Snapshot still completes with the surviving hosts' slices.
    let procs = ppm.snapshot("home", USER, "*").unwrap();
    assert!(procs.iter().any(|p| p.gpid.host == "work"));
    assert!(!procs.iter().any(|p| p.gpid.host == "far"));
}

#[test]
fn snapshot_after_lpm_kill_loses_that_hosts_information() {
    // "LPM crashes are handled just as host crashes. However, the
    // disappearance of a LPM does mean that information about the
    // processes in that host will be lost."
    let mut ppm = harness(PpmConfig::fast_recovery());
    let g = ppm
        .spawn_remote("home", USER, "work", "job", None, None)
        .unwrap();
    let work = ppm.host("work").unwrap();
    let lpm_pid = ppm.find_proc("work", USER, "lpm").expect("lpm on work");
    ppm.post_signal("work", USER, lpm_pid, Signal::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    // The user process itself survives (it belongs to the user, not the
    // LPM), but a fresh LPM no longer knows its genealogy.
    assert!(ppm
        .world()
        .core()
        .kernel(work)
        .get(Pid(g.pid))
        .unwrap()
        .is_alive());
    let procs = ppm.snapshot("home", USER, "*").unwrap();
    assert!(
        !procs.iter().any(|p| p.gpid == g),
        "information about the host's processes was lost with the LPM"
    );
}

#[test]
fn crash_mid_broadcast_still_completes_with_partial_results() {
    let mut ppm = harness(PpmConfig::fast_recovery());
    ppm.spawn_remote("home", USER, "work", "a", None, None)
        .unwrap();
    ppm.spawn_remote("home", USER, "far", "b", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(25)); // cold pools: slow wave

    // Launch the snapshot asynchronously and crash a participant while
    // the wave is in flight (the cold wave takes ~200 ms).
    let handle = ppm
        .launch_tool(
            "home",
            USER,
            vec![ToolStep::new("*", ppm_proto::msg::Op::Snapshot)],
        )
        .unwrap();
    let far = ppm.host("far").unwrap();
    ppm.world_mut()
        .schedule_crash(far, SimDuration::from_millis(120));
    ppm.run_for(SimDuration::from_secs(10));

    let outcome = handle.lock().unwrap().clone();
    assert!(
        outcome.done,
        "snapshot completed despite the mid-wave crash"
    );
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    match outcome.reply(0) {
        Some(ppm_proto::msg::Reply::Snapshot { procs, .. }) => {
            assert!(
                procs.iter().any(|p| p.gpid.host == "work"),
                "surviving slice present"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn dead_processes_age_out_of_snapshots_after_retention() {
    let mut cfg = PpmConfig::fast_recovery();
    cfg.dead_retention = SimDuration::from_secs(5);
    let mut ppm = PpmHarness::builder()
        .host("solo", CpuClass::Vax780)
        .user(USER, SECRET, &["solo"], cfg)
        .build();
    let g = ppm
        .spawn_remote(
            "solo",
            USER,
            "solo",
            "brief",
            None,
            Some(SimDuration::from_secs(1)),
        )
        .unwrap();
    // Keep a long-lived sibling process so the LPM itself stays alive.
    ppm.spawn_remote("solo", USER, "solo", "keeper", None, None)
        .unwrap();

    ppm.run_for(SimDuration::from_secs(2)); // brief has exited
    let procs = ppm.snapshot("solo", USER, "solo").unwrap();
    assert!(
        procs.iter().any(|p| p.gpid == g),
        "freshly dead: still displayed"
    );

    ppm.run_for(SimDuration::from_secs(10)); // past dead_retention
    let procs = ppm.snapshot("solo", USER, "solo").unwrap();
    assert!(
        !procs.iter().any(|p| p.gpid == g),
        "aged out of the genealogy"
    );
    // The statistics tool still remembers it.
    let records = ppm.rusage("solo", USER, "solo", Some(g.pid)).unwrap();
    assert_eq!(records.len(), 1);
}

#[test]
fn ccs_with_siblings_does_not_expire_by_ttl() {
    // "For the CCS, the time-to-live interval has a different meaning: as
    // long as there is any sibling LPM in the networked system,
    // time-to-live is not decremented."
    let mut cfg = PpmConfig::fast_recovery();
    cfg.lpm_ttl = SimDuration::from_secs(5);
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Vax750)
        .link("home", "work")
        .user(USER, SECRET, &["home"], cfg)
        .build();
    // home is the CCS; it manages no local processes of its own, but its
    // sibling on work holds a long-lived job.
    ppm.spawn_remote("home", USER, "work", "long-job", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(60));

    let lpm_alive = |ppm: &PpmHarness, h| ppm.find_proc(h, USER, "lpm").is_some();
    assert!(
        lpm_alive(&ppm, "home"),
        "the CCS stays alive while any sibling LPM exists"
    );
    assert!(lpm_alive(&ppm, "work"), "work manages a live process");
}
