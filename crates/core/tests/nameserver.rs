//! The name-server CCS policy — Section 5's proposed alternative to
//! `.recovery` files: "The existence of name servers in the network could
//! be used to aid in crash recovery. LPMs would query the name server for
//! a CCS. ... the assignment of the CCS could be better coordinated by
//! network administrators."

use ppm_core::config::{PpmConfig, RecoveryPolicy};
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::Reply;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);

fn ns_config() -> PpmConfig {
    PpmConfig {
        recovery_policy: RecoveryPolicy::NameServer {
            host: "ns".to_string(),
        },
        ..PpmConfig::fast_recovery()
    }
}

fn harness(cfg: PpmConfig) -> PpmHarness {
    PpmHarness::builder()
        .host("ns", CpuClass::Vax780)
        .host("alpha", CpuClass::Vax750)
        .host("beta", CpuClass::Vax750)
        .link("ns", "alpha")
        .link("ns", "beta")
        .link("alpha", "beta")
        .user(USER, 0x1986, &[], cfg) // no .recovery file needed
        .build()
}

fn ccs_of(ppm: &mut PpmHarness, host: &str) -> (String, u64) {
    match ppm.status(host, USER, host).unwrap() {
        Reply::Status { ccs, epoch, .. } => (ccs, epoch),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn first_claimant_becomes_ccs_for_everyone() {
    let mut ppm = harness(ns_config());
    // First LPM comes up on alpha (tool contact creates it there).
    ppm.spawn_remote("alpha", USER, "alpha", "j1", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));
    let (ccs_a, epoch_a) = ccs_of(&mut ppm, "alpha");
    assert_eq!(ccs_a, "alpha", "first claimant assigned by the name server");
    assert_eq!(epoch_a, 1);

    // A later LPM on beta learns the same assignment.
    ppm.spawn_remote("alpha", USER, "beta", "j2", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));
    let (ccs_b, _) = ccs_of(&mut ppm, "beta");
    assert_eq!(
        ccs_b, "alpha",
        "name server coordinates one CCS network-wide"
    );
}

#[test]
fn ccs_crash_prompts_reassignment_via_name_server() {
    let mut ppm = harness(ns_config());
    ppm.spawn_remote("alpha", USER, "alpha", "j1", None, None)
        .unwrap();
    ppm.spawn_remote("alpha", USER, "beta", "j2", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));
    assert_eq!(ccs_of(&mut ppm, "beta").0, "alpha");

    // The coordinator host crashes; beta reports it dead and is promoted.
    let alpha = ppm.host("alpha").unwrap();
    ppm.world_mut()
        .schedule_crash(alpha, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(20));
    let (ccs, epoch) = ccs_of(&mut ppm, "beta");
    assert_eq!(
        ccs, "beta",
        "name server reassigned the role to the reporter"
    );
    assert!(epoch >= 2);

    // alpha returns: the assignment is stable (no hand-back; the name
    // server coordinates, not a priority list).
    ppm.world_mut()
        .schedule_restart(alpha, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(10));
    ppm.spawn_remote("beta", USER, "alpha", "j3", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(5));
    let (ccs, _) = ccs_of(&mut ppm, "alpha");
    assert_eq!(ccs, "beta", "restarted host adopts the current assignment");
}

#[test]
fn stale_dead_report_does_not_steal_the_role() {
    // Two LPMs race to report the same dead CCS: only the first report
    // reassigns; the second gets the (new) current assignment back.
    let mut ppm = harness(ns_config());
    ppm.spawn_remote("alpha", USER, "alpha", "j1", None, None)
        .unwrap();
    ppm.spawn_remote("alpha", USER, "beta", "j2", None, None)
        .unwrap();
    // A third participant.
    ppm.spawn_remote("alpha", USER, "ns", "j3", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));

    let alpha = ppm.host("alpha").unwrap();
    ppm.world_mut()
        .schedule_crash(alpha, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(30));

    // Both survivors agree on a single CCS (whoever reported first).
    let (ccs_b, e_b) = ccs_of(&mut ppm, "beta");
    let (ccs_n, e_n) = ccs_of(&mut ppm, "ns");
    assert_eq!(ccs_b, ccs_n, "one coordinator, not two");
    assert_eq!(e_b, e_n);
    assert_ne!(ccs_b, "alpha");
}

#[test]
fn name_server_outage_leads_to_orphan_time_to_die() {
    let mut cfg = ns_config();
    cfg.time_to_die = SimDuration::from_secs(10);
    let mut ppm = harness(cfg);
    let g = ppm
        .spawn_remote("alpha", USER, "beta", "lonely", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));

    // Both the name server and the current CCS (alpha) crash: beta cannot
    // reach any coordinator authority and must close down.
    let ns = ppm.host("ns").unwrap();
    let alpha = ppm.host("alpha").unwrap();
    ppm.world_mut()
        .schedule_crash(ns, SimDuration::from_millis(10));
    ppm.world_mut()
        .schedule_crash(alpha, SimDuration::from_millis(10));
    ppm.run_for(SimDuration::from_secs(60));

    let beta = ppm.host("beta").unwrap();
    let p = ppm
        .world()
        .core()
        .kernel(beta)
        .get(ppm_simos::ids::Pid(g.pid))
        .unwrap();
    assert!(
        !p.is_alive(),
        "time-to-die closed down the user's processes"
    );
}

#[test]
fn assignments_survive_pmd_crash_with_stable_storage() {
    let mut ppm = PpmHarness::builder()
        .host("ns", CpuClass::Vax780)
        .host("alpha", CpuClass::Vax750)
        .link("ns", "alpha")
        .user(USER, 0x1986, &[], ns_config())
        .pmd_options(PmdOptions {
            stable_storage: true,
            ..PmdOptions::default()
        })
        .build();
    ppm.spawn_remote("alpha", USER, "alpha", "j1", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));
    let (_, epoch_before) = ccs_of(&mut ppm, "alpha");

    // Kill the name server's pmd; its successor restores the registry.
    let pmd_pid = ppm.find_proc("ns", Uid::ROOT, "pmd").expect("pmd alive");
    ppm.post_signal("ns", Uid::ROOT, pmd_pid, ppm_runtime::signal::Signal::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    // A new participant queries: the epoch does not restart from scratch.
    ppm.spawn_remote("alpha", USER, "ns", "j2", None, None)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(3));
    let (ccs, epoch) = ccs_of(&mut ppm, "ns");
    assert_eq!(ccs, "alpha");
    assert_eq!(
        epoch, epoch_before,
        "assignment restored from stable storage"
    );
}
