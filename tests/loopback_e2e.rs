//! Real-network end-to-end: the full PPM stack over loopback TCP.
//!
//! Three hosts, each a node thread with real sockets and the real clock,
//! run the *same* `ppm-core` daemons and tools as the simulation, driven
//! by the same `PpmHarness` through the same script: this is
//! `ppm_tools::drill::recovery_drill` — the body of the simulation's
//! `killed_lpm_is_respawned_and_readopts_survivors` (fault_e2e) — on a
//! `RealRuntime`. Display, remote execution and locate all work over
//! real TCP, then the work LPM is SIGKILLed out from under a live
//! computation and the pmd respawn + forest re-adoption path recovers it.
//!
//! Gated behind `#[ignore]` because it boots real listeners and waits
//! wall-clock time; run with `cargo test --test loopback_e2e -- --ignored`
//! (the CI `real-smoke` job does). Tier-1 still compiles it.

use ppm_core::config::PpmConfig;
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::PpmHarness;
use ppm_realos::RealRuntime;
use ppm_runtime::ids::{CpuClass, Uid};
use ppm_tools::drill::{forest_nodes, recovery_drill};

const USER: Uid = Uid(100);

#[test]
#[ignore = "boots a real loopback TCP cluster; run with --ignored (CI real-smoke job)"]
fn real_cluster_display_locate_exec_and_lpm_crash_recovery() {
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Sun2)
        .host("far", CpuClass::Sun2)
        .pmd_options(PmdOptions {
            stable_storage: true,
            respawn_lpms: true,
        })
        .user(USER, 0xFA017, &["home", "work"], PpmConfig::fast_recovery())
        .build_on(RealRuntime::new());

    // A root on home, three jobs on work, work's LPM the victim.
    let report = recovery_drill(&mut ppm, USER, "home", &["work"; 3], Some("work"))
        .expect("drill over real TCP");
    assert_eq!(forest_nodes(&report.procs, "home").len(), 1);
    let recovery = report.recovery.expect("the kill leg ran");
    assert_eq!(recovery.forest.len(), 3, "three live managed jobs on work");
    assert_ne!(recovery.respawned, recovery.victim, "a fresh LPM process");
}
