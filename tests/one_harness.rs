//! One harness, every runtime: the same driver code and the same script
//! produce the same protocol-observable result on the simulated world
//! and on a real loopback-TCP cluster.
//!
//! This is the first cell of ROADMAP item 4's whole-scenario differential
//! test, and tier-1's only look at the real backend: a few seconds of
//! wall clock at most, every wait a deadline-bounded poll inside the
//! harness.

use std::collections::HashSet;

use ppm_core::config::PpmConfig;
use ppm_harness::harness::{PpmHarness, Runtime};
use ppm_proto::types::WireProcState;
use ppm_realos::RealRuntime;
use ppm_runtime::ids::{CpuClass, Uid};
use ppm_simos::rt::SimRuntime;
use ppm_tools::drill::recovery_drill;

const USER: Uid = Uid(100);

/// What a user at a terminal can tell apart: which commands run where in
/// which state, and where `locate` says the computation executes. Pids
/// and timestamps are backend accidents and stay out.
type Observed = (HashSet<(String, String, WireProcState)>, Vec<String>);

/// Boots a two-host PPM on `rt` and runs exec → display → locate on it:
/// a root on `home`, two jobs on `work`.
fn exec_display_locate<R: Runtime>(rt: R) -> Observed {
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Sun2)
        .user(USER, 0x1986, &["home", "work"], PpmConfig::default())
        .build_on(rt);
    let report = recovery_drill(&mut ppm, USER, "home", &["work", "work"], None)
        .expect("exec, display, locate");
    let records = report.procs.into_iter();
    (
        records.map(|p| (p.gpid.host, p.command, p.state)).collect(),
        report.sites.hosts,
    )
}

#[test]
fn sim_and_real_show_the_same_computation() {
    let sim = exec_display_locate(SimRuntime::new(1986));
    let real = exec_display_locate(RealRuntime::with_trace(false));
    assert_eq!(sim, real, "protocol-observable result differs by backend");
    assert_eq!(sim.0.len(), 3, "root and both jobs: {sim:?}");
    assert_eq!(sim.1, ["home", "work"]);
}
