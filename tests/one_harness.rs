//! One harness, every runtime: the same driver code and the same script
//! produce the same protocol-observable result on the simulated world,
//! on a real loopback-TCP cluster and on the model checker's world under
//! its default schedule.
//!
//! This is the whole-scenario differential for one script, and tier-1's
//! only look at the real backend: a few seconds of wall clock at most,
//! every wait a deadline-bounded poll inside the harness. The
//! explanation is part of the result: every backend records the same
//! spans, a trace of what the LPMs did, and the same published
//! registries, read through the same harness calls. The checker also
//! runs the drill's kill → respawn → re-adopt leg.

use std::collections::HashSet;

use ppm_core::config::PpmConfig;
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::{PpmHarness, Runtime};
use ppm_mc::McWorld;
use ppm_proto::types::{Name, WireProcState};
use ppm_realos::RealRuntime;
use ppm_runtime::ids::{CpuClass, Uid};
use ppm_runtime::obs::SpanPhase;
use ppm_runtime::trace::TraceCategory;
use ppm_simos::rt::SimRuntime;
use ppm_tools::drill::recovery_drill;

const USER: Uid = Uid(100);

/// What a user at a terminal can tell apart: which commands run where in
/// which state, and where `locate` says the computation executes. Pids
/// and timestamps are backend accidents and stay out.
type Observed = (HashSet<(Name, Name, WireProcState)>, Vec<String>);

/// How the world explains the same run afterwards: the `(name, phase)`
/// span records, sorted (kinds a timer starts, `probe`, fall where the
/// backend's clock puts them and stay out), and the labels of the
/// registries the LPMs published.
type Explained = (Vec<(&'static str, bool)>, Vec<String>);

/// Boots a two-host PPM on `rt` with spans on and runs exec → display →
/// locate on it: a root on `home`, two jobs on `work`.
fn exec_display_locate<R: Runtime>(rt: R, backend: &str) -> (Observed, Explained) {
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Sun2)
        .user(USER, 0x1986, &["home", "work"], PpmConfig::default())
        .build_on(rt);
    ppm.enable_spans();
    let report = recovery_drill(&mut ppm, USER, "home", &["work", "work"], None)
        .expect("exec, display, locate");

    let spans = ppm.span_events();
    // Every span the tool's requests and the `*` snapshot's wave opened
    // was closed under the same correlation.
    for name in ["req", "bcast"] {
        let corrs = |phase| {
            let of_kind = spans.iter().filter(|e| e.name == name && e.phase == phase);
            of_kind.map(|e| e.corr.as_str()).collect::<Vec<_>>()
        };
        let (begun, mut ended) = (corrs(SpanPhase::Begin), corrs(SpanPhase::End));
        assert!(!begun.is_empty(), "{backend}: no {name} span");
        for corr in begun {
            let at = ended.iter().position(|e| *e == corr);
            let at = at.unwrap_or_else(|| panic!("{backend}: {name} {corr} never ended"));
            ended.swap_remove(at);
        }
    }
    let compared = spans.iter().filter(|e| e.name != "probe");
    let mut kinds: Vec<_> = compared
        .map(|e| (e.name, e.phase == SpanPhase::Begin))
        .collect();
    kinds.sort_unstable();
    let lpm_notes = ppm.trace_render(Some(TraceCategory::Lpm));
    assert!(!lpm_notes.is_empty(), "{backend}: no LPM trace");
    let sections = ppm.metrics_sections().into_iter();
    let labels = sections.map(|(label, _)| label).filter(|l| l != "world");

    let records = report.procs.into_iter();
    (
        (
            records.map(|p| (p.gpid.host, p.command, p.state)).collect(),
            report.sites.hosts,
        ),
        (kinds, labels.collect()),
    )
}

/// A simulated world recording its trace, as the real and checker
/// runtimes below are told to.
fn traced_sim() -> SimRuntime {
    let mut sim = SimRuntime::new(1986);
    sim.hub().trace.set_enabled(true);
    sim
}

#[test]
fn sim_and_real_show_the_same_computation() {
    let (sim, sim_why) = exec_display_locate(traced_sim(), "sim");
    let (real, real_why) = exec_display_locate(RealRuntime::with_trace(true), "real");
    assert_eq!(sim, real, "protocol-observable result differs by backend");
    assert_eq!(sim.0.len(), 3, "root and both jobs: {sim:?}");
    assert_eq!(sim.1, ["home", "work"]);
    assert_eq!(
        sim_why, real_why,
        "the backends explain the run differently"
    );
    assert_eq!(sim_why.1, ["home/uid100", "work/uid100"]);
}

#[test]
fn the_checker_shows_the_computation_the_sim_does() {
    let sim = exec_display_locate(traced_sim(), "sim");
    let mut mc = McWorld::new();
    mc.hub().trace.set_enabled(true);
    assert_eq!(exec_display_locate(mc, "mc"), sim, "mc differs from sim");
}

/// `fault_e2e`'s drill, on the checker: a root on home, three jobs on
/// work, work's LPM killed, respawned and re-adopting all three.
#[test]
fn the_checker_respawns_a_killed_lpm_and_readopts_its_jobs() {
    let mut ppm = PpmHarness::builder()
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Sun2)
        .host("far", CpuClass::Sun2)
        .pmd_options(PmdOptions {
            stable_storage: true,
            respawn_lpms: true,
        })
        .user(USER, 0xFA017, &["home", "work"], PpmConfig::fast_recovery())
        .build_on(McWorld::new());
    let report = recovery_drill(&mut ppm, USER, "home", &["work"; 3], Some("work"))
        .expect("drill on the checker");
    let recovery = report.recovery.expect("the kill leg ran");
    assert_eq!(recovery.forest.len(), 3, "three live managed jobs on work");
    assert_ne!(recovery.respawned, recovery.victim, "a fresh LPM process");
    let metrics = ppm.metrics_report();
    assert!(metrics.contains("work/uid100 lpm.restarts 1"), "{metrics}");
    assert!(metrics.contains("work/uid100 lpm.readopted 3"), "{metrics}");
}
