//! One harness, every runtime: the same driver code and the same script
//! produce the same protocol-observable result on the simulated world
//! and on a real loopback-TCP cluster. (The model checker explores the
//! sim's own world; `scenario_runtimes` plays every shipped cell, the
//! drill's kill → respawn → re-adopt leg included, through its default
//! schedule.)
//!
//! This is the whole-scenario differential for one script, and tier-1's
//! only look at the real backend: a few seconds of wall clock at most,
//! every wait a deadline-bounded poll inside the harness. The
//! explanation is part of the result: every backend records the same
//! spans, a trace of what the LPMs did, and the same published
//! registries, read through the same harness calls.

use std::collections::HashSet;

use ppm_core::config::PpmConfig;
use ppm_harness::harness::{PpmHarness, Runtime};
use ppm_proto::types::{Name, WireProcState};
use ppm_realos::RealRuntime;
use ppm_runtime::ids::{CpuClass, Uid};
use ppm_runtime::obs::SpanPhase;
use ppm_runtime::trace::TraceCategory;
use ppm_simos::world::World;
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
fn traced_sim() -> World {
    let mut sim = World::new(1986);
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
