//! Same inputs, same bytes.
//!
//! Every cell `ppm-sim` and `ppm-sweep` can run — a shipped scenario, a
//! generated chain, a scenario under a fault plan, a scenario on a routed
//! network model, a multi-tenant storm — is loaded from its `ppm-sim`
//! command line and run twice through the function both binaries run it
//! through. Everything the run leaves behind (what it printed, its trace,
//! its metrics, both span exports, the digest over them) must be equal
//! byte for byte, and a different seed must not be.

use ppm::sweep::{run_cell, CellRun, RunSpec, SimArgs};

fn shipped(name: &str) -> String {
    format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The cell `ppm-sim <args>` names.
fn cell(args: &[&str]) -> RunSpec {
    let args = args.iter().map(|a| a.to_string());
    SimArgs::parse(args).unwrap_or_else(|e| panic!("{e}")).cell
}

/// A fault plan written where `--faults` can read it.
fn plan_file(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("ppm_determinism_{}_{name}", std::process::id()));
    std::fs::write(&path, text).expect("write the plan");
    path.display().to_string()
}

/// Two runs of `cell(seed)` agree on everything; a run of `cell(other)`
/// does not.
fn assert_repeats(what: &str, seed: u64, other: u64, cell: impl Fn(u64) -> CellRun) {
    let (a, b) = (cell(seed), cell(seed));
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.trace, b.trace, "{what}: trace");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics");
    assert_eq!(a.spans, b.spans, "{what}: span exports");
    assert_eq!(a.digest, b.digest, "{what}: digest");
    assert_eq!(a.sim_end_us, b.sim_end_us, "{what}: end of run");
    assert_ne!(a.digest, cell(other).digest, "{what}: seed {other}");
}

#[test]
fn scenario_cells_repeat_byte_for_byte() {
    let (plan, demo) = (shipped("crash_heal.fault"), shipped("demo.ppm"));
    let (chaos, congestion) = (shipped("chaos.ppm"), shipped("congestion.ppm"));
    let cells = [
        ("demo.ppm", vec![&*demo]),
        ("chain of 24", vec!["--hosts", "24"]),
        ("chaos.ppm + crash_heal", vec!["--faults", &plan, &chaos]),
        (
            "congestion.ppm on fat-tree",
            vec!["--topology", "fat-tree", &congestion],
        ),
    ];
    for (what, args) in cells {
        assert_repeats(what, 7, 8, |seed| {
            let seed = seed.to_string();
            let spec = cell(&[&args[..], &["--seed", &seed]].concat());
            let run = run_cell(&spec, true, true);
            let run = run.unwrap_or_else(|(_, e)| panic!("{what}: {e}"));
            let (jsonl, chrome) = run.spans.as_ref().expect("spans were asked for");
            assert!(!run.trace.is_empty() && !jsonl.is_empty() && !chrome.is_empty());
            run
        });
    }
}

const STORM: [&str; 6] = ["--users", "64", "--hosts", "16", "--procs", "6000"];

#[test]
fn the_storm_cell_repeats_byte_for_byte() {
    assert_repeats("64x16 storm", 7, 8, |seed| {
        let seed = seed.to_string();
        let spec = cell(&[&STORM[..], &["--seed", &seed]].concat());
        let run = run_cell(&spec, true, true);
        let run = run.expect("the storm runs");
        for line in ["scale procs 6000", "scale exits 6000", "scale failed 0"] {
            assert!(run.output.contains(line), "{}", run.output);
        }
        // Pinned as well as repeated: what the storm does to the world
        // (every LPM note, every kernel event) is in the trace under it.
        if seed == "7" {
            let digest = run.digest.expect("a traced run has a digest");
            assert_eq!(ppm::digest::hex(digest), "8c8d0884bf8b2a44");
        }
        run
    });
}

/// The storm is a cell like any other: a host crashes under it and comes
/// back, on a routed network, and the run still repeats. A plan written
/// for another world is refused.
#[test]
fn the_storm_cell_takes_a_fault_plan_and_a_network_model() {
    let plan = plan_file("crash_h1.fault", "seed 7\nat 1s crash h1 restart 2s\n");
    let faulted = [&STORM[..], &["--faults", &plan, "--topology", "fat-tree"]].concat();
    assert_repeats("faulted 64x16 storm on fat-tree", 7, 8, |seed| {
        let seed = seed.to_string();
        let spec = cell(&[&faulted[..], &["--seed", &seed]].concat());
        let run = run_cell(&spec, false, true);
        let run = run.expect("the storm runs");
        assert!(
            run.metrics.contains(" lpm.restarts 1\n"),
            "no LPM came back"
        );
        assert!(run.metrics.contains("world net.routed_sends "));
        assert!(run.output.contains("scale procs 6000\n"), "{}", run.output);
        run
    });
    let elsewhere = plan_file("crash_calder.fault", "at 1s crash calder restart 2s\n");
    let storm = cell(&[&STORM[..], &["--faults", &elsewhere]].concat());
    let (_, e) = run_cell(&storm, false, false).expect_err("no such host");
    assert!(e.message.contains("unknown host \"calder\""), "{e}");
}
