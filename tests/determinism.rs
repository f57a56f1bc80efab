//! Same inputs, same bytes.
//!
//! Every cell `ppm-sim` and `ppm-sweep` can run — a shipped scenario, a
//! generated chain, a scenario under a fault plan, a scenario on a routed
//! network model, a multi-tenant storm — is run twice through the function
//! both binaries run it through. Everything the run leaves behind (what it
//! printed, its trace, its metrics, both span exports, the digest over
//! them) must be equal byte for byte, and a different seed must not be.

use ppm::scenario::chain_scenario;
use ppm::simnet::fault::FaultPlan;
use ppm::sweep::{run_cell, CellRun, CellTopology, VariantKind};

fn shipped(name: &str) -> String {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
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
    let plan = FaultPlan::parse(&shipped("crash_heal.fault")).expect("fault plan parses");
    let fat_tree = CellTopology::Preset("fat-tree");
    let cells = [
        ("demo.ppm", shipped("demo.ppm"), None, None),
        ("chain of 24", chain_scenario(24), None, None),
        (
            "chaos.ppm + crash_heal",
            shipped("chaos.ppm"),
            Some(&plan),
            None,
        ),
        (
            "congestion.ppm on fat-tree",
            shipped("congestion.ppm"),
            None,
            Some(fat_tree),
        ),
    ];
    for (what, text, faults, topology) in cells {
        assert_repeats(what, 7, 8, |seed| {
            let kind = VariantKind::Scenario {
                text: text.as_str().into(),
            };
            let run = run_cell(&kind, Some(seed), faults, topology, true);
            let run = run.unwrap_or_else(|(_, e)| panic!("{what}: {e}"));
            let (jsonl, chrome) = run.spans.as_ref().expect("spans were asked for");
            assert!(!run.trace.is_empty() && !jsonl.is_empty() && !chrome.is_empty());
            run
        });
    }
}

const STORM: VariantKind = VariantKind::Storm {
    users: 64,
    hosts: 16,
    procs: 6_000,
};

#[test]
fn the_storm_cell_repeats_byte_for_byte() {
    assert_repeats("64x16 storm", 7, 8, |seed| {
        let run = run_cell(&STORM, Some(seed), None, None, true).expect("the storm runs");
        for line in ["scale procs 6000", "scale exits 6000", "scale failed 0"] {
            assert!(run.output.contains(line), "{}", run.output);
        }
        // Pinned as well as repeated: what the storm does to the world
        // (every LPM note, every kernel event) is in the trace under it.
        if seed == 7 {
            assert_eq!(ppm::digest::hex(run.digest), "8c8d0884bf8b2a44");
        }
        run
    });
}

/// The storm is a cell like any other: a host crashes under it and comes
/// back, on a routed network, and the run still repeats. A plan written
/// for another world is refused.
#[test]
fn the_storm_cell_takes_a_fault_plan_and_a_network_model() {
    let plan = FaultPlan::parse("seed 7\nat 1s crash h1 restart 2s\n").expect("plan parses");
    let fat_tree = Some(CellTopology::Preset("fat-tree"));
    assert_repeats("faulted 64x16 storm on fat-tree", 7, 8, |seed| {
        let run =
            run_cell(&STORM, Some(seed), Some(&plan), fat_tree, false).expect("the storm runs");
        assert!(
            run.metrics.contains(" lpm.restarts 1\n"),
            "no LPM came back"
        );
        assert!(run.metrics.contains("world net.routed_sends "));
        assert!(run.output.contains("scale procs 6000\n"), "{}", run.output);
        run
    });
    let elsewhere = FaultPlan::parse("at 1s crash calder restart 2s\n").expect("plan parses");
    let (_, e) = run_cell(&STORM, None, Some(&elsewhere), None, false).expect_err("no such host");
    assert!(e.message.contains("unknown host \"calder\""), "{e}");
}
