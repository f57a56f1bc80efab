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
use ppm::sweep::{run_scenario_cell, run_storm_cell, CellRun, CellTopology};

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
            let run = run_scenario_cell(&text, Some(seed), faults, topology, true);
            let run = run.unwrap_or_else(|(_, e)| panic!("{what}: {e}"));
            let (jsonl, chrome) = run.spans.as_ref().expect("spans were asked for");
            assert!(!run.trace.is_empty() && !jsonl.is_empty() && !chrome.is_empty());
            run
        });
    }
}

#[test]
fn the_storm_cell_repeats_byte_for_byte() {
    assert_repeats("64x16 storm", 7, 8, |seed| {
        let run = run_storm_cell(64, 16, seed, 128_000);
        assert!(run.output.contains("scale procs 128000"), "{}", run.output);
        // Pinned as well as repeated: the storm world has changed event
        // queue under this number and must not move it.
        if seed == 7 {
            let pin = "scale digest dd0f465d8e9d69bf";
            assert!(run.output.contains(pin), "{}", run.output);
        }
        run
    });
}
