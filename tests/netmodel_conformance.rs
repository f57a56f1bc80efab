//! Flat-wire conformance: the netmodel subsystem must be invisible
//! unless a topology is installed. Every digest pinned here was
//! captured with `ppm-sim --digest` on the tree as of the commit that
//! introduced the network model — if one of these assertions fires,
//! the flat wire law (the default) changed observable behaviour, which
//! breaks replayability of every previously published run.
//!
//! The routed half of the suite pins determinism, not bytes: the same
//! topology run twice must agree with itself, and full-mesh must
//! differ from flat only because it *prices* the same sends through
//! the model (install trace line + `net.*` metrics).

use ppm::digest::{fnv1a, hex};
use ppm::scenario::{self, ExecOptions};
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::topology::NetSpec;

fn scenario_file(name: &str) -> String {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Mirrors `ppm-sim --digest` byte for byte: same parse (file seed),
/// same execution options, same digest chunks.
fn run_digest(text: &str, faults: Option<&str>, topo: Option<&NetSpec>) -> String {
    let sc = scenario::parse(text).expect("scenario parses");
    let plan = faults.map(|t| FaultPlan::parse(t).expect("fault plan parses"));
    let mut out = String::new();
    let opts = ExecOptions {
        spans: false,
        faults: plan.as_ref(),
        topology: topo,
    };
    let h = scenario::execute_with(&sc, &mut out, opts).expect("scenario executes");
    let trace = h.world().trace().render(None);
    let metrics = h.metrics_report();
    hex(fnv1a(&[&out, &trace, &metrics]))
}

#[test]
fn flat_digests_match_the_pre_netmodel_tree() {
    for (file, want) in [
        ("demo.ppm", "a29138298feb7ae8"),
        ("chaos.ppm", "a5c4d4b360ed2ad9"),
        ("chaos_dual.ppm", "1f131bfea46b15ee"),
        ("nameserver.ppm", "bbd21583aa5b23d5"),
    ] {
        let got = run_digest(&scenario_file(file), None, None);
        assert_eq!(got, want, "{file}: flat digest drifted");
    }
}

#[test]
fn flat_faulted_digest_matches_the_pre_netmodel_tree() {
    let got = run_digest(
        &scenario_file("chaos.ppm"),
        Some(&scenario_file("crash_heal.fault")),
        None,
    );
    assert_eq!(
        got, "6f6adf90ba841ece",
        "chaos.ppm + crash_heal.fault: flat digest drifted"
    );
}

#[test]
fn flat_chain_digest_matches_the_pre_netmodel_tree() {
    let text = scenario::chain_scenario(24);
    let got = run_digest(&text, None, None);
    assert_eq!(got, "24d16adf4dd8624b", "chain-24: flat digest drifted");
}

#[test]
fn routed_runs_are_deterministic_and_distinct_from_flat() {
    let text = scenario_file("chaos.ppm");
    let sc = scenario::parse(&text).expect("parses");
    let hosts: Vec<String> = sc.hosts.iter().map(|(n, _)| n.to_string()).collect();
    for preset in NetSpec::PRESETS {
        let spec = NetSpec::preset(preset, &hosts).expect("preset builds");
        let first = run_digest(&text, None, Some(&spec));
        let second = run_digest(&text, None, Some(&spec));
        assert_eq!(first, second, "{preset}: routed digest not reproducible");
        assert_ne!(
            first, "a5c4d4b360ed2ad9",
            "{preset}: routed run unexpectedly byte-identical to flat \
             (install trace + net.* metrics should differ)"
        );
    }
}
