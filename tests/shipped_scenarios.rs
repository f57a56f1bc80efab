//! The scenario files shipped in `scenarios/` must always parse and
//! execute — they are the first thing a new user runs.

use ppm::scenario::ExecOptions;
use ppm::simnet::fault::FaultPlan;

#[test]
fn demo_scenario_parses_and_executes() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/demo.ppm"))
        .expect("scenarios/demo.ppm exists");
    let sc = ppm::scenario::parse(&text).expect("demo parses");
    assert!(sc.hosts.len() >= 3);
    let mut out = String::new();
    ppm::scenario::execute(&sc, &mut out).expect("demo executes");
    assert!(out.contains("snapshot of *"), "{out}");
    assert!(out.contains("killed"), "{out}");
    assert!(out.contains("scenario complete"));
}

#[test]
fn nameserver_scenario_parses_and_executes() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/nameserver.ppm"
    ))
    .expect("scenarios/nameserver.ppm exists");
    let sc = ppm::scenario::parse(&text).expect("nameserver parses");
    let mut out = String::new();
    ppm::scenario::execute(&sc, &mut out).expect("nameserver executes");
    // The crash of the assigned CCS is visible in the final dashboard:
    // east is unreachable, the survivors carry on.
    assert!(out.contains("(unreachable)"), "{out}");
    assert!(out.contains("tester"), "{out}");
}

#[test]
fn every_shipped_scenario_parses() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("ppm") {
            let text = std::fs::read_to_string(&path).expect("readable");
            ppm::scenario::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
            seen += 1;
        }
    }
    assert!(seen >= 2, "shipped scenarios present");
}

/// A fault-free `*` snapshot is whole however deep the chain it climbs,
/// and one that lost hosts says which: with the far end's link silently
/// eating the wave, the last relay gives up first (each level waits for
/// the levels below it) and exactly the cut-off host is named, in the
/// footer the snapshot tool prints.
#[test]
fn chain_snapshot_names_missing_hosts_only_when_partial() {
    let run = |hosts, faults: Option<&FaultPlan>| {
        let sc = ppm::scenario::parse(&ppm::scenario::chain_scenario(hosts)).expect("parses");
        let mut out = String::new();
        let opts = ExecOptions {
            faults,
            ..ExecOptions::default()
        };
        ppm::scenario::execute_with(&sc, &mut out, opts).expect("chain executes");
        out
    };
    for hosts in [24, 32, 48] {
        let full = run(hosts, None);
        assert!(!full.contains("! partial result"), "{full}");
        assert!(full.contains(&format!("{hosts} process(es)")), "{full}");
    }
    // The chain is built by 3.3 s and swept at 3.6 s.
    let deaf = FaultPlan::parse("drop 1.0 from h6 to h7 after 3500ms").expect("plan parses");
    let partial = run(8, Some(&deaf));
    assert!(partial.contains("7 process(es)"), "{partial}");
    assert!(
        partial.contains("! partial result: no answer from h7\n"),
        "{partial}"
    );
}
