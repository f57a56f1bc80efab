//! Property tests: every text grammar rejects hostile input without
//! panicking, and names the line it refuses — scenarios, fault plans,
//! topology specs, sweep grids and `ppm-sim`'s command line, all read by
//! `ppm_simnet::grammar`.
//!
//! The inputs are shipped files (and a spec written to the `.topo`
//! grammar) mutated a few edits at a time: a token or the number inside
//! one replaced by a huge, negative, NaN or empty value, a line
//! duplicated (a name declared twice), an unknown directive inserted, a
//! stray `#` cut into a token. Each parse must return `Ok` or `Err`; a
//! refusal carries a line of the mutated text, or line 0 only for a rule
//! of the whole file (and always for a command line). An accepted fault
//! plan must survive its own `encode`, and an accepted grid must name
//! each cell once. (`prop_scenario.rs` generates well-formed scenarios;
//! here the shipped ones are mutated.) A token added to any statement
//! of a shipped file is refused on that statement's line.

use std::collections::HashSet;
use std::path::PathBuf;

use ppm::simnet::fault::FaultPlan;
use ppm::simnet::grammar::LineError;
use ppm::simnet::topology::NetSpec;
use ppm::sweep::{Grid, SimArgs};
use proptest::prelude::*;

const HOSTILE: [&str; 20] = [
    "",
    "-1",
    "-0",
    "0",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "1e309",
    "0.5",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999999",
    "4611686018427",
    "0x",
    "1..0",
    "#",
    "none",
    "..",
    ",",
];

const TOPO: &str = "\
topo lab
switch core
switch tor0
link h0 tor0 cap=100k lat=2ms
link h1 tor0 name=up0 cap=1m lat=500us loss=0.01
link tor0 core lat=1s core
";

fn scenarios() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn shipped(name: &str) -> String {
    let path = scenarios().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `tok` with its first run of digits (or its end) replaced by `with`,
/// so `lat=2ms` becomes `lat=NaNms`.
fn replace_number(tok: &str, with: &str) -> String {
    let start = tok.find(|c: char| c.is_ascii_digit()).unwrap_or(tok.len());
    let len = tok[start..]
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(tok.len() - start);
    format!("{}{with}{}", &tok[..start], &tok[start + len..])
}

/// Applies `edits` — (where, what, which hostile value) — to `text`'s
/// whitespace-separated tokens, line by line.
fn mutate(text: &str, edits: &[(u16, u8, u8)]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect();
    for &(at, op, pick) in edits {
        if lines.is_empty() {
            lines.push(Vec::new());
        }
        let l = usize::from(at) % lines.len();
        let hostile = HOSTILE[usize::from(pick) % HOSTILE.len()].to_string();
        let line = &mut lines[l];
        let t = usize::from(at) / 7 % line.len().max(1);
        match (op % 6, line.get_mut(t)) {
            (0, Some(tok)) => *tok = hostile,
            (1, Some(tok)) => *tok = replace_number(tok, &hostile),
            (2, _) => {
                let dup = line.clone();
                lines.insert(l, dup);
            }
            (3, _) => lines.insert(l, vec!["frobnicate".into(), hostile]),
            (4, Some(tok)) => {
                let cut = tok.char_indices().nth(tok.chars().count() / 2);
                tok.insert(cut.map_or(tok.len(), |(i, _)| i), '#');
            }
            _ => line.push(hostile),
        }
    }
    let lines: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
    lines.join("\n")
}

fn edits() -> impl Strategy<Value = Vec<(u16, u8, u8)>> {
    prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..6)
}

/// `e` names one of `text`'s lines, or line 0 for one of the grammar's
/// `whole_file` rules.
fn placed(e: &LineError, text: &str, whole_file: &[&str]) -> Result<(), TestCaseError> {
    prop_assert!(!e.message.is_empty(), "{}", text);
    if e.line == 0 {
        let rule = whole_file.iter().any(|r| e.message.contains(r));
        prop_assert!(rule, "line 0 for {:?}\n{}", e.message, text);
    } else {
        let n = text.lines().count();
        prop_assert!(
            e.line <= n,
            "line {} of {} lines: {}\n{}",
            e.line,
            n,
            e,
            text
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn scenarios_parse_or_refuse_on_a_line(file in 0usize..2, edits in edits()) {
        let text = mutate(&shipped(["demo.ppm", "chaos.ppm"][file]), &edits);
        if let Err(e) = ppm::scenario::parse(&text) {
            placed(&e, &text, &["declares no hosts", "declares no users"])?;
        }
    }

    #[test]
    fn fault_plans_parse_or_refuse_and_round_trip(edits in edits()) {
        let text = mutate(&shipped("crash_heal.fault"), &edits);
        match FaultPlan::parse(&text) {
            Ok(plan) => {
                let again = FaultPlan::parse(&plan.encode());
                prop_assert_eq!(again.as_ref(), Ok(&plan), "{}", text);
            }
            Err(e) => placed(&e, &text, &[])?,
        }
    }

    #[test]
    fn topology_specs_parse_or_refuse(edits in edits()) {
        let text = mutate(TOPO, &edits);
        if let Err(e) = NetSpec::parse(&text) {
            placed(&e, &text, &["declares no links"])?;
        }
    }

    #[test]
    fn sweep_grids_parse_or_refuse_and_name_each_cell_once(
        grid in 0usize..11,
        edits in edits(),
    ) {
        let file = [
            "chaos_mttr.sweep",
            "congestion.sweep",
            "smoke.sweep",
            "tenant_scale.sweep",
            "paper_table2.sweep",
            "paper_table3.sweep",
            "paper_table1.sweep",
            "paper_figures.sweep",
            "ablations.sweep",
            "ablation_pmd.sweep",
            "scale.sweep",
        ];
        let text = mutate(&shipped(file[grid]), &edits);
        match Grid::parse(&text, &scenarios()) {
            Ok(g) => {
                let specs = g.expand();
                let ids: HashSet<&str> = specs.iter().map(|s| s.id.as_str()).collect();
                prop_assert_eq!(ids.len(), specs.len(), "{}", text);
            }
            Err(e) => placed(&e, &text, &["missing `sweep NAME` header", "declares no variants"])?,
        }
    }

    #[test]
    fn command_lines_parse_or_refuse(line in 0usize..4, edits in edits()) {
        let base = scenarios().display().to_string();
        let lines = [
            format!("--digest --seed 3 --faults {base}/crash_heal.fault {base}/chaos.ppm"),
            format!("--trace --topology fat-tree --metrics m.txt {base}/congestion.ppm"),
            "--runtime real --users 16 --hosts 4 --procs 300 --spans s.jsonl".to_string(),
            "--runtime real --hosts 12 --seed 9 --topology wan-hub --trace".to_string(),
        ];
        let argv = mutate(&lines[line], &edits);
        if let Err(e) = SimArgs::parse(argv.split_whitespace().map(String::from)) {
            prop_assert_eq!(e.line, 0, "{}", argv);
            prop_assert!(!e.message.is_empty(), "{}", argv);
        }
    }
}

/// Every shipped file under `dir` (recursively) whose name ends in `ext`.
fn shipped_files(dir: &std::path::Path, ext: &str, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("scenarios directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            shipped_files(&path, ext, out);
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

/// A token past the ones a statement reads is refused on its own line,
/// never dropped: for every statement of every shipped scenario, fault
/// plan and topology spec, the file with one more token on that line
/// (before its comment) is refused there. The file as shipped parses.
#[test]
fn an_extra_token_on_any_statement_is_refused_on_its_line() {
    type Parse = fn(&str) -> Result<(), LineError>;
    let grammars: [(&str, Parse); 3] = [
        ("ppm", |t| ppm::scenario::parse(t).map(drop)),
        ("fault", |t| FaultPlan::parse(t).map(drop)),
        ("topo", |t| NetSpec::parse(t).map(drop)),
    ];
    let mut statements = 0;
    for (ext, parse) in grammars {
        let mut files = Vec::new();
        shipped_files(&scenarios(), ext, &mut files);
        let mut texts: Vec<(String, String)> = files
            .iter()
            .map(|f| {
                (
                    f.display().to_string(),
                    std::fs::read_to_string(f).expect("readable"),
                )
            })
            .collect();
        if ext == "topo" {
            texts.push(("TOPO".into(), TOPO.into()));
        }
        for (name, text) in texts {
            assert_eq!(parse(&text), Ok(()), "{name} as shipped");
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let (statement, comment) = line.split_at(line.find('#').unwrap_or(line.len()));
                if statement.trim().is_empty() {
                    continue;
                }
                let mut edited = lines.clone();
                let longer = format!("{} surplus {comment}", statement.trim_end());
                edited[i] = &longer;
                let e = parse(&edited.join("\n")).expect_err(&format!("{name}: {longer}"));
                assert_eq!(e.line, i + 1, "{name}: {longer}: {e}");
                statements += 1;
            }
        }
    }
    assert!(statements > 500, "only {statements} statements tried");
}

/// One number reader: a count means the same in every file.
#[test]
fn a_seed_in_hex_means_the_same_in_a_scenario_and_a_fault_plan() {
    let plan = FaultPlan::parse("seed 0x7c2\nat 1s crash a restart 2s").expect("a hex seed");
    assert_eq!(plan.seed, 1986);
    assert_eq!(FaultPlan::parse(&plan.encode()), Ok(plan));
    let sc = ppm::scenario::parse("seed 0x7c2\nhost a\nuser 1 secret=1").expect("a hex seed");
    assert_eq!(sc.seed, 1986);
}
