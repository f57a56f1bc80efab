//! The paper's Table 1 and Figures 1–5, the ablations of its design
//! choices and the scale sweep it deferred, as the shipped grids play
//! them.
//!
//! Each exhibit is a set of cells in `scenarios/exhibits/`, played by the
//! one sweep runner through a grid: `paper_table1.sweep`,
//! `paper_figures.sweep`, `ablations.sweep`, `ablation_pmd.sweep` and
//! `scale.sweep`; Figure 5 is the Table 3 cells themselves. These tests
//! pin each grid's report digest and hold the exhibits to their shape,
//! reading each cell's output, trace and metrics the way
//! `tests/paper_tables.rs` does.

use std::path::Path;

use ppm::scenario::Action;
use ppm::sweep::{render_report, run_cell, run_specs, CellRun, Grid};

/// A grid played in full: its report, and each cell's run by id.
struct Played {
    report: String,
    runs: Vec<(String, CellRun)>,
}

impl Played {
    /// Every run of the cell playing `exhibits/{cell}.ppm`, one a seed.
    fn runs<'a>(&'a self, cell: &str) -> impl Iterator<Item = &'a CellRun> {
        let variant = format!("scenario:exhibits/{cell}.ppm|");
        let runs = self
            .runs
            .iter()
            .filter(move |(id, _)| id.starts_with(&variant));
        runs.map(|(_, run)| run)
    }

    /// The run of a one-seed grid's cell.
    fn run(&self, cell: &str) -> &CellRun {
        let run = self.runs(cell).next();
        run.unwrap_or_else(|| panic!("no cell {cell}"))
    }

    /// The mean, in ms, of the cell's `label` samples over its seeds.
    fn time_ms(&self, cell: &str, label: &str) -> f64 {
        let samples: Vec<u64> = (self.runs(cell).flat_map(|run| &run.times))
            .filter(|(l, _)| l == label)
            .map(|&(_, us)| us)
            .collect();
        assert!(!samples.is_empty(), "no {label} samples for {cell}");
        samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0
    }

    /// The value of ` {key}=` on the report's line for `cell`.
    fn cell_field(&self, cell: &str, key: &str) -> f64 {
        let prefix = format!("cell scenario:exhibits/{cell}.ppm|");
        let line = self.report.lines().find(|l| l.starts_with(&prefix));
        let line = line.unwrap_or_else(|| panic!("no cell line for {cell}"));
        let at = line.find(&format!(" {key}=")).expect(key) + key.len() + 2;
        let value = line[at..].split(' ').next().expect("a value");
        value.parse().unwrap_or_else(|_| panic!("{key} in {line}"))
    }
}

/// Plays the grid in `scenarios/{file}`: eight workers for the report,
/// which must end in `summary`, then each cell alone, whose digest must
/// equal its line in the report — so the report is the same however many
/// workers play it.
fn play(file: &str, summary: &str) -> Played {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let grid = Grid::load(&scenarios.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let specs = grid.expand();
    let results = run_specs(&specs, 8);
    let report = render_report(&grid, &results);
    assert!(report.ends_with(summary), "{file}: {report}");
    let runs = specs.iter().zip(&results).map(|(spec, result)| {
        let run = run_cell(spec, false, true).unwrap_or_else(|(_, e)| panic!("{}: {e}", spec.id));
        assert_eq!(run.digest, Some(result.digest), "{} alone", spec.id);
        (spec.id.clone(), run)
    });
    let runs = runs.collect();
    Played { report, runs }
}

/// The simulated instant, ms, a trace line is stamped with.
fn at_ms(line: &str) -> f64 {
    let stamp = line
        .trim_start_matches('[')
        .split("ms")
        .next()
        .expect("a stamp");
    stamp
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("no time in {line:?}"))
}

/// The trace lines stamped at or after `from_ms`.
fn trace_from(run: &CellRun, from_ms: f64) -> impl Iterator<Item = &str> {
    let lines = run.trace.lines().filter(|l| l.starts_with('['));
    lines.filter(move |l| at_ms(l) >= from_ms)
}

/// The dashboard row of `host`: its whitespace-separated columns.
fn dashboard_row<'a>(out: &'a str, host: &str) -> Vec<&'a str> {
    let row = out
        .lines()
        .find(|l| l.split_whitespace().next() == Some(host));
    let row = row.unwrap_or_else(|| panic!("no {host} row in\n{out}"));
    row.split_whitespace().collect()
}

/// A dashboard row's sibling channels: its columns after `epoch`.
fn siblings<'a>(out: &'a str, host: &str) -> Vec<&'a str> {
    let row = dashboard_row(out, host);
    row[6..].iter().map(|s| s.trim_end_matches(',')).collect()
}

#[test]
fn table1_has_the_papers_shape() {
    let t = play(
        "paper_table1.sweep",
        "summary runs=60 ok=60 fail=0 digest 1ae80fc0a8cc1b0b\n",
    );
    let ms = |cell: &str| t.cell_field(&format!("table1_{cell}"), "delivery_us mean") / 1_000.0;
    // The load the dashboard reports at the end of each seed's run.
    let la = |cell: &str| {
        let cell = format!("table1_{cell}");
        let loads: Vec<f64> = t
            .runs(&cell)
            .map(|run| dashboard_row(&run.output, "m")[2].parse().expect("a load"))
            .collect();
        loads.iter().sum::<f64>() / loads.len() as f64
    };
    // The light-load VAX 11/780, the paper's 7.2 ms, from enough samples
    // at a load pinned in its bucket.
    let samples = t.cell_field("table1_vax780_la1", "samples");
    assert!(samples > 100.0, "enough samples: {samples}");
    assert!((0.2..0.9).contains(&la("vax780_la1")), "la pinned");
    let light = ms("vax780_la1");
    assert!((light - 7.2).abs() / 7.2 < 0.25, "{light:.2} ms vs 7.2 ms");
    // Every cell's load lands in its bucket, and delivery slows with it.
    for cpu in ["vax780", "vax750", "sun2"] {
        for bucket in 1..=4 {
            let la = la(&format!("{cpu}_la{bucket}"));
            assert!(
                (bucket as f64 - 1.0..=bucket as f64).contains(&la),
                "{cpu} {la}"
            );
        }
        let by_load: Vec<f64> = (1..=4).map(|b| ms(&format!("{cpu}_la{b}"))).collect();
        assert!(
            by_load.windows(2).all(|w| w[0] < w[1]),
            "{cpu}: {by_load:?}"
        );
    }
    // The SUN II degrades much faster than a VAX.
    let sun = ms("sun2_la4") / ms("sun2_la1");
    let vax = ms("vax750_la4") / ms("vax750_la1");
    assert!(sun > vax * 1.3, "SUN ratio {sun:.2} vs VAX ratio {vax:.2}");
}

#[test]
fn figures_1_to_4_from_live_runs() {
    let f = play(
        "paper_figures.sweep",
        "summary runs=4 ok=4 fail=0 digest 6c740ef3e83abc07\n",
    );
    // Figure 1: every state, across three hosts.
    let one = &f.run("figure1").output;
    for want in [
        "calder",
        "ucbarpa",
        "kim",
        "[exited]",
        "[stopped]",
        "remote child",
    ] {
        assert!(one.contains(want), "{want}: {one}");
    }
    // Figure 2: the four creation steps, in order, in the trace.
    let steps = [
        "connecting to calder:1 ",
        "service pmd started",
        "created LPM",
        "accept address",
    ];
    let trace = &f.run("figure2").trace;
    let mut seen = 0;
    for line in trace.lines() {
        if seen < steps.len() && line.contains(steps[seen]) {
            seen += 1;
        }
    }
    assert_eq!(seen, 4, "steps seen in order: {seen}\n{trace}");
    // Figure 3: each LPM has a channel to both others.
    let three = &f.run("figure3").output;
    for (host, peers) in [
        ("calder", ["kim", "ucbarpa"]),
        ("ucbarpa", ["calder", "kim"]),
        ("kim", ["calder", "ucbarpa"]),
    ] {
        assert_eq!(siblings(three, host), peers, "{three}");
    }
    // Figure 4: the LPM's three kinds of end point.
    let four = &f.run("figure4").output;
    for kind in ["  kernel ", "  listener ", "  socket "] {
        assert!(four.contains(kind), "{kind}: {four}");
    }
}

/// Figure 5: the four snapshot topologies are the sibling channels the
/// Table 3 cells build, one for each distinct (from, dest) of a spawn.
#[test]
fn figure5_is_the_table3_cells() {
    let cell = |i: usize| {
        let path = format!(
            "{}/scenarios/paper/table3_topology{i}.ppm",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("a Table 3 cell");
        ppm::scenario::parse(&text).expect("a Table 3 cell parses")
    };
    let channels = |i: usize| {
        let mut edges: Vec<(String, String)> = Vec::new();
        for (_, _, action, _) in cell(i).actions {
            if let Action::Spawn { from, dest, .. } = action {
                let edge = (from.to_string(), dest.to_string());
                if !edges.contains(&edge) {
                    edges.push(edge);
                }
            }
        }
        edges
    };
    let edge = |a: &str, b: &str| (a.to_string(), b.to_string());
    assert_eq!(channels(1), [edge("root", "a")]);
    assert_eq!(channels(2), [edge("root", "a"), edge("root", "b")]);
    assert_eq!(channels(3), [edge("root", "a"), edge("a", "b")]);
    // Topology 4: a chain of two plus a star leaf.
    let hosts: Vec<String> = cell(4).hosts.iter().map(|(h, _)| h.to_string()).collect();
    assert_eq!(hosts, ["root", "a", "b", "c"]);
    let four = [edge("root", "a"), edge("a", "b"), edge("root", "c")];
    assert_eq!(channels(4), four);
}

#[test]
fn ablations_hold_the_papers_design_choices() {
    let a = play(
        "ablations.sweep",
        "summary runs=10 ok=10 fail=0 digest 3c53d9cdabd1cb1a\n",
    );
    // Handler reuse (§6): a repeat costs less than half a cold request,
    // and without reuse it costs more than twice the warm one.
    let (cold, warm) = (
        a.time_ms("ablation_reuse", "first"),
        a.time_ms("ablation_reuse", "repeat"),
    );
    assert!(warm < cold * 0.5, "warm {warm:.1} ms vs cold {cold:.1} ms");
    let no_reuse = a.time_ms("ablation_noreuse", "repeat");
    assert!(no_reuse > warm * 2.0, "{no_reuse:.1} ms vs {warm:.1} ms");

    // Route learning (§4): a learned route relays through a; without it
    // the root builds a channel of its own to b.
    let dials_b = |cell: &str| {
        let trace = &a.run(cell).trace;
        trace
            .lines()
            .any(|l| l.contains(" h0 net] ") && l.contains("connecting to b:1 "))
    };
    assert!(!dials_b("ablation_routes"), "a learned route relays via a");
    assert!(
        dials_b("ablation_noroutes"),
        "without learning, a channel to b"
    );

    // The stamp window (§4), from the snapshot at 30 s on: each host
    // processes the wave once under either window, copies in flight are
    // suppressed, and only a too-short window forgets settled stamps.
    let window = |cell: &str| {
        let lines: Vec<&str> = trace_from(a.run(cell), 30_000.0).collect();
        let count = |what: &str| lines.iter().filter(|l| l.contains(what)).count();
        let purged: usize = (lines.iter())
            .filter_map(|l| l.split("stamp window purge ").nth(1)?.parse::<usize>().ok())
            .sum();
        (count("] receive "), count("] suppress duplicate"), purged)
    };
    let (processed, suppressed, purged) = window("ablation_window60s");
    assert_eq!(processed, 3, "each remote host processes the wave once");
    assert!(suppressed >= 1, "the mesh makes duplicates");
    assert_eq!(purged, 0, "a healthy window outlives the run");
    let (processed, _, purged) = window("ablation_window60ms");
    assert_eq!(processed, 3, "the active wave suppresses copies in flight");
    assert!(purged > 0, "a too-short window forgets settled stamps");

    // The recovery policy (§5): beta (h2) has a new CCS within a minute
    // of alpha's crash at 3 s, under either policy.
    for cell in ["ablation_recovery_file", "ablation_recovery_ns"] {
        let elected = trace_from(a.run(cell), 3_000.0).find(|l| {
            l.contains(" h2 recov] ")
                && (l.contains("acting as CCS") || l.contains("assigned CCS beta"))
        });
        let elected = elected.unwrap_or_else(|| panic!("{cell}: no new CCS"));
        let secs = (at_ms(elected) - 3_000.0) / 1_000.0;
        assert!(secs < 60.0, "{cell}: re-elected in {secs} s");
    }

    // Density (§4): a mesh has more sibling channels than a star, whose
    // three leaves make three.
    let channels = |cell: &str| {
        let out = &a.run(cell).output;
        let ends: usize = ["h0", "h1", "h2", "h3"]
            .iter()
            .map(|h| siblings(out, h).len())
            .sum();
        ends / 2
    };
    let (star, mesh) = (channels("ablation_star"), channels("ablation_mesh"));
    assert!(mesh > star, "star {star} mesh {mesh}");
    assert_eq!(star, 3);
}

/// pmd stable storage (§5): after a pmd-only crash, a pmd with its
/// registry on stable storage finds the LPM; one without creates a
/// duplicate, which yields and exits.
#[test]
fn stable_storage_keeps_pmd_from_duplicating_lpms() {
    let p = play(
        "ablation_pmd.sweep",
        "summary runs=2 ok=2 fail=0 digest fec289e07b3f8879\n",
    );
    let after_kill = |cell: &str| {
        let lines: Vec<&str> = trace_from(p.run(cell), 1_000.0).collect();
        let duplicates = lines.iter().filter(|l| l.contains("duplicate LPM")).count();
        let found = lines
            .iter()
            .any(|l| l.contains("accept address :1100 (created=false)"));
        (duplicates, found)
    };
    assert_eq!(after_kill("ablation_pmd_stable"), (0, true));
    let (duplicates, found) = after_kill("ablation_pmd_volatile");
    assert!(duplicates >= 1 && !found, "{duplicates} duplicate(s)");
}

#[test]
fn scale_sweep_shapes() {
    let s = play(
        "scale.sweep",
        "summary runs=12 ok=12 fail=0 digest 5661fcd49619a4af\n",
    );
    let procs = |cell: &str| {
        let out = &s.run(&format!("scale_{cell}")).output;
        let line = out
            .lines()
            .find(|l| l.contains(" process(es) in "))
            .expect("a snapshot");
        line.split(' ')
            .next()
            .expect("a count")
            .parse::<usize>()
            .expect("a count")
    };
    let snap = |cell: &str| s.time_ms(&format!("scale_{cell}"), "snapshot");
    let control = |cell: &str| s.time_ms(&format!("scale_{cell}"), "control");

    // A star snapshot at 16 hosts costs far less than 4× the one at 4:
    // the wave is parallel, only the merges at the originator add up.
    assert_eq!(procs("star4"), 3);
    assert_eq!(procs("star16"), 15, "every host contributed");
    let (small, big) = (snap("star4"), snap("star16"));
    assert!(big < small * 3.0, "small {small:.0} ms big {big:.0} ms");

    // A chain's wave is sequential: its cost per leg stays put.
    assert_eq!(procs("chain8"), 7);
    let (d4, d8) = (snap("chain4"), snap("chain8"));
    let ratio = (d8 / 7.0) / (d4 / 3.0);
    assert!((0.6..1.6).contains(&ratio), "per-leg ratio {ratio:.2}");
    assert!(d8 > d4 * 1.7, "{d4:.0} ms, {d8:.0} ms");

    // Stopping one far process costs the same however large the star:
    // "overhead proportional to the amount of service provided".
    let ratio = control("star12") / control("star4");
    assert!((0.7..1.4).contains(&ratio), "far control ratio {ratio:.2}");
}
