//! The paper's Tables 2 and 3, as the shipped grids play them.
//!
//! `scenarios/paper_table2.sweep` and `paper_table3.sweep` run the
//! `scenarios/paper/` cells through the one sweep runner; each timed
//! action's tool-measured elapsed time comes back as a `time=` sample.
//! These tests hold the tables to the paper's shape — orderings, ratios,
//! the 177 ms reconciliation — and pin each grid's report digest, which
//! folds every cell's output, trace and metrics. `paper_table3_noagg.sweep`
//! plays Table 3's chains without in-network aggregation.

use std::path::Path;

use ppm::sweep::{render_report, run_cell, run_specs, Grid, RunResult};

fn load_grid(file: &str) -> Grid {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    Grid::load(&scenarios.join(file)).unwrap_or_else(|e| panic!("{file} loads: {e}"))
}

/// The mean, in ms, of every `label` sample of the cell playing `cell`,
/// pooled over its seeds.
fn mean_ms(results: &[RunResult], cell: &str, label: &str) -> f64 {
    let variant = format!("scenario:paper/{cell}|");
    let samples: Vec<u64> = results
        .iter()
        .filter(|r| r.id.starts_with(&variant))
        .flat_map(|r| &r.times)
        .filter(|(l, _)| l == label)
        .map(|&(_, us)| us)
        .collect();
    assert!(!samples.is_empty(), "no {label} samples for {cell}");
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0
}

/// Runs a grid at one and at eight workers; both reports must end in
/// `summary`. Returns the results and the report of the first run.
fn run_pinned(grid: &Grid, summary: &str) -> (Vec<RunResult>, String) {
    let specs = grid.expand();
    let results = run_specs(&specs, 1);
    let report = render_report(grid, &results);
    for (workers, report) in [
        (1, report.clone()),
        (8, render_report(grid, &run_specs(&specs, 8))),
    ] {
        assert!(
            report.ends_with(summary),
            "{workers} worker(s): {:?}",
            report.lines().last()
        );
    }
    (results, report)
}

#[test]
fn table2_has_the_papers_shape() {
    let grid = load_grid("paper_table2.sweep");
    let (r, report) = run_pinned(
        &grid,
        "summary runs=10 ok=10 fail=0 digest 4aedd793b6d442e9\n",
    );
    // Each label's samples, in the order the cell first plays them.
    assert!(
        report.contains(
            " time:cold mean_us=250411 n=1 time:both-warm mean_us=98931 n=1 \
             time:remote-warm mean_us=174013 n=1\n"
        ),
        "{report}"
    );
    let stop0 = mean_ms(&r, "table2_stop_0hop.ppm", "stop");
    let stop1 = mean_ms(&r, "table2_stop_1hop.ppm", "stop");
    assert!(
        (stop0 - 30.0).abs() / 30.0 < 0.30,
        "within-host stop {stop0:.1} ms vs the paper's 30 ms"
    );
    assert!(
        stop1 > stop0 * 4.0,
        "within host {stop0:.1} ms, one hop {stop1:.1} ms"
    );

    let term1 = mean_ms(&r, "table2_terminate_1hop.ppm", "terminate");
    let term2 = mean_ms(&r, "table2_terminate_2hop.ppm", "terminate");
    assert!(
        (3.0..30.0).contains(&(term2 - term1)),
        "one hop {term1:.1} ms, two hops {term2:.1} ms (paper: 11 ms apart)"
    );

    // The paper's text quotes 177 ms for remote creation once a sibling
    // connection exists: between the warm and the cold regime, closest
    // to the one where only the remote pool is warm.
    let cell = "table2_create_177ms.ppm";
    let warm = mean_ms(&r, cell, "both-warm");
    let remote_warm = mean_ms(&r, cell, "remote-warm");
    let cold = mean_ms(&r, cell, "cold");
    assert!(
        warm < remote_warm && remote_warm < cold,
        "{warm:.1} < {remote_warm:.1} < {cold:.1}"
    );
    assert!(
        (120.0..220.0).contains(&remote_warm),
        "remote-warm {remote_warm:.1} ms should bracket the paper's 177 ms"
    );
}

#[test]
fn table3_has_the_papers_shape() {
    let grid = load_grid("paper_table3.sweep");
    let (r, report) = run_pinned(
        &grid,
        "summary runs=20 ok=20 fail=0 digest 7c3519f3e77d0276\n",
    );
    // A cell line pools its five seeds; a run line holds its own trial.
    let cell = "cell scenario:paper/table3_topology4.ppm|fault:none runs=5 ok=5";
    let line = report
        .lines()
        .find(|l| l.starts_with(cell))
        .expect("cell line");
    assert!(
        line.ends_with(" time:snapshot mean_us=423872 n=5"),
        "{line}"
    );
    assert!(
        report.contains("|seed=1986 digest fab38eb62e093ba2 sim_end_us 29360000 time:snapshot mean_us=426372 n=1 ok\n"),
        "{report}"
    );
    let t: Vec<f64> = (1..=4)
        .map(|i| mean_ms(&r, &format!("table3_topology{i}.ppm"), "snapshot"))
        .collect();
    // A parallel star is barely slower than one remote; a chain is much
    // slower (the paper's ratio is 461 / 205 ≈ 2.25).
    assert!(t[1] < t[0] * 1.35, "{t:?}");
    assert!(t[2] > t[0] * 1.6, "{t:?}");
    // Each topology is strictly slower than the one before (205 < 225 <
    // 461 < 507): topology 4's third contributor costs a merge slot at
    // the tail even though its reply arrives early and in parallel.
    for w in t.windows(2) {
        assert!(w[0] < w[1], "ordering violated: {t:?}");
    }

    // Topology 4's snapshot merges every remote slice: 3 hosts × 6.
    let spec = grid.expand().pop().expect("a cell");
    assert!(spec.id.starts_with("scenario:paper/table3_topology4.ppm|"));
    let run = run_cell(&spec, false, false).unwrap_or_else(|(_, e)| panic!("{e}"));
    assert!(run.output.contains("18 process(es)"), "{}", run.output);
}

/// Table 3's chain rows with and without in-network aggregation: the
/// `_noagg` cells are the chain cells with `noagg` on the user line, so
/// each relay forwards every part it gathered as a frame of its own. At
/// six processes per host the unspliced chains are not slower: each is
/// within 1 % of its spliced row (0.9 ms and 2.0 ms faster at these
/// seeds), so splicing is not what puts the chain rows below the paper's.
#[test]
fn table3_chains_without_splicing() {
    let (noagg, report) = run_pinned(
        &load_grid("paper_table3_noagg.sweep"),
        "summary runs=10 ok=10 fail=0 digest 6ce5a1f582d108e4\n",
    );
    assert!(
        report.contains(
            "cell scenario:paper/table3_topology3_noagg.ppm|fault:none runs=5 ok=5 fail=0 \
             sim_end_us median=28120000 p99=28120000 time:snapshot mean_us=401350 n=5\n"
        ),
        "{report}"
    );
    let spliced = run_specs(&load_grid("paper_table3.sweep").expand(), 1);
    for topology in [3, 4] {
        let with = mean_ms(
            &spliced,
            &format!("table3_topology{topology}.ppm"),
            "snapshot",
        );
        let cell = format!("table3_topology{topology}_noagg.ppm");
        let without = mean_ms(&noagg, &cell, "snapshot");
        assert!(
            (without - with).abs() < with * 0.01,
            "topology {topology}: spliced {with:.1} ms, unspliced {without:.1} ms"
        );
    }
}
