//! The sweep determinism gates.
//!
//! 1. The checked-in smoke grid renders **byte-identical** reports at
//!    worker counts 1, 4 and 8 — merge order never leaks into the output.
//!    The `chaos_mttr` grid's report digest is pinned at 1 and 8 workers,
//!    so every one of its 64 cells is pinned with it.
//! 2. A pooled cell's digest equals a standalone run of the same spec —
//!    the repro command line really replays the cell.
//! 3. Two worlds on two threads behave exactly like two worlds run
//!    serially — the Send audit's regression test: no thread-local or
//!    shared mutable state couples concurrently-running simulations.
//! 4. Every cell of every shipped grid is the cell its repro line names
//!    when `ppm-sim` parses that line.

use std::path::Path;

use ppm::sweep::{render_report, run_spec, run_specs, Grid, SimArgs};

fn load_grid(file: &str) -> Grid {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    Grid::load(&scenarios.join(file)).unwrap_or_else(|e| panic!("{file} loads: {e}"))
}

fn smoke_grid() -> Grid {
    load_grid("smoke.sweep")
}

#[test]
fn smoke_report_is_byte_identical_across_worker_counts() {
    let grid = smoke_grid();
    let specs = grid.expand();
    assert_eq!(specs.len(), 8, "2 scenarios x 1 plan x 4 seeds");
    let r1 = render_report(&grid, &run_specs(&specs, 1));
    let r4 = render_report(&grid, &run_specs(&specs, 4));
    let r8 = render_report(&grid, &run_specs(&specs, 8));
    assert_eq!(r1, r4, "1 worker vs 4 workers");
    assert_eq!(r4, r8, "4 workers vs 8 workers");
    assert!(
        r1.contains("summary runs=8 ok=8 fail=0"),
        "smoke grid passes"
    );
}

#[test]
fn chaos_mttr_report_digest_is_pinned_at_both_widths() {
    let grid = load_grid("chaos_mttr.sweep");
    let specs = grid.expand();
    assert_eq!(specs.len(), 64);
    for workers in [1, 8] {
        let report = render_report(&grid, &run_specs(&specs, workers));
        assert!(
            report.ends_with("summary runs=64 ok=64 fail=0 digest 8202586a7a9b1415\n"),
            "{workers} worker(s): {:?}",
            report.lines().last()
        );
    }
}

#[test]
fn pooled_cell_digest_equals_standalone_run() {
    let grid = smoke_grid();
    let specs = grid.expand();
    let pooled = run_specs(&specs, 4);
    // One cell per scenario variant is enough: the digest covers the
    // full observable surface, so equality means total replay.
    for spec in [&specs[0], &specs[specs.len() - 1]] {
        let pooled = pooled
            .iter()
            .find(|r| r.id == spec.id)
            .expect("cell present");
        let solo = run_spec(spec);
        assert_eq!(solo.digest, pooled.digest, "{}", spec.id);
        assert_eq!(solo.sim_end_us, pooled.sim_end_us, "{}", spec.id);
        assert_eq!(solo.pooled, pooled.pooled, "{}", spec.id);
    }
}

#[test]
fn two_worlds_on_two_threads_match_serial_reference() {
    let grid = smoke_grid();
    let specs = grid.expand();
    // Two *different* specs so the worlds are not in lockstep: any
    // cross-thread coupling (thread-local pools, shared statics, id
    // allocators) would skew at least one digest.
    let (a, b) = (&specs[0], &specs[specs.len() - 1]);
    let serial = (run_spec(a), run_spec(b));
    let threaded = std::thread::scope(|s| {
        let ta = s.spawn(|| run_spec(a));
        let tb = s.spawn(|| run_spec(b));
        (ta.join().expect("thread a"), tb.join().expect("thread b"))
    });
    assert_eq!(serial.0.digest, threaded.0.digest, "{}", a.id);
    assert_eq!(serial.1.digest, threaded.1.digest, "{}", b.id);
}

#[test]
fn a_repro_line_names_the_cell_it_replays() {
    let grids = [
        "chaos_mttr.sweep",
        "congestion.sweep",
        "smoke.sweep",
        "tenant_scale.sweep",
        "paper_table2.sweep",
        "paper_table3.sweep",
    ];
    for spec in grids.into_iter().flat_map(|g| load_grid(g).expand()) {
        let repro = spec.repro();
        let (_, argv) = repro.split_once(" -- ").expect("a cargo run line");
        let args = SimArgs::parse(argv.split_whitespace().map(String::from));
        let args = args.unwrap_or_else(|e| panic!("{repro}: {e}"));
        let cell = &args.cell;
        assert!(args.digest, "{repro}");
        assert_eq!(cell.variant.kind, spec.variant.kind, "{repro}");
        assert_eq!(cell.plan.plan, spec.plan.plan, "{repro}");
        assert_eq!(cell.topo.arg, spec.topo.arg, "{repro}");
        assert_eq!(cell.topo.spec, spec.topo.spec, "{repro}");
        assert_eq!(cell.seed, spec.seed, "{repro}");
        assert_eq!(cell.runtime, spec.runtime, "{repro}");
    }
}
