//! `ppm-sweep` — run a declarative sweep grid across every core.
//!
//! ```console
//! $ cargo run --release --bin ppm-sweep -- scenarios/smoke.sweep
//! $ cargo run --release --bin ppm-sweep -- scenarios/chaos_mttr.sweep --workers 8
//! $ cargo run --release --bin ppm-sweep -- scenarios/smoke.sweep \
//!       --repro 'scenario:chaos.ppm|fault:crash_heal.fault|seed=3'
//! ```
//!
//! The grid (see `ppm::sweep` for the grammar) expands into
//! independent runs; `--workers N` (default: every core) fans them out
//! over a work-stealing thread pool, one private simulated world per
//! run. The report on stdout is byte-identical for any worker count —
//! CI runs the same grid twice at different widths and diffs the bytes.
//! Wall-clock and runs/sec go to stderr. `--out <path>` also writes the
//! report to a file; `--repro <spec-id>` prints the single-run `ppm-sim`
//! command line that replays one cell (digest and all) and exits.
//!
//! Exit status is nonzero when any cell fails its predicates, so the
//! grid doubles as a batch acceptance gate.

use std::path::PathBuf;
use std::process::ExitCode;

use ppm::sweep::{render_report, render_timing, run_specs, Grid};

fn usage() -> ExitCode {
    eprintln!("usage: ppm-sweep <grid.sweep> [--workers N] [--out <path>] [--repro <spec-id>]");
    eprintln!("see scenarios/*.sweep for examples and ppm::sweep for the grammar");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut grid_path: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut repro_id: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|n| *n >= 1) else {
                    eprintln!("ppm-sweep: --workers needs a count of at least 1");
                    return ExitCode::FAILURE;
                };
                workers = Some(n);
            }
            "--out" => {
                let Some(p) = args.next() else {
                    eprintln!("ppm-sweep: --out needs a path");
                    return ExitCode::FAILURE;
                };
                out_path = Some(p);
            }
            "--repro" => {
                let Some(id) = args.next() else {
                    eprintln!("ppm-sweep: --repro needs a spec id (variant|plan|seed=N)");
                    return ExitCode::FAILURE;
                };
                repro_id = Some(id);
            }
            _ => grid_path = Some(PathBuf::from(arg)),
        }
    }
    let Some(grid_path) = grid_path else {
        return usage();
    };
    let grid = match Grid::load(&grid_path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ppm-sweep: {}: {e}", grid_path.display());
            return ExitCode::FAILURE;
        }
    };
    let specs = grid.expand();
    if let Some(id) = repro_id {
        return match specs.iter().find(|s| s.id == id) {
            Some(spec) => {
                println!("{}", spec.repro());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("ppm-sweep: no spec {id:?} in this grid; cells are:");
                for s in &specs {
                    eprintln!("  {}", s.id);
                }
                ExitCode::FAILURE
            }
        };
    }
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let started = std::time::Instant::now();
    let results = run_specs(&specs, workers);
    let elapsed = started.elapsed();
    let report = render_report(&grid, &results);
    print!("{report}");
    eprintln!("{}", render_timing(results.len(), workers, elapsed));
    if let Some(p) = out_path {
        if let Err(e) = std::fs::write(&p, &report) {
            eprintln!("ppm-sweep: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if results.iter().any(|r| !r.failures.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
