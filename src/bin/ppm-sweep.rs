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
//! The command line is read by `ppm::simnet::grammar::Args`, as
//! `ppm-sim`'s is: an unknown flag, a flag without its value and a second
//! grid path are refused with the usage line before any cell runs. Exit status is nonzero when any cell
//! fails its predicates, so the grid doubles as a batch acceptance gate.

use std::path::PathBuf;
use std::process::ExitCode;

use ppm::simnet::grammar::{self, flag_number, flag_value, LineError};
use ppm::sweep::{render_report, render_timing, run_specs, Grid};

fn usage() -> ExitCode {
    eprintln!("usage: ppm-sweep <grid.sweep> [--workers N] [--out <path>] [--repro <spec-id>]");
    eprintln!("see scenarios/*.sweep for examples and ppm::sweep for the grammar");
    ExitCode::FAILURE
}

/// `ppm-sweep`'s command line.
#[derive(Default)]
struct Cli {
    grid: Option<String>,
    workers: Option<usize>,
    out: Option<String>,
    repro: Option<String>,
}

fn parse_args() -> Result<Cli, LineError> {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli::default();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--workers" => cli.workers = Some(flag_number(flag, args.next(), 1)?),
            "--out" => cli.out = Some(flag_value(flag, args.next(), "a path")?),
            "--repro" => {
                cli.repro = Some(flag_value(
                    flag,
                    args.next(),
                    "a spec id (variant|plan|seed=N)",
                )?)
            }
            _ => grammar::operand(arg, &mut cli.grid, "grid path")?,
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ppm-sweep: {e}");
            return usage();
        }
    };
    let Some(grid_path) = cli.grid.map(PathBuf::from) else {
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
    if let Some(id) = cli.repro {
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
    let workers = cli.workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let started = std::time::Instant::now();
    let results = run_specs(&specs, workers);
    let elapsed = started.elapsed();
    let report = render_report(&grid, &results);
    print!("{report}");
    eprintln!("{}", render_timing(results.len(), workers, elapsed));
    if let Some(p) = cli.out {
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
