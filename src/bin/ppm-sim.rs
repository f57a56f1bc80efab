//! `ppm-sim` — run a PPM scenario file against the simulated network, a
//! real loopback cluster or the model checker's world.
//!
//! ```console
//! $ cargo run --bin ppm-sim -- scenarios/demo.ppm
//! $ cargo run --bin ppm-sim -- --trace scenarios/demo.ppm
//! $ cargo run --bin ppm-sim -- --trace --hosts 24
//! $ cargo run --bin ppm-sim -- --runtime real --trace scenarios/drill.ppm
//! ```
//!
//! A command line is a one-cell sweep grid: `ppm::sweep::SimArgs` loads
//! it with the loaders a `.sweep` file's directives use, and
//! `ppm::sweep::run_cell` runs it as it runs a grid's cells. An unknown
//! flag, a second scenario path and `--procs` without `--users` are
//! refused with the usage line.
//!
//! | `ppm-sim` | `.sweep` | What it does |
//! |---|---|---|
//! | `<scenario-file>` | `scenario <file>` | plays a scenario (grammar in `src/scenario.rs`) |
//! | `--hosts N` | `chain N` | generates the chain: `N` hosts in a line, one process spawned onto each from its predecessor, closed by a whole-network snapshot gathered across `N - 1` relay hops |
//! | `--users U --hosts N [--procs P]` | `storm UxN [procs=P]` | the multi-tenant storm: `P` forks (default `U × 2000`) by `U` users, each with an LPM on every host they touch (`ppm_harness::tenant`); throughput and peak RSS go to stderr |
//! | `--seed S` | `seeds S` | overrides the scenario's `seed` statement; a storm's default is 1986 |
//! | `--faults <plan>` | `faults <plan>` | arms a fault plan (grammar in `ppm_simnet::fault`); the pmds keep stable storage and respawn LPMs, so the system heals itself |
//! | `--topology <preset\|file>` | `topology <preset\|file>` | installs the network model: a preset (`full-mesh`, `fat-tree`, `wan-hub`, `last-mile`) over the cell's hosts, or a spec file (`ppm_simnet::topology`); deliveries are priced over its routes and `net.*` metrics appear; without it the flat wire law holds, byte-identical to pre-netmodel builds |
//! | `--runtime sim\|real\|mc` | — (grids run on the sim) | picks the runtime (below) |
//! | `--digest` | each `run` line's digest | appends `digest <16-hex>`: the FNV-1a fold of output, trace and metrics text, so a cell's repro line re-checks its digest |
//! | `--trace` | — | appends the full trace after the output |
//! | `--metrics <path>` | `expect-metric` reads the same text | writes every metrics registry (the kernel event path, each LPM's counters) |
//! | `--spans <path>` | — | records spans, writes them as JSONL and as a Chrome `trace_event` file at `<path>.chrome.json` |
//!
//! The trace is recorded only under `--trace` or `--digest`, on every
//! runtime: a run that neither prints nor folds it keeps none, and its
//! output and metrics are the same bytes either way.
//!
//! `--runtime sim|real|mc` (default `sim`) picks what the cell plays on:
//! the simulation, node threads on loopback TCP with the wall clock, or
//! the checker's world under its default schedule. Off the sim, the
//! hosts are one LAN segment, and what only the sim can play — `crash`,
//! `restart`, `link-down`, `link-up`, a partial mesh of `link`s,
//! `--seed`, `--faults`, `--topology`, `--hosts` and `--users` — is
//! refused before a host boots (a scenario's `seed` line seeds only the
//! sim: the others make no seeded choice). A run that fails midway, on
//! any runtime, still prints its output and `--trace` and writes
//! `--metrics`, which say how far it got.
//!
//! The sim is seeded, so two runs of the same cell produce identical
//! output, traces, metrics and span files — CI diffs them as a
//! determinism gate.

use std::process::ExitCode;

use ppm::sweep::{run_cell, CellRun, SimArgs, VariantKind};

/// Writes `text` to `path`, reporting a failure the way every output
/// flag does.
fn write_file(path: &str, text: &str) -> bool {
    std::fs::write(path, text)
        .map_err(|e| eprintln!("ppm-sim: cannot write {path}: {e}"))
        .is_ok()
}

/// Prints a cell's run and writes the files the flags asked for; the
/// digest only of a run that finished.
fn emit(run: &CellRun, args: &SimArgs, finished: bool) -> bool {
    print!("{}", run.output);
    if args.trace {
        print!("{}", run.trace);
    }
    if let Some(digest) = run.digest.filter(|_| args.digest && finished) {
        println!("digest {}", ppm::digest::hex(digest));
    }
    let ok = args
        .metrics
        .as_ref()
        .is_none_or(|p| write_file(p, &run.metrics));
    match (&args.spans, &run.spans) {
        (Some(p), Some((jsonl, chrome))) => {
            ok && write_file(p, jsonl) && write_file(&format!("{p}.chrome.json"), chrome)
        }
        _ => ok,
    }
}

/// Wall-clock throughput and peak RSS of a storm: observational, so
/// they go to stderr where the determinism diff never sees them.
fn report_storm_rate(users: u32, hosts: u16, procs: u64, elapsed: std::time::Duration) {
    let rate = procs as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "ppm-sim: {procs} processes across {users} users on {hosts} hosts in {elapsed:.2?} \
         ({rate:.0} procs/sec)"
    );
    // Peak RSS (VmHWM) covers the whole run including the world build;
    // Linux-only.
    if let Some(kb) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
    {
        eprintln!("ppm-sim: peak rss {kb} kB");
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppm-sim [--runtime sim|real|mc] [--trace] [--digest] [--seed <S>] \
         [--metrics <path>] [--spans <path>] [--faults <plan>] [--topology <preset|file>] \
         (<scenario-file> | --hosts <N> | --users <U> --hosts <N> [--procs <P>])"
    );
    eprintln!("see scenarios/ for examples and src/scenario.rs for the grammar");
    eprintln!("fault plans: see scenarios/*.fault and ppm_simnet::fault for the grammar");
    eprintln!("sweep grids: see scenarios/*.sweep and the ppm-sweep binary");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match SimArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ppm-sim: {e}");
            return usage();
        }
    };
    let started = std::time::Instant::now();
    // The trace is recorded only for a reader: `--trace` prints it and
    // `--digest` folds it.
    let trace = args.trace || args.digest;
    match run_cell(&args.cell, args.spans.is_some(), trace) {
        Ok(run) => {
            if let VariantKind::Storm {
                users,
                hosts,
                procs,
            } = args.cell.variant.kind
            {
                report_storm_rate(users, hosts, procs, started.elapsed());
            }
            if emit(&run, &args, true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err((run, e)) => {
            if let Some(run) = run {
                emit(&run, &args, false);
            }
            eprintln!("ppm-sim: {}: {e}", args.cell.variant.args);
            ExitCode::FAILURE
        }
    }
}
