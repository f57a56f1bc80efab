//! `ppm-sim` — run a PPM scenario file against the simulated network.
//!
//! ```console
//! $ cargo run --bin ppm-sim -- scenarios/demo.ppm
//! $ cargo run --bin ppm-sim -- --trace scenarios/demo.ppm
//! $ cargo run --bin ppm-sim -- --trace --hosts 24
//! ```
//!
//! `--trace` appends the full simulation trace after the scenario output.
//! `--hosts N` generates and runs a chain-topology scale scenario instead
//! of reading a file: `N` hosts in a line, one process spawned onto each
//! host from its chain predecessor, closed by a whole-network snapshot
//! sweep the origin gathers across `N - 1` relay hops.
//!
//! `--users U --hosts N` runs the multi-tenant storm instead: a seeded
//! fork/exec/exit storm (`--seed S`, default 1986) of `--procs P`
//! processes (default `U × 2000`) by `U` users, each with an LPM of their
//! own on every one of the `N` hosts they touch (see
//! `ppm_harness::tenant`). Every other flag means what it means for a
//! scenario. The report on stdout and the `--trace`, `--metrics` and
//! `--spans` output are deterministic; wall-clock throughput goes to
//! stderr.
//!
//! `--seed S` also overrides a scenario file's (or the generated chain
//! scenario's) `seed` statement — the knob the `ppm-sweep` harness turns
//! to fan one scenario across a seed grid.
//!
//! `--digest` appends one `digest <16-hex>` line to stdout: the FNV-1a
//! fold of the run's observable surface (scenario output or storm
//! report + trace + metrics text). The sweep harness
//! computes cell digests over exactly the same strings, so a cell's
//! digest can be re-checked by running its repro command line here.
//!
//! `--metrics <path>` writes every metrics registry in the world (the
//! kernel event path plus each LPM's counters) as stable text at end of
//! run. `--spans <path>` enables structured trace spans, writes them as
//! JSONL, and writes a Chrome `trace_event` rendering alongside at
//! `<path>.chrome.json` (loadable in `chrome://tracing` / Perfetto).
//!
//! `--topology <preset|file>` installs the bandwidth- and topology-aware
//! network model before the run: `full-mesh`, `fat-tree`, `wan-hub` or
//! `last-mile` build a preset over the scenario's hosts, anything else is
//! read as a topology spec file (grammar in `ppm_simnet::topology`).
//! Deliveries are then priced over the installed routes — per-link
//! latency plus fair-share serialization under contention — and the
//! `net.*` metrics appear in `--metrics` output. Without the flag the
//! flat wire law is in force and output is byte-identical to pre-netmodel
//! builds.
//!
//! `--faults <plan>` arms a scripted fault plan (see `ppm_simnet::fault`
//! for the grammar): hosts crash and restart, LPMs are killed, links cut
//! and heal, and the wire drops/duplicates/reorders with seeded
//! probabilities. Fault runs enable pmd stable storage and LPM respawn
//! so the system heals itself.
//!
//! The world is seeded, so two runs of the same scenario produce
//! identical traces, metrics and span files — CI diffs them as a
//! determinism gate.

use std::process::ExitCode;

use ppm::sweep::{run_cell, CellRun, CellTopology, VariantKind};
use ppm_simnet::fault::FaultPlan;
use ppm_simnet::topology::NetSpec;

/// Writes `text` to `path`, reporting a failure the way every output
/// flag does.
fn write_file(path: &str, text: &str) -> bool {
    std::fs::write(path, text)
        .map_err(|e| eprintln!("ppm-sim: cannot write {path}: {e}"))
        .is_ok()
}

/// Prints a finished cell and writes the files the flags asked for.
fn emit(
    run: &CellRun,
    trace: bool,
    digest: bool,
    metrics_path: Option<&str>,
    spans_path: Option<&str>,
) -> ExitCode {
    print!("{}", run.output);
    if trace {
        print!("{}", run.trace);
    }
    if digest {
        println!("digest {}", ppm::digest::hex(run.digest));
    }
    let mut ok = metrics_path.is_none_or(|p| write_file(p, &run.metrics));
    if let (Some(p), Some((jsonl, chrome))) = (spans_path, &run.spans) {
        ok = ok && write_file(p, jsonl) && write_file(&format!("{p}.chrome.json"), chrome);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Wall-clock throughput and peak RSS of a storm: observational, so
/// they go to stderr where the determinism diff never sees them.
fn report_storm_rate(users: u32, hosts: usize, procs: u64, elapsed: std::time::Duration) {
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
        "usage: ppm-sim [--trace] [--digest] [--seed <S>] [--metrics <path>] [--spans <path>] \
         [--faults <plan>] [--topology <preset|file>] \
         (<scenario-file> | --hosts <N> | --users <U> --hosts <N> [--procs <P>])"
    );
    eprintln!("see scenarios/ for examples and src/scenario.rs for the grammar");
    eprintln!("fault plans: see scenarios/*.fault and ppm_simnet::fault for the grammar");
    eprintln!("sweep grids: see scenarios/*.sweep and the ppm-sweep binary");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut trace = false;
    let mut digest = false;
    let mut hosts: Option<usize> = None;
    let mut users: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut procs: Option<u64> = None;
    let mut path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut spans_path: Option<String> = None;
    let mut faults_path: Option<String> = None;
    let mut topology_arg: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--digest" => digest = true,
            "--faults" => {
                let Some(p) = args.next() else {
                    eprintln!("ppm-sim: --faults needs a fault-plan path");
                    return ExitCode::FAILURE;
                };
                faults_path = Some(p);
            }
            "--topology" => {
                let Some(t) = args.next() else {
                    eprintln!(
                        "ppm-sim: --topology needs a preset ({}) or a spec file",
                        NetSpec::PRESETS.join(", ")
                    );
                    return ExitCode::FAILURE;
                };
                topology_arg = Some(t);
            }
            "--hosts" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|n| *n >= 2) else {
                    eprintln!("ppm-sim: --hosts needs a host count of at least 2");
                    return ExitCode::FAILURE;
                };
                hosts = Some(n);
            }
            "--users" => {
                let Some(u) = args.next().and_then(|v| v.parse().ok()).filter(|u| *u >= 1) else {
                    eprintln!("ppm-sim: --users needs a user count of at least 1");
                    return ExitCode::FAILURE;
                };
                users = Some(u);
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("ppm-sim: --seed needs an integer");
                    return ExitCode::FAILURE;
                };
                seed = Some(s);
            }
            "--procs" => {
                let Some(p) = args.next().and_then(|v| v.parse().ok()).filter(|p| *p >= 1) else {
                    eprintln!("ppm-sim: --procs needs a process count of at least 1");
                    return ExitCode::FAILURE;
                };
                procs = Some(p);
            }
            "--metrics" => {
                let Some(p) = args.next() else {
                    eprintln!("ppm-sim: --metrics needs an output path");
                    return ExitCode::FAILURE;
                };
                metrics_path = Some(p);
            }
            "--spans" => {
                let Some(p) = args.next() else {
                    eprintln!("ppm-sim: --spans needs an output path");
                    return ExitCode::FAILURE;
                };
                spans_path = Some(p);
            }
            _ => path = Some(arg),
        }
    }
    let (name, kind) = match (users, hosts, path) {
        (Some(users), Some(n), None) => {
            // Whether so many hosts may be built is the cell's to say.
            let Ok(hosts) = u16::try_from(n) else {
                eprintln!("ppm-sim: --users needs --hosts of at most 65535");
                return ExitCode::FAILURE;
            };
            let procs = procs.unwrap_or_else(|| u64::from(users).saturating_mul(2_000));
            let kind = VariantKind::Storm {
                users,
                hosts,
                procs,
            };
            (format!("--users {users} --hosts {n}"), kind)
        }
        (None, Some(hosts), None) => (format!("--hosts {hosts}"), VariantKind::Chain { hosts }),
        (None, None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(text) => (path, VariantKind::Scenario { text: text.into() }),
            Err(e) => {
                eprintln!("ppm-sim: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage(),
    };
    let plan = match faults_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(t) => match FaultPlan::parse(&t) {
                Ok(plan) => Some(plan),
                Err(e) => {
                    eprintln!("ppm-sim: {p}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("ppm-sim: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // A preset is instantiated over the scenario's hosts inside the cell;
    // anything else is a topology spec file, read and checked here.
    let is_preset = |arg: &&str| NetSpec::PRESETS.contains(arg);
    let spec_file = match topology_arg.as_deref().filter(|a| !is_preset(a)) {
        Some(arg) => {
            let spec = std::fs::read_to_string(arg)
                .map_err(|e| format!("cannot read topology {arg}: {e}"))
                .and_then(|text| NetSpec::parse(&text));
            match spec {
                Ok(spec) => Some(spec),
                Err(e) => {
                    eprintln!("ppm-sim: --topology {arg}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let topology = match &spec_file {
        Some(spec) => Some(CellTopology::Spec(spec)),
        None => topology_arg.as_deref().map(CellTopology::Preset),
    };
    let spans = spans_path.is_some();
    let started = std::time::Instant::now();
    let run = run_cell(&kind, seed, plan.as_ref(), topology, spans);
    if let (VariantKind::Storm { users, procs, .. }, Some(hosts), Ok(_)) = (&kind, hosts, &run) {
        report_storm_rate(*users, hosts, *procs, started.elapsed());
    }
    match run {
        Ok(run) => emit(
            &run,
            trace,
            digest,
            metrics_path.as_deref(),
            spans_path.as_deref(),
        ),
        Err((out, e)) => {
            print!("{out}");
            eprintln!("ppm-sim: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
