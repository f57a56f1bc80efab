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
//! `--users U --hosts N` runs the multi-tenant scale scenario instead: a
//! seeded fork/exec/exit storm (`--seed S`, default 1986) of `--procs P`
//! processes (default `U × 2000`) across `U` per-user shards on `N`
//! hosts, driven by one discrete-event engine (see `ppm_harness::tenant`).
//! The report on stdout and the `--metrics` file are deterministic;
//! wall-clock throughput goes to stderr.
//!
//! `--seed S` also overrides a scenario file's (or the generated chain
//! scenario's) `seed` statement — the knob the `ppm-sweep` harness turns
//! to fan one scenario across a seed grid.
//!
//! `--digest` appends one `digest <16-hex>` line to stdout: the FNV-1a
//! fold of the run's observable surface (scenario output + trace +
//! metrics text, or the scale report + its metrics). The sweep harness
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

/// The `--users U --hosts N` multi-tenant storm: build a
/// [`ppm_harness::tenant::TenantWorld`] from the canonical
/// [`ppm_harness::tenant::scale_spec`], run it to the fork target, print
/// the deterministic report, and (optionally) write the shard metrics.
/// Wall-clock throughput is observational, so it goes to stderr where
/// the determinism diff never sees it.
fn run_scale(
    users: u32,
    hosts: u16,
    seed: u64,
    procs: Option<u64>,
    metrics_path: Option<String>,
    digest: bool,
) -> ExitCode {
    use ppm_harness::tenant::{scale_spec, TenantWorld};

    let spec = scale_spec(users, hosts, seed);
    let procs = procs.unwrap_or_else(|| u64::from(users).saturating_mul(2_000));
    let started = std::time::Instant::now();
    let mut world = TenantWorld::new(spec, procs);
    let report = world.run();
    let elapsed = started.elapsed();
    let rendered = report.render();
    print!("{rendered}");
    let rows = ppm_core::obs::rows(&world.metrics().snapshot());
    let text = ppm_core::obs::render_metrics(&[("tenant".to_string(), rows)]);
    if digest {
        println!(
            "digest {}",
            ppm::digest::hex(ppm::digest::fnv1a(&[&rendered, &text]))
        );
    }
    let rate = report.procs as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "ppm-sim: {} processes across {} users on {} hosts in {:.2?} ({:.0} procs/sec)",
        report.procs, report.users, report.hosts, elapsed, rate
    );
    // Peak RSS (VmHWM) covers the whole run including the world build;
    // Linux-only, observational, stderr like the throughput line.
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
    if let Some(p) = metrics_path {
        if let Err(e) = std::fs::write(&p, text) {
            eprintln!("ppm-sim: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppm-sim [--trace] [--digest] [--seed <S>] [--metrics <path>] [--spans <path>] \
         [--faults <plan>] [--topology <preset|file>] <scenario-file>"
    );
    eprintln!(
        "       ppm-sim [--trace] [--digest] [--seed <S>] [--metrics <path>] [--spans <path>] \
         [--faults <plan>] [--topology <preset|file>] --hosts <N>"
    );
    eprintln!(
        "       ppm-sim [--digest] [--metrics <path>] --users <U> --hosts <N> [--seed <S>] \
         [--procs <P>]"
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
                        ppm_simnet::topology::NetSpec::PRESETS.join(", ")
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
    if let Some(users) = users {
        let Some(hosts) = hosts.filter(|&n| n >= 2 && n <= u16::MAX as usize) else {
            eprintln!("ppm-sim: --users needs --hosts (2 ..= 65535)");
            return ExitCode::FAILURE;
        };
        if topology_arg.is_some() {
            eprintln!("ppm-sim: --topology is not supported with --users (storm mode)");
            return ExitCode::FAILURE;
        }
        return run_scale(
            users,
            hosts as u16,
            seed.unwrap_or(1986),
            procs,
            metrics_path,
            digest,
        );
    }
    let (name, text) = match (hosts, path) {
        (Some(n), None) => (format!("--hosts {n}"), ppm::scenario::chain_scenario(n)),
        (None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(t) => (path, t),
            Err(e) => {
                eprintln!("ppm-sim: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage(),
    };
    let mut scenario = match ppm::scenario::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ppm-sim: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(s) = seed {
        scenario.seed = s;
    }
    let plan = match faults_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(t) => match ppm_simnet::fault::FaultPlan::parse(&t) {
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
    let topology = match topology_arg {
        Some(arg) => {
            let host_names: Vec<String> = scenario.hosts.iter().map(|(n, _)| n.clone()).collect();
            match ppm::scenario::resolve_topology(&arg, &host_names) {
                Ok(spec) => Some(spec),
                Err(e) => {
                    eprintln!("ppm-sim: --topology {arg}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let mut out = String::new();
    let opts = ppm::scenario::ExecOptions {
        spans: spans_path.is_some(),
        faults: plan.as_ref(),
        topology: topology.as_ref(),
    };
    match ppm::scenario::execute_with(&scenario, &mut out, opts) {
        Ok(ppm) => {
            print!("{out}");
            if trace {
                print!("{}", ppm.world().core().trace().render(None));
            }
            if digest {
                let trace_text = ppm.world().core().trace().render(None);
                let metrics_text = ppm.metrics_report();
                println!(
                    "digest {}",
                    ppm::digest::hex(ppm::digest::fnv1a(&[&out, &trace_text, &metrics_text]))
                );
            }
            if let Some(p) = metrics_path {
                if let Err(e) = std::fs::write(&p, ppm.metrics_report()) {
                    eprintln!("ppm-sim: cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(p) = spans_path {
                if let Err(e) = std::fs::write(&p, ppm.spans_jsonl()) {
                    eprintln!("ppm-sim: cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
                let chrome = format!("{p}.chrome.json");
                if let Err(e) = std::fs::write(&chrome, ppm.spans_chrome()) {
                    eprintln!("ppm-sim: cannot write {chrome}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            print!("{out}");
            eprintln!("ppm-sim: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
