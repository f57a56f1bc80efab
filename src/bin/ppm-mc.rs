//! `ppm-mc` — bounded model checking of the PPM protocols.
//!
//! Explores every message/crash interleaving of small staged worlds
//! within depth and state budgets, checking the four protocol
//! predicates. Exits nonzero on a violation, printing the minimized
//! counterexample schedule.
//!
//! ```text
//! ppm-mc [--suite NAME|all] [--depth N] [--states N] [--repro] [--digest]
//! ```
//!
//! * `--suite` — one of `exactly-once`, `bcast-dedup`, `election`,
//!   `no-orphans`, or `all` (default).
//! * `--depth` — branch-point budget per schedule (overrides the
//!   suite's default).
//! * `--states` — total state budget per suite (overrides the suite's
//!   default).
//! * `--repro` — run each suite's exploration twice and verify the
//!   visited-state digests agree (the determinism gate); on a
//!   violation, additionally replay the minimized schedule twice.
//! * `--digest` — print one digest line per suite (16-digit hex, the
//!   same rendering `ppm-sim --digest` uses) and nothing else.

use std::process::ExitCode;

use ppm::digest::hex;
use ppm::mc_suites;
use ppm::simnet::grammar::{flag_number, flag_value, LineError};
use ppm_mc::{explore, replay, replay_trace, Budget};

/// `ppm-mc`'s command line.
struct Cli {
    suites: Vec<&'static str>,
    depth: Option<usize>,
    states: Option<u64>,
    repro: bool,
    digest_only: bool,
}

fn parse_args() -> Result<Cli, LineError> {
    let mut cli = Cli {
        suites: mc_suites::SUITES.to_vec(),
        depth: None,
        states: None,
        repro: false,
        digest_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--suite" => {
                let name = flag_value(flag, args.next(), "a value")?;
                let known = mc_suites::SUITES;
                cli.suites = match known.into_iter().find(|n| *n == name) {
                    Some(one) => vec![one],
                    None if name == "all" => known.to_vec(),
                    None => {
                        let known = known.join(", ");
                        return Err(format!("unknown suite {name:?}; known: {known}").into());
                    }
                };
            }
            "--depth" => cli.depth = Some(flag_number(flag, args.next(), 0)?),
            "--states" => cli.states = Some(flag_number(flag, args.next(), 0)?),
            "--repro" => cli.repro = true,
            "--digest" => cli.digest_only = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppm-mc: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for name in args.suites.iter().copied() {
        let s = mc_suites::by_name(name).expect("listed suite exists");
        let budget = Budget {
            max_depth: args.depth.unwrap_or(s.default_budget.max_depth),
            max_states: args.states.unwrap_or(s.default_budget.max_states),
        };
        let (stats, violation) = explore(&s, budget);
        if args.digest_only {
            println!("{name} {}", hex(stats.digest));
        } else {
            println!(
                "suite {name}: states={} branch_points={} dedup={} quiescent={} truncated={} digest={}",
                stats.states,
                stats.branch_points,
                stats.dedup_hits,
                stats.quiescent,
                stats.truncated,
                hex(stats.digest),
            );
        }
        if args.repro {
            let (again, _) = explore(&s, budget);
            if again.digest != stats.digest {
                eprintln!(
                    "suite {name}: NONDETERMINISTIC exploration ({} vs {})",
                    hex(stats.digest),
                    hex(again.digest)
                );
                failed = true;
            } else if !args.digest_only {
                println!("suite {name}: exploration digest stable across 2 runs");
            }
        }
        if let Some(v) = violation {
            failed = true;
            eprintln!("VIOLATION in {name}: {}", v.predicate);
            eprintln!("minimized schedule ({} moves):", v.picks.len());
            for (i, step) in v.trace.iter().enumerate() {
                eprintln!("  {:>2}. {step}", i + 1);
            }
            eprintln!("picks: {:?}", v.picks);
            if args.repro {
                let d1 = replay(&s, &v.picks).digest();
                let d2 = replay(&s, &v.picks).digest();
                let trace2 = replay_trace(&s, &v.picks);
                if d1 == d2 && trace2 == v.trace {
                    eprintln!(
                        "repro: schedule replays deterministically (state {})",
                        hex(d1)
                    );
                } else {
                    eprintln!("repro: REPLAY DIVERGED ({} vs {})", hex(d1), hex(d2));
                }
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
