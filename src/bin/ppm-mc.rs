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
use ppm_mc::{explore, replay, replay_trace, Budget};

struct Args {
    suite: String,
    depth: Option<usize>,
    states: Option<u64>,
    repro: bool,
    digest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        suite: "all".to_string(),
        depth: None,
        states: None,
        repro: false,
        digest_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => {
                args.suite = it.next().ok_or("--suite needs a value")?;
            }
            "--depth" => {
                let v = it.next().ok_or("--depth needs a value")?;
                args.depth = Some(v.parse().map_err(|_| format!("bad depth {v}"))?);
            }
            "--states" => {
                let v = it.next().ok_or("--states needs a value")?;
                args.states = Some(v.parse().map_err(|_| format!("bad states {v}"))?);
            }
            "--repro" => args.repro = true,
            "--digest" => args.digest_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppm-mc: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.suite == "all" {
        mc_suites::SUITES.to_vec()
    } else {
        match mc_suites::by_name(&args.suite) {
            Some(_) => vec![mc_suites::SUITES
                .iter()
                .copied()
                .find(|n| *n == args.suite)
                .expect("by_name implies membership")],
            None => {
                eprintln!(
                    "ppm-mc: unknown suite {:?}; known: {}",
                    args.suite,
                    mc_suites::SUITES.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    };
    let mut failed = false;
    for name in names {
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
