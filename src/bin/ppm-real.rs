//! `ppm-real` — the PPM stack on the real backend: loopback TCP,
//! monotonic clocks, thread-per-host nodes.
//!
//! ```console
//! $ cargo run --bin ppm-real
//! $ cargo run --bin ppm-real -- --hosts 5 --trace
//! $ cargo run --bin ppm-real -- --no-kill --metrics /tmp/real.metrics
//! ```
//!
//! Boots `--hosts N` (default 3) node threads sharing one loopback
//! cluster, then drives the same `ppm-core` protocol stack the simulation
//! runs — inetd brokers the pmd, pmds spawn per-user LPMs on demand, and
//! scripted tools authenticate over real sockets. The driver is the same
//! `PpmHarness` the simulation's tests use, built on a `RealRuntime`, and
//! the script is the shared `ppm_tools::drill::recovery_drill`:
//!
//! 1. **remote execution** — a computation rooted on `h0` with one job
//!    spawned onto every other host;
//! 2. **display** — a whole-network snapshot sweep gathered across LPMs;
//! 3. **locate** — the computation's execution sites from that sweep;
//! 4. **crash recovery** (skipped with `--no-kill`) — SIGKILL `h1`'s LPM
//!    out from under its live jobs, then wait for the pmd respawn and
//!    forest re-adoption path to restore the exact pre-crash node set.
//!
//! `--trace` records the cluster's trace in its hub and prints it to
//! stderr once the drill has ended or failed, in the line format of
//! `ppm-sim --trace`; `--metrics <path>` writes every registry published
//! in the cluster.
//! Everything is wall-clock real time; the CI `real-smoke` job runs this
//! under a watchdog and checks the exit code.

use std::process::ExitCode;

use ppm_core::config::PpmConfig;
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::PpmHarness;
use ppm_realos::RealRuntime;
use ppm_runtime::ids::{CpuClass, Uid};
use ppm_tools::drill::{forest_nodes, recovery_drill};

const USER: Uid = Uid(100);
const SECRET: u64 = 0x1986;

/// Runs the shared drill — root on `h0`, one job on every other host,
/// `h1`'s LPM the victim — and prints what it observed.
fn demo(ppm: &mut PpmHarness<RealRuntime>, names: &[String], kill: bool) -> Result<(), String> {
    let peers: Vec<&str> = names[1..].iter().map(String::as_str).collect();
    let victim = kill.then_some(peers[0]);
    let report = recovery_drill(ppm, USER, &names[0], &peers, victim)?;

    println!("exec    root {} (inetd -> pmd -> LPM)", report.root);
    for g in &report.jobs {
        println!("exec    job {g} (logical parent {})", report.root.pid);
    }
    println!("display {} managed processes:", report.procs.len());
    for name in names {
        println!("display   {name}: {:?}", forest_nodes(&report.procs, name));
    }
    println!(
        "locate  computation {} runs on {:?}",
        report.root.pid, report.sites.hosts
    );
    let Some(r) = report.recovery else {
        return Ok(());
    };
    println!("kill    SIGKILL {} LPM (pid {})", peers[0], r.victim.0);
    println!(
        "respawn pmd restarted the LPM as pid {} after {}",
        r.respawned.0, r.respawn_after
    );
    println!(
        "readopt forest node set restored {:?} after {}",
        r.forest, r.readopt_after
    );
    println!("exec    job {} on the respawned LPM", r.after);
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!("usage: ppm-real [--hosts <N>] [--trace] [--no-kill] [--metrics <path>]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut hosts = 3usize;
    let mut trace = false;
    let mut kill = true;
    let mut metrics_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--no-kill" => kill = false,
            "--hosts" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|n| *n >= 2) else {
                    eprintln!("ppm-real: --hosts needs a host count of at least 2");
                    return ExitCode::FAILURE;
                };
                hosts = n;
            }
            "--metrics" => {
                let Some(p) = args.next() else {
                    eprintln!("ppm-real: --metrics needs an output path");
                    return ExitCode::FAILURE;
                };
                metrics_path = Some(p);
            }
            _ => return usage(),
        }
    }

    let started = std::time::Instant::now();
    let names: Vec<String> = (0..hosts).map(|i| format!("h{i}")).collect();
    let mut builder = PpmHarness::builder()
        .pmd_options(PmdOptions {
            stable_storage: true,
            respawn_lpms: true,
        })
        .user(USER, SECRET, &["h0", "h1"], PpmConfig::fast_recovery());
    for (i, name) in names.iter().enumerate() {
        let cpu = if i % 2 == 0 {
            CpuClass::Vax780
        } else {
            CpuClass::Sun2
        };
        builder = builder.host(name.clone(), cpu);
    }
    let mut ppm = builder.build_on(RealRuntime::with_trace(trace));
    println!(
        "boot    {hosts} hosts on loopback TCP, one node thread each (user {})",
        USER.0
    );
    let result = demo(&mut ppm, &names, kill);
    if trace {
        eprint!("{}", ppm.trace_render(None));
    }

    if let Some(p) = metrics_path {
        if let Err(e) = std::fs::write(&p, ppm.metrics_report()) {
            eprintln!("ppm-real: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }

    match result {
        Ok(()) => {
            println!(
                "ok      real cluster demo complete in {:.0?}",
                started.elapsed()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ppm-real: {e}");
            ExitCode::FAILURE
        }
    }
}
