//! Administration of a distributed computation, end to end: the display
//! dashboard, locating a computation's execution sites, broadcasting a
//! software interrupt to all of it (the paper's motivating facility), and
//! the name-server CCS policy of Section 5.
//!
//! Run with: `cargo run --example administration`

use ppm::core::config::{PpmConfig, RecoveryPolicy};
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::ControlAction;
use ppm::simnet::time::SimDuration;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::Uid;
use ppm::tools::{computation, display};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let user = Uid(100);
    // Administrator-coordinated recovery: pmd on "ns" is the name server.
    let cfg = PpmConfig {
        recovery_policy: RecoveryPolicy::NameServer { host: "ns".into() },
        ..PpmConfig::fast_recovery()
    };
    let mut ppm = PpmHarness::builder()
        .host("ns", CpuClass::Vax780)
        .host("east", CpuClass::Vax750)
        .host("west", CpuClass::Vax750)
        .host("edge", CpuClass::Sun2)
        .link("ns", "east")
        .link("ns", "west")
        .link("east", "west")
        .link("west", "edge")
        .user(user, 0xAD317, &[], cfg) // no .recovery file in this mode
        .build();

    // A computation spanning three hosts.
    let root = ppm.spawn_remote("east", user, "east", "coordinator", None, None)?;
    let w1 = ppm.spawn_remote("east", user, "west", "solver-1", Some(root.clone()), None)?;
    let _w2 = ppm.spawn_remote("east", user, "edge", "solver-2", Some(w1.clone()), None)?;
    // And an unrelated background job.
    ppm.spawn_remote("east", user, "west", "nightly-backup", None, None)?;
    ppm.run_for(SimDuration::from_secs(2));

    // The display tool: one call, the whole PPM.
    println!("{}", display::dashboard(&mut ppm, "east", user)?);

    // Locate the computation's execution sites...
    let sites = computation::locate(&mut ppm, "east", user, &root)?;
    println!(
        "computation rooted at {root}: {} member(s) on [{}]",
        sites.members.len(),
        sites.hosts.join(", ")
    );

    // ...and broadcast a stop interrupt to every member — without
    // touching the unrelated backup job.
    let n = computation::signal_computation(&mut ppm, "east", user, &root, ControlAction::Stop)?;
    println!("stopped {n} member(s)\n");
    println!("{}", display::dashboard(&mut ppm, "east", user)?);

    // Resume and shut the computation down for good.
    computation::signal_computation(&mut ppm, "east", user, &root, ControlAction::Background)?;
    let n = computation::signal_computation(&mut ppm, "east", user, &root, ControlAction::Kill)?;
    println!("killed {n} member(s); backup survives:\n");
    ppm.run_for(SimDuration::from_secs(1));
    println!("{}", display::dashboard(&mut ppm, "east", user)?);
    Ok(())
}
