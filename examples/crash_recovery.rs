//! Crash recovery walkthrough — Section 5 of the paper.
//!
//! The crash coordinator site (CCS) host crashes; surviving LPMs walk the
//! user's `.recovery` list and elect the next home machine; when the
//! original host returns, low-frequency probing hands the role back.
//!
//! Run with: `cargo run --example crash_recovery`

use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::Reply;
use ppm::proto::types::Name;
use ppm::runtime::trace::TraceCategory;
use ppm::simnet::fault::FaultKind;
use ppm::simnet::time::SimDuration;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::Uid;

fn ccs_view(ppm: &mut PpmHarness, host: &str, user: Uid) -> (Name, u64) {
    match ppm.status(host, user, host).unwrap() {
        Reply::Status { ccs, epoch, .. } => (ccs, epoch),
        other => panic!("unexpected {other:?}"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let user = Uid(100);
    // .recovery: home first, then work — "users tend to use only a few
    // hosts as home machines. These home machines serve as recovery
    // orchestrators."
    // Recorded for the recovery timeline printed at the end.
    let mut ppm = PpmHarness::builder()
        .trace(true)
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Vax750)
        .host("far", CpuClass::Sun2)
        .link("home", "work")
        .link("work", "far")
        .link("home", "far")
        .user(user, 0xD00D, &["home", "work"], PpmConfig::fast_recovery())
        .build();

    ppm.spawn_remote("home", user, "work", "editor", None, None)?;
    ppm.spawn_remote("home", user, "far", "simulation", None, None)?;
    let (ccs, epoch) = ccs_view(&mut ppm, "work", user);
    println!("initial view from work: CCS={ccs} epoch={epoch}");

    // The home machine crashes.
    println!("\n*** crashing home ***");
    ppm.world_mut()
        .schedule_fault(
            &FaultKind::Crash {
                host: "home".into(),
            },
            SimDuration::from_millis(10),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(20));

    let (ccs, epoch) = ccs_view(&mut ppm, "work", user);
    println!("after crash, view from work: CCS={ccs} epoch={epoch}");
    let (ccs_far, _) = ccs_view(&mut ppm, "far", user);
    println!("after crash, view from far:  CCS={ccs_far}");

    // The user's computation survives on the remaining hosts.
    let procs = ppm.snapshot("work", user, "*")?;
    println!(
        "\nsurviving processes: {}",
        procs
            .iter()
            .map(|p| p.gpid.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // home returns; probing hands the coordinator role back.
    println!("\n*** restarting home ***");
    ppm.world_mut()
        .schedule_fault(
            &FaultKind::Restart {
                host: "home".into(),
            },
            SimDuration::from_millis(10),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(40));
    let (ccs, epoch) = ccs_view(&mut ppm, "work", user);
    println!("after restart, view from work: CCS={ccs} epoch={epoch}");

    // Show the recovery-related trace entries.
    println!("\n--- recovery timeline ---");
    for e in ppm.world().trace().entries() {
        let text = e.text();
        if matches!(e.category, TraceCategory::Lpm | TraceCategory::Recovery)
            && (text.contains("CCS") || text.contains("seeking") || text.contains("acting"))
        {
            println!("{e}");
        }
    }
    Ok(())
}
