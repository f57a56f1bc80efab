//! The snapshot tool session of Figure 1: adopt an untracked login-shell
//! computation, render the genealogy, and drive it with the four control
//! verbs; then inspect descriptors and IPC activity with the Section 7
//! tools.
//!
//! Run with: `cargo run --example snapshot_tool`

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{Op, Reply};
use ppm::proto::types::Gpid;
use ppm::runtime::events::TraceFlags;
use ppm::runtime::program::SpawnSpec;
use ppm::runtime::workload::{Chatter, EchoServer, TreeSpawner};
use ppm::simnet::time::SimDuration;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::{Port, Uid};
use ppm::tools::{files_tool, ipc_tool, SnapshotTool};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let user = Uid(100);
    let mut ppm = PpmHarness::builder()
        .host("calder", CpuClass::Vax780)
        .host("ucbarpa", CpuClass::Vax750)
        .link("calder", "ucbarpa")
        .user(user, 0x50FA, &["calder"], PpmConfig::default())
        .build();

    // A login session started work *before* invoking the PPM: a process
    // tree and a chattering client/server pair.
    let root = ppm.spawn_login_process(
        "calder",
        user,
        SpawnSpec::new(
            "make",
            Box::new(TreeSpawner::new(2, 2, SimDuration::from_secs(600))),
        ),
    )?;
    let echo_host = ppm.host("ucbarpa")?;
    ppm.spawn_login_process(
        "ucbarpa",
        user,
        SpawnSpec::new("echod", Box::new(EchoServer { port: Port(50) })),
    )?;
    ppm.run_for(SimDuration::from_secs(1));
    ppm.spawn_login_process(
        "calder",
        user,
        SpawnSpec::new(
            "chatter",
            Box::new(Chatter::new(echo_host, Port(50), 256, 20)),
        ),
    )?;
    ppm.run_for(SimDuration::from_secs(2));

    // Adopt the tree ("Adoption may be necessary if the user did not
    // invoke the process management services at login time").
    ppm.adopt("calder", user, "calder", root.0, TraceFlags::ALL.bits())?;

    let mut tool = SnapshotTool::new(&mut ppm, "calder", user);
    println!("{}", tool.show("*")?);

    // Control verbs on one of the workers.
    let target = Gpid::new("calder", root.0 + 1);
    tool.stop(&target)?;
    println!("{}", tool.show("calder")?);
    tool.foreground(&target)?;
    tool.kill(&target)?;
    let mut view = tool.show("calder")?;
    view.truncate(view.len().min(2000));
    println!("{view}");

    // Descriptor listing of the LPM itself (Figure 4's endpoint kinds).
    let lpm_pid = ppm.find_proc("calder", user, "lpm").expect("lpm alive");
    let outcome = ppm.run_tool(
        "calder",
        user,
        vec![ToolStep::new("calder", Op::OpenFiles { pid: lpm_pid.0 })],
        SimDuration::from_secs(30),
    )?;
    if let Some(Reply::Files { entries }) = outcome.reply(0) {
        println!(
            "{}",
            files_tool::render_fds(entries, "descriptors of the calder LPM")
        );
    }

    // IPC activity analysis from the substrate's connection statistics.
    let report = ipc_tool::connection_report(ppm.world());
    let interesting: Vec<_> = report
        .into_iter()
        .filter(|r| r.msgs.0 + r.msgs.1 > 4)
        .collect();
    println!(
        "{}",
        ipc_tool::render_connections(&interesting, "busiest connections")
    );
    Ok(())
}
