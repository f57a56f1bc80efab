//! Behavioural tests for the stock workload programs, run in a sim world.
//!
//! The programs themselves live in `ppm_runtime::workload` (they are
//! backend-agnostic actors); these tests exercise them under the
//! simulated kernel and network.

use ppm_runtime::ids::{Port, Uid};
use ppm_runtime::process::ProcState;
use ppm_runtime::program::SpawnSpec;
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::ExitStatus;
use ppm_runtime::time::SimDuration;
use ppm_runtime::workload::{Chatter, DutyCycle, EchoServer, TreeSpawner, Worker};
use ppm_simnet::topology::{CpuClass, HostId, HostSpec};
use ppm_simos::world::World;

fn world() -> (World, HostId, HostId) {
    let mut w = World::new(99);
    let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
    let b = w.add_host(HostSpec::new("b", CpuClass::Vax750));
    w.add_link(a, b);
    (w, a, b)
}

#[test]
fn duty_cycle_pins_load_average() {
    let (mut w, a, _) = world();
    for _ in 0..3 {
        w.spawn_user(
            a,
            Uid(1),
            SpawnSpec::new(
                "spin",
                Box::new(DutyCycle::new(0.5, SimDuration::from_millis(200))),
            ),
        )
        .unwrap();
    }
    w.run_for(SimDuration::from_secs(400));
    let la = w.kernel(a).load_avg();
    assert!(
        (1.2..1.8).contains(&la),
        "3 half-duty spinners ≈ 1.5, got {la}"
    );
}

#[test]
fn worker_consumes_cpu_and_exits() {
    let (mut w, a, _) = world();
    let pid = w
        .spawn_user(
            a,
            Uid(1),
            SpawnSpec::new(
                "job",
                Box::new(Worker::new(
                    SimDuration::from_millis(500),
                    SimDuration::from_millis(40),
                )),
            ),
        )
        .unwrap();
    w.run_for(SimDuration::from_secs(2));
    let p = w.kernel(a).get(pid).unwrap();
    assert!(matches!(p.state, ProcState::Exited(_)));
    assert!(p.rusage.cpu >= SimDuration::from_millis(30));
}

#[test]
fn tree_spawner_builds_full_tree() {
    let (mut w, a, _) = world();
    let spec = TreeSpawner::new(2, 2, SimDuration::from_secs(30));
    assert_eq!(spec.total_nodes(), 7);
    let root = w
        .spawn_user(a, Uid(1), SpawnSpec::new("tree-root", Box::new(spec)))
        .unwrap();
    w.run_for(SimDuration::from_secs(5));
    let kern = w.kernel(a);
    let mine = kern.user_processes(Uid(1));
    assert_eq!(mine.len(), 7, "root + 2 + 4 nodes alive");
    // Genealogy: root has exactly two children.
    assert_eq!(kern.get(root).unwrap().children.len(), 2);
}

#[test]
fn chatter_and_echo_exchange_messages() {
    let (mut w, a, b) = world();
    w.spawn_user(
        b,
        Uid(1),
        SpawnSpec::new("echod", Box::new(EchoServer { port: Port(40) })),
    )
    .unwrap();
    w.run_for(SimDuration::from_millis(300));
    let c = w
        .spawn_user(
            a,
            Uid(1),
            SpawnSpec::new("chat", Box::new(Chatter::new(b, Port(40), 100, 5))),
        )
        .unwrap();
    w.run_for(SimDuration::from_secs(5));
    let p = w.kernel(a).get(c).unwrap();
    assert_eq!(p.state, ProcState::Exited(ExitStatus::Code(0)));
    assert_eq!(p.rusage.msgs_sent, 5);
    assert_eq!(p.rusage.msgs_received, 5);
    // Connection stats captured both directions.
    let conn = w.connections().next().unwrap();
    assert_eq!(conn.stats.msgs_to_server, 5);
    assert_eq!(conn.stats.msgs_to_client, 5);
}
