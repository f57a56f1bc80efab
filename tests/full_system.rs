//! Whole-system scenario test across all workspace crates: a user's
//! distributed computation lives through creation, tracking, control,
//! triggers, a host crash with CCS re-election, and post-mortem analysis
//! with every tool.

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::{PpmHarness, Runtime};
use ppm::proto::msg::{ControlAction, Op, Reply};
use ppm::proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm::proto::types::WireProcState;
use ppm::runtime::events::TraceFlags;
use ppm::runtime::program::SpawnSpec;
use ppm::runtime::workload::{TreeSpawner, Worker};
use ppm::simnet::fault::FaultKind;
use ppm::simnet::time::{SimDuration, SimTime};
use ppm::simnet::topology::{CpuClass, HostSpec};
use ppm::simos::ids::Uid;
use ppm::simos::world::World;
use ppm::tools::{forest::Forest, history_tool, ipc_tool, rusage_tool, snapshot};

const ALICE: Uid = Uid(100);
const BOB: Uid = Uid(200);

#[test]
fn a_day_in_the_life_of_the_ppm() {
    let mut ppm = PpmHarness::builder()
        .seed(19860519)
        .host("home", CpuClass::Vax780)
        .host("work", CpuClass::Vax750)
        .host("lab", CpuClass::Sun2)
        .link("home", "work")
        .link("work", "lab")
        .link("home", "lab")
        .user(
            ALICE,
            0xA11CE,
            &["home", "work"],
            PpmConfig::fast_recovery(),
        )
        .user(BOB, 0xB0B, &["work"], PpmConfig::default())
        .build();

    // --- Morning: Alice logs in and starts a local build outside PPM.
    let build_root = ppm
        .spawn_login_process(
            "home",
            ALICE,
            SpawnSpec::new(
                "make",
                Box::new(TreeSpawner::new(2, 1, SimDuration::from_secs(3600))),
            ),
        )
        .expect("login build");
    ppm.run_for(SimDuration::from_secs(2));

    // She invokes the PPM, adopting the running build.
    ppm.adopt("home", ALICE, "home", build_root.0, TraceFlags::ALL.bits())
        .expect("adopt build");

    // And fans a simulation out across the network.
    let sim_root = ppm
        .spawn_remote("home", ALICE, "home", "sim-master", None, None)
        .expect("sim master");
    let worker_work = ppm
        .spawn_remote(
            "home",
            ALICE,
            "work",
            "sim-worker-1",
            Some(sim_root.clone()),
            None,
        )
        .expect("worker 1");
    let worker_lab = ppm
        .spawn_remote(
            "home",
            ALICE,
            "lab",
            "sim-worker-2",
            Some(sim_root.clone()),
            None,
        )
        .expect("worker 2");

    // Bob works independently on the same machines.
    let bob_job = ppm
        .spawn_remote("work", BOB, "lab", "bob-batch", None, None)
        .expect("bob job");

    // --- Midday: a trigger arms cleanup — if worker 1 dies, kill worker 2.
    ppm.run_tool(
        "home",
        ALICE,
        vec![ToolStep::new(
            "work",
            Op::AddTrigger {
                spec: TriggerSpec {
                    id: 1,
                    pattern: EventPattern::kind("exit").with_pid(worker_work.pid),
                    action: TriggerAction::Signal {
                        target: worker_lab.clone(),
                        signal: 9,
                    },
                    once: true,
                },
            },
        )],
        SimDuration::from_secs(30),
    )
    .expect("trigger installed");

    // The global snapshot sees both computations as one forest.
    let procs = ppm.snapshot("home", ALICE, "*").expect("snapshot");
    let forest = Forest::build(procs.clone());
    assert_eq!(forest.hosts(), vec!["home", "lab", "work"]);
    assert!(forest.tree_count() >= 2, "build tree + simulation tree");
    assert!(
        !procs.iter().any(|p| p.command == "bob-batch"),
        "Bob's work is invisible to Alice"
    );
    let art = snapshot::render(procs, "midday snapshot");
    assert!(art.contains("sim-master"));

    // --- Afternoon: the lab machine misbehaves; Alice stops her worker
    // there, inspects it, and the lab host then crashes outright.
    ppm.control("home", ALICE, &worker_lab, ControlAction::Stop)
        .expect("stop");
    let procs = ppm.snapshot("home", ALICE, "lab").expect("lab snapshot");
    assert_eq!(
        procs
            .iter()
            .find(|p| p.gpid == worker_lab)
            .expect("visible")
            .state,
        WireProcState::Stopped
    );

    ppm.world_mut()
        .schedule_fault(
            &FaultKind::Crash { host: "lab".into() },
            SimDuration::from_millis(100),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(10));

    // Lab's processes are gone; the rest of the computation survives.
    let procs = ppm
        .snapshot("home", ALICE, "*")
        .expect("post-crash snapshot");
    assert!(!procs.iter().any(|p| p.gpid.host == "lab"));
    assert!(procs.iter().any(|p| p.gpid == worker_work));

    // Bob's lab job died with the host; his own view still works.
    let bob_procs = ppm.snapshot("work", BOB, "*").expect("bob snapshot");
    assert!(!bob_procs.iter().any(|p| p.gpid == bob_job));

    // --- Evening: worker 1 finishes; the trigger fires, but its target
    // host is already down — the action is recorded, nothing breaks.
    ppm.control("home", ALICE, &worker_work, ControlAction::Kill)
        .expect("kill worker 1");
    ppm.run_for(SimDuration::from_secs(5));
    let events = ppm
        .history("home", ALICE, "work", SimTime::ZERO, 500)
        .expect("history");
    assert!(
        events.iter().any(|e| e.kind == "trigger-signal"),
        "trigger fired: {:?}",
        events.iter().map(|e| &e.kind).collect::<Vec<_>>()
    );

    // Post-mortem with the statistics tool.
    let records = ppm.rusage("home", ALICE, "work", None).expect("rusage");
    let report = rusage_tool::render(&records, "work exits");
    assert!(report.contains("sim-worker-1"));
    assert!(rusage_tool::summarize(&records).signalled >= 1);

    // History profile and IPC report render without issue.
    let all_events = ppm
        .history("home", ALICE, "*", SimTime::ZERO, 500)
        .expect("merged history");
    let profile = history_tool::render_profile(&all_events, "profile");
    assert!(profile.contains("exit"));
    let conns = ipc_tool::connection_report(ppm.world());
    assert!(!conns.is_empty());

    // The lab machine returns; the PPM fabric rebuilds on demand.
    ppm.world_mut()
        .schedule_fault(
            &FaultKind::Restart { host: "lab".into() },
            SimDuration::from_millis(100),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(5));
    let revived = ppm
        .spawn_remote(
            "home",
            ALICE,
            "lab",
            "sim-worker-2b",
            Some(sim_root.clone()),
            None,
        )
        .expect("respawn on revived host");
    let procs = ppm.snapshot("home", ALICE, "*").expect("final snapshot");
    assert!(procs.iter().any(|p| p.gpid == revived));
}

#[test]
fn status_is_consistent_across_observers() {
    let mut ppm = PpmHarness::builder()
        .host("x", CpuClass::Vax780)
        .host("y", CpuClass::Vax750)
        .link("x", "y")
        .user(ALICE, 1, &["x"], PpmConfig::default())
        .build();
    ppm.spawn_remote("x", ALICE, "y", "j", None, None)
        .expect("spawn");
    // Ask y's LPM for its status twice: directly (tool on y) and remotely
    // (tool on x, request relayed by the PPM). Identical answers.
    let from_y = ppm.status("y", ALICE, "y").expect("direct");
    let from_x = ppm.status("x", ALICE, "y").expect("via ppm");
    match (from_y, from_x) {
        (
            Reply::Status {
                host: h1,
                managed: m1,
                ccs: c1,
                ..
            },
            Reply::Status {
                host: h2,
                managed: m2,
                ccs: c2,
                ..
            },
        ) => {
            assert_eq!(h1, h2);
            assert_eq!(m1, m2);
            assert_eq!(c1, c2);
        }
        _ => panic!("status replies expected"),
    }
}

/// The tier-1 copy of `ppm-simos`'s
/// `a_timer_does_not_outlive_the_boot_it_was_armed_in`: the worker that
/// inherits a pid across a crash outlives the old holder's timer.
#[test]
fn a_timer_does_not_outlive_the_boot_it_was_armed_in() {
    let mut w = World::new(3);
    let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
    let worker = |secs| {
        let life = SimDuration::from_secs(secs);
        SpawnSpec::new("worker", Box::new(Worker::new(life, SimDuration::ZERO)))
    };
    let first = w.spawn_user(a, ALICE, worker(60)).unwrap();
    w.schedule_fault(
        &FaultKind::Crash { host: "a".into() },
        SimDuration::from_secs(1),
    )
    .unwrap();
    w.schedule_fault(
        &FaultKind::Restart { host: "a".into() },
        SimDuration::from_secs(2),
    )
    .unwrap();
    w.run_until(SimTime::from_secs(3));
    let second = w.spawn_user(a, ALICE, worker(300)).unwrap();
    assert_eq!(second, first, "the second boot hands the pid out again");
    w.run_until(SimTime::from_secs(100));
    assert!(w.kernel(a).get(second).unwrap().is_alive());
}
