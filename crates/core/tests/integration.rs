//! End-to-end tests of the PPM over the simulated network: LPM creation,
//! adoption, genealogy, distributed control, remote creation, snapshots,
//! history, statistics and triggers — the failure-free operation of
//! Sections 2–4 and 6.

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_harness::harness::{HarnessBuilder, HarnessError, PpmHarness};
use ppm_proto::msg::{ControlAction, Op, Reply};
use ppm_proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm_proto::types::{Gpid, WireProcState};
use ppm_runtime::events::TraceFlags;
use ppm_runtime::fd::OpenMode;
use ppm_runtime::ids::{ConnId, Fd, HostId, Port};
use ppm_runtime::process::ProcState;
use ppm_runtime::program::{ConnEvent, Program, SigAction, SpawnSpec};
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_runtime::workload::{EchoServer, TreeSpawner, Worker};
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);
const SECRET: u64 = 0x1986;

/// Three Berkeley-ish hosts in a line: calder — ucbarpa — kim.
fn three_hosts() -> PpmHarness {
    three_hosts_builder().build()
}

/// The same hosts unbuilt, for a test that turns the trace on to read it.
fn three_hosts_builder() -> HarnessBuilder {
    PpmHarness::builder()
        .host("calder", CpuClass::Vax780)
        .host("ucbarpa", CpuClass::Vax750)
        .host("kim", CpuClass::Sun2)
        .link("calder", "ucbarpa")
        .link("ucbarpa", "kim")
        .user(USER, SECRET, &["calder", "ucbarpa"], PpmConfig::default())
}

#[test]
fn lpm_created_ab_initio_via_inetd_and_pmd() {
    let mut ppm = three_hosts_builder().trace(true).build();
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("calder", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(outcome.error.is_none());
    assert!(outcome.created_lpm, "first contact creates the LPM");
    assert!(matches!(outcome.reply(0), Some(Reply::Pong)));

    // The Figure-2 chain is visible in the trace: pmd service start and
    // LPM creation on calder.
    let trace = ppm.world().core().trace().render(None);
    assert!(trace.contains("service pmd started"), "inetd started pmd");
    assert!(trace.contains("created LPM"), "pmd created the LPM");

    // Second tool run finds the existing LPM.
    let outcome2 = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("calder", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(!outcome2.created_lpm, "LPM persists between tool sessions");
}

#[test]
fn adoption_tracks_existing_process_tree() {
    let mut ppm = three_hosts();
    // A login-session process tree outside PPM control: root + 2 + 4.
    let root = ppm
        .spawn_login_process(
            "calder",
            USER,
            SpawnSpec::new(
                "make",
                Box::new(TreeSpawner::new(2, 2, SimDuration::from_secs(600))),
            ),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(2));

    ppm.adopt("calder", USER, "calder", root.0, TraceFlags::ALL.bits())
        .unwrap();
    let procs = ppm.snapshot("calder", USER, "calder").unwrap();
    assert_eq!(
        procs.len(),
        7,
        "root and all descendants adopted: {procs:?}"
    );
    assert!(procs.iter().all(|p| p.adopted));
    // Genealogy is intact: exactly two children of the root.
    let children = procs.iter().filter(|p| p.ppid == root.0).count();
    assert_eq!(children, 2);
}

#[test]
fn adoption_of_other_users_process_is_denied() {
    let mut ppm = PpmHarness::builder()
        .host("calder", CpuClass::Vax780)
        .user(USER, SECRET, &["calder"], PpmConfig::default())
        .user(Uid(200), 77, &["calder"], PpmConfig::default())
        .build();
    let other = ppm
        .spawn_login_process("calder", Uid(200), SpawnSpec::inert("secret-job"))
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));
    let err = ppm
        .adopt("calder", USER, "calder", other.0, TraceFlags::ALL.bits())
        .unwrap_err();
    assert!(
        matches!(err, HarnessError::Lpm(ref s) if s.contains("Permission")),
        "{err}"
    );
}

#[test]
fn remote_process_creation_and_logical_parent() {
    let mut ppm = three_hosts();
    // Local anchor process, adopted.
    let anchor = ppm
        .spawn_login_process("calder", USER, SpawnSpec::inert("master"))
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));
    ppm.adopt("calder", USER, "calder", anchor.0, TraceFlags::ALL.bits())
        .unwrap();

    let logical_parent = Some(Gpid::new("calder", anchor.0));
    let child = ppm
        .spawn_remote(
            "calder",
            USER,
            "ucbarpa",
            "worker",
            logical_parent.clone(),
            None,
        )
        .unwrap();
    assert_eq!(child.host, "ucbarpa");

    let procs = ppm.snapshot("calder", USER, "*").unwrap();
    let rec = procs
        .iter()
        .find(|p| p.gpid == child)
        .expect("remote child visible");
    assert_eq!(rec.logical_parent, logical_parent);
    assert_eq!(rec.state, WireProcState::Running);
    assert_eq!(rec.command, "worker");
}

#[test]
fn control_across_machine_boundaries_stop_continue_kill() {
    let mut ppm = three_hosts();
    // kim is two physical hops from calder.
    let gpid = ppm
        .spawn_remote("calder", USER, "kim", "job", None, None)
        .unwrap();
    let kim = ppm.host("kim").unwrap();
    let pid = ppm_simos::ids::Pid(gpid.pid);

    ppm.control("calder", USER, &gpid, ControlAction::Stop)
        .unwrap();
    ppm.run_for(SimDuration::from_millis(200));
    assert_eq!(
        ppm.world().core().kernel(kim).get(pid).unwrap().state,
        ProcState::Stopped
    );

    ppm.control("calder", USER, &gpid, ControlAction::Background)
        .unwrap();
    ppm.run_for(SimDuration::from_millis(200));
    assert_eq!(
        ppm.world().core().kernel(kim).get(pid).unwrap().state,
        ProcState::Running
    );

    ppm.control("calder", USER, &gpid, ControlAction::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_millis(200));
    assert!(!ppm.world().core().kernel(kim).get(pid).unwrap().is_alive());

    // The snapshot marks it dead (exit information retained).
    let procs = ppm.snapshot("calder", USER, "kim").unwrap();
    let rec = procs
        .iter()
        .find(|p| p.gpid == gpid)
        .expect("dead process still listed");
    assert_eq!(rec.state, WireProcState::Dead);
}

#[test]
fn control_of_unknown_pid_reports_no_such_process() {
    let mut ppm = three_hosts();
    let err = ppm
        .control(
            "calder",
            USER,
            &Gpid::new("ucbarpa", 9999),
            ControlAction::Kill,
        )
        .unwrap_err();
    assert!(
        matches!(err, HarnessError::Lpm(ref s) if s.contains("NoSuchProcess")),
        "{err}"
    );
}

#[test]
fn snapshot_spanning_three_hosts_is_a_forest_with_exit_retention() {
    let mut ppm = three_hosts();
    let parent = ppm
        .spawn_remote("calder", USER, "calder", "root-proc", None, None)
        .unwrap();
    let c1 = ppm
        .spawn_remote(
            "calder",
            USER,
            "ucbarpa",
            "child-1",
            Some(parent.clone()),
            None,
        )
        .unwrap();
    let c2 = ppm
        .spawn_remote("calder", USER, "kim", "child-2", Some(parent.clone()), None)
        .unwrap();

    // Kill the logical root; children live on — the paper retains exit
    // info while children are alive and marks the process as exited.
    ppm.control("calder", USER, &parent, ControlAction::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    let procs = ppm.snapshot("calder", USER, "*").unwrap();
    let root = procs
        .iter()
        .find(|p| p.gpid == parent)
        .expect("dead root retained");
    assert_eq!(root.state, WireProcState::Dead);
    for c in [&c1, &c2] {
        let rec = procs.iter().find(|p| p.gpid == *c).expect("children alive");
        assert_eq!(rec.state, WireProcState::Running);
        assert_eq!(rec.logical_parent.as_ref(), Some(&parent));
    }
}

#[test]
fn rusage_statistics_for_exited_processes() {
    let mut ppm = three_hosts();
    let gpid = ppm
        .spawn_remote(
            "calder",
            USER,
            "ucbarpa",
            "short-job",
            None,
            Some(SimDuration::from_secs(2)),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(5)); // job exits voluntarily

    let records = ppm.rusage("calder", USER, "ucbarpa", None).unwrap();
    let rec = records
        .iter()
        .find(|r| r.gpid == gpid)
        .expect("exit record kept");
    assert_eq!(rec.command, "short-job");
    assert_eq!(rec.status, 0);
    assert!(rec.exited_us > 0);

    // Pid-filtered query.
    let one = ppm
        .rusage("calder", USER, "ucbarpa", Some(gpid.pid))
        .unwrap();
    assert_eq!(one.len(), 1);
    let none = ppm.rusage("calder", USER, "ucbarpa", Some(424242)).unwrap();
    assert!(none.is_empty());
}

#[test]
fn history_records_lifecycle_events() {
    let mut ppm = three_hosts();
    let gpid = ppm
        .spawn_remote("calder", USER, "ucbarpa", "traced", None, None)
        .unwrap();
    ppm.control("calder", USER, &gpid, ControlAction::Stop)
        .unwrap();
    ppm.control("calder", USER, &gpid, ControlAction::Foreground)
        .unwrap();
    ppm.control("calder", USER, &gpid, ControlAction::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    let events = ppm
        .history("calder", USER, "ucbarpa", SimTime::ZERO, 500)
        .unwrap();
    let kinds: Vec<&str> = events
        .iter()
        .filter(|e| e.gpid == gpid)
        .map(|e| e.kind.as_str())
        .collect();
    assert!(kinds.contains(&"exec"), "{kinds:?}");
    assert!(kinds.contains(&"stop"), "{kinds:?}");
    assert!(kinds.contains(&"cont"), "{kinds:?}");
    assert!(kinds.contains(&"exit"), "{kinds:?}");
    // Ordering: exec before exit.
    let exec_pos = kinds.iter().position(|k| *k == "exec").unwrap();
    let exit_pos = kinds.iter().position(|k| *k == "exit").unwrap();
    assert!(exec_pos < exit_pos);
}

#[test]
fn broadcast_history_merges_across_hosts() {
    let mut ppm = three_hosts();
    ppm.spawn_remote("calder", USER, "ucbarpa", "a", None, None)
        .unwrap();
    ppm.spawn_remote("calder", USER, "kim", "b", None, None)
        .unwrap();
    let events = ppm
        .history("calder", USER, "*", SimTime::ZERO, 500)
        .unwrap();
    let hosts: std::collections::BTreeSet<&str> =
        events.iter().map(|e| e.gpid.host.as_str()).collect();
    assert!(
        hosts.contains("ucbarpa") && hosts.contains("kim"),
        "{hosts:?}"
    );
    // Merged stream is time-sorted.
    assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
}

#[test]
fn triggers_fire_on_exit_and_notify() {
    let mut ppm = three_hosts();
    let gpid = ppm
        .spawn_remote("calder", USER, "ucbarpa", "watched", None, None)
        .unwrap();
    let spec = TriggerSpec {
        id: 7,
        pattern: EventPattern::kind("exit").with_pid(gpid.pid),
        action: TriggerAction::Notify {
            note: "watched job finished".into(),
        },
        once: true,
    };
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("ucbarpa", Op::AddTrigger { spec })],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(matches!(outcome.reply(0), Some(Reply::Ok)));

    ppm.control("calder", USER, &gpid, ControlAction::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    let events = ppm
        .history("calder", USER, "ucbarpa", SimTime::ZERO, 500)
        .unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.kind == "trigger" && e.detail.contains("watched job finished")),
        "trigger notification recorded"
    );
}

#[test]
fn trigger_signals_a_remote_process_event_driven() {
    let mut ppm = three_hosts();
    // Two processes on different hosts; when A exits, B must be killed.
    let a = ppm
        .spawn_remote("calder", USER, "ucbarpa", "job-a", None, None)
        .unwrap();
    let b = ppm
        .spawn_remote("calder", USER, "kim", "job-b", None, None)
        .unwrap();
    let spec = TriggerSpec {
        id: 1,
        pattern: EventPattern::kind("exit").with_pid(a.pid),
        action: TriggerAction::Signal {
            target: b.clone(),
            signal: 9,
        },
        once: true,
    };
    ppm.run_tool(
        "calder",
        USER,
        vec![ToolStep::new("ucbarpa", Op::AddTrigger { spec })],
        SimDuration::from_secs(30),
    )
    .unwrap();

    ppm.control("calder", USER, &a, ControlAction::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(3));

    let kim = ppm.host("kim").unwrap();
    let alive = ppm
        .world()
        .core()
        .kernel(kim)
        .get(ppm_simos::ids::Pid(b.pid))
        .unwrap()
        .is_alive();
    assert!(
        !alive,
        "exit of job-a triggered the kill of job-b across hosts"
    );
}

#[test]
fn list_and_delete_triggers() {
    let mut ppm = three_hosts();
    let mk = |id| Op::AddTrigger {
        spec: TriggerSpec {
            id,
            pattern: EventPattern::kind("exit"),
            action: TriggerAction::Notify {
                note: format!("t{id}"),
            },
            once: false,
        },
    };
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![
                ToolStep::new("calder", mk(1)),
                ToolStep::new("calder", mk(2)),
                ToolStep::new("calder", Op::DelTrigger { id: 1 }),
                ToolStep::new("calder", Op::ListTriggers),
                ToolStep::new("calder", Op::DelTrigger { id: 99 }),
            ],
            SimDuration::from_secs(30),
        )
        .unwrap();
    match outcome.reply(3) {
        Some(Reply::Triggers { entries }) => {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].id, 2);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        matches!(outcome.reply(4), Some(Reply::Err { .. })),
        "deleting unknown trigger errs"
    );
}

#[test]
fn open_files_listing_shows_descriptors() {
    let mut ppm = three_hosts();
    let gpid = ppm
        .spawn_remote("calder", USER, "ucbarpa", "editor", None, None)
        .unwrap();
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("ucbarpa", Op::OpenFiles { pid: gpid.pid })],
            SimDuration::from_secs(30),
        )
        .unwrap();
    match outcome.reply(0) {
        Some(Reply::Files { entries }) => {
            // A plain worker has no descriptors; the call itself must work.
            assert!(entries.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }

    // The LPM's own descriptor table shows the Figure-4 endpoint types.
    let lpm_pid = ppm
        .find_proc("ucbarpa", USER, "lpm")
        .expect("LPM running on ucbarpa");
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("ucbarpa", Op::OpenFiles { pid: lpm_pid.0 })],
            SimDuration::from_secs(30),
        )
        .unwrap();
    match outcome.reply(0) {
        Some(Reply::Files { entries }) => {
            let kinds: Vec<&str> = entries.iter().map(|e| e.kind.as_str()).collect();
            assert!(kinds.contains(&"kernel"), "kernel socket: {kinds:?}");
            assert!(kinds.contains(&"listener"), "accept socket: {kinds:?}");
            assert!(kinds.contains(&"socket"), "tool/sibling sockets: {kinds:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn status_reports_siblings_and_ccs() {
    let mut ppm = three_hosts();
    ppm.spawn_remote("calder", USER, "ucbarpa", "x", None, None)
        .unwrap();
    match ppm.status("calder", USER, "calder").unwrap() {
        Reply::Status {
            host,
            siblings,
            ccs,
            ..
        } => {
            assert_eq!(host, "calder");
            assert!(siblings.iter().any(|s| s == "ucbarpa"), "{siblings:?}");
            assert_eq!(ccs, "calder", "top of the recovery list");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn tracing_granularity_is_user_settable() {
    let mut ppm = three_hosts();
    // Spawn, then restrict tracing to signals only.
    let gpid = ppm
        .spawn_remote("calder", USER, "ucbarpa", "quiet", None, None)
        .unwrap();
    let t0 = ppm.now();
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new(
                "ucbarpa",
                Op::SetTraceFlags {
                    pid: gpid.pid,
                    flags: TraceFlags::SIGNALS.bits(),
                },
            )],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(matches!(outcome.reply(0), Some(Reply::Ok)));

    // Kill it: the signal is reported (SIGNALS flag), and the exit event
    // is suppressed (PROC flag cleared).
    ppm.control("calder", USER, &gpid, ControlAction::Kill)
        .unwrap();
    ppm.run_for(SimDuration::from_secs(1));
    let events = ppm.history("calder", USER, "ucbarpa", t0, 500).unwrap();
    let mine: Vec<&str> = events
        .iter()
        .filter(|e| e.gpid == gpid)
        .map(|e| e.kind.as_str())
        .collect();
    assert!(mine.contains(&"signal"), "{mine:?}");
    assert!(
        !mine.contains(&"exit"),
        "exit suppressed at signal-only granularity: {mine:?}"
    );
}

#[test]
fn deterministic_runs_with_same_seed() {
    let run = |seed: u64| {
        let mut ppm = PpmHarness::builder()
            .seed(seed)
            .host("a", CpuClass::Vax780)
            .host("b", CpuClass::Vax750)
            .link("a", "b")
            .user(USER, SECRET, &["a"], PpmConfig::default())
            .build();
        let g = ppm.spawn_remote("a", USER, "b", "j", None, None).unwrap();
        let o = ppm
            .run_tool(
                "a",
                USER,
                vec![ToolStep::new("*", Op::Snapshot)],
                SimDuration::from_secs(30),
            )
            .unwrap();
        (g, o.replies.last().map(|(_, t)| *t), ppm.now())
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "identical reply timing for identical seeds");
    let c = run(8);
    assert!(a.1 != c.1 || a.0 != c.0, "different seed perturbs the run");
}

#[test]
fn lpm_stats_expose_internal_counters() {
    let mut ppm = three_hosts();
    // Exercise the pipeline: two remote creations and one broadcast.
    ppm.spawn_remote("calder", USER, "ucbarpa", "a", None, None)
        .unwrap();
    ppm.spawn_remote("calder", USER, "kim", "b", None, None)
        .unwrap();
    ppm.snapshot("calder", USER, "*").unwrap();

    match ppm.lpm_stats("calder", USER, "calder").unwrap() {
        Reply::Stats {
            requests,
            bcasts,
            handlers,
            ..
        } => {
            assert!(
                requests >= 4,
                "spawns + snapshot + stats itself: {requests}"
            );
            assert_eq!(bcasts.0, 1, "one broadcast originated");
            assert!(handlers.0 >= 1, "remote legs forked handlers");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The remote LPM saw the wave but originated nothing.
    match ppm.lpm_stats("calder", USER, "ucbarpa").unwrap() {
        Reply::Stats { bcasts, .. } => {
            assert_eq!(bcasts.0, 0);
            assert_eq!(bcasts.1, 1, "participated in one broadcast");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn route_cache_hits_are_counted() {
    // Chain with sibling edges calder-ucbarpa and ucbarpa-kim only; a
    // broadcast teaches calder the route to kim, and a directed request
    // then relays through ucbarpa (a route-cache hit at calder).
    let mut ppm = three_hosts();
    ppm.spawn_remote("calder", USER, "ucbarpa", "a", None, None)
        .unwrap();
    let far = ppm
        .spawn_remote("ucbarpa", USER, "kim", "b", None, None)
        .unwrap();
    ppm.snapshot("calder", USER, "*").unwrap();
    ppm.control("calder", USER, &far, ControlAction::Stop)
        .unwrap();

    match ppm.lpm_stats("calder", USER, "calder").unwrap() {
        Reply::Stats {
            route_cache_hits, ..
        } => {
            assert!(
                route_cache_hits >= 1,
                "directed request used the learned route"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // The relay is counted at the intermediate LPM.
    match ppm.lpm_stats("calder", USER, "ucbarpa").unwrap() {
        Reply::Stats { relays, .. } => {
            assert!(relays >= 1, "ucbarpa relayed for calder");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn hop_budget_limits_relaying_but_not_delivery() {
    // Sibling edges calder-ucbarpa and ucbarpa-kim; requests from calder
    // to kim must relay through ucbarpa once the route is learned.
    let build = |max_hops: u8| {
        let cfg = PpmConfig {
            max_hops,
            ..PpmConfig::default()
        };
        let mut ppm = PpmHarness::builder()
            .host("calder", CpuClass::Vax780)
            .host("ucbarpa", CpuClass::Vax750)
            .host("kim", CpuClass::Sun2)
            .link("calder", "ucbarpa")
            .link("ucbarpa", "kim")
            .user(USER, SECRET, &["calder"], cfg)
            .build();
        ppm.spawn_remote("calder", USER, "ucbarpa", "a", None, None)
            .unwrap();
        let far = ppm
            .spawn_remote("ucbarpa", USER, "kim", "b", None, None)
            .unwrap();
        ppm.snapshot("calder", USER, "*").unwrap(); // teach the route
        (ppm, far)
    };

    // Budget 1: one relay allowed; the request reaches kim.
    let (mut ppm, far) = build(1);
    ppm.control("calder", USER, &far, ControlAction::Stop)
        .unwrap();

    // Budget 0: the relay at ucbarpa refuses.
    let (mut ppm, far) = build(0);
    let err = ppm
        .control("calder", USER, &far, ControlAction::Stop)
        .unwrap_err();
    assert!(
        err.to_string().contains("NoRoute") || err.to_string().contains("hop"),
        "{err}"
    );

    // Budget 0 does not block direct delivery to an adjacent sibling.
    let (mut ppm, _) = build(0);
    let near = ppm
        .spawn_remote("calder", USER, "ucbarpa", "near", None, None)
        .unwrap();
    ppm.control("calder", USER, &near, ControlAction::Stop)
        .unwrap();
}

#[test]
fn concurrent_tools_are_all_served() {
    let mut ppm = three_hosts();
    ppm.spawn_remote("calder", USER, "ucbarpa", "job", None, None)
        .unwrap();
    // Three tools fire at once at the same LPM: a broadcast snapshot, a
    // status query and a history query.
    let h1 = ppm
        .launch_tool("calder", USER, vec![ToolStep::new("*", Op::Snapshot)])
        .unwrap();
    let h2 = ppm
        .launch_tool("calder", USER, vec![ToolStep::new("calder", Op::Status)])
        .unwrap();
    let h3 = ppm
        .launch_tool(
            "calder",
            USER,
            vec![ToolStep::new(
                "ucbarpa",
                Op::History {
                    since_us: 0,
                    max: 50,
                },
            )],
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(20));
    for (i, h) in [h1, h2, h3].iter().enumerate() {
        let o = h.lock().unwrap().clone();
        assert!(o.done, "tool {i} finished");
        assert!(o.error.is_none(), "tool {i}: {:?}", o.error);
        assert_eq!(o.replies.len(), 1, "tool {i}");
    }
}

#[test]
fn cpu_threshold_trigger_fires_end_to_end() {
    let mut ppm = three_hosts();
    // Install a trigger killing any "runaway" that burned >= 200 ms CPU.
    let spec = TriggerSpec {
        id: 9,
        pattern: EventPattern::default()
            .with_command_prefix("runaway")
            .with_min_cpu_us(200_000),
        action: TriggerAction::KillTree {
            root: Gpid::new("ucbarpa", 0), // placeholder; replaced below
        },
        once: false,
    };
    // A modest job stays under the threshold; a hog exceeds it.
    let modest = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new(
                "ucbarpa",
                Op::Spawn {
                    command: "runaway-small".into(),
                    logical_parent: None,
                    lifetime_us: Some(60_000_000),
                    work_us: 50_000,
                    cpu_bound: false,
                },
            )],
            SimDuration::from_secs(30),
        )
        .unwrap();
    let modest_gpid = match modest.reply(0) {
        Some(Reply::Spawned { gpid }) => gpid.clone(),
        other => panic!("{other:?}"),
    };
    let hog = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new(
                "ucbarpa",
                Op::Spawn {
                    command: "runaway-hog".into(),
                    logical_parent: None,
                    lifetime_us: Some(60_000_000),
                    work_us: 400_000,
                    cpu_bound: false,
                },
            )],
            SimDuration::from_secs(30),
        )
        .unwrap();
    let hog_gpid = match hog.reply(0) {
        Some(Reply::Spawned { gpid }) => gpid.clone(),
        other => panic!("{other:?}"),
    };
    // Register the trigger with the hog as its kill root: the cpu
    // threshold is evaluated against the event's process, so the action
    // fires only once the hog's accounted CPU crosses 200 ms.
    let spec = TriggerSpec {
        action: TriggerAction::Signal {
            target: hog_gpid.clone(),
            signal: 9,
        },
        ..spec
    };
    ppm.run_tool(
        "calder",
        USER,
        vec![ToolStep::new("ucbarpa", Op::AddTrigger { spec })],
        SimDuration::from_secs(30),
    )
    .unwrap();

    // Poke both processes so kernel events (with CPU accounting) flow.
    ppm.control("calder", USER, &modest_gpid, ControlAction::Stop)
        .unwrap();
    ppm.control("calder", USER, &modest_gpid, ControlAction::Background)
        .unwrap();
    // The stop's own signal event can already fire the trigger, in which
    // case the follow-up control races with the kill — tolerate that.
    let _ = ppm.control("calder", USER, &hog_gpid, ControlAction::Stop);
    let _ = ppm.control("calder", USER, &hog_gpid, ControlAction::Background);
    ppm.run_for(SimDuration::from_secs(5));

    let ucbarpa = ppm.host("ucbarpa").unwrap();
    let hog_alive = ppm
        .world()
        .core()
        .kernel(ucbarpa)
        .get(ppm_simos::ids::Pid(hog_gpid.pid))
        .unwrap()
        .is_alive();
    assert!(
        !hog_alive,
        "the hog crossed the CPU threshold and was killed"
    );
    // The modest job survives its own signals (its CPU stays under).
    let modest_state = ppm
        .world()
        .core()
        .kernel(ucbarpa)
        .get(ppm_simos::ids::Pid(modest_gpid.pid))
        .unwrap()
        .state;
    assert_eq!(modest_state, ProcState::Running);
}

/// FNV-1a over a reply's encoding: one number for "the same reply".
fn reply_digest(reply: &Reply) -> u64 {
    use ppm_proto::codec::Wire;
    reply.to_bytes().iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What a tool gets back did not change when replies stopped being
/// decoded inside the LPMs: a sixteen-host sweep (seen from the root of
/// the cover tree and from a leaf) and a directed snapshot relayed
/// through an intermediate LPM are, byte for byte, the replies the
/// record-level path produced. The digests were taken from the commit
/// before the change.
#[test]
fn snapshot_replies_are_the_ones_the_record_level_path_gave() {
    // h0 at the root of a 4-ary sibling tree, three processes a host.
    let host = |i: usize| format!("h{i}");
    let mut b = PpmHarness::builder().seed(17);
    for i in 0..16 {
        let cpu = [CpuClass::Vax780, CpuClass::Vax750, CpuClass::Sun2][i % 3];
        b = b.host(host(i), cpu);
    }
    for i in 1..16 {
        b = b.link(host((i - 1) / 4), host(i));
    }
    let mut ppm = b.user(USER, SECRET, &["h0"], PpmConfig::default()).build();
    let mut parent = ppm
        .spawn_remote("h0", USER, "h0", "root", None, None)
        .unwrap();
    for i in 1..16 {
        for j in 0..3 {
            let command = format!("job{j}-on-{i}");
            let logical = (j == 0).then(|| parent.clone());
            let gpid = ppm
                .spawn_remote(&host((i - 1) / 4), USER, &host(i), &command, logical, None)
                .unwrap();
            if j == 0 {
                parent = gpid;
            }
        }
    }
    let mut sweep = |from: &str| {
        let out = ppm
            .run_tool(
                from,
                USER,
                vec![ToolStep::new("*", Op::Snapshot)],
                SimDuration::from_secs(60),
            )
            .unwrap();
        let reply = out.reply(0).expect("answered").clone();
        let Reply::Snapshot { host, procs } = &reply else {
            panic!("unexpected {reply:?}");
        };
        assert_eq!(host, "*");
        assert_eq!(procs.len(), 46);
        reply_digest(&reply)
    };
    assert_eq!(sweep("h0"), 0xc1c7b48ff1a0042, "sweep from the root");
    assert_eq!(sweep("h9"), 0xc1c7b48ff1a0042, "sweep from a leaf");

    // calder — ucbarpa — kim: once a sweep has taught calder the route,
    // a snapshot directed at kim is relayed by ucbarpa's LPM.
    let mut ppm = three_hosts();
    ppm.spawn_remote("calder", USER, "ucbarpa", "a", None, None)
        .unwrap();
    for command in ["b", "c"] {
        ppm.spawn_remote("ucbarpa", USER, "kim", command, None, None)
            .unwrap();
    }
    ppm.snapshot("calder", USER, "*").unwrap();
    let out = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("kim", Op::Snapshot)],
            SimDuration::from_secs(60),
        )
        .unwrap();
    let reply = out.reply(0).expect("answered");
    assert!(matches!(reply, Reply::Snapshot { host, procs } if host == "kim" && procs.len() == 2));
    assert_eq!(
        reply_digest(reply),
        0xdc916e8cc4b39f92,
        "relayed directed snapshot"
    );
    match ppm.lpm_stats("calder", USER, "ucbarpa").unwrap() {
        Reply::Stats { relays, .. } => assert!(relays >= 1, "ucbarpa relayed it"),
        other => panic!("unexpected {other:?}"),
    }
}

/// A traced job that produces every kind of kernel event once it is
/// told to go: opens a file, forks a short-lived child, exchanges one
/// message with an echo server, closes the file, and catches SIGUSR1.
struct ScriptedJob {
    echo: (HostId, Port),
    log: Option<Fd>,
}

impl Program for ScriptedJob {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        // Held so the adopt lands before the first event.
        sys.set_timer(SimDuration::from_secs(2), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        self.log = Some(sys.open("/usr/tmp/scripted.log", OpenMode::Write));
        let kid = Worker::new(SimDuration::from_millis(200), SimDuration::from_millis(5));
        sys.spawn(SpawnSpec::new("kid", Box::new(kid))).unwrap();
        sys.connect(self.echo.0, self.echo.1).unwrap();
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if event == ConnEvent::Established {
            sys.send(conn, vec![0x55u8; 112]).unwrap();
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, _conn: ConnId, _data: bytes::Bytes) {
        if let Some(fd) = self.log.take() {
            sys.close_fd(fd).unwrap();
        }
    }

    fn on_signal(&mut self, _sys: &mut dyn Sys, signal: Signal) -> SigAction {
        match signal {
            Signal::Usr1 => SigAction::Handled,
            _ => SigAction::Default,
        }
    }
}

/// What `Op::History` and `Op::Rusage` answer did not change when the
/// LPM stopped storing wire records: one scripted job (fork, exec, file
/// open/close, a message each way, stop, continue, a caught signal, two
/// exits — one by code, one by SIGKILL), an adopt, the controls, a
/// remote create and a trigger that signals across hosts give, byte for
/// byte, the replies the record-level history produced. The digests were
/// taken from the commit before the change.
#[test]
fn history_and_rusage_replies_are_the_ones_the_record_level_path_gave() {
    let mut ppm = three_hosts();
    let calder = ppm.host("calder").unwrap();
    ppm.spawn_login_process(
        "calder",
        USER,
        SpawnSpec::new("echod", Box::new(EchoServer { port: Port(7) })),
    )
    .unwrap();
    let job = ScriptedJob {
        echo: (calder, Port(7)),
        log: None,
    };
    let pid = ppm
        .spawn_login_process("calder", USER, SpawnSpec::new("scripted", Box::new(job)))
        .unwrap();
    let job = Gpid::new("calder", pid.0);
    ppm.adopt("calder", USER, "calder", pid.0, TraceFlags::ALL.bits())
        .unwrap();
    let remote = ppm
        .spawn_remote(
            "calder",
            USER,
            "ucbarpa",
            "remote-job",
            Some(job.clone()),
            None,
        )
        .unwrap();
    // When the scripted job dies, calder's LPM kills the remote one.
    let spec = TriggerSpec {
        id: 3,
        pattern: EventPattern::kind("exit").with_pid(pid.0),
        action: TriggerAction::Signal {
            target: remote.clone(),
            signal: 9,
        },
        once: true,
    };
    let out = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("calder", Op::AddTrigger { spec })],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(matches!(out.reply(0), Some(Reply::Ok)));
    ppm.run_for(SimDuration::from_secs(3));
    for action in [
        ControlAction::Stop,
        ControlAction::Foreground,
        ControlAction::Signal(Signal::Usr1.number()),
        ControlAction::Kill,
    ] {
        ppm.control("calder", USER, &job, action).unwrap();
    }
    ppm.run_for(SimDuration::from_secs(3));

    let out = ppm
        .run_tool(
            "calder",
            USER,
            vec![
                ToolStep::new(
                    "*",
                    Op::History {
                        since_us: 0,
                        max: 500,
                    },
                ),
                ToolStep::new("*", Op::Rusage { pid: None }),
                ToolStep::new(
                    "calder",
                    Op::History {
                        since_us: 2_000_000,
                        max: 7,
                    },
                ),
                ToolStep::new("calder", Op::Rusage { pid: Some(pid.0) }),
            ],
            SimDuration::from_secs(60),
        )
        .unwrap();
    let reply = |i| out.reply(i).expect("answered");

    let Reply::History { events } = reply(0) else {
        panic!("unexpected {:?}", reply(0));
    };
    let seen: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    let expected = [
        "adopt",
        "cont",
        "create",
        "exec",
        "exit",
        "file-close",
        "file-open",
        "foreground",
        "fork",
        "kill",
        "msg-recv",
        "msg-sent",
        "signal",
        "stop",
        "trigger-signal",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);
    let detail_of = |kind: &str| {
        let e = events.iter().find(|e| e.kind == kind).expect("recorded");
        (e.gpid.clone(), e.detail.as_str())
    };
    assert_eq!(detail_of("msg-sent"), (job.clone(), "112 bytes"));
    assert_eq!(detail_of("file-open").1, "/usr/tmp/scripted.log");
    assert_eq!(detail_of("exit").1, "exit(0)", "the child, by code");
    assert_eq!(detail_of("trigger-signal").0, remote, "a remote subject");

    let Reply::Rusage { records } = reply(1) else {
        panic!("unexpected {:?}", reply(1));
    };
    let exits: Vec<(&str, &str, i32)> = records
        .iter()
        .map(|r| (r.gpid.host.as_str(), r.command.as_str(), r.status))
        .collect();
    assert_eq!(
        exits,
        [
            ("calder", "kid", 0),
            ("calder", "scripted", -1009),
            ("ucbarpa", "remote-job", -1009),
        ]
    );
    assert!(matches!(reply(2), Reply::History { events } if events.len() == 7));
    assert!(matches!(reply(3), Reply::Rusage { records } if records.len() == 1));

    let digests: Vec<u64> = (0..4).map(|i| reply_digest(reply(i))).collect();
    assert_eq!(
        digests,
        [
            0xe386857d6a1485b,
            0x8b1ce01e88b6c6,
            0x41a1e30336477ae0,
            0xe33546a45a8fb51e,
        ],
        "broadcast history, broadcast rusage, directed slice, one pid"
    );
}
