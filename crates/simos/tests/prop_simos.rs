//! Property tests for the simulated kernel: process-table invariants
//! under random operation sequences, and world-level determinism.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use ppm_runtime::kernel::Kernel;
use ppm_runtime::process::{ProcState, Process};
use ppm_runtime::program::{ConnEvent, ProcKey, Program, SpawnSpec};
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::Sys;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostId, HostSpec};
use ppm_simos::ids::{ConnId, Pid, Port, Uid};
use ppm_simos::net::ConnState;
use ppm_simos::world::World;

#[derive(Debug, Clone)]
enum KernOp {
    Spawn {
        parent_idx: usize,
        uid: u32,
    },
    Exit {
        idx: usize,
    },
    Adopt {
        target_idx: usize,
        tracer_idx: usize,
    },
}

fn arb_kern_ops() -> impl Strategy<Value = Vec<KernOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..30, 0u32..3).prop_map(|(parent_idx, uid)| KernOp::Spawn { parent_idx, uid }),
            (0usize..30).prop_map(|idx| KernOp::Exit { idx }),
            (0usize..30, 0usize..30).prop_map(|(target_idx, tracer_idx)| KernOp::Adopt {
                target_idx,
                tracer_idx
            }),
        ],
        1..80,
    )
}

/// What a [`Peer`] does when its timer fires.
#[derive(Debug, Clone, Copy)]
enum Then {
    Linger,
    Close,
    Exit,
}

/// Listens on a port, echoes what it receives, and optionally dials
/// another peer, sends a burst once established and — after `after`,
/// which may be sooner than the handshake — closes, exits or stays.
#[derive(Debug, Clone)]
struct Peer {
    port: Port,
    dial: Option<(HostId, Port)>,
    burst: u8,
    then: Then,
    after: SimDuration,
    conn: Option<ConnId>,
}

impl Program for Peer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let _ = sys.listen(self.port);
        if let Some((host, port)) = self.dial {
            self.conn = sys.connect(host, port).ok();
        }
        sys.set_timer(self.after, 0);
    }
    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, ev: ConnEvent) {
        if ev == ConnEvent::Established {
            for i in 0..self.burst {
                let _ = sys.send(conn, Bytes::from(vec![i; 24]));
            }
        }
    }
    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        if Some(conn) != self.conn {
            let _ = sys.send(conn, data);
        }
    }
    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        match (self.then, self.conn) {
            (Then::Close, Some(conn)) => {
                let _ = sys.close(conn);
            }
            (Then::Exit, _) => sys.exit(0),
            _ => {}
        }
    }
}

#[derive(Debug, Clone)]
enum NetOp {
    Spawn {
        host: usize,
        port: u16,
        dial: Option<(usize, u16)>,
        burst: u8,
        then: Then,
        after_ms: u64,
    },
    Kill(usize),
    Crash(usize),
    Restart(usize),
    Link(usize, usize, bool),
}

const NET_HOSTS: usize = 3;
const NET_PORTS: u16 = 4;

fn arb_net_ops() -> impl Strategy<Value = Vec<(NetOp, usize)>> {
    let then = prop_oneof![Just(Then::Linger), Just(Then::Close), Just(Then::Exit)];
    let spawn = (
        0..NET_HOSTS,
        0..NET_PORTS,
        prop::option::of((0..NET_HOSTS, 0..NET_PORTS)),
        0u8..4,
        then,
        0u64..400,
    );
    // `kind` weights the mix: mostly peers coming up, some dying, the
    // occasional crash, restart and partition.
    let op = (
        0u8..11,
        spawn,
        0usize..64,
        0..NET_HOSTS,
        0..NET_HOSTS,
        any::<bool>(),
    )
        .prop_map(
            |(kind, (host, port, dial, burst, then, after_ms), idx, a, b, up)| match kind {
                0..=5 => NetOp::Spawn {
                    host,
                    port,
                    dial,
                    burst,
                    then,
                    after_ms,
                },
                6 | 7 => NetOp::Kill(idx),
                8 => NetOp::Crash(a),
                9 => NetOp::Restart(a),
                _ => NetOp::Link(a, b, up),
            },
        );
    // Each op is followed by a number of single world steps.
    prop::collection::vec((op, 0usize..60), 1..40)
}

/// The open-connection index must equal what a scan of every record
/// finds — per process and per host, same ids in the same order — and
/// hold nothing else.
fn check_conn_index(w: &World) -> Result<(), TestCaseError> {
    let core = w.core();
    let mut by_proc: BTreeMap<ProcKey, Vec<ConnId>> = BTreeMap::new();
    let mut by_host: BTreeMap<HostId, Vec<ConnId>> = BTreeMap::new();
    let mut index_entries = 0;
    for c in core.connections() {
        let ends = if c.client == c.server {
            vec![c.client]
        } else {
            vec![c.client, c.server]
        };
        for end in &ends {
            by_proc.entry(*end).or_default();
            by_host.entry(end.0).or_default();
        }
        if c.state == ConnState::Closed {
            continue;
        }
        index_entries += ends.len();
        for end in ends {
            by_proc.entry(end).or_default().push(c.id);
            let on_host = by_host.entry(end.0).or_default();
            if on_host.last() != Some(&c.id) {
                on_host.push(c.id);
            }
        }
    }
    let table = core.conn_table();
    for (end, want) in &by_proc {
        let got: Vec<ConnId> = table.held_by(*end).collect();
        prop_assert_eq!(&got, want, "open connections of {:?}", end);
    }
    for (host, want) in &by_host {
        prop_assert_eq!(&table.held_on(*host), want, "open connections on {}", host);
    }
    prop_assert_eq!(table.held_len(), index_entries);
    prop_assert_eq!(table.len(), core.connections().count());
    Ok(())
}

proptest! {
    /// Random connect / establish / send / close / exit / crash / restart
    /// / partition sequences: after every single world step the index of
    /// open connections agrees with the full scan it replaced.
    #[test]
    fn open_connection_index_matches_a_full_scan(seed in any::<u64>(), ops in arb_net_ops()) {
        let mut w = World::new(seed);
        let hosts: Vec<HostId> = (0..NET_HOSTS)
            .map(|i| w.add_host(HostSpec::new(format!("n{i}"), CpuClass::Vax780)))
            .collect();
        for i in 0..NET_HOSTS {
            w.add_link(hosts[i], hosts[(i + 1) % NET_HOSTS]);
        }
        let mut spawned: Vec<ProcKey> = Vec::new();
        for (op, steps) in ops {
            match op {
                NetOp::Spawn { host, port, dial, burst, then, after_ms } => {
                    let peer = Peer {
                        port: Port(100 + port),
                        dial: dial.map(|(h, p)| (hosts[h], Port(100 + p))),
                        burst,
                        then,
                        after: SimDuration::from_millis(after_ms),
                        conn: None,
                    };
                    let spec = SpawnSpec::new("peer", Box::new(peer));
                    if let Ok(pid) = w.spawn_user(hosts[host], Uid(1), spec) {
                        spawned.push((hosts[host], pid));
                    }
                }
                NetOp::Kill(i) => {
                    if let Some(key) = spawned.get(i % spawned.len().max(1)) {
                        let _ = w.post_signal(Uid(1), *key, Signal::Kill);
                    }
                }
                NetOp::Crash(h) => w.schedule_crash(hosts[h], SimDuration::from_millis(1)),
                NetOp::Restart(h) => w.schedule_restart(hosts[h], SimDuration::from_millis(1)),
                NetOp::Link(a, b, up) => {
                    w.schedule_link(hosts[a], hosts[b], up, SimDuration::from_millis(1));
                }
            }
            check_conn_index(&w)?;
            for _ in 0..steps {
                w.step();
                check_conn_index(&w)?;
            }
        }
        // Let timers, handshakes and break notifications play out.
        for _ in 0..600 {
            w.step();
            check_conn_index(&w)?;
        }
    }

    /// Process-table invariants hold under any spawn/exit/adopt sequence:
    /// parent-child links are mutual, live children have live entries,
    /// exited processes never re-enter the run queue, and adoption never
    /// crosses users.
    #[test]
    fn kernel_table_invariants(ops in arb_kern_ops()) {
        let now = SimTime::ZERO;
        let mut k = Kernel::new(now);
        let mut pids: Vec<Pid> = Vec::new();
        for op in ops {
            match op {
                KernOp::Spawn { parent_idx, uid } => {
                    let ppid = pids
                        .get(parent_idx % pids.len().max(1))
                        .copied()
                        .filter(|p| k.get(*p).is_some_and(|e| e.is_alive()))
                        .unwrap_or(Pid::INIT);
                    let pid = k.alloc_pid();
                    let mut proc = Process::new(pid, ppid, Uid(uid), "p", now);
                    proc.state = ProcState::Running;
                    k.insert(proc);
                    pids.push(pid);
                }
                KernOp::Exit { idx } => {
                    if let Some(&pid) = pids.get(idx % pids.len().max(1)) {
                        if k.get(pid).is_some_and(|e| e.is_alive()) {
                            k.finish_exit(pid, ExitStatus::SUCCESS, now);
                        }
                    }
                }
                KernOp::Adopt { target_idx, tracer_idx } => {
                    let (Some(&t), Some(&tr)) = (
                        pids.get(target_idx % pids.len().max(1)),
                        pids.get(tracer_idx % pids.len().max(1)),
                    ) else {
                        continue;
                    };
                    let tracer_uid = k.get(tr).map(|e| e.uid).unwrap_or(Uid(0));
                    let res = k.adopt(t, tr, tracer_uid, ppm_runtime::events::TraceFlags::ALL);
                    if let Ok(()) = res {
                        // Same-user or root only.
                        let target_uid = k.get(t).expect("adopted").uid;
                        prop_assert!(
                            tracer_uid == target_uid || tracer_uid.is_root(),
                            "cross-user adoption slipped through"
                        );
                    }
                }
            }
            // Invariants after every op.
            for p in k.processes() {
                for &c in &p.children {
                    let child = k.get(c);
                    prop_assert!(child.is_some(), "dangling child {c}");
                    let child = child.expect("checked");
                    prop_assert!(child.is_alive(), "dead child {c} still linked");
                    prop_assert_eq!(child.ppid, p.pid, "ppid backlink broken");
                }
                if !p.is_alive() {
                    prop_assert!(!p.cpu_bound, "exited process on the run queue");
                    prop_assert!(p.exited_at.is_some());
                }
            }
        }
        // Runnable count never exceeds live processes.
        let live = k.processes().filter(|p| p.is_alive()).count();
        prop_assert!(k.runnable_count(now) <= live);
    }

    /// World determinism: identical seeds and identical scripted worlds
    /// produce identical trace lengths and clocks; different seeds are
    /// allowed to differ.
    #[test]
    fn world_replay_is_exact(seed in any::<u64>(), jobs in 1usize..6) {
        let run = |seed: u64| {
            let mut w = World::new(seed);
            let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
            let b = w.add_host(HostSpec::new("b", CpuClass::Sun2));
            w.add_link(a, b);
            for i in 0..jobs {
                let host = if i % 2 == 0 { a } else { b };
                w.spawn_user(host, Uid(1), SpawnSpec::inert(format!("j{i}"))).expect("spawn");
            }
            w.run_for(SimDuration::from_secs(5));
            (
                w.core().trace().len(),
                w.now(),
                w.core().kernel(a).processes().count(),
            )
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Signal permission: a non-root user can never signal another user's
    /// process, for any signal.
    #[test]
    fn cross_user_signals_always_denied(signal_no in 0u8..32, other_uid in 2u32..100) {
        let Some(signal) = Signal::from_number(signal_no) else {
            return Ok(());
        };
        let mut w = World::new(1);
        let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
        let pid = w.spawn_user(a, Uid(1), SpawnSpec::inert("mine")).expect("spawn");
        w.run_for(SimDuration::from_millis(200));
        let res = w.post_signal(Uid(other_uid), (a, pid), signal);
        prop_assert!(res.is_err());
        prop_assert!(w.core().is_alive((a, pid)));
    }
}
