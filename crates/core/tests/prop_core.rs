//! Property tests for the PPM's pure data structures: genealogy
//! retention, handler-pool accounting, trigger matching, and the history
//! against the record-level implementation it replaced.

use std::collections::VecDeque;

use proptest::prelude::*;

use ppm_core::genealogy::Genealogy;
use ppm_core::handlers::HandlerPool;
use ppm_core::history::{Detail, History, Who};
use ppm_core::trigger_engine::{TriggerEngine, TriggerEvent};
use ppm_proto::codec::Wire;
use ppm_proto::msg::{Reply, WireReply};
use ppm_proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm_proto::types::{Gpid, HistoryRecord, RusageRecord, WireProcState};
use ppm_runtime::events::KernelEvent;
use ppm_runtime::ids::Pid;
use ppm_runtime::process::Rusage;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_simnet::time::{SimDuration, SimTime};

// ---- genealogy --------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Track { pid: u32, parent_idx: usize },
    Kill { idx: usize },
    Prune,
}

fn arb_tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (2u32..200, 0usize..20).prop_map(|(pid, parent_idx)| TreeOp::Track { pid, parent_idx }),
            (0usize..20).prop_map(|idx| TreeOp::Kill { idx }),
            Just(TreeOp::Prune),
        ],
        1..60,
    )
}

proptest! {
    /// After any operation sequence: child lists never dangle, a dead
    /// node with a live local descendant is always retained by prune,
    /// live nodes are never pruned, and the snapshot reply written
    /// straight from the slab is the reply built from owned records.
    #[test]
    fn genealogy_invariants(ops in arb_tree_ops()) {
        let mut g = Genealogy::new("h");
        let mut pids: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                TreeOp::Track { pid, parent_idx } => {
                    if g.contains(pid) {
                        continue;
                    }
                    let ppid = pids
                        .get(parent_idx % pids.len().max(1))
                        .copied()
                        .unwrap_or(1);
                    let logical = pid.is_multiple_of(3).then(|| Gpid::new("far", pid + 1));
                    g.track(pid, ppid, logical, "cmd", u64::from(pid), pid.is_multiple_of(2));
                    g.set_exec(pid, format!("cmd{pid}"));
                    g.set_cpu(pid, u64::from(pid) * 7);
                    pids.push(pid);
                }
                TreeOp::Kill { idx } => {
                    if let Some(&pid) = pids.get(idx % pids.len().max(1)) {
                        g.mark_dead(pid, 0);
                    }
                }
                TreeOp::Prune => {
                    g.prune();
                }
            }

            // Invariant: every child reference points at a tracked node
            // whose ppid points back.
            for &pid in &pids {
                if g.contains(pid) {
                    for c in g.children(pid) {
                        let child = g.get(c);
                        prop_assert!(child.is_some(), "dangling child {c} of {pid}");
                        prop_assert_eq!(child.unwrap().ppid, pid);
                    }
                }
            }

            // Invariant: both snapshot forms come off one walk and say
            // the same thing, byte for byte.
            let owned = Reply::Snapshot { host: "h".into(), procs: g.snapshot() };
            let written = WireReply::snapshot("h", g.records());
            prop_assert_eq!(written.as_bytes(), &owned.to_bytes()[..]);
        }
        // Final hard prune: no dead node with all-dead subtree survives,
        // and no live node was lost.
        g.prune();
        for &pid in &pids {
            if let Some(node) = g.get(pid) {
                if node.state == WireProcState::Dead {
                    // Retained dead nodes must have at least one live
                    // descendant.
                    let live_desc = g
                        .descendants(pid)
                        .iter()
                        .any(|&d| g.get(d).is_some_and(|n| n.state != WireProcState::Dead));
                    prop_assert!(live_desc, "dead node {pid} retained without live descendants");
                }
            }
        }
        let snapshot = g.snapshot();
        prop_assert_eq!(snapshot.len(), g.len());
    }
}

// ---- handler pool --------------------------------------------------------------

proptest! {
    /// Acquire/release bookkeeping: live handlers never exceed the cap,
    /// and forks + reuses equals total acquisitions.
    #[test]
    fn handler_pool_accounting(ops in prop::collection::vec(any::<bool>(), 1..200), max in 1usize..8) {
        let mut pool = HandlerPool::new(
            SimDuration::from_millis(70),
            SimDuration::from_millis(4),
            SimDuration::from_secs(10),
            max,
        );
        let mut held = Vec::new();
        let mut acquires = 0u64;
        for (i, acquire) in ops.into_iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            if acquire {
                let a = pool.acquire(now);
                acquires += 1;
                held.push(a.id);
                prop_assert!(pool.live() <= max, "live {} > max {max}", pool.live());
            } else if let Some(id) = held.pop() {
                pool.release(id, now);
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.forks + stats.reuses, acquires);
    }
}

// ---- trigger engine --------------------------------------------------------------

proptest! {
    /// A once-trigger fires at most once; a persistent trigger fires on
    /// every matching event.
    #[test]
    fn trigger_firing_counts(
        kinds in prop::collection::vec(0u8..4, 1..50),
        once in any::<bool>(),
    ) {
        let names = ["exit", "stop", "fork", "exec"];
        let mut engine = TriggerEngine::new();
        engine.add(TriggerSpec {
            id: 1,
            pattern: EventPattern::kind("exit"),
            action: TriggerAction::Notify { note: "n".into() },
            once,
        });
        let mut fired = 0u64;
        let mut matching = 0u64;
        for k in kinds {
            let kind = names[k as usize % names.len()];
            if kind == "exit" {
                matching += 1;
            }
            fired += engine
                .on_event(TriggerEvent { kind, pid: 1, command: "c", cpu_us: 0 })
                .len() as u64;
        }
        if once {
            prop_assert_eq!(fired, matching.min(1));
        } else {
            prop_assert_eq!(fired, matching);
        }
        prop_assert_eq!(engine.fired_total(), fired);
    }

    /// The cpu threshold is a lower bound: matches iff `cpu >= min`.
    #[test]
    fn trigger_cpu_threshold(min in 0u64..1_000_000, cpu in 0u64..1_000_000) {
        let mut engine = TriggerEngine::new();
        engine.add(TriggerSpec {
            id: 1,
            pattern: EventPattern::default().with_min_cpu_us(min),
            action: TriggerAction::Notify { note: "n".into() },
            once: false,
        });
        let fired = engine
            .on_event(TriggerEvent { kind: "exec", pid: 1, command: "c", cpu_us: cpu })
            .len();
        prop_assert_eq!(fired == 1, cpu >= min);
    }
}

// ---- history --------------------------------------------------------------

/// The history as it was while it stored wire records: every entry
/// rendered when recorded, the host name in each. Kept as the oracle the
/// value-level [`History`] is checked against.
struct RecordHistory {
    events: VecDeque<HistoryRecord>,
    exited: VecDeque<RusageRecord>,
    events_cap: usize,
    exited_cap: usize,
    dropped: u64,
}

impl RecordHistory {
    fn new(events_cap: usize, exited_cap: usize) -> Self {
        RecordHistory {
            events: VecDeque::new(),
            exited: VecDeque::new(),
            events_cap: events_cap.max(1),
            exited_cap: exited_cap.max(1),
            dropped: 0,
        }
    }

    fn record(&mut self, at: SimTime, gpid: Gpid, kind: &str, detail: String) {
        self.events.push_back(HistoryRecord {
            at_us: at.as_micros(),
            gpid,
            kind: kind.to_string(),
            detail,
        });
        while self.events.len() > self.events_cap {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    fn record_exit(&mut self, record: RusageRecord) {
        self.exited.push_back(record);
        while self.exited.len() > self.exited_cap {
            self.exited.pop_front();
        }
    }

    fn query(&self, since_us: u64, max: usize) -> Vec<HistoryRecord> {
        let recent = self.events.iter().filter(|e| e.at_us >= since_us);
        recent.take(max).cloned().collect()
    }

    fn exited(&self, pid: Option<u32>) -> Vec<RusageRecord> {
        let wanted = |r: &&RusageRecord| pid.is_none_or(|p| r.gpid.pid == p);
        self.exited.iter().filter(wanted).cloned().collect()
    }
}

/// What an LPM writes into its history.
#[derive(Debug, Clone)]
enum HistOp {
    /// A kernel message about a traced process.
    Kernel(KernelEvent),
    /// A trigger action forwarded to another host's process.
    Forwarded {
        kind: &'static str,
        target: Gpid,
        note: String,
    },
    /// A note of the LPM's own about a local process (pid 0: itself).
    Note {
        kind: &'static str,
        pid: u32,
        note: String,
    },
}

const HOST: &str = "calder";

fn arb_kernel_event() -> impl Strategy<Value = KernelEvent> {
    let pid = || (0u32..12).prop_map(Pid);
    let text = "[a-z/. ]{0,6}";
    let signal = || {
        prop_oneof![
            Just(Signal::Hup),
            Just(Signal::Kill),
            Just(Signal::Usr1),
            Just(Signal::Term),
            Just(Signal::Stop),
            Just(Signal::Cont),
        ]
    };
    let status = prop_oneof![
        (-3i32..4).prop_map(ExitStatus::Code),
        signal().prop_map(ExitStatus::Signaled),
    ];
    let rusage = prop::collection::vec(0u64..1_000, 8).prop_map(|n| Rusage {
        cpu: SimDuration::from_micros(n[0]),
        msgs_sent: n[1],
        msgs_received: n[2],
        bytes_sent: n[3],
        bytes_received: n[4],
        files_opened: n[5],
        signals_received: n[6],
        forks: n[7],
    });
    prop_oneof![
        (pid(), pid()).prop_map(|(parent, child)| KernelEvent::Fork { parent, child }),
        (pid(), text).prop_map(|(pid, command)| KernelEvent::Exec { pid, command }),
        (pid(), status, rusage).prop_map(|(pid, status, rusage)| KernelEvent::Exit {
            pid,
            status,
            rusage
        }),
        (pid(), signal()).prop_map(|(pid, signal)| KernelEvent::SignalDelivered { pid, signal }),
        pid().prop_map(|pid| KernelEvent::Stopped { pid }),
        pid().prop_map(|pid| KernelEvent::Continued { pid }),
        (pid(), 0usize..5_000).prop_map(|(pid, bytes)| KernelEvent::MsgSent { pid, bytes }),
        (pid(), 0usize..5_000).prop_map(|(pid, bytes)| KernelEvent::MsgReceived { pid, bytes }),
        (pid(), text).prop_map(|(pid, path)| KernelEvent::FileOpened { pid, path }),
        (pid(), text).prop_map(|(pid, path)| KernelEvent::FileClosed { pid, path }),
    ]
}

fn arb_hist_op() -> impl Strategy<Value = HistOp> {
    let text = "[a-z/. ]{0,6}";
    let forwarded_kind = prop_oneof![Just("trigger-signal"), Just("trigger-killtree")];
    let note_kind = prop_oneof![Just("trigger"), Just("adopt"), Just("ttd-kill")];
    prop_oneof![
        arb_kernel_event().prop_map(HistOp::Kernel),
        arb_kernel_event().prop_map(HistOp::Kernel),
        (forwarded_kind, "[a-c]{1,2}", 0u32..12, text).prop_map(|(kind, host, pid, note)| {
            let target = Gpid::new(host, pid);
            HistOp::Forwarded { kind, target, note }
        }),
        (note_kind, 0u32..12, text).prop_map(|(kind, pid, note)| HistOp::Note { kind, pid, note }),
    ]
}

/// Records `op` the way the LPM does now (values) and the way it did
/// (texts made on the spot, a `Gpid` with the host in every entry).
fn apply_hist_op(h: &mut History, oracle: &mut RecordHistory, at: SimTime, op: HistOp) {
    let local = |pid: u32| Gpid::new(HOST, pid);
    match op {
        HistOp::Kernel(event) => {
            let (pid, kind) = (event.pid().0, event.kind());
            let (detail, text) = match event {
                KernelEvent::Fork { child, .. } => (Detail::Child(child), format!("child {child}")),
                KernelEvent::Exec { command, .. } => (Detail::from(command.as_str()), command),
                KernelEvent::Exit { status, rusage, .. } => {
                    h.record_exit(at, pid, "job", status, rusage);
                    oracle.record_exit(RusageRecord {
                        gpid: local(pid),
                        command: "job".to_string(),
                        exited_us: at.as_micros(),
                        status: match status {
                            ExitStatus::Code(c) => c,
                            ExitStatus::Signaled(s) => -(1000 + s.number() as i32),
                        },
                        cpu_us: rusage.cpu.as_micros(),
                        msgs: rusage.msgs_sent + rusage.msgs_received,
                        bytes: rusage.bytes_sent + rusage.bytes_received,
                        files: rusage.files_opened,
                        forks: rusage.forks,
                    });
                    (Detail::Status(status), status.to_string())
                }
                KernelEvent::SignalDelivered { signal, .. } => {
                    (Detail::Signal(signal), signal.to_string())
                }
                KernelEvent::Stopped { .. } | KernelEvent::Continued { .. } => {
                    (Detail::None, String::new())
                }
                KernelEvent::MsgSent { bytes, .. } | KernelEvent::MsgReceived { bytes, .. } => {
                    (Detail::Bytes(bytes), format!("{bytes} bytes"))
                }
                KernelEvent::FileOpened { path, .. } | KernelEvent::FileClosed { path, .. } => {
                    (Detail::from(path.as_str()), path)
                }
            };
            h.record(at, Who::Local(pid), kind, detail);
            oracle.record(at, local(pid), kind, text);
        }
        HistOp::Forwarded { kind, target, note } => {
            h.record(at, Who::Remote(target.clone()), kind, note.as_str().into());
            oracle.record(at, target, kind, note);
        }
        HistOp::Note { kind, pid, note } => {
            h.record(at, Who::Local(pid), kind, note.as_str().into());
            oracle.record(at, local(pid), kind, note);
        }
    }
}

proptest! {
    /// The ring respects its capacity, keeps the newest entries, and
    /// queries are time-filtered in order.
    #[test]
    fn history_ring_bounds(cap in 1usize..50, n in 1usize..120, since_idx in 0usize..120) {
        let mut h = History::new(cap, 8);
        for i in 0..n {
            let at = SimTime::from_micros(i as u64 * 10);
            h.record(at, Who::Local(i as u32), "ev", Detail::None);
        }
        prop_assert!(h.len() <= cap);
        prop_assert_eq!(h.len(), n.min(cap));
        prop_assert_eq!(h.dropped(), (n.saturating_sub(cap)) as u64);
        // The retained window is the most recent `cap` entries.
        let all = h.query(HOST, 0, usize::MAX);
        if let Some(first) = all.first() {
            prop_assert_eq!(first.gpid.pid as usize, n - all.len());
        }
        // Time filter: everything returned is >= the bound, in order.
        let since = since_idx as u64 * 10;
        let filtered = h.query(HOST, since, usize::MAX);
        prop_assert!(filtered.iter().all(|e| e.at_us >= since));
        prop_assert!(filtered.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    /// The value-level history answers every question exactly as the
    /// record-level one did — after each step of any sequence of kernel
    /// events of every kind, forwarded trigger records about remote
    /// processes and the LPM's own notes, empty details included, in
    /// rings small enough to evict.
    #[test]
    fn history_matches_the_record_level_oracle(
        events_cap in 1usize..10,
        exited_cap in 1usize..4,
        ops in prop::collection::vec((0u64..3, arb_hist_op()), 1..60),
        probes in prop::collection::vec((0u64..80, 0usize..12, 0u32..12), 1..4),
    ) {
        let mut h = History::new(events_cap, exited_cap);
        let mut oracle = RecordHistory::new(events_cap, exited_cap);
        let mut now = 0;
        for (step, op) in ops {
            now += step;
            apply_hist_op(&mut h, &mut oracle, SimTime::from_micros(now), op);
            prop_assert_eq!(h.len(), oracle.events.len());
            prop_assert!(h.len() <= events_cap);
            prop_assert_eq!(h.is_empty(), oracle.events.is_empty());
            prop_assert_eq!(h.dropped(), oracle.dropped);
            prop_assert_eq!(h.last(HOST).as_ref(), oracle.events.back());
        }
        prop_assert_eq!(h.query(HOST, 0, usize::MAX), oracle.query(0, usize::MAX));
        prop_assert_eq!(h.exited(HOST, None), oracle.exited(None));
        for (since, max, pid) in probes {
            prop_assert_eq!(h.query(HOST, since, max), oracle.query(since, max));
            prop_assert_eq!(h.exited(HOST, Some(pid)), oracle.exited(Some(pid)));
        }
    }
}
