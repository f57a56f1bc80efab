//! The model-checked world: a third backend behind the `Sys` seam.
//!
//! The simulation backend (`ppm-simos`) orders events by virtual time;
//! the real backend by wall-clock arrival. This backend orders them by
//! *choice*: every pending delivery, kernel notification, due timer and
//! budgeted adversary action is an **enabled move**, and the explorer
//! (see [`crate::explore`](mod@crate::explore)) picks which one fires next. Exhausting those
//! picks exhausts the interleavings of the PPM protocols on a small
//! world — exactly the schedules a discrete-event simulation samples
//! only one of per seed.
//!
//! Connections are the one table every backend shares
//! ([`ppm_runtime::conn`]); beside each record the checker keeps
//! per-direction FIFO queues, and only the head of each queue is enabled,
//! so streams stay ordered (TCP semantics) while independent streams
//! commute. A process death appends `Closed` behind any in-flight data,
//! preserving the FIN-after-data interleavings that triggered the
//! dedup-purge bug.
//!
//! A driver boots and runs it like the other two backends, through
//! [`Runtime`]: `run(span)` is the default schedule, the first enabled
//! move in drain order until the span has passed.
//!
//! Processes run on the one host driver ([`ppm_runtime::host`]), with
//! the sim's rules: `exit` takes effect at the call, a stopped process's
//! timers, messages, kernel batches, connection notices and child exits
//! wait for its `SIGCONT`, and a
//! signal a program posts, like an event a `SIGCONT` releases, runs once
//! the move's callbacks have returned. This world supplies the driver's
//! backend: its clock, its queues, and the frontier (a start, a timer
//! or a child's exit the driver schedules becomes an enabled move).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hasher;

use bytes::Bytes;

use ppm_core::Lpm;
use ppm_proto::codec::Wire;
use ppm_proto::kernel_wire::encode_kernel_batch;
use ppm_proto::Msg;
use ppm_runtime::conn::{ConnState, ConnTable, Endpoint, Tell};
use ppm_runtime::hashx::HashX;
use ppm_runtime::host::{After, Backend, Driver, Hosts, Wake};
use ppm_runtime::inetd::Inetd;
use ppm_runtime::kernel::Kernel;
use ppm_runtime::obs::{HubRef, ObsHub, Section};
use ppm_runtime::rt::{Runtime, ServiceFactory, Services};
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::time::{Micros, SimDuration, SimTime};
use ppm_runtime::{
    ConnEvent, ConnId, CpuClass, HostId, Pid, Port, ProcKey, Program, SpawnSpec, SysError, Uid,
};

/// Process key used internally: (host index, pid number). Plain integers
/// so every container is `BTreeMap`-ordered and the move enumeration is
/// deterministic.
pub type K = (u32, u32);

/// Virtual time consumed by each delivered event. Absolute time is
/// excluded from state digests; the tick only drives timers and the
/// timestamps protocol code derives epochs from.
const TICK: SimDuration = SimDuration::from_micros(200);

/// One item in a connection's per-direction FIFO: what its end is told
/// (peer closed, died, or the link broke under a send: `Closed`), or a
/// data frame.
#[derive(Debug, Clone, PartialEq)]
enum NetItem {
    Conn(ConnEvent),
    Msg(Bytes),
}

const CLOSED: NetItem = NetItem::Conn(ConnEvent::Closed);

/// The items travelling on one connection, per direction
/// ([`ppm_runtime::conn::Connection::toward`]: 0 toward the client, 1
/// toward the server). Items already queued still deliver after a close
/// (data in flight stays in flight).
type Queues = [VecDeque<NetItem>; 2];

fn key(end: Endpoint) -> K {
    (end.0 .0, end.1 .0)
}

fn end(k: K) -> Endpoint {
    (HostId(k.0), Pid(k.1))
}

#[derive(Debug, Clone)]
struct McTimer {
    owner: K,
    token: u64,
    boot: u32,
    due: SimTime,
}

/// A fault-injection move available to the explorer, with a budget so
/// the schedule space stays bounded.
#[derive(Debug, Clone, PartialEq)]
pub enum Adversary {
    /// Deliver `Signal::Kill` to the first live process on `host` whose
    /// command equals `command`.
    KillProc { host: u32, command: String },
    /// Cut the link between two hosts (silent: discovered on send).
    CutLink { a: u32, b: u32 },
    /// Restore a previously cut link.
    HealLink { a: u32, b: u32 },
}

/// One enabled transition of the world.
#[derive(Debug, Clone, PartialEq)]
pub enum Move {
    /// Run `on_start` for a spawned-but-not-yet-started process.
    Start(K),
    /// Deliver the head item of one connection direction.
    Net { conn: u64, to_b: bool },
    /// Deliver the head kernel event on a process's kernel socket.
    Kernel(K),
    /// Deliver the head pending child-exit notification to a parent.
    ChildExit(K),
    /// Fire the earliest due timer (id breaks ties).
    Timer(u64),
    /// Apply the indexed adversary action (budget permitting).
    Fault(usize),
}

/// The bounded-model-checking world: the host driver's table (per-host
/// kernels — the same [`Kernel`] state machine the sim and real
/// backends run — and programs) and the frontier of pending deliveries.
pub struct McWorld {
    clock: SimTime,
    /// Timers due after this instant are no move: the end of the
    /// explored schedule ([`McWorld::set_horizon`]). Keeps housekeeping
    /// from generating unbounded suffixes; `run` sets its own.
    horizon: SimTime,
    host_names: Vec<String>,
    /// The kernels, programs and held events: the host driver's table.
    hosts: Hosts,
    /// Currently cut host pairs (normalized low-high). Everything else
    /// in the static topology is routable; worlds are fully meshed.
    cut_links: BTreeSet<(u32, u32)>,
    conns: ConnTable<Queues>,
    /// The connections that can still make a move: open ones, and closed
    /// ones with items queued. A closed connection never gets another
    /// item, so once it drains it leaves the frontier and the digest.
    busy: BTreeSet<ConnId>,
    timers: BTreeMap<u64, McTimer>,
    next_timer: u64,
    child_exits: BTreeMap<K, VecDeque<(Pid, ExitStatus)>>,
    starts: BTreeSet<K>,
    /// What runs once the current move's callbacks have returned, in
    /// order: the signals programs posted, and the events a `SIGCONT`
    /// released.
    after: VecDeque<(ProcKey, Wake)>,
    /// inetd's registry (the harness registers pmd).
    services: Services,
    /// What the world records about itself. Tracing is off — and costs
    /// nothing — while the explorer runs; a replay that wants the
    /// programs' notes under its moves switches it on.
    hub: ObsHub,
    /// Kill syscalls observed: (host, target pid, signal number) → count.
    /// The exactly-once predicate reads this.
    pub kill_log: BTreeMap<(u32, u32, u8), u32>,
    /// Sends swallowed by a cut link (the stale-route observable).
    pub blackhole_sends: u64,
    adversaries: Vec<(Adversary, u32)>,
    /// When the explorer last disrupted the world: a fault injection, or
    /// the delivery of a `Failed`/`Closed` event it had been sitting on
    /// (stale failure notices trigger repair chains just like faults
    /// do). Staged faults do not count — staging drains their recovery
    /// deterministically.
    last_disruption_at: Option<SimTime>,
    /// Schedule headroom a convergence predicate needs after the last
    /// disruption (see [`McWorld::converge_expected`]).
    convergence_margin: SimDuration,
    /// Per-LPM executed-operation counts at baseline (see
    /// [`McWorld::snapshot_exec_baseline`]).
    exec_baseline: BTreeMap<K, u64>,
}

impl Default for McWorld {
    fn default() -> Self {
        McWorld::new()
    }
}

impl McWorld {
    /// An empty world with no horizon: hosts come from
    /// [`Runtime::add_host`], and nothing runs until a driver asks.
    pub fn new() -> Self {
        McWorld {
            clock: SimTime::from_micros(1_000),
            horizon: SimTime::FAR_FUTURE,
            host_names: Vec::new(),
            hosts: Hosts::default(),
            cut_links: BTreeSet::new(),
            conns: ConnTable::default(),
            busy: BTreeSet::new(),
            timers: BTreeMap::new(),
            next_timer: 1,
            child_exits: BTreeMap::new(),
            starts: BTreeSet::new(),
            after: VecDeque::new(),
            services: Services::default(),
            hub: ObsHub::new(false),
            kill_log: BTreeMap::new(),
            blackhole_sends: 0,
            adversaries: Vec::new(),
            last_disruption_at: None,
            convergence_margin: SimDuration::from_micros(0),
            exec_baseline: BTreeMap::new(),
        }
    }

    // ---- staging helpers (deterministic world construction) ------------

    /// Registers an adversary action with a budget of uses.
    pub fn add_adversary(&mut self, adv: Adversary, budget: u32) {
        self.adversaries.push((adv, budget));
    }

    /// Re-anchors the timer horizon to `window` after now. Scenarios
    /// call this once staging is done: the interesting frontier is
    /// already set up, so a short remaining window keeps the periodic
    /// housekeeping suffix small enough for schedules to reach
    /// quiescence within the depth budget.
    pub fn set_horizon(&mut self, window: SimDuration) {
        self.horizon = self.clock + window;
    }

    /// Declares how much schedule must remain after a disruption for the
    /// convergence predicate to apply (the periodic machinery — probes,
    /// reconnects — needs a few cycles to repair what the fault broke).
    pub fn set_convergence_margin(&mut self, margin: SimDuration) {
        self.convergence_margin = margin;
    }

    /// `false` when the last disruption (injected fault, or a withheld
    /// failure notice finally delivered) landed closer to the horizon
    /// than the declared margin: the schedule ends before the protocols
    /// could have repaired it, so non-convergence there is a budget
    /// artifact, not a bug. Quiescence predicates gate on this.
    pub fn converge_expected(&self) -> bool {
        self.last_disruption_at
            .is_none_or(|t| t + self.convergence_margin <= self.horizon)
    }

    /// Duplicates the head frame of the first queue (in id order) whose
    /// head decodes to a message for which `pred` holds — the retransmit
    /// the protocols must deduplicate. `toward` restricts the match to
    /// queues delivering to that host. Returns `true` if a frame matched.
    pub fn stage_dup_head(&mut self, toward: Option<u32>, pred: impl Fn(&Msg) -> bool) -> bool {
        for (c, qs) in self.conns.iter_mut() {
            let [to_a, to_b] = qs;
            for (dst_host, q) in [(c.server.0 .0, to_b), (c.client.0 .0, to_a)] {
                if toward.is_some_and(|h| h != dst_host) {
                    continue;
                }
                if let Some(NetItem::Msg(bytes)) = q.front() {
                    if let Ok(m) = Msg::from_bytes(bytes) {
                        if pred(&m) {
                            let dup = bytes.clone();
                            q.insert(1, NetItem::Msg(dup));
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Cuts the link between two hosts (staging variant).
    pub fn stage_cut(&mut self, a: u32, b: u32) {
        self.cut_links.insert(norm(a, b));
    }

    /// Records the current per-LPM executed-operation counts; the
    /// broadcast-dedup predicate compares against this baseline.
    pub fn snapshot_exec_baseline(&mut self) {
        self.exec_baseline = self
            .lpms()
            .into_iter()
            .map(|(k, l)| (k, l.stats().executed))
            .collect();
    }

    // ---- inspection (predicates) ----------------------------------------

    /// All live LPM programs, keyed by (host, pid), in that order.
    pub fn lpms(&self) -> Vec<(K, &Lpm)> {
        let mut lpms: Vec<_> = self
            .hosts
            .programs()
            .filter_map(|(k, p)| {
                p.as_any()
                    .and_then(|a| a.downcast_ref::<Lpm>())
                    .map(|l| (key(k), l))
            })
            .collect();
        lpms.sort_unstable_by_key(|(k, _)| *k);
        lpms
    }

    /// Host name for a host index.
    pub fn host_name(&self, host: u32) -> &str {
        &self.host_names[host as usize]
    }

    /// How many times `signal` was delivered via the kill syscall to
    /// `pid` on `host`.
    pub fn signal_count(&self, host: u32, pid: Pid, signal: Signal) -> u32 {
        self.kill_log
            .get(&(host, pid.0, signal.number()))
            .copied()
            .unwrap_or(0)
    }

    /// Largest per-LPM growth of the executed-operation counter since
    /// the recorded baseline.
    pub fn max_exec_delta(&self) -> u64 {
        self.lpms()
            .into_iter()
            .map(|(k, l)| {
                let base = self.exec_baseline.get(&k).copied().unwrap_or(0);
                l.stats().executed.saturating_sub(base)
            })
            .max()
            .unwrap_or(0)
    }

    /// First live pid on `host` with the given command name, whoever
    /// owns it (what [`Adversary::KillProc`] aims at).
    fn first_live(&self, host: u32, command: &str) -> Option<u32> {
        self.hosts
            .kernel(HostId(host))
            .processes()
            .find(|p| p.is_alive() && p.command == command)
            .map(|p| p.pid.0)
    }

    // ---- the frontier ---------------------------------------------------

    /// All enabled moves, in a deterministic order.
    pub fn enabled_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for &k in &self.starts {
            moves.push(Move::Start(k));
        }
        for &id in &self.busy {
            let queues = self.conns.link(id).expect("a queue pair per record");
            for (to_b, q) in [false, true].into_iter().zip(queues) {
                if !q.is_empty() {
                    moves.push(Move::Net { conn: id.0, to_b });
                }
            }
        }
        for (host, kernel) in self.hosts.iter() {
            for (tracer, _) in kernel.pending_batches() {
                moves.push(Move::Kernel((host.0, tracer.0)));
            }
        }
        for (&k, q) in &self.child_exits {
            if !q.is_empty() {
                moves.push(Move::ChildExit(k));
            }
        }
        if let Some(id) = self.next_timer_id() {
            moves.push(Move::Timer(id));
        }
        for (i, (adv, budget)) in self.adversaries.iter().enumerate() {
            if *budget > 0 && self.fault_enabled(adv) {
                moves.push(Move::Fault(i));
            }
        }
        moves
    }

    /// Earliest due timer under the horizon (ties broken by id).
    fn next_timer_id(&self) -> Option<u64> {
        self.timers
            .iter()
            .filter(|(_, t)| t.due <= self.horizon)
            .min_by_key(|(id, t)| (t.due, **id))
            .map(|(id, _)| *id)
    }

    fn fault_enabled(&self, adv: &Adversary) -> bool {
        match adv {
            Adversary::KillProc { host, command } => self.first_live(*host, command).is_some(),
            Adversary::CutLink { a, b } => !self.cut_links.contains(&norm(*a, *b)),
            Adversary::HealLink { a, b } => self.cut_links.contains(&norm(*a, *b)),
        }
    }

    /// Human-readable description of a move, used in counterexample
    /// traces and for directed replays in regression tests.
    pub fn describe(&self, mv: &Move) -> String {
        match mv {
            Move::Start(k) => format!("start {}", self.proc_label(*k)),
            Move::Net { conn, to_b } => {
                let c = self.conns.get(ConnId(*conn)).expect("an enabled move");
                let dst = key(if *to_b { c.server } else { c.client });
                let q = &self.conns.link(c.id).expect("an enabled move")[usize::from(*to_b)];
                let what = match q.front() {
                    Some(NetItem::Conn(ConnEvent::Established)) => "established".to_string(),
                    Some(NetItem::Conn(ConnEvent::Accepted { .. })) => "accepted".to_string(),
                    Some(NetItem::Conn(ConnEvent::Failed(e))) => format!("failed({e})"),
                    Some(NetItem::Conn(ConnEvent::Closed)) => "closed".to_string(),
                    Some(NetItem::Msg(b)) => format!("msg {}", frame_kind(b)),
                    None => "empty".to_string(),
                };
                format!("deliver {what} -> {}", self.proc_label(dst))
            }
            Move::Kernel(k) => format!("kernel-event -> {}", self.proc_label(*k)),
            Move::ChildExit(k) => format!("child-exit -> {}", self.proc_label(*k)),
            Move::Timer(id) => match self.timers.get(id) {
                Some(t) => format!("timer {} @{}", self.proc_label(t.owner), t.token),
                None => format!("timer #{id}"),
            },
            Move::Fault(i) => match &self.adversaries[*i].0 {
                Adversary::KillProc { host, command } => {
                    format!("fault kill {command}@{}", self.host_names[*host as usize])
                }
                Adversary::CutLink { a, b } => format!(
                    "fault cut {}-{}",
                    self.host_names[*a as usize], self.host_names[*b as usize]
                ),
                Adversary::HealLink { a, b } => format!(
                    "fault heal {}-{}",
                    self.host_names[*a as usize], self.host_names[*b as usize]
                ),
            },
        }
    }

    fn proc_label(&self, k: K) -> String {
        let cmd = self
            .hosts
            .kernel(HostId(k.0))
            .get(Pid(k.1))
            .map_or("?", |p| p.command.as_str());
        format!("{cmd}@{}:{}", self.host_names[k.0 as usize], k.1)
    }

    /// Applies one move. The move must come from the current
    /// [`McWorld::enabled_moves`].
    pub fn apply(&mut self, mv: &Move) {
        match mv {
            Move::Start(k) => {
                self.starts.remove(k);
                self.clock += TICK;
                self.wake(end(*k), Wake::Start);
            }
            Move::Net { conn, to_b } => self.do_deliver(*conn, *to_b),
            Move::Kernel(k) => {
                self.clock += TICK;
                self.wake(end(*k), Wake::Flush);
            }
            Move::ChildExit(k) => {
                self.clock += TICK;
                let item = self.child_exits.get_mut(k).and_then(VecDeque::pop_front);
                if let Some((child, status)) = item {
                    self.wake(end(*k), Wake::ChildExit { child, status });
                }
            }
            Move::Timer(id) => {
                if let Some(t) = self.timers.remove(id) {
                    self.clock = self.clock.max(t.due);
                    let (token, boot) = (t.token, t.boot);
                    self.wake(end(t.owner), Wake::Timer { token, boot });
                }
            }
            Move::Fault(i) => self.do_fault(*i),
        }
        self.run_after();
    }

    /// Runs what the move's callbacks left to run after them.
    fn run_after(&mut self) {
        while let Some((to, wake)) = self.after.pop_front() {
            self.wake(to, wake);
        }
    }

    fn do_deliver(&mut self, conn_id: u64, to_b: bool) {
        self.clock += TICK;
        let cid = ConnId(conn_id);
        let Some(c) = self.conns.get(cid) else {
            return;
        };
        let (server, to) = (c.server, if to_b { c.server } else { c.client });
        let now = self.clock;
        let queue = self.conns.link_mut(cid).map(|q| &mut q[usize::from(to_b)]);
        let Some(item) = queue.and_then(VecDeque::pop_front) else {
            return;
        };
        match item {
            NetItem::Msg(data) => self.wake(to, Wake::Message { conn: cid, data }),
            NetItem::Conn(event) => {
                match event {
                    // The handshake completes when either end first hears of it.
                    ConnEvent::Established | ConnEvent::Accepted { .. } => {
                        let kernel = self.hosts.kernel_mut(server.0);
                        self.conns.establish(cid, now, kernel);
                    }
                    ConnEvent::Failed(_) => self.last_disruption_at = Some(now),
                    ConnEvent::Closed => {
                        self.last_disruption_at = Some(now);
                        let kernel = self.hosts.kernel_mut(to.0);
                        self.conns.told_closed(cid, to, now, kernel);
                    }
                }
                self.wake(to, Wake::Told { conn: cid, event });
            }
        }
        let c = self.conns.get(cid).expect("delivered on");
        let queues = self.conns.link(cid).expect("delivered on");
        if c.state == ConnState::Closed && queues.iter().all(VecDeque::is_empty) {
            self.busy.remove(&cid);
        }
    }

    fn do_fault(&mut self, i: usize) {
        let (adv, budget) = &mut self.adversaries[i];
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        self.last_disruption_at = Some(self.clock);
        match adv.clone() {
            Adversary::KillProc { host, command } => {
                if let Some(pid) = self.first_live(host, &command) {
                    self.wake((HostId(host), Pid(pid)), Wake::Signal(Signal::Kill));
                }
            }
            Adversary::CutLink { a, b } => {
                self.cut_links.insert(norm(a, b));
            }
            Adversary::HealLink { a, b } => {
                self.cut_links.remove(&norm(a, b));
            }
        }
    }

    // ---- deterministic drains (staging) ---------------------------------

    /// Applies natural moves (no faults) in priority order — starts,
    /// then deliveries, then kernel events, then child exits, then the
    /// earliest timer — until `until` holds or nothing is enabled.
    /// Returns `true` if the condition was reached. `skip` filters moves
    /// out of the drain (they stay enabled for later exploration).
    pub fn run_until(
        &mut self,
        max_steps: usize,
        skip: impl Fn(&McWorld, &Move) -> bool,
        until: impl Fn(&McWorld) -> bool,
    ) -> bool {
        for _ in 0..max_steps {
            if until(self) {
                return true;
            }
            let mv = self
                .enabled_moves()
                .into_iter()
                .filter(|m| !matches!(m, Move::Fault(_)))
                .find(|m| !skip(self, m));
            match mv {
                Some(m) => self.apply(&m),
                None => return until(self),
            }
        }
        until(self)
    }

    /// Drains all natural moves. Returns `true` on quiescence within the
    /// step bound.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> bool {
        self.run_until(
            max_steps,
            |_, _| false,
            |w| {
                w.enabled_moves()
                    .iter()
                    .all(|m| matches!(m, Move::Fault(_)))
            },
        )
    }

    // ---- state digest ---------------------------------------------------

    /// Deterministic fingerprint of the protocol-visible world state.
    /// Absolute time is excluded so schedules that differ only in when
    /// housekeeping fired merge; everything that steers future behaviour
    /// — process tables, queue contents, timers' owners, program state,
    /// the observables predicates read — is folded in.
    pub fn digest(&self) -> u64 {
        let mut h = HashX::default();
        for (_, kernel) in self.hosts.iter() {
            h.write_u32(kernel.boot_count());
            for p in kernel.processes() {
                h.write_u32(p.pid.0);
                h.write_u32(p.ppid.0);
                h.write_u32(p.uid.0);
                h.write(p.command.as_bytes());
                h.write(format!("{:?}", p.state).as_bytes());
                h.write_u32(p.tracer.map_or(0, |t| t.0));
                h.write_u8(p.trace_flags.bits());
            }
            for (k, v) in kernel.stable_records() {
                h.write(k.as_bytes());
                h.write(v);
            }
        }
        for (a, b) in &self.cut_links {
            h.write_u32(*a);
            h.write_u32(*b);
        }
        for (host, kernel) in self.hosts.iter() {
            for (port, pid) in kernel.listeners() {
                h.write_u32(host.0);
                h.write_u16(port.0);
                h.write_u32(pid.0);
            }
        }
        // A closed connection whose queues drained no longer steers
        // anything: it stops contributing digest weight.
        for &id in &self.busy {
            let c = self.conns.get(id).expect("a record per busy id");
            let queues = self.conns.link(id).expect("a queue pair per record");
            let open = c.state != ConnState::Closed;
            h.write_u64(c.id.0);
            for e in [c.client, c.server] {
                h.write_u32(e.0 .0);
                h.write_u32(e.1 .0);
            }
            h.write_u8(u8::from(open));
            for q in queues {
                h.write_u64(q.len() as u64);
                for item in q {
                    match item {
                        NetItem::Conn(ConnEvent::Established) => h.write_u8(1),
                        NetItem::Conn(ConnEvent::Accepted { peer, port }) => {
                            h.write_u8(2);
                            h.write_u32(peer.0 .0);
                            h.write_u32(peer.1 .0);
                            h.write_u16(port.0);
                        }
                        NetItem::Conn(ConnEvent::Failed(e)) => {
                            h.write_u8(3);
                            h.write(format!("{e:?}").as_bytes());
                        }
                        NetItem::Msg(b) => {
                            h.write_u8(4);
                            h.write(b);
                        }
                        NetItem::Conn(ConnEvent::Closed) => h.write_u8(5),
                    }
                }
            }
        }
        // Timers: owner and token identify the pending work; the due
        // instant is deliberately left out (see the module docs).
        for t in self.timers.values() {
            h.write_u32(t.owner.0);
            h.write_u32(t.owner.1);
            h.write_u64(t.token);
        }
        for (host, kernel) in self.hosts.iter() {
            for (tracer, q) in kernel.pending_batches() {
                h.write_u32(host.0);
                h.write_u32(tracer.0);
                h.write_u64(q.len() as u64);
                for m in q {
                    h.write(format!("{:?}", m.event).as_bytes());
                }
            }
        }
        for (k, q) in &self.child_exits {
            h.write_u32(k.0);
            h.write_u32(k.1);
            for (pid, st) in q {
                h.write_u32(pid.0);
                h.write(format!("{st:?}").as_bytes());
            }
        }
        for k in &self.starts {
            h.write_u32(k.0);
            h.write_u32(k.1);
        }
        // The driver's table hashes in no fixed order: walk it by
        // (host, pid), as the digest always has.
        let mut programs: Vec<_> = self.hosts.programs().collect();
        programs.sort_unstable_by_key(|(k, _)| *k);
        for (k, p) in programs {
            h.write_u32(k.0 .0);
            h.write_u32(k.1 .0);
            h.write_u64(p.state_digest());
        }
        let mut held: Vec<_> = self.hosts.held().collect();
        held.sort_unstable_by_key(|(k, _)| *k);
        for (k, wakes) in held {
            h.write_u32(k.0 .0);
            h.write_u32(k.1 .0);
            for wake in wakes {
                h.write(format!("{wake:?}").as_bytes());
            }
        }
        // Observables the predicates read must split states, or pruning
        // could hide a violation behind an already-visited digest.
        for ((host, pid, sig), n) in &self.kill_log {
            h.write_u32(*host);
            h.write_u32(*pid);
            h.write_u8(*sig);
            h.write_u32(*n);
        }
        for (k, l) in self.lpms() {
            h.write_u32(k.0);
            h.write_u32(k.1);
            h.write_u64(l.stats().executed);
        }
        h.write_u64(self.blackhole_sends);
        for (_, budget) in &self.adversaries {
            h.write_u32(*budget);
        }
        // The one time-derived bit: whether a convergence predicate
        // still applies. Two states differing only here must not merge,
        // or pruning could skip the schedule that demands convergence.
        h.write_u8(u8::from(self.converge_expected()));
        h.finish()
    }

    // ---- internals ------------------------------------------------------

    fn proc_alive(&self, k: K) -> bool {
        self.hosts.kernel(HostId(k.0)).is_alive(Pid(k.1))
    }

    fn route_alive(&self, a: u32, b: u32) -> bool {
        a == b || !self.cut_links.contains(&norm(a, b))
    }

    /// One end closed or died: items travelling toward it are dropped,
    /// and its peer, `told.to`, learns `Closed` behind any in-flight data.
    fn fin(&mut self, told: Tell) {
        let c = self.conns.get(told.conn).expect("just closed");
        let toward_peer = c.toward(told.to);
        let q = self.conns.link_mut(told.conn).expect("just closed");
        q[1 - toward_peer].clear();
        q[toward_peer].push_back(CLOSED);
    }
}

impl Runtime for McWorld {
    fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.services.register(name, port, factory);
    }

    /// A host routable to every other, with inetd spawned on it.
    fn add_host(&mut self, name: &str, _cpu: CpuClass) -> HostId {
        let host = self.hosts.add(Kernel::new(self.clock));
        self.host_names.push(name.to_string());
        let inetd = SpawnSpec::new("inetd", Box::new(Inetd::new()));
        let spawned = self.fork(host, Pid::INIT, Uid::ROOT, inetd, None);
        spawned.expect("a checker's host never goes down");
        host
    }

    /// A child of init; it starts with its `Start` move.
    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if self.hosts.get(host).is_none() {
            return Err(SysError::NoSuchHost);
        }
        self.fork(host, Pid::INIT, uid, spec, None)
    }

    /// Checked by the kernel, then delivered on the spot.
    fn post_signal(&mut self, from: Uid, target: ProcKey, signal: Signal) -> Result<(), SysError> {
        let kernel = self.hosts.get(target.0);
        kernel
            .ok_or(SysError::NoSuchHost)?
            .may_signal(from, target.1)?;
        self.wake(target, Wake::Signal(signal));
        self.run_after();
        Ok(())
    }

    fn find_proc(&self, host: HostId, uid: Uid, prefix: &str) -> Option<Pid> {
        self.hosts.get(host)?.find_user_proc(uid, prefix)
    }

    /// The default schedule: [`McWorld::run_until`]'s drain with the
    /// horizon, for its length, at the end of the span — until the clock
    /// gets there or only a later timer is left.
    fn run(&mut self, span: SimDuration) {
        let (end, horizon) = (self.clock + span, self.horizon);
        self.horizon = end;
        self.run_until(usize::MAX, |_, _| false, |w| w.clock >= end);
        self.horizon = horizon;
        self.clock = self.clock.max(end);
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        self.hosts.get(host).is_some_and(|k| k.is_alive(pid))
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.hosts.get(host)?.stable_get(key)
    }

    fn metric_sections(&self, visit: &mut dyn FnMut(Section<'_>)) {
        self.hub.sections(visit);
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.hub)
    }

    fn now(&self) -> Micros {
        self.clock
    }
}

fn norm(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Short wire-frame classification for trace lines.
fn frame_kind(bytes: &Bytes) -> String {
    match Msg::from_bytes(bytes) {
        Ok(m) => {
            let d = format!("{m:?}");
            d.split([' ', '{', '('])
                .next()
                .unwrap_or("msg")
                .to_lowercase()
        }
        Err(_) => "raw".to_string(),
    }
}

/// The checker's half of the host driver: its clock and its frontier.
/// What the driver schedules becomes an enabled move; the kernel's
/// queued events already are one ([`Move::Kernel`]).
impl Backend for McWorld {
    fn hosts(&self) -> &Hosts {
        &self.hosts
    }

    fn hosts_mut(&mut self) -> &mut Hosts {
        &mut self.hosts
    }

    fn now(&self) -> Micros {
        self.clock
    }

    fn host_name(&self, host: HostId) -> &str {
        &self.host_names[host.0 as usize]
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.host_names
            .iter()
            .position(|h| h == name)
            .map(|i| HostId(i as u32))
            .ok_or(SysError::NoSuchHost)
    }

    fn random_unit(&mut self) -> f64 {
        // Deterministic midpoint: jittered backoffs collapse to their
        // nominal value, which keeps the schedule space canonical.
        0.5
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.hub)
    }

    fn make_service(&self, name: &str, host: HostId) -> Option<(Port, Box<dyn Program>)> {
        self.services.make(name, host)
    }

    fn listen(&mut self, key: ProcKey, port: Port) -> Result<(), SysError> {
        self.hosts.kernel_mut(key.0).bind(key.1, port)
    }

    fn connect(&mut self, me: ProcKey, host: HostId, port: Port) -> Result<ConnId, SysError> {
        if host.0 as usize >= self.host_names.len() {
            return Err(SysError::NoSuchHost);
        }
        let listener = self.hosts.kernel(host).listener(port);
        let reachable = self.route_alive(me.0 .0, host.0);
        let Some(pid) = listener.filter(|_| reachable) else {
            let reason = match reachable {
                true => SysError::ConnectionRefused,
                false => SysError::Unreachable,
            };
            let server = (host, listener.unwrap_or(Pid::NONE));
            let told = self
                .conns
                .open_refused(me, server, port, reason, self.clock);
            let queues = self.conns.link_mut(told.conn).expect("just opened");
            queues[0].push_back(NetItem::Conn(told.event));
            self.busy.insert(told.conn);
            return Ok(told.conn);
        };
        let kernel = self.hosts.kernel_mut(me.0);
        let id = self.conns.open(me, (host, pid), port, self.clock, kernel);
        let queues = self.conns.link_mut(id).expect("just opened");
        queues[0].push_back(NetItem::Conn(ConnEvent::Established));
        queues[1].push_back(NetItem::Conn(ConnEvent::Accepted { peer: me, port }));
        self.busy.insert(id);
        Ok(id)
    }

    fn send(&mut self, me: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let (kernel, fx) = self.hosts.kernel_fx(me.0);
        let peer = self
            .conns
            .send(conn, me, data.len(), self.clock, kernel, fx)?;
        self.apply_effects(me.0);
        if self.route_alive(me.0 .0, peer.0 .0) {
            let (dir, queues) = self.conns.carry(conn, me, data.len());
            queues[dir].push_back(NetItem::Msg(data));
            return Ok(());
        }
        // Link is cut under an established connection: the send is
        // silently swallowed (TCP would buffer it); both endpoints later
        // learn Closed. This is the window the stale-route-cache bug
        // lived in.
        self.conns.sever(conn, self.clock);
        for q in self.conns.link_mut(conn).expect("sent on") {
            q.push_back(CLOSED);
        }
        self.blackhole_sends += 1;
        Ok(())
    }

    fn close(&mut self, me: ProcKey, conn: ConnId) -> Result<(), SysError> {
        let kernel = self.hosts.kernel_mut(me.0);
        if let Some(told) = self.conns.close(conn, me, self.clock, kernel)? {
            self.fin(told);
        }
        Ok(())
    }

    fn conn_alive(&self, me: ProcKey, conn: ConnId) -> bool {
        let peer = self.conns.established(conn, me);
        // The caller is alive: it is running.
        peer.is_some_and(|p| self.proc_alive(key(p)) && self.route_alive(me.0 .0, p.0 .0))
    }

    /// A start, a timer or a child's exit becomes frontier state; a
    /// posted signal and a released event wait for the move's callbacks
    /// to return.
    fn schedule(&mut self, to: ProcKey, wake: Wake, after: After) -> SimDuration {
        let k = key(to);
        match wake {
            _ if after == After::Now => self.after.push_back((to, wake)),
            Wake::Start => {
                self.starts.insert(k);
            }
            Wake::Timer { token, boot } => {
                let delay = match after {
                    After::Delay(delay) => delay,
                    _ => SimDuration::ZERO,
                };
                let id = self.next_timer;
                self.next_timer += 1;
                let due = self.clock + delay;
                let timer = McTimer {
                    owner: k,
                    token,
                    boot,
                    due,
                };
                self.timers.insert(id, timer);
            }
            Wake::Signal(signal) => {
                *self
                    .kill_log
                    .entry((k.0, k.1, signal.number()))
                    .or_insert(0) += 1;
                self.after.push_back((to, Wake::Signal(signal)));
            }
            // A parent hears of a child's exit only if it has a program
            // to hear it with, running or about to start.
            Wake::ChildExit { child, status }
                if self.hosts.has_program(to) || self.starts.contains(&k) =>
            {
                let exits = self.child_exits.entry(k).or_default();
                exits.push_back((child, status));
            }
            // Nothing else is scheduled on the checker: a flush is a
            // `Kernel` move already, a message or a connection notice
            // travels its connection's queue, and an orphaned notice has
            // no one to hear it.
            _ => {}
        }
        SimDuration::ZERO
    }

    /// Queued events wait in the kernel until a `Kernel` move pops them.
    fn queued(&mut self, _: ProcKey, _: usize, _: bool) -> Option<SimDuration> {
        None
    }

    /// One message per move, through the batch frame the sim and real
    /// backends ship.
    fn flush(&mut self, tracer: ProcKey) -> Option<Bytes> {
        let msg = self.hosts.kernel_mut(tracer.0).pop_kernel_msg(tracer.1)?;
        Some(encode_kernel_batch(&[msg]))
    }

    fn handed(&mut self, to: ProcKey, wake: Wake) -> Option<Wake> {
        if let Wake::Message { conn, data } = &wake {
            let (kernel, fx) = self.hosts.kernel_fx(to.0);
            let now = self.clock;
            let handed = self.conns.deliver(*conn, to, data.len(), now, kernel, fx);
            self.apply_effects(to.0);
            return handed.then_some(wake);
        }
        Some(wake)
    }

    /// Its pending moves go, and its connections FIN.
    fn gone(&mut self, end: ProcKey) {
        let k = key(end);
        self.starts.remove(&k);
        self.child_exits.remove(&k);
        self.timers.retain(|_, t| t.owner != k);
        // Events still queued for a dead tracer would only be no-op moves.
        self.hosts.kernel_mut(end.0).drain_batch(end.1, |_| ());
        for told in self.conns.process_gone(end, self.clock) {
            self.fin(told);
        }
    }
}
