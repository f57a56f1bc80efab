//! The model-checked world: a third backend behind the `Sys` seam.
//!
//! The simulation backend (`ppm-simos`) orders events by virtual time;
//! the real backend by wall-clock arrival. This backend orders them by
//! *choice*: every pending delivery, kernel notification, due timer and
//! budgeted adversary action is an **enabled move**, and the explorer
//! (see [`crate::explore`]) picks which one fires next. Exhausting those
//! picks exhausts the interleavings of the PPM protocols on a small
//! world — exactly the schedules a discrete-event simulation samples
//! only one of per seed.
//!
//! Connections keep per-direction FIFO queues and only the head of each
//! queue is enabled, so streams stay ordered (TCP semantics) while
//! independent streams commute. A process death appends `Closed` behind
//! any in-flight data, preserving the FIN-after-data interleavings that
//! triggered the dedup-purge bug.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hasher;

use bytes::Bytes;

use ppm_core::Lpm;
use ppm_proto::codec::Wire;
use ppm_proto::Msg;
use ppm_runtime::hashx::HashX;
use ppm_runtime::inetd::Inetd;
use ppm_runtime::kernel::{Effect, Effects, Kernel};
use ppm_runtime::obs::{HubRef, ObsHub};
use ppm_runtime::rt::{ServiceFactory, Services};
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{Micros, SimDuration, SimTime};
use ppm_runtime::{
    ConnEvent, ConnId, HostId, Pid, Port, Program, SigAction, SpawnSpec, SysError, Uid,
};

/// Process key used internally: (host index, pid number). Plain integers
/// so every container is `BTreeMap`-ordered and the move enumeration is
/// deterministic.
pub type K = (u32, u32);

/// Virtual time consumed by each delivered event. Absolute time is
/// excluded from state digests; the tick only drives timers and the
/// timestamps protocol code derives epochs from.
const TICK: SimDuration = SimDuration::from_micros(200);

/// One item in a connection's per-direction FIFO.
#[derive(Debug, Clone, PartialEq)]
enum NetItem {
    /// Client side: connect succeeded.
    Established,
    /// Server side: a client connected.
    Accepted { peer: (HostId, Pid), port: Port },
    /// Client side: connect failed.
    Failed(SysError),
    /// A data frame.
    Msg(Bytes),
    /// Peer closed, died, or the link broke under a send.
    Closed,
}

/// A stream connection between two processes.
#[derive(Debug)]
struct Conn {
    /// Initiating endpoint.
    a: K,
    /// Accepting endpoint (the listener's process).
    b: K,
    /// Both directions usable. Cleared on close/death/blackhole; items
    /// already queued still deliver (data in flight stays in flight).
    open: bool,
    /// Items travelling toward `a`.
    to_a: VecDeque<NetItem>,
    /// Items travelling toward `b`.
    to_b: VecDeque<NetItem>,
}

impl Conn {
    /// `end` closes (or dies): items travelling toward it are dropped,
    /// its peer learns Closed behind any in-flight data.
    fn fin(&mut self, end: K) {
        self.open = false;
        if self.a == end {
            self.to_a.clear();
            self.to_b.push_back(NetItem::Closed);
        } else {
            self.to_b.clear();
            self.to_a.push_back(NetItem::Closed);
        }
    }
}

#[derive(Debug, Clone)]
struct McTimer {
    owner: K,
    token: u64,
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

/// The bounded-model-checking world: per-host kernels (the same
/// [`Kernel`] state machine the sim and real backends run), programs,
/// and the frontier of pending deliveries.
pub struct McWorld {
    clock: SimTime,
    /// Timers due after this instant never fire: the end of the modelled
    /// schedule. Keeps housekeeping from generating unbounded suffixes.
    horizon: SimTime,
    host_names: Vec<String>,
    host_up: Vec<bool>,
    kernels: Vec<Kernel>,
    /// The kernels' effects sink, drained after every kernel call.
    fx: Effects,
    /// Currently cut host pairs (normalized low-high). Everything else
    /// in the static topology is routable; worlds are fully meshed.
    cut_links: BTreeSet<(u32, u32)>,
    progs: BTreeMap<K, Box<dyn Program>>,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    timers: BTreeMap<u64, McTimer>,
    next_timer: u64,
    child_exits: BTreeMap<K, VecDeque<(Pid, ExitStatus)>>,
    starts: BTreeSet<K>,
    /// inetd's registry (the scenarios register pmd).
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

impl McWorld {
    /// Creates a fully meshed world of `hosts`, boots inetd everywhere,
    /// and drains nothing: call [`McWorld::run_to_quiescence`] or start
    /// staging.
    pub fn new(hosts: &[&str], horizon: SimDuration) -> Self {
        let clock = SimTime::from_micros(1_000);
        let mut w = McWorld {
            clock,
            horizon: clock + horizon,
            host_names: hosts.iter().map(|h| (*h).to_string()).collect(),
            host_up: vec![true; hosts.len()],
            kernels: hosts.iter().map(|_| Kernel::new(clock)).collect(),
            fx: Effects::new(),
            cut_links: BTreeSet::new(),
            progs: BTreeMap::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
            timers: BTreeMap::new(),
            next_timer: 1,
            child_exits: BTreeMap::new(),
            starts: BTreeSet::new(),
            services: Services::default(),
            hub: ObsHub::new(false),
            kill_log: BTreeMap::new(),
            blackhole_sends: 0,
            adversaries: Vec::new(),
            last_disruption_at: None,
            convergence_margin: SimDuration::from_micros(0),
            exec_baseline: BTreeMap::new(),
        };
        for h in 0..w.host_names.len() {
            w.spawn_program(h as u32, Uid::ROOT, "inetd", Box::new(Inetd::new()));
        }
        w
    }

    // ---- staging helpers (deterministic world construction) ------------

    /// Registers a service with inetd's registry on every host.
    pub fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.services.register(name, port, factory);
    }

    /// Spawns a process with behaviour as a child of init; it starts via
    /// its `Start` move (first in drain priority).
    pub fn spawn_program(
        &mut self,
        host: u32,
        uid: Uid,
        command: &str,
        program: Box<dyn Program>,
    ) -> Pid {
        self.spawn((host, Pid::INIT.0), uid, SpawnSpec::new(command, program))
    }

    /// Places an inert running process in the table (a plain UNIX
    /// process from the PPM's perspective).
    pub fn spawn_inert(&mut self, host: u32, uid: Uid, command: &str) -> Pid {
        let pid = self.spawn((host, Pid::INIT.0), uid, SpawnSpec::inert(command));
        self.starts.remove(&(host, pid.0));
        self.kernel_call(host, |k, now, fx| k.start(pid, now, fx));
        pid
    }

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
        for conn in self.conns.values_mut() {
            let dirs = [(conn.b.0, &mut conn.to_b), (conn.a.0, &mut conn.to_a)];
            for (dst_host, q) in dirs {
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

    /// Kills the first live process on `host` named `command` (staging
    /// variant of [`Adversary::KillProc`]). Returns `true` on a kill.
    pub fn stage_kill(&mut self, host: u32, command: &str) -> bool {
        match self.find_proc(host, command) {
            Some(pid) => {
                self.deliver_signal((host, pid), Signal::Kill);
                true
            }
            None => false,
        }
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

    /// All live LPM programs, keyed by (host, pid).
    pub fn lpms(&self) -> Vec<(K, &Lpm)> {
        self.progs
            .iter()
            .filter_map(|(k, p)| {
                p.as_any()
                    .and_then(|a| a.downcast_ref::<Lpm>())
                    .map(|l| (*k, l))
            })
            .collect()
    }

    /// The kernel of a host (process table, stable storage).
    pub fn kernel(&self, host: u32) -> &Kernel {
        &self.kernels[host as usize]
    }

    /// What the world recorded about itself.
    pub fn hub(&self) -> &ObsHub {
        &self.hub
    }

    /// The hub, to switch recording on for a replay.
    pub fn hub_mut(&mut self) -> &mut ObsHub {
        &mut self.hub
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

    /// First live pid on `host` with the given command name.
    pub fn find_proc(&self, host: u32, command: &str) -> Option<u32> {
        self.kernels[host as usize]
            .processes()
            .find(|p| p.is_alive() && p.command == command)
            .map(|p| p.pid.0)
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    // ---- the frontier ---------------------------------------------------

    /// All enabled moves, in a deterministic order.
    pub fn enabled_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for &k in &self.starts {
            moves.push(Move::Start(k));
        }
        for (&id, conn) in &self.conns {
            if !conn.to_a.is_empty() {
                moves.push(Move::Net {
                    conn: id,
                    to_b: false,
                });
            }
            if !conn.to_b.is_empty() {
                moves.push(Move::Net {
                    conn: id,
                    to_b: true,
                });
            }
        }
        for (host, kernel) in self.kernels.iter().enumerate() {
            for (tracer, _) in kernel.pending_batches() {
                moves.push(Move::Kernel((host as u32, tracer.0)));
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
            Adversary::KillProc { host, command } => {
                self.host_up[*host as usize] && self.find_proc(*host, command).is_some()
            }
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
                let c = &self.conns[conn];
                let (q, dst) = if *to_b {
                    (&c.to_b, c.b)
                } else {
                    (&c.to_a, c.a)
                };
                let what = match q.front() {
                    Some(NetItem::Established) => "established".to_string(),
                    Some(NetItem::Accepted { .. }) => "accepted".to_string(),
                    Some(NetItem::Failed(e)) => format!("failed({e})"),
                    Some(NetItem::Msg(b)) => format!("msg {}", frame_kind(b)),
                    Some(NetItem::Closed) => "closed".to_string(),
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
        let cmd = self.kernels[k.0 as usize]
            .get(Pid(k.1))
            .map(|p| p.command.clone())
            .unwrap_or_else(|| "?".to_string());
        format!("{cmd}@{}:{}", self.host_names[k.0 as usize], k.1)
    }

    /// Applies one move. The move must come from the current
    /// [`McWorld::enabled_moves`].
    pub fn apply(&mut self, mv: &Move) {
        match mv {
            Move::Start(k) => self.do_start(*k),
            Move::Net { conn, to_b } => self.do_deliver(*conn, *to_b),
            Move::Kernel(k) => {
                self.clock += TICK;
                if let Some(msg) = self.kernels[k.0 as usize].pop_kernel_msg(Pid(k.1)) {
                    // One message per move, through the batch frame the
                    // sim and real backends ship.
                    let frame = ppm_proto::codec::encode_batch(&[msg]);
                    self.dispatch(*k, |p, sys| p.on_kernel_batch(sys, frame));
                }
            }
            Move::ChildExit(k) => {
                self.clock += TICK;
                let item = self.child_exits.get_mut(k).and_then(VecDeque::pop_front);
                if let Some((child, status)) = item {
                    self.dispatch(*k, |p, sys| p.on_child_exit(sys, child, status));
                }
            }
            Move::Timer(id) => {
                if let Some(t) = self.timers.remove(id) {
                    self.clock = self.clock.max(t.due);
                    self.dispatch(t.owner, |p, sys| p.on_timer(sys, t.token));
                }
            }
            Move::Fault(i) => self.do_fault(*i),
        }
    }

    fn do_start(&mut self, k: K) {
        self.starts.remove(&k);
        self.clock += TICK;
        if self.kernel_call(k.0, |kn, now, fx| kn.start(Pid(k.1), now, fx)) {
            self.dispatch(k, |p, sys| p.on_start(sys));
        }
    }

    fn do_deliver(&mut self, conn_id: u64, to_b: bool) {
        self.clock += TICK;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let (item, dst) = if to_b {
            (conn.to_b.pop_front(), conn.b)
        } else {
            (conn.to_a.pop_front(), conn.a)
        };
        let Some(item) = item else { return };
        let cid = ConnId(conn_id);
        match item {
            NetItem::Established => {
                self.dispatch(dst, |p, sys| {
                    p.on_conn_event(sys, cid, ConnEvent::Established)
                });
            }
            NetItem::Accepted { peer, port } => {
                self.dispatch(dst, |p, sys| {
                    p.on_conn_event(sys, cid, ConnEvent::Accepted { peer, port });
                });
            }
            NetItem::Failed(e) => {
                self.last_disruption_at = Some(self.clock);
                self.dispatch(dst, |p, sys| {
                    p.on_conn_event(sys, cid, ConnEvent::Failed(e))
                });
            }
            NetItem::Msg(bytes) => {
                self.dispatch(dst, |p, sys| p.on_message(sys, cid, bytes));
            }
            NetItem::Closed => {
                self.last_disruption_at = Some(self.clock);
                self.dispatch(dst, |p, sys| p.on_conn_event(sys, cid, ConnEvent::Closed));
            }
        }
        // Drop fully drained dead connections so they stop contributing
        // moves and digest weight.
        if let Some(c) = self.conns.get(&conn_id) {
            if !c.open && c.to_a.is_empty() && c.to_b.is_empty() {
                self.conns.remove(&conn_id);
            }
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
                if let Some(pid) = self.find_proc(host, &command) {
                    self.deliver_signal((host, pid), Signal::Kill);
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
        for (i, up) in self.host_up.iter().enumerate() {
            h.write_u8(u8::from(*up));
            h.write_u32(self.kernels[i].boot_count());
            for p in self.kernels[i].processes() {
                h.write_u32(p.pid.0);
                h.write_u32(p.ppid.0);
                h.write_u32(p.uid.0);
                h.write(p.command.as_bytes());
                h.write(format!("{:?}", p.state).as_bytes());
                h.write_u32(p.tracer.map_or(0, |t| t.0));
                h.write_u8(p.trace_flags.bits());
            }
            for (k, v) in self.kernels[i].stable_records() {
                h.write(k.as_bytes());
                h.write(v);
            }
        }
        for (a, b) in &self.cut_links {
            h.write_u32(*a);
            h.write_u32(*b);
        }
        for (host, kernel) in self.kernels.iter().enumerate() {
            for (port, pid) in kernel.listeners() {
                h.write_u32(host as u32);
                h.write_u16(port.0);
                h.write_u32(pid.0);
            }
        }
        for (id, c) in &self.conns {
            h.write_u64(*id);
            h.write_u32(c.a.0);
            h.write_u32(c.a.1);
            h.write_u32(c.b.0);
            h.write_u32(c.b.1);
            h.write_u8(u8::from(c.open));
            for q in [&c.to_a, &c.to_b] {
                h.write_u64(q.len() as u64);
                for item in q {
                    match item {
                        NetItem::Established => h.write_u8(1),
                        NetItem::Accepted { peer, port } => {
                            h.write_u8(2);
                            h.write_u32(peer.0 .0);
                            h.write_u32(peer.1 .0);
                            h.write_u16(port.0);
                        }
                        NetItem::Failed(e) => {
                            h.write_u8(3);
                            h.write(format!("{e:?}").as_bytes());
                        }
                        NetItem::Msg(b) => {
                            h.write_u8(4);
                            h.write(b);
                        }
                        NetItem::Closed => h.write_u8(5),
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
        for (host, kernel) in self.kernels.iter().enumerate() {
            for (tracer, q) in kernel.pending_batches() {
                h.write_u32(host as u32);
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
        for (k, p) in &self.progs {
            h.write_u32(k.0);
            h.write_u32(k.1);
            h.write_u64(p.state_digest());
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
        self.host_up[k.0 as usize] && self.kernels[k.0 as usize].is_alive(Pid(k.1))
    }

    fn route_alive(&self, a: u32, b: u32) -> bool {
        a == b || !self.cut_links.contains(&norm(a, b))
    }

    /// Runs a program callback with a scoped syscall view, then applies
    /// any deferred exit. The program is removed from the table for the
    /// duration so nested dispatches (a kill landing on another process)
    /// can run re-entrantly.
    fn dispatch<F>(&mut self, k: K, f: F)
    where
        F: FnOnce(&mut dyn Program, &mut dyn Sys),
    {
        let Some(mut prog) = self.progs.remove(&k) else {
            return;
        };
        let mut sys = McSys {
            w: self,
            key: k,
            exited: None,
        };
        f(prog.as_mut(), &mut sys);
        let exited = sys.exited;
        if exited.is_none() && self.proc_alive(k) {
            self.progs.insert(k, prog);
        }
        if let Some(status) = exited {
            self.kernel_call(k.0, |kn, now, fx| kn.exit(Pid(k.1), status, now, fx));
        }
    }

    /// Runs one call into `host`'s kernel at the current instant, then
    /// turns what the kernel asked for into frontier state, in order.
    fn kernel_call<R>(
        &mut self,
        host: u32,
        f: impl FnOnce(&mut Kernel, SimTime, &mut Effects) -> R,
    ) -> R {
        let out = f(&mut self.kernels[host as usize], self.clock, &mut self.fx);
        self.apply_effects(host);
        out
    }

    fn apply_effects(&mut self, host: u32) {
        let mut fx = std::mem::take(&mut self.fx);
        for effect in fx.drain(..) {
            // Queued events wait in the kernel until a `Kernel` move pops
            // them; stopped programs are not held back; the kernel's own
            // steps are not traced (a move's description names them).
            if let Effect::Gone(pid, status, notify) = effect {
                self.process_gone((host, pid.0), status, notify);
            }
        }
        self.fx = fx;
    }

    /// Frontier teardown for an exited process: its pending moves go,
    /// its connections FIN, its parent (if it has behaviour) is told.
    fn process_gone(&mut self, k: K, status: ExitStatus, notify: Option<Pid>) {
        self.progs.remove(&k);
        self.starts.remove(&k);
        self.child_exits.remove(&k);
        self.timers.retain(|_, t| t.owner != k);
        // Events still queued for a dead tracer would only be no-op moves.
        self.kernels[k.0 as usize].drain_batch(Pid(k.1), |_| ());
        for c in self.conns.values_mut() {
            if c.open && (c.a == k || c.b == k) {
                c.fin(k);
            }
        }
        if let Some(ppid) = notify {
            let parent = (k.0, ppid.0);
            if self.progs.contains_key(&parent) || self.starts.contains(&parent) {
                self.child_exits
                    .entry(parent)
                    .or_default()
                    .push_back((Pid(k.1), status));
            }
        }
    }

    /// Forks a child of `parent`; it starts via its `Start` move.
    fn spawn(&mut self, parent: K, uid: Uid, spec: SpawnSpec) -> Pid {
        let pid = self.kernel_call(parent.0, |kn, now, fx| {
            kn.spawn(Pid(parent.1), uid, &spec.command, spec.cpu_bound, now, fx)
        });
        if let Some(program) = spec.program {
            self.progs.insert((parent.0, pid.0), program);
        }
        self.starts.insert((parent.0, pid.0));
        pid
    }

    /// Applies a signal to a live process: the kernel does the state
    /// changes and events, the target's handler runs in between.
    fn deliver_signal(&mut self, k: K, signal: Signal) {
        let pid = Pid(k.1);
        if !self.proc_alive(k)
            || !self.kernel_call(k.0, |kn, now, fx| kn.deliver_signal(pid, signal, now, fx))
        {
            return;
        }
        let mut action = SigAction::Default;
        self.dispatch(k, |p, sys| action = p.on_signal(sys, signal));
        self.kernel_call(k.0, |kn, now, fx| {
            kn.finish_signal(pid, signal, action, now, fx);
        });
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

// ---- the syscall view ---------------------------------------------------

/// `Sys` implementation scoped to one calling process of the mc world.
struct McSys<'w> {
    w: &'w mut McWorld,
    key: K,
    /// Set by `exit` (and self-kill); applied by the dispatcher after
    /// the callback returns.
    exited: Option<ExitStatus>,
}

impl Sys for McSys<'_> {
    fn now(&self) -> Micros {
        self.w.clock
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let id = self.w.next_timer;
        self.w.next_timer += 1;
        self.w.timers.insert(
            id,
            McTimer {
                owner: self.key,
                token,
                due: self.w.clock + delay,
            },
        );
    }

    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        self.w.kernels[self.key.0 as usize].bind(Pid(self.key.1), port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        if host.0 as usize >= self.w.host_names.len() {
            return Err(SysError::NoSuchHost);
        }
        let id = self.w.next_conn;
        self.w.next_conn += 1;
        let dst = host.0;
        let listener = self.w.kernels[dst as usize].listener(port).map(|pid| pid.0);
        let reachable = self.w.host_up[dst as usize] && self.w.route_alive(self.key.0, dst);
        let mut conn = Conn {
            a: self.key,
            b: (dst, listener.unwrap_or(0)),
            open: false,
            to_a: VecDeque::new(),
            to_b: VecDeque::new(),
        };
        if !reachable {
            conn.to_a.push_back(NetItem::Failed(SysError::Unreachable));
        } else if let Some(pid) = listener {
            conn.open = true;
            conn.b = (dst, pid);
            conn.to_a.push_back(NetItem::Established);
            conn.to_b.push_back(NetItem::Accepted {
                peer: (HostId(self.key.0), Pid(self.key.1)),
                port,
            });
        } else {
            conn.to_a
                .push_back(NetItem::Failed(SysError::ConnectionRefused));
        }
        self.w.conns.insert(id, conn);
        Ok(ConnId(id))
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let me = self.key;
        let (peer, a_is_me) = match self.w.conns.get(&conn.0) {
            Some(c) if c.a == me || c.b == me => {
                if !c.open {
                    return Err(SysError::ConnectionClosed);
                }
                (if c.a == me { c.b } else { c.a }, c.a == me)
            }
            _ => return Err(SysError::NotConnected),
        };
        let deliverable = self.w.host_up[peer.0 as usize] && self.w.route_alive(me.0, peer.0);
        let c = self.w.conns.get_mut(&conn.0).expect("checked above");
        if deliverable {
            if a_is_me {
                c.to_b.push_back(NetItem::Msg(data));
            } else {
                c.to_a.push_back(NetItem::Msg(data));
            }
            return Ok(());
        }
        // Link is cut under an established connection: the send is
        // silently swallowed (TCP would buffer it); both endpoints later
        // learn Closed. This is the window the stale-route-cache bug
        // lived in.
        c.open = false;
        c.to_a.push_back(NetItem::Closed);
        c.to_b.push_back(NetItem::Closed);
        self.w.blackhole_sends += 1;
        Ok(())
    }

    fn conn_alive(&self, conn: ConnId) -> bool {
        self.w.conns.get(&conn.0).is_some_and(|c| {
            c.open
                && self.w.proc_alive(c.a)
                && self.w.proc_alive(c.b)
                && self.w.route_alive(c.a.0, c.b.0)
        })
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        let me = self.key;
        let Some(c) = self.w.conns.get_mut(&conn.0) else {
            return Err(SysError::NotConnected);
        };
        if c.a != me && c.b != me {
            return Err(SysError::NotConnected);
        }
        if c.open {
            c.fin(me);
        }
        Ok(())
    }

    fn host(&self) -> HostId {
        HostId(self.key.0)
    }

    fn host_name(&self) -> &str {
        &self.w.host_names[self.key.0 as usize]
    }

    fn pid(&self) -> Pid {
        Pid(self.key.1)
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.w
            .host_names
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

    fn exit(&mut self, code: i32) {
        self.exited = Some(ExitStatus::Code(code));
    }

    fn fork_exec(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        Ok(self.w.spawn((self.key.0, parent.0), uid, spec))
    }

    fn post_signal(&mut self, target: Pid, signal: Signal) {
        let host = self.key.0;
        *self
            .w
            .kill_log
            .entry((host, target.0, signal.number()))
            .or_insert(0) += 1;
        if target.0 == self.key.1 {
            // Suicide by signal: defer like exit so the dispatcher
            // unwinds cleanly.
            if signal.is_fatal_by_default() || signal == Signal::Kill {
                self.exited = Some(ExitStatus::Signaled(signal));
            }
            return;
        }
        self.w.deliver_signal((host, target.0), signal);
    }

    fn make_service(&self, name: &str) -> Option<(Port, Box<dyn Program>)> {
        self.w.services.make(name, HostId(self.key.0))
    }

    fn kernel(&self) -> &Kernel {
        &self.w.kernels[self.key.0 as usize]
    }

    fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects) {
        (&mut self.w.kernels[self.key.0 as usize], &mut self.w.fx)
    }

    fn flush_effects(&mut self) {
        self.w.apply_effects(self.key.0);
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.w.hub)
    }
}
