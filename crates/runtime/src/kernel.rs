//! The per-host kernel: one state machine under every backend.
//!
//! This is the paper's "enhanced 4.3BSD" mechanism, implemented once:
//! the process table, adoption and descendant tracing, exit teardown,
//! signal delivery, the kernel events deposited on an LPM's kernel
//! socket, listener and service registrations, and stable storage. It
//! is pure — no clock, no queue, no transport. A backend (discrete-event
//! simulation, real loopback nodes, the model checker) passes the
//! current instant in and an [`Effects`] buffer; the kernel mutates its
//! tables and appends what the backend must now *schedule*. Backends
//! differ only in when those effects fire and how bytes move.
//!
//! The tables keyed by pid, uid or port hash with [`FastMap`]: every
//! syscall and every event looks a pid up several times, and the keys
//! are the kernel's own counters, not outside input. Nothing may depend
//! on the order such a table iterates in (`std`'s randomly seeded maps,
//! which these were, already forbade it): what is listed is sorted or
//! walked through the ordered per-uid index.
//!
//! Kernel events coalesce in one queue per tracer. [`Kernel::emit`]
//! reports the event that made a queue non-empty as `first`, and the
//! backend arms one flush for it. The flush is
//! [`Kernel::drain_batch`]: the whole queue, oldest first, as one slice
//! to encode, after which the queue is empty *and keeps its buffer*, so
//! a tracer's next burst allocates nothing for it. A backend that
//! delivers one event per wakeup (the checker) calls
//! [`Kernel::pop_kernel_msg`] instead; neither shifts what stays queued.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use crate::events::{KernelEvent, TraceFlags};
use crate::fd::{FdKind, OpenMode};
use crate::hashx::FastMap;
use crate::ids::{ConnId, Fd, Pid, Port, Uid};
use crate::name::Name;
use crate::process::{ProcInfo, ProcState, Process, Rusage};
use crate::program::{KernelMsg, SigAction, SysError};
use crate::signal::{ExitStatus, Signal};
use crate::sys::CRASHED_AT_KEY;
use crate::time::{SimDuration, SimTime};

/// What a kernel call asks its backend to do, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// A kernel event of `kind` (`wire_size` bytes on the kernel socket)
    /// about `pid` joined `tracer`'s pending batch. When `first`, the
    /// batch was empty: arm one flush (a later [`Kernel::drain_batch`]);
    /// events queued before it fires ride along.
    Queued {
        tracer: Pid,
        pid: Pid,
        kind: &'static str,
        wire_size: usize,
        first: bool,
    },
    /// The signal reached the process and is about to take effect.
    Signaled(Pid, Signal),
    /// The process was continued: release what was held while it was
    /// stopped.
    Resumed(Pid),
    /// The process left the live set; its exit event, if traced, follows.
    Exiting(Pid, ExitStatus),
    /// The process is gone: drop its program and timers, break its
    /// connections, then deliver a child-exit notification to its live
    /// parent (the last field), if it has one.
    Gone(Pid, ExitStatus, Option<Pid>),
}

/// The effects sink: a backend-owned scratch buffer, drained after each
/// kernel call and reused, so a syscall allocates nothing for it.
pub type Effects = Vec<Effect>;

/// Maximum number of exited process entries retained per host before the
/// oldest are evicted. LPMs keep longer-lived history themselves; the
/// kernel only retains enough for "recently dead" queries.
pub const EXITED_RETENTION: usize = 512;

/// One host's kernel state.
///
/// The process table is sharded by owner: alongside the global pid map,
/// a per-uid index of live pids keeps every user-scoped question —
/// `user_processes`, the LPM's recovery rescan, the pmd's per-user
/// dispatch — proportional to that user's own processes rather than to
/// the whole host's table. With thousands of users per host, the global
/// scan the index replaces was the multi-tenant bottleneck.
#[derive(Debug)]
pub struct Kernel {
    procs: FastMap<Pid, Process>,
    /// Live pids per owner, pid-ordered: a sorted `Vec`, kept like a
    /// child list (a fork appends, an exit bisects). Maintained on insert
    /// and exit; a uid's entry is removed when its last live pid exits.
    by_uid: FastMap<Uid, Vec<Pid>>,
    exited_order: VecDeque<Pid>,
    next_pid: u32,
    load_avg: f64,
    boot_count: u32,
    /// Bound ports and their owners; unpublished when the owner exits.
    listeners: FastMap<Port, Pid>,
    /// Running inetd services by name, with the well-known port each was
    /// started for; unpublished when the daemon exits.
    services: HashMap<String, (Pid, Port)>,
    /// The disk: survives process exits *and* host crashes.
    stable: HashMap<String, Bytes>,
    /// Services running at the last crash; a reboot hands them back so
    /// the backend re-runs them the way init replays /etc/rc.
    prev_services: Vec<String>,
    /// Kernel events coalescing toward each tracer's next wakeup. A
    /// drained queue stays, empty, for its buffer.
    pending: FastMap<Pid, VecDeque<KernelMsg>>,
}

/// Links `pid` into a child list or a per-uid index. Both are kept in
/// pid order, where an exit finds its entry by bisection; a fork's pid
/// is the highest yet and lands at the end, an orphan handed to init
/// wherever it belongs.
fn link_child(children: &mut Vec<Pid>, pid: Pid) {
    let at = children.partition_point(|&c| c < pid);
    children.insert(at, pid);
}

/// Unlinks `pid` from a list [`link_child`] keeps, by bisection.
fn unlink_child(children: &mut Vec<Pid>, pid: Pid) {
    if let Ok(at) = children.binary_search(&pid) {
        children.remove(at);
    }
}

impl Kernel {
    /// Creates a freshly booted kernel containing only the init process.
    pub fn new(now: SimTime) -> Self {
        let mut k = Kernel {
            procs: FastMap::default(),
            by_uid: FastMap::default(),
            exited_order: VecDeque::new(),
            next_pid: 2,
            load_avg: 0.0,
            boot_count: 1,
            listeners: FastMap::default(),
            services: HashMap::new(),
            stable: HashMap::new(),
            prev_services: Vec::new(),
            pending: FastMap::default(),
        };
        let mut init = Process::new(Pid::INIT, Pid::INIT, Uid::ROOT, "init", now);
        init.state = ProcState::Running;
        k.by_uid.entry(Uid::ROOT).or_default().push(Pid::INIT);
        k.procs.insert(Pid::INIT, init);
        k
    }

    /// The host lost power: stamps the instant on the disk (a respawned
    /// daemon reads it to measure repair time), remembers the running
    /// services, and unpublishes every listener and service. Process
    /// entries stay until [`Kernel::reboot`]; the backend stops
    /// scheduling for a downed host. A batch whose flush is already
    /// armed is left for that flush to collect.
    pub fn crash(&mut self, now: SimTime) {
        let stamp = Bytes::copy_from_slice(&now.as_micros().to_be_bytes());
        self.stable.insert(CRASHED_AT_KEY.to_string(), stamp);
        self.prev_services = std::mem::take(&mut self.services).into_keys().collect();
        self.prev_services.sort_unstable();
        self.listeners.clear();
    }

    /// Boots again after a crash. Pids restart from 2 and no process
    /// survives — "all process activities in that host, obviously,
    /// cease" — but the disk does. Returns the services that were
    /// running at the crash, name-sorted, for the backend to re-run.
    pub fn reboot(&mut self, now: SimTime) -> Vec<String> {
        let fresh = Kernel::new(now);
        let old = std::mem::replace(self, fresh);
        self.boot_count = old.boot_count + 1;
        self.stable = old.stable;
        old.prev_services
    }

    /// How many times this kernel has booted (1 = never crashed).
    pub fn boot_count(&self) -> u32 {
        self.boot_count
    }

    /// Allocates the next pid.
    pub fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// Inserts a new process entry and links it under its parent.
    ///
    /// # Panics
    ///
    /// Panics if the pid is already present (allocator misuse).
    pub fn insert(&mut self, proc: Process) {
        let pid = proc.pid;
        let ppid = proc.ppid;
        link_child(self.by_uid.entry(proc.uid).or_default(), pid);
        assert!(
            self.procs.insert(pid, proc).is_none(),
            "pid {pid} already in process table"
        );
        if let Some(parent) = self.procs.get_mut(&ppid) {
            link_child(&mut parent.children, pid);
            parent.rusage.forks += 1;
        }
    }

    /// Immutable access to a process entry (alive or recently exited).
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Access to a live process, with a syscall-style error.
    pub fn live(&self, pid: Pid) -> Result<&Process, SysError> {
        match self.procs.get(&pid) {
            Some(p) if p.is_alive() => Ok(p),
            _ => Err(SysError::NoSuchProcess),
        }
    }

    /// Mutable access to a live process, with a syscall-style error.
    pub fn live_mut(&mut self, pid: Pid) -> Result<&mut Process, SysError> {
        match self.procs.get_mut(&pid) {
            Some(p) if p.is_alive() => Ok(p),
            _ => Err(SysError::NoSuchProcess),
        }
    }

    /// All process entries, in pid order.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        let mut pids: Vec<Pid> = self.procs.keys().copied().collect();
        pids.sort_unstable();
        pids.into_iter().map(move |pid| &self.procs[&pid])
    }

    /// `ps`-style info about the live processes owned by `uid`, in pid
    /// order. Served from the per-uid shard index: O(user's own
    /// processes), independent of how many other tenants the host carries.
    pub fn user_processes(&self, uid: Uid) -> Vec<ProcInfo> {
        let pids = self.by_uid.get(&uid).into_iter().flatten();
        pids.map(|pid| ProcInfo::from(&self.procs[pid])).collect()
    }

    /// `uid`'s lowest-pid live process whose command starts with `prefix`
    /// (`ps | grep` at a terminal; the [`crate::rt::Runtime::find_proc`]
    /// of every backend).
    pub fn find_user_proc(&self, uid: Uid, prefix: &str) -> Option<Pid> {
        let mut pids = self.by_uid.get(&uid).into_iter().flatten();
        pids.find(|pid| self.procs[pid].command.starts_with(prefix))
            .copied()
    }

    /// Marks a process exited, detaches it from the run queue, reparents
    /// its live children to init, and records it in the retention ring.
    ///
    /// Returns the pids of the children that were reparented.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a live process (callers check first).
    pub fn finish_exit(&mut self, pid: Pid, status: ExitStatus, now: SimTime) -> Vec<Pid> {
        let children;
        let uid;
        {
            let p = self.procs.get_mut(&pid).expect("exiting pid exists");
            assert!(p.is_alive(), "double exit of pid {pid}");
            p.state = ProcState::Exited(status);
            p.exited_at = Some(now);
            p.cpu_bound = false;
            uid = p.uid;
            children = std::mem::take(&mut p.children);
        }
        // The exited pid leaves its owner's shard of the live index.
        if let Some(pids) = self.by_uid.get_mut(&uid) {
            unlink_child(pids, pid);
            if pids.is_empty() {
                self.by_uid.remove(&uid);
            }
        }
        // Reparent live children to init.
        for &c in &children {
            if let Some(cp) = self.procs.get_mut(&c) {
                cp.ppid = Pid::INIT;
            }
        }
        if let Some(init) = self.procs.get_mut(&Pid::INIT) {
            for &c in &children {
                link_child(&mut init.children, c);
            }
        }
        // Unlink from the (old) parent's child list, by bisection:
        // init's list is long while orphans pile up.
        let ppid = self.procs[&pid].ppid;
        if let Some(parent) = self.procs.get_mut(&ppid) {
            unlink_child(&mut parent.children, pid);
        }
        self.exited_order.push_back(pid);
        while self.exited_order.len() > EXITED_RETENTION {
            if let Some(old) = self.exited_order.pop_front() {
                self.procs.remove(&old);
            }
        }
        children
    }

    /// The adoption check and effect (the paper's extended `ptrace`):
    /// `tracer_uid` adopts `target`, setting `flags`.
    ///
    /// # Errors
    ///
    /// * [`SysError::NoSuchProcess`] — target not alive.
    /// * [`SysError::PermissionDenied`] — "the adoption operations fail if
    ///   the process and the PPM belong to different users".
    /// * [`SysError::AlreadyTraced`] — a *different, still-live* manager
    ///   already traces the target; re-adoption by the same manager just
    ///   updates flags, and a dead manager's claim lapses so a respawned
    ///   LPM can take over its predecessor's orphans.
    pub fn adopt(
        &mut self,
        target: Pid,
        tracer: Pid,
        tracer_uid: Uid,
        flags: TraceFlags,
    ) -> Result<(), SysError> {
        // A tracer that has exited (or vanished in a reboot) no longer
        // blocks adoption; its pid may even have been reused, so only a
        // live holder counts.
        let prior = self.get(target).and_then(|p| p.tracer);
        let holder_live = prior.is_some_and(|t| self.procs.get(&t).is_some_and(Process::is_alive));
        self.owned(target, tracer_uid)?;
        let p = self.live_mut(target)?;
        match prior {
            Some(t) if t != tracer && holder_live => Err(SysError::AlreadyTraced),
            _ => {
                p.trace_flags = flags;
                p.tracer = Some(tracer);
                Ok(())
            }
        }
    }

    // ---- process lifecycle ----------------------------------------------

    /// True when the process exists and has not exited.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.procs.get(&pid).is_some_and(Process::is_alive)
    }

    /// The owner of a process (root for unknown pids).
    pub fn uid_of(&self, pid: Pid) -> Uid {
        self.procs.get(&pid).map_or(Uid::ROOT, |p| p.uid)
    }

    /// Forks a child of `parent`. Descendant tracking: a traced parent's
    /// children are traced by the same LPM with the same flags
    /// ("Adoption allows the LPM to keep track of a process and its
    /// descendants"), and the tracer is told of the fork. The child is
    /// an embryo until the backend calls [`Kernel::start`] for it.
    pub fn spawn(
        &mut self,
        parent: Pid,
        uid: Uid,
        command: impl Into<Name>,
        cpu_bound: bool,
        now: SimTime,
        fx: &mut Effects,
    ) -> Pid {
        let pid = self.alloc_pid();
        let mut proc = Process::new(pid, parent, uid, command, now);
        proc.cpu_bound = cpu_bound;
        let traced = match self.procs.get(&parent).filter(|p| p.is_alive()) {
            Some(pp) => {
                proc.tracer = pp.tracer;
                proc.trace_flags = pp.trace_flags;
                pp.is_adopted()
            }
            None => false,
        };
        self.insert(proc);
        if traced {
            self.emit(KernelEvent::Fork { parent, child: pid }, now, fx);
        }
        pid
    }

    /// The exec half of fork+exec: the process begins running. Returns
    /// `false` (and does nothing) if it died as an embryo.
    pub fn start(&mut self, pid: Pid, now: SimTime, fx: &mut Effects) -> bool {
        let Ok(p) = self.live_mut(pid) else {
            return false;
        };
        p.state = ProcState::Running;
        // The event's command is a `String`: the one allocation a traced
        // process still costs here.
        let command = p.command.to_string();
        self.emit(KernelEvent::Exec { pid, command }, now, fx);
        true
    }

    /// Terminates a live process: exit bookkeeping, the exit event to
    /// its tracer, listener and service unpublishing, and the decision
    /// whether a parent is there to be notified. No-op on a dead pid.
    pub fn exit(&mut self, pid: Pid, status: ExitStatus, now: SimTime, fx: &mut Effects) {
        if !self.is_alive(pid) {
            return;
        }
        self.finish_exit(pid, status, now);
        let p = &self.procs[&pid];
        let (rusage, ppid) = (p.rusage, p.ppid);
        fx.push(Effect::Exiting(pid, status));
        let exit = KernelEvent::Exit {
            pid,
            status,
            rusage,
        };
        self.emit(exit, now, fx);
        self.listeners.retain(|_, owner| *owner != pid);
        self.services.retain(|_, (owner, _)| *owner != pid);
        let notify = (ppid != pid && self.is_alive(ppid)).then_some(ppid);
        fx.push(Effect::Gone(pid, status, notify));
    }

    // ---- signals ---------------------------------------------------------

    /// The permission half of `kill(2)`: the target must be alive
    /// ([`SysError::NoSuchProcess`]) and owned by `from`, unless `from`
    /// is root ([`SysError::PermissionDenied`]).
    pub fn may_signal(&self, from: Uid, target: Pid) -> Result<(), SysError> {
        self.owned(target, from).map(|_| ())
    }

    /// A live process that `who` may act on: its owner's, or anyone's
    /// for root.
    fn owned(&self, pid: Pid, who: Uid) -> Result<&Process, SysError> {
        let p = self.live(pid)?;
        if p.uid != who && !who.is_root() {
            return Err(SysError::PermissionDenied);
        }
        Ok(p)
    }

    /// Delivers a signal to a live process: accounts it, reports it to
    /// the tracer, and applies Stop, Cont and Kill. Returns `true` for a
    /// catchable signal: the backend then runs the target program's
    /// `on_signal` (if it has one) and passes the verdict to
    /// [`Kernel::finish_signal`].
    pub fn deliver_signal(
        &mut self,
        pid: Pid,
        signal: Signal,
        now: SimTime,
        fx: &mut Effects,
    ) -> bool {
        let Ok(p) = self.live_mut(pid) else {
            return false;
        };
        p.rusage.signals_received += 1;
        self.emit(KernelEvent::SignalDelivered { pid, signal }, now, fx);
        fx.push(Effect::Signaled(pid, signal));
        match signal {
            Signal::Stop => {
                if self.switch_state(pid, ProcState::Running, ProcState::Stopped) {
                    self.emit(KernelEvent::Stopped { pid }, now, fx);
                }
            }
            Signal::Cont => {
                if self.switch_state(pid, ProcState::Stopped, ProcState::Running) {
                    self.emit(KernelEvent::Continued { pid }, now, fx);
                    fx.push(Effect::Resumed(pid));
                }
            }
            Signal::Kill => self.exit(pid, ExitStatus::Signaled(Signal::Kill), now, fx),
            _ => return true,
        }
        false
    }

    /// Second half of a catchable signal: applies the default
    /// disposition unless the program handled it (or already exited).
    pub fn finish_signal(
        &mut self,
        pid: Pid,
        signal: Signal,
        action: SigAction,
        now: SimTime,
        fx: &mut Effects,
    ) {
        if action == SigAction::Default && signal.is_fatal_by_default() {
            self.exit(pid, ExitStatus::Signaled(signal), now, fx);
        }
    }

    fn switch_state(&mut self, pid: Pid, from: ProcState, to: ProcState) -> bool {
        match self.procs.get_mut(&pid) {
            Some(p) if p.state == from => {
                p.state = to;
                true
            }
            _ => false,
        }
    }

    // ---- kernel events ---------------------------------------------------

    /// Deposits a kernel event on the kernel socket of the tracer of the
    /// process it is about — if there is one, it asked for this class
    /// of event, it is alive, and it is not the process itself (an LPM
    /// does not report itself to itself).
    pub fn emit(&mut self, event: KernelEvent, now: SimTime, fx: &mut Effects) {
        let pid = event.pid();
        let Some(p) = self.procs.get(&pid) else {
            return;
        };
        let Some(tracer) = p.tracer else { return };
        if !p.trace_flags.contains(event.required_flag()) || tracer == pid || !self.is_alive(tracer)
        {
            return;
        }
        let batch = self.pending.entry(tracer).or_default();
        fx.push(Effect::Queued {
            tracer,
            pid,
            kind: event.kind(),
            wire_size: event.wire_size(),
            first: batch.is_empty(),
        });
        batch.push_back(KernelMsg {
            event,
            queued_at: now,
        });
    }

    /// The flush armed by a batch's first event: hands `tracer`'s whole
    /// pending batch to `flush`, oldest first, and empties it in place
    /// (a dead tracer's queue is dropped instead: nothing joins it
    /// again). `None`, without calling `flush`, when nothing is pending.
    pub fn drain_batch<R>(
        &mut self,
        tracer: Pid,
        flush: impl FnOnce(&[KernelMsg]) -> R,
    ) -> Option<R> {
        let batch = self.pending.get_mut(&tracer).filter(|b| !b.is_empty())?;
        let flushed = flush(batch.make_contiguous());
        batch.clear();
        if !self.is_alive(tracer) {
            self.pending.remove(&tracer);
        }
        Some(flushed)
    }

    /// Collects only the oldest pending event for `tracer` (backends
    /// that deliver one event per wakeup).
    pub fn pop_kernel_msg(&mut self, tracer: Pid) -> Option<KernelMsg> {
        self.pending.get_mut(&tracer)?.pop_front()
    }

    /// The non-empty pending batches, in tracer-pid order.
    pub fn pending_batches(&self) -> Vec<(Pid, &VecDeque<KernelMsg>)> {
        let waiting = self.pending.iter().filter(|(_, b)| !b.is_empty());
        let mut batches: Vec<_> = waiting.map(|(t, b)| (*t, b)).collect();
        batches.sort_unstable_by_key(|(tracer, _)| *tracer);
        batches
    }

    // ---- per-process syscalls --------------------------------------------

    /// Allocates the kernel socket descriptor of `pid`, the (live)
    /// calling process.
    pub fn register_kernel_socket(&mut self, pid: Pid) -> Fd {
        self.alloc_fd(pid, FdKind::KernelSocket)
            .expect("caller is alive")
    }

    /// Allocates a descriptor in a live process's table.
    pub fn alloc_fd(&mut self, pid: Pid, kind: FdKind) -> Option<Fd> {
        self.live_mut(pid).ok().map(|p| p.fds.alloc(kind))
    }

    /// Gives back the socket descriptor `pid` holds for `conn`, if any.
    /// The connection table ([`crate::conn`]) calls this for the end that
    /// closes a connection and for the end told it closed or failed, so a
    /// long-lived process lists the sockets it has, not all it ever had.
    pub fn release_socket(&mut self, pid: Pid, conn: ConnId) {
        if let Ok(p) = self.live_mut(pid) {
            if let Some(fd) = p.fds.fd_for_conn(conn) {
                p.fds.release(fd);
            }
        }
    }

    /// `ps`-style info about one process (any state).
    pub fn proc_info(&self, pid: Pid) -> Option<ProcInfo> {
        self.procs.get(&pid).map(ProcInfo::from)
    }

    /// Resource usage of a process (live or recently exited).
    pub fn rusage_of(&self, pid: Pid) -> Option<Rusage> {
        self.procs.get(&pid).map(|p| p.rusage)
    }

    /// Marks a live process CPU-bound (it counts toward the run queue).
    pub fn set_cpu_bound(&mut self, pid: Pid, yes: bool) {
        if let Ok(p) = self.live_mut(pid) {
            p.cpu_bound = yes;
        }
    }

    /// Charges `cost` of CPU to a live process: it is busy for that long
    /// past whatever it was already busy with, and its rusage grows.
    pub fn charge_cpu(&mut self, pid: Pid, cost: SimDuration, now: SimTime) {
        if let Ok(p) = self.live_mut(pid) {
            p.busy_until = p.busy_until.max(now) + cost;
            p.rusage.cpu += cost;
        }
    }

    /// Accounts one stream message sent by `pid` and reports it.
    pub fn account_sent(&mut self, pid: Pid, bytes: usize, now: SimTime, fx: &mut Effects) {
        if let Ok(p) = self.live_mut(pid) {
            p.rusage.msgs_sent += 1;
            p.rusage.bytes_sent += bytes as u64;
        }
        self.emit(KernelEvent::MsgSent { pid, bytes }, now, fx);
    }

    /// Accounts one stream message received by `pid` and reports it.
    pub fn account_received(&mut self, pid: Pid, bytes: usize, now: SimTime, fx: &mut Effects) {
        if let Ok(p) = self.live_mut(pid) {
            p.rusage.msgs_received += 1;
            p.rusage.bytes_received += bytes as u64;
        }
        self.emit(KernelEvent::MsgReceived { pid, bytes }, now, fx);
    }

    /// Opens a file in the descriptor table of `pid`, the (live)
    /// calling process.
    pub fn open_path(
        &mut self,
        pid: Pid,
        path: String,
        mode: OpenMode,
        now: SimTime,
        fx: &mut Effects,
    ) -> Fd {
        let p = self.live_mut(pid).expect("caller is alive");
        p.rusage.files_opened += 1;
        let file = FdKind::File {
            path: path.clone(),
            mode,
        };
        let fd = p.fds.alloc(file);
        self.emit(KernelEvent::FileOpened { pid, path }, now, fx);
        fd
    }

    /// Closes a descriptor of `pid`, or fails with
    /// [`SysError::BadFileDescriptor`]. A released socket's connection
    /// is returned for the backend's transport to close.
    pub fn close_fd(
        &mut self,
        pid: Pid,
        fd: Fd,
        now: SimTime,
        fx: &mut Effects,
    ) -> Result<Option<ConnId>, SysError> {
        let p = self
            .live_mut(pid)
            .map_err(|_| SysError::BadFileDescriptor)?;
        match p.fds.release(fd).ok_or(SysError::BadFileDescriptor)? {
            FdKind::File { path, .. } => {
                self.emit(KernelEvent::FileClosed { pid, path }, now, fx);
                Ok(None)
            }
            FdKind::Socket { conn } => Ok(Some(conn)),
            _ => Ok(None),
        }
    }

    /// The descriptor table of a live process, for its owner or root
    /// ([`SysError::NoSuchProcess`], [`SysError::PermissionDenied`]).
    pub fn open_fds(&self, caller: Uid, pid: Pid) -> Result<Vec<(Fd, FdKind)>, SysError> {
        let p = self.owned(pid, caller)?;
        Ok(p.fds.iter().map(|(fd, k)| (fd, k.clone())).collect())
    }

    // ---- listeners, services, stable storage -----------------------------

    /// Binds `port` to `pid` and allocates its listener descriptor, or
    /// fails with [`SysError::PortInUse`].
    pub fn bind(&mut self, pid: Pid, port: Port) -> Result<(), SysError> {
        if self.listeners.contains_key(&port) {
            return Err(SysError::PortInUse);
        }
        self.listeners.insert(port, pid);
        self.alloc_fd(pid, FdKind::Listener { port });
        Ok(())
    }

    /// The process listening on `port`, if any.
    pub fn listener(&self, port: Port) -> Option<Pid> {
        self.listeners.get(&port).copied()
    }

    /// All bound ports with their owners, in port order.
    pub fn listeners(&self) -> Vec<(Port, Pid)> {
        let mut bound: Vec<_> = self.listeners.iter().map(|(p, o)| (*p, *o)).collect();
        bound.sort_unstable();
        bound
    }

    /// The running daemon registered for an inetd service name and its
    /// well-known port, if any (a daemon's exit unregisters it).
    pub fn service(&self, name: &str) -> Option<(Pid, Port)> {
        self.services.get(name).copied()
    }

    /// Records `pid` as the running daemon for a service name, serving
    /// on `port`.
    pub fn register_service(&mut self, name: &str, pid: Pid, port: Port) {
        self.services.insert(name.to_string(), (pid, port));
    }

    /// Writes a stable-storage record.
    pub fn stable_put(&mut self, key: String, value: Bytes) {
        self.stable.insert(key, value);
    }

    /// Reads a stable-storage record.
    pub fn stable_get(&self, key: &str) -> Option<Bytes> {
        self.stable.get(key).cloned()
    }

    /// Every stable-storage record, in key order.
    pub fn stable_records(&self) -> Vec<(&str, &Bytes)> {
        let mut records: Vec<_> = self.stable.iter().map(|(k, v)| (k.as_str(), v)).collect();
        records.sort_unstable_by_key(|(key, _)| *key);
        records
    }

    // ---- load average ----------------------------------------------------

    /// Number of runnable entities for the load-average sample: running
    /// CPU-bound processes plus processes currently busy with work.
    pub fn runnable_count(&self, now: SimTime) -> usize {
        // Over the live index: the table also retains exited entries.
        let live = self.by_uid.values().flatten().map(|pid| &self.procs[pid]);
        live.filter(|p| p.state == ProcState::Running && (p.cpu_bound || p.busy_until > now))
            .count()
    }

    /// Current load average (time-averaged CPU run-queue length — the
    /// paper's `la`).
    pub fn load_avg(&self) -> f64 {
        self.load_avg
    }

    /// Applies one EWMA sample of the run-queue length.
    pub fn update_load(&mut self, runnable: usize, alpha: f64) {
        self.load_avg += (runnable as f64 - self.load_avg) * alpha.clamp(0.0, 1.0);
    }

    /// Forces the load average (testing/benchmark hook; real runs drive it
    /// with CPU-bound workloads).
    pub fn set_load_avg(&mut self, la: f64) {
        self.load_avg = la.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;

    fn kern() -> Kernel {
        Kernel::new(SimTime::ZERO)
    }

    fn add(k: &mut Kernel, ppid: Pid, uid: Uid, cmd: &str) -> Pid {
        let pid = k.alloc_pid();
        let mut p = Process::new(pid, ppid, uid, cmd, SimTime::ZERO);
        p.state = ProcState::Running;
        k.insert(p);
        pid
    }

    #[test]
    fn boot_creates_init_only() {
        let k = kern();
        assert_eq!(k.processes().count(), 1);
        assert_eq!(k.get(Pid::INIT).unwrap().command, "init");
        assert_eq!(k.boot_count(), 1);
    }

    #[test]
    fn pids_are_sequential_and_unique() {
        let mut k = kern();
        let a = k.alloc_pid();
        let b = k.alloc_pid();
        assert_ne!(a, b);
        assert_eq!(b.0, a.0 + 1);
    }

    #[test]
    fn insert_links_parent_and_counts_forks() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(100), "sh");
        let b = add(&mut k, a, Uid(100), "cc");
        assert_eq!(k.get(a).unwrap().children, vec![b]);
        assert_eq!(k.get(a).unwrap().rusage.forks, 1);
        assert_eq!(k.get(b).unwrap().ppid, a);
    }

    #[test]
    fn user_processes_filters_by_uid_and_liveness() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(100), "sh");
        let _b = add(&mut k, Pid::INIT, Uid(200), "other");
        let c = add(&mut k, a, Uid(100), "cc");
        k.finish_exit(c, ExitStatus::SUCCESS, SimTime::ZERO);
        let mine: Vec<Pid> = k.user_processes(Uid(100)).iter().map(|p| p.pid).collect();
        assert_eq!(mine, vec![a]);
    }

    #[test]
    fn user_index_tracks_exits_and_reboot() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(100), "a");
        let b = add(&mut k, Pid::INIT, Uid(100), "b");
        let c = add(&mut k, Pid::INIT, Uid(200), "c");
        assert_eq!(k.user_processes(Uid(100)).len(), 2);
        k.finish_exit(a, ExitStatus::SUCCESS, SimTime::ZERO);
        let mine: Vec<Pid> = k.user_processes(Uid(100)).iter().map(|p| p.pid).collect();
        assert_eq!(mine, vec![b], "exited pid left the shard");
        k.finish_exit(b, ExitStatus::SUCCESS, SimTime::ZERO);
        assert!(k.user_processes(Uid(100)).is_empty(), "empty shard drained");
        assert_eq!(k.user_processes(Uid(200))[0].pid, c);
        k.reboot(SimTime::from_secs(1));
        assert!(k.user_processes(Uid(200)).is_empty(), "reboot wipes shards");
        assert_eq!(k.user_processes(Uid::ROOT).len(), 1, "init re-indexed");
    }

    #[test]
    fn exit_reparents_children_to_init() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(100), "sh");
        let b = add(&mut k, a, Uid(100), "worker");
        let orphans = k.finish_exit(a, ExitStatus::Code(1), SimTime::from_millis(5));
        assert_eq!(orphans, vec![b]);
        assert_eq!(k.get(b).unwrap().ppid, Pid::INIT);
        assert!(k.get(Pid::INIT).unwrap().children.contains(&b));
        let a_entry = k.get(a).unwrap();
        assert_eq!(a_entry.state, ProcState::Exited(ExitStatus::Code(1)));
        assert_eq!(a_entry.exited_at, Some(SimTime::from_millis(5)));
    }

    #[test]
    fn child_lists_stay_in_pid_order_through_orphaning_and_exits() {
        let mut k = kern();
        let sh = add(&mut k, Pid::INIT, Uid(100), "sh");
        let kids: Vec<Pid> = (0..3).map(|_| add(&mut k, sh, Uid(100), "kid")).collect();
        let late = add(&mut k, Pid::INIT, Uid(100), "late");
        assert_eq!(k.finish_exit(sh, ExitStatus::SUCCESS, SimTime::ZERO), kids);
        // The orphans' pids lie between init's own two children.
        let mut all = kids.clone();
        all.push(late);
        assert_eq!(k.get(Pid::INIT).unwrap().children, all);
        k.finish_exit(kids[1], ExitStatus::SUCCESS, SimTime::ZERO);
        k.finish_exit(late, ExitStatus::SUCCESS, SimTime::ZERO);
        assert_eq!(k.get(Pid::INIT).unwrap().children, [kids[0], kids[2]]);
    }

    #[test]
    #[should_panic(expected = "double exit")]
    fn double_exit_panics() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(100), "sh");
        k.finish_exit(a, ExitStatus::SUCCESS, SimTime::ZERO);
        k.finish_exit(a, ExitStatus::SUCCESS, SimTime::ZERO);
    }

    #[test]
    fn exited_entries_are_evicted_after_retention() {
        let mut k = kern();
        let first = add(&mut k, Pid::INIT, Uid(1), "p");
        k.finish_exit(first, ExitStatus::SUCCESS, SimTime::ZERO);
        for _ in 0..EXITED_RETENTION {
            let p = add(&mut k, Pid::INIT, Uid(1), "p");
            k.finish_exit(p, ExitStatus::SUCCESS, SimTime::ZERO);
        }
        assert!(k.get(first).is_none(), "oldest exited entry evicted");
        // live + init entries never evicted
        assert!(k.get(Pid::INIT).is_some());
    }

    #[test]
    fn adopt_requires_same_user() {
        let mut k = kern();
        let target = add(&mut k, Pid::INIT, Uid(100), "job");
        let lpm = add(&mut k, Pid::INIT, Uid(200), "lpm");
        assert_eq!(
            k.adopt(target, lpm, Uid(200), TraceFlags::ALL),
            Err(SysError::PermissionDenied)
        );
        // root may adopt anyone
        assert_eq!(k.adopt(target, lpm, Uid::ROOT, TraceFlags::ALL), Ok(()));
    }

    #[test]
    fn adopt_sets_tracer_and_flags() {
        let mut k = kern();
        let target = add(&mut k, Pid::INIT, Uid(100), "job");
        let lpm = add(&mut k, Pid::INIT, Uid(100), "lpm");
        k.adopt(target, lpm, Uid(100), TraceFlags::PROC).unwrap();
        let p = k.get(target).unwrap();
        assert_eq!(p.tracer, Some(lpm));
        assert_eq!(p.trace_flags, TraceFlags::PROC);
    }

    #[test]
    fn adopt_by_second_manager_fails_but_readopt_updates() {
        let mut k = kern();
        let target = add(&mut k, Pid::INIT, Uid(100), "job");
        let lpm1 = add(&mut k, Pid::INIT, Uid(100), "lpm1");
        let lpm2 = add(&mut k, Pid::INIT, Uid(100), "lpm2");
        k.adopt(target, lpm1, Uid(100), TraceFlags::PROC).unwrap();
        assert_eq!(
            k.adopt(target, lpm2, Uid(100), TraceFlags::ALL),
            Err(SysError::AlreadyTraced)
        );
        k.adopt(target, lpm1, Uid(100), TraceFlags::ALL).unwrap();
        assert_eq!(k.get(target).unwrap().trace_flags, TraceFlags::ALL);
    }

    #[test]
    fn adopt_succeeds_when_prior_tracer_is_dead() {
        let mut k = kern();
        let target = add(&mut k, Pid::INIT, Uid(100), "job");
        let lpm1 = add(&mut k, Pid::INIT, Uid(100), "lpm1");
        k.adopt(target, lpm1, Uid(100), TraceFlags::PROC).unwrap();
        k.finish_exit(lpm1, ExitStatus::Signaled(Signal::Kill), SimTime::ZERO);
        // The dead manager's claim lapses: a respawned LPM takes over.
        let lpm2 = add(&mut k, Pid::INIT, Uid(100), "lpm2");
        k.adopt(target, lpm2, Uid(100), TraceFlags::ALL).unwrap();
        assert_eq!(k.get(target).unwrap().tracer, Some(lpm2));
    }

    #[test]
    fn adopt_dead_process_fails() {
        let mut k = kern();
        let target = add(&mut k, Pid::INIT, Uid(100), "job");
        k.finish_exit(target, ExitStatus::Signaled(Signal::Kill), SimTime::ZERO);
        assert_eq!(
            k.adopt(target, Pid(99), Uid(100), TraceFlags::ALL),
            Err(SysError::NoSuchProcess)
        );
    }

    #[test]
    fn runnable_count_sees_cpu_bound_and_busy() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(1), "busy");
        k.live_mut(a).unwrap().cpu_bound = true;
        let b = add(&mut k, Pid::INIT, Uid(1), "worker");
        k.live_mut(b).unwrap().busy_until = SimTime::from_millis(10);
        let c = add(&mut k, Pid::INIT, Uid(1), "idle");
        let _ = c;
        assert_eq!(k.runnable_count(SimTime::from_millis(5)), 2);
        assert_eq!(k.runnable_count(SimTime::from_millis(20)), 1);
        // stopped processes never count
        k.live_mut(a).unwrap().state = ProcState::Stopped;
        assert_eq!(k.runnable_count(SimTime::from_millis(5)), 1);
    }

    #[test]
    fn load_average_converges_to_runnable_count() {
        let mut k = kern();
        let alpha = 1.0 - (-1.0f64 / 60.0).exp();
        for _ in 0..600 {
            k.update_load(3, alpha);
        }
        assert!((k.load_avg() - 3.0).abs() < 0.01, "la={}", k.load_avg());
        for _ in 0..600 {
            k.update_load(0, alpha);
        }
        assert!(k.load_avg() < 0.01);
    }

    #[test]
    fn reboot_wipes_everything_but_counts_boots() {
        let mut k = kern();
        add(&mut k, Pid::INIT, Uid(1), "x");
        k.set_load_avg(2.5);
        k.reboot(SimTime::from_secs(10));
        assert_eq!(k.processes().count(), 1);
        assert_eq!(k.load_avg(), 0.0);
        assert_eq!(k.boot_count(), 2);
    }
}
