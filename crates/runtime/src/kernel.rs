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
//! walked through a pid-ordered list.
//!
//! Those lists — each process's live children, each owner's live
//! processes — are threaded through the process table itself: an entry
//! holds the pids before and after it in both, so a fork links in at a
//! tail and an exit unlinks in constant time, and neither touches the
//! allocator. A fork's pid is the highest yet, so appending keeps pid
//! order; an orphan handed to init is the one insertion that searches
//! (see `reparent_to_init`).
//!
//! Kernel events coalesce in one queue per tracer. An event joins it as
//! a [`PendingMsg`], an exec holding the process table's own [`Name`],
//! so a traced fork, exec and exit queue without an allocation.
//! [`Kernel::emit`] reports the event that made a queue non-empty as
//! `first`, and the backend arms one flush for it. The flush is
//! [`Kernel::drain_batch`]: the whole queue, oldest first, as one slice
//! to encode, after which the queue is empty *and keeps its buffer*, so
//! a tracer's next burst allocates nothing for it. A backend that
//! delivers one event per wakeup (the checker) calls
//! [`Kernel::pop_kernel_msg`] instead; neither shifts what stays queued.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use crate::events::{self, KernelEvent, TraceFlags};
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
/// a per-uid list of live pids keeps every user-scoped question —
/// `user_processes`, the LPM's recovery rescan, the pmd's per-user
/// dispatch — proportional to that user's own processes rather than to
/// the whole host's table. With thousands of users per host, the global
/// scan the index replaces was the multi-tenant bottleneck.
#[derive(Debug)]
pub struct Kernel {
    procs: FastMap<Pid, Process>,
    /// The ends of each owner's list of live pids, threaded through the
    /// table like a child list. A uid's entry is removed when its last
    /// live pid exits.
    by_uid: FastMap<Uid, Ends>,
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
    pending: FastMap<Pid, VecDeque<PendingMsg>>,
}

/// A kernel event waiting in its tracer's queue: one [`KernelMsg`] on
/// the kernel socket once the batch is encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingMsg {
    /// The event.
    pub event: PendingEvent,
    /// When the kernel queued it.
    pub queued_at: SimTime,
}

/// The event of a [`PendingMsg`]: a [`KernelEvent`], except that an exec
/// holds the process table's [`Name`] for its command, so queueing one
/// copies the name and allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum PendingEvent {
    /// `pid` replaced its image with `command`: [`KernelEvent::Exec`].
    Exec { pid: Pid, command: Name },
    /// Any other event, as the tracer reads it.
    Event(KernelEvent),
}

impl PendingEvent {
    /// The process the event concerns.
    fn pid(&self) -> Pid {
        match self {
            PendingEvent::Exec { pid, .. } => *pid,
            PendingEvent::Event(event) => event.pid(),
        }
    }

    /// The flag class that must be enabled for the event to be reported.
    fn required_flag(&self) -> TraceFlags {
        match self {
            PendingEvent::Exec { .. } => TraceFlags::PROC,
            PendingEvent::Event(event) => event.required_flag(),
        }
    }

    /// Short name for traces, as [`KernelEvent::kind`] gives it.
    fn kind(&self) -> &'static str {
        match self {
            PendingEvent::Exec { .. } => "exec",
            PendingEvent::Event(event) => event.kind(),
        }
    }

    /// The modelled size on the kernel socket, as
    /// [`KernelEvent::wire_size`] gives it.
    fn wire_size(&self) -> usize {
        match self {
            PendingEvent::Exec { command, .. } => events::exec_wire_size(command),
            PendingEvent::Event(event) => event.wire_size(),
        }
    }

    /// The owned event, an exec's command copied into its `String`.
    pub fn to_event(&self) -> KernelEvent {
        match self {
            PendingEvent::Exec { pid, command } => KernelEvent::Exec {
                pid: *pid,
                command: command.to_string(),
            },
            PendingEvent::Event(event) => event.clone(),
        }
    }
}

impl From<KernelEvent> for PendingEvent {
    fn from(event: KernelEvent) -> Self {
        PendingEvent::Event(event)
    }
}

impl PendingMsg {
    /// The message as the tracer decodes it.
    pub fn to_msg(&self) -> KernelMsg {
        KernelMsg {
            event: self.event.to_event(),
            queued_at: self.queued_at,
        }
    }
}

/// The pid that ends a threaded list: no process is ever pid 0, and a
/// sentinel keeps a link four bytes where an `Option` would take eight.
const NIL: Pid = Pid(0);

/// A link as an `Option`: `None` for [`NIL`].
fn linked(pid: Pid) -> Option<Pid> {
    (pid != NIL).then_some(pid)
}

/// A process entry's neighbours in one list the kernel threads through
/// its table.
#[derive(Debug, Clone, Copy)]
struct Hop {
    prev: Pid,
    next: Pid,
}

/// The first and last pid of a threaded list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: Pid,
    tail: Pid,
}

impl Hop {
    const UNLINKED: Hop = Hop {
        prev: NIL,
        next: NIL,
    };
}

impl Ends {
    const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
    };
}

/// Where a process entry sits in the kernel's threaded lists, and the
/// ends of its own child list: kept inside [`Process`], the size of the
/// `Vec` of children it replaces, so linking and unlinking a process
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Links {
    /// Among its parent's live children.
    sibling: Hop,
    /// Among its owner's live processes.
    owner: Hop,
    /// Its own live children.
    children: Ends,
}

impl Links {
    pub(crate) const UNLINKED: Links = Links {
        sibling: Hop::UNLINKED,
        owner: Hop::UNLINKED,
        children: Ends::EMPTY,
    };
}

/// One threaded list: a process's children, or an owner's processes.
#[derive(Debug, Clone, Copy)]
enum List {
    ChildrenOf(Pid),
    OwnedBy(Uid),
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
        k.procs.insert(Pid::INIT, init);
        k.by_uid.insert(Uid::ROOT, Ends::EMPTY);
        k.link_after(List::OwnedBy(Uid::ROOT), NIL, Pid::INIT);
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

    /// Inserts a new process entry and links it under its parent and its
    /// owner. Its pid is the highest yet, so it goes at both tails.
    ///
    /// # Panics
    ///
    /// Panics if the pid is already present (allocator misuse).
    pub fn insert(&mut self, proc: Process) {
        let (pid, ppid, uid) = (proc.pid, proc.ppid, proc.uid);
        assert!(
            self.procs.insert(pid, proc).is_none(),
            "pid {pid} already in process table"
        );
        let owned = List::OwnedBy(uid);
        let tail = self.by_uid.entry(uid).or_insert(Ends::EMPTY).tail;
        self.link_after(owned, tail, pid);
        if let Some(parent) = self.procs.get_mut(&ppid) {
            parent.rusage.forks += 1;
            let tail = parent.links.children.tail;
            self.link_after(List::ChildrenOf(ppid), tail, pid);
        }
    }

    /// The ends of `list`; `None` for the children of a pid with no
    /// entry, or an owner with no live process.
    fn ends(&mut self, list: List) -> Option<&mut Ends> {
        match list {
            List::ChildrenOf(ppid) => self.procs.get_mut(&ppid).map(|p| &mut p.links.children),
            List::OwnedBy(uid) => self.by_uid.get_mut(&uid),
        }
    }

    /// `pid`'s neighbours in `list`.
    fn hop(&mut self, list: List, pid: Pid) -> &mut Hop {
        let links = &mut self
            .procs
            .get_mut(&pid)
            .expect("a listed pid has an entry")
            .links;
        match list {
            List::ChildrenOf(_) => &mut links.sibling,
            List::OwnedBy(_) => &mut links.owner,
        }
    }

    /// Links `pid` into `list` right after `after`, or at its head when
    /// `after` is `NIL`. A list whose ends have no home (its parent's
    /// entry was evicted) still threads its members, so a later unlink
    /// finds them.
    fn link_after(&mut self, list: List, after: Pid, pid: Pid) {
        let next = match after {
            NIL => self
                .ends(list)
                .map_or(NIL, |e| std::mem::replace(&mut e.head, pid)),
            a => std::mem::replace(&mut self.hop(list, a).next, pid),
        };
        match next {
            NIL => {
                if let Some(ends) = self.ends(list) {
                    ends.tail = pid;
                }
            }
            n => self.hop(list, n).prev = pid,
        }
        *self.hop(list, pid) = Hop { prev: after, next };
    }

    /// Unlinks `pid` from `list`, in constant time.
    fn unlink(&mut self, list: List, pid: Pid) {
        let Hop { prev, next } = std::mem::replace(self.hop(list, pid), Hop::UNLINKED);
        match prev {
            NIL => {
                if let Some(ends) = self.ends(list) {
                    ends.head = next;
                }
            }
            p => self.hop(list, p).next = next,
        }
        match next {
            NIL => {
                if let Some(ends) = self.ends(list) {
                    ends.tail = prev;
                }
            }
            n => self.hop(list, n).prev = prev,
        }
    }

    /// The pids of a list, first to last.
    fn walk(&self, head: Pid, list: List) -> impl Iterator<Item = Pid> + '_ {
        let step = move |pid: &Pid| {
            let links = &self.procs[pid].links;
            linked(match list {
                List::ChildrenOf(_) => links.sibling.next,
                List::OwnedBy(_) => links.owner.next,
            })
        };
        std::iter::successors(linked(head), step)
    }

    /// The live children of `pid`, in pid order: none for a pid with no
    /// entry.
    pub fn children(&self, pid: Pid) -> impl Iterator<Item = Pid> + '_ {
        let head = self.procs.get(&pid).map_or(NIL, |p| p.links.children.head);
        self.walk(head, List::ChildrenOf(pid))
    }

    /// The live pids `uid` owns, in pid order.
    fn owned_by(&self, uid: Uid) -> impl Iterator<Item = Pid> + '_ {
        let head = self.by_uid.get(&uid).map_or(NIL, |e| e.head);
        self.walk(head, List::OwnedBy(uid))
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
        let pids = self.owned_by(uid);
        pids.map(|pid| ProcInfo::from(&self.procs[&pid])).collect()
    }

    /// `uid`'s lowest-pid live process whose command starts with `prefix`
    /// (`ps | grep` at a terminal; the [`crate::rt::Runtime::find_proc`]
    /// of every backend).
    pub fn find_user_proc(&self, uid: Uid, prefix: &str) -> Option<Pid> {
        let mut pids = self.owned_by(uid);
        pids.find(|pid| self.procs[pid].command.starts_with(prefix))
    }

    /// Marks a process exited, detaches it from the run queue, unlinks it
    /// from its parent's and its owner's lists, reparents its live
    /// children to init, and records it in the retention ring.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a live process (callers check first).
    pub fn finish_exit(&mut self, pid: Pid, status: ExitStatus, now: SimTime) {
        let p = self.procs.get_mut(&pid).expect("exiting pid exists");
        assert!(p.is_alive(), "double exit of pid {pid}");
        p.state = ProcState::Exited(status);
        p.exited_at = Some(now);
        p.cpu_bound = false;
        let (uid, ppid) = (p.uid, p.ppid);
        self.unlink(List::OwnedBy(uid), pid);
        if self.by_uid.get(&uid).is_some_and(|e| e.head == NIL) {
            self.by_uid.remove(&uid);
        }
        // Init is its own parent, in no child list, and keeps its own.
        if pid != Pid::INIT {
            self.unlink(List::ChildrenOf(ppid), pid);
            let p = self.procs.get_mut(&pid).expect("exiting pid exists");
            let orphans = std::mem::replace(&mut p.links.children, Ends::EMPTY);
            self.reparent_to_init(orphans);
        }
        self.exited_order.push_back(pid);
        while self.exited_order.len() > EXITED_RETENTION {
            if let Some(old) = self.exited_order.pop_front() {
                self.procs.remove(&old);
            }
        }
    }

    /// Hands a detached child list to init, each orphan into init's list
    /// in pid order. The place is found from the orphan's owner's list:
    /// its nearest lower pid there is most often init's child already
    /// (its parent exited first too), so that walk back passes a few
    /// entries where one back from init's tail passed dozens; init's
    /// list is then walked forward past other owners' children. Only an
    /// orphan whose owner has no lower pid in init's list walks back
    /// from init's tail.
    fn reparent_to_init(&mut self, orphans: Ends) {
        let init = List::ChildrenOf(Pid::INIT);
        let mut orphan = orphans.head;
        while orphan != NIL {
            let p = self
                .procs
                .get_mut(&orphan)
                .expect("a live child has an entry");
            p.ppid = Pid::INIT;
            let (next, mut at) = (p.links.sibling.next, p.links.owner.prev);
            while at != NIL {
                let q = &self.procs[&at];
                if at != Pid::INIT && q.ppid == Pid::INIT {
                    break;
                }
                at = q.links.owner.prev;
            }
            if at == NIL {
                at = self.ends(init).map_or(NIL, |e| e.tail);
                while at != NIL && at > orphan {
                    at = self.hop(init, at).prev;
                }
            } else {
                while let Some(n) = linked(self.hop(init, at).next).filter(|&n| n < orphan) {
                    at = n;
                }
            }
            self.link_after(init, at, orphan);
            orphan = next;
        }
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
        // The table's `Name`: a 24-byte copy, or a shared count for a
        // long command, and no allocation either way.
        let command = p.command.clone();
        self.emit(PendingEvent::Exec { pid, command }, now, fx);
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
    pub fn emit(&mut self, event: impl Into<PendingEvent>, now: SimTime, fx: &mut Effects) {
        let event = event.into();
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
        batch.push_back(PendingMsg {
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
        flush: impl FnOnce(&[PendingMsg]) -> R,
    ) -> Option<R> {
        let batch = self.pending.get_mut(&tracer).filter(|b| !b.is_empty())?;
        let flushed = flush(batch.make_contiguous());
        batch.clear();
        if !self.is_alive(tracer) {
            self.pending.remove(&tracer);
        }
        Some(flushed)
    }

    /// Collects only the oldest pending event for `tracer`, as the
    /// tracer will decode it (backends that deliver one event per
    /// wakeup).
    pub fn pop_kernel_msg(&mut self, tracer: Pid) -> Option<KernelMsg> {
        let msg = self.pending.get_mut(&tracer)?.pop_front()?;
        Some(msg.to_msg())
    }

    /// The non-empty pending batches, in tracer-pid order.
    pub fn pending_batches(&self) -> Vec<(Pid, &VecDeque<PendingMsg>)> {
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
        // Over the owners' lists: the table also retains exited entries.
        let live = self.by_uid.keys().flat_map(|&uid| self.owned_by(uid));
        let live = live.map(|pid| &self.procs[&pid]);
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

    fn kids(k: &Kernel, pid: Pid) -> Vec<Pid> {
        k.children(pid).collect()
    }

    fn exit(k: &mut Kernel, pid: Pid) {
        k.finish_exit(pid, ExitStatus::SUCCESS, SimTime::ZERO);
    }

    /// Every threaded list reads the same both ways, and every owner in
    /// the index has a live process.
    fn assert_threaded(k: &Kernel) {
        let back = |tail: Pid, prev: fn(&Links) -> Pid| {
            let step = |pid: &Pid| linked(prev(&k.procs[pid].links));
            let mut pids: Vec<Pid> = std::iter::successors(linked(tail), step).collect();
            pids.reverse();
            pids
        };
        for (&pid, p) in &k.procs {
            let tail = p.links.children.tail;
            assert_eq!(
                kids(k, pid),
                back(tail, |l| l.sibling.prev),
                "{pid}'s children"
            );
        }
        for (&uid, ends) in &k.by_uid {
            let owned: Vec<Pid> = k.owned_by(uid).collect();
            assert!(!owned.is_empty(), "{uid} is indexed with no live process");
            assert_eq!(
                owned,
                back(ends.tail, |l| l.owner.prev),
                "{uid}'s processes"
            );
        }
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
        assert_eq!(kids(&k, a), [b]);
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
        k.finish_exit(a, ExitStatus::Code(1), SimTime::from_millis(5));
        assert_eq!(k.get(b).unwrap().ppid, Pid::INIT);
        assert_eq!(kids(&k, Pid::INIT), [b]);
        let a_entry = k.get(a).unwrap();
        assert_eq!(a_entry.state, ProcState::Exited(ExitStatus::Code(1)));
        assert_eq!(a_entry.exited_at, Some(SimTime::from_millis(5)));
    }

    #[test]
    fn child_lists_stay_in_pid_order_through_orphaning_and_exits() {
        let mut k = kern();
        let sh = add(&mut k, Pid::INIT, Uid(100), "sh");
        let orphans: Vec<Pid> = (0..3).map(|_| add(&mut k, sh, Uid(100), "kid")).collect();
        let late = add(&mut k, Pid::INIT, Uid(100), "late");
        exit(&mut k, sh);
        // The orphans' pids lie below init's later child.
        let mut all = orphans.clone();
        all.push(late);
        assert_eq!(kids(&k, Pid::INIT), all);
        assert_threaded(&k);
        exit(&mut k, orphans[1]);
        exit(&mut k, late);
        assert_eq!(kids(&k, Pid::INIT), [orphans[0], orphans[2]]);
        assert_threaded(&k);
    }

    #[test]
    fn exiting_the_head_middle_and_tail_child_unlinks_each() {
        let mut k = kern();
        let sh = add(&mut k, Pid::INIT, Uid(100), "sh");
        let [a, b, c, d] = [(); 4].map(|()| add(&mut k, sh, Uid(100), "kid"));
        exit(&mut k, b);
        assert_eq!(kids(&k, sh), [a, c, d], "middle");
        assert_threaded(&k);
        exit(&mut k, a);
        assert_eq!(kids(&k, sh), [c, d], "head");
        assert_threaded(&k);
        exit(&mut k, d);
        assert_eq!(kids(&k, sh), [c], "tail");
        assert_threaded(&k);
        exit(&mut k, c);
        assert!(kids(&k, sh).is_empty(), "the last");
        assert_threaded(&k);
        // The emptied list takes a new child at its head.
        let e = add(&mut k, sh, Uid(100), "kid");
        assert_eq!(kids(&k, sh), [e]);
        assert_threaded(&k);
    }

    #[test]
    fn an_orphan_below_an_init_child_joins_init_in_pid_order() {
        let mut k = kern();
        let daemon = add(&mut k, Pid::INIT, Uid::ROOT, "inetd");
        let sh = add(&mut k, Pid::INIT, Uid(100), "sh");
        let orphans = [(); 2].map(|()| add(&mut k, sh, Uid(100), "kid"));
        let grandchild = add(&mut k, orphans[0], Uid(100), "cc");
        let late = [(); 2].map(|()| add(&mut k, Pid::INIT, Uid(200), "late"));
        exit(&mut k, sh);
        assert_eq!(
            kids(&k, Pid::INIT),
            [daemon, orphans[0], orphans[1], late[0], late[1]]
        );
        assert_threaded(&k);
        // An orphan below every later child, but above the first.
        exit(&mut k, orphans[0]);
        let init_kids = [daemon, orphans[1], grandchild, late[0], late[1]];
        assert_eq!(kids(&k, Pid::INIT), init_kids);
        assert!(init_kids
            .iter()
            .all(|&c| k.get(c).unwrap().ppid == Pid::INIT));
        assert_threaded(&k);
    }

    #[test]
    fn an_orphan_is_placed_past_other_owners_children_of_init() {
        let mut k = kern();
        let mine = add(&mut k, Pid::INIT, Uid(100), "a");
        let theirs = add(&mut k, Pid::INIT, Uid(200), "b");
        let sh = add(&mut k, Pid::INIT, Uid(100), "sh");
        let theirs_late = add(&mut k, Pid::INIT, Uid(200), "c");
        let kid = add(&mut k, sh, Uid(100), "kid");
        let last = add(&mut k, Pid::INIT, Uid(200), "d");
        // The kid's nearest lower pid of its owner that init holds is
        // `mine`; two of another owner's lie between it and the kid.
        exit(&mut k, sh);
        let init_kids = [mine, theirs, theirs_late, kid, last];
        assert_eq!(kids(&k, Pid::INIT), init_kids);
        assert_threaded(&k);
    }

    #[test]
    fn a_parent_evicted_past_retention_leaves_its_children_listed_under_init() {
        let mut k = kern();
        let sh = add(&mut k, Pid::INIT, Uid(100), "sh");
        let orphans = [(); 3].map(|()| add(&mut k, sh, Uid(100), "kid"));
        exit(&mut k, sh);
        for _ in 0..EXITED_RETENTION {
            let p = add(&mut k, Pid::INIT, Uid(1), "p");
            exit(&mut k, p);
        }
        assert!(k.get(sh).is_none(), "the parent's entry was evicted");
        assert_eq!(kids(&k, Pid::INIT), orphans);
        assert!(kids(&k, sh).is_empty());
        assert_threaded(&k);
        exit(&mut k, orphans[1]);
        assert_eq!(kids(&k, Pid::INIT), [orphans[0], orphans[2]]);
        assert_threaded(&k);
    }

    #[test]
    fn a_uids_last_process_takes_it_out_of_the_index() {
        let mut k = kern();
        let a = add(&mut k, Pid::INIT, Uid(100), "a");
        let b = add(&mut k, a, Uid(100), "b");
        let other = add(&mut k, Pid::INIT, Uid(200), "other");
        exit(&mut k, a);
        assert!(k.by_uid.contains_key(&Uid(100)));
        exit(&mut k, b);
        assert!(
            !k.by_uid.contains_key(&Uid(100)),
            "no entry for an owner with none"
        );
        assert!(k.user_processes(Uid(100)).is_empty());
        assert_threaded(&k);
        // The owner comes back with a fresh list.
        let c = add(&mut k, other, Uid(100), "c");
        let mine: Vec<Pid> = k.user_processes(Uid(100)).iter().map(|p| p.pid).collect();
        assert_eq!(mine, [c]);
        assert_eq!(k.find_user_proc(Uid(100), "c"), Some(c));
        assert_threaded(&k);
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
        for _ in 0..4 {
            k.update_load(3, 0.5);
        }
        assert!(k.load_avg() > 0.0);
        k.reboot(SimTime::from_secs(10));
        assert_eq!(k.processes().count(), 1);
        assert_eq!(k.load_avg(), 0.0);
        assert_eq!(k.boot_count(), 2);
    }
}
