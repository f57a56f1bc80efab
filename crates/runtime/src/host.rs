//! The host driver: what the sim and a real node do for their
//! processes, written once over a small [`Backend`] each supplies.
//!
//! [`Hosts`] holds the kernels, their effects sink, the program table
//! and the events held for stopped processes. [`Driver`] runs them: a
//! program is taken out of its slot for its own callback and put back
//! only if the slot is still there and empty; [`Caller`] is the one
//! `impl Sys` every program is lent; `exit` reaches the kernel at the
//! call (a later call in the same callback comes from a dead process,
//! as after `_exit(2)`, and [`Caller`] refuses it); a signal a program
//! posts is never delivered inside its own callback; a stopped
//! process's timers, messages, kernel batches, connection notices and
//! child exits wait for its `SIGCONT` while a start is dropped
//! ([`Driver::admit`]); and the kernel's effects are applied, with
//! their trace notes.
//!
//! A backend supplies what differs: its clock, its wire, chance and
//! cost, host names, its hub, *when* a woken event runs
//! ([`Backend::schedule`]: the sim prices it onto its wheel, a real
//! node queues it), the kernel batch's
//! encoding, and connection teardown. A CPU burst is the sim's pricing
//! hook ([`Backend::handed`]), not a process rule.

use bytes::Bytes;

use crate::hashx::FastMap;
use crate::ids::{ConnId, HostId, Pid, Port, Uid};
use crate::kernel::{Effect, Effects, Kernel};
use crate::obs::HubRef;
use crate::process::ProcState;
use crate::program::{ConnEvent, ProcKey, Program, SigAction, SpawnSpec, SysError};
use crate::signal::{ExitStatus, Signal};
use crate::sys::Sys;
use crate::time::{Micros, SimDuration, SimTime};
use crate::trace::{Note, TraceCategory};

/// What a process is woken for: one callback, or the step before one.
#[derive(Debug, Clone, Hash)]
pub enum Wake {
    /// The exec half of fork+exec: the kernel starts it, then `on_start`.
    Start,
    /// A timer armed in boot `boot` of its host came due.
    Timer { token: u64, boot: u32 },
    /// A stream message reaches its end.
    Message { conn: ConnId, data: Bytes },
    /// A connection transition reaches one end.
    Told { conn: ConnId, event: ConnEvent },
    /// The flush a tracer's first queued kernel event armed: its batch is
    /// collected ([`Backend::flush`]) and delivered as a [`Wake::Batch`].
    Flush,
    /// A kernel-event batch frame.
    Batch(Bytes),
    /// A posted signal arrives.
    Signal(Signal),
    /// A child exited.
    ChildExit { child: Pid, status: ExitStatus },
}

impl Wake {
    /// Runs the program callback this wake is for. A flush and a signal
    /// have none of their own (the driver runs those).
    fn call(self, p: &mut dyn Program, sys: &mut dyn Sys) {
        match self {
            Wake::Start => p.on_start(sys),
            Wake::Timer { token, .. } => p.on_timer(sys, token),
            Wake::Message { conn, data } => p.on_message(sys, conn, data),
            Wake::Told { conn, event } => p.on_conn_event(sys, conn, event),
            Wake::Batch(data) => p.on_kernel_batch(sys, data),
            Wake::ChildExit { child, status } => p.on_child_exit(sys, child, status),
            Wake::Flush | Wake::Signal(_) => {}
        }
    }
}

/// When the driver asks a woken event to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum After {
    /// As the backend prices this kind of wake: a fork's exec, a
    /// signal's delivery, a child's exit notice.
    Priced,
    /// As soon as the callbacks running now have returned, in the order
    /// asked: an event released by `SIGCONT`.
    Now,
    /// This long from now: a timer, a daemon started with its host.
    Delay(SimDuration),
}

/// Why a process does not take an event now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Held {
    /// Gone, or its host is down: the event is dropped.
    Dead,
    /// Stopped by a signal: the event waits for a continue.
    Stopped,
}

/// The state a driver keeps for its hosts: one kernel each (hosts are
/// numbered from the first one's id), the effects sink the kernels'
/// calls append to, the program of every live process that has one, and
/// the events held for stopped processes.
#[derive(Default)]
pub struct Hosts {
    kernels: Vec<Kernel>,
    first: u32,
    fx: Effects,
    /// A program is taken out of its slot for the duration of its own
    /// callback; the slot stays (empty) until the program goes back or
    /// its process goes.
    programs: FastMap<ProcKey, Option<Box<dyn Program>>>,
    held: FastMap<ProcKey, Vec<Wake>>,
}

impl Hosts {
    /// A table whose first host will be `first`: host 0 for a world
    /// that runs every host, its own id for a real node.
    pub fn starting_at(first: HostId) -> Self {
        Hosts {
            first: first.0,
            ..Hosts::default()
        }
    }

    /// Adds the next host's kernel and returns its id.
    pub fn add(&mut self, kernel: Kernel) -> HostId {
        self.kernels.push(kernel);
        HostId(self.first + self.kernels.len() as u32 - 1)
    }

    fn at(&self, host: HostId) -> usize {
        host.0.wrapping_sub(self.first) as usize
    }

    /// The kernel of a host, if it has one here.
    pub fn get(&self, host: HostId) -> Option<&Kernel> {
        self.kernels.get(self.at(host))
    }

    /// The kernel of a host; panics on a host this table does not run.
    pub fn kernel(&self, host: HostId) -> &Kernel {
        &self.kernels[self.at(host)]
    }

    /// The kernel of a host, mutably.
    pub fn kernel_mut(&mut self, host: HostId) -> &mut Kernel {
        let i = self.at(host);
        &mut self.kernels[i]
    }

    /// A host's kernel and the effects sink its calls append to; follow
    /// a call with [`Driver::apply_effects`].
    pub fn kernel_fx(&mut self, host: HostId) -> (&mut Kernel, &mut Effects) {
        let i = self.at(host);
        (&mut self.kernels[i], &mut self.fx)
    }

    /// The kernels, in host order.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, &Kernel)> {
        let first = self.first;
        let ids = (0..).map(move |i| HostId(first + i));
        ids.zip(&self.kernels)
    }

    /// How many processes have programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// The programs in their slots, in no particular order.
    pub fn programs(&self) -> impl Iterator<Item = (ProcKey, &dyn Program)> {
        let filled = self.programs.iter();
        filled.filter_map(|(k, p)| p.as_deref().map(|p| (*k, p)))
    }

    /// The events held for stopped processes, in no particular order.
    pub fn held(&self) -> impl Iterator<Item = (ProcKey, &[Wake])> {
        self.held.iter().map(|(k, held)| (*k, held.as_slice()))
    }

    /// Forgets every program and held event of `host`: its power failed.
    pub fn drop_host(&mut self, host: HostId) {
        self.programs.retain(|k, _| k.0 != host);
        self.held.retain(|k, _| k.0 != host);
    }
}

/// What a backend supplies to the [`Driver`]: its clock, timers, wire,
/// chance and names, and when a woken event runs.
pub trait Backend: Sized {
    /// The driver's state.
    fn hosts(&self) -> &Hosts;

    /// The driver's state, mutably.
    fn hosts_mut(&mut self) -> &mut Hosts;

    // ---- clock, chance, names, hub ---------------------------------------

    /// The current instant.
    fn now(&self) -> Micros;

    /// Whether `host` is powered: a down host's processes take nothing.
    fn host_up(&self, host: HostId) -> bool {
        let _ = host;
        true
    }

    /// The name of one of the driver's hosts.
    fn host_name(&self, host: HostId) -> &str;

    /// See [`Sys::resolve_host`].
    fn resolve_host(&self, name: &str) -> Result<HostId, SysError>;

    /// See [`Sys::random_unit`].
    fn random_unit(&mut self) -> f64;

    /// See [`Sys::scale_cost`]; `host` is the caller's.
    fn scale_cost(&mut self, host: HostId, nominal: SimDuration) -> SimDuration {
        let _ = host;
        nominal
    }

    /// See [`Sys::net_epoch`].
    fn net_epoch(&self) -> u64 {
        0
    }

    /// See [`Sys::edge_up`].
    fn edge_up(&self, a: &str, b: &str) -> bool {
        let _ = (a, b);
        true
    }

    /// The world's observability hub.
    fn hub(&mut self) -> HubRef<'_>;

    /// inetd's registry: `name`'s port and a fresh program for `host`.
    fn make_service(&self, name: &str, host: HostId) -> Option<(Port, Box<dyn Program>)>;

    // ---- the wire ----------------------------------------------------------

    /// See [`Sys::listen`]; `key` is the caller, as below.
    fn listen(&mut self, key: ProcKey, port: Port) -> Result<(), SysError>;

    /// See [`Sys::connect`].
    fn connect(&mut self, key: ProcKey, host: HostId, port: Port) -> Result<ConnId, SysError>;

    /// See [`Sys::send_bytes`].
    fn send(&mut self, key: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError>;

    /// See [`Sys::close`].
    fn close(&mut self, key: ProcKey, conn: ConnId) -> Result<(), SysError>;

    /// See [`Sys::conn_alive`].
    fn conn_alive(&self, key: ProcKey, conn: ConnId) -> bool;

    // ---- when woken events run ---------------------------------------------

    /// Arranges for `wake` to reach `key` later, through
    /// [`Driver::wake`]; returns the delay it priced, for the trace
    /// (zero where nothing is priced).
    fn schedule(&mut self, key: ProcKey, wake: Wake, after: After) -> SimDuration;

    /// A kernel event joined `tracer`'s batch; when `first`, arm its
    /// flush ([`Wake::Flush`]). Returns the flush's delay, for the trace.
    fn queued(&mut self, tracer: ProcKey, wire_size: usize, first: bool) -> Option<SimDuration>;

    /// Collects what `tracer`'s flush delivers, as one batch frame.
    fn flush(&mut self, tracer: ProcKey) -> Option<Bytes>;

    /// A timer, message or batch is about to reach `to`'s program:
    /// account it, or keep it (the sim keeps it until the process's CPU
    /// burst ends). Returns what the program gets, if anything.
    fn handed(&mut self, to: ProcKey, wake: Wake) -> Option<Wake> {
        let _ = to;
        Some(wake)
    }

    /// `key`'s process is gone and its program dropped: tear down its
    /// connections and whatever else the backend keeps for it.
    fn gone(&mut self, key: ProcKey);
}

/// The host driver, written once for every [`Backend`].
pub trait Driver: Backend {
    /// Runs one call into `host`'s kernel at the current instant, then
    /// applies whatever the kernel asked for, in the order it asked.
    fn kernel_call<R>(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut Kernel, SimTime, &mut Effects) -> R,
    ) -> R {
        let now = self.now();
        let (kernel, fx) = self.hosts_mut().kernel_fx(host);
        let out = f(kernel, now, fx);
        self.apply_effects(host);
        out
    }

    /// Applies what `host`'s kernel asked for since the last drain.
    fn apply_effects(&mut self, host: HostId) {
        if !self.hosts().fx.is_empty() {
            let mut fx = std::mem::take(&mut self.hosts_mut().fx);
            for effect in fx.drain(..) {
                self.apply_effect(host, effect);
            }
            self.hosts_mut().fx = fx;
        }
    }

    /// One effect: a queued event arms its flush, a continue releases
    /// what was held, a gone process loses its program, its held events
    /// and its connections, and its live parent is told.
    fn apply_effect(&mut self, host: HostId, effect: Effect) {
        match effect {
            Effect::Queued {
                tracer,
                pid,
                kind,
                wire_size,
                first,
            } => {
                let delay = self.queued((host, tracer), wire_size, first);
                let queued = Note::KernelEvent {
                    kind,
                    pid,
                    tracer,
                    wire_size,
                    delay,
                };
                self.note(host, queued);
            }
            Effect::Signaled(pid, signal) => self.note(host, Note::Signaled { signal, pid }),
            Effect::Resumed(pid) => {
                let held = self.hosts_mut().held.remove(&(host, pid));
                for wake in held.unwrap_or_default() {
                    self.schedule((host, pid), wake, After::Now);
                }
            }
            Effect::Exiting(pid, status) => self.note(host, Note::Exiting { pid, status }),
            Effect::Gone(pid, status, notify) => {
                let hosts = self.hosts_mut();
                hosts.programs.remove(&(host, pid));
                hosts.held.remove(&(host, pid));
                self.gone((host, pid));
                if let Some(ppid) = notify {
                    let exited = Wake::ChildExit { child: pid, status };
                    self.schedule((host, ppid), exited, After::Priced);
                }
            }
        }
    }

    /// Records a kernel note about `host` at the current instant.
    fn note(&mut self, host: HostId, note: Note<'_>) {
        let now = self.now();
        let mut hub = self.hub();
        hub.trace.note(now, Some(host), TraceCategory::Kernel, note);
    }

    /// Forks and execs a process on `host` under `parent`. Its program,
    /// if any, starts when the backend runs its [`Wake::Start`]: after
    /// `ready_in`, or as the backend prices a fork.
    ///
    /// # Errors
    ///
    /// [`SysError::HostDown`] on a host that is down.
    fn fork(
        &mut self,
        host: HostId,
        parent: Pid,
        uid: Uid,
        spec: SpawnSpec,
        ready_in: Option<SimDuration>,
    ) -> Result<Pid, SysError> {
        if !self.host_up(host) {
            return Err(SysError::HostDown);
        }
        let pid = self.kernel_call(host, |k, now, fx| {
            k.spawn(parent, uid, spec.command.clone(), spec.cpu_bound, now, fx)
        });
        let after = ready_in.map_or(After::Priced, After::Delay);
        let ready_in = self.schedule((host, pid), Wake::Start, after);
        if let Some(program) = spec.program {
            self.hosts_mut().programs.insert((host, pid), Some(program));
        }
        let spawned = Note::Spawned {
            pid,
            command: &spec.command,
            parent,
            ready_in,
        };
        self.note(host, spawned);
        Ok(pid)
    }

    /// Terminates a process at once; the kernel's effects tear down its
    /// connections and notify its parent.
    fn exit(&mut self, key: ProcKey, status: ExitStatus) {
        if self.host_up(key.0) {
            self.kernel_call(key.0, |k, now, fx| k.exit(key.1, status, now, fx));
        }
    }

    /// Runs what woke `key`, by the stop and dead rules.
    fn wake(&mut self, key: ProcKey, wake: Wake) {
        match wake {
            Wake::Start => {
                if self.host_up(key.0)
                    && self.kernel_call(key.0, |k, now, fx| k.start(key.1, now, fx))
                    && self.admit(key).is_ok()
                {
                    self.run_program(key, |p, sys| p.on_start(sys));
                }
            }
            // Pids restart at 2 after a crash: a timer that outlived its
            // boot would fire into whoever holds the pid now.
            Wake::Timer { boot, .. } if self.hosts().kernel(key.0).boot_count() != boot => {}
            Wake::Flush => {
                if let Some(batch) = self.flush(key) {
                    self.wake(key, Wake::Batch(batch));
                }
            }
            Wake::Signal(signal) => self.deliver_signal(key, signal),
            // A timer, message, batch, connection notice or child exit.
            wake => match self.admit(key) {
                // Accounting happens on actual handling, so a held event
                // cannot count twice. A connection or child notice is not
                // held back for a CPU burst.
                Ok(()) => self.run_program(key, |p, sys| {
                    let wake = match wake {
                        Wake::Told { .. } | Wake::ChildExit { .. } => Some(wake),
                        wake => sys.b.handed(key, wake),
                    };
                    if let Some(wake) = wake {
                        wake.call(p, sys);
                    }
                }),
                // A stopped process's events wait for its continue.
                Err(Held::Stopped) => self.hosts_mut().held.entry(key).or_default().push(wake),
                Err(Held::Dead) => {}
            },
        }
    }

    /// Applies a signal to a live process: the kernel does the state
    /// changes and events, the target's handler (if it has one, stopped
    /// or not) runs in between.
    fn deliver_signal(&mut self, key: ProcKey, signal: Signal) {
        let (host, pid) = key;
        let alive = self.hosts().get(host).is_some_and(|k| k.is_alive(pid));
        if !alive || !self.host_up(host) {
            return;
        }
        let catchable = self.kernel_call(host, |k, now, fx| k.deliver_signal(pid, signal, now, fx));
        if catchable {
            let mut action = SigAction::Default;
            self.run_program(key, |p, sys| action = p.on_signal(sys, signal));
            self.kernel_call(host, |k, now, fx| {
                k.finish_signal(pid, signal, action, now, fx);
            });
        }
    }

    /// Whether the process `key` takes an event now, or why not: one
    /// read of its process-table entry.
    fn admit(&self, key: ProcKey) -> Result<(), Held> {
        let (host, pid) = key;
        let entry = match self.hosts().get(host) {
            Some(k) if self.host_up(host) => k.get(pid),
            _ => None,
        };
        match entry {
            Some(p) if !p.is_alive() => Err(Held::Dead),
            Some(p) if p.state == ProcState::Stopped => Err(Held::Stopped),
            Some(_) => Ok(()),
            None => Err(Held::Dead),
        }
    }

    /// Runs `f` on the program of `key` (if it has one) with syscall
    /// access. The program is taken out of its slot meanwhile and put
    /// back in place only if the slot is still there and empty: an exit
    /// or a host crash inside the callback removes the slot, and a
    /// process that reuses the pid fills it with its own program.
    fn run_program(
        &mut self,
        key: ProcKey,
        f: impl FnOnce(&mut dyn Program, &mut Caller<'_, Self>),
    ) {
        let slot = self.hosts_mut().programs.get_mut(&key);
        let Some(mut program) = slot.and_then(Option::take) else {
            return;
        };
        f(program.as_mut(), &mut Caller { b: self, key });
        if let Some(slot @ None) = self.hosts_mut().programs.get_mut(&key) {
            *slot = Some(program);
        }
    }
}

impl<B: Backend> Driver for B {}

/// The syscall interface bound to one calling process: the one
/// [`Sys`] every program is lent, on every backend.
pub struct Caller<'a, B> {
    b: &'a mut B,
    key: ProcKey,
}

impl<'a, B: Backend> Caller<'a, B> {
    /// `key`'s view of the driver, for a call made on its behalf from
    /// outside a callback (init replaying the services after a reboot).
    pub fn new(b: &'a mut B, key: ProcKey) -> Self {
        Caller { b, key }
    }

    /// [`SysError::NoSuchProcess`] once the caller has exited: a call
    /// after `exit` in the same callback binds, connects, forks, signals
    /// and arms nothing.
    fn live(&self) -> Result<(), SysError> {
        let alive = self.kernel().is_alive(self.key.1);
        alive.then_some(()).ok_or(SysError::NoSuchProcess)
    }
}

impl<B: Backend> Sys for Caller<'_, B> {
    fn now(&self) -> Micros {
        self.b.now()
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        if self.live().is_ok() {
            let timer = Wake::Timer {
                token,
                boot: self.kernel().boot_count(),
            };
            self.b.schedule(self.key, timer, After::Delay(delay));
        }
    }

    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        self.live()?;
        self.b.listen(self.key, port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        self.live()?;
        self.b.connect(self.key, host, port)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        self.live()?;
        self.b.send(self.key, conn, data)
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        self.live()?;
        self.b.close(self.key, conn)
    }

    fn conn_alive(&self, conn: ConnId) -> bool {
        self.b.conn_alive(self.key, conn)
    }

    fn net_epoch(&self) -> u64 {
        self.b.net_epoch()
    }

    fn edge_up(&self, a: &str, b: &str) -> bool {
        self.b.edge_up(a, b)
    }

    fn host(&self) -> HostId {
        self.key.0
    }

    fn host_name(&self) -> &str {
        self.b.host_name(self.key.0)
    }

    fn pid(&self) -> Pid {
        self.key.1
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.b.resolve_host(name)
    }

    fn random_unit(&mut self) -> f64 {
        self.b.random_unit()
    }

    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        self.b.scale_cost(self.key.0, nominal)
    }

    fn exit(&mut self, code: i32) {
        self.b.exit(self.key, ExitStatus::Code(code));
    }

    fn fork_exec(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.live()?;
        self.b.fork(self.key.0, parent, uid, spec, None)
    }

    fn post_signal(&mut self, target: Pid, signal: Signal) -> Result<(), SysError> {
        self.live()?;
        let target = (self.key.0, target);
        self.b.schedule(target, Wake::Signal(signal), After::Priced);
        Ok(())
    }

    fn make_service(&self, name: &str) -> Option<(Port, Box<dyn Program>)> {
        self.b.make_service(name, self.key.0)
    }

    fn kernel(&self) -> &Kernel {
        self.b.hosts().kernel(self.key.0)
    }

    fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects) {
        self.b.hosts_mut().kernel_fx(self.key.0)
    }

    fn flush_effects(&mut self) {
        self.b.apply_effects(self.key.0);
    }

    fn hub(&mut self) -> HubRef<'_> {
        self.b.hub()
    }
}
