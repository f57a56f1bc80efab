//! One real node: an event-loop thread driving the same [`Program`]
//! actors as the simulated kernel, over real sockets and a real clock.
//!
//! A node is the real-backend analogue of one simulated host. It owns a
//! [`Kernel`] (the host-kernel state machine the sim backend and the
//! checker also drive — process, signal, kernel-event, listener, service
//! and stable-storage semantics are identical by construction), a map of
//! live programs, its stream connections and acceptor threads, and a
//! timer heap. The loop blocks on its event queue with `recv_timeout`
//! against the next timer deadline, so timers fire without a dedicated
//! timer thread.
//!
//! Programs run to completion on the node thread, one callback at a
//! time — the same run-to-completion discipline the simulation enforces
//! globally, here enforced per node (nodes run concurrently, which is
//! exactly the concurrency the real system of the paper had between
//! hosts). Syscalls made during a callback that must re-enter a program
//! (spawn → `on_start`, kill → signal delivery, kernel event batches)
//! are queued as deferred actions and drained after the callback
//! returns, mirroring how the simulated world schedules follow-on
//! events.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ppm_proto::codec::encode_batch;

use ppm_runtime::fd::FdKind;
use ppm_runtime::ids::{ConnId, HostId, Pid, Port, Uid};
use ppm_runtime::kernel::{Effect, Effects, Kernel};
use ppm_runtime::obs::HubRef;
use ppm_runtime::program::{ConnEvent, Program, SigAction, SpawnSpec, SysError};
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::time::{Micros, SimDuration};
use ppm_runtime::trace::TraceCategory;

use crate::clock::ClusterClock;
use crate::net;
use crate::rt::ClusterShared;

/// Events arriving on a node's queue — from its own I/O threads, from
/// peers' streams, and from the [`crate::rt::RealRuntime`] driver.
pub enum NodeEvent {
    /// A framed message arrived on an established connection.
    Incoming {
        /// Local connection id.
        conn: ConnId,
        /// The frame payload.
        data: Bytes,
    },
    /// An outbound connect completed; the stream is live.
    ConnUp {
        /// Local connection id.
        conn: ConnId,
        /// The connected stream.
        stream: TcpStream,
    },
    /// An outbound connect failed.
    ConnFail {
        /// Local connection id.
        conn: ConnId,
        /// Why.
        error: SysError,
    },
    /// The remote end closed (EOF or error on the stream).
    PeerClosed {
        /// Local connection id.
        conn: ConnId,
    },
    /// The acceptor took a new inbound connection on `port`.
    AcceptedConn {
        /// The logical port accepted on.
        port: Port,
        /// The connecting `<host, pid>`.
        peer: (HostId, Pid),
        /// The accepted stream (preamble already consumed).
        stream: TcpStream,
    },
    /// Driver: spawn a user process (the facade's `spawn_user`).
    SpawnUser {
        /// Owner.
        uid: Uid,
        /// What to run.
        spec: SpawnSpec,
        /// Reply channel.
        reply: Sender<Result<Pid, SysError>>,
    },
    /// Driver: post a signal with `from`'s credentials.
    PostSignal {
        /// Sender's uid (permission check).
        from: Uid,
        /// Target pid on this node.
        target: Pid,
        /// The signal.
        signal: Signal,
        /// Optional reply channel.
        reply: Option<Sender<Result<(), SysError>>>,
    },
    /// Driver: read the node's kernel — liveness, process lookup, stable
    /// storage — on the node thread; the closure carries its own reply
    /// channel.
    Inspect(Box<dyn FnOnce(&Kernel) + Send>),
    /// Driver: stop the node loop and tear down sockets.
    Shutdown,
}

/// Work queued during a program callback, run after it returns.
enum Deferred {
    Start(Pid),
    ConnEvt {
        owner: Pid,
        conn: ConnId,
        event: ConnEvent,
    },
    Deliver {
        owner: Pid,
        conn: ConnId,
        data: Bytes,
    },
    ChildExit {
        parent: Pid,
        child: Pid,
        status: ExitStatus,
    },
    KernelFlush {
        tracer: Pid,
    },
    Signal {
        target: Pid,
        signal: Signal,
    },
}

enum RConnState {
    /// Connector thread still working; sends are queued.
    Connecting { queued: Vec<Bytes> },
    /// Stream live; sends write through.
    Up { stream: TcpStream },
    /// Closed by either side.
    Closed,
}

struct RConn {
    owner: Pid,
    state: RConnState,
}

impl RConn {
    /// Closes the local end; the peer's reader thread sees EOF.
    fn shut(&mut self) {
        if let RConnState::Up { stream } = &self.state {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.state = RConnState::Closed;
    }
}

/// The state owned by one node's event-loop thread.
pub struct NodeCore {
    host: HostId,
    name: String,
    clock: ClusterClock,
    cluster: Arc<ClusterShared>,
    tx: Sender<NodeEvent>,
    kernel: Kernel,
    /// The kernel's effects sink, drained after every kernel call.
    fx: Effects,
    programs: HashMap<Pid, Box<dyn Program>>,
    conns: HashMap<ConnId, RConn>,
    next_conn: u64,
    /// Liveness flags of the acceptor threads behind the kernel's
    /// listeners; a flag drops when its port is unpublished.
    acceptors: HashMap<Port, Arc<AtomicBool>>,
    actions: VecDeque<Deferred>,
    /// Armed timers, earliest first: `(deadline, seq, owner, token)`.
    timers: BinaryHeap<Reverse<(u64, u64, Pid, u64)>>,
    next_timer: u64,
    rng: u64,
}

impl NodeCore {
    /// Creates a node and queues its boot daemon (inetd) for start.
    pub fn new(
        host: HostId,
        name: String,
        cluster: Arc<ClusterShared>,
        tx: Sender<NodeEvent>,
    ) -> Self {
        let clock = ClusterClock::new(cluster.epoch);
        let mut node = NodeCore {
            host,
            name,
            clock,
            cluster,
            tx,
            kernel: Kernel::new(Micros::ZERO),
            fx: Effects::new(),
            programs: HashMap::new(),
            conns: HashMap::new(),
            next_conn: 1,
            acceptors: HashMap::new(),
            actions: VecDeque::new(),
            timers: BinaryHeap::new(),
            next_timer: 1,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((host.0 as u64) << 17 | 1),
        };
        let inetd = SpawnSpec::new("inetd", Box::new(ppm_runtime::inetd::Inetd::new()));
        node.spawn_proc(Pid::INIT, Uid::ROOT, inetd);
        node
    }

    /// Runs the node loop until shutdown or the driver hangs up.
    pub fn run(mut self, rx: Receiver<NodeEvent>) {
        loop {
            self.drain();
            let ev = match self.next_timer_wait() {
                Some(wait) => match rx.recv_timeout(wait) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                },
            };
            match ev {
                Some(NodeEvent::Shutdown) => break,
                Some(ev) => self.handle(ev),
                None => self.fire_due_timers(),
            }
        }
        self.teardown();
    }

    fn handle(&mut self, ev: NodeEvent) {
        match ev {
            NodeEvent::Incoming { conn, data } => {
                let Some(c) = self.conns.get(&conn) else {
                    return;
                };
                if matches!(c.state, RConnState::Closed) {
                    return;
                }
                let owner = c.owner;
                self.kernel_call(|k, now, fx| k.account_received(owner, data.len(), now, fx));
                self.actions
                    .push_back(Deferred::Deliver { owner, conn, data });
            }
            NodeEvent::ConnUp { conn, stream } => {
                stream.set_nodelay(true).ok();
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                let owner = c.owner;
                let queued = match &mut c.state {
                    RConnState::Connecting { queued } => std::mem::take(queued),
                    _ => return,
                };
                let mut writer = stream.try_clone().expect("clone stream");
                net::spawn_reader(conn, stream, self.tx.clone());
                let mut broke = false;
                for frame in &queued {
                    if net::write_frame(&mut writer, frame).is_err() {
                        broke = true;
                        break;
                    }
                }
                if broke {
                    c.state = RConnState::Closed;
                    self.actions.push_back(Deferred::ConnEvt {
                        owner,
                        conn,
                        event: ConnEvent::Closed,
                    });
                    return;
                }
                c.state = RConnState::Up { stream: writer };
                self.actions.push_back(Deferred::ConnEvt {
                    owner,
                    conn,
                    event: ConnEvent::Established,
                });
            }
            NodeEvent::ConnFail { conn, error } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                let owner = c.owner;
                c.state = RConnState::Closed;
                self.actions.push_back(Deferred::ConnEvt {
                    owner,
                    conn,
                    event: ConnEvent::Failed(error),
                });
            }
            NodeEvent::PeerClosed { conn } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if matches!(c.state, RConnState::Closed) {
                    return;
                }
                let owner = c.owner;
                c.state = RConnState::Closed;
                self.actions.push_back(Deferred::ConnEvt {
                    owner,
                    conn,
                    event: ConnEvent::Closed,
                });
            }
            NodeEvent::AcceptedConn { port, peer, stream } => {
                // A dead owner's port is already unpublished.
                let Some(owner) = self.kernel.listener(port) else {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                };
                let conn = self.alloc_conn();
                let writer = stream.try_clone().expect("clone stream");
                net::spawn_reader(conn, stream, self.tx.clone());
                self.conns.insert(
                    conn,
                    RConn {
                        owner,
                        state: RConnState::Up { stream: writer },
                    },
                );
                self.kernel.alloc_fd(owner, FdKind::Socket { conn });
                self.actions.push_back(Deferred::ConnEvt {
                    owner,
                    conn,
                    event: ConnEvent::Accepted { peer, port },
                });
            }
            NodeEvent::SpawnUser { uid, spec, reply } => {
                let _ = reply.send(Ok(self.spawn_proc(Pid::INIT, uid, spec)));
            }
            NodeEvent::PostSignal {
                from,
                target,
                signal,
                reply,
            } => {
                let res = self.post_signal(from, target, signal);
                if let Some(reply) = reply {
                    let _ = reply.send(res);
                }
            }
            NodeEvent::Inspect(read) => read(&self.kernel),
            NodeEvent::Shutdown => unreachable!("handled by the loop"),
        }
    }

    // ---- time and timers -------------------------------------------------

    fn now(&self) -> Micros {
        self.clock.now()
    }

    fn next_timer_wait(&self) -> Option<Duration> {
        let &Reverse((deadline, ..)) = self.timers.peek()?;
        let now = self.now().as_micros();
        Some(Duration::from_micros(deadline.saturating_sub(now)))
    }

    fn fire_due_timers(&mut self) {
        let now = self.now().as_micros();
        while let Some(&Reverse((deadline, _, pid, token))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            // A dead owner has no program left: its timer is dropped here.
            self.with_program(pid, |prog, sys| prog.on_timer(sys, token));
            self.drain();
        }
    }

    // ---- deferred-action pump --------------------------------------------

    fn drain(&mut self) {
        while let Some(action) = self.actions.pop_front() {
            match action {
                Deferred::Start(pid) => self.do_start(pid),
                Deferred::ConnEvt { owner, conn, event } => {
                    if matches!(event, ConnEvent::Closed | ConnEvent::Failed(_)) {
                        self.kernel.release_socket(owner, conn);
                    }
                    self.with_program(owner, |prog, sys| prog.on_conn_event(sys, conn, event));
                }
                Deferred::Deliver { owner, conn, data } => {
                    self.with_program(owner, |prog, sys| prog.on_message(sys, conn, data));
                }
                Deferred::ChildExit {
                    parent,
                    child,
                    status,
                } => {
                    self.with_program(parent, |prog, sys| prog.on_child_exit(sys, child, status));
                }
                Deferred::KernelFlush { tracer } => self.do_kernel_flush(tracer),
                Deferred::Signal { target, signal } => self.do_signal(target, signal),
            }
        }
    }

    fn do_start(&mut self, pid: Pid) {
        if self.kernel_call(|k, now, fx| k.start(pid, now, fx)) {
            self.with_program(pid, |prog, sys| prog.on_start(sys));
        }
    }

    fn do_kernel_flush(&mut self, tracer: Pid) {
        // A dead tracer's batch is collected all the same, and dropped.
        let batch = self.kernel.drain_batch(tracer, encode_batch);
        if let Some(batch) = batch.filter(|_| self.kernel.is_alive(tracer)) {
            self.with_program(tracer, |prog, sys| prog.on_kernel_batch(sys, batch));
        }
    }

    fn do_signal(&mut self, target: Pid, signal: Signal) {
        if self.kernel_call(|k, now, fx| k.deliver_signal(target, signal, now, fx)) {
            let mut action = SigAction::Default;
            self.with_program(target, |prog, sys| {
                action = prog.on_signal(sys, signal);
            });
            self.kernel_call(|k, now, fx| k.finish_signal(target, signal, action, now, fx));
        }
    }

    // ---- the kernel and its effects --------------------------------------

    /// Runs one call into the node's kernel at the current instant, then
    /// queues or performs whatever the kernel asked for, in order.
    fn kernel_call<R>(&mut self, f: impl FnOnce(&mut Kernel, Micros, &mut Effects) -> R) -> R {
        let now = self.now();
        let out = f(&mut self.kernel, now, &mut self.fx);
        self.apply_effects();
        out
    }

    fn apply_effects(&mut self) {
        if !self.fx.is_empty() {
            let mut fx = std::mem::take(&mut self.fx);
            for effect in fx.drain(..) {
                self.apply_effect(effect);
            }
            self.fx = fx;
        }
    }

    fn apply_effect(&mut self, effect: Effect) {
        match effect {
            Effect::Queued { tracer, first, .. } => {
                if first {
                    self.actions.push_back(Deferred::KernelFlush { tracer });
                }
            }
            // Stopped programs are not held back on real nodes.
            Effect::Signaled(..) | Effect::Resumed(_) => {}
            Effect::Exiting(pid, status) => {
                self.trace(TraceCategory::Kernel, format_args!("pid {pid} {status}"));
            }
            Effect::Gone(pid, status, notify) => {
                // Retire the acceptors of ports the kernel just unpublished:
                // connects are refused until a respawn re-binds the port.
                let (kernel, cluster, host) = (&self.kernel, &self.cluster, self.host);
                self.acceptors.retain(|&port, alive| {
                    let bound = kernel.listener(port).is_some();
                    if !bound {
                        alive.store(false, Ordering::SeqCst);
                        cluster.ports.lock().unwrap().remove(&(host, port));
                    }
                    bound
                });
                // The peers' reader threads see EOF and report Closed there.
                for c in self.conns.values_mut().filter(|c| c.owner == pid) {
                    c.shut();
                }
                self.programs.remove(&pid);
                if let Some(parent) = notify {
                    self.actions.push_back(Deferred::ChildExit {
                        parent,
                        child: pid,
                        status,
                    });
                }
            }
        }
    }

    fn spawn_proc(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Pid {
        let pid = self
            .kernel_call(|k, now, fx| k.spawn(parent, uid, &spec.command, spec.cpu_bound, now, fx));
        if let Some(program) = spec.program {
            self.programs.insert(pid, program);
        }
        self.trace(
            TraceCategory::Kernel,
            format_args!("fork+exec pid {pid} ({}) by {parent}", spec.command),
        );
        self.actions.push_back(Deferred::Start(pid));
        pid
    }

    fn post_signal(&mut self, from: Uid, target: Pid, signal: Signal) -> Result<(), SysError> {
        self.kernel.may_signal(from, target)?;
        self.actions.push_back(Deferred::Signal { target, signal });
        Ok(())
    }

    // ---- helpers ---------------------------------------------------------

    fn alloc_conn(&mut self) -> ConnId {
        // Upper bits carry the host so conn ids never collide across the
        // cluster in traces.
        let id = ConnId(((self.host.0 as u64) << 40) | self.next_conn);
        self.next_conn += 1;
        id
    }

    /// A note from the node itself (its programs' go through `Sys`).
    fn trace(&self, category: TraceCategory, text: std::fmt::Arguments<'_>) {
        let mut hub = self.cluster.hub();
        if hub.trace.is_enabled() {
            hub.trace
                .record(self.now(), Some(self.host), category, text);
        }
    }

    fn with_program<F>(&mut self, pid: Pid, f: F)
    where
        F: FnOnce(&mut dyn Program, &mut dyn ppm_runtime::sys::Sys),
    {
        let Some(mut prog) = self.programs.remove(&pid) else {
            return;
        };
        let requested_exit = {
            let mut sys = RealSys {
                node: self,
                pid,
                exit_code: None,
            };
            f(prog.as_mut(), &mut sys);
            sys.exit_code
        };
        if self.kernel.is_alive(pid) {
            self.programs.insert(pid, prog);
        }
        if let Some(code) = requested_exit {
            self.kernel_call(|k, now, fx| k.exit(pid, ExitStatus::Code(code), now, fx));
        }
    }

    fn teardown(&mut self) {
        for alive in self.acceptors.values() {
            alive.store(false, Ordering::SeqCst);
        }
        for c in self.conns.values_mut() {
            c.shut();
        }
        let mut ports = self.cluster.ports.lock().unwrap();
        ports.retain(|&(host, _), _| host != self.host);
    }
}

/// The real syscall interface bound to one calling process.
///
/// Where [`ppm_simos::sys::Sys`] supplies the trait's required methods
/// from the discrete-event world, this supplies them from the node:
/// timers go to the node heap, connections to loopback TCP, forks and
/// signals to the node's deferred actions, notes to the cluster's hub.
pub struct RealSys<'a> {
    node: &'a mut NodeCore,
    pid: Pid,
    exit_code: Option<i32>,
}

impl ppm_runtime::sys::Sys for RealSys<'_> {
    fn now(&self) -> Micros {
        self.node.now()
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let seq = self.node.next_timer;
        self.node.next_timer += 1;
        let deadline = self.node.now().as_micros() + delay.as_micros();
        let entry = Reverse((deadline, seq, self.pid, token));
        self.node.timers.push(entry);
    }

    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        if self.node.kernel.listener(port).is_some() {
            return Err(SysError::PortInUse);
        }
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|_| SysError::InvalidArgument)?;
        let real = listener
            .local_addr()
            .map_err(|_| SysError::InvalidArgument)?
            .port();
        let alive = Arc::new(AtomicBool::new(true));
        self.node
            .cluster
            .ports
            .lock()
            .unwrap()
            .insert((self.node.host, port), real);
        self.node.kernel.bind(self.pid, port)?;
        self.node.acceptors.insert(port, Arc::clone(&alive));
        net::spawn_acceptor(
            listener,
            port,
            alive,
            Arc::clone(&self.node.cluster.shutdown),
            self.node.tx.clone(),
        );
        self.node.trace(
            TraceCategory::Net,
            format_args!("pid {} listening on {port} (tcp {real})", self.pid),
        );
        Ok(())
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        let known = self.node.cluster.hosts.read().unwrap().len() as u32;
        if host.0 >= known {
            return Err(SysError::NoSuchHost);
        }
        let conn = self.node.alloc_conn();
        self.node.conns.insert(
            conn,
            RConn {
                owner: self.pid,
                state: RConnState::Connecting { queued: Vec::new() },
            },
        );
        self.node.kernel.alloc_fd(self.pid, FdKind::Socket { conn });
        net::spawn_connector(
            conn,
            (self.node.host, self.pid),
            (host, port),
            Arc::clone(&self.node.cluster.ports),
            self.node.tx.clone(),
        );
        Ok(conn)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let c = self
            .node
            .conns
            .get_mut(&conn)
            .ok_or(SysError::NotConnected)?;
        if c.owner != self.pid {
            return Err(SysError::NotConnected);
        }
        let len = data.len();
        let mut closed_now = false;
        match &mut c.state {
            RConnState::Connecting { queued } => queued.push(data),
            RConnState::Up { stream } => {
                if net::write_frame(stream, &data).is_err() {
                    closed_now = true;
                }
            }
            RConnState::Closed => return Err(SysError::ConnectionClosed),
        }
        if closed_now {
            c.state = RConnState::Closed;
            let owner = c.owner;
            self.node.actions.push_back(Deferred::ConnEvt {
                owner,
                conn,
                event: ConnEvent::Closed,
            });
            return Err(SysError::ConnectionClosed);
        }
        let pid = self.pid;
        self.node
            .kernel_call(|k, now, fx| k.account_sent(pid, len, now, fx));
        Ok(())
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        let c = self
            .node
            .conns
            .get_mut(&conn)
            .ok_or(SysError::NotConnected)?;
        if c.owner != self.pid {
            return Err(SysError::NotConnected);
        }
        c.shut();
        self.node.kernel.release_socket(self.pid, conn);
        Ok(())
    }

    fn host(&self) -> HostId {
        self.node.host
    }

    fn host_name(&self) -> &str {
        &self.node.name
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        let hosts = self.node.cluster.hosts.read().unwrap();
        hosts
            .iter()
            .position(|n| n == name)
            .map(|i| HostId(i as u32))
            .ok_or(SysError::NoSuchHost)
    }

    fn random_unit(&mut self) -> f64 {
        // xorshift64*: deterministic per node, no RNG dependency.
        let mut x = self.node.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.node.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    fn exit(&mut self, code: i32) {
        self.exit_code = Some(code);
    }

    fn fork_exec(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        Ok(self.node.spawn_proc(parent, uid, spec))
    }

    fn post_signal(&mut self, target: Pid, signal: Signal) {
        self.node
            .actions
            .push_back(Deferred::Signal { target, signal });
    }

    fn make_service(&self, name: &str) -> Option<(Port, Box<dyn Program>)> {
        self.node.cluster.services().make(name, self.node.host)
    }

    fn kernel(&self) -> &Kernel {
        &self.node.kernel
    }

    fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects) {
        (&mut self.node.kernel, &mut self.node.fx)
    }

    fn flush_effects(&mut self) {
        self.node.apply_effects();
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Locked(self.node.cluster.hub())
    }
}
