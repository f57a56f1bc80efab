//! One real node: an event-loop thread driving the same [`Program`]
//! actors as the simulated kernel, over real sockets and a real clock.
//!
//! A node is the real-backend analogue of one simulated host. Its
//! processes run on the one host driver ([`ppm_runtime::host`]) the sim
//! also runs — its kernel, program table, callback
//! runner, `Sys`, exit, signals and stop rules are theirs by
//! construction — and the node supplies the driver's backend: the
//! monotonic clock, a timer heap, loopback TCP with its acceptor and
//! reader threads, and a queue of woken events. The loop blocks on its
//! event queue with `recv_timeout` against the next timer deadline, so
//! timers fire without a dedicated timer thread.
//!
//! Programs run to completion on the node thread, one callback at a
//! time — the same run-to-completion discipline the simulation enforces
//! globally, here enforced per node (nodes run concurrently, which is
//! exactly the concurrency the real system of the paper had between
//! hosts). What the driver schedules during a callback (a start, a
//! signal, a kernel flush, a child's exit, an event released by
//! `SIGCONT`) is queued and run after the callback returns.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ppm_proto::kernel_wire::encode_kernel_batch;

use ppm_runtime::conn::{ConnTable, Endpoint, Tell};
use ppm_runtime::host::{After, Backend, Driver, Hosts, Wake};
use ppm_runtime::ids::{ConnId, HostId, Pid, Port, Uid};
use ppm_runtime::kernel::Kernel;
use ppm_runtime::obs::HubRef;
use ppm_runtime::program::{ProcKey, Program, SpawnSpec, SysError};
use ppm_runtime::signal::Signal;
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
        /// The local process holding this end.
        to: Pid,
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
        /// The local process holding this end.
        to: Pid,
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

/// The state owned by one node's event-loop thread.
pub struct NodeCore {
    host: HostId,
    name: String,
    clock: ClusterClock,
    cluster: Arc<ClusterShared>,
    tx: Sender<NodeEvent>,
    /// The node's kernel and programs: the host driver's table.
    hosts: Hosts,
    /// The ends of streams this node holds, each with its socket once the
    /// stream is up. The far end is its own node's to hold: a connect
    /// records it as `(host, Pid::NONE)`, an accept as the `<host, pid>`
    /// the client sent; it hears of a close as end of file.
    conns: ConnTable<Option<TcpStream>>,
    /// Liveness flags of the acceptor threads behind the kernel's
    /// listeners; a flag drops when its port is unpublished.
    acceptors: HashMap<Port, Arc<AtomicBool>>,
    /// Woken events, run in order once the current callback returns.
    actions: VecDeque<(Pid, Wake)>,
    /// Armed timers, earliest first: `(deadline, seq, owner, token)`. A
    /// node never reboots, so each belongs to the boot it fires in.
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
        let mut hosts = Hosts::starting_at(host);
        hosts.add(Kernel::new(Micros::ZERO));
        let mut node = NodeCore {
            host,
            name,
            clock,
            cluster,
            tx,
            hosts,
            // Ids carry the host in their upper bits, so they never
            // collide across the cluster in traces.
            conns: ConnTable::numbered_from(u64::from(host.0) << 40),
            acceptors: HashMap::new(),
            actions: VecDeque::new(),
            timers: BinaryHeap::new(),
            next_timer: 1,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((host.0 as u64) << 17 | 1),
        };
        let inetd = SpawnSpec::new("inetd", Box::new(ppm_runtime::inetd::Inetd::new()));
        let spawned = node.fork(host, Pid::INIT, Uid::ROOT, inetd, None);
        spawned.expect("a node is up while it runs");
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
            NodeEvent::Incoming { conn, to, data } => {
                self.wake((self.host, to), Wake::Message { conn, data });
            }
            NodeEvent::ConnUp { conn, stream } => {
                stream.set_nodelay(true).ok();
                let now = self.now();
                // A connection closed meanwhile drops the stream here.
                let kernel = self.hosts.kernel_mut(self.host);
                let Some([_, told]) = self.conns.establish(conn, now, kernel) else {
                    return;
                };
                self.attach(conn, told.to.1, stream);
                self.tell(told);
            }
            NodeEvent::ConnFail { conn, error } => {
                let now = self.now();
                let kernel = self.hosts.kernel_mut(self.host);
                let told = self.conns.refuse(conn, error, now, kernel);
                told.into_iter().for_each(|t| self.tell(t));
            }
            NodeEvent::PeerClosed { conn, to } => {
                // End of file after a close of this end's own is not news.
                let (now, to) = (self.now(), (self.host, to));
                let kernel = self.hosts.kernel_mut(self.host);
                if self.conns.told_closed(conn, to, now, kernel) {
                    self.shut(conn);
                    self.tell(Tell::closed(conn, to));
                }
            }
            NodeEvent::AcceptedConn { port, peer, stream } => {
                // A dead owner's port is already unpublished.
                let Some(owner) = self.hosts.kernel(self.host).listener(port) else {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                };
                let (now, server) = (self.now(), (self.host, owner));
                let kernel = self.hosts.kernel_mut(self.host);
                let told = self.conns.accept(peer, server, port, now, kernel);
                self.attach(told.conn, owner, stream);
                self.tell(told);
            }
            NodeEvent::SpawnUser { uid, spec, reply } => {
                let _ = reply.send(self.fork(self.host, Pid::INIT, uid, spec, None));
            }
            NodeEvent::PostSignal {
                from,
                target,
                signal,
                reply,
            } => {
                let target = (self.host, target);
                let res = self.hosts.kernel(self.host).may_signal(from, target.1);
                if res.is_ok() {
                    self.schedule(target, Wake::Signal(signal), After::Priced);
                }
                if let Some(reply) = reply {
                    let _ = reply.send(res);
                }
            }
            NodeEvent::Inspect(read) => read(self.hosts.kernel(self.host)),
            NodeEvent::Shutdown => unreachable!("handled by the loop"),
        }
    }

    // ---- timers ----------------------------------------------------------

    fn next_timer_wait(&self) -> Option<Duration> {
        let &Reverse((deadline, ..)) = self.timers.peek()?;
        let now = self.now().as_micros();
        Some(Duration::from_micros(deadline.saturating_sub(now)))
    }

    fn fire_due_timers(&mut self) {
        let now = self.now().as_micros();
        let boot = self.hosts.kernel(self.host).boot_count();
        while let Some(&Reverse((deadline, _, pid, token))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            self.wake((self.host, pid), Wake::Timer { token, boot });
            self.drain();
        }
    }

    /// Runs the woken events, in order, until none is left.
    fn drain(&mut self) {
        while let Some((pid, wake)) = self.actions.pop_front() {
            self.wake((self.host, pid), wake);
        }
    }

    // ---- helpers ---------------------------------------------------------

    /// Puts a live stream under `conn`, read for `owner` on a thread of
    /// its own.
    fn attach(&mut self, conn: ConnId, owner: Pid, stream: TcpStream) {
        let writer = stream.try_clone().expect("clone stream");
        net::spawn_reader(conn, owner, stream, self.tx.clone());
        *self.conns.link_mut(conn).expect("a held connection") = Some(writer);
    }

    /// Closes this end's socket, if it has one; the far end's reader
    /// sees end of file.
    fn shut(&mut self, conn: ConnId) {
        if let Some(stream) = self.conns.link_mut(conn).and_then(Option::take) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Queues what a connection transition told a process on this node
    /// (a far end hears from its own node).
    fn tell(&mut self, told: Tell) {
        let Tell { conn, to, event } = told;
        self.actions.push_back((to.1, Wake::Told { conn, event }));
    }

    /// A note from the node itself (its programs' go through `Sys`).
    fn trace(&self, category: TraceCategory, text: std::fmt::Arguments<'_>) {
        let mut hub = self.cluster.hub();
        if hub.trace.is_enabled() {
            hub.trace
                .record(self.now(), Some(self.host), category, text);
        }
    }

    fn teardown(&mut self) {
        for alive in self.acceptors.values() {
            alive.store(false, Ordering::SeqCst);
        }
        for stream in self.conns.iter_mut().filter_map(|(_, s)| s.take()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let mut ports = self.cluster.ports.lock().unwrap();
        ports.retain(|&(host, _), _| host != self.host);
    }

    /// The caller, if it holds this node's end of `conn`:
    /// [`SysError::NotConnected`] otherwise. A node holds the client of a
    /// connect and the server of an accept; the other end of each is the
    /// far node's to hold, even when that node is this one.
    fn own_end(&self, me: ProcKey, conn: ConnId) -> Result<Endpoint, SysError> {
        let c = self.conns.get(conn).ok_or(SysError::NotConnected)?;
        let held = if c.server.1 == Pid::NONE {
            c.client
        } else {
            c.server
        };
        (held == me).then_some(me).ok_or(SysError::NotConnected)
    }
}

/// The node's half of the host driver: the monotonic clock, the timer
/// heap, loopback TCP, and its queue of woken events.
impl Backend for NodeCore {
    fn hosts(&self) -> &Hosts {
        &self.hosts
    }

    fn hosts_mut(&mut self) -> &mut Hosts {
        &mut self.hosts
    }

    fn now(&self) -> Micros {
        self.clock.now()
    }

    fn host_name(&self, _: HostId) -> &str {
        &self.name
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        let hosts = self.cluster.hosts.read().unwrap();
        hosts
            .iter()
            .position(|n| n == name)
            .map(|i| HostId(i as u32))
            .ok_or(SysError::NoSuchHost)
    }

    fn random_unit(&mut self) -> f64 {
        // xorshift64*: deterministic per node, no RNG dependency.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Locked(self.cluster.hub())
    }

    fn make_service(&self, name: &str, host: HostId) -> Option<(Port, Box<dyn Program>)> {
        self.cluster.services().make(name, host)
    }

    fn listen(&mut self, me: ProcKey, port: Port) -> Result<(), SysError> {
        if self.hosts.kernel(self.host).listener(port).is_some() {
            return Err(SysError::PortInUse);
        }
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|_| SysError::InvalidArgument)?;
        let real = listener
            .local_addr()
            .map_err(|_| SysError::InvalidArgument)?
            .port();
        let alive = Arc::new(AtomicBool::new(true));
        self.cluster
            .ports
            .lock()
            .unwrap()
            .insert((self.host, port), real);
        self.hosts.kernel_mut(self.host).bind(me.1, port)?;
        self.acceptors.insert(port, Arc::clone(&alive));
        net::spawn_acceptor(
            listener,
            port,
            alive,
            Arc::clone(&self.cluster.shutdown),
            self.tx.clone(),
        );
        self.trace(
            TraceCategory::Net,
            format_args!("pid {} listening on {port} (tcp {real})", me.1),
        );
        Ok(())
    }

    fn connect(&mut self, me: ProcKey, host: HostId, port: Port) -> Result<ConnId, SysError> {
        let known = self.cluster.hosts.read().unwrap().len() as u32;
        if host.0 >= known {
            return Err(SysError::NoSuchHost);
        }
        let (far, now) = ((host, Pid::NONE), self.now());
        let kernel = self.hosts.kernel_mut(self.host);
        let conn = self.conns.open(me, far, port, now, kernel);
        net::spawn_connector(
            conn,
            me,
            (host, port),
            Arc::clone(&self.cluster.ports),
            self.tx.clone(),
        );
        Ok(conn)
    }

    fn send(&mut self, me: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let me = self.own_end(me, conn)?;
        let (now, len) = (self.now(), data.len());
        self.conns.may_send(conn, me)?;
        let stream = self.conns.link_mut(conn).and_then(Option::as_mut);
        if let Some(Ok(())) = stream.map(|s| net::write_frame(s, &data)) {
            // Counted once it is written.
            let (kernel, fx) = self.hosts.kernel_fx(self.host);
            self.conns.send(conn, me, len, now, kernel, fx)?;
            self.apply_effects(self.host);
            self.conns.carry(conn, me, len);
            return Ok(());
        }
        // The stream broke under the write: this end learns it now.
        self.shut(conn);
        let kernel = self.hosts.kernel_mut(self.host);
        self.conns.told_closed(conn, me, now, kernel);
        self.tell(Tell::closed(conn, me));
        Err(SysError::ConnectionClosed)
    }

    fn close(&mut self, me: ProcKey, conn: ConnId) -> Result<(), SysError> {
        let me = self.own_end(me, conn)?;
        // The far end hears of it from its socket, not from the table.
        let (now, kernel) = (self.now(), self.hosts.kernel_mut(self.host));
        self.conns.close(conn, me, now, kernel)?;
        self.shut(conn);
        Ok(())
    }

    fn conn_alive(&self, me: ProcKey, conn: ConnId) -> bool {
        let me = self.own_end(me, conn);
        me.is_ok_and(|me| self.conns.established(conn, me).is_some())
    }

    /// An armed timer goes on the heap; everything else runs once the
    /// current callback has returned.
    fn schedule(&mut self, to: ProcKey, wake: Wake, after: After) -> SimDuration {
        match (wake, after) {
            (Wake::Timer { token, .. }, After::Delay(delay)) => {
                let seq = self.next_timer;
                self.next_timer += 1;
                let deadline = self.now().as_micros() + delay.as_micros();
                self.timers.push(Reverse((deadline, seq, to.1, token)));
            }
            (wake, _) => self.actions.push_back((to.1, wake)),
        }
        SimDuration::ZERO
    }

    fn queued(&mut self, tracer: ProcKey, _: usize, first: bool) -> Option<SimDuration> {
        if first {
            self.actions.push_back((tracer.1, Wake::Flush));
        }
        None
    }

    fn flush(&mut self, tracer: ProcKey) -> Option<Bytes> {
        let kernel = self.hosts.kernel_mut(tracer.0);
        kernel.drain_batch(tracer.1, encode_kernel_batch)
    }

    fn handed(&mut self, to: ProcKey, wake: Wake) -> Option<Wake> {
        if let Wake::Message { conn, data } = &wake {
            let now = self.now();
            let (kernel, fx) = self.hosts.kernel_fx(to.0);
            let handed = self.conns.deliver(*conn, to, data.len(), now, kernel, fx);
            self.apply_effects(to.0);
            return handed.then_some(wake);
        }
        Some(wake)
    }

    /// Retires the acceptors of the ports the kernel just unpublished
    /// (connects are refused until a respawn re-binds the port) and
    /// closes the process's sockets: the peers' reader threads see end
    /// of file and report `Closed` there.
    fn gone(&mut self, end: ProcKey) {
        let (kernel, cluster, host) = (self.hosts.kernel(self.host), &self.cluster, self.host);
        self.acceptors.retain(|&port, alive| {
            let bound = kernel.listener(port).is_some();
            if !bound {
                alive.store(false, Ordering::SeqCst);
                cluster.ports.lock().unwrap().remove(&(host, port));
            }
            bound
        });
        let now = self.now();
        for told in self.conns.process_gone(end, now) {
            self.shut(told.conn);
        }
    }
}
