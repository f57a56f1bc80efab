//! The simulation world: hosts, kernels, wires, and the event loop.
//!
//! [`World`] owns everything: the discrete-event engine, the topology, one
//! [`Kernel`] per host, all live connections, and the [`Program`] objects
//! attached to processes. Its event loop pops one event at a time, mutates
//! kernel/network state, and invokes at most one program handler — so a
//! run with a given seed is exactly reproducible.
//!
//! Programs never call each other directly: every interaction (message,
//! signal, child exit, kernel event) becomes a scheduled event, mirroring
//! the paper's message-based LPM design.

use std::fmt;

use bytes::Bytes;
use ppm_proto::codec::encode_batch;
use ppm_runtime::hashx::FastMap;
use ppm_runtime::kernel::{Effect, Effects};
use ppm_runtime::obs::{CounterId, HistId, ObsHub, Registry};
use ppm_runtime::rt::{ServiceFactory, Services};
use ppm_runtime::sys::Sys as _;
use ppm_runtime::trace::{Note, TraceCategory, TraceLog};
use ppm_simnet::bandwidth::{NetModel, Transfer};
use ppm_simnet::engine::TimerWheel;
use ppm_simnet::fault::{FaultKind, FaultPlan, WireDecision, WireFaults};
use ppm_simnet::latency::LatencyModel;
use ppm_simnet::rng::SimRng;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{HostId, HostSpec, NetSpec, Topology};

use crate::config::OsConfig;
use crate::ids::{ConnId, Pid, Port, Uid};
use crate::net::{ConnState, ConnTable, Connection};
use crate::sys::Sys;
use ppm_runtime::fd::FdKind;
use ppm_runtime::kernel::Kernel;
use ppm_runtime::process::ProcState;
use ppm_runtime::program::{ConnEvent, ProcKey, Program, SigAction, SpawnSpec, SysError};
use ppm_runtime::signal::{ExitStatus, Signal};

/// Events flowing through the engine. Internal to the crate; programs see
/// the typed callbacks of [`Program`] instead.
#[derive(Debug, Clone)]
pub(crate) enum SimEvent {
    Start(ProcKey),
    /// `(process, token, boot)`: the timer belongs to the boot of its
    /// host it was armed in ([`Kernel::boot_count`]).
    Timer(ProcKey, u64, u32),
    Deliver {
        conn: ConnId,
        to: ProcKey,
        data: Bytes,
    },
    ConnEstablish {
        conn: ConnId,
    },
    ConnFailed {
        conn: ConnId,
        to: ProcKey,
        reason: SysError,
    },
    ConnClosedNotify {
        conn: ConnId,
        to: ProcKey,
    },
    /// Deliver the pending kernel-event batch for `to` (armed by the
    /// first event of the batch; later events ride the same wakeup).
    KernelFlush {
        to: ProcKey,
    },
    /// A kernel-event batch already encoded, re-delivered after a busy or
    /// stopped deferral.
    KernelBatch {
        to: ProcKey,
        data: Bytes,
    },
    SignalDeliver {
        to: ProcKey,
        signal: Signal,
    },
    ChildExit {
        parent: ProcKey,
        child: Pid,
        status: ExitStatus,
    },
    LoadTick(HostId),
    HostCrash(HostId),
    HostRestart(HostId),
    LinkSet(HostId, HostId, bool),
    /// Fault-plan cut/heal of a *named* physical link in the installed
    /// netmodel (the link index is resolved at plan-install time).
    NetLinkSet(u32, bool),
    /// Fault-plan kill: SIGKILL every live process on the host whose
    /// command starts with the prefix.
    KillCmd(HostId, String),
}

/// Registry ids of the world's own metrics: the kernel event path and
/// injected faults.
pub(crate) struct WorldObs {
    kernel_events: CounterId,
    kernel_wakeups: CounterId,
    kernel_batch_msgs: HistId,
    faults_injected: CounterId,
}

impl WorldObs {
    fn register(reg: &mut Registry) -> Self {
        WorldObs {
            kernel_events: reg.counter("kernel.events"),
            kernel_wakeups: reg.counter("kernel.wakeups"),
            kernel_batch_msgs: reg.hist("kernel.batch_msgs"),
            faults_injected: reg.counter("faults.injected"),
        }
    }
}

/// Registry ids for the `net.*` metrics. Registered only when a netmodel
/// is installed, so flat-mode metric output is byte-identical to worlds
/// that predate the network model.
pub(crate) struct NetObs {
    bytes_on_link: CounterId,
    link_queue_us: HistId,
    congested_sends: CounterId,
    routed_sends: CounterId,
    drops: CounterId,
    bisection_bytes: CounterId,
    /// Last observed [`NetModel::bisection_bytes`], to turn the model's
    /// cumulative count into registry increments.
    prev_bisection: u64,
}

/// The state of the world. Syscalls (via [`Sys`]) operate on this; the
/// [`World`] wrapper runs the loop.
pub struct WorldCore {
    // A hierarchical timer wheel: the short-deadline RPC timer population
    // (retransmits, handler slots, housekeeping) lands in the wheel arrays;
    // far-future deadlines sit in its internal overflow heap.
    pub(crate) engine: TimerWheel<SimEvent>,
    pub(crate) topo: Topology,
    pub(crate) latency: LatencyModel,
    pub(crate) rng: SimRng,
    pub(crate) config: OsConfig,
    /// One kernel per host: all process, signal and kernel-event
    /// semantics live there; this world only schedules what it asks for.
    pub(crate) hosts: Vec<Kernel>,
    /// The kernels' effects sink, drained after every kernel call.
    fx: Effects,
    pub(crate) conns: ConnTable,
    pub(crate) services: Services,
    /// The behaviour of every live process that has one. A program is
    /// taken out for the duration of its own callback, so the callback's
    /// [`Sys`] can borrow the rest of the world.
    pub(crate) programs: FastMap<ProcKey, Box<dyn Program>>,
    /// Events held back because their target process is stopped.
    pub(crate) deferred: FastMap<ProcKey, Vec<SimEvent>>,
    /// Everything the world records about itself: trace, spans, its own
    /// metrics and the registries programs publish.
    pub(crate) obs: ObsHub,
    /// Ids of the world's own metrics in the hub's registry.
    ids: WorldObs,
    /// Probabilistic wire faults from an installed fault plan. `None`
    /// (the default) leaves the send path untouched.
    pub(crate) faults: Option<WireFaults>,
    /// The bandwidth- and topology-aware network model. `None` (the
    /// default) keeps the flat `hop_base + per_byte` wire law and its
    /// exact RNG draw order — worlds without a topology are byte-for-byte
    /// identical to pre-netmodel runs.
    pub(crate) net: Option<NetModel>,
    /// `net.*` metric ids, present iff `net` is.
    pub(crate) net_obs: Option<NetObs>,
    /// Bumped whenever reachability may have changed (link cut/heal,
    /// named net-link cut/heal, host crash/restart). Programs compare it
    /// against a remembered value to revalidate cached routes.
    pub(crate) net_epoch: u64,
    /// The world seed, kept so a late-installed netmodel can derive its
    /// own loss stream from it.
    pub(crate) seed: u64,
}

impl WorldCore {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.obs.trace
    }

    /// The observability hub: trace, spans, world metrics, program
    /// registries.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable hub (to toggle trace or span recording).
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// Timer-queue statistics of the engine (occupancy, overflow depth).
    pub fn engine_stats(&self) -> ppm_simnet::engine::QueueStats {
        self.engine.stats()
    }

    /// The installed network model, if any.
    pub fn net(&self) -> Option<&NetModel> {
        self.net.as_ref()
    }

    /// The reachability epoch: bumped on every link cut/heal, named
    /// net-link cut/heal, and host crash/restart.
    pub fn net_epoch(&self) -> u64 {
        self.net_epoch
    }

    /// Whether hosts `a` and `b` can currently exchange traffic — the
    /// send-path reachability programs use to validate cached routes.
    pub fn edge_up(&self, a: HostId, b: HostId) -> bool {
        if !self.host_up(a) {
            return false;
        }
        if a == b {
            return true;
        }
        matches!(self.route_state(a, b), RouteState::Hops(_))
    }

    /// The kernel of a host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown host id.
    pub fn kernel(&self, host: HostId) -> &Kernel {
        &self.hosts[host.0 as usize]
    }

    /// Mutable kernel of a host (benchmark hooks such as
    /// [`Kernel::set_load_avg`]).
    pub fn kernel_mut(&mut self, host: HostId) -> &mut Kernel {
        &mut self.hosts[host.0 as usize]
    }

    /// Looks a host up by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.topo.host_by_name(name)
    }

    /// The name of a host.
    pub fn host_name(&self, host: HostId) -> &str {
        &self.topo.spec(host).name
    }

    /// All connections ever made, open and closed, in id order (for the
    /// IPC-statistics tool and tests).
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.conns.iter()
    }

    /// One connection by id.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.conns.get(id)
    }

    /// The connection table, with its index of the open connections.
    pub fn conn_table(&self) -> &ConnTable {
        &self.conns
    }

    /// Records a text entry at the current instant: a line written once
    /// per fault, not per process or connection (those are [`Note`]s).
    /// `text` cannot borrow `self` through a method while this runs;
    /// such sites record through `self.obs.trace` with the fields
    /// borrowed directly.
    pub(crate) fn tracef(
        &mut self,
        host: Option<HostId>,
        cat: TraceCategory,
        text: fmt::Arguments<'_>,
    ) {
        let now = self.engine.now();
        self.obs.trace.record(now, host, cat, text);
    }

    /// Records a typed entry at the current instant; the same rule on
    /// borrowing `self` applies to a note's names.
    pub(crate) fn note(&mut self, host: HostId, cat: TraceCategory, note: Note<'_>) {
        let now = self.engine.now();
        self.obs.trace.note(now, Some(host), cat, note);
    }

    pub(crate) fn host_up(&self, id: HostId) -> bool {
        self.topo.is_up(id)
    }

    /// True when the process exists and is alive.
    pub fn is_alive(&self, key: ProcKey) -> bool {
        self.host_up(key.0) && self.kernel(key.0).is_alive(key.1)
    }

    /// Scales a nominal (idle reference machine) CPU cost to this host's
    /// class and current load, with jitter.
    pub(crate) fn scaled_cpu_cost(&mut self, host: HostId, nominal: SimDuration) -> SimDuration {
        let cpu = self.topo.spec(host).cpu;
        let la = self.kernel(host).load_avg();
        let scaled = nominal.mul_f64(self.latency.cpu_scale(cpu, la));
        let jitter = self.config.cost_jitter;
        self.rng.jitter(scaled, jitter)
    }

    // ---- process management -------------------------------------------

    /// Runs one call into `host`'s kernel at the current instant, then
    /// schedules whatever the kernel asked for, in the order it asked.
    pub(crate) fn kernel_call<R>(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut Kernel, SimTime, &mut Effects) -> R,
    ) -> R {
        let now = self.engine.now();
        let (kernel, fx) = self.kernel_fx(host);
        let out = f(kernel, now, fx);
        self.apply_effects(host);
        out
    }

    /// `host`'s kernel and the effects sink its calls append to.
    pub(crate) fn kernel_fx(&mut self, host: HostId) -> (&mut Kernel, &mut Effects) {
        (&mut self.hosts[host.0 as usize], &mut self.fx)
    }

    /// Schedules what `host`'s kernel asked for since the last drain.
    pub(crate) fn apply_effects(&mut self, host: HostId) {
        if !self.fx.is_empty() {
            let mut fx = std::mem::take(&mut self.fx);
            for effect in fx.drain(..) {
                self.apply_effect(host, effect);
            }
            self.fx = fx;
        }
    }

    fn apply_effect(&mut self, host: HostId, effect: Effect) {
        match effect {
            Effect::Queued {
                tracer,
                pid,
                kind,
                wire_size,
                first,
            } => {
                self.obs.registry.inc(self.ids.kernel_events);
                let delay = if first {
                    // First event of the wakeup pays the Table 1 latency
                    // and arms the flush; later ones coalesce into the
                    // same batch frame, one delivery for the burst.
                    self.obs.registry.inc(self.ids.kernel_wakeups);
                    let cpu = self.topo.spec(host).cpu;
                    let la = self.kernel(host).load_avg();
                    let base = self.latency.kernel_msg(cpu, la, wire_size);
                    let delay = self.rng.jitter(base, self.latency.jitter_fraction);
                    let to = (host, tracer);
                    self.engine.schedule(delay, SimEvent::KernelFlush { to });
                    Some(delay)
                } else {
                    None
                };
                let queued = Note::KernelEvent {
                    kind,
                    pid,
                    tracer,
                    wire_size,
                    delay,
                };
                self.note(host, TraceCategory::Kernel, queued);
            }
            Effect::Signaled(pid, signal) => {
                self.note(host, TraceCategory::Kernel, Note::Signaled { signal, pid });
            }
            Effect::Resumed(pid) => {
                for ev in self.deferred.remove(&(host, pid)).unwrap_or_default() {
                    self.engine.schedule(SimDuration::ZERO, ev);
                }
            }
            Effect::Exiting(pid, status) => {
                self.note(host, TraceCategory::Kernel, Note::Exiting { pid, status });
            }
            Effect::Gone(pid, status, notify) => {
                self.programs.remove(&(host, pid));
                self.deferred.remove(&(host, pid));
                let held: Vec<ConnId> = self.conns.held_by((host, pid)).collect();
                for id in held {
                    self.break_conn(id, (host, pid));
                }
                if let Some(ppid) = notify {
                    let delay = self.config.child_exit_latency;
                    let parent = (host, ppid);
                    self.engine.schedule(
                        delay,
                        SimEvent::ChildExit {
                            parent,
                            child: pid,
                            status,
                        },
                    );
                }
            }
        }
    }

    /// Creates a process on `host` under `parent`. Returns its pid; the
    /// program (if any) starts after the fork+exec delay.
    pub(crate) fn spawn(
        &mut self,
        host: HostId,
        parent: Pid,
        uid: Uid,
        spec: SpawnSpec,
        cost_override: Option<SimDuration>,
    ) -> Result<Pid, SysError> {
        if !self.host_up(host) {
            return Err(SysError::HostDown);
        }
        let pid = self.kernel_call(host, |k, now, fx| {
            k.spawn(parent, uid, &spec.command, spec.cpu_bound, now, fx)
        });
        let cost = match cost_override {
            Some(c) => c,
            None => {
                let nominal = self.config.spawn_cost;
                self.scaled_cpu_cost(host, nominal)
            }
        };
        self.engine.schedule(cost, SimEvent::Start((host, pid)));
        if let Some(program) = spec.program {
            self.programs.insert((host, pid), program);
        }
        let spawned = Note::Spawned {
            pid,
            command: &spec.command,
            parent,
            ready_in: cost,
        };
        self.note(host, TraceCategory::Kernel, spawned);
        Ok(pid)
    }

    /// Terminates a process; the kernel's effects tear down its
    /// connections and notify its parent.
    pub(crate) fn do_exit(&mut self, key: ProcKey, status: ExitStatus) {
        if self.host_up(key.0) {
            self.kernel_call(key.0, |k, now, fx| k.exit(key.1, status, now, fx));
        }
    }

    /// Posts a signal from `from_uid` to a process (local or remote host);
    /// the kernel checks permission, delivery follows after the signal
    /// latency.
    pub(crate) fn post_signal(
        &mut self,
        from_uid: Uid,
        target: ProcKey,
        signal: Signal,
    ) -> Result<(), SysError> {
        if !self.host_up(target.0) {
            return Err(SysError::HostDown);
        }
        self.kernel(target.0).may_signal(from_uid, target.1)?;
        self.schedule_signal(target, signal);
        Ok(())
    }

    /// Delivery of a permitted signal, after the signal latency.
    pub(crate) fn schedule_signal(&mut self, target: ProcKey, signal: Signal) {
        let delay = self.config.signal_latency;
        let jf = self.config.cost_jitter;
        let delay = self.rng.jitter(delay, jf);
        self.engine
            .schedule(delay, SimEvent::SignalDeliver { to: target, signal });
    }

    // ---- networking ----------------------------------------------------

    /// Binds a listener.
    pub(crate) fn listen(&mut self, key: ProcKey, port: Port) -> Result<(), SysError> {
        let (host, pid) = key;
        if !self.host_up(host) {
            return Err(SysError::HostDown);
        }
        self.kernel_mut(host).bind(pid, port)?;
        self.note(host, TraceCategory::Net, Note::Listening { pid, port });
        Ok(())
    }

    /// Initiates a connection; completion is reported via `ConnEvent`.
    pub(crate) fn connect(
        &mut self,
        from: ProcKey,
        target: HostId,
        port: Port,
    ) -> Result<ConnId, SysError> {
        if (target.0 as usize) >= self.hosts.len() {
            return Err(SysError::NoSuchHost);
        }
        let now = self.now();
        let reach = self.route_state(from.0, target);
        match reach {
            RouteState::HostDown | RouteState::Unreachable => {
                // SYN goes nowhere; timeout later.
                let reason = if matches!(reach, RouteState::HostDown) {
                    SysError::HostDown
                } else {
                    SysError::Unreachable
                };
                let delay = self.config.connect_timeout;
                // Connection record kept so a late close() is harmless.
                let id = self.conns.open(from, (target, Pid::INIT), port, now);
                self.conns.close(id, now);
                self.engine.schedule(
                    delay,
                    SimEvent::ConnFailed {
                        conn: id,
                        to: from,
                        reason,
                    },
                );
                Ok(id)
            }
            RouteState::Hops(hops) => {
                let server_pid = match self.kernel(target).listener(port) {
                    Some(pid) => pid,
                    None => {
                        // RST: refused after one round trip.
                        let rtt = self.rtt(hops, from.0, target, self.config.handshake_bytes);
                        let id = self.conns.open(from, (target, Pid::INIT), port, now);
                        self.conns.close(id, now);
                        self.engine.schedule(
                            rtt,
                            SimEvent::ConnFailed {
                                conn: id,
                                to: from,
                                reason: SysError::ConnectionRefused,
                            },
                        );
                        return Ok(id);
                    }
                };
                let id = self.conns.open(from, (target, server_pid), port, now);
                self.kernel_mut(from.0)
                    .alloc_fd(from.1, FdKind::Socket { conn: id });
                let rtt = self.rtt(hops, from.0, target, self.config.handshake_bytes);
                self.engine
                    .schedule(rtt, SimEvent::ConnEstablish { conn: id });
                let connecting = Note::Connecting {
                    pid: from.1,
                    to: &self.topo.spec(target).name,
                    port,
                    hops,
                    conn: id,
                };
                self.obs
                    .trace
                    .note(now, Some(from.0), TraceCategory::Net, connecting);
                Ok(id)
            }
        }
    }

    fn rtt(&mut self, hops: u32, a: HostId, b: HostId, bytes: usize) -> SimDuration {
        let one_way = self.one_way(hops, a, b, bytes);
        let jf = self.latency.jitter_fraction;
        let d = SimDuration::from_micros(one_way.as_micros() * 2);
        self.rng.jitter(d, jf)
    }

    /// Uncontended one-way wire time between two hosts. Flat worlds use
    /// the latency model's `hop_base + per_byte` law; routed worlds price
    /// the canonical route (per-link latency + serialization) without
    /// touching the contention ledgers — control traffic (handshakes,
    /// closes) never perturbs congestion state. Local IPC (`hops == 0`)
    /// always uses the flat law.
    fn one_way(&self, hops: u32, a: HostId, b: HostId, bytes: usize) -> SimDuration {
        if hops > 0 {
            if let Some(net) = &self.net {
                if let Some(us) = net.wire_uncontended(a.0, b.0, bytes as u64) {
                    return SimDuration::from_micros(us);
                }
            }
        }
        self.latency.wire(hops, bytes)
    }

    /// Whether a connection is deliverable right now: `from` is an
    /// endpoint, the connection is established, and the link to the peer
    /// is routable. Unlike [`WorldCore::send`], a dead route here is
    /// reported immediately instead of succeeding locally and breaking
    /// after the detection interval — this is the send-time liveness
    /// check programs use to validate cached next-hops.
    pub(crate) fn conn_alive(&self, from: ProcKey, conn: ConnId) -> bool {
        let Some(c) = self.conns.get(conn) else {
            return false;
        };
        if !c.has_endpoint(from) || c.state != ConnState::Established {
            return false;
        }
        let peer = c.peer_of(from).expect("endpoint checked");
        matches!(self.route_state(from.0, peer.0), RouteState::Hops(_))
    }

    /// Sends bytes on an established connection. Returns `Ok` when the
    /// local write succeeds (TCP semantics); breakage discovered later is
    /// reported via a `Closed` event.
    pub(crate) fn send(
        &mut self,
        from: ProcKey,
        conn: ConnId,
        data: Bytes,
    ) -> Result<(), SysError> {
        let (peer, state) = match self.conns.get(conn) {
            Some(c) if c.has_endpoint(from) => (c.peer_of(from).expect("endpoint"), c.state),
            Some(_) => return Err(SysError::NotConnected),
            None => return Err(SysError::NotConnected),
        };
        match state {
            ConnState::Connecting => return Err(SysError::NotConnected),
            ConnState::Closed => return Err(SysError::ConnectionClosed),
            ConnState::Established => {}
        }
        let len = data.len();
        self.kernel_call(from.0, |k, now, fx| k.account_sent(from.1, len, now, fx));
        let reach = self.route_state(from.0, peer.0);
        let hops = match reach {
            RouteState::Hops(h) => h,
            RouteState::HostDown | RouteState::Unreachable => {
                // Write succeeds locally; breakage surfaces after the
                // detection interval.
                let jf = self.config.cost_jitter;
                let base = self.config.break_detection;
                let delay = self.rng.jitter(base, jf);
                self.mark_closed(conn);
                self.engine
                    .schedule(delay, SimEvent::ConnClosedNotify { conn, to: from });
                self.tracef(
                    Some(from.0),
                    TraceCategory::Net,
                    format_args!("send on {conn} lost (peer unreachable); breakage pending"),
                );
                return Ok(());
            }
        };
        let jf = self.latency.jitter_fraction;
        // Routed worlds price the transfer over the canonical route —
        // per-link latency plus contention-scaled serialization — instead
        // of the flat wire law. Local IPC always stays flat.
        let now_us = self.engine.now().as_micros();
        let routed = match &mut self.net {
            Some(net) if hops > 0 => Some(net.transfer(from.0 .0, peer.0 .0, len as u64, now_us)),
            _ => None,
        };
        let base = match routed {
            None => self.latency.wire(hops, len),
            Some(Transfer::Deliver {
                total_us,
                queue_us,
                links,
            }) => {
                self.note_net_send(len as u64, queue_us, links);
                SimDuration::from_micros(total_us)
            }
            Some(Transfer::Dropped) => {
                // A lossy link ate it: the write succeeded locally,
                // nothing arrives, recovery is up to the RPC retries.
                self.note_net_drop();
                self.tracef(
                    Some(from.0),
                    TraceCategory::Net,
                    format_args!("net: message on {conn} dropped (lossy link)"),
                );
                return Ok(());
            }
            Some(Transfer::Unreachable) => {
                // `route_state` consulted the same table just above, so
                // this cannot fire today; handle it like any dead route.
                let base = self.config.break_detection;
                let delay = self.rng.jitter(base, self.config.cost_jitter);
                self.mark_closed(conn);
                self.engine
                    .schedule(delay, SimEvent::ConnClosedNotify { conn, to: from });
                return Ok(());
            }
        };
        let delay = self.rng.jitter(base, jf);
        // Fault-plan wire rules ride a dedicated RNG stream, so the
        // latency jitter sequence above is identical with or without an
        // installed plan.
        let fate = match self.faults.as_mut() {
            Some(f) => {
                let now = self.engine.now();
                let from_name = &self.topo.spec(from.0).name;
                let to_name = &self.topo.spec(peer.0).name;
                f.decide(from_name, to_name, now)
            }
            None => WireDecision::default(),
        };
        if fate.fired > 0 {
            let fired = u64::from(fate.fired);
            self.obs.registry.add(self.ids.faults_injected, fired);
        }
        if fate.drop {
            // Silent loss: the sender's write succeeded, nothing arrives,
            // and recovery is up to the RPC retry machinery.
            self.tracef(
                Some(from.0),
                TraceCategory::Net,
                format_args!("fault: message on {conn} dropped"),
            );
            return Ok(());
        }
        let delay = SimDuration::from_micros(delay.as_micros() + fate.extra.as_micros());
        let c = self.conns.get_mut(conn).expect("checked above");
        let dir = c.record_send(from, len);
        let mut arrival = self.engine.now() + delay;
        if arrival < c.next_arrival[dir] {
            arrival = c.next_arrival[dir];
        }
        c.next_arrival[dir] = arrival + SimDuration::from_micros(1);
        if let Some(skew) = fate.reorder {
            // Land past the slot without raising the FIFO floor, so later
            // traffic in the same direction overtakes this message.
            arrival += skew;
        }
        if fate.dup {
            self.engine.schedule_at(
                arrival + delay.max(SimDuration::from_micros(1)),
                SimEvent::Deliver {
                    conn,
                    to: peer,
                    data: data.clone(),
                },
            );
        }
        self.engine.schedule_at(
            arrival,
            SimEvent::Deliver {
                conn,
                to: peer,
                data,
            },
        );
        Ok(())
    }

    /// Closes a connection from one side; the peer is notified. Like a
    /// TCP FIN, the notification is ordered after data already in flight
    /// toward the peer.
    pub(crate) fn close(&mut self, from: ProcKey, conn: ConnId) -> Result<(), SysError> {
        let (peer, state, dir_floor) = match self.conns.get(conn) {
            Some(c) if c.has_endpoint(from) => {
                let peer = c.peer_of(from).expect("endpoint");
                let dir = if peer == c.server { 1 } else { 0 };
                (peer, c.state, c.next_arrival[dir])
            }
            _ => return Err(SysError::NotConnected),
        };
        self.kernel_mut(from.0).release_socket(from.1, conn);
        if state == ConnState::Closed {
            return Ok(());
        }
        self.mark_closed(conn);
        if let RouteState::Hops(hops) = self.route_state(from.0, peer.0) {
            let jf = self.latency.jitter_fraction;
            let base = self.one_way(hops, from.0, peer.0, 32);
            let delay = self.rng.jitter(base, jf);
            let mut at = self.engine.now() + delay;
            if at < dir_floor {
                at = dir_floor;
            }
            self.engine
                .schedule_at(at, SimEvent::ConnClosedNotify { conn, to: peer });
        }
        Ok(())
    }

    /// Marks a connection closed and schedules a close notification to the
    /// peer of `dead_end`'s counterpart (used on process exit).
    fn break_conn(&mut self, conn: ConnId, dead_end: ProcKey) {
        let peer = self.conns.get(conn).and_then(|c| c.peer_of(dead_end));
        self.mark_closed(conn);
        if let Some(peer) = peer {
            if let RouteState::Hops(hops) = self.route_state(dead_end.0, peer.0) {
                let jf = self.latency.jitter_fraction;
                let base = self.one_way(hops, dead_end.0, peer.0, 32);
                let delay = self.rng.jitter(base, jf);
                self.engine
                    .schedule(delay, SimEvent::ConnClosedNotify { conn, to: peer });
            }
        }
    }

    /// Records one routed delivery into the `net.*` metrics.
    fn note_net_send(&mut self, bytes: u64, queue_us: u64, links: u32) {
        let Some(ids) = &mut self.net_obs else {
            return;
        };
        self.obs
            .registry
            .add(ids.bytes_on_link, bytes * u64::from(links));
        self.obs.registry.record(ids.link_queue_us, queue_us);
        if queue_us > 0 {
            self.obs.registry.inc(ids.congested_sends);
        }
        self.obs.registry.inc(ids.routed_sends);
        let bis = self.net.as_ref().map_or(0, |n| n.bisection_bytes);
        self.obs
            .registry
            .add(ids.bisection_bytes, bis - ids.prev_bisection);
        ids.prev_bisection = bis;
    }

    /// Records one lossy-link drop into the `net.*` metrics. The bytes
    /// still occupied the links up to the drop, so the bisection count is
    /// synced here too.
    fn note_net_drop(&mut self) {
        let Some(ids) = &mut self.net_obs else {
            return;
        };
        self.obs.registry.inc(ids.drops);
        self.obs.registry.inc(ids.routed_sends);
        let bis = self.net.as_ref().map_or(0, |n| n.bisection_bytes);
        self.obs
            .registry
            .add(ids.bisection_bytes, bis - ids.prev_bisection);
        ids.prev_bisection = bis;
    }

    pub(crate) fn mark_closed(&mut self, conn: ConnId) {
        let now = self.now();
        self.conns.close(conn, now);
    }

    fn route_state(&self, a: HostId, b: HostId) -> RouteState {
        if !self.host_up(b) {
            return RouteState::HostDown;
        }
        // A netmodel can sever the *physical* path (e.g. a pod cut off
        // the fat-tree core) even while the logical topology still lists
        // the hosts as linked.
        if let Some(net) = &self.net {
            if a != b && !net.reachable(a.0, b.0) {
                return RouteState::Unreachable;
            }
        }
        match self.topo.hops(a, b) {
            Some(h) => RouteState::Hops(h),
            None => RouteState::Unreachable,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RouteState {
    Hops(u32),
    HostDown,
    Unreachable,
}

/// The complete simulation: [`WorldCore`] plus the event loop that
/// dispatches its queue to the programs.
pub struct World {
    core: WorldCore,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.core.now())
            .field("hosts", &self.core.hosts.len())
            .field("programs", &self.core.programs.len())
            .field("connections", &self.core.conns.len())
            .field("pending_events", &self.core.engine.pending())
            .finish()
    }
}

impl World {
    /// Creates an empty world with the given RNG seed; the OS constants
    /// and the latency model are [`OsConfig::default`] and
    /// [`LatencyModel::default`].
    pub fn new(seed: u64) -> Self {
        let mut obs = ObsHub::new(true);
        let ids = WorldObs::register(&mut obs.registry);
        World {
            core: WorldCore {
                engine: TimerWheel::new(),
                topo: Topology::new(),
                latency: LatencyModel::default(),
                rng: SimRng::seed_from(seed),
                config: OsConfig::default(),
                hosts: Vec::new(),
                fx: Effects::new(),
                conns: ConnTable::default(),
                services: Services::default(),
                programs: FastMap::default(),
                deferred: FastMap::default(),
                obs,
                ids,
                faults: None,
                net: None,
                net_obs: None,
                net_epoch: 0,
                seed,
            },
        }
    }

    /// Shared state accessor.
    pub fn core(&self) -> &WorldCore {
        &self.core
    }

    /// Mutable shared state accessor (benchmark hooks, trace control).
    pub fn core_mut(&mut self) -> &mut WorldCore {
        &mut self.core
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Registers a service so inetd can start it on any host.
    ///
    /// # Panics
    ///
    /// Panics if the service name or port is already registered.
    pub fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.core.services.register(name, port, factory);
    }

    /// Adds a host running the standard daemons (inetd) and returns its id.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = self.core.topo.add_host(spec);
        self.core.hosts.push(Kernel::new(self.core.now()));
        self.boot_daemons(id);
        let tick = self.core.config.load_tick;
        self.core.engine.schedule(tick, SimEvent::LoadTick(id));
        id
    }

    fn boot_daemons(&mut self, host: HostId) {
        let boot = self.core.config.daemon_boot_cost;
        let spec = SpawnSpec::new("inetd", Box::new(ppm_runtime::inetd::Inetd::new()));
        self.core
            .spawn(host, Pid::INIT, Uid::ROOT, spec, Some(boot))
            .expect("host is up during boot");
    }

    /// Adds an undirected link.
    pub fn add_link(&mut self, a: HostId, b: HostId) {
        self.core.topo.add_link(a, b);
    }

    /// Installs the bandwidth- and topology-aware network model. Call
    /// after every host has been added: the spec's links are resolved
    /// against the world's host names (in host-id order). From here on,
    /// remote deliveries are priced over the canonical route — per-link
    /// latency plus fair-share serialization — instead of the flat wire
    /// law, and the `net.*` metrics are registered.
    ///
    /// # Errors
    ///
    /// Returns the spec/graph error message (unknown endpoint, name
    /// collision); the world is unchanged in that case.
    pub fn install_netmodel(&mut self, spec: &NetSpec) -> Result<(), String> {
        let host_names: Vec<String> = self
            .core
            .topo
            .host_ids()
            .map(|h| self.core.topo.spec(h).name.clone())
            .collect();
        let net = NetModel::build(spec, &host_names, self.core.seed)?;
        let reg = &mut self.core.obs.registry;
        self.core.net_obs = Some(NetObs {
            bytes_on_link: reg.counter("net.bytes_on_link"),
            link_queue_us: reg.hist("net.link_queue_us"),
            congested_sends: reg.counter("net.congested_sends"),
            routed_sends: reg.counter("net.routed_sends"),
            drops: reg.counter("net.drops"),
            bisection_bytes: reg.counter("net.bisection_bytes"),
            prev_bisection: 0,
        });
        self.core.tracef(
            None,
            TraceCategory::Net,
            format_args!(
                "netmodel {} installed ({} hosts, {} switches, {} links)",
                net.name,
                host_names.len(),
                net.graph.node_names.len() - host_names.len(),
                net.graph.links.len(),
            ),
        );
        self.core.net = Some(net);
        Ok(())
    }

    /// Spawns a user process (as if from a login shell) with `Pid::INIT`
    /// as parent. Returns the pid.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::HostDown`] if the host is down.
    pub fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.core.spawn(host, Pid::INIT, uid, spec, None)
    }

    /// Schedules a host crash at `delay` from now.
    pub fn schedule_crash(&mut self, host: HostId, delay: SimDuration) {
        self.core.engine.schedule(delay, SimEvent::HostCrash(host));
    }

    /// Schedules a host restart at `delay` from now.
    pub fn schedule_restart(&mut self, host: HostId, delay: SimDuration) {
        self.core
            .engine
            .schedule(delay, SimEvent::HostRestart(host));
    }

    /// Schedules a link state change (partition / heal) at `delay` from now.
    pub fn schedule_link(&mut self, a: HostId, b: HostId, up: bool, delay: SimDuration) {
        self.core
            .engine
            .schedule(delay, SimEvent::LinkSet(a, b, up));
    }

    /// Installs a fault plan: schedules its timed faults on the event
    /// engine (plan times are absolute; past times fire immediately) and
    /// arms its probabilistic wire rules on a dedicated RNG stream. Every
    /// scheduled fault counts into the world's `faults.injected` counter
    /// up front; wire faults count as they fire.
    ///
    /// # Errors
    ///
    /// Returns a message naming any host the plan references but the
    /// world does not have; nothing is scheduled in that case.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        let resolve = |core: &WorldCore, name: &str| {
            core.host_by_name(name)
                .ok_or_else(|| format!("fault plan references unknown host {name:?}"))
        };
        // Validate every host first so a bad plan is all-or-nothing.
        for ev in &plan.events {
            match &ev.kind {
                FaultKind::Crash { host }
                | FaultKind::Restart { host }
                | FaultKind::Kill { host, .. } => {
                    resolve(&self.core, host)?;
                }
                FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                    resolve(&self.core, a)?;
                    resolve(&self.core, b)?;
                }
                FaultKind::NetLinkDown { link } | FaultKind::NetLinkUp { link } => {
                    match &self.core.net {
                        Some(net) if net.graph.link_by_name(link).is_some() => {}
                        Some(_) => {
                            return Err(format!("fault plan references unknown net link {link:?}"));
                        }
                        None => {
                            return Err(format!(
                                "fault plan cuts net link {link:?} but no topology model is installed"
                            ));
                        }
                    }
                }
            }
        }
        let now = self.core.now();
        for ev in &plan.events {
            let delay = ev.at.saturating_since(now);
            match &ev.kind {
                FaultKind::Crash { host } => {
                    let h = resolve(&self.core, host).expect("validated");
                    self.schedule_crash(h, delay);
                }
                FaultKind::Restart { host } => {
                    let h = resolve(&self.core, host).expect("validated");
                    self.schedule_restart(h, delay);
                }
                FaultKind::LinkDown { a, b } => {
                    let ha = resolve(&self.core, a).expect("validated");
                    let hb = resolve(&self.core, b).expect("validated");
                    self.schedule_link(ha, hb, false, delay);
                }
                FaultKind::LinkUp { a, b } => {
                    let ha = resolve(&self.core, a).expect("validated");
                    let hb = resolve(&self.core, b).expect("validated");
                    self.schedule_link(ha, hb, true, delay);
                }
                FaultKind::NetLinkDown { link } | FaultKind::NetLinkUp { link } => {
                    let idx = self
                        .core
                        .net
                        .as_ref()
                        .and_then(|n| n.graph.link_by_name(link))
                        .expect("validated");
                    let up = matches!(&ev.kind, FaultKind::NetLinkUp { .. });
                    self.core
                        .engine
                        .schedule(delay, SimEvent::NetLinkSet(idx, up));
                }
                FaultKind::Kill { host, command } => {
                    let h = resolve(&self.core, host).expect("validated");
                    self.core
                        .engine
                        .schedule(delay, SimEvent::KillCmd(h, command.clone()));
                }
            }
        }
        let faults = self.core.ids.faults_injected;
        if !plan.events.is_empty() {
            self.core.obs.registry.add(faults, plan.events.len() as u64);
        }
        let wire = WireFaults::new(plan);
        if !wire.is_empty() {
            self.core.faults = Some(wire);
        }
        Ok(())
    }

    /// Sends a signal "from outside" (e.g. a test acting as the user at a
    /// terminal) with the given credentials.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's permission and liveness checks.
    pub fn post_signal(
        &mut self,
        from_uid: Uid,
        target: ProcKey,
        signal: Signal,
    ) -> Result<(), SysError> {
        self.core.post_signal(from_uid, target, signal)
    }

    /// Runs until the event queue is quiet at or before `horizon`, then
    /// advances the clock to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((_, ev)) = self.core.engine.pop_until(horizon) {
            self.dispatch(ev);
        }
        self.core.engine.advance_to(horizon);
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let horizon = self.core.now() + d;
        self.run_until(horizon);
    }

    /// Processes a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.core.engine.pop() {
            Some((_, ev)) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    /// Invokes a program callback, honouring busy and stopped states:
    /// a stopped process accumulates its events until continued, a busy
    /// one sees them when its CPU burst ends.
    fn with_program(
        &mut self,
        key: ProcKey,
        reschedule: Option<SimEvent>,
        f: impl FnOnce(&mut dyn Program, &mut Sys<'_>),
    ) {
        if !self.core.is_alive(key) {
            return;
        }
        let p = self.core.kernel(key.0).get(key.1).expect("alive");
        let (state, busy_until) = (p.state, p.busy_until);
        if state == ProcState::Stopped {
            if let Some(ev) = reschedule {
                self.core.deferred.entry(key).or_default().push(ev);
            }
            return;
        }
        if busy_until > self.core.now() {
            if let Some(ev) = reschedule {
                self.core.engine.schedule_at(busy_until, ev);
                return;
            }
        }
        self.run_program(key, f);
    }

    /// Runs `f` on the program of `key` (if it has one) with syscall
    /// access. The program sits outside the table meanwhile, and goes
    /// back only if its process survived the callback.
    fn run_program(&mut self, key: ProcKey, f: impl FnOnce(&mut dyn Program, &mut Sys<'_>)) {
        let Some(mut program) = self.core.programs.remove(&key) else {
            return;
        };
        f(program.as_mut(), &mut Sys::new(&mut self.core, key));
        if self.core.is_alive(key) {
            self.core.programs.insert(key, program);
        }
    }

    fn dispatch(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::Start(key) => {
                if self.core.host_up(key.0)
                    && self
                        .core
                        .kernel_call(key.0, |k, now, fx| k.start(key.1, now, fx))
                {
                    self.with_program(key, None, |p, sys| p.on_start(sys));
                }
            }
            SimEvent::Timer(key, token, boot) => {
                // Pids restart at 2 after a crash: a timer that outlived
                // its boot would fire into whoever holds the pid now.
                if self.core.kernel(key.0).boot_count() != boot {
                    return;
                }
                let resched = SimEvent::Timer(key, token, boot);
                self.with_program(key, Some(resched), |p, sys| p.on_timer(sys, token));
            }
            SimEvent::Deliver { conn, to, data } => {
                // Data already on the wire is delivered even if the
                // connection closed meanwhile (TCP delivers data queued
                // before a FIN); only never-established connections drop.
                let alive_conn = self
                    .core
                    .conns
                    .get(conn)
                    .is_some_and(|c| c.state != ConnState::Connecting);
                if !alive_conn {
                    return;
                }
                if !self.core.is_alive(to) {
                    return;
                }
                // Accounting happens on actual handling (inside the
                // closure), so busy/stopped deferral cannot double-count.
                let resched = SimEvent::Deliver {
                    conn,
                    to,
                    data: data.clone(),
                };
                self.with_program(to, Some(resched), |p, sys| {
                    sys.account_msg_received(data.len());
                    p.on_message(sys, conn, data)
                });
            }
            SimEvent::ConnEstablish { conn } => self.handle_establish(conn),
            SimEvent::ConnFailed { conn, to, reason } => {
                self.core.kernel_mut(to.0).release_socket(to.1, conn);
                self.with_program(to, None, |p, sys| {
                    p.on_conn_event(sys, conn, ConnEvent::Failed(reason))
                });
            }
            SimEvent::ConnClosedNotify { conn, to } => {
                self.core.mark_closed(conn);
                self.core.kernel_mut(to.0).release_socket(to.1, conn);
                self.with_program(to, None, |p, sys| {
                    p.on_conn_event(sys, conn, ConnEvent::Closed)
                });
            }
            SimEvent::KernelFlush { to } => {
                let kernel = self.core.kernel_mut(to.0);
                let flush = |msgs: &[_]| (msgs.len(), encode_batch(msgs));
                let Some((count, data)) = kernel.drain_batch(to.1, flush) else {
                    return;
                };
                let batch = self.core.ids.kernel_batch_msgs;
                self.core.obs.registry.record(batch, count as u64);
                if count > 1 {
                    let flushed = Note::Flushed {
                        count,
                        tracer: to.1,
                    };
                    self.core.note(to.0, TraceCategory::Kernel, flushed);
                }
                self.dispatch(SimEvent::KernelBatch { to, data });
            }
            SimEvent::KernelBatch { to, data } => {
                let resched = SimEvent::KernelBatch {
                    to,
                    data: data.clone(),
                };
                self.with_program(to, Some(resched), |p, sys| p.on_kernel_batch(sys, data));
            }
            SimEvent::SignalDeliver { to, signal } => self.handle_signal(to, signal),
            SimEvent::ChildExit {
                parent,
                child,
                status,
            } => {
                self.with_program(parent, None, |p, sys| p.on_child_exit(sys, child, status));
            }
            SimEvent::LoadTick(host) => {
                if !self.core.host_up(host) {
                    return;
                }
                let now = self.core.now();
                let alpha = self.core.config.load_alpha();
                let k = self.core.kernel_mut(host);
                let runnable = k.runnable_count(now);
                k.update_load(runnable, alpha);
                let tick = self.core.config.load_tick;
                self.core.engine.schedule(tick, SimEvent::LoadTick(host));
            }
            SimEvent::HostCrash(host) => self.handle_crash(host),
            SimEvent::HostRestart(host) => self.handle_restart(host),
            SimEvent::KillCmd(host, prefix) => {
                if !self.core.host_up(host) {
                    return;
                }
                let mut pids: Vec<Pid> = self
                    .core
                    .kernel(host)
                    .processes()
                    .filter(|p| p.is_alive() && p.command.starts_with(&prefix))
                    .map(|p| p.pid)
                    .collect();
                pids.sort_unstable();
                self.core.tracef(
                    Some(host),
                    TraceCategory::Kernel,
                    format_args!("fault: kill {prefix}* ({} process(es))", pids.len()),
                );
                for pid in pids {
                    let _ = self.core.post_signal(Uid::ROOT, (host, pid), Signal::Kill);
                }
            }
            SimEvent::LinkSet(a, b, up) => {
                self.core.topo.set_link_up(a, b, up);
                self.core.net_epoch += 1;
                let now = self.core.now();
                self.core.obs.trace.record(
                    now,
                    None,
                    TraceCategory::Net,
                    format_args!(
                        "link {} <-> {} {}",
                        self.core.topo.spec(a).name,
                        self.core.topo.spec(b).name,
                        if up { "up" } else { "down" }
                    ),
                );
            }
            SimEvent::NetLinkSet(idx, up) => {
                let now = self.core.now();
                let Some(net) = self.core.net.as_mut() else {
                    return;
                };
                net.set_link_up(idx, up);
                self.core.net_epoch += 1;
                self.core.obs.trace.record(
                    now,
                    None,
                    TraceCategory::Net,
                    format_args!(
                        "net link {} {}",
                        net.graph.links[idx as usize].name,
                        if up { "up" } else { "down" }
                    ),
                );
            }
        }
    }

    fn handle_establish(&mut self, conn: ConnId) {
        let (client, server, port, state) = match self.core.conns.get(conn) {
            Some(c) => (c.client, c.server, c.port, c.state),
            None => return,
        };
        if state != ConnState::Connecting {
            return;
        }
        // Re-validate: the server must still be listening (its exit or its
        // host's crash unpublishes the port) and the route must still exist.
        let still_listening = self.core.host_up(server.0)
            && self.core.kernel(server.0).listener(port) == Some(server.1);
        let routed = self.core.topo.hops(client.0, server.0).is_some()
            && self
                .core
                .net
                .as_ref()
                .is_none_or(|n| n.reachable(client.0 .0, server.0 .0));
        if !still_listening || !routed {
            self.core.mark_closed(conn);
            self.core
                .kernel_mut(client.0)
                .release_socket(client.1, conn);
            let reason = if routed {
                SysError::ConnectionRefused
            } else {
                SysError::Unreachable
            };
            self.with_program(client, None, |p, sys| {
                p.on_conn_event(sys, conn, ConnEvent::Failed(reason))
            });
            return;
        }
        let now = self.core.now();
        self.core.conns.establish(conn, now);
        self.core
            .kernel_mut(server.0)
            .alloc_fd(server.1, FdKind::Socket { conn });
        let established = Note::Established {
            conn,
            from: &self.core.topo.spec(client.0).name,
            client: client.1,
            to: &self.core.topo.spec(server.0).name,
            port,
        };
        self.core
            .obs
            .trace
            .note(now, Some(server.0), TraceCategory::Net, established);
        self.with_program(server, None, |p, sys| {
            p.on_conn_event(sys, conn, ConnEvent::Accepted { peer: client, port })
        });
        self.with_program(client, None, |p, sys| {
            p.on_conn_event(sys, conn, ConnEvent::Established)
        });
    }

    fn handle_signal(&mut self, to: ProcKey, signal: Signal) {
        if !self.core.is_alive(to) {
            return;
        }
        let (host, pid) = to;
        let catchable = self
            .core
            .kernel_call(host, |k, now, fx| k.deliver_signal(pid, signal, now, fx));
        if catchable {
            // Give the program a chance, else default.
            let mut action = SigAction::Default;
            self.run_program(to, |p, sys| action = p.on_signal(sys, signal));
            self.core.kernel_call(host, |k, now, fx| {
                k.finish_signal(pid, signal, action, now, fx);
            });
        }
    }

    fn handle_crash(&mut self, host: HostId) {
        if !self.core.host_up(host) {
            return;
        }
        self.core.topo.set_host_up(host, false);
        if let Some(net) = self.core.net.as_mut() {
            net.set_host_up(host.0, false);
        }
        self.core.net_epoch += 1;
        self.core
            .tracef(Some(host), TraceCategory::Net, format_args!("host crashed"));
        // Break all connections touching the host; survivors learn after
        // the detection interval.
        for id in self.core.conns.held_on(host) {
            let c = self.core.conns.get(id).expect("indexed");
            let (client, server) = (c.client, c.server);
            self.core.mark_closed(id);
            let survivor = if client.0 == host { server } else { client };
            if survivor.0 != host && self.core.host_up(survivor.0) {
                let jf = self.core.config.cost_jitter;
                let base = self.core.config.break_detection;
                let delay = self.core.rng.jitter(base, jf);
                self.core.engine.schedule(
                    delay,
                    SimEvent::ConnClosedNotify {
                        conn: id,
                        to: survivor,
                    },
                );
            }
        }
        // All local process activity ceases; nothing is notified locally.
        // The crash instant and the running service set go to stable
        // storage (the simulated disk survives the power failure): a
        // restart re-runs the services, and a respawned daemon can read
        // how long the host was dark.
        let now = self.core.now();
        self.core.kernel_mut(host).crash(now);
        self.core.programs.retain(|k, _| k.0 != host);
        self.core.deferred.retain(|k, _| k.0 != host);
    }

    fn handle_restart(&mut self, host: HostId) {
        if self.core.host_up(host) {
            return;
        }
        self.core.topo.set_host_up(host, true);
        if let Some(net) = self.core.net.as_mut() {
            net.set_host_up(host.0, true);
        }
        self.core.net_epoch += 1;
        let now = self.core.now();
        let names = self.core.kernel_mut(host).reboot(now);
        self.core.tracef(
            Some(host),
            TraceCategory::Net,
            format_args!("host restarted"),
        );
        self.boot_daemons(host);
        // Re-run the services that were up at crash time (pmd comes back
        // without waiting for traffic), the way init replays /etc/rc.
        for name in names {
            let _ = Sys::new(&mut self.core, (host, Pid::INIT)).spawn_service(&name);
        }
        let tick = self.core.config.load_tick;
        self.core.engine.schedule(tick, SimEvent::LoadTick(host));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_simnet::topology::CpuClass;
    use std::sync::{Arc, Mutex};

    fn two_hosts() -> (World, HostId, HostId) {
        let mut w = World::new(11);
        let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
        let b = w.add_host(HostSpec::new("b", CpuClass::Vax750));
        w.add_link(a, b);
        (w, a, b)
    }

    #[test]
    fn add_host_boots_inetd() {
        let (mut w, a, _) = two_hosts();
        w.run_for(SimDuration::from_millis(100));
        let inetd = w
            .core()
            .kernel(a)
            .processes()
            .find(|p| p.command == "inetd")
            .map(|p| p.pid);
        assert!(inetd.is_some());
        // inetd listens on its well-known port
        assert!(w.core().kernel(a).listener(Port::INETD).is_some());
    }

    #[test]
    fn spawn_user_creates_running_process_after_delay() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Embryo
        );
        w.run_for(SimDuration::from_millis(200));
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Running
        );
    }

    #[test]
    fn kill_terminates_and_stop_cont_toggle() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        w.post_signal(Uid(100), (a, pid), Signal::Stop).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Stopped
        );
        w.post_signal(Uid(100), (a, pid), Signal::Cont).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Running
        );
        w.post_signal(Uid(100), (a, pid), Signal::Kill).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.core().is_alive((a, pid)));
    }

    #[test]
    fn signal_permission_checked() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        assert_eq!(
            w.post_signal(Uid(200), (a, pid), Signal::Kill),
            Err(SysError::PermissionDenied)
        );
        assert!(w.post_signal(Uid::ROOT, (a, pid), Signal::Kill).is_ok());
    }

    #[test]
    fn crash_kills_processes_and_restart_reboots() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        w.schedule_crash(a, SimDuration::from_millis(10));
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.core().host_up(a));
        assert!(!w.core().is_alive((a, pid)));
        w.schedule_restart(a, SimDuration::from_millis(10));
        w.run_for(SimDuration::from_millis(200));
        assert!(w.core().host_up(a));
        assert_eq!(w.core().kernel(a).boot_count(), 2);
        // inetd is back
        assert!(w.core().kernel(a).listener(Port::INETD).is_some());
    }

    #[test]
    fn load_average_rises_with_cpu_bound_work() {
        let (mut w, a, _) = two_hosts();
        for _ in 0..2 {
            w.spawn_user(a, Uid(1), SpawnSpec::inert("spin").cpu_bound(true))
                .unwrap();
        }
        w.run_for(SimDuration::from_secs(300));
        let la = w.core().kernel(a).load_avg();
        assert!((1.8..2.2).contains(&la), "la={la}");
    }

    struct Listener(Port);
    impl Program for Listener {
        fn on_start(&mut self, sys: &mut dyn ppm_runtime::sys::Sys) {
            sys.listen(self.0).expect("port free");
        }
    }

    /// Dials once and logs what happens to the connection.
    struct Dialer {
        target: HostId,
        port: Port,
        log: Arc<Mutex<Vec<ConnEvent>>>,
    }
    impl Program for Dialer {
        fn on_start(&mut self, sys: &mut dyn ppm_runtime::sys::Sys) {
            sys.connect(self.target, self.port).expect("connect starts");
        }
        fn on_conn_event(&mut self, _: &mut dyn ppm_runtime::sys::Sys, _: ConnId, ev: ConnEvent) {
            self.log.lock().unwrap().push(ev);
        }
    }

    /// The index lists a `Connecting` record under the listening process,
    /// as the full scan did: the listener's exit breaks the pending
    /// connection before `handle_establish` sees it, and the client is
    /// told `Closed` — never `Established`, never `Failed`.
    #[test]
    fn server_exit_with_a_syn_in_flight_breaks_the_pending_connection() {
        let (mut w, a, b) = two_hosts();
        let server = w
            .spawn_user(
                b,
                Uid(1),
                SpawnSpec::new("srv", Box::new(Listener(Port(9)))),
            )
            .unwrap();
        w.run_for(SimDuration::from_millis(200));
        let log = Arc::new(Mutex::new(Vec::new()));
        let dialer = Dialer {
            target: b,
            port: Port(9),
            log: Arc::clone(&log),
        };
        let client = w
            .spawn_user(a, Uid(1), SpawnSpec::new("dial", Box::new(dialer)))
            .unwrap();
        while w.core().connections().count() == 0 {
            assert!(w.step(), "the dialer starts");
        }
        let id = ConnId(1);
        assert_eq!(
            w.core().connection(id).unwrap().state,
            ConnState::Connecting
        );
        let held = |w: &World, key| w.core().conn_table().held_by(key).collect::<Vec<_>>();
        assert_eq!(held(&w, (b, server)), [id]);
        assert_eq!(held(&w, (a, client)), [id]);

        w.core_mut().do_exit((b, server), ExitStatus::Code(0));
        assert_eq!(w.core().connection(id).unwrap().state, ConnState::Closed);
        assert_eq!(w.core().conn_table().held_len(), 0);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(*log.lock().unwrap(), [ConnEvent::Closed]);
    }

    #[test]
    fn world_debug_is_nonempty() {
        let (w, _, _) = two_hosts();
        let s = format!("{w:?}");
        assert!(s.contains("World"));
        assert!(s.contains("hosts"));
    }
}
