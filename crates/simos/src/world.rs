//! The simulation world: hosts, kernels, wires, and the event loop.
//!
//! [`World`] owns everything: the discrete-event engine, the topology, one
//! [`Kernel`] per host, all live connections, and the [`Program`] objects
//! attached to processes. Its event loop pops one event at a time, mutates
//! kernel/network state, and invokes at most one program handler — so a
//! run with a given seed is exactly reproducible. It is the simulated
//! backend of the [`Runtime`] facade itself, and the [`Backend`] of the
//! one host driver ([`ppm_runtime::host`]), which runs the programs: the
//! world supplies its virtual clock, its timer wheel, the modelled wire,
//! the topology's host table, the seeded RNG and cost model, and the
//! price of every woken event.
//!
//! Programs never call each other directly: every interaction (message,
//! signal, child exit, kernel event) becomes a scheduled event, mirroring
//! the paper's message-based LPM design.

use std::fmt;

use bytes::Bytes;
use ppm_proto::kernel_wire::{encode_kernel_batch, walk_kernel_batch};
use ppm_runtime::host::{After, Backend, Caller, Driver, Hosts, Wake};
use ppm_runtime::ids::CpuClass;
use ppm_runtime::obs::{CounterId, HistId, HubRef, MetricRef, ObsHub, Registry, Section};
use ppm_runtime::rt::{Runtime, ServiceFactory, Services};
use ppm_runtime::sys::Sys as _;
use ppm_runtime::trace::{Note, TraceCategory, TraceLog};
use ppm_simnet::bandwidth::{NetModel, Transfer};
use ppm_simnet::engine::{EventId, TimerWheel};
use ppm_simnet::fault::{FaultKind, FaultPlan, WireDecision, WireFaults};
use ppm_simnet::latency::LatencyModel;
use ppm_simnet::rng::SimRng;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{HostId, HostSpec, NetSpec, Topology};

use crate::config::OsConfig;
use crate::ids::{ConnId, Pid, Port, Uid};
use ppm_runtime::conn::{ConnState, ConnTable, Connection, Tell};
use ppm_runtime::kernel::Kernel;
use ppm_runtime::program::{ConnEvent, ProcKey, Program, SpawnSpec, SysError};
use ppm_runtime::signal::Signal;

/// Events flowing through the engine. Programs see the typed callbacks
/// of [`Program`] instead; the checker reads them to name, digest and
/// copy its moves ([`World::moves`]).
#[derive(Debug, Clone, Hash)]
pub enum SimEvent {
    /// What the host driver runs for one process: a start, a timer, a
    /// message, a kernel flush or batch, a signal, a child's exit.
    Wake(ProcKey, Wake),
    ConnEstablish {
        conn: ConnId,
    },
    /// Tell one end what became of its connection (`Failed`, `Closed`).
    Tell(Tell),
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

/// What a pending event advances: one of the FIFO inputs the paper gives
/// a process (a connection's direction, its start, its kernel socket,
/// its child exits, its signals), the world-wide timer stream, or one
/// staged fault. Only a stream's earliest event is a move
/// ([`World::moves`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stream {
    /// A connection's messages and notices toward one end.
    Conn(ConnId, ProcKey),
    /// A process's start.
    Start(ProcKey),
    /// A process's kernel socket: its flushes and batches.
    Kernel(ProcKey),
    /// A process's child-exit notices.
    ChildExits(ProcKey),
    /// The signals posted to a process.
    Signals(ProcKey),
    /// Every timer of every process.
    Timers,
    /// A crash, restart, kill or link change, each its own stream.
    Fault(EventId),
}

/// One move: the earliest pending event of one [`Stream`].
#[derive(Debug, Clone, Copy)]
pub struct Move<'a> {
    /// The queue's id of the event.
    pub id: EventId,
    /// When the sim's own run fires it.
    pub at: SimTime,
    /// The stream it heads.
    pub stream: Stream,
    /// The event.
    pub event: &'a SimEvent,
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
    /// The most counters and histograms the world's registry holds: its
    /// own, [`NetObs`]'s and `kernel.delivery_us`.
    const COUNTERS: usize = 3 + 5;
    const HISTS: usize = 1 + 1 + 1;

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
}

/// Earliest admissible arrival time of the next message on a connection,
/// per direction ([`Connection::toward`]), enforcing FIFO despite
/// jittered latencies: the sim's transport beside each record.
pub type Floors = [SimTime; 2];

/// The simulated world: its state, which syscalls operate on, and the
/// event loop that dispatches its queue to the host driver.
pub struct World {
    // A hierarchical timer wheel: the short-deadline RPC timer population
    // (retransmits, handler slots, housekeeping) lands in the wheel arrays;
    // far-future deadlines sit in its internal overflow heap.
    pub(crate) engine: TimerWheel<SimEvent>,
    pub(crate) topo: Topology,
    pub(crate) latency: LatencyModel,
    pub(crate) rng: SimRng,
    pub(crate) config: OsConfig,
    /// One kernel per host (all process, signal and kernel-event
    /// semantics live there), the programs and the held events: the
    /// host driver's table; this world only schedules what it asks for.
    pub(crate) hosts: Hosts,
    pub(crate) conns: ConnTable<Floors>,
    pub(crate) services: Services,
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
    /// `kernel.delivery_us`, once [`World::time_kernel_delivery`] asked.
    kernel_delivery: Option<HistId>,
    /// Bumped whenever reachability may have changed (link cut/heal,
    /// named net-link cut/heal, host crash/restart). Programs compare it
    /// against a remembered value to revalidate cached routes.
    pub(crate) net_epoch: u64,
    /// The world seed, kept so a late-installed netmodel can derive its
    /// own loss stream from it.
    pub(crate) seed: u64,
}

impl World {
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
        self.hosts.kernel(host)
    }

    /// Mutable kernel of a host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown host id.
    pub fn kernel_mut(&mut self, host: HostId) -> &mut Kernel {
        self.hosts.kernel_mut(host)
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

    /// The connection table, with its index of the open connections.
    pub fn conn_table(&self) -> &ConnTable<Floors> {
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

    /// Scales a nominal (idle reference machine) CPU cost to this host's
    /// class and current load, with jitter.
    pub(crate) fn scaled_cpu_cost(&mut self, host: HostId, nominal: SimDuration) -> SimDuration {
        let cpu = self.topo.spec(host).cpu;
        let la = self.kernel(host).load_avg();
        let scaled = nominal.mul_f64(self.latency.cpu_scale(cpu, la));
        let jitter = self.config.cost_jitter;
        self.rng.jitter(scaled, jitter)
    }

    /// The current instant of the virtual clock.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    // ---- networking ----------------------------------------------------

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

    /// Records one routed delivery into the `net.*` metrics.
    fn note_net_send(&mut self, bytes: u64, queue_us: u64, links: u32, bisection: u64) {
        let Some(ids) = &self.net_obs else {
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
        self.obs.registry.add(ids.bisection_bytes, bisection);
    }

    /// Records one lossy-link drop into the `net.*` metrics. The bytes
    /// still occupied the links up to the drop, so they count toward
    /// the bisection too.
    fn note_net_drop(&mut self, bisection: u64) {
        let Some(ids) = &self.net_obs else {
            return;
        };
        self.obs.registry.inc(ids.drops);
        self.obs.registry.inc(ids.routed_sends);
        self.obs.registry.add(ids.bisection_bytes, bisection);
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
    /// Creates an empty world with the given RNG seed; the OS constants
    /// and the latency model are [`OsConfig::default`] and
    /// [`LatencyModel::default`]. Its trace log starts off, as the other
    /// backends' do: a reader turns it on through
    /// [`World::obs_mut`] before the lines it wants are written.
    pub fn new(seed: u64) -> Self {
        let mut obs = ObsHub::new(false);
        obs.registry = Registry::with_capacity(WorldObs::COUNTERS, WorldObs::HISTS);
        let ids = WorldObs::register(&mut obs.registry);
        World {
            engine: TimerWheel::new(),
            topo: Topology::new(),
            latency: LatencyModel::default(),
            rng: SimRng::seed_from(seed),
            config: OsConfig::default(),
            hosts: Hosts::default(),
            conns: ConnTable::default(),
            services: Services::default(),
            obs,
            ids,
            faults: None,
            net: None,
            net_obs: None,
            kernel_delivery: None,
            net_epoch: 0,
            seed,
        }
    }

    /// The world itself, for `benchmark/`, which reads `world().core()`.
    pub fn core(&self) -> &Self {
        self
    }

    /// Adds a host linked to nothing, running the standard daemons
    /// (inetd), and returns its id: the sim's own host, wired with
    /// [`World::add_link`]. The facade's [`Runtime::add_host`] links
    /// the new host to every other.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = self.topo.add_host(spec);
        self.hosts.add(Kernel::new(self.now()));
        self.boot_daemons(id);
        let tick = self.config.load_tick;
        self.engine.schedule(tick, SimEvent::LoadTick(id));
        id
    }

    fn boot_daemons(&mut self, host: HostId) {
        let boot = self.config.daemon_boot_cost;
        let spec = SpawnSpec::new("inetd", Box::new(ppm_runtime::inetd::Inetd::new()));
        self.fork(host, Pid::INIT, Uid::ROOT, spec, Some(boot))
            .expect("host is up during boot");
    }

    /// Adds an undirected link.
    pub fn add_link(&mut self, a: HostId, b: HostId) {
        self.topo.add_link(a, b);
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
            .topo
            .host_ids()
            .map(|h| self.topo.spec(h).name.clone())
            .collect();
        let net = NetModel::build(spec, &host_names, self.seed)?;
        let reg = &mut self.obs.registry;
        self.net_obs = Some(NetObs {
            bytes_on_link: reg.counter("net.bytes_on_link"),
            link_queue_us: reg.hist("net.link_queue_us"),
            congested_sends: reg.counter("net.congested_sends"),
            routed_sends: reg.counter("net.routed_sends"),
            drops: reg.counter("net.drops"),
            bisection_bytes: reg.counter("net.bisection_bytes"),
        });
        self.tracef(
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
        self.net = Some(net);
        Ok(())
    }

    /// Registers `kernel.delivery_us` (Table 1): from here on, each kernel
    /// message's delivery time, queued to handed to its tracer with any
    /// hold, is recorded. Unregistered, metrics stay as they were.
    pub fn time_kernel_delivery(&mut self) {
        self.kernel_delivery = Some(self.obs.registry.hist("kernel.delivery_us"));
    }

    /// The event `fault` schedules: its host names resolved to ids, a
    /// netmodel link name to the link's index. The one resolver behind
    /// [`World::schedule_fault`] and [`World::apply_fault_plan`].
    fn fault_event(&self, fault: &FaultKind) -> Result<SimEvent, String> {
        let verb = fault.verb();
        let host = |name: &str| {
            self.host_by_name(name)
                .ok_or_else(|| format!("{verb} names unknown host {name:?}"))
        };
        let link = |name: &str| match &self.net {
            Some(net) => net
                .graph
                .link_by_name(name)
                .ok_or_else(|| format!("{verb} names unknown net link {name:?}")),
            None => Err(format!(
                "{verb} names net link {name:?} but no topology model is installed"
            )),
        };
        use FaultKind::*;
        Ok(match fault {
            Crash { host: h } => SimEvent::HostCrash(host(h)?),
            Restart { host: h } => SimEvent::HostRestart(host(h)?),
            LinkDown { a, b } => SimEvent::LinkSet(host(a)?, host(b)?, false),
            LinkUp { a, b } => SimEvent::LinkSet(host(a)?, host(b)?, true),
            NetLinkDown { link: l } => SimEvent::NetLinkSet(link(l)?, false),
            NetLinkUp { link: l } => SimEvent::NetLinkSet(link(l)?, true),
            Kill { host: h, command } => SimEvent::KillCmd(host(h)?, command.to_string()),
        })
    }

    /// Schedules `fault` at `delay` from now. Counts nothing into
    /// `faults.injected`: a plan counts its faults when it is installed.
    ///
    /// # Errors
    ///
    /// A message naming a host or net link the world does not have;
    /// nothing is scheduled then.
    pub fn schedule_fault(&mut self, fault: &FaultKind, delay: SimDuration) -> Result<(), String> {
        let event = self.fault_event(fault)?;
        self.engine.schedule(delay, event);
        Ok(())
    }

    /// Installs a fault plan: schedules its timed faults on the event
    /// engine (plan times are absolute; past times fire immediately) and
    /// arms its probabilistic wire rules on a dedicated RNG stream. Every
    /// scheduled fault counts into the world's `faults.injected` counter
    /// up front; wire faults count as they fire.
    ///
    /// # Errors
    ///
    /// Returns a message naming any host or net link the plan references
    /// but the world does not have; nothing is scheduled in that case.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        // Every fault resolves before any is scheduled: all or nothing.
        // Checked first, not collected: a vector would cost more than a
        // second lookup of a few names.
        for ev in &plan.events {
            self.fault_event(&ev.kind)?;
        }
        let now = self.now();
        for ev in &plan.events {
            let delay = ev.at.saturating_since(now);
            self.schedule_fault(&ev.kind, delay)
                .expect("resolved above");
        }
        let faults = self.ids.faults_injected;
        if !plan.events.is_empty() {
            self.obs.registry.add(faults, plan.events.len() as u64);
        }
        let wire = WireFaults::new(plan);
        if !wire.is_empty() {
            self.faults = Some(wire);
        }
        Ok(())
    }

    /// Runs until the event queue is quiet at or before `horizon`, then
    /// advances the clock to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((_, ev)) = self.engine.pop_until(horizon) {
            self.dispatch(ev);
        }
        self.engine.advance_to(horizon);
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let horizon = self.now() + d;
        self.run_until(horizon);
    }

    /// Processes a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.engine.pop() {
            Some((_, ev)) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    /// Every pending event but the load ticks, in no particular order,
    /// each as the move it is once it heads its stream.
    pub fn pending(&self) -> Vec<Move<'_>> {
        let pending = self.engine.events();
        pending
            .filter_map(|(id, at, e)| self.as_move(id, at, e))
            .collect()
    }

    /// The head of every stream of pending events, in the `(at, seq)`
    /// order of the heads: move 0 is what [`World::step`] fires next,
    /// unless a load tick comes first. A load tick is no move.
    pub fn moves(&self) -> Vec<Move<'_>> {
        let mut heads: Vec<Move<'_>> = Vec::new();
        for m in self.pending() {
            match heads.iter_mut().find(|h| h.stream == m.stream) {
                Some(h) if (m.at, m.id) < (h.at, h.id) => *h = m,
                Some(_) => {}
                None => heads.push(m),
            }
        }
        heads.sort_unstable_by_key(|m| (m.at, m.id));
        heads
    }

    /// A pending event as the move it is once it heads its stream, the
    /// stream read off the event itself; `None` for a load tick.
    fn as_move<'a>(&self, id: EventId, at: SimTime, event: &'a SimEvent) -> Option<Move<'a>> {
        let stream = match event {
            SimEvent::Wake(key, wake) => match wake {
                Wake::Message { conn, .. } | Wake::Told { conn, .. } => Stream::Conn(*conn, *key),
                Wake::Start => Stream::Start(*key),
                Wake::Flush | Wake::Batch(_) => Stream::Kernel(*key),
                Wake::ChildExit { .. } => Stream::ChildExits(*key),
                Wake::Signal(_) => Stream::Signals(*key),
                Wake::Timer { .. } => Stream::Timers,
            },
            // The handshake heads the client's direction: nothing travels
            // toward the server before it.
            SimEvent::ConnEstablish { conn } => {
                let client = self.conns.get(*conn).expect("a record per id").client;
                Stream::Conn(*conn, client)
            }
            SimEvent::Tell(told) => Stream::Conn(told.conn, told.to),
            SimEvent::LoadTick(_) => return None,
            SimEvent::HostCrash(_)
            | SimEvent::HostRestart(_)
            | SimEvent::LinkSet(..)
            | SimEvent::NetLinkSet(..)
            | SimEvent::KillCmd(..) => Stream::Fault(id),
        };
        Some(Move {
            id,
            at,
            stream,
            event,
        })
    }

    /// Fires move `i` of [`World::moves`] ([`World::fire_id`]); panics if
    /// there is none.
    pub fn fire(&mut self, i: usize) {
        let id = self.moves()[i].id;
        self.fire_id(id);
    }

    /// Fires the pending event `id` — a move's, out of time order if it
    /// is not move 0: first each load tick due before it, then the
    /// event. The clock moves to the later of now and the event's
    /// instant. An event at the head of the queue, no earlier than now,
    /// is popped as [`World::step`] pops it, so firing move 0 until none
    /// is left plays the sim's own run, engine counters included.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not pending.
    pub fn fire_id(&mut self, id: EventId) {
        loop {
            // One pass finds the queue's head, the event's instant and
            // the earliest load tick due before it.
            let earlier = |k, was: Option<(SimTime, EventId)>| Some(was.map_or(k, |w| w.min(k)));
            let (mut head, mut at, mut tick) = (None, None, None);
            for (t, a, e) in self.engine.events() {
                head = earlier((a, t), head);
                if t == id {
                    at = Some(a);
                }
                if matches!(e, SimEvent::LoadTick(_)) {
                    tick = earlier((a, t), tick);
                }
            }
            let at = at.expect("a pending event");
            let next = tick.filter(|&k| k < (at, id)).unwrap_or((at, id));
            let ev = if Some(next) == head && next.0 >= self.now() {
                self.engine.pop().expect("the head").1
            } else {
                let (at, ev) = self.engine.take(next.1).expect("a pending event");
                self.engine.advance_to(at);
                ev
            };
            self.dispatch(ev);
            if next.1 == id {
                return;
            }
        }
    }

    /// Schedules a copy of move `i`'s event at its instant, behind the
    /// original in its stream: a retransmitted frame, for the checker.
    /// Panics if there is no move `i`.
    pub fn repeat(&mut self, i: usize) {
        let (at, event) = {
            let m = &self.moves()[i];
            (m.at, m.event.clone())
        };
        self.engine.schedule_at(at, event);
    }

    fn dispatch(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::Wake(key, wake) => self.wake(key, wake),
            SimEvent::ConnEstablish { conn } => self.handle_establish(conn),
            SimEvent::Tell(told) => self.tell(told),
            SimEvent::LoadTick(host) => {
                if !self.host_up(host) {
                    return;
                }
                let now = self.now();
                let alpha = self.config.load_alpha();
                let k = self.kernel_mut(host);
                let runnable = k.runnable_count(now);
                k.update_load(runnable, alpha);
                let tick = self.config.load_tick;
                self.engine.schedule(tick, SimEvent::LoadTick(host));
            }
            SimEvent::HostCrash(host) => self.handle_crash(host),
            SimEvent::HostRestart(host) => self.handle_restart(host),
            SimEvent::KillCmd(host, prefix) => {
                if !self.host_up(host) {
                    return;
                }
                let mut pids: Vec<Pid> = self
                    .kernel(host)
                    .processes()
                    .filter(|p| p.is_alive() && p.command.starts_with(&prefix))
                    .map(|p| p.pid)
                    .collect();
                pids.sort_unstable();
                self.tracef(
                    Some(host),
                    TraceCategory::Kernel,
                    format_args!("fault: kill {prefix}* ({} process(es))", pids.len()),
                );
                for pid in pids {
                    let _ = self.post_signal(Uid::ROOT, (host, pid), Signal::Kill);
                }
            }
            SimEvent::LinkSet(a, b, up) => {
                self.topo.set_link_up(a, b, up);
                self.net_epoch += 1;
                let now = self.now();
                self.obs.trace.record(
                    now,
                    None,
                    TraceCategory::Net,
                    format_args!(
                        "link {} <-> {} {}",
                        self.topo.spec(a).name,
                        self.topo.spec(b).name,
                        if up { "up" } else { "down" }
                    ),
                );
            }
            SimEvent::NetLinkSet(idx, up) => {
                let now = self.now();
                let Some(net) = self.net.as_mut() else {
                    return;
                };
                net.set_link_up(idx, up);
                self.net_epoch += 1;
                self.obs.trace.record(
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

    /// Hands one end what a connection transition told it; an end told
    /// `Closed` gives its descriptor back first.
    fn tell(&mut self, told: Tell) {
        let Tell { conn, to, event } = told;
        if event == ConnEvent::Closed {
            let (now, kernel) = (self.now(), self.hosts.kernel_mut(to.0));
            self.conns.told_closed(conn, to, now, kernel);
        }
        self.wake(to, Wake::Told { conn, event });
    }

    fn handle_establish(&mut self, conn: ConnId) {
        let c = self.conns.get(conn);
        let Some(c) = c.filter(|c| c.state == ConnState::Connecting) else {
            return;
        };
        let (client, server, port) = (c.client, c.server, c.port);
        // Re-validate: the server must still be listening (its exit or its
        // host's crash unpublishes the port) and the route must still exist.
        let still_listening =
            self.host_up(server.0) && self.kernel(server.0).listener(port) == Some(server.1);
        let routed = self.topo.hops(client.0, server.0).is_some()
            && self
                .net
                .as_ref()
                .is_none_or(|n| n.reachable(client.0 .0, server.0 .0));
        let now = self.now();
        if !still_listening || !routed {
            let reason = if routed {
                SysError::ConnectionRefused
            } else {
                SysError::Unreachable
            };
            let kernel = self.hosts.kernel_mut(client.0);
            let told = self.conns.refuse(conn, reason, now, kernel);
            told.into_iter().for_each(|t| self.tell(t));
            return;
        }
        let kernel = self.hosts.kernel_mut(server.0);
        let told = self.conns.establish(conn, now, kernel);
        let established = Note::Established {
            conn,
            from: &self.topo.spec(client.0).name,
            client: client.1,
            to: &self.topo.spec(server.0).name,
            port,
        };
        self.obs
            .trace
            .note(now, Some(server.0), TraceCategory::Net, established);
        told.into_iter().flatten().for_each(|t| self.tell(t));
    }

    fn handle_crash(&mut self, host: HostId) {
        if !self.host_up(host) {
            return;
        }
        self.topo.set_host_up(host, false);
        if let Some(net) = self.net.as_mut() {
            net.set_host_up(host.0, false);
        }
        self.net_epoch += 1;
        self.tracef(Some(host), TraceCategory::Net, format_args!("host crashed"));
        // Break all connections touching the host; survivors learn after
        // the detection interval.
        let now = self.now();
        for told in self.conns.host_crash(host, now) {
            let jf = self.config.cost_jitter;
            let base = self.config.break_detection;
            let delay = self.rng.jitter(base, jf);
            self.engine.schedule(delay, SimEvent::Tell(told));
        }
        // All local process activity ceases; nothing is notified locally.
        // The crash instant and the running service set go to stable
        // storage (the simulated disk survives the power failure): a
        // restart re-runs the services, and a respawned daemon can read
        // how long the host was dark.
        self.kernel_mut(host).crash(now);
        self.hosts.drop_host(host);
    }

    fn handle_restart(&mut self, host: HostId) {
        if self.host_up(host) {
            return;
        }
        self.topo.set_host_up(host, true);
        if let Some(net) = self.net.as_mut() {
            net.set_host_up(host.0, true);
        }
        self.net_epoch += 1;
        let now = self.now();
        let names = self.kernel_mut(host).reboot(now);
        self.tracef(
            Some(host),
            TraceCategory::Net,
            format_args!("host restarted"),
        );
        self.boot_daemons(host);
        // Re-run the services that were up at crash time (pmd comes back
        // without waiting for traffic), the way init replays /etc/rc.
        for name in names {
            let _ = Caller::new(self, (host, Pid::INIT)).spawn_service(&name);
        }
        let tick = self.config.load_tick;
        self.engine.schedule(tick, SimEvent::LoadTick(host));
    }
}

#[derive(Debug, Clone, Copy)]
enum RouteState {
    Hops(u32),
    HostDown,
    Unreachable,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("hosts", &self.hosts.iter().count())
            .field("programs", &self.hosts.program_count())
            .field("connections", &self.conns.len())
            .field("pending_events", &self.engine.pending())
            .finish()
    }
}

/// A world is its own: what reads or drives "the sim's world" takes any
/// runtime that holds one.
impl AsRef<World> for World {
    fn as_ref(&self) -> &World {
        self
    }
}

impl AsMut<World> for World {
    fn as_mut(&mut self) -> &mut World {
        self
    }
}

impl Runtime for World {
    fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.services.register(name, port, factory);
    }

    /// The facade's host: [`World::add_host`], then a link to every host
    /// already there (one LAN segment).
    fn add_host(&mut self, name: &str, cpu: CpuClass) -> HostId {
        let id = World::add_host(self, HostSpec::new(name, cpu));
        for other in 0..id.0 {
            self.add_link(HostId(other), id);
        }
        id
    }

    /// A child of init, started after the fork+exec delay.
    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if self.hosts.get(host).is_none() {
            return Err(SysError::NoSuchHost);
        }
        self.fork(host, Pid::INIT, uid, spec, None)
    }

    /// Checked by the kernel; delivered after the signal latency.
    fn post_signal(&mut self, from: Uid, target: ProcKey, signal: Signal) -> Result<(), SysError> {
        let kernel = self.hosts.get(target.0);
        let kernel = kernel.ok_or(SysError::NoSuchHost)?;
        if !self.host_up(target.0) {
            return Err(SysError::HostDown);
        }
        kernel.may_signal(from, target.1)?;
        self.schedule(target, Wake::Signal(signal), After::Priced);
        Ok(())
    }

    fn find_proc(&self, host: HostId, uid: Uid, prefix: &str) -> Option<Pid> {
        self.hosts.get(host)?.find_user_proc(uid, prefix)
    }

    fn run(&mut self, span: SimDuration) {
        self.run_for(span);
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        let kernel = self.hosts.get(host);
        kernel.is_some_and(|k| self.host_up(host) && k.is_alive(pid))
    }

    /// A host no `add_host` returned is down and has never booted.
    fn power(&self, host: HostId) -> (bool, u32) {
        match self.hosts.get(host) {
            Some(k) => (self.host_up(host), k.boot_count()),
            None => (false, 0),
        }
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.hosts.get(host)?.stable_get(key)
    }

    /// Leads with the world's own section: its registry (kernel event
    /// path, faults, `net.*`) and the event engine's queue counts.
    fn metric_sections(&self, visit: &mut dyn FnMut(Section<'_>)) {
        let stats = self.engine_stats();
        let gauge = |v: usize| MetricRef::Gauge(v as i64);
        // Sorted by name.
        let engine = [
            ("engine.cancels", MetricRef::Counter(stats.cancels)),
            ("engine.fired", MetricRef::Counter(stats.fired)),
            ("engine.overflow_peak", gauge(stats.overflow_peak)),
            ("engine.pending", gauge(stats.pending)),
            ("engine.schedules", MetricRef::Counter(stats.schedules)),
        ];
        visit(Section {
            label: "world",
            registry: &self.obs.registry,
            extra: &engine,
        });
        self.obs.sections(visit);
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.obs)
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }
}

/// The sim's half of the host driver: the virtual clock, the wheel, the
/// modelled wire and the price of each woken event.
impl Backend for World {
    fn hosts(&self) -> &Hosts {
        &self.hosts
    }

    fn hosts_mut(&mut self) -> &mut Hosts {
        &mut self.hosts
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn host_up(&self, host: HostId) -> bool {
        self.topo.is_up(host)
    }

    fn host_name(&self, host: HostId) -> &str {
        &self.topo.spec(host).name
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.host_by_name(name).ok_or(SysError::NoSuchHost)
    }

    fn random_unit(&mut self) -> f64 {
        self.rng.unit_f64()
    }

    fn scale_cost(&mut self, host: HostId, nominal: SimDuration) -> SimDuration {
        self.scaled_cpu_cost(host, nominal)
    }

    fn net_epoch(&self) -> u64 {
        self.net_epoch
    }

    fn edge_up(&self, a: &str, b: &str) -> bool {
        match (self.host_by_name(a), self.host_by_name(b)) {
            (Some(ha), Some(hb)) => World::edge_up(self, ha, hb),
            _ => false,
        }
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.obs)
    }

    fn make_service(&self, name: &str, host: HostId) -> Option<(Port, Box<dyn Program>)> {
        self.services.make(name, host)
    }

    /// Binds a listener.
    fn listen(&mut self, key: ProcKey, port: Port) -> Result<(), SysError> {
        let (host, pid) = key;
        if !self.host_up(host) {
            return Err(SysError::HostDown);
        }
        self.kernel_mut(host).bind(pid, port)?;
        self.note(host, TraceCategory::Net, Note::Listening { pid, port });
        Ok(())
    }

    /// Initiates a connection; completion is reported via `ConnEvent`.
    fn connect(&mut self, from: ProcKey, target: HostId, port: Port) -> Result<ConnId, SysError> {
        if self.hosts.get(target).is_none() {
            return Err(SysError::NoSuchHost);
        }
        let now = self.now();
        // A SYN that goes nowhere times out; a refused one comes back as an
        // RST after one round trip. Either way the record is kept, so a
        // late `close` is harmless.
        let (delay, reason) = match self.route_state(from.0, target) {
            RouteState::HostDown => (self.config.connect_timeout, SysError::HostDown),
            RouteState::Unreachable => (self.config.connect_timeout, SysError::Unreachable),
            RouteState::Hops(hops) => {
                let rtt = self.rtt(hops, from.0, target, self.config.handshake_bytes);
                match self.kernel(target).listener(port) {
                    None => (rtt, SysError::ConnectionRefused),
                    Some(server_pid) => {
                        let kernel = self.hosts.kernel_mut(from.0);
                        let id = self
                            .conns
                            .open(from, (target, server_pid), port, now, kernel);
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
                        return Ok(id);
                    }
                }
            }
        };
        let server = (target, Pid::INIT);
        let told = self.conns.open_refused(from, server, port, reason, now);
        self.engine.schedule(delay, SimEvent::Tell(told));
        Ok(told.conn)
    }

    /// Whether a connection is deliverable right now: `from` is an
    /// endpoint, the connection is established, and the link to the peer
    /// is routable. Unlike `send`, a dead route here is
    /// reported immediately instead of succeeding locally and breaking
    /// after the detection interval — this is the send-time liveness
    /// check programs use to validate cached next-hops.
    fn conn_alive(&self, from: ProcKey, conn: ConnId) -> bool {
        let peer = self.conns.established(conn, from);
        peer.is_some_and(|p| matches!(self.route_state(from.0, p.0), RouteState::Hops(_)))
    }

    /// Sends bytes on an established connection. Returns `Ok` when the
    /// local write succeeds (TCP semantics); breakage discovered later is
    /// reported via a `Closed` event.
    fn send(&mut self, from: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let (len, now) = (data.len(), self.now());
        let (kernel, fx) = self.hosts.kernel_fx(from.0);
        let peer = self.conns.send(conn, from, len, now, kernel, fx)?;
        self.apply_effects(from.0);
        let reach = self.route_state(from.0, peer.0);
        let hops = match reach {
            RouteState::Hops(h) => h,
            RouteState::HostDown | RouteState::Unreachable => {
                // Write succeeds locally; breakage surfaces after the
                // detection interval.
                let jf = self.config.cost_jitter;
                let base = self.config.break_detection;
                let delay = self.rng.jitter(base, jf);
                self.conns.sever(conn, now);
                self.engine
                    .schedule(delay, SimEvent::Tell(Tell::closed(conn, from)));
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
                bisection_bytes,
            }) => {
                self.note_net_send(len as u64, queue_us, links, bisection_bytes);
                SimDuration::from_micros(total_us)
            }
            Some(Transfer::Dropped { bisection_bytes }) => {
                // A lossy link ate it: the write succeeded locally,
                // nothing arrives, recovery is up to the RPC retries.
                self.note_net_drop(bisection_bytes);
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
                self.conns.sever(conn, now);
                self.engine
                    .schedule(delay, SimEvent::Tell(Tell::closed(conn, from)));
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
        let (dir, floors) = self.conns.carry(conn, from, len);
        let mut arrival = (now + delay).max(floors[dir]);
        floors[dir] = arrival + SimDuration::from_micros(1);
        if let Some(skew) = fate.reorder {
            // Land past the slot without raising the FIFO floor, so later
            // traffic in the same direction overtakes this message.
            arrival += skew;
        }
        if fate.dup {
            self.engine.schedule_at(
                arrival + delay.max(SimDuration::from_micros(1)),
                SimEvent::Wake(
                    peer,
                    Wake::Message {
                        conn,
                        data: data.clone(),
                    },
                ),
            );
        }
        self.engine
            .schedule_at(arrival, SimEvent::Wake(peer, Wake::Message { conn, data }));
        Ok(())
    }

    /// Closes a connection from one side; the peer is notified. Like a
    /// TCP FIN, the notification is ordered after data already in flight
    /// toward the peer.
    fn close(&mut self, from: ProcKey, conn: ConnId) -> Result<(), SysError> {
        let now = self.now();
        let kernel = self.hosts.kernel_mut(from.0);
        let Some(told) = self.conns.close(conn, from, now, kernel)? else {
            return Ok(());
        };
        let peer = told.to;
        if let RouteState::Hops(hops) = self.route_state(from.0, peer.0) {
            let jf = self.latency.jitter_fraction;
            let base = self.one_way(hops, from.0, peer.0, 32);
            let delay = self.rng.jitter(base, jf);
            let c = self.conns.get(conn).expect("just closed");
            let floor = self.conns.link(conn).expect("just closed")[c.toward(peer)];
            self.engine
                .schedule_at((now + delay).max(floor), SimEvent::Tell(told));
        }
        Ok(())
    }

    /// A fork's exec pays the scaled spawn cost, a signal the jittered
    /// signal latency, a child's exit notice the fixed one.
    fn schedule(&mut self, key: ProcKey, wake: Wake, after: After) -> SimDuration {
        let delay = match after {
            After::Now => SimDuration::ZERO,
            After::Delay(delay) => delay,
            After::Priced => match wake {
                Wake::Start => {
                    let nominal = self.config.spawn_cost;
                    self.scaled_cpu_cost(key.0, nominal)
                }
                Wake::Signal(_) => {
                    let (delay, jf) = (self.config.signal_latency, self.config.cost_jitter);
                    self.rng.jitter(delay, jf)
                }
                Wake::ChildExit { .. } => self.config.child_exit_latency,
                _ => SimDuration::ZERO,
            },
        };
        self.engine.schedule(delay, SimEvent::Wake(key, wake));
        delay
    }

    fn queued(&mut self, to: ProcKey, wire_size: usize, first: bool) -> Option<SimDuration> {
        self.obs.registry.inc(self.ids.kernel_events);
        if !first {
            return None;
        }
        // First event of the wakeup pays the Table 1 latency and arms
        // the flush; later ones coalesce into the same batch frame, one
        // delivery for the burst.
        self.obs.registry.inc(self.ids.kernel_wakeups);
        let cpu = self.topo.spec(to.0).cpu;
        let la = self.kernel(to.0).load_avg();
        let base = self.latency.kernel_msg(cpu, la, wire_size);
        let delay = self.rng.jitter(base, self.latency.jitter_fraction);
        self.engine.schedule(delay, SimEvent::Wake(to, Wake::Flush));
        Some(delay)
    }

    fn flush(&mut self, to: ProcKey) -> Option<Bytes> {
        let kernel = self.hosts.kernel_mut(to.0);
        let flush = |msgs: &[_]| (msgs.len(), encode_kernel_batch(msgs));
        let (count, data) = kernel.drain_batch(to.1, flush)?;
        let batch = self.ids.kernel_batch_msgs;
        self.obs.registry.record(batch, count as u64);
        if count > 1 {
            let flushed = Note::Flushed {
                count,
                tracer: to.1,
            };
            World::note(self, to.0, TraceCategory::Kernel, flushed);
        }
        Some(data)
    }

    /// A process in a CPU burst sees its timers, messages and batches
    /// when the burst ends. A message is accounted to its end, a batch's
    /// delivery time to `kernel.delivery_us` if asked.
    fn handed(&mut self, to: ProcKey, wake: Wake) -> Option<Wake> {
        let now = self.now();
        let busy = self.kernel(to.0).get(to.1).map(|p| p.busy_until);
        if let Some(until) = busy.filter(|&until| until > now) {
            self.engine.schedule_at(until, SimEvent::Wake(to, wake));
            return None;
        }
        match &wake {
            Wake::Message { conn, data } => {
                let (kernel, fx) = self.hosts.kernel_fx(to.0);
                let handed = self.conns.deliver(*conn, to, data.len(), now, kernel, fx);
                self.apply_effects(to.0);
                handed.then_some(wake)
            }
            Wake::Batch(data) => {
                if let Some(hist) = self.kernel_delivery {
                    let reg = &mut self.obs.registry;
                    walk_kernel_batch(data, |m| {
                        reg.record(hist, now.saturating_since(m.queued_at).as_micros());
                    });
                }
                Some(wake)
            }
            _ => Some(wake),
        }
    }

    /// Each open connection's peer is told after a one-way trip.
    fn gone(&mut self, key: ProcKey) {
        let (host, now) = (key.0, self.now());
        for t in self.conns.process_gone(key, now) {
            if let RouteState::Hops(hops) = self.route_state(host, t.to.0) {
                let jf = self.latency.jitter_fraction;
                let base = self.one_way(hops, host, t.to.0, 32);
                let delay = self.rng.jitter(base, jf);
                self.engine.schedule(delay, SimEvent::Tell(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_runtime::fd::OpenMode;
    use ppm_runtime::process::ProcState;
    use ppm_runtime::signal::ExitStatus;
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
            .kernel(a)
            .processes()
            .find(|p| p.command == "inetd")
            .map(|p| p.pid);
        assert!(inetd.is_some());
        // inetd listens on its well-known port
        assert!(w.kernel(a).listener(Port::INETD).is_some());
    }

    #[test]
    fn spawn_user_creates_running_process_after_delay() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        assert_eq!(w.kernel(a).get(pid).unwrap().state, ProcState::Embryo);
        w.run_for(SimDuration::from_millis(200));
        assert_eq!(w.kernel(a).get(pid).unwrap().state, ProcState::Running);
    }

    #[test]
    fn kill_terminates_and_stop_cont_toggle() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        w.post_signal(Uid(100), (a, pid), Signal::Stop).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(w.kernel(a).get(pid).unwrap().state, ProcState::Stopped);
        w.post_signal(Uid(100), (a, pid), Signal::Cont).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(w.kernel(a).get(pid).unwrap().state, ProcState::Running);
        w.post_signal(Uid(100), (a, pid), Signal::Kill).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.is_alive(a, pid));
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
        let crash = FaultKind::Crash { host: "a".into() };
        w.schedule_fault(&crash, SimDuration::from_millis(10))
            .unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.host_up(a));
        assert!(!w.is_alive(a, pid));
        let restart = FaultKind::Restart { host: "a".into() };
        w.schedule_fault(&restart, SimDuration::from_millis(10))
            .unwrap();
        w.run_for(SimDuration::from_millis(200));
        assert!(w.host_up(a));
        assert_eq!(w.kernel(a).boot_count(), 2);
        // inetd is back
        assert!(w.kernel(a).listener(Port::INETD).is_some());
    }

    #[test]
    fn load_average_rises_with_cpu_bound_work() {
        let (mut w, a, _) = two_hosts();
        for _ in 0..2 {
            w.spawn_user(a, Uid(1), SpawnSpec::inert("spin").cpu_bound(true))
                .unwrap();
        }
        w.run_for(SimDuration::from_secs(300));
        let la = w.kernel(a).load_avg();
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
        while w.connections().count() == 0 {
            assert!(w.step(), "the dialer starts");
        }
        let id = ConnId(1);
        assert_eq!(w.conn_table().get(id).unwrap().state, ConnState::Connecting);
        let held = |w: &World, key| w.conn_table().held_by(key).collect::<Vec<_>>();
        assert_eq!(held(&w, (b, server)), [id]);
        assert_eq!(held(&w, (a, client)), [id]);

        w.exit((b, server), ExitStatus::Code(0));
        assert_eq!(w.conn_table().get(id).unwrap().state, ConnState::Closed);
        assert_eq!(w.conn_table().held_len(), 0);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(*log.lock().unwrap(), [ConnEvent::Closed]);
    }

    struct Probe;
    impl Program for Probe {
        fn on_start(&mut self, sys: &mut dyn ppm_runtime::sys::Sys) {
            assert_eq!(sys.host_name(), "a");
            assert!(sys.pid().0 > 1);
            assert_eq!(sys.uid(), Uid(7));
            let fd = sys.open("/tmp/file", OpenMode::ReadWrite).expect("alive");
            assert!(sys.close_fd(fd).is_ok());
            assert!(sys.close_fd(fd).is_err());
            assert!(sys.resolve_host("a").is_ok());
            assert!(sys.resolve_host("zzz").is_err());
            sys.set_timer(SimDuration::from_millis(5), 1);
            sys.exit(0);
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn basic_syscalls_work_from_a_program() {
        let mut w = World::new(5);
        let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
        let pid = w
            .spawn_user(a, Uid(7), SpawnSpec::new("probe", Box::new(Probe)))
            .unwrap();
        w.run_for(SimDuration::from_millis(500));
        let p = w.kernel(a).get(pid).unwrap();
        assert!(!p.is_alive(), "probe exited cleanly");
        assert_eq!(p.rusage.files_opened, 1);
    }

    #[test]
    fn world_debug_is_nonempty() {
        let (w, _, _) = two_hosts();
        let s = format!("{w:?}");
        assert!(s.contains("World"));
        assert!(s.contains("hosts"));
    }
}
