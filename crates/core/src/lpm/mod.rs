//! The local process manager.
//!
//! "The personal process manager, PPM, is a distributed program
//! implemented as a collection of user-level processes called local
//! process managers, LPMs." One LPM runs per (user, host), created on
//! demand by pmd. It is the process-creation server for the user's remote
//! processes, the collector of kernel events for adopted processes, a
//! sibling in the PPM communication graph, and a participant in crash
//! recovery.
//!
//! Internally the LPM mirrors the paper's multi-process structure: a
//! dispatcher classifies arriving messages; work that needs remote
//! communication is handed to handler processes from a reusable pool
//! ([`crate::handlers`]); handlers may block awaiting remote responses
//! without stalling the dispatcher. Costs (dispatch, handler fork/reuse,
//! per-operation work) are modelled explicitly so the regenerated Tables
//! 2 and 3 reproduce the paper's timings.
//!
//! The implementation is split by concern:
//! * [`mod@self`] — state, timers, and the [`Program`] event routing;
//! * `conns` — hellos, sibling channels, outboxes;
//! * `requests` — the staged request pipeline and local operations;
//! * `broadcast` — the graph-covering echo wave of Section 4;
//! * `recovery` — CCS seeking, probing, time-to-die (Section 5);
//! * `kernel_ev` — kernel event ingestion: genealogy, history, triggers.

mod broadcast;
mod conns;
mod kernel_ev;
mod recovery;
mod requests;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use bytes::Bytes;
use ppm_proto::codec::Wire;
use ppm_proto::msg::{Inbound, Msg, Op, RelayAgg, SnapshotRun, WireReply};
use ppm_proto::types::{Gpid, Name, Route, Stamp};
use ppm_runtime::hashx::{fnv1a_fold, FastMap, FNV_OFFSET};
use ppm_runtime::ids::{ConnId, Port};
use ppm_runtime::program::{ConnEvent, Program, SysError};
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{SimDuration, SimTime};
use ppm_runtime::trace::TraceCategory;

use crate::auth::Authenticator;
use crate::config::{
    lpm_port, PpmConfig, HANDLER_IDLE_TTL, HANDLER_MAX, HISTORY_CAP, REQ_ATTEMPTS, RUSAGE_CAP,
};
use crate::genealogy::Genealogy;
use crate::handlers::{HandlerId, HandlerPool};
use crate::history::History;
use crate::locator::{Dial, RouteCache};
use crate::obs::LpmObs;
use crate::rpc::{ReplyTo, ReqPhase, RetryPolicy, RpcKey, RpcTable, TimerKind};
use crate::trigger_engine::TriggerEngine;
use crate::users::UserEntry;

/// Role of an accepted or established connection.
///
/// Cloned on every dispatched message, so the sibling host name is a
/// [`Name`]: the clone allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ConnRole {
    /// Accepted; awaiting the authenticating `Hello`.
    AwaitHello,
    /// An authenticated tool.
    Tool,
    /// An authenticated sibling LPM on the named host.
    Sibling(Name),
}

/// Why a dial toward a host is in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChanPurpose {
    /// Ordinary sibling connection (requests queued in the outbox).
    Sibling,
    /// Recovery: trying recovery-list candidate at this rank.
    Seek { rank: usize },
    /// Recovery: probing a higher-priority host while acting as CCS.
    Probe,
    /// Recovery: asking the name server's pmd who the CCS is.
    NameServer,
}

/// What a dial connects to: the user's LPM on a host, or a host's pmd —
/// so the name-server query and a sibling channel to the name server's
/// own host can be in progress at once.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum DialKey {
    Lpm(Name),
    Pmd(Name),
}

impl DialKey {
    pub(crate) fn host(&self) -> &str {
        match self {
            DialKey::Lpm(host) | DialKey::Pmd(host) => host,
        }
    }
}

pub(crate) struct ChannelSlot {
    pub dial: Dial,
    pub purpose: ChanPurpose,
}

/// Deduplication key of one broadcast wave: `(origin host, origin seq)`.
/// An alias of the RPC correlation key — broadcast stamps and directed
/// requests share one dedup window in the [`RpcTable`].
pub(crate) type BcastKey = RpcKey;

/// State of one broadcast this LPM participates in.
#[derive(Debug)]
pub(crate) struct BcastState {
    pub stamp: Stamp,
    pub op: Op,
    pub user: u32,
    pub role: BcastRole,
    /// Hosts we forwarded to and still owe us a `BcastDone`, in host
    /// order: the forward targets the wave reached.
    pub pending_children: Vec<Child>,
    /// The local slice finished.
    pub local_done: bool,
    /// Handler blocked on the downstream wave, if any.
    pub forward_handler: Option<HandlerId>,
    /// Hosts the wave will be forwarded to (decided at receipt), in host
    /// order; taken when the wave is forwarded.
    pub forward_targets: Vec<Child>,
    /// The downstream forward has been performed (or none was needed).
    pub forwarded: bool,
    /// Hosts of this subtree whose answers never arrived (lost children,
    /// straggler timeouts). Travels upstream in the aggregate; at the
    /// origin it becomes the [`Reply::Partial`] marker. Holds at most
    /// [`MAX_REPLY_RECORDS`](ppm_proto::msg::MAX_REPLY_RECORDS) names, as
    /// many as either carries.
    pub missing: BTreeSet<Name>,
    /// A name past that bound has been refused (and noted) in this wave.
    pub missing_capped: bool,
    /// Route the request had when it reached us.
    pub route_in: Route,
    pub timeout_token: Option<u64>,
    /// The straggler timer has already been extended for the levels below.
    pub waited_below: bool,
}

/// A sibling a wave goes to, and then a child it waits on.
pub(crate) struct Child {
    pub host: Name,
    /// Its aggregate already arrived: a later connection loss must not
    /// mark an answered subtree as missing.
    pub answered: bool,
}

impl Child {
    /// A sibling the wave has not reached yet.
    pub fn new(host: Name) -> Self {
        Child {
            host,
            answered: false,
        }
    }
}

/// A child is traced as its host name, as a list of names is.
impl fmt::Debug for Child {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.host, f)
    }
}

/// What this LPM is to a wave, with the state only that role keeps.
#[derive(Debug)]
pub(crate) enum BcastRole {
    /// It started the wave, and combines the answers into one reply.
    Origin {
        /// Internal request to finish with the merged reply.
        reply_req: u64,
        /// What the answers gather into.
        tables: OriginTables,
        /// Whether the combine phase has begun: parts gather during the
        /// wave and every serialized merge slot starts once the wave
        /// quiesces, so each contributor costs a full slot at the tail.
        combine_started: bool,
        /// Merge work in flight.
        merges_outstanding: u32,
        /// When merging can next start (serializes merge costs).
        merge_free_at: SimTime,
    },
    /// The wave reached it from a sibling, which gets one aggregate back.
    Relay {
        /// The sibling connection the wave arrived on.
        upstream: ConnId,
        /// The one upstream aggregate, written as its
        /// [`ppm_proto::msg::BcastPart`] frames are gathered. Child
        /// aggregates are spliced in byte-for-byte — no decode, no
        /// re-encode — so each record crosses every edge once.
        agg: RelayAgg,
        /// Handler that gathered the local slice; it blocks until this
        /// node's whole participation completes.
        respond_handler: Option<HandlerId>,
    },
}

/// The tables an originator gathers a wave's answers into. They go back
/// to the LPM's spares when the wave ends, so the next wave it originates
/// fills them again without allocating.
#[derive(Debug, Default)]
pub(crate) struct OriginTables {
    /// Accumulated parts, in the order their merge slots completed — the
    /// order the final merge's stable sort sees — each with the run the
    /// walk that admitted it recorded.
    pub parts: Vec<(WireReply, Option<SnapshotRun>)>,
    /// Replies waiting for their merge slot.
    pub merge_queue: VecDeque<(WireReply, Option<SnapshotRun>)>,
    /// Hosts whose part has been accepted in this wave (the originator's
    /// own is its local slice): a second part from one of them — a
    /// duplicated aggregate — is dropped. Names off the wire, so the
    /// default hasher.
    pub answered: HashSet<Bytes>,
}

/// Recovery mode (Section 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RecovMode {
    Normal,
    /// Walking the `.recovery` list.
    Seeking {
        rank: usize,
    },
    /// No recovery host reachable; counting down time-to-die.
    Orphan {
        deadline: SimTime,
    },
}

/// Externally visible LPM counters (tests and tools).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpmStats {
    /// Requests that entered the pipeline.
    pub requests: u64,
    /// Broadcasts originated.
    pub bcasts_originated: u64,
    /// Broadcasts forwarded.
    pub bcasts_forwarded: u64,
    /// Duplicate broadcasts suppressed by the stamp window.
    pub bcasts_suppressed: u64,
    /// Directed requests relayed for other LPMs.
    pub relays: u64,
    /// Requests answered from a route-cache relay instead of a new channel.
    pub route_cache_hits: u64,
    /// Hello authentication failures.
    pub auth_failures: u64,
    /// Origin-side transport retries (re-sends of the same correlation id).
    pub retries: u64,
    /// Duplicate directed-request deliveries absorbed by the dedup window
    /// (replayed cached replies and in-flight suppressions).
    pub dups_suppressed: u64,
    /// Operations executed by this LPM's handlers (the exactly-once
    /// observable: a retry or duplicate that slips past the dedup window
    /// shows up here as an extra execution).
    pub executed: u64,
}

/// The LPM program.
pub struct Lpm {
    pub(crate) cfg: PpmConfig,
    pub(crate) auth: Authenticator,
    pub(crate) recovery_list: Vec<Name>,

    pub(crate) host: Name,
    pub(crate) accept_port: Port,
    pub(crate) started_at: SimTime,
    /// Crash instant of the predecessor this LPM replaces; pmd sets it
    /// when respawning after a crash, and it drives re-adoption at start.
    pub(crate) respawn_of: Option<SimTime>,
    /// Re-adoption left survivors without their cross-host logical
    /// edges; pull sibling gossip over each new sibling channel until
    /// the forest is whole again.
    pub(crate) rebuilding: bool,
    /// Logical-parent edges of remote spawns observed at this LPM (as
    /// origin or relay): dest host → local pid there → logical parent.
    /// Served to respawned siblings rebuilding their forests.
    pub(crate) remote_children: BTreeMap<Name, BTreeMap<u32, Gpid>>,

    pub(crate) conns: HashMap<ConnId, ConnRole>,
    pub(crate) siblings: BTreeMap<Name, ConnId>,
    /// The dial table: every Figure-2 chain in progress.
    pub(crate) channels: BTreeMap<DialKey, ChannelSlot>,
    pub(crate) chan_retry_armed: BTreeSet<DialKey>,
    pub(crate) outbox: BTreeMap<Name, Vec<(Bytes, u64)>>,
    pub(crate) route_cache: RouteCache,
    /// The last reachability epoch the route cache was validated at;
    /// when `sys.net_epoch()` moves past it, cached routes with a dead
    /// leg are evicted before the next lookup.
    pub(crate) route_epoch: u64,

    /// The unified RPC substrate: pending requests, correlation index,
    /// dedup window, spawn waits and timer registry.
    pub(crate) rpc: RpcTable,

    pub(crate) bcast_seq: u64,
    /// The tables of waves that have ended, cleared for the next waves.
    pub(crate) wave_spares: broadcast::WaveSpares,
    /// The bytes of the last aggregate this LPM relayed for each kind of
    /// wave (`broadcast::wave_kind`): how much room the next wave of that
    /// kind starts with, so a small rusage wave is not sized by a large
    /// snapshot.
    pub(crate) agg_bytes: [usize; 4],
    pub(crate) bcasts: FastMap<BcastKey, BcastState>,

    pub(crate) tree: Genealogy,
    pub(crate) history: History,
    pub(crate) triggers: TriggerEngine,
    pub(crate) pool: HandlerPool,
    /// The dispatcher serializes handler hand-offs (forking is done by the
    /// dispatcher process in the paper's design).
    pub(crate) dispatcher_free_at: SimTime,

    pub(crate) ccs: Name,
    pub(crate) epoch: u64,
    pub(crate) recov: RecovMode,
    pub(crate) ttl_deadline: Option<SimTime>,
    pub(crate) probe_armed: bool,
    pub(crate) ttd_armed: bool,
    /// The immovable time-to-die deadline, set when contact was first
    /// lost; cleared on any recovery.
    pub(crate) orphan_deadline: Option<SimTime>,
    pub(crate) last_keepalive: SimTime,

    /// When each outstanding recovery probe was sent, for RTT metrics.
    pub(crate) probe_sent: BTreeMap<Name, SimTime>,

    pub(crate) stats: LpmStats,
    /// Shared metrics registry and pre-registered ids.
    pub(crate) obs: LpmObs,
}

impl std::fmt::Debug for Lpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lpm")
            .field("host", &self.host)
            .field("user", &self.auth.uid())
            .field("siblings", &self.siblings.keys().collect::<Vec<_>>())
            .field("ccs", &self.ccs)
            .field("epoch", &self.epoch)
            .field("tracked", &self.tree.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Lpm {
    /// Creates an LPM for a user account (pmd calls this).
    pub fn new(entry: &UserEntry) -> Self {
        Lpm {
            cfg: entry.config.clone(),
            auth: Authenticator::new(entry.cred),
            recovery_list: entry.recovery.iter().map(Name::from).collect(),
            host: Name::default(),
            accept_port: lpm_port(entry.cred.uid),
            started_at: SimTime::ZERO,
            respawn_of: None,
            rebuilding: false,
            remote_children: BTreeMap::new(),
            conns: HashMap::new(),
            siblings: BTreeMap::new(),
            channels: BTreeMap::new(),
            chan_retry_armed: BTreeSet::new(),
            outbox: BTreeMap::new(),
            route_cache: RouteCache::default(),
            route_epoch: 0,
            rpc: RpcTable::new(),
            bcast_seq: 0,
            wave_spares: broadcast::WaveSpares::default(),
            agg_bytes: [0; 4],
            bcasts: FastMap::default(),
            tree: Genealogy::default(),
            history: History::new(HISTORY_CAP, RUSAGE_CAP),
            triggers: TriggerEngine::new(),
            pool: {
                let mut pool = HandlerPool::new(
                    entry.config.handler_fork_cost,
                    entry.config.handler_reuse_cost,
                    HANDLER_IDLE_TTL,
                    HANDLER_MAX,
                );
                pool.set_reuse_enabled(entry.config.handler_reuse);
                pool
            },
            dispatcher_free_at: SimTime::ZERO,
            ccs: Name::default(),
            epoch: 0,
            recov: RecovMode::Normal,
            ttl_deadline: None,
            probe_armed: false,
            ttd_armed: false,
            orphan_deadline: None,
            last_keepalive: SimTime::ZERO,
            probe_sent: BTreeMap::new(),
            stats: LpmStats::default(),
            obs: LpmObs::new(),
        }
    }

    /// Creates an LPM replacing one that died in a crash at `crashed_at`
    /// (pmd calls this when [`crate::pmd::PmdOptions::respawn_lpms`] is
    /// on). At start it re-adopts surviving same-user processes and
    /// rebuilds its genealogy forest.
    pub fn respawned(entry: &UserEntry, crashed_at: SimTime) -> Self {
        let mut lpm = Lpm::new(entry);
        lpm.respawn_of = Some(crashed_at);
        lpm
    }

    /// Cumulative counters. The three the metrics registry also exports
    /// are kept there only and read back here.
    pub fn stats(&self) -> LpmStats {
        let count = |id| self.obs.registry.count(id);
        LpmStats {
            requests: count(self.obs.requests),
            retries: count(self.obs.retries),
            dups_suppressed: count(self.obs.dups_suppressed),
            ..self.stats
        }
    }

    // ---- model-checker observables --------------------------------------

    /// The coordinator this LPM currently believes in, with the election
    /// epoch that belief carries. The model checker's election-convergence
    /// predicate compares these across live siblings at quiescence.
    pub fn ccs_view(&self) -> (&str, u64) {
        (&self.ccs, self.epoch)
    }

    /// Whether this LPM is still rebuilding its forest after a respawn.
    pub fn is_rebuilding(&self) -> bool {
        self.rebuilding
    }

    /// Re-adopted survivors whose place in the forest is still
    /// unexplained (the crash-manufactured roots). The model checker's
    /// no-orphan predicate requires this to reach zero at quiescence.
    pub fn orphan_root_count(&self) -> usize {
        self.failure_roots().len()
    }

    // ---- small shared helpers -------------------------------------------

    /// This incarnation's boot epoch: the start instant in µs, floored at
    /// 1 so a live LPM never stamps the reserved "unstamped" value 0.
    /// A respawn always boots strictly later than its predecessor, so
    /// epochs order incarnations of the same host.
    pub(crate) fn boot_epoch(&self) -> u64 {
        self.started_at.as_micros().max(1)
    }

    pub(crate) fn arm(&mut self, sys: &mut dyn Sys, d: SimDuration, kind: TimerKind) -> u64 {
        self.rpc.arm(sys, d, kind)
    }

    /// The transport-retry policy for origin-side requests.
    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            attempts: REQ_ATTEMPTS,
            backoff: self.cfg.req_backoff,
            backoff_max: self.cfg.req_backoff_max.max(self.cfg.req_backoff),
        }
    }

    pub(crate) fn send_msg(
        &mut self,
        sys: &mut dyn Sys,
        conn: ConnId,
        msg: &Msg,
    ) -> Result<(), SysError> {
        sys.send(conn, msg.to_bytes())
    }

    pub(crate) fn alloc_internal_id(&mut self) -> u64 {
        let seq = self.rpc.next_seq();
        // Globally unique: salt the counter with the host name so relayed
        // ids from different originators cannot collide.
        let salt = fnv1a_fold(FNV_OFFSET, self.host.as_bytes());
        (salt & 0xFFFF_FFFF) << 32 | seq
    }

    /// Acquires a handler; hand-offs serialize through the dispatcher.
    /// Returns the handler and the delay until it is ready for work.
    pub(crate) fn acquire_handler(&mut self, sys: &mut dyn Sys) -> (HandlerId, SimDuration) {
        let now = sys.now();
        let acq = self.pool.acquire(now);
        let base = if self.dispatcher_free_at > now {
            self.dispatcher_free_at
        } else {
            now
        };
        // Scale the nominal handler cost by CPU class and load, like any
        // CPU-bound activity.
        let scaled = sys.scale_cost(acq.cost);
        let ready = base + scaled;
        self.dispatcher_free_at = ready;
        (acq.id, ready.saturating_since(now))
    }

    pub(crate) fn release_handler(&mut self, sys: &mut dyn Sys, handler: Option<HandlerId>) {
        if let Some(h) = handler {
            let now = sys.now();
            self.pool.release(h, now);
        }
    }

    /// `&self`, so the arguments may borrow the LPM's own fields.
    pub(crate) fn note(&self, sys: &mut dyn Sys, text: fmt::Arguments<'_>) {
        sys.trace(TraceCategory::Lpm, text);
    }

    pub(crate) fn note_recovery(&self, sys: &mut dyn Sys, text: fmt::Arguments<'_>) {
        sys.trace(TraceCategory::Recovery, text);
    }

    fn housekeeping(&mut self, sys: &mut dyn Sys) {
        let now = sys.now();
        self.pool.reap_idle(now);
        // Shared retention window: broadcast stamps and cached replies of
        // executed sibling requests age out together.
        let window = self.cfg.bcast_window;
        let purged = self.rpc.purge_dedup(now, window);
        if purged > 0 {
            // A purged entry is no longer recognized: a replayed copy of
            // that wave or request would be reprocessed from scratch.
            sys.trace(
                TraceCategory::Broadcast,
                format_args!("stamp window purge {purged}"),
            );
        }
        let retention = self.cfg.dead_retention;
        self.tree
            .prune_older_than(now.as_micros(), retention.as_micros());
        self.ttl_check(sys, now);
        self.recovery_housekeeping(sys);
        let interval = self.cfg.housekeeping_interval;
        self.arm(sys, interval, TimerKind::Housekeeping);
    }

    fn ttl_check(&mut self, sys: &mut dyn Sys, now: SimTime) {
        let have_tools = self.conns.values().any(|r| *r == ConnRole::Tool);
        let ccs_hold = self.ccs == self.host && !self.siblings.is_empty();
        let active = self.tree.live_count() > 0
            || have_tools
            || ccs_hold
            || !self.bcasts.is_empty()
            || self.rpc.any_active();
        if active {
            self.ttl_deadline = None;
            return;
        }
        match self.ttl_deadline {
            None => {
                let ttl = self.cfg.lpm_ttl;
                self.ttl_deadline = Some(now + ttl);
            }
            Some(deadline) if now >= deadline => {
                self.note(sys, format_args!("time-to-live expired; LPM exiting"));
                self.shutdown(sys, 0);
            }
            Some(_) => {}
        }
    }

    pub(crate) fn shutdown(&mut self, sys: &mut dyn Sys, code: i32) {
        let mut conns: Vec<ConnId> = self.conns.keys().copied().collect();
        conns.sort_unstable();
        for c in conns {
            let _ = sys.close(c);
        }
        sys.exit(code);
    }
}

impl Program for Lpm {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.host = Name::new(sys.host_name());
        self.started_at = sys.now();
        self.tree = Genealogy::new(self.host.clone());
        if sys.listen(self.accept_port).is_err() {
            // Another LPM already serves this user here. This happens when
            // pmd lost its registry (the pmd-crash failure mode of
            // Section 5) and spawned a duplicate; the duplicate yields.
            sys.trace(
                TraceCategory::Lpm,
                format_args!(
                    "duplicate LPM for {} on {}; exiting",
                    self.auth.uid(),
                    self.host
                ),
            );
            sys.exit(1);
            return;
        }
        // Fails only after an exit, and this path has not exited.
        let _ = sys.register_kernel_socket();
        // Expose the metrics registry to the world hub so harnesses and
        // the CLI can sample it without simulated traffic.
        sys.register_metrics(
            format!("{}/{}", self.host, self.auth.uid()),
            self.obs.registry.clone(),
        );
        // Initial CCS: the top of the recovery list, or this host. Under
        // the name-server policy the authoritative answer comes from the
        // name server; this host stands in until it arrives.
        self.ccs = match &self.cfg.recovery_policy {
            crate::config::RecoveryPolicy::RecoveryFile => self
                .recovery_list
                .first()
                .cloned()
                .unwrap_or_else(|| self.host.clone()),
            crate::config::RecoveryPolicy::NameServer { .. } => self.host.clone(),
        };
        if matches!(
            self.cfg.recovery_policy,
            crate::config::RecoveryPolicy::NameServer { .. }
        ) {
            self.begin_ns_query(sys, None);
        }
        let interval = self.cfg.housekeeping_interval;
        self.arm(sys, interval, TimerKind::Housekeeping);
        self.note(
            sys,
            format_args!(
                "LPM up for {} on {} (accept {}, ccs {})",
                self.auth.uid(),
                self.host,
                self.accept_port,
                self.ccs
            ),
        );
        if let Some(crashed_at) = self.respawn_of {
            self.readopt_survivors(sys, crashed_at);
        }
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        // Dial-owned connections are routed to their state machines.
        if let Some(key) = self.dial_owning(conn) {
            self.channel_conn_event(sys, &key, event);
            return;
        }
        match event {
            ConnEvent::Accepted { .. } => {
                self.conns.insert(conn, ConnRole::AwaitHello);
            }
            ConnEvent::Closed => self.on_conn_closed(sys, conn),
            ConnEvent::Established | ConnEvent::Failed(_) => {
                // Non-channel outbound connections do not exist; ignore.
            }
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        if let Some(key) = self.dial_owning(conn) {
            self.channel_message(sys, &key, data);
            return;
        }
        let role = self.conns.get(&conn).cloned();
        // Authenticated peers send requests, whose destination is read as
        // a name, and siblings replies, which stay on the wire.
        let msg = match &role {
            Some(ConnRole::Sibling(_) | ConnRole::Tool) => Inbound::decode(&data),
            _ => Msg::from_bytes(&data).map(Inbound::Other),
        };
        let Ok(msg) = msg else {
            self.note(sys, format_args!("undecodable message on {conn}; dropping"));
            if role == Some(ConnRole::AwaitHello) {
                // Protocol violation before authentication: hang up.
                self.conns.remove(&conn);
                let _ = sys.close(conn);
            }
            return;
        };
        match (role, msg) {
            (Some(ConnRole::Sibling(host)), msg) => self.handle_sibling_msg(sys, conn, &host, msg),
            (Some(ConnRole::AwaitHello), Inbound::Other(msg)) => self.handle_hello(sys, conn, msg),
            (Some(ConnRole::Tool), msg) => self.handle_tool_msg(sys, conn, msg),
            _ => {
                // Message on an unknown connection (e.g. raced with close).
            }
        }
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: bytes::Bytes) {
        ppm_proto::kernel_wire::walk_kernel_batch(&data, |msg| {
            self.ingest_kernel_event(sys, msg);
        });
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        let Some(kind) = self.rpc.take_timer(token) else {
            return; // cancelled
        };
        match kind {
            TimerKind::Housekeeping => self.housekeeping(sys),
            TimerKind::ReqStep(id) => self.req_step(sys, id),
            TimerKind::ReqTimeout(id) => self.req_timeout(sys, id),
            TimerKind::ReqRetry(id) => self.req_retry(sys, id),
            TimerKind::ChannelRetry(key) => self.channel_retry(sys, &key),
            TimerKind::BcastForward(key) => self.bcast_forward_ready(sys, &key),
            TimerKind::BcastMerge(key) => self.bcast_merge_slot(sys, &key),
            TimerKind::BcastTimeout(key) => self.bcast_timeout(sys, &key),
            TimerKind::Probe => self.probe_tick(sys),
            TimerKind::SeekRetry => self.seek_retry(sys),
            TimerKind::TimeToDie => self.time_to_die(sys),
        }
    }

    fn on_signal(&mut self, sys: &mut dyn Sys, signal: Signal) -> ppm_runtime::program::SigAction {
        if signal == Signal::Term || signal == Signal::Hup {
            self.shutdown(sys, 1);
        }
        ppm_runtime::program::SigAction::Handled
    }

    fn state_digest(&self) -> u64 {
        use std::hash::Hasher;
        // Fold the state that steers future protocol behaviour; leave out
        // monotonic diagnostics (stats, history) so behaviourally
        // identical interleavings merge in the model checker.
        let mut h = ppm_runtime::hashx::HashX::default();
        h.write(self.host.as_bytes());
        h.write(self.ccs.as_bytes());
        h.write_u64(self.epoch);
        h.write(format!("{:?}", self.recov).as_bytes());
        h.write_u8(u8::from(self.rebuilding));
        for s in self.siblings.keys() {
            h.write(s.as_bytes());
        }
        h.write_u64(self.rpc.digest());
        for rec in self.tree.records() {
            h.write(rec.host.as_bytes());
            h.write_u32(rec.pid);
            h.write_u32(rec.ppid);
            h.write(format!("{:?}", rec.state).as_bytes());
            h.write_u8(u8::from(rec.adopted));
            if let Some((host, pid)) = rec.logical_parent {
                h.write(host.as_bytes());
                h.write_u32(pid);
            }
        }
        for (host, kids) in &self.remote_children {
            h.write(host.as_bytes());
            h.write_u64(kids.len() as u64);
        }
        h.write_u64(self.bcasts.len() as u64);
        h.write_u64(self.outbox.len() as u64);
        h.finish()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        "lpm"
    }
}

#[cfg(test)]
mod tests {
    //! White-box tests of the LPM's pure logic; protocol behaviour is
    //! covered by the crate's integration suites.
    use super::*;
    use crate::auth::UserCred;
    use ppm_runtime::ids::Uid;

    fn lpm() -> Lpm {
        let entry = UserEntry {
            cred: UserCred::new(Uid(100), 7),
            recovery: vec!["home".into(), "work".into()],
            config: PpmConfig::default(),
        };
        let mut l = Lpm::new(&entry);
        l.host = "here".into();
        l
    }

    #[test]
    fn internal_ids_are_unique_and_host_salted() {
        let mut a = lpm();
        let mut ids = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            assert!(ids.insert(a.alloc_internal_id()));
        }
        let mut b = lpm();
        b.host = "elsewhere".into();
        assert_ne!(
            a.alloc_internal_id() >> 32,
            b.alloc_internal_id() >> 32,
            "different hosts use different id spaces"
        );
    }

    #[test]
    fn op_costs_scale_with_tracked_processes() {
        let mut l = lpm();
        let empty = l.op_cost(&Op::Snapshot);
        for pid in 10..20 {
            l.tree.track(pid, 1, None, "p", 0, true);
        }
        let ten = l.op_cost(&Op::Snapshot);
        assert!(ten > empty);
        let per_proc = l.cfg.snapshot_per_proc_cost.as_micros();
        assert_eq!(ten.as_micros() - empty.as_micros(), 10 * per_proc);
        // Control costs more than dispatch; ping is nearly free.
        assert!(l.op_cost(&Op::Ping) < l.cfg.dispatch_cost);
        assert!(
            l.op_cost(&Op::Control {
                pid: 1,
                action: ppm_proto::msg::ControlAction::Stop
            }) > l.cfg.dispatch_cost
        );
    }

    #[test]
    fn route_learning_extracts_next_hops() {
        let mut l = lpm();
        let mut route = Route::from_origin("here");
        route.push("mid");
        route.push("far");
        route.push("farther");
        l.learn_route(&route);
        assert_eq!(l.route_cache.get("far"), Some("mid"));
        assert_eq!(l.route_cache.get("farther"), Some("mid"));
        assert!(
            l.route_cache.get("mid").is_none(),
            "direct neighbours are not cached"
        );

        // Routes not originating here are ignored.
        let mut foreign = Route::from_origin("other");
        foreign.push("x");
        foreign.push("y");
        l.learn_route(&foreign);
        assert!(l.route_cache.get("y").is_none());

        // Existing entries are not overwritten (first route wins).
        let mut second = Route::from_origin("here");
        second.push("alt");
        second.push("z");
        second.push("far");
        l.learn_route(&second);
        assert_eq!(l.route_cache.get("far"), Some("mid"));
    }

    #[test]
    fn route_learning_disabled_by_config() {
        let mut l = lpm();
        l.cfg.route_learning = false;
        let mut route = Route::from_origin("here");
        route.push("mid");
        route.push("far");
        l.learn_route(&route);
        assert!(l.route_cache.get("far").is_none());
    }

    /// A sibling sends a request whose route already names `u16::MAX`
    /// hosts and whose hop budget is spent. Were it decoded, the LPM
    /// would push its own name and refuse it with a route one entry too
    /// long to encode.
    #[test]
    fn a_route_longer_than_any_hop_budget_is_dropped_not_answered() {
        use crate::stub_sys::StubSys;
        use ppm_proto::msg::{ErrCode, Reply};

        let mut l = lpm();
        let mut sys = StubSys::new(true);
        let conn = ConnId(3);
        l.conns.insert(conn, ConnRole::Sibling("far".into()));
        let hostile = Msg::Req {
            id: 1,
            user: 100,
            dest: "elsewhere".into(),
            op: Op::Ping,
            route: std::iter::repeat_n(Name::from("h"), usize::from(u16::MAX)).collect(),
            hops_left: 0,
            deadline_us: 0,
            attempt: 0,
            boot: 0,
        };
        l.on_message(&mut sys, conn, hostile.to_bytes());
        for sent in &sys.sent {
            assert!(
                matches!(
                    Msg::from_bytes(sent),
                    Ok(Msg::Resp {
                        reply: Reply::Err {
                            code: ErrCode::NoRoute,
                            ..
                        },
                        ..
                    })
                ),
                "only a refusal may answer it"
            );
        }
        assert_eq!(sys.hub.trace.grep("undecodable message").count(), 1);
    }

    #[test]
    fn lpm_debug_is_informative() {
        let l = lpm();
        let s = format!("{l:?}");
        assert!(s.contains("here"));
        assert!(s.contains("100"));
    }
}
