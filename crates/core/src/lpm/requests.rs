//! The request pipeline: dispatch, handler hand-off, local execution,
//! remote forwarding, replies, retries and timeouts.
//!
//! All per-request bookkeeping lives in the LPM's [`crate::rpc::RpcTable`];
//! this module drives it. Directed requests keep their correlation key
//! `(origin, origin id)` across relays and retries: relays forward the
//! origin's wire id and extend the origin's route rather than starting
//! fresh, which is what makes end-to-end dedup and full-route learning
//! possible.

use ppm_proto::codec::clip_str;
use bytes::Bytes;
use ppm_proto::msg::{
    ControlAction, ErrCode, Inbound, Msg, Op, Reply, ReplyRef, ReqRef, WireReply, WireReq,
};
use ppm_proto::types::{FileRecord, Gpid, Name, Route};
use ppm_runtime::events::TraceFlags;
use ppm_runtime::fd::FdKind;
use ppm_runtime::ids::{ConnId, Pid};
use ppm_runtime::obs::SpanPhase;
use ppm_runtime::program::{SpawnSpec, SysError};
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{SimDuration, SimTime};
use ppm_runtime::workload::Worker;

use crate::config::{DEADLINE_DECAY, DEFAULT_TRACE_FLAGS};
use crate::history::{Detail, Who};
use crate::rpc::{fmt_key, DupVerdict, PendingRequest, RpcKey, TransportVerdict};

use super::{conns::SiblingStatus, BcastRole, Lpm, ReplyTo, ReqPhase, TimerKind};

/// How a request enters the pipeline: as a fresh origin request (this LPM
/// is responsible for end-to-end retry) or as a relay/execution of a
/// request originated elsewhere (correlation identity comes off the wire).
pub(crate) struct RequestCtx {
    /// Correlation key; `None` allocates a fresh `(self, id)` origin key.
    pub corr: Option<RpcKey>,
    /// Absolute deadline already attached to the request. Origins without
    /// one are stamped with the configured `req_deadline`.
    pub deadline: Option<SimTime>,
    /// Zero-based attempt counter off the wire.
    pub attempt: u8,
    /// Route the request has travelled so far (origin-first, ending at
    /// this host); `None` starts a fresh route here.
    pub route: Option<Route>,
    /// Boot epoch stamped on the wire by the origin LPM incarnation
    /// (0 = unstamped tool traffic). Origins overwrite this with their
    /// own epoch; relays carry it unchanged.
    pub boot: u64,
}

impl RequestCtx {
    /// A request originated by this LPM (tool or internal).
    pub(crate) fn origin() -> Self {
        RequestCtx {
            corr: None,
            deadline: None,
            attempt: 0,
            route: None,
            boot: 0,
        }
    }

    /// A request received from a sibling for relay or execution.
    pub(crate) fn relayed(
        corr: RpcKey,
        deadline: Option<SimTime>,
        attempt: u8,
        route: Route,
        boot: u64,
    ) -> Self {
        RequestCtx {
            corr: Some(corr),
            deadline,
            attempt,
            route: Some(route),
            boot,
        }
    }
}

impl Lpm {
    // ---- entry points -------------------------------------------------------

    /// A message arrived from an authenticated tool.
    pub(crate) fn handle_tool_msg(&mut self, sys: &mut dyn Sys, conn: ConnId, msg: Inbound) {
        match msg {
            Inbound::Req(WireReq {
                id,
                user,
                dest,
                op,
                hops_left,
                deadline_us,
                ..
            }) => {
                let reply_to = ReplyTo::Tool {
                    conn,
                    external_id: id,
                };
                let mut ctx = RequestCtx::origin();
                if deadline_us > 0 {
                    ctx.deadline = Some(SimTime::from_micros(deadline_us));
                }
                self.begin_request(sys, user, dest, op, reply_to, hops_left, ctx);
            }
            other => {
                self.note(
                    sys,
                    format_args!("unexpected {} from tool; ignoring", other.kind()),
                );
            }
        }
    }

    /// A message arrived from an authenticated sibling.
    pub(crate) fn handle_sibling_msg(
        &mut self,
        sys: &mut dyn Sys,
        conn: ConnId,
        host: &str,
        msg: Inbound,
    ) {
        // Any live sibling traffic counts as contact for recovery purposes.
        self.recovered_contact(sys);
        // Messages that carry a reply keep it on the wire.
        let msg = match msg {
            Inbound::Req(req) => return self.ingest_sibling_req(sys, conn, req),
            Inbound::Resp { id, reply, route } => return self.handle_resp(sys, id, reply, route),
            Inbound::BcastAgg {
                stamp,
                parts,
                missing,
            } => return self.handle_bcast_agg(sys, host, stamp, parts, missing),
            Inbound::Other(msg) => msg,
        };
        match msg {
            Msg::Bcast {
                stamp,
                user,
                op,
                route,
            } => self.handle_bcast(sys, conn, host, stamp, user, op, route),
            Msg::BcastDone { stamp } => {
                let key = stamp.key();
                self.bcast_child_done(sys, &key, host);
            }
            Msg::CcsAnnounce { ccs, epoch, .. } => {
                self.consider_ccs(sys, &ccs, epoch);
            }
            Msg::Probe { .. } => {
                let ack = Msg::ProbeAck {
                    from: self.host.clone(),
                    ccs: self.ccs.clone(),
                    epoch: self.epoch,
                };
                let _ = self.send_msg(sys, conn, &ack);
            }
            Msg::ProbeAck { from, ccs, epoch } => {
                self.handle_probe_ack(sys, &from, &ccs, epoch);
            }
            Msg::ForestPull { live, boot, .. } => {
                self.handle_forest_pull(sys, conn, host, live, boot);
            }
            Msg::ForestInfo {
                host: info_host,
                edges,
                ..
            } => {
                self.handle_forest_info(sys, &info_host, edges);
            }
            other => {
                self.note(
                    sys,
                    format_args!("unexpected {} from sibling {host}", other.kind()),
                );
            }
        }
    }

    /// A directed request off a sibling connection: dedup against the
    /// correlation table, refuse exhausted or expired requests without
    /// allocating table state, then enter the pipeline.
    fn ingest_sibling_req(&mut self, sys: &mut dyn Sys, conn: ConnId, req: WireReq) {
        let WireReq {
            id,
            user,
            dest,
            op,
            route,
            hops_left,
            deadline_us,
            attempt,
            boot,
        } = req;
        let origin = Name::new(route.origin().unwrap_or(&self.host));
        let corr: RpcKey = (origin, id);
        let mut route_in = route.clone();
        route_in.push(&self.host);

        // Idempotent dedup: a retried delivery of a request we already
        // hold (or already executed) must not run twice.
        match self.rpc.dup_verdict(&corr, boot) {
            DupVerdict::InFlight(local_id) => {
                let is_relay = self
                    .rpc
                    .get(local_id)
                    .is_some_and(|r| matches!(r.reply_to, ReplyTo::Sibling { .. }));
                if is_relay {
                    // Redirect the eventual reply to the retry's path.
                    if let Some(r) = self.rpc.get_mut(local_id) {
                        r.reply_to = ReplyTo::Sibling {
                            conn,
                            external_id: id,
                            route_in: route_in.clone(),
                        };
                    }
                    self.obs.registry.inc(self.obs.dups_suppressed);
                    self.note(
                        sys,
                        format_args!(
                            "duplicate request {} suppressed (in flight)",
                            fmt_key(&corr)
                        ),
                    );
                } else {
                    // Our own origin request came back to us: routing loop.
                    self.refuse(sys, conn, id, route_in, ErrCode::NoRoute, "routing loop");
                }
                return;
            }
            DupVerdict::Replay { resp } => {
                self.obs.registry.inc(self.obs.dups_suppressed);
                self.note(
                    sys,
                    format_args!("replaying cached reply for {}", fmt_key(&corr)),
                );
                // Replay the frame that answered it, cached route and all:
                // the original responder's full path, so the origin still
                // learns it from a retry.
                let _ = sys.send(conn, resp);
                return;
            }
            DupVerdict::Stale => {
                // The correlation id was stamped by a dead incarnation of
                // its origin, and the respawn already purged any cached
                // reply. Executing it now would be a second execution the
                // dedup window can no longer prevent — refuse instead.
                self.obs.registry.inc(self.obs.dups_suppressed);
                self.note(
                    sys,
                    format_args!(
                        "refusing {} from dead incarnation (boot {boot})",
                        fmt_key(&corr)
                    ),
                );
                self.refuse(
                    sys,
                    conn,
                    id,
                    route_in,
                    ErrCode::StaleEpoch,
                    "correlation id from a dead incarnation",
                );
                return;
            }
            DupVerdict::New => {}
        }

        if hops_left == 0 && dest != self.host && dest != "*" {
            // Refuse immediately: relay budget exhausted and the request
            // is not for us. No table state is allocated for refusals.
            self.refuse(
                sys,
                conn,
                id,
                route_in,
                ErrCode::NoRoute,
                "hop budget exhausted",
            );
            return;
        }

        // Deadline propagation: decay by one hop in lockstep with the
        // hops_left decrement, and refuse what has already expired.
        let deadline = if deadline_us > 0 {
            let decayed = SimTime::from_micros(deadline_us).saturating_back(DEADLINE_DECAY);
            if decayed <= sys.now() {
                self.obs.registry.inc(self.obs.deadline_refused);
                self.refuse(
                    sys,
                    conn,
                    id,
                    route_in,
                    ErrCode::DeadlineExceeded,
                    "deadline expired in flight",
                );
                return;
            }
            Some(decayed)
        } else {
            None
        };

        let reply_to = ReplyTo::Sibling {
            conn,
            external_id: id,
            route_in: route_in.clone(),
        };
        let ctx = RequestCtx::relayed(corr, deadline, attempt, route_in, boot);
        self.begin_request(
            sys,
            user,
            dest,
            op,
            reply_to,
            hops_left.saturating_sub(1),
            ctx,
        );
    }

    /// Sends an error `Resp` straight back on `conn` without allocating
    /// any table state (hop-budget and deadline refusals).
    pub(crate) fn refuse(
        &mut self,
        sys: &mut dyn Sys,
        conn: ConnId,
        external_id: u64,
        route: Route,
        code: ErrCode,
        detail: &str,
    ) {
        let msg = Msg::Resp {
            id: external_id,
            reply: Reply::Err {
                code,
                detail: detail.to_string(),
            },
            route,
        };
        let _ = self.send_msg(sys, conn, &msg);
    }

    // ---- pipeline -------------------------------------------------------------

    /// Enters a request into the staged pipeline.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_request(
        &mut self,
        sys: &mut dyn Sys,
        user: u32,
        dest: impl Into<Name>,
        op: Op,
        reply_to: ReplyTo,
        hops_left: u8,
        ctx: RequestCtx,
    ) {
        self.obs.registry.inc(self.obs.requests);
        let id = self.alloc_internal_id();
        let policy = self.retry_policy();
        let origin_side = reply_to.is_origin();
        let corr = ctx.corr.unwrap_or_else(|| (self.host.clone(), id));
        let span = format_args!("{}#{}", corr.0, corr.1);
        sys.span("req", span, SpanPhase::Begin);
        let deadline = match ctx.deadline {
            Some(d) => Some(d),
            // Only requests we originate get the default end-to-end
            // deadline; broadcast slices and relays carry what arrived.
            None if origin_side => Some(sys.now() + self.cfg.req_deadline),
            None => None,
        };
        let route = ctx.route.unwrap_or_else(|| Route::from_origin(&self.host));
        self.rpc.insert(
            id,
            PendingRequest {
                user,
                dest: dest.into(),
                op,
                reply_to,
                phase: ReqPhase::Dispatch,
                handler: None,
                sent_conn: None,
                hops_left,
                route,
                timeout_token: None,
                spawn_pid: None,
                corr,
                // Origins stamp their own incarnation; relays carry the
                // origin's stamp so executors can fence dead incarnations.
                boot: if origin_side {
                    self.boot_epoch()
                } else {
                    ctx.boot
                },
                deadline,
                attempt: ctx.attempt,
                attempts_left: if origin_side { policy.retries() } else { 0 },
                backoff: policy.backoff,
                backoff_max: policy.backoff_max,
            },
        );
        let d = sys.scale_cost(self.cfg.dispatch_cost);
        self.arm(sys, d, TimerKind::ReqStep(id));
    }

    /// A `ReqStep` timer fired: advance the pipeline.
    pub(crate) fn req_step(&mut self, sys: &mut dyn Sys, id: u64) {
        let Some(req) = self.rpc.get(id) else {
            return;
        };
        match req.phase {
            ReqPhase::Dispatch => self.route_request(sys, id),
            ReqPhase::HandlerForLocal => {
                let cost = self.op_cost(&self.rpc.get(id).expect("checked above").op);
                let d = sys.scale_cost(cost);
                if let Some(r) = self.rpc.get_mut(id) {
                    r.phase = ReqPhase::OpCost;
                }
                self.arm(sys, d, TimerKind::ReqStep(id));
            }
            ReqPhase::HandlerForRemote => self.send_remote(sys, id),
            ReqPhase::OpCost => self.exec_local(sys, id),
            ReqPhase::Sent
            | ReqPhase::AwaitChannel
            | ReqPhase::RetryWait
            | ReqPhase::AwaitSpawn
            | ReqPhase::BcastWait => {
                // Spurious (stale timer); the request advances on messages.
            }
        }
    }

    /// After dispatch: local, broadcast, or remote?
    fn route_request(&mut self, sys: &mut dyn Sys, id: u64) {
        let (dest, from_sibling) = {
            let r = self.rpc.get(id).expect("routed request exists");
            (
                r.dest.clone(),
                matches!(r.reply_to, ReplyTo::Sibling { .. }),
            )
        };
        if dest == "*" {
            if let Some(r) = self.rpc.get_mut(id) {
                r.phase = ReqPhase::BcastWait;
            }
            self.begin_broadcast(sys, id);
        } else if dest == self.host {
            if from_sibling {
                // Requests from siblings are handed to a handler process.
                let (h, delay) = self.acquire_handler(sys);
                if let Some(r) = self.rpc.get_mut(id) {
                    r.handler = Some(h);
                    r.phase = ReqPhase::HandlerForLocal;
                }
                self.arm(sys, delay, TimerKind::ReqStep(id));
            } else {
                let cost = self.op_cost(&self.rpc.get(id).expect("checked above").op);
                let d = sys.scale_cost(cost);
                if let Some(r) = self.rpc.get_mut(id) {
                    r.phase = ReqPhase::OpCost;
                }
                self.arm(sys, d, TimerKind::ReqStep(id));
            }
        } else {
            // Remote: a handler carries the exchange and blocks on it.
            if from_sibling {
                self.stats.relays += 1;
            }
            let (h, delay) = self.acquire_handler(sys);
            if let Some(r) = self.rpc.get_mut(id) {
                r.handler = Some(h);
                r.phase = ReqPhase::HandlerForRemote;
            }
            self.arm(sys, delay, TimerKind::ReqStep(id));
        }
    }

    /// Nominal cost of performing an operation locally.
    pub(crate) fn op_cost(&self, op: &Op) -> SimDuration {
        match op {
            Op::Control { .. } => self.cfg.control_cost,
            Op::Snapshot => {
                let n = self.tree.len() as u64;
                SimDuration::from_micros(
                    self.cfg.snapshot_base_cost.as_micros()
                        + self.cfg.snapshot_per_proc_cost.as_micros() * n,
                )
            }
            Op::Spawn { .. } => self.cfg.spawn_bookkeeping_cost,
            Op::Ping | Op::Status => SimDuration::from_micros(500),
            _ => self.cfg.misc_op_cost,
        }
    }

    // ---- remote sends -----------------------------------------------------------

    fn send_remote(&mut self, sys: &mut dyn Sys, id: u64) {
        // Deadline check at the send boundary: dispatch, handler and
        // backoff delays all elapse between ingest and here, and a
        // deadline that has decayed to exactly zero remaining budget
        // must be refused, not forwarded to burn a sibling's dispatch
        // slot before the inevitable failure.
        let now = sys.now();
        if self.rpc.get(id).is_some_and(|r| r.past_deadline(now)) {
            self.obs.registry.inc(self.obs.deadline_refused);
            self.finish_with_error(
                sys,
                id,
                ErrCode::DeadlineExceeded,
                "deadline expired before forward",
            );
            return;
        }
        let dest = self
            .rpc
            .get(id)
            .expect("sending request exists")
            .dest
            .clone();
        // Direct sibling connection?
        if let Some(&conn) = self.siblings.get(&dest) {
            self.forward_req(sys, id, conn);
            return;
        }
        // Learned route through an existing sibling?
        if self.cfg.route_learning {
            // Reachability moved since the cache was last checked (a
            // fault-plan cut, a crash, a heal): revalidate every leg of
            // every cached path before trusting a lookup. Without this,
            // entries learned before the cut keep relaying into the
            // severed link until each one burns a full retry cycle.
            let epoch = sys.net_epoch();
            if epoch != self.route_epoch {
                self.route_epoch = epoch;
                let evicted = self.route_cache.validate(|a, b| sys.edge_up(a, b));
                if evicted > 0 {
                    self.note(
                        sys,
                        format_args!("reachability changed; {evicted} cached route(s) evicted"),
                    );
                }
            }
            if let Some(next) = self.route_cache.get(&dest) {
                if let Some(&conn) = self.siblings.get(next) {
                    // Validate the cached hop against link liveness: a
                    // route learned during a brief heal can survive a
                    // second cut (`evict_via` only fires on the closed
                    // notification, which lags the cut), and sending into
                    // it blackholes a whole retry cycle.
                    if sys.conn_alive(conn) {
                        self.stats.route_cache_hits += 1;
                        self.forward_req(sys, id, conn);
                        return;
                    }
                    let next = next.to_string();
                    self.route_cache.evict_via(&next);
                    self.note(sys, format_args!("route via {next} is dead; evicted"));
                }
            }
        }
        // Establish a direct channel (the expensive path: Figure 2 chain).
        match self.ensure_sibling(sys, &dest) {
            SiblingStatus::Connected(conn) => self.forward_req(sys, id, conn),
            SiblingStatus::Pending => {
                let frame = self.req_frame(id);
                self.outbox.entry(dest).or_default().push((frame, id));
                if let Some(r) = self.rpc.get_mut(id) {
                    r.phase = ReqPhase::AwaitChannel;
                }
            }
            SiblingStatus::Unavailable => {
                self.finish_with_error(sys, id, ErrCode::NoRoute, "unknown host");
            }
        }
    }

    /// The wire form of a pending request, written from the table's
    /// entry. The correlation id — not the local table id — goes on the
    /// wire, and the route extends the origin's accumulated route, so the
    /// request keeps one identity end-to-end.
    fn req_frame(&self, id: u64) -> Bytes {
        let r = self.rpc.get(id).expect("wire form of a live request");
        let mut route = r.route.clone();
        route.push(&self.host);
        ReqRef {
            id: r.corr.1,
            user: r.user,
            dest: &r.dest,
            op: &r.op,
            route: &route,
            hops_left: r.hops_left,
            deadline_us: r.deadline.map_or(0, SimTime::as_micros),
            attempt: r.attempt,
            boot: r.boot,
        }
        .to_bytes()
    }

    fn forward_req(&mut self, sys: &mut dyn Sys, id: u64, conn: ConnId) {
        match sys.send(conn, self.req_frame(id)) {
            Ok(()) => self.mark_sent(sys, id, conn),
            Err(e) => {
                // A synchronous send error means the connection is dead
                // even if the kernel's closed notification has not fired
                // yet. Reap it now so retries rebuild the channel instead
                // of burning their budget on the same corpse.
                self.on_conn_closed(sys, conn);
                self.fail_request_transport(sys, id, &format!("send failed: {e}"));
            }
        }
    }

    /// Records that a request went out on `conn` and arms its per-attempt
    /// timer (clipped to the remaining deadline, so an expiring request
    /// fails as `DeadlineExceeded` rather than idling a full timeout).
    pub(crate) fn mark_sent(&mut self, sys: &mut dyn Sys, id: u64, conn: ConnId) {
        let now = sys.now();
        let mut timeout = self.cfg.req_timeout;
        if let Some(r) = self.rpc.get(id) {
            if let Some(d) = r.deadline {
                timeout = timeout.min(d.saturating_since(now));
            }
        }
        let token = self.arm(sys, timeout, TimerKind::ReqTimeout(id));
        if let Some(r) = self.rpc.get_mut(id) {
            r.phase = ReqPhase::Sent;
            r.sent_conn = Some(conn);
            r.timeout_token = Some(token);
        }
    }

    /// A `Resp` arrived for a request we sent (or relayed), addressed by
    /// its correlation key `(route origin, wire id)`.
    fn handle_resp(&mut self, sys: &mut dyn Sys, id: u64, reply: WireReply, route: Route) {
        let Some(origin) = route.origin() else {
            return;
        };
        let key: RpcKey = (Name::new(origin), id);
        let Some(local_id) = self.rpc.resolve(&key) else {
            return; // timed out, refused or duplicate
        };
        // A reply settles the request in any remote phase — including a
        // late first-attempt reply arriving during a retry backoff (the
        // parked `ReqRetry` timer then fires on a dead id, a no-op).
        self.learn_route(&route);
        // Relays pass the responder's fuller route upstream so the origin
        // learns the whole path, not just its first hop.
        self.finish_req_via(sys, local_id, reply, Some(route));
    }

    /// Route learning: a reply's source-destination route teaches us the
    /// next hop toward every host on it (see
    /// [`RouteCache::learn`](crate::locator::RouteCache::learn)).
    pub(crate) fn learn_route(&mut self, route: &Route) {
        if !self.cfg.route_learning {
            return;
        }
        self.route_cache.learn(route, &self.host);
    }

    // ---- retries and timeouts ---------------------------------------------------

    /// A transport failure (connection loss, channel failure, send error)
    /// hit an in-flight request. Origin-side requests with budget left
    /// retry with backoff under the same correlation id; everything else
    /// fails upstream.
    pub(crate) fn fail_request_transport(&mut self, sys: &mut dyn Sys, id: u64, detail: &str) {
        let now = sys.now();
        let Some(r) = self.rpc.get_mut(id) else {
            return;
        };
        let token = r.timeout_token.take();
        let verdict = r.retry_verdict(now, false);
        if let Some(tok) = token {
            self.rpc.cancel(tok);
        }
        match verdict {
            TransportVerdict::Retry { delay } => self.schedule_retry(sys, id, delay, detail),
            TransportVerdict::Fail(code) => self.finish_with_error(sys, id, code, detail),
        }
    }

    /// A directed request's per-attempt timer expired.
    pub(crate) fn req_timeout(&mut self, sys: &mut dyn Sys, id: u64) {
        let now = sys.now();
        let Some(r) = self.rpc.get_mut(id) else {
            return;
        };
        r.timeout_token = None;
        match r.retry_verdict(now, true) {
            TransportVerdict::Retry { delay } => self.schedule_retry(sys, id, delay, "no response"),
            TransportVerdict::Fail(ErrCode::DeadlineExceeded) => {
                self.finish_with_error(sys, id, ErrCode::DeadlineExceeded, "deadline exceeded")
            }
            TransportVerdict::Fail(_) => {
                self.finish_with_error(sys, id, ErrCode::Timeout, "no response")
            }
        }
    }

    /// Parks a request for its backoff delay before the next attempt.
    fn schedule_retry(&mut self, sys: &mut dyn Sys, id: u64, delay: SimDuration, why: &str) {
        self.obs.registry.inc(self.obs.retries);
        let backoff = self.obs.backoff_us;
        self.obs.registry.record(backoff, delay.as_micros());
        let (key, attempt) = {
            let r = self.rpc.get_mut(id).expect("retrying request exists");
            r.phase = ReqPhase::RetryWait;
            r.sent_conn = None;
            (fmt_key(&r.corr), r.attempt)
        };
        self.note(
            sys,
            format_args!("request {key} retry attempt {attempt} in {delay} ({why})"),
        );
        self.arm(sys, delay, TimerKind::ReqRetry(id));
    }

    /// A retry backoff elapsed: re-send under the same correlation id.
    /// The handler acquired for the first attempt is still held.
    pub(crate) fn req_retry(&mut self, sys: &mut dyn Sys, id: u64) {
        let Some(r) = self.rpc.get_mut(id) else {
            return;
        };
        if r.phase != ReqPhase::RetryWait {
            return;
        }
        r.phase = ReqPhase::HandlerForRemote;
        self.send_remote(sys, id);
    }

    // ---- local execution ----------------------------------------------------------

    /// Op-cost elapsed: apply the operation's effects.
    fn exec_local(&mut self, sys: &mut dyn Sys, id: u64) {
        self.stats.executed += 1;
        let op = self
            .rpc
            .get(id)
            .expect("executing request exists")
            .op
            .clone();
        let reply = match op {
            Op::Ping => Some(Reply::Pong),
            Op::Status => Some(self.status_reply(sys)),
            Op::Control { pid, action } => Some(self.do_control(sys, pid, action)),
            Op::Spawn {
                command,
                logical_parent,
                lifetime_us,
                work_us,
                cpu_bound,
            } => self.do_spawn(
                sys,
                id,
                Name::from(command),
                logical_parent,
                lifetime_us,
                work_us,
                cpu_bound,
            ),
            Op::Snapshot => {
                // The one bulky reply: encoded straight from the slab
                // once per change of the genealogy, not once per request.
                let slice = self.tree.snapshot_reply();
                return self.finish_req(sys, id, slice);
            }
            Op::Rusage { pid } => Some(Reply::Rusage {
                records: self.history.exited(&self.host, pid),
            }),
            Op::History { since_us, max } => Some(Reply::History {
                events: self.history.query(&self.host, since_us, max as usize),
            }),
            Op::OpenFiles { pid } => Some(self.do_open_files(sys, pid)),
            Op::Adopt { pid, flags } => Some(self.do_adopt(sys, pid, flags)),
            Op::SetTraceFlags { pid, flags } => Some(
                match sys.set_trace_flags(Pid(pid), TraceFlags::from_bits(flags)) {
                    Ok(()) => Reply::Ok,
                    Err(e) => err_reply(e),
                },
            ),
            Op::AddTrigger { spec } => {
                self.triggers.add(spec);
                Some(Reply::Ok)
            }
            Op::DelTrigger { id: tid } => Some(if self.triggers.remove(tid) {
                Reply::Ok
            } else {
                Reply::Err {
                    code: ErrCode::NotFound,
                    detail: format!("no trigger {tid}"),
                }
            }),
            Op::ListTriggers => Some(Reply::Triggers {
                entries: self.triggers.list().to_vec(),
            }),
            Op::Stats => {
                let pool = self.pool.stats();
                Some(Reply::Stats {
                    requests: self.stats().requests,
                    bcasts: (
                        self.stats.bcasts_originated,
                        self.stats.bcasts_forwarded,
                        self.stats.bcasts_suppressed,
                    ),
                    relays: self.stats.relays,
                    route_cache_hits: self.stats.route_cache_hits,
                    auth_failures: self.stats.auth_failures,
                    handlers: (pool.forks, pool.reuses, pool.reaped),
                })
            }
            Op::Metrics => Some(Reply::Metrics {
                host: self.host.clone(),
                at_us: sys.now().as_micros(),
                rows: self.obs.rows(),
            }),
        };
        match reply {
            Some(reply) => self.finish_req(sys, id, WireReply::from(&reply)),
            None => {
                // Spawn: reply deferred until the child's exec event.
                if let Some(r) = self.rpc.get_mut(id) {
                    r.phase = ReqPhase::AwaitSpawn;
                }
            }
        }
    }

    pub(crate) fn status_reply(&self, sys: &dyn Sys) -> Reply {
        Reply::Status {
            host: self.host.clone(),
            load_milli: (sys.load_avg() * 1000.0) as u32,
            managed: self.tree.live_count() as u32,
            siblings: self.siblings.keys().cloned().collect(),
            ccs: self.ccs.clone(),
            epoch: self.epoch,
        }
    }

    fn do_control(&mut self, sys: &mut dyn Sys, pid: u32, action: ControlAction) -> Reply {
        let signal = match action {
            ControlAction::Stop => Signal::Stop,
            ControlAction::Foreground | ControlAction::Background => Signal::Cont,
            ControlAction::Kill => Signal::Kill,
            ControlAction::Signal(n) => match Signal::from_number(n) {
                Some(s) => s,
                None => {
                    return Reply::Err {
                        code: ErrCode::BadRequest,
                        detail: format!("unknown signal {n}"),
                    }
                }
            },
        };
        let verb = match action {
            ControlAction::Stop => "stop",
            ControlAction::Foreground => "foreground",
            ControlAction::Background => "background",
            ControlAction::Kill => "kill",
            ControlAction::Signal(_) => "signal",
        };
        match sys.kill(Pid(pid), signal) {
            Ok(()) => {
                let at = sys.now();
                self.history
                    .record(at, Who::Local(pid), verb, Detail::Signal(signal));
                Reply::Ok
            }
            Err(e) => err_reply(e),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_spawn(
        &mut self,
        sys: &mut dyn Sys,
        id: u64,
        command: Name,
        logical_parent: Option<Gpid>,
        lifetime_us: Option<u64>,
        work_us: u64,
        cpu_bound: bool,
    ) -> Option<Reply> {
        let spec = match lifetime_us {
            Some(life) => SpawnSpec::new(
                command.clone(),
                Box::new(Worker::new(
                    SimDuration::from_micros(life),
                    SimDuration::from_micros(work_us),
                )),
            )
            .cpu_bound(cpu_bound),
            None => SpawnSpec::inert(command.clone()).cpu_bound(cpu_bound),
        };
        let pid = match sys.spawn(spec) {
            Ok(pid) => pid,
            Err(e) => return Some(err_reply(e)),
        };
        if let Err(e) = sys.adopt(pid, DEFAULT_TRACE_FLAGS) {
            return Some(err_reply(e));
        }
        // Tree: link locally when the logical parent is here, otherwise
        // record the cross-host logical edge.
        let (ppid, logical) = match &logical_parent {
            Some(g) if g.host == self.host => (g.pid, None),
            other => (1, other.clone()),
        };
        let now = sys.now();
        self.tree
            .track(pid.0, ppid, logical, command.clone(), now.as_micros(), true);
        self.history
            .record(now, Who::Local(pid.0), "create", Detail::Spawned(command));
        self.rpc.add_spawn_wait(pid.0, id);
        if let Some(r) = self.rpc.get_mut(id) {
            r.spawn_pid = Some(pid.0);
        }
        None
    }

    /// Settles the creation request waiting on `pid`, if there is one:
    /// it completes when its child reaches exec (the process exists and
    /// runs) and fails when the child dies first.
    pub(crate) fn finish_spawn_wait(&mut self, sys: &mut dyn Sys, pid: u32, reached_exec: bool) {
        let Some(req_id) = self.rpc.take_spawn_wait(pid) else {
            return;
        };
        if reached_exec {
            let gpid = Gpid::new(self.host.as_str(), pid);
            let reply = Reply::Spawned { gpid };
            self.finish_req(sys, req_id, WireReply::from(&reply));
        } else {
            let why = "created process died before exec";
            self.finish_with_error(sys, req_id, ErrCode::Internal, why);
        }
    }

    fn do_adopt(&mut self, sys: &mut dyn Sys, pid: u32, flags: u8) -> Reply {
        let flags = TraceFlags::from_bits(flags);
        match sys.adopt(Pid(pid), flags) {
            Ok(()) => {}
            Err(e) => return err_reply(e),
        }
        let now = sys.now();
        // Track the target and all its live same-user descendants
        // ("Adoption allows the LPM to keep track of a process and its
        // descendants").
        let mine = sys.user_processes(sys.uid());
        let mut frontier = vec![pid];
        let mut members = vec![pid];
        while let Some(p) = frontier.pop() {
            for info in mine.iter().filter(|i| i.ppid.0 == p && i.pid.0 != p) {
                if !members.contains(&info.pid.0) {
                    members.push(info.pid.0);
                    frontier.push(info.pid.0);
                }
            }
        }
        members.sort_unstable();
        for m in members {
            if m != pid {
                let _ = sys.adopt(Pid(m), flags);
            }
            if !self.tree.contains(m) {
                if let Some(info) = sys.proc_info(Pid(m)) {
                    self.tree.track(
                        m,
                        info.ppid.0,
                        None,
                        info.command.clone(),
                        info.started_at.as_micros(),
                        true,
                    );
                    self.tree.set_exec(m, info.command);
                    self.tree.set_cpu(m, info.rusage.cpu.as_micros());
                }
            }
        }
        let note = format!("flags {flags}");
        self.history
            .record(now, Who::Local(pid), "adopt", note.into());
        Reply::Ok
    }

    fn do_open_files(&mut self, sys: &mut dyn Sys, pid: u32) -> Reply {
        match sys.open_fds(Pid(pid)) {
            Ok(entries) => Reply::Files {
                entries: entries
                    .into_iter()
                    .map(|(fd, kind)| {
                        let detail = match &kind {
                            FdKind::File { path, mode } => format!("{path} ({mode})"),
                            FdKind::Socket { conn } => format!("stream {conn}"),
                            FdKind::Listener { port } => format!("listening {port}"),
                            FdKind::KernelSocket => "kernel event socket".to_string(),
                        };
                        FileRecord {
                            fd: fd.0,
                            kind: kind.kind_name().to_string(),
                            detail,
                        }
                    })
                    .collect(),
            },
            Err(e) => err_reply(e),
        }
    }

    // ---- completion ------------------------------------------------------------

    /// Completes a request with a reply, releasing its resources.
    pub(crate) fn finish_req(&mut self, sys: &mut dyn Sys, id: u64, reply: WireReply) {
        self.finish_req_via(sys, id, reply, None);
    }

    /// Completes a request; `resp_route` (when a downstream `Resp`
    /// supplied one) replaces the locally recorded route in the reply
    /// sent upstream, so origins see whole paths.
    fn finish_req_via(
        &mut self,
        sys: &mut dyn Sys,
        id: u64,
        reply: WireReply,
        resp_route: Option<Route>,
    ) {
        let Some(req) = self.rpc.remove(id) else {
            return;
        };
        // Remember cross-host logical edges of spawns we saw succeed (as
        // origin or relay): a respawned sibling pulls them back when it
        // rebuilds its forest after a crash ([`Msg::ForestPull`]).
        if let Op::Spawn {
            logical_parent: Some(parent),
            ..
        } = &req.op
        {
            match reply.read() {
                Ok(ReplyRef::Spawned { host, pid }) if host != self.host => {
                    let known = self.remote_children.entry(Name::new(host)).or_default();
                    if known.len() < 4096 {
                        known.insert(pid, parent.clone());
                    }
                }
                _ => {}
            }
        }
        let span = format_args!("{}#{}", req.corr.0, req.corr.1);
        sys.span("req", span, SpanPhase::End);
        if let Some(tok) = req.timeout_token {
            self.rpc.cancel(tok);
        }
        // A relay's respond handler blocks until the node's whole wave
        // participation completes ("handler processes may block while
        // waiting for a response from a remote process"); it is parked in
        // the broadcast state rather than released here.
        let mut handler = req.handler;
        if let ReplyTo::BcastLocal { key } = &req.reply_to {
            if let Some(BcastRole::Relay {
                respond_handler, ..
            }) = self.bcasts.get_mut(key).map(|b| &mut b.role)
            {
                *respond_handler = handler.take();
            }
        }
        self.release_handler(sys, handler);
        match req.reply_to {
            ReplyTo::Tool { conn, external_id } => {
                let route = resp_route.unwrap_or(req.route);
                let _ = sys.send(conn, reply.resp(external_id, &route));
            }
            ReplyTo::Sibling {
                conn,
                external_id,
                route_in,
            } => {
                let route = resp_route.unwrap_or(route_in);
                let resp = reply.resp(external_id, &route);
                // Idempotent dedup: park the answer in the retention
                // window so a retried delivery of the same correlation
                // id is answered without re-execution.
                self.rpc.note_done(req.corr, sys.now(), resp.clone());
                let _ = sys.send(conn, resp);
            }
            ReplyTo::Internal => {
                if let Ok(ReplyRef::Err { code, detail }) = reply.read() {
                    let at = sys.now();
                    let note = format!("{code:?}: {detail}");
                    self.history
                        .record(at, Who::Local(0), "internal-error", note.into());
                }
            }
            ReplyTo::BcastLocal { key } => {
                self.bcast_local_complete(sys, &key, reply);
            }
        }
    }

    /// Completes a request with an error.
    pub(crate) fn finish_with_error(
        &mut self,
        sys: &mut dyn Sys,
        id: u64,
        code: ErrCode,
        detail: &str,
    ) {
        let reply = Reply::Err {
            code,
            detail: clip_str(detail).to_string(),
        };
        self.finish_req(sys, id, WireReply::from(&reply));
    }
}

/// Maps a syscall error onto a wire error reply.
pub(crate) fn err_reply(e: SysError) -> Reply {
    let code = match e {
        SysError::NoSuchProcess => ErrCode::NoSuchProcess,
        SysError::PermissionDenied | SysError::AlreadyTraced => ErrCode::Permission,
        SysError::NoSuchHost | SysError::Unreachable => ErrCode::NoRoute,
        SysError::HostDown => ErrCode::HostDown,
        _ => ErrCode::Internal,
    };
    Reply::Err {
        code,
        detail: e.to_string(),
    }
}
