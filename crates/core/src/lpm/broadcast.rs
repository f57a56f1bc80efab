//! The broadcast echo wave over the sibling graph.
//!
//! Section 4: "Because our on-demand communication topology is designed to
//! produce low-connectivity graphs, we have to pay a price for broadcast
//! requests. The PPM uses a graph covering algorithm. A scheme for not
//! retransmitting old broadcast requests has been implemented using a
//! signed timestamp in which the name of the originating host appears. ...
//! All data returned to the originator of a broadcast request includes the
//! message's source-destination route."
//!
//! Implementation: a Chang-style echo wave with in-network aggregation.
//! The originator sends the stamped request to all siblings; each
//! first-time receiver gathers its local slice, forwards to its other
//! siblings, and folds every answer from its subtree — its own slice plus
//! each child's aggregate — into one [`Msg::BcastAgg`] frame that travels
//! its upstream edge exactly once, followed by [`Msg::BcastDone`] when the
//! subtree is exhausted. Child aggregates are spliced byte-for-byte (the
//! part frames are never re-decoded in transit), so a deep chain moves
//! each record across each edge once instead of re-relaying every record
//! at every hop. Lost children, straggler timeouts and children whose
//! aggregate cannot be read are recorded in the aggregate's `missing`
//! list; the originator surfaces a non-empty list as
//! [`Reply::Partial`](ppm_proto::msg::Reply::Partial). Duplicates
//! (identified by the signed stamp within the retention window) are
//! answered with an immediate `BcastDone`.
//!
//! Every participant keeps one [`BcastState`] and starts the same way
//! (`join_wave`); what only the originator or only a relay keeps — the
//! merge queue, the upstream aggregate — lives in its [`BcastRole`].
//!
//! The originator works gather-then-combine. While the wave runs, each
//! arriving aggregate is split into its parts ([`WirePart::split`]: the
//! route of each part is decoded and learned from, the reply stays a
//! slice of the arriving frame, and the walk that checks a snapshot
//! records its run — [`SnapshotRun`]) and the parts wait, one per
//! answering host: a second part from a host, which only a duplicated
//! aggregate brings, is dropped. Once the wave has quiesced every part
//! gets one serialized merge slot of
//! [`merge_cost`](crate::config::PpmConfig::merge_cost) — the modelled
//! price of folding one host's answer in, which is what gives Table 3 its
//! per-answering-host slope — and when the last slot has fired the
//! combine itself runs once: [`WireReply::merge`], which splices the
//! runs' record regions in first-key order into the reply the tool
//! receives (a sort of record keys only when the runs do not line up).
//! No record is materialised at the originator, and a relay writes its
//! aggregate once, straight from what it gathered
//! ([`Msg::bcast_agg_bytes`]).

use std::collections::{BTreeSet, HashSet, VecDeque};

use ppm_proto::codec::{frames, Enc, Wire};
use ppm_proto::msg::{ErrCode, Msg, Op, Reply, ReplyRef, WirePart, WireReply, MAX_REPLY_RECORDS};
use ppm_proto::types::{Name, Route, Stamp};
use ppm_runtime::ids::ConnId;
use ppm_runtime::obs::SpanPhase;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{SimDuration, SimTime};
use ppm_runtime::trace::TraceCategory;

use crate::rpc::PendingRequest;

use super::{BcastKey, BcastRole, BcastState, Lpm, ReplyTo, TimerKind};

/// The deepest cover tree the straggler timers are sized for.
const WAVE_LEVELS: u64 = 48;
/// What the timers allow one level of a wave: a handler fork and the
/// request's hop down, the aggregate's hop back up.
const LEVEL_ALLOWANCE: SimDuration = SimDuration::from_millis(150);

/// Which operations may be broadcast (`dest = "*"`).
fn broadcastable(op: &Op) -> bool {
    matches!(
        op,
        Op::Snapshot | Op::Rusage { .. } | Op::History { .. } | Op::Ping
    )
}

impl BcastState {
    /// The state of a wave this LPM has just entered, nothing done yet.
    fn new(
        stamp: Stamp,
        user: u32,
        op: Op,
        route_in: Route,
        forward_targets: Vec<Name>,
        role: BcastRole,
    ) -> Self {
        BcastState {
            stamp,
            op,
            user,
            role,
            pending_children: BTreeSet::new(),
            local_done: false,
            forward_handler: None,
            forwarded: forward_targets.is_empty(),
            forward_targets,
            agg_received: BTreeSet::new(),
            missing: BTreeSet::new(),
            missing_capped: false,
            route_in,
            timeout_token: None,
            waited_below: false,
        }
    }

    /// Names `host` missing, unless the set already holds
    /// [`MAX_REPLY_RECORDS`] names — all one aggregate or one `Partial`
    /// reply can carry; a name past that is refused, and the wave's
    /// first refusal noted. No world has that many hosts, but a sibling
    /// may send any number of aggregates.
    fn name_missing(&mut self, sys: &mut dyn Sys, host: Name) {
        if self.missing.len() < MAX_REPLY_RECORDS || self.missing.contains(&host) {
            self.missing.insert(host);
        } else if !std::mem::replace(&mut self.missing_capped, true) {
            sys.trace(
                TraceCategory::Lpm,
                format_args!(
                    "broadcast {}#{} names over {MAX_REPLY_RECORDS} hosts missing; refusing the rest",
                    self.stamp.origin, self.stamp.seq
                ),
            );
        }
    }
}

impl Lpm {
    /// Originates a broadcast for request `req_id` (whose dest is `"*"`).
    pub(crate) fn begin_broadcast(&mut self, sys: &mut dyn Sys, req_id: u64) {
        let (user, op) = {
            let r = self.rpc.get(req_id).expect("broadcast request exists");
            (r.user, r.op.clone())
        };
        if !broadcastable(&op) {
            self.finish_with_error(
                sys,
                req_id,
                ErrCode::BadRequest,
                &format!("{} cannot be broadcast", op.kind()),
            );
            return;
        }
        self.bcast_seq += 1;
        let now = sys.now();
        let stamp = Stamp::signed(
            &self.host,
            self.bcast_seq,
            now.as_micros(),
            self.auth.stamp_secret(),
        );
        let key = stamp.key();
        self.rpc.note_bcast(key.clone(), now);
        self.stats.bcasts_originated += 1;

        let forward_targets: Vec<Name> = self.siblings.keys().cloned().collect();
        let span = format_args!("{}@{}", key.0, key.1);
        sys.span("bcast", span, SpanPhase::Begin);
        sys.trace(
            TraceCategory::Broadcast,
            format_args!(
                "originate {}#{} ({}) targets {forward_targets:?}",
                key.0,
                key.1,
                op.kind(),
            ),
        );
        let role = BcastRole::Origin {
            reply_req: req_id,
            parts: Vec::new(),
            merge_queue: VecDeque::new(),
            answered: HashSet::new(),
            combine_started: false,
            merges_outstanding: 0,
            merge_free_at: SimTime::ZERO,
        };
        let route_in = Route::from_origin(&self.host);
        self.join_wave(
            sys,
            BcastState::new(stamp, user, op, route_in, forward_targets, role),
        );
    }

    /// Starts this LPM's part in a wave — for the originator and a relay
    /// alike: gather the local slice, hand the downstream fan-out to a
    /// handler, arm the straggler timeout.
    fn join_wave(&mut self, sys: &mut dyn Sys, mut state: BcastState) {
        let key = state.stamp.key();
        // The originator's dispatcher gathers its slice directly. A relay
        // hands it to a handler, respond-task first and then the
        // forward-task — the dispatcher serializes the two hand-offs.
        let by_handler = matches!(state.role, BcastRole::Relay { .. });
        self.begin_local_slice(sys, &key, state.user, state.op.clone(), by_handler);
        // Downstream wave: a handler carries the fan-out and blocks on it.
        if !state.forward_targets.is_empty() {
            let (h, d) = self.acquire_handler(sys);
            state.forward_handler = Some(h);
            self.arm(sys, d, TimerKind::BcastForward(key.clone()));
        }
        let timeout = self.cfg.bcast_timeout;
        let tok = self.arm(sys, timeout, TimerKind::BcastTimeout(key.clone()));
        state.timeout_token = Some(tok);
        self.bcasts.insert(key, state);
    }

    /// Creates the internal sub-request that gathers this host's slice.
    fn begin_local_slice(
        &mut self,
        sys: &mut dyn Sys,
        key: &BcastKey,
        user: u32,
        op: Op,
        with_handler: bool,
    ) {
        let id = self.alloc_internal_id();
        let reply_to = ReplyTo::BcastLocal { key: key.clone() };
        let policy = self.retry_policy();
        let mut req = PendingRequest {
            user,
            dest: self.host.clone(),
            op: op.clone(),
            reply_to,
            phase: super::ReqPhase::OpCost,
            handler: None,
            sent_conn: None,
            hops_left: 0,
            route: Route::from_origin(&self.host),
            timeout_token: None,
            spawn_pid: None,
            // Local pseudo-request: never travels, never retries; the
            // wave's own stamp and timeout govern it.
            corr: (self.host.clone(), id),
            boot: self.boot_epoch(),
            deadline: None,
            attempt: 0,
            attempts_left: 0,
            backoff: policy.backoff,
            backoff_max: policy.backoff_max,
        };
        let d = if with_handler {
            let (h, d) = self.acquire_handler(sys);
            req.handler = Some(h);
            req.phase = super::ReqPhase::HandlerForLocal;
            d
        } else {
            let cost = self.op_cost(&op);
            sys.scale_cost(cost)
        };
        self.rpc.insert(id, req);
        self.arm(sys, d, TimerKind::ReqStep(id));
    }

    /// A broadcast request arrived from sibling `from_host`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_bcast(
        &mut self,
        sys: &mut dyn Sys,
        conn: ConnId,
        from_host: &str,
        stamp: Stamp,
        user: u32,
        op: Op,
        route: Route,
    ) {
        if !stamp.verify(self.auth.stamp_secret()) {
            self.note(
                sys,
                format_args!("broadcast with bad stamp from {from_host}; ignored"),
            );
            return;
        }
        let key = stamp.key();
        if self.rpc.bcast_seen(&key) || self.bcasts.contains_key(&key) {
            // Old request within the retention window — or a wave still in
            // progress, which counts as seen regardless of the window.
            self.stats.bcasts_suppressed += 1;
            sys.trace(
                TraceCategory::Broadcast,
                format_args!("suppress duplicate {}#{} from {from_host}", key.0, key.1),
            );
            // A wire-duplicated wave on the upstream connection of a wave
            // still in progress needs no answer: the real aggregate is
            // coming on that very connection, and an eager `BcastDone`
            // would make the parent finalize without it. Duplicates via
            // an alternate graph path (or after completion) still get the
            // marker so that parent stops waiting on this child.
            let in_progress_upstream = self.bcasts.get(&key).is_some_and(
                |b| matches!(b.role, BcastRole::Relay { upstream, .. } if upstream == conn),
            );
            if !in_progress_upstream {
                let _ = self.send_msg(sys, conn, &Msg::BcastDone { stamp });
            }
            return;
        }
        let now = sys.now();
        self.rpc.note_bcast(key.clone(), now);
        self.stats.bcasts_forwarded += 1;

        // Graph cover: forward to every sibling except the sender and any
        // host the request already visited.
        let forward_targets: Vec<Name> = self
            .siblings
            .keys()
            .filter(|h| h.as_str() != from_host && !route.contains(h))
            .cloned()
            .collect();
        let span = format_args!("{}@{}", key.0, key.1);
        sys.span("bcast.relay", span, SpanPhase::Begin);
        sys.trace(
            TraceCategory::Broadcast,
            format_args!(
                "receive {}#{} from {from_host}, forward to {forward_targets:?}",
                key.0, key.1
            ),
        );
        let role = BcastRole::Relay {
            upstream: conn,
            agg_buf: Enc::new(),
            agg_count: 0,
            respond_handler: None,
        };
        self.join_wave(
            sys,
            BcastState::new(stamp, user, op, route, forward_targets, role),
        );
    }

    /// The forward handler is ready: send the wave downstream.
    pub(crate) fn bcast_forward_ready(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let Some(b) = self.bcasts.get(key) else {
            return;
        };
        let stamp = b.stamp.clone();
        let user = b.user;
        let op = b.op.clone();
        let mut route = b.route_in.clone();
        route.push(&self.host);
        let targets = b.forward_targets.clone();
        sys.trace(
            TraceCategory::Broadcast,
            format_args!("forward {}#{} -> {targets:?}", key.0, key.1),
        );
        // The wave body is identical for every sibling: encode the message
        // once and fan out cheap shared-buffer clones of the bytes.
        let msg = Msg::Bcast {
            stamp,
            user,
            op,
            route,
        };
        let wire = msg.to_bytes();
        for host in targets {
            let Some(&conn) = self.siblings.get(&host) else {
                continue;
            };
            if sys.send(conn, wire.clone()).is_ok() {
                if let Some(b) = self.bcasts.get_mut(key) {
                    b.pending_children.insert(host);
                }
            }
        }
        if let Some(b) = self.bcasts.get_mut(key) {
            b.forwarded = true;
        }
        self.maybe_complete(sys, key);
    }

    /// The local slice finished gathering.
    pub(crate) fn bcast_local_complete(
        &mut self,
        sys: &mut dyn Sys,
        key: &BcastKey,
        reply: WireReply,
    ) {
        let Some(b) = self.bcasts.get_mut(key) else {
            return;
        };
        b.local_done = true;
        sys.trace(
            TraceCategory::Broadcast,
            format_args!("local slice done {}#{}", key.0, key.1),
        );
        match &mut b.role {
            BcastRole::Origin { parts, .. } => {
                let run = reply.read().ok().and_then(ReplyRef::run);
                parts.push((reply, run));
            }
            BcastRole::Relay {
                agg_buf, agg_count, ..
            } => {
                // The local slice becomes the first part of the subtree's
                // single upstream aggregate.
                let mut route = b.route_in.clone();
                route.push(&self.host);
                reply.push_part(agg_buf, &self.host, &route);
                *agg_count += 1;
            }
        }
        self.maybe_complete(sys, key);
    }

    /// A child subtree's aggregated answers arrived in one frame.
    pub(crate) fn handle_bcast_agg(
        &mut self,
        sys: &mut dyn Sys,
        from_host: &str,
        stamp: Stamp,
        parts: bytes::Bytes,
        missing: Vec<Name>,
    ) {
        let key = stamp.key();
        let Some(b) = self.bcasts.get_mut(&key) else {
            return;
        };
        sys.trace(
            TraceCategory::Broadcast,
            format_args!(
                "aggregate from {from_host} for {}#{} ({} missing)",
                key.0,
                key.1,
                missing.len()
            ),
        );
        // A child whose aggregate cannot be read has not answered: it is
        // named missing, so the tool gets a `Partial` naming it instead of
        // a complete-looking result with that subtree silently absent.
        let mut unreadable = None;
        match &mut b.role {
            BcastRole::Origin { .. } => {
                // Split the batch and queue each part for the combine
                // phase (the per-part merge cost model is unchanged —
                // only the transit cost collapsed).
                match WirePart::split(&parts) {
                    Ok(parts) => {
                        let mut dropped = 0;
                        for part in parts {
                            dropped += usize::from(!self.queue_part(sys, &key, part));
                        }
                        if dropped > 0 {
                            self.note(
                                sys,
                                format_args!(
                                    "dropped {dropped} part(s) from {from_host} for {}#{}: their hosts had answered",
                                    key.0, key.1
                                ),
                            );
                        }
                    }
                    Err(e) => unreadable = Some(e.to_string()),
                }
            }
            BcastRole::Relay {
                agg_buf, agg_count, ..
            } => {
                // Splice the child's frames onto ours byte-for-byte — the
                // in-network aggregation fast path.
                match append_batch(agg_buf, &parts) {
                    Some(spliced) => {
                        *agg_count += spliced;
                        let spliced = u64::from(spliced);
                        self.obs.registry.add(self.obs.parts_spliced, spliced);
                    }
                    None => unreadable = Some("frames do not fill the batch".to_string()),
                }
            }
        }
        if let Some(why) = &unreadable {
            self.note(sys, format_args!("bad aggregate from {from_host}: {why}"));
        }
        let b = self.bcasts.get_mut(&key).expect("checked");
        b.agg_received.insert(Name::new(from_host));
        for host in missing {
            b.name_missing(sys, host);
        }
        if unreadable.is_some() {
            b.name_missing(sys, Name::new(from_host));
        }
    }

    /// Queues one gathered part at the originator, unless its host has
    /// answered this wave already (returns `false`: the part is
    /// dropped). During the wave the part just waits; once the combine
    /// phase has begun (a late straggler after a timeout), it gets its
    /// serialized slot at once.
    fn queue_part(&mut self, sys: &mut dyn Sys, key: &BcastKey, part: WirePart) -> bool {
        let Some(BcastRole::Origin {
            merge_queue,
            answered,
            combine_started,
            ..
        }) = self.bcasts.get_mut(key).map(|b| &mut b.role)
        else {
            return true;
        };
        if part.host == self.host.as_bytes() || !answered.insert(part.host) {
            return false;
        }
        merge_queue.push_back((part.reply, part.run));
        let combine_started = *combine_started;
        self.learn_route(&part.route);
        if combine_started {
            self.schedule_merge_slot(sys, key);
        }
        true
    }

    /// Arms one serialized originator merge slot.
    fn schedule_merge_slot(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let now = sys.now();
        let cost = sys.scale_cost(self.cfg.merge_cost);
        let Some(BcastRole::Origin {
            merges_outstanding,
            merge_free_at,
            ..
        }) = self.bcasts.get_mut(key).map(|b| &mut b.role)
        else {
            return;
        };
        *merges_outstanding += 1;
        let ready = (*merge_free_at).max(now) + cost;
        *merge_free_at = ready;
        let delay = ready.saturating_since(now);
        self.arm(sys, delay, TimerKind::BcastMerge(key.clone()));
    }

    /// An originator merge slot completed.
    pub(crate) fn bcast_merge_slot(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let Some(BcastRole::Origin {
            parts,
            merge_queue,
            merges_outstanding,
            ..
        }) = self.bcasts.get_mut(key).map(|b| &mut b.role)
        else {
            return;
        };
        *merges_outstanding = merges_outstanding.saturating_sub(1);
        parts.extend(merge_queue.pop_front());
        self.maybe_complete(sys, key);
    }

    /// A child subtree reported completion.
    pub(crate) fn bcast_child_done(&mut self, sys: &mut dyn Sys, key: &BcastKey, child: &str) {
        if let Some(b) = self.bcasts.get_mut(key) {
            b.pending_children.remove(child);
        }
        self.maybe_complete(sys, key);
    }

    /// A child's channel broke (or never came up): complete without it and
    /// record the loss — unless its aggregate already arrived, in which
    /// case its subtree's answers are all present.
    pub(crate) fn bcast_child_lost(&mut self, sys: &mut dyn Sys, key: &BcastKey, child: &str) {
        if let Some(b) = self.bcasts.get_mut(key) {
            if b.pending_children.remove(child) && !b.agg_received.contains(child) {
                b.name_missing(sys, Name::new(child));
            }
        }
        self.maybe_complete(sys, key);
    }

    /// The wave safety timeout fired.
    pub(crate) fn bcast_timeout(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let Some(b) = self.bcasts.get_mut(key) else {
            return;
        };
        if !b.pending_children.is_empty() || !b.forwarded {
            // Whoever is still awaited may be relaying through levels
            // further down: wait on, once, for an allowance per level that
            // may lie below this one (the originator is at depth 0, a relay
            // as deep as the route the wave took to it is long). A child
            // thus gives up before its parent (DESIGN.md §8).
            let depth = match b.role {
                BcastRole::Origin { .. } => 0,
                BcastRole::Relay { .. } => b.route_in.hosts().len() as u64,
            };
            let below = LEVEL_ALLOWANCE.saturating_mul(WAVE_LEVELS.saturating_sub(depth));
            if !std::mem::replace(&mut b.waited_below, true) && !below.is_zero() {
                let tok = self.arm(sys, below, TimerKind::BcastTimeout(key.clone()));
                self.bcasts.get_mut(key).expect("checked").timeout_token = Some(tok);
                return;
            }
            let stragglers: Vec<Name> = b.pending_children.iter().cloned().collect();
            for h in &stragglers {
                if !b.agg_received.contains(h) {
                    b.name_missing(sys, h.clone());
                }
            }
            b.pending_children.clear();
            b.forwarded = true;
            b.timeout_token = None;
            self.note(
                sys,
                format_args!(
                    "broadcast {}#{} timed out waiting for {stragglers:?}",
                    key.0, key.1
                ),
            );
        }
        self.maybe_complete(sys, key);
    }

    /// Checks whether this LPM's participation in the wave is complete.
    fn maybe_complete(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let Some(b) = self.bcasts.get_mut(key) else {
            return;
        };
        let gathered = b.local_done && b.forwarded && b.pending_children.is_empty();
        if !gathered {
            return;
        }
        if let BcastRole::Origin {
            merge_queue,
            combine_started,
            merges_outstanding,
            ..
        } = &mut b.role
        {
            if !*combine_started {
                // Gather-then-combine: the origin's serialized merge slots
                // start only once the wave has quiesced, so every
                // contributor pays a full slot at the tail — the Table 3
                // shape, where an extra answering host costs an extra
                // merge even when its reply arrived early and in parallel.
                *combine_started = true;
                let parts_waiting = merge_queue.len();
                for _ in 0..parts_waiting {
                    self.schedule_merge_slot(sys, key);
                }
                if parts_waiting > 0 {
                    return;
                }
            } else if !merge_queue.is_empty() || *merges_outstanding > 0 {
                return;
            }
        }
        let b = self.bcasts.remove(key).expect("checked");
        if let Some(tok) = b.timeout_token {
            self.rpc.cancel(tok);
        }
        match b.role {
            BcastRole::Origin {
                reply_req, parts, ..
            } => {
                // Merge parts into the final reply; a non-empty missing
                // list marks the result as partial.
                self.release_handler(sys, b.forward_handler);
                sys.trace(
                    TraceCategory::Broadcast,
                    format_args!(
                        "finalize {}#{} with {} parts ({} missing)",
                        key.0,
                        key.1,
                        parts.len(),
                        b.missing.len()
                    ),
                );
                let span = format_args!("{}@{}", key.0, key.1);
                sys.span("bcast", span, SpanPhase::End);
                // Every part was checked when it was made or arrived, so
                // the merge's own checked walk has nothing left to refuse.
                let combined = WireReply::merge(&b.op, &parts).unwrap_or_else(|e| {
                    WireReply::from(&Reply::Err {
                        code: ErrCode::Internal,
                        detail: format!("merge failed at {e}"),
                    })
                });
                let combined = if b.missing.is_empty() {
                    combined
                } else {
                    let missing = b.missing.len() as u64;
                    self.obs.registry.inc(self.obs.partial_flushes);
                    self.obs.registry.add(self.obs.missing_hosts, missing);
                    combined.partial(&b.missing)
                };
                self.finish_req(sys, reply_req, combined);
            }
            BcastRole::Relay {
                upstream,
                agg_buf,
                agg_count,
                respond_handler,
            } => {
                let stamp = b.stamp;
                if self.cfg.reply_splicing {
                    // The whole subtree's answers leave in a single
                    // aggregated frame on this edge, written once from
                    // what was gathered, then the wave-completion marker.
                    let agg =
                        Msg::bcast_agg_bytes(&stamp, agg_count, agg_buf.as_slice(), &b.missing);
                    let _ = sys.send(upstream, agg);
                } else {
                    // Splicing off (the congestion exhibit's baseline):
                    // every collected part goes upstream as its own
                    // batch-of-one frame — leaf-direct-style traffic on
                    // every edge toward the originator — then one empty
                    // frame carries the missing list. Re-framed, not
                    // re-encoded: each part's frame is copied as it stands.
                    let missing: Vec<Name> = b.missing.into_iter().collect();
                    let mut batch = Vec::with_capacity(4 + agg_buf.len());
                    batch.extend_from_slice(&agg_count.to_be_bytes());
                    batch.extend_from_slice(agg_buf.as_slice());
                    let mut send_agg = |parts: bytes::Bytes, missing: Vec<Name>| {
                        let agg = Msg::BcastAgg {
                            stamp: stamp.clone(),
                            parts,
                            missing,
                        };
                        let _ = sys.send(upstream, agg.to_bytes());
                    };
                    for frame in frames(&batch).into_iter().flatten().map_while(Result::ok) {
                        let mut one = Enc::with_capacity(8 + frame.len());
                        one.u32(1);
                        one.bytes(frame);
                        send_agg(one.into_bytes(), Vec::new());
                    }
                    send_agg(0u32.to_be_bytes().to_vec().into(), missing);
                }
                let _ = self.send_msg(sys, upstream, &Msg::BcastDone { stamp });
                self.release_handler(sys, b.forward_handler);
                self.release_handler(sys, respond_handler);
                let span = format_args!("{}@{}", key.0, key.1);
                sys.span("bcast.relay", span, SpanPhase::End);
            }
        }
    }
}

/// Splices a child aggregate's frames (a batch minus its count header)
/// onto ours byte-for-byte — no decode, no re-encode — and returns how
/// many there were. Only the framing is checked, so that one child's
/// garbage cannot make this whole subtree's aggregate unreadable further
/// up: a batch whose frames do not fill it exactly as its header says is
/// refused (`None`) and nothing is spliced.
fn append_batch(buf: &mut Enc, batch: &[u8]) -> Option<u32> {
    let mut iter = frames(batch).ok()?;
    let count = u32::try_from(iter.len()).ok()?;
    if !iter.all(|frame| frame.is_ok()) {
        return None;
    }
    buf.splice(&batch[4..]);
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::UserCred;
    use crate::config::PpmConfig;
    use crate::rpc::{PendingRequest, ReqPhase};
    use crate::stub_sys::StubSys;
    use crate::users::UserEntry;
    use bytes::Bytes;
    use ppm_runtime::ids::Uid;

    /// An LPM on "here" that has entered a snapshot wave of `origin` in
    /// `role`, its local slice done and nothing to forward, still waiting
    /// on one child, "kid".
    fn in_wave(origin: &str, role: BcastRole) -> (Lpm, StubSys, BcastKey) {
        let entry = UserEntry {
            cred: UserCred::new(Uid(100), 7),
            recovery: vec!["here".into()],
            config: PpmConfig::default(),
        };
        let mut lpm = Lpm::new(&entry);
        lpm.host = "here".into();
        let stamp = Stamp::signed(origin, 1, 0, lpm.auth.stamp_secret());
        let key = stamp.key();
        let route_in = Route::from_origin(origin);
        let mut wave = BcastState::new(stamp, 100, Op::Snapshot, route_in, Vec::new(), role);
        wave.local_done = true;
        wave.pending_children.insert("kid".into());
        lpm.bcasts.insert(key.clone(), wave);
        (lpm, StubSys::new(true), key)
    }

    /// "kid" sends two aggregates of 40 000 distinct missing names each,
    /// then its `BcastDone`.
    fn flood(lpm: &mut Lpm, sys: &mut StubSys, key: &BcastKey) {
        let stamp = lpm.bcasts[key].stamp.clone();
        for batch in 0..2 {
            let missing = (0..40_000)
                .map(|i| format!("h{batch}-{i}").into())
                .collect();
            let no_parts = Bytes::from(0u32.to_be_bytes().to_vec());
            lpm.handle_bcast_agg(sys, "kid", stamp.clone(), no_parts, missing);
        }
        assert_eq!(lpm.bcasts[key].missing.len(), MAX_REPLY_RECORDS);
        lpm.bcast_child_done(sys, key, "kid");
        let refusals = sys.hub.trace.grep("refusing the rest").count();
        assert_eq!(refusals, 1, "one note per wave");
    }

    #[test]
    fn a_relay_flooded_with_missing_names_still_sends_what_decodes() {
        let role = BcastRole::Relay {
            upstream: ConnId(7),
            agg_buf: Enc::new(),
            agg_count: 0,
            respond_handler: None,
        };
        let (mut lpm, mut sys, key) = in_wave("origin", role);
        flood(&mut lpm, &mut sys, &key);
        let [agg, done] = &sys.sent[..] else {
            panic!("{} messages sent", sys.sent.len());
        };
        let Ok(Msg::BcastAgg { missing, .. }) = Msg::from_bytes(agg) else {
            panic!("the aggregate decodes");
        };
        assert_eq!(missing.len(), MAX_REPLY_RECORDS);
        assert!(matches!(Msg::from_bytes(done), Ok(Msg::BcastDone { .. })));
    }

    #[test]
    fn an_originator_flooded_with_missing_names_still_answers_what_decodes() {
        let role = BcastRole::Origin {
            reply_req: 1,
            parts: Vec::new(),
            merge_queue: VecDeque::new(),
            answered: HashSet::new(),
            combine_started: false,
            merges_outstanding: 0,
            merge_free_at: SimTime::ZERO,
        };
        let (mut lpm, mut sys, key) = in_wave("here", role);
        let tool = PendingRequest {
            user: 100,
            dest: "*".into(),
            op: Op::Snapshot,
            reply_to: crate::rpc::ReplyTo::Tool {
                conn: ConnId(9),
                external_id: 5,
            },
            phase: ReqPhase::BcastWait,
            handler: None,
            sent_conn: None,
            hops_left: 0,
            route: Route::from_origin("here"),
            timeout_token: None,
            spawn_pid: None,
            corr: key.clone(),
            boot: 1,
            deadline: None,
            attempt: 0,
            attempts_left: 0,
            backoff: SimDuration::ZERO,
            backoff_max: SimDuration::ZERO,
        };
        lpm.rpc.insert(1, tool);
        flood(&mut lpm, &mut sys, &key);
        let [resp] = &sys.sent[..] else {
            panic!("{} messages sent", sys.sent.len());
        };
        let Ok(Msg::Resp {
            id: 5,
            reply: Reply::Partial { missing, inner },
            ..
        }) = Msg::from_bytes(resp)
        else {
            panic!("the reply decodes, partial");
        };
        assert_eq!(missing.len(), MAX_REPLY_RECORDS);
        assert!(matches!(*inner, Reply::Snapshot { ref procs, .. } if procs.is_empty()));
    }

    #[test]
    fn a_batch_with_broken_framing_is_not_spliced() {
        let route = Route::from_origin("a");
        let mut batch = Enc::new();
        batch.u32(2);
        WireReply::from(&Reply::Pong).push_part(&mut batch, "b", &route);
        WireReply::from(&Reply::Ok).push_part(&mut batch, "c", &route);
        let batch = batch.into_bytes();

        let mut buf = Enc::new();
        assert_eq!(append_batch(&mut buf, &batch), Some(2));
        assert_eq!(buf.as_slice(), &batch[4..]);
        assert_eq!(append_batch(&mut buf, &0u32.to_be_bytes()), Some(0));

        let spliced = buf.len();
        let mut trailing = batch.to_vec();
        trailing.push(0);
        let mut overcounted = batch.to_vec();
        overcounted[3] = 3;
        for bad in [
            &batch[..batch.len() - 1],
            &batch[..3],
            &trailing,
            &overcounted,
        ] {
            assert_eq!(append_batch(&mut buf, bad), None);
            assert_eq!(buf.len(), spliced, "nothing spliced from a bad batch");
        }
    }
}
