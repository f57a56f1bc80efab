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
//! The originator works gather-then-combine. While the wave runs, each
//! arriving aggregate is split into its parts ([`WirePart::split`]: the
//! route of each part is decoded and learned from, the reply stays a
//! slice of the arriving frame) and the parts wait. Once the wave has
//! quiesced every part gets one serialized merge slot of
//! [`merge_cost`](crate::config::PpmConfig::merge_cost) — the modelled
//! price of folding one host's answer in, which is what gives Table 3 its
//! per-answering-host slope — and when the last slot has fired the
//! combine itself runs once: [`WireReply::merge`], a sort of record keys
//! and one copy of each record's bytes into the reply the tool receives.
//! No record is materialised at the originator.

use std::collections::{BTreeSet, VecDeque};

use ppm_proto::codec::{frames, Enc, Wire};
use ppm_proto::msg::{ErrCode, Msg, Op, Reply, WirePart, WireReply};
use ppm_proto::types::{Route, Stamp};
use ppm_runtime::ids::ConnId;
use ppm_runtime::obs::SpanPhase;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimTime;
use ppm_runtime::trace::TraceCategory;

use crate::rpc::PendingRequest;

use super::{BcastKey, BcastState, Lpm, ReplyTo, TimerKind};

/// Which operations may be broadcast (`dest = "*"`).
fn broadcastable(op: &Op) -> bool {
    matches!(
        op,
        Op::Snapshot | Op::Rusage { .. } | Op::History { .. } | Op::Ping
    )
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
            self.host.clone(),
            self.bcast_seq,
            now.as_micros(),
            self.auth.stamp_secret(),
        );
        let key = stamp.key();
        self.rpc.note_bcast(key.clone(), now);
        self.stats.bcasts_originated += 1;

        let forward_targets: Vec<String> = self.siblings.keys().cloned().collect();
        let forwarded = forward_targets.is_empty();
        let state = BcastState {
            stamp: stamp.clone(),
            op: op.clone(),
            user,
            upstream: None,
            reply_req: Some(req_id),
            parts: Vec::new(),
            pending_children: BTreeSet::new(),
            local_done: false,
            done_sent: false,
            forward_handler: None,
            respond_handler: None,
            forward_targets,
            forwarded,
            agg_buf: Enc::new(),
            agg_count: 0,
            agg_received: BTreeSet::new(),
            missing: BTreeSet::new(),
            route_in: Route::from_origin(self.host.clone()),
            merge_queue: VecDeque::new(),
            combine_started: false,
            merges_outstanding: 0,
            merge_free_at: SimTime::ZERO,
            timeout_token: None,
        };
        self.bcasts.insert(key.clone(), state);
        let span = format_args!("{}@{}", key.0, key.1);
        sys.span("bcast", span, SpanPhase::Begin);
        sys.trace(
            TraceCategory::Broadcast,
            format_args!(
                "originate {}#{} ({}) targets {:?}",
                key.0,
                key.1,
                op.kind(),
                self.bcasts[&key].forward_targets
            ),
        );

        // Local slice: the originator's dispatcher gathers it directly.
        self.begin_local_slice(sys, &key, user, op, false);

        // Downstream wave: a handler carries the fan-out and blocks on it.
        let has_targets = !self.bcasts[&key].forward_targets.is_empty();
        if has_targets {
            let (h, d) = self.acquire_handler(sys);
            if let Some(b) = self.bcasts.get_mut(&key) {
                b.forward_handler = Some(h);
            }
            self.arm(sys, d, TimerKind::BcastForward(key.clone()));
        }
        let timeout = self.cfg.bcast_timeout;
        let tok = self.arm(sys, timeout, TimerKind::BcastTimeout(key.clone()));
        if let Some(b) = self.bcasts.get_mut(&key) {
            b.timeout_token = Some(tok);
        }
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
            route: Route::from_origin(self.host.clone()),
            timeout_token: None,
            spawn_pid: None,
            // Local pseudo-request: never travels, never retries; the
            // wave's own stamp and timeout govern it.
            corr: (std::sync::Arc::from(self.host.as_str()), id),
            boot: self.boot_epoch(),
            deadline: None,
            attempt: 0,
            attempts_left: 0,
            backoff: policy.backoff,
            backoff_max: policy.backoff_max,
        };
        if with_handler {
            let (h, d) = self.acquire_handler(sys);
            req.handler = Some(h);
            req.phase = super::ReqPhase::HandlerForLocal;
            self.rpc.insert(id, req);
            self.arm(sys, d, TimerKind::ReqStep(id));
        } else {
            let cost = self.op_cost(&op);
            let d = sys.scale_cost(cost);
            self.rpc.insert(id, req);
            self.arm(sys, d, TimerKind::ReqStep(id));
        }
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
            let in_progress_upstream = self
                .bcasts
                .get(&key)
                .is_some_and(|b| b.upstream == Some(conn));
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
        let forward_targets: Vec<String> = self
            .siblings
            .keys()
            .filter(|h| h.as_str() != from_host && !route.contains(h))
            .cloned()
            .collect();
        let forwarded = forward_targets.is_empty();
        let state = BcastState {
            stamp: stamp.clone(),
            op: op.clone(),
            user,
            upstream: Some(conn),
            reply_req: None,
            parts: Vec::new(),
            pending_children: BTreeSet::new(),
            local_done: false,
            done_sent: false,
            forward_handler: None,
            respond_handler: None,
            forward_targets,
            forwarded,
            agg_buf: Enc::new(),
            agg_count: 0,
            agg_received: BTreeSet::new(),
            missing: BTreeSet::new(),
            route_in: route,
            merge_queue: VecDeque::new(),
            combine_started: false,
            merges_outstanding: 0,
            merge_free_at: SimTime::ZERO,
            timeout_token: None,
        };
        self.bcasts.insert(key.clone(), state);
        let span = format_args!("{}@{}", key.0, key.1);
        sys.span("bcast.relay", span, SpanPhase::Begin);
        sys.trace(
            TraceCategory::Broadcast,
            format_args!(
                "receive {}#{} from {from_host}, forward to {:?}",
                key.0, key.1, self.bcasts[&key].forward_targets
            ),
        );

        // Respond-task first (a handler gathers and answers), then the
        // forward-task — the dispatcher serializes the two hand-offs.
        self.begin_local_slice(sys, &key, user, op, true);
        let has_targets = !self.bcasts[&key].forward_targets.is_empty();
        if has_targets {
            let (h, d) = self.acquire_handler(sys);
            if let Some(b) = self.bcasts.get_mut(&key) {
                b.forward_handler = Some(h);
            }
            self.arm(sys, d, TimerKind::BcastForward(key.clone()));
        }
        let timeout = self.cfg.bcast_timeout;
        let tok = self.arm(sys, timeout, TimerKind::BcastTimeout(key.clone()));
        if let Some(b) = self.bcasts.get_mut(&key) {
            b.timeout_token = Some(tok);
        }
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
        route.push(self.host.clone());
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
        let b = self.bcasts.get_mut(key).expect("checked");
        match b.upstream {
            None => b.parts.push(reply),
            Some(_) => {
                // Relay: the local slice becomes the first part of the
                // subtree's single upstream aggregate.
                let mut route = b.route_in.clone();
                route.push(self.host.clone());
                reply.push_part(&mut b.agg_buf, &self.host, &route);
                b.agg_count += 1;
            }
        }
        self.maybe_complete(sys, key);
    }

    /// A downstream host's answer arrived.
    pub(crate) fn handle_bcast_resp(
        &mut self,
        sys: &mut dyn Sys,
        _conn: ConnId,
        stamp: Stamp,
        resp_host: String,
        reply: WireReply,
        route: Route,
    ) {
        let key = stamp.key();
        sys.trace(
            TraceCategory::Broadcast,
            format_args!(
                "part from {resp_host} for {}#{} (route {route})",
                key.0, key.1
            ),
        );
        let Some(b) = self.bcasts.get(&key) else {
            return;
        };
        match b.upstream {
            None => {
                // Originator: queue the part for the combine phase.
                self.queue_part(sys, &key, WirePart { reply, route });
            }
            Some(_) => {
                // Relay: fold the single-part answer into the subtree
                // aggregate like any child contribution.
                let b = self.bcasts.get_mut(&key).expect("checked");
                reply.push_part(&mut b.agg_buf, &resp_host, &route);
                b.agg_count += 1;
            }
        }
    }

    /// A child subtree's aggregated answers arrived in one frame.
    pub(crate) fn handle_bcast_agg(
        &mut self,
        sys: &mut dyn Sys,
        from_host: &str,
        stamp: Stamp,
        parts: bytes::Bytes,
        missing: Vec<String>,
    ) {
        let key = stamp.key();
        let Some(b) = self.bcasts.get(&key) else {
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
        match b.upstream {
            None => {
                // Originator: split the batch and queue each part for the
                // combine phase (the per-part merge cost model is
                // unchanged — only the transit cost collapsed).
                match WirePart::split(&parts) {
                    Ok(parts) => {
                        for part in parts {
                            self.queue_part(sys, &key, part);
                        }
                    }
                    Err(e) => unreadable = Some(e.to_string()),
                }
            }
            Some(_) => {
                // Relay: splice the child's frames onto ours byte-for-byte
                // — the in-network aggregation fast path.
                let b = self.bcasts.get_mut(&key).expect("checked");
                match append_batch(&mut b.agg_buf, &parts) {
                    Some(spliced) => {
                        b.agg_count += spliced;
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
        b.agg_received.insert(from_host.to_string());
        b.missing.extend(missing);
        if unreadable.is_some() {
            b.missing.insert(from_host.to_string());
        }
    }

    /// Queues one gathered part at the originator. During the wave the
    /// part just waits; once the combine phase has begun (a late
    /// straggler after a timeout), it gets its serialized slot at once.
    fn queue_part(&mut self, sys: &mut dyn Sys, key: &BcastKey, part: WirePart) {
        self.learn_route(&part.route);
        let Some(b) = self.bcasts.get_mut(key) else {
            return;
        };
        b.merge_queue.push_back(part.reply);
        if b.combine_started {
            self.schedule_merge_slot(sys, key);
        }
    }

    /// Arms one serialized originator merge slot.
    fn schedule_merge_slot(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let now = sys.now();
        let cost = sys.scale_cost(self.cfg.merge_cost);
        let Some(b) = self.bcasts.get_mut(key) else {
            return;
        };
        b.merges_outstanding += 1;
        let start = if b.merge_free_at > now {
            b.merge_free_at
        } else {
            now
        };
        let ready = start + cost;
        b.merge_free_at = ready;
        let delay = ready.saturating_since(now);
        self.arm(sys, delay, TimerKind::BcastMerge(key.clone()));
    }

    /// An originator merge slot completed.
    pub(crate) fn bcast_merge_slot(&mut self, sys: &mut dyn Sys, key: &BcastKey) {
        let Some(b) = self.bcasts.get_mut(key) else {
            return;
        };
        if b.upstream.is_none() {
            if b.merges_outstanding > 0 {
                b.merges_outstanding -= 1;
            }
            if let Some(reply) = b.merge_queue.pop_front() {
                b.parts.push(reply);
            }
            self.maybe_complete(sys, key);
        }
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
                b.missing.insert(child.to_string());
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
            let stragglers: Vec<String> = b.pending_children.iter().cloned().collect();
            for h in &stragglers {
                if !b.agg_received.contains(h) {
                    b.missing.insert(h.clone());
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
        let Some(b) = self.bcasts.get(key) else {
            return;
        };
        let gathered = b.local_done && b.forwarded && b.pending_children.is_empty();
        if !gathered {
            return;
        }
        if b.upstream.is_none() && !b.combine_started {
            // Gather-then-combine: the origin's serialized merge slots
            // start only once the wave has quiesced, so every contributor
            // pays a full slot at the tail — the Table 3 shape, where an
            // extra answering host costs an extra merge even when its
            // reply arrived early and in parallel.
            let parts_waiting = b.merge_queue.len();
            let b = self.bcasts.get_mut(key).expect("checked");
            b.combine_started = true;
            for _ in 0..parts_waiting {
                self.schedule_merge_slot(sys, key);
            }
            if parts_waiting > 0 {
                return;
            }
        }
        let b = self.bcasts.get(key).expect("checked");
        let quiesced = b.merge_queue.is_empty() && b.merges_outstanding == 0;
        if !quiesced {
            return;
        }
        if b.upstream.is_none() {
            // Originator: merge parts into the final reply; a non-empty
            // missing list marks the result as partial.
            let b = self.bcasts.remove(key).expect("checked");
            if let Some(tok) = b.timeout_token {
                self.rpc.cancel(tok);
            }
            self.release_handler(sys, b.forward_handler);
            sys.trace(
                TraceCategory::Broadcast,
                format_args!(
                    "finalize {}#{} with {} parts ({} missing)",
                    key.0,
                    key.1,
                    b.parts.len(),
                    b.missing.len()
                ),
            );
            let span = format_args!("{}@{}", key.0, key.1);
            sys.span("bcast", span, SpanPhase::End);
            // Every part was checked when it was made or arrived, so the
            // merge's own checked walk has nothing left to refuse.
            let combined = WireReply::merge(&b.op, &b.parts).unwrap_or_else(|e| {
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
            if let Some(req_id) = b.reply_req {
                self.finish_req(sys, req_id, combined);
            }
        } else if !b.done_sent {
            let b = self.bcasts.get_mut(key).expect("checked");
            b.done_sent = true;
            let upstream = b.upstream.expect("relay");
            let stamp = b.stamp.clone();
            let forward_handler = b.forward_handler.take();
            let respond_handler = b.respond_handler.take();
            let timeout_token = b.timeout_token.take();
            let missing: Vec<String> = b.missing.iter().cloned().collect();
            let mut batch = Vec::with_capacity(4 + b.agg_buf.len());
            batch.extend_from_slice(&b.agg_count.to_be_bytes());
            batch.extend_from_slice(b.agg_buf.as_slice());
            if self.cfg.reply_splicing {
                // The whole subtree's answers leave in a single aggregated
                // frame on this edge, then the wave-completion marker.
                let agg = Msg::BcastAgg {
                    stamp: stamp.clone(),
                    parts: bytes::Bytes::from(batch),
                    missing,
                };
                let _ = self.send_msg(sys, upstream, &agg);
            } else {
                // Splicing off (the congestion exhibit's baseline): every
                // collected part goes upstream as its own batch-of-one
                // frame — leaf-direct-style traffic on every edge toward
                // the originator — then one empty frame carries the
                // missing list. Re-framed, not re-encoded: each part's
                // frame is copied as it stands.
                for frame in frames(&batch).into_iter().flatten().map_while(Result::ok) {
                    let mut one = Enc::with_capacity(8 + frame.len());
                    one.u32(1);
                    one.bytes(frame);
                    let _ = self.send_msg(
                        sys,
                        upstream,
                        &Msg::BcastAgg {
                            stamp: stamp.clone(),
                            parts: one.into_bytes(),
                            missing: Vec::new(),
                        },
                    );
                }
                let _ = self.send_msg(
                    sys,
                    upstream,
                    &Msg::BcastAgg {
                        stamp: stamp.clone(),
                        parts: bytes::Bytes::from(0u32.to_be_bytes().to_vec()),
                        missing,
                    },
                );
            }
            let _ = self.send_msg(sys, upstream, &Msg::BcastDone { stamp });
            if let Some(tok) = timeout_token {
                self.rpc.cancel(tok);
            }
            self.release_handler(sys, forward_handler);
            self.release_handler(sys, respond_handler);
            self.bcasts.remove(key);
            let span = format_args!("{}@{}", key.0, key.1);
            sys.span("bcast.relay", span, SpanPhase::End);
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
