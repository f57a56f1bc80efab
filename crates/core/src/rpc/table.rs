//! The correlation-keyed pending-request table.
//!
//! One instance lives inside each LPM and owns every piece of per-request
//! bookkeeping: the pending map (keyed by local id), the correlation
//! index (keyed by `(origin, origin id)`), the shared dedup window, the
//! spawn-wait map, and the timer registry. The LPM submodules drive it;
//! nothing else in the crate reaches into its maps directly.

use std::collections::VecDeque;

use ppm_proto::msg::{ErrCode, WireReply};
use ppm_proto::types::{Name, Route};
use ppm_runtime::hashx::FastMap;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{SimDuration, SimTime};

use super::{DedupEntry, PendingRequest, ReqPhase, RpcKey, TimerKind};

/// Decision after a transport failure or per-attempt timeout on an
/// origin-side request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransportVerdict {
    /// Budget left: re-send the same correlation id after `delay`.
    Retry { delay: SimDuration },
    /// Budget exhausted (or deadline passed): fail with this code.
    Fail(ErrCode),
}

/// Classification of an arriving sibling request against the table.
#[derive(Debug)]
pub(crate) enum DupVerdict {
    /// Never seen: process normally.
    New,
    /// The same correlation id is still in flight here (a retry overtook
    /// the original's reply); local id of the live entry.
    InFlight(u64),
    /// Already executed here; replay the cached reply without running the
    /// operation again.
    Replay { reply: WireReply, route: Route },
    /// The correlation id was stamped by a dead incarnation of its origin
    /// (its boot epoch is older than the fence a respawn installed).
    /// Replay-only territory: with no cached reply left, the request is
    /// refused with [`ErrCode::StaleEpoch`] — never executed fresh.
    Stale,
}

#[derive(Debug, Default)]
pub(crate) struct RpcTable {
    /// Local-id allocator (the LPM salts it with the host name).
    next_seq: u64,
    pending: FastMap<u64, PendingRequest>,
    /// Correlation index: `(origin, origin id)` → local id.
    corr: FastMap<RpcKey, u64>,
    /// Shared retention window: broadcast stamps and executed sibling
    /// requests, purged together by `bcast_window`.
    dedup: FastMap<RpcKey, DedupEntry>,
    /// Expiry order over `dedup`: each key as it was noted, with the
    /// instant. Every key is noted at the LPM's clock, which never goes
    /// back, so the front is the oldest note and purge pops only from
    /// there. References are lazy: a key noted again leaves its old
    /// reference behind, as `purge_peer` leaves every one of its keys',
    /// and purge discards those after checking the live entry.
    dedup_order: VecDeque<(SimTime, RpcKey)>,
    /// Spawned-but-not-yet-exec'd pid → local request id.
    spawn_waits: FastMap<u32, u64>,
    /// Incarnation fence per origin host: the newest boot epoch a forest
    /// pull has taught us. Requests stamped with an older (nonzero) boot
    /// are from a dead incarnation and must never execute fresh — the
    /// respawn purged that incarnation's dedup window, so nothing else
    /// stops a late retry from re-executing.
    fences: FastMap<Name, u64>,
    next_token: u64,
    timers: FastMap<u64, TimerKind>,
}

impl RpcTable {
    pub(crate) fn new() -> Self {
        RpcTable {
            next_token: 1,
            ..Default::default()
        }
    }

    /// A deterministic fingerprint of the table's correlation state:
    /// which requests are pending, which correlation ids are indexed,
    /// what the dedup window retains and where the incarnation fences
    /// stand. Instants and allocator counters are left out so the model
    /// checker can merge interleavings that differ only in timing.
    pub(crate) fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = ppm_runtime::hashx::HashX::default();
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            h.write_u64(id);
        }
        let mut corr: Vec<(&RpcKey, &u64)> = self.corr.iter().collect();
        corr.sort_unstable();
        for ((origin, id), local) in corr {
            h.write(origin.as_bytes());
            h.write_u64(*id);
            h.write_u64(*local);
        }
        let mut dedup: Vec<(&RpcKey, u8)> = self
            .dedup
            .iter()
            .map(|(k, e)| {
                let tag = match e {
                    DedupEntry::Bcast { .. } => 1u8,
                    DedupEntry::Done { .. } => 2u8,
                };
                (k, tag)
            })
            .collect();
        dedup.sort_unstable();
        for ((origin, id), tag) in dedup {
            h.write(origin.as_bytes());
            h.write_u64(*id);
            h.write_u8(tag);
        }
        let mut fences: Vec<(&Name, &u64)> = self.fences.iter().collect();
        fences.sort_unstable();
        for (origin, boot) in fences {
            h.write(origin.as_bytes());
            h.write_u64(*boot);
        }
        let mut waits: Vec<u32> = self.spawn_waits.keys().copied().collect();
        waits.sort_unstable();
        for pid in waits {
            h.write_u32(pid);
        }
        h.finish()
    }

    // ---- ids -------------------------------------------------------------

    /// Next raw sequence number; the caller salts it into a global id.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    // ---- pending map -----------------------------------------------------

    /// Inserts a request and indexes its correlation key.
    pub(crate) fn insert(&mut self, id: u64, req: PendingRequest) {
        self.corr.insert(req.corr.clone(), id);
        self.pending.insert(id, req);
    }

    pub(crate) fn get(&self, id: u64) -> Option<&PendingRequest> {
        self.pending.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut PendingRequest> {
        self.pending.get_mut(&id)
    }

    /// Removes a request, its correlation index entry, and any spawn wait
    /// pointing at it.
    pub(crate) fn remove(&mut self, id: u64) -> Option<PendingRequest> {
        let req = self.pending.remove(&id)?;
        if self.corr.get(&req.corr) == Some(&id) {
            self.corr.remove(&req.corr);
        }
        if let Some(pid) = req.spawn_pid {
            self.spawn_waits.remove(&pid);
        }
        Some(req)
    }

    /// Local id of the in-flight request with this correlation key.
    pub(crate) fn resolve(&self, key: &RpcKey) -> Option<u64> {
        self.corr.get(key).copied()
    }

    /// Local ids whose request was last sent on `conn` (stable order).
    pub(crate) fn sent_on(&self, conn: ppm_runtime::ids::ConnId) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, r)| r.sent_conn == Some(conn))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether any request outside the broadcast machinery is pending
    /// (keeps the LPM alive past its idle TTL).
    pub(crate) fn any_active(&self) -> bool {
        self.pending
            .values()
            .any(|r| r.phase != ReqPhase::BcastWait)
    }

    // ---- duplicate suppression -------------------------------------------

    /// Classifies an arriving sibling request by correlation key and the
    /// boot epoch it was stamped with (0 = unstamped tool traffic, which
    /// the fence never applies to).
    ///
    /// The fence check runs first: a cached reply may still replay for a
    /// fenced id (harmless — the dead incarnation executed it), but the
    /// moment the purge has dropped it, the verdict is `Stale`, not
    /// `New`. Without the fence, a late retry from a dead incarnation
    /// would re-execute after the respawn-triggered purge.
    pub(crate) fn dup_verdict(&self, key: &RpcKey, boot: u64) -> DupVerdict {
        if let Some(&id) = self.corr.get(key) {
            return DupVerdict::InFlight(id);
        }
        if let Some(DedupEntry::Done { reply, route, .. }) = self.dedup.get(key) {
            return DupVerdict::Replay {
                reply: reply.clone(),
                route: Route::clone(route),
            };
        }
        if boot != 0 && self.fences.get(&key.0).is_some_and(|&f| boot < f) {
            return DupVerdict::Stale;
        }
        DupVerdict::New
    }

    /// Raises the incarnation fence for `origin` to `boot` (monotonic:
    /// an older pull never lowers it). Called when a respawned sibling's
    /// forest pull announces its new boot epoch.
    pub(crate) fn fence_origin(&mut self, origin: &str, boot: u64) {
        if boot == 0 {
            return;
        }
        let slot = self.fences.entry(Name::new(origin)).or_insert(0);
        *slot = (*slot).max(boot);
    }

    /// Records a broadcast stamp in the retention window.
    pub(crate) fn note_bcast(&mut self, key: RpcKey, at: SimTime) {
        self.index_dedup(key.clone(), at);
        self.dedup.insert(key, DedupEntry::Bcast { at });
    }

    /// Whether a broadcast stamp is inside the retention window.
    pub(crate) fn bcast_seen(&self, key: &RpcKey) -> bool {
        matches!(self.dedup.get(key), Some(DedupEntry::Bcast { .. }))
    }

    /// Caches the reply of an executed sibling request so a retried
    /// delivery is answered without re-execution.
    pub(crate) fn note_done(&mut self, key: RpcKey, at: SimTime, reply: WireReply, route: Route) {
        self.index_dedup(key.clone(), at);
        let route = Box::new(route);
        self.dedup
            .insert(key, DedupEntry::Done { at, reply, route });
    }

    /// Files a key at the back of the expiry order.
    fn index_dedup(&mut self, key: RpcKey, at: SimTime) {
        debug_assert!(
            self.dedup_order.back().is_none_or(|(last, _)| *last <= at),
            "dedup keys are noted in time order"
        );
        self.dedup_order.push_back((at, key));
    }

    /// Drops dedup entries older than `window`; returns how many went.
    ///
    /// Only the references at or before the expiry cutoff are visited,
    /// from the front, so a tick's cost is proportional to what actually
    /// expires, not to the whole retention window, and a steady window
    /// reuses the order's room without allocating.
    pub(crate) fn purge_dedup(&mut self, now: SimTime, window: SimDuration) -> usize {
        let Some(cutoff_us) = now.as_micros().checked_sub(window.as_micros()) else {
            return 0;
        };
        let mut purged = 0;
        let ripe = |(at, _): &mut (SimTime, RpcKey)| at.as_micros() <= cutoff_us;
        while let Some((_, key)) = self.dedup_order.pop_front_if(ripe) {
            // A key noted again since this reference lives on until its
            // newer one ripens; one purged already is gone.
            let live = self.dedup.get(&key);
            if live.is_some_and(|e| e.at().as_micros() <= cutoff_us) {
                self.dedup.remove(&key);
                purged += 1;
            }
        }
        purged
    }

    /// Drops every dedup entry keyed to `origin`; returns how many went.
    ///
    /// Called when a peer's connection is torn down by a crash: a
    /// restarted LPM allocates correlation ids from scratch, so cached
    /// replies under its old ids would wrongly suppress (and mis-answer)
    /// its fresh requests. Stale expiry-order references are left behind;
    /// [`RpcTable::purge_dedup`] discards them when they ripen.
    pub(crate) fn purge_peer(&mut self, origin: &str) -> usize {
        let before = self.dedup.len();
        self.dedup.retain(|(host, _), _| host.as_ref() != origin);
        before - self.dedup.len()
    }

    // ---- spawn waits -----------------------------------------------------

    pub(crate) fn add_spawn_wait(&mut self, pid: u32, id: u64) {
        self.spawn_waits.insert(pid, id);
    }

    pub(crate) fn take_spawn_wait(&mut self, pid: u32) -> Option<u64> {
        self.spawn_waits.remove(&pid)
    }

    // ---- timers ----------------------------------------------------------

    /// Arms a timer and records what it means.
    pub(crate) fn arm(&mut self, sys: &mut dyn Sys, d: SimDuration, kind: TimerKind) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, kind);
        sys.set_timer(d, token);
        token
    }

    /// Forgets an armed timer (a later fire becomes a no-op).
    pub(crate) fn cancel(&mut self, token: u64) {
        self.timers.remove(&token);
    }

    /// Consumes a fired timer's meaning, if still armed.
    pub(crate) fn take_timer(&mut self, token: u64) -> Option<TimerKind> {
        self.timers.remove(&token)
    }
}

impl PendingRequest {
    /// Decides what to do after a transport failure (`timed_out: false`)
    /// or a per-attempt timeout (`timed_out: true`). Granting a retry
    /// consumes one attempt and doubles the backoff; only origin-side
    /// requests ever retry — relays propagate the failure upstream.
    pub(crate) fn retry_verdict(&mut self, now: SimTime, timed_out: bool) -> TransportVerdict {
        if self.past_deadline(now) {
            return TransportVerdict::Fail(ErrCode::DeadlineExceeded);
        }
        if self.reply_to.is_origin() && self.attempts_left > 0 {
            self.attempts_left -= 1;
            self.attempt = self.attempt.saturating_add(1);
            let delay = self.backoff;
            // Double toward the ceiling; without the clamp a
            // long-partitioned origin ends up with multi-hour sim timers.
            self.backoff = self.backoff.saturating_mul(2).min(self.backoff_max);
            return TransportVerdict::Retry { delay };
        }
        TransportVerdict::Fail(if timed_out {
            ErrCode::Timeout
        } else {
            ErrCode::HostDown
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::ReplyTo;
    use super::*;
    use ppm_proto::msg::{Op, Reply};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn wire(reply: Reply) -> WireReply {
        WireReply::from(&reply)
    }

    fn req(corr: RpcKey, reply_to: ReplyTo) -> PendingRequest {
        PendingRequest {
            user: 100,
            dest: "far".into(),
            op: Op::Ping,
            reply_to,
            phase: ReqPhase::Sent,
            handler: None,
            sent_conn: None,
            hops_left: 8,
            route: Route::from_origin("here"),
            timeout_token: None,
            spawn_pid: None,
            corr,
            boot: 1,
            deadline: None,
            attempt: 0,
            attempts_left: 2,
            backoff: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn correlation_index_tracks_insert_and_remove() {
        let mut t = RpcTable::new();
        let key: RpcKey = (Name::from("here"), 7);
        t.insert(7, req(key.clone(), ReplyTo::Internal));
        assert_eq!(t.resolve(&key), Some(7));
        matches!(t.dup_verdict(&key, 1), DupVerdict::InFlight(7));
        t.remove(7);
        assert_eq!(t.resolve(&key), None);
        assert!(matches!(t.dup_verdict(&key, 1), DupVerdict::New));
    }

    #[test]
    fn done_entries_replay_and_age_out() {
        let mut t = RpcTable::new();
        let key: RpcKey = (Name::from("far"), 9);
        let at = SimTime::from_micros(1_000_000);
        t.note_done(
            key.clone(),
            at,
            wire(Reply::Pong),
            Route::from_origin("far"),
        );
        match t.dup_verdict(&key, 1) {
            DupVerdict::Replay { reply, .. } => assert_eq!(reply, wire(Reply::Pong)),
            v => panic!("expected replay, got {v:?}"),
        }
        // Inside the window: kept. Past it: purged.
        let window = SimDuration::from_secs(60);
        assert_eq!(t.purge_dedup(SimTime::from_micros(2_000_000), window), 0);
        let purged = t.purge_dedup(at + SimDuration::from_secs(61), window);
        assert_eq!(purged, 1);
        assert!(matches!(t.dup_verdict(&key, 1), DupVerdict::New));
    }

    #[test]
    fn bcast_and_done_entries_share_the_window() {
        let mut t = RpcTable::new();
        let b: RpcKey = (Name::from("a"), 1);
        let d: RpcKey = (Name::from("b"), 2);
        t.note_bcast(b.clone(), SimTime::ZERO);
        t.note_done(
            d,
            SimTime::from_micros(500),
            wire(Reply::Pong),
            Route::from_origin("b"),
        );
        assert!(t.bcast_seen(&b));
        let purged = t.purge_dedup(SimTime::from_micros(2_000_000), SimDuration::from_millis(1));
        assert_eq!(purged, 2);
        assert!(!t.bcast_seen(&b));
    }

    #[test]
    fn purge_peer_clears_only_that_origin() {
        let mut t = RpcTable::new();
        let a1: RpcKey = (Name::from("a"), 1);
        let a2: RpcKey = (Name::from("a"), 2);
        let b1: RpcKey = (Name::from("b"), 1);
        t.note_done(
            a1.clone(),
            SimTime::ZERO,
            wire(Reply::Pong),
            Route::from_origin("a"),
        );
        t.note_bcast(a2.clone(), SimTime::ZERO);
        t.note_done(
            b1.clone(),
            SimTime::ZERO,
            wire(Reply::Ok),
            Route::from_origin("b"),
        );
        assert_eq!(t.purge_peer("a"), 2);
        assert!(matches!(t.dup_verdict(&a1, 1), DupVerdict::New));
        assert!(!t.bcast_seen(&a2));
        assert!(matches!(t.dup_verdict(&b1, 1), DupVerdict::Replay { .. }));
        // The stale references left behind are discarded cleanly.
        assert_eq!(
            t.purge_dedup(
                SimTime::from_micros(10_000_000),
                SimDuration::from_millis(1)
            ),
            1
        );
    }

    #[test]
    fn reinserted_dedup_keys_survive_purge_of_their_old_bucket() {
        // A key noted again with a fresh timestamp leaves a stale
        // reference at its old place in the expiry order; purging past it
        // must neither drop the live entry nor count it as purged.
        let mut t = RpcTable::new();
        let key: RpcKey = (Name::from("far"), 4);
        let window = SimDuration::from_secs(60);
        t.note_done(
            key.clone(),
            SimTime::ZERO,
            wire(Reply::Pong),
            Route::from_origin("far"),
        );
        t.note_done(
            key.clone(),
            SimTime::from_micros(50_000_000),
            wire(Reply::Ok),
            Route::from_origin("far"),
        );
        // 61s: the t=0 insertion would have expired, but the entry was
        // refreshed at t=50s and must stay.
        assert_eq!(t.purge_dedup(SimTime::from_micros(61_000_000), window), 0);
        assert!(matches!(t.dup_verdict(&key, 1), DupVerdict::Replay { .. }));
        // 111s: now the refreshed entry expires, exactly once.
        assert_eq!(t.purge_dedup(SimTime::from_micros(111_000_000), window), 1);
        assert!(matches!(t.dup_verdict(&key, 1), DupVerdict::New));
        assert_eq!(t.purge_dedup(SimTime::from_micros(200_000_000), window), 0);
    }

    #[test]
    fn purge_stops_at_the_cutoff() {
        // Two entries a second apart, straddling the cutoff: only the
        // expired one goes, and the survivor expires on a later tick.
        let mut t = RpcTable::new();
        let a: RpcKey = (Name::from("a"), 1);
        let b: RpcKey = (Name::from("b"), 2);
        let window = SimDuration::from_secs(10);
        t.note_bcast(a.clone(), SimTime::from_micros(1_000_100));
        t.note_bcast(b.clone(), SimTime::from_micros(1_900_000));
        assert_eq!(
            t.purge_dedup(SimTime::from_micros(11_000_200), window),
            1,
            "only the older entry expired"
        );
        assert!(!t.bcast_seen(&a));
        assert!(t.bcast_seen(&b));
        assert_eq!(t.purge_dedup(SimTime::from_micros(11_900_001), window), 1);
        assert!(!t.bcast_seen(&b));
    }

    /// One step of [`the_expiry_order_purges_what_a_full_scan_purges`].
    #[derive(Debug, Clone)]
    enum DedupOp {
        /// The clock moves on by this many µs.
        Advance(u64),
        Bcast(RpcKey),
        Done(RpcKey),
        /// Purge with this window, in µs.
        Purge(u64),
        PurgePeer(&'static str),
    }

    const ORIGINS: [&str; 3] = ["a", "b", "c"];

    fn arb_key() -> impl Strategy<Value = RpcKey> {
        (0usize..3, 0u64..6).prop_map(|(o, id)| (Name::from(ORIGINS[o]), id))
    }

    fn arb_dedup_ops() -> impl Strategy<Value = Vec<DedupOp>> {
        prop::collection::vec(
            prop_oneof![
                (0u64..3_000_000).prop_map(DedupOp::Advance),
                prop_oneof![Just(0u64), 0u64..1_000].prop_map(DedupOp::Advance),
                arb_key().prop_map(DedupOp::Bcast),
                arb_key().prop_map(DedupOp::Done),
                (0u64..8_000_000).prop_map(DedupOp::Purge),
                (0usize..3).prop_map(|o| DedupOp::PurgePeer(ORIGINS[o])),
            ],
            1..80,
        )
    }

    /// What the window holds: each key with its kind and instant.
    fn held(t: &RpcTable) -> BTreeMap<RpcKey, (bool, SimTime)> {
        t.dedup
            .iter()
            .map(|(k, e)| (k.clone(), (matches!(e, DedupEntry::Bcast { .. }), e.at())))
            .collect()
    }

    proptest! {
        /// Notes at a clock that only moves forward, purges of any window
        /// and peer purges: the expiry order purges what a scan of every
        /// entry purges, the same count each time, and leaves the same
        /// entries behind.
        #[test]
        fn the_expiry_order_purges_what_a_full_scan_purges(ops in arb_dedup_ops()) {
            let mut t = RpcTable::new();
            let mut model: BTreeMap<RpcKey, (bool, SimTime)> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    DedupOp::Advance(us) => now += SimDuration::from_micros(us),
                    DedupOp::Bcast(key) => {
                        t.note_bcast(key.clone(), now);
                        model.insert(key, (true, now));
                    }
                    DedupOp::Done(key) => {
                        let route = Route::from_origin(&key.0);
                        t.note_done(key.clone(), now, wire(Reply::Ok), route);
                        model.insert(key, (false, now));
                    }
                    DedupOp::Purge(window_us) => {
                        let window = SimDuration::from_micros(window_us);
                        let before = model.len();
                        if let Some(cutoff) = now.as_micros().checked_sub(window_us) {
                            model.retain(|_, (_, at)| at.as_micros() > cutoff);
                        }
                        prop_assert_eq!(t.purge_dedup(now, window), before - model.len());
                    }
                    DedupOp::PurgePeer(origin) => {
                        let before = model.len();
                        model.retain(|(host, _), _| host.as_str() != origin);
                        prop_assert_eq!(t.purge_peer(origin), before - model.len());
                    }
                }
                prop_assert_eq!(&held(&t), &model);
            }
        }
    }

    #[test]
    fn fenced_boot_epochs_are_replay_only() {
        // A respawn purges the predecessor's dedup entries and fences its
        // boot epoch. A late retry stamped by the dead incarnation must
        // classify Stale (refused), never New (re-executed).
        let mut t = RpcTable::new();
        let key: RpcKey = (Name::from("work"), 12);
        t.note_done(
            key.clone(),
            SimTime::ZERO,
            wire(Reply::Pong),
            Route::from_origin("work"),
        );
        t.fence_origin("work", 5_000_000);
        // Cached reply still replays even though the id is fenced.
        assert!(matches!(
            t.dup_verdict(&key, 1_000_000),
            DupVerdict::Replay { .. }
        ));
        t.purge_peer("work");
        // Post-purge: the old incarnation's id is Stale, not New.
        assert!(matches!(t.dup_verdict(&key, 1_000_000), DupVerdict::Stale));
        // The new incarnation's own stamps pass the fence.
        assert!(matches!(t.dup_verdict(&key, 5_000_000), DupVerdict::New));
        // Unstamped tool traffic (boot 0) is never fenced.
        assert!(matches!(t.dup_verdict(&key, 0), DupVerdict::New));
    }

    #[test]
    fn fence_is_monotonic() {
        let mut t = RpcTable::new();
        t.fence_origin("work", 7_000_000);
        t.fence_origin("work", 3_000_000); // reordered older pull
        assert!(matches!(
            t.dup_verdict(&(Name::from("work"), 1), 3_000_000),
            DupVerdict::Stale
        ));
        t.fence_origin("work", 0); // unstamped pull never lowers it
        assert!(matches!(
            t.dup_verdict(&(Name::from("work"), 1), 6_999_999),
            DupVerdict::Stale
        ));
        assert!(matches!(
            t.dup_verdict(&(Name::from("work"), 1), 7_000_000),
            DupVerdict::New
        ));
    }

    #[test]
    fn retry_verdict_consumes_budget_then_fails() {
        let now = SimTime::from_micros(1_000);
        let mut r = req((Name::from("here"), 1), ReplyTo::Internal);
        let v1 = r.retry_verdict(now, false);
        assert_eq!(
            v1,
            TransportVerdict::Retry {
                delay: SimDuration::from_millis(250)
            }
        );
        assert_eq!(r.attempt, 1);
        let v2 = r.retry_verdict(now, false);
        assert_eq!(
            v2,
            TransportVerdict::Retry {
                delay: SimDuration::from_millis(500)
            }
        );
        assert_eq!(
            r.retry_verdict(now, false),
            TransportVerdict::Fail(ErrCode::HostDown)
        );
        assert_eq!(
            r.retry_verdict(now, true),
            TransportVerdict::Fail(ErrCode::Timeout)
        );
    }

    #[test]
    fn retry_backoff_saturates_at_the_ceiling() {
        // With a big budget the delay doubles 250ms → 500ms → 1s, then
        // plateaus at the 1s ceiling instead of marching toward hours.
        let now = SimTime::from_micros(1_000);
        let mut r = req((Name::from("here"), 1), ReplyTo::Internal);
        r.attempts_left = 20;
        r.backoff_max = SimDuration::from_secs(1);
        let mut delays = Vec::new();
        for _ in 0..6 {
            match r.retry_verdict(now, false) {
                TransportVerdict::Retry { delay } => delays.push(delay.as_micros()),
                v => panic!("expected retry, got {v:?}"),
            }
        }
        assert_eq!(
            delays,
            vec![250_000, 500_000, 1_000_000, 1_000_000, 1_000_000, 1_000_000]
        );
    }

    #[test]
    fn relays_never_retry() {
        let now = SimTime::from_micros(1_000);
        let mut r = req(
            (Name::from("orig"), 1),
            ReplyTo::Sibling {
                conn: ppm_runtime::ids::ConnId(3),
                external_id: 1,
                route_in: Route::from_origin("orig"),
            },
        );
        assert_eq!(
            r.retry_verdict(now, false),
            TransportVerdict::Fail(ErrCode::HostDown)
        );
        assert_eq!(r.attempts_left, 2, "budget untouched for relays");
    }

    #[test]
    fn deadline_overrides_budget() {
        let mut r = req((Name::from("here"), 1), ReplyTo::Internal);
        r.deadline = Some(SimTime::from_micros(500));
        assert_eq!(
            r.retry_verdict(SimTime::from_micros(600), true),
            TransportVerdict::Fail(ErrCode::DeadlineExceeded)
        );
        assert_eq!(r.attempts_left, 2);
    }

    #[test]
    fn timers_round_trip_through_the_registry() {
        // `arm` needs a live Sys; cancel/take are exercised standalone.
        let mut t = RpcTable::new();
        t.timers.insert(5, TimerKind::ReqRetry(42));
        assert_eq!(t.take_timer(5), Some(TimerKind::ReqRetry(42)));
        assert_eq!(t.take_timer(5), None);
        t.timers.insert(6, TimerKind::Probe);
        t.cancel(6);
        assert_eq!(t.take_timer(6), None);
    }

    #[test]
    fn spawn_waits_follow_request_removal() {
        let mut t = RpcTable::new();
        let key: RpcKey = (Name::from("here"), 3);
        let mut r = req(key, ReplyTo::Internal);
        r.spawn_pid = Some(77);
        t.insert(3, r);
        t.add_spawn_wait(77, 3);
        assert_eq!(t.take_spawn_wait(77), Some(3));
        t.add_spawn_wait(77, 3);
        t.remove(3);
        assert_eq!(t.take_spawn_wait(77), None, "removal clears the wait");
    }
}
