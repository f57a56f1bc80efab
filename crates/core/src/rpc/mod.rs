//! The unified RPC layer: one correlation-keyed pending-request table
//! for every request an LPM originates, relays, executes or broadcasts.
//!
//! The paper's LPM is "a dispatcher plus a pool of reusable handler
//! processes" whose request, broadcast and recovery traffic all share the
//! same sibling channels. This module is the single bookkeeping substrate
//! under all of that traffic:
//!
//! * a **pending-request table** keyed by local id, with a correlation
//!   index keyed by `(origin host, origin id)` — the identity a request
//!   keeps across relays and retries;
//! * **per-request deadlines** propagated on the wire ([`ppm_proto::msg::Msg::Req`]'s
//!   `deadline_us`), decayed by one [`crate::config::DEADLINE_DECAY`]
//!   at each relay in lockstep with `hops_left`;
//! * **attempt budgets with exponential backoff**: when a sibling
//!   connection breaks under an origin-side request (or its local timer
//!   fires with budget left), the same correlation id is re-sent after a
//!   doubling delay instead of failing outright;
//! * **idempotent dedup** shared with the broadcast retention window:
//!   executed sibling requests park their reply in the same
//!   `(origin, correlation id)`-keyed window that suppresses duplicate
//!   broadcast waves, so a retried attempt replays the cached reply
//!   instead of executing twice (at-least-once delivery + dedup =
//!   exactly-once execution).
//!
//! The table also owns the LPM's timer registry ([`TimerKind`]), since
//! every timeout in the system is attached to an entry here or to the
//! broadcast machinery layered on top.

mod table;

use ppm_proto::msg::{Op, WireReply};
use ppm_proto::types::{Name, Route};
use ppm_runtime::ids::ConnId;
use ppm_runtime::time::{SimDuration, SimTime};

use crate::handlers::HandlerId;
use crate::lpm::DialKey;

pub(crate) use table::{DupVerdict, RpcTable, TransportVerdict};

/// Correlation key of a request or broadcast wave:
/// `(origin host, origin-allocated id)`. The origin is a [`Name`], so
/// keys clone without allocating.
///
/// Directed requests keep this identity across relays and retries;
/// broadcast waves use their signed stamp's `(origin, seq)`. Both kinds
/// share one dedup window keyed by this type.
pub(crate) type RpcKey = (Name, u64);

/// Renders a correlation key for traces: `origin#id`.
pub(crate) fn fmt_key(key: &RpcKey) -> String {
    format!("{}#{}", key.0, key.1)
}

/// Where a finished request's reply goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReplyTo {
    /// A tool on a local connection; reply with the tool's own id.
    Tool { conn: ConnId, external_id: u64 },
    /// A sibling that sent us this request (to execute or relay).
    Sibling {
        conn: ConnId,
        external_id: u64,
        route_in: Route,
    },
    /// Self-originated (trigger action); log failures, drop successes.
    Internal,
    /// The local slice of a broadcast.
    BcastLocal { key: RpcKey },
}

impl ReplyTo {
    /// Whether this LPM is the origin of the request (and therefore the
    /// node responsible for end-to-end retry).
    pub(crate) fn is_origin(&self) -> bool {
        matches!(self, ReplyTo::Tool { .. } | ReplyTo::Internal)
    }
}

/// Pipeline stage of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqPhase {
    /// Classifying (dispatch cost running).
    Dispatch,
    /// Waiting for a handler before local execution.
    HandlerForLocal,
    /// Waiting for a handler before a remote send.
    HandlerForRemote,
    /// Operation cost running; effects apply when it fires.
    OpCost,
    /// Sent to a remote LPM; awaiting its `Resp`.
    Sent,
    /// Waiting for a sibling channel to come up.
    AwaitChannel,
    /// Transport failed; waiting out the retry backoff.
    RetryWait,
    /// Spawn performed; awaiting the child's exec kernel event.
    AwaitSpawn,
    /// Delegated to the broadcast machinery.
    BcastWait,
}

/// One entry of the pending-request table.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    pub user: u32,
    pub dest: Name,
    pub op: Op,
    pub reply_to: ReplyTo,
    pub phase: ReqPhase,
    pub handler: Option<HandlerId>,
    pub sent_conn: Option<ConnId>,
    pub hops_left: u8,
    /// Route accumulated so far (origin-first; relays extend it).
    pub route: Route,
    pub timeout_token: Option<u64>,
    pub spawn_pid: Option<u32>,
    /// Wire correlation identity, preserved across relays and retries.
    pub corr: RpcKey,
    /// Boot epoch of the origin LPM incarnation that stamped `corr`
    /// (start time in µs, never 0 for an LPM; 0 = unstamped tool
    /// traffic). Relays carry it unchanged so executors can fence
    /// correlation ids minted by dead incarnations.
    pub boot: u64,
    /// Absolute deadline; refused/failed with `DeadlineExceeded` past it.
    pub deadline: Option<SimTime>,
    /// Zero-based attempt counter (carried on the wire for diagnosis).
    pub attempt: u8,
    /// Remaining transport retries before the request fails for good.
    pub attempts_left: u8,
    /// Delay before the next retry; doubles per attempt up to
    /// `backoff_max`.
    pub backoff: SimDuration,
    /// Ceiling the doubling backoff saturates at.
    pub backoff_max: SimDuration,
}

/// What an armed timer means when it fires.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TimerKind {
    Housekeeping,
    /// Continue the staged pipeline of a request.
    ReqStep(u64),
    /// A directed request's per-attempt timer expired.
    ReqTimeout(u64),
    /// A request's retry backoff elapsed; re-send it.
    ReqRetry(u64),
    /// Retry a dial (daemon booting).
    ChannelRetry(DialKey),
    /// The forward handler of a broadcast is ready; send downstream.
    BcastForward(RpcKey),
    /// One merge slot finished; apply the next queued part.
    BcastMerge(RpcKey),
    /// Broadcast wave safety timeout.
    BcastTimeout(RpcKey),
    /// Recovery: probe higher-priority hosts.
    Probe,
    /// Recovery: retry the seek loop.
    SeekRetry,
    /// Recovery: orphan time-to-die expired.
    TimeToDie,
}

/// An entry of the shared dedup window.
#[derive(Debug, Clone)]
pub(crate) enum DedupEntry {
    /// A broadcast wave stamp, seen at `at`.
    Bcast { at: SimTime },
    /// A directed sibling request executed here; the reply is cached —
    /// as the bytes that answered it, so parking it copied nothing — and
    /// a retried delivery is answered without re-execution.
    Done {
        at: SimTime,
        reply: WireReply,
        route: Route,
    },
}

impl DedupEntry {
    pub(crate) fn at(&self) -> SimTime {
        match self {
            DedupEntry::Bcast { at } | DedupEntry::Done { at, .. } => *at,
        }
    }
}

impl PendingRequest {
    /// Whether the request's deadline budget is exhausted: the remaining
    /// time at `now` is exactly zero (or the deadline already passed).
    ///
    /// The `== 0` case matters at relay hops: per-hop decay can land a
    /// request on its deadline to the microsecond, and forwarding a
    /// request with zero remaining budget only burns a sibling's
    /// dispatch slot before the inevitable `DeadlineExceeded` — so it is
    /// refused here, not just on underflow.
    pub(crate) fn past_deadline(&self, now: SimTime) -> bool {
        self.deadline
            .is_some_and(|d| d.saturating_since(now) == SimDuration::ZERO)
    }
}

/// Transport-retry policy, lifted from [`crate::config::PpmConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Total send attempts (1 = no retry).
    pub attempts: u8,
    /// First backoff delay; doubles per retry.
    pub backoff: SimDuration,
    /// Ceiling the doubling backoff saturates at.
    pub backoff_max: SimDuration,
}

impl RetryPolicy {
    /// Retries left after the initial attempt.
    pub(crate) fn retries(&self) -> u8 {
        self.attempts.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_key_is_origin_hash_id() {
        let key: RpcKey = (Name::from("calder"), 42);
        assert_eq!(fmt_key(&key), "calder#42");
    }

    #[test]
    fn origin_side_reply_targets() {
        assert!(ReplyTo::Internal.is_origin());
        assert!(ReplyTo::Tool {
            conn: ConnId(1),
            external_id: 1
        }
        .is_origin());
        assert!(!ReplyTo::Sibling {
            conn: ConnId(1),
            external_id: 1,
            route_in: Route::from_origin("a"),
        }
        .is_origin());
        assert!(!ReplyTo::BcastLocal {
            key: (Name::from("a"), 1)
        }
        .is_origin());
    }

    #[test]
    fn deadline_exhausted_at_exactly_zero_remaining() {
        // The boundary case the relay path used to forward: remaining
        // budget of exactly 0 µs counts as past-deadline.
        let mut r = PendingRequest {
            user: 100,
            dest: "far".into(),
            op: Op::Ping,
            reply_to: ReplyTo::Internal,
            phase: ReqPhase::Dispatch,
            handler: None,
            sent_conn: None,
            hops_left: 8,
            route: Route::from_origin("here"),
            timeout_token: None,
            spawn_pid: None,
            corr: (Name::from("here"), 1),
            boot: 1,
            deadline: Some(SimTime::from_micros(1_000)),
            attempt: 0,
            attempts_left: 2,
            backoff: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_secs(10),
        };
        assert!(!r.past_deadline(SimTime::from_micros(999)));
        assert!(r.past_deadline(SimTime::from_micros(1_000)), "== 0 budget");
        assert!(r.past_deadline(SimTime::from_micros(1_001)));
        r.deadline = None;
        assert!(!r.past_deadline(SimTime::from_micros(u64::MAX / 8)));
    }

    #[test]
    fn retry_policy_counts_retries() {
        let p = RetryPolicy {
            attempts: 3,
            backoff: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_secs(10),
        };
        assert_eq!(p.retries(), 2);
        let none = RetryPolicy {
            attempts: 0,
            backoff: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_secs(10),
        };
        assert_eq!(none.retries(), 0);
    }
}
