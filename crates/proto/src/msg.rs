//! The PPM message vocabulary.
//!
//! Three protocol families share one [`Msg`] enum (they flow over the same
//! kinds of stream connections):
//!
//! * the **pmd protocol** — LPM creation ab initio, Figure 2;
//! * the **sibling/tool protocol** — authenticated `Hello` handshakes,
//!   then request/reply ([`Msg::Req`]/[`Msg::Resp`]) and the broadcast
//!   echo wave ([`Msg::Bcast`]/[`Msg::BcastAgg`]/[`Msg::BcastDone`]);
//! * the **recovery protocol** — CCS announcements and probes, Section 5.
//!
//! # Replies inside an LPM
//!
//! A tool wants a [`Reply`]; an LPM almost never does. It produces a
//! reply once, then parks it in the dedup window, wraps it in a
//! [`Msg::Resp`] or a [`BcastPart`] frame, merges it with others or
//! forwards it — all of which need its bytes, not its fields. So inside
//! an LPM a reply travels as a [`WireReply`]: exactly the bytes
//! [`Reply::encode`] writes. **What it guarantees:** the bytes are one
//! complete, valid reply encoding — a `WireReply` is only ever made by
//! encoding a [`Reply`] (or a genealogy's records, see
//! [`WireReply::snapshot`]), by the validating walk [`Inbound::decode`]
//! and [`WirePart::split`] run over arriving frames, or by splicing other
//! `WireReply`s ([`WireReply::partial`], [`WireReply::merge`]) — so
//! everything spliced out of one is byte-for-byte what encoding the
//! corresponding [`Msg`] / [`BcastPart`] / [`Reply`] value would give.
//! **Who reads one:** inside an LPM, only [`ReplyRef::read`], one
//! checked walk that builds nothing. It admits arriving replies
//! ([`Inbound::decode`], [`WirePart::split`]) and the originator's own
//! slice, recording a snapshot's run; it gives the completion path a
//! spawned child's gpid and an internal request's `Err`; and it gives
//! [`WireReply::merge`] each part's records. Nothing else in an LPM looks
//! into a reply; only the tool decodes one ([`Reply::decode`]).
//!
//! # What the wire table does not write
//!
//! [`Msg`], [`Op`], [`Reply`], [`BcastPart`], [`ControlAction`] and
//! [`ErrCode`] are entries of the wire table (see [`crate::codec`]),
//! which writes their codecs. What is written by hand here reads or
//! writes a message around a reply it never builds, which no generated
//! codec can: [`ReplyRef::read`], [`WireReply`] and its splices,
//! [`Inbound`], [`WirePart`] and [`RelayAgg`]. So is [`ReqRef`], which
//! writes a request from fields it only borrows, and the request arm of
//! [`Inbound`], which reads the destination as a [`Name`]: a generated
//! codec owns every field it writes or reads. They share the tags they
//! need with the table through the `REPLY_*` and `MSG_*` constants.
//!
//! # The vocabulary is what is spoken
//!
//! Every [`Msg`] is sent by some component and accepted by another
//! (DESIGN.md §8 has the table), and the decoder accepts exactly the tags
//! the encoder writes: tags 1, 9 and 17, words nobody said any more, are
//! [`CodecError::BadTag`] like any other unknown byte.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use bytes::Bytes;

use crate::codec::{frames, wire, CodecError, Dec, Enc, Wire};
use crate::triggers::TriggerSpec;
use crate::types::{
    FileRecord, Gpid, HistoryRecord, HistoryRecordRef, MetricRow, Name, ProcRecord, ProcRecordRef,
    Route, RusageRecord, Stamp,
};

// Tags the wire table shares with the readers and splices below, which
// read or write around an encoded reply without decoding it: one
// spelling for both.
const REPLY_OK: u8 = 0;
const REPLY_ERR: u8 = 1;
const REPLY_PONG: u8 = 2;
const REPLY_SPAWNED: u8 = 3;
const REPLY_SNAPSHOT: u8 = 4;
const REPLY_RUSAGE: u8 = 5;
const REPLY_HISTORY: u8 = 6;
const REPLY_FILES: u8 = 7;
const REPLY_TRIGGERS: u8 = 8;
const REPLY_STATUS: u8 = 9;
const REPLY_STATS: u8 = 10;
const REPLY_PARTIAL: u8 = 11;
const REPLY_METRICS: u8 = 12;
const MSG_REQ: u8 = 6;
const MSG_RESP: u8 = 7;
const MSG_BCAST_AGG: u8 = 16;

/// Writes a `missing`-hosts list sorted and deduplicated: aggregate
/// relays build these from per-hop sets and re-flushes, so the raw order
/// (and cross-hop duplicates) is not canonical. Encoding always emits
/// the normalized form, keeping same-seed runs byte-identical.
fn encode_missing(missing: &[Name], enc: &mut Enc) {
    let mut v: Vec<&str> = missing.iter().map(Name::as_str).collect();
    v.sort_unstable();
    v.dedup();
    enc.seq(&v, |e, s| e.str(s));
}

wire! {
    /// Process-control verbs of the snapshot tool: "stop a process, execute it
    /// in the foreground, execute it in the background, kill it".
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ControlAction {
        /// Stop (SIGSTOP).
        [0] Stop,
        /// Continue in the foreground.
        [1] Foreground,
        /// Continue in the background.
        [2] Background,
        /// Kill (SIGKILL).
        [3] Kill,
        /// Deliver an arbitrary signal by number.
        [4] Signal(signal: u8),
    }
}

wire! {
    /// Error codes carried in [`Reply::Err`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ErrCode {
        /// Target process does not exist.
        [0] NoSuchProcess,
        /// Permission denied (cross-user request).
        [1] Permission,
        /// No route to the target host.
        [2] NoRoute,
        /// Target host is down.
        [3] HostDown,
        /// The responsible handler timed out.
        [4] Timeout,
        /// Request malformed or inapplicable.
        [5] BadRequest,
        /// Named entity not found.
        [6] NotFound,
        /// Internal failure in the manager.
        [7] Internal,
        /// The request's propagated deadline expired while it was in flight
        /// (distinct from [`ErrCode::Timeout`], which means the local timer
        /// fired with no reply).
        [8] DeadlineExceeded,
        /// The request carries a correlation id stamped by a dead LPM
        /// incarnation (its boot epoch is older than the fence learned from
        /// the respawn's [`Msg::ForestPull`]). Such requests are answered
        /// replay-only — never executed fresh — because the predecessor's
        /// dedup window was purged and re-execution could double-apply.
        [9] StaleEpoch,
    }
}

wire! {
    /// Operations a tool (or a sibling acting for a tool) asks an LPM to
    /// perform on its host.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Op {
        /// Liveness check.
        [0, "ping"] Ping,
        /// LPM status: load, managed process count, sibling set.
        [1, "status"] Status,
        /// Control a local process.
        [2, "control"] Control {
            /// Target pid on the receiving LPM's host.
            pid: u32,
            /// What to do.
            action: ControlAction,
        },
        /// Create a process on the receiving LPM's host (the LPM is "the
        /// process creation server for a user's remote processes").
        [3, "spawn"] Spawn {
            /// Command name.
            command: String,
            /// Logical parent in the user's computation tree.
            logical_parent: Option<Gpid>,
            /// Synthetic workload: lifetime before voluntary exit (µs);
            /// `None` runs until signalled.
            lifetime_us: Option<u64>,
            /// Synthetic workload: CPU burst at start (µs).
            work_us: u64,
            /// Whether the process is CPU-bound while alive.
            cpu_bound: bool,
        },
        /// Report all managed processes on this host (one snapshot slice).
        [4, "snapshot"] Snapshot,
        /// Report resource statistics of exited processes (all, or one pid).
        [5, "rusage"] Rusage {
            /// Restrict to one pid.
            pid: Option<u32>,
        },
        /// Report history events at or after `since_us`, newest last.
        [6, "history"] History {
            /// Lower time bound (µs).
            since_us: u64,
            /// Maximum entries.
            max: u16,
        },
        /// Report open descriptors of a local process.
        [7, "files"] OpenFiles {
            /// Target pid.
            pid: u32,
        },
        /// Adopt a local process (and descendants) with tracing flags.
        [8, "adopt"] Adopt {
            /// Target pid.
            pid: u32,
            /// [`TraceFlags`](https://en.wikipedia.org/wiki/Ptrace)-style bits
            /// (see `ppm-runtime::events::TraceFlags`).
            flags: u8,
        },
        /// Change the tracing granularity of an adopted process.
        [9, "traceflags"] SetTraceFlags {
            /// Target pid.
            pid: u32,
            /// New flag bits.
            flags: u8,
        },
        /// Register a history-dependent trigger.
        [10, "add-trigger"] AddTrigger {
            /// The trigger.
            spec: TriggerSpec,
        },
        /// Remove a trigger by id.
        [11, "del-trigger"] DelTrigger {
            /// Trigger id.
            id: u32,
        },
        /// List registered triggers.
        [12, "list-triggers"] ListTriggers,
        /// Report the LPM's internal counters (requests, broadcasts, relays,
        /// handler pool activity) — introspection for tools and experiments.
        [13, "stats"] Stats,
        /// Pull the LPM's observability registry: every counter, gauge and
        /// histogram it keeps, answered with [`Reply::Metrics`].
        [14, "metrics"] Metrics,
    }
}

wire! {
    /// Replies to [`Op`]s.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Reply {
        /// Success with no payload.
        [REPLY_OK] Ok,
        /// Failure.
        [REPLY_ERR] Err {
            /// Machine-readable code.
            code: ErrCode,
            /// Human-readable detail.
            detail: String,
        },
        /// Ping answer.
        [REPLY_PONG] Pong,
        /// [`Op::Spawn`] result.
        [REPLY_SPAWNED] Spawned {
            /// Identity of the new process.
            gpid: Gpid,
        },
        /// One host's slice of a distributed snapshot.
        [REPLY_SNAPSHOT] Snapshot {
            /// Reporting host.
            host: String,
            /// Managed processes on that host.
            procs: Vec<ProcRecord>,
        },
        /// Exited-process statistics.
        [REPLY_RUSAGE] Rusage {
            /// Records, oldest first.
            records: Vec<RusageRecord>,
        },
        /// History slice.
        [REPLY_HISTORY] History {
            /// Events, oldest first.
            events: Vec<HistoryRecord>,
        },
        /// Open descriptors of a process.
        [REPLY_FILES] Files {
            /// Entries in descriptor order.
            entries: Vec<FileRecord>,
        },
        /// Registered triggers.
        [REPLY_TRIGGERS] Triggers {
            /// Entries in id order.
            entries: Vec<TriggerSpec>,
        },
        /// LPM internal counters.
        [REPLY_STATS] Stats {
            /// Requests that entered the pipeline.
            requests: u64,
            /// Broadcasts originated / forwarded / suppressed.
            bcasts: (u64, u64, u64),
            /// Directed requests relayed for other LPMs.
            relays: u64,
            /// Requests answered via a learned route instead of a new channel.
            route_cache_hits: u64,
            /// Hello authentication failures.
            auth_failures: u64,
            /// Handler forks / reuses / reaped.
            handlers: (u64, u64, u64),
        },
        /// LPM status.
        [REPLY_STATUS] Status {
            /// Reporting host.
            host: Name,
            /// Load average × 1000.
            load_milli: u32,
            /// Managed (adopted or created) live processes.
            managed: u32,
            /// Hosts with live sibling connections.
            siblings: Vec<Name>,
            /// Current CCS host as this LPM believes it.
            ccs: Name,
            /// CCS epoch (bumps on re-election).
            epoch: u64,
        },
        /// A sweep result assembled without every host: `inner` carries what
        /// was gathered, `missing` names the hosts whose slices never arrived
        /// (straggler timeout or partition during the wave).
        [REPLY_PARTIAL] Partial {
            /// Hosts whose contributions are absent from `inner`. Canonical
            /// on the wire: encoding sorts and dedups.
            missing: Vec<Name> => encode_missing,
            /// The combined result of the hosts that did answer.
            inner: Box<Reply>,
        },
        /// [`Op::Metrics`] result: one LPM's observability registry.
        [REPLY_METRICS] Metrics {
            /// Reporting host.
            host: Name,
            /// Simulated instant the registry was sampled (µs).
            at_us: u64,
            /// Registry contents, sorted by name.
            rows: Vec<MetricRow>,
        },
    }
}

impl Reply {
    /// True for [`Reply::Err`].
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err { .. })
    }
}

wire! {
    /// One host's contribution inside a [`Msg::BcastAgg`] batch (the
    /// aggregate frame carries the wave's stamp once for the whole batch).
    #[derive(Debug, Clone, PartialEq)]
    pub struct BcastPart {
        /// Answering host.
        pub host: Name,
        /// The host's reply.
        pub reply: Reply,
        /// Route the host's slice of the wave had taken.
        pub route: Route,
    }
}

wire! {
    /// Everything that flows between tools, LPMs and pmds.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Msg {
        // ---- pmd protocol (Figure 2) ----------------------------------------
        /// Step 3: create (or find) the user's LPM on this host.
        [0, "create-lpm"] CreateLpm {
            /// Owning user.
            user: u32,
        },
        /// Step 4: the accept address of the user's LPM.
        [2, "lpm-addr"] LpmAddr {
            /// Owning user.
            user: u32,
            /// Accept port of the LPM.
            port: u16,
            /// True when the LPM was created by this request.
            created: bool,
        },
        /// Step 4 refused: this host has no account for the user.
        [3, "no-lpm"] NoLpm {
            /// Owning user.
            user: u32,
        },

        // ---- handshake on an LPM accept socket -------------------------------
        /// First message on any connection to an LPM: who is calling.
        [4, "hello"] Hello {
            /// The user the caller claims to act for.
            user: u32,
            /// Caller's host name.
            host: Name,
            /// True for tools, false for sibling LPMs.
            is_tool: bool,
            /// The caller's current CCS view (siblings propagate it).
            ccs: Name,
            /// CCS epoch.
            epoch: u64,
            /// Keyed proof derived from the user's network secret.
            proof: u64,
        },
        /// Handshake answer.
        [5, "hello-ack"] HelloAck {
            /// Responder's host name.
            host: Name,
            /// Whether authentication succeeded.
            ok: bool,
            /// Responder's CCS view.
            ccs: Name,
            /// Responder's CCS epoch.
            epoch: u64,
        },

        // ---- request / reply --------------------------------------------------
        /// A directed request, possibly relayed along `route`.
        [MSG_REQ, "req"] Req {
            /// Request id, unique at the origin.
            id: u64,
            /// Acting user.
            user: u32,
            /// Final destination host.
            dest: String,
            /// The operation.
            op: Op,
            /// Hosts traversed so far.
            route: Route,
            /// Remaining relay budget.
            hops_left: u8,
            /// Absolute deadline (simulated µs since epoch); `0` means none.
            /// Relays decay it in lockstep with `hops_left` and refuse
            /// expired requests with [`ErrCode::DeadlineExceeded`].
            deadline_us: u64,
            /// Zero-based attempt counter; retries reuse the same `id` so
            /// receivers can deduplicate on `(origin, id)`.
            attempt: u8,
            /// Boot epoch of the origin LPM's incarnation (its start instant
            /// in µs, never 0 for an LPM; `0` means unstamped, e.g. a tool).
            /// Relays carry it unchanged. Executors that have learned a newer
            /// epoch for the origin (via [`Msg::ForestPull`]) treat older
            /// stamps as replay-only and refuse with [`ErrCode::StaleEpoch`]
            /// instead of executing fresh.
            boot: u64,
        },
        /// Reply to [`Msg::Req`], relayed back along the reverse route.
        [MSG_RESP, "resp"] Resp {
            /// Request id.
            id: u64,
            /// The reply.
            reply: Reply,
            /// Full source→destination route the request took.
            route: Route,
        },

        // ---- broadcast (graph-cover echo wave) ---------------------------------
        /// A broadcast request propagating over the sibling graph.
        [8, "bcast"] Bcast {
            /// Signed timestamp (dedup + authenticity).
            stamp: Stamp,
            /// Acting user.
            user: u32,
            /// Operation every LPM performs.
            op: Op,
            /// Hosts traversed so far.
            route: Route,
        },
        /// Subtree-complete marker of the echo wave.
        [10, "bcast-done"] BcastDone {
            /// Stamp of the completed request.
            stamp: Stamp,
        },
        /// A relay's whole subtree of answers in one frame: in-network
        /// aggregation of the echo wave. `parts` is a length-prefixed batch
        /// (see [`crate::codec::encode_batch`]) of [`BcastPart`] frames;
        /// relays concatenate child batches without re-encoding them, so a
        /// chain of `n` hosts moves each record once instead of once per hop.
        [MSG_BCAST_AGG, "bcast-agg"] BcastAgg {
            /// Stamp of the wave being answered.
            stamp: Stamp,
            /// Batch-framed [`BcastPart`]s from this subtree.
            parts: bytes::Bytes,
            /// Hosts of this subtree that never answered (lost children or
            /// stragglers cut off by the wave timeout). Canonical on the
            /// wire: encoding sorts and dedups.
            missing: Vec<Name> => encode_missing,
        },

        // ---- recovery (Section 5) ----------------------------------------------
        /// CCS announcement / adoption of a new coordinator.
        [11, "ccs-announce"] CcsAnnounce {
            /// Acting user.
            user: u32,
            /// The coordinator host.
            ccs: Name,
            /// Election epoch.
            epoch: u64,
        },
        /// Liveness probe toward a (suspected) CCS.
        [12, "probe"] Probe {
            /// Acting user.
            user: u32,
            /// Prober's host.
            from: Name,
        },
        /// Probe answer.
        [13, "probe-ack"] ProbeAck {
            /// Responder's host.
            from: Name,
            /// Responder's CCS view.
            ccs: Name,
            /// Responder's epoch.
            epoch: u64,
        },

        // ---- name-server CCS assignment (Section 5's alternative) --------------
        /// Ask the name-serving pmd for the user's CCS. `claimant` is the
        /// querying LPM's host (assigned as CCS when none exists);
        /// `dead` reports a CCS the querier observed failing, prompting
        /// reassignment.
        [14, "ccs-query"] CcsQuery {
            /// Acting user.
            user: u32,
            /// The querying LPM's host.
            claimant: Name,
            /// A CCS host observed dead, if any.
            dead: Option<Name>,
        },
        /// The name server's answer.
        [15, "ccs-info"] CcsInfo {
            /// Acting user.
            user: u32,
            /// Assigned coordinator host.
            ccs: Name,
            /// Assignment epoch.
            epoch: u64,
        },

        // ---- adoption gossip (crash recovery) ----------------------------------
        /// A respawned LPM asking a sibling which of its re-adopted local
        /// processes the sibling knows remote parents for. `live` lists the
        /// survivors' local pids on `host`.
        [18, "forest-pull"] ForestPull {
            /// Acting user.
            user: u32,
            /// The respawned LPM's host.
            host: Name,
            /// Local pids of the re-adopted survivors.
            live: Vec<u32>,
            /// The respawned incarnation's boot epoch. Receivers fence the
            /// predecessor's correlation ids at this value when they purge
            /// its dedup entries, so a late in-flight retry stamped by the
            /// dead incarnation can never re-execute.
            boot: u64,
        },
        /// The sibling's answer: logical-parent edges it recorded when it
        /// originated remote spawns onto `host`. The respawned LPM grafts
        /// these onto its rebuilt forest, undoing the degeneration the crash
        /// caused.
        [19, "forest-info"] ForestInfo {
            /// Acting user.
            user: u32,
            /// The host the edges are for (the respawned LPM's host).
            host: Name,
            /// `(local pid, remote logical parent)` pairs.
            edges: Vec<(u32, Gpid)>,
        },
    }
}

/// A relay's upstream `Msg::BcastAgg { stamp, parts, missing }`,
/// written in the buffer its parts are gathered into: the message's head
/// (tag, stamp, blob length, part count) first, each part frame after
/// it, and [`RelayAgg::finish`] patches the blob length and appends the
/// missing list. The frames a relay gathered thus leave in the buffer
/// they were gathered in, never copied into a second one. Written by
/// hand, not by the wire table, because it never builds the `Msg`.
#[derive(Debug)]
pub struct RelayAgg {
    enc: Enc,
    /// Where the part frames start, past the head.
    frames_at: usize,
    /// Part frames written so far, also kept patched in the head.
    count: u32,
}

impl RelayAgg {
    /// The aggregate of the wave `stamp` names, nothing gathered yet, in
    /// a buffer with room for at least `capacity` bytes.
    pub fn new(stamp: &Stamp, capacity: usize) -> Self {
        let head = 1 + stamp.wire_len() + 8;
        // Room for the head and for the count of an empty missing list.
        let mut enc = Enc::with_capacity(capacity.max(head + 2));
        enc.u8(MSG_BCAST_AGG);
        stamp.encode(&mut enc);
        enc.u32(0);
        enc.u32(0);
        RelayAgg {
            frames_at: enc.len(),
            enc,
            count: 0,
        }
    }

    /// Counts `n` more part frames, in the head as well.
    fn counted(&mut self, n: u32) {
        self.count += n;
        self.enc.patch_u32(self.frames_at - 4, self.count);
    }

    /// Appends `BcastPart { host, reply, route }` as one frame, keeping
    /// room for the count of an empty missing list.
    pub fn push_part(&mut self, reply: &WireReply, host: &str, route: &Route) {
        self.enc.reserve(reply.part_len(host, route) + 2);
        reply.push_part(&mut self.enc, host, route);
        self.counted(1);
    }

    /// Appends `count` part frames already in wire form (a batch without
    /// its count header), byte for byte, keeping room for the count of
    /// an empty missing list.
    pub fn splice(&mut self, count: u32, frames: &[u8]) {
        self.enc.reserve(frames.len() + 2);
        self.enc.splice(frames);
        self.counted(count);
    }

    /// The part frames written so far as a batch: their count, then the
    /// frames.
    pub fn batch(&self) -> &[u8] {
        &self.enc.as_slice()[self.frames_at - 4..]
    }

    /// The finished message: the blob length patched and the missing
    /// list appended (a set is already in the canonical, sorted and
    /// deduplicated, order the wire form requires). Bytes equal to
    /// encoding the `Msg::BcastAgg` whose `parts` is [`RelayAgg::batch`].
    ///
    /// # Panics
    ///
    /// Past `u16::MAX` missing hosts, as [`Enc::seq`] does.
    pub fn finish(mut self, missing: &BTreeSet<Name>) -> Bytes {
        let blob = u32::try_from(self.batch().len()).expect("protocol blob fits in u32");
        self.enc.patch_u32(self.frames_at - 8, blob);
        let names: usize = missing.iter().map(|host| 2 + host.len()).sum();
        self.enc.reserve(2 + names);
        self.enc.seq_len(missing.len());
        for host in missing {
            self.enc.str(host);
        }
        self.enc.into_bytes()
    }
}

/// The most records one record-list reply carries: their count is a
/// `u16` on the wire.
pub const MAX_REPLY_RECORDS: usize = u16::MAX as usize;

/// Replies at most this long are held in the [`WireReply`] value itself
/// (`Ok`, `Pong`, `Spawned`, the usual `Err`): producing, parking and
/// forwarding one allocates nothing.
const INLINE_REPLY: usize = 38;

/// One encoded [`Reply`], as an LPM carries it. See the module docs for
/// what it guarantees and who may look inside.
#[derive(Clone)]
pub struct WireReply(Held);

// Replies are parked, cached and moved on every request, so they stay
// this small: what a walk learns of one (a `SnapshotRun`) is kept beside
// it, not in it.
const _: () = assert!(std::mem::size_of::<WireReply>() == 40);

#[derive(Clone)]
enum Held {
    Inline {
        len: u8,
        buf: [u8; INLINE_REPLY],
    },
    /// A buffer of its own, or a slice of the frame the reply arrived in;
    /// cloning bumps a reference count.
    Shared(Bytes),
}

/// A reply read in place by [`ReplyRef::read`], one variant per kind:
/// its strings and records stay in the bytes they were read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyRef<'a> {
    /// [`Reply::Ok`].
    Ok,
    /// [`Reply::Err`]'s code and detail.
    Err { code: ErrCode, detail: &'a str },
    /// [`Reply::Pong`].
    Pong,
    /// [`Reply::Spawned`]'s gpid.
    Spawned { host: &'a str, pid: u32 },
    /// [`Reply::Snapshot`], [`Reply::Rusage`] or [`Reply::History`], as
    /// its tag `kind` says: `count` records, whose bytes are `region` (the
    /// rest of the reply), and a snapshot's `run` when its records'
    /// `(host, pid)` keys strictly ascend.
    Records {
        kind: u8,
        count: usize,
        region: &'a [u8],
        run: Option<SnapshotRun>,
    },
    /// [`Reply::Files`].
    Files,
    /// [`Reply::Triggers`].
    Triggers,
    /// [`Reply::Status`].
    Status,
    /// [`Reply::Stats`].
    Stats,
    /// [`Reply::Partial`].
    Partial,
    /// [`Reply::Metrics`].
    Metrics,
}

impl<'a> ReplyRef<'a> {
    /// Reads one reply at `dec`, checked as [`Reply::decode`] checks it
    /// (same verdict, same error, same end), without building a record.
    /// A snapshot's walk records its run; the kinds no LPM looks into are
    /// checked by [`Reply::decode`] itself.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn read(dec: &mut Dec<'a>) -> Result<Self, CodecError> {
        let start = dec.clone();
        Ok(match dec.u8()? {
            REPLY_OK => ReplyRef::Ok,
            REPLY_ERR => ReplyRef::Err {
                code: ErrCode::decode(dec)?,
                detail: dec.str_ref()?,
            },
            REPLY_PONG => ReplyRef::Pong,
            REPLY_SPAWNED => ReplyRef::Spawned {
                host: dec.str_ref()?,
                pid: dec.u32()?,
            },
            REPLY_SNAPSHOT => {
                dec.str_ref()?; // the reporting host; each record names its own
                Self::records::<REPLY_SNAPSHOT>(dec, start.pos())?
            }
            REPLY_RUSAGE => Self::records::<REPLY_RUSAGE>(dec, start.pos())?,
            REPLY_HISTORY => Self::records::<REPLY_HISTORY>(dec, start.pos())?,
            tag => {
                *dec = start;
                Reply::decode(dec)?;
                match tag {
                    REPLY_FILES => ReplyRef::Files,
                    REPLY_TRIGGERS => ReplyRef::Triggers,
                    REPLY_STATUS => ReplyRef::Status,
                    REPLY_STATS => ReplyRef::Stats,
                    REPLY_PARTIAL => ReplyRef::Partial,
                    REPLY_METRICS => ReplyRef::Metrics,
                    // A tag the table decodes but this reader does not name.
                    _ => return Err(CodecError::BadTag { what: "Reply", tag }),
                }
            }
        })
    }

    /// The record list of a reply of kind `KIND` (its tag) begun at
    /// `start`: the count, then every record, checked. A snapshot's walk
    /// records its run, comparing pids, and hosts only when they change.
    /// Compiled apart from [`ReplyRef::read`], so that the loop every
    /// record crossing an LPM runs through stays a small one.
    #[inline(never)]
    fn records<const KIND: u8>(dec: &mut Dec<'a>, start: usize) -> Result<Self, CodecError> {
        let count = dec.seq_len()?;
        let first = dec.pos();
        let (mut last, mut prev, mut ascending) = (first, None, KIND == REPLY_SNAPSHOT);
        for _ in 0..count {
            last = dec.pos();
            if KIND == REPLY_SNAPSHOT {
                let record = ProcRecordRef::decode(dec)?;
                if let Some((host, pid)) = prev {
                    ascending &= if record.host == host {
                        record.pid > pid
                    } else {
                        record.host > host
                    };
                }
                prev = Some((record.host, record.pid));
            } else {
                sort_key::<KIND>(dec)?;
            }
        }
        let region = dec.read_since(first);
        let (first, last) = (first - start, last - start);
        let run = ascending.then_some(SnapshotRun { count, first, last });
        Ok(ReplyRef::Records {
            kind: KIND,
            count,
            region,
            run,
        })
    }

    /// The run a snapshot's walk recorded; `None` for any other reply.
    pub fn run(self) -> Option<SnapshotRun> {
        match self {
            ReplyRef::Records { run, .. } => run,
            _ => None,
        }
    }
}

/// Why a set of broadcast parts could not be split or merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartError {
    /// Index of the offending part (for a batch whose framing broke,
    /// the number of parts read before it did).
    pub part: usize,
    /// What was wrong with it.
    pub err: CodecError,
}

impl fmt::Display for PartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "part {}: {}", self.part, self.err)
    }
}

impl std::error::Error for PartError {}

impl WireReply {
    /// The encoded reply.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Held::Inline { len, buf } => &buf[..usize::from(*len)],
            Held::Shared(bytes) => bytes,
        }
    }

    /// Decodes the reply — what a tool does on receipt; an LPM has no
    /// reason to.
    ///
    /// # Errors
    ///
    /// None for a value built through this module (see the module docs).
    pub fn decode(&self) -> Result<Reply, CodecError> {
        Reply::from_bytes(self.as_bytes())
    }

    /// Reads the reply in place, to its last byte.
    ///
    /// # Errors
    ///
    /// None for a value built through this module (see the module docs).
    pub fn read(&self) -> Result<ReplyRef<'_>, CodecError> {
        let mut dec = Dec::new(self.as_bytes());
        let reply = ReplyRef::read(&mut dec)?;
        dec.finish()?;
        Ok(reply)
    }

    fn inline(encoded: &[u8]) -> Option<Self> {
        let len = u8::try_from(encoded.len()).ok()?;
        let mut buf = [0; INLINE_REPLY];
        buf.get_mut(..encoded.len())?.copy_from_slice(encoded);
        Some(WireReply(Held::Inline { len, buf }))
    }

    /// The reply at `range` of `frame`, read there already: a slice of
    /// the frame, or a copy held inline when it is that small.
    fn slice(frame: &Bytes, range: Range<usize>) -> Self {
        Self::inline(&frame[range.clone()])
            .unwrap_or_else(|| WireReply(Held::Shared(frame.slice(range))))
    }

    /// What a record-list reply of `count` records is answered with
    /// instead, when `count` is past [`MAX_REPLY_RECORDS`].
    fn too_many_records(count: usize) -> Self {
        WireReply::from(&Reply::Err {
            code: ErrCode::Internal,
            detail: format!("{count} records exceed the {MAX_REPLY_RECORDS} one reply carries"),
        })
    }

    fn from_enc(enc: Enc) -> Self {
        match Self::inline(enc.as_slice()) {
            Some(reply) => {
                enc.into_len(); // hands a pooled buffer back
                reply
            }
            None => WireReply(Held::Shared(enc.into_bytes())),
        }
    }

    /// `Reply::Snapshot { host, procs }` written straight from borrowed
    /// records (an LPM's genealogy), without building a [`ProcRecord`].
    /// Past [`MAX_REPLY_RECORDS`] the reply is a `Reply::Err` that says
    /// so: the manager asked outlives a genealogy the wire cannot carry.
    pub fn snapshot<'a>(
        host: &str,
        records: impl ExactSizeIterator<Item = ProcRecordRef<'a>>,
    ) -> Self {
        if records.len() > MAX_REPLY_RECORDS {
            return Self::too_many_records(records.len());
        }
        let mut enc = Enc::pooled();
        enc.u8(REPLY_SNAPSHOT);
        enc.str(host);
        enc.seq_len(records.len());
        for record in records {
            record.encode(&mut enc);
        }
        Self::from_enc(enc)
    }

    /// The bytes of `Msg::Resp { id, reply, route }`, sized exactly.
    pub fn resp(&self, id: u64, route: &Route) -> Bytes {
        let body = self.as_bytes();
        let mut enc = Enc::with_capacity(9 + body.len() + route.wire_len());
        enc.u8(MSG_RESP);
        enc.u64(id);
        enc.splice(body);
        route.encode(&mut enc);
        enc.into_bytes()
    }

    /// The bytes [`WireReply::push_part`] appends for `host` and `route`.
    pub fn part_len(&self, host: &str, route: &Route) -> usize {
        4 + 2 + host.len() + self.as_bytes().len() + route.wire_len()
    }

    /// Appends `BcastPart { host, reply, route }` to `batch` as one
    /// length-prefixed frame (the batch's count header is the caller's),
    /// room for the whole frame made first.
    pub fn push_part(&self, batch: &mut Enc, host: &str, route: &Route) {
        batch.reserve(self.part_len(host, route));
        batch.frame_with(|enc| {
            enc.str(host);
            enc.splice(self.as_bytes());
            route.encode(enc);
        });
    }

    /// `Reply::Partial { missing, inner: self }`; a set is already in the
    /// canonical (sorted, deduplicated) order the wire form requires.
    pub fn partial(&self, missing: &BTreeSet<Name>) -> Self {
        let mut enc = Enc::pooled();
        enc.u8(REPLY_PARTIAL);
        enc.seq_len(missing.len());
        for host in missing {
            enc.str(host);
        }
        enc.splice(self.as_bytes());
        Self::from_enc(enc)
    }

    /// Merges the parts a broadcast of `op` gathered, each with the
    /// [`SnapshotRun`] its admission recorded or `None`, into the one
    /// reply its tool gets: records of every matching part, stably sorted
    /// — snapshots by `(host, pid)`, rusage by exit time, history by event
    /// time — under one header, never built. When every snapshot part has
    /// a run and no two runs touch (each run's last key is below the next
    /// one's first), the runs' record regions are copied in first-key
    /// order and no record is walked. Otherwise each part's records are
    /// walked for their sort keys, the keys sorted and the records copied
    /// once. Parts of another kind (an `Err` from one host) add nothing; a
    /// broadcast of any other `op` merges to `Pong`; parts that sum past
    /// [`MAX_REPLY_RECORDS`] merge to a `Reply::Err` that says so.
    ///
    /// # Errors
    ///
    /// The index of a part that does not walk, with the reason. Cannot
    /// happen for parts built through this module, whose bytes were
    /// checked on the way in; the walk is a checked one regardless.
    pub fn merge(op: &Op, parts: &[(WireReply, Option<SnapshotRun>)]) -> Result<Self, PartError> {
        match op {
            Op::Snapshot => match splice_runs(parts) {
                Some(merged) => Ok(merged),
                None => merge_records::<REPLY_SNAPSHOT>(parts),
            },
            Op::Rusage { .. } => merge_records::<REPLY_RUSAGE>(parts),
            Op::History { .. } => merge_records::<REPLY_HISTORY>(parts),
            _ => Ok(WireReply::from(&Reply::Pong)),
        }
    }
}

/// What the merge sorts a record by: a snapshot record's `(host, pid)`;
/// a rusage or history record's exit or event time, with no host.
type Key<'a> = (&'a str, u64);

/// Reads one record of a reply of kind `KIND` (its tag), checked as its
/// owned type's decode checks it, and returns its [`Key`].
#[inline]
fn sort_key<'a, const KIND: u8>(dec: &mut Dec<'a>) -> Result<Key<'a>, CodecError> {
    Ok(match KIND {
        REPLY_SNAPSHOT => ProcRecordRef::decode(dec).map(|r| (r.host, u64::from(r.pid)))?,
        REPLY_RUSAGE => ("", RusageRecord::decode(dec)?.exited_us),
        _ => ("", HistoryRecordRef::decode(dec)?.at_us),
    })
}

/// What [`ReplyRef::read`] learned of a snapshot's records, so that
/// [`WireReply::merge`] need not walk them again: their count, where the
/// first one starts — the record region runs from there to the end of
/// the reply — and where the last one starts. There is a run only when
/// the records' `(host, pid)` keys strictly ascend (one host's slice, as
/// an LPM writes it, does). It is kept beside its reply, not in it (see
/// [`WireReply`]'s size), and only ever paired with the reply it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotRun {
    count: usize,
    first: usize,
    last: usize,
}

impl SnapshotRun {
    /// The keys of the first and last record and the record region, read
    /// out of the reply's `bytes`; `None` if they are not there, which
    /// for the reply the run was recorded from they always are.
    fn bounds(self, bytes: &[u8]) -> Option<(Key<'_>, Key<'_>, &[u8])> {
        let key_at = |at: usize| {
            let mut dec = Dec::new(bytes.get(at..)?);
            Some((dec.str_ref().ok()?, u64::from(dec.u32().ok()?)))
        };
        Some((
            key_at(self.first)?,
            key_at(self.last)?,
            &bytes[self.first..],
        ))
    }
}

/// [`WireReply::merge`] for a snapshot whose parts are runs that do not
/// touch: the header, then each run's record region in first-key order,
/// which is what the stable sort of their records gives. `None` sends
/// the merge to the walk: a snapshot part without a run, runs that tie
/// or overlap.
fn splice_runs(parts: &[(WireReply, Option<SnapshotRun>)]) -> Option<WireReply> {
    // Sorted in place: on the stack for up to `RUNS_ON_STACK` parts.
    const NO_RUN: (Key<'_>, Key<'_>, &[u8]) = (("", 0), ("", 0), &[]);
    let mut stack = [NO_RUN; RUNS_ON_STACK];
    let mut heap = Vec::new();
    let room = if parts.len() <= RUNS_ON_STACK {
        &mut stack[..]
    } else {
        heap.resize(parts.len(), NO_RUN);
        &mut heap[..]
    };
    let mut runs = 0;
    let mut count = 0;
    for (reply, run) in parts {
        let bytes = reply.as_bytes();
        match run {
            Some(run) if run.count > 0 => {
                room[runs] = run.bounds(bytes)?;
                runs += 1;
                count += run.count;
            }
            Some(_) => {}
            // Another kind contributes nothing, as it does to the walk.
            None if bytes.first().is_some_and(|&tag| tag != REPLY_SNAPSHOT) => {}
            None => return None,
        }
    }
    let runs = &mut room[..runs];
    runs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    if runs.windows(2).any(|pair| pair[0].1 >= pair[1].0) {
        return None;
    }
    Some(records_reply(
        REPLY_SNAPSHOT,
        count,
        runs.iter().map(|run| run.2),
    ))
}

/// The most parts [`splice_runs`] sorts without an allocation: more
/// answering hosts than any shipped world has.
const RUNS_ON_STACK: usize = 64;

/// [`WireReply::merge`] by a walk: every record of each part of kind
/// `KIND` with its key, stably sorted.
fn merge_records<const KIND: u8>(
    parts: &[(WireReply, Option<SnapshotRun>)],
) -> Result<WireReply, PartError> {
    let mut records: Vec<(Key<'_>, &[u8])> = Vec::new();
    for (part, (reply, _)) in parts.iter().enumerate() {
        let mut walk = || {
            let (count, region) = match reply.read()? {
                ReplyRef::Records {
                    kind: of,
                    count,
                    region,
                    ..
                } if of == KIND => (count, region),
                _ => return Ok(()), // another kind (an `Err` from one host) adds nothing
            };
            let mut dec = Dec::new(region);
            for _ in 0..count {
                let start = dec.pos();
                let key = sort_key::<KIND>(&mut dec)?;
                records.push((key, dec.read_since(start)));
            }
            Ok(())
        };
        walk().map_err(|err| PartError { part, err })?;
    }
    records.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(records_reply(
        KIND,
        records.len(),
        records.iter().map(|record| record.1),
    ))
}

/// The merged reply of `kind`: its header, then the record `regions` one
/// after another, `count` records in all; past [`MAX_REPLY_RECORDS`], the
/// `Reply::Err` that says so.
fn records_reply<'a>(
    kind: u8,
    count: usize,
    regions: impl Iterator<Item = &'a [u8]> + Clone,
) -> WireReply {
    if count > MAX_REPLY_RECORDS {
        return WireReply::too_many_records(count);
    }
    let body: usize = regions.clone().map(<[u8]>::len).sum();
    let mut enc = Enc::with_capacity(6 + body);
    enc.u8(kind);
    if kind == REPLY_SNAPSHOT {
        enc.str("*");
    }
    enc.seq_len(count);
    regions.for_each(|region| enc.splice(region));
    WireReply::from_enc(enc)
}

impl From<&Reply> for WireReply {
    fn from(reply: &Reply) -> Self {
        let mut enc = Enc::pooled();
        reply.encode(&mut enc);
        Self::from_enc(enc)
    }
}

impl PartialEq for WireReply {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for WireReply {}

impl fmt::Debug for WireReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.decode() {
            Ok(reply) => write!(f, "WireReply({reply:?})"),
            Err(e) => write!(f, "WireReply({} bytes: {e})", self.as_bytes().len()),
        }
    }
}

/// A [`Msg::Req`] written from borrowed fields: the bytes that encoding
/// the `Msg::Req` of the same fields gives, with no `Msg` — and so no
/// owned destination or operation — built to write them. How a tool sends
/// a script step and an LPM forwards a request it holds.
#[derive(Debug, Clone, Copy)]
pub struct ReqRef<'a> {
    /// Request id, unique at the origin.
    pub id: u64,
    /// Acting user.
    pub user: u32,
    /// Final destination host.
    pub dest: &'a str,
    /// The operation.
    pub op: &'a Op,
    /// Hosts traversed so far.
    pub route: &'a Route,
    /// Remaining relay budget.
    pub hops_left: u8,
    /// Absolute deadline (simulated µs); `0` means none.
    pub deadline_us: u64,
    /// Zero-based attempt counter.
    pub attempt: u8,
    /// Boot epoch of the origin LPM's incarnation; `0` means unstamped.
    pub boot: u64,
}

impl ReqRef<'_> {
    /// Appends the request, field by field in the wire table's order.
    pub fn encode(&self, enc: &mut Enc) {
        enc.u8(MSG_REQ);
        enc.u64(self.id);
        enc.u32(self.user);
        enc.str(self.dest);
        self.op.encode(enc);
        self.route.encode(enc);
        enc.u8(self.hops_left);
        enc.u64(self.deadline_us);
        enc.u8(self.attempt);
        enc.u64(self.boot);
    }

    /// The request as a frame, in a pooled buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut enc = Enc::pooled();
        self.encode(&mut enc);
        enc.into_bytes()
    }
}

/// A [`Msg::Req`] as an LPM reads it: the destination a [`Name`], so that
/// a short one is read without a copy on the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReq {
    /// Request id, unique at the origin.
    pub id: u64,
    /// Acting user.
    pub user: u32,
    /// Final destination host.
    pub dest: Name,
    /// The operation.
    pub op: Op,
    /// Hosts traversed so far.
    pub route: Route,
    /// Remaining relay budget.
    pub hops_left: u8,
    /// Absolute deadline (simulated µs); `0` means none.
    pub deadline_us: u64,
    /// Zero-based attempt counter.
    pub attempt: u8,
    /// Boot epoch of the origin LPM's incarnation; `0` means unstamped.
    pub boot: u64,
}

impl WireReq {
    /// The request's fields, borrowed: what writes it back.
    pub fn as_ref(&self) -> ReqRef<'_> {
        ReqRef {
            id: self.id,
            user: self.user,
            dest: &self.dest,
            op: &self.op,
            route: &self.route,
            hops_left: self.hops_left,
            deadline_us: self.deadline_us,
            attempt: self.attempt,
            boot: self.boot,
        }
    }
}

/// A message off a tool or sibling connection, a request's destination
/// read as a [`Name`] and any reply it carries left on the wire: what
/// [`Msg::from_bytes`] accepts, [`Inbound::decode`] accepts, and the
/// other way round.
#[derive(Debug, PartialEq)]
pub enum Inbound {
    /// [`Msg::Req`].
    Req(WireReq),
    /// [`Msg::Resp`].
    Resp {
        /// Request id.
        id: u64,
        /// The reply.
        reply: WireReply,
        /// Full source→destination route the request took.
        route: Route,
    },
    /// [`Msg::BcastAgg`]; `parts` is a slice of the arriving frame, for
    /// [`WirePart::split`] or for splicing onward untouched.
    BcastAgg {
        /// Stamp of the wave being answered.
        stamp: Stamp,
        /// Batch-framed [`BcastPart`]s.
        parts: Bytes,
        /// Hosts of the subtree that never answered.
        missing: Vec<Name>,
    },
    /// Every other message, decoded.
    Other(Msg),
}

impl Inbound {
    /// Short name for traces: the [`Msg::kind`] of the message it reads.
    pub fn kind(&self) -> &'static str {
        match self {
            Inbound::Req(_) => "req",
            Inbound::Resp { .. } => "resp",
            Inbound::BcastAgg { .. } => "bcast-agg",
            Inbound::Other(msg) => msg.kind(),
        }
    }

    /// Reads one message from a complete frame (no trailing bytes).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn decode(frame: &Bytes) -> Result<Self, CodecError> {
        let mut dec = Dec::new(frame);
        let msg = match dec.u8()? {
            // Fields are read in the order they are written.
            MSG_REQ => Inbound::Req(WireReq {
                id: dec.u64()?,
                user: dec.u32()?,
                dest: Name::decode(&mut dec)?,
                op: Op::decode(&mut dec)?,
                route: Route::decode(&mut dec)?,
                hops_left: dec.u8()?,
                deadline_us: dec.u64()?,
                attempt: dec.u8()?,
                boot: dec.u64()?,
            }),
            MSG_RESP => {
                let id = dec.u64()?;
                let at = dec.pos();
                ReplyRef::read(&mut dec)?;
                Inbound::Resp {
                    id,
                    reply: WireReply::slice(frame, at..dec.pos()),
                    route: Route::decode(&mut dec)?,
                }
            }
            MSG_BCAST_AGG => {
                let stamp = Stamp::decode(&mut dec)?;
                let len = dec.u32()? as usize;
                let parts = dec.sub(len)?;
                Inbound::BcastAgg {
                    stamp,
                    parts: frame.slice(parts.pos()..dec.pos()),
                    missing: dec.seq(Name::decode)?,
                }
            }
            _ => return Msg::from_bytes(frame).map(Inbound::Other),
        };
        dec.finish()?;
        Ok(msg)
    }
}

/// One [`BcastPart`] of an aggregate as the broadcast's originator keeps
/// it: the route decoded (routes are learned from it), the answering
/// host and the reply slices of the batch, and the reply's run when it
/// is a snapshot whose records ascend.
#[derive(Debug, PartialEq)]
pub struct WirePart {
    /// The answering host's name (checked UTF-8), which the originator
    /// accepts one part from per wave.
    pub host: Bytes,
    /// The host's reply.
    pub reply: WireReply,
    /// The reply's run, recorded by the walk that checked it.
    pub run: Option<SnapshotRun>,
    /// Route the host's slice of the wave had taken.
    pub route: Route,
}

impl WirePart {
    /// Splits a [`Msg::BcastAgg`] batch into its parts, checking
    /// everything [`crate::codec::decode_batch`]`::<BcastPart>` checks,
    /// into `parts`, which is cleared first: a caller that keeps the
    /// vector splits every batch into the same room.
    ///
    /// # Errors
    ///
    /// The first part that fails, with the reason; `parts` is then
    /// empty, so a batch that does not read gives no part at all.
    pub fn split(batch: &Bytes, parts: &mut Vec<WirePart>) -> Result<(), PartError> {
        parts.clear();
        let mut read = || {
            let mut iter = frames(batch)?;
            parts.reserve(iter.len());
            while let Some(frame) = iter.next_dec() {
                let mut dec = frame?;
                let at = dec.pos();
                dec.str_ref()?;
                let host = batch.slice(at + 2..dec.pos());
                let at = dec.pos();
                let run = ReplyRef::read(&mut dec)?.run();
                let reply = WireReply::slice(batch, at..dec.pos());
                let route = Route::decode(&mut dec)?;
                dec.finish()?;
                parts.push(WirePart {
                    host,
                    reply,
                    run,
                    route,
                });
            }
            Ok(())
        };
        read().map_err(|err| {
            let part = parts.len();
            parts.clear();
            PartError { part, err }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triggers::{EventPattern, TriggerAction};

    fn sample_msgs() -> Vec<Msg> {
        let stamp = Stamp::signed("origin", 5, 999, 7);
        let mut route = Route::from_origin("a");
        route.push("b");
        vec![
            Msg::CreateLpm { user: 100 },
            Msg::LpmAddr {
                user: 100,
                port: 1099,
                created: true,
            },
            Msg::NoLpm { user: 100 },
            Msg::Hello {
                user: 100,
                host: "a".into(),
                is_tool: false,
                ccs: "home".into(),
                epoch: 2,
                proof: 0xABCD,
            },
            Msg::HelloAck {
                host: "b".into(),
                ok: true,
                ccs: "home".into(),
                epoch: 2,
            },
            Msg::Req {
                id: 9,
                user: 100,
                dest: "c".into(),
                op: Op::Control {
                    pid: 33,
                    action: ControlAction::Stop,
                },
                route: route.clone(),
                hops_left: 4,
                deadline_us: 30_000_000,
                attempt: 1,
                boot: 1_500_000,
            },
            Msg::Resp {
                id: 9,
                reply: Reply::Ok,
                route: route.clone(),
            },
            Msg::Bcast {
                stamp: stamp.clone(),
                user: 100,
                op: Op::Snapshot,
                route: route.clone(),
            },
            Msg::BcastAgg {
                stamp: stamp.clone(),
                parts: crate::codec::encode_batch(&[
                    BcastPart {
                        host: "b".into(),
                        reply: Reply::Pong,
                        route: route.clone(),
                    },
                    BcastPart {
                        host: "c".into(),
                        reply: Reply::Ok,
                        route: route.clone(),
                    },
                ]),
                missing: vec!["d".into()],
            },
            Msg::BcastDone { stamp },
            Msg::CcsAnnounce {
                user: 100,
                ccs: "home".into(),
                epoch: 3,
            },
            Msg::Probe {
                user: 100,
                from: "b".into(),
            },
            Msg::ProbeAck {
                from: "home".into(),
                ccs: "home".into(),
                epoch: 3,
            },
            Msg::CcsQuery {
                user: 100,
                claimant: "b".into(),
                dead: Some("home".into()),
            },
            Msg::CcsQuery {
                user: 100,
                claimant: "b".into(),
                dead: None,
            },
            Msg::CcsInfo {
                user: 100,
                ccs: "b".into(),
                epoch: 4,
            },
            Msg::ForestPull {
                user: 100,
                host: "b".into(),
                live: vec![4, 9, 17],
                boot: 2_250_000,
            },
            Msg::ForestInfo {
                user: 100,
                host: "b".into(),
                edges: vec![(9, Gpid::new("a", 3)), (17, Gpid::new("c", 5))],
            },
            Msg::ForestInfo {
                user: 100,
                host: "b".into(),
                edges: vec![],
            },
        ]
    }

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Ping,
            Op::Status,
            Op::Control {
                pid: 1,
                action: ControlAction::Signal(15),
            },
            Op::Spawn {
                command: "troff".into(),
                logical_parent: Some(Gpid::new("a", 2)),
                lifetime_us: Some(1_000_000),
                work_us: 5_000,
                cpu_bound: true,
            },
            Op::Snapshot,
            Op::Rusage { pid: Some(4) },
            Op::Rusage { pid: None },
            Op::History {
                since_us: 0,
                max: 100,
            },
            Op::OpenFiles { pid: 7 },
            Op::Adopt {
                pid: 7,
                flags: 0b1111,
            },
            Op::SetTraceFlags {
                pid: 7,
                flags: 0b0001,
            },
            Op::AddTrigger {
                spec: TriggerSpec {
                    id: 1,
                    pattern: EventPattern::kind("exit").with_pid(9),
                    action: TriggerAction::Notify {
                        note: "done".into(),
                    },
                    once: true,
                },
            },
            Op::DelTrigger { id: 1 },
            Op::ListTriggers,
            Op::Stats,
            Op::Metrics,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply::Ok,
            Reply::Err {
                code: ErrCode::Permission,
                detail: "cross-user".into(),
            },
            Reply::Pong,
            Reply::Spawned {
                gpid: Gpid::new("a", 3),
            },
            snapshot_of("b", &[8]),
            Reply::Rusage { records: vec![] },
            Reply::History { events: vec![] },
            Reply::Files { entries: vec![] },
            Reply::Triggers { entries: vec![] },
            Reply::Stats {
                requests: 10,
                bcasts: (1, 2, 3),
                relays: 4,
                route_cache_hits: 5,
                auth_failures: 6,
                handlers: (7, 8, 9),
            },
            Reply::Status {
                host: "a".into(),
                load_milli: 1500,
                managed: 7,
                siblings: vec!["b".into(), "c".into()],
                ccs: "home".into(),
                epoch: 1,
            },
            Reply::Partial {
                missing: vec!["b".into(), "d".into()],
                inner: Box::new(Reply::Snapshot {
                    host: "*".into(),
                    procs: vec![],
                }),
            },
            Reply::Metrics {
                host: "a".into(),
                at_us: 42,
                rows: vec![
                    MetricRow {
                        name: "bcast.partial_flushes".into(),
                        kind: 1,
                        value: -1,
                        sum: 0,
                        buckets: vec![],
                    },
                    MetricRow {
                        name: "recov.probe_rtt_us".into(),
                        kind: 2,
                        value: 2,
                        sum: 9_000,
                        buckets: vec![0, 0, 1, 1],
                    },
                ],
            },
        ]
    }

    /// A metrics reply's bytes, as they were when a row's name was a
    /// `String`: a `Name` writes the same `u16` length and bytes, held
    /// inline or (past 22 bytes) shared.
    #[test]
    fn a_metrics_reply_encodes_as_it_always_has() {
        let row = |name: &str, kind, value, sum, buckets: &[u64]| MetricRow {
            name: Name::new(name),
            kind,
            value,
            sum,
            buckets: buckets.to_vec(),
        };
        let reply = Reply::Metrics {
            host: "calder".into(),
            at_us: 1_500_000,
            rows: vec![
                row("lpm.mttr_us", 2, 1, 5_021_310, &[0, 0, 0, 1]),
                row("rpc.deadline_refused", 0, 7, 0, &[]),
                row("engine.pending", 1, -3, 0, &[]),
                row("a metric name past the inline capacity", 0, 1, 0, &[]),
            ],
        };
        let golden = concat!(
            "0c000663616c646572000000000016e3600004000b6c706d2e6d7474725f7573",
            "02000000000000000100000000004c9e7e000400000000000000000000000000",
            "0000000000000000000000000000000000000100147270632e646561646c696e",
            "655f7265667573656400000000000000000700000000000000000000000e656e",
            "67696e652e70656e64696e6701fffffffffffffffd0000000000000000000000",
            "2661206d6574726963206e616d6520706173742074686520696e6c696e652063",
            "6170616369747900000000000000000100000000000000000000",
        );
        let bytes = reply.to_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
        assert_eq!(Reply::from_bytes(&bytes).unwrap(), reply);
    }

    #[test]
    fn every_msg_roundtrips() {
        for m in sample_msgs() {
            let b = m.to_bytes();
            assert_eq!(Msg::from_bytes(&b).unwrap(), m, "{}", m.kind());
        }
    }

    #[test]
    fn every_op_roundtrips() {
        for op in sample_ops() {
            let b = op.to_bytes();
            assert_eq!(Op::from_bytes(&b).unwrap(), op, "{}", op.kind());
        }
    }

    #[test]
    fn every_reply_roundtrips() {
        for r in sample_replies() {
            let b = r.to_bytes();
            assert_eq!(Reply::from_bytes(&b).unwrap(), r);
        }
    }

    /// A lone tag byte is `BadTag` unless some sample value encodes under
    /// that tag, and the tags in use go on to read (or miss) their fields.
    /// Returns the tags in use.
    fn tags_in_use<T: Wire + PartialEq + fmt::Debug>(
        what: &'static str,
        samples: &[T],
    ) -> BTreeSet<u8> {
        let spoken: BTreeSet<u8> = samples.iter().map(|v| v.to_bytes()[0]).collect();
        for tag in 0..=u8::MAX {
            let got = T::from_bytes(&[tag]);
            if spoken.contains(&tag) {
                assert!(
                    matches!(got, Ok(_) | Err(CodecError::Truncated)),
                    "{what} tag {tag} is spoken but refused: {got:?}"
                );
            } else {
                assert_eq!(got, Err(CodecError::BadTag { what, tag }));
            }
        }
        spoken
    }

    #[test]
    fn the_decoder_accepts_the_tags_the_encoder_writes_and_no_others() {
        let msgs = tags_in_use("Msg", &sample_msgs());
        // Retired words stay retired: their numbers are not reused.
        assert_eq!(msgs.len(), 17);
        assert!([1, 9, 17].iter().all(|tag| !msgs.contains(tag)));
        assert_eq!(tags_in_use("Op", &sample_ops()).len(), 15);
        assert_eq!(tags_in_use("Reply", &sample_replies()).len(), 13);
    }

    #[test]
    fn missing_lists_are_canonical_on_the_wire() {
        // Unsorted, duplicated producers still encode one sorted list.
        let m = Msg::BcastAgg {
            stamp: Stamp::signed("a", 1, 10, 3),
            parts: bytes::Bytes::new(),
            missing: vec!["d".into(), "b".into(), "d".into(), "a".into()],
        };
        let Msg::BcastAgg { missing, .. } = Msg::from_bytes(&m.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(missing, vec!["a", "b", "d"]);

        let r = Reply::Partial {
            missing: vec!["z".into(), "b".into(), "b".into()],
            inner: Box::new(Reply::Pong),
        };
        let Reply::Partial { missing, .. } = Reply::from_bytes(&r.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(missing, vec!["b", "z"]);
    }

    #[test]
    fn bcast_agg_parts_decode_as_a_batch() {
        // The aggregate's payload must survive the Msg roundtrip intact:
        // relays concatenate these batches byte-for-byte.
        let parts = vec![
            BcastPart {
                host: "b".into(),
                reply: Reply::Snapshot {
                    host: "b".into(),
                    procs: vec![],
                },
                route: Route::from_origin("a"),
            },
            BcastPart {
                host: "c".into(),
                reply: Reply::Pong,
                route: Route::from_origin("a"),
            },
        ];
        let m = Msg::BcastAgg {
            stamp: Stamp::signed("a", 1, 10, 3),
            parts: crate::codec::encode_batch(&parts),
            missing: vec![],
        };
        let b = m.to_bytes();
        let Msg::BcastAgg { parts: wire, .. } = Msg::from_bytes(&b).unwrap() else {
            panic!("wrong variant");
        };
        let decoded: Vec<BcastPart> = crate::codec::decode_batch(&wire).unwrap();
        assert_eq!(decoded, parts);
    }

    fn snapshot_of(host: &str, pids: &[u32]) -> Reply {
        Reply::Snapshot {
            host: host.into(),
            procs: pids
                .iter()
                .map(|&pid| ProcRecord {
                    gpid: Gpid::new(host, pid),
                    ppid: 1,
                    logical_parent: None,
                    command: "troff".into(),
                    state: crate::types::WireProcState::Running,
                    started_us: 5,
                    cpu_us: 6,
                    adopted: true,
                })
                .collect(),
        }
    }

    /// Ways one host's snapshot slice can arrive damaged, with what the
    /// walk must say about each.
    fn damaged_snapshots() -> Vec<(&'static str, Vec<u8>, CodecError)> {
        let good = snapshot_of("b", &[7]).to_bytes().to_vec();
        let command = good
            .windows(5)
            .position(|w| w == b"troff")
            .expect("the command is in there");
        let mut cases = Vec::new();
        cases.push((
            "truncated",
            good[..good.len() - 3].to_vec(),
            CodecError::Truncated,
        ));
        let mut bad = good.clone();
        bad[command] = 0xFF;
        cases.push(("bad utf-8 in a command", bad, CodecError::BadUtf8));
        let mut bad = good.clone();
        bad[command + 5] = 9;
        cases.push((
            "unknown state tag",
            bad,
            CodecError::BadTag {
                what: "WireProcState",
                tag: 9,
            },
        ));
        let mut bad = good.clone();
        bad[command - 2..command].copy_from_slice(&u16::MAX.to_be_bytes());
        cases.push(("length word past the end", bad, CodecError::Truncated));
        let mut bad = good.clone();
        bad[command - 3] = 2;
        cases.push((
            "bad option byte",
            bad,
            CodecError::BadTag {
                what: "Option",
                tag: 2,
            },
        ));
        let mut bad = good;
        bad.push(0);
        cases.push(("trailing byte", bad, CodecError::TrailingBytes(1)));
        cases
    }

    #[test]
    fn merge_names_the_part_it_cannot_walk() {
        let good = (WireReply::from(&snapshot_of("a", &[1, 2])), None);
        for (what, bad, err) in damaged_snapshots() {
            let parts = [
                good.clone(),
                (WireReply(Held::Shared(Bytes::from(bad))), None),
                good.clone(),
            ];
            assert_eq!(
                WireReply::merge(&Op::Snapshot, &parts),
                Err(PartError { part: 1, err }),
                "{what}"
            );
        }
        // A part of another kind is not damage: it contributes nothing.
        let parts = [good.clone(), (WireReply::from(&Reply::Pong), None), good];
        let merged = WireReply::merge(&Op::Snapshot, &parts).unwrap();
        let Reply::Snapshot { host, procs } = merged.decode().unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(host, "*");
        assert_eq!(procs.len(), 4);
    }

    #[test]
    fn runs_that_do_not_touch_are_spliced_without_a_walk() {
        let route = Route::from_origin("o");
        let mut batch = Enc::new();
        batch.u32(3);
        for (host, pids) in [("b", &[4, 9][..]), ("a", &[1, 2]), ("c", &[])] {
            WireReply::from(&snapshot_of(host, pids)).push_part(&mut batch, host, &route);
        }
        let mut split = Vec::new();
        WirePart::split(&batch.into_bytes(), &mut split).unwrap();
        assert_eq!(split[1].host, b"a"[..]);
        let mut parts: Vec<_> = split.into_iter().map(|p| (p.reply, p.run)).collect();
        parts.push((WireReply::from(&Reply::Pong), None));
        let runless: Vec<_> = parts.iter().map(|p| (p.0.clone(), None)).collect();
        let walked = WireReply::merge(&Op::Snapshot, &runless).unwrap();
        assert_eq!(splice_runs(&parts), Some(walked));

        // A run that touches another, or a snapshot without a run, sends
        // the merge to the walk; a slice whose pids descend has no run.
        let local = |pids: &[u32]| {
            let reply = WireReply::from(&snapshot_of("b", pids));
            let run = reply.read().unwrap().run();
            (reply, run)
        };
        assert!(splice_runs(&[parts[0].clone(), local(&[9, 12])]).is_none());
        assert!(splice_runs(&[parts[0].clone(), local(&[5])]).is_none());
        assert!(splice_runs(&[parts[0].clone(), local(&[10])]).is_some());
        let runless = (WireReply::from(&snapshot_of("d", &[1])), None);
        assert!(splice_runs(&[parts[0].clone(), runless]).is_none());
        assert_eq!(local(&[2, 1]).1, None);
        assert_eq!(local(&[1, 1]).1, None);
    }

    #[test]
    fn more_runs_than_the_stack_holds_are_spliced_as_the_walk_merges() {
        // Hosts answer in descending name order, so the runs must be
        // sorted, on the heap past `RUNS_ON_STACK`.
        for hosts in [RUNS_ON_STACK, RUNS_ON_STACK + 1, 2 * RUNS_ON_STACK + 3] {
            let parts: Vec<_> = (0..hosts)
                .rev()
                .map(|i| {
                    let reply = WireReply::from(&snapshot_of(&format!("h{i:03}"), &[1, 2]));
                    let run = reply.read().unwrap().run();
                    (reply, run)
                })
                .collect();
            let runless: Vec<_> = parts.iter().map(|p| (p.0.clone(), None)).collect();
            let walked = WireReply::merge(&Op::Snapshot, &runless).unwrap();
            assert_eq!(splice_runs(&parts), Some(walked), "{hosts} hosts");
        }
    }

    #[test]
    fn split_names_the_part_it_cannot_read() {
        let route = Route::from_origin("a");
        let good = WireReply::from(&snapshot_of("a", &[1]));
        let mut parts = Vec::new();
        for (what, bad, err) in damaged_snapshots() {
            let mut batch = Enc::new();
            batch.u32(3);
            good.push_part(&mut batch, "a", &route);
            batch.frame_with(|enc| {
                enc.str("b");
                enc.splice(&bad);
                route.encode(enc);
            });
            good.push_part(&mut batch, "c", &route);
            let got = WirePart::split(&batch.into_bytes(), &mut parts).unwrap_err();
            assert_eq!(got.part, 1, "{what}");
            assert!(
                parts.is_empty(),
                "{what}: the part read before it is not kept"
            );
            // Cutting the reply short makes the walk run into the route
            // behind it; whatever it trips over there, it is refused.
            if !matches!(what, "truncated" | "trailing byte") {
                assert_eq!(got.err, err, "{what}");
            }
            assert!(got.to_string().starts_with("part 1: "));
        }
        // A frame length that runs past the batch.
        let mut batch = Enc::new();
        batch.u32(2);
        good.push_part(&mut batch, "a", &route);
        batch.u32(1_000);
        batch.u8(0);
        assert_eq!(
            WirePart::split(&batch.into_bytes(), &mut parts),
            Err(PartError {
                part: 1,
                err: CodecError::Truncated
            })
        );
        // A header that promises more frames than there are bytes.
        assert_eq!(
            WirePart::split(&Bytes::from(vec![0, 0, 1, 0, 0]), &mut parts)
                .unwrap_err()
                .part,
            0
        );
        assert!(parts.is_empty());
    }

    #[test]
    fn arriving_replies_are_slices_of_their_frame() {
        let big = snapshot_of("b", &[1, 2, 3]);
        let frame = Msg::Resp {
            id: 4,
            reply: big.clone(),
            route: Route::from_origin("a"),
        }
        .to_bytes();
        let Inbound::Resp { reply, .. } = Inbound::decode(&frame).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(reply.decode().unwrap(), big);
        assert!(span_of(&frame).contains(&(reply.as_bytes().as_ptr() as usize)));

        // Small replies are copied into the value instead, so parking
        // one in the dedup window does not pin the frame it came in.
        let frame = Msg::Resp {
            id: 4,
            reply: Reply::Ok,
            route: Route::from_origin("a"),
        }
        .to_bytes();
        let Inbound::Resp { reply, .. } = Inbound::decode(&frame).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(reply, WireReply::from(&Reply::Ok));
        assert!(!span_of(&frame).contains(&(reply.as_bytes().as_ptr() as usize)));
    }

    fn span_of(frame: &Bytes) -> std::ops::Range<usize> {
        frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len()
    }

    #[test]
    fn read_gives_what_the_lpm_acts_on() {
        let spawned = WireReply::from(&Reply::Spawned {
            gpid: Gpid::new("far", 9),
        });
        assert_eq!(
            spawned.read(),
            Ok(ReplyRef::Spawned {
                host: "far",
                pid: 9
            })
        );
        let err = WireReply::from(&Reply::Err {
            code: ErrCode::NoRoute,
            detail: "unknown host".into(),
        });
        assert_eq!(
            err.read(),
            Ok(ReplyRef::Err {
                code: ErrCode::NoRoute,
                detail: "unknown host"
            })
        );
        assert_eq!(WireReply::from(&Reply::Pong).read(), Ok(ReplyRef::Pong));
        // A snapshot's records are the reply's tail, and their run is
        // recorded from where the reply begins.
        let snapshot = WireReply::from(&snapshot_of("a", &[1, 2]));
        let Ok(ReplyRef::Records {
            kind,
            count,
            region,
            run: Some(run),
        }) = snapshot.read()
        else {
            panic!("a snapshot whose pids ascend has a run");
        };
        assert_eq!((kind, count), (REPLY_SNAPSHOT, 2));
        let bytes = snapshot.as_bytes();
        assert_eq!(region, &bytes[bytes.len() - region.len()..]);
        assert_eq!(
            run.bounds(bytes).map(|b| (b.0, b.1)),
            Some((("a", 1), ("a", 2)))
        );
        // Each of the other kinds is its own variant.
        let others: Vec<WireReply> = sample_replies()[7..].iter().map(WireReply::from).collect();
        let others: Vec<_> = others.iter().map(|r| r.read().unwrap()).collect();
        let kinds = [
            ReplyRef::Files,
            ReplyRef::Triggers,
            ReplyRef::Stats,
            ReplyRef::Status,
            ReplyRef::Partial,
            ReplyRef::Metrics,
        ];
        assert_eq!(others, kinds);
    }

    #[test]
    fn read_names_every_reply_tag_by_its_own_kind() {
        let samples = sample_replies();
        for &tag in Reply::TAGS {
            let reply = samples
                .iter()
                .filter(|r| r.to_bytes()[0] == tag)
                .min_by_key(|r| r.to_bytes().len())
                .unwrap_or_else(|| panic!("no sample reply has tag {tag}"));
            let wire = WireReply::from(reply);
            let read = wire.read().unwrap_or_else(|e| panic!("tag {tag}: {e}"));
            let same = match reply {
                Reply::Ok => matches!(read, ReplyRef::Ok),
                Reply::Err { .. } => matches!(read, ReplyRef::Err { .. }),
                Reply::Pong => matches!(read, ReplyRef::Pong),
                Reply::Spawned { .. } => matches!(read, ReplyRef::Spawned { .. }),
                Reply::Snapshot { .. } | Reply::Rusage { .. } | Reply::History { .. } => {
                    matches!(read, ReplyRef::Records { kind, .. } if kind == tag)
                }
                Reply::Files { .. } => matches!(read, ReplyRef::Files),
                Reply::Triggers { .. } => matches!(read, ReplyRef::Triggers),
                Reply::Stats { .. } => matches!(read, ReplyRef::Stats),
                Reply::Status { .. } => matches!(read, ReplyRef::Status),
                Reply::Partial { .. } => matches!(read, ReplyRef::Partial),
                Reply::Metrics { .. } => matches!(read, ReplyRef::Metrics),
            };
            assert!(same, "tag {tag} read as {read:?}");
        }
    }

    #[test]
    fn reply_is_err() {
        assert!(Reply::Err {
            code: ErrCode::Timeout,
            detail: String::new()
        }
        .is_err());
        assert!(!Reply::Ok.is_err());
    }

    #[test]
    fn err_code_bad_tag() {
        assert!(matches!(
            ErrCode::from_bytes(&[99]),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        // No input derived from these bytes should panic.
        for len in 0..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = Msg::from_bytes(&data);
        }
    }

    #[test]
    fn control_messages_are_paper_scale_small() {
        // Table 2's control round trip assumes small messages; keep the
        // wire format in that regime (~100-200 bytes for a routed stop).
        let mut route = Route::from_origin("calder");
        route.push("ucbarpa");
        let m = Msg::Req {
            id: 1,
            user: 100,
            dest: "ucbarpa".into(),
            op: Op::Control {
                pid: 99,
                action: ControlAction::Stop,
            },
            route,
            hops_left: 8,
            deadline_us: 30_000_000,
            attempt: 0,
            boot: 1_000_000,
        };
        let n = m.wire_len();
        assert!(n < 200, "routed control request is {n} bytes");
    }

    #[test]
    fn deadline_exceeded_is_distinct_from_timeout() {
        // Both codes roundtrip and stay distinguishable on the wire, so
        // callers can tell "expired in flight" from "no reply in time".
        for code in [ErrCode::DeadlineExceeded, ErrCode::Timeout] {
            let b = code.to_bytes();
            assert_eq!(ErrCode::from_bytes(&b).unwrap(), code);
        }
        assert_ne!(
            ErrCode::DeadlineExceeded.to_bytes(),
            ErrCode::Timeout.to_bytes()
        );
    }

    #[test]
    fn boot_epochs_ride_requests_and_pulls() {
        // The incarnation stamp survives the roundtrip on both carriers,
        // and 0 (unstamped) is representable.
        for boot in [0u64, 1, 7_500_000] {
            let m = Msg::Req {
                id: 3,
                user: 100,
                dest: "b".into(),
                op: Op::Ping,
                route: Route::from_origin("a"),
                hops_left: 8,
                deadline_us: 0,
                attempt: 0,
                boot,
            };
            let Msg::Req { boot: got, .. } = Msg::from_bytes(&m.to_bytes()).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(got, boot);
        }
        let p = Msg::ForestPull {
            user: 100,
            host: "a".into(),
            live: vec![2],
            boot: 9_000_001,
        };
        let Msg::ForestPull { boot, .. } = Msg::from_bytes(&p.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(boot, 9_000_001);
        let b = ErrCode::StaleEpoch.to_bytes();
        assert_eq!(ErrCode::from_bytes(&b).unwrap(), ErrCode::StaleEpoch);
    }

    #[test]
    fn a_record_list_past_the_count_field_is_an_error_reply() {
        let record = ProcRecordRef {
            host: "a",
            pid: 7,
            ppid: 1,
            logical_parent: None,
            command: "w",
            state: crate::types::WireProcState::Dead,
            started_us: 0,
            cpu_us: 0,
            adopted: true,
        };
        let snapshot = |n: usize| WireReply::snapshot("a", std::iter::repeat_n(record, n));
        let refusal = |reply: &WireReply, count: usize| match reply.read() {
            Ok(ReplyRef::Err { code, detail }) => {
                assert_eq!(code, ErrCode::Internal);
                assert!(detail.contains(&format!("{count} records")), "{detail}");
                assert!(detail.contains("65535"), "{detail}");
            }
            other => panic!("{count} records answered {other:?}"),
        };
        // The limit itself is carried; one more is refused, built or merged.
        let full = snapshot(MAX_REPLY_RECORDS);
        let Ok(Reply::Snapshot { procs, .. }) = full.decode() else {
            panic!("a full reply is a snapshot");
        };
        assert_eq!(procs.len(), MAX_REPLY_RECORDS);
        refusal(&snapshot(MAX_REPLY_RECORDS + 1), MAX_REPLY_RECORDS + 1);
        let part = |reply: WireReply| (reply, None);
        let merged = WireReply::merge(&Op::Snapshot, &[part(full.clone()), part(snapshot(0))]);
        assert_eq!(merged.unwrap().as_bytes().len(), full.as_bytes().len());
        let merged = WireReply::merge(&Op::Snapshot, &[part(full), part(snapshot(1))]);
        refusal(&merged.unwrap(), MAX_REPLY_RECORDS + 1);
    }
}
