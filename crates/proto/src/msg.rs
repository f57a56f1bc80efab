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
//! **Who may peek:** the LPM's completion path reads two things through
//! [`WireReply::peek`] — a `Spawned` reply's gpid (remote-child
//! bookkeeping) and an `Err` (internal-request logging). Nothing else
//! inside an LPM looks into a reply; only the tool decodes it.
//!
//! # The vocabulary is what is spoken
//!
//! Every [`Msg`] is sent by some component and accepted by another
//! (DESIGN.md §8 has the table), and the decoder accepts exactly the tags
//! the encoder writes: tags 1, 9 and 17, words nobody said any more, are
//! [`CodecError::BadTag`] like any other unknown byte.

use std::collections::BTreeSet;
use std::fmt;

use bytes::Bytes;

use crate::codec::{frames, CodecError, Dec, Enc, Wire};
use crate::triggers::TriggerSpec;
use crate::types::{
    FileRecord, Gpid, HistoryRecord, MetricRow, ProcRecord, ProcRecordRef, Route, RusageRecord,
    Stamp,
};

// Tags of the values this module reads or writes around an encoded
// reply without decoding it.
const REPLY_ERR: u8 = 1;
const REPLY_SPAWNED: u8 = 3;
const REPLY_SNAPSHOT: u8 = 4;
const REPLY_RUSAGE: u8 = 5;
const REPLY_HISTORY: u8 = 6;
const REPLY_PARTIAL: u8 = 11;
const MSG_RESP: u8 = 7;
const MSG_BCAST_AGG: u8 = 16;

/// Sorts and dedups a `missing`-hosts list for the wire: aggregate
/// relays build these from per-hop sets and re-flushes, so the raw order
/// (and cross-hop duplicates) is not canonical. Encoding always emits
/// the normalized form, keeping same-seed runs byte-identical.
fn canonical_missing(missing: &[String]) -> Vec<&str> {
    let mut v: Vec<&str> = missing.iter().map(String::as_str).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Process-control verbs of the snapshot tool: "stop a process, execute it
/// in the foreground, execute it in the background, kill it".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlAction {
    /// Stop (SIGSTOP).
    Stop,
    /// Continue in the foreground.
    Foreground,
    /// Continue in the background.
    Background,
    /// Kill (SIGKILL).
    Kill,
    /// Deliver an arbitrary signal by number.
    Signal(u8),
}

impl Wire for ControlAction {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ControlAction::Stop => enc.u8(0),
            ControlAction::Foreground => enc.u8(1),
            ControlAction::Background => enc.u8(2),
            ControlAction::Kill => enc.u8(3),
            ControlAction::Signal(n) => {
                enc.u8(4);
                enc.u8(*n);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(ControlAction::Stop),
            1 => Ok(ControlAction::Foreground),
            2 => Ok(ControlAction::Background),
            3 => Ok(ControlAction::Kill),
            4 => Ok(ControlAction::Signal(dec.u8()?)),
            tag => Err(CodecError::BadTag {
                what: "ControlAction",
                tag,
            }),
        }
    }
}

/// Error codes carried in [`Reply::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrCode {
    /// Target process does not exist.
    NoSuchProcess,
    /// Permission denied (cross-user request).
    Permission,
    /// No route to the target host.
    NoRoute,
    /// Target host is down.
    HostDown,
    /// The responsible handler timed out.
    Timeout,
    /// Request malformed or inapplicable.
    BadRequest,
    /// Named entity not found.
    NotFound,
    /// Internal failure in the manager.
    Internal,
    /// The request's propagated deadline expired while it was in flight
    /// (distinct from [`ErrCode::Timeout`], which means the local timer
    /// fired with no reply).
    DeadlineExceeded,
    /// The request carries a correlation id stamped by a dead LPM
    /// incarnation (its boot epoch is older than the fence learned from
    /// the respawn's [`Msg::ForestPull`]). Such requests are answered
    /// replay-only — never executed fresh — because the predecessor's
    /// dedup window was purged and re-execution could double-apply.
    StaleEpoch,
}

impl Wire for ErrCode {
    fn encode(&self, enc: &mut Enc) {
        let tag = match self {
            ErrCode::NoSuchProcess => 0,
            ErrCode::Permission => 1,
            ErrCode::NoRoute => 2,
            ErrCode::HostDown => 3,
            ErrCode::Timeout => 4,
            ErrCode::BadRequest => 5,
            ErrCode::NotFound => 6,
            ErrCode::Internal => 7,
            ErrCode::DeadlineExceeded => 8,
            ErrCode::StaleEpoch => 9,
        };
        enc.u8(tag);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match dec.u8()? {
            0 => ErrCode::NoSuchProcess,
            1 => ErrCode::Permission,
            2 => ErrCode::NoRoute,
            3 => ErrCode::HostDown,
            4 => ErrCode::Timeout,
            5 => ErrCode::BadRequest,
            6 => ErrCode::NotFound,
            7 => ErrCode::Internal,
            8 => ErrCode::DeadlineExceeded,
            9 => ErrCode::StaleEpoch,
            tag => {
                return Err(CodecError::BadTag {
                    what: "ErrCode",
                    tag,
                })
            }
        })
    }
}

/// Operations a tool (or a sibling acting for a tool) asks an LPM to
/// perform on its host.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness check.
    Ping,
    /// LPM status: load, managed process count, sibling set.
    Status,
    /// Control a local process.
    Control {
        /// Target pid on the receiving LPM's host.
        pid: u32,
        /// What to do.
        action: ControlAction,
    },
    /// Create a process on the receiving LPM's host (the LPM is "the
    /// process creation server for a user's remote processes").
    Spawn {
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
    Snapshot,
    /// Report resource statistics of exited processes (all, or one pid).
    Rusage {
        /// Restrict to one pid.
        pid: Option<u32>,
    },
    /// Report history events at or after `since_us`, newest last.
    History {
        /// Lower time bound (µs).
        since_us: u64,
        /// Maximum entries.
        max: u16,
    },
    /// Report open descriptors of a local process.
    OpenFiles {
        /// Target pid.
        pid: u32,
    },
    /// Adopt a local process (and descendants) with tracing flags.
    Adopt {
        /// Target pid.
        pid: u32,
        /// [`TraceFlags`](https://en.wikipedia.org/wiki/Ptrace)-style bits
        /// (see `ppm-runtime::events::TraceFlags`).
        flags: u8,
    },
    /// Change the tracing granularity of an adopted process.
    SetTraceFlags {
        /// Target pid.
        pid: u32,
        /// New flag bits.
        flags: u8,
    },
    /// Register a history-dependent trigger.
    AddTrigger {
        /// The trigger.
        spec: TriggerSpec,
    },
    /// Remove a trigger by id.
    DelTrigger {
        /// Trigger id.
        id: u32,
    },
    /// List registered triggers.
    ListTriggers,
    /// Report the LPM's internal counters (requests, broadcasts, relays,
    /// handler pool activity) — introspection for tools and experiments.
    Stats,
    /// Pull the LPM's observability registry: every counter, gauge and
    /// histogram it keeps, answered with [`Reply::Metrics`].
    Metrics,
}

impl Op {
    /// Short name for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Status => "status",
            Op::Control { .. } => "control",
            Op::Spawn { .. } => "spawn",
            Op::Snapshot => "snapshot",
            Op::Rusage { .. } => "rusage",
            Op::History { .. } => "history",
            Op::OpenFiles { .. } => "files",
            Op::Adopt { .. } => "adopt",
            Op::SetTraceFlags { .. } => "traceflags",
            Op::AddTrigger { .. } => "add-trigger",
            Op::DelTrigger { .. } => "del-trigger",
            Op::ListTriggers => "list-triggers",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
        }
    }
}

impl Wire for Op {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Op::Ping => enc.u8(0),
            Op::Status => enc.u8(1),
            Op::Control { pid, action } => {
                enc.u8(2);
                enc.u32(*pid);
                action.encode(enc);
            }
            Op::Spawn {
                command,
                logical_parent,
                lifetime_us,
                work_us,
                cpu_bound,
            } => {
                enc.u8(3);
                enc.str(command);
                enc.opt(logical_parent, |e, g| g.encode(e));
                enc.opt(lifetime_us, |e, v| e.u64(*v));
                enc.u64(*work_us);
                enc.bool(*cpu_bound);
            }
            Op::Snapshot => enc.u8(4),
            Op::Rusage { pid } => {
                enc.u8(5);
                enc.opt(pid, |e, v| e.u32(*v));
            }
            Op::History { since_us, max } => {
                enc.u8(6);
                enc.u64(*since_us);
                enc.u16(*max);
            }
            Op::OpenFiles { pid } => {
                enc.u8(7);
                enc.u32(*pid);
            }
            Op::Adopt { pid, flags } => {
                enc.u8(8);
                enc.u32(*pid);
                enc.u8(*flags);
            }
            Op::SetTraceFlags { pid, flags } => {
                enc.u8(9);
                enc.u32(*pid);
                enc.u8(*flags);
            }
            Op::AddTrigger { spec } => {
                enc.u8(10);
                spec.encode(enc);
            }
            Op::DelTrigger { id } => {
                enc.u8(11);
                enc.u32(*id);
            }
            Op::ListTriggers => enc.u8(12),
            Op::Stats => enc.u8(13),
            Op::Metrics => enc.u8(14),
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match dec.u8()? {
            0 => Op::Ping,
            1 => Op::Status,
            2 => Op::Control {
                pid: dec.u32()?,
                action: ControlAction::decode(dec)?,
            },
            3 => Op::Spawn {
                command: dec.str()?,
                logical_parent: dec.opt(Gpid::decode)?,
                lifetime_us: dec.opt(|d| d.u64())?,
                work_us: dec.u64()?,
                cpu_bound: dec.bool()?,
            },
            4 => Op::Snapshot,
            5 => Op::Rusage {
                pid: dec.opt(|d| d.u32())?,
            },
            6 => Op::History {
                since_us: dec.u64()?,
                max: dec.u16()?,
            },
            7 => Op::OpenFiles { pid: dec.u32()? },
            8 => Op::Adopt {
                pid: dec.u32()?,
                flags: dec.u8()?,
            },
            9 => Op::SetTraceFlags {
                pid: dec.u32()?,
                flags: dec.u8()?,
            },
            10 => Op::AddTrigger {
                spec: TriggerSpec::decode(dec)?,
            },
            11 => Op::DelTrigger { id: dec.u32()? },
            12 => Op::ListTriggers,
            13 => Op::Stats,
            14 => Op::Metrics,
            tag => return Err(CodecError::BadTag { what: "Op", tag }),
        })
    }
}

/// Replies to [`Op`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success with no payload.
    Ok,
    /// Failure.
    Err {
        /// Machine-readable code.
        code: ErrCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Ping answer.
    Pong,
    /// [`Op::Spawn`] result.
    Spawned {
        /// Identity of the new process.
        gpid: Gpid,
    },
    /// One host's slice of a distributed snapshot.
    Snapshot {
        /// Reporting host.
        host: String,
        /// Managed processes on that host.
        procs: Vec<ProcRecord>,
    },
    /// Exited-process statistics.
    Rusage {
        /// Records, oldest first.
        records: Vec<RusageRecord>,
    },
    /// History slice.
    History {
        /// Events, oldest first.
        events: Vec<HistoryRecord>,
    },
    /// Open descriptors of a process.
    Files {
        /// Entries in descriptor order.
        entries: Vec<FileRecord>,
    },
    /// Registered triggers.
    Triggers {
        /// Entries in id order.
        entries: Vec<TriggerSpec>,
    },
    /// LPM internal counters.
    Stats {
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
    Status {
        /// Reporting host.
        host: String,
        /// Load average × 1000.
        load_milli: u32,
        /// Managed (adopted or created) live processes.
        managed: u32,
        /// Hosts with live sibling connections.
        siblings: Vec<String>,
        /// Current CCS host as this LPM believes it.
        ccs: String,
        /// CCS epoch (bumps on re-election).
        epoch: u64,
    },
    /// A sweep result assembled without every host: `inner` carries what
    /// was gathered, `missing` names the hosts whose slices never arrived
    /// (straggler timeout or partition during the wave).
    Partial {
        /// Hosts whose contributions are absent from `inner`.
        missing: Vec<String>,
        /// The combined result of the hosts that did answer.
        inner: Box<Reply>,
    },
    /// [`Op::Metrics`] result: one LPM's observability registry.
    Metrics {
        /// Reporting host.
        host: String,
        /// Simulated instant the registry was sampled (µs).
        at_us: u64,
        /// Registry contents, sorted by name.
        rows: Vec<MetricRow>,
    },
}

impl Reply {
    /// True for [`Reply::Err`].
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err { .. })
    }
}

impl Wire for Reply {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Reply::Ok => enc.u8(0),
            Reply::Err { code, detail } => {
                enc.u8(REPLY_ERR);
                code.encode(enc);
                enc.str(detail);
            }
            Reply::Pong => enc.u8(2),
            Reply::Spawned { gpid } => {
                enc.u8(REPLY_SPAWNED);
                gpid.encode(enc);
            }
            Reply::Snapshot { host, procs } => {
                enc.u8(REPLY_SNAPSHOT);
                enc.str(host);
                enc.seq(procs, |e, p| p.encode(e));
            }
            Reply::Rusage { records } => {
                enc.u8(REPLY_RUSAGE);
                enc.seq(records, |e, r| r.encode(e));
            }
            Reply::History { events } => {
                enc.u8(REPLY_HISTORY);
                enc.seq(events, |e, r| r.encode(e));
            }
            Reply::Files { entries } => {
                enc.u8(7);
                enc.seq(entries, |e, r| r.encode(e));
            }
            Reply::Triggers { entries } => {
                enc.u8(8);
                enc.seq(entries, |e, r| r.encode(e));
            }
            Reply::Stats {
                requests,
                bcasts,
                relays,
                route_cache_hits,
                auth_failures,
                handlers,
            } => {
                enc.u8(10);
                enc.u64(*requests);
                enc.u64(bcasts.0);
                enc.u64(bcasts.1);
                enc.u64(bcasts.2);
                enc.u64(*relays);
                enc.u64(*route_cache_hits);
                enc.u64(*auth_failures);
                enc.u64(handlers.0);
                enc.u64(handlers.1);
                enc.u64(handlers.2);
            }
            Reply::Status {
                host,
                load_milli,
                managed,
                siblings,
                ccs,
                epoch,
            } => {
                enc.u8(9);
                enc.str(host);
                enc.u32(*load_milli);
                enc.u32(*managed);
                enc.seq(siblings, |e, s| e.str(s));
                enc.str(ccs);
                enc.u64(*epoch);
            }
            Reply::Partial { missing, inner } => {
                enc.u8(REPLY_PARTIAL);
                enc.seq(&canonical_missing(missing), |e, s| e.str(s));
                inner.encode(enc);
            }
            Reply::Metrics { host, at_us, rows } => {
                enc.u8(12);
                enc.str(host);
                enc.u64(*at_us);
                enc.seq(rows, |e, r| r.encode(e));
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match dec.u8()? {
            0 => Reply::Ok,
            REPLY_ERR => Reply::Err {
                code: ErrCode::decode(dec)?,
                detail: dec.str()?,
            },
            2 => Reply::Pong,
            REPLY_SPAWNED => Reply::Spawned {
                gpid: Gpid::decode(dec)?,
            },
            REPLY_SNAPSHOT => Reply::Snapshot {
                host: dec.str()?,
                procs: dec.seq(ProcRecord::decode)?,
            },
            REPLY_RUSAGE => Reply::Rusage {
                records: dec.seq(RusageRecord::decode)?,
            },
            REPLY_HISTORY => Reply::History {
                events: dec.seq(HistoryRecord::decode)?,
            },
            7 => Reply::Files {
                entries: dec.seq(FileRecord::decode)?,
            },
            8 => Reply::Triggers {
                entries: dec.seq(TriggerSpec::decode)?,
            },
            9 => Reply::Status {
                host: dec.str()?,
                load_milli: dec.u32()?,
                managed: dec.u32()?,
                siblings: dec.seq(|d| d.str())?,
                ccs: dec.str()?,
                epoch: dec.u64()?,
            },
            10 => Reply::Stats {
                requests: dec.u64()?,
                bcasts: (dec.u64()?, dec.u64()?, dec.u64()?),
                relays: dec.u64()?,
                route_cache_hits: dec.u64()?,
                auth_failures: dec.u64()?,
                handlers: (dec.u64()?, dec.u64()?, dec.u64()?),
            },
            REPLY_PARTIAL => Reply::Partial {
                missing: dec.seq(|d| d.str())?,
                inner: Box::new(Reply::decode(dec)?),
            },
            12 => Reply::Metrics {
                host: dec.str()?,
                at_us: dec.u64()?,
                rows: dec.seq(MetricRow::decode)?,
            },
            tag => return Err(CodecError::BadTag { what: "Reply", tag }),
        })
    }
}

/// One host's contribution inside a [`Msg::BcastAgg`] batch (the
/// aggregate frame carries the wave's stamp once for the whole batch).
#[derive(Debug, Clone, PartialEq)]
pub struct BcastPart {
    /// Answering host.
    pub host: String,
    /// The host's reply.
    pub reply: Reply,
    /// Route the host's slice of the wave had taken.
    pub route: Route,
}

impl Wire for BcastPart {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.host);
        self.reply.encode(enc);
        self.route.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BcastPart {
            host: dec.str()?,
            reply: Reply::decode(dec)?,
            route: Route::decode(dec)?,
        })
    }
}

/// Everything that flows between tools, LPMs and pmds.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---- pmd protocol (Figure 2) ----------------------------------------
    /// Step 3: create (or find) the user's LPM on this host.
    CreateLpm {
        /// Owning user.
        user: u32,
    },
    /// Step 4: the accept address of the user's LPM.
    LpmAddr {
        /// Owning user.
        user: u32,
        /// Accept port of the LPM.
        port: u16,
        /// True when the LPM was created by this request.
        created: bool,
    },
    /// Step 4 refused: this host has no account for the user.
    NoLpm {
        /// Owning user.
        user: u32,
    },

    // ---- handshake on an LPM accept socket -------------------------------
    /// First message on any connection to an LPM: who is calling.
    Hello {
        /// The user the caller claims to act for.
        user: u32,
        /// Caller's host name.
        host: String,
        /// True for tools, false for sibling LPMs.
        is_tool: bool,
        /// The caller's current CCS view (siblings propagate it).
        ccs: String,
        /// CCS epoch.
        epoch: u64,
        /// Keyed proof derived from the user's network secret.
        proof: u64,
    },
    /// Handshake answer.
    HelloAck {
        /// Responder's host name.
        host: String,
        /// Whether authentication succeeded.
        ok: bool,
        /// Responder's CCS view.
        ccs: String,
        /// Responder's CCS epoch.
        epoch: u64,
    },

    // ---- request / reply --------------------------------------------------
    /// A directed request, possibly relayed along `route`.
    Req {
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
    Resp {
        /// Request id.
        id: u64,
        /// The reply.
        reply: Reply,
        /// Full source→destination route the request took.
        route: Route,
    },

    // ---- broadcast (graph-cover echo wave) ---------------------------------
    /// A broadcast request propagating over the sibling graph.
    Bcast {
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
    BcastDone {
        /// Stamp of the completed request.
        stamp: Stamp,
    },
    /// A relay's whole subtree of answers in one frame: in-network
    /// aggregation of the echo wave. `parts` is a length-prefixed batch
    /// (see [`crate::codec::encode_batch`]) of [`BcastPart`] frames;
    /// relays concatenate child batches without re-encoding them, so a
    /// chain of `n` hosts moves each record once instead of once per hop.
    BcastAgg {
        /// Stamp of the wave being answered.
        stamp: Stamp,
        /// Batch-framed [`BcastPart`]s from this subtree.
        parts: bytes::Bytes,
        /// Hosts of this subtree that never answered (lost children or
        /// stragglers cut off by the wave timeout). Canonical on the
        /// wire: encoding sorts and dedups.
        missing: Vec<String>,
    },

    // ---- recovery (Section 5) ----------------------------------------------
    /// CCS announcement / adoption of a new coordinator.
    CcsAnnounce {
        /// Acting user.
        user: u32,
        /// The coordinator host.
        ccs: String,
        /// Election epoch.
        epoch: u64,
    },
    /// Liveness probe toward a (suspected) CCS.
    Probe {
        /// Acting user.
        user: u32,
        /// Prober's host.
        from: String,
    },
    /// Probe answer.
    ProbeAck {
        /// Responder's host.
        from: String,
        /// Responder's CCS view.
        ccs: String,
        /// Responder's epoch.
        epoch: u64,
    },

    // ---- name-server CCS assignment (Section 5's alternative) --------------
    /// Ask the name-serving pmd for the user's CCS. `claimant` is the
    /// querying LPM's host (assigned as CCS when none exists);
    /// `dead` reports a CCS the querier observed failing, prompting
    /// reassignment.
    CcsQuery {
        /// Acting user.
        user: u32,
        /// The querying LPM's host.
        claimant: String,
        /// A CCS host observed dead, if any.
        dead: Option<String>,
    },
    /// The name server's answer.
    CcsInfo {
        /// Acting user.
        user: u32,
        /// Assigned coordinator host.
        ccs: String,
        /// Assignment epoch.
        epoch: u64,
    },

    // ---- adoption gossip (crash recovery) ----------------------------------
    /// A respawned LPM asking a sibling which of its re-adopted local
    /// processes the sibling knows remote parents for. `live` lists the
    /// survivors' local pids on `host`.
    ForestPull {
        /// Acting user.
        user: u32,
        /// The respawned LPM's host.
        host: String,
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
    ForestInfo {
        /// Acting user.
        user: u32,
        /// The host the edges are for (the respawned LPM's host).
        host: String,
        /// `(local pid, remote logical parent)` pairs.
        edges: Vec<(u32, Gpid)>,
    },
}

impl Msg {
    /// Short name for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::CreateLpm { .. } => "create-lpm",
            Msg::LpmAddr { .. } => "lpm-addr",
            Msg::NoLpm { .. } => "no-lpm",
            Msg::Hello { .. } => "hello",
            Msg::HelloAck { .. } => "hello-ack",
            Msg::Req { .. } => "req",
            Msg::Resp { .. } => "resp",
            Msg::Bcast { .. } => "bcast",
            Msg::BcastDone { .. } => "bcast-done",
            Msg::BcastAgg { .. } => "bcast-agg",
            Msg::CcsAnnounce { .. } => "ccs-announce",
            Msg::Probe { .. } => "probe",
            Msg::ProbeAck { .. } => "probe-ack",
            Msg::CcsQuery { .. } => "ccs-query",
            Msg::CcsInfo { .. } => "ccs-info",
            Msg::ForestPull { .. } => "forest-pull",
            Msg::ForestInfo { .. } => "forest-info",
        }
    }

    /// The bytes of `Msg::BcastAgg { stamp, parts, missing }` whose
    /// `parts` batch is the `count` part frames `frames` (a batch without
    /// its count header), written once into a buffer sized exactly: how a
    /// relay sends what it gathered without first copying it into a
    /// batch of its own. A set is already in the canonical (sorted,
    /// deduplicated) order the wire form requires.
    ///
    /// # Panics
    ///
    /// Past `u16::MAX` missing hosts, as [`Enc::seq`] does.
    pub fn bcast_agg_bytes(
        stamp: &Stamp,
        count: u32,
        frames: &[u8],
        missing: &BTreeSet<String>,
    ) -> Bytes {
        let names: usize = missing.iter().map(|host| 2 + host.len()).sum();
        let mut enc = Enc::with_capacity(1 + stamp.wire_len() + 8 + frames.len() + 2 + names);
        enc.u8(MSG_BCAST_AGG);
        stamp.encode(&mut enc);
        enc.u32(u32::try_from(4 + frames.len()).expect("protocol blob fits in u32"));
        enc.u32(count);
        enc.splice(frames);
        enc.seq_len(missing.len());
        for host in missing {
            enc.str(host);
        }
        enc.into_bytes()
    }
}

impl Wire for Msg {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Msg::CreateLpm { user } => {
                enc.u8(0);
                enc.u32(*user);
            }
            Msg::LpmAddr {
                user,
                port,
                created,
            } => {
                enc.u8(2);
                enc.u32(*user);
                enc.u16(*port);
                enc.bool(*created);
            }
            Msg::NoLpm { user } => {
                enc.u8(3);
                enc.u32(*user);
            }
            Msg::Hello {
                user,
                host,
                is_tool,
                ccs,
                epoch,
                proof,
            } => {
                enc.u8(4);
                enc.u32(*user);
                enc.str(host);
                enc.bool(*is_tool);
                enc.str(ccs);
                enc.u64(*epoch);
                enc.u64(*proof);
            }
            Msg::HelloAck {
                host,
                ok,
                ccs,
                epoch,
            } => {
                enc.u8(5);
                enc.str(host);
                enc.bool(*ok);
                enc.str(ccs);
                enc.u64(*epoch);
            }
            Msg::Req {
                id,
                user,
                dest,
                op,
                route,
                hops_left,
                deadline_us,
                attempt,
                boot,
            } => {
                enc.u8(6);
                enc.u64(*id);
                enc.u32(*user);
                enc.str(dest);
                op.encode(enc);
                route.encode(enc);
                enc.u8(*hops_left);
                enc.u64(*deadline_us);
                enc.u8(*attempt);
                enc.u64(*boot);
            }
            Msg::Resp { id, reply, route } => {
                enc.u8(MSG_RESP);
                enc.u64(*id);
                reply.encode(enc);
                route.encode(enc);
            }
            Msg::Bcast {
                stamp,
                user,
                op,
                route,
            } => {
                enc.u8(8);
                stamp.encode(enc);
                enc.u32(*user);
                op.encode(enc);
                route.encode(enc);
            }
            Msg::BcastDone { stamp } => {
                enc.u8(10);
                stamp.encode(enc);
            }
            Msg::BcastAgg {
                stamp,
                parts,
                missing,
            } => {
                enc.u8(MSG_BCAST_AGG);
                stamp.encode(enc);
                enc.bytes(parts);
                enc.seq(&canonical_missing(missing), |e, s| e.str(s));
            }
            Msg::CcsAnnounce { user, ccs, epoch } => {
                enc.u8(11);
                enc.u32(*user);
                enc.str(ccs);
                enc.u64(*epoch);
            }
            Msg::Probe { user, from } => {
                enc.u8(12);
                enc.u32(*user);
                enc.str(from);
            }
            Msg::ProbeAck { from, ccs, epoch } => {
                enc.u8(13);
                enc.str(from);
                enc.str(ccs);
                enc.u64(*epoch);
            }
            Msg::CcsQuery {
                user,
                claimant,
                dead,
            } => {
                enc.u8(14);
                enc.u32(*user);
                enc.str(claimant);
                enc.opt(dead, |e, d| e.str(d));
            }
            Msg::CcsInfo { user, ccs, epoch } => {
                enc.u8(15);
                enc.u32(*user);
                enc.str(ccs);
                enc.u64(*epoch);
            }
            Msg::ForestPull {
                user,
                host,
                live,
                boot,
            } => {
                enc.u8(18);
                enc.u32(*user);
                enc.str(host);
                enc.seq(live, |e, p| e.u32(*p));
                enc.u64(*boot);
            }
            Msg::ForestInfo { user, host, edges } => {
                enc.u8(19);
                enc.u32(*user);
                enc.str(host);
                enc.seq(edges, |e, (pid, parent)| {
                    e.u32(*pid);
                    parent.encode(e);
                });
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match dec.u8()? {
            0 => Msg::CreateLpm { user: dec.u32()? },
            2 => Msg::LpmAddr {
                user: dec.u32()?,
                port: dec.u16()?,
                created: dec.bool()?,
            },
            3 => Msg::NoLpm { user: dec.u32()? },
            4 => Msg::Hello {
                user: dec.u32()?,
                host: dec.str()?,
                is_tool: dec.bool()?,
                ccs: dec.str()?,
                epoch: dec.u64()?,
                proof: dec.u64()?,
            },
            5 => Msg::HelloAck {
                host: dec.str()?,
                ok: dec.bool()?,
                ccs: dec.str()?,
                epoch: dec.u64()?,
            },
            6 => Msg::Req {
                id: dec.u64()?,
                user: dec.u32()?,
                dest: dec.str()?,
                op: Op::decode(dec)?,
                route: Route::decode(dec)?,
                hops_left: dec.u8()?,
                deadline_us: dec.u64()?,
                attempt: dec.u8()?,
                boot: dec.u64()?,
            },
            MSG_RESP => Msg::Resp {
                id: dec.u64()?,
                reply: Reply::decode(dec)?,
                route: Route::decode(dec)?,
            },
            8 => Msg::Bcast {
                stamp: Stamp::decode(dec)?,
                user: dec.u32()?,
                op: Op::decode(dec)?,
                route: Route::decode(dec)?,
            },
            10 => Msg::BcastDone {
                stamp: Stamp::decode(dec)?,
            },
            11 => Msg::CcsAnnounce {
                user: dec.u32()?,
                ccs: dec.str()?,
                epoch: dec.u64()?,
            },
            12 => Msg::Probe {
                user: dec.u32()?,
                from: dec.str()?,
            },
            13 => Msg::ProbeAck {
                from: dec.str()?,
                ccs: dec.str()?,
                epoch: dec.u64()?,
            },
            14 => Msg::CcsQuery {
                user: dec.u32()?,
                claimant: dec.str()?,
                dead: dec.opt(|d| d.str())?,
            },
            15 => Msg::CcsInfo {
                user: dec.u32()?,
                ccs: dec.str()?,
                epoch: dec.u64()?,
            },
            MSG_BCAST_AGG => Msg::BcastAgg {
                stamp: Stamp::decode(dec)?,
                parts: bytes::Bytes::copy_from_slice(dec.bytes_ref()?),
                missing: dec.seq(|d| d.str())?,
            },
            18 => Msg::ForestPull {
                user: dec.u32()?,
                host: dec.str()?,
                live: dec.seq(|d| d.u32())?,
                boot: dec.u64()?,
            },
            19 => Msg::ForestInfo {
                user: dec.u32()?,
                host: dec.str()?,
                edges: dec.seq(|d| Ok((d.u32()?, Gpid::decode(d)?)))?,
            },
            tag => return Err(CodecError::BadTag { what: "Msg", tag }),
        })
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

/// The fields an LPM reads of a reply it is completing a request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyPeek<'a> {
    /// [`Reply::Err`].
    Err {
        /// Machine-readable code.
        code: ErrCode,
        /// Human-readable detail.
        detail: &'a str,
    },
    /// [`Reply::Spawned`]'s gpid.
    Spawned {
        /// Host of the new process.
        host: &'a str,
        /// Its pid there.
        pid: u32,
    },
    /// Anything else: not the LPM's business.
    Other,
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

    fn inline(encoded: &[u8]) -> Option<Self> {
        let len = u8::try_from(encoded.len()).ok()?;
        let mut buf = [0; INLINE_REPLY];
        buf.get_mut(..encoded.len())?.copy_from_slice(encoded);
        Some(WireReply(Held::Inline { len, buf }))
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

    /// Walks over one encoded reply at `dec`, checking it as
    /// [`Reply::decode`] would, and keeps it as a slice of `frame` — the
    /// buffer `dec` reads. Snapshot records, the bulk of what crosses an
    /// LPM, are checked in place, and the walk records their run; the
    /// small replies take the decode path.
    fn scan(frame: &Bytes, dec: &mut Dec<'_>) -> Result<(Self, Option<SnapshotRun>), CodecError> {
        let start = dec.pos();
        let run = if dec.clone().u8()? == REPLY_SNAPSHOT {
            dec.u8()?;
            dec.str_ref()?;
            SnapshotRun::walk(dec, start)?
        } else {
            Reply::decode(dec)?;
            None
        };
        let range = start..dec.pos();
        let reply = Self::inline(&frame[range.clone()])
            .unwrap_or_else(|| WireReply(Held::Shared(frame.slice(range))));
        Ok((reply, run))
    }

    /// The fields the LPM's completion path acts on.
    pub fn peek(&self) -> ReplyPeek<'_> {
        let mut dec = Dec::new(self.as_bytes());
        let mut read = || {
            Ok::<_, CodecError>(match dec.u8()? {
                REPLY_ERR => ReplyPeek::Err {
                    code: ErrCode::decode(&mut dec)?,
                    detail: dec.str_ref()?,
                },
                REPLY_SPAWNED => ReplyPeek::Spawned {
                    host: dec.str_ref()?,
                    pid: dec.u32()?,
                },
                _ => ReplyPeek::Other,
            })
        };
        read().unwrap_or(ReplyPeek::Other)
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

    /// Appends `BcastPart { host, reply, route }` to `batch` as one
    /// length-prefixed frame (the batch's count header is the caller's).
    pub fn push_part(&self, batch: &mut Enc, host: &str, route: &Route) {
        batch.frame_with(|enc| {
            enc.str(host);
            enc.splice(self.as_bytes());
            route.encode(enc);
        });
    }

    /// `Reply::Partial { missing, inner: self }`; a set is already in the
    /// canonical (sorted, deduplicated) order the wire form requires.
    pub fn partial(&self, missing: &BTreeSet<String>) -> Self {
        let mut enc = Enc::pooled();
        enc.u8(REPLY_PARTIAL);
        enc.seq_len(missing.len());
        for host in missing {
            enc.str(host);
        }
        enc.splice(self.as_bytes());
        Self::from_enc(enc)
    }

    /// Merges the parts a broadcast of `op` gathered into the one reply
    /// its tool gets: records of every matching part, stably sorted —
    /// snapshots by `(host, pid)`, rusage by exit time, history by event
    /// time — under one header. The records are never built. When every
    /// snapshot among the parts comes with its [`SnapshotRun`] and no two
    /// runs touch (each run's last key is below the next one's first),
    /// the sorted records are the runs one after another in first-key
    /// order: each run's record region is copied once, and no record is
    /// walked. Otherwise a walk collects each record's sort key and byte
    /// range, the keys are sorted, and the ranges are copied once. Parts
    /// of another kind (an `Err` from one host) contribute nothing, and a
    /// broadcast of any other `op` merges to `Pong`. Parts that sum past
    /// [`MAX_REPLY_RECORDS`] merge to a `Reply::Err` that says so.
    ///
    /// # Errors
    ///
    /// The index of a part that does not walk, with the reason. Cannot
    /// happen for parts built through this module, whose bytes were
    /// checked on the way in; the walk is a checked one regardless.
    pub fn merge<P: MergePart>(op: &Op, parts: &[P]) -> Result<Self, PartError> {
        match op {
            Op::Snapshot => match splice_runs(parts) {
                Some(merged) => Ok(merged),
                None => merge_records(parts, REPLY_SNAPSHOT, |dec| {
                    ProcRecordRef::decode(dec).map(|r| (r.host, r.pid))
                }),
            },
            Op::Rusage { .. } => merge_records(parts, REPLY_RUSAGE, |dec| {
                RusageRecord::decode(dec).map(|r| r.exited_us)
            }),
            Op::History { .. } => merge_records(parts, REPLY_HISTORY, |dec| {
                HistoryRecord::decode(dec).map(|r| r.at_us)
            }),
            _ => Ok(WireReply::from(&Reply::Pong)),
        }
    }
}

/// A part [`WireReply::merge`] combines: a reply, with the run the walk
/// that admitted it recorded, when it kept one.
pub trait MergePart {
    /// The reply.
    fn reply(&self) -> &WireReply;
    /// Its run, recorded from these very bytes.
    fn run(&self) -> Option<SnapshotRun>;
}

impl MergePart for WireReply {
    fn reply(&self) -> &WireReply {
        self
    }

    fn run(&self) -> Option<SnapshotRun> {
        None
    }
}

impl MergePart for (WireReply, Option<SnapshotRun>) {
    fn reply(&self) -> &WireReply {
        &self.0
    }

    fn run(&self) -> Option<SnapshotRun> {
        self.1
    }
}

/// A snapshot record's sort key.
type Key<'a> = (&'a str, u32);

/// What the checked walk that admitted a snapshot reply learned of its
/// records, so that [`WireReply::merge`] need not walk them again: their
/// count, where the first one starts — the record region runs from there
/// to the end of the reply — and where the last one starts. A walk
/// records a run only when the records' `(host, pid)` keys strictly
/// ascend (one host's slice, as an LPM writes it, does). A run is kept
/// beside its reply, not in it (see [`WireReply`]'s size), and is only
/// ever paired with the reply it was recorded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotRun {
    count: usize,
    first: usize,
    last: usize,
}

impl SnapshotRun {
    /// Walks `reply`, checked, and returns its run: `None` for a reply
    /// that is not a snapshot, does not walk, or whose keys do not
    /// ascend. The walk that admits the originator's own slice; an
    /// arriving one gets its run from [`WirePart::split`].
    pub fn of(reply: &WireReply) -> Option<Self> {
        let mut dec = Dec::new(reply.as_bytes());
        if dec.u8().ok()? != REPLY_SNAPSHOT {
            return None;
        }
        dec.str_ref().ok()?;
        let run = Self::walk(&mut dec, 0).ok()?;
        dec.finish().ok()?;
        run
    }

    /// Walks the record list at `dec` — count, then every record,
    /// checked — and returns its run, offsets counted from `start`
    /// (where the reply begins), or `None` when the keys do not strictly
    /// ascend. Compares pids, and hosts only when they change.
    fn walk(dec: &mut Dec<'_>, start: usize) -> Result<Option<Self>, CodecError> {
        let count = dec.seq_len()?;
        let first = dec.pos() - start;
        let mut last = first;
        let mut prev: Option<Key<'_>> = None;
        let mut ascending = true;
        for _ in 0..count {
            last = dec.pos() - start;
            let record = ProcRecordRef::decode(dec)?;
            if let Some((host, pid)) = prev {
                ascending &= if record.host == host {
                    record.pid > pid
                } else {
                    record.host > host
                };
            }
            prev = Some((record.host, record.pid));
        }
        Ok(ascending.then_some(SnapshotRun { count, first, last }))
    }

    /// The keys of the first and last record and the record region, read
    /// out of the reply's `bytes`; `None` if they are not there, which
    /// for the reply the run was recorded from they always are.
    fn bounds(self, bytes: &[u8]) -> Option<(Key<'_>, Key<'_>, &[u8])> {
        let key_at = |at: usize| {
            let mut dec = Dec::new(bytes.get(at..)?);
            Some((dec.str_ref().ok()?, dec.u32().ok()?))
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
fn splice_runs<P: MergePart>(parts: &[P]) -> Option<WireReply> {
    let mut runs: Vec<(Key<'_>, Key<'_>, &[u8])> = Vec::with_capacity(parts.len());
    let mut count = 0;
    for part in parts {
        let bytes = part.reply().as_bytes();
        match part.run() {
            Some(run) if run.count > 0 => {
                runs.push(run.bounds(bytes)?);
                count += run.count;
            }
            Some(_) => {}
            // Another kind contributes nothing, as it does to the walk.
            None if bytes.first().is_some_and(|&tag| tag != REPLY_SNAPSHOT) => {}
            None => return None,
        }
    }
    if count > MAX_REPLY_RECORDS {
        return Some(WireReply::too_many_records(count));
    }
    runs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    if runs.windows(2).any(|pair| pair[0].1 >= pair[1].0) {
        return None;
    }
    let body: usize = runs.iter().map(|(_, _, region)| region.len()).sum();
    let mut enc = Enc::with_capacity(6 + body);
    enc.u8(REPLY_SNAPSHOT);
    enc.str("*");
    enc.seq_len(count);
    for (_, _, region) in &runs {
        enc.splice(region);
    }
    Some(WireReply::from_enc(enc))
}

/// [`WireReply::merge`] for one record-list reply kind; `key` reads one
/// record off the decoder and returns what its kind sorts by.
fn merge_records<'a, K: Ord, P: MergePart>(
    parts: &'a [P],
    kind: u8,
    key: impl Fn(&mut Dec<'a>) -> Result<K, CodecError>,
) -> Result<WireReply, PartError> {
    let mut records: Vec<(K, &'a [u8])> = Vec::new();
    for (part, reply) in parts.iter().enumerate() {
        let bytes = reply.reply().as_bytes();
        let mut dec = Dec::new(bytes);
        let mut walk = || {
            if dec.u8()? != kind {
                return Ok(());
            }
            if kind == REPLY_SNAPSHOT {
                dec.str_ref()?; // the reporting host; each record names its own
            }
            let count = dec.seq_len()?;
            records.reserve(count);
            for _ in 0..count {
                let start = dec.pos();
                let key = key(&mut dec)?;
                records.push((key, &bytes[start..dec.pos()]));
            }
            dec.clone().finish()
        };
        walk().map_err(|err| PartError { part, err })?;
    }
    if records.len() > MAX_REPLY_RECORDS {
        return Ok(WireReply::too_many_records(records.len()));
    }
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let body: usize = records.iter().map(|(_, raw)| raw.len()).sum();
    let mut enc = Enc::with_capacity(6 + body);
    enc.u8(kind);
    if kind == REPLY_SNAPSHOT {
        enc.str("*");
    }
    enc.seq_len(records.len());
    for (_, raw) in &records {
        enc.splice(raw);
    }
    Ok(WireReply::from_enc(enc))
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

/// A message off a sibling connection, with any reply it carries left on
/// the wire: what [`Msg::from_bytes`] accepts, [`Inbound::decode`]
/// accepts, and the other way round.
#[derive(Debug, PartialEq)]
pub enum Inbound {
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
        missing: Vec<String>,
    },
    /// Every message that carries no reply, decoded.
    Other(Msg),
}

impl Inbound {
    /// Reads one message from a complete frame (no trailing bytes).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn decode(frame: &Bytes) -> Result<Self, CodecError> {
        let mut dec = Dec::new(frame);
        let msg = match dec.u8()? {
            MSG_RESP => Inbound::Resp {
                id: dec.u64()?,
                reply: WireReply::scan(frame, &mut dec)?.0,
                route: Route::decode(&mut dec)?,
            },
            MSG_BCAST_AGG => {
                let stamp = Stamp::decode(&mut dec)?;
                let len = dec.u32()? as usize;
                let parts = dec.sub(len)?;
                Inbound::BcastAgg {
                    stamp,
                    parts: frame.slice(parts.pos()..dec.pos()),
                    missing: dec.seq(|d| d.str())?,
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
    /// everything [`crate::codec::decode_batch`]`::<BcastPart>` checks.
    ///
    /// # Errors
    ///
    /// The first part that fails, with the reason.
    pub fn split(batch: &Bytes) -> Result<Vec<WirePart>, PartError> {
        let mut parts = Vec::new();
        let mut read = || {
            let mut iter = frames(batch)?;
            parts.reserve(iter.len());
            while let Some(frame) = iter.next_dec() {
                let mut dec = frame?;
                let at = dec.pos();
                dec.str_ref()?;
                let host = batch.slice(at + 2..dec.pos());
                let (reply, run) = WireReply::scan(batch, &mut dec)?;
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
        match read() {
            Ok(()) => Ok(parts),
            Err(err) => Err(PartError {
                part: parts.len(),
                err,
            }),
        }
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
        let good = WireReply::from(&snapshot_of("a", &[1, 2]));
        for (what, bad, err) in damaged_snapshots() {
            let parts = [
                good.clone(),
                WireReply(Held::Shared(Bytes::from(bad))),
                good.clone(),
            ];
            assert_eq!(
                WireReply::merge(&Op::Snapshot, &parts),
                Err(PartError { part: 1, err }),
                "{what}"
            );
        }
        // A part of another kind is not damage: it contributes nothing.
        let parts = [good.clone(), WireReply::from(&Reply::Pong), good];
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
        let split = WirePart::split(&batch.into_bytes()).unwrap();
        assert_eq!(split[1].host, b"a"[..]);
        let mut parts: Vec<_> = split.into_iter().map(|p| (p.reply, p.run)).collect();
        parts.push((WireReply::from(&Reply::Pong), None));
        let walked: Vec<WireReply> = parts.iter().map(|p| p.0.clone()).collect();
        let walked = WireReply::merge(&Op::Snapshot, &walked).unwrap();
        assert_eq!(splice_runs(&parts), Some(walked));

        // A run that touches another, or a snapshot without a run, sends
        // the merge to the walk; a slice whose pids descend has no run.
        let local = |pids: &[u32]| {
            let reply = WireReply::from(&snapshot_of("b", pids));
            let run = SnapshotRun::of(&reply);
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
    fn split_names_the_part_it_cannot_read() {
        let route = Route::from_origin("a");
        let good = WireReply::from(&snapshot_of("a", &[1]));
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
            let got = WirePart::split(&batch.into_bytes()).unwrap_err();
            assert_eq!(got.part, 1, "{what}");
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
            WirePart::split(&batch.into_bytes()),
            Err(PartError {
                part: 1,
                err: CodecError::Truncated
            })
        );
        // A header that promises more frames than there are bytes.
        assert_eq!(
            WirePart::split(&Bytes::from(vec![0, 0, 1, 0, 0]))
                .unwrap_err()
                .part,
            0
        );
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
    fn peek_reads_what_the_lpm_acts_on() {
        let spawned = WireReply::from(&Reply::Spawned {
            gpid: Gpid::new("far", 9),
        });
        assert_eq!(
            spawned.peek(),
            ReplyPeek::Spawned {
                host: "far",
                pid: 9
            }
        );
        let err = WireReply::from(&Reply::Err {
            code: ErrCode::NoRoute,
            detail: "unknown host".into(),
        });
        assert_eq!(
            err.peek(),
            ReplyPeek::Err {
                code: ErrCode::NoRoute,
                detail: "unknown host"
            }
        );
        assert_eq!(WireReply::from(&Reply::Pong).peek(), ReplyPeek::Other);
        assert_eq!(
            WireReply::from(&snapshot_of("a", &[1])).peek(),
            ReplyPeek::Other
        );
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
        let refusal = |reply: &WireReply, count: usize| match reply.peek() {
            ReplyPeek::Err { code, detail } => {
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
        let merged = WireReply::merge(&Op::Snapshot, &[full.clone(), snapshot(0)]);
        assert_eq!(merged.unwrap().as_bytes().len(), full.as_bytes().len());
        let merged = WireReply::merge(&Op::Snapshot, &[full, snapshot(1)]);
        refusal(&merged.unwrap(), MAX_REPLY_RECORDS + 1);
    }
}
