//! Property tests: every generated protocol value survives an
//! encode→decode roundtrip, the decoder never panics on arbitrary
//! bytes, and everything an LPM splices out of a reply's bytes
//! ([`WireReply`]) is what encoding the corresponding value gives.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use ppm_proto::codec::{decode_batch, encode_batch, frames, CodecError, Dec, Enc, Wire};
use ppm_proto::kernel_wire::{
    decode_kernel_msg, encode_kernel_batch, encode_kernel_msg, for_each_kernel_msg,
    walk_kernel_batch, KernelMsgRef,
};
use ppm_proto::msg::{
    BcastPart, ControlAction, ErrCode, Inbound, Msg, Op, RelayAgg, Reply, ReplyRef, ReqRef,
    SnapshotRun, WirePart, WireReply, WireReq, MAX_REPLY_RECORDS,
};
use ppm_proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm_proto::types::{
    FileRecord, Gpid, HistoryRecord, HistoryRecordRef, MetricRow, Name, ProcRecord, ProcRecordRef,
    Route, RusageRecord, Stamp, WireProcState, INLINE_ROUTE_HOSTS, MAX_ROUTE_HOSTS,
};
use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::ids::{Pid, Uid};
use ppm_runtime::kernel::{Effect, Effects, Kernel};
use ppm_runtime::process::Rusage;
use ppm_runtime::program::KernelMsg;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::time::{SimDuration, SimTime};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,12}"
}

fn arb_host() -> impl Strategy<Value = Name> {
    arb_name().prop_map(Name::from)
}

/// Text on both sides of [`Name::INLINE_CAP`]: ASCII of exactly 0, 21,
/// 22 and 23 bytes; ASCII padding ended by one character of one to four
/// bytes, which often straddles byte 22; and short runs of mixed widths.
fn arb_text() -> impl Strategy<Value = String> {
    const CHARS: [char; 6] = ['a', 'z', '-', 'é', '€', '𝄞'];
    prop_oneof![
        (0..4usize).prop_map(|i| "a".repeat([0, 21, 22, 23][i])),
        (17..=22usize, 0..CHARS.len()).prop_map(|(pad, c)| "a".repeat(pad) + &CHARS[c].to_string()),
        prop::collection::vec(0..CHARS.len(), 0..24)
            .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect()),
    ]
}

/// A request's destination: a host name, text on both sides of
/// [`Name::INLINE_CAP`], or a length at an edge — empty, 22 and 23 bytes,
/// and a protocol string's most, 65 535 bytes, ended by two-byte
/// characters.
fn arb_dest() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_name(),
        arb_name(),
        arb_name(),
        arb_text(),
        arb_text(),
        (0..3usize).prop_map(|i| "h".repeat([0, 22, 23][i])),
        Just("a".to_string() + &"é".repeat((usize::from(u16::MAX) - 1) / 2)),
    ]
}

/// A metric name: a short one, held inline, or text on both sides of
/// [`Name::INLINE_CAP`], whose longer draws take the shared `Arc` arm.
fn arb_metric_name() -> impl Strategy<Value = Name> {
    prop_oneof![arb_host(), arb_text().prop_map(Name::from)]
}

fn std_hash(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn arb_gpid() -> impl Strategy<Value = Gpid> {
    (arb_name(), any::<u32>()).prop_map(|(h, p)| Gpid::new(h, p))
}

fn arb_route() -> impl Strategy<Value = Route> {
    prop::collection::vec(arb_host(), 0..8).prop_map(Route::from_iter)
}

/// A route's hosts as a plain list, on both sides of
/// [`INLINE_ROUTE_HOSTS`]: 0 to 7 of them, or the most a route may name.
/// Four names, one past [`Name::INLINE_CAP`], so that repeats happen.
fn arb_route_hosts() -> impl Strategy<Value = Vec<Name>> {
    fn host() -> impl Strategy<Value = Name> {
        const HOSTS: [&str; 4] = ["a", "b", "relay", "a-host-name-past-the-inline-cap"];
        (0..HOSTS.len()).prop_map(|i| Name::from(HOSTS[i]))
    }
    prop_oneof![
        prop::collection::vec(host(), 0..8),
        prop::collection::vec(host(), MAX_ROUTE_HOSTS..=MAX_ROUTE_HOSTS),
    ]
}

fn arb_stamp() -> impl Strategy<Value = Stamp> {
    (arb_name(), any::<u64>(), any::<u64>(), any::<u64>())
        .prop_map(|(o, s, t, secret)| Stamp::signed(o, s, t, secret))
}

fn arb_state() -> impl Strategy<Value = WireProcState> {
    prop_oneof![
        Just(WireProcState::Running),
        Just(WireProcState::Stopped),
        Just(WireProcState::Dead),
        Just(WireProcState::Embryo),
    ]
}

fn arb_proc_record() -> impl Strategy<Value = ProcRecord> {
    (
        arb_gpid(),
        any::<u32>(),
        prop::option::of(arb_gpid()),
        arb_name(),
        arb_state(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(gpid, ppid, logical_parent, command, state, started_us, cpu_us, adopted)| {
                ProcRecord {
                    gpid,
                    ppid,
                    logical_parent,
                    command: command.into(),
                    state,
                    started_us,
                    cpu_us,
                    adopted,
                }
            },
        )
}

fn arb_rusage_record() -> impl Strategy<Value = RusageRecord> {
    (
        arb_gpid(),
        arb_name(),
        any::<u64>(),
        any::<i32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(gpid, command, exited_us, status, cpu_us, msgs, bytes, files, forks)| RusageRecord {
                gpid,
                command: command.into(),
                exited_us,
                status,
                cpu_us,
                msgs,
                bytes,
                files,
                forks,
            },
        )
}

fn arb_action() -> impl Strategy<Value = ControlAction> {
    prop_oneof![
        Just(ControlAction::Stop),
        Just(ControlAction::Foreground),
        Just(ControlAction::Background),
        Just(ControlAction::Kill),
        any::<u8>().prop_map(ControlAction::Signal),
    ]
}

fn arb_trigger() -> impl Strategy<Value = TriggerSpec> {
    let pattern = (
        arb_name(),
        prop::option::of(any::<u32>()),
        prop::option::of(arb_name()),
        prop::option::of(any::<u64>()),
    )
        .prop_map(|(kind, pid, command_prefix, min_cpu_us)| EventPattern {
            kind,
            pid,
            command_prefix,
            min_cpu_us,
        });
    (any::<u32>(), pattern, arb_trigger_action(), any::<bool>()).prop_map(
        |(id, pattern, action, once)| TriggerSpec {
            id,
            pattern,
            action,
            once,
        },
    )
}

fn arb_trigger_action() -> impl Strategy<Value = TriggerAction> {
    prop_oneof![
        (arb_gpid(), any::<u8>())
            .prop_map(|(target, signal)| TriggerAction::Signal { target, signal }),
        arb_name().prop_map(|note| TriggerAction::Notify { note }),
        arb_gpid().prop_map(|root| TriggerAction::KillTree { root }),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Ping),
        Just(Op::Status),
        Just(Op::Snapshot),
        Just(Op::ListTriggers),
        (any::<u32>(), arb_action()).prop_map(|(pid, action)| Op::Control { pid, action }),
        (
            arb_name(),
            prop::option::of(arb_gpid()),
            prop::option::of(any::<u64>()),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(
                |(command, logical_parent, lifetime_us, work_us, cpu_bound)| Op::Spawn {
                    command,
                    logical_parent,
                    lifetime_us,
                    work_us,
                    cpu_bound,
                }
            ),
        prop::option::of(any::<u32>()).prop_map(|pid| Op::Rusage { pid }),
        (any::<u64>(), any::<u16>()).prop_map(|(since_us, max)| Op::History { since_us, max }),
        any::<u32>().prop_map(|pid| Op::OpenFiles { pid }),
        (any::<u32>(), any::<u8>()).prop_map(|(pid, flags)| Op::Adopt { pid, flags }),
        (any::<u32>(), any::<u8>()).prop_map(|(pid, flags)| Op::SetTraceFlags { pid, flags }),
        arb_trigger().prop_map(|spec| Op::AddTrigger { spec }),
        any::<u32>().prop_map(|id| Op::DelTrigger { id }),
        Just(Op::Stats),
        Just(Op::Metrics),
    ]
}

fn arb_err_code() -> impl Strategy<Value = ErrCode> {
    prop_oneof![
        Just(ErrCode::NoSuchProcess),
        Just(ErrCode::Permission),
        Just(ErrCode::NoRoute),
        Just(ErrCode::HostDown),
        Just(ErrCode::Timeout),
        Just(ErrCode::BadRequest),
        Just(ErrCode::NotFound),
        Just(ErrCode::Internal),
        Just(ErrCode::DeadlineExceeded),
        Just(ErrCode::StaleEpoch),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        Just(Reply::Ok),
        Just(Reply::Pong),
        (arb_err_code(), arb_name()).prop_map(|(code, detail)| Reply::Err { code, detail }),
        arb_gpid().prop_map(|gpid| Reply::Spawned { gpid }),
        (arb_name(), prop::collection::vec(arb_proc_record(), 0..4))
            .prop_map(|(host, procs)| Reply::Snapshot { host, procs }),
        prop::collection::vec(arb_rusage_record(), 0..4)
            .prop_map(|records| Reply::Rusage { records }),
        prop::collection::vec(
            (any::<u64>(), arb_gpid(), arb_name(), arb_name()).prop_map(
                |(at_us, gpid, kind, detail)| HistoryRecord {
                    at_us,
                    gpid,
                    kind,
                    detail
                }
            ),
            0..4
        )
        .prop_map(|events| Reply::History { events }),
        prop::collection::vec(
            (any::<u32>(), arb_name(), arb_name()).prop_map(|(fd, kind, detail)| FileRecord {
                fd,
                kind,
                detail
            }),
            0..4
        )
        .prop_map(|entries| Reply::Files { entries }),
        prop::collection::vec(arb_trigger(), 0..3).prop_map(|entries| Reply::Triggers { entries }),
        (
            arb_host(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(arb_host(), 0..4),
            arb_host(),
            any::<u64>()
        )
            .prop_map(
                |(host, load_milli, managed, siblings, ccs, epoch)| Reply::Status {
                    host,
                    load_milli,
                    managed,
                    siblings,
                    ccs,
                    epoch,
                }
            ),
        (
            arb_host(),
            any::<u64>(),
            prop::collection::vec(
                (
                    arb_metric_name(),
                    0u8..3,
                    any::<i64>(),
                    any::<u64>(),
                    prop::collection::vec(any::<u64>(), 0..3)
                )
                    .prop_map(|(name, kind, value, sum, buckets)| MetricRow {
                        name,
                        kind,
                        value,
                        sum,
                        buckets
                    }),
                0..3
            )
        )
            .prop_map(|(host, at_us, rows)| Reply::Metrics { host, at_us, rows }),
    ]
}

fn arb_history_record() -> impl Strategy<Value = HistoryRecord> {
    (any::<u64>(), arb_gpid(), arb_name(), arb_name()).prop_map(|(at_us, gpid, kind, detail)| {
        HistoryRecord {
            at_us,
            gpid,
            kind,
            detail,
        }
    })
}

/// What a host can answer a broadcast with. Keys come from small ranges
/// and hosts include prefixes of one another, so parts collide on
/// `(host, pid)` / exit time / event time and the merge's stability and
/// string order are exercised, not just its happy path.
fn arb_bcast_answer() -> impl Strategy<Value = Reply> {
    let host = prop_oneof![Just("h"), Just("h1"), Just("h10"), Just("h2"), Just("g")];
    let proc_record = (host, 0u32..4, arb_proc_record()).prop_map(|(host, pid, mut r)| {
        r.gpid = Gpid::new(host, pid);
        r
    });
    let rusage_record = (0u64..4, arb_rusage_record()).prop_map(|(exited_us, mut r)| {
        r.exited_us = exited_us;
        r
    });
    let history_record = (0u64..4, arb_history_record()).prop_map(|(at_us, mut r)| {
        r.at_us = at_us;
        r
    });
    prop_oneof![
        (arb_name(), prop::collection::vec(proc_record, 0..5))
            .prop_map(|(host, procs)| Reply::Snapshot { host, procs }),
        prop::collection::vec(rusage_record, 0..5).prop_map(|records| Reply::Rusage { records }),
        prop::collection::vec(history_record, 0..5).prop_map(|events| Reply::History { events }),
        Just(Reply::Pong),
        arb_name().prop_map(|detail| Reply::Err {
            code: ErrCode::Internal,
            detail
        }),
    ]
}

/// The record-level merge the originator used to run: the oracle
/// [`WireReply::merge`] must agree with byte for byte.
fn combine(op: &Op, parts: Vec<Reply>) -> Reply {
    match op {
        Op::Snapshot => {
            let mut procs: Vec<ProcRecord> = Vec::new();
            for p in parts {
                if let Reply::Snapshot { procs: mut ps, .. } = p {
                    procs.append(&mut ps);
                }
            }
            procs.sort_by(|a, b| (&a.gpid.host, a.gpid.pid).cmp(&(&b.gpid.host, b.gpid.pid)));
            Reply::Snapshot {
                host: "*".to_string(),
                procs,
            }
        }
        Op::Rusage { .. } => {
            let mut records = Vec::new();
            for p in parts {
                if let Reply::Rusage { records: mut rs } = p {
                    records.append(&mut rs);
                }
            }
            records.sort_by_key(|r| r.exited_us);
            Reply::Rusage { records }
        }
        Op::History { .. } => {
            let mut events = Vec::new();
            for p in parts {
                if let Reply::History { events: mut es } = p {
                    events.append(&mut es);
                }
            }
            events.sort_by_key(|e| e.at_us);
            Reply::History { events }
        }
        _ => Reply::Pong,
    }
}

/// The walk-and-sort merge [`WireReply::merge`] ran before it spliced
/// runs, kept as its reference: walk every part of the op's kind,
/// collect each record's sort key and bytes, stable-sort the keys, copy
/// each record once.
fn reference_merge(op: &Op, parts: &[WireReply]) -> Vec<u8> {
    fn walk_and_sort<'a, K: Ord>(
        parts: &'a [WireReply],
        empty: &Reply,
        key: impl Fn(&mut Dec<'a>) -> Result<K, CodecError>,
    ) -> Vec<u8> {
        let kind = empty.to_bytes()[0];
        let snapshot = matches!(empty, Reply::Snapshot { .. });
        let mut records: Vec<(K, &'a [u8])> = Vec::new();
        for (part, reply) in parts.iter().enumerate() {
            let bytes = reply.as_bytes();
            let mut dec = Dec::new(bytes);
            let mut read = || {
                if dec.u8()? != kind {
                    return Ok(());
                }
                if snapshot {
                    dec.str_ref()?;
                }
                for _ in 0..dec.seq_len()? {
                    let start = dec.pos();
                    let key = key(&mut dec)?;
                    records.push((key, &bytes[start..dec.pos()]));
                }
                dec.clone().finish()
            };
            read().unwrap_or_else(|e| panic!("part {part} does not walk: {e}"));
        }
        if records.len() > MAX_REPLY_RECORDS {
            let detail = format!(
                "{} records exceed the {MAX_REPLY_RECORDS} one reply carries",
                records.len()
            );
            let code = ErrCode::Internal;
            return Reply::Err { code, detail }.to_bytes().to_vec();
        }
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut enc = Enc::new();
        enc.u8(kind);
        if snapshot {
            enc.str("*");
        }
        enc.seq_len(records.len());
        for (_, raw) in &records {
            enc.splice(raw);
        }
        enc.into_bytes().to_vec()
    }
    match op {
        Op::Snapshot => walk_and_sort(
            parts,
            &Reply::Snapshot {
                host: String::new(),
                procs: vec![],
            },
            |dec| ProcRecordRef::decode(dec).map(|r| (r.host, r.pid)),
        ),
        Op::Rusage { .. } => walk_and_sort(parts, &Reply::Rusage { records: vec![] }, |dec| {
            RusageRecord::decode(dec).map(|r| r.exited_us)
        }),
        Op::History { .. } => walk_and_sort(parts, &Reply::History { events: vec![] }, |dec| {
            HistoryRecord::decode(dec).map(|r| r.at_us)
        }),
        _ => Reply::Pong.to_bytes().to_vec(),
    }
}

/// The replies [`arb_reply`] leaves out: counters and a partial result
/// around any other reply.
fn arb_rare_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        prop::collection::vec(any::<u64>(), 10).prop_map(|v| Reply::Stats {
            requests: v[0],
            bcasts: (v[1], v[2], v[3]),
            relays: v[4],
            route_cache_hits: v[5],
            auth_failures: v[6],
            handlers: (v[7], v[8], v[9]),
        }),
        (prop::collection::vec(arb_host(), 0..4), arb_reply()).prop_map(|(missing, inner)| {
            Reply::Partial {
                missing,
                inner: Box::new(inner),
            }
        }),
    ]
}

/// Holds what `ReplyRef::read` gave, reading `span`, to the reply
/// `Reply::decode` built from the same bytes: the same fields; a record
/// list's count, and a region at the end of the span that decodes to the
/// records; and a snapshot's run as computed here from the decoded
/// records — compared through `Debug`, since only a walk can make a
/// `SnapshotRun`.
fn read_as_decoded(view: ReplyRef<'_>, span: &[u8], decoded: &Reply) {
    fn region_holds<T: Wire + PartialEq + std::fmt::Debug>(
        region: &[u8],
        count: usize,
        items: &[T],
    ) {
        let mut dec = Dec::new(region);
        let back: Vec<T> = (0..count)
            .map(|_| T::decode(&mut dec).expect("a record"))
            .collect();
        dec.finish()
            .expect("the region holds the records and nothing else");
        assert_eq!(back, items);
    }
    let (kind, run) = match (view, decoded) {
        (ReplyRef::Ok, Reply::Ok)
        | (ReplyRef::Pong, Reply::Pong)
        | (ReplyRef::Files, Reply::Files { .. })
        | (ReplyRef::Triggers, Reply::Triggers { .. })
        | (ReplyRef::Status, Reply::Status { .. })
        | (ReplyRef::Stats, Reply::Stats { .. })
        | (ReplyRef::Partial, Reply::Partial { .. })
        | (ReplyRef::Metrics, Reply::Metrics { .. }) => return,
        (ReplyRef::Err { code, detail }, Reply::Err { code: c, detail: d }) => {
            assert_eq!((code, detail), (*c, d.as_str()));
            return;
        }
        (ReplyRef::Spawned { host, pid }, Reply::Spawned { gpid }) => {
            assert_eq!((host, pid), (gpid.host.as_str(), gpid.pid));
            return;
        }
        (
            ReplyRef::Records {
                kind,
                count,
                region,
                run,
            },
            Reply::Snapshot { host, procs },
        ) => {
            assert!(span.ends_with(region));
            region_holds(region, count, procs);
            let first = 1 + 2 + host.len() + 2;
            let lens = procs.iter().map(|p| p.to_bytes().len());
            let last = first + lens.rev().skip(1).sum::<usize>();
            let fresh = ascends(decoded).then(|| {
                let count = procs.len();
                format!("SnapshotRun {{ count: {count}, first: {first}, last: {last} }}")
            });
            assert_eq!(run.map(|run| format!("{run:?}")), fresh);
            (kind == 4, run)
        }
        (
            ReplyRef::Records {
                kind,
                count,
                region,
                run,
            },
            Reply::Rusage { records },
        ) => {
            assert!(span.ends_with(region));
            region_holds(region, count, records);
            (kind == 5, run)
        }
        (
            ReplyRef::Records {
                kind,
                count,
                region,
                run,
            },
            Reply::History { events },
        ) => {
            assert!(span.ends_with(region));
            region_holds(region, count, events);
            (kind == 6, run)
        }
        (view, decoded) => panic!("read {view:?} where the decode built {decoded:?}"),
    };
    assert!(kind, "the tag of {decoded:?}");
    assert!(run.is_none() || matches!(decoded, Reply::Snapshot { .. }));
}

/// One host's snapshot slice for the merge property: pids that mostly
/// ascend (as an LPM writes them) but now and then do not or repeat,
/// records that name the reporting host or, now and then, another, and
/// empty slices. Hosts come from a small set, so slices of different
/// parts are distinct, repeated or equal.
fn arb_slice() -> impl Strategy<Value = Reply> {
    let host = || prop_oneof![Just("h"), Just("h1"), Just("h10"), Just("h2"), Just("g")];
    (
        host(),
        prop::collection::vec(0u32..8, 0..6),
        0u8..4,
        (0u8..4, host()),
        arb_proc_record(),
    )
        .prop_map(|(host, mut pids, sorted, stranger, template)| {
            // One slice in four keeps its pids as drawn, and one in four
            // names another host in every other record.
            if sorted > 0 {
                pids.sort_unstable();
                pids.dedup();
            }
            let procs = pids
                .iter()
                .enumerate()
                .map(|(i, &pid)| {
                    let on = match stranger {
                        (0, other) if i % 2 == 1 => other,
                        _ => host,
                    };
                    ProcRecord {
                        gpid: Gpid::new(on, pid),
                        ..template.clone()
                    }
                })
                .collect();
            Reply::Snapshot {
                host: host.to_string(),
                procs,
            }
        })
}

/// How a part came to the originator: split out of an arriving
/// aggregate (the walk that checked it recorded its run), as its own
/// slice (walked once on the way in), or encoded from a value (no run).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Admitted {
    Split,
    Local,
    Encoded,
}

fn arb_admitted() -> impl Strategy<Value = Admitted> {
    prop_oneof![
        Just(Admitted::Split),
        Just(Admitted::Split),
        Just(Admitted::Local),
        Just(Admitted::Local),
        Just(Admitted::Encoded)
    ]
}

/// Whether a reply is a snapshot whose `(host, pid)` keys strictly
/// ascend: the replies a walk records a run for.
fn ascends(reply: &Reply) -> bool {
    let key = |p: &ProcRecord| (p.gpid.host.clone(), p.gpid.pid);
    matches!(reply, Reply::Snapshot { procs, .. }
        if procs.windows(2).all(|w| key(&w[0]) < key(&w[1])))
}

/// A slice of `count` records on `host`, pids ascending from 0, with
/// its run when `admitted` keeps one.
fn bulk_slice(host: &str, count: usize, admitted: Admitted) -> (WireReply, Option<SnapshotRun>) {
    let records = (0..count as u32).map(|pid| ProcRecordRef {
        host,
        pid,
        ppid: 1,
        logical_parent: None,
        command: "bulk",
        state: WireProcState::Running,
        started_us: 0,
        cpu_us: 0,
        adopted: true,
    });
    let reply = WireReply::snapshot(host, records);
    let run = match admitted {
        Admitted::Encoded => None,
        Admitted::Split | Admitted::Local => reply.read().ok().and_then(ReplyRef::run),
    };
    (reply, run)
}

fn arb_signal() -> impl Strategy<Value = Signal> {
    (1u8..32)
        .prop_filter("a signal number", |&n| Signal::from_number(n).is_some())
        .prop_map(|n| Signal::from_number(n).expect("filtered"))
}

fn arb_kernel_event() -> impl Strategy<Value = KernelEvent> {
    let pid = || any::<u32>().prop_map(Pid);
    let status = prop_oneof![
        any::<i32>().prop_map(ExitStatus::Code),
        arb_signal().prop_map(ExitStatus::Signaled),
    ];
    let rusage = prop::collection::vec(any::<u64>(), 8).prop_map(|v| Rusage {
        cpu: SimDuration::from_micros(v[0]),
        msgs_sent: v[1],
        msgs_received: v[2],
        bytes_sent: v[3],
        bytes_received: v[4],
        files_opened: v[5],
        signals_received: v[6],
        forks: v[7],
    });
    prop_oneof![
        (pid(), pid()).prop_map(|(parent, child)| KernelEvent::Fork { parent, child }),
        (pid(), arb_text()).prop_map(|(pid, command)| KernelEvent::Exec { pid, command }),
        (pid(), status, rusage).prop_map(|(pid, status, rusage)| KernelEvent::Exit {
            pid,
            status,
            rusage
        }),
        (pid(), arb_signal())
            .prop_map(|(pid, signal)| KernelEvent::SignalDelivered { pid, signal }),
        pid().prop_map(|pid| KernelEvent::Stopped { pid }),
        pid().prop_map(|pid| KernelEvent::Continued { pid }),
        (pid(), any::<u32>()).prop_map(|(pid, n)| KernelEvent::MsgSent {
            pid,
            bytes: n as usize
        }),
        (pid(), any::<u32>()).prop_map(|(pid, n)| KernelEvent::MsgReceived {
            pid,
            bytes: n as usize
        }),
        (pid(), arb_text()).prop_map(|(pid, path)| KernelEvent::FileOpened { pid, path }),
        (pid(), arb_text()).prop_map(|(pid, path)| KernelEvent::FileClosed { pid, path }),
    ]
}

fn arb_kernel_msg() -> impl Strategy<Value = KernelMsg> {
    (any::<u64>(), arb_kernel_event()).prop_map(|(at, event)| KernelMsg {
        queued_at: SimTime::from_micros(at),
        event,
    })
}

/// `event`, about `pid` instead.
fn about(pid: Pid, mut event: KernelEvent) -> KernelEvent {
    match &mut event {
        KernelEvent::Fork { parent: p, .. }
        | KernelEvent::Exec { pid: p, .. }
        | KernelEvent::Exit { pid: p, .. }
        | KernelEvent::SignalDelivered { pid: p, .. }
        | KernelEvent::Stopped { pid: p }
        | KernelEvent::Continued { pid: p }
        | KernelEvent::MsgSent { pid: p, .. }
        | KernelEvent::MsgReceived { pid: p, .. }
        | KernelEvent::FileOpened { pid: p, .. }
        | KernelEvent::FileClosed { pid: p, .. } => *p = pid,
    }
    event
}

/// Queues `msgs` on a kernel as it queues its own events, an exec's
/// command as a `Name`, and returns the `(kind, wire_size)` of each
/// event the kernel reported queued.
fn queue(k: &mut Kernel, msgs: &[KernelMsg]) -> Vec<(&'static str, usize)> {
    let mut fx = Effects::new();
    for msg in msgs {
        let event = msg.event.map(|text| Name::new(text));
        k.emit(event, msg.queued_at, &mut fx);
    }
    let queued = fx.iter().filter_map(|e| match e {
        Effect::Queued {
            kind, wire_size, ..
        } => Some((*kind, *wire_size)),
        _ => None,
    });
    queued.collect()
}

/// The bytes `encode_kernel_msg` writes for `msg`.
fn kernel_msg_bytes<S: AsRef<str>>(msg: &KernelMsg<S>) -> Vec<u8> {
    let mut enc = Enc::new();
    encode_kernel_msg(msg, &mut enc);
    enc.into_bytes().to_vec()
}

/// The one message `frame` holds, borrowed from it.
fn read_kernel_msg(frame: &[u8]) -> Result<KernelMsgRef<'_>, CodecError> {
    let mut dec = Dec::new(frame);
    let msg = decode_kernel_msg(&mut dec)?;
    dec.finish().map(|()| msg)
}

/// Walks a kernel batch, checking on the way that every message the walk
/// yields re-encodes to bytes the walk reads back as itself.
fn walk_checked(data: &[u8]) -> Result<Vec<KernelMsg>, TestCaseError> {
    let mut walked = Vec::new();
    let mut stable = Ok(());
    walk_kernel_batch(data, |msg| {
        let owned = msg.map(|text| text.to_string());
        let bytes = owned.to_bytes();
        if read_kernel_msg(&bytes) != Ok(msg) {
            stable = Err(TestCaseError(format!("{msg:?} does not re-read")));
        }
        walked.push(owned);
    });
    stable.map(|()| walked)
}

/// A [`Msg::Req`], its destination drawn by [`arb_dest`].
fn arb_req() -> impl Strategy<Value = Msg> {
    (
        any::<u64>(),
        any::<u32>(),
        arb_dest(),
        arb_op(),
        arb_route(),
        any::<u8>(),
        any::<u64>(),
        any::<u8>(),
        any::<u64>(),
    )
        .prop_map(
            |(id, user, dest, op, route, hops_left, deadline_us, attempt, boot)| Msg::Req {
                id,
                user,
                dest,
                op,
                route,
                hops_left,
                deadline_us,
                attempt,
                boot,
            },
        )
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        any::<u32>().prop_map(|user| Msg::CreateLpm { user }),
        (any::<u32>(), any::<u16>(), any::<bool>()).prop_map(|(user, port, created)| {
            Msg::LpmAddr {
                user,
                port,
                created,
            }
        }),
        any::<u32>().prop_map(|user| Msg::NoLpm { user }),
        (
            any::<u32>(),
            arb_host(),
            any::<bool>(),
            arb_host(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(user, host, is_tool, ccs, epoch, proof)| Msg::Hello {
                user,
                host,
                is_tool,
                ccs,
                epoch,
                proof
            }),
        (arb_host(), any::<bool>(), arb_host(), any::<u64>()).prop_map(|(host, ok, ccs, epoch)| {
            Msg::HelloAck {
                host,
                ok,
                ccs,
                epoch,
            }
        }),
        arb_req(),
        (any::<u64>(), arb_reply(), arb_route()).prop_map(|(id, reply, route)| Msg::Resp {
            id,
            reply,
            route
        }),
        (arb_stamp(), any::<u32>(), arb_op(), arb_route()).prop_map(|(stamp, user, op, route)| {
            Msg::Bcast {
                stamp,
                user,
                op,
                route,
            }
        }),
        arb_stamp().prop_map(|stamp| Msg::BcastDone { stamp }),
        (any::<u32>(), arb_host(), any::<u64>()).prop_map(|(user, ccs, epoch)| Msg::CcsAnnounce {
            user,
            ccs,
            epoch
        }),
        (any::<u32>(), arb_host()).prop_map(|(user, from)| Msg::Probe { user, from }),
        (arb_host(), arb_host(), any::<u64>()).prop_map(|(from, ccs, epoch)| Msg::ProbeAck {
            from,
            ccs,
            epoch
        }),
        // `missing` drawn canonical (sorted, no repeats), as it decodes.
        (
            arb_stamp(),
            prop::collection::vec(any::<u8>(), 0..24),
            prop::collection::vec(arb_host(), 0..4)
        )
            .prop_map(|(stamp, parts, missing)| Msg::BcastAgg {
                stamp,
                parts: parts.into(),
                missing: missing
                    .into_iter()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
            }),
        (any::<u32>(), arb_host(), prop::option::of(arb_host())).prop_map(
            |(user, claimant, dead)| Msg::CcsQuery {
                user,
                claimant,
                dead
            }
        ),
        (any::<u32>(), arb_host(), any::<u64>()).prop_map(|(user, ccs, epoch)| Msg::CcsInfo {
            user,
            ccs,
            epoch
        }),
        (
            any::<u32>(),
            arb_host(),
            prop::collection::vec(any::<u32>(), 0..4),
            any::<u64>()
        )
            .prop_map(|(user, host, live, boot)| Msg::ForestPull {
                user,
                host,
                live,
                boot
            }),
        (
            any::<u32>(),
            arb_host(),
            prop::collection::vec((any::<u32>(), arb_gpid()), 0..4)
        )
            .prop_map(|(user, host, edges)| Msg::ForestInfo { user, host, edges }),
    ]
}

/// A message to send while others are held: mostly any message, and now
/// and then an aggregate whose blob is large enough to need any spare
/// class, or to pass them all.
fn arb_sent_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_msg(),
        arb_msg(),
        (arb_stamp(), 0usize..40_000, any::<u8>()).prop_map(|(stamp, len, fill)| {
            Msg::BcastAgg {
                stamp,
                parts: vec![fill; len].into(),
                missing: Vec::new(),
            }
        }),
    ]
}

/// What a frame held while others are sent must still read: its bytes
/// when it was encoded, or the window of them a slice cut.
struct Held {
    frame: bytes::Bytes,
    want: Vec<u8>,
}

/// The tags a generator's values lead with, over enough draws that a
/// uniform choice among a couple of dozen variants misses none.
fn tags_drawn<T: Wire>(strategy: impl Strategy<Value = T>) -> BTreeSet<u8> {
    let mut rng = TestRng::from_seed(1986);
    (0..2_000)
        .map(|_| strategy.generate(&mut rng).to_bytes()[0])
        .collect()
}

/// Every tag in the wire table is drawn by the generators the properties
/// above use, and no other: a variant added to the table is fuzzed the
/// day it is added, or this test names its type.
#[test]
fn the_generators_draw_every_tag_in_the_table() {
    let table = |tags: &[u8]| tags.iter().copied().collect::<BTreeSet<u8>>();
    assert_eq!(tags_drawn(arb_msg()), table(Msg::TAGS), "Msg");
    assert_eq!(tags_drawn(arb_op()), table(Op::TAGS), "Op");
    let replies = prop_oneof![arb_reply(), arb_rare_reply()];
    assert_eq!(tags_drawn(replies), table(Reply::TAGS), "Reply");
    assert_eq!(
        tags_drawn(arb_action()),
        table(ControlAction::TAGS),
        "ControlAction"
    );
    assert_eq!(tags_drawn(arb_err_code()), table(ErrCode::TAGS), "ErrCode");
    assert_eq!(
        tags_drawn(arb_trigger_action()),
        table(TriggerAction::TAGS),
        "TriggerAction"
    );
    assert_eq!(
        tags_drawn(arb_state()),
        table(WireProcState::TAGS),
        "WireProcState"
    );
}

proptest! {
    #[test]
    fn msg_roundtrips(msg in arb_msg()) {
        let bytes = msg.to_bytes();
        let back = Msg::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn op_roundtrips(op in arb_op()) {
        prop_assert_eq!(Op::from_bytes(&op.to_bytes()).expect("decodes"), op);
    }

    #[test]
    fn reply_roundtrips(reply in arb_reply()) {
        prop_assert_eq!(Reply::from_bytes(&reply.to_bytes()).expect("decodes"), reply);
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Msg::from_bytes(&data);
        let _ = Op::from_bytes(&data);
        let _ = Reply::from_bytes(&data);
    }

    #[test]
    fn wire_len_matches_encoding(msg in arb_msg()) {
        prop_assert_eq!(msg.wire_len(), msg.to_bytes().len());
    }

    /// A length-prefixed batch roundtrips, and the lazy frame iterator
    /// walks exactly the same messages without decoding them eagerly.
    #[test]
    fn batch_roundtrips_and_frames_agree(msgs in prop::collection::vec(arb_msg(), 0..8)) {
        let wire = encode_batch(&msgs);
        prop_assert_eq!(decode_batch::<Msg>(&wire).expect("batch decodes"), msgs.clone());
        let mut walked = Vec::new();
        for frame in frames(&wire).expect("frame header") {
            walked.push(Msg::from_bytes(frame.expect("frame bounds")).expect("frame decodes"));
        }
        prop_assert_eq!(walked, msgs);
    }

    /// The batch decoder and frame iterator reject arbitrary bytes
    /// without panicking, including truncations of valid batches.
    #[test]
    fn batch_decoder_never_panics_on_garbage(
        data in prop::collection::vec(any::<u8>(), 0..512),
        msgs in prop::collection::vec(arb_msg(), 0..4),
        cut in any::<u16>(),
    ) {
        let _ = decode_batch::<Msg>(&data);
        if let Ok(iter) = frames(&data) {
            for frame in iter {
                let _ = frame;
            }
        }
        // Truncated valid batches must error, never panic or hang.
        let wire = encode_batch(&msgs);
        if !wire.is_empty() {
            let cut = usize::from(cut) % wire.len();
            let _ = decode_batch::<Msg>(&wire[..cut]);
        }
    }

    /// A sent frame's buffer comes back to be reused only when nothing
    /// reads it any more: random interleavings of encoding, cloning,
    /// slicing and dropping messages give the bytes of a fresh encode,
    /// and every frame and slice still held reads as it did at the end.
    #[test]
    fn spares_never_alias_held_frames(
        steps in prop::collection::vec(
            (0u8..4, arb_sent_msg(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..40,
        )
    ) {
        let mut held: Vec<Held> = Vec::new();
        for (step, msg, pick, from, to) in steps {
            let i = pick % held.len().max(1);
            match step {
                0 => {
                    let mut fresh = Enc::new();
                    msg.encode(&mut fresh);
                    let want = fresh.as_slice().to_vec();
                    drop(fresh);
                    let frame = msg.to_bytes();
                    prop_assert_eq!(&frame[..], &want[..]);
                    held.push(Held { frame, want });
                }
                1 if !held.is_empty() => {
                    let (frame, want) = (held[i].frame.clone(), held[i].want.clone());
                    held.push(Held { frame, want });
                }
                2 if !held.is_empty() => {
                    let len = held[i].want.len();
                    let (a, b) = (from % (len + 1), to % (len + 1));
                    let (a, b) = (a.min(b), a.max(b));
                    let frame = held[i].frame.slice(a..b);
                    let want = held[i].want[a..b].to_vec();
                    held.push(Held { frame, want });
                }
                _ if !held.is_empty() => {
                    held.swap_remove(i);
                }
                _ => {}
            }
        }
        for h in &held {
            prop_assert_eq!(&h.frame[..], &h.want[..]);
        }
    }

    /// A request written from borrowed fields is the bytes of the
    /// `Msg::Req` of the same fields, and the request that reads back
    /// from them writes them again.
    #[test]
    fn a_borrowed_request_encodes_as_its_msg(msg in arb_req()) {
        let Msg::Req { id, user, dest, op, route, hops_left, deadline_us, attempt, boot } = &msg else {
            unreachable!("arb_req draws requests")
        };
        let borrowed = ReqRef {
            id: *id,
            user: *user,
            dest,
            op,
            route,
            hops_left: *hops_left,
            deadline_us: *deadline_us,
            attempt: *attempt,
            boot: *boot,
        };
        let wire = msg.to_bytes();
        prop_assert_eq!(&borrowed.to_bytes(), &wire);
        let mut into = Enc::new();
        borrowed.encode(&mut into);
        prop_assert_eq!(into.as_slice(), &wire[..]);
        let Ok(Inbound::Req(read)) = Inbound::decode(&wire) else {
            panic!("a request reads as one");
        };
        prop_assert_eq!(read.dest.as_str(), dest.as_str());
        prop_assert_eq!(read.as_ref().to_bytes(), wire);
    }

    /// The pooled steady-state encoder emits byte-identical output to a
    /// fresh single-use buffer, even when reused back to back.
    #[test]
    fn pooled_encoder_matches_fresh(msgs in prop::collection::vec(arb_msg(), 1..6)) {
        for msg in &msgs {
            let mut fresh = Enc::new();
            msg.encode(&mut fresh);
            let mut pooled = Enc::pooled();
            msg.encode(&mut pooled);
            prop_assert_eq!(pooled.into_bytes(), fresh.into_bytes());
        }
    }

    /// Borrowed string decoding (`str_ref`) sees exactly the bytes the
    /// owned path does, from the same cursor positions.
    #[test]
    fn borrowed_str_decode_matches_owned(strings in prop::collection::vec("[ -~]{0,40}", 0..8)) {
        let mut enc = Enc::new();
        for s in &strings {
            enc.str(s);
        }
        let wire = enc.into_bytes();

        let mut owned = Dec::new(&wire);
        let mut borrowed = Dec::new(&wire);
        for s in &strings {
            prop_assert_eq!(&owned.str().expect("owned decodes"), s);
            prop_assert_eq!(borrowed.str_ref().expect("borrowed decodes"), s.as_str());
        }
        owned.finish().expect("owned consumed all");
        borrowed.finish().expect("borrowed consumed all");
    }

    #[test]
    fn stamp_signatures_bind_origin(origin in arb_name(), seq in any::<u64>(), at in any::<u64>(), secret in any::<u64>(), other in arb_name()) {
        let stamp = Stamp::signed(origin.clone(), seq, at, secret);
        prop_assert!(stamp.verify(secret));
        if other != origin {
            let mut forged = stamp.clone();
            forged.origin = other.into();
            prop_assert!(!forged.verify(secret));
        }
    }

    /// A [`Name`] is its string: equal, ordered, hashed, printed and
    /// encoded as the `String` holding the same text, inline or shared.
    #[test]
    fn name_agrees_with_string(a in arb_text(), b in arb_text()) {
        let (na, nb) = (Name::from(a.as_str()), Name::from(b.clone()));
        prop_assert_eq!(na.as_str(), a.as_str());
        prop_assert_eq!(na.len(), a.len());
        prop_assert_eq!(na == nb, a == b);
        prop_assert_eq!(&na, &a);
        prop_assert_eq!(na, a.as_str());
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        prop_assert_eq!(std_hash(&na), std_hash(&a));
        let mut map = HashMap::new();
        map.insert(na.clone(), "a");
        map.insert(nb.clone(), "b");
        prop_assert_eq!(map.get(a.as_str()), Some(if a == b { &"b" } else { &"a" }));
        prop_assert_eq!(map.get(b.as_str()), Some(&"b"));
        prop_assert_eq!(format!("{na}"), a.clone());
        prop_assert_eq!(format!("{na:>30}|{na:?}"), format!("{a:>30}|{a:?}"));
        let mut enc = Enc::new();
        enc.str(&a);
        prop_assert_eq!(na.to_bytes(), enc.into_bytes());
        prop_assert_eq!(Name::from_bytes(&na.to_bytes()).expect("decodes"), na);
    }

    /// A gpid, record, route and stamp encode exactly as when their names
    /// were `String`s, and decode back to themselves.
    #[test]
    fn named_types_encode_as_their_string_forms(
        host in arb_text(),
        command in arb_text(),
        hops in prop::collection::vec(arb_text(), 0..5),
        pid in any::<u32>(),
        parent in prop::option::of((arb_text(), any::<u32>())),
        state in arb_state(),
        seq in any::<u64>(),
    ) {
        let gpid = Gpid::new(host.as_str(), pid);
        let mut want = Enc::new();
        want.str(&host);
        want.u32(pid);
        prop_assert_eq!(gpid.to_bytes(), want.into_bytes());
        prop_assert_eq!(Gpid::from_bytes(&gpid.to_bytes()).expect("gpid"), gpid.clone());

        let record = ProcRecord {
            gpid,
            ppid: pid ^ 1,
            logical_parent: parent.as_ref().map(|(h, p)| Gpid::new(h, *p)),
            command: command.as_str().into(),
            state,
            started_us: seq,
            cpu_us: seq / 3,
            adopted: pid.is_multiple_of(2),
        };
        let mut want = Enc::new();
        want.str(&host);
        want.u32(pid);
        want.u32(pid ^ 1);
        want.opt(&parent, |e, (h, p)| {
            e.str(h);
            e.u32(*p);
        });
        want.str(&command);
        state.encode(&mut want);
        want.u64(seq);
        want.u64(seq / 3);
        want.bool(pid.is_multiple_of(2));
        prop_assert_eq!(record.to_bytes(), want.into_bytes());
        prop_assert_eq!(ProcRecord::from_bytes(&record.to_bytes()).expect("record"), record);

        let route: Route = hops.iter().map(Name::from).collect();
        let mut want = Enc::new();
        want.seq(&hops, |e, h| e.str(h));
        prop_assert_eq!(route.to_bytes(), want.into_bytes());
        prop_assert_eq!(route.wire_len(), route.to_bytes().len());
        prop_assert_eq!(Route::from_bytes(&route.to_bytes()).expect("route"), route);

        let stamp = Stamp::signed(host.as_str(), seq, seq / 7, 0x1986);
        let mut want = Enc::new();
        want.str(&host);
        want.u64(seq);
        want.u64(seq / 7);
        want.u64(stamp.sig);
        prop_assert_eq!(stamp.to_bytes(), want.into_bytes());
        prop_assert_eq!(stamp.wire_len(), stamp.to_bytes().len());
        let back = Stamp::from_bytes(&stamp.to_bytes()).expect("stamp");
        prop_assert!(back.verify(0x1986));
        prop_assert_eq!(back, stamp);
    }

    /// A route held inline or spilled is the host list it was built
    /// from: its encoding, its length, its queries, its equality and
    /// hash, and what a `push` does, whichever side of
    /// [`INLINE_ROUTE_HOSTS`] it starts and ends on.
    #[test]
    fn route_agrees_with_a_host_list(hosts in arb_route_hosts(), next in arb_route_hosts()) {
        let route: Route = hosts.iter().cloned().collect();
        prop_assert_eq!(route.hosts(), &hosts[..]);
        let mut want = Enc::new();
        want.seq(&hosts, |e, h| e.str(h));
        let bytes = route.to_bytes();
        prop_assert_eq!(&bytes, &want.into_bytes());
        prop_assert_eq!(route.wire_len(), bytes.len());
        let back = Route::from_bytes(&bytes).expect("route");
        prop_assert_eq!(back.hosts(), &hosts[..]);
        prop_assert_eq!(std_hash(&back), std_hash(&route));
        prop_assert_eq!(&back, &route);
        prop_assert_eq!(format!("{back:?}"), format!("Route({hosts:?})"));

        prop_assert_eq!(route.hops(), hosts.len().saturating_sub(1));
        prop_assert_eq!(route.origin(), hosts.first().map(Name::as_str));
        prop_assert_eq!(route.last(), hosts.last().map(Name::as_str));
        for probe in ["a", "b", "relay", "a-host-name-past-the-inline-cap", "elsewhere"] {
            prop_assert_eq!(route.contains(probe), hosts.iter().any(|h| h == probe));
        }

        // Pushing skips a host that is already last, and nothing else.
        let (mut pushed, mut model) = (route.clone(), hosts.clone());
        for host in next.iter().take(2 * INLINE_ROUTE_HOSTS) {
            pushed.push(host);
            if model.last() != Some(host) {
                model.push(host.clone());
            }
            prop_assert_eq!(pushed.hosts(), &model[..]);
        }
        prop_assert_eq!(pushed.wire_len(), pushed.to_bytes().len());
        if model.len() <= MAX_ROUTE_HOSTS {
            prop_assert_eq!(Route::from_bytes(&pushed.to_bytes()).expect("pushed"), pushed);
        }

        // One host past the most a route may name is refused.
        let mut past = route;
        let filler = ["x", "y"];
        let mut i = 0;
        while past.hosts().len() <= MAX_ROUTE_HOSTS {
            past.push(filler[i % 2]);
            i += 1;
        }
        prop_assert_eq!(
            Route::from_bytes(&past.to_bytes()),
            Err(CodecError::TooLong { what: "Route", len: MAX_ROUTE_HOSTS + 1 })
        );
    }

    /// `missing` lists are canonical on the wire: whatever order and
    /// duplication the producer assembled, decoding yields the sorted,
    /// deduplicated list — and re-encoding the decoded value is a fixed
    /// point (byte-identical), so aggregates are reproducible run-to-run.
    #[test]
    fn missing_lists_canonicalize_at_encode(
        stamp in arb_stamp(),
        missing in prop::collection::vec(arb_host(), 0..8),
    ) {
        let mut expect = missing.clone();
        expect.sort_unstable();
        expect.dedup();

        let agg = Msg::BcastAgg { stamp, parts: bytes::Bytes::new(), missing: missing.clone() };
        let wire = agg.to_bytes();
        let Msg::BcastAgg { missing: decoded, .. } = Msg::from_bytes(&wire).expect("decodes") else {
            panic!("wrong variant");
        };
        prop_assert_eq!(&decoded, &expect);
        let reencoded = Msg::from_bytes(&wire).expect("decodes").to_bytes();
        prop_assert_eq!(reencoded, wire);

        let partial = Reply::Partial { missing, inner: Box::new(Reply::Pong) };
        let wire = partial.to_bytes();
        let Reply::Partial { missing: decoded, .. } = Reply::from_bytes(&wire).expect("decodes") else {
            panic!("wrong variant");
        };
        prop_assert_eq!(&decoded, &expect);
        let reencoded = Reply::from_bytes(&wire).expect("decodes").to_bytes();
        prop_assert_eq!(reencoded, wire);
    }

    /// Whatever an LPM splices out of a reply's bytes — the `Resp` to a
    /// sibling or a tool, a `BcastPart` frame in an aggregate, the
    /// `Partial` wrapper — is byte-identical to encoding
    /// the `Msg` / `BcastPart` / `Reply` value it stands for.
    #[test]
    fn spliced_frames_match_encoded_values(
        reply in arb_reply(),
        id in any::<u64>(),
        host in arb_host(),
        route in arb_route(),
        missing in prop::collection::vec(arb_host(), 0..5),
    ) {
        let wire = WireReply::from(&reply);
        prop_assert_eq!(wire.as_bytes(), &reply.to_bytes()[..]);
        prop_assert_eq!(wire.decode().expect("decodes"), reply.clone());

        let resp = Msg::Resp { id, reply: reply.clone(), route: route.clone() };
        prop_assert_eq!(wire.resp(id, &route), resp.to_bytes());

        let mut spliced = Enc::new();
        wire.push_part(&mut spliced, &host, &route);
        let mut encoded = Enc::new();
        encoded.frame_with(|enc| BcastPart { host, reply: reply.clone(), route }.encode(enc));
        prop_assert_eq!(spliced.into_bytes(), encoded.into_bytes());

        let set: BTreeSet<Name> = missing.iter().cloned().collect();
        let partial = Reply::Partial { missing, inner: Box::new(reply) };
        let wrapped = wire.partial(&set);
        prop_assert_eq!(wrapped.as_bytes(), &partial.to_bytes()[..]);
    }

    /// A tool's or a sibling's message read with its reply left on the
    /// wire and a request's destination as a `Name` is the message
    /// `Msg::from_bytes` reads: same fields, the reply the very bytes that
    /// were sent, and the same verdict on truncations, on a changed byte
    /// and on arbitrary bytes.
    #[test]
    fn inbound_agrees_with_msg_decode(
        msg in arb_msg(),
        cut in any::<u16>(),
        edit in (any::<u16>(), any::<u8>()),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let wire = msg.to_bytes();
        let expect = match msg.clone() {
            Msg::Req { id, user, dest, op, route, hops_left, deadline_us, attempt, boot } => {
                let dest = Name::from(dest);
                Inbound::Req(WireReq { id, user, dest, op, route, hops_left, deadline_us, attempt, boot })
            }
            Msg::Resp { id, reply, route } => {
                Inbound::Resp { id, reply: WireReply::from(&reply), route }
            }
            Msg::BcastAgg { stamp, parts, missing } => Inbound::BcastAgg { stamp, parts, missing },
            other => Inbound::Other(other),
        };
        let inbound = Inbound::decode(&wire).expect("decodes");
        prop_assert_eq!(inbound.kind(), msg.kind());
        prop_assert_eq!(inbound, expect);

        let cut = wire.slice(..usize::from(cut) % wire.len());
        prop_assert_eq!(Inbound::decode(&cut).is_ok(), Msg::from_bytes(&cut).is_ok());
        // Every cut of a short message, to its last byte, is refused by
        // both.
        if wire.len() <= 512 {
            for n in 0..wire.len() {
                let short = wire.slice(..n);
                prop_assert!(Inbound::decode(&short).is_err(), "a cut to {} bytes", n);
                prop_assert!(Msg::from_bytes(&short).is_err());
            }
        }
        // One byte of the message changed: both accept it or both refuse.
        let mut edited = wire.to_vec();
        let at = usize::from(edit.0) % edited.len();
        edited[at] = edit.1;
        let edited = bytes::Bytes::from(edited);
        prop_assert_eq!(Inbound::decode(&edited).is_ok(), Msg::from_bytes(&edited).is_ok());
        // Steer some garbage at the request tag, the two reply-carrying
        // tags, and the retired third (9), which both sides refuse.
        for tag in [None, Some(6u8), Some(7), Some(9), Some(16)] {
            let mut data = garbage.clone();
            if let (Some(tag), Some(first)) = (tag, data.first_mut()) {
                *first = tag;
            }
            let data = bytes::Bytes::from(data);
            prop_assert_eq!(Inbound::decode(&data).is_ok(), Msg::from_bytes(&data).is_ok());
            prop_assert!(data.first() != Some(&9) || Msg::from_bytes(&data).is_err());
        }
    }

    /// The borrowed record walks and the owned decodes agree on
    /// arbitrary bytes, for a snapshot record and for a history record:
    /// both refuse, or both accept the same fields over the same span —
    /// and that span re-decodes to the same record.
    #[test]
    fn borrowed_record_scan_agrees_with_decode(
        record in arb_proc_record(),
        event in arb_history_record(),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        cut in any::<u16>(),
        garbage in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // A valid record, damaged a little, cut somewhere — and plain noise.
        let mut damaged = record.to_bytes().to_vec();
        for (at, byte) in flips {
            let at = usize::from(at) % damaged.len();
            damaged[at] = byte;
        }
        damaged.truncate(1 + usize::from(cut) % (damaged.len() + 8));
        for data in [record.to_bytes().to_vec(), damaged, garbage.clone()] {
            let mut owned = Dec::new(&data);
            let mut borrowed = Dec::new(&data);
            match (ProcRecord::decode(&mut owned), ProcRecordRef::decode(&mut borrowed)) {
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (Ok(rec), Ok(view)) => {
                    prop_assert_eq!(view, rec.view());
                    prop_assert_eq!(view.to_record(), rec.clone());
                    prop_assert_eq!(borrowed.pos(), owned.pos());
                    let span = &data[..borrowed.pos()];
                    prop_assert_eq!(ProcRecord::from_bytes(span).expect("span decodes"), rec);
                }
                (owned, borrowed) => {
                    prop_assert!(false, "owned {owned:?} but borrowed {borrowed:?}");
                }
            }
        }
        let mut damaged = event.to_bytes().to_vec();
        let at = usize::from(cut) % damaged.len();
        damaged[at] ^= 0x80;
        damaged.truncate(at + usize::from(cut) % 8);
        for data in [event.to_bytes().to_vec(), damaged, garbage] {
            let mut owned = Dec::new(&data);
            let mut borrowed = Dec::new(&data);
            match (HistoryRecord::decode(&mut owned), HistoryRecordRef::decode(&mut borrowed)) {
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (Ok(rec), Ok(view)) => {
                    prop_assert_eq!(view.to_record(), rec.clone());
                    prop_assert_eq!(borrowed.pos(), owned.pos());
                    let span = &data[..borrowed.pos()];
                    prop_assert_eq!(HistoryRecord::from_bytes(span).expect("span decodes"), rec);
                }
                (owned, borrowed) => {
                    prop_assert!(false, "owned {owned:?} but borrowed {borrowed:?}");
                }
            }
        }
    }

    /// `ReplyRef::read`, the one borrowed reader of a reply, and
    /// `Reply::decode`, the tool's, agree on every kind of reply, intact,
    /// damaged, cut short or followed by more bytes, and on noise: both
    /// refuse with the same error, or both accept and stop at the same
    /// offset, the borrowed reading naming what the decode built. A
    /// snapshot's run is the one its decoded records give, and there is
    /// one exactly when their `(host, pid)` keys strictly ascend.
    #[test]
    fn reply_read_agrees_with_decode(
        reply in prop_oneof![arb_reply(), arb_slice(), arb_rare_reply()],
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 0..3),
        cut in any::<u16>(),
        tail in prop::collection::vec(any::<u8>(), 0..4),
        garbage in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let good = reply.to_bytes().to_vec();
        let mut damaged = good.clone();
        for (at, byte) in flips {
            let at = usize::from(at) % damaged.len();
            damaged[at] = byte;
        }
        let cut_short = good[..usize::from(cut) % good.len()].to_vec();
        let mut followed = good.clone();
        followed.extend(tail);
        for data in [good, damaged, cut_short, followed, garbage] {
            let mut owned = Dec::new(&data);
            let mut borrowed = Dec::new(&data);
            match (Reply::decode(&mut owned), ReplyRef::read(&mut borrowed)) {
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (Ok(decoded), Ok(view)) => {
                    prop_assert_eq!(borrowed.pos(), owned.pos());
                    read_as_decoded(view, &data[..borrowed.pos()], &decoded);
                }
                (owned, borrowed) => {
                    prop_assert!(false, "decode {owned:?} but read {borrowed:?}");
                }
            }
        }
    }

    /// Splitting an aggregate and merging the parts as bytes gives the
    /// bytes of decoding every part, combining the records and encoding
    /// the result — for empty parts, duplicate keys in different parts,
    /// hosts that are prefixes of one another, and parts of the wrong
    /// kind alike.
    #[test]
    fn merged_bytes_match_the_record_level_combine(
        answers in prop::collection::vec((arb_host(), arb_bcast_answer(), arb_route()), 0..7),
        local in arb_bcast_answer(),
        op in prop_oneof![
            Just(Op::Snapshot),
            Just(Op::Rusage { pid: None }),
            Just(Op::History { since_us: 0, max: 100 }),
            Just(Op::Ping),
        ],
    ) {
        let parts: Vec<BcastPart> = answers
            .into_iter()
            .map(|(host, reply, route)| BcastPart { host, reply, route })
            .collect();
        let batch = encode_batch(&parts);
        let mut split = Vec::new();
        WirePart::split(&batch, &mut split).expect("a valid batch splits");
        prop_assert_eq!(split.len(), parts.len());
        for (wire, part) in split.iter().zip(&parts) {
            prop_assert_eq!(wire.reply.as_bytes(), &part.reply.to_bytes()[..]);
            prop_assert_eq!(&wire.route, &part.route);
        }

        // The originator's own slice comes first, then the parts.
        let mut wires = vec![(WireReply::from(&local), None)];
        wires.extend(split.into_iter().map(|p| (p.reply, None)));
        let mut replies = vec![local];
        replies.extend(parts.into_iter().map(|p| p.reply));
        let merged = WireReply::merge(&op, &wires).expect("valid parts merge");
        prop_assert_eq!(merged.as_bytes(), &combine(&op, replies).to_bytes()[..]);
    }

    /// `WirePart::split` accepts exactly the batches
    /// `decode_batch::<BcastPart>` accepts, damaged or not, into a vector
    /// that held another batch's parts: what it held is gone either way,
    /// and a refused batch leaves no part.
    #[test]
    fn split_agrees_with_batch_decode(
        answers in prop::collection::vec((arb_host(), arb_bcast_answer(), arb_route()), 0..4),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 0..3),
        cut in any::<u16>(),
    ) {
        let parts: Vec<BcastPart> = answers
            .into_iter()
            .map(|(host, reply, route)| BcastPart { host, reply, route })
            .collect();
        let mut data = encode_batch(&parts).to_vec();
        for (at, byte) in flips {
            let at = usize::from(at) % data.len();
            data[at] = byte;
        }
        data.truncate(usize::from(cut) % (data.len() + 64));
        let data = bytes::Bytes::from(data);
        let mut split = Vec::new();
        WirePart::split(&encode_batch(&parts), &mut split).expect("a valid batch splits");
        match (decode_batch::<BcastPart>(&data), WirePart::split(&data, &mut split)) {
            (Ok(owned), Ok(())) => {
                prop_assert_eq!(owned.len(), split.len());
                for (part, wire) in owned.iter().zip(&split) {
                    prop_assert_eq!(wire.reply.decode().expect("checked"), part.reply.clone());
                    prop_assert_eq!(&wire.route, &part.route);
                }
            }
            (Err(_), Err(_)) => prop_assert!(split.is_empty(), "parts kept: {split:?}"),
            (owned, got) => prop_assert!(false, "decode {owned:?} but split {got:?}"),
        }
    }

    /// The merge, whether it splices runs or falls back to the walk, is
    /// byte for byte the walk-and-sort reference — over parts that came
    /// split (runs recorded), as the local slice (walked once) or encoded
    /// (no run); snapshots whose keys ascend or not, tie, overlap or stay
    /// apart across parts; empty, inline-sized and other-kind parts; and,
    /// now and then, totals either side of `MAX_REPLY_RECORDS`. A recorded
    /// run is the one the bytes give, and there is one exactly when the
    /// keys strictly ascend.
    #[test]
    fn merge_matches_the_walk_and_sort_reference(
        answers in prop::collection::vec(
            (
                arb_name(),
                prop_oneof![arb_slice(), arb_slice(), arb_bcast_answer(), Just(Reply::Ok)],
                arb_admitted(),
            ),
            0..7,
        ),
        bulk in (0u8..8, 0usize..3, arb_admitted(), arb_admitted()),
        bulk_at in any::<bool>(),
        op in prop_oneof![
            Just(Op::Snapshot),
            Just(Op::Snapshot),
            Just(Op::Rusage { pid: None }),
            Just(Op::History { since_us: 0, max: 100 }),
            Just(Op::Ping),
        ],
    ) {
        // The parts that came split arrived together, in one aggregate.
        let route = Route::from_origin("o");
        let mut batch = Enc::new();
        let arrived = answers.iter().filter(|a| a.2 == Admitted::Split).count();
        batch.u32(arrived as u32);
        for (host, reply, _) in answers.iter().filter(|a| a.2 == Admitted::Split) {
            WireReply::from(reply).push_part(&mut batch, host, &route);
        }
        let mut split = Vec::new();
        WirePart::split(&batch.into_bytes(), &mut split).expect("a valid batch splits");
        let mut split = split.into_iter();
        let mut parts = Vec::new();
        for (host, reply, admitted) in &answers {
            let part = match admitted {
                Admitted::Split => {
                    let part = split.next().expect("one part per frame");
                    prop_assert_eq!(&part.host, &host.as_bytes());
                    (part.reply, part.run)
                }
                Admitted::Local => {
                    let wire = WireReply::from(reply);
                    let run = wire.read().ok().and_then(ReplyRef::run);
                    (wire, run)
                }
                Admitted::Encoded => (WireReply::from(reply), None),
            };
            if *admitted != Admitted::Encoded {
                // Read in its frame or on its own, a reply gives one run.
                prop_assert_eq!(part.1, part.0.read().ok().and_then(ReplyRef::run));
                prop_assert_eq!(part.1.is_some(), ascends(reply));
            }
            parts.push(part);
        }
        // One case in eight adds two slices of 32 767 and 32 767 +
        // {0, 1, 2} records: the total lands either side of the limit.
        if let (0, extra, first, second) = bulk {
            let half = MAX_REPLY_RECORDS / 2;
            let big = [bulk_slice("zy", half, first), bulk_slice("zz", half + extra, second)];
            let at = if bulk_at { 0 } else { parts.len() };
            parts.splice(at..at, big);
        }

        let wires: Vec<WireReply> = parts.iter().map(|p| p.0.clone()).collect();
        let expect = reference_merge(&op, &wires);
        let merged = WireReply::merge(&op, &parts).expect("valid parts merge");
        prop_assert_eq!(merged.as_bytes(), &expect[..]);
        // The same parts without their runs take the walk.
        let runless: Vec<_> = wires.into_iter().map(|wire| (wire, None)).collect();
        let walked = WireReply::merge(&op, &runless).expect("valid parts merge");
        prop_assert_eq!(walked.as_bytes(), &expect[..]);
    }

    /// A relay's aggregate, written in the buffer it gathers into — its
    /// own part and child batches spliced in any order, real frames or
    /// noise — is the encoded `Msg::BcastAgg` of the batch it gathered,
    /// for any stamp, missing set and starting room; with nothing gathered
    /// (every child lost, no local slice) it is the message with an empty
    /// batch.
    /// The writer's batch — what a `noagg` relay re-frames — is that
    /// batch at every step.
    #[test]
    fn relay_aggregate_is_the_encoded_msg(
        stamp in arb_stamp(),
        pieces in prop::collection::vec(
            prop_oneof![
                (arb_host(), arb_bcast_answer(), arb_route()).prop_map(Ok),
                prop_oneof![
                    prop::collection::vec((arb_host(), arb_bcast_answer(), arb_route()), 0..4)
                        .prop_map(|answers| {
                            let parts: Vec<BcastPart> = answers
                                .into_iter()
                                .map(|(host, reply, route)| BcastPart { host, reply, route })
                                .collect();
                            (parts.len() as u32, encode_batch(&parts)[4..].to_vec())
                        }),
                    (0u32..1 << 20, prop::collection::vec(any::<u8>(), 0..64)),
                ]
                .prop_map(Err),
            ],
            0..5,
        ),
        missing in prop::collection::vec(arb_host(), 0..6),
        capacity in 0usize..512,
    ) {
        let mut agg = RelayAgg::new(&stamp, capacity);
        let (mut count, mut gathered) = (0u32, Vec::new());
        for piece in pieces {
            match piece {
                Ok((host, reply, route)) => {
                    let reply = WireReply::from(&reply);
                    agg.push_part(&reply, &host, &route);
                    let mut one = Enc::new();
                    reply.push_part(&mut one, &host, &route);
                    gathered.extend_from_slice(one.as_slice());
                    count = count.wrapping_add(1);
                }
                Err((n, frames)) => {
                    agg.splice(n, &frames);
                    gathered.extend_from_slice(&frames);
                    count = count.wrapping_add(n);
                }
            }
            prop_assert_eq!(&agg.batch()[..4], &count.to_be_bytes()[..]);
            prop_assert_eq!(&agg.batch()[4..], &gathered[..]);
        }
        let mut batch = count.to_be_bytes().to_vec();
        batch.extend_from_slice(&gathered);
        let set: BTreeSet<Name> = missing.iter().cloned().collect();
        let missing = set.iter().cloned().collect();
        let msg = Msg::BcastAgg { stamp: stamp.clone(), parts: batch.into(), missing };
        prop_assert_eq!(agg.finish(&set), msg.to_bytes());
    }

    /// A batch of kernel messages walks back, borrowed and then owned, to
    /// the messages encoded — the same values the owned batch decode and
    /// `for_each_kernel_msg` give. Each message's owned, queued (`Name`)
    /// and borrowed (`&str`) forms encode to the same bytes and name the
    /// same kind, pid and modelled size, and `map` takes the borrowed
    /// form to the owned one and back.
    #[test]
    fn kernel_batches_walk_back_to_their_messages(
        msgs in prop::collection::vec(arb_kernel_msg(), 0..12),
    ) {
        let wire = encode_batch(&msgs);
        prop_assert_eq!(&walk_checked(&wire)?, &msgs);
        prop_assert_eq!(&decode_batch::<KernelMsg>(&wire).expect("batch decodes"), &msgs);
        let mut owned = Vec::new();
        for_each_kernel_msg(&wire, |msg| owned.push(msg));
        prop_assert_eq!(&owned, &msgs);
        for msg in &msgs {
            let (queued, view) = (msg.map(|text| Name::new(text)), msg.map(String::as_str));
            let bytes = msg.to_bytes().to_vec();
            prop_assert_eq!(&kernel_msg_bytes(msg), &bytes);
            prop_assert_eq!(&kernel_msg_bytes(&queued), &bytes);
            prop_assert_eq!(&kernel_msg_bytes(&view), &bytes);
            let (kind, pid, size) = (msg.event.kind(), msg.event.pid(), msg.event.wire_size());
            prop_assert_eq!((view.event.kind(), view.event.pid(), view.event.wire_size()), (kind, pid, size));
            prop_assert_eq!((queued.event.kind(), queued.event.pid(), queued.event.wire_size()), (kind, pid, size));
            let owned = view.map(|text| text.to_string());
            prop_assert_eq!(&owned, msg);
            prop_assert_eq!(owned.map(String::as_str), view);
        }
    }

    /// A tracer's queue, drawn over every kernel event with exec commands
    /// on both sides of `Name::INLINE_CAP`, encodes to the bytes its
    /// messages' owned form does; each event is reported queued with its
    /// owned form's kind and modelled size.
    #[test]
    fn a_kernel_queue_encodes_as_its_owned_messages(
        msgs in prop::collection::vec(arb_kernel_msg(), 1..12),
    ) {
        let mut k = Kernel::new(SimTime::ZERO);
        let (user, mut fx) = (Uid(100), Effects::new());
        let lpm = k.spawn(Pid::INIT, user, "lpm", false, SimTime::ZERO, &mut fx);
        let job = k.spawn(Pid::INIT, user, "job", false, SimTime::ZERO, &mut fx);
        k.adopt(job, lpm, user, TraceFlags::ALL).expect("same user");
        let msgs: Vec<KernelMsg> = msgs
            .into_iter()
            .map(|m| KernelMsg { event: about(job, m.event), ..m })
            .collect();
        let owned: Vec<_> = msgs.iter().map(|m| (m.event.kind(), m.event.wire_size())).collect();
        prop_assert_eq!(queue(&mut k, &msgs), owned);
        let batch = k.drain_batch(lpm, encode_kernel_batch);
        prop_assert_eq!(batch, Some(encode_batch(&msgs)));
    }

    /// Arbitrary bytes, and valid batches cut short or with a byte
    /// changed, never panic the walk; whatever it yields is a message
    /// that re-encodes to itself. A cut batch yields a prefix of the
    /// messages it held.
    #[test]
    fn kernel_batch_walk_survives_garbage(
        data in prop::collection::vec(any::<u8>(), 0..512),
        msgs in prop::collection::vec(arb_kernel_msg(), 1..6),
        cut in any::<u16>(),
        flip in (any::<u16>(), 1u8..=255),
    ) {
        walk_checked(&data)?;
        let wire = encode_batch(&msgs).to_vec();
        let cut = usize::from(cut) % wire.len();
        let prefix = walk_checked(&wire[..cut])?;
        prop_assert!(msgs.starts_with(&prefix), "{prefix:?} is not a prefix");
        let mut mutated = wire.clone();
        let at = usize::from(flip.0) % mutated.len();
        mutated[at] ^= flip.1;
        walk_checked(&mutated)?;
    }
}
