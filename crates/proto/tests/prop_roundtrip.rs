//! Property tests: every generated protocol value survives an
//! encode→decode roundtrip, the decoder never panics on arbitrary
//! bytes, and everything an LPM splices out of a reply's bytes
//! ([`WireReply`]) is what encoding the corresponding value gives.

use std::collections::BTreeSet;

use proptest::prelude::*;

use ppm_proto::codec::{decode_batch, encode_batch, frames, CodecError, Dec, Enc, Wire};
use ppm_proto::msg::{
    BcastPart, ControlAction, ErrCode, Inbound, Msg, Op, Reply, SnapshotRun, WirePart, WireReply,
    MAX_REPLY_RECORDS,
};
use ppm_proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm_proto::types::{
    FileRecord, Gpid, HistoryRecord, MetricRow, ProcRecord, ProcRecordRef, Route, RusageRecord,
    Stamp, WireProcState,
};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,12}"
}

fn arb_gpid() -> impl Strategy<Value = Gpid> {
    (arb_name(), any::<u32>()).prop_map(|(h, p)| Gpid::new(h, p))
}

fn arb_route() -> impl Strategy<Value = Route> {
    prop::collection::vec(arb_name(), 0..5).prop_map(Route)
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
                    command,
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
                command,
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
    let action = prop_oneof![
        (arb_gpid(), any::<u8>())
            .prop_map(|(target, signal)| TriggerAction::Signal { target, signal }),
        arb_name().prop_map(|note| TriggerAction::Notify { note }),
        arb_gpid().prop_map(|root| TriggerAction::KillTree { root }),
    ];
    (any::<u32>(), pattern, action, any::<bool>()).prop_map(|(id, pattern, action, once)| {
        TriggerSpec {
            id,
            pattern,
            action,
            once,
        }
    })
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
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    let err_code = prop_oneof![
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
    ];
    prop_oneof![
        Just(Reply::Ok),
        Just(Reply::Pong),
        (err_code, arb_name()).prop_map(|(code, detail)| Reply::Err { code, detail }),
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
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(arb_name(), 0..4),
            arb_name(),
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
            arb_name(),
            any::<u64>(),
            prop::collection::vec(
                (
                    arb_name(),
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
        Admitted::Split | Admitted::Local => SnapshotRun::of(&reply),
    };
    (reply, run)
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
            arb_name(),
            any::<bool>(),
            arb_name(),
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
        (arb_name(), any::<bool>(), arb_name(), any::<u64>()).prop_map(|(host, ok, ccs, epoch)| {
            Msg::HelloAck {
                host,
                ok,
                ccs,
                epoch,
            }
        }),
        (
            any::<u64>(),
            any::<u32>(),
            arb_name(),
            arb_op(),
            arb_route(),
            any::<u8>(),
            any::<u64>(),
            any::<u8>(),
            any::<u64>()
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
                    boot
                }
            ),
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
        (any::<u32>(), arb_name(), any::<u64>()).prop_map(|(user, ccs, epoch)| Msg::CcsAnnounce {
            user,
            ccs,
            epoch
        }),
        (any::<u32>(), arb_name()).prop_map(|(user, from)| Msg::Probe { user, from }),
        (arb_name(), arb_name(), any::<u64>()).prop_map(|(from, ccs, epoch)| Msg::ProbeAck {
            from,
            ccs,
            epoch
        }),
    ]
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

    /// `missing` lists are canonical on the wire: whatever order and
    /// duplication the producer assembled, decoding yields the sorted,
    /// deduplicated list — and re-encoding the decoded value is a fixed
    /// point (byte-identical), so aggregates are reproducible run-to-run.
    #[test]
    fn missing_lists_canonicalize_at_encode(
        stamp in arb_stamp(),
        missing in prop::collection::vec(arb_name(), 0..8),
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
        host in arb_name(),
        route in arb_route(),
        missing in prop::collection::vec(arb_name(), 0..5),
    ) {
        let wire = WireReply::from(&reply);
        prop_assert_eq!(wire.as_bytes(), &reply.to_bytes()[..]);
        prop_assert_eq!(wire.decode().expect("decodes"), reply.clone());

        let resp = Msg::Resp { id, reply: reply.clone(), route: route.clone() };
        prop_assert_eq!(wire.resp(id, &route), resp.to_bytes());

        let mut spliced = Enc::new();
        wire.push_part(&mut spliced, &host, &route);
        let mut encoded = Enc::new();
        encoded.frame(&BcastPart { host, reply: reply.clone(), route });
        prop_assert_eq!(spliced.into_bytes(), encoded.into_bytes());

        let set: BTreeSet<String> = missing.iter().cloned().collect();
        let partial = Reply::Partial { missing, inner: Box::new(reply) };
        let wrapped = wire.partial(&set);
        prop_assert_eq!(wrapped.as_bytes(), &partial.to_bytes()[..]);
    }

    /// A sibling's message read with its reply left on the wire is the
    /// message `Msg::from_bytes` reads: same fields, the reply the very
    /// bytes that were sent, and the same verdict on truncations and on
    /// arbitrary bytes.
    #[test]
    fn inbound_agrees_with_msg_decode(
        msg in arb_msg(),
        cut in any::<u16>(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let wire = msg.to_bytes();
        let expect = match msg.clone() {
            Msg::Resp { id, reply, route } => {
                Inbound::Resp { id, reply: WireReply::from(&reply), route }
            }
            Msg::BcastAgg { stamp, parts, missing } => Inbound::BcastAgg { stamp, parts, missing },
            other => Inbound::Other(other),
        };
        prop_assert_eq!(Inbound::decode(&wire).expect("decodes"), expect);

        let cut = wire.slice(..usize::from(cut) % wire.len());
        prop_assert_eq!(Inbound::decode(&cut).is_ok(), Msg::from_bytes(&cut).is_ok());
        // Steer some garbage at the two reply-carrying tags, and at the
        // retired third (9), which both sides refuse.
        for tag in [None, Some(7u8), Some(9), Some(16)] {
            let mut data = garbage.clone();
            if let (Some(tag), Some(first)) = (tag, data.first_mut()) {
                *first = tag;
            }
            let data = bytes::Bytes::from(data);
            prop_assert_eq!(Inbound::decode(&data).is_ok(), Msg::from_bytes(&data).is_ok());
            prop_assert!(data.first() != Some(&9) || Msg::from_bytes(&data).is_err());
        }
    }

    /// The borrowed record walk and `ProcRecord::decode` agree on
    /// arbitrary bytes: both refuse, or both accept the same fields over
    /// the same span — and that span re-decodes to the same record.
    #[test]
    fn borrowed_record_scan_agrees_with_decode(
        record in arb_proc_record(),
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
        for data in [record.to_bytes().to_vec(), damaged, garbage] {
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
    }

    /// Splitting an aggregate and merging the parts as bytes gives the
    /// bytes of decoding every part, combining the records and encoding
    /// the result — for empty parts, duplicate keys in different parts,
    /// hosts that are prefixes of one another, and parts of the wrong
    /// kind alike.
    #[test]
    fn merged_bytes_match_the_record_level_combine(
        answers in prop::collection::vec((arb_name(), arb_bcast_answer(), arb_route()), 0..7),
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
        let split = WirePart::split(&batch).expect("a valid batch splits");
        prop_assert_eq!(split.len(), parts.len());
        for (wire, part) in split.iter().zip(&parts) {
            prop_assert_eq!(wire.reply.as_bytes(), &part.reply.to_bytes()[..]);
            prop_assert_eq!(&wire.route, &part.route);
        }

        // The originator's own slice comes first, then the parts.
        let mut wires = vec![WireReply::from(&local)];
        wires.extend(split.into_iter().map(|p| p.reply));
        let mut replies = vec![local];
        replies.extend(parts.into_iter().map(|p| p.reply));
        let merged = WireReply::merge(&op, &wires).expect("valid parts merge");
        prop_assert_eq!(merged.as_bytes(), &combine(&op, replies).to_bytes()[..]);
    }

    /// `WirePart::split` accepts exactly the batches
    /// `decode_batch::<BcastPart>` accepts, damaged or not.
    #[test]
    fn split_agrees_with_batch_decode(
        answers in prop::collection::vec((arb_name(), arb_bcast_answer(), arb_route()), 0..4),
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
        match (decode_batch::<BcastPart>(&data), WirePart::split(&data)) {
            (Ok(owned), Ok(split)) => {
                prop_assert_eq!(owned.len(), split.len());
                for (part, wire) in owned.iter().zip(&split) {
                    prop_assert_eq!(wire.reply.decode().expect("checked"), part.reply.clone());
                    prop_assert_eq!(&wire.route, &part.route);
                }
            }
            (Err(_), Err(_)) => {}
            (owned, split) => prop_assert!(false, "decode {owned:?} but split {split:?}"),
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
        let mut split = WirePart::split(&batch.into_bytes())
            .expect("a valid batch splits")
            .into_iter();
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
                    let run = SnapshotRun::of(&wire);
                    (wire, run)
                }
                Admitted::Encoded => (WireReply::from(reply), None),
            };
            if *admitted != Admitted::Encoded {
                prop_assert_eq!(part.1, SnapshotRun::of(&part.0));
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
        let walked = WireReply::merge(&op, &wires).expect("valid parts merge");
        prop_assert_eq!(walked.as_bytes(), &expect[..]);
    }

    /// A relay's aggregate, written once from the part frames it
    /// gathered, is the encoded `Msg::BcastAgg` — for real frames and for
    /// noise, any stamp, any missing set.
    #[test]
    fn relay_aggregate_is_the_encoded_msg(
        stamp in arb_stamp(),
        answers in prop::collection::vec((arb_name(), arb_bcast_answer(), arb_route()), 0..5),
        noise in prop::option::of((any::<u32>(), prop::collection::vec(any::<u8>(), 0..64))),
        missing in prop::collection::vec(arb_name(), 0..6),
    ) {
        let (count, frames) = noise.unwrap_or_else(|| {
            let parts: Vec<BcastPart> = answers
                .into_iter()
                .map(|(host, reply, route)| BcastPart { host, reply, route })
                .collect();
            (parts.len() as u32, encode_batch(&parts)[4..].to_vec())
        });
        let set: BTreeSet<String> = missing.iter().cloned().collect();
        let mut batch = count.to_be_bytes().to_vec();
        batch.extend_from_slice(&frames);
        let msg = Msg::BcastAgg { stamp: stamp.clone(), parts: batch.into(), missing };
        prop_assert_eq!(Msg::bcast_agg_bytes(&stamp, count, &frames, &set), msg.to_bytes());
    }
}
