//! What a message costs, in trips to the allocator: the one unit that
//! does not depend on the machine. Every tool request, pmd lookup and
//! sibling reply is a frame encoded into a buffer that is sent as it is
//! and comes back to its thread's spares, decoded, and carries its
//! source-destination route back to the originator; each of those steps
//! is budgeted here. A budget fails when a sent frame is copied again or
//! its buffer stops coming back, when a short route goes back to the
//! heap, when the simulated host's delivery path starts copying what it
//! hands a process, when a relay copies the frames it gathered into a
//! second buffer to send them, or when a world's count stops repeating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use bytes::Bytes;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::codec::{Enc, Wire};
use ppm::proto::msg::{
    ControlAction, ErrCode, Inbound, Msg, Op, RelayAgg, Reply, WirePart, WireReply,
};
use ppm::proto::types::{Gpid, Route, Stamp};
use ppm::runtime::program::SpawnSpec;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::Uid;

/// Counts the allocator calls of the thread that asks, so the test
/// harness's own threads do not enter.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // No count while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialised thread-local `Cell`, which neither allocates
// nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocations `f` makes on this thread, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

/// A route through `n` hosts.
fn route_of(n: usize) -> Route {
    let mut route = Route::from_origin("origin");
    for i in 1..n {
        route.push(format!("relay-{i}").as_str());
    }
    route
}

/// What `f` allocates on a thread of its own, which keeps no spares yet.
fn counted_cold<T: Send>(f: impl FnOnce() -> T + Send) -> (u64, T) {
    std::thread::scope(|s| s.spawn(|| counted(f)).join().expect("no panic"))
}

#[test]
fn a_copied_frame_is_one_allocation() {
    let frame = vec![7u8; 300];
    let (spent, copied) = counted(|| Bytes::copy_from_slice(&frame));
    assert_eq!(spent, 1, "Bytes::copy_from_slice");
    assert_eq!(&*copied, &frame[..]);

    let msg = Msg::Resp {
        id: 9,
        reply: Reply::Pong,
        route: route_of(3),
    };
    let encode = || {
        let mut enc = Enc::pooled();
        msg.encode(&mut enc);
        enc.into_bytes()
    };
    // A thread with no spare: the buffer and its shared header (1 while
    // the finished frame was copied out of a pooled buffer).
    let (spent, cold) = counted_cold(encode);
    assert!(
        spent <= 2,
        "a pooled Enc::into_bytes on a cold thread: {spent}"
    );
    // The warm-up frame, dropped, leaves its buffer to the next encode.
    let warm = encode();
    let at = warm.as_ptr();
    drop(warm);
    let (spent, bytes) = counted(encode);
    assert_eq!(
        spent, 0,
        "a pooled Enc::into_bytes once the warm-up frame is dropped"
    );
    assert_eq!(bytes, cold);
    assert_eq!(
        bytes.as_ptr(),
        at,
        "the warm-up frame's buffer, handed over"
    );
}

#[test]
fn a_reply_with_a_short_route_decodes_without_allocating() {
    for hosts in 1..=5 {
        let frame = Msg::Resp {
            id: 1,
            reply: Reply::Ok,
            route: route_of(hosts),
        }
        .to_bytes();
        let (spent, inbound) = counted(|| Inbound::decode(&frame).expect("decodes"));
        assert_eq!(spent, 0, "Inbound::decode of a Resp through {hosts} hosts");
        let Inbound::Resp { route, .. } = inbound else {
            panic!("not a Resp");
        };
        assert_eq!(route, route_of(hosts));
        let (spent, _) = counted(|| route.clone());
        assert_eq!(spent, 0, "cloning a route of {hosts} hosts");
    }
}

#[test]
fn an_aggregate_splits_into_parts_with_one_allocation() {
    const PARTS: usize = 16;
    let mut batch = Enc::new();
    batch.u32(PARTS as u32);
    for i in 0..PARTS {
        let host = format!("h{i}");
        let mut route = route_of(1 + i % 4);
        route.push(host.as_str());
        let reply = Reply::Snapshot {
            host: host.as_str().into(),
            procs: Vec::new(),
        };
        WireReply::from(&reply).push_part(&mut batch, &host, &route);
    }
    let batch = batch.into_bytes();
    let mut parts = Vec::new();
    let (spent, ()) = counted(|| WirePart::split(&batch, &mut parts).expect("splits"));
    assert_eq!(parts.len(), PARTS);
    assert_eq!(
        spent, 1,
        "WirePart::split into a new vector: its room, nothing per part"
    );
    // An originator splits every aggregate into the vector it keeps.
    let (spent, ()) = counted(|| WirePart::split(&batch, &mut parts).expect("splits"));
    assert_eq!(parts.len(), PARTS);
    assert_eq!(spent, 0, "WirePart::split into a kept vector: nothing");
}

#[test]
fn a_relay_finishes_its_aggregate_in_the_buffer_it_gathered_into() {
    const PARTS: usize = 16;
    let stamp = Stamp::signed("origin", 7, 1_000, 0xC0FFEE);
    let mut agg = RelayAgg::new(&stamp, 0);
    let mut frames = Enc::new();
    for i in 0..PARTS {
        let host = format!("h{i}");
        let mut route = route_of(1 + i % 4);
        route.push(host.as_str());
        let reply = WireReply::from(&Reply::Snapshot {
            host: host.as_str().into(),
            procs: Vec::new(),
        });
        if i % 2 == 0 {
            agg.push_part(&reply, &host, &route);
        } else {
            // A child's batch, spliced byte for byte.
            let mut one = Enc::new();
            reply.push_part(&mut one, &host, &route);
            agg.splice(1, one.as_slice());
        }
        reply.push_part(&mut frames, &host, &route);
    }
    let gathered = agg.batch().as_ptr_range();
    let (spent, sent) = counted(|| agg.finish(&BTreeSet::new()));
    // 1 while the buffer took its shared header only when it was sent,
    // 2 while the frames were copied into a second buffer of exactly the
    // message's size, which then took its shared header.
    assert_eq!(spent, 0, "RelayAgg::finish: nothing");
    assert!(
        sent.as_ptr_range().contains(&gathered.start),
        "the frames leave in the buffer they were gathered in"
    );
    let mut batch = (PARTS as u32).to_be_bytes().to_vec();
    batch.extend_from_slice(frames.as_slice());
    let msg = Msg::BcastAgg {
        stamp,
        parts: batch.into(),
        missing: Vec::new(),
    };
    assert_eq!(sent, msg.to_bytes());
}

#[test]
fn a_relay_aggregate_reuses_the_buffer_the_last_one_left() {
    let stamp = Stamp::signed("origin", 7, 1_000, 0xC0FFEE);
    let reply = WireReply::from(&Reply::Snapshot {
        host: "h1".into(),
        procs: Vec::new(),
    });
    let route = route_of(3);
    let cycle = || {
        // Join, finish, and the upstream's drop of what it was sent.
        let mut agg = RelayAgg::new(&stamp, 512);
        for host in ["h1", "h2", "h3"] {
            agg.push_part(&reply, host, &route);
        }
        agg.finish(&BTreeSet::new()).len()
    };
    // 2 at every cycle while a relay's buffer was allocated for each
    // wave and took its shared header when sent.
    let (spent, len) = counted_cold(cycle);
    assert!(spent <= 2, "a relay's aggregate on a cold thread: {spent}");
    cycle();
    let (spent, again) = counted(cycle);
    assert_eq!(spent, 0, "a relay's aggregate once the last one is dropped");
    assert_eq!(again, len);
}

#[test]
fn a_spliced_resp_reuses_the_buffer_the_last_one_left() {
    let reply = WireReply::from(&Reply::Err {
        code: ErrCode::NoSuchProcess,
        detail: "no process 4242 on host far-away-host".into(),
    });
    let route = route_of(4);
    let send = || reply.resp(11, &route);
    // 2 at every reply while its exact-size buffer took a shared header.
    let (spent, cold) = counted_cold(send);
    assert!(spent <= 2, "WireReply::resp on a cold thread: {spent}");
    drop(send());
    let (spent, bytes) = counted(send);
    assert_eq!(spent, 0, "WireReply::resp once the last reply is dropped");
    assert_eq!(bytes, cold);
    let msg = Msg::Resp {
        id: 11,
        reply: reply.decode().expect("decodes"),
        route: route_of(4),
    };
    assert_eq!(bytes, msg.to_bytes());
}

#[test]
fn a_requests_route_allocates_nothing() {
    let req = Msg::Req {
        id: 3,
        user: 100,
        dest: "far".into(),
        op: Op::Ping,
        route: route_of(4),
        hops_left: 4,
        deadline_us: 0,
        attempt: 0,
        boot: 1,
    };
    let frame = req.to_bytes();
    let (spent, back) = counted(|| Msg::from_bytes(&frame).expect("decodes"));
    assert_eq!(back, req);
    // The `dest` `String`; the route is held inline.
    assert_eq!(spent, 1, "Msg::decode of a Req through 4 hosts");

    let mut route = route_of(4);
    let (spent, ()) = counted(|| route.push("responder"));
    assert_eq!(spent, 0, "a relay's push within the inline capacity");
}

const USER: Uid = Uid(100);

#[test]
fn a_directed_control_between_two_lpms_stays_within_its_budget() {
    let mut ppm = PpmHarness::builder()
        .seed(1986)
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax780)
        .link("a", "b")
        .user(USER, 0xBEEF, &["a", "b"], PpmConfig::default())
        .build();
    let pid = ppm
        .spawn_login_process("b", USER, SpawnSpec::inert("victim"))
        .expect("spawn");
    let target = Gpid::new("b", pid.0);
    let control = |ppm: &mut PpmHarness, action| {
        ppm.control("a", USER, &target, action).expect("control");
    };
    // The first requests create both LPMs, dial the sibling channel and
    // size every table on the path; later ones are steady state.
    for _ in 0..4 {
        control(&mut ppm, ControlAction::Stop);
        control(&mut ppm, ControlAction::Foreground);
    }
    const ROUNDS: u64 = 8;
    let (spent, ()) = counted(|| {
        for _ in 0..ROUNDS {
            control(&mut ppm, ControlAction::Stop);
            control(&mut ppm, ControlAction::Foreground);
        }
    });
    let per_request = spent as f64 / (2 * ROUNDS) as f64;
    // A tool process, its connection to the home LPM, the request
    // relayed to the sibling and the reply back: 16.9 as written (one of
    // them the boxed route of the sibling's cached reply), 29.4 while
    // every encoded frame was copied into a fresh `Bytes`, 44.4 while
    // every copied frame was a buffer plus a shared header, every decoded
    // route a `Vec`, and every relay's push a reallocation.
    assert!(
        per_request <= 18.0,
        "{per_request:.1} allocations per directed control ({spent} for {})",
        2 * ROUNDS
    );
}

/// A world of six hosts in a binary tree of siblings and three processes
/// on each host but the root.
fn a_snapshot_world() -> PpmHarness {
    let host = |i: usize| format!("h{i}");
    let mut b = PpmHarness::builder().seed(1986);
    for i in 0..6 {
        b = b.host(host(i), CpuClass::Vax780);
    }
    for i in 1..6 {
        b = b.link(host((i - 1) / 2), host(i));
    }
    let mut ppm = b.user(USER, 0x1986, &["h0"], PpmConfig::default()).build();
    for i in 1..6 {
        for j in 0..3 {
            let command = format!("job{j}");
            ppm.spawn_remote(&host((i - 1) / 2), USER, &host(i), &command, None, None)
                .expect("spawn");
        }
    }
    ppm
}

/// [`a_snapshot_world`] and four `*` snapshots from the root: the
/// records the last one returns.
fn play_a_snapshot_world() -> usize {
    let mut ppm = a_snapshot_world();
    let mut records = 0;
    for _ in 0..4 {
        records = ppm.snapshot("h0", USER, "*").expect("snapshot").len();
    }
    records
}

#[test]
fn a_snapshot_world_costs_the_same_each_time_it_is_played() {
    // The first play warms this thread's spares; a later one may not
    // depend on the order its frames were dropped in (a set under the
    // default hasher drops in another order in every world).
    let plays: Vec<(u64, usize)> = (0..3).map(|_| counted(play_a_snapshot_world)).collect();
    assert_eq!(plays[1].1, 15, "every record, every play");
    assert_eq!(
        plays[1], plays[2],
        "allocations and records of the 2nd and 3rd play"
    );
}

#[test]
fn a_warm_lpm_runs_a_wave_on_the_tables_the_last_one_left() {
    // The third play, so this thread's spares are warm; its first
    // snapshot creates the LPMs, and each later wave finds the tables the
    // one before it left.
    let mut waves = 0;
    for _ in 0..3 {
        let mut ppm = a_snapshot_world();
        ppm.snapshot("h0", USER, "*").expect("snapshot");
        let (spent, records) = counted(|| {
            (0..3)
                .map(|_| ppm.snapshot("h0", USER, "*").expect("snapshot").len())
                .sum::<usize>()
        });
        assert_eq!(records, 3 * 15, "every record, every wave");
        waves = spent;
    }
    // A tool process, its connection and the records it decodes, with
    // nothing for the wave's tables: 63 as written, 91 while every wave
    // collected its forward targets into a new vector, the originator
    // built its tables anew and split each aggregate into a vector of its
    // own, and the spare buffers kept 32 a class.
    assert!(waves <= 63, "{waves} allocations for three warm waves");
}
