//! What a message costs, in trips to the allocator: the one unit that
//! does not depend on the machine. Every tool request, pmd lookup and
//! sibling reply is a frame copied into a `Bytes`, decoded, and carries
//! its source-destination route back to the originator; each of those
//! steps is budgeted here. A budget fails when a frame goes back to two
//! allocations (a buffer and a separate shared header), when a short
//! route goes back to the heap, or when the simulated host's delivery
//! path starts copying what it hands a process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::codec::{Enc, Wire};
use ppm::proto::msg::{ControlAction, Inbound, Msg, Op, Reply, WirePart, WireReply};
use ppm::proto::types::{Gpid, Route};
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
    // The first encode warms this thread's buffer pool.
    let warm = msg.to_bytes();
    let (spent, bytes) = counted(|| {
        let mut enc = Enc::pooled();
        msg.encode(&mut enc);
        enc.into_bytes()
    });
    assert_eq!(spent, 1, "a pooled Enc::into_bytes");
    assert_eq!(bytes, warm);
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
    let (spent, parts) = counted(|| WirePart::split(&batch).expect("splits"));
    assert_eq!(parts.len(), PARTS);
    assert_eq!(
        spent, 1,
        "WirePart::split: the Vec of parts, nothing per part"
    );
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
    // relayed to the sibling and the reply back: 29.4 as written (one of
    // them the boxed route of the sibling's cached reply), 44.4 while
    // every copied frame was a buffer plus a shared header, every decoded
    // route a `Vec`, and every relay's push a reallocation.
    assert!(
        per_request <= 31.0,
        "{per_request:.1} allocations per directed control ({spent} for {})",
        2 * ROUNDS
    );
}
