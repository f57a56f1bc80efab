//! What a traced process costs between `Kernel::emit` and `Genealogy`,
//! in the one unit that does not depend on the machine: trips to the
//! allocator. A 364-process fork/exec/exit tree is adopted and run dry
//! through the whole kernel-event path — kernel batch → wire frame →
//! `Lpm::ingest_kernel_event` → genealogy + history — and every
//! allocation this thread makes meanwhile is counted. The budget fails
//! when an event goes back to rebuilding strings it already has (a host
//! name per event, a rendered detail, a `ProcInfo` to read one field).
//! The trace the same tree leaves is budgeted beside it, in bytes: it is
//! on by default, and what it stores per process is what a long run's
//! resident set grows by.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::types::{ProcRecord, WireProcState};
use ppm::runtime::events::TraceFlags;
use ppm::runtime::program::{Program, SpawnSpec};
use ppm::runtime::sys::Sys;
use ppm::simnet::time::SimDuration;
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

const USER: Uid = Uid(100);
const FANOUT: u32 = 3;
const DEPTH: u32 = 5;
/// 1 + 3 + 9 + 27 + 81 + 243.
const PROCS: u32 = 364;

const TOKEN_FORK: u64 = 1;
const TOKEN_EXIT: u64 = 2;

/// One process of the tree: forks `FANOUT` children while `depth`
/// lasts, lives a few milliseconds, exits. The root holds first, so the
/// adopt lands before its first fork and the whole tree is traced.
struct TreeProc {
    depth: u32,
    hold: bool,
    exited: Arc<AtomicU32>,
}

impl TreeProc {
    fn fork_children(&mut self, sys: &mut dyn Sys) {
        let fanout = if self.depth > 0 { FANOUT } else { 0 };
        for _ in 0..fanout {
            let child = TreeProc {
                depth: self.depth - 1,
                hold: false,
                exited: Arc::clone(&self.exited),
            };
            let command = format!("tree-d{}", self.depth - 1);
            sys.spawn(SpawnSpec::new(command, Box::new(child)))
                .expect("fork");
        }
        let life = 2_000 + u64::from(sys.pid().0) * 7_919 % 30_000;
        sys.set_timer(SimDuration::from_micros(life), TOKEN_EXIT);
    }
}

impl Program for TreeProc {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        if self.hold {
            sys.set_timer(SimDuration::from_millis(500), TOKEN_FORK);
        } else {
            self.fork_children(sys);
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        if token == TOKEN_FORK {
            self.fork_children(sys);
        } else {
            self.exited.fetch_add(1, Ordering::Relaxed);
            sys.exit(0);
        }
    }
}

/// Spawns a held root, adopts it with every trace flag, runs the tree to
/// quiescence; returns the allocations made, and the bytes of trace
/// stored, between adopt and quiescence.
fn wave(ppm: &mut PpmHarness) -> (u64, usize) {
    let exited = Arc::new(AtomicU32::new(0));
    let root = TreeProc {
        depth: DEPTH,
        hold: true,
        exited: Arc::clone(&exited),
    };
    let spec = SpawnSpec::new("tree-root", Box::new(root));
    let pid = ppm.spawn_login_process("a", USER, spec).expect("spawn");
    ppm.adopt("a", USER, "a", pid.0, TraceFlags::ALL.bits())
        .expect("adopt");
    let trace = |ppm: &PpmHarness| ppm.world().core().trace().stored_bytes();
    let before = (ALLOCS.get(), trace(ppm));
    for _ in 0..200 {
        if exited.load(Ordering::Relaxed) == PROCS {
            break;
        }
        ppm.run_for(SimDuration::from_millis(50));
    }
    let spent = (ALLOCS.get() - before.0, trace(ppm) - before.1);
    assert_eq!(exited.load(Ordering::Relaxed), PROCS, "the tree ran dry");
    spent
}

#[test]
fn a_traced_process_costs_at_most_fourteen_allocations() {
    let mut ppm = PpmHarness::builder()
        .seed(1986)
        .host("a", CpuClass::Vax780)
        .user(USER, 0xBEEF, &["a"], PpmConfig::default())
        .build();
    // The first wave creates the LPM and sizes the kernel's tables, the
    // batch buffers and the genealogy arena; the second is steady state.
    wave(&mut ppm);
    let (spent, traced) = wave(&mut ppm);
    // Both trees were followed to the last exit.
    let records = ppm.snapshot("a", USER, "a").expect("snapshot");
    let dead = |r: &&ProcRecord| r.command.starts_with("tree-") && r.state == WireProcState::Dead;
    assert_eq!(records.iter().filter(dead).count(), 2 * PROCS as usize);
    // 7.8 as written, 29.0 before the path stopped rebuilding strings;
    // the program above spends 2 of them itself (`format!`, `Box`).
    let per_proc = spent as f64 / f64::from(PROCS);
    assert!(
        per_proc <= 14.0,
        "{per_proc:.1} allocations per traced process ({spent} for {PROCS})"
    );
    // A process leaves five lines (fork+exec, its fork, exec and exit
    // events, its exit): five 24-byte headers and their values, where
    // the text of the same lines took 340 bytes.
    assert!(ppm.world().core().trace().is_enabled());
    let per_proc = traced as f64 / f64::from(PROCS);
    assert!(
        per_proc <= 240.0,
        "{per_proc:.1} bytes of trace per traced process ({traced} for {PROCS})"
    );
}
