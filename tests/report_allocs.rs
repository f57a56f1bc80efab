//! What a sweep cell's report and a tool launch cost, in trips to the
//! allocator: the one unit that does not depend on the machine. Every
//! sweep cell samples its world's registries into metric rows and renders
//! them, and every control operation launches a tool process; the
//! budgets fail when a row goes back to copying its name, an idle
//! histogram to owning a bucket vector, a registry to being snapshotted
//! into an intermediate list before its rows are built, the report to
//! growing its text as it writes, or a tool to keeping a map per request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{Op, Reply};
use ppm::scenario::{self, ExecOptions};
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

/// The allocations `f` makes on this thread, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

/// `scenarios/chaos.ppm` played to its end under `crash_heal.fault`, so
/// its registries hold recoveries, retries and probe round trips.
fn played_chaos() -> PpmHarness {
    let read = |name: &str| {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).expect("a shipped file")
    };
    let sc = scenario::parse(&read("chaos.ppm")).expect("chaos.ppm parses");
    let plan = ppm::simnet::fault::FaultPlan::parse(&read("crash_heal.fault")).expect("plan");
    let opts = ExecOptions {
        faults: Some(&plan),
        ..ExecOptions::default()
    };
    scenario::execute_with(&sc, &mut String::new(), opts).expect("chaos.ppm plays")
}

#[test]
fn a_world_is_sampled_into_rows_without_copying_a_name() {
    let ppm = played_chaos();
    let (spent, sections) = counted(|| ppm.metrics_sections());
    let occupied = sections
        .iter()
        .flat_map(|(_, rows)| rows)
        .filter(|row| row.kind == 2 && !row.buckets.is_empty())
        .count() as u64;
    let rows: usize = sections.iter().map(|(_, rows)| rows.len()).sum();
    assert!(
        sections.len() >= 4,
        "the world and three LPMs: {sections:?}"
    );
    assert!(occupied > 0, "recoveries leave histograms occupied");
    // Per section its label, its rows and the share of the list that
    // holds them; per histogram with an occupied bucket, that prefix.
    // Before: a name per row, a bucket vector and a boxed histogram per
    // histogram, an intermediate sample list per section.
    let budget = 3 * sections.len() as u64 + occupied;
    assert!(
        spent <= budget,
        "{spent} allocations for {} sections, {rows} rows, {occupied} occupied histograms \
         (budget {budget})",
        sections.len()
    );
}

#[test]
fn the_metrics_report_is_written_into_one_buffer() {
    let ppm = played_chaos();
    let sections = ppm.metrics_sections();
    let (spent, text) = counted(|| ppm::core::obs::render_metrics(&sections));
    assert!(text.lines().count() > 40, "{text}");
    assert!(
        spent <= 1,
        "{spent} allocations to render the metrics report"
    );
    assert_eq!(text, ppm.metrics_report());
}

#[test]
fn a_one_step_tool_launch_is_pinned() {
    const USER: Uid = Uid(100);
    let mut ppm = PpmHarness::builder()
        .seed(1986)
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax780)
        .link("a", "b")
        .user(USER, 0xBEEF, &["a", "b"], PpmConfig::default())
        .build();
    let wait = SimDuration::from_secs(10);
    let launch = |ppm: &mut PpmHarness| {
        let script = vec![ToolStep::new("a", Op::Ping)];
        let outcome = ppm
            .run_tool("a", USER, script, wait)
            .expect("the tool runs");
        assert!(matches!(outcome.reply(0), Some(Reply::Pong)), "{outcome:?}");
    };
    // The first launches create the LPM and size every table on the
    // path; later ones are steady state, but for the world's periodic
    // work that may land in one of them: the cheapest of four is the
    // launch alone.
    for _ in 0..16 {
        launch(&mut ppm);
    }
    let counts: Vec<u64> = (0..4).map(|_| counted(|| launch(&mut ppm)).0).collect();
    let spent = counts.iter().min().copied();
    // The tool process, its dial through inetd and pmd to the LPM, its
    // request and the reply: the script, the boxed tool, its shared
    // outcome and the outcome's vector, sized from the script. 10 while
    // the outcome grew a vector of send times and one of replies, and the
    // request, the tool's descriptor table, the LPM's decode and inetd's
    // request and reply each allocated what they did not keep; three
    // more before that, while the tool kept a wire-id map and put every
    // reply through its reorder map, and inetd copied the service name
    // it was asked for.
    assert_eq!(spent, Some(4), "one single-step tool launch: {counts:?}");
}
