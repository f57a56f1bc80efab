//! What the event queue costs, in trips to the allocator. Every sweep
//! cell builds a fresh world and so a fresh `TimerWheel`; what a wheel
//! allocates must grow with the events it holds, not with the 256
//! buckets it spreads them over: 21 allocations for the first 4 096
//! events and 1 over ten more rounds on the same wheel. A budget fails
//! when buckets go back to owning buffers of their own (793 and 311
//! while each bucket was a `Vec`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ppm::simnet::engine::TimerWheel;
use ppm::simnet::rng::SimRng;
use ppm::simnet::time::SimDuration;

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

const EVENTS: usize = 4_096;

/// `EVENTS` seeded delays spread evenly over the four wheel levels
/// (up to 64 µs, 4.1 ms, 262 ms and 16.8 s ahead) and the overflow heap
/// (up to 64 × 16.8 s ahead).
fn delays(seed: u64) -> Vec<SimDuration> {
    let mut rng = SimRng::seed_from(seed);
    (0..EVENTS)
        .map(|_| {
            let span = 64usize.pow(1 + rng.index(5) as u32);
            SimDuration::from_micros(rng.index(span) as u64)
        })
        .collect()
}

/// Schedules every delay, then fires them all; returns how many fired.
fn schedule_and_drain(wheel: &mut TimerWheel<usize>, delays: &[SimDuration]) -> usize {
    for (i, &d) in delays.iter().enumerate() {
        wheel.schedule(d, i);
    }
    std::iter::from_fn(|| wheel.pop()).count()
}

#[test]
fn a_fresh_wheel_allocates_for_its_events_not_its_buckets() {
    let first = delays(1986);
    let (spent, (mut wheel, fired)) = counted(|| {
        let mut wheel = TimerWheel::new();
        let fired = schedule_and_drain(&mut wheel, &first);
        (wheel, fired)
    });
    assert_eq!(fired, EVENTS);
    assert!(
        wheel.stats().overflow_peak > 0,
        "the delays reach the overflow heap"
    );
    assert!(
        spent <= 32,
        "a fresh wheel made {spent} allocations for {EVENTS} events (budget 32)"
    );

    let rounds: Vec<_> = (1..=10).map(|r| delays(1986 + r)).collect();
    let (spent, fired) = counted(|| {
        rounds
            .iter()
            .map(|d| schedule_and_drain(&mut wheel, d))
            .sum::<usize>()
    });
    assert_eq!(fired, 10 * EVENTS);
    assert!(
        spent <= 4,
        "ten more rounds on the same wheel made {spent} allocations (budget 4)"
    );
}
