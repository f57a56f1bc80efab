//! The discrete-event engine.
//!
//! [`TimerWheel`] is a priority queue of timestamped events, generic over
//! the event payload. Ties at the same instant are broken by insertion
//! order (a monotonically increasing sequence number), which makes runs
//! fully deterministic: delivery follows the total order `(at, seq)`.
//!
//! # The traffic it is sized to
//!
//! Nothing that ships cancels an event. The PPM's timers run out rather
//! than get called off — an idle LPM's time-to-live, an orphan's
//! time-to-die, the retention window of seen broadcast stamps, the CCS
//! probe — and a timer that is no longer wanted is *forgotten by its
//! owner*: the LPM drops the token from its RPC ledger and the fire, when
//! it comes, finds nothing to do. Counted on the benchmark's workloads at
//! seed 1986, those are 19 % of LPM timer fires on `snapshot_fanout` (its
//! 60 s request and broadcast timeouts; 11 % of the run's events), 9.8 %
//! on `control_churn` (request timeouts; 3 % of events), 8.7 % on
//! `sweep_cells` and none on `kernel_storm`.
//! `engine.cancels` reads 0 on every shipped scenario and every benchmark
//! workload. So the queue keeps no liveness ledger and no position index:
//! schedule and pop touch only the bucket they land in, and
//! [`TimerWheel::cancel`] is an exact search-and-remove that costs
//! O(pending). It exists because the benchmark's queue replay and this
//! crate's tests call it, and so that a caller that does start cancelling
//! shows up in `engine.cancels`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// The queue's former name: `benchmark/src/replay.rs` imports
/// `simnet::engine::Engine` until the `[benchmark]` revision drops it.
pub type Engine<E> = TimerWheel<E>;

/// Identifier handed back by [`TimerWheel::schedule`], usable to cancel
/// the event before it fires. Opaque: all an id supports is being handed
/// back to the queue it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// Lifetime activity counters of an event queue, sampled into the
/// observability registry (see `ppm_runtime::obs`) at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled so far.
    pub schedules: u64,
    /// Cancels that removed a live event.
    pub cancels: u64,
    /// Events popped so far.
    pub fired: u64,
    /// Live events currently pending.
    pub pending: usize,
    /// Entries currently waiting in the overflow heap.
    pub overflow_len: usize,
    /// High-water mark of the overflow heap.
    pub overflow_peak: usize,
}

/// Microsecond granularity of each wheel level, plus one extra entry for
/// the span of the whole wheel (`64^LEVELS` µs ≈ 16.8 s).
const WHEEL_POW: [u64; WHEEL_LEVELS + 1] = [1, 64, 4_096, 262_144, 16_777_216];

/// Slots per level. 64 lets a whole level's occupancy live in one `u64`
/// bitmask, so "find the earliest occupied slot" is a `trailing_zeros`.
const WHEEL_SLOTS: usize = 64;

/// Number of wheel levels. Level `l` buckets events at `64^l` µs
/// granularity; everything past the top level's window waits in an
/// overflow heap until the wheel advances far enough to admit it.
const WHEEL_LEVELS: usize = 4;

#[derive(Debug)]
struct WheelEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// An overflow-heap entry, ordered by the same `(at, seq)` total order as
/// the wheel proper. Only the key participates in comparisons.
#[derive(Debug)]
struct FarEntry<E>(WheelEntry<E>);

impl<E> PartialEq for FarEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl<E> Eq for FarEntry<E> {}
impl<E> PartialOrd for FarEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for FarEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

/// A deterministic discrete-event queue backed by a **hierarchical timer
/// wheel**: events come out in `(time, seq)` order, whatever order they
/// went in.
///
/// # Why a wheel
///
/// A world schedules an event per message hop, per kernel batch and per
/// timer, nearly all of them a few hundred microseconds to a few seconds
/// ahead, and lets every one of them fire (see the module docs: nothing
/// that ships cancels). Scheduling drops the event into the bucket
/// covering its deadline and firing advances along per-level 64-bit
/// occupancy masks, so neither pays a comparison per queue level.
///
/// # Windows, not rotations
///
/// Each level holds one **absolute window** of time: level `l` covers the
/// `64^(l+1)` µs window `win[l]`, divided into 64 slots of `64^l` µs.
/// An event is filed at the lowest level whose current window contains
/// its deadline; events beyond the top window wait in an overflow
/// min-heap. When level 0 drains, the earliest occupied slot of the next
/// occupied level is *cascaded* down one level, narrowing the window;
/// when the whole wheel drains, the windows are rebased around the
/// overflow heap's minimum and the heap's matching prefix migrates in.
/// Keying windows by absolute position (rather than a rotating cursor)
/// means a slot index comparison is always a time comparison, so the
/// earliest-first scan is exact.
///
/// # Examples
///
/// ```
/// use ppm_simnet::engine::TimerWheel;
/// use ppm_simnet::time::{SimDuration, SimTime};
///
/// let mut wheel: TimerWheel<&str> = TimerWheel::new();
/// wheel.schedule(SimDuration::from_millis(5), "later");
/// wheel.schedule(SimDuration::from_millis(1), "sooner");
/// let drop_ = wheel.schedule(SimDuration::from_secs(120), "far future");
/// assert!(wheel.cancel(drop_));
///
/// let (t, ev) = wheel.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "sooner"));
/// let (t, ev) = wheel.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(5), "later"));
/// assert!(wheel.pop().is_none());
/// ```
#[derive(Debug)]
pub struct TimerWheel<E> {
    now: SimTime,
    seq: u64,
    processed: u64,
    cancelled: u64,
    /// Scheduled, not yet fired, not cancelled.
    pending: usize,
    /// Current absolute window per level: every entry stored at level `l`
    /// satisfies `at / WHEEL_POW[l + 1] == win[l]`.
    win: [u64; WHEEL_LEVELS],
    /// Per-level slot-occupancy bitmasks: bit `s` is set exactly when
    /// slot `s` holds an entry.
    occ: [u64; WHEEL_LEVELS],
    /// `WHEEL_LEVELS * WHEEL_SLOTS` buckets, level-major.
    slots: Vec<Vec<WheelEntry<E>>>,
    /// Events past the top-level window, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<FarEntry<E>>>,
    overflow_peak: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel at time zero.
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(WHEEL_LEVELS * WHEEL_SLOTS);
        slots.resize_with(WHEEL_LEVELS * WHEEL_SLOTS, Vec::new);
        TimerWheel {
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            cancelled: 0,
            pending: 0,
            win: [0; WHEEL_LEVELS],
            occ: [0; WHEEL_LEVELS],
            slots,
            overflow: BinaryHeap::new(),
            overflow_peak: 0,
        }
    }

    /// Lifetime activity counters (`seq` counts every schedule).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            schedules: self.seq,
            cancels: self.cancelled,
            fired: self.processed,
            pending: self.pending,
            overflow_len: self.overflow.len(),
            overflow_peak: self.overflow_peak,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (or zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedules `payload` at an absolute instant.
    ///
    /// Instants earlier than the current time are clamped to "now" so a
    /// handler can never make time flow backwards.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        self.place(WheelEntry { at, seq, payload });
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet fired (or been cancelled).
    ///
    /// This is a search over every bucket and the overflow heap,
    /// O(pending): nothing that ships calls it (see the module docs), so
    /// schedule and pop keep no index for it to use.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.remove_from_wheel(id.0) || {
            let before = self.overflow.len();
            self.overflow.retain(|Reverse(far)| far.0.seq != id.0);
            self.overflow.len() < before
        };
        if hit {
            self.pending -= 1;
            self.cancelled += 1;
        }
        hit
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        // A level pins its window while occupied, so the earliest slot
        // of the lowest occupied level holds the global minimum.
        if let Some(l) = self.occ.iter().position(|&mask| mask != 0) {
            let s = self.occ[l].trailing_zeros() as usize;
            return self.slots[l * WHEEL_SLOTS + s].iter().map(|e| e.at).min();
        }
        self.overflow.peek().map(|Reverse(top)| top.0.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Level 0 slots are one µs wide, so every entry in a bucket
        // shares `at`, and buckets hold their entries in ascending `seq`
        // order: `place` appends monotonically increasing sequence
        // numbers, a cascade batch preserves its source slot's order, and
        // a rebase migrates the overflow prefix in `(at, seq)` order —
        // while a window is only ever repopulated after the level has
        // fully drained. The head of the earliest bucket is therefore the
        // `(at, seq)` minimum.
        while self.occ[0] == 0 {
            // Level 0 is dry: cascade the earliest slot of the lowest
            // occupied level down one level, narrowing its window; with
            // the whole wheel dry, rebase it around the overflow minimum.
            if !self.cascade_once() && !self.rebase() {
                return None;
            }
        }
        let s = self.occ[0].trailing_zeros() as usize;
        let bucket = &mut self.slots[s];
        debug_assert!(
            bucket.windows(2).all(|w| w[0].seq < w[1].seq),
            "level-0 bucket lost its (at, seq) order"
        );
        let e = bucket.remove(0);
        if bucket.is_empty() {
            self.occ[0] &= !(1u64 << s);
        }
        debug_assert!(e.at >= self.now, "event queue time went backwards");
        self.now = e.at;
        self.pending -= 1;
        self.processed += 1;
        Some((e.at, e.payload))
    }

    /// Pops the next event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Advances the clock to `at` without processing anything.
    ///
    /// Used at the end of a bounded run so `now()` reflects the horizon.
    /// Instants in the past are ignored.
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }

    /// Files an entry at the lowest level whose current window contains
    /// its deadline, or in the overflow heap past the top window.
    fn place(&mut self, e: WheelEntry<E>) {
        let at = e.at.as_micros();
        for l in 0..WHEEL_LEVELS {
            if at / WHEEL_POW[l + 1] == self.win[l] {
                let s = ((at / WHEEL_POW[l]) % WHEEL_SLOTS as u64) as usize;
                self.slots[l * WHEEL_SLOTS + s].push(e);
                self.occ[l] |= 1u64 << s;
                return;
            }
        }
        self.overflow.push(Reverse(FarEntry(e)));
        self.overflow_peak = self.overflow_peak.max(self.overflow.len());
    }

    /// Moves the earliest slot of the lowest occupied level (above level
    /// 0) down one level. Returns `false` when the wheel is empty.
    fn cascade_once(&mut self) -> bool {
        let Some(l) = (1..WHEEL_LEVELS).find(|&l| self.occ[l] != 0) else {
            return false;
        };
        let s = self.occ[l].trailing_zeros() as usize;
        self.occ[l] &= !(1u64 << s);
        self.win[l - 1] = self.win[l] * WHEEL_SLOTS as u64 + s as u64;
        // Distribute the batch in source order; the slot keeps its (now
        // empty) buffer for its next turn of the wheel.
        let mut entries = std::mem::take(&mut self.slots[l * WHEEL_SLOTS + s]);
        for e in entries.drain(..) {
            let s2 = ((e.at.as_micros() / WHEEL_POW[l - 1]) % WHEEL_SLOTS as u64) as usize;
            self.slots[(l - 1) * WHEEL_SLOTS + s2].push(e);
            self.occ[l - 1] |= 1u64 << s2;
        }
        self.slots[l * WHEEL_SLOTS + s] = entries;
        true
    }

    /// Re-centres every window on the overflow heap's minimum and moves
    /// the heap's prefix that falls inside the top window into the
    /// wheel. Returns `false` when the heap is empty too.
    fn rebase(&mut self) -> bool {
        let Some(Reverse(first)) = self.overflow.peek() else {
            return false;
        };
        let m = first.0.at.as_micros();
        for l in 0..WHEEL_LEVELS {
            self.win[l] = m / WHEEL_POW[l + 1];
        }
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.0.at.as_micros() / WHEEL_POW[WHEEL_LEVELS] != self.win[WHEEL_LEVELS - 1] {
                break;
            }
            let Reverse(FarEntry(e)) = self.overflow.pop().expect("peeked entry");
            self.place(e);
        }
        true
    }

    /// Removes the entry numbered `seq` from whichever bucket holds it,
    /// keeping the bucket's order.
    fn remove_from_wheel(&mut self, seq: u64) -> bool {
        for (i, bucket) in self.slots.iter_mut().enumerate() {
            if let Some(pos) = bucket.iter().position(|e| e.seq == seq) {
                bucket.remove(pos);
                if bucket.is_empty() {
                    self.occ[i / WHEEL_SLOTS] &= !(1u64 << (i % WHEEL_SLOTS));
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut e: TimerWheel<u32> = TimerWheel::new();
        e.schedule(ms(30), 3);
        e.schedule(ms(10), 1);
        e.schedule(ms(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e: TimerWheel<u32> = TimerWheel::new();
        for i in 0..10 {
            e.schedule(ms(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn relative_delays_accumulate_from_now() {
        let mut e: TimerWheel<&str> = TimerWheel::new();
        e.schedule(ms(10), "a");
        e.pop();
        e.schedule(ms(10), "b");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(20));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut e: TimerWheel<&str> = TimerWheel::new();
        e.schedule(ms(1), "keep");
        let drop_ = e.schedule(ms(2), "drop");
        assert!(e.cancel(drop_));
        assert!(!e.cancel(drop_), "double cancel returns false");
        assert!(!e.cancel(EventId(999)), "unknown id returns false");
        let got: Vec<&str> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(got, vec!["keep"]);
    }

    #[test]
    fn cancel_of_fired_event_returns_false() {
        let mut e: TimerWheel<u8> = TimerWheel::new();
        let id = e.schedule(ms(1), 1);
        assert_eq!(e.pop().map(|(_, v)| v), Some(1));
        assert!(!e.cancel(id), "fired events cannot be cancelled");
    }

    #[test]
    fn a_fired_or_cancelled_id_never_cancels_a_later_event() {
        let mut e: TimerWheel<u8> = TimerWheel::new();
        let fired = e.schedule(ms(1), 1);
        let gone = e.schedule(ms(1), 2);
        assert!(e.cancel(gone));
        assert_eq!(e.pop().map(|(_, v)| v), Some(1));
        // Same bucket, same deadline: only the id tells them apart.
        let b = e.schedule(ms(0), 3);
        assert!(!e.cancel(fired), "a fired id misses the later event");
        assert!(!e.cancel(gone), "so does a cancelled one");
        assert_eq!(e.pending(), 1);
        assert!(e.cancel(b), "fresh id still cancels");
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut e: TimerWheel<u32> = TimerWheel::new();
        let ids: Vec<_> = (0..100).map(|i| e.schedule(ms(i % 13), i as u32)).collect();
        assert_eq!(e.pending(), 100);
        for id in ids.iter().step_by(2) {
            assert!(e.cancel(*id));
        }
        assert_eq!(e.pending(), 50, "cancelled events leave the queue");
        let survivors = std::iter::from_fn(|| e.pop()).count();
        assert_eq!(survivors, 50);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn heavy_cancel_interleaving_keeps_order() {
        // Deterministic mixed workload: schedule clusters with colliding
        // times, cancel a swath from the middle, and verify global order.
        let mut e: TimerWheel<usize> = TimerWheel::new();
        let mut ids = Vec::new();
        for i in 0..500usize {
            ids.push(e.schedule(ms((i as u64 * 7) % 41), i));
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 1 {
                assert!(e.cancel(*id));
            }
        }
        let mut last: Option<(SimTime, u64)> = None;
        let mut seen = 0;
        while let Some((t, i)) = e.pop() {
            // Events were scheduled in index order, so index == seq.
            let key = (t, i as u64);
            assert!(Some(key) > last, "pop order is strictly (time, seq)");
            last = Some(key);
            assert_ne!(i % 3, 1, "cancelled events never fire");
            seen += 1;
        }
        let cancelled = (0..500).filter(|i| i % 3 == 1).count();
        assert_eq!(seen, 500 - cancelled);
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut e: TimerWheel<u8> = TimerWheel::new();
        e.schedule(ms(5), 1);
        e.schedule(ms(15), 2);
        assert_eq!(
            e.pop_until(SimTime::from_millis(10)).map(|(_, v)| v),
            Some(1)
        );
        assert_eq!(e.pop_until(SimTime::from_millis(10)), None);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn schedule_at_clamps_to_now() {
        let mut e: TimerWheel<u8> = TimerWheel::new();
        e.schedule(ms(10), 0);
        e.pop();
        e.schedule_at(SimTime::from_millis(1), 9);
        let (t, v) = e.pop().unwrap();
        assert_eq!(v, 9);
        assert_eq!(
            t,
            SimTime::from_millis(10),
            "past events fire now, not earlier"
        );
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut e: TimerWheel<u8> = TimerWheel::new();
        e.advance_to(SimTime::from_millis(50));
        assert_eq!(e.now(), SimTime::from_millis(50));
        e.advance_to(SimTime::from_millis(10));
        assert_eq!(e.now(), SimTime::from_millis(50));
    }

    #[test]
    fn counters_track_activity() {
        let mut e: TimerWheel<u8> = TimerWheel::new();
        e.schedule(ms(1), 1);
        e.schedule(ms(2), 2);
        assert_eq!(e.pending(), 2);
        e.pop();
        assert_eq!(e.events_processed(), 1);
    }

    #[test]
    fn queue_stats_count_schedules_cancels_and_overflow() {
        let mut w: TimerWheel<u8> = TimerWheel::new();
        let near = w.schedule(ms(1), 1);
        w.schedule(ms(2), 2);
        let far = w.schedule(SimDuration::from_secs(120), 3); // beyond the top window
        assert_eq!(w.stats().overflow_len, 1, "far-future entry hit the heap");
        assert!(w.cancel(near));
        assert!(!w.cancel(near), "double cancel is not counted");
        assert!(w.cancel(far), "an overflow entry is found too");
        w.pop();
        let s = w.stats();
        assert_eq!((s.schedules, s.cancels, s.fired, s.pending), (3, 2, 1, 0));
        assert_eq!((s.overflow_len, s.overflow_peak), (0, 1));
    }
}
