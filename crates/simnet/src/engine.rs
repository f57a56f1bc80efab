//! The discrete-event engine.
//!
//! [`TimerWheel`] is a priority queue of timestamped events, generic over
//! the event payload. Ties at the same instant are broken by insertion
//! order (a monotonically increasing sequence number), which makes runs
//! fully deterministic: delivery follows the total order `(at, seq)`.
//!
//! # Storage
//!
//! Pending events are the nodes of one slab whose freed cells the next
//! schedule reuses. A bucket is a `(head, tail)` pair of slab indices, an
//! intrusive list as in Varghese and Lauck's timing wheels, and the
//! overflow heap holds `(at, seq, index)` keys, so what the queue
//! allocates grows with the events it holds, not the time they span.
//! Above level 0 a bucket also keeps the index of its earliest node:
//! [`TimerWheel::peek_time`], which a bounded run calls before every pop,
//! reads that node instead of walking the list.
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
//! [`TimerWheel::take`] is an exact search-and-unlink that costs
//! O(pending). The model checker takes the event it chooses out of time
//! order with it, reading its choices from [`TimerWheel::in_order`];
//! [`TimerWheel::cancel`] is a take whose event is dropped, kept because
//! the benchmark's queue replay calls it, and so that a caller that does
//! start cancelling shows up in `engine.cancels`.

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

/// The slab index that ends a list: an empty bucket holds only `NIL`s.
const NIL: u32 = u32::MAX;

/// One wheel slot: a list through the slab, in filling order.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    /// Above level 0, the node with the earliest deadline, so that a
    /// peek reads it instead of walking the list; `NIL` when empty. A
    /// level-0 slot is one µs wide, so there the head has it.
    min: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
        min: NIL,
    };
}

/// One slab cell: a pending event, or a free cell on the free list.
#[derive(Debug)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// The next node of its bucket or of the free list; `NIL` ends both.
    next: u32,
    /// `None` exactly when the cell is free.
    payload: Option<E>,
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
/// that ships cancels). Scheduling links the event's slab index into the
/// bucket covering its deadline and firing advances along per-level 64-bit
/// occupancy masks, so neither pays a comparison per queue level.
///
/// # Windows, not rotations
///
/// Each level holds one **absolute window** of time: level `l` covers the
/// `64^(l+1)` µs window `win[l]`, divided into 64 slots of `64^l` µs.
/// An event is filed at the lowest level whose current window contains
/// its deadline; events beyond the top window wait in an overflow
/// min-heap. When level 0 drains, the earliest occupied slot of the next
/// occupied level is *cascaded* down one level, narrowing the window (its
/// indices are relinked, no event moves, no bucket owns a buffer);
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
    /// Every pending event, and the free cells listed from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Level-major slots, each a list through `nodes`.
    buckets: Box<[Bucket; WHEEL_LEVELS * WHEEL_SLOTS]>,
    /// `(at, seq, slab index)` of each event past the top-level window.
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
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
        TimerWheel {
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            cancelled: 0,
            pending: 0,
            win: [0; WHEEL_LEVELS],
            occ: [0; WHEEL_LEVELS],
            nodes: Vec::new(),
            free: NIL,
            buckets: Box::new([Bucket::EMPTY; WHEEL_LEVELS * WHEEL_SLOTS]),
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
        let node = Node {
            at,
            seq,
            next: NIL,
            payload: Some(payload),
        };
        let i = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "event slab full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            i => {
                self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
                i
            }
        };
        self.place(i);
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(i) = self.unlink_id(id) else {
            return false;
        };
        self.release(i);
        self.pending -= 1;
        self.cancelled += 1;
        true
    }

    /// Takes a pending event out of the queue, whatever its place, and
    /// counts it fired; the clock does not move. `None` if it already
    /// fired, was taken or was cancelled. A walk of every bucket and the
    /// overflow heap, O(pending): schedule and pop keep no index for it
    /// (see the module docs). After a take the rest still pops in
    /// `(at, seq)` order, but no earlier than the clock only while events
    /// are taken in that order.
    pub fn take(&mut self, id: EventId) -> Option<(SimTime, E)> {
        let i = self.unlink_id(id)?;
        let at = self.nodes[i as usize].at;
        self.pending -= 1;
        self.processed += 1;
        Some((at, self.release(i)))
    }

    /// Every pending event with its id and instant, in `(at, seq)` order:
    /// the first is what [`TimerWheel::pop`] returns next.
    pub fn in_order(&self) -> Vec<(EventId, SimTime, &E)> {
        let mut all: Vec<_> = self.events().collect();
        all.sort_unstable_by_key(|&(id, at, _)| (at, id));
        all
    }

    /// Every pending event with its id and instant, in no particular
    /// order.
    pub fn events(&self) -> impl Iterator<Item = (EventId, SimTime, &E)> {
        let nodes = self.nodes.iter();
        nodes.filter_map(|n| Some((EventId(n.seq), n.at, n.payload.as_ref()?)))
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        // A level pins its window while occupied, so the earliest slot
        // of the lowest occupied level holds the global minimum: its
        // head at level 0, its kept minimum above.
        if let Some(l) = self.occ.iter().position(|&mask| mask != 0) {
            let s = self.occ[l].trailing_zeros() as usize;
            let bucket = &self.buckets[l * WHEEL_SLOTS + s];
            let i = if l == 0 { bucket.head } else { bucket.min };
            return Some(self.nodes[i as usize].at);
        }
        self.overflow.peek().map(|Reverse(top)| top.0)
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
        let i = self.buckets[s].head;
        self.unlink(s, NIL, i);
        let at = self.nodes[i as usize].at;
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        self.pending -= 1;
        self.processed += 1;
        Some((at, self.release(i)))
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

    /// Files node `i` at the lowest level whose current window contains
    /// its deadline, or its key in the overflow heap past the top window.
    fn place(&mut self, i: u32) {
        let node = &self.nodes[i as usize];
        let at = node.at.as_micros();
        for l in 0..WHEEL_LEVELS {
            if at / WHEEL_POW[l + 1] == self.win[l] {
                let s = ((at / WHEEL_POW[l]) % WHEEL_SLOTS as u64) as usize;
                self.link(l, s, i);
                return;
            }
        }
        self.overflow.push(Reverse((node.at, node.seq, i)));
        self.overflow_peak = self.overflow_peak.max(self.overflow.len());
    }

    /// Appends node `i` to the tail of slot `s` of level `l`.
    fn link(&mut self, l: usize, s: usize, i: u32) {
        self.nodes[i as usize].next = NIL;
        let bucket = &mut self.buckets[l * WHEEL_SLOTS + s];
        match bucket.tail {
            NIL => bucket.head = i,
            tail => {
                debug_assert!(
                    l > 0 || self.nodes[tail as usize].seq < self.nodes[i as usize].seq,
                    "level-0 bucket lost its (at, seq) order"
                );
                self.nodes[tail as usize].next = i;
            }
        }
        bucket.tail = i;
        if l > 0
            && (bucket.min == NIL || self.nodes[i as usize].at < self.nodes[bucket.min as usize].at)
        {
            bucket.min = i;
        }
        self.occ[l] |= 1u64 << s;
    }

    /// Frees slab cell `i` onto the free list and hands back its payload.
    fn release(&mut self, i: u32) -> E {
        let node = &mut self.nodes[i as usize];
        node.next = self.free;
        self.free = i;
        node.payload.take().expect("a linked node holds its event")
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
        // Relink the batch in source order.
        let source = std::mem::replace(&mut self.buckets[l * WHEEL_SLOTS + s], Bucket::EMPTY);
        let mut i = source.head;
        while i != NIL {
            let node = &self.nodes[i as usize];
            let next = node.next;
            let s2 = ((node.at.as_micros() / WHEEL_POW[l - 1]) % WHEEL_SLOTS as u64) as usize;
            self.link(l - 1, s2, i);
            i = next;
        }
        true
    }

    /// Re-centres every window on the overflow heap's minimum and moves
    /// the heap's prefix that falls inside the top window into the
    /// wheel. Returns `false` when the heap is empty too.
    fn rebase(&mut self) -> bool {
        let Some(&Reverse((first, _, _))) = self.overflow.peek() else {
            return false;
        };
        let m = first.as_micros();
        for l in 0..WHEEL_LEVELS {
            self.win[l] = m / WHEEL_POW[l + 1];
        }
        while let Some(&Reverse((at, _, i))) = self.overflow.peek() {
            if at.as_micros() / WHEEL_POW[WHEEL_LEVELS] != self.win[WHEEL_LEVELS - 1] {
                break;
            }
            self.overflow.pop();
            self.place(i);
        }
        true
    }

    /// Unlinks the pending event `id` from whichever bucket or heap
    /// holds it, keeping the bucket's order, and returns its slab index.
    fn unlink_id(&mut self, id: EventId) -> Option<u32> {
        let seq = id.0;
        for b in 0..self.buckets.len() {
            let (mut prev, mut i) = (NIL, self.buckets[b].head);
            while i != NIL && self.nodes[i as usize].seq != seq {
                (prev, i) = (i, self.nodes[i as usize].next);
            }
            if i != NIL {
                self.unlink(b, prev, i);
                return Some(i);
            }
        }
        let &Reverse((_, _, i)) = self.overflow.iter().find(|Reverse(k)| k.1 == seq)?;
        self.overflow.retain(|Reverse(k)| k.1 != seq);
        Some(i)
    }

    /// Unlinks node `i`, after `prev` (`NIL`: the head), from bucket `b`.
    fn unlink(&mut self, b: usize, prev: u32, i: u32) {
        let next = self.nodes[i as usize].next;
        let bucket = &mut self.buckets[b];
        match prev {
            NIL => bucket.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        if next == NIL {
            bucket.tail = prev;
        }
        if bucket.head == NIL {
            bucket.min = NIL;
            self.occ[b / WHEEL_SLOTS] &= !(1u64 << (b % WHEEL_SLOTS));
        } else if bucket.min == i {
            // Only a take takes a minimum from a list it leaves behind.
            let head = bucket.head;
            self.buckets[b].min = self.earliest(head);
        }
    }

    /// The node with the earliest deadline in the list from `i`.
    fn earliest(&self, mut i: u32) -> u32 {
        let mut min = i;
        while i != NIL {
            if self.nodes[i as usize].at < self.nodes[min as usize].at {
                min = i;
            }
            i = self.nodes[i as usize].next;
        }
        min
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

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    /// Slab cells in use or free: the high-water mark of pending events.
    fn slab_len<E>(w: &TimerWheel<E>) -> usize {
        w.nodes.len()
    }

    /// Everything left, as `(at µs, payload)` in pop order.
    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| w.pop().map(|(t, v)| (t.as_micros(), v))).collect()
    }

    #[test]
    fn cancelling_head_middle_and_tail_of_a_level0_bucket_keeps_its_list() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let ids: Vec<_> = (0..5).map(|v| w.schedule_at(us(10), v)).collect();
        w.schedule_at(us(20), 9);
        assert_eq!(
            w.occ,
            [(1 << 10) | (1 << 20), 0, 0, 0],
            "one level-0 bucket"
        );
        for v in [0, 2, 4] {
            assert!(w.cancel(ids[v]), "cancel {v}");
        }
        // The tail was cancelled: a new entry must follow the old middle.
        w.schedule_at(us(10), 5);
        assert_eq!(drain(&mut w), [(10, 1), (10, 3), (10, 5), (20, 9)]);

        // A bucket emptied by cancels alone leaves its occupancy bit.
        let only = w.schedule_at(us(30), 6);
        w.schedule_at(us(40), 7);
        assert!(w.cancel(only));
        assert_eq!(w.peek_time(), Some(us(40)));
        assert_eq!(drain(&mut w), [(40, 7)]);
    }

    #[test]
    fn cancelling_head_middle_and_tail_of_a_level2_bucket_before_it_cascades() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // Level-2 slot 24 spans [98 304, 102 400) µs; these deadlines
        // differ, so the bucket's list is not in `(at, seq)` order.
        let at = [100_000, 99_000, 101_000, 99_000, 100_500];
        let ids: Vec<_> = (0..5).map(|v| w.schedule_at(us(at[v]), v as u32)).collect();
        assert_eq!(w.occ, [0, 0, 1 << 24, 0], "one level-2 bucket");
        for v in [0, 2, 4] {
            assert!(w.cancel(ids[v]), "cancel {v}");
        }
        w.schedule_at(us(100_000), 5);
        w.schedule_at(us(99_000), 6);
        assert_eq!(w.occ, [0, 0, 1 << 24, 0], "still one level-2 bucket");
        assert_eq!(w.peek_time(), Some(us(99_000)));
        assert_eq!(
            drain(&mut w),
            [(99_000, 1), (99_000, 3), (99_000, 6), (100_000, 5)]
        );
    }

    #[test]
    fn freed_cells_are_reused() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut x = 1986u64;
        for v in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            w.schedule(SimDuration::from_micros((x >> 33) % 20_000_000), v);
            if w.pending() == 64 {
                w.pop();
            }
        }
        assert_eq!(w.stats().schedules, 10_000);
        assert!(slab_len(&w) <= 64, "slab grew to {}", slab_len(&w));
        assert_eq!(drain(&mut w).len(), 63);
    }
}
