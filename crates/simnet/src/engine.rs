//! The discrete-event engine.
//!
//! [`Engine`] is a priority queue of timestamped events, generic over the
//! event payload. Ties at the same instant are broken by insertion order
//! (a monotonically increasing sequence number), which makes runs fully
//! deterministic.
//!
//! # Implementation
//!
//! The queue is an **index-tracked 4-ary min-heap** over a **generational
//! slot arena**: a flat `Vec` ordered by `(time, seq)` whose entries each
//! carry the index of a slot in a side arena, and the slot records where
//! its entry currently sits in the heap. [`EventId`] packs
//! `generation << 32 | slot`, so a cancel is two bounds-checked `Vec`
//! reads (stale generations from fired or cancelled events simply miss)
//! and every swap along a sift path costs one plain `Vec` write — no
//! hashing anywhere on the schedule/cancel/pop path. Slots are recycled
//! through a free list, so long runs settle into a working set the size
//! of the pending window. The index makes [`Engine::cancel`] a true
//! O(log n) removal — the event leaves the heap immediately instead of
//! lingering as a tombstone until it surfaces — so [`Engine::pending`] is
//! exact and [`Engine::pop`] never grinds through dead entries.
//! Timer-heavy workloads (retransmit timers, TTL checks, handler
//! timeouts) cancel far more events than they fire, which is what this
//! layout is tuned for: a 4-ary heap halves the tree depth of a binary
//! heap and keeps each node's children in one cache line's reach.
//!
//! Ordering is the same total order `(at, seq)` the previous
//! `BinaryHeap`-based engine used, so event delivery order — and thus
//! every simulation trace — is bit-for-bit identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifier handed back by [`Engine::schedule`], usable to cancel the
/// event before it fires.
///
/// Internally the [`Engine`] packs `generation << 32 | arena slot`; the
/// [`TimerWheel`] stores its sequence number. Both are opaque: the only
/// operations an id supports are being handed back to the queue it came
/// from, or round-tripping through its raw `u64` (for embedding in a
/// backend-neutral `ppm_runtime::sys::TimerHandle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// The packed representation, for embedding in an opaque handle.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from [`EventId::raw`]. A value that did not come
    /// from `raw` simply never matches a live event.
    pub fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }
}

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
    /// Entries currently waiting in the overflow heap (wheel only).
    pub overflow_len: usize,
    /// High-water mark of the overflow heap (wheel only).
    pub overflow_peak: usize,
}

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    /// Arena slot backing this entry's [`EventId`].
    slot: u32,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The total order: earliest time first, insertion order within a tie.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Arena-side record of one live event: which generation of the slot is
/// current and where the entry sits in the heap. The generation advances
/// every time the slot is retired (fire or cancel), so stale ids held by
/// callers can never alias a recycled slot — short of 2^32 reuses of the
/// same slot between a schedule and its cancel, which no bounded run
/// approaches.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    gen: u32,
    pos: u32,
}

/// Number of children per heap node. Four keeps sift-down comparisons
/// cache-friendly and halves the depth of a binary heap.
const ARITY: usize = 4;

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use ppm_simnet::engine::Engine;
/// use ppm_simnet::time::{SimDuration, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule(SimDuration::from_millis(5), "later");
/// engine.schedule(SimDuration::from_millis(1), "sooner");
///
/// let (t, ev) = engine.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "sooner"));
/// let (t, ev) = engine.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(5), "later"));
/// assert!(engine.pop().is_none());
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    /// 4-ary min-heap ordered by `(at, seq)`.
    heap: Vec<Scheduled<E>>,
    /// Generational slot arena: one entry per slot ever allocated, live
    /// or free. Indexed by the low 32 bits of an [`EventId`].
    slots: Vec<SlotMeta>,
    /// Retired slots available for reuse, LIFO for cache warmth.
    free: Vec<u32>,
    processed: u64,
    cancelled: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            processed: 0,
            cancelled: 0,
        }
    }

    /// Lifetime activity counters (`seq` counts every schedule).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            schedules: self.seq,
            cancels: self.cancelled,
            fired: self.processed,
            pending: self.heap.len(),
            overflow_len: 0,
            overflow_peak: 0,
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

    /// Number of live events currently pending. Cancelled events leave
    /// the queue immediately and are never counted.
    pub fn pending(&self) -> usize {
        self.heap.len()
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
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(SlotMeta { gen: 0, pos: 0 });
                s
            }
        };
        let pos = self.heap.len();
        self.heap.push(Scheduled {
            at,
            seq,
            slot,
            payload,
        });
        self.slots[slot as usize].pos = pos as u32;
        self.sift_up(pos);
        EventId(u64::from(self.slots[slot as usize].gen) << 32 | u64::from(slot))
    }

    /// Cancels a previously scheduled event, removing it from the queue
    /// in O(log n).
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = (id.0 & u64::from(u32::MAX)) as u32;
        let gen = (id.0 >> 32) as u32;
        match self.slots.get(slot as usize) {
            // A matching generation means the slot has not been retired
            // since this id was issued: the event is still pending.
            Some(meta) if meta.gen == gen => {
                let pos = meta.pos as usize;
                self.retire(slot);
                self.remove_at(pos);
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.first().map(|s| s.at)
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let slot = self.heap[0].slot;
        self.retire(slot);
        let s = self.remove_at(0);
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.payload))
    }

    /// Pops the next live event only if it fires at or before `horizon`.
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

    /// Retires `slot`: advances its generation (invalidating the issued
    /// id) and returns it to the free list.
    #[inline]
    fn retire(&mut self, slot: u32) {
        let meta = &mut self.slots[slot as usize];
        meta.gen = meta.gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Removes and returns the element at heap position `pos`, restoring
    /// the heap order around the hole. The caller retires the removed
    /// element's slot; this method fixes the arena position of every
    /// element it moves.
    fn remove_at(&mut self, pos: usize) -> Scheduled<E> {
        let last = self.heap.len() - 1;
        if pos == last {
            return self.heap.pop().expect("pos in bounds");
        }
        self.heap.swap(pos, last);
        let removed = self.heap.pop().expect("pos in bounds");
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
        // The swapped-in tail can be out of order in either direction
        // relative to its new neighborhood.
        let pos = self.sift_down(pos);
        self.sift_up(pos);
        removed
    }

    /// Moves the element at `pos` toward the root until its parent is no
    /// larger.
    ///
    /// The sifted element's key is fixed for the whole walk, so it is read
    /// once; each displaced parent gets exactly one index write, and the
    /// sifted element one final write (none at all if it never moves).
    fn sift_up(&mut self, pos: usize) -> usize {
        let key = self.heap[pos].key();
        let start = pos;
        let mut pos = pos;
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if key >= self.heap[parent].key() {
                break;
            }
            self.heap.swap(pos, parent);
            // The displaced parent now sits at `pos`.
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            pos = parent;
        }
        if pos != start {
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
        }
        pos
    }

    /// Moves the element at `pos` toward the leaves until no child is
    /// smaller. Same index-write discipline as [`Engine::sift_up`].
    fn sift_down(&mut self, pos: usize) -> usize {
        let key = self.heap[pos].key();
        let start = pos;
        let mut pos = pos;
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let last_child = (first_child + ARITY).min(self.heap.len());
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for child in first_child + 1..last_child {
                let child_key = self.heap[child].key();
                if child_key < best_key {
                    best = child;
                    best_key = child_key;
                }
            }
            if best_key >= key {
                break;
            }
            self.heap.swap(pos, best);
            // The displaced child now sits at `pos`.
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            pos = best;
        }
        if pos != start {
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
        }
        pos
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timer wheel
// ---------------------------------------------------------------------------

/// Liveness ledger for wheel entries, keyed by the wheel's monotone
/// schedule sequence number: a windowed bitset over `[base·64, ∞)`.
///
/// The wheel consults liveness on every pop, cascade and peek — one test
/// per entry visited — and a hash set's probe sequence was the single
/// hottest line of the retransmit profile. Sequence numbers are dense
/// and monotone, and the span between the oldest live timer and the
/// newest schedule is bounded by the event rate times the longest armed
/// timer, so a deque of 64-bit words indexed by `seq / 64` makes
/// insert/remove/contains one shift-and-mask each. The front word is
/// popped as soon as it drains, keeping memory proportional to the live
/// span rather than the cumulative schedule count.
#[derive(Debug, Default)]
struct SeqSet {
    /// Word index of `words[0]`: bit `seq % 64` of
    /// `words[seq / 64 - base]` says whether `seq` is live.
    base: u64,
    words: std::collections::VecDeque<u64>,
    live: usize,
}

impl SeqSet {
    /// Marks a freshly issued sequence number live. `seq` is monotone,
    /// so it always lands at (or past) the back of the window.
    #[inline]
    fn insert(&mut self, seq: u64) {
        let w = seq / 64;
        if self.words.is_empty() {
            self.base = w;
        }
        debug_assert!(w >= self.base, "sequence numbers are monotone");
        let idx = (w - self.base) as usize;
        if idx >= self.words.len() {
            self.words.resize(idx + 1, 0);
        }
        self.words[idx] |= 1u64 << (seq % 64);
        self.live += 1;
    }

    #[inline]
    fn contains(&self, seq: u64) -> bool {
        let w = seq / 64;
        if w < self.base {
            return false;
        }
        let idx = (w - self.base) as usize;
        idx < self.words.len() && self.words[idx] & (1u64 << (seq % 64)) != 0
    }

    /// Clears a bit; returns whether it was set. Drained front words are
    /// released so the window tracks the oldest live entry.
    #[inline]
    fn remove(&mut self, seq: u64) -> bool {
        let w = seq / 64;
        if w < self.base {
            return false;
        }
        let idx = (w - self.base) as usize;
        if idx >= self.words.len() {
            return false;
        }
        let bit = 1u64 << (seq % 64);
        if self.words[idx] & bit == 0 {
            return false;
        }
        self.words[idx] &= !bit;
        self.live -= 1;
        if idx == 0 {
            while self.words.front() == Some(&0) {
                self.words.pop_front();
                self.base += 1;
            }
        }
        true
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }
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
/// wheel**, with the same API and the same `(time, seq)` total order as
/// [`Engine`] — the two are interchangeable and produce bit-identical
/// event sequences.
///
/// # Why a wheel
///
/// The RPC layer arms a timer per send attempt plus housekeeping, TTL and
/// retention timers, and cancels far more of them than it lets fire. On
/// the indexed heap every cancel is an O(log n) removal that rewrites the
/// position index along the sift path. Here a cancel is one hash-set
/// removal: the entry simply stops being *alive*, and its slot storage is
/// reclaimed lazily when the slot is next visited. Scheduling is O(1) —
/// drop the event into the bucket covering its deadline — and firing
/// advances along per-level 64-bit occupancy masks.
///
/// # Windows, not rotations
///
/// Each level holds one **absolute window** of time: level `l` covers the
/// `64^(l+1)` µs window `win[l]`, divided into 64 slots of `64^l` µs.
/// An event is filed at the lowest level whose current window contains
/// its deadline; events beyond the top window wait in an overflow
/// min-heap ("the heap retained for far-future events"). When level 0
/// drains, the earliest occupied slot of the next occupied level is
/// *cascaded* down one level, narrowing the window; when the whole wheel
/// drains, the windows are rebased around the overflow heap's minimum and
/// the heap's matching prefix migrates in. Keying windows by absolute
/// position (rather than a rotating cursor) means a slot index comparison
/// is always a time comparison, so the earliest-first scan is exact.
///
/// # Examples
///
/// ```
/// use ppm_simnet::engine::TimerWheel;
/// use ppm_simnet::time::{SimDuration, SimTime};
///
/// let mut wheel: TimerWheel<&str> = TimerWheel::new();
/// wheel.schedule(SimDuration::from_millis(5), "later");
/// let keep = wheel.schedule(SimDuration::from_millis(1), "sooner");
/// let drop_ = wheel.schedule(SimDuration::from_secs(120), "far future");
/// assert!(wheel.cancel(drop_));
///
/// let (t, ev) = wheel.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "sooner"));
/// let _ = keep;
/// ```
#[derive(Debug)]
pub struct TimerWheel<E> {
    now: SimTime,
    seq: u64,
    processed: u64,
    /// Current absolute window per level: every entry stored at level `l`
    /// satisfies `at / WHEEL_POW[l + 1] == win[l]`.
    win: [u64; WHEEL_LEVELS],
    /// Per-level slot-occupancy bitmasks (bit `s` = slot `s` may hold
    /// live entries; cleared lazily when a visit finds only dead ones).
    occ: [u64; WHEEL_LEVELS],
    /// `WHEEL_LEVELS * WHEEL_SLOTS` buckets, level-major.
    slots: Vec<Vec<WheelEntry<E>>>,
    /// Events past the top-level window, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<FarEntry<E>>>,
    /// Scheduled, not yet fired, not cancelled. Cancel is a bit-clear
    /// here; slot storage drops the corpse when it next visits the
    /// bucket.
    alive: SeqSet,
    cancelled: u64,
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
            win: [0; WHEEL_LEVELS],
            occ: [0; WHEEL_LEVELS],
            slots,
            overflow: BinaryHeap::new(),
            alive: SeqSet::default(),
            cancelled: 0,
            overflow_peak: 0,
        }
    }

    /// Lifetime activity counters (`seq` counts every schedule). The
    /// overflow length includes cancelled entries not yet reclaimed; the
    /// peak tracks the heap's high-water mark.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            schedules: self.seq,
            cancels: self.cancelled,
            fired: self.processed,
            pending: self.alive.len(),
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

    /// Number of live events currently pending. Cancelled events leave
    /// the count immediately and are never counted.
    pub fn pending(&self) -> usize {
        self.alive.len()
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
        self.alive.insert(seq);
        self.place(WheelEntry { at, seq, payload });
        EventId(seq)
    }

    /// Cancels a previously scheduled event in O(1).
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.alive.remove(id.0);
        self.cancelled += u64::from(hit);
        hit
    }

    /// Timestamp of the next live event, if any.
    ///
    /// Reads the structure without moving any window (dead entries found
    /// along the way are reclaimed), so interleaved peeks and schedules
    /// cannot perturb placement.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        for l in 0..WHEEL_LEVELS {
            let mut mask = self.occ[l];
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                // Read-only scan for the earliest live entry; a bucket
                // that turns out all-dead is reclaimed on the spot.
                let alive = &self.alive;
                let min = self.slots[l * WHEEL_SLOTS + s]
                    .iter()
                    .filter(|e| alive.contains(e.seq))
                    .map(|e| e.at)
                    .min();
                match min {
                    Some(t) => return Some(t),
                    None => {
                        self.slots[l * WHEEL_SLOTS + s].clear();
                        self.occ[l] &= !(1u64 << s);
                    }
                }
            }
            // A level pins its window while occupied, so the earliest
            // live slot of the lowest occupied level is the global min.
        }
        while let Some(Reverse(top)) = self.overflow.peek() {
            if self.alive.contains(top.0.seq) {
                return Some(top.0.at);
            }
            self.overflow.pop();
        }
        None
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            // Level 0: fire the earliest live slot. Slots are one µs
            // wide, so every entry in a bucket shares `at`, and buckets
            // hold their live entries in ascending `seq` order: `place`
            // appends monotonically increasing sequence numbers, a
            // cascade batch preserves its source slot's order, and a
            // rebase migrates the overflow prefix in `(at, seq)` order —
            // while a window is only ever repopulated after the level
            // has fully drained. The first live entry is therefore the
            // `(at, seq)` minimum, and the dead prefix in front of it is
            // reclaimed in the same pass.
            let mut mask = self.occ[0];
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let bucket = &mut self.slots[s];
                let mut i = 0;
                while i < bucket.len() && !self.alive.contains(bucket[i].seq) {
                    i += 1;
                }
                if i == bucket.len() {
                    bucket.clear();
                    self.occ[0] &= !(1u64 << s);
                    continue;
                }
                debug_assert!(
                    bucket[i..]
                        .iter()
                        .filter(|e| self.alive.contains(e.seq))
                        .all(|e| (e.at, e.seq) >= (bucket[i].at, bucket[i].seq)),
                    "level-0 bucket lost its (at, seq) order"
                );
                let e = bucket.drain(..=i).next_back().expect("live entry");
                if bucket.is_empty() {
                    self.occ[0] &= !(1u64 << s);
                }
                self.alive.remove(e.seq);
                debug_assert!(e.at >= self.now, "event queue time went backwards");
                self.now = e.at;
                self.processed += 1;
                return Some((e.at, e.payload));
            }
            // Level 0 is dry: cascade the earliest live slot of the
            // lowest occupied level down one level, narrowing its window.
            if self.cascade_once() {
                continue;
            }
            // Whole wheel is dry: rebase the windows around the overflow
            // minimum and migrate the heap's matching prefix in.
            while let Some(Reverse(top)) = self.overflow.peek() {
                if self.alive.contains(top.0.seq) {
                    break;
                }
                self.overflow.pop();
            }
            let Reverse(top) = self.overflow.peek()?;
            let m = top.0.at.as_micros();
            for l in 0..WHEEL_LEVELS {
                self.win[l] = m / WHEEL_POW[l + 1];
            }
            while let Some(Reverse(top)) = self.overflow.peek() {
                if top.0.at.as_micros() / WHEEL_POW[WHEEL_LEVELS] != self.win[WHEEL_LEVELS - 1] {
                    break;
                }
                let Reverse(FarEntry(e)) = self.overflow.pop().expect("peeked entry");
                if self.alive.contains(e.seq) {
                    self.place(e);
                }
            }
        }
    }

    /// Pops the next live event only if it fires at or before `horizon`.
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

    /// Moves the earliest live slot of the lowest occupied level down one
    /// level. Returns `false` when the wheel holds no live entries.
    fn cascade_once(&mut self) -> bool {
        for l in 1..WHEEL_LEVELS {
            let mut mask = self.occ[l];
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.occ[l] &= !(1u64 << s);
                let alive = &self.alive;
                if !self.slots[l * WHEEL_SLOTS + s]
                    .iter()
                    .any(|e| alive.contains(e.seq))
                {
                    self.slots[l * WHEEL_SLOTS + s].clear();
                    continue;
                }
                self.win[l - 1] = self.win[l] * WHEEL_SLOTS as u64 + s as u64;
                // Distribute the batch in source order, dropping corpses
                // on the way instead of paying a separate cleaning pass.
                let mut entries = std::mem::take(&mut self.slots[l * WHEEL_SLOTS + s]);
                for e in entries.drain(..) {
                    if !self.alive.contains(e.seq) {
                        continue;
                    }
                    let s2 = ((e.at.as_micros() / WHEEL_POW[l - 1]) % WHEEL_SLOTS as u64) as usize;
                    self.slots[(l - 1) * WHEEL_SLOTS + s2].push(e);
                    self.occ[l - 1] |= 1u64 << s2;
                }
                // The slot keeps its (now empty) buffer for its next turn
                // of the wheel.
                self.slots[l * WHEEL_SLOTS + s] = entries;
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
        let mut e: Engine<u32> = Engine::new();
        e.schedule(ms(30), 3);
        e.schedule(ms(10), 1);
        e.schedule(ms(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule(ms(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn relative_delays_accumulate_from_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(ms(10), "a");
        e.pop();
        e.schedule(ms(10), "b");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(20));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut e: Engine<&str> = Engine::new();
        let keep = e.schedule(ms(1), "keep");
        let drop_ = e.schedule(ms(2), "drop");
        assert!(e.cancel(drop_));
        assert!(!e.cancel(drop_), "double cancel returns false");
        assert!(!e.cancel(EventId(999)), "unknown id returns false");
        let got: Vec<&str> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(got, vec!["keep"]);
        let _ = keep;
    }

    #[test]
    fn cancel_of_fired_event_returns_false() {
        let mut e: Engine<u8> = Engine::new();
        let id = e.schedule(ms(1), 1);
        assert_eq!(e.pop().map(|(_, v)| v), Some(1));
        assert!(!e.cancel(id), "fired events cannot be cancelled");
    }

    #[test]
    fn stale_ids_never_alias_recycled_slots() {
        let mut e: Engine<u8> = Engine::new();
        let a = e.schedule(ms(1), 1);
        assert_eq!(e.pop().map(|(_, v)| v), Some(1));
        // The freed slot is recycled with a bumped generation.
        let b = e.schedule(ms(2), 2);
        assert!(!e.cancel(a), "stale id misses the recycled slot");
        assert!(e.cancel(b), "fresh id still cancels");
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut e: Engine<u32> = Engine::new();
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
        let mut e: Engine<usize> = Engine::new();
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
        let mut e: Engine<u8> = Engine::new();
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
        let mut e: Engine<u8> = Engine::new();
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
        let mut e: Engine<u8> = Engine::new();
        e.advance_to(SimTime::from_millis(50));
        assert_eq!(e.now(), SimTime::from_millis(50));
        e.advance_to(SimTime::from_millis(10));
        assert_eq!(e.now(), SimTime::from_millis(50));
    }

    #[test]
    fn counters_track_activity() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule(ms(1), 1);
        e.schedule(ms(2), 2);
        assert_eq!(e.pending(), 2);
        e.pop();
        assert_eq!(e.events_processed(), 1);
    }

    #[test]
    fn queue_stats_count_schedules_cancels_and_overflow() {
        let mut e: Engine<u8> = Engine::new();
        let id = e.schedule(ms(1), 1);
        e.schedule(ms(2), 2);
        assert!(e.cancel(id));
        assert!(!e.cancel(id), "double cancel is not counted");
        e.pop();
        let s = e.stats();
        assert_eq!((s.schedules, s.cancels, s.fired, s.pending), (2, 1, 1, 0));

        let mut w: TimerWheel<u8> = TimerWheel::new();
        let id = w.schedule(ms(1), 1);
        w.schedule(SimDuration::from_secs(120), 2); // beyond the top window
        assert!(w.cancel(id));
        let s = w.stats();
        assert_eq!((s.schedules, s.cancels, s.fired), (2, 1, 0));
        assert_eq!(s.overflow_peak, 1, "far-future entry hit the heap");
        assert_eq!(s.pending, 1);
    }
}
