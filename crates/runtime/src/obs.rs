//! Observability: a metrics registry, a span log, and the one hub every
//! backend keeps them in.
//!
//! Both are deterministic by construction — they record only simulated
//! time and values derived from simulation state, so a same-seed run
//! produces byte-identical snapshots. Registration interns static names
//! into dense indices; the hot-path operations ([`Registry::inc`],
//! [`Registry::add`], [`Registry::set`], [`Registry::record`]) are a
//! bounds-checked array access plus a relaxed atomic add, cheap enough to
//! stay enabled in benchmark runs (`runtime.obs.record_ns_per_op` in
//! `benchmark/`) while remaining safe to sample from another thread.
//!
//! The span log mirrors [`crate::trace::TraceLog`]: correlation-stamped
//! begin/end records that higher layers export as JSONL or a Chrome
//! `trace_event` file. Spans reuse the RPC wire identity (`origin#id` for
//! directed requests, `origin@seq` for broadcast waves), so one request
//! can be followed hop-by-hop across hosts.
//!
//! [`ObsHub`] is where a world keeps all of it — the trace log, the span
//! log, the backend's own registry and the registries programs publish.
//! Every backend owns exactly one (the simulated world and the checker
//! as a field, the real cluster behind its lock) and hands it out as a
//! [`HubRef`]; what is recorded, and in what format, is decided here and
//! in [`crate::sys::Sys`], never in a backend.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, MutexGuard};

use crate::ids::HostId;
use crate::time::SimTime;
use crate::trace::TraceLog;

/// A shared handle to a program-owned metrics registry.
///
/// Programs own their registries and register a shared handle with the
/// world's observability hub, so harnesses can sample every registry at
/// end of run without protocol traffic. The handle is a plain
/// `Arc<Registry>`: updates go through `&self` relaxed atomics (the real
/// backend runs each node's event loop on its own thread, so the handle
/// must be `Send + Sync`, and a per-update lock would tax the LPM hot
/// path), while registration needs `&mut self` — sealing a registry into
/// an `Arc` is what freezes its metric set.
pub type SharedRegistry = Arc<Registry>;

/// Number of log2 histogram buckets. Bucket `i` (for `i >= 1`) counts
/// values in `[2^(i-1), 2^i)`; bucket 0 counts zeros and ones. 40 buckets
/// cover a microsecond-valued range up to ~2^39 µs ≈ 6.4 simulated days.
pub const HIST_BUCKETS: usize = 40;

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// A fixed-bucket log2 histogram: per-bucket counts plus total count and
/// sum, enough to reconstruct a latency distribution without storing
/// samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket counts; bucket `i` holds values with `bit_len(v) == i`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Hist {
    /// Bucket index of a value: its bit length, clamped to the top bucket.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }
}

/// A snapshot value of one metric.
///
/// Snapshot-only type (one allocation per hist per export), so the
/// boxed histogram costs nothing on the hot path while keeping the
/// enum small for the common counter/gauge samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time level.
    Gauge(i64),
    /// Log2 histogram.
    Hist(Box<Hist>),
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Interned metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// A histogram's live cells: per-bucket counts plus total count and sum,
/// all relaxed atomics so recording takes `&self`.
#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl HistCells {
    #[inline]
    fn record(&self, v: u64) {
        self.buckets[Hist::bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        // A plain wrapping add, not a saturating CAS loop: recorded values
        // are microsecond-scale latencies, so overflowing u64 would take
        // ~10^13 years of simulated time. The snapshot still renders a
        // saturating `Hist`.
        self.sum.fetch_add(v, Relaxed);
    }

    fn load(&self) -> Hist {
        let mut h = Hist::default();
        for (out, cell) in h.buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Relaxed);
        }
        h.count = self.count.load(Relaxed);
        h.sum = self.sum.load(Relaxed);
        h
    }
}

/// A low-overhead metrics registry.
///
/// Metrics are registered once (typically at program start) under static
/// names and updated through the returned dense ids; a snapshot walks the
/// registry in sorted-name order so its rendering is reproducible.
///
/// Registration takes `&mut self`; updates and snapshots take `&self`
/// over relaxed atomics. Sealing a registry into a [`SharedRegistry`]
/// with [`Registry::into_shared`] therefore freezes its metric set while
/// leaving it updatable from the owning program and sampleable from a
/// harness thread, lock-free on both sides. Relaxed ordering suffices:
/// each metric is independent, the owner is the only writer, and
/// end-of-run samplers read after joining (or quiescing) the owner.
///
/// # Examples
///
/// ```
/// use ppm_runtime::obs::Registry;
///
/// let mut reg = Registry::new();
/// let sends = reg.counter("net.sends");
/// let rtt = reg.hist("net.rtt_us");
/// reg.inc(sends);
/// reg.record(rtt, 1_500);
/// let snap = reg.snapshot();
/// assert_eq!(snap.len(), 2);
/// assert_eq!(snap[0].name, "net.rtt_us"); // sorted by name
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(&'static str, AtomicU64)>,
    hists: Vec<(&'static str, HistCells)>,
}

impl Clone for Registry {
    /// Clones current values into a fresh, independent registry.
    fn clone(&self) -> Self {
        Registry {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (*n, AtomicU64::new(v.load(Relaxed))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| {
                    let fresh = HistCells::default();
                    let now = h.load();
                    for (cell, v) in fresh.buckets.iter().zip(now.buckets) {
                        cell.store(v, Relaxed);
                    }
                    fresh.count.store(now.count, Relaxed);
                    fresh.sum.store(now.sum, Relaxed);
                    (*n, fresh)
                })
                .collect(),
        }
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Seals this registry into a [`SharedRegistry`] handle. No further
    /// metrics can be registered once shared.
    pub fn into_shared(self) -> SharedRegistry {
        Arc::new(self)
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name, AtomicU64::new(0)));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Registers (or finds) a histogram by name.
    pub fn hist(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == name) {
            return HistId(i as u32);
        }
        self.hists.push((name, HistCells::default()));
        HistId((self.hists.len() - 1) as u32)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.counters[id.0 as usize].1.fetch_add(1, Relaxed);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].1.fetch_add(n, Relaxed);
    }

    /// A counter's current value.
    #[inline]
    pub fn count(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1.load(Relaxed)
    }

    /// Records one histogram value.
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        self.hists[id.0 as usize].1.record(v);
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out: Vec<MetricSample> = Vec::with_capacity(self.counters.len() + self.hists.len());
        for (name, v) in &self.counters {
            out.push(MetricSample {
                name,
                value: MetricValue::Counter(v.load(Relaxed)),
            });
        }
        for (name, h) in &self.hists {
            out.push(MetricSample {
                name,
                value: MetricValue::Hist(Box::new(h.load())),
            });
        }
        out.sort_by(|a, b| a.name.cmp(b.name));
        out
    }
}

// ---------------------------------------------------------------------------
// Structured spans
// ---------------------------------------------------------------------------

/// Whether a span record opens or closes the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// The span opens at this instant.
    Begin,
    /// The span closes at this instant.
    End,
}

/// One begin/end record of a correlation-stamped span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Simulated instant of the record.
    pub at: SimTime,
    /// Host the record was emitted on, when host-local.
    pub host: Option<HostId>,
    /// Span kind, e.g. `"req"`, `"bcast.relay"`, `"probe"`.
    pub name: &'static str,
    /// Correlation identity shared by every record of the same logical
    /// operation across hosts: the RPC wire key (`origin#id`) or the
    /// broadcast stamp key (`origin@seq`).
    pub corr: String,
    /// Opens or closes.
    pub phase: SpanPhase,
}

/// An append-only log of span records, disabled by default so untraced
/// runs pay only a branch per emission.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    events: Vec<SpanEvent>,
    enabled: bool,
}

impl SpanLog {
    /// Creates a disabled log (records are dropped until enabled).
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Whether records are currently kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Appends a record. A disabled log returns before looking at
    /// `corr`, so nothing is formatted.
    pub fn record(
        &mut self,
        at: SimTime,
        host: Option<HostId>,
        name: &'static str,
        corr: fmt::Arguments<'_>,
        phase: SpanPhase,
    ) {
        if self.enabled {
            self.events.push(SpanEvent {
                at,
                host,
                name,
                corr: corr.to_string(),
                phase,
            });
        }
    }

    /// All recorded span events, in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// Everything one world records about itself.
#[derive(Debug)]
pub struct ObsHub {
    /// The activity trace.
    pub trace: TraceLog,
    /// Correlation-stamped span records from every host.
    pub spans: SpanLog,
    /// The backend's own metrics (the simulation's kernel event path and
    /// network model; empty elsewhere).
    pub registry: Registry,
    /// Registries programs published, keyed by a caller-chosen label (an
    /// LPM uses `"host/uid"`).
    programs: Vec<(String, SharedRegistry)>,
}

impl ObsHub {
    /// A hub with span recording off and tracing as given.
    pub fn new(trace: bool) -> Self {
        let mut log = TraceLog::disabled();
        log.set_enabled(trace);
        ObsHub {
            trace: log,
            spans: SpanLog::new(),
            registry: Registry::new(),
            programs: Vec::new(),
        }
    }

    /// Publishes a program registry under `label`. A label registered
    /// before is replaced in place, so a respawned LPM shadows its
    /// predecessor.
    pub fn register(&mut self, label: String, registry: SharedRegistry) {
        match self.programs.iter_mut().find(|(l, _)| *l == label) {
            Some(slot) => slot.1 = registry,
            None => self.programs.push((label, registry)),
        }
    }

    /// The published registries with their labels, in first-publication
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, SharedRegistry)> {
        self.programs.iter()
    }

    /// Snapshots every published registry, sorted by label.
    pub fn snapshots(&self) -> Vec<(String, Vec<MetricSample>)> {
        let published = self.iter().map(|(l, r)| (l.clone(), r.snapshot()));
        let mut out: Vec<_> = published.collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// A borrowed [`ObsHub`]: a backend's own, or the one a cluster of
/// threads shares, locked for as long as the borrow lives.
pub enum HubRef<'a> {
    /// The hub of a single-threaded world.
    Own(&'a mut ObsHub),
    /// The hub behind a cluster's lock.
    Locked(MutexGuard<'a, ObsHub>),
}

impl Deref for HubRef<'_> {
    type Target = ObsHub;

    fn deref(&self) -> &ObsHub {
        match self {
            HubRef::Own(hub) => hub,
            HubRef::Locked(guard) => guard,
        }
    }
}

impl DerefMut for HubRef<'_> {
    fn deref_mut(&mut self) -> &mut ObsHub {
        match self {
            HubRef::Own(hub) => hub,
            HubRef::Locked(guard) => guard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists_register_and_update() {
        let mut r = Registry::new();
        let c = r.counter("a.count");
        let h = r.hist("a.dist");
        r.inc(c);
        r.add(c, 4);
        assert_eq!(r.count(c), 5);
        r.record(h, 0);
        r.record(h, 1);
        r.record(h, 1024);
        let snap = r.snapshot();
        assert_eq!(
            snap.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["a.count", "a.dist"],
            "snapshot is name-sorted"
        );
        assert_eq!(snap[0].value, MetricValue::Counter(5));
        let MetricValue::Hist(h) = &snap[1].value else {
            panic!("expected hist");
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1025);
        assert_eq!(h.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets[1], 1, "one lands in bucket 1");
        assert_eq!(h.buckets[11], 1, "1024 has bit length 11");
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.inc(b);
        let [both] = &r.snapshot()[..] else {
            panic!("one name, one metric");
        };
        assert_eq!(both.value, MetricValue::Counter(2));
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn span_log_is_disabled_by_default() {
        let mut log = SpanLog::new();
        let corr = format_args!("a#{}", 1);
        log.record(SimTime::ZERO, None, "req", corr, SpanPhase::Begin);
        assert!(log.events().is_empty());
        log.set_enabled(true);
        let host = Some(HostId(2));
        log.record(SimTime::ZERO, host, "req", corr, SpanPhase::Begin);
        log.record(SimTime::from_millis(3), host, "req", corr, SpanPhase::End);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[1].phase, SpanPhase::End);
        assert_eq!(log.events()[0].corr, "a#1");
    }

    #[test]
    fn hub_samples_registered_registries_sorted_by_label() {
        let mut hub = ObsHub::new(false);
        let mut reg = Registry::new();
        let c = reg.counter("x");
        let a: SharedRegistry = reg.clone().into_shared();
        a.inc(c);
        let b: SharedRegistry = Registry::new().into_shared();
        hub.register("beta/1".into(), b);
        hub.register("alpha/1".into(), a);
        let snaps = hub.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "alpha/1");
        assert_eq!(snaps[0].1[0].value, MetricValue::Counter(1));
        // A respawn re-registers its label: the fresh registry shadows
        // its predecessor in the predecessor's slot, on every backend.
        let respawned: SharedRegistry = reg.into_shared();
        respawned.add(c, 7);
        hub.register("alpha/1".into(), respawned);
        let snaps = hub.snapshots();
        assert_eq!(snaps.len(), 2, "replaced, not appended");
        assert_eq!(snaps[0].0, "alpha/1");
        assert_eq!(snaps[0].1[0].value, MetricValue::Counter(7));
    }
}
