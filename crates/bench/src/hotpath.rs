//! Paired hot-path workloads: the optimised implementations vs
//! bench-local copies of the seed implementations they replaced.
//!
//! Three hot paths were overhauled in the indexed-event-queue PR:
//!
//! * **engine** — the discrete-event queue went from `BinaryHeap` +
//!   tombstone set to an index-tracked 4-ary heap with true O(log n)
//!   cancellation ([`seed_engine`] preserves the old implementation);
//! * **codec** — encoding went pooled and fan-outs frame batches into
//!   one buffer instead of one allocation per message ([`seed_codec`]
//!   drives the old per-message path, which is still available through
//!   the public `Enc::new` API);
//! * **genealogy** — `live_count` became a maintained counter and prune
//!   a cascade worklist ([`seed_genealogy`] preserves the scan/fixed-point
//!   versions).
//!
//! The in-network-aggregation PR added two more pairs:
//!
//! * **gather** — a chain snapshot-sweep went from one `Msg::BcastResp`
//!   per host, decoded and re-encoded at every relay hop (O(hosts²)
//!   record transits), to one spliced `Msg::BcastAgg` batch per edge
//!   ([`gather_seed`] models the old per-hop path);
//! * **wheel** — the RPC timer population moved from the indexed heap
//!   to a hierarchical timer wheel ([`wheel_retransmit`] drives the
//!   wheel with the exact workload [`engine_new`] runs on the heap).
//!
//! The observability PR added one more pair:
//!
//! * **obs** — the wheel retransmit workload with the metrics registry's
//!   hot-path cost layered on ([`obs_instrumented`]) against the plain
//!   wheel ([`wheel_retransmit`]); its ratio *is* the observability
//!   overhead, which the perf gate bounds absolutely.
//!
//! Each pair exposes a deterministic workload returning a checksum, so
//! the benches can assert the optimised code computes the same thing the
//! seed code did while timing both. `emit_bench` writes the measured
//! medians to `BENCH_PR4.json` alongside the medians recorded by earlier
//! PRs.

use bytes::Bytes;
use ppm_proto::codec::{decode_batch, encode_batch, frames, Enc, Wire};
use ppm_proto::msg::{BcastPart, Msg, Op, Reply};
use ppm_proto::types::{Gpid, ProcRecord, Route, Stamp, WireProcState};
use ppm_runtime::obs::{Registry, SpanLog};
use ppm_simnet::engine::{Engine, TimerWheel};
use ppm_simnet::time::SimDuration;

/// SplitMix64 step: the workloads' deterministic choice stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed discrete-event engine: `BinaryHeap` ordered by `(at, seq)`
/// with a tombstone set consulted on every peek/pop.
pub mod seed_engine {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    use ppm_simnet::time::{SimDuration, SimTime};

    /// Seed copy of `ppm_simnet::engine::EventId`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct EventId(u64);

    #[derive(Debug)]
    struct Scheduled<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// Seed copy of `ppm_simnet::engine::Engine` (tombstone cancellation).
    #[derive(Debug)]
    pub struct Engine<E> {
        now: SimTime,
        seq: u64,
        heap: BinaryHeap<Scheduled<E>>,
        cancelled: HashSet<u64>,
        processed: u64,
    }

    impl<E> Engine<E> {
        /// Creates an empty engine at time zero.
        pub fn new() -> Self {
            Engine {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                processed: 0,
            }
        }

        /// Schedules `payload` to fire `delay` after the current time.
        pub fn schedule(&mut self, delay: SimDuration, payload: E) -> EventId {
            let at = (self.now + delay).max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Scheduled { at, seq, payload });
            EventId(seq)
        }

        /// Cancels a previously scheduled event (tombstone insert).
        pub fn cancel(&mut self, id: EventId) -> bool {
            if id.0 >= self.seq {
                return false;
            }
            self.cancelled.insert(id.0)
        }

        /// Pops the next live event, reaping tombstones off the top.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(top) = self.heap.peek() {
                if self.cancelled.remove(&top.seq) {
                    self.heap.pop();
                } else {
                    break;
                }
            }
            let s = self.heap.pop()?;
            self.now = s.at;
            self.processed += 1;
            Some((s.at, s.payload))
        }
    }

    impl<E> Default for Engine<E> {
        fn default() -> Self {
            Self::new()
        }
    }
}

/// The seed per-host genealogy: scanned `live_count`, fixed-point prune.
pub mod seed_genealogy {
    use std::collections::HashMap;

    use ppm_proto::types::{Gpid, WireProcState};

    /// Seed copy of `ppm_core::genealogy::Node`.
    #[derive(Debug, Clone)]
    pub struct Node {
        pub pid: u32,
        pub ppid: u32,
        pub logical_parent: Option<Gpid>,
        pub command: String,
        pub state: WireProcState,
        pub started_us: u64,
        pub cpu_us: u64,
        pub adopted: bool,
        pub children: Vec<u32>,
        pub dead_at: Option<u64>,
    }

    /// Seed copy of `ppm_core::genealogy::Genealogy` (pre-index version).
    #[derive(Debug, Clone, Default)]
    pub struct Genealogy {
        nodes: HashMap<u32, Node>,
    }

    impl Genealogy {
        /// Number of live tracked processes — full scan, as seeded.
        pub fn live_count(&self) -> usize {
            self.nodes
                .values()
                .filter(|n| n.state != WireProcState::Dead)
                .count()
        }

        /// Begins tracking a process.
        pub fn track(&mut self, pid: u32, ppid: u32, command: &str, started_us: u64) {
            let node = Node {
                pid,
                ppid,
                logical_parent: None,
                command: command.to_string(),
                state: WireProcState::Embryo,
                started_us,
                cpu_us: 0,
                adopted: true,
                children: Vec::new(),
                dead_at: None,
            };
            self.nodes.insert(pid, node);
            if ppid != pid {
                if let Some(parent) = self.nodes.get_mut(&ppid) {
                    if !parent.children.contains(&pid) {
                        parent.children.push(pid);
                    }
                }
            }
        }

        /// Marks a node dead at `now_us`.
        pub fn mark_dead_at(&mut self, pid: u32, cpu_us: u64, now_us: u64) {
            if let Some(n) = self.nodes.get_mut(&pid) {
                n.state = WireProcState::Dead;
                n.cpu_us = cpu_us;
                n.dead_at = Some(now_us);
            }
        }

        /// Fixed-point prune: re-scan every node (and rebuild every
        /// children list) each round, as seeded.
        pub fn prune_older_than(&mut self, now_us: u64, retention_us: u64) -> usize {
            let mut pruned = 0;
            loop {
                let mut victims: Vec<u32> = self
                    .nodes
                    .values()
                    .filter(|n| {
                        n.state == WireProcState::Dead
                            && n.dead_at
                                .is_some_and(|d| now_us.saturating_sub(d) >= retention_us)
                            && n.children.iter().all(|c| !self.nodes.contains_key(c))
                    })
                    .map(|n| n.pid)
                    .collect();
                if victims.is_empty() {
                    return pruned;
                }
                victims.sort_unstable();
                for pid in victims {
                    self.nodes.remove(&pid);
                    pruned += 1;
                }
                let existing: Vec<u32> = self.nodes.keys().copied().collect();
                for pid in existing {
                    let children: Vec<u32> = self.nodes[&pid]
                        .children
                        .iter()
                        .copied()
                        .filter(|c| self.nodes.contains_key(c))
                        .collect();
                    self.nodes.get_mut(&pid).expect("exists").children = children;
                }
            }
        }
    }
}

/// The seed per-message encode path: a fresh growable buffer per message,
/// one `Bytes` allocation each, no batch framing.
pub mod seed_codec {
    use bytes::Bytes;
    use ppm_proto::codec::{CodecError, Enc, Wire};

    /// Encodes one message the way the seed `Wire::to_bytes` did.
    pub fn to_bytes<T: Wire>(item: &T) -> Bytes {
        let mut enc = Enc::new();
        item.encode(&mut enc);
        enc.into_bytes()
    }

    /// Encodes a fan-out as the seed did: one separate buffer per message.
    pub fn encode_each<T: Wire>(items: &[T]) -> Vec<Bytes> {
        items.iter().map(to_bytes).collect()
    }

    /// Decodes a fan-out's worth of separate buffers.
    pub fn decode_each<T: Wire>(bufs: &[Bytes]) -> Result<Vec<T>, CodecError> {
        bufs.iter().map(|b| T::from_bytes(b)).collect()
    }
}

// ---- workloads -------------------------------------------------------------

/// Live window the engine workloads keep pending.
const ENGINE_WINDOW: usize = 1_024;

/// Drives the optimised engine with the retransmit-timer pattern the
/// indexed layout is tuned for: most scheduled events are cancelled
/// before they fire. Per step: three schedules, two cancels (once the
/// pending window is warm), one pop.
pub fn engine_new(steps: usize) -> u64 {
    let mut e: Engine<u64> = Engine::new();
    let mut rng = 7u64;
    let mut acc = 0u64;
    let mut window = Vec::with_capacity(ENGINE_WINDOW + 4);
    for i in 0..steps {
        for j in 0..3u64 {
            window.push(e.schedule(
                SimDuration::from_micros(mix(&mut rng) % 1_000),
                i as u64 ^ (j << 56),
            ));
        }
        if window.len() > ENGINE_WINDOW {
            for _ in 0..2 {
                let k = (mix(&mut rng) % window.len() as u64) as usize;
                let id = window.swap_remove(k);
                e.cancel(id);
            }
        }
        if let Some((t, v)) = e.pop() {
            acc = acc.wrapping_add(t.as_micros() ^ v);
        }
    }
    while let Some((t, v)) = e.pop() {
        acc = acc.wrapping_add(t.as_micros() ^ v);
    }
    acc
}

/// Identical workload against the seed engine copy.
pub fn engine_seed(steps: usize) -> u64 {
    let mut e: seed_engine::Engine<u64> = seed_engine::Engine::new();
    let mut rng = 7u64;
    let mut acc = 0u64;
    let mut window = Vec::with_capacity(ENGINE_WINDOW + 4);
    for i in 0..steps {
        for j in 0..3u64 {
            window.push(e.schedule(
                SimDuration::from_micros(mix(&mut rng) % 1_000),
                i as u64 ^ (j << 56),
            ));
        }
        if window.len() > ENGINE_WINDOW {
            for _ in 0..2 {
                let k = (mix(&mut rng) % window.len() as u64) as usize;
                let id = window.swap_remove(k);
                e.cancel(id);
            }
        }
        if let Some((t, v)) = e.pop() {
            acc = acc.wrapping_add(t.as_micros() ^ v);
        }
    }
    while let Some((t, v)) = e.pop() {
        acc = acc.wrapping_add(t.as_micros() ^ v);
    }
    acc
}

/// A representative broadcast fan-out: `n` stamped `Msg::Bcast` waves.
pub fn fanout_msgs(n: usize) -> Vec<Msg> {
    (0..n)
        .map(|i| Msg::Bcast {
            stamp: Stamp::signed("ucbvax", i as u64, 1_000 * i as u64, 0xBEEF),
            user: 100,
            op: Op::Snapshot,
            route: {
                let mut r = Route::from_origin("ucbvax");
                r.push("calder");
                r.push("ucbarpa");
                r
            },
        })
        .collect()
}

/// Optimised codec path: pooled batch encode + zero-copy frame decode.
pub fn codec_new(msgs: &[Msg]) -> u64 {
    let wire = encode_batch(msgs);
    let mut acc = wire.len() as u64;
    for frame in frames(&wire).expect("well-formed batch") {
        let msg = Msg::from_bytes(frame.expect("frame")).expect("decodes");
        if let Msg::Bcast { stamp, .. } = msg {
            acc = acc.wrapping_add(stamp.seq);
        }
    }
    acc
}

/// Seed codec path: one fresh buffer + `Bytes` per message, decoded from
/// separate buffers. The total payload matches [`codec_new`]'s frames.
pub fn codec_seed(msgs: &[Msg]) -> u64 {
    let bufs = seed_codec::encode_each(msgs);
    // The batch header is u32 count + u32 length per frame.
    let mut acc = (bufs.iter().map(bytes::Bytes::len).sum::<usize>() + 4 + 4 * bufs.len()) as u64;
    let decoded: Vec<Msg> = seed_codec::decode_each(&bufs).expect("decodes");
    for msg in decoded {
        if let Msg::Bcast { stamp, .. } = msg {
            acc = acc.wrapping_add(stamp.seq);
        }
    }
    acc
}

/// Number of status polls between genealogy mutations, mirroring the LPM
/// answering tool requests between kernel events.
const POLLS_PER_STEP: usize = 4;

/// The operations the genealogy workload exercises, implemented by both
/// the optimised store and the seed copy.
trait GenealogyOps {
    fn track(&mut self, pid: u32, ppid: u32, now: u64);
    fn kill(&mut self, pid: u32, now: u64);
    fn prune(&mut self, now: u64) -> usize;
    fn live(&self) -> usize;
}

impl GenealogyOps for ppm_core::genealogy::Genealogy {
    fn track(&mut self, pid: u32, ppid: u32, now: u64) {
        self.track(pid, ppid, None, "cc", now, true);
    }
    fn kill(&mut self, pid: u32, now: u64) {
        self.mark_dead_at(pid, 10, now);
    }
    fn prune(&mut self, now: u64) -> usize {
        self.prune_older_than(now, 5_000)
    }
    fn live(&self) -> usize {
        self.live_count()
    }
}

impl GenealogyOps for seed_genealogy::Genealogy {
    fn track(&mut self, pid: u32, ppid: u32, now: u64) {
        seed_genealogy::Genealogy::track(self, pid, ppid, "cc", now);
    }
    fn kill(&mut self, pid: u32, now: u64) {
        self.mark_dead_at(pid, 10, now);
    }
    fn prune(&mut self, now: u64) -> usize {
        self.prune_older_than(now, 5_000)
    }
    fn live(&self) -> usize {
        self.live_count()
    }
}

/// Drives the optimised genealogy: track/kill churn with status polls
/// and periodic pruning.
pub fn genealogy_new(procs: usize) -> u64 {
    genealogy_drive(&mut ppm_core::genealogy::Genealogy::new("ucbvax"), procs)
}

/// Identical workload against the seed genealogy copy.
pub fn genealogy_seed(procs: usize) -> u64 {
    genealogy_drive(&mut seed_genealogy::Genealogy::default(), procs)
}

/// The shared genealogy script: a binary process forest where every
/// non-root eventually dies, polled for liveness throughout.
fn genealogy_drive<G: GenealogyOps>(g: &mut G, procs: usize) -> u64 {
    let mut acc = 0u64;
    let mut now = 0u64;
    for i in 0..procs as u32 {
        let pid = 10 + i;
        let ppid = if i == 0 { 1 } else { 10 + (i - 1) / 2 };
        now += 100;
        g.track(pid, ppid, now);
        // Older processes die as the forest grows; parents outlive kids.
        if i >= 2 {
            let dying = 10 + i - 2;
            now += 100;
            g.kill(dying, now);
        }
        for _ in 0..POLLS_PER_STEP {
            acc = acc.wrapping_add(g.live() as u64);
        }
        if i % 64 == 63 {
            now += 10_000;
            acc = acc.wrapping_add(g.prune(now) as u64);
        }
    }
    now += 100_000;
    acc = acc.wrapping_add(g.prune(now) as u64);
    acc.wrapping_add(g.live() as u64)
}

/// The identical retransmit workload against the hierarchical timer
/// wheel that replaced the heap for the RPC timer population.
pub fn wheel_retransmit(steps: usize) -> u64 {
    let mut e: TimerWheel<u64> = TimerWheel::new();
    let mut rng = 7u64;
    let mut acc = 0u64;
    let mut window = Vec::with_capacity(ENGINE_WINDOW + 4);
    for i in 0..steps {
        for j in 0..3u64 {
            window.push(e.schedule(
                SimDuration::from_micros(mix(&mut rng) % 1_000),
                i as u64 ^ (j << 56),
            ));
        }
        if window.len() > ENGINE_WINDOW {
            for _ in 0..2 {
                let k = (mix(&mut rng) % window.len() as u64) as usize;
                let id = window.swap_remove(k);
                e.cancel(id);
            }
        }
        if let Some((t, v)) = e.pop() {
            acc = acc.wrapping_add(t.as_micros() ^ v);
        }
    }
    while let Some((t, v)) = e.pop() {
        acc = acc.wrapping_add(t.as_micros() ^ v);
    }
    acc
}

/// The retransmit workload with the observability layer's hot-path cost
/// layered on at the density the LPM pays it: a sealed `Arc<Registry>`
/// relaxed-atomic counter bump per step (one request entering the
/// pipeline), a histogram record on the rare retry-shaped schedules
/// (the LPM only records `rpc.backoff_us` when a retry is actually
/// scheduled), and a disabled-span-log check per pop. The plain side is
/// [`wheel_retransmit`]; the checksums must agree, and the instrumented /
/// plain time ratio is the observability overhead the perf gate bounds.
pub fn obs_instrumented(steps: usize) -> u64 {
    let mut reg = Registry::new();
    let (requests, backoff_us) = (reg.counter("rpc.requests"), reg.hist("rpc.backoff_us"));
    let registry = reg.into_shared();
    let spans = SpanLog::new();
    let mut e: TimerWheel<u64> = TimerWheel::new();
    let mut rng = 7u64;
    let mut acc = 0u64;
    let mut window = Vec::with_capacity(ENGINE_WINDOW + 4);
    for i in 0..steps {
        registry.inc(requests);
        for j in 0..3u64 {
            let delay = mix(&mut rng) % 1_000;
            if delay.is_multiple_of(61) {
                registry.record(backoff_us, delay);
            }
            window.push(e.schedule(SimDuration::from_micros(delay), i as u64 ^ (j << 56)));
        }
        if window.len() > ENGINE_WINDOW {
            for _ in 0..2 {
                let k = (mix(&mut rng) % window.len() as u64) as usize;
                let id = window.swap_remove(k);
                e.cancel(id);
            }
        }
        if let Some((t, v)) = e.pop() {
            // The guard every span call site pays while spans are off.
            if spans.is_enabled() {
                acc = acc.wrapping_add(1);
            }
            acc = acc.wrapping_add(t.as_micros() ^ v);
        }
    }
    while let Some((t, v)) = e.pop() {
        acc = acc.wrapping_add(t.as_micros() ^ v);
    }
    std::hint::black_box(registry.snapshot().len());
    acc
}

// ---- chain gather ----------------------------------------------------------

/// Records each host contributes to the chain-sweep workloads.
const PROCS_PER_HOST: usize = 4;

/// One host's slice of the sweep: a snapshot reply with
/// [`PROCS_PER_HOST`] records and the route back to the origin `h0`.
fn sweep_part(depth: usize) -> BcastPart {
    let host = format!("h{depth}");
    let procs = (0..PROCS_PER_HOST)
        .map(|p| ProcRecord {
            gpid: Gpid::new(host.clone(), 100 + p as u32),
            ppid: 1,
            logical_parent: None,
            command: format!("job-{depth}-{p}"),
            state: WireProcState::Running,
            started_us: 1_000 * depth as u64,
            cpu_us: 10 * p as u64,
            adopted: true,
        })
        .collect();
    let mut route = Route::from_origin("h0");
    for h in 1..=depth {
        route.push(format!("h{h}"));
    }
    BcastPart {
        host: host.clone(),
        reply: Reply::Snapshot { host, procs },
        route,
    }
}

fn sweep_stamp() -> Stamp {
    Stamp::signed("h0", 1, 1_000, 0xBEEF)
}

/// Folds the parts that reached the origin into a checksum. Summation is
/// order-independent, so the aggregated and per-hop paths compare equal
/// regardless of arrival order.
fn sweep_checksum(parts: &[BcastPart]) -> u64 {
    let mut acc = 0u64;
    for part in parts {
        acc = acc.wrapping_add(part.route.hops() as u64);
        if let Reply::Snapshot { procs, .. } = &part.reply {
            for r in procs {
                acc = acc
                    .wrapping_add(r.gpid.pid as u64)
                    .wrapping_add(r.started_us)
                    .wrapping_add(r.cpu_us)
                    .wrapping_add(r.command.len() as u64);
            }
        }
    }
    acc
}

/// Pre-PR chain gather: every host on an `hosts`-host chain answers the
/// sweep with its own `Msg::BcastResp`, and each relay on the way to the
/// origin decodes and re-encodes the full message — the per-record
/// transit work is quadratic in chain depth.
pub fn gather_seed(hosts: usize) -> u64 {
    let stamp = sweep_stamp();
    let mut arrived = Vec::with_capacity(hosts.saturating_sub(1));
    for depth in 1..hosts {
        let part = sweep_part(depth);
        let mut wire = Msg::BcastResp {
            stamp: stamp.clone(),
            host: part.host,
            reply: part.reply,
            route: part.route,
        }
        .to_bytes();
        // One decode + re-encode per intermediate relay hop.
        for _ in 1..depth {
            let relayed = Msg::from_bytes(&wire).expect("relay decodes");
            wire = relayed.to_bytes();
        }
        match Msg::from_bytes(&wire).expect("origin decodes") {
            Msg::BcastResp {
                host, reply, route, ..
            } => arrived.push(BcastPart { host, reply, route }),
            _ => unreachable!("workload only sends bcast responses"),
        }
    }
    sweep_checksum(&arrived)
}

/// Aggregated chain gather: the deepest host starts a `Msg::BcastAgg`
/// and every relay splices its own slice frame onto the batch
/// byte-for-byte — each record crosses the chain once, inside a single
/// aggregate the origin decodes in one pass.
pub fn gather_new(hosts: usize) -> u64 {
    let stamp = sweep_stamp();
    let mut wire = Msg::BcastAgg {
        stamp: stamp.clone(),
        parts: encode_batch(&[sweep_part(hosts - 1)]),
        missing: Vec::new(),
    }
    .to_bytes();
    for depth in (1..hosts - 1).rev() {
        let Ok(Msg::BcastAgg { parts, missing, .. }) = Msg::from_bytes(&wire) else {
            unreachable!("workload only sends aggregates");
        };
        let count = u32::from_be_bytes(parts[..4].try_into().expect("count header")) + 1;
        let mut enc = Enc::pooled();
        enc.u32(count);
        enc.frame(&sweep_part(depth));
        let own = enc.into_bytes();
        let mut buf = Vec::with_capacity(own.len() + parts.len() - 4);
        buf.extend_from_slice(&own);
        buf.extend_from_slice(&parts[4..]);
        wire = Msg::BcastAgg {
            stamp: stamp.clone(),
            parts: Bytes::from(buf),
            missing,
        }
        .to_bytes();
    }
    let Ok(Msg::BcastAgg { parts, .. }) = Msg::from_bytes(&wire) else {
        unreachable!("workload only sends aggregates");
    };
    let arrived: Vec<BcastPart> = decode_batch(&parts).expect("origin decodes the batch");
    sweep_checksum(&arrived)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_workloads_agree() {
        assert_eq!(engine_new(500), engine_seed(500));
    }

    #[test]
    fn wheel_matches_heap_on_the_retransmit_pattern() {
        assert_eq!(wheel_retransmit(500), engine_new(500));
    }

    #[test]
    fn instrumented_wheel_matches_plain_wheel() {
        assert_eq!(obs_instrumented(500), wheel_retransmit(500));
    }

    #[test]
    fn gather_workloads_agree() {
        assert_eq!(gather_new(9), gather_seed(9));
        assert_eq!(gather_new(32), gather_seed(32));
    }

    #[test]
    fn codec_workloads_agree() {
        let msgs = fanout_msgs(16);
        assert_eq!(codec_new(&msgs), codec_seed(&msgs));
    }

    #[test]
    fn genealogy_workloads_agree() {
        assert_eq!(genealogy_new(300), genealogy_seed(300));
    }
}
