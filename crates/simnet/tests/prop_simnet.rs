//! Property tests for the discrete-event engine and the topology.

use proptest::prelude::*;

use ppm_simnet::engine::TimerWheel;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostSpec, Topology};

// ---- engine ---------------------------------------------------------------

proptest! {
    /// Events pop in nondecreasing time order regardless of insertion
    /// order, and ties preserve insertion order.
    #[test]
    fn engine_pops_sorted_and_stable(delays in prop::collection::vec(0u64..1000, 1..200)) {
        let mut engine: TimerWheel<usize> = TimerWheel::new();
        for (i, &d) in delays.iter().enumerate() {
            engine.schedule(SimDuration::from_micros(d), i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = engine.pop() {
            popped.push((t, idx));
        }
        prop_assert_eq!(popped.len(), delays.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stable tie-break by insertion order");
            }
        }
        // Every event popped at exactly its scheduled time.
        for (t, idx) in popped {
            prop_assert_eq!(t, SimTime::from_micros(delays[idx]));
        }
    }

    /// Cancellation removes exactly the cancelled events.
    #[test]
    fn engine_cancellation_is_exact(
        delays in prop::collection::vec(0u64..1000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut engine: TimerWheel<usize> = TimerWheel::new();
        let ids: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| engine.schedule(SimDuration::from_micros(d), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(engine.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, idx)) = engine.pop() {
            got.push(idx);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved scheduling never lets the clock move backwards.
    #[test]
    fn engine_clock_is_monotone(ops in prop::collection::vec((0u64..500, any::<bool>()), 1..200)) {
        let mut engine: TimerWheel<u64> = TimerWheel::new();
        let mut last = SimTime::ZERO;
        for (d, pop_now) in ops {
            engine.schedule(SimDuration::from_micros(d), d);
            if pop_now {
                if let Some((t, _)) = engine.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }
        }
        while let Some((t, _)) = engine.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }
}

// ---- timer wheel vs reference model ---------------------------------------

/// A deliberately naive event queue: a flat vector scanned linearly for
/// the minimum `(time, seq)` pair. Trivially correct, O(n) everywhere.
struct ModelQueue {
    now: u64,
    next_seq: u64,
    pending: Vec<(u64, u64, u64)>, // (at_us, seq, payload)
}

impl ModelQueue {
    fn new() -> Self {
        ModelQueue {
            now: 0,
            next_seq: 0,
            pending: Vec::new(),
        }
    }

    fn schedule(&mut self, delay_us: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((self.now + delay_us, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|&(at, _, _)| at).min()
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, _, payload) = self.pending.swap_remove(best);
        self.now = at;
        Some((at, payload))
    }

    fn pop_until(&mut self, horizon_us: u64) -> Option<(u64, u64)> {
        match self.peek_time() {
            Some(t) if t <= horizon_us => self.pop(),
            _ => None,
        }
    }

    fn advance_to(&mut self, at_us: u64) {
        self.now = self.now.max(at_us);
    }
}

/// Delay ceilings that land an event in each wheel level (64 µs, 4 ms,
/// 262 ms, 16.8 s windows) and, past the last, in the overflow heap.
const DELAY_SPANS: [u64; 5] = [64, 4_096, 262_144, 16_777_216, 20_000_000];

/// The delay of one op: uniform up to the span's ceiling or, half the
/// time, one of four round values plus 0..=2 µs — so events collide on
/// the same instant (where only `seq` orders them) at every level.
fn delay_of(span: usize, arg: u64) -> u64 {
    let ceiling = DELAY_SPANS[span];
    if arg & 1 == 0 {
        (arg >> 1) % (ceiling + 1)
    } else {
        (arg >> 1) % 4 * (ceiling / 4) + (arg >> 3) % 3
    }
}

proptest! {
    /// The wheel is observationally equivalent to the naive model under
    /// arbitrary interleavings of schedule / cancel / pop / peek /
    /// bounded runs — cancels aimed at live, already-fired and
    /// already-cancelled events alike, delays spanning all four levels
    /// and the overflow heap, drains that force cascades and a rebase.
    /// This is the queue's only oracle.
    #[test]
    fn timer_wheel_matches_reference_model(
        ops in prop::collection::vec((0u8..12, 0usize..5, any::<u64>()), 1..300)
    ) {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut model = ModelQueue::new();
        // Every id ever issued, fired or not: cancels draw from here so
        // they regularly target dead ids.
        let mut ids = Vec::new();
        let fired = |e: Option<(SimTime, u64)>| e.map(|(t, v)| (t.as_micros(), v));

        for (kind, span, arg) in ops {
            let delay = delay_of(span, arg);
            match kind {
                0..=4 => {
                    let id = wheel.schedule(SimDuration::from_micros(delay), arg);
                    ids.push((id, model.schedule(delay, arg)));
                }
                5 | 6 => {
                    if !ids.is_empty() {
                        let (wid, mid) = ids[arg as usize % ids.len()];
                        prop_assert_eq!(wheel.cancel(wid), model.cancel(mid), "cancel verdicts");
                    }
                }
                7 | 8 => prop_assert_eq!(fired(wheel.pop()), model.pop(), "pop streams"),
                9 => prop_assert_eq!(
                    wheel.peek_time().map(SimTime::as_micros),
                    model.peek_time(),
                    "peeks"
                ),
                10 => {
                    let horizon = model.now + delay;
                    prop_assert_eq!(
                        fired(wheel.pop_until(SimTime::from_micros(horizon))),
                        model.pop_until(horizon),
                        "bounded pops"
                    );
                }
                // A bounded run, the way a world drives the queue: fire
                // everything up to the horizon, then move the clock there.
                _ => {
                    let horizon = model.now + delay;
                    loop {
                        let want = model.pop_until(horizon);
                        let got = fired(wheel.pop_until(SimTime::from_micros(horizon)));
                        prop_assert_eq!(got, want, "bounded run");
                        if want.is_none() {
                            break;
                        }
                    }
                    wheel.advance_to(SimTime::from_micros(horizon));
                    model.advance_to(horizon);
                    wheel.advance_to(SimTime::ZERO); // the past is ignored
                }
            }
            prop_assert_eq!(wheel.pending(), model.pending.len());
            prop_assert_eq!(wheel.now().as_micros(), model.now);
        }

        // Drain both to the end.
        loop {
            let want = model.pop();
            prop_assert_eq!(fired(wheel.pop()), want, "drain");
            prop_assert_eq!(wheel.pending(), model.pending.len());
            prop_assert_eq!(wheel.now().as_micros(), model.now);
            if want.is_none() {
                break;
            }
        }
    }
}

// ---- topology ---------------------------------------------------------------

/// Reference all-pairs shortest paths (Floyd–Warshall).
fn reference_hops(n: usize, edges: &[(usize, usize)], up: &[bool]) -> Vec<Vec<Option<u32>>> {
    const INF: u32 = u32::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        if up[i] {
            row[i] = 0;
        }
    }
    for &(a, b) in edges {
        if up[a] && up[b] {
            d[a][b] = d[a][b].min(1);
            d[b][a] = d[b][a].min(1);
        }
    }
    for k in 0..n {
        if !up[k] {
            continue;
        }
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k].saturating_add(d[k][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d.into_iter()
        .map(|row| row.into_iter().map(|v| (v < INF).then_some(v)).collect())
        .collect()
}

proptest! {
    /// BFS hop counts agree with Floyd–Warshall on random graphs with
    /// random host outages.
    #[test]
    fn hops_match_reference(
        n in 2usize..10,
        edge_bits in prop::collection::vec(any::<bool>(), 45),
        up_bits in prop::collection::vec(any::<bool>(), 10),
    ) {
        let mut topo = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| topo.add_host(HostSpec::new(format!("h{i}"), CpuClass::Vax780)))
            .collect();
        let mut edges = Vec::new();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if *edge_bits.get(k).unwrap_or(&false) {
                    topo.add_link(ids[i], ids[j]);
                    edges.push((i, j));
                }
                k += 1;
            }
        }
        let up: Vec<bool> = (0..n).map(|i| *up_bits.get(i).unwrap_or(&true)).collect();
        for (i, &u) in up.iter().enumerate() {
            topo.set_host_up(ids[i], u);
        }
        let expect = reference_hops(n, &edges, &up);
        for i in 0..n {
            for j in 0..n {
                let got = topo.hops(ids[i], ids[j]);
                prop_assert_eq!(got, expect[i][j], "hops({},{})", i, j);
            }
        }
    }

    /// `reachable_from` is exactly the set of hosts with a finite hop count.
    #[test]
    fn reachability_matches_hops(
        n in 2usize..9,
        edge_bits in prop::collection::vec(any::<bool>(), 36),
    ) {
        let mut topo = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| topo.add_host(HostSpec::new(format!("h{i}"), CpuClass::Sun2)))
            .collect();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if *edge_bits.get(k).unwrap_or(&false) {
                    topo.add_link(ids[i], ids[j]);
                }
                k += 1;
            }
        }
        for &src in &ids {
            let reach = topo.reachable_from(src);
            for &dst in &ids {
                let reachable = topo.hops(src, dst).is_some();
                prop_assert_eq!(reach.contains(&dst), reachable);
            }
        }
    }
}

// ---- fault plans ------------------------------------------------------------

use ppm_simnet::fault::{FaultEvent, FaultKind, FaultPlan, WireFaultKind, WireFaults, WireRule};

fn arb_host() -> impl Strategy<Value = String> {
    (0u8..5).prop_map(|i| ["calder", "kim", "ucbarpa", "ernie", "vangogh"][i as usize].to_string())
}

fn arb_link_name() -> impl Strategy<Value = String> {
    (0u8..4).prop_map(|i| {
        ["core:tor0-spine1", "edge:calder", "wan:kim", "mile:h7"][i as usize].to_string()
    })
}

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        arb_host().prop_map(|host| FaultKind::Crash { host }),
        arb_host().prop_map(|host| FaultKind::Restart { host }),
        (arb_host(), arb_host()).prop_map(|(a, b)| FaultKind::LinkDown { a, b }),
        (arb_host(), arb_host()).prop_map(|(a, b)| FaultKind::LinkUp { a, b }),
        arb_link_name().prop_map(|link| FaultKind::NetLinkDown { link }),
        arb_link_name().prop_map(|link| FaultKind::NetLinkUp { link }),
        (arb_host(), 0u8..3).prop_map(|(host, c)| FaultKind::Kill {
            host,
            command: ["lpm", "pmd", "worker"][c as usize].to_string(),
        }),
    ]
}

fn arb_wire_rule() -> impl Strategy<Value = WireRule> {
    let kind = prop_oneof![
        Just(WireFaultKind::Drop),
        Just(WireFaultKind::Dup),
        (1u64..10_000).prop_map(|us| WireFaultKind::Reorder {
            skew: SimDuration::from_micros(us),
        }),
        (1u64..100_000).prop_map(|us| WireFaultKind::Delay {
            extra: SimDuration::from_micros(us),
        }),
    ];
    (
        kind,
        0u32..=1000,
        prop::option::of(arb_host()),
        prop::option::of(arb_host()),
        prop::option::of(0u64..20_000_000),
        prop::option::of(0u64..20_000_000),
    )
        .prop_map(|(kind, permille, from, to, after, until)| {
            let mut rule = WireRule::new(kind, f64::from(permille) / 1000.0);
            rule.from = from;
            rule.to = to;
            rule.after = after.map(SimTime::from_micros);
            rule.until = until.map(SimTime::from_micros);
            rule
        })
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        prop::collection::vec((0u64..60_000_000, arb_fault_kind()), 0..12),
        prop::collection::vec(arb_wire_rule(), 0..6),
    )
        .prop_map(|(seed, events, wire)| FaultPlan {
            seed,
            events: events
                .into_iter()
                .map(|(at, kind)| FaultEvent {
                    at: SimTime::from_micros(at),
                    kind,
                })
                .collect(),
            wire,
        })
}

proptest! {
    /// Satellite invariant: a plan survives an encode → parse roundtrip
    /// exactly — every event, rule, scope and the seed.
    #[test]
    fn fault_plan_roundtrips(plan in arb_fault_plan()) {
        let text = plan.encode();
        let again = FaultPlan::parse(&text);
        prop_assert_eq!(Ok(plan), again, "canonical text:\n{}", text);
    }

    /// Satellite invariant: the seeded drop/dup/reorder schedule is a
    /// pure function of (seed, message sequence) — two generators built
    /// from the same plan make byte-identical decisions over any traffic.
    #[test]
    fn wire_fault_schedule_is_deterministic(
        plan in arb_fault_plan(),
        traffic in prop::collection::vec((0u8..5, 0u8..5, 0u64..20_000_000), 0..300),
    ) {
        const HOSTS: [&str; 5] = ["calder", "kim", "ucbarpa", "ernie", "vangogh"];
        let mut a = WireFaults::new(&plan);
        let mut b = WireFaults::new(&plan);
        for (f, t, at) in traffic {
            let (from, to) = (HOSTS[f as usize], HOSTS[t as usize]);
            let now = SimTime::from_micros(at);
            prop_assert_eq!(a.decide(from, to, now), b.decide(from, to, now));
        }
    }
}

// ---------------------------------------------------------------------------
// Netmodel routing: determinism and symmetry (PR 10 satellites).
// ---------------------------------------------------------------------------

use ppm_simnet::routing::RoutingTable;
use ppm_simnet::topology::{NetGraph, NetLinkSpec, NetSpec};

/// An arbitrary physical topology: `hosts` leaf hosts, `switches`
/// internal nodes, and a random undirected edge set (plus a host chain so
/// most pairs are reachable — unreachable pairs are also a valid case and
/// still occur through the link up/down mask).
fn arb_net() -> impl Strategy<Value = (NetSpec, Vec<String>, Vec<bool>)> {
    (2usize..10, 0usize..4).prop_flat_map(|(hosts, switches)| {
        let n = hosts + switches;
        let max_edges = n * (n - 1) / 2;
        (
            Just(hosts),
            Just(switches),
            prop::collection::vec((0usize..n, 0usize..n), 0..max_edges.max(1)),
            prop::collection::vec(any::<bool>(), n + max_edges),
        )
            .prop_map(|(hosts, switches, edges, mask)| {
                let name_of = |i: usize| {
                    if i < hosts {
                        format!("h{i}")
                    } else {
                        format!("s{}", i - hosts)
                    }
                };
                let host_names: Vec<String> = (0..hosts).map(|i| format!("h{i}")).collect();
                let mut spec = NetSpec {
                    name: "prop".into(),
                    switches: (0..switches).map(|i| format!("s{i}")).collect(),
                    links: Vec::new(),
                };
                let mut seen = std::collections::HashSet::new();
                let mut push = |spec: &mut NetSpec, a: usize, b: usize| {
                    let (a, b) = (a.min(b), a.max(b));
                    if a == b || !seen.insert((a, b)) {
                        return;
                    }
                    spec.links.push(NetLinkSpec {
                        name: format!("l{a}-{b}"),
                        a: name_of(a),
                        b: name_of(b),
                        cap_bps: 250_000,
                        lat_us: 5_000,
                        loss: 0.0,
                        core: false,
                    });
                };
                for w in 1..hosts {
                    push(&mut spec, w - 1, w);
                }
                for (a, b) in edges {
                    push(&mut spec, a, b);
                }
                (spec, host_names, mask)
            })
    })
}

/// Applies the up/down mask to hosts and links so the properties also
/// cover degraded graphs.
fn masked_graph(spec: &NetSpec, host_names: &[String], mask: &[bool]) -> NetGraph {
    let mut g = NetGraph::build(spec, host_names).expect("spec is well-formed");
    for (i, &up) in mask.iter().take(host_names.len()).enumerate() {
        g.set_host_up(i as u32, up);
    }
    for (i, &up) in mask.iter().skip(host_names.len()).enumerate() {
        if i < g.links.len() {
            g.set_link_up(i as u32, up);
        }
    }
    g
}

proptest! {
    /// Satellite invariant: the route table is a pure function of the
    /// graph — two builds over the same (masked) topology serialize to
    /// byte-identical tables.
    #[test]
    fn routing_table_is_deterministic(net in arb_net()) {
        let (spec, hosts, mask) = net;
        let g = masked_graph(&spec, &hosts, &mask);
        let a = RoutingTable::build(&g).table_bytes();
        let b = RoutingTable::build(&g).table_bytes();
        prop_assert_eq!(a, b);
    }

    /// Satellite invariant: on undirected links the route from b to a is
    /// the exact reverse of the route from a to b (canonical unordered-
    /// pair construction), and routes are consistent with reachability.
    #[test]
    fn routes_are_symmetric(net in arb_net()) {
        let (spec, hosts, mask) = net;
        let g = masked_graph(&spec, &hosts, &mask);
        let t = RoutingTable::build(&g);
        for a in 0..hosts.len() as u32 {
            for b in 0..hosts.len() as u32 {
                match (t.route(a, b), t.route(b, a)) {
                    (Some((mut fn_, mut fl)), Some((rn, rl))) => {
                        fn_.reverse();
                        fl.reverse();
                        prop_assert_eq!(&fn_, &rn, "{}->{} nodes", a, b);
                        prop_assert_eq!(&fl, &rl, "{}->{} links", a, b);
                        prop_assert!(t.reachable(a, b));
                        // Every consecutive pair is really joined by the
                        // named link, and the link is live.
                        for (w, l) in rn.windows(2).zip(&rl) {
                            let link = &g.links[*l as usize];
                            prop_assert!(link.up);
                            let (x, y) = (w[0].min(w[1]), w[0].max(w[1]));
                            prop_assert_eq!((link.a.min(link.b), link.a.max(link.b)), (x, y));
                        }
                    }
                    (None, None) => prop_assert!(!t.reachable(a, b)),
                    (x, y) => prop_assert!(false, "asymmetric reachability: {:?} vs {:?}", x, y),
                }
            }
        }
    }
}
