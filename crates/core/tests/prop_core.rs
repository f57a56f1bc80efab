//! Property tests for the PPM's pure data structures: genealogy
//! retention, handler-pool accounting, trigger matching, history bounds.

use proptest::prelude::*;

use ppm_core::genealogy::Genealogy;
use ppm_core::handlers::HandlerPool;
use ppm_core::history::History;
use ppm_core::trigger_engine::{TriggerEngine, TriggerEvent};
use ppm_proto::codec::Wire;
use ppm_proto::msg::{Reply, WireReply};
use ppm_proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm_proto::types::{Gpid, WireProcState};
use ppm_simnet::time::{SimDuration, SimTime};

// ---- genealogy --------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Track { pid: u32, parent_idx: usize },
    Kill { idx: usize },
    Prune,
}

fn arb_tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (2u32..200, 0usize..20).prop_map(|(pid, parent_idx)| TreeOp::Track { pid, parent_idx }),
            (0usize..20).prop_map(|idx| TreeOp::Kill { idx }),
            Just(TreeOp::Prune),
        ],
        1..60,
    )
}

proptest! {
    /// After any operation sequence: child lists never dangle, a dead
    /// node with a live local descendant is always retained by prune,
    /// live nodes are never pruned, and the snapshot reply written
    /// straight from the slab is the reply built from owned records.
    #[test]
    fn genealogy_invariants(ops in arb_tree_ops()) {
        let mut g = Genealogy::new("h");
        let mut pids: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                TreeOp::Track { pid, parent_idx } => {
                    if g.contains(pid) {
                        continue;
                    }
                    let ppid = pids
                        .get(parent_idx % pids.len().max(1))
                        .copied()
                        .unwrap_or(1);
                    let logical = pid.is_multiple_of(3).then(|| Gpid::new("far", pid + 1));
                    g.track(pid, ppid, logical, "cmd", u64::from(pid), pid.is_multiple_of(2));
                    g.set_exec(pid, format!("cmd{pid}"));
                    g.set_cpu(pid, u64::from(pid) * 7);
                    pids.push(pid);
                }
                TreeOp::Kill { idx } => {
                    if let Some(&pid) = pids.get(idx % pids.len().max(1)) {
                        g.mark_dead(pid, 0);
                    }
                }
                TreeOp::Prune => {
                    g.prune();
                }
            }

            // Invariant: every child reference points at a tracked node
            // whose ppid points back.
            for &pid in &pids {
                if g.contains(pid) {
                    for c in g.children(pid) {
                        let child = g.get(c);
                        prop_assert!(child.is_some(), "dangling child {c} of {pid}");
                        prop_assert_eq!(child.unwrap().ppid, pid);
                    }
                }
            }

            // Invariant: both snapshot forms come off one walk and say
            // the same thing, byte for byte.
            let owned = Reply::Snapshot { host: "h".into(), procs: g.snapshot() };
            let written = WireReply::snapshot("h", g.records());
            prop_assert_eq!(written.as_bytes(), &owned.to_bytes()[..]);
        }
        // Final hard prune: no dead node with all-dead subtree survives,
        // and no live node was lost.
        g.prune();
        for &pid in &pids {
            if let Some(node) = g.get(pid) {
                if node.state == WireProcState::Dead {
                    // Retained dead nodes must have at least one live
                    // descendant.
                    let live_desc = g
                        .descendants(pid)
                        .iter()
                        .any(|&d| g.get(d).is_some_and(|n| n.state != WireProcState::Dead));
                    prop_assert!(live_desc, "dead node {pid} retained without live descendants");
                }
            }
        }
        let snapshot = g.snapshot();
        prop_assert_eq!(snapshot.len(), g.len());
    }
}

// ---- handler pool --------------------------------------------------------------

proptest! {
    /// Acquire/release bookkeeping: live handlers never exceed the cap,
    /// and forks + reuses equals total acquisitions.
    #[test]
    fn handler_pool_accounting(ops in prop::collection::vec(any::<bool>(), 1..200), max in 1usize..8) {
        let mut pool = HandlerPool::new(
            SimDuration::from_millis(70),
            SimDuration::from_millis(4),
            SimDuration::from_secs(10),
            max,
        );
        let mut held = Vec::new();
        let mut acquires = 0u64;
        for (i, acquire) in ops.into_iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            if acquire {
                let a = pool.acquire(now);
                acquires += 1;
                held.push(a.id);
                prop_assert!(pool.live() <= max, "live {} > max {max}", pool.live());
            } else if let Some(id) = held.pop() {
                pool.release(id, now);
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.forks + stats.reuses, acquires);
    }
}

// ---- trigger engine --------------------------------------------------------------

proptest! {
    /// A once-trigger fires at most once; a persistent trigger fires on
    /// every matching event.
    #[test]
    fn trigger_firing_counts(
        kinds in prop::collection::vec(0u8..4, 1..50),
        once in any::<bool>(),
    ) {
        let names = ["exit", "stop", "fork", "exec"];
        let mut engine = TriggerEngine::new();
        engine.add(TriggerSpec {
            id: 1,
            pattern: EventPattern::kind("exit"),
            action: TriggerAction::Notify { note: "n".into() },
            once,
        });
        let mut fired = 0u64;
        let mut matching = 0u64;
        for k in kinds {
            let kind = names[k as usize % names.len()];
            if kind == "exit" {
                matching += 1;
            }
            fired += engine
                .on_event(TriggerEvent { kind, pid: 1, command: "c", cpu_us: 0 })
                .len() as u64;
        }
        if once {
            prop_assert_eq!(fired, matching.min(1));
        } else {
            prop_assert_eq!(fired, matching);
        }
        prop_assert_eq!(engine.fired_total(), fired);
    }

    /// The cpu threshold is a lower bound: matches iff `cpu >= min`.
    #[test]
    fn trigger_cpu_threshold(min in 0u64..1_000_000, cpu in 0u64..1_000_000) {
        let mut engine = TriggerEngine::new();
        engine.add(TriggerSpec {
            id: 1,
            pattern: EventPattern::default().with_min_cpu_us(min),
            action: TriggerAction::Notify { note: "n".into() },
            once: false,
        });
        let fired = engine
            .on_event(TriggerEvent { kind: "exec", pid: 1, command: "c", cpu_us: cpu })
            .len();
        prop_assert_eq!(fired == 1, cpu >= min);
    }
}

// ---- history --------------------------------------------------------------

proptest! {
    /// The ring respects its capacity, keeps the newest entries, and
    /// queries are time-filtered in order.
    #[test]
    fn history_ring_bounds(cap in 1usize..50, n in 1usize..120, since_idx in 0usize..120) {
        let mut h = History::new(cap, 8);
        for i in 0..n {
            h.record(
                SimTime::from_micros(i as u64 * 10),
                Gpid::new("h", i as u32),
                "ev",
                "",
            );
        }
        prop_assert!(h.len() <= cap);
        prop_assert_eq!(h.len(), n.min(cap));
        prop_assert_eq!(h.dropped(), (n.saturating_sub(cap)) as u64);
        // The retained window is the most recent `cap` entries.
        let all = h.query(0, usize::MAX);
        if let Some(first) = all.first() {
            prop_assert_eq!(first.gpid.pid as usize, n - all.len());
        }
        // Time filter: everything returned is >= the bound, in order.
        let since = since_idx as u64 * 10;
        let filtered = h.query(since, usize::MAX);
        prop_assert!(filtered.iter().all(|e| e.at_us >= since));
        prop_assert!(filtered.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }
}
