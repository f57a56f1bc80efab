//! Property tests for the snapshot forest assembly: every record appears
//! exactly once across the walks of all roots (no loss, no duplication,
//! no infinite walks), for arbitrary — even inconsistent — inputs; and
//! the borrowed walk visits in the order of the walk it replaced.

use proptest::prelude::*;

use ppm_proto::types::{Gpid, ProcRecord, WireProcState};
use ppm_tools::forest::{Forest, ForestNode};

/// The walk the borrowed one replaced, kept as its model: a fresh output
/// and a stack of cloned identities for every root.
fn reference_walk<'a>(forest: &'a Forest, root: &Gpid) -> Vec<(usize, &'a ForestNode)> {
    let mut out = Vec::new();
    let mut stack: Vec<(usize, Gpid)> = vec![(0, root.clone())];
    while let Some((depth, gpid)) = stack.pop() {
        if let Some(node) = forest.get(&gpid) {
            out.push((depth, node));
            for child in node.children.iter().rev() {
                stack.push((depth + 1, child.clone()));
            }
        }
    }
    out
}

/// A visit as `(depth, gpid)` pairs, for comparing.
fn keys<'a>(visit: impl Iterator<Item = (usize, &'a ForestNode)>) -> Vec<(usize, Gpid)> {
    visit
        .map(|(depth, node)| (depth, node.record.gpid.clone()))
        .collect()
}

fn arb_records() -> impl Strategy<Value = Vec<ProcRecord>> {
    // Hosts and pids from tiny ranges to force collisions, self-references
    // and dangling parents.
    prop::collection::vec(
        (
            0u8..3,                               // host
            1u32..12,                             // pid
            0u32..12,                             // ppid
            prop::option::of((0u8..3, 1u32..12)), // logical parent
            prop::bool::ANY,                      // dead?
        ),
        0..25,
    )
    .prop_map(|rows| {
        let mut seen = std::collections::BTreeSet::new();
        rows.into_iter()
            .filter_map(|(h, pid, ppid, lp, dead)| {
                let gpid = Gpid::new(format!("h{h}"), pid);
                // Snapshot slices never repeat a gpid.
                if !seen.insert(gpid.clone()) {
                    return None;
                }
                Some(ProcRecord {
                    gpid,
                    ppid,
                    logical_parent: lp.map(|(lh, lpid)| Gpid::new(format!("h{lh}"), lpid)),
                    command: format!("c{pid}").into(),
                    state: if dead {
                        WireProcState::Dead
                    } else {
                        WireProcState::Running
                    },
                    started_us: 0,
                    cpu_us: 0,
                    adopted: true,
                })
            })
            .collect()
    })
}

proptest! {
    /// Walking all roots visits every node at most once in total, and
    /// (for acyclic inputs) exactly once.
    #[test]
    fn forest_partitions_records(records in arb_records()) {
        let n = records.len();
        let forest = Forest::build(records);
        prop_assert_eq!(forest.len(), n);

        let mut visited = std::collections::BTreeSet::new();
        for (_, node) in forest.walk() {
            // No duplicates across trees.
            prop_assert!(
                visited.insert(node.record.gpid.clone()),
                "node {} visited twice",
                node.record.gpid
            );
        }
        // Every visited node exists; visited ⊆ records. (Cycles formed by
        // mutually-referencing logical parents are unreachable from roots
        // and are legitimately not displayed.)
        prop_assert!(visited.len() <= n);
        // Roots themselves are always visited.
        for root in forest.roots() {
            prop_assert!(visited.contains(root));
        }
    }

    /// Every node is either a root or the child of exactly one parent.
    #[test]
    fn forest_in_degree_is_at_most_one(records in arb_records()) {
        let forest = Forest::build(records);
        let mut in_degree: std::collections::BTreeMap<Gpid, usize> = Default::default();
        let all: Vec<Gpid> = forest.roots().to_vec();
        let mut stack = all;
        let mut seen = std::collections::BTreeSet::new();
        while let Some(g) = stack.pop() {
            if !seen.insert(g.clone()) {
                continue;
            }
            if let Some(node) = forest.get(&g) {
                for c in &node.children {
                    *in_degree.entry(c.clone()).or_insert(0) += 1;
                    stack.push(c.clone());
                }
            }
        }
        for (g, d) in in_degree {
            prop_assert!(d <= 1, "{g} has in-degree {d}");
            prop_assert!(!forest.roots().contains(&g), "{g} is both root and child");
        }
    }

    /// The borrowed walk visits every tree in the reference walk's order,
    /// roots in order; from one root it is that root's reference walk,
    /// and from a root not in the forest it is empty.
    #[test]
    fn the_borrowed_walk_is_the_reference_walk(records in arb_records(), stray in 1u32..12) {
        let forest = Forest::build(records);
        let mut expected = Vec::new();
        for root in forest.roots() {
            let tree = keys(reference_walk(&forest, root).into_iter());
            prop_assert_eq!(&keys(forest.walk_from(root)), &tree);
            expected.extend(tree);
        }
        prop_assert_eq!(keys(forest.walk()), expected);
        let stray = Gpid::new("elsewhere", stray);
        prop_assert_eq!(forest.walk_from(&stray).count(), 0);
    }

    /// The hosts are the records' hosts, sorted and each once.
    #[test]
    fn hosts_are_the_sorted_distinct_hosts(records in arb_records()) {
        let expected: std::collections::BTreeSet<String> =
            records.iter().map(|r| r.gpid.host.to_string()).collect();
        let forest = Forest::build(records);
        prop_assert_eq!(forest.hosts(), expected.iter().map(String::as_str).collect::<Vec<_>>());
    }
}
