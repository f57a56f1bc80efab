//! Assembling snapshot slices into the genealogical forest of Figure 1.
//!
//! Snapshot replies carry flat [`ProcRecord`]s from each host; this module
//! links them into trees using local parent pids and cross-host logical
//! parent edges, exactly the structure "a PPM may present the user when
//! computations exist in three hosts".

use std::collections::{BTreeMap, BTreeSet};

use ppm_proto::types::{Gpid, ProcRecord};

/// A node of the assembled forest.
#[derive(Debug, Clone)]
pub struct ForestNode {
    /// The process.
    pub record: ProcRecord,
    /// Children, sorted by (host, pid).
    pub children: Vec<Gpid>,
}

/// The assembled distributed genealogy.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    nodes: BTreeMap<Gpid, ForestNode>,
    roots: Vec<Gpid>,
}

impl Forest {
    /// Builds the forest from snapshot records.
    ///
    /// # Examples
    ///
    /// ```
    /// use ppm_proto::types::{Gpid, ProcRecord, WireProcState};
    /// use ppm_tools::forest::Forest;
    ///
    /// let records = vec![
    ///     ProcRecord {
    ///         gpid: Gpid::new("calder", 10),
    ///         ppid: 1,
    ///         logical_parent: None,
    ///         command: "master".into(),
    ///         state: WireProcState::Running,
    ///         started_us: 0,
    ///         cpu_us: 0,
    ///         adopted: true,
    ///     },
    ///     ProcRecord {
    ///         gpid: Gpid::new("kim", 5),
    ///         ppid: 1,
    ///         logical_parent: Some(Gpid::new("calder", 10)),
    ///         command: "worker".into(),
    ///         state: WireProcState::Running,
    ///         started_us: 0,
    ///         cpu_us: 0,
    ///         adopted: true,
    ///     },
    /// ];
    /// let forest = Forest::build(records);
    /// assert_eq!(forest.tree_count(), 1, "cross-host edge joins the trees");
    /// assert_eq!(forest.hosts(), vec!["calder", "kim"]);
    /// ```
    pub fn build(records: Vec<ProcRecord>) -> Self {
        let mut nodes: BTreeMap<Gpid, ForestNode> = records
            .into_iter()
            .map(|record| {
                (
                    record.gpid.clone(),
                    ForestNode {
                        record,
                        children: Vec::new(),
                    },
                )
            })
            .collect();
        let keys: Vec<Gpid> = nodes.keys().cloned().collect();
        let mut non_roots: BTreeSet<Gpid> = BTreeSet::new();
        for gpid in &keys {
            let parent = {
                let n = &nodes[gpid];
                // Prefer the local parent when it is itself tracked, else
                // the cross-host logical parent.
                let local = Gpid::new(gpid.host.clone(), n.record.ppid);
                if n.record.ppid > 1 && nodes.contains_key(&local) && &local != gpid {
                    Some(local)
                } else {
                    n.record
                        .logical_parent
                        .clone()
                        .filter(|lp| nodes.contains_key(lp) && lp != gpid)
                }
            };
            if let Some(parent) = parent {
                nodes
                    .get_mut(&parent)
                    .expect("checked")
                    .children
                    .push(gpid.clone());
                non_roots.insert(gpid.clone());
            }
        }
        for node in nodes.values_mut() {
            node.children.sort();
        }
        let roots: Vec<Gpid> = keys
            .into_iter()
            .filter(|k| !non_roots.contains(k))
            .collect();
        Forest { nodes, roots }
    }

    /// Whether `root` is a root a crash manufactured: a live process a
    /// respawned LPM re-adopted with its real parent lost (recorded as
    /// `ppid == 0`, while ordinary root spawns carry ppid 1) and no
    /// cross-host logical edge. Its place in the forest is unexplained
    /// until sibling gossip restores the logical parent.
    pub fn is_failure_root(&self, root: &Gpid) -> bool {
        self.get(root).is_some_and(|n| {
            n.record.adopted
                && n.record.ppid == 0
                && n.record.logical_parent.is_none()
                && n.record.state != ppm_proto::types::WireProcState::Dead
        })
    }

    /// Root processes, sorted.
    pub fn roots(&self) -> &[Gpid] {
        &self.roots
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of trees (the paper's tree "may become a forest").
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// A node by identity.
    pub fn get(&self, gpid: &Gpid) -> Option<&ForestNode> {
        self.nodes.get(gpid)
    }

    /// The hosts represented, sorted: the keys are sorted by host
    /// first, so each new host is a change from the last one.
    pub fn hosts(&self) -> Vec<&str> {
        let mut hosts: Vec<&str> = Vec::new();
        for gpid in self.nodes.keys() {
            let host = gpid.host.as_str();
            if hosts.last() != Some(&host) {
                hosts.push(host);
            }
        }
        hosts
    }

    /// Every tree depth-first, roots in order, yielding `(depth, node)`:
    /// a root at depth 0, then each child's subtree in child order.
    pub fn walk(&self) -> Walk<'_> {
        Walk {
            nodes: &self.nodes,
            roots: self.roots.iter(),
            stack: Vec::new(),
        }
    }

    /// The tree under `root` depth-first, as [`Forest::walk`] visits it;
    /// nothing when `root` is not in the forest.
    pub fn walk_from<'a>(&'a self, root: &'a Gpid) -> Walk<'a> {
        Walk {
            nodes: &self.nodes,
            roots: std::slice::from_ref(root).iter(),
            stack: Vec::new(),
        }
    }
}

/// The depth-first visit of [`Forest::walk`]: one stack of borrowed
/// identities, reused from tree to tree.
#[derive(Debug)]
pub struct Walk<'a> {
    nodes: &'a BTreeMap<Gpid, ForestNode>,
    roots: std::slice::Iter<'a, Gpid>,
    stack: Vec<(usize, &'a Gpid)>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = (usize, &'a ForestNode);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (depth, gpid) = match self.stack.pop() {
                Some(top) => top,
                None => (0, self.roots.next()?),
            };
            if let Some(node) = self.nodes.get(gpid) {
                let below = node.children.iter().rev().map(|child| (depth + 1, child));
                self.stack.extend(below);
                return Some((depth, node));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_proto::types::WireProcState;

    fn rec(host: &str, pid: u32, ppid: u32, logical: Option<(&str, u32)>) -> ProcRecord {
        ProcRecord {
            gpid: Gpid::new(host, pid),
            ppid,
            logical_parent: logical.map(|(h, p)| Gpid::new(h, p)),
            command: format!("cmd-{pid}").into(),
            state: WireProcState::Running,
            started_us: 0,
            cpu_us: 0,
            adopted: true,
        }
    }

    #[test]
    fn local_parent_links_win() {
        let f = Forest::build(vec![rec("a", 10, 1, None), rec("a", 11, 10, None)]);
        assert_eq!(f.tree_count(), 1);
        assert_eq!(f.roots()[0], Gpid::new("a", 10));
        assert_eq!(
            f.get(&Gpid::new("a", 10)).unwrap().children,
            vec![Gpid::new("a", 11)]
        );
    }

    #[test]
    fn cross_host_logical_edges_join_trees() {
        let f = Forest::build(vec![
            rec("a", 10, 1, None),
            rec("b", 20, 1, Some(("a", 10))),
            rec("c", 30, 1, Some(("b", 20))),
        ]);
        assert_eq!(f.tree_count(), 1, "one logical tree across three hosts");
        let depths: Vec<usize> = f.walk().map(|(depth, _)| depth).collect();
        assert_eq!(depths, [0, 1, 2]);
        assert_eq!(f.hosts(), vec!["a", "b", "c"]);
    }

    #[test]
    fn missing_parent_makes_a_forest() {
        // The parent's host crashed: its record is absent.
        let f = Forest::build(vec![
            rec("b", 20, 1, Some(("gone", 10))),
            rec("c", 30, 1, Some(("gone", 10))),
        ]);
        assert_eq!(f.tree_count(), 2, "orphans become separate trees");
    }

    #[test]
    fn self_and_dangling_references_are_ignored() {
        let mut r = rec("a", 10, 10, None);
        r.logical_parent = Some(Gpid::new("a", 10));
        let f = Forest::build(vec![r]);
        assert_eq!(f.tree_count(), 1);
        assert!(!f.is_empty());
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn children_are_sorted() {
        let f = Forest::build(vec![
            rec("a", 10, 1, None),
            rec("b", 5, 1, Some(("a", 10))),
            rec("a", 12, 10, None),
        ]);
        let children = &f.get(&Gpid::new("a", 10)).unwrap().children;
        assert_eq!(children, &vec![Gpid::new("a", 12), Gpid::new("b", 5)]);
    }
}
