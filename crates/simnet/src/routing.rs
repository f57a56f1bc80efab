//! Static shortest-path routing over the physical [`NetGraph`].
//!
//! The table is precomputed: one BFS per host over live nodes and live
//! links (neighbours visited in ascending node order), then one canonical
//! path per unordered host pair. Two properties are guaranteed by
//! construction, and property-tested in `tests/prop_simnet.rs`:
//!
//! * **Determinism** — the table is a pure function of the graph. Same
//!   topology (and same up/down state) ⇒ byte-identical tables
//!   ([`RoutingTable::table_bytes`] is the canonical serialization the
//!   tests compare).
//! * **Symmetry** — on undirected links the route from `b` to `a` is the
//!   exact reverse of the route from `a` to `b`. A greedy min-id next-hop
//!   walk does *not* have this property (walking from each end can tie-
//!   break onto different equal-length paths), so the table stores one
//!   canonical path per unordered pair `{a, b}`: the greedy min-id walk
//!   from `min(a, b)`, with the reverse direction defined as its
//!   reversal.
//!
//! The table is rebuilt eagerly on every topology mutation (named-link
//! cut/heal, host crash/restart). Worlds are tens to a few hundred nodes,
//! so a full rebuild is microseconds — a price worth paying to keep the
//! delivery hot path a single table lookup.
//!
//! [`NetGraph`]: crate::topology::NetGraph

use crate::topology::NetGraph;

/// Sentinel distance for "unreachable".
const UNREACHED: u16 = u16::MAX;

/// The precomputed route table: per unordered host pair, the canonical
/// node path and the link indices it traverses.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    hosts: u32,
    /// Per pair index (see [`RoutingTable::pair_idx`]): node path from the
    /// smaller host to the larger, empty when unreachable.
    paths: Vec<Vec<u32>>,
    /// Link indices along each canonical path.
    links: Vec<Vec<u32>>,
}

impl RoutingTable {
    /// Index of the unordered pair `{a, b}` with `a < b` into the
    /// triangular pair arrays.
    fn pair_idx(hosts: u32, a: u32, b: u32) -> usize {
        debug_assert!(a < b && b < hosts);
        let a = a as usize;
        let b = b as usize;
        let n = hosts as usize;
        // Row `a` starts after the full rows above it.
        a * n - a * (a + 1) / 2 + (b - a - 1)
    }

    /// BFS distances from `src` over live nodes/links, neighbours in
    /// ascending node order.
    fn bfs(g: &NetGraph, src: u32) -> Vec<u16> {
        let mut dist = vec![UNREACHED; g.node_names.len()];
        if !g.node_live(src) {
            return dist;
        }
        dist[src as usize] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &(v, l) in &g.adj[u as usize] {
                if !g.links[l as usize].up || !g.node_live(v) || dist[v as usize] != UNREACHED {
                    continue;
                }
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
        dist
    }

    /// Builds the table from the graph's current live state.
    pub fn build(g: &NetGraph) -> RoutingTable {
        let hosts = g.hosts;
        let npairs = (hosts as usize) * (hosts as usize).saturating_sub(1) / 2;
        let mut paths = vec![Vec::new(); npairs];
        let mut links = vec![Vec::new(); npairs];
        // One BFS per *destination* host; dist_to[b][n] = hops n → b.
        let dist_to: Vec<Vec<u16>> = (0..hosts).map(|b| Self::bfs(g, b)).collect();
        for a in 0..hosts {
            for b in (a + 1)..hosts {
                let dist = &dist_to[b as usize];
                if dist[a as usize] == UNREACHED {
                    continue;
                }
                // Greedy min-id descent from a toward b: at each step take
                // the smallest live neighbour strictly closer to b. adj is
                // sorted, so the first qualifying entry is the canonical
                // choice.
                let idx = Self::pair_idx(hosts, a, b);
                let mut node_path = vec![a];
                let mut link_path = Vec::new();
                let mut cur = a;
                while cur != b {
                    let d = dist[cur as usize];
                    let &(next, link) = g.adj[cur as usize]
                        .iter()
                        .find(|&&(v, l)| {
                            g.links[l as usize].up && g.node_live(v) && dist[v as usize] + 1 == d
                        })
                        .expect("BFS said b is reachable, a closer neighbour exists");
                    node_path.push(next);
                    link_path.push(link);
                    cur = next;
                }
                paths[idx] = node_path;
                links[idx] = link_path;
            }
        }
        RoutingTable {
            hosts,
            paths,
            links,
        }
    }

    /// The canonical route from host `a` to host `b`: node path (starting
    /// at `a`, ending at `b`) and the link indices traversed, or `None`
    /// when unreachable. `a == b` yields an empty path.
    pub fn route(&self, a: u32, b: u32) -> Option<(Vec<u32>, Vec<u32>)> {
        if a == b {
            return Some((vec![a], Vec::new()));
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let idx = Self::pair_idx(self.hosts, lo, hi);
        let nodes = &self.paths[idx];
        if nodes.is_empty() {
            return None;
        }
        let links = &self.links[idx];
        if a == lo {
            Some((nodes.clone(), links.clone()))
        } else {
            let mut n = nodes.clone();
            let mut l = links.clone();
            n.reverse();
            l.reverse();
            Some((n, l))
        }
    }

    /// The link indices from `a` to `b` without cloning the node path.
    /// Forward order for `a < b`, reverse otherwise.
    pub fn route_links(&self, a: u32, b: u32) -> Option<&[u32]> {
        if a == b {
            return Some(&[]);
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let idx = Self::pair_idx(self.hosts, lo, hi);
        if self.paths[idx].is_empty() {
            return None;
        }
        Some(&self.links[idx])
    }

    /// Whether hosts `a` and `b` can currently exchange traffic.
    pub fn reachable(&self, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        !self.paths[Self::pair_idx(self.hosts, lo, hi)].is_empty()
    }

    /// Canonical byte serialization of the whole table — the value the
    /// determinism property test compares across rebuilds.
    pub fn table_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.hosts.to_be_bytes());
        for (p, l) in self.paths.iter().zip(&self.links) {
            out.extend_from_slice(&(p.len() as u32).to_be_bytes());
            for n in p {
                out.extend_from_slice(&n.to_be_bytes());
            }
            for i in l {
                out.extend_from_slice(&i.to_be_bytes());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NetGraph, NetSpec};

    fn graph(preset: &str, n: usize) -> NetGraph {
        let hosts: Vec<String> = (0..n).map(|i| format!("h{i}")).collect();
        let spec = NetSpec::preset(preset, &hosts).unwrap();
        NetGraph::build(&spec, &hosts).unwrap()
    }

    #[test]
    fn full_mesh_routes_are_one_link() {
        let t = RoutingTable::build(&graph("full-mesh", 5));
        for a in 0..5u32 {
            for b in 0..5u32 {
                let (nodes, links) = t.route(a, b).unwrap();
                if a == b {
                    assert!(links.is_empty());
                } else {
                    assert_eq!(nodes, vec![a, b]);
                    assert_eq!(links.len(), 1);
                }
            }
        }
    }

    #[test]
    fn fat_tree_cross_pod_routes_cross_the_core() {
        let g = graph("fat-tree", 8);
        let t = RoutingTable::build(&g);
        // h0 (pod 0) → h7 (pod 1): host→tor0→spine→tor1→host.
        let (nodes, links) = t.route(0, 7).unwrap();
        assert_eq!(nodes.len(), 5);
        assert!(links.iter().any(|&l| g.links[l as usize].core));
        // Same pod: two edge links through the ToR, no core.
        let (_, links) = t.route(0, 3).unwrap();
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|&l| !g.links[l as usize].core));
    }

    #[test]
    fn routes_reverse_exactly() {
        let t = RoutingTable::build(&graph("fat-tree", 16));
        for a in 0..16u32 {
            for b in 0..16u32 {
                let (mut fwd, mut fl) = t.route(a, b).unwrap();
                let (rev, rl) = t.route(b, a).unwrap();
                fwd.reverse();
                fl.reverse();
                assert_eq!(fwd, rev, "{a}->{b}");
                assert_eq!(fl, rl, "{a}->{b} links");
            }
        }
    }

    #[test]
    fn cut_link_reroutes_or_disconnects() {
        let mut g = graph("fat-tree", 8);
        let t = RoutingTable::build(&g);
        assert!(t.reachable(0, 7));
        // Cut both of tor0's core uplinks: pod 0 is off the tree.
        g.set_link_up(g.link_by_name("core:tor0-spine0").unwrap(), false);
        let t = RoutingTable::build(&g);
        assert!(t.reachable(0, 7), "one spine still up");
        g.set_link_up(g.link_by_name("core:tor0-spine1").unwrap(), false);
        let t = RoutingTable::build(&g);
        assert!(!t.reachable(0, 7));
        assert!(t.reachable(0, 3), "pod-internal unaffected");
        assert!(t.route(0, 7).is_none());
    }

    #[test]
    fn downed_host_is_unroutable() {
        let mut g = graph("wan-hub", 4);
        g.set_host_up(2, false);
        let t = RoutingTable::build(&g);
        assert!(!t.reachable(0, 2));
        assert!(t.reachable(0, 1));
    }

    #[test]
    fn table_bytes_is_stable_across_rebuilds() {
        let g = graph("fat-tree", 12);
        let a = RoutingTable::build(&g).table_bytes();
        let b = RoutingTable::build(&g).table_bytes();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
