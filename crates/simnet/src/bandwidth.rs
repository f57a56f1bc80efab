//! Shared-capacity bandwidth accounting and the assembled netmodel.
//!
//! Every named link carries a capacity in bytes/sec. A transfer of `B`
//! bytes that starts while `n` other transfers are still in flight on the
//! link is charged the **fair-share serialization law**
//!
//! ```text
//! serialize_us = B * 1e6 / cap * (n + 1)
//! queue_us     = serialize_us - uncontended   (the contention penalty)
//! ```
//!
//! — i.e. the link's capacity is split evenly across concurrent flows for
//! the whole transfer, approximated at admission time. The in-flight
//! ledger is pruned lazily against simulated now, so the model keeps no
//! timers of its own and its state is a pure function of the (globally
//! ordered, deterministic) sequence of sends. No RNG is consumed by
//! bandwidth accounting; only lossy links draw, and those draws come from
//! the netmodel's **own** seeded stream so installing a topology never
//! perturbs the world's jitter sequence.
//!
//! [`NetModel`] bundles the pieces the simulated world consults on every
//! routed delivery: the physical [`NetGraph`], the precomputed
//! [`RoutingTable`] (rebuilt eagerly on topology mutations), the
//! per-link ledgers, and per-link traffic counters feeding the
//! `net.*` metrics and the dashboard's congested-links column.

use crate::rng::SimRng;
use crate::routing::RoutingTable;
use crate::topology::{NetGraph, NetSpec};

/// Admission-time charge for one transfer over one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// Contention-scaled serialization time, µs.
    pub serialize_us: u64,
    /// Queueing penalty over the uncontended time, µs.
    pub queue_us: u64,
}

/// Per-link in-flight ledger: completion times of admitted transfers.
#[derive(Debug, Clone, Default)]
struct Ledger {
    /// Completion instants (µs) of in-flight transfers, unsorted.
    ends: Vec<u64>,
}

impl Ledger {
    /// Admits a transfer at `now`: prunes finished entries, counts the
    /// overlap, applies the fair-share law.
    fn charge(&mut self, now_us: u64, bytes: u64, cap_bps: u64) -> Charge {
        self.ends.retain(|&e| e > now_us);
        let flows = self.ends.len() as u64;
        let base = bytes.saturating_mul(1_000_000) / cap_bps.max(1);
        let serialize_us = base.saturating_mul(flows + 1);
        self.ends.push(now_us + serialize_us);
        Charge {
            serialize_us,
            queue_us: serialize_us - base,
        }
    }
}

/// Cumulative per-link traffic counters (dashboard + metrics source).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Total bytes admitted.
    pub bytes: u64,
    /// Total queueing penalty accrued, µs.
    pub queue_us: u64,
    /// Transfers admitted.
    pub sends: u64,
    /// Transfers that saw at least one in-flight competitor.
    pub congested: u64,
}

/// Outcome of pricing one end-to-end transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transfer {
    /// Deliver after this many microseconds.
    Deliver {
        /// Total path latency: per-link fixed latency + serialization.
        total_us: u64,
        /// Of which queueing penalty (the congestion signal).
        queue_us: u64,
        /// Links traversed.
        links: u32,
    },
    /// A lossy link dropped the message (the draw is recorded; the
    /// caller traces and does not schedule a delivery).
    Dropped,
    /// No live physical path between the endpoints.
    Unreachable,
}

/// The per-link constants [`NetModel::transfer`] reads on every hop,
/// packed densely so pricing a route touches a few cache lines instead
/// of striding through [`crate::topology::NetLink`]s and their names.
#[derive(Debug, Clone, Copy)]
struct LinkParams {
    cap_bps: u64,
    lat_us: u64,
    loss: f64,
    core: bool,
}

/// The assembled bandwidth- and topology-aware network model.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// The physical graph (hosts + switches + named links).
    pub graph: NetGraph,
    /// Precomputed routes, rebuilt on every mutation.
    pub routing: RoutingTable,
    /// Hot copies of each link's pricing constants (immutable: up/down
    /// state lives in the routing rebuild, not here).
    params: Vec<LinkParams>,
    ledgers: Vec<Ledger>,
    stats: Vec<LinkStats>,
    /// Dedicated loss stream, independent of the world's RNG.
    rng: SimRng,
    /// Topology name, for traces.
    pub name: String,
    /// Transfers priced (excludes local IPC).
    pub routed_sends: u64,
    /// Transfers dropped by lossy links.
    pub drops: u64,
    /// Bytes admitted onto `core`-flagged (bisection) links.
    pub bisection_bytes: u64,
}

impl NetModel {
    /// Builds the model over the world's hosts (in host-id order).
    pub fn build(spec: &NetSpec, host_names: &[String], seed: u64) -> Result<NetModel, String> {
        let graph = NetGraph::build(spec, host_names)?;
        let routing = RoutingTable::build(&graph);
        let n = graph.links.len();
        Ok(NetModel {
            routing,
            params: graph
                .links
                .iter()
                .map(|l| LinkParams {
                    cap_bps: l.cap_bps,
                    lat_us: l.lat_us,
                    loss: l.loss,
                    core: l.core,
                })
                .collect(),
            ledgers: vec![Ledger::default(); n],
            stats: vec![LinkStats::default(); n],
            // Offset the seed so the loss stream never mirrors the
            // world's jitter stream or a fault plan's wire stream.
            rng: SimRng::seed_from(seed ^ 0x6e65_746d),
            name: spec.name.clone(),
            graph,
            routed_sends: 0,
            drops: 0,
            bisection_bytes: 0,
        })
    }

    /// Prices a transfer of `bytes` from host `a` to host `b` at `now`.
    ///
    /// Charges every link on the canonical route: fixed latency plus
    /// fair-share serialization, accumulating the per-link counters.
    /// Lossy links may drop the message (one Bernoulli draw per lossy
    /// link traversed, from the model's own stream).
    pub fn transfer(&mut self, a: u32, b: u32, bytes: u64, now_us: u64) -> Transfer {
        let Some(route) = self.routing.route_links(a, b) else {
            return Transfer::Unreachable;
        };
        let mut total_us = 0u64;
        let mut queue_us = 0u64;
        let links = route.len() as u32;
        let mut dropped = false;
        // Collect charges even on the dropped path: the bytes occupied
        // the links up to (and including) the dropping link.
        for &l in route {
            let li = l as usize;
            let link = &self.params[li];
            let charge = self.ledgers[li].charge(now_us, bytes, link.cap_bps);
            let s = &mut self.stats[li];
            s.bytes += bytes;
            s.queue_us += charge.queue_us;
            s.sends += 1;
            if charge.queue_us > 0 {
                s.congested += 1;
            }
            if link.core {
                self.bisection_bytes += bytes;
            }
            total_us += link.lat_us + charge.serialize_us;
            queue_us += charge.queue_us;
            if link.loss > 0.0 && self.rng.chance(link.loss) {
                dropped = true;
                break;
            }
        }
        self.routed_sends += 1;
        if dropped {
            self.drops += 1;
            return Transfer::Dropped;
        }
        Transfer::Deliver {
            total_us,
            queue_us,
            links,
        }
    }

    /// Prices an *uncontended* traversal (control traffic: handshakes,
    /// closes). Consults the route and per-link latency/capacity but
    /// neither the ledgers nor the loss stream, so pure control traffic
    /// never perturbs contention state.
    pub fn wire_uncontended(&self, a: u32, b: u32, bytes: u64) -> Option<u64> {
        let route = self.routing.route_links(a, b)?;
        Some(
            route
                .iter()
                .map(|&l| {
                    let link = &self.params[l as usize];
                    link.lat_us + bytes.saturating_mul(1_000_000) / link.cap_bps.max(1)
                })
                .sum(),
        )
    }

    /// Whether hosts `a` and `b` have a live physical path.
    pub fn reachable(&self, a: u32, b: u32) -> bool {
        self.routing.reachable(a, b)
    }

    /// Flips a link by index, rebuilding the routes when the state
    /// actually changed. Returns whether it changed.
    pub fn set_link_up(&mut self, idx: u32, up: bool) -> bool {
        let prev = self.graph.set_link_up(idx, up);
        if prev != up {
            self.routing = RoutingTable::build(&self.graph);
        }
        prev != up
    }

    /// Mirrors a host crash/restart and rebuilds the routes.
    pub fn set_host_up(&mut self, host: u32, up: bool) {
        self.graph.set_host_up(host, up);
        self.routing = RoutingTable::build(&self.graph);
    }

    /// Per-link cumulative stats, in link declaration order.
    pub fn link_stats(&self) -> impl Iterator<Item = (&str, &LinkStats)> + '_ {
        self.graph
            .links
            .iter()
            .zip(&self.stats)
            .map(|(l, s)| (l.name.as_str(), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NetSpec;

    fn model(preset: &str, n: usize) -> NetModel {
        let hosts: Vec<String> = (0..n).map(|i| format!("h{i}")).collect();
        let spec = NetSpec::preset(preset, &hosts).unwrap();
        NetModel::build(&spec, &hosts, 1986).unwrap()
    }

    #[test]
    fn uncontended_full_mesh_matches_the_flat_law() {
        // One mesh link at defaults: 5000 µs + 4 µs/byte — the flat
        // model's one-hop wire, the conformance anchor.
        let mut m = model("full-mesh", 3);
        match m.transfer(0, 1, 100, 0) {
            Transfer::Deliver {
                total_us,
                queue_us,
                links,
            } => {
                assert_eq!(total_us, 5_000 + 400);
                assert_eq!(queue_us, 0);
                assert_eq!(links, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overlapping_transfers_see_fair_share_contention() {
        let mut m = model("full-mesh", 2);
        let first = m.transfer(0, 1, 1000, 0);
        let second = m.transfer(0, 1, 1000, 0);
        let (
            Transfer::Deliver { total_us: t1, .. },
            Transfer::Deliver {
                total_us: t2,
                queue_us,
                ..
            },
        ) = (first, second)
        else {
            panic!("both deliver");
        };
        // 1000 B at 250 kB/s = 4000 µs; the second flow shares: 8000 µs.
        assert_eq!(t1, 5_000 + 4_000);
        assert_eq!(t2, 5_000 + 8_000);
        assert_eq!(queue_us, 4_000);
        // After both complete the link is idle again.
        let third = m.transfer(0, 1, 1000, 1_000_000);
        assert_eq!(
            third,
            Transfer::Deliver {
                total_us: 9_000,
                queue_us: 0,
                links: 1
            }
        );
        let (_, s) = m.link_stats().next().unwrap();
        assert_eq!(s.sends, 3);
        assert_eq!(s.congested, 1);
        assert_eq!(s.bytes, 3000);
    }

    #[test]
    fn fat_tree_counts_bisection_bytes_only_on_core_links() {
        let mut m = model("fat-tree", 8);
        m.transfer(0, 1, 500, 0); // same pod: no core link
        assert_eq!(m.bisection_bytes, 0);
        // Cross-pod: up to a spine and back down — two core links.
        m.transfer(0, 7, 500, 0);
        assert_eq!(m.bisection_bytes, 1000);
    }

    #[test]
    fn cut_core_links_make_pods_unreachable() {
        let mut m = model("fat-tree", 8);
        let spine0 = m.graph.link_by_name("core:tor0-spine0").unwrap();
        let spine1 = m.graph.link_by_name("core:tor0-spine1").unwrap();
        assert!(m.set_link_up(spine0, false));
        assert!(m.set_link_up(spine1, false));
        assert_eq!(m.transfer(0, 7, 100, 0), Transfer::Unreachable);
        assert!(m.reachable(0, 3));
        assert!(m.set_link_up(spine0, true));
        assert!(m.reachable(0, 7));
        assert!(m.graph.link_by_name("no-such-link").is_none());
    }

    #[test]
    fn lossy_links_drop_deterministically() {
        let run = || {
            let mut m = model("last-mile", 4);
            let mut drops = Vec::new();
            for i in 0..2000u64 {
                if m.transfer(0, 1, 64, i * 10_000) == Transfer::Dropped {
                    drops.push(i);
                }
            }
            drops
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same drops");
        // loss=0.02 per link, 2 links per path: ≈ 4% of 2000.
        assert!(a.len() > 20 && a.len() < 200, "{}", a.len());
        let m = {
            let mut m = model("last-mile", 4);
            for i in 0..100u64 {
                m.transfer(0, 1, 64, i * 10_000);
            }
            m
        };
        assert_eq!(m.routed_sends, 100);
    }

    #[test]
    fn control_traffic_does_not_touch_the_ledgers() {
        let mut m = model("full-mesh", 2);
        let rtt = m.wire_uncontended(0, 1, 100).unwrap();
        assert_eq!(rtt, 5_400);
        let t = m.transfer(0, 1, 100, 0);
        assert_eq!(
            t,
            Transfer::Deliver {
                total_us: 5_400,
                queue_us: 0,
                links: 1
            }
        );
    }
}
