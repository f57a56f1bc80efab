//! Network topology: hosts, links, routes, partitions, crashes.
//!
//! The paper's environment is a set of machines (VAX 11/780, VAX 11/750,
//! SUN II) joined by local-area links. Only two topological properties
//! matter to the PPM's measured behaviour: the **hop count** between two
//! hosts (Table 2 and Table 3 are keyed on it) and **reachability** (crash
//! recovery in Section 5 is driven by partitions and host crashes). This
//! module models exactly those.
//!
//! Beside it sits the physical network model, [`NetSpec`]: a preset, or a
//! `.topo` file read by [`crate::grammar`] as every text file is (`#`
//! comments, durations with a unit, probabilities in `[0, 1]`, and a
//! refusal that names its line).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use crate::grammar::{self, LineError};
use crate::time::SimTime;

// Host identity and hardware class live in the backend-agnostic runtime
// layer; re-exported here so simulation-side code keeps its paths.
pub use ppm_runtime::ids::{CpuClass, HostId};

/// Static description of one host.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Network-unique host name, e.g. `"ucbvax"`.
    pub name: String,
    /// Hardware class.
    pub cpu: CpuClass,
}

impl HostSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, cpu: CpuClass) -> Self {
        HostSpec {
            name: name.into(),
            cpu,
        }
    }
}

#[derive(Debug, Clone)]
struct HostEntry {
    spec: HostSpec,
    up: bool,
}

/// The network graph.
///
/// Hosts are vertices; links are undirected edges. Links and hosts can be
/// taken down to model partitions and crashes; routing (`hops`) only
/// traverses live hosts and live links.
///
/// # Examples
///
/// ```
/// use ppm_simnet::topology::{CpuClass, HostSpec, Topology};
///
/// let mut topo = Topology::new();
/// let a = topo.add_host(HostSpec::new("a", CpuClass::Vax780));
/// let b = topo.add_host(HostSpec::new("b", CpuClass::Vax750));
/// let c = topo.add_host(HostSpec::new("c", CpuClass::Sun2));
/// topo.add_link(a, b);
/// topo.add_link(b, c);
/// assert_eq!(topo.hops(a, c), Some(2));
/// topo.set_link_up(a, b, false);
/// assert_eq!(topo.hops(a, c), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    hosts: Vec<HostEntry>,
    by_name: HashMap<String, HostId>,
    // adjacency: for each host, the set of (peer, link_up) entries
    adj: Vec<Vec<(HostId, bool)>>,
    /// Hop counts between all pairs over live hosts and links (row-major
    /// `n × n`, [`NO_ROUTE`] where there is none), or `None` once a host
    /// or link has been added or changed state. [`Topology::hops`] is
    /// asked on every simulated send and hosts and links change a handful
    /// of times in a run, so it answers from this table and rebuilds it
    /// on the first question after a change.
    hop_table: RefCell<Option<Vec<u32>>>,
}

/// [`Topology::hop_table`]'s "unreachable, or an endpoint is down".
const NO_ROUTE: u32 = u32::MAX;

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host (initially up) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a host with the same name already exists.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        assert!(
            !self.by_name.contains_key(&spec.name),
            "duplicate host name {:?}",
            spec.name
        );
        let id = HostId(self.hosts.len() as u32);
        self.by_name.insert(spec.name.clone(), id);
        self.hosts.push(HostEntry { spec, up: true });
        self.adj.push(Vec::new());
        *self.hop_table.get_mut() = None;
        id
    }

    /// Adds an undirected link between two hosts (initially up).
    ///
    /// Adding an existing link is a no-op. Self-links are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is unknown.
    pub fn add_link(&mut self, a: HostId, b: HostId) {
        assert!(a != b, "self-links are not allowed");
        self.check(a);
        self.check(b);
        if !self.adj[a.0 as usize].iter().any(|(p, _)| *p == b) {
            self.adj[a.0 as usize].push((b, true));
            self.adj[b.0 as usize].push((a, true));
            *self.hop_table.get_mut() = None;
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the topology has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Iterator over all host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len() as u32).map(HostId)
    }

    /// The spec of a host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn spec(&self, id: HostId) -> &HostSpec {
        &self.hosts[id.0 as usize].spec
    }

    /// Looks a host up by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.by_name.get(name).copied()
    }

    /// Whether the host is currently up.
    pub fn is_up(&self, id: HostId) -> bool {
        self.hosts[id.0 as usize].up
    }

    /// Crashes or restarts a host.
    pub fn set_host_up(&mut self, id: HostId, up: bool) {
        self.check(id);
        self.hosts[id.0 as usize].up = up;
        *self.hop_table.get_mut() = None;
    }

    /// Takes a link down (partition) or brings it back.
    ///
    /// Returns `false` if no such link exists.
    pub fn set_link_up(&mut self, a: HostId, b: HostId, up: bool) -> bool {
        *self.hop_table.get_mut() = None;
        let mut found = false;
        for (p, live) in &mut self.adj[a.0 as usize] {
            if *p == b {
                *live = up;
                found = true;
            }
        }
        for (p, live) in &mut self.adj[b.0 as usize] {
            if *p == a {
                *live = up;
            }
        }
        found
    }

    /// Minimum hop count between two live hosts over live links.
    ///
    /// Returns `Some(0)` when `a == b` (and `a` is up), `None` when
    /// unreachable or either endpoint is down.
    pub fn hops(&self, a: HostId, b: HostId) -> Option<u32> {
        self.check(a);
        self.check(b);
        let mut table = self.hop_table.borrow_mut();
        let table = table.get_or_insert_with(|| self.all_pairs_hops());
        match table[a.0 as usize * self.hosts.len() + b.0 as usize] {
            NO_ROUTE => None,
            hops => Some(hops),
        }
    }

    /// One breadth-first search per live host; host counts in this
    /// system are tens of nodes.
    fn all_pairs_hops(&self) -> Vec<u32> {
        let n = self.hosts.len();
        let mut table = vec![NO_ROUTE; n * n];
        let mut q = VecDeque::new();
        for (a, row) in table.chunks_exact_mut(n.max(1)).enumerate() {
            if !self.hosts[a].up {
                continue;
            }
            row[a] = 0;
            q.push_back(a);
            while let Some(u) = q.pop_front() {
                for &(v, live) in &self.adj[u] {
                    let v = v.0 as usize;
                    if live && self.hosts[v].up && row[v] == NO_ROUTE {
                        row[v] = row[u] + 1;
                        q.push_back(v);
                    }
                }
            }
        }
        table
    }

    /// All hosts reachable from `a` (including `a` itself, if up).
    pub fn reachable_from(&self, a: HostId) -> Vec<HostId> {
        if !self.is_up(a) {
            return Vec::new();
        }
        let mut seen = vec![a];
        let mut q = VecDeque::from([a]);
        while let Some(u) = q.pop_front() {
            for &(v, live) in &self.adj[u.0 as usize] {
                if live && self.is_up(v) && !seen.contains(&v) {
                    seen.push(v);
                    q.push_back(v);
                }
            }
        }
        seen
    }

    fn check(&self, id: HostId) {
        assert!((id.0 as usize) < self.hosts.len(), "unknown host {id}");
    }
}

// ---------------------------------------------------------------------------
// Netmodel extension: declarative physical topologies with named,
// capacity-carrying links.
//
// The [`Topology`] above is the *protocol-level* graph — which hosts the
// PPM believes are adjacent, the thing chain search and the broadcast
// cover walk. The netmodel below is the *physical* overlay: hosts plus
// internal switch nodes, joined by named links that carry a capacity
// (bytes/sec), a fixed latency, and optionally a deterministic loss
// probability. The routed delivery path (see `ppm-simos`) prices every
// message by its physical route over this graph instead of the flat
// `hop_base`/`per_byte` law; when no netmodel is installed nothing here
// is ever consulted, which is what keeps the default byte-identical to
// pre-netmodel runs.
// ---------------------------------------------------------------------------

/// One link of a [`NetSpec`]: endpoints are host or switch *names*,
/// resolved against the world when the graph is built.
#[derive(Debug, Clone, PartialEq)]
pub struct NetLinkSpec {
    /// Unique link name (`cut link <name>` in fault plans targets this).
    pub name: String,
    /// Endpoint name: a world host or a declared switch.
    pub a: String,
    /// Other endpoint name.
    pub b: String,
    /// Capacity in bytes per second.
    pub cap_bps: u64,
    /// Fixed one-way latency in microseconds.
    pub lat_us: u64,
    /// Per-traversal drop probability (deterministic, drawn from the
    /// netmodel's own seeded stream).
    pub loss: f64,
    /// Whether this link counts toward the bisection-bytes exhibit
    /// (`net.bisection_bytes`).
    pub core: bool,
}

/// A declarative physical topology: switches plus named links.
///
/// Built either from a `.topo` file ([`NetSpec::parse`]) or from one of
/// the presets ([`NetSpec::preset`]). The graph the world actually routes
/// over is produced by [`NetGraph::build`], which resolves endpoint names
/// against the world's host list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetSpec {
    /// Topology name (shown in traces and the installation line).
    pub name: String,
    /// Internal switch nodes (never protocol-visible hosts).
    pub switches: Vec<String>,
    /// Named links.
    pub links: Vec<NetLinkSpec>,
}

/// Default link capacity: 250 kB/s, i.e. the 4 µs/byte of the flat
/// model's `per_byte`, so an uncontended one-link route prices exactly
/// like a flat one-hop wire.
pub const NET_DEFAULT_CAP_BPS: u64 = 250_000;

/// Default link latency: the flat model's 5 ms `hop_base`.
pub const NET_DEFAULT_LAT_US: u64 = 5_000;

fn parse_net_cap_bps(s: &str) -> Result<u64, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix('k') {
        (n, 1_000.0)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 1_000_000.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.parse().map_err(|_| format!("bad capacity {s:?}"))?;
    let bps = (v * mult) as u64;
    if bps == 0 {
        return Err(format!("capacity {s:?} must be positive"));
    }
    Ok(bps)
}

impl NetSpec {
    /// Parses a `.topo` file, read by [`grammar::each_line`]. Grammar,
    /// one directive per line (`#` comments):
    ///
    /// ```text
    /// topo NAME
    /// switch SWITCH
    /// link A B [name=X] [cap=BPS[k|m]] [lat=DUR] [loss=P] [core]
    /// ```
    ///
    /// Unnamed links get `A-B`; a link name is used once. `cap` defaults
    /// to [`NET_DEFAULT_CAP_BPS`], `lat` to [`NET_DEFAULT_LAT_US`]. `DUR`
    /// is a count and a unit (`us`, `ms` or `s`), and the latencies of
    /// all links together must fit the simulated clock. `P` is a
    /// probability.
    ///
    /// # Errors
    ///
    /// [`LineError`] with the offending line number, or line 0 for a file
    /// with no links.
    pub fn parse(text: &str) -> Result<NetSpec, LineError> {
        let mut spec = NetSpec::default();
        let mut route_lat_us = 0u64;
        grammar::each_line(text, |line| {
            let t = line.at(0);
            match t.verb() {
                "topo" => {
                    spec.name = t.need(1, "a name")?.into();
                    t.end(2)?;
                }
                "switch" => {
                    let s = t.need(1, "a name")?;
                    t.end(2)?;
                    if spec.switches.iter().any(|w| w == s) {
                        return Err(format!("duplicate switch {s:?}"));
                    }
                    spec.switches.push(s.into());
                }
                "link" => {
                    let (a, b) = (t.need(1, "two endpoints")?, t.need(2, "two endpoints")?);
                    if a == b {
                        return Err("self-link".into());
                    }
                    let mut link = NetLinkSpec {
                        name: format!("{a}-{b}"),
                        a: a.into(),
                        b: b.into(),
                        cap_bps: NET_DEFAULT_CAP_BPS,
                        lat_us: NET_DEFAULT_LAT_US,
                        loss: 0.0,
                        core: false,
                    };
                    for &attr in &t.0[3..] {
                        match grammar::option(attr) {
                            ("name", Some(v)) => link.name = v.into(),
                            ("cap", Some(v)) => link.cap_bps = parse_net_cap_bps(v)?,
                            ("lat", Some(v)) => link.lat_us = grammar::duration(v)?.as_micros(),
                            ("loss", Some(v)) => link.loss = grammar::probability(v)?,
                            ("core", None) => link.core = true,
                            _ => return Err(format!("unknown link attribute {attr:?}")),
                        }
                    }
                    if spec.links.iter().any(|l| l.name == link.name) {
                        return Err(format!("duplicate link name {:?}", link.name));
                    }
                    // No route crosses a link twice, so bounding the sum
                    // over all links bounds every route's latency.
                    route_lat_us = route_lat_us
                        .checked_add(link.lat_us)
                        .filter(|t| *t <= SimTime::FAR_FUTURE.as_micros())
                        .ok_or("link latencies sum past the clock's range")?;
                    spec.links.push(link);
                }
                other => return Err(format!("unknown directive {other:?}")),
            }
            Ok(())
        })?;
        if spec.name.is_empty() {
            spec.name = "custom".into();
        }
        if spec.links.is_empty() {
            return Err("topo file declares no links".into());
        }
        Ok(spec)
    }

    /// Builds a named preset over the given world hosts (in host-id
    /// order). Returns `None` for an unknown preset name.
    ///
    /// * `full-mesh` — every host pair joined directly at default
    ///   capacity/latency: the compatibility topology, pricing an
    ///   uncontended send exactly like the flat model's one hop.
    /// * `fat-tree` — hosts in pods of 4 under a ToR switch, ToRs joined
    ///   to 2 spines; the ToR↔spine links are the (`core`) bisection.
    /// * `wan-hub` — hub-and-spoke: every host on a 20 ms, half-capacity
    ///   WAN link into one hub.
    /// * `last-mile` — hub-and-spoke with slow (30 ms, quarter-capacity)
    ///   access links that drop 2% of traversals.
    pub fn preset(name: &str, hosts: &[String]) -> Option<NetSpec> {
        let mk = |name: &str, a: &String, b: String, cap: u64, lat: u64, loss: f64, core: bool| {
            NetLinkSpec {
                name: name.into(),
                a: a.clone(),
                b,
                cap_bps: cap,
                lat_us: lat,
                loss,
                core,
            }
        };
        let mut spec = NetSpec {
            name: name.into(),
            ..NetSpec::default()
        };
        match name {
            "full-mesh" => {
                for (i, a) in hosts.iter().enumerate() {
                    for b in &hosts[i + 1..] {
                        spec.links.push(mk(
                            &format!("mesh:{a}-{b}"),
                            a,
                            b.clone(),
                            NET_DEFAULT_CAP_BPS,
                            NET_DEFAULT_LAT_US,
                            0.0,
                            false,
                        ));
                    }
                }
            }
            "fat-tree" => {
                let pods = hosts.len().div_ceil(4);
                for p in 0..pods {
                    spec.switches.push(format!("tor{p}"));
                }
                for s in 0..2usize {
                    spec.switches.push(format!("spine{s}"));
                }
                for (i, h) in hosts.iter().enumerate() {
                    spec.links.push(mk(
                        &format!("edge:{h}"),
                        h,
                        format!("tor{}", i / 4),
                        NET_DEFAULT_CAP_BPS,
                        NET_DEFAULT_LAT_US,
                        0.0,
                        false,
                    ));
                }
                for p in 0..pods {
                    for s in 0..2usize {
                        spec.links.push(mk(
                            &format!("core:tor{p}-spine{s}"),
                            &format!("tor{p}"),
                            format!("spine{s}"),
                            NET_DEFAULT_CAP_BPS,
                            NET_DEFAULT_LAT_US,
                            0.0,
                            true,
                        ));
                    }
                }
            }
            "wan-hub" => {
                spec.switches.push("hub".into());
                for h in hosts {
                    spec.links.push(mk(
                        &format!("wan:{h}"),
                        h,
                        "hub".into(),
                        NET_DEFAULT_CAP_BPS / 2,
                        20_000,
                        0.0,
                        true,
                    ));
                }
            }
            "last-mile" => {
                spec.switches.push("hub".into());
                for h in hosts {
                    spec.links.push(mk(
                        &format!("mile:{h}"),
                        h,
                        "hub".into(),
                        NET_DEFAULT_CAP_BPS / 4,
                        30_000,
                        0.02,
                        true,
                    ));
                }
            }
            _ => return None,
        }
        Some(spec)
    }

    /// The preset names [`NetSpec::preset`] understands.
    pub const PRESETS: [&'static str; 4] = ["full-mesh", "fat-tree", "wan-hub", "last-mile"];
}

/// One physical link of a built [`NetGraph`].
#[derive(Debug, Clone)]
pub struct NetLink {
    /// Link name (fault plans target this).
    pub name: String,
    /// Node index of one endpoint.
    pub a: u32,
    /// Node index of the other endpoint.
    pub b: u32,
    /// Capacity in bytes/sec.
    pub cap_bps: u64,
    /// Fixed one-way latency in microseconds.
    pub lat_us: u64,
    /// Per-traversal drop probability.
    pub loss: f64,
    /// Counts toward bisection bytes.
    pub core: bool,
    /// Administratively up (fault plans flip this).
    pub up: bool,
}

/// The physical network graph: world hosts (node index = `HostId.0`)
/// followed by internal switch nodes, joined by [`NetLink`]s.
#[derive(Debug, Clone)]
pub struct NetGraph {
    /// Number of leading nodes that are world hosts.
    pub hosts: u32,
    /// Names of every node: hosts first, then switches.
    pub node_names: Vec<String>,
    /// Host up/down mirror (switches are only ever cut via links).
    pub node_up: Vec<bool>,
    /// All links, in declaration order.
    pub links: Vec<NetLink>,
    /// Adjacency: per node, `(peer node, link index)` sorted by peer.
    pub adj: Vec<Vec<(u32, u32)>>,
    by_link_name: HashMap<String, u32>,
}

impl NetGraph {
    /// Resolves a spec against the world's host names (in host-id order).
    ///
    /// Every link endpoint must name a world host or a declared switch;
    /// switch names must not collide with host names.
    pub fn build(spec: &NetSpec, host_names: &[String]) -> Result<NetGraph, String> {
        let mut node_names: Vec<String> = host_names.to_vec();
        let mut index: HashMap<String, u32> = HashMap::new();
        for (i, h) in node_names.iter().enumerate() {
            index.insert(h.clone(), i as u32);
        }
        for s in &spec.switches {
            if index.contains_key(s) {
                return Err(format!("switch {s:?} collides with a host name"));
            }
            index.insert(s.clone(), node_names.len() as u32);
            node_names.push(s.clone());
        }
        let mut links = Vec::with_capacity(spec.links.len());
        let mut by_link_name = HashMap::new();
        let mut adj = vec![Vec::new(); node_names.len()];
        for l in &spec.links {
            let a = *index
                .get(&l.a)
                .ok_or_else(|| format!("link {:?}: unknown endpoint {:?}", l.name, l.a))?;
            let b = *index
                .get(&l.b)
                .ok_or_else(|| format!("link {:?}: unknown endpoint {:?}", l.name, l.b))?;
            let idx = links.len() as u32;
            if by_link_name.insert(l.name.clone(), idx).is_some() {
                return Err(format!("duplicate link name {:?}", l.name));
            }
            links.push(NetLink {
                name: l.name.clone(),
                a,
                b,
                cap_bps: l.cap_bps,
                lat_us: l.lat_us,
                loss: l.loss,
                core: l.core,
                up: true,
            });
            adj[a as usize].push((b, idx));
            adj[b as usize].push((a, idx));
        }
        for n in &mut adj {
            n.sort_unstable();
        }
        Ok(NetGraph {
            hosts: host_names.len() as u32,
            node_up: vec![true; node_names.len()],
            node_names,
            links,
            adj,
            by_link_name,
        })
    }

    /// Looks a link up by name.
    pub fn link_by_name(&self, name: &str) -> Option<u32> {
        self.by_link_name.get(name).copied()
    }

    /// Flips a link's administrative state. Returns the previous state.
    pub fn set_link_up(&mut self, idx: u32, up: bool) -> bool {
        std::mem::replace(&mut self.links[idx as usize].up, up)
    }

    /// Mirrors a host crash/restart into the physical graph.
    pub fn set_host_up(&mut self, host: u32, up: bool) {
        if (host as usize) < self.node_up.len() {
            self.node_up[host as usize] = up;
        }
    }

    /// Whether a node may carry traffic right now.
    pub fn node_live(&self, n: u32) -> bool {
        self.node_up[n as usize]
    }
}

#[cfg(test)]
mod net_tests {
    use super::*;

    fn hosts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("h{i}")).collect()
    }

    #[test]
    fn parse_roundtrips_the_grammar() {
        let spec = NetSpec::parse(
            "# test\ntopo t\nswitch s0\nlink h0 s0 name=up0 cap=100k lat=2ms\n\
             link h1 s0 loss=0.5 core\n",
        )
        .unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.switches, vec!["s0"]);
        assert_eq!(spec.links[0].cap_bps, 100_000);
        assert_eq!(spec.links[0].lat_us, 2_000);
        assert_eq!(spec.links[1].name, "h1-s0");
        assert!(spec.links[1].core);
        assert_eq!(spec.links[1].loss, 0.5);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(NetSpec::parse("link a a").is_err());
        assert!(NetSpec::parse("frobnicate x").is_err());
        assert!(NetSpec::parse("link a b cap=0").is_err());
        assert!(NetSpec::parse("link a b loss=2").is_err());
        assert!(NetSpec::parse("link a b name=x\nlink b c name=x").is_err());
        assert!(NetSpec::parse("topo empty").is_err());
        for (extra, message) in [
            ("topo lab two", "topo has an extra token \"two\""),
            ("switch core tor", "switch has an extra token \"tor\""),
        ] {
            let e = NetSpec::parse(&format!("link a b\n{extra}")).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (2, message), "{extra}");
        }
        for lat in ["infs", "NaNms", "-3ms", "7"] {
            let e = NetSpec::parse(&format!("link a b\nlink b c lat={lat}")).unwrap_err();
            assert!(e.to_string().starts_with("line 2: "), "{lat}: {e}");
        }
        // Each latency fits the clock; a route over all three would not.
        let far = "lat=2000000000000s";
        let e = NetSpec::parse(&format!("link a b {far}\nlink b c {far}\nlink c d {far}"));
        assert!(e.unwrap_err().to_string().starts_with("line 3: "));
    }

    #[test]
    fn presets_cover_all_hosts() {
        let hs = hosts(6);
        for p in NetSpec::PRESETS {
            let spec = NetSpec::preset(p, &hs).unwrap();
            let g = NetGraph::build(&spec, &hs).unwrap();
            assert_eq!(g.hosts, 6, "{p}");
            for h in 0..6u32 {
                assert!(!g.adj[h as usize].is_empty(), "{p}: h{h} has no links");
            }
        }
        assert!(NetSpec::preset("nope", &hs).is_none());
    }

    #[test]
    fn fat_tree_has_core_bisection_links() {
        let hs = hosts(8);
        let spec = NetSpec::preset("fat-tree", &hs).unwrap();
        let core = spec.links.iter().filter(|l| l.core).count();
        assert_eq!(core, 4, "2 pods x 2 spines");
        let g = NetGraph::build(&spec, &hs).unwrap();
        assert_eq!(g.node_names.len(), 8 + 2 + 2);
    }

    #[test]
    fn build_rejects_unknown_endpoints_and_collisions() {
        let spec = NetSpec::parse("link h0 nowhere").unwrap();
        assert!(NetGraph::build(&spec, &hosts(2)).is_err());
        let spec = NetSpec::parse("switch h0\nlink h0 h1").unwrap();
        assert!(NetGraph::build(&spec, &hosts(2)).is_err());
    }

    #[test]
    fn link_state_flips_by_name() {
        let hs = hosts(4);
        let spec = NetSpec::preset("wan-hub", &hs).unwrap();
        let mut g = NetGraph::build(&spec, &hs).unwrap();
        let idx = g.link_by_name("wan:h2").unwrap();
        assert!(g.set_link_up(idx, false));
        assert!(!g.links[idx as usize].up);
        assert!(g.link_by_name("wan:h9").is_none());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (Topology, Vec<HostId>) {
        let mut t = Topology::new();
        let ids: Vec<HostId> = (0..n)
            .map(|i| t.add_host(HostSpec::new(format!("h{i}"), CpuClass::Vax780)))
            .collect();
        for w in ids.windows(2) {
            t.add_link(w[0], w[1]);
        }
        (t, ids)
    }

    #[test]
    fn hop_counts_on_a_chain() {
        let (t, ids) = chain(4);
        assert_eq!(t.hops(ids[0], ids[0]), Some(0));
        assert_eq!(t.hops(ids[0], ids[1]), Some(1));
        assert_eq!(t.hops(ids[0], ids[3]), Some(3));
    }

    #[test]
    fn bfs_finds_shortest_path_not_any_path() {
        let (mut t, ids) = chain(4);
        t.add_link(ids[0], ids[3]); // shortcut
        assert_eq!(t.hops(ids[0], ids[3]), Some(1));
    }

    #[test]
    fn link_partition_breaks_routing() {
        let (mut t, ids) = chain(3);
        assert!(t.set_link_up(ids[0], ids[1], false));
        assert_eq!(t.hops(ids[0], ids[2]), None);
        assert!(t.set_link_up(ids[0], ids[1], true));
        assert_eq!(t.hops(ids[0], ids[2]), Some(2));
    }

    #[test]
    fn setting_unknown_link_returns_false() {
        let (mut t, ids) = chain(3);
        assert!(!t.set_link_up(ids[0], ids[2], false));
    }

    #[test]
    fn crashed_host_is_not_routable_through() {
        let (mut t, ids) = chain(3);
        t.set_host_up(ids[1], false);
        assert_eq!(t.hops(ids[0], ids[2]), None);
        assert_eq!(t.hops(ids[0], ids[1]), None);
        t.set_host_up(ids[1], true);
        assert_eq!(t.hops(ids[0], ids[2]), Some(2));
    }

    /// The search `hops` used to run on every call: the oracle its table
    /// must agree with.
    fn hops_by_search(t: &Topology, a: HostId, b: HostId) -> Option<u32> {
        if !t.is_up(a) || !t.is_up(b) {
            return None;
        }
        if a == b {
            return Some(0);
        }
        let mut dist: HashMap<HostId, u32> = HashMap::new();
        dist.insert(a, 0);
        let mut q = VecDeque::new();
        q.push_back(a);
        while let Some(u) = q.pop_front() {
            let du = dist[&u];
            for &(v, live) in &t.adj[u.0 as usize] {
                if !live || !t.is_up(v) || dist.contains_key(&v) {
                    continue;
                }
                if v == b {
                    return Some(du + 1);
                }
                dist.insert(v, du + 1);
                q.push_back(v);
            }
        }
        None
    }

    #[test]
    fn hop_table_matches_a_fresh_search_through_any_history() {
        let mut rng = crate::rng::SimRng::seed_from(0x0b5e_55ed);
        let mut pick = |n: usize| rng.index(n);
        for _world in 0..40 {
            let mut t = Topology::new();
            let mut ids = Vec::new();
            for step in 0..120 {
                // Grow for a while, then mostly crash, restart, cut, heal
                // — asking between any two changes, and not asking too.
                match pick(if ids.len() < 3 { 1 } else { 8 }) {
                    0 if ids.len() < 12 => {
                        ids.push(t.add_host(HostSpec::new(format!("h{step}"), CpuClass::Sun2)));
                    }
                    0 | 1 => {
                        let (a, b) = (ids[pick(ids.len())], ids[pick(ids.len())]);
                        if a != b {
                            t.add_link(a, b);
                        }
                    }
                    2 | 3 => t.set_host_up(ids[pick(ids.len())], pick(2) == 0),
                    4 | 5 => {
                        let (a, b) = (ids[pick(ids.len())], ids[pick(ids.len())]);
                        t.set_link_up(a, b, pick(2) == 0);
                    }
                    _ => {}
                }
                if pick(3) == 0 {
                    continue;
                }
                for &a in &ids {
                    for &b in &ids {
                        assert_eq!(t.hops(a, b), hops_by_search(&t, a, b), "{a} -> {b}");
                    }
                }
            }
            // A clone answers for itself from then on.
            let mut fork = t.clone();
            if let Some(&h) = ids.first() {
                fork.set_host_up(h, !fork.is_up(h));
            }
            for &a in &ids {
                for &b in &ids {
                    assert_eq!(t.hops(a, b), hops_by_search(&t, a, b));
                    assert_eq!(fork.hops(a, b), hops_by_search(&fork, a, b));
                }
            }
        }
    }

    #[test]
    fn reachable_from_respects_partitions() {
        let (mut t, ids) = chain(4);
        t.set_link_up(ids[1], ids[2], false);
        let mut r = t.reachable_from(ids[0]);
        r.sort();
        assert_eq!(r, vec![ids[0], ids[1]]);
        assert_eq!(t.reachable_from(ids[3]).len(), 2);
    }

    #[test]
    fn reachable_from_downed_host_is_empty() {
        let (mut t, ids) = chain(2);
        t.set_host_up(ids[0], false);
        assert!(t.reachable_from(ids[0]).is_empty());
    }

    #[test]
    fn host_lookup_by_name() {
        let (t, ids) = chain(2);
        assert_eq!(t.host_by_name("h1"), Some(ids[1]));
        assert_eq!(t.host_by_name("nope"), None);
        assert_eq!(t.spec(ids[0]).name, "h0");
    }

    #[test]
    #[should_panic(expected = "duplicate host name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_host(HostSpec::new("x", CpuClass::Vax780));
        t.add_host(HostSpec::new("x", CpuClass::Sun2));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut t = Topology::new();
        let a = t.add_host(HostSpec::new("x", CpuClass::Vax780));
        t.add_link(a, a);
    }

    #[test]
    fn duplicate_link_is_noop() {
        let (mut t, ids) = chain(2);
        t.add_link(ids[0], ids[1]);
        assert_eq!(t.reachable_from(ids[0]).len(), 2);
        // taking the (single) link down severs them even after re-add
        t.set_link_up(ids[0], ids[1], false);
        assert_eq!(t.reachable_from(ids[0]).len(), 1);
    }

    #[test]
    fn cpu_class_display_and_speed() {
        assert_eq!(CpuClass::Sun2.to_string(), "SUN II");
        assert!(CpuClass::Vax780.speed_factor() > CpuClass::Sun2.speed_factor());
    }
}
