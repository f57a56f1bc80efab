//! The LPM's local genealogy: the slice of the user's computation tree on
//! one host.
//!
//! "A computation is considered to be a group of processes that have a
//! common logical ancestor. Under the PPM the processes form a (logical)
//! tree that may span a number of machines." Each LPM tracks its local
//! processes; cross-host edges are recorded as *logical parent* links on
//! remotely-created processes. "We chose to retain exit information while
//! there are children alive, and for the display of a genealogical
//! distributed computation snapshot we mark the process as exited."
//!
//! # Storage
//!
//! Nodes live in a **slab arena**: one flat `Vec` of records recycled
//! through a free list, plus a pid → slot index. Tree edges are
//! *intrusive* — each node carries `parent` / `first_child` /
//! `next_sibling` / `prev_sibling` slot links instead of a per-node
//! `Vec<u32>` of children — so tracking a process allocates nothing
//! beyond its command string (and a recycled slot reuses even that
//! buffer), unlinking a child on prune is O(1) pointer surgery, and the
//! scans that seed a cascade prune or build a snapshot walk one dense
//! array instead of chasing a hash map's buckets. At multi-tenant scale
//! (one arena per user per host) this is what keeps millions of tracked
//! processes cache-resident.
//!
//! # Reading it
//!
//! There is one pid-ordered walk, [`Genealogy::records`], which yields
//! every tracked process as a [`ProcRecordRef`] borrowed from the slab.
//! The LPM answers a snapshot request by handing that walk to
//! [`WireReply::snapshot`](ppm_proto::msg::WireReply::snapshot), which
//! encodes each record as it comes — no [`ProcRecord`], and so no host
//! or command string, is built on the answering host.
//! [`Genealogy::snapshot`] is the same walk collected into owned records
//! for callers that want them (tests, tools, the benchmark's replays).

use ppm_proto::types::{Gpid, ProcRecord, ProcRecordRef, WireProcState};
use ppm_runtime::hashx::FastMap;

/// Sentinel for "no slot" in the intrusive links.
const NIL: u32 = u32::MAX;

/// One tracked process.
///
/// The genealogical links (`parent`, siblings, children) are private slab
/// slots; read the tree through [`Genealogy::children`] and
/// [`Genealogy::descendants`].
#[derive(Debug, Clone)]
pub struct Node {
    /// Local pid.
    pub pid: u32,
    /// Local parent pid (1 = no managed local parent).
    pub ppid: u32,
    /// Logical parent on another host, when created remotely.
    pub logical_parent: Option<Gpid>,
    /// Command name.
    pub command: String,
    /// Last known state.
    pub state: WireProcState,
    /// Creation time (µs).
    pub started_us: u64,
    /// CPU consumed (µs), as of the last kernel report.
    pub cpu_us: u64,
    /// Whether the LPM adopted it (vs. merely observed).
    pub adopted: bool,
    /// When the process died (µs), if it has.
    pub dead_at: Option<u64>,
    /// Slab occupancy: false for free-listed slots awaiting reuse.
    in_use: bool,
    /// Slot of the tracked local parent, or [`NIL`].
    parent: u32,
    /// Head of the intrusive child list, or [`NIL`].
    first_child: u32,
    /// Next sibling in the parent's child list, or [`NIL`].
    next_sibling: u32,
    /// Previous sibling in the parent's child list, or [`NIL`].
    prev_sibling: u32,
}

/// The per-host genealogy store.
///
/// Lookup structure: a slab arena of [`Node`]s with a pid → slot
/// [`FastMap`] index, plus a maintained count of live
/// (non-[`Dead`](WireProcState::Dead)) nodes, adjusted on every state
/// transition so [`Genealogy::live_count`] is O(1) — it is polled on the
/// snapshot and status paths for every request.
#[derive(Debug, Clone, Default)]
pub struct Genealogy {
    host: String,
    /// The arena. Free slots stay in place (with cleared buffers) so the
    /// whole store is one allocation churned in place.
    slab: Vec<Node>,
    /// Retired slots available for reuse, LIFO for cache warmth.
    free: Vec<u32>,
    /// pid → slab slot, live and retained-dead nodes only.
    index: FastMap<u32, u32>,
    /// Count of nodes whose `state != Dead`; kept in lockstep with every
    /// mutation below.
    live: usize,
    /// Slots that transitioned to dead, with the pid each held at the
    /// time: the seed set for [`Genealogy::prune_older_than`], so a
    /// sweep touches only candidates instead of scanning the slab.
    /// Entries go stale when a slot is pruned, recycled or revived; the
    /// sweep drops them by checking occupancy, pid and state.
    dead_queue: Vec<(u32, u32)>,
}

impl Genealogy {
    /// Creates an empty genealogy for `host`.
    pub fn new(host: impl Into<String>) -> Self {
        Genealogy {
            host: host.into(),
            slab: Vec::new(),
            free: Vec::new(),
            index: FastMap::default(),
            live: 0,
            dead_queue: Vec::new(),
        }
    }

    /// Number of tracked processes (live and retained-dead).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of live tracked processes. O(1): maintained on every
    /// state transition rather than scanned.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Begins tracking a process.
    pub fn track(
        &mut self,
        pid: u32,
        ppid: u32,
        logical_parent: Option<Gpid>,
        command: impl AsRef<str>,
        started_us: u64,
        adopted: bool,
    ) {
        let slot = match self.index.get(&pid) {
            // A recycled pid overwrites a retained-dead node in place:
            // only the replaced node's liveness (if any) leaves the
            // count, its children are detached (they keep their own
            // records but the replacement starts childless, exactly as
            // the fresh-map insert used to behave), and its buffers are
            // reused.
            Some(&slot) => {
                if self.slab[slot as usize].state != WireProcState::Dead {
                    self.live -= 1;
                }
                self.unlink(slot);
                self.detach_children(slot);
                slot
            }
            None => {
                let slot = self.alloc();
                self.index.insert(pid, slot);
                slot
            }
        };
        {
            let n = &mut self.slab[slot as usize];
            n.pid = pid;
            n.ppid = ppid;
            n.logical_parent = logical_parent;
            n.command.clear();
            n.command.push_str(command.as_ref());
            n.state = WireProcState::Embryo;
            n.started_us = started_us;
            n.cpu_us = 0;
            n.adopted = adopted;
            n.dead_at = None;
            n.in_use = true;
        }
        self.live += 1;
        // Never self-link: a pid can equal its recorded ppid when a pid
        // value is recycled after pruning; linking it to itself would put
        // a cycle in the tree.
        if ppid != pid {
            if let Some(&parent) = self.index.get(&ppid) {
                self.link(slot, parent);
            }
        }
    }

    /// Whether `pid` is tracked.
    pub fn contains(&self, pid: u32) -> bool {
        self.index.contains_key(&pid)
    }

    /// Immutable access to a node.
    pub fn get(&self, pid: u32) -> Option<&Node> {
        self.index.get(&pid).map(|&s| &self.slab[s as usize])
    }

    /// Tracked local children of `pid`, sorted by pid.
    pub fn children(&self, pid: u32) -> Vec<u32> {
        let Some(&slot) = self.index.get(&pid) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut c = self.slab[slot as usize].first_child;
        while c != NIL {
            out.push(self.slab[c as usize].pid);
            c = self.slab[c as usize].next_sibling;
        }
        out.sort_unstable();
        out
    }

    /// Updates a node's state; no-op for untracked pids.
    pub fn set_state(&mut self, pid: u32, state: WireProcState) {
        if let Some(&slot) = self.index.get(&pid) {
            let was_dead = self.slab[slot as usize].state == WireProcState::Dead;
            let is_dead = state == WireProcState::Dead;
            if !was_dead && is_dead {
                self.live -= 1;
                self.dead_queue.push((slot, pid));
            } else if was_dead && !is_dead {
                self.live += 1;
            }
            self.slab[slot as usize].state = state;
        }
    }

    /// Updates a node's command (on exec) and marks it running.
    pub fn set_exec(&mut self, pid: u32, command: impl AsRef<str>) {
        if let Some(&slot) = self.index.get(&pid) {
            let n = &mut self.slab[slot as usize];
            n.command.clear();
            n.command.push_str(command.as_ref());
            if n.state == WireProcState::Dead {
                self.live += 1;
            }
            n.state = WireProcState::Running;
        }
    }

    /// Restores a node's logical-parent edge (sibling gossip after a
    /// manager respawn); no-op for untracked pids.
    pub fn set_logical_parent(&mut self, pid: u32, parent: Gpid) {
        if let Some(&slot) = self.index.get(&pid) {
            self.slab[slot as usize].logical_parent = Some(parent);
        }
    }

    /// Updates CPU usage.
    pub fn set_cpu(&mut self, pid: u32, cpu_us: u64) {
        if let Some(&slot) = self.index.get(&pid) {
            self.slab[slot as usize].cpu_us = cpu_us;
        }
    }

    /// Marks a node dead at `now_us` (retained while relatives need it;
    /// see [`Genealogy::prune`]).
    pub fn mark_dead_at(&mut self, pid: u32, cpu_us: u64, now_us: u64) {
        if let Some(&slot) = self.index.get(&pid) {
            if self.slab[slot as usize].state != WireProcState::Dead {
                self.live -= 1;
                self.dead_queue.push((slot, pid));
            }
            let n = &mut self.slab[slot as usize];
            n.state = WireProcState::Dead;
            n.cpu_us = cpu_us;
            n.dead_at = Some(now_us);
        }
    }

    /// Marks a node dead with no timestamp bookkeeping (tests).
    pub fn mark_dead(&mut self, pid: u32, cpu_us: u64) {
        self.mark_dead_at(pid, cpu_us, 0);
    }

    /// True when the node at `slot` is dead, past retention, and has no
    /// tracked children — the inverse of Section 2's "retain exit
    /// information while there are children alive". A dead node with
    /// living children is retained regardless of age, so snapshots can
    /// mark it exited.
    fn prunable(&self, slot: u32, now_us: u64, retention_us: u64) -> bool {
        let n = &self.slab[slot as usize];
        n.state == WireProcState::Dead
            && n.dead_at
                .is_some_and(|d| now_us.saturating_sub(d) >= retention_us)
            && n.first_child == NIL
    }

    /// Drops dead nodes that have no live local descendants *and* have
    /// been dead longer than `retention_us`. Returns how many nodes were
    /// pruned.
    pub fn prune_older_than(&mut self, now_us: u64, retention_us: u64) -> usize {
        // Cascade worklist, seeded from the dead queue rather than a
        // dense slab scan so a sweep costs O(retained-dead), not
        // O(everything ever tracked). Stale queue entries (slot pruned
        // by an earlier cascade, recycled to a new pid, or revived) are
        // dropped; dead-but-not-yet-prunable entries stay queued for the
        // next sweep. Each time a node is removed it is unlinked from
        // its parent's child list — O(1) on the intrusive links — and
        // the parent is re-tested, since removing a dead leaf may make
        // its dead parent prunable.
        let mut pruned = 0;
        let mut work: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < self.dead_queue.len() {
            let (slot, pid) = self.dead_queue[i];
            let n = &self.slab[slot as usize];
            if !n.in_use || n.pid != pid || n.state != WireProcState::Dead {
                self.dead_queue.swap_remove(i);
                continue;
            }
            if self.prunable(slot, now_us, retention_us) {
                self.dead_queue.swap_remove(i);
                work.push(slot);
                continue;
            }
            i += 1;
        }
        while let Some(slot) = work.pop() {
            // Defensive: a slot could in principle be queued twice; the
            // first removal wins and later pops find it free.
            if !self.slab[slot as usize].in_use || self.slab[slot as usize].first_child != NIL {
                continue;
            }
            let parent = self.slab[slot as usize].parent;
            self.unlink(slot);
            let pid = self.slab[slot as usize].pid;
            self.index.remove(&pid);
            self.release(slot);
            pruned += 1;
            if parent != NIL && self.prunable(parent, now_us, retention_us) {
                work.push(parent);
            }
        }
        pruned
    }

    /// Immediate prune (no retention) — used by tests.
    pub fn prune(&mut self) -> usize {
        self.prune_older_than(u64::MAX / 2, 0)
    }

    /// Every tracked process in pid order, borrowed from the slab: the
    /// one walk both forms of the snapshot slice are built on — the
    /// encoded reply an LPM answers with
    /// ([`WireReply::snapshot`](ppm_proto::msg::WireReply::snapshot),
    /// which writes each record as it is yielded) and the owned
    /// [`Genealogy::snapshot`]. One dense pass over the slab plus a sort
    /// of slot references.
    pub fn records(&self) -> impl ExactSizeIterator<Item = ProcRecordRef<'_>> {
        let mut entries: Vec<&Node> = Vec::with_capacity(self.len());
        entries.extend(self.slab.iter().filter(|n| n.in_use));
        entries.sort_unstable_by_key(|n| n.pid);
        entries.into_iter().map(|n| ProcRecordRef {
            host: &self.host,
            pid: n.pid,
            ppid: n.ppid,
            logical_parent: n.logical_parent.as_ref().map(|g| (&*g.host, g.pid)),
            command: &n.command,
            state: n.state,
            started_us: n.started_us,
            cpu_us: n.cpu_us,
            adopted: n.adopted,
        })
    }

    /// The snapshot slice this LPM reports: every tracked process as a
    /// [`ProcRecord`], in pid order.
    pub fn snapshot(&self) -> Vec<ProcRecord> {
        self.records().map(ProcRecordRef::to_record).collect()
    }

    /// Local descendants of `pid` (not including `pid`), pid order. The
    /// walk follows the intrusive child links, which by construction form
    /// a forest (re-tracking a pid detaches its old subtree), so no
    /// visited set is needed.
    pub fn descendants(&self, pid: u32) -> Vec<u32> {
        let Some(&root) = self.index.get(&pid) else {
            return Vec::new();
        };
        let mut out: Vec<u32> = Vec::new();
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            let mut c = self.slab[s as usize].first_child;
            while c != NIL {
                out.push(self.slab[c as usize].pid);
                stack.push(c);
                c = self.slab[c as usize].next_sibling;
            }
        }
        out.sort_unstable();
        out
    }

    /// Takes a slot from the free list or grows the slab.
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slab.len()).expect("more than 2^32 tracked processes");
                self.slab.push(Node {
                    pid: 0,
                    ppid: 0,
                    logical_parent: None,
                    command: String::new(),
                    state: WireProcState::Embryo,
                    started_us: 0,
                    cpu_us: 0,
                    adopted: false,
                    dead_at: None,
                    in_use: false,
                    parent: NIL,
                    first_child: NIL,
                    next_sibling: NIL,
                    prev_sibling: NIL,
                });
                s
            }
        }
    }

    /// Returns `slot` to the free list, keeping its command buffer for
    /// the next occupant and dropping the (allocating) logical parent.
    fn release(&mut self, slot: u32) {
        let n = &mut self.slab[slot as usize];
        debug_assert!(n.first_child == NIL, "released node still has children");
        n.in_use = false;
        n.logical_parent = None;
        n.command.clear();
        self.free.push(slot);
    }

    /// Splices `slot` in at the head of `parent`'s child list.
    fn link(&mut self, slot: u32, parent: u32) {
        let head = self.slab[parent as usize].first_child;
        {
            let n = &mut self.slab[slot as usize];
            n.parent = parent;
            n.prev_sibling = NIL;
            n.next_sibling = head;
        }
        if head != NIL {
            self.slab[head as usize].prev_sibling = slot;
        }
        self.slab[parent as usize].first_child = slot;
    }

    /// Splices `slot` out of its parent's child list (no-op for roots).
    fn unlink(&mut self, slot: u32) {
        let (parent, prev, next) = {
            let n = &self.slab[slot as usize];
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if prev != NIL {
            self.slab[prev as usize].next_sibling = next;
        } else if parent != NIL {
            self.slab[parent as usize].first_child = next;
        }
        if next != NIL {
            self.slab[next as usize].prev_sibling = prev;
        }
        let n = &mut self.slab[slot as usize];
        n.parent = NIL;
        n.prev_sibling = NIL;
        n.next_sibling = NIL;
    }

    /// Detaches every child of `slot`, leaving them as roots. Used when a
    /// recycled pid overwrites a retained node: the replacement starts
    /// childless while the orphans keep their own records.
    fn detach_children(&mut self, slot: u32) {
        let mut c = self.slab[slot as usize].first_child;
        while c != NIL {
            let next = self.slab[c as usize].next_sibling;
            let n = &mut self.slab[c as usize];
            n.parent = NIL;
            n.prev_sibling = NIL;
            n.next_sibling = NIL;
            c = next;
        }
        self.slab[slot as usize].first_child = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Genealogy {
        Genealogy::new("a")
    }

    #[test]
    fn track_links_parents() {
        let mut t = g();
        t.track(10, 1, None, "sh", 0, true);
        t.track(11, 10, None, "cc", 0, true);
        t.track(12, 10, None, "as", 0, true);
        assert_eq!(t.children(10), vec![11, 12]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.descendants(10), vec![11, 12]);
    }

    #[test]
    fn exec_and_state_updates() {
        let mut t = g();
        t.track(10, 1, None, "sh", 5, true);
        assert_eq!(t.get(10).unwrap().state, WireProcState::Embryo);
        t.set_exec(10, "make");
        assert_eq!(t.get(10).unwrap().state, WireProcState::Running);
        assert_eq!(t.get(10).unwrap().command, "make");
        t.set_state(10, WireProcState::Stopped);
        assert_eq!(t.get(10).unwrap().state, WireProcState::Stopped);
        t.set_cpu(10, 1234);
        assert_eq!(t.get(10).unwrap().cpu_us, 1234);
    }

    #[test]
    fn dead_parent_retained_while_children_alive() {
        let mut t = g();
        t.track(10, 1, None, "sh", 0, true);
        t.track(11, 10, None, "cc", 0, true);
        t.mark_dead(10, 99);
        assert_eq!(t.prune(), 0, "dead parent with live child is retained");
        assert_eq!(t.get(10).unwrap().state, WireProcState::Dead);
        // Child dies too: both prunable (child first, then parent).
        t.mark_dead(11, 5);
        assert_eq!(t.prune(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn prune_unlinks_children_lists() {
        let mut t = g();
        t.track(10, 1, None, "sh", 0, true);
        t.track(11, 10, None, "cc", 0, true);
        t.mark_dead(11, 0);
        assert_eq!(t.prune(), 1);
        assert!(t.children(10).is_empty());
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn snapshot_is_pid_ordered_with_gpids() {
        let mut t = g();
        t.track(12, 1, None, "b", 0, true);
        t.track(10, 1, Some(Gpid::new("other", 7)), "a", 0, false);
        let s = t.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].gpid, Gpid::new("a", 10));
        assert_eq!(s[0].logical_parent, Some(Gpid::new("other", 7)));
        assert!(!s[0].adopted);
        assert_eq!(s[1].gpid, Gpid::new("a", 12));
    }

    #[test]
    fn live_count_tracks_every_transition() {
        let mut t = g();
        let scan = |t: &Genealogy| {
            (10..14)
                .filter_map(|p| t.get(p))
                .filter(|n| n.state != WireProcState::Dead)
                .count()
        };
        t.track(10, 1, None, "sh", 0, true);
        t.track(11, 10, None, "cc", 0, true);
        t.track(12, 10, None, "as", 0, true);
        assert_eq!(t.live_count(), 3);
        t.mark_dead(11, 1);
        assert_eq!(t.live_count(), scan(&t));
        // Dead -> Running via set_state and set_exec both revive.
        t.set_state(11, WireProcState::Running);
        assert_eq!(t.live_count(), 3);
        t.mark_dead(11, 1);
        t.set_exec(11, "ld");
        assert_eq!(t.live_count(), 3);
        // Non-Dead transitions leave the count alone.
        t.set_state(12, WireProcState::Stopped);
        assert_eq!(t.live_count(), 3);
        // Recycling a pid over a retained-dead node counts once.
        t.mark_dead(12, 2);
        t.track(12, 1, None, "new", 9, true);
        assert_eq!(t.live_count(), 3);
        assert_eq!(t.live_count(), scan(&t));
    }

    #[test]
    fn prune_cascades_up_a_dead_chain() {
        let mut t = g();
        // 10 -> 11 -> ... -> 29, all dead: one prune drops the whole chain.
        for i in 0..20u32 {
            let pid = 10 + i;
            let ppid = if i == 0 { 1 } else { 9 + i };
            t.track(pid, ppid, None, "p", 0, true);
        }
        for pid in 10..30 {
            t.mark_dead(pid, 0);
        }
        assert_eq!(t.prune(), 20);
        assert!(t.is_empty());
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn retention_window_keeps_recent_dead() {
        let mut t = g();
        t.track(10, 1, None, "sh", 0, true);
        t.mark_dead_at(10, 7, 1_000);
        // Dead only 500µs at now=1500 with 1000µs retention: kept.
        assert_eq!(t.prune_older_than(1_500, 1_000), 0);
        assert!(t.contains(10));
        assert_eq!(t.prune_older_than(2_000, 1_000), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn descendants_of_leaf_is_empty() {
        let mut t = g();
        t.track(10, 1, None, "sh", 0, true);
        assert!(t.descendants(10).is_empty());
        assert!(t.descendants(999).is_empty());
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut t = g();
        for pid in 10..20 {
            t.track(pid, 1, None, "burst", 0, true);
        }
        for pid in 10..20 {
            t.mark_dead(pid, 0);
        }
        assert_eq!(t.prune(), 10);
        let arena = t.slab.len();
        // A second wave of the same size reuses the retired slots.
        for pid in 30..40 {
            t.track(pid, 1, None, "again", 0, true);
        }
        assert_eq!(t.slab.len(), arena, "no arena growth on reuse");
        assert_eq!(t.len(), 10);
        assert_eq!(t.live_count(), 10);
    }

    #[test]
    fn retrack_detaches_the_old_subtree() {
        let mut t = g();
        t.track(10, 1, None, "sh", 0, true);
        t.track(11, 10, None, "cc", 0, true);
        t.mark_dead(10, 0);
        // Pid 10 is recycled by the kernel: the replacement starts
        // childless; 11 keeps its record but is no longer 10's child.
        t.track(10, 1, None, "fresh", 5, true);
        assert!(t.children(10).is_empty());
        assert!(t.contains(11));
        assert_eq!(t.descendants(10), Vec::<u32>::new());
    }
}
