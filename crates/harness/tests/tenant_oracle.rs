//! `TenantWorld` checked against an independent reference on the
//! *identical* storm.
//!
//! The oracle holds the state the obvious way: one `HashMap` per
//! (user, host) with a per-node `Vec` of children for every tracked
//! process, a `BinaryHeap` event queue, and retention sweeps that
//! rediscover prunable nodes by scanning the whole map. Both worlds
//! consume the same seeded [`Storm`] decision stream and fold the same
//! event digest, so a mismatch means the sharded arena world changed
//! semantics, not just speed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ppm_harness::tenant::{scale_spec, TenantWorld, UID_BASE};
use ppm_runtime::workload::{Storm, StormSpec};

/// Retention before a dead node may be swept, µs (mirrors the tenant
/// world's policy; sweeps do not feed the digest, so the exact value
/// only shapes the work, not the stream).
const RETENTION_US: u64 = 200_000;

/// FNV-1a fold (the tenant world's digest function).
#[inline]
fn mix(d: u64, v: u64) -> u64 {
    (d ^ v).wrapping_mul(0x100_0000_01b3)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Fork,
    Exit { user: u32, host: u16, pid: u32 },
    Sweep { user: u32, host: u16 },
}

/// One tracked process: the fields the digest and the sweeps read.
struct Node {
    ppid: u32,
    dead: bool,
    dead_at: u64,
    children: Vec<u32>,
}

/// Runs the storm on the reference world and returns its event digest.
fn reference_digest(spec: StormSpec, procs: u64) -> u64 {
    let users = spec.users as usize;
    let hosts = spec.hosts as usize;
    let mut storm = Storm::new(spec);
    let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut arenas: Vec<Vec<HashMap<u32, Node>>> = (0..users)
        .map(|_| (0..hosts).map(|_| HashMap::new()).collect())
        .collect();
    let mut has_lpm: Vec<Vec<bool>> = vec![vec![false; hosts]; users];
    let mut last_pid: Vec<Vec<u32>> = vec![vec![0; hosts]; users];
    let mut sweep_pending: Vec<Vec<bool>> = vec![vec![false; hosts]; users];
    let mut next_pid: Vec<u32> = vec![2; hosts];
    let mut forks = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    let push = |heap: &mut BinaryHeap<Reverse<(u64, u64, Ev)>>, seq: &mut u64, at, ev| {
        heap.push(Reverse((at, *seq, ev)));
        *seq += 1;
    };
    if procs > 0 {
        push(&mut heap, &mut seq, 0, Ev::Fork);
    }
    while let Some(Reverse((now, _, ev))) = heap.pop() {
        match ev {
            Ev::Fork => {
                let f = storm.next_fork();
                let u = f.user as usize;
                // Register the home (and, for a remote fork, target)
                // LPM slots, allocating their pids first as the world
                // does.
                for h in [f.home, f.host] {
                    if !has_lpm[u][h as usize] {
                        let pid = next_pid[h as usize];
                        next_pid[h as usize] += 1;
                        has_lpm[u][h as usize] = true;
                        digest = mix(
                            digest,
                            0x11 ^ (u64::from(UID_BASE + f.user) << 16) ^ u64::from(pid),
                        );
                    }
                    if f.host == f.home {
                        break;
                    }
                }
                let h = f.host as usize;
                let pid = next_pid[h];
                next_pid[h] += 1;
                let last = last_pid[u][h];
                let nest = last != 0
                    && f.lifetime_us.is_multiple_of(4)
                    && arenas[u][h].get(&last).is_some_and(|n| !n.dead);
                let ppid = if nest { last } else { 1 };
                arenas[u][h].insert(
                    pid,
                    Node {
                        ppid,
                        dead: false,
                        dead_at: 0,
                        children: Vec::new(),
                    },
                );
                if ppid != pid {
                    if let Some(parent) = arenas[u][h].get_mut(&ppid) {
                        parent.children.push(pid);
                    }
                }
                last_pid[u][h] = pid;
                forks += 1;
                digest = mix(
                    digest,
                    (u64::from(f.user) << 32) ^ (u64::from(f.host) << 16) ^ u64::from(pid),
                );
                digest = mix(digest, now ^ f.lifetime_us);
                push(
                    &mut heap,
                    &mut seq,
                    now + f.lifetime_us.max(1),
                    Ev::Exit {
                        user: f.user,
                        host: f.host,
                        pid,
                    },
                );
                if forks < procs {
                    push(&mut heap, &mut seq, now + f.next_us, Ev::Fork);
                }
            }
            Ev::Exit { user, host, pid } => {
                let u = user as usize;
                let h = host as usize;
                let n = arenas[u][h].get_mut(&pid).expect("exit of a tracked pid");
                n.dead = true;
                n.dead_at = now;
                digest = mix(
                    digest,
                    0x99 ^ (u64::from(user) << 32) ^ (u64::from(host) << 16) ^ u64::from(pid),
                );
                if !sweep_pending[u][h] {
                    sweep_pending[u][h] = true;
                    push(
                        &mut heap,
                        &mut seq,
                        now + RETENTION_US + 1,
                        Ev::Sweep { user, host },
                    );
                }
            }
            Ev::Sweep { user, host } => {
                let u = user as usize;
                let h = host as usize;
                sweep_pending[u][h] = false;
                // Rediscover prunable nodes with a full scan, cascading
                // up through parents.
                let arena = &mut arenas[u][h];
                let mut work: Vec<u32> = arena
                    .iter()
                    .filter(|(_, n)| {
                        n.dead
                            && now.saturating_sub(n.dead_at) >= RETENTION_US
                            && n.children.is_empty()
                    })
                    .map(|(&pid, _)| pid)
                    .collect();
                while let Some(pid) = work.pop() {
                    let Some(n) = arena.get(&pid) else { continue };
                    if !n.children.is_empty() {
                        continue;
                    }
                    let ppid = n.ppid;
                    arena.remove(&pid);
                    if let Some(parent) = arena.get_mut(&ppid) {
                        parent.children.retain(|&c| c != pid);
                        if parent.dead
                            && now.saturating_sub(parent.dead_at) >= RETENTION_US
                            && parent.children.is_empty()
                        {
                            work.push(ppid);
                        }
                    }
                }
            }
        }
    }
    digest
}

#[test]
fn arena_world_and_reference_agree() {
    for (users, hosts, procs) in [(16, 4, 3_000u64), (64, 16, 6_000)] {
        let spec = scale_spec(users, hosts, 7);
        assert_eq!(
            TenantWorld::new(spec, procs).run().digest,
            reference_digest(spec, procs),
            "digest diverged at {users}x{hosts}"
        );
    }
}

#[test]
fn reference_digests_differ_across_seeds() {
    let a = reference_digest(scale_spec(16, 4, 1), 2_000);
    let b = reference_digest(scale_spec(16, 4, 2), 2_000);
    assert_ne!(a, b);
}
