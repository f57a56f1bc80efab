//! Multi-tenant scale world: millions of processes across thousands of
//! users, sharded per user end to end.
//!
//! The paper's PPM is *personal*: "each user has his own process manager"
//! and one user's administration never routes through another's. This
//! module takes that isolation property to scale. A [`TenantWorld`] holds
//! one [`UserShard`] per user — per-host [`Genealogy`] slab arenas plus an
//! LPM slot registry keyed by [`Uid`] — and drives all of them from a
//! single discrete-event [`TimerWheel`] fed by the deterministic
//! fork/exec/exit [`Storm`] of `ppm-simos`. Because every decision comes
//! from the storm's seeded stream and every data structure is
//! allocation-recycling (slab arenas, slot free lists), a run is
//! replayable byte for byte and its resident set stays proportional to
//! the *live* population, not the cumulative number of processes tracked.
//!
//! The world is the substrate for `ppm-sim --users U --hosts N` and the
//! `ppm-sweep` storm axis; its observable surface (report,
//! metrics, per-shard snapshots) is what the determinism and isolation
//! gates diff.

use ppm_proto::types::{Gpid, WireProcState};
use ppm_runtime::obs::{CounterId, GaugeId, Registry};
use ppm_runtime::workload::{Storm, StormFork, StormSpec};
use ppm_simnet::engine::TimerWheel;
use ppm_simnet::time::SimDuration;
use ppm_simos::ids::{Port, Uid};

use ppm_core::config::lpm_port;
use ppm_core::genealogy::Genealogy;

/// Uid of the first (most active) storm user; user rank `r` is
/// `Uid(UID_BASE + r)`.
pub const UID_BASE: u32 = 1_000;

/// How long a shard retains a dead node before an arena sweep may drop
/// it, µs. Generous enough that snapshots see recent exits marked dead
/// (Section 2's "retain exit information"), short enough that arenas
/// recycle slots instead of growing with the cumulative fork count.
const RETENTION_US: u64 = 200_000;

/// The registered manager of one user on one host: the scale analogue of
/// a pmd registry row plus the LPM process it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpmSlot {
    /// The LPM's pid on its host.
    pub pid: u32,
    /// Its well-known per-user port.
    pub port: Port,
    /// Forks this slot has administered.
    pub forks: u64,
}

/// One user's slice of the world: per-host genealogy arenas and LPM
/// slots, touched lazily so a user who never reaches a host pays nothing
/// for it.
#[derive(Debug, Clone)]
pub struct UserShard {
    uid: Uid,
    /// Per-host genealogy arenas, `None` until the user's first fork
    /// lands there.
    arenas: Vec<Option<Genealogy>>,
    /// Per-host LPM slots, populated on first use of the host.
    lpms: Vec<Option<LpmSlot>>,
    /// Per-host pid of the user's most recent fork (0 = none): the
    /// candidate parent for nested forks.
    last_pid: Vec<u32>,
    /// Whether an arena sweep is already scheduled for this host.
    sweep_pending: Vec<bool>,
    /// Forks applied to this shard.
    pub forked: u64,
    /// Exits applied to this shard.
    pub exited: u64,
}

impl UserShard {
    fn new(uid: Uid, hosts: u16) -> Self {
        UserShard {
            uid,
            arenas: vec![None; hosts as usize],
            lpms: vec![None; hosts as usize],
            last_pid: vec![0; hosts as usize],
            sweep_pending: vec![false; hosts as usize],
            forked: 0,
            exited: 0,
        }
    }

    /// Tracked processes (live plus retained-dead) across every host.
    pub fn tracked_total(&self) -> usize {
        self.arenas.iter().flatten().map(|a| a.len()).sum()
    }
}

/// What the engine delivers: the next storm fork, a scheduled death, or
/// a retention sweep of one user's arena on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StormEvent {
    /// Draw the next fork decision from the storm stream.
    Fork,
    /// A previously forked process reaches the end of its lifetime.
    Exit { user: u32, host: u16, pid: u32 },
    /// Retention sweep of one (user, host) arena.
    Sweep { user: u32, host: u16 },
}

/// Dense counter/gauge handles for the world's registry.
#[derive(Debug, Clone, Copy)]
struct Meters {
    forks: CounterId,
    remote_forks: CounterId,
    exits: CounterId,
    lpm_spawns: CounterId,
    sweeps: CounterId,
    pruned: CounterId,
    live: GaugeId,
    live_peak: GaugeId,
    tracked_peak: GaugeId,
}

/// The deterministic multi-tenant scale world (see the module docs).
///
/// # Examples
///
/// ```
/// use ppm_harness::tenant::TenantWorld;
/// use ppm_runtime::workload::StormSpec;
///
/// let spec = StormSpec::new(32, 4, 7);
/// let a = TenantWorld::new(spec, 2_000).run();
/// let b = TenantWorld::new(spec, 2_000).run();
/// assert_eq!(a, b, "same spec, same report");
/// assert_eq!(a.procs, 2_000);
/// assert_eq!(a.exits, a.procs, "every fork eventually exits");
/// ```
#[derive(Debug)]
pub struct TenantWorld {
    spec: StormSpec,
    target: u64,
    storm: Storm,
    engine: TimerWheel<StormEvent>,
    shards: Vec<UserShard>,
    host_names: Vec<String>,
    /// Per-host monotonic pid allocator (never recycled, so `(host,
    /// pid)` is unique across the run and across users).
    next_pid: Vec<u32>,
    reg: Registry,
    m: Meters,
    forks: u64,
    exits: u64,
    remote_forks: u64,
    lpm_spawns: u64,
    pruned: u64,
    live: u64,
    live_peak: u64,
    tracked_peak: u64,
    digest: u64,
}

/// FNV-1a fold of one value into the run digest.
#[inline]
fn mix(d: u64, v: u64) -> u64 {
    (d ^ v).wrapping_mul(0x100_0000_01b3)
}

/// The canonical `--users U --hosts N` storm spec: per-lane fork rates
/// held constant while the concurrent population scales with the user
/// count (capped so lifetimes stay bounded) — with `U` users the storm
/// keeps roughly `40 × min(U, 256)` processes live at once, which is
/// what makes the peak-RSS exhibit meaningful. `ppm-sim` and the
/// `ppm-sweep` storm axis both build specs through this function, so a
/// sweep cell and its repro command line replay the identical world.
#[must_use]
pub fn scale_spec(users: u32, hosts: u16, seed: u64) -> StormSpec {
    let mut spec = StormSpec::new(users, hosts, seed);
    spec.mean_lifetime_us = 40_000 * u64::from(users.min(256));
    spec
}

impl TenantWorld {
    /// Builds a world that will apply `procs` forks of `spec`'s storm.
    pub fn new(spec: StormSpec, procs: u64) -> Self {
        let users = spec.users;
        let hosts = spec.hosts;
        let mut reg = Registry::new();
        let m = Meters {
            forks: reg.counter("tenant.forks"),
            remote_forks: reg.counter("tenant.remote_forks"),
            exits: reg.counter("tenant.exits"),
            lpm_spawns: reg.counter("tenant.lpm_spawns"),
            sweeps: reg.counter("tenant.sweeps"),
            pruned: reg.counter("tenant.pruned"),
            live: reg.gauge("tenant.live"),
            live_peak: reg.gauge("tenant.live_peak"),
            tracked_peak: reg.gauge("tenant.tracked_peak"),
        };
        TenantWorld {
            spec,
            target: procs,
            storm: Storm::new(spec),
            engine: TimerWheel::new(),
            shards: (0..users)
                .map(|r| UserShard::new(Uid(UID_BASE + r), hosts))
                .collect(),
            host_names: (0..hosts).map(|h| format!("h{h}")).collect(),
            next_pid: vec![2; hosts as usize],
            reg,
            m,
            forks: 0,
            exits: 0,
            remote_forks: 0,
            lpm_spawns: 0,
            pruned: 0,
            live: 0,
            live_peak: 0,
            tracked_peak: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// The world's metrics registry (deterministic snapshot source).
    pub fn metrics(&self) -> &Registry {
        &self.reg
    }

    /// Registers the user's LPM on `host` if absent; returns its pid.
    fn ensure_lpm(&mut self, user: u32, host: u16) -> u32 {
        let h = host as usize;
        if let Some(slot) = &self.shards[user as usize].lpms[h] {
            return slot.pid;
        }
        let pid = self.next_pid[h];
        self.next_pid[h] += 1;
        let uid = self.shards[user as usize].uid;
        self.shards[user as usize].lpms[h] = Some(LpmSlot {
            pid,
            port: lpm_port(uid),
            forks: 0,
        });
        self.lpm_spawns += 1;
        self.reg.inc(self.m.lpm_spawns);
        self.digest = mix(
            self.digest,
            0x11 ^ (u64::from(uid.0) << 16) ^ u64::from(pid),
        );
        pid
    }

    /// Applies one storm fork at the engine's current instant.
    fn apply_fork(&mut self, f: StormFork) {
        let now_us = self.engine.now().as_micros();
        let home_lpm = self.ensure_lpm(f.user, f.home);
        if f.host != f.home {
            self.ensure_lpm(f.user, f.host);
            self.remote_forks += 1;
            self.reg.inc(self.m.remote_forks);
        }
        let h = f.host as usize;
        let pid = self.next_pid[h];
        self.next_pid[h] += 1;
        if self.shards[f.user as usize].arenas[h].is_none() {
            self.shards[f.user as usize].arenas[h] =
                Some(Genealogy::new(self.host_names[h].as_str()));
        }
        // A remote fork carries a logical-parent edge back to the home
        // host's manager, as in the paper's remote-creation chain.
        let logical = (f.host != f.home)
            .then(|| Gpid::new(self.host_names[f.home as usize].as_str(), home_lpm));
        let shard = &mut self.shards[f.user as usize];
        let arena = shard.arenas[h].as_mut().expect("arena just ensured");
        // A quarter of forks nest under the lane's previous fork while it
        // is still alive (the decision is read off the storm's lifetime
        // stream so it stays replayable); the rest are roots. Keeping the
        // nesting probability below 1/2 bounds expected chain depth, so
        // retained-dead chains cannot grow without bound.
        let last = shard.last_pid[h];
        let nest = last != 0
            && f.lifetime_us.is_multiple_of(4)
            && arena
                .get(last)
                .is_some_and(|n| n.state != WireProcState::Dead);
        let ppid = if nest { last } else { 1 };
        // `track` already writes the command, so the exec transition
        // only needs the state flip — not `set_exec`'s second buffer
        // write.
        arena.track(pid, ppid, logical, Storm::command(f.command), now_us, true);
        arena.set_state(pid, WireProcState::Running);
        shard.last_pid[h] = pid;
        shard.forked += 1;
        if let Some(slot) = &mut shard.lpms[h] {
            slot.forks += 1;
        }
        self.forks += 1;
        self.live += 1;
        self.reg.inc(self.m.forks);
        self.reg.set(self.m.live, self.live as i64);
        if self.live > self.live_peak {
            self.live_peak = self.live;
            self.reg.set_max(self.m.live_peak, self.live as i64);
        }
        self.digest = mix(
            self.digest,
            (u64::from(f.user) << 32) ^ (u64::from(f.host) << 16) ^ u64::from(pid),
        );
        self.digest = mix(self.digest, now_us ^ f.lifetime_us);
        self.engine.schedule(
            SimDuration::from_micros(f.lifetime_us.max(1)),
            StormEvent::Exit {
                user: f.user,
                host: f.host,
                pid,
            },
        );
    }

    /// Applies a scheduled death and, if no sweep is pending for the
    /// arena, schedules one a retention period out.
    fn apply_exit(&mut self, user: u32, host: u16, pid: u32) {
        let now_us = self.engine.now().as_micros();
        let h = host as usize;
        let shard = &mut self.shards[user as usize];
        let arena = shard.arenas[h]
            .as_mut()
            .expect("exit delivered to an arena that forked");
        // Deterministic stand-in for the kernel's final CPU report.
        let cpu_us = u64::from(pid).wrapping_mul(2_654_435_761) % 40_000;
        arena.mark_dead_at(pid, cpu_us, now_us);
        shard.exited += 1;
        self.exits += 1;
        self.live -= 1;
        self.reg.inc(self.m.exits);
        self.reg.set(self.m.live, self.live as i64);
        self.digest = mix(
            self.digest,
            0x99 ^ (u64::from(user) << 32) ^ (u64::from(host) << 16) ^ u64::from(pid),
        );
        if !shard.sweep_pending[h] {
            shard.sweep_pending[h] = true;
            self.engine.schedule(
                SimDuration::from_micros(RETENTION_US + 1),
                StormEvent::Sweep { user, host },
            );
        }
    }

    /// Runs one arena's retention sweep.
    fn apply_sweep(&mut self, user: u32, host: u16) {
        let now_us = self.engine.now().as_micros();
        let h = host as usize;
        let shard = &mut self.shards[user as usize];
        shard.sweep_pending[h] = false;
        let Some(arena) = shard.arenas[h].as_mut() else {
            return;
        };
        let n = arena.prune_older_than(now_us, RETENTION_US) as u64;
        self.pruned += n;
        self.reg.inc(self.m.sweeps);
        self.reg.add(self.m.pruned, n);
    }

    /// Total tracked processes across every shard (live plus
    /// retained-dead).
    pub fn tracked_total(&self) -> u64 {
        self.shards.iter().map(|s| s.tracked_total() as u64).sum()
    }

    /// Drives the storm to its fork target and drains every scheduled
    /// exit and sweep, returning the run's report. Idempotent: a second
    /// call finds the engine drained and recomputes the same report.
    pub fn run(&mut self) -> ScaleReport {
        if self.target > 0 && self.forks == 0 {
            self.engine
                .schedule(SimDuration::from_micros(0), StormEvent::Fork);
        }
        while let Some((_at, ev)) = self.engine.pop() {
            match ev {
                StormEvent::Fork => {
                    let f = self.storm.next_fork();
                    self.apply_fork(f);
                    if self.forks < self.target {
                        self.engine
                            .schedule(SimDuration::from_micros(f.next_us), StormEvent::Fork);
                    }
                    // Sampled rather than per-fork: the tracked total is
                    // an O(shards × hosts) scan.
                    if self.forks.is_multiple_of(4096) {
                        let tracked = self.tracked_total();
                        if tracked > self.tracked_peak {
                            self.tracked_peak = tracked;
                            self.reg.set_max(self.m.tracked_peak, tracked as i64);
                        }
                    }
                }
                StormEvent::Exit { user, host, pid } => self.apply_exit(user, host, pid),
                StormEvent::Sweep { user, host } => self.apply_sweep(user, host),
            }
        }
        let tracked_end = self.tracked_total();
        if tracked_end > self.tracked_peak {
            self.tracked_peak = tracked_end;
        }
        ScaleReport {
            users: self.spec.users,
            hosts: self.spec.hosts,
            seed: self.spec.seed,
            procs: self.forks,
            exits: self.exits,
            remote_forks: self.remote_forks,
            lpm_spawns: self.lpm_spawns,
            pruned: self.pruned,
            tracked_end,
            live_peak: self.live_peak,
            tracked_peak: self.tracked_peak,
            sim_end_us: self.engine.now().as_micros(),
            digest: self.digest,
        }
    }
}

/// The deterministic summary of one scale run: same spec, same report,
/// byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleReport {
    /// Users driven.
    pub users: u32,
    /// Hosts in the world.
    pub hosts: u16,
    /// Storm seed.
    pub seed: u64,
    /// Forks applied (the run target).
    pub procs: u64,
    /// Exits applied (equals `procs` after a full drain).
    pub exits: u64,
    /// Forks that landed away from the user's home host.
    pub remote_forks: u64,
    /// LPM slots registered across all (user, host) pairs.
    pub lpm_spawns: u64,
    /// Nodes dropped by retention sweeps.
    pub pruned: u64,
    /// Nodes still tracked when the run drained (retained-dead).
    pub tracked_end: u64,
    /// Peak concurrent live processes.
    pub live_peak: u64,
    /// Peak tracked processes (live + retained-dead, sampled).
    pub tracked_peak: u64,
    /// Simulated instant the last event ran, µs.
    pub sim_end_us: u64,
    /// FNV-1a fold of every fork, exit and LPM registration.
    pub digest: u64,
}

impl ScaleReport {
    /// Renders the report as deterministic text, one `key value` line
    /// each — the surface the run-twice determinism gate diffs.
    pub fn render(&self) -> String {
        format!(
            "scale users {u}\n\
             scale hosts {h}\n\
             scale seed {s}\n\
             scale procs {p}\n\
             scale exits {e}\n\
             scale remote_forks {r}\n\
             scale lpm_spawns {l}\n\
             scale pruned {pr}\n\
             scale tracked_end {te}\n\
             scale live_peak {lp}\n\
             scale tracked_peak {tp}\n\
             scale sim_end_us {us}\n\
             scale digest {d:016x}\n",
            u = self.users,
            h = self.hosts,
            s = self.seed,
            p = self.procs,
            e = self.exits,
            r = self.remote_forks,
            l = self.lpm_spawns,
            pr = self.pruned,
            te = self.tracked_end,
            lp = self.live_peak,
            tp = self.tracked_peak,
            us = self.sim_end_us,
            d = self.digest,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_runtime::obs::MetricValue;

    fn run_world(users: u32, hosts: u16, seed: u64, procs: u64) -> (ScaleReport, TenantWorld) {
        let mut world = TenantWorld::new(StormSpec::new(users, hosts, seed), procs);
        let report = world.run();
        (report, world)
    }

    #[test]
    fn scale_runs_are_deterministic() {
        let a = TenantWorld::new(StormSpec::new(50, 5, 42), 5_000).run();
        let b = TenantWorld::new(StormSpec::new(50, 5, 42), 5_000).run();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        let c = TenantWorld::new(StormSpec::new(50, 5, 43), 5_000).run();
        assert_ne!(a.digest, c.digest, "seed changes the run");
    }

    #[test]
    fn storm_drains_and_prunes() {
        let (report, world) = run_world(20, 3, 7, 4_000);
        assert_eq!(report.procs, 4_000);
        assert_eq!(report.exits, 4_000, "every fork exits");
        let arenas = world.shards.iter().flat_map(|s| s.arenas.iter().flatten());
        assert_eq!(
            arenas.map(|a| a.live_count()).sum::<usize>(),
            0,
            "nothing live after the drain"
        );
        assert!(report.pruned > 0, "retention sweeps collected dead nodes");
        assert!(
            report.tracked_end < report.procs / 4,
            "retained-dead stays far below the cumulative count \
             ({} of {})",
            report.tracked_end,
            report.procs
        );
        assert!(report.live_peak > 0);
        // The registry agrees with the report.
        let snap = world.metrics().snapshot();
        let counter = |name: &str| {
            snap.iter()
                .find(|s| s.name == name)
                .map(|s| match &s.value {
                    MetricValue::Counter(v) => *v,
                    other => panic!("{name} is {other:?}"),
                })
                .unwrap()
        };
        assert_eq!(counter("tenant.forks"), report.procs);
        assert_eq!(counter("tenant.exits"), report.exits);
        assert_eq!(counter("tenant.pruned"), report.pruned);
    }

    #[test]
    fn shards_never_share_processes() {
        let (report, world) = run_world(16, 4, 9, 3_000);
        // (host, pid) identities are globally unique, so any overlap
        // between two shards' snapshots would be a leak.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for shard in &world.shards {
            for rec in shard.arenas.iter().flatten().flat_map(|a| a.snapshot()) {
                assert!(
                    seen.insert((rec.gpid.host.clone(), rec.gpid.pid)),
                    "{} appears in more than one user's shard",
                    rec.gpid
                );
                total += 1;
            }
        }
        assert_eq!(total as u64, report.tracked_end);
        // Per-shard accounting sums to the world's.
        assert_eq!(
            world.shards.iter().map(|s| s.forked).sum::<u64>(),
            report.procs
        );
        assert_eq!(
            world.shards.iter().map(|s| s.exited).sum::<u64>(),
            report.exits
        );
    }

    #[test]
    fn lpm_slots_register_once_per_user_host() {
        let (report, world) = run_world(12, 4, 11, 2_000);
        let mut slots = 0u64;
        for shard in &world.shards {
            for slot in shard.lpms.iter().flatten() {
                assert_eq!(slot.port, lpm_port(shard.uid), "well-known per-user port");
                slots += 1;
            }
            // The home host is always registered for an active user.
            if shard.forked > 0 {
                let home = (shard.uid.0 - UID_BASE) % u32::from(world.spec.hosts);
                assert!(shard.lpms[home as usize].is_some());
            }
        }
        assert_eq!(slots, report.lpm_spawns, "slots registered exactly once");
    }

    #[test]
    fn zipf_storm_skews_work_toward_low_ranks() {
        let (_, world) = run_world(30, 2, 13, 6_000);
        let first = world.shards[0].forked;
        let last = world.shards[29].forked;
        assert!(
            first > last * 3,
            "rank 0 ({first}) should dominate rank 29 ({last})"
        );
    }
}
