//! The multi-tenant storm: many users' fork/exec/exit activity on one PPM.
//!
//! "Each user has his own process manager." A [`TenantWorld`] is a
//! [`PpmHarness`] with `U` accounts on `N` hosts of one LAN segment, plus
//! a driver that plays the seeded Zipf storm ([`StormDeal`]) into it the
//! way its users would: each active user logs in on a home host (a
//! [`StormShell`], adopted by the LPM pmd creates for the occasion), the
//! shell forks that user's local processes, and each remote fork is an
//! [`Op::Spawn`] typed at the home host for a sibling LPM to carry out.
//! No clock, process table or genealogy is kept here: the [`ScaleReport`]
//! is read back from the world's registry and the users' `*` snapshots.

use ppm_core::client::{ToolHandle, ToolStep};
use ppm_core::config::PpmConfig;
use ppm_proto::msg::{Op, Reply};
use ppm_proto::types::{Gpid, WireProcState};
use ppm_runtime::events::TraceFlags;
use ppm_runtime::program::SpawnSpec;
use ppm_runtime::signal::Signal;
use ppm_runtime::workload::{Storm, StormDeal, StormShell, StormSpec, STORM_SHELL};
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

use crate::harness::{spawn_op, split_partial, HarnessBuilder, HarnessError, PpmHarness};

/// Uid of the most active storm user; user rank `r` is `UID_BASE + r`.
pub const UID_BASE: u32 = 1_000;
/// Neither `users × hosts` (the LPMs a storm world may come to run) nor
/// `hosts × hosts` (its LAN's links, its hop table) may exceed this.
pub const MAX_STORM_CELLS: u64 = 1 << 16;
/// How long the driver waits, in all, for the tools of one phase (logins,
/// remote forks, closing snapshots); a tool gives up after as long.
const TOOL_WAIT: SimDuration = SimDuration::from_secs(120);
/// Most records of one user kept for the closing snapshot: half a reply's
/// 16-bit count, the rest being for the live and for those yet to die.
const SNAPSHOT_RECORDS: u64 = u16::MAX as u64 / 2;
/// What a closing snapshot may take, its modelled per-record cost
/// included — at the origin and, as straggler allowance, at a sibling.
const CLOSING: SimDuration = SimDuration::from_secs(30);
/// What one remote creation occupies the creating LPM for, µs: Table 2's
/// 77 ms create, doubled so that no manager runs above half its capacity.
const REMOTE_SPAWN_US: u64 = 160_000;

/// The canonical storm spec of `ppm-sim --users U --hosts N` and the
/// `ppm-sweep` storm axis: roughly `40 × min(U, 256)` processes live at
/// once, forks a millisecond apart — or as far apart as it takes, on few
/// hosts, for one user making every remote fork not to swamp an LPM.
#[must_use]
pub fn scale_spec(users: u32, hosts: u16, seed: u64) -> StormSpec {
    let mut spec = StormSpec::new(users, hosts, seed);
    spec.mean_lifetime_us = 40_000 * u64::from(users.min(256));
    let per_host = u64::from(spec.remote_permille) * REMOTE_SPAWN_US / 1_000;
    let apart = per_host / u64::from(spec.hosts.max(2) - 1);
    spec.mean_interarrival_us = spec.mean_interarrival_us.max(apart);
    spec
}

/// Whether a `users × hosts` storm world may be built; if not, why.
pub fn storm_fits(users: u32, hosts: u16) -> Result<(), String> {
    let (users, hosts) = (u64::from(users), u64::from(hosts));
    let fits = users.max(hosts) * hosts <= MAX_STORM_CELLS;
    fits.then_some(()).ok_or_else(|| {
        format!("a {users}x{hosts} storm is too large: max(users, hosts) x hosts may not exceed {MAX_STORM_CELLS}")
    })
}

/// The names of a storm world's hosts, in host-id order.
pub fn host_names(hosts: u16) -> Vec<String> {
    (0..hosts).map(|h| format!("h{h}")).collect()
}

/// The storm on the one world (see the module docs).
#[derive(Debug)]
pub struct TenantWorld {
    /// The world: arm faults on it before `run`, read its trace after.
    pub ppm: PpmHarness,
    spec: StormSpec,
    procs: u64,
    deal: StormDeal,
}

impl TenantWorld {
    /// A fault-free world on the flat wire to play `procs` forks of `spec`.
    pub fn new(spec: StormSpec, procs: u64) -> Self {
        TenantWorld::boot(PpmHarness::builder(), spec, procs)
    }

    /// Populates `builder` (which may carry pmd options and a network
    /// model) with `spec`'s seed, hosts and accounts, and boots it. Panics
    /// unless [`storm_fits`]: whoever reads a size from outside asks first.
    pub fn boot(mut builder: HarnessBuilder, spec: StormSpec, procs: u64) -> Self {
        storm_fits(spec.users, spec.hosts).expect("the storm world fits");
        let deal = StormDeal::new(spec, procs);
        let names = host_names(spec.hosts);
        builder = builder.seed(spec.seed);
        for (h, name) in names.iter().enumerate() {
            builder = builder.host(name.clone(), CpuClass::Vax780);
            for peer in &names[..h] {
                builder = builder.link(peer.clone(), name.clone());
            }
        }
        // The closing snapshots are how the report counts exits, so a dead
        // process's record (and the LPM holding it) is kept to the end of
        // the run — or as long as one reply can carry the busiest user's.
        let keep = SimDuration::from_micros(deal.stretch_us(SNAPSHOT_RECORDS)) + CLOSING;
        let config = PpmConfig {
            dead_retention: keep,
            lpm_ttl: keep,
            bcast_timeout: CLOSING,
            ..PpmConfig::fast_recovery()
        };
        for rank in 0..spec.users {
            let home = (rank % u32::from(spec.hosts)) as usize;
            let recovery = [&*names[home], &*names[(home + 1) % names.len()]];
            let uid = UID_BASE + rank;
            builder = builder.user(Uid(uid), 0x5EED ^ u64::from(uid), &recovery, config.clone());
        }
        TenantWorld {
            ppm: builder.build(),
            spec,
            procs,
            deal,
        }
    }

    fn user(&self, rank: u32) -> (String, Uid) {
        let home = format!("h{}", rank % u32::from(self.spec.hosts));
        (home, Uid(UID_BASE + rank))
    }

    /// User `rank` types one request for `dest` at the home host.
    fn ask(&mut self, rank: u32, dest: &str, op: Op) -> Result<ToolHandle, HarnessError> {
        let (home, uid) = self.user(rank);
        self.ppm
            .launch_tool(&home, uid, vec![ToolStep::new(dest, op)])
    }

    /// Plays the storm to its last exit and reads the report back. The
    /// storm is spent by it: a second call finds nothing left to play.
    pub fn run(&mut self) -> ScaleReport {
        let deal = std::mem::take(&mut self.deal);
        // Log in every user with local forks to make, and have the user's
        // LPM — created by pmd for this first request — adopt the shell.
        let (mut logins, mut adopts) = (Vec::new(), Vec::new());
        let busy = (0..).zip(deal.local).filter(|(_, jobs)| !jobs.is_empty());
        for (rank, jobs) in busy {
            let (home, uid) = self.user(rank);
            let shell = SpawnSpec::new(STORM_SHELL, Box::new(StormShell::new(jobs)));
            if let Ok(pid) = self.ppm.spawn_login_process(&home, uid, shell) {
                let flags = TraceFlags::ALL.bits();
                adopts.push(self.ask(rank, &home, Op::Adopt { pid: pid.0, flags }));
                logins.push((rank, pid));
            }
        }
        // Go: every adopted shell starts its schedule at this instant.
        let adopted = self.ppm.await_replies(adopts, TOOL_WAIT);
        let go = self.ppm.now();
        let mut shells = vec![None; self.spec.users as usize];
        for (&(rank, pid), reply) in logins.iter().zip(adopted) {
            let (home, uid) = self.user(rank);
            let mut tell = || self.ppm.post_signal(&home, uid, pid, Signal::Usr1);
            shells[rank as usize] = (reply == Ok(Reply::Ok) && tell().is_ok()).then_some(pid);
        }
        let mut failed = logins.len() - shells.iter().flatten().count();

        // The remote forks, each typed at its user's home host when due.
        let mut spawns = Vec::new();
        for (rank, host, job) in deal.remote {
            let at = go + SimDuration::from_micros(job.after_us);
            self.ppm.run_for(at.saturating_since(self.ppm.now()));
            let home = self.user(rank).0;
            let parent = shells[rank as usize].map(|pid| Gpid::new(home.as_str(), pid.0));
            let life = Some(SimDuration::from_micros(job.lifetime_us));
            let op = spawn_op(Storm::command(job.command), parent, life);
            spawns.push(self.ask(rank, &format!("h{host}"), op));
        }

        // Let the last process die and its exit reach its LPM, then ask
        // every user who did anything what became of it all.
        let end = go + SimDuration::from_micros(deal.end_us) + SimDuration::from_secs(2);
        self.ppm.run_for(end.saturating_since(self.ppm.now()));
        let snapshot = |&rank: &u32| self.ask(rank, "*", Op::Snapshot);
        let asks = deal.active.iter().map(snapshot).collect();
        let closing = self.ppm.await_replies(asks, TOOL_WAIT);
        let spawned = self.ppm.await_replies(spawns, TOOL_WAIT);
        let created = |reply: &&Result<Reply, _>| matches!(reply, Ok(Reply::Spawned { .. }));
        let remote_forks = spawned.iter().filter(created).count();
        failed += spawned.len() - remote_forks + deal.active.len();
        let (mut live_end, mut exits) = (0, 0);
        for reply in closing.into_iter().flatten() {
            if let (Reply::Snapshot { procs, .. }, missing) = split_partial(reply) {
                failed -= usize::from(missing.is_empty());
                let dead = procs.iter().filter(|r| r.state == WireProcState::Dead);
                exits += dead.clone().filter(|r| r.command != STORM_SHELL).count();
                live_end += procs.len() - dead.count();
            }
        }
        let world = self.ppm.world().core().obs().registry.snapshot();
        let rows = ppm_core::obs::rows(&world);
        let kernel_events = rows.iter().find(|row| row.name == "kernel.events");
        ScaleReport {
            procs: self.procs,
            remote_forks: remote_forks as u64,
            failed: failed as u64,
            kernel_events: kernel_events.map_or(0, |row| row.value as u64),
            live_end: live_end as u64,
            exits: exits as u64,
            sim_end_us: self.ppm.now().as_micros(),
        }
    }
}

/// What one storm left behind, as the system itself reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleReport {
    /// Forks the storm asked for.
    pub procs: u64,
    /// Remote forks a sibling LPM answered with the new process.
    pub remote_forks: u64,
    /// Logins, remote forks and closing snapshots not answered in full.
    pub failed: u64,
    /// Events the kernels reported to tracing LPMs (`kernel.events`).
    pub kernel_events: u64,
    /// Processes the closing snapshots show alive.
    pub live_end: u64,
    /// Storm processes they show dead: all, if one reply could carry them.
    pub exits: u64,
    /// Simulated instant the report was read, µs.
    pub sim_end_us: u64,
}

impl ScaleReport {
    /// The report as text, one `scale <key> <value>` line per field.
    pub fn render(&self) -> String {
        format!(
            "scale procs {}\nscale remote_forks {}\nscale failed {}\nscale kernel_events {}\n\
             scale live_end {}\nscale exits {}\nscale sim_end_us {}\n",
            self.procs,
            self.remote_forks,
            self.failed,
            self.kernel_events,
            self.live_end,
            self.exits,
            self.sim_end_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::config::lpm_port;
    use ppm_proto::types::ProcRecord;
    use ppm_runtime::trace::TraceCategory;
    use ppm_simos::ids::Pid;
    use std::collections::{BTreeMap, BTreeSet};

    /// Runs a storm and takes every active user's `*` snapshot afterwards.
    fn played(
        users: u32,
        hosts: u16,
        procs: u64,
    ) -> (TenantWorld, ScaleReport, Vec<(u32, Vec<ProcRecord>)>) {
        let mut world = TenantWorld::new(scale_spec(users, hosts, 7), procs);
        let active = StormDeal::new(scale_spec(users, hosts, 7), procs).active;
        let report = world.run();
        let snapshot = |rank: u32| {
            let (home, uid) = world.user(rank);
            (rank, world.ppm.snapshot(&home, uid, "*").expect("snapshot"))
        };
        let snapshots = active.into_iter().map(snapshot).collect();
        (world, report, snapshots)
    }

    #[test]
    fn every_fork_is_tracked_and_every_exit_seen() {
        let (_, report, snapshots) = played(20, 3, 1_500);
        assert_eq!((report.procs, report.exits), (1_500, 1_500));
        assert_eq!((report.failed, report.live_end), (0, 0));
        // A shell's child is reported forking, exec'ing and exiting; a
        // process an LPM creates, and a shell (adopted after its exec,
        // told to go by a signal), twice.
        let shells = snapshots.iter().flat_map(|(_, records)| records);
        let shells = shells.filter(|r| r.command == STORM_SHELL).count() as u64;
        let local = report.procs - report.remote_forks;
        let expected = 3 * local + 2 * report.remote_forks + 2 * shells;
        assert_eq!(report.kernel_events, expected);
        assert!(report.remote_forks > 100, "{report:?}");
        for (rank, records) in &snapshots {
            let live = records.iter().filter(|r| r.state != WireProcState::Dead);
            assert_eq!(live.count(), 0, "user {rank} still has live processes");
        }
    }

    #[test]
    fn no_process_shows_in_two_users_snapshots_and_each_is_its_owners() {
        let (world, report, snapshots) = played(12, 4, 600);
        let mut seen = BTreeSet::new();
        for (rank, records) in &snapshots {
            for r in records {
                assert!(
                    seen.insert((r.gpid.host.clone(), r.gpid.pid)),
                    "{} is in more than one user's snapshot",
                    r.gpid
                );
                // The kernel still has the entry of so recent an exit.
                let host = world.ppm.host(&r.gpid.host).expect("a storm host");
                let kernel = world.ppm.world().core().kernel(host);
                let owner = kernel.get(Pid(r.gpid.pid)).map(|p| p.uid);
                assert_eq!(owner, Some(Uid(UID_BASE + rank)), "{}", r.gpid);
            }
        }
        assert!(seen.len() as u64 >= report.procs);
    }

    #[test]
    fn zipf_skews_the_work_toward_low_ranks() {
        let (_, _, snapshots) = played(30, 2, 3_000);
        let forks: BTreeMap<u32, usize> = snapshots
            .iter()
            .map(|(rank, records)| (*rank, records.len()))
            .collect();
        let (first, last) = (forks[&0], forks.get(&29).copied().unwrap_or(0));
        assert!(first > 3 * last, "rank 0 made {first}, rank 29 {last}");
    }

    #[test]
    fn pmd_creates_each_lpm_once_on_its_users_port() {
        let (world, _, snapshots) = played(12, 4, 2_000);
        let trace = world.ppm.world().core().trace();
        let mut created = BTreeSet::new();
        for entry in trace.filtered(TraceCategory::Daemon) {
            let text = entry.text();
            let Some(rest) = text.strip_prefix("pmd: created LPM pid ") else {
                continue;
            };
            // "<pid> for uid <uid> (accept :<port>)"
            let words: Vec<&str> = rest.split_whitespace().collect();
            let uid: u32 = words[3].parse().expect("uid");
            let port = words[5].trim_matches(|c| c == ':' || c == ')');
            assert_eq!(port, lpm_port(Uid(uid)).0.to_string(), "{text}");
            assert!(created.insert((entry.host, uid)), "twice: {text}");
        }
        // Every host a user's processes ran on had an LPM of that user's.
        for (rank, records) in &snapshots {
            for r in records {
                let host = world.ppm.host(&r.gpid.host).ok();
                assert!(created.contains(&(host, UID_BASE + rank)), "{}", r.gpid);
            }
        }
        let registries = world.ppm.metrics_sections().len() - 1;
        assert_eq!(created.len(), registries, "one registry per LPM");
    }

    #[test]
    fn few_users_on_few_hosts_are_paced_to_what_an_lpm_can_carry() {
        assert_eq!(scale_spec(64, 32, 1).mean_interarrival_us, 1_000);
        assert_eq!(scale_spec(64, 16, 1).mean_interarrival_us, 1_333);
        assert_eq!(scale_spec(1, 2, 1).mean_interarrival_us, 20_000);
        let report = TenantWorld::new(scale_spec(1, 2, 1986), 400).run();
        assert_eq!((report.exits, report.failed), (400, 0), "{report:?}");
    }
}
