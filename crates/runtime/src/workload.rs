//! Synthetic user workloads.
//!
//! The paper measures the PPM against real user activity on the Berkeley
//! machines. These programs generate the equivalent synthetic activity:
//! CPU-bound spinners to pin the load average into Table 1's buckets,
//! process trees for genealogy snapshots, and chattering client/server
//! pairs for the IPC-tracing tool.
//!
//! [`Storm`] scales the same idea up to many users: a seeded, replayable
//! fork/exec/exit storm whose per-user activity follows a Zipf law — the
//! multi-tenant workload the scale scenario (`ppm-sim --users`) and the
//! `ppm-sweep` storm axis replay. A [`StormDeal`] splits it by who makes
//! each fork; a [`StormShell`] is one user's login shell in it, the
//! traced parent that forks that user's share.

use bytes::Bytes;

use crate::ids::HostId;
use crate::time::SimDuration;

use crate::ids::{ConnId, Port};
use crate::program::{ConnEvent, Program, SigAction, SpawnSpec};
use crate::signal::Signal;
use crate::sys::Sys;
use crate::time::SimTime;

/// A partially CPU-bound process: runnable for `duty` of each `period`.
///
/// `n` of these with duty `d` drive a host's load average toward `n·d`,
/// which is how the Table 1 bench pins `la` to bucket midpoints like 1.5.
#[derive(Debug, Clone)]
pub struct DutyCycle {
    /// Fraction of time runnable, in `[0, 1]`.
    pub duty: f64,
    /// Cycle period.
    pub period: SimDuration,
    on: bool,
}

impl DutyCycle {
    /// Creates a duty-cycled spinner.
    pub fn new(duty: f64, period: SimDuration) -> Self {
        DutyCycle {
            duty: duty.clamp(0.0, 1.0),
            period,
            on: false,
        }
    }

    /// Phase length, dithered ±30% so populations of spinners do not
    /// phase-lock with the kernel's load sampler.
    fn phase(&self, on: bool, sys: &mut dyn Sys) -> SimDuration {
        let nominal = if on {
            self.period.mul_f64(self.duty)
        } else {
            self.period.mul_f64(1.0 - self.duty)
        };
        nominal.mul_f64(0.7 + 0.6 * sys.random_unit())
    }
}

impl Program for DutyCycle {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.on = true;
        sys.set_cpu_bound(true);
        let d = self.phase(true, sys);
        sys.set_timer(d, 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        self.on = !self.on;
        sys.set_cpu_bound(self.on);
        let d = self.phase(self.on, sys);
        sys.set_timer(d, 0);
    }

    fn name(&self) -> &str {
        "dutycycle"
    }
}

/// A process that does some work and exits after `lifetime`.
#[derive(Debug, Clone)]
pub struct Worker {
    /// How long the process lives.
    pub lifetime: SimDuration,
    /// Nominal CPU consumed in one burst at start.
    pub work: SimDuration,
    /// Exit code on completion.
    pub exit_code: i32,
}

impl Worker {
    /// A worker living `lifetime` with a single CPU burst of `work`.
    pub fn new(lifetime: SimDuration, work: SimDuration) -> Self {
        Worker {
            lifetime,
            work,
            exit_code: 0,
        }
    }
}

impl Program for Worker {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        if !self.work.is_zero() {
            sys.consume_cpu(self.work);
        }
        sys.set_timer(self.lifetime, 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(self.exit_code);
    }

    fn name(&self) -> &str {
        "worker"
    }
}

/// Spawns a tree of [`Worker`]s: `fanout` children per node, `depth`
/// levels. The roots of the snapshot workloads in Table 3 are trees like
/// this ("six user processes in each of the remote machines").
#[derive(Debug, Clone)]
pub struct TreeSpawner {
    /// Children per node.
    pub fanout: usize,
    /// Levels below this node (0 = leaf).
    pub depth: usize,
    /// Lifetime of every node once its subtree is spawned.
    pub lifetime: SimDuration,
}

impl TreeSpawner {
    /// Creates a spawner for a `fanout`-ary tree of `depth` levels.
    pub fn new(fanout: usize, depth: usize, lifetime: SimDuration) -> Self {
        TreeSpawner {
            fanout,
            depth,
            lifetime,
        }
    }

    /// Total processes a tree rooted here will create (including itself).
    pub fn total_nodes(&self) -> usize {
        // fanout^0 + fanout^1 + ... + fanout^depth
        let mut total = 1usize;
        let mut level = 1usize;
        for _ in 0..self.depth {
            level *= self.fanout;
            total += level;
        }
        total
    }
}

impl Program for TreeSpawner {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        if self.depth > 0 {
            for i in 0..self.fanout {
                let child = TreeSpawner::new(self.fanout, self.depth - 1, self.lifetime);
                let _ = sys.spawn(SpawnSpec::new(
                    format!("tree-d{}-{}", self.depth - 1, i),
                    Box::new(child),
                ));
            }
        }
        sys.set_timer(self.lifetime, 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(0);
    }

    fn name(&self) -> &str {
        "tree"
    }
}

/// A server that echoes every message back on the same connection.
#[derive(Debug, Clone)]
pub struct EchoServer {
    /// Port to listen on.
    pub port: Port,
}

impl Program for EchoServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let _ = sys.listen(self.port);
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let _ = sys.send(conn, data);
    }

    fn name(&self) -> &str {
        "echod"
    }
}

/// A client that connects to an [`EchoServer`] and exchanges `rounds`
/// messages of `msg_bytes` bytes, then exits. If an echo does not arrive
/// within a retransmit interval the payload is sent again — so a broken
/// path always surfaces at the client as a failed send, whichever
/// direction the in-flight message was traveling when the path died.
#[derive(Debug, Clone)]
pub struct Chatter {
    /// Server host.
    pub server: HostId,
    /// Server port.
    pub port: Port,
    /// Message payload size.
    pub msg_bytes: usize,
    /// Round trips to perform.
    pub rounds: u32,
    done: u32,
    conn: Option<ConnId>,
}

/// Idle time after which [`Chatter`] retransmits its payload.
const CHATTER_RETRY: SimDuration = SimDuration::from_secs(1);

impl Chatter {
    /// Creates a chatter for `rounds` echoes of `msg_bytes` each.
    pub fn new(server: HostId, port: Port, msg_bytes: usize, rounds: u32) -> Self {
        Chatter {
            server,
            port,
            msg_bytes,
            rounds,
            done: 0,
            conn: None,
        }
    }

    fn payload(&self) -> Bytes {
        Bytes::from(vec![0x55u8; self.msg_bytes])
    }

    /// Sends the round's payload and arms a retransmit timer keyed to the
    /// current round; an echo advancing `done` stales the timer. A send
    /// that errors means the connection is already dead: exit.
    fn send_round(&mut self, sys: &mut dyn Sys, conn: ConnId) {
        let p = self.payload();
        if sys.send(conn, p).is_err() {
            sys.exit(1);
            return;
        }
        sys.set_timer(CHATTER_RETRY, self.done as u64);
    }
}

impl Program for Chatter {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.conn = sys.connect(self.server, self.port).ok();
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        match event {
            ConnEvent::Established if Some(conn) == self.conn => self.send_round(sys, conn),
            ConnEvent::Failed(_) | ConnEvent::Closed => sys.exit(1),
            _ => {}
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, _data: Bytes) {
        self.done += 1;
        if self.done >= self.rounds {
            let _ = sys.close(conn);
            sys.exit(0);
        } else {
            self.send_round(sys, conn);
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        // Still waiting on the echo for the round this timer was armed in:
        // retransmit. A send over a dead path reports the breakage.
        if token == self.done as u64 {
            if let Some(conn) = self.conn {
                self.send_round(sys, conn);
            }
        }
    }

    fn name(&self) -> &str {
        "chatter"
    }
}

// ---------------------------------------------------------------------------
// Multi-user fork/exec/exit storm
// ---------------------------------------------------------------------------

/// Command names a storm process execs, drawn from the paper's era.
const STORM_COMMANDS: [&str; 10] = [
    "cc", "as", "ld", "make", "vi", "troff", "eqn", "sort", "sim", "rogue",
];

/// Parameters of a deterministic multi-user storm.
///
/// A storm is a pure decision stream: given the same spec, two [`Storm`]s
/// yield bit-identical sequences of [`StormFork`]s, which is what makes
/// scale runs replayable end to end. The storm only decides *who* forks
/// *what*, *where*, for *how long* and how long after the fork before;
/// the world it is played into owns the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSpec {
    /// Number of users, ranked by activity (user 0 is the heaviest).
    pub users: u32,
    /// Number of hosts; user `u`'s home host is `u % hosts`.
    pub hosts: u16,
    /// Seed of the decision stream.
    pub seed: u64,
    /// Zipf exponent of the per-user activity law (1.0 ≈ classic Zipf).
    pub zipf_s: f64,
    /// Mean process lifetime, µs (sampled uniformly in `[mean/2, 3·mean/2)`).
    pub mean_lifetime_us: u64,
    /// Mean fork interarrival per lane, µs (same uniform window).
    pub mean_interarrival_us: u64,
    /// Per-mille of forks that land away from the user's home host,
    /// carrying a cross-host logical-parent edge.
    pub remote_permille: u32,
}

impl StormSpec {
    /// A storm sized for `users × hosts` with conventional rates.
    pub fn new(users: u32, hosts: u16, seed: u64) -> Self {
        StormSpec {
            users: users.max(1),
            hosts: hosts.max(1),
            seed,
            zipf_s: 1.1,
            mean_lifetime_us: 40_000,
            mean_interarrival_us: 1_000,
            remote_permille: 125,
        }
    }
}

/// One fork decision of a [`Storm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormFork {
    /// Activity rank of the forking user (0-based).
    pub user: u32,
    /// Host the child lands on.
    pub host: u16,
    /// The user's home host (differs from `host` for remote forks, which
    /// carry a logical-parent edge back home).
    pub home: u16,
    /// Index into [`Storm::command`]'s table for the exec'd command.
    pub command: u8,
    /// Child lifetime, µs.
    pub lifetime_us: u64,
    /// Delay before the lane's next fork, µs.
    pub next_us: u64,
}

/// A seeded, replayable fork/exec/exit storm over `U` users (see
/// [`StormSpec`]).
///
/// # Examples
///
/// ```
/// use ppm_runtime::workload::{Storm, StormSpec};
///
/// let spec = StormSpec::new(100, 8, 7);
/// let mut a = Storm::new(spec);
/// let mut b = Storm::new(spec);
/// let run: Vec<_> = (0..1000).map(|_| a.next_fork()).collect();
/// let replay: Vec<_> = (0..1000).map(|_| b.next_fork()).collect();
/// assert_eq!(run, replay, "same spec, same storm");
/// ```
#[derive(Debug, Clone)]
pub struct Storm {
    spec: StormSpec,
    state: u64,
    /// Cumulative (unnormalised) Zipf weights: `cum[u]` is the total
    /// weight of users `0..=u`; sampling is one binary search.
    cum: Vec<f64>,
}

impl Storm {
    /// Builds the storm's decision stream for `spec`.
    pub fn new(spec: StormSpec) -> Self {
        let mut cum = Vec::with_capacity(spec.users as usize);
        let mut total = 0.0f64;
        for rank in 0..spec.users {
            total += 1.0 / f64::from(rank + 1).powf(spec.zipf_s);
            cum.push(total);
        }
        Storm {
            spec,
            state: spec.seed,
            cum,
        }
    }

    /// The command name for a [`StormFork::command`] index.
    pub fn command(idx: u8) -> &'static str {
        STORM_COMMANDS[idx as usize % STORM_COMMANDS.len()]
    }

    /// SplitMix64 step: the storm's deterministic choice stream.
    fn rand(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample from `[mean/2, 3·mean/2)` — integer arithmetic
    /// only, so the stream never touches platform libm.
    fn around(&mut self, mean: u64) -> u64 {
        let mean = mean.max(2);
        mean / 2 + self.rand() % mean
    }

    /// Samples a user by the Zipf activity law.
    fn zipf_user(&mut self) -> u32 {
        let total = *self.cum.last().expect("at least one user");
        // 53 high bits → uniform in [0, 1): exact in an f64 mantissa.
        let u = (self.rand() >> 11) as f64 / (1u64 << 53) as f64;
        let x = u * total;
        self.cum.partition_point(|&c| c <= x) as u32 % self.spec.users
    }

    /// The next fork decision.
    pub fn next_fork(&mut self) -> StormFork {
        let user = self.zipf_user();
        let home = (user % u32::from(self.spec.hosts)) as u16;
        let remote = self.spec.hosts > 1
            && self.rand() % 1_000 < u64::from(self.spec.remote_permille.min(1_000));
        let host = if remote {
            // Uniform over the other hosts.
            let off = 1 + self.rand() % (u64::from(self.spec.hosts) - 1);
            ((u64::from(home) + off) % u64::from(self.spec.hosts)) as u16
        } else {
            home
        };
        let command = (self.rand() % STORM_COMMANDS.len() as u64) as u8;
        let lifetime_us = self.around(self.spec.mean_lifetime_us);
        let next_us = self.around(self.spec.mean_interarrival_us);
        StormFork {
            user,
            host,
            home,
            command,
            lifetime_us,
            next_us,
        }
    }
}

/// A whole storm, drawn up front and dealt out to whoever is to make
/// each fork: a user's forks on the home host to that user's
/// [`StormShell`], the ones that land elsewhere to the driver. Offsets
/// count from the instant the shells are told to go; the first fork is
/// at 0.
#[derive(Debug, Clone, Default)]
pub struct StormDeal {
    /// By user rank: that user's home-host forks, in time order.
    pub local: Vec<Vec<StormJob>>,
    /// The remote forks, in time order: user rank, host, job.
    pub remote: Vec<(u32, u16, StormJob)>,
    /// The ranks of the users who fork at all, ascending.
    pub active: Vec<u32>,
    /// When the last process dies, µs.
    pub end_us: u64,
    /// The most forks any one user makes.
    pub busiest: u64,
}

impl StormDeal {
    /// The first `procs` forks of `spec`'s storm.
    pub fn new(spec: StormSpec, procs: u64) -> Self {
        let mut storm = Storm::new(spec);
        let mut deal = StormDeal {
            local: vec![Vec::new(); spec.users as usize],
            ..StormDeal::default()
        };
        let mut forks = vec![0u64; spec.users as usize];
        let mut after_us = 0;
        for _ in 0..procs {
            let f = storm.next_fork();
            let job = StormJob {
                after_us,
                command: f.command,
                lifetime_us: f.lifetime_us,
            };
            if f.host == f.home {
                deal.local[f.user as usize].push(job);
            } else {
                deal.remote.push((f.user, f.host, job));
            }
            forks[f.user as usize] += 1;
            deal.end_us = deal.end_us.max(after_us + f.lifetime_us);
            after_us += f.next_us;
        }
        deal.busiest = forks.iter().copied().max().unwrap_or(0);
        let active = (0..).zip(forks).filter(|(_, n)| *n > 0);
        deal.active = active.map(|(rank, _)| rank).collect();
        deal
    }

    /// The longest stretch of the storm, µs, in which its busiest user
    /// makes no more than `forks` forks (all of it, if that user never
    /// makes as many).
    pub fn stretch_us(&self, forks: u64) -> u64 {
        let share = forks as f64 / self.busiest.max(1) as f64;
        (self.end_us as f64 * share.min(1.0)) as u64
    }
}

/// One fork a [`StormShell`] owes: [`Storm::command`] index `command`,
/// living `lifetime_us`, forked `after_us` after the shell is told to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormJob {
    /// Offset from the go signal, µs.
    pub after_us: u64,
    /// Index into [`Storm::command`]'s table.
    pub command: u8,
    /// Child lifetime, µs.
    pub lifetime_us: u64,
}

/// The command name a [`StormShell`] goes by.
pub const STORM_SHELL: &str = "storm-shell";

/// A storm user's login shell: idles until it receives `SIGUSR1` (the
/// driver sends it once the user's LPM has adopted the shell, so every
/// fork below is traced), then forks one [`Worker`] per [`StormJob`] at
/// the job's offset from that instant and exits after the last.
#[derive(Debug, Clone)]
pub struct StormShell {
    /// Jobs in `after_us` order.
    jobs: Vec<StormJob>,
    next: usize,
    go: SimTime,
}

impl StormShell {
    /// A shell owing `jobs`, which must be in `after_us` order.
    pub fn new(jobs: Vec<StormJob>) -> Self {
        StormShell {
            jobs,
            next: 0,
            go: SimTime::ZERO,
        }
    }

    /// Forks every job that is due, then sleeps until the next one or,
    /// when none is left, exits.
    fn fork_due(&mut self, sys: &mut dyn Sys) {
        let since_go = sys.now().saturating_since(self.go).as_micros();
        while let Some(job) = self.jobs.get(self.next) {
            if job.after_us > since_go {
                sys.set_timer(SimDuration::from_micros(job.after_us - since_go), 0);
                return;
            }
            let life = SimDuration::from_micros(job.lifetime_us);
            let child = Worker::new(life, SimDuration::ZERO);
            let _ = sys.spawn(SpawnSpec::new(Storm::command(job.command), Box::new(child)));
            self.next += 1;
        }
        sys.exit(0);
    }
}

impl Program for StormShell {
    fn on_signal(&mut self, sys: &mut dyn Sys, signal: Signal) -> SigAction {
        if signal != Signal::Usr1 {
            return SigAction::Default;
        }
        self.go = sys.now();
        self.fork_due(sys);
        SigAction::Handled
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        self.fork_due(sys);
    }

    fn name(&self) -> &str {
        STORM_SHELL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The workload programs themselves (DutyCycle, Worker, TreeSpawner,
    // EchoServer/Chatter) need a world to run in; their behavioural tests
    // live in `ppm-simos/tests/workload.rs`, and a StormShell's in
    // `ppm-harness`, where there is an LPM to adopt it. Only the pure,
    // world-free Storm decision stream is tested here.

    #[test]
    fn storm_is_replayable_and_zipf_skewed() {
        let spec = StormSpec::new(200, 16, 0xCAB);
        let mut a = Storm::new(spec);
        let mut b = Storm::new(spec);
        let mut per_user = vec![0u32; 200];
        let mut hosts_hit = std::collections::BTreeSet::new();
        let mut remote = 0u32;
        for _ in 0..20_000 {
            let f = a.next_fork();
            assert_eq!(f, b.next_fork(), "streams stay in lockstep");
            per_user[f.user as usize] += 1;
            hosts_hit.insert(f.host);
            assert_eq!(f.home, (f.user % 16) as u16);
            if f.host != f.home {
                remote += 1;
            }
            let m = spec.mean_lifetime_us;
            assert!((m / 2..m / 2 + m).contains(&f.lifetime_us));
            assert!(f.next_us >= spec.mean_interarrival_us / 2);
        }
        // Zipf: the head user dominates the tail decile.
        assert!(
            per_user[0] > 10 * per_user[150].max(1),
            "rank 0 saw {} forks, rank 150 saw {}",
            per_user[0],
            per_user[150]
        );
        assert!(per_user.iter().filter(|&&c| c > 0).count() > 100);
        assert_eq!(hosts_hit.len(), 16, "every host takes forks");
        // Remote fraction lands near the configured 12.5%.
        assert!((1_500..3_500).contains(&remote), "remote={remote}");
    }

    #[test]
    fn a_deal_hands_out_every_fork_once_in_time_order() {
        let deal = StormDeal::new(StormSpec::new(9, 3, 0xCAB), 500);
        let per_user = |u: u32| {
            let remote = deal.remote.iter().filter(|(user, ..)| *user == u).count();
            (deal.local[u as usize].len() + remote) as u64
        };
        assert_eq!((0..9).map(per_user).sum::<u64>(), 500);
        assert_eq!((0..9).map(per_user).max(), Some(deal.busiest));
        let active: Vec<u32> = (0..9).filter(|&u| per_user(u) > 0).collect();
        assert_eq!(deal.active, active);
        let remote = deal.remote.iter().map(|(_, _, job)| *job);
        for jobs in deal.local.iter().cloned().chain([remote.collect()]) {
            assert!(jobs.windows(2).all(|w| w[0].after_us < w[1].after_us));
            assert!(jobs
                .iter()
                .all(|j| j.after_us + j.lifetime_us <= deal.end_us));
        }
        // All of the storm while the busiest user fits, a proportional
        // part of it after.
        assert_eq!(deal.stretch_us(deal.busiest), deal.end_us);
        assert_eq!(deal.stretch_us(4 * deal.busiest), deal.end_us);
        assert_eq!(
            deal.stretch_us(deal.busiest / 2) / 1_000,
            deal.end_us / 2_000
        );
    }

    #[test]
    fn storm_command_table_cycles() {
        assert_eq!(Storm::command(0), "cc");
        assert_eq!(Storm::command(10), "cc");
        let spec = StormSpec::new(1, 1, 3);
        let f = Storm::new(spec).next_fork();
        assert_eq!(f.user, 0);
        assert_eq!(f.host, 0);
    }
}
