//! Synthetic user workloads.
//!
//! The paper measures the PPM against real user activity on the Berkeley
//! machines. These programs generate the equivalent synthetic activity:
//! CPU-bound spinners to pin the load average into Table 1's buckets,
//! process trees for genealogy snapshots, and chattering client/server
//! pairs for the IPC-tracing tool.
//!
//! [`Storm`] scales the same idea up six orders of magnitude: a seeded,
//! replayable fork/exec/exit storm across thousands of users whose
//! activity follows a Zipf law — the multi-tenant workload the scale
//! scenario (`ppm-sim --users`) and the `ppm-sweep` storm axis replay.

use bytes::Bytes;

use crate::ids::HostId;
use crate::time::SimDuration;

use crate::ids::{ConnId, Port};
use crate::program::{ConnEvent, Program, SpawnSpec};
use crate::sys::Sys;

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
/// scale runs replayable end to end. The driver (one discrete-event
/// engine over per-user shards) owns all timing; the storm only decides
/// *who* forks *what*, *where*, and for *how long*.
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

    /// The spec this storm replays.
    pub fn spec(&self) -> &StormSpec {
        &self.spec
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

#[cfg(test)]
mod tests {
    use super::*;

    // The workload programs themselves (DutyCycle, Worker, TreeSpawner,
    // EchoServer/Chatter) need a world to run in; their behavioural tests
    // live in `ppm-simos/tests/workload.rs`. Only the pure, world-free
    // Storm decision stream is tested here.

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
    fn storm_command_table_cycles() {
        assert_eq!(Storm::command(0), "cc");
        assert_eq!(Storm::command(10), "cc");
        let spec = StormSpec::new(1, 1, 3);
        let f = Storm::new(spec).next_fork();
        assert_eq!(f.user, 0);
        assert_eq!(f.host, 0);
    }
}
