//! PPM tunables: [`PpmConfig`] holds the settings some caller, scenario
//! option or benchmark workload varies; a value every caller left at its
//! default is a `const` here, so the number of configurations to test is
//! the number somebody uses.

use ppm_runtime::events::TraceFlags;
use ppm_runtime::time::SimDuration;

/// Idle handlers are reaped after this long.
pub const HANDLER_IDLE_TTL: SimDuration = SimDuration::from_secs(20);
/// Maximum resident handlers per LPM.
pub const HANDLER_MAX: usize = 16;
/// Total send attempts per directed request at its origin (1 = no retry);
/// retries reuse the same correlation id so receivers can deduplicate.
pub const REQ_ATTEMPTS: u8 = 3;
/// How much each relay hop shaves off the propagated deadline, accounting
/// for the return path the reply still has to travel.
pub const DEADLINE_DECAY: SimDuration = SimDuration::from_millis(20);
/// Refused connections one Figure-2 dial rides out before reporting
/// failure, [`PpmConfig::connect_retry`] apart.
pub const CONNECT_ATTEMPTS: u32 = 30;
/// History ring capacity.
pub const HISTORY_CAP: usize = 4096;
/// Exited-process statistics retention.
pub const RUSAGE_CAP: usize = 1024;
/// Tracing granularity applied when adopting.
pub const DEFAULT_TRACE_FLAGS: TraceFlags = TraceFlags::ALL;

/// The settings of LPM behaviour. CPU costs are nominal values for an
/// idle VAX 11/780 and are scaled by host class and load at run time.
///
/// The cost constants are calibrated so the regenerated Table 2 lands on
/// the paper's numbers (77 ms within-host create; 30 / 199 / 210 ms
/// stop-or-kill at 0 / 1 / 2 hops) — see `ppm-bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct PpmConfig {
    /// Dispatcher cost to pick up and classify one incoming request.
    pub dispatch_cost: SimDuration,
    /// Cost of a local process-control action (beyond the kill syscall).
    pub control_cost: SimDuration,
    /// Cost to gather the local snapshot slice (base).
    pub snapshot_base_cost: SimDuration,
    /// Additional snapshot cost per reported process.
    pub snapshot_per_proc_cost: SimDuration,
    /// Bookkeeping cost of creating a process on behalf of a request.
    pub spawn_bookkeeping_cost: SimDuration,
    /// Cost of other local operations (history, rusage, files, triggers).
    pub misc_op_cost: SimDuration,
    /// Cost to merge one broadcast part at the originator.
    pub merge_cost: SimDuration,
    /// Forking a fresh handler process (dispatcher → handler hand-off).
    pub handler_fork_cost: SimDuration,
    /// Handing a request to an already-idle handler.
    pub handler_reuse_cost: SimDuration,
    /// Reuse idle handlers instead of forking per request (the paper's
    /// optimization; disabled only for ablation).
    pub handler_reuse: bool,

    /// LPM lingers this long after its last managed process and tool
    /// disappear ("LPMs have a time-to-live period").
    pub lpm_ttl: SimDuration,
    /// An orphaned LPM (no CCS contact) kills the user's local processes
    /// and exits after this long ("a time-to-die interval exists").
    pub time_to_die: SimDuration,
    /// Low-frequency probe interval toward higher-priority recovery hosts.
    pub probe_interval: SimDuration,
    /// Delay between reconnection attempts during recovery.
    pub reconnect_interval: SimDuration,

    /// Retention window for seen broadcast stamps ("the appropriate time
    /// window for retaining old broadcast requests is a configuration
    /// parameter").
    pub bcast_window: SimDuration,
    /// Give up waiting for broadcast completion after this long.
    pub bcast_timeout: SimDuration,
    /// Relay budget for directed requests.
    pub max_hops: u8,
    /// Give up on one attempt of a directed request after this long.
    pub req_timeout: SimDuration,
    /// Backoff before the first retry; doubles per attempt.
    pub req_backoff: SimDuration,
    /// Ceiling on the doubling retry backoff. Without it a
    /// long-partitioned origin's backoff doubles without bound and the
    /// request ends up armed hours into simulated time.
    pub req_backoff_max: SimDuration,
    /// End-to-end deadline stamped on origin requests; relays refuse
    /// requests whose propagated deadline has passed.
    pub req_deadline: SimDuration,

    /// Retry interval while connecting to a booting daemon/LPM.
    pub connect_retry: SimDuration,

    /// Housekeeping timer period (TTL checks, window GC, handler reaping).
    pub housekeeping_interval: SimDuration,

    /// How long exited processes stay visible in snapshots after their
    /// whole local subtree has died.
    pub dead_retention: SimDuration,
    /// Learn routes from broadcast replies ("allows quick routing of
    /// messages affecting processes in topologically distant hosts").
    pub route_learning: bool,
    /// Splice broadcast replies in-network: a relay coalesces the parts
    /// from its subtree into one aggregate frame before forwarding
    /// upstream (the paper's reply-combining). When off, the relay
    /// forwards each collected part as its own frame — leaf-direct-style
    /// upstream traffic, the baseline of the congestion exhibit.
    pub reply_splicing: bool,
    /// How the CCS is located during recovery.
    pub recovery_policy: RecoveryPolicy,
}

impl Default for PpmConfig {
    fn default() -> Self {
        PpmConfig {
            dispatch_cost: SimDuration::from_micros(3_200),
            control_cost: SimDuration::from_micros(24_700),
            snapshot_base_cost: SimDuration::from_micros(11_000),
            snapshot_per_proc_cost: SimDuration::from_micros(800),
            spawn_bookkeeping_cost: SimDuration::from_micros(23_700),
            misc_op_cost: SimDuration::from_micros(8_000),
            merge_cost: SimDuration::from_micros(21_000),
            handler_fork_cost: SimDuration::from_micros(77_500),
            handler_reuse_cost: SimDuration::from_micros(3_500),
            handler_reuse: true,

            lpm_ttl: SimDuration::from_secs(300),
            time_to_die: SimDuration::from_secs(600),
            probe_interval: SimDuration::from_secs(10),
            reconnect_interval: SimDuration::from_secs(2),

            bcast_window: SimDuration::from_secs(60),
            bcast_timeout: SimDuration::from_secs(10),
            max_hops: 8,
            req_timeout: SimDuration::from_secs(10),
            req_backoff: SimDuration::from_millis(250),
            req_backoff_max: SimDuration::from_secs(10),
            req_deadline: SimDuration::from_secs(45),

            connect_retry: SimDuration::from_micros(20_000),

            housekeeping_interval: SimDuration::from_secs(1),

            dead_retention: SimDuration::from_secs(600),
            route_learning: true,
            reply_splicing: true,
            recovery_policy: RecoveryPolicy::RecoveryFile,
        }
    }
}

impl PpmConfig {
    /// A configuration with short recovery timers, for failure tests that
    /// should converge in simulated seconds rather than minutes.
    pub fn fast_recovery() -> Self {
        PpmConfig {
            lpm_ttl: SimDuration::from_secs(30),
            time_to_die: SimDuration::from_secs(20),
            probe_interval: SimDuration::from_secs(2),
            reconnect_interval: SimDuration::from_millis(500),
            req_timeout: SimDuration::from_secs(3),
            req_backoff: SimDuration::from_millis(100),
            req_backoff_max: SimDuration::from_secs(2),
            req_deadline: SimDuration::from_secs(10),
            bcast_timeout: SimDuration::from_secs(3),
            ..Default::default()
        }
    }
}

/// How LPMs locate their crash coordinator site.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Walk the user's `.recovery` host list (the paper's implementation).
    #[default]
    RecoveryFile,
    /// Query the pmd of a designated name-server host — Section 5's
    /// alternative: "LPMs would query the name server for a CCS. The
    /// mechanism based on .recovery files would not be needed."
    NameServer {
        /// The administrator-designated name-server host.
        host: String,
    },
}

/// Well-known port of the process manager daemon.
pub const PMD_PORT: ppm_runtime::ids::Port = ppm_runtime::ids::Port(3);

/// Service name under which pmd is registered with inetd.
pub const PMD_SERVICE: &str = "pmd";

/// Base of the per-user LPM accept-port range: an LPM for uid `u` accepts
/// on `LPM_PORT_BASE + u`.
pub const LPM_PORT_BASE: u16 = 1000;

/// The accept port of a user's LPM on any host.
pub fn lpm_port(uid: ppm_runtime::ids::Uid) -> ppm_runtime::ids::Port {
    ppm_runtime::ids::Port(LPM_PORT_BASE.wrapping_add(uid.0 as u16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_runtime::ids::Uid;

    #[test]
    fn default_costs_are_ordered_sensibly() {
        let c = PpmConfig::default();
        assert!(c.handler_fork_cost > c.handler_reuse_cost);
        assert!(c.dispatch_cost < c.control_cost);
        assert!(c.time_to_die > c.probe_interval);
    }

    #[test]
    fn fast_recovery_shrinks_timers_only() {
        let fast = PpmConfig::fast_recovery();
        let slow = PpmConfig::default();
        assert!(fast.time_to_die < slow.time_to_die);
        assert_eq!(fast.handler_fork_cost, slow.handler_fork_cost);
    }

    #[test]
    fn retry_budget_fits_inside_the_deadline() {
        for c in [PpmConfig::default(), PpmConfig::fast_recovery()] {
            const { assert!(REQ_ATTEMPTS >= 1) };
            // Worst case: every attempt times out, plus the doubling
            // backoffs between them, must fit under the deadline so the
            // final verdict is Timeout, not a premature DeadlineExceeded.
            let retries = u64::from(REQ_ATTEMPTS) - 1;
            let attempts_us = u64::from(REQ_ATTEMPTS) * c.req_timeout.as_micros();
            let backoff_us: u64 = (0..retries)
                .map(|i| (c.req_backoff.as_micros() << i).min(c.req_backoff_max.as_micros()))
                .sum();
            assert!(attempts_us + backoff_us <= c.req_deadline.as_micros());
            assert!(DEADLINE_DECAY < c.req_timeout);
            assert!(c.req_backoff_max >= c.req_backoff);
        }
    }

    #[test]
    fn lpm_ports_are_per_user() {
        assert_ne!(lpm_port(Uid(100)), lpm_port(Uid(101)));
        assert_eq!(lpm_port(Uid(100)).0, 1100);
    }
}
