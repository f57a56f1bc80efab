//! The four checked protocol scenarios.
//!
//! Each scenario stages a small world **deterministically** up to the
//! interesting frontier (requests in flight, a retransmit duplicated, a
//! manager killed), then hands the explorer a compact set of enabled
//! moves to interleave exhaustively. Staging uses the same move
//! machinery as exploration, so a scenario build is itself a replayable
//! schedule prefix.
//!
//! * `exactly-once` — a control operation retransmitted across its
//!   origin LPM's crash must not execute twice (the dedup-purge /
//!   incarnation-fence bug).
//! * `bcast-dedup` — a broadcast wave duplicated on the wire and
//!   re-relayed through the sibling graph runs each host's slice once.
//! * `election` — after a partition cuts the CCS away and the links
//!   heal, all live LPMs converge on one (CCS, epoch).
//! * `no-orphans` — killing an LPM that tracks a remotely-requested
//!   process leaves no orphan forest roots once its successor rebuilds.
//! * `stale-route` — a cached next-hop whose link was cut after the
//!   route was learned must never be used for a directed request (the
//!   `conn_alive`-at-send-time bug).

use std::sync::Arc;

use ppm_core::{
    Pmd, PmdOptions, PpmConfig, Tool, ToolStep, UserCred, UserDirectory, UserEntry, PMD_PORT,
    PMD_SERVICE,
};
use ppm_proto::types::Gpid;
use ppm_proto::{ControlAction, Msg, Op};
use ppm_runtime::signal::Signal;
use ppm_runtime::time::SimDuration;
use ppm_runtime::{Pid, Uid};

use crate::explore::{apply_matching, Budget, Scenario};
use crate::world::{Adversary, McWorld};

const UID: Uid = Uid(100);
const SECRET: u64 = 0x5eed;
/// Steps allowed for a staging drain; generous because drains are cheap
/// forced chains.
const DRAIN: usize = 20_000;

fn users(recovery: &[&str]) -> UserDirectory {
    let mut dir = UserDirectory::new();
    dir.insert(UserEntry {
        cred: UserCred::new(UID, SECRET),
        recovery: recovery.iter().map(|h| (*h).to_string()).collect(),
        config: PpmConfig::fast_recovery(),
    });
    dir
}

fn cred() -> UserCred {
    UserCred::new(UID, SECRET)
}

fn world(hosts: &[&str], recovery: &[&str], respawn: bool) -> McWorld {
    let mut w = McWorld::new(hosts, SimDuration::from_secs(20));
    let users = users(recovery).into_shared();
    let options = PmdOptions {
        stable_storage: true,
        respawn_lpms: respawn,
    };
    w.register_service(
        PMD_SERVICE,
        PMD_PORT,
        Box::new(move |_host| Box::new(Pmd::new(Arc::clone(&users), PMD_PORT, options))),
    );
    w
}

/// All scenarios by CLI/CI suite name.
pub fn by_name(name: &str) -> Option<Scenario> {
    match name {
        "exactly-once" => Some(exactly_once()),
        "bcast-dedup" => Some(bcast_dedup()),
        "election" => Some(election()),
        "no-orphans" => Some(no_orphans()),
        "stale-route" => Some(stale_route()),
        _ => None,
    }
}

/// The suite names, in documentation order.
pub const SUITES: [&str; 5] = [
    "exactly-once",
    "bcast-dedup",
    "election",
    "no-orphans",
    "stale-route",
];

/// A control operation must execute at most once even when its frame is
/// duplicated (retry) and the origin LPM crashes and is respawned while
/// the duplicate is still in flight.
///
/// Staged frontier: the job's `Stop` already executed once at `b`, the
/// wire duplicate still queues on the dead origin's connection, and the
/// respawned origin's `ForestPull` — whose handling purges the dedup
/// window — races it.
pub fn exactly_once() -> Scenario {
    let build = || {
        let mut w = world(&["a", "b"], &["b", "a"], true);
        // A surviving user process on `a` so the respawned LPM has
        // something to readopt — that is what makes it rebuild and pull.
        w.spawn_inert(0, UID, "coord");
        let job = w.spawn_inert(1, UID, "job");
        let (tool, _outcome) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new(
                "b",
                Op::Control {
                    pid: job.0,
                    action: ControlAction::Stop,
                },
            )],
        );
        w.spawn_program(0, UID, "tool", Box::new(tool));
        // Bring the stack up until the relayed control request is in
        // flight toward `b` (the tool's own request to its local LPM
        // flows freely), holding that frame on the wire.
        let relay = "msg req -> lpm-100@b";
        let reached = w.run_until(
            DRAIN,
            |w, m| w.describe(m).contains(relay),
            |w| {
                w.enabled_moves()
                    .iter()
                    .any(|m| w.describe(m).contains(relay))
            },
        );
        assert!(reached, "staging: control request never queued");
        // The retransmit: duplicate the queued request frame.
        assert!(w.stage_dup_head(Some(1), |m| matches!(m, Msg::Req { .. })));
        // First copy delivers and executes.
        assert!(apply_matching(&mut w, relay));
        let job_stopped = |w: &McWorld| {
            w.signal_count(1, Pid(w.find_proc(1, "job").unwrap_or(0)), Signal::Stop) >= 1
        };
        let reached = w.run_until(DRAIN, |w, m| w.describe(m).contains(relay), job_stopped);
        assert!(reached, "staging: first control never executed");
        // Crash the origin LPM; pmd respawns it; run the recovery
        // forward until the successor's forest pull is on the wire.
        assert!(w.stage_kill(0, "lpm-100"));
        let reached = w.run_until(
            DRAIN,
            |w, m| {
                let d = w.describe(m);
                d.contains(relay) || d.contains("msg forestpull")
            },
            |w| {
                w.enabled_moves()
                    .iter()
                    .any(|m| w.describe(m).contains("msg forestpull"))
            },
        );
        assert!(reached, "staging: respawned LPM never pulled the forest");
        // The race under test is all in flight; a short remaining window
        // keeps periodic housekeeping from inflating the suffix.
        w.set_horizon(SimDuration::from_secs(5));
        w
    };
    let stopped_twice = |w: &McWorld| {
        let job = w.find_proc(1, "job").unwrap_or(0);
        let n = w.signal_count(1, Pid(job), Signal::Stop);
        (n > 1).then(|| format!("control executed {n} times on job@b (exactly-once broken)"))
    };
    Scenario {
        name: "exactly-once",
        default_budget: Budget {
            max_depth: 30,
            max_states: 20_000,
        },
        build: Box::new(build),
        check_step: Box::new(stopped_twice),
        check_quiescent: Box::new(stopped_twice),
    }
}

/// A broadcast wave duplicated on the wire — on top of the sibling
/// graph's natural relay duplication — must run each host's local slice
/// at most once.
pub fn bcast_dedup() -> Scenario {
    let build = || {
        let mut w = world(&["a", "b", "c"], &["a", "b", "c"], true);
        // Pings to raise the full sibling triangle (a-b, a-c, b-c), so
        // the wave reaches `c` via both `a` and `b`.
        let (t1, t1_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("b", Op::Ping), ToolStep::new("c", Op::Ping)],
        );
        w.spawn_program(0, UID, "tool", Box::new(t1));
        let (t2, t2_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("c", Op::Ping)],
        );
        w.spawn_program(1, UID, "tool", Box::new(t2));
        let reached = w.run_until(
            DRAIN,
            |_, _| false,
            |_| t1_out.lock().unwrap().done && t2_out.lock().unwrap().done,
        );
        assert!(reached, "staging: setup pings never completed");
        w.snapshot_exec_baseline();
        // The broadcast under test.
        let (t3, _out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("*", Op::Ping)],
        );
        w.spawn_program(0, UID, "tool", Box::new(t3));
        let reached = w.run_until(
            DRAIN,
            |w, m| w.describe(m).contains("msg bcast"),
            |w| {
                w.enabled_moves()
                    .iter()
                    .any(|m| w.describe(m).contains("msg bcast"))
            },
        );
        assert!(reached, "staging: wave never queued");
        // Wire-duplicate the first wave frame.
        assert!(w.stage_dup_head(None, |m| matches!(m, Msg::Bcast { .. })));
        w.set_horizon(SimDuration::from_secs(5));
        w
    };
    let over_executed = |w: &McWorld| {
        let d = w.max_exec_delta();
        (d > 1).then(|| format!("some LPM ran {d} local slices for one wave (dedup broken)"))
    };
    Scenario {
        name: "bcast-dedup",
        default_budget: Budget {
            max_depth: 30,
            max_states: 60_000,
        },
        build: Box::new(build),
        check_step: Box::new(over_executed),
        check_quiescent: Box::new(over_executed),
    }
}

/// Cut the CCS host away, let the survivors elect, then heal: every
/// schedule must end with all live LPMs agreeing on one (CCS, epoch).
pub fn election() -> Scenario {
    let build = || {
        let mut w = world(&["a", "b", "c"], &["a", "b", "c"], true);
        let (t1, t1_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("b", Op::Ping), ToolStep::new("c", Op::Ping)],
        );
        w.spawn_program(0, UID, "tool", Box::new(t1));
        let (t2, t2_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("c", Op::Ping)],
        );
        w.spawn_program(1, UID, "tool", Box::new(t2));
        let reached = w.run_until(
            DRAIN,
            |_, _| false,
            |_| t1_out.lock().unwrap().done && t2_out.lock().unwrap().done,
        );
        assert!(reached, "staging: setup pings never completed");
        // Partition the CCS (`a`, highest priority) away and let the
        // survivors elect deterministically.
        w.stage_cut(0, 1);
        w.stage_cut(0, 2);
        let elected = |w: &McWorld| {
            let lpms = w.lpms();
            let survivors: Vec<_> = lpms.iter().filter(|(k, _)| k.0 != 0).collect();
            survivors.len() == 2 && survivors.iter().all(|(_, l)| l.ccs_view().0 == "b")
        };
        let reached = w.run_until(DRAIN, |_, _| false, elected);
        assert!(reached, "staging: survivors never elected b");
        // The explorer chooses when each link heals. Convergence is
        // only demanded of schedules that leave at least two probe
        // cycles after the last heal — later heals end the schedule
        // with the repair legitimately still in progress.
        w.add_adversary(Adversary::HealLink { a: 0, b: 1 }, 1);
        w.add_adversary(Adversary::HealLink { a: 0, b: 2 }, 1);
        w.set_horizon(SimDuration::from_secs(6));
        w.set_convergence_margin(SimDuration::from_secs(3));
        w
    };
    let diverged = |w: &McWorld| {
        if !w.converge_expected() {
            return None;
        }
        let views: Vec<(String, u64)> = w
            .lpms()
            .iter()
            .map(|(_, l)| {
                let (ccs, epoch) = l.ccs_view();
                (ccs.to_string(), epoch)
            })
            .collect();
        if views.len() < 2 {
            return Some(format!("only {} LPM(s) alive at quiescence", views.len()));
        }
        views
            .windows(2)
            .any(|p| p[0] != p[1])
            .then(|| format!("CCS views diverged at quiescence: {views:?}"))
    };
    Scenario {
        name: "election",
        default_budget: Budget {
            max_depth: 45,
            max_states: 200_000,
        },
        build: Box::new(build),
        check_step: Box::new(|_| None),
        check_quiescent: Box::new(diverged),
    }
}

/// Kill an LPM that tracks a process spawned on another user's behalf
/// from a remote coordinator: after its successor rebuilds, no forest
/// entry may remain an orphan root and rebuilding must have finished.
pub fn no_orphans() -> Scenario {
    let build = || {
        let mut w = world(&["a", "b"], &["a", "b"], true);
        let coord = w.spawn_inert(0, UID, "coord");
        let (tool, out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new(
                "b",
                Op::Spawn {
                    command: "worker".to_string(),
                    logical_parent: Some(Gpid::new("a", coord.0)),
                    lifetime_us: None,
                    work_us: 0,
                    cpu_bound: false,
                },
            )],
        );
        w.spawn_program(0, UID, "tool", Box::new(tool));
        let reached = w.run_until(DRAIN, |_, _| false, |_| out.lock().unwrap().done);
        assert!(reached, "staging: remote spawn never completed");
        // The explorer chooses when the tracking LPM dies relative to
        // everything else in flight.
        w.add_adversary(
            Adversary::KillProc {
                host: 1,
                command: "lpm-100".to_string(),
            },
            1,
        );
        w.set_horizon(SimDuration::from_secs(10));
        w.set_convergence_margin(SimDuration::from_secs(5));
        w
    };
    let orphaned = |w: &McWorld| {
        if !w.converge_expected() {
            return None;
        }
        for (k, l) in w.lpms() {
            let roots = l.orphan_root_count();
            if roots > 0 {
                return Some(format!(
                    "LPM on {} holds {roots} orphan forest root(s) at quiescence",
                    w.host_name(k.0)
                ));
            }
            if l.is_rebuilding() {
                return Some(format!(
                    "LPM on {} still rebuilding at quiescence",
                    w.host_name(k.0)
                ));
            }
        }
        // The worker must still be alive and adopted by the successor.
        match w.find_proc(1, "worker") {
            None => Some("worker vanished".to_string()),
            Some(_) => None,
        }
    };
    Scenario {
        name: "no-orphans",
        default_budget: Budget {
            max_depth: 30,
            max_states: 60_000,
        },
        build: Box::new(build),
        check_step: Box::new(|_| None),
        check_quiescent: Box::new(orphaned),
    }
}

/// A route learned through an intermediary whose link is later cut must
/// not be used: `evict_via` only fires when the closed notification
/// arrives, which lags the cut, so the send path has to validate the
/// cached hop against link liveness (`Sys::conn_alive`) itself.
///
/// Staged frontier: `a` knows `c` only via `b` (a broadcast over the
/// chain a–b–c taught the route), the a–b link is cut with the closed
/// notice still undelivered, and a directed control op for `c` starts at
/// `a`. Using the cached hop blackholes a retry cycle; the fixed path
/// evicts and dials `c` directly.
pub fn stale_route() -> Scenario {
    let build = || {
        let mut w = world(&["a", "b", "c"], &["a", "b", "c"], true);
        let job = w.spawn_inert(2, UID, "job");
        // Sibling edges a-b and b-c only: the broadcast wave relays
        // through b, and its gathered parts teach `a` that `c` is
        // reachable via `b`.
        let (t1, t1_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("b", Op::Ping)],
        );
        w.spawn_program(0, UID, "tool", Box::new(t1));
        let (t2, t2_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("c", Op::Ping)],
        );
        w.spawn_program(1, UID, "tool", Box::new(t2));
        let reached = w.run_until(
            DRAIN,
            |_, _| false,
            |_| t1_out.lock().unwrap().done && t2_out.lock().unwrap().done,
        );
        assert!(reached, "staging: chain setup pings never completed");
        let (t3, t3_out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new("*", Op::Ping)],
        );
        w.spawn_program(0, UID, "tool", Box::new(t3));
        let reached = w.run_until(DRAIN, |_, _| false, |_| t3_out.lock().unwrap().done);
        assert!(reached, "staging: route-teaching broadcast never completed");
        // Cut the learned hop. The sibling conn a-b stays up from the
        // LPMs' point of view until a send fails or the closed notice
        // lands — exactly the stale window under test.
        w.stage_cut(0, 1);
        let (t4, _out) = Tool::new(
            cred(),
            PpmConfig::fast_recovery(),
            vec![ToolStep::new(
                "c",
                Op::Control {
                    pid: job.0,
                    action: ControlAction::Stop,
                },
            )],
        );
        w.spawn_program(0, UID, "tool", Box::new(t4));
        w.set_horizon(SimDuration::from_secs(8));
        w.set_convergence_margin(SimDuration::from_secs(4));
        w
    };
    // Any route-cache hit at `a` after staging means the dead cached hop
    // was chosen; the double-Stop check rides along for free.
    let used_stale = |w: &McWorld| {
        for (k, l) in w.lpms() {
            if k.0 == 0 && l.stats().route_cache_hits > 0 {
                return Some(
                    "directed request forwarded into the cut a-b hop (stale route used)"
                        .to_string(),
                );
            }
        }
        let job = w.find_proc(2, "job").unwrap_or(0);
        let n = w.signal_count(2, Pid(job), Signal::Stop);
        (n > 1).then(|| format!("control executed {n} times on job@c"))
    };
    let undelivered = move |w: &McWorld| {
        if let Some(why) = used_stale(w) {
            return Some(why);
        }
        if !w.converge_expected() {
            return None;
        }
        let job = w.find_proc(2, "job").unwrap_or(0);
        if w.signal_count(2, Pid(job), Signal::Stop) == 0 {
            return Some("control op never reached job@c despite a live a-c path".to_string());
        }
        None
    };
    Scenario {
        name: "stale-route",
        default_budget: Budget {
            max_depth: 20,
            max_states: 20_000,
        },
        build: Box::new(build),
        check_step: Box::new(used_stale),
        check_quiescent: Box::new(undelivered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, replay_trace};

    /// A tool on `a` pings `b`: the inetd → pmd → LPM chain comes up on
    /// both hosts and one request crosses the wire.
    fn ping() -> Scenario {
        let build = || {
            let mut w = world(&["a", "b"], &["a", "b"], false);
            let script = vec![ToolStep::new("b", Op::Ping)];
            let (tool, _outcome) = Tool::new(cred(), PpmConfig::fast_recovery(), script);
            w.spawn_program(0, UID, "tool", Box::new(tool));
            w
        };
        Scenario {
            name: "ping",
            default_budget: Budget::smoke(),
            build: Box::new(build),
            check_step: Box::new(|_| None),
            check_quiescent: Box::new(|_| None),
        }
    }

    #[test]
    fn a_replayed_schedule_shows_the_lpms_notes_under_its_moves() {
        let s = ping();
        // First enabled move each time, to quiescence.
        let picks = vec![0; 300];
        // What `explore` replays keeps the hub off: nothing is recorded.
        assert!(replay(&s, &picks).hub().trace.is_empty());

        let trace = replay_trace(&s, &picks);
        let mut lpm_notes = 0;
        for step in &trace {
            let mut lines = step.lines();
            let moved = lines.next().expect("the move's description");
            assert!(!moved.starts_with(' '), "{step}");
            for note in lines {
                assert!(note.starts_with("      ["), "a hub-rendered line: {step}");
                lpm_notes += usize::from(note.contains(" lpm] "));
            }
        }
        assert!(lpm_notes > 0, "no LPM note under any move:\n{trace:#?}");
    }
}
