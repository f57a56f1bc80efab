//! The five protocol suites `ppm-mc` explores.
//!
//! Each suite boots a small PPM on the sim's world through the same
//! [`PpmHarness`] every backend uses (accounts, pmd, tools), stages it
//! **deterministically** up to the interesting frontier (requests in
//! flight, a retransmit duplicated, a manager killed, a fault staged),
//! then hands the explorer the world's pending streams to interleave
//! exhaustively. Staging is the sim's own run and the same move
//! machinery as exploration, so a suite build is itself a replayable
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
//! * `stale-route` — a cached next-hop whose relay LPM died after the
//!   route was learned must never be used for a directed request (the
//!   `conn_alive`-at-send-time bug).

use ppm_core::{PmdOptions, PpmConfig, ToolHandle, ToolStep};
use ppm_harness::harness::PpmHarness;
use ppm_mc::{apply_matching, Budget, Chooser, Scenario};
use ppm_proto::types::Gpid;
use ppm_proto::{ControlAction, Msg, Op};
use ppm_runtime::signal::Signal;
use ppm_runtime::time::SimDuration;
use ppm_runtime::{CpuClass, HostId, Pid, Runtime, SpawnSpec, Uid};
use ppm_simnet::fault::FaultKind;
use ppm_simos::world::Move;
use ppm_simos::World;

const UID: Uid = Uid(100);
/// Steps allowed for a staging drain; generous because drains are cheap
/// forced chains.
const DRAIN: usize = 20_000;
/// Backend-clock budget for a staging tool.
const WAIT: SimDuration = SimDuration::from_secs(20);
/// The suites' world seed.
const SEED: u64 = 1986;
/// The suites' hosts, by their order in each suite's `boot`.
const A: HostId = HostId(0);
const B: HostId = HostId(1);
const C: HostId = HostId(2);

/// A PPM on `hosts` for one account whose `.recovery` list is `recovery`.
fn boot(hosts: &[&str], recovery: &[&str], respawn: bool) -> PpmHarness<World> {
    let options = PmdOptions {
        stable_storage: true,
        respawn_lpms: respawn,
    };
    let account = PpmHarness::builder().pmd_options(options);
    let mut ppm = account.user(UID, 0x5eed, recovery, PpmConfig::fast_recovery());
    for h in hosts {
        ppm = ppm.host(*h, CpuClass::Vax780);
    }
    ppm.build_on(World::new(SEED))
}

/// A plain UNIX process of the user's on `host` (no PPM behaviour).
fn login(ppm: &mut PpmHarness<World>, host: &str, command: &str) -> Pid {
    let spec = SpawnSpec::inert(command);
    ppm.spawn_login_process(host, UID, spec)
        .expect("host known")
}

fn launch(ppm: &mut PpmHarness<World>, host: &str, script: Vec<ToolStep>) -> ToolHandle {
    ppm.launch_tool(host, UID, script)
        .expect("account and host known")
}

fn ping(dest: &str) -> ToolStep {
    ToolStep::new(dest, Op::Ping)
}

fn stop(dest: &str, pid: Pid) -> ToolStep {
    let action = ControlAction::Stop;
    ToolStep::new(dest, Op::Control { pid: pid.0, action })
}

/// Raises sibling edges by pinging: `a` pings each of `from_a`, `b` each
/// of `from_b`, and both wait for their answers.
fn pings(ppm: &mut PpmHarness<World>, from_a: &[&str], from_b: &[&str]) {
    let tools = [("a", from_a), ("b", from_b)].map(|(host, dests)| {
        let script = dests.iter().copied().map(ping).collect();
        ppm.launch_tool(host, UID, script)
    });
    for reply in ppm.await_replies(tools.into(), WAIT) {
        reply.expect("staging: setup pings");
    }
}

/// Whether some move's description contains `pattern`.
fn queued(w: &Chooser, pattern: &str) -> bool {
    let moves = w.moves();
    moves.iter().any(|m| w.describe(m).contains(pattern))
}

/// How many signals the kernel delivered to the user's `command` on
/// `host`: a control op's `SIGSTOP`, the only signal these jobs get.
fn signalled(w: &Chooser, host: HostId, command: &str) -> u64 {
    let pid = w.world().find_proc(host, UID, command);
    w.signals_received(host, pid.unwrap_or(Pid(0)))
}

/// All suites by CLI/CI suite name.
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
        let mut ppm = boot(&["a", "b"], &["b", "a"], true);
        // A surviving user process on `a` so the respawned LPM has
        // something to readopt — that is what makes it rebuild and pull.
        login(&mut ppm, "a", "coord");
        let job = login(&mut ppm, "b", "job");
        launch(&mut ppm, "a", vec![stop("b", job)]);
        let mut w = Chooser::new(ppm.into_runtime());
        // Bring the stack up until the relayed control request is in
        // flight toward `b` (the tool's own request to its local LPM
        // flows freely), holding that frame on the wire.
        let relay = "msg req -> lpm-100@b";
        let reached = w.run_until(
            DRAIN,
            |w, m| w.describe(m).contains(relay),
            |w| queued(w, relay),
        );
        assert!(reached, "staging: control request never queued");
        // The retransmit: duplicate the queued request frame.
        assert!(w.stage_dup_head(Some(B), |m| matches!(m, Msg::Req { .. })));
        // First copy delivers and executes.
        assert!(apply_matching(&mut w, relay));
        let job_stopped = |w: &Chooser| signalled(w, B, "job") >= 1;
        let reached = w.run_until(DRAIN, |w, m| w.describe(m).contains(relay), job_stopped);
        assert!(reached, "staging: first control never executed");
        // Crash the origin LPM; pmd respawns it; run the recovery
        // forward until the successor's forest pull is on the wire.
        let lpm = w.world().find_proc(A, UID, "lpm-").expect("a's LPM");
        let kill = w.world_mut().post_signal(Uid::ROOT, (A, lpm), Signal::Kill);
        kill.expect("root may kill it");
        let reached = w.run_until(
            DRAIN,
            |w, m| {
                let d = w.describe(m);
                d.contains(relay) || d.contains("msg forestpull")
            },
            |w| queued(w, "msg forestpull"),
        );
        assert!(reached, "staging: respawned LPM never pulled the forest");
        // The race under test is all in flight; a short remaining window
        // keeps periodic housekeeping from inflating the suffix.
        w.set_horizon(SimDuration::from_secs(5));
        w
    };
    let stopped_twice = |w: &Chooser| {
        let n = signalled(w, B, "job");
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
        let mut ppm = boot(&["a", "b", "c"], &["a", "b", "c"], true);
        // Pings raise the full sibling triangle (a-b, a-c, b-c), so the
        // wave reaches `c` via both `a` and `b`.
        pings(&mut ppm, &["b", "c"], &["c"]);
        // The broadcast under test.
        launch(&mut ppm, "a", vec![ping("*")]);
        let mut w = Chooser::new(ppm.into_runtime());
        w.snapshot_exec_baseline();
        let wave = "msg bcast";
        let reached = w.run_until(
            DRAIN,
            |w, m| w.describe(m).contains(wave),
            |w| queued(w, wave),
        );
        assert!(reached, "staging: wave never queued");
        // Wire-duplicate the first wave frame.
        assert!(w.stage_dup_head(None, |m| matches!(m, Msg::Bcast { .. })));
        w.set_horizon(SimDuration::from_secs(5));
        w
    };
    let over_executed = |w: &Chooser| {
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
        let mut ppm = boot(&["a", "b", "c"], &["a", "b", "c"], true);
        pings(&mut ppm, &["b", "c"], &["c"]);
        let mut w = Chooser::new(ppm.into_runtime());
        // Partition the CCS (`a`, highest priority) away and let the
        // survivors elect deterministically.
        for b in ["b", "c"] {
            let (a, b) = ("a".to_string(), b.to_string());
            w.stage_fault(FaultKind::LinkDown { a, b });
            assert!(apply_matching(&mut w, "fault cut a-"), "the cut is a move");
        }
        let elected = |w: &Chooser| {
            let lpms = w.lpms();
            let survivors: Vec<_> = lpms.iter().filter(|(k, _)| k.0 != A).collect();
            survivors.len() == 2 && survivors.iter().all(|(_, l)| l.ccs_view().0 == "b")
        };
        let reached = w.run_until(DRAIN, |_, _| false, elected);
        assert!(reached, "staging: survivors never elected b");
        // The explorer chooses when each link heals. Convergence is
        // only demanded of schedules that leave at least two probe
        // cycles after the last heal — later heals end the schedule
        // with the repair legitimately still in progress.
        for b in ["b", "c"] {
            let (a, b) = ("a".to_string(), b.to_string());
            w.stage_fault(FaultKind::LinkUp { a, b });
        }
        w.set_horizon(SimDuration::from_secs(6));
        w.set_convergence_margin(SimDuration::from_secs(3));
        w
    };
    let diverged = |w: &Chooser| {
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
        let mut ppm = boot(&["a", "b"], &["a", "b"], true);
        let coord = login(&mut ppm, "a", "coord");
        let spawn = Op::Spawn {
            command: "worker".to_string(),
            logical_parent: Some(Gpid::new("a", coord.0)),
            lifetime_us: None,
            work_us: 0,
            cpu_bound: false,
        };
        let script = vec![ToolStep::new("b", spawn)];
        ppm.run_tool("a", UID, script, WAIT)
            .expect("staging: remote spawn");
        let mut w = Chooser::new(ppm.into_runtime());
        // The explorer chooses when the tracking LPM dies relative to
        // everything else in flight.
        let (host, command) = ("b".to_string(), "lpm-100".to_string());
        w.stage_fault(FaultKind::Kill { host, command });
        w.set_horizon(SimDuration::from_secs(10));
        w.set_convergence_margin(SimDuration::from_secs(5));
        w
    };
    let orphaned = |w: &Chooser| {
        if !w.converge_expected() {
            return None;
        }
        for (k, l) in w.lpms() {
            let roots = l.orphan_root_count();
            if roots > 0 {
                return Some(format!(
                    "LPM on {} holds {roots} orphan forest root(s) at quiescence",
                    w.world().host_name(k.0)
                ));
            }
            if l.is_rebuilding() {
                return Some(format!(
                    "LPM on {} still rebuilding at quiescence",
                    w.world().host_name(k.0)
                ));
            }
        }
        // The worker must still be alive and adopted by the successor.
        match w.world().find_proc(B, UID, "worker") {
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

/// A route learned through an intermediary that later dies must not be
/// used: `evict_via` only fires when the closed notification arrives,
/// which lags the death, so the send path has to validate the cached hop
/// against the connection's liveness (`Sys::conn_alive`) itself. (A cut
/// link bumps the world's reachability epoch, and the LPM evicts its
/// cached routes on that before it looks at a hop; a dead relay leaves
/// the epoch as it was.)
///
/// Staged frontier: `a` knows `c` only via `b` (a broadcast over the
/// chain a–b–c taught the route), `b`'s LPM is dead with the closed
/// notice toward `a` still undelivered, and a directed control op for
/// `c` starts at `a`. Using the cached hop sends into a closed
/// connection; the fixed path evicts and dials `c` directly.
pub fn stale_route() -> Scenario {
    let build = || {
        let mut ppm = boot(&["a", "b", "c"], &["a", "b", "c"], false);
        let job = login(&mut ppm, "c", "job");
        // Sibling edges a-b and b-c only: the broadcast wave relays
        // through b, and its gathered parts teach `a` that `c` is
        // reachable via `b`.
        pings(&mut ppm, &["b"], &["c"]);
        ppm.run_tool("a", UID, vec![ping("*")], WAIT)
            .expect("staging: route-teaching broadcast");
        launch(&mut ppm, "a", vec![stop("c", job)]);
        let mut w = Chooser::new(ppm.into_runtime());
        // Kill the learned hop. The sibling conn a-b stays up from the
        // LPMs' point of view until the closed notice lands — exactly the
        // stale window under test.
        let (host, command) = ("b".to_string(), "lpm-100".to_string());
        w.stage_fault(FaultKind::Kill { host, command });
        assert!(apply_matching(&mut w, "fault kill lpm-100@b"));
        assert!(apply_matching(&mut w, "signal SIGKILL -> lpm-100@b"));
        // Run the tool's request through `a`'s routing with the notice
        // held back, until `a` has chosen a hop: it dials `c` (or, with
        // the send-time check gone, forwards into the dead hop).
        let notice = "deliver closed -> lpm-100@a";
        let held = |w: &Chooser, m: &Move<'_>| w.describe(m).contains(notice);
        let routed = |w: &Chooser| {
            let lpms = w.lpms();
            let cached = lpms
                .iter()
                .any(|(k, l)| k.0 == A && l.stats().route_cache_hits > 0);
            cached || queued(w, "deliver established -> lpm-100@a")
        };
        assert!(
            w.run_until(DRAIN, held, routed),
            "staging: the request never routed"
        );
        w.set_horizon(SimDuration::from_secs(8));
        w.set_convergence_margin(SimDuration::from_secs(4));
        w
    };
    // Any route-cache hit at `a` after staging means the dead cached hop
    // was chosen; the double-Stop check rides along for free.
    let used_stale = |w: &Chooser| {
        for (k, l) in w.lpms() {
            if k.0 == A && l.stats().route_cache_hits > 0 {
                return Some(
                    "directed request forwarded into the dead a-b hop (stale route used)"
                        .to_string(),
                );
            }
        }
        let n = signalled(w, C, "job");
        (n > 1).then(|| format!("control executed {n} times on job@c"))
    };
    let undelivered = move |w: &Chooser| {
        if let Some(why) = used_stale(w) {
            return Some(why);
        }
        if !w.converge_expected() {
            return None;
        }
        if signalled(w, C, "job") == 0 {
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
    use ppm_mc::{replay, replay_trace};

    /// A tool on `a` pings `b`: the inetd → pmd → LPM chain comes up on
    /// both hosts and one request crosses the wire.
    fn ping_suite() -> Scenario {
        let build = || {
            let mut ppm = boot(&["a", "b"], &["a", "b"], false);
            launch(&mut ppm, "a", vec![ping("b")]);
            Chooser::new(ppm.into_runtime())
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
        let s = ping_suite();
        // First enabled move each time, to quiescence.
        let picks = vec![0; 300];
        // What `explore` replays keeps the hub off: nothing is recorded.
        assert!(replay(&s, &picks).world().trace().is_empty());

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
