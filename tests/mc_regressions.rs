//! Model-checker counterexamples, pinned as regression tests.
//!
//! Each test replays the minimized schedule `ppm-mc` found for a bug
//! that has since been fixed, using description-directed moves (stable
//! against pick-index drift) and asserting the predicate that used to
//! fail. The exploration smoke tests at the bottom re-check the suites
//! at reduced debug-build budgets; CI runs the full budgets in release
//! mode (`mc-smoke`).

use ppm::mc_suites;
use ppm_mc::{apply_matching, assert_no_violation, explore, replay, replay_trace, Budget};
use ppm_runtime::{HostId, Runtime, Uid};
use ppm_simnet::fault::FaultKind;

/// The suites' one account.
const UID: Uid = Uid(100);

/// The incarnation-fence bug (`exactly-once` suite). Minimized pre-fix
/// counterexample, 7 moves from the staged frontier:
///
/// ```text
/// 1. deliver msg forestpull -> lpm-100@b   (purges the dedup window)
/// 2. deliver msg req        -> lpm-100@b   (stale duplicate re-executes)
/// ...timers drain...
/// ```
///
/// Delivering the respawned origin's `ForestPull` *before* the wire
/// duplicate of an already-executed request purged the dedup entry that
/// would have absorbed the duplicate. The fence (`RpcTable::fence_origin`
/// before `purge_peer`) classifies the dead incarnation's correlation id
/// as `Stale`, so the duplicate is refused instead of re-executed.
#[test]
fn purge_before_late_retry_executes_exactly_once() {
    let s = mc_suites::exactly_once();
    let mut w = (s.build)();
    // The bad ordering: purge first, then the stale duplicate.
    assert!(
        apply_matching(&mut w, "msg forestpull"),
        "staged world must hold the forest pull"
    );
    assert!(
        apply_matching(&mut w, "msg req -> lpm-100@b"),
        "staged world must hold the duplicated request"
    );
    assert!(
        (s.check_step)(&w).is_none(),
        "duplicate must not re-execute"
    );
    w.run_to_quiescence(20_000);
    let job = w
        .world()
        .find_proc(HostId(1), UID, "job")
        .expect("job survives");
    assert_eq!(
        w.signals_received(HostId(1), job),
        1,
        "control op executed exactly once across the purge/retry race"
    );
}

/// The rebuild-never-finishes bug (`no-orphans` suite), found by the
/// checker in this crate's first run: `handle_forest_info` grafted the
/// recovered logical edges but left `rebuilding` set, waiting for a
/// *next* sibling connect that never comes when the only sibling channel
/// is already up. The fix clears the flag as soon as gossip explains
/// every failure root.
#[test]
fn forest_rebuild_completes_once_gossip_explains_roots() {
    let s = mc_suites::no_orphans();
    let mut w = (s.build)();
    assert!(
        apply_matching(&mut w, "fault kill lpm-100@b"),
        "kill fault must be enabled"
    );
    w.run_to_quiescence(20_000);
    assert!(
        w.world().find_proc(HostId(1), UID, "worker").is_some(),
        "worker survives its manager's crash"
    );
    for (k, l) in w.lpms() {
        let host = w.world().host_name(k.0);
        let roots = l.orphan_root_count();
        assert_eq!(roots, 0, "no orphan forest roots on {host} after recovery");
        assert!(
            !l.is_rebuilding(),
            "LPM on {host} finished rebuilding without a second sibling connect",
        );
    }
}

/// What a second world could not reach: under the `no-orphans` race the
/// tracking LPM on `b` is killed and rebuilds, then the coordinator's
/// host `a` crashes and restarts — the crash and the restart fault moves
/// of the sim's own world — and the run reaches quiescence with every
/// predicate of the suite holding: `b`'s LPM keeps the logical edge it
/// recovered, the worker keeps its manager.
#[test]
fn a_host_crash_and_restart_after_the_no_orphans_rebuild_converge() {
    let s = mc_suites::no_orphans();
    let mut w = (s.build)();
    w.stage_fault(FaultKind::Crash { host: "a".into() });
    w.stage_fault(FaultKind::Restart { host: "a".into() });
    let lpm_on_b = |w: &ppm_mc::Chooser| w.world().find_proc(HostId(1), UID, "lpm-");
    let killed = lpm_on_b(&w).expect("b's LPM");
    assert!(
        apply_matching(&mut w, "fault kill lpm-100@b"),
        "the suite's own fault"
    );
    let successor = |w: &ppm_mc::Chooser, done: bool| {
        let lpms = w.lpms();
        let on_b = lpms.iter().find(|(k, _)| k.0 == HostId(1) && k.1 != killed);
        on_b.is_some_and(|(_, l)| {
            l.is_rebuilding() != done && (!done || l.orphan_root_count() == 0)
        })
    };
    let rebuilding = |w: &ppm_mc::Chooser| successor(w, false);
    assert!(
        w.run_until(20_000, |_, _| false, rebuilding),
        "b's LPM respawns"
    );
    let rebuilt = |w: &ppm_mc::Chooser| successor(w, true);
    assert!(w.run_until(20_000, |_, _| false, rebuilt), "and rebuilds");
    assert!(
        apply_matching(&mut w, "fault crash a"),
        "the crash is a move"
    );
    assert!((s.check_step)(&w).is_none());
    assert_eq!(w.world().power(HostId(0)), (false, 1), "a is down");
    assert!(
        apply_matching(&mut w, "fault restart a"),
        "so is the restart"
    );
    assert!(w.run_to_quiescence(20_000), "quiescent under the horizon");
    assert!(w.moves().is_empty(), "every staged fault fired");
    assert_eq!(w.world().power(HostId(0)), (true, 2), "a is back");
    assert!(w.converge_expected(), "the schedule left room to repair");
    assert_eq!((s.check_quiescent)(&w), None);
}

/// The stale-route bug (`stale-route` suite): a next-hop learned through
/// `b` survives the death of `b`'s LPM until the closed notice lands,
/// and the pre-fix send path forwarded into it (a route-cache hit on a
/// dead connection). The fixed path validates the hop with
/// `Sys::conn_alive` at send time, evicts it, and dials `c` directly.
#[test]
fn cut_next_hop_is_evicted_not_used() {
    let s = mc_suites::stale_route();
    let mut w = (s.build)();
    w.run_to_quiescence(20_000);
    for (k, l) in w.lpms() {
        if k.0 == HostId(0) {
            let hits = l.stats().route_cache_hits;
            assert_eq!(hits, 0, "no forward into the dead a-b hop");
        }
    }
    let job = w
        .world()
        .find_proc(HostId(2), UID, "job")
        .expect("job survives");
    assert_eq!(
        w.signals_received(HostId(2), job),
        1,
        "control op reached c via the direct channel"
    );
}

/// Exploration must be deterministic: same scenario, same budget, same
/// visited-state digest — twice. Schedule replay must be deterministic
/// too (`ppm-mc --repro` relies on both).
#[test]
fn exploration_and_replay_are_deterministic() {
    let budget = Budget {
        max_depth: 30,
        max_states: 2_000,
    };
    let s = mc_suites::exactly_once();
    let (first, v1) = explore(&s, budget);
    let (second, v2) = explore(&s, budget);
    assert!(v1.is_none() && v2.is_none());
    assert_eq!(first.digest, second.digest, "exploration digest stable");
    assert_eq!(first.states, second.states);
    assert_eq!(first.branch_points, second.branch_points);

    let picks: Vec<usize> = vec![1, 0, 2, 0, 1, 0, 0, 3, 0, 0];
    assert_eq!(
        replay(&s, &picks).digest(),
        replay(&s, &picks).digest(),
        "replaying a schedule reproduces the same world"
    );
    assert_eq!(replay_trace(&s, &picks), replay_trace(&s, &picks));
}

/// Every suite stays violation-free at a reduced debug-build budget.
/// The `exactly-once` suite exhausts completely even at this size; the
/// others are smoke-checked here and explored at full budget in CI.
#[test]
fn suites_stay_clean_at_smoke_budgets() {
    for name in mc_suites::SUITES {
        let s = mc_suites::by_name(name).expect("listed suite exists");
        let budget = Budget {
            max_depth: s.default_budget.max_depth.min(20),
            max_states: s.default_budget.max_states.min(1_500),
        };
        let stats = assert_no_violation(&s, budget);
        assert!(stats.states > 0, "{name} explored nothing");
    }
}
