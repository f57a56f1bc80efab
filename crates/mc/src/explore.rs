//! The bounded explorer: replay-based DFS over the world's enabled
//! moves, with digest pruning and counterexample minimization.
//!
//! A state is identified by the **pick vector** that reaches it — the
//! index chosen into [`crate::world::McWorld::enabled_moves`] at each
//! step from the scenario's staged initial world. Replaying the vector
//! reconstructs the state exactly (everything in the world is
//! deterministic), so the explorer needs no snapshotting and a found
//! violation is a replayable schedule by construction.
//!
//! Depth is counted in **branch points** — steps with two or more
//! enabled moves. Forced chains (RPC pipelines draining one reply at a
//! time) are free, so a depth budget of 10 reaches deep into the
//! protocols while the fan-out stays bounded. States whose digest was
//! already visited are pruned; the digest folds in every observable the
//! predicates read (see `McWorld::digest`), so pruning cannot hide a
//! violation.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::world::McWorld;

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum branch points along any schedule.
    pub max_depth: usize,
    /// Maximum states visited in total.
    pub max_states: u64,
}

impl Budget {
    /// A budget suitable for CI smoke runs.
    pub fn smoke() -> Self {
        Budget {
            max_depth: 10,
            max_states: 20_000,
        }
    }
}

/// A predicate over the world: `Some(description)` on violation.
pub type Predicate = Box<dyn Fn(&McWorld) -> Option<String>>;

/// What one scenario checks: a staged initial world plus its safety and
/// quiescence predicates. Predicates return `Some(description)` on
/// violation.
pub struct Scenario {
    /// Suite name (stable; the CLI and CI reference it).
    pub name: &'static str,
    /// The budget at which this suite is meaningfully checked — deep
    /// enough to reach non-vacuous quiescent states where the
    /// convergence predicate applies. The CLI uses it unless overridden.
    pub default_budget: Budget,
    /// Builds and stages the initial world deterministically.
    pub build: Box<dyn Fn() -> McWorld>,
    /// Safety: checked after every move of every schedule.
    pub check_step: Predicate,
    /// Convergence: checked in states with no enabled moves (all
    /// deliveries drained, all timers past the horizon, all fault
    /// budgets spent or unusable).
    pub check_quiescent: Predicate,
}

/// Aggregate exploration results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// States visited (schedules replayed to their last move).
    pub states: u64,
    /// States with two or more enabled moves.
    pub branch_points: u64,
    /// States pruned because their digest was already seen.
    pub dedup_hits: u64,
    /// Quiescent states reached (each ran the convergence predicate).
    pub quiescent: u64,
    /// True if a budget stopped the search before exhaustion.
    pub truncated: bool,
    /// Order-sensitive fold of every visited state digest: two runs of
    /// the same scenario and budget must agree (determinism check).
    pub digest: u64,
}

/// A found counterexample: the minimized schedule and its trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which predicate failed, with detail.
    pub predicate: String,
    /// Minimized pick vector (replay with `pick % enabled.len()`).
    pub picks: Vec<usize>,
    /// Human-readable move list of the minimized schedule, each move
    /// followed by the protocol notes it produced.
    pub trace: Vec<String>,
}

/// Exhaustively explores a scenario within the budget. Returns the
/// stats and the first violation found (minimized), if any.
pub fn explore(s: &Scenario, budget: Budget) -> (Stats, Option<Violation>) {
    let mut stats = Stats::default();
    let mut seen: HashSet<u64> = HashSet::new();
    // Stack entries: (pick vector, branch depth consumed).
    let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
    while let Some((picks, depth)) = stack.pop() {
        if stats.states >= budget.max_states {
            stats.truncated = true;
            break;
        }
        let w = replay(s, &picks);
        stats.states += 1;
        if let Some(why) = (s.check_step)(&w) {
            return (stats, Some(minimize(s, &picks, &why)));
        }
        let d = w.digest();
        stats.digest = stats
            .digest
            .rotate_left(7)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ d;
        if !seen.insert(d) {
            stats.dedup_hits += 1;
            continue;
        }
        let moves = w.enabled_moves();
        if moves.is_empty() {
            stats.quiescent += 1;
            if let Some(why) = (s.check_quiescent)(&w) {
                return (stats, Some(minimize(s, &picks, &why)));
            }
            continue;
        }
        let next_depth = depth + usize::from(moves.len() > 1);
        if moves.len() > 1 {
            stats.branch_points += 1;
            if next_depth > budget.max_depth {
                stats.truncated = true;
                continue;
            }
        }
        for i in (0..moves.len()).rev() {
            let mut np = picks.clone();
            np.push(i);
            stack.push((np, next_depth));
        }
    }
    (stats, None)
}

/// Replays a pick vector from the staged initial world. Out-of-range
/// picks wrap (`pick % enabled.len()`), so vectors stay valid while the
/// minimizer deletes entries.
pub fn replay(s: &Scenario, picks: &[usize]) -> McWorld {
    let mut w = (s.build)();
    for &p in picks {
        let moves = w.enabled_moves();
        if moves.is_empty() {
            break;
        }
        w.apply(&moves[p % moves.len()]);
    }
    w
}

/// Replays and renders each move's description (the repro trace), with
/// what the programs noted while it ran — the hub's trace entries, in
/// the format every backend prints — indented under it.
pub fn replay_trace(s: &Scenario, picks: &[usize]) -> Vec<String> {
    let mut w = (s.build)();
    w.hub_mut().trace.set_enabled(true);
    let mut out = Vec::new();
    for &p in picks {
        let moves = w.enabled_moves();
        if moves.is_empty() {
            break;
        }
        let mv = moves[p % moves.len()].clone();
        let mut step = w.describe(&mv);
        let noted = w.hub().trace.len();
        w.apply(&mv);
        for note in w.hub().trace.entries().skip(noted) {
            write!(step, "\n      {note}").expect("writing to a String cannot fail");
        }
        out.push(step);
    }
    out
}

/// True if the schedule (with wrapping) still violates either predicate.
fn violates(s: &Scenario, picks: &[usize]) -> bool {
    let mut w = (s.build)();
    for &p in picks {
        let moves = w.enabled_moves();
        if moves.is_empty() {
            break;
        }
        w.apply(&moves[p % moves.len()]);
        if (s.check_step)(&w).is_some() {
            return true;
        }
    }
    w.enabled_moves().is_empty() && (s.check_quiescent)(&w).is_some()
}

/// Greedy delta-debugging: repeatedly drops single picks while the
/// violation persists. Wrapping keeps shortened vectors replayable.
fn minimize(s: &Scenario, picks: &[usize], why: &str) -> Violation {
    let mut cur = picks.to_vec();
    loop {
        let mut improved = false;
        let mut i = cur.len();
        while i > 0 {
            i -= 1;
            let mut cand = cur.clone();
            cand.remove(i);
            if violates(s, &cand) {
                cur = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    Violation {
        predicate: why.to_string(),
        trace: replay_trace(s, &cur),
        picks: cur,
    }
}

/// Applies the first enabled move whose description contains `pattern`.
/// Regression tests use this to drive a known bad schedule without
/// depending on brittle pick indices. Returns `true` if a move matched.
pub fn apply_matching(w: &mut McWorld, pattern: &str) -> bool {
    let mv = w
        .enabled_moves()
        .into_iter()
        .find(|m| w.describe(m).contains(pattern));
    match mv {
        Some(m) => {
            w.apply(&m);
            true
        }
        None => false,
    }
}

/// Convenience for tests: asserts a whole exploration stays clean and
/// returns the stats.
pub fn assert_no_violation(s: &Scenario, budget: Budget) -> Stats {
    let (stats, v) = explore(s, budget);
    if let Some(v) = v {
        panic!(
            "unexpected violation in {}: {}\nschedule:\n  {}",
            s.name,
            v.predicate,
            v.trace.join("\n  ")
        );
    }
    stats
}
