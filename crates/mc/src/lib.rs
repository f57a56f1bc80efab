//! Bounded model checking for the PPM protocols.
//!
//! The paper's protocols — request dedup under retry, broadcast waves
//! over the sibling graph, CCS election, forest rebuilding after an LPM
//! crash — are exactly the kind of code whose bugs live in message
//! interleavings no single simulation seed samples. This crate drives
//! the production protocol stack (`ppm-core`, unmodified) on the sim's
//! own world through **every** schedule of a small staged world, within
//! explicit depth and state budgets.
//!
//! * [`chooser`] — the sim's [`ppm_simos::World`] with what exploration
//!   keeps beside it: the horizon, the convergence margin, the
//!   executed-count baseline, the staging helpers, move descriptions and
//!   the state digest. Its moves are the heads of the world's event
//!   streams; move 0 every time is the sim's own run.
//! * [`explore`](mod@explore) — replay-based DFS with digest pruning and greedy
//!   counterexample minimization.
//!
//! The suites themselves — worlds booted through `ppm-harness` and
//! staged to their interesting frontiers — are the `ppm` crate's
//! `mc_suites`, beside the `ppm-mc` binary that runs them.

pub mod chooser;
pub mod explore;

pub use chooser::Chooser;
pub use explore::{
    apply_matching, assert_no_violation, explore, replay, replay_trace, Budget, Scenario, Stats,
    Violation,
};
