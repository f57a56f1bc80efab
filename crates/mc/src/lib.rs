//! Bounded model checking for the PPM protocols.
//!
//! The paper's protocols — request dedup under retry, broadcast waves
//! over the sibling graph, CCS election, forest rebuilding after an LPM
//! crash — are exactly the kind of code whose bugs live in message
//! interleavings no single simulation seed samples. This crate drives
//! the production protocol stack (`ppm-core`, unmodified, through the
//! same `Sys` seam the simulation and real backends implement) through
//! **every** schedule of a small staged world, within explicit depth
//! and state budgets.
//!
//! * [`world`] — the mc backend: per-host kernels, per-direction
//!   connection FIFOs, an explorable timer set, budgeted fault moves.
//!   It is also a [`ppm_runtime::rt::Runtime`], so every driver written
//!   for the sim and real backends boots and runs on it unchanged.
//! * [`explore`] — replay-based DFS with digest pruning and greedy
//!   counterexample minimization.
//!
//! The suites themselves — worlds booted through `ppm-harness` and
//! staged to their interesting frontiers — are the `ppm` crate's
//! `mc_suites`, beside the `ppm-mc` binary that runs them.

pub mod explore;
pub mod world;

pub use explore::{
    apply_matching, assert_no_violation, explore, replay, replay_trace, Budget, Scenario, Stats,
    Violation,
};
pub use world::{Adversary, McWorld, Move};
