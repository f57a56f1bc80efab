//! # ppm-core — the Personal Process Manager
//!
//! A Rust reproduction of the PPM of Cabrera, Sechrest and Cáceres
//! (*The Administration of Distributed Computations in a Networked
//! Environment*, ICDCS 1986). The whole stack is written against the
//! backend-agnostic `ppm-runtime` traits, so the same LPM/pmd/tool code
//! runs on the simulated networked Berkeley UNIX of `ppm-simos` **and**
//! on real loopback TCP nodes via `ppm-realos`.
//!
//! The pieces, mapped to the paper:
//!
//! * [`lpm`] — the local process manager: dispatcher + handler pool,
//!   kernel socket, sibling channels, broadcast echo wave, adoption,
//!   remote process creation, history, triggers, crash recovery.
//! * [`pmd`] — the per-host process manager daemon (trusted name server),
//!   started on demand by inetd; optional stable-storage registry.
//! * [`locator`] — the LPM-creation chain of Figure 2 as a client state
//!   machine, shared by tools and sibling LPMs.
//! * [`auth`] — user-level masquerade prevention (Section 3).
//! * [`genealogy`] / [`history`] / [`trigger_engine`] — the logical
//!   process tree, event history, and history-dependent triggers.
//! * [`handlers`] — the dispatcher/handler-process cost model (Section 6).
//! * `rpc` — the unified RPC substrate: one correlation-keyed pending
//!   table with deadlines, attempt budgets and idempotent dedup, shared
//!   by all tool, sibling, broadcast and recovery request traffic.
//! * [`client`] — the tool library of Section 6. (The synchronous
//!   sim-world driver for tests and benchmarks lives in `ppm-harness`.)
//!
//! ## Example
//!
//! ```
//! use ppm_core::config::{lpm_port, PpmConfig, HANDLER_MAX};
//! use ppm_runtime::ids::Uid;
//!
//! // Protocol constants are backend-independent: a user's LPM listens on
//! // the same well-known port in the simulation and on real nodes.
//! let cfg = PpmConfig::default();
//! assert_eq!(lpm_port(Uid(100)).0, 1100);
//! assert!(cfg.max_hops >= 1 && HANDLER_MAX >= 1);
//! ```

pub mod auth;
pub mod client;
pub mod config;
pub mod genealogy;
pub mod handlers;
pub mod history;
pub mod locator;
pub mod lpm;
pub mod obs;
pub mod pmd;
pub(crate) mod rpc;
#[cfg(test)]
mod stub_sys;
pub mod trigger_engine;
pub mod users;

pub use auth::{Authenticator, UserCred};
pub use client::{Tool, ToolHandle, ToolOutcome, ToolStep};
pub use config::{lpm_port, PpmConfig, PMD_PORT, PMD_SERVICE};
pub use lpm::{Lpm, LpmStats};
pub use pmd::{Pmd, PmdOptions};
pub use users::{UserDirectory, UserEntry};
