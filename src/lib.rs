//! # ppm — reproduction of the Personal Process Manager (ICDCS 1986)
//!
//! A full reimplementation of Cabrera, Sechrest and Cáceres,
//! *The Administration of Distributed Computations in a Networked
//! Environment: An Interim Report*, over a deterministic simulated
//! network of Berkeley UNIX hosts.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`simnet`] — discrete-event engine, topology, calibrated latencies;
//! * [`simos`] — the simulated per-host UNIX substrate;
//! * [`proto`] — the PPM wire protocol;
//! * [`core`] — LPMs, pmd, broadcast, history, triggers, crash recovery;
//! * [`tools`] — snapshot display, statistics, files, IPC analysis.
//!
//! plus the [`scenario`] language that drives the whole system from a
//! text file (see the `ppm-sim` binary and `scenarios/`) and the
//! [`sweep`] harness that runs grids of scenarios across every core
//! (see the `ppm-sweep` binary).
//!
//! See `examples/` for runnable walkthroughs and `ppm-bench` for the
//! regeneration of every table and figure in the paper.
//!
//! ## Quickstart
//!
//! ```
//! use ppm::core::config::PpmConfig;
//! use ppm::harness::harness::PpmHarness;
//! use ppm::simnet::topology::CpuClass;
//! use ppm::simos::ids::Uid;
//!
//! let mut ppm = PpmHarness::builder()
//!     .host("calder", CpuClass::Vax780)
//!     .host("ucbarpa", CpuClass::Vax750)
//!     .link("calder", "ucbarpa")
//!     .user(Uid(100), 0xBEEF, &["calder"], PpmConfig::default())
//!     .build();
//! let gpid = ppm.spawn_remote("calder", Uid(100), "ucbarpa", "troff", None, None)?;
//! let procs = ppm.snapshot("calder", Uid(100), "*")?;
//! assert!(procs.iter().any(|p| p.gpid == gpid));
//! # Ok::<(), ppm::harness::harness::HarnessError>(())
//! ```

pub mod digest;
pub mod scenario;
pub mod sweep;

pub use ppm_core as core;
pub use ppm_harness as harness;
pub use ppm_proto as proto;
pub use ppm_runtime as runtime;
pub use ppm_simnet as simnet;
pub use ppm_simos as simos;
pub use ppm_tools as tools;
