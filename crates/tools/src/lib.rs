//! # ppm-tools — user tools over the PPM
//!
//! The paper implemented two tools ("snapshots with process control, and
//! exited process resource consumption statistics") and planned several
//! more ("a display tool, a historical data gathering tool, a tool for
//! displaying the open and closed files of processes, a tool for
//! displaying file descriptors, and one for IPC activity tracing and
//! analysis"). This crate provides all of them, built on the `ppm-core`
//! client library:
//!
//! * [`forest`] / [`snapshot`] — the genealogical snapshot display of
//!   Figure 1, with the stop / foreground / background / kill verbs;
//! * [`rusage_tool`] — exited-process statistics reports;
//! * [`history_tool`] — historical event display and profiles;
//! * [`files_tool`] — open files and descriptor listings;
//! * [`ipc_tool`] — IPC activity tracing and analysis;
//! * [`display`] — the one-call dashboard of the user's whole PPM;
//! * [`computation`] — locate a distributed computation's execution sites
//!   and broadcast software interrupts to every member;
//! * [`metrics`] — pull a live LPM's metrics registry over the wire;
//! * [`drill`] — the exec → display → locate → LPM-kill → recovery script
//!   behind a scenario's `drill` statement on every runtime;

pub mod computation;
pub mod display;
pub mod drill;
pub mod files_tool;
pub mod forest;
pub mod history_tool;
pub mod ipc_tool;
pub mod metrics;
pub mod rusage_tool;
pub mod snapshot;

pub use forest::{Forest, ForestNode};
pub use snapshot::SnapshotTool;
