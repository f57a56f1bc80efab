//! # ppm-runtime — the backend-agnostic runtime layer
//!
//! The vocabulary both PPM backends share, and the trait boundary that
//! keeps the protocol stack (`ppm-core`, the tools) ignorant of which
//! world it runs in:
//!
//! * [`time`] — protocol-visible time as integer microseconds
//!   ([`time::Micros`], alias `SimTime`).
//! * [`name`] — [`name::Name`], the one type of every host name and
//!   command, inline up to 22 bytes.
//! * [`ids`], [`process`], [`signal`], [`fd`], [`events`] — the process
//!   model: pids, uids, hosts, states, rusage, signals, descriptors, and
//!   the kernel-event vocabulary of the paper's extended `ptrace`.
//! * [`kernel`] — the pure per-host process table (fork genealogy, tracer
//!   bookkeeping, load average), reused verbatim by both backends.
//! * [`conn`] — the one stream-connection table and state machine, with
//!   the open-connection index, under every backend.
//! * [`program`] — the [`program::Program`] actor trait every LPM, pmd,
//!   inetd, tool and workload implements.
//! * [`sys`] — the [`sys::Sys`] syscall facade handed to programs.
//! * [`host`] — the one host driver around the kernels: the program
//!   table, the callback runner and the one `impl Sys`, exit, spawn,
//!   signals, the stop rules and effect application, over a small
//!   [`host::Backend`] each backend supplies (clock, timers, wire).
//! * [`rt`] — the [`rt::Runtime`] harness facade the backend-conformance
//!   suite drives.
//! * [`trace`], [`obs`], [`hashx`] — structured tracing, metrics/spans
//!   and the one [`obs::ObsHub`] every backend keeps them in, and
//!   deterministic hashing.
//! * [`pages`] — paged append-only storage for the histories a world
//!   keeps for life (trace headers and bodies, connection records).
//! * [`inetd`], [`workload`] — backend-agnostic stock programs: the inet
//!   daemon and the synthetic workloads.
//!
//! The simulated backend lives in `ppm-simos` (on `ppm-simnet`'s
//! discrete-event engine); the real one in `ppm-realos` (loopback TCP,
//! monotonic clock, thread-per-node event loops).

pub mod conn;
pub mod events;
pub mod fd;
pub mod hashx;
pub mod host;
pub mod ids;
pub mod inetd;
pub mod kernel;
pub mod name;
pub mod obs;
pub mod pages;
pub mod process;
pub mod program;
pub mod rt;
pub mod signal;
pub mod sys;
pub mod time;
pub mod trace;
pub mod workload;

pub use ids::{ConnId, CpuClass, Fd, HostId, Pid, Port, Uid};
pub use name::Name;
pub use program::{ConnEvent, Inert, KernelMsg, ProcKey, Program, SigAction, SpawnSpec, SysError};
pub use rt::Runtime;
pub use sys::{Sys, CRASHED_AT_KEY};
pub use time::{Micros, SimDuration, SimTime};
