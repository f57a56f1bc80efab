//! # ppm-simos — a simulated networked Berkeley UNIX
//!
//! The substrate the paper's PPM runs on, rebuilt as a deterministic
//! simulation: per-host kernels with process tables, fork/exec/exit,
//! signals, an extended-`ptrace` adoption mechanism with kernel event
//! tracing, per-process descriptor tables, reliable stream sockets across
//! a host/link topology, load averages, and the inet daemon.
//!
//! The paper modified 4.3BSD "with kernel changes kept to a minimum"; the
//! PPM interacts with the kernel only through system calls, stream
//! sockets and kernel event messages. This crate reproduces that exact
//! surface (see [`sys::Sys`] and [`ppm_runtime::program::Program`]) so the PPM logic
//! in `ppm-core` is structured just like the original user-level C
//! implementation.
//!
//! ## Example
//!
//! ```
//! use ppm_simnet::time::SimDuration;
//! use ppm_simnet::topology::{CpuClass, HostSpec};
//! use ppm_simos::ids::Uid;
//! use ppm_runtime::program::SpawnSpec;
//! use ppm_simos::world::World;
//!
//! let mut world = World::new(42);
//! let host = world.add_host(HostSpec::new("ucbvax", CpuClass::Vax780));
//! let pid = world.spawn_user(host, Uid(100), SpawnSpec::inert("cc"))?;
//! world.run_for(SimDuration::from_millis(200));
//! assert!(world.core().is_alive((host, pid)));
//! # Ok::<(), ppm_runtime::program::SysError>(())
//! ```

pub mod config;
pub mod net;
pub mod rt;
pub mod sys;
pub mod world;

pub use ppm_runtime::{ids, signal};

pub use config::OsConfig;
pub use ids::{ConnId, Fd, Pid, Port, Uid};
pub use sys::Sys;
pub use world::World;
