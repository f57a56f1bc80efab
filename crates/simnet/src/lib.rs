//! # ppm-simnet — deterministic discrete-event substrate
//!
//! The foundation of the PPM reproduction: a deterministic discrete-event
//! [`engine`], simulated [`time`], seeded [`rng`], a host/link
//! [`topology`] with partitions and crashes, [`latency`] models calibrated
//! to the paper's Tables 1–2. (Traces, metrics and deterministic hashing
//! live in `ppm-runtime`, shared by every backend.)
//!
//! Nothing in this crate knows about UNIX or the PPM; it is the "physics"
//! the higher layers run on. `ppm-simos` builds the simulated Berkeley
//! UNIX hosts on top of it, and `ppm-core` builds the Personal Process
//! Manager on top of that.
//!
//! ## Example
//!
//! ```
//! use ppm_simnet::engine::TimerWheel;
//! use ppm_simnet::time::SimDuration;
//! use ppm_simnet::topology::{CpuClass, HostSpec, Topology};
//!
//! // Two hosts, one link, one event.
//! let mut topo = Topology::new();
//! let a = topo.add_host(HostSpec::new("calder", CpuClass::Vax780));
//! let b = topo.add_host(HostSpec::new("ucbarpa", CpuClass::Sun2));
//! topo.add_link(a, b);
//! assert_eq!(topo.hops(a, b), Some(1));
//!
//! let mut engine: TimerWheel<&str> = TimerWheel::new();
//! engine.schedule(SimDuration::from_millis(1), "hello");
//! assert_eq!(engine.pop().map(|(_, e)| e), Some("hello"));
//! ```

pub mod bandwidth;
pub mod engine;
pub mod fault;
pub mod latency;
pub mod rng;
pub mod routing;
pub mod time;
pub mod topology;

pub use bandwidth::{NetModel, Transfer};
pub use engine::{EventId, QueueStats, TimerWheel};
pub use latency::LatencyModel;
pub use rng::SimRng;
pub use routing::RoutingTable;
pub use time::{SimDuration, SimTime};
pub use topology::{CpuClass, HostId, HostSpec, Topology};
pub use topology::{NetGraph, NetSpec};
