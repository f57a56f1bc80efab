//! The backend facade: boot hosts, spawn programs, drive the world.
//!
//! Where [`crate::sys::Sys`] is the view a *program* has of its backend,
//! [`Runtime`] is the view a *driver* has: register the daemons inetd may
//! start, add hosts, seed user processes, let time pass, act as the user
//! at a terminal (`ps`, `kill`), and sample what the programs published.
//! Everything that drives a PPM is written against this trait alone —
//! the backend-conformance suite, the host-kernel parity test and
//! `ppm-harness`'s `PpmHarness<R>` — and runs unchanged over the
//! simulated world and the real loopback cluster.
//!
//! The surface is what both backends can answer identically. Conformance
//! programs report what they observed through stable storage
//! ([`Runtime::stable_get`]); what the world recorded about itself —
//! trace, spans, published registries — is read from its one
//! [`crate::obs::ObsHub`] ([`Runtime::hub`]). Anything only one backend
//! has (fault plans, the network model) stays on that backend's own type.

use std::collections::HashMap;

use bytes::Bytes;

use crate::ids::{CpuClass, HostId, Pid, Port, Uid};
use crate::obs::{HubRef, MetricSample};
use crate::program::{ProcKey, Program, SpawnSpec, SysError};
use crate::signal::Signal;
use crate::time::{Micros, SimDuration};

/// Builds a service program instance for a host, on demand. `Send + Sync`
/// because on the real backend any node thread's inetd may ask for it;
/// the simulation simply never moves it.
pub type ServiceFactory = Box<dyn Fn(HostId) -> Box<dyn Program> + Send + Sync>;

/// inetd's registry: the daemons it may start on any host, by name.
#[derive(Default)]
pub struct Services(HashMap<String, (Port, ServiceFactory)>);

impl Services {
    /// Registers a service.
    ///
    /// # Panics
    ///
    /// Panics if the service name or port is already registered.
    pub fn register(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        assert!(
            !self.0.contains_key(name),
            "service {name:?} already registered"
        );
        assert!(
            !self.0.values().any(|(p, _)| *p == port),
            "service port {port} already registered"
        );
        self.0.insert(name.to_string(), (port, factory));
    }

    /// A registered service's well-known port and a fresh instance of
    /// its program for `host`.
    pub fn make(&self, name: &str, host: HostId) -> Option<(Port, Box<dyn Program>)> {
        self.0
            .get(name)
            .map(|(port, factory)| (*port, factory(host)))
    }
}

/// A bootable PPM world: simulated ([`ppm-simos`]'s `SimRuntime`) or real
/// (`ppm-realos`'s `RealRuntime`).
pub trait Runtime {
    /// Registers a service with inetd's registry on every host. Call
    /// before spawning anything that asks inetd for `name`.
    fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory);

    /// Adds a host and connects it to every existing host (the facade
    /// models one LAN segment; richer topologies are backend-specific).
    /// Boot daemons (inetd) come up with the host.
    fn add_host(&mut self, name: &str, cpu: CpuClass) -> HostId;

    /// Spawns a user-owned process running `spec` on `host`.
    ///
    /// # Errors
    ///
    /// [`SysError::HostDown`] or [`SysError::NoSuchHost`].
    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError>;

    /// Sends a signal "from outside" with `from`'s credentials — the
    /// user (or root) at a terminal typing `kill`.
    ///
    /// # Errors
    ///
    /// The kernel's liveness and permission checks
    /// ([`SysError::NoSuchProcess`], [`SysError::PermissionDenied`]), or
    /// [`SysError::HostDown`].
    fn post_signal(&mut self, from: Uid, target: ProcKey, signal: Signal) -> Result<(), SysError>;

    /// `uid`'s lowest-pid live process on `host` whose command starts
    /// with `prefix` — `ps | grep`, enough to find a user's LPM.
    fn find_proc(&self, host: HostId, uid: Uid, prefix: &str) -> Option<Pid>;

    /// Lets the world run for (at least) `span` of the backend clock.
    /// The simulation advances its virtual clock; the real backend
    /// sleeps wall-clock time while node threads work.
    fn run(&mut self, span: SimDuration);

    /// Whether a process is currently alive.
    fn is_alive(&self, host: HostId, pid: Pid) -> bool;

    /// Reads a record from a host's stable storage — the conformance
    /// suite's channel for programs to report what they observed.
    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes>;

    /// Every metrics registry in the world as labelled snapshots, in
    /// report order: the backend's own section first, if it keeps one,
    /// then the hub's [`crate::obs::ObsHub::snapshots`].
    fn metric_snapshots(&self) -> Vec<(String, Vec<MetricSample>)>;

    /// The world's observability hub: switch trace or span recording,
    /// read what was recorded.
    fn hub(&mut self) -> HubRef<'_>;

    /// The backend clock's current instant.
    fn now(&self) -> Micros;
}
