//! [`SimRuntime`] — the simulated backend behind the
//! [`ppm_runtime::rt::Runtime`] facade.
//!
//! A thin adapter over [`crate::world::World`]: the facade's one-LAN
//! model maps to a full mesh of links, `run` advances the virtual clock,
//! `stable_get` reads the per-host stable store that conformance
//! programs report through, and `metric_snapshots` leads with the
//! world's own section (kernel event path, event-engine queue).
//! Everything underneath is the deterministic discrete-event world —
//! same seed, same bytes.

use bytes::Bytes;

use ppm_runtime::ids::{CpuClass, HostId, Pid, Port, Uid};
use ppm_runtime::obs::{HubRef, MetricSample, MetricValue};
use ppm_runtime::program::{ProcKey, SpawnSpec, SysError};
use ppm_runtime::rt::{Runtime, ServiceFactory};
use ppm_runtime::signal::Signal;
use ppm_runtime::time::{Micros, SimDuration};
use ppm_simnet::topology::HostSpec;

use crate::world::World;

/// The simulated world, seen through the backend facade.
#[derive(Debug)]
pub struct SimRuntime {
    world: World,
}

impl SimRuntime {
    /// A fresh deterministic world.
    pub fn new(seed: u64) -> Self {
        SimRuntime::from_world(World::new(seed))
    }

    /// Wraps a world built with sim-only knobs (OS constants, latency
    /// model, a hand-made link set) the facade has no words for.
    pub fn from_world(world: World) -> Self {
        SimRuntime { world }
    }

    /// The wrapped world, for sim-specific scenarios (fault plans,
    /// traces) that the facade deliberately leaves out.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the wrapped world.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

impl Runtime for SimRuntime {
    fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.world.register_service(name, port, factory);
    }

    fn add_host(&mut self, name: &str, cpu: CpuClass) -> HostId {
        let id = self.world.add_host(HostSpec::new(name, cpu));
        for other in 0..id.0 {
            self.world.add_link(HostId(other), id);
        }
        id
    }

    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.world.spawn_user(host, uid, spec)
    }

    fn post_signal(&mut self, from: Uid, target: ProcKey, signal: Signal) -> Result<(), SysError> {
        self.world.post_signal(from, target, signal)
    }

    fn find_proc(&self, host: HostId, uid: Uid, prefix: &str) -> Option<Pid> {
        let kernel = self.world.core().kernel(host);
        kernel.find_user_proc(uid, prefix)
    }

    fn run(&mut self, span: SimDuration) {
        self.world.run_for(span);
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        self.world.core().is_alive((host, pid))
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.world.core().kernel(host).stable_get(key)
    }

    fn metric_snapshots(&self) -> Vec<(String, Vec<MetricSample>)> {
        let core = self.world.core();
        let mut world = core.obs().registry.snapshot();
        let stats = core.engine_stats();
        let counter = |name, v: u64| MetricSample {
            name,
            value: MetricValue::Counter(v),
        };
        let gauge = |name, v: usize| MetricSample {
            name,
            value: MetricValue::Gauge(v as i64),
        };
        world.push(counter("engine.schedules", stats.schedules));
        world.push(counter("engine.cancels", stats.cancels));
        world.push(counter("engine.fired", stats.fired));
        world.push(gauge("engine.pending", stats.pending));
        world.push(gauge("engine.overflow_peak", stats.overflow_peak));
        world.sort_by(|a, b| a.name.cmp(b.name));
        let mut sections = vec![("world".to_string(), world)];
        sections.extend(core.obs().snapshots());
        sections
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(self.world.core_mut().obs_mut())
    }

    fn now(&self) -> Micros {
        self.world.now()
    }
}
