//! [`SimRuntime`] — the simulated backend behind the
//! [`ppm_runtime::rt::Runtime`] facade.
//!
//! A thin adapter over [`crate::world::World`]: the facade's one-LAN
//! model maps to a full mesh of links, `run` advances the virtual clock,
//! and `stable_get` reads the per-host stable store that conformance
//! programs report through. Everything underneath is the deterministic
//! discrete-event world — same seed, same bytes.

use bytes::Bytes;

use ppm_runtime::ids::{CpuClass, HostId, Pid, Uid};
use ppm_runtime::program::{SpawnSpec, SysError};
use ppm_runtime::rt::Runtime;
use ppm_runtime::time::{Micros, SimDuration};
use ppm_simnet::topology::HostSpec;

use crate::world::World;

/// The simulated world, seen through the backend facade.
pub struct SimRuntime {
    world: World,
}

impl SimRuntime {
    /// A fresh deterministic world.
    pub fn new(seed: u64) -> Self {
        SimRuntime {
            world: World::new(seed),
        }
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

    fn run(&mut self, span: SimDuration) {
        self.world.run_for(span);
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        self.world.core().is_alive((host, pid))
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.world.core().kernel(host).stable_get(key)
    }

    fn now(&self) -> Micros {
        self.world.now()
    }
}
