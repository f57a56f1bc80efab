//! [`RealRuntime`] — the real backend behind the
//! [`ppm_runtime::rt::Runtime`] facade.
//!
//! One OS process hosts a whole cluster: each `add_host` boots a node
//! thread (see [`crate::node`]) with its own kernel table, programs, and
//! timer heap, and all nodes share loopback TCP, a monotonic clock epoch,
//! the logical→real port map, the service registry inetd draws from, and
//! the cluster's one observability hub.
//! The driver talks to nodes only through their event queues — queries
//! (`is_alive`, `stable_get`) travel as events with reply channels, so
//! node state needs no cross-thread locking.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ppm_runtime::ids::{CpuClass, HostId, Pid, Port, Uid};
use ppm_runtime::kernel::Kernel;
use ppm_runtime::obs::{HubRef, MetricSample, ObsHub};
use ppm_runtime::program::{ProcKey, SpawnSpec, SysError};
pub use ppm_runtime::rt::ServiceFactory;
use ppm_runtime::rt::{Runtime, Services};
use ppm_runtime::signal::Signal;
use ppm_runtime::time::{Micros, SimDuration};

use crate::clock::ClusterClock;
use crate::net::PortMap;
use crate::node::{NodeCore, NodeEvent};

/// How long driver queries wait for a node thread to answer before the
/// node is presumed wedged.
const QUERY_TIMEOUT: Duration = Duration::from_secs(10);

/// State shared by every node of one real cluster.
pub struct ClusterShared {
    /// The cluster clock epoch; all node clocks count from it.
    pub epoch: Instant,
    /// Host names, indexed by `HostId`.
    pub hosts: RwLock<Vec<String>>,
    /// Logical `(host, port)` → real loopback TCP port.
    pub ports: PortMap,
    /// Set once at teardown; acceptor threads exit when they see it.
    pub shutdown: Arc<AtomicBool>,
    /// What the cluster records about itself; every node thread and the
    /// driver take this lock for the length of one record or read
    /// ([`ClusterShared::hub`]; the field is public for `benchmark/`).
    pub obs: Mutex<ObsHub>,
    services: Mutex<Services>,
}

impl ClusterShared {
    fn new(trace: bool) -> Self {
        ClusterShared {
            epoch: Instant::now(),
            hosts: RwLock::new(Vec::new()),
            ports: Arc::new(Mutex::new(HashMap::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
            obs: Mutex::new(ObsHub::new(trace)),
            services: Mutex::new(Services::default()),
        }
    }

    /// The cluster's observability hub, locked.
    pub fn hub(&self) -> MutexGuard<'_, ObsHub> {
        self.obs.lock().expect("no thread panics holding the hub")
    }

    /// inetd's registry, locked.
    pub fn services(&self) -> MutexGuard<'_, Services> {
        let services = self.services.lock();
        services.expect("no thread panics holding the registry")
    }
}

struct NodeHandle {
    tx: Sender<NodeEvent>,
    join: Option<JoinHandle<()>>,
}

/// A real loopback cluster, seen through the backend facade.
pub struct RealRuntime {
    shared: Arc<ClusterShared>,
    clock: ClusterClock,
    nodes: Vec<NodeHandle>,
}

impl Default for RealRuntime {
    fn default() -> Self {
        RealRuntime::new()
    }
}

impl RealRuntime {
    /// A fresh cluster with no hosts and tracing off.
    pub fn new() -> Self {
        RealRuntime::with_trace(false)
    }

    /// A fresh cluster whose hub records a trace, or not.
    pub fn with_trace(trace: bool) -> Self {
        let shared = Arc::new(ClusterShared::new(trace));
        let clock = ClusterClock::new(shared.epoch);
        RealRuntime {
            shared,
            clock,
            nodes: Vec::new(),
        }
    }

    /// The shared cluster state (hub, port map).
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    /// Reads `host`'s kernel on its node thread.
    fn inspect<T: Send + 'static>(
        &self,
        host: HostId,
        read: impl FnOnce(&Kernel) -> T + Send + 'static,
    ) -> Option<T> {
        self.query(host, |reply| {
            NodeEvent::Inspect(Box::new(move |kernel| {
                let _ = reply.send(read(kernel));
            }))
        })
    }

    fn query<T: Send + 'static>(
        &self,
        host: HostId,
        make: impl FnOnce(Sender<T>) -> NodeEvent,
    ) -> Option<T> {
        let node = self.nodes.get(host.0 as usize)?;
        let (tx, rx) = mpsc::channel();
        node.tx.send(make(tx)).ok()?;
        rx.recv_timeout(QUERY_TIMEOUT).ok()
    }
}

impl Runtime for RealRuntime {
    fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.shared.services().register(name, port, factory);
    }

    fn add_host(&mut self, name: &str, _cpu: CpuClass) -> HostId {
        let id = {
            let mut hosts = self.shared.hosts.write().unwrap();
            let id = HostId(hosts.len() as u32);
            hosts.push(name.to_string());
            id
        };
        let (tx, rx) = mpsc::channel();
        let core = NodeCore::new(id, name.to_string(), Arc::clone(&self.shared), tx.clone());
        let join = std::thread::Builder::new()
            .name(format!("ppm-node-{name}"))
            .spawn(move || core.run(rx))
            .expect("spawn node thread");
        self.nodes.push(NodeHandle {
            tx,
            join: Some(join),
        });
        id
    }

    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.query(host, |reply| NodeEvent::SpawnUser { uid, spec, reply })
            .unwrap_or(Err(SysError::HostDown))
    }

    fn post_signal(&mut self, from: Uid, target: ProcKey, signal: Signal) -> Result<(), SysError> {
        let (host, target) = target;
        self.query(host, |reply| NodeEvent::PostSignal {
            from,
            target,
            signal,
            reply: Some(reply),
        })
        .unwrap_or(Err(SysError::HostDown))
    }

    fn find_proc(&self, host: HostId, uid: Uid, prefix: &str) -> Option<Pid> {
        let prefix = prefix.to_string();
        self.inspect(host, move |k| k.find_user_proc(uid, &prefix))
            .flatten()
    }

    fn run(&mut self, span: SimDuration) {
        // The node threads are already running; letting the world "run"
        // is simply letting wall-clock time pass.
        std::thread::sleep(Duration::from_micros(span.as_micros()));
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        self.inspect(host, move |k| k.is_alive(pid))
            .unwrap_or(false)
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        let key = key.to_string();
        self.inspect(host, move |k| k.stable_get(&key)).flatten()
    }

    fn metric_snapshots(&self) -> Vec<(String, Vec<MetricSample>)> {
        self.shared.hub().snapshots()
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Locked(self.shared.hub())
    }

    fn now(&self) -> Micros {
        self.clock.now()
    }
}

impl Drop for RealRuntime {
    fn drop(&mut self) {
        // Order matters: raise the shutdown flag first so acceptor loops
        // stop, then stop the node loops (their teardown closes streams,
        // which unblocks reader threads), then join.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for node in &self.nodes {
            let _ = node.tx.send(NodeEvent::Shutdown);
        }
        for node in &mut self.nodes {
            if let Some(join) = node.join.take() {
                let _ = join.join();
            }
        }
    }
}
