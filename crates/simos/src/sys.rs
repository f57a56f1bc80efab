//! The simulated backend of the [`ppm_runtime::sys::Sys`] syscall surface.
//!
//! A [`Sys`] borrows the world core and identifies the calling process;
//! the world constructs one around every [`ppm_runtime::Program`]
//! callback. All behaviour — spawn/exit/kill/adopt, stream sockets,
//! timers, files, CPU accounting, `ps`-style queries — is defined by the
//! trait contracts in `ppm_runtime::sys`; this module maps them onto the
//! discrete-event world.

use bytes::Bytes;
use ppm_runtime::obs::{SharedRegistry, SpanPhase};
use ppm_runtime::sys::{Clock, Spawner, TimerDriver, TimerHandle, Transport};
use ppm_runtime::trace::TraceCategory;
use ppm_simnet::engine::EventId;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostId};

use ppm_runtime::ids::{ConnId, Pid, Port, Uid};
use ppm_runtime::kernel::{Effects, Kernel};
use ppm_runtime::program::{ProcKey, SpawnSpec, SysError};
use ppm_runtime::signal::{ExitStatus, Signal};

use crate::world::{SimEvent, WorldCore};

/// The simulated syscall interface bound to one calling process.
pub struct Sys<'a> {
    core: &'a mut WorldCore,
    key: ProcKey,
}

impl<'a> Sys<'a> {
    pub(crate) fn new(core: &'a mut WorldCore, key: ProcKey) -> Self {
        Sys { core, key }
    }

    /// Accounts a received stream message against the caller and emits
    /// the IPC kernel event if traced. Called by the world at actual
    /// delivery time.
    pub(crate) fn account_msg_received(&mut self, bytes: usize) {
        let pid = self.key.1;
        self.kernel_call(|k, now, fx| k.account_received(pid, bytes, now, fx));
    }

    fn kernel(&self) -> &Kernel {
        self.core.kernel(self.key.0)
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        self.core.kernel_mut(self.key.0)
    }

    /// A call into this host's kernel; its effects are scheduled.
    fn kernel_call<R>(&mut self, f: impl FnOnce(&mut Kernel, SimTime, &mut Effects) -> R) -> R {
        self.core.kernel_call(self.key.0, f)
    }
}

impl Clock for Sys<'_> {
    fn now(&self) -> SimTime {
        self.core.now()
    }
}

impl TimerDriver for Sys<'_> {
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let id = self
            .core
            .engine
            .schedule(delay, SimEvent::Timer(self.key, token));
        TimerHandle(id.raw())
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.core.engine.cancel(EventId::from_raw(handle.0))
    }
}

impl Transport for Sys<'_> {
    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        self.core.listen(self.key, port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        self.core.connect(self.key, host, port)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        self.core.send(self.key, conn, data)
    }

    fn conn_alive(&self, conn: ConnId) -> bool {
        self.core.conn_alive(self.key, conn)
    }

    fn net_epoch(&self) -> u64 {
        self.core.net_epoch()
    }

    fn edge_up(&self, a: &str, b: &str) -> bool {
        match (self.core.host_by_name(a), self.core.host_by_name(b)) {
            (Some(ha), Some(hb)) => self.core.edge_up(ha, hb),
            _ => false,
        }
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        self.core.close(self.key, conn)
    }
}

impl Spawner for Sys<'_> {
    fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, SysError> {
        let uid = ppm_runtime::sys::Sys::uid(self);
        self.core.spawn(self.key.0, self.key.1, uid, spec, None)
    }

    fn spawn_as(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if !ppm_runtime::sys::Sys::uid(self).is_root() {
            return Err(SysError::PermissionDenied);
        }
        self.core.spawn(self.key.0, self.key.1, uid, spec, None)
    }

    fn exit(&mut self, code: i32) {
        self.core.do_exit(self.key, ExitStatus::Code(code));
    }

    fn kill(&mut self, target: Pid, signal: Signal) -> Result<(), SysError> {
        let uid = ppm_runtime::sys::Sys::uid(self);
        self.core.post_signal(uid, (self.key.0, target), signal)
    }

    fn spawn_service(&mut self, name: &str) -> Result<(Pid, Port), SysError> {
        if !ppm_runtime::sys::Sys::uid(self).is_root() {
            return Err(SysError::PermissionDenied);
        }
        self.core.spawn_service(self.key.0, name)
    }
}

impl ppm_runtime::sys::Sys for Sys<'_> {
    // ---- identity and environment --------------------------------------

    fn host(&self) -> HostId {
        self.key.0
    }

    fn host_name(&self) -> &str {
        self.core.host_name(self.key.0)
    }

    fn cpu_class(&self) -> CpuClass {
        self.core.topology().spec(self.key.0).cpu
    }

    fn pid(&self) -> Pid {
        self.key.1
    }

    fn uid(&self) -> Uid {
        self.kernel().uid_of(self.key.1)
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.core.host_by_name(name).ok_or(SysError::NoSuchHost)
    }

    fn known_hosts(&self) -> Vec<String> {
        self.core
            .topology()
            .host_ids()
            .map(|h| self.core.host_name(h).to_string())
            .collect()
    }

    fn trace(&mut self, category: TraceCategory, text: std::fmt::Arguments<'_>) {
        let host = self.key.0;
        self.core.tracef(Some(host), category, text);
    }

    fn spans_enabled(&self) -> bool {
        self.core.obs.spans.is_enabled()
    }

    fn span_str(&mut self, name: &'static str, corr: String, phase: SpanPhase) {
        if !self.core.obs.spans.is_enabled() {
            return;
        }
        let host = self.key.0;
        let now = self.core.now();
        self.core
            .obs
            .spans
            .record(now, Some(host), name, corr, phase);
    }

    fn register_metrics_str(&mut self, label: String, registry: SharedRegistry) {
        self.core.obs.register(label, registry);
    }

    fn random_unit(&mut self) -> f64 {
        self.core.rng.unit_f64()
    }

    // ---- process management --------------------------------------------

    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        self.core.scaled_cpu_cost(self.key.0, nominal)
    }

    fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration {
        let scaled = self.core.scaled_cpu_cost(self.key.0, nominal);
        let (pid, now) = (self.key.1, self.core.now());
        self.kernel_mut().charge_cpu(pid, scaled, now);
        scaled
    }

    ppm_runtime::kernel_syscalls!();
}

#[cfg(test)]
mod tests {
    //! `Sys` is exercised end-to-end in the world tests and the
    //! integration suites; here we only check the pieces with no event
    //! dependencies.
    use super::*;
    use crate::world::World;
    use ppm_runtime::fd::OpenMode;
    use ppm_runtime::program::Program;
    use ppm_simnet::topology::HostSpec;

    struct Probe;
    impl Program for Probe {
        fn on_start(&mut self, sys: &mut dyn ppm_runtime::sys::Sys) {
            assert_eq!(sys.host_name(), "a");
            assert!(sys.pid().0 > 1);
            assert_eq!(sys.uid(), Uid(7));
            let fd = sys.open("/tmp/file", OpenMode::ReadWrite);
            assert!(sys.close_fd(fd).is_ok());
            assert!(sys.close_fd(fd).is_err());
            let hosts = sys.known_hosts();
            assert_eq!(hosts, vec!["a".to_string()]);
            assert!(sys.resolve_host("a").is_ok());
            assert!(sys.resolve_host("zzz").is_err());
            let t = sys.set_timer(SimDuration::from_millis(5), 1);
            assert!(sys.cancel_timer(t));
            sys.exit(0);
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn basic_syscalls_work_from_a_program() {
        let mut w = World::new(5);
        let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
        let pid = w
            .spawn_user(a, Uid(7), SpawnSpec::new("probe", Box::new(Probe)))
            .unwrap();
        w.run_for(SimDuration::from_millis(500));
        let p = w.core().kernel(a).get(pid).unwrap();
        assert!(!p.is_alive(), "probe exited cleanly");
        assert_eq!(p.rusage.files_opened, 1);
    }
}
