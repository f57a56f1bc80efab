//! The simulated backend of the [`ppm_runtime::sys::Sys`] syscall surface.
//!
//! A [`Sys`] borrows the world core and identifies the calling process;
//! the world constructs one around every [`ppm_runtime::Program`]
//! callback. This module supplies the trait's required methods — the
//! virtual clock, the timer wheel, modelled streams, the topology's host
//! table, the seeded RNG and cost model, raw fork and signal scheduling;
//! everything else a program calls `ppm_runtime::sys` provides on top.

use bytes::Bytes;
use ppm_runtime::obs::HubRef;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::HostId;

use ppm_runtime::ids::{ConnId, Pid, Port, Uid};
use ppm_runtime::kernel::{Effects, Kernel};
use ppm_runtime::program::{ProcKey, Program, SpawnSpec, SysError};
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
        let (host, pid) = self.key;
        self.core
            .kernel_call(host, |k, now, fx| k.account_received(pid, bytes, now, fx));
    }
}

impl ppm_runtime::sys::Sys for Sys<'_> {
    fn now(&self) -> SimTime {
        self.core.now()
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let boot = self.core.kernel(self.key.0).boot_count();
        self.core
            .engine
            .schedule(delay, SimEvent::Timer(self.key, token, boot));
    }

    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        self.core.listen(self.key, port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        self.core.connect(self.key, host, port)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        self.core.send(self.key, conn, data)
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        self.core.close(self.key, conn)
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

    fn host(&self) -> HostId {
        self.key.0
    }

    fn host_name(&self) -> &str {
        self.core.host_name(self.key.0)
    }

    fn pid(&self) -> Pid {
        self.key.1
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.core.host_by_name(name).ok_or(SysError::NoSuchHost)
    }

    fn random_unit(&mut self) -> f64 {
        self.core.rng.unit_f64()
    }

    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        self.core.scaled_cpu_cost(self.key.0, nominal)
    }

    fn exit(&mut self, code: i32) {
        self.core.do_exit(self.key, ExitStatus::Code(code));
    }

    fn fork_exec(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.core.spawn(self.key.0, parent, uid, spec, None)
    }

    fn post_signal(&mut self, target: Pid, signal: Signal) {
        self.core.schedule_signal((self.key.0, target), signal);
    }

    fn make_service(&self, name: &str) -> Option<(Port, Box<dyn Program>)> {
        self.core.services.make(name, self.key.0)
    }

    fn kernel(&self) -> &Kernel {
        self.core.kernel(self.key.0)
    }

    fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects) {
        self.core.kernel_fx(self.key.0)
    }

    fn flush_effects(&mut self) {
        self.core.apply_effects(self.key.0);
    }

    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.core.obs)
    }
}

#[cfg(test)]
mod tests {
    //! `Sys` is exercised end-to-end in the world tests and the
    //! integration suites; here we only check the pieces with no event
    //! dependencies.
    use super::*;
    use crate::world::World;
    use ppm_runtime::fd::OpenMode;
    use ppm_simnet::topology::{CpuClass, HostSpec};

    struct Probe;
    impl Program for Probe {
        fn on_start(&mut self, sys: &mut dyn ppm_runtime::sys::Sys) {
            assert_eq!(sys.host_name(), "a");
            assert!(sys.pid().0 > 1);
            assert_eq!(sys.uid(), Uid(7));
            let fd = sys.open("/tmp/file", OpenMode::ReadWrite);
            assert!(sys.close_fd(fd).is_ok());
            assert!(sys.close_fd(fd).is_err());
            assert!(sys.resolve_host("a").is_ok());
            assert!(sys.resolve_host("zzz").is_err());
            sys.set_timer(SimDuration::from_millis(5), 1);
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
