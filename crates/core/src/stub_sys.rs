//! A backend for white-box tests that feed a state machine the events an
//! integration run never produces on demand (a refused dial, a sibling
//! flooding a wave): every connect succeeds with the next id, every send
//! is kept, every close accepted and an exit noted, the clock stands at
//! zero and timers never fire. Anything else is a test that asked for
//! more than it meant.

use bytes::Bytes;
use ppm_runtime::ids::{ConnId, HostId, Pid, Port, Uid};
use ppm_runtime::kernel::{Effects, Kernel};
use ppm_runtime::obs::{HubRef, ObsHub};
use ppm_runtime::program::{Program, SpawnSpec, SysError};
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{SimDuration, SimTime};

pub(crate) struct StubSys {
    /// Connections opened so far; the last one's id.
    pub conns: u64,
    /// Everything sent, in order.
    pub sent: Vec<Bytes>,
    /// The code the program exited with, once it has.
    pub exited: Option<i32>,
    pub hub: ObsHub,
}

impl StubSys {
    pub fn new(trace: bool) -> Self {
        StubSys {
            conns: 0,
            sent: Vec::new(),
            exited: None,
            hub: ObsHub::new(trace),
        }
    }
}

impl Sys for StubSys {
    fn connect(&mut self, _: HostId, _: Port) -> Result<ConnId, SysError> {
        self.conns += 1;
        Ok(ConnId(self.conns))
    }
    fn send_bytes(&mut self, _: ConnId, data: Bytes) -> Result<(), SysError> {
        self.sent.push(data);
        Ok(())
    }
    fn close(&mut self, _: ConnId) -> Result<(), SysError> {
        Ok(())
    }
    fn hub(&mut self) -> HubRef<'_> {
        HubRef::Own(&mut self.hub)
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn host(&self) -> HostId {
        HostId(0)
    }
    fn set_timer(&mut self, _: SimDuration, _: u64) {}
    fn host_name(&self) -> &str {
        unimplemented!()
    }
    fn pid(&self) -> Pid {
        unimplemented!()
    }
    fn listen(&mut self, _: Port) -> Result<(), SysError> {
        unimplemented!()
    }
    fn resolve_host(&self, _: &str) -> Result<HostId, SysError> {
        unimplemented!()
    }
    fn random_unit(&mut self) -> f64 {
        unimplemented!()
    }
    fn exit(&mut self, code: i32) {
        self.exited = Some(code);
    }
    fn fork_exec(&mut self, _: Pid, _: Uid, _: SpawnSpec) -> Result<Pid, SysError> {
        unimplemented!()
    }
    fn post_signal(&mut self, _: Pid, _: Signal) -> Result<(), SysError> {
        unimplemented!()
    }
    fn conn_alive(&self, _: ConnId) -> bool {
        true
    }
    fn net_epoch(&self) -> u64 {
        0
    }
    fn edge_up(&self, _: &str, _: &str) -> bool {
        true
    }
    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        nominal
    }
    fn make_service(&self, _: &str) -> Option<(Port, Box<dyn Program>)> {
        unimplemented!()
    }
    fn kernel(&self) -> &Kernel {
        unimplemented!()
    }
    fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects) {
        unimplemented!()
    }
    fn flush_effects(&mut self) {
        unimplemented!()
    }
}
