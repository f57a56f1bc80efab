//! User-level programs (actors) and the syscall error vocabulary.
//!
//! Every simulated process may carry a [`Program`]: a deterministic state
//! machine the world invokes when events arrive for that process. LPMs,
//! pmd, inetd, tools and user workloads are all `Program`s — exactly as in
//! the paper, where the PPM is "a distributed program based on a
//! collection of user-level processes".

use std::error::Error;
use std::fmt;

use crate::ids::HostId;
use crate::time::SimTime;
use bytes::Bytes;

use crate::events::KernelEvent;
use crate::ids::{ConnId, Pid, Port};
use crate::name::Name;
use crate::signal::{ExitStatus, Signal};
use crate::sys::Sys;

/// A kernel event message as deposited on an LPM's kernel socket.
///
/// `queued_at` is the instant the kernel generated the message; the
/// difference between the delivery time and `queued_at` is exactly the
/// quantity Table 1 of the paper reports. `S` holds the event's text,
/// as in [`KernelEvent`]: the kernel's queue holds `KernelMsg<Name>`,
/// a walk over a batch frame yields `KernelMsg<&str>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMsg<S = String> {
    /// The event.
    pub event: KernelEvent<S>,
    /// When the kernel queued the message.
    pub queued_at: SimTime,
}

impl<S> KernelMsg<S> {
    /// The same message with its event's text passed through `f`, as
    /// [`KernelEvent::map`] does.
    pub fn map<'a, T>(&'a self, f: impl FnOnce(&'a S) -> T) -> KernelMsg<T> {
        KernelMsg {
            event: self.event.map(f),
            queued_at: self.queued_at,
        }
    }
}

/// Errors returned by syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysError {
    /// Target pid does not exist (or has exited).
    NoSuchProcess,
    /// Caller's uid may not act on the target (ESRCH/EPERM).
    PermissionDenied,
    /// Named host is not part of the network.
    NoSuchHost,
    /// Target host has crashed.
    HostDown,
    /// No live route to the target host (network partition).
    Unreachable,
    /// No listener on the target port.
    ConnectionRefused,
    /// The connection is closed or broken.
    ConnectionClosed,
    /// The caller is not an endpoint of the connection.
    NotConnected,
    /// Another process already listens on the port.
    PortInUse,
    /// No such registered service (inetd).
    UnknownService,
    /// Target process is already traced by a different manager.
    AlreadyTraced,
    /// Malformed argument.
    InvalidArgument,
    /// Bad file descriptor.
    BadFileDescriptor,
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SysError::NoSuchProcess => "no such process",
            SysError::PermissionDenied => "permission denied",
            SysError::NoSuchHost => "no such host",
            SysError::HostDown => "host is down",
            SysError::Unreachable => "host unreachable",
            SysError::ConnectionRefused => "connection refused",
            SysError::ConnectionClosed => "connection closed",
            SysError::NotConnected => "not connected",
            SysError::PortInUse => "port in use",
            SysError::UnknownService => "unknown service",
            SysError::AlreadyTraced => "already traced",
            SysError::InvalidArgument => "invalid argument",
            SysError::BadFileDescriptor => "bad file descriptor",
        };
        f.write_str(s)
    }
}

impl Error for SysError {}

/// Connection lifecycle notifications delivered to [`Program::on_conn_event`].
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum ConnEvent {
    /// Server side: a client connected to a port this process listens on.
    Accepted {
        /// The connecting endpoint.
        peer: (HostId, Pid),
        /// The local port that accepted.
        port: Port,
    },
    /// Client side: the connection attempt succeeded.
    Established,
    /// Client side: the connection attempt failed.
    Failed(SysError),
    /// Either side: the connection was closed or broke (peer exit, host
    /// crash, partition discovered on send).
    Closed,
}

/// What a program wants done with a catchable signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigAction {
    /// Apply the default disposition (terminate for fatal signals).
    Default,
    /// The program handled it; no further action.
    Handled,
}

/// Specification for creating a process.
pub struct SpawnSpec {
    /// Command name (argv\[0\]). The process table keeps this value.
    pub command: Name,
    /// Behaviour, if any. `None` yields an inert process that only exists
    /// in the process table (most real UNIX processes, from the PPM's
    /// perspective, are exactly that).
    pub program: Option<Box<dyn Program>>,
    /// Whether the process counts toward the run queue permanently
    /// (a CPU-bound workload).
    pub cpu_bound: bool,
}

impl fmt::Debug for SpawnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpawnSpec")
            .field("command", &self.command)
            .field("has_program", &self.program.is_some())
            .field("cpu_bound", &self.cpu_bound)
            .finish()
    }
}

impl SpawnSpec {
    /// A process with behaviour.
    pub fn new(command: impl Into<Name>, program: Box<dyn Program>) -> Self {
        SpawnSpec {
            command: command.into(),
            program: Some(program),
            cpu_bound: false,
        }
    }

    /// An inert process with no behaviour.
    pub fn inert(command: impl Into<Name>) -> Self {
        SpawnSpec {
            command: command.into(),
            program: None,
            cpu_bound: false,
        }
    }

    /// Marks the process CPU-bound (it contributes to load average).
    pub fn cpu_bound(mut self, yes: bool) -> Self {
        self.cpu_bound = yes;
        self
    }
}

/// The behaviour of a process, under either backend.
///
/// All methods default to "ignore", so simple programs implement only what
/// they need. Handlers run to completion at a single instant of the
/// backend's clock; real elapsed work is modelled by calling
/// [`Sys::consume_cpu`] or by scheduling timers.
///
/// `Send` is required because the real backend runs each node's event
/// loop on its own thread and programs are spawned across nodes; the
/// simulation is single-threaded and simply never moves them.
pub trait Program: Send {
    /// The process began execution (after its fork+exec delay).
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let _ = sys;
    }

    /// A timer set via [`Sys::set_timer`] fired.
    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        let _ = (sys, token);
    }

    /// A message arrived on an established connection.
    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let _ = (sys, conn, data);
    }

    /// A connection changed state.
    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        let _ = (sys, conn, event);
    }

    /// The kernel reported events about processes this program traces: a
    /// coalesced batch of [`KernelMsg`]s arrived in one wakeup, as one
    /// encoded frame sequence. Only programs that registered a kernel
    /// socket receive batches, and this is the only way kernel events
    /// reach a program on any backend. The default ignores the frame; a
    /// tracer (the LPM) overrides this to decode each message with the
    /// wire codec, in queue order. (The decoding lives with the tracer
    /// because the codec is a protocol-layer concern this runtime crate
    /// does not depend on.)
    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        let _ = (sys, data);
    }

    /// A direct child of this process exited.
    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        let _ = (sys, child, status);
    }

    /// A catchable signal was delivered. Returning [`SigAction::Default`]
    /// applies the default disposition (fatal signals terminate).
    fn on_signal(&mut self, sys: &mut dyn Sys, signal: Signal) -> SigAction {
        let _ = (sys, signal);
        SigAction::Default
    }

    /// A deterministic fingerprint of this program's protocol-visible
    /// state. State-space explorers (the model checker) fold these into a
    /// world digest to recognize already-visited interleavings, so the
    /// digest must exclude monotonic diagnostics (counters, histories)
    /// that grow without changing future behaviour. Programs with no
    /// protocol state keep the default.
    fn state_digest(&self) -> u64 {
        0
    }

    /// Read access to the concrete program for harness-side inspection
    /// (the model checker's predicates downcast through this). Programs
    /// opt in by returning `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Short name for diagnostics.
    fn name(&self) -> &str {
        "program"
    }
}

/// The inert program: exists, does nothing, dies when told to.
#[derive(Debug, Default, Clone)]
pub struct Inert;

impl Program for Inert {
    fn name(&self) -> &str {
        "inert"
    }
}

/// Identifies a process world-wide.
pub type ProcKey = (HostId, Pid);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_error_displays_lowercase_without_punctuation() {
        let all = [
            SysError::NoSuchProcess,
            SysError::PermissionDenied,
            SysError::NoSuchHost,
            SysError::HostDown,
            SysError::Unreachable,
            SysError::ConnectionRefused,
            SysError::ConnectionClosed,
            SysError::NotConnected,
            SysError::PortInUse,
            SysError::UnknownService,
            SysError::AlreadyTraced,
            SysError::InvalidArgument,
            SysError::BadFileDescriptor,
        ];
        for e in all {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
            assert_eq!(s, s.to_lowercase());
        }
    }

    #[test]
    fn sys_error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SysError>();
    }

    #[test]
    fn spawn_spec_builders() {
        let s = SpawnSpec::inert("sleep").cpu_bound(true);
        assert_eq!(s.command, "sleep");
        assert!(s.program.is_none());
        assert!(s.cpu_bound);
        let s = SpawnSpec::new("worker", Box::new(Inert));
        assert!(s.program.is_some());
        assert!(!s.cpu_bound);
    }
}
