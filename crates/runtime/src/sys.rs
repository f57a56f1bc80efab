//! The backend-agnostic syscall surface available to programs.
//!
//! A `&mut dyn Sys` is handed to every [`crate::program::Program`]
//! callback. It identifies the calling process and exposes the host's
//! system calls — spawn/exit/kill/adopt, stream sockets, timers, files,
//! CPU accounting — plus read-only introspection (`ps`-style queries).
//!
//! Three backends implement it — the **simulated** world (`ppm-simos`:
//! discrete-event time, a modelled network), the **real** node runtime
//! (`ppm-realos`: the monotonic clock, loopback TCP) and the **model
//! checker** (`ppm-mc`: event order by explorer choice). Each supplies
//! only its clock, timers, transport and event order; everything about
//! processes, signals and kernel events is answered by the one host
//! kernel they share ([`crate::kernel::Kernel`]).
//!
//! Protocol code (`ppm-core`, the tools) is written against this trait
//! only, so the same LPM/pmd/RPC stack drives every world. The trait is
//! split into capability supertraits ([`Clock`], [`TimerDriver`],
//! [`Transport`], [`Spawner`]) so narrow helpers can accept only what
//! they use.
//!
//! ## Object safety and ergonomics
//!
//! The trait methods are deliberately monomorphic (`String`/[`Bytes`]
//! parameters) so `dyn Sys` works. The generic conveniences programs
//! actually call — `sys.send(conn, msg)`, `sys.stable_put(key, value)` —
//! are provided as inherent methods on `dyn Sys` itself, so call sites
//! need no extra imports. Tracing takes `format_args!(..)`: the text is
//! formatted by the backend, into its log, only if it keeps one.

use std::fmt;

use bytes::Bytes;

use crate::events::TraceFlags;
use crate::fd::{FdKind, OpenMode};
use crate::ids::{ConnId, CpuClass, Fd, HostId, Pid, Port, Uid};
use crate::obs::{SharedRegistry, SpanPhase};
use crate::process::{ProcInfo, Rusage};
use crate::program::{SpawnSpec, SysError};
use crate::signal::Signal;
use crate::time::{Micros, SimDuration};
use crate::trace::TraceCategory;

/// Stable-storage key under which a backend records the instant a host
/// crashed (8-byte big-endian microseconds). Written by the crash path,
/// read by pmd's recovery path to compute time-to-repair.
pub const CRASHED_AT_KEY: &str = "os.crashed_at";

/// Handle to a pending timer, usable to cancel it.
///
/// The payload is backend-defined: the simulation packs an engine event
/// id, the real runtime an entry in the node's timer heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(pub u64);

/// A source of protocol-visible time.
pub trait Clock {
    /// The current instant: simulated time in the simulation, microseconds
    /// since the shared cluster epoch on real nodes.
    fn now(&self) -> Micros;
}

/// One-shot timers delivered to [`crate::program::Program::on_timer`].
pub trait TimerDriver: Clock {
    /// Arms a one-shot timer; `token` comes back in
    /// [`crate::program::Program::on_timer`].
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle;

    /// Cancels a pending timer. Returns `false` if it already fired.
    fn cancel_timer(&mut self, handle: TimerHandle) -> bool;
}

/// Reliable ordered stream connections between processes.
pub trait Transport {
    /// Binds a listener on `port`.
    ///
    /// # Errors
    ///
    /// [`SysError::PortInUse`].
    fn listen(&mut self, port: Port) -> Result<(), SysError>;

    /// Starts a connection to `host:port`. The outcome arrives later as a
    /// [`crate::program::ConnEvent`].
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchHost`] for an invalid host id.
    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError>;

    /// Sends bytes on an established connection. (Prefer the inherent
    /// `send` convenience, which accepts `impl Into<Bytes>`.)
    ///
    /// # Errors
    ///
    /// [`SysError::NotConnected`] or [`SysError::ConnectionClosed`].
    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError>;

    /// Whether a connection is believed deliverable right now: the
    /// endpoints are up and the link between them is routable. Programs
    /// use this to validate cached next-hops before committing a send to
    /// them — a connection can look established while a fresh link cut
    /// has not yet produced its closed notification. Backends without
    /// that visibility (real TCP) report `true` and rely on send errors.
    fn conn_alive(&self, conn: ConnId) -> bool {
        let _ = conn;
        true
    }

    /// The network's reachability epoch: bumped whenever link or host
    /// state changes (partition, heal, named-link cut, crash, restart).
    /// Programs remember the last epoch they saw and revalidate cached
    /// routes when it moves. Backends without topology visibility (real
    /// TCP) never bump it.
    fn net_epoch(&self) -> u64 {
        0
    }

    /// Whether hosts `a` and `b` (by name) can currently exchange
    /// traffic — the pairwise check route-cache revalidation runs over a
    /// cached path's legs. Backends without a global view answer `true`
    /// and rely on send errors instead.
    fn edge_up(&self, a: &str, b: &str) -> bool {
        let _ = (a, b);
        true
    }

    /// Closes a connection.
    ///
    /// # Errors
    ///
    /// [`SysError::NotConnected`] if the caller is not an endpoint.
    fn close(&mut self, conn: ConnId) -> Result<(), SysError>;
}

/// Process creation and termination.
pub trait Spawner {
    /// Forks and execs a child of the calling process.
    ///
    /// # Errors
    ///
    /// [`SysError::HostDown`] (only during in-flight crash handling).
    fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, SysError>;

    /// Forks and execs a child *owned by another user* — the setuid spawn
    /// pmd uses to create a user's LPM. Root only.
    ///
    /// # Errors
    ///
    /// [`SysError::PermissionDenied`] for non-root callers.
    fn spawn_as(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError>;

    /// Terminates the calling process with `code`.
    fn exit(&mut self, code: i32);

    /// Sends a signal to a process on this host, with the caller's
    /// credentials.
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] or [`SysError::PermissionDenied`].
    fn kill(&mut self, target: Pid, signal: Signal) -> Result<(), SysError>;

    /// Asks inetd's registry to ensure a service runs on this host.
    /// Returns its pid and well-known port. Root only.
    ///
    /// # Errors
    ///
    /// [`SysError::PermissionDenied`] for non-root callers,
    /// [`SysError::UnknownService`] for unregistered names.
    fn spawn_service(&mut self, name: &str) -> Result<(Pid, Port), SysError>;
}

/// The full syscall interface bound to one calling process.
pub trait Sys: Clock + TimerDriver + Transport + Spawner {
    // ---- identity and environment --------------------------------------

    /// The calling process's host.
    fn host(&self) -> HostId;

    /// The calling process's host name.
    fn host_name(&self) -> &str;

    /// The host's CPU class.
    fn cpu_class(&self) -> CpuClass;

    /// The calling process's pid.
    fn pid(&self) -> Pid;

    /// The calling process's uid.
    fn uid(&self) -> Uid;

    /// The host's current load average (`uptime`).
    fn load_avg(&self) -> f64;

    /// Resolves a host name to an id (the name service).
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchHost`] when the name is unknown.
    fn resolve_host(&self, name: &str) -> Result<HostId, SysError>;

    /// All host names in the network (the `/etc/hosts` view).
    fn known_hosts(&self) -> Vec<String>;

    /// Records a trace entry attributed to this host. A backend whose
    /// trace is off or absent returns without formatting `text`.
    fn trace(&mut self, category: TraceCategory, text: fmt::Arguments<'_>);

    /// Whether span recording is enabled — callers guard on this before
    /// formatting correlation strings on hot paths.
    fn spans_enabled(&self) -> bool;

    /// Records a correlation-stamped span event attributed to this host
    /// (no-op unless span recording is enabled). (Prefer the inherent
    /// `span` convenience.)
    fn span_str(&mut self, name: &'static str, corr: String, phase: SpanPhase);

    /// Registers a shared metrics registry with the world's observability
    /// hub under `label`, so harnesses can sample it without protocol
    /// traffic. Re-registering a label replaces the previous handle.
    /// (Prefer the inherent `register_metrics` convenience.)
    fn register_metrics_str(&mut self, label: String, registry: SharedRegistry);

    /// A uniformly distributed value in `[0, 1)` — drawn from the seeded
    /// world RNG in the simulation, so runs stay replayable.
    fn random_unit(&mut self) -> f64;

    // ---- process management --------------------------------------------

    /// Adopts a process (the extended `ptrace` of the paper's Section 4):
    /// the caller becomes its tracer and receives kernel events per
    /// `flags`, for the target and all its future descendants.
    ///
    /// # Errors
    ///
    /// See [`crate::kernel::Kernel::adopt`].
    fn adopt(&mut self, target: Pid, flags: TraceFlags) -> Result<(), SysError>;

    /// Updates the tracing flags of an already-adopted process.
    ///
    /// # Errors
    ///
    /// Same as [`Sys::adopt`].
    fn set_trace_flags(&mut self, target: Pid, flags: TraceFlags) -> Result<(), SysError> {
        self.adopt(target, flags)
    }

    /// Allocates the kernel socket descriptor (LPMs call this once; see
    /// Figure 4 of the paper).
    fn register_kernel_socket(&mut self) -> Fd;

    /// `ps`-style info about one process on this host (any state).
    fn proc_info(&self, pid: Pid) -> Option<ProcInfo>;

    /// Live processes of `uid` on this host, in pid order.
    fn user_processes(&self, uid: Uid) -> Vec<ProcInfo>;

    /// Resource usage of a process on this host (live or recently exited).
    fn rusage_of(&self, pid: Pid) -> Option<Rusage>;

    /// Marks the caller CPU-bound (contributes to the run queue while
    /// running), or not.
    fn set_cpu_bound(&mut self, yes: bool);

    /// Scales a nominal (idle reference machine) CPU cost to this host's
    /// class and current load, with jitter — without consuming it. Used by
    /// programs that model their own internal concurrency (the LPM's
    /// handler processes run in parallel with its dispatcher). The real
    /// backend returns the nominal cost unchanged.
    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration;

    /// Consumes CPU: in the simulation the process is busy for the scaled
    /// cost (events queue behind it) and the cost is added to its rusage;
    /// on real nodes the work already happened, so this only accounts it.
    /// Returns the scaled elapsed time.
    fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration;

    // ---- stable storage ------------------------------------------------

    /// Writes a record to the host's stable storage. Survives process
    /// exits and host crashes — the paper's suggested hardening of pmd
    /// state ("could be stored in secondary (even stable) storage so as
    /// to survive the daemon's possible failure modes"). (Prefer the
    /// inherent `stable_put` convenience.)
    fn stable_put_kv(&mut self, key: String, value: Bytes);

    /// Reads a record from the host's stable storage.
    fn stable_get(&self, key: &str) -> Option<Bytes>;

    /// Deletes a record from the host's stable storage.
    fn stable_del(&mut self, key: &str);

    // ---- files -----------------------------------------------------------

    /// Opens a file, allocating a descriptor. (Prefer the inherent `open`
    /// convenience.)
    fn open_path(&mut self, path: String, mode: OpenMode) -> Fd;

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`SysError::BadFileDescriptor`].
    fn close_fd(&mut self, fd: Fd) -> Result<(), SysError>;

    /// The descriptor table of a same-user (or any, for root) process on
    /// this host.
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] or [`SysError::PermissionDenied`].
    fn open_fds(&self, pid: Pid) -> Result<Vec<(Fd, FdKind)>, SysError>;
}

/// Ergonomic generic wrappers over the monomorphic trait methods, as
/// inherent methods on the trait object so call sites need no imports.
impl dyn Sys + '_ {
    /// Records a correlation-stamped span event attributed to this host.
    pub fn span(&mut self, name: &'static str, corr: impl Into<String>, phase: SpanPhase) {
        self.span_str(name, corr.into(), phase);
    }

    /// Registers a shared metrics registry under `label`.
    pub fn register_metrics(&mut self, label: impl Into<String>, registry: SharedRegistry) {
        self.register_metrics_str(label.into(), registry);
    }

    /// Sends bytes on an established connection.
    ///
    /// # Errors
    ///
    /// [`SysError::NotConnected`] or [`SysError::ConnectionClosed`].
    pub fn send(&mut self, conn: ConnId, data: impl Into<Bytes>) -> Result<(), SysError> {
        self.send_bytes(conn, data.into())
    }

    /// Writes a record to the host's stable storage.
    pub fn stable_put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) {
        self.stable_put_kv(key.into(), value.into());
    }

    /// Opens a file, allocating a descriptor.
    pub fn open(&mut self, path: impl Into<String>, mode: OpenMode) -> Fd {
        self.open_path(path.into(), mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_is_object_safe_and_conveniences_resolve() {
        // A minimal in-memory backend: enough to prove `dyn Sys` works
        // and the inherent conveniences dispatch through it.
        #[derive(Default)]
        struct Mini {
            traces: Vec<(TraceCategory, String)>,
            sent: Vec<(ConnId, Bytes)>,
            stable: Vec<(String, Bytes)>,
            timers: u64,
        }
        impl Clock for Mini {
            fn now(&self) -> Micros {
                Micros::from_millis(1)
            }
        }
        impl TimerDriver for Mini {
            fn set_timer(&mut self, _d: SimDuration, _t: u64) -> TimerHandle {
                self.timers += 1;
                TimerHandle(self.timers)
            }
            fn cancel_timer(&mut self, _h: TimerHandle) -> bool {
                true
            }
        }
        impl Transport for Mini {
            fn listen(&mut self, _p: Port) -> Result<(), SysError> {
                Ok(())
            }
            fn connect(&mut self, _h: HostId, _p: Port) -> Result<ConnId, SysError> {
                Ok(ConnId(1))
            }
            fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
                self.sent.push((conn, data));
                Ok(())
            }
            fn close(&mut self, _c: ConnId) -> Result<(), SysError> {
                Ok(())
            }
        }
        impl Spawner for Mini {
            fn spawn(&mut self, _s: SpawnSpec) -> Result<Pid, SysError> {
                Ok(Pid(2))
            }
            fn spawn_as(&mut self, _u: Uid, _s: SpawnSpec) -> Result<Pid, SysError> {
                Err(SysError::PermissionDenied)
            }
            fn exit(&mut self, _code: i32) {}
            fn kill(&mut self, _t: Pid, _s: Signal) -> Result<(), SysError> {
                Ok(())
            }
            fn spawn_service(&mut self, _n: &str) -> Result<(Pid, Port), SysError> {
                Err(SysError::UnknownService)
            }
        }
        impl Sys for Mini {
            fn host(&self) -> HostId {
                HostId(0)
            }
            fn host_name(&self) -> &str {
                "mini"
            }
            fn cpu_class(&self) -> CpuClass {
                CpuClass::Vax780
            }
            fn pid(&self) -> Pid {
                Pid(2)
            }
            fn uid(&self) -> Uid {
                Uid(7)
            }
            fn load_avg(&self) -> f64 {
                0.0
            }
            fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
                if name == "mini" {
                    Ok(HostId(0))
                } else {
                    Err(SysError::NoSuchHost)
                }
            }
            fn known_hosts(&self) -> Vec<String> {
                vec!["mini".into()]
            }
            fn trace(&mut self, category: TraceCategory, text: fmt::Arguments<'_>) {
                self.traces.push((category, text.to_string()));
            }
            fn spans_enabled(&self) -> bool {
                false
            }
            fn span_str(&mut self, _n: &'static str, _c: String, _p: SpanPhase) {}
            fn register_metrics_str(&mut self, _l: String, _r: SharedRegistry) {}
            fn random_unit(&mut self) -> f64 {
                0.5
            }
            fn adopt(&mut self, _t: Pid, _f: TraceFlags) -> Result<(), SysError> {
                Ok(())
            }
            fn register_kernel_socket(&mut self) -> Fd {
                Fd(3)
            }
            fn proc_info(&self, _p: Pid) -> Option<ProcInfo> {
                None
            }
            fn user_processes(&self, _u: Uid) -> Vec<ProcInfo> {
                Vec::new()
            }
            fn rusage_of(&self, _p: Pid) -> Option<Rusage> {
                None
            }
            fn set_cpu_bound(&mut self, _y: bool) {}
            fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
                nominal
            }
            fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration {
                nominal
            }
            fn stable_put_kv(&mut self, key: String, value: Bytes) {
                self.stable.push((key, value));
            }
            fn stable_get(&self, key: &str) -> Option<Bytes> {
                self.stable
                    .iter()
                    .rev()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            }
            fn stable_del(&mut self, key: &str) {
                self.stable.retain(|(k, _)| k != key);
            }
            fn open_path(&mut self, _p: String, _m: OpenMode) -> Fd {
                Fd(4)
            }
            fn close_fd(&mut self, _fd: Fd) -> Result<(), SysError> {
                Ok(())
            }
            fn open_fds(&self, _p: Pid) -> Result<Vec<(Fd, FdKind)>, SysError> {
                Ok(Vec::new())
            }
        }

        let mut mini = Mini::default();
        let sys: &mut dyn Sys = &mut mini;
        assert_eq!(sys.now(), Micros::from_millis(1));
        sys.trace(TraceCategory::Tool, format_args!("n={}", 1));
        let conn = sys.connect(HostId(0), Port(9)).unwrap();
        sys.send(conn, Bytes::from_static(b"hi")).unwrap();
        sys.stable_put("k", Bytes::from_static(b"v"));
        assert_eq!(sys.stable_get("k"), Some(Bytes::from_static(b"v")));
        let t = sys.set_timer(SimDuration::from_millis(5), 7);
        assert!(sys.cancel_timer(t));
        assert_eq!(mini.traces.len(), 1);
        assert_eq!(mini.sent.len(), 1);
    }

    #[test]
    fn crashed_at_key_is_stable() {
        assert_eq!(CRASHED_AT_KEY, "os.crashed_at");
    }
}
