//! The backend-agnostic syscall surface available to programs.
//!
//! A `&mut dyn Sys` is handed to every [`crate::program::Program`]
//! callback. It identifies the calling process and exposes the host's
//! system calls — spawn/exit/kill/adopt, stream sockets, timers, files,
//! CPU accounting — plus read-only introspection (`ps`-style queries).
//!
//! Every program on every backend — the **simulated** world
//! (`ppm-simos`, which the model checker `ppm-mc` explores) and the
//! **real** node runtime (`ppm-realos`) — is lent the one implementation the
//! host driver writes, [`crate::host::Caller`]; a backend supplies only
//! its clock, timers, transport and event order
//! ([`crate::host::Backend`]), and everything about processes, signals
//! and kernel events is answered by the one host kernel they share
//! ([`crate::kernel::Kernel`]).
//!
//! Protocol code (`ppm-core`, the tools) is written against this trait
//! only, so the same LPM/pmd/RPC stack drives every world. The trait is
//! flat: its *required* methods are what the driver supplies — the
//! clock, one-shot timers, the transport, identity and name resolution,
//! chance and cost, raw process creation and signal posting, inetd's
//! registry, and access to its [`Kernel`], effects sink and
//! [`ObsHub`](crate::obs::ObsHub) — and only what some program calls.
//! Timers are armed and run out; there is no cancel, because the PPM's
//! timers (time-to-live, time-to-die, retention, probes, RPC steps) are
//! forgotten by their owner rather than called off, and a forgotten
//! timer's fire is a no-op.
//! Everything else — permission checks, inetd's start-once rule, CPU
//! accounting, tracing, spans, published registries and every call the
//! kernel answers by itself — is a *provided* method, written once here.
//!
//! ## Object safety and ergonomics
//!
//! The trait methods are deliberately monomorphic (`String`/[`Bytes`]
//! parameters) so `dyn Sys` works. The generic conveniences programs
//! actually call — `sys.send(conn, msg)`, `sys.stable_put(key, value)` —
//! are provided as inherent methods on `dyn Sys` itself, so call sites
//! need no extra imports. Tracing and spans take `format_args!(..)`: the
//! text is formatted by the hub, into its log, only if it keeps one.

use std::fmt;

use bytes::Bytes;

use crate::events::TraceFlags;
use crate::fd::{FdKind, OpenMode};
use crate::ids::{ConnId, Fd, HostId, Pid, Port, Uid};
use crate::kernel::{Effects, Kernel};
use crate::obs::{HubRef, SharedRegistry, SpanPhase};
use crate::process::{ProcInfo, Rusage};
use crate::program::{Program, SpawnSpec, SysError};
use crate::signal::Signal;
use crate::time::{Micros, SimDuration};
use crate::trace::TraceCategory;

/// Stable-storage key under which a backend records the instant a host
/// crashed (8-byte big-endian microseconds). Written by the crash path,
/// read by pmd's recovery path to compute time-to-repair.
pub const CRASHED_AT_KEY: &str = "os.crashed_at";

/// The full syscall interface bound to one calling process.
pub trait Sys {
    // ==== what a backend supplies =========================================

    // ---- clock and timers ----------------------------------------------

    /// The current instant: simulated time in the simulation, microseconds
    /// since the shared cluster epoch on real nodes.
    fn now(&self) -> Micros;

    /// Arms a one-shot timer; `token` comes back in
    /// [`crate::program::Program::on_timer`]. There is no cancel: a
    /// program that no longer wants a timer forgets its token and
    /// ignores the fire.
    fn set_timer(&mut self, delay: SimDuration, token: u64);

    // ---- transport -----------------------------------------------------

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

    /// Closes a connection.
    ///
    /// # Errors
    ///
    /// [`SysError::NotConnected`] if the caller is not an endpoint.
    fn close(&mut self, conn: ConnId) -> Result<(), SysError>;

    /// Whether a connection is believed deliverable right now: the caller
    /// holds it established ([`crate::conn::ConnTable::established`]),
    /// and as far as the backend can see, the peer is up and routable.
    /// Programs use this to validate cached next-hops before committing a
    /// send to them — a connection can look established while a fresh
    /// link cut has not yet produced its closed notification.
    fn conn_alive(&self, conn: ConnId) -> bool;

    /// The network's reachability epoch: bumped whenever link or host
    /// state changes (partition, heal, named-link cut, crash, restart).
    /// Programs remember the last epoch they saw and revalidate cached
    /// routes when it moves. Backends without topology visibility (real
    /// TCP) never bump it.
    fn net_epoch(&self) -> u64;

    /// Whether hosts `a` and `b` (by name) can currently exchange
    /// traffic — the pairwise check route-cache revalidation runs over a
    /// cached path's legs. Backends without a global view answer `true`
    /// and rely on send errors instead.
    fn edge_up(&self, a: &str, b: &str) -> bool;

    // ---- identity and the host table -----------------------------------

    /// The calling process's host.
    fn host(&self) -> HostId;

    /// The calling process's host name.
    fn host_name(&self) -> &str;

    /// The calling process's pid.
    fn pid(&self) -> Pid;

    /// Resolves a host name to an id (the name service).
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchHost`] when the name is unknown.
    fn resolve_host(&self, name: &str) -> Result<HostId, SysError>;

    // ---- chance and cost -------------------------------------------------

    /// A uniformly distributed value in `[0, 1)` — drawn from the seeded
    /// world RNG in the simulation, so runs stay replayable.
    fn random_unit(&mut self) -> f64;

    /// Scales a nominal (idle reference machine) CPU cost to this host's
    /// class and current load, with jitter — without consuming it. Used by
    /// programs that model their own internal concurrency (the LPM's
    /// handler processes run in parallel with its dispatcher). Backends
    /// without a load model (real nodes, where the work takes the time it
    /// takes) return the nominal cost unchanged.
    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration;

    // ---- processes, raw --------------------------------------------------

    /// Terminates the calling process with `code`.
    fn exit(&mut self, code: i32);

    /// Forks and execs a process owned by `uid` under `parent`, checking
    /// nothing: the raw half of [`Sys::spawn`], [`Sys::spawn_as`] and
    /// [`Sys::spawn_service`], which programs call instead.
    ///
    /// # Errors
    ///
    /// [`SysError::HostDown`] (only during in-flight crash handling).
    fn fork_exec(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError>;

    /// Schedules delivery of `signal` to `target` on this host, checking
    /// nothing of the target: the raw half of [`Sys::kill`].
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] when the caller itself has exited.
    fn post_signal(&mut self, target: Pid, signal: Signal) -> Result<(), SysError>;

    /// Looks `name` up in inetd's registry: its well-known port and a
    /// fresh instance of its program for this host.
    fn make_service(&self, name: &str) -> Option<(Port, Box<dyn Program>)>;

    // ---- the host's kernel and the world's hub ---------------------------

    /// This host's kernel. Backend plumbing for the provided methods
    /// below; programs use those.
    fn kernel(&self) -> &Kernel;

    /// This host's kernel with the backend's effects sink, for a kernel
    /// call that may ask for something to be scheduled; follow it with
    /// [`Sys::flush_effects`].
    fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects);

    /// Schedules whatever the kernel calls since the last flush asked
    /// for, in the order they asked.
    fn flush_effects(&mut self);

    /// The world's observability hub.
    fn hub(&mut self) -> HubRef<'_>;

    // ==== written once, on top of the above ===============================

    // ---- identity and environment --------------------------------------

    /// The calling process's uid.
    fn uid(&self) -> Uid {
        self.kernel().uid_of(self.pid())
    }

    /// The host's current load average (`uptime`).
    fn load_avg(&self) -> f64 {
        self.kernel().load_avg()
    }

    /// Records a trace entry attributed to this host. With tracing off
    /// `text` is never formatted.
    fn trace(&mut self, category: TraceCategory, text: fmt::Arguments<'_>) {
        // Asked first: reading a backend's clock may be a system call.
        if self.hub().trace.is_enabled() {
            let (now, host) = (self.now(), self.host());
            self.hub().trace.record(now, Some(host), category, text);
        }
    }

    /// Records a correlation-stamped span event attributed to this host.
    /// With span recording off `corr` is never formatted.
    fn span(&mut self, name: &'static str, corr: fmt::Arguments<'_>, phase: SpanPhase) {
        if self.hub().spans.is_enabled() {
            let (now, host) = (self.now(), self.host());
            self.hub().spans.record(now, Some(host), name, corr, phase);
        }
    }

    /// Publishes a shared metrics registry in the world's hub under
    /// `label`, so harnesses can sample it without protocol traffic.
    /// Re-registering a label replaces the previous handle.
    fn register_metrics(&mut self, label: String, registry: SharedRegistry) {
        self.hub().register(label, registry);
    }

    // ---- process management --------------------------------------------

    /// Forks and execs a child of the calling process.
    ///
    /// # Errors
    ///
    /// [`SysError::HostDown`] (only during in-flight crash handling).
    fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, SysError> {
        let (pid, uid) = (self.pid(), self.uid());
        self.fork_exec(pid, uid, spec)
    }

    /// Forks and execs a child *owned by another user* — the setuid spawn
    /// pmd uses to create a user's LPM. Root only.
    ///
    /// # Errors
    ///
    /// [`SysError::PermissionDenied`] for non-root callers.
    fn spawn_as(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if !self.uid().is_root() {
            return Err(SysError::PermissionDenied);
        }
        let pid = self.pid();
        self.fork_exec(pid, uid, spec)
    }

    /// Sends a signal to a process on this host, with the caller's
    /// credentials.
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] or [`SysError::PermissionDenied`].
    fn kill(&mut self, target: Pid, signal: Signal) -> Result<(), SysError> {
        self.kernel().may_signal(self.uid(), target)?;
        self.post_signal(target, signal)
    }

    /// Asks inetd's registry to ensure a service runs on this host:
    /// the running daemon if there is one, else a fresh one under init.
    /// Returns its pid and well-known port. Root only.
    ///
    /// # Errors
    ///
    /// [`SysError::PermissionDenied`] for non-root callers,
    /// [`SysError::UnknownService`] for unregistered names.
    fn spawn_service(&mut self, name: &str) -> Result<(Pid, Port), SysError> {
        if !self.uid().is_root() {
            return Err(SysError::PermissionDenied);
        }
        if let Some(running) = self.kernel().service(name) {
            return Ok(running);
        }
        let (port, program) = self.make_service(name).ok_or(SysError::UnknownService)?;
        let spec = SpawnSpec::new(name.to_string(), program);
        let pid = self.fork_exec(Pid::INIT, Uid::ROOT, spec)?;
        self.kernel_fx().0.register_service(name, pid, port);
        self.trace(
            TraceCategory::Daemon,
            format_args!("service {name} started as pid {pid} (port {port})"),
        );
        Ok((pid, port))
    }

    /// Adopts a process (the extended `ptrace` of the paper's Section 4):
    /// the caller becomes its tracer and receives kernel events per
    /// `flags`, for the target and all its future descendants.
    ///
    /// # Errors
    ///
    /// See [`crate::kernel::Kernel::adopt`].
    fn adopt(&mut self, target: Pid, flags: TraceFlags) -> Result<(), SysError> {
        let (tracer, uid) = (self.pid(), self.uid());
        self.kernel_fx().0.adopt(target, tracer, uid, flags)?;
        self.trace(
            TraceCategory::Lpm,
            format_args!("adopted pid {target} with flags {flags}"),
        );
        Ok(())
    }

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
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] after the caller's own exit.
    fn register_kernel_socket(&mut self) -> Result<Fd, SysError> {
        let pid = self.pid();
        self.kernel_fx().0.register_kernel_socket(pid)
    }

    /// `ps`-style info about one process on this host (any state).
    fn proc_info(&self, pid: Pid) -> Option<ProcInfo> {
        self.kernel().proc_info(pid)
    }

    /// Live processes of `uid` on this host, in pid order.
    fn user_processes(&self, uid: Uid) -> Vec<ProcInfo> {
        self.kernel().user_processes(uid)
    }

    /// Resource usage of a process on this host (live or recently exited).
    fn rusage_of(&self, pid: Pid) -> Option<Rusage> {
        self.kernel().rusage_of(pid)
    }

    /// Marks the caller CPU-bound (contributes to the run queue while
    /// running), or not.
    fn set_cpu_bound(&mut self, yes: bool) {
        let pid = self.pid();
        self.kernel_fx().0.set_cpu_bound(pid, yes);
    }

    /// Consumes CPU: in the simulation the process is busy for the scaled
    /// cost (events queue behind it) and the cost is added to its rusage;
    /// on real nodes the work already happened, so this only accounts it.
    /// Returns the scaled elapsed time.
    fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration {
        let scaled = self.scale_cost(nominal);
        let (pid, now) = (self.pid(), self.now());
        self.kernel_fx().0.charge_cpu(pid, scaled, now);
        scaled
    }

    // ---- stable storage ------------------------------------------------

    /// Writes a record to the host's stable storage. Survives process
    /// exits and host crashes — the paper's suggested hardening of pmd
    /// state ("could be stored in secondary (even stable) storage so as
    /// to survive the daemon's possible failure modes"). (Prefer the
    /// inherent `stable_put` convenience.)
    fn stable_put_kv(&mut self, key: String, value: Bytes) {
        self.kernel_fx().0.stable_put(key, value);
    }

    /// Reads a record from the host's stable storage.
    fn stable_get(&self, key: &str) -> Option<Bytes> {
        self.kernel().stable_get(key)
    }

    // ---- files -----------------------------------------------------------

    /// Opens a file, allocating a descriptor. (Prefer the inherent `open`
    /// convenience.)
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] after the caller's own exit.
    fn open_path(&mut self, path: String, mode: OpenMode) -> Result<Fd, SysError> {
        let (pid, now) = (self.pid(), self.now());
        let (kernel, fx) = self.kernel_fx();
        let fd = kernel.open_path(pid, path, mode, now, fx);
        self.flush_effects();
        fd
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`SysError::BadFileDescriptor`].
    fn close_fd(&mut self, fd: Fd) -> Result<(), SysError> {
        let (pid, now) = (self.pid(), self.now());
        let (kernel, fx) = self.kernel_fx();
        let released = kernel.close_fd(pid, fd, now, fx);
        self.flush_effects();
        if let Some(conn) = released? {
            let _ = self.close(conn);
        }
        Ok(())
    }

    /// The descriptor table of a same-user (or any, for root) process on
    /// this host.
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] or [`SysError::PermissionDenied`].
    fn open_fds(&self, pid: Pid) -> Result<Vec<(Fd, FdKind)>, SysError> {
        self.kernel().open_fds(self.uid(), pid)
    }
}

/// Ergonomic generic wrappers over the monomorphic trait methods, as
/// inherent methods on the trait object so call sites need no imports.
impl dyn Sys + '_ {
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
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] after the caller's own exit.
    pub fn open(&mut self, path: impl Into<String>, mode: OpenMode) -> Result<Fd, SysError> {
        self.open_path(path.into(), mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsHub;

    #[test]
    fn sys_is_object_safe_and_conveniences_resolve() {
        // A minimal in-memory backend — the required methods and nothing
        // else: enough to prove `dyn Sys` works, the provided methods run
        // on it and the inherent conveniences dispatch through it.
        struct Mini {
            kernel: Kernel,
            fx: Effects,
            hub: ObsHub,
            pid: Pid,
            sent: Vec<(ConnId, Bytes)>,
            timers: u64,
        }
        impl Sys for Mini {
            fn now(&self) -> Micros {
                Micros::from_millis(1)
            }
            fn set_timer(&mut self, _d: SimDuration, _t: u64) {
                self.timers += 1;
            }
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
            fn host(&self) -> HostId {
                HostId(0)
            }
            fn host_name(&self) -> &str {
                "mini"
            }
            fn pid(&self) -> Pid {
                self.pid
            }
            fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
                if name == "mini" {
                    Ok(HostId(0))
                } else {
                    Err(SysError::NoSuchHost)
                }
            }
            fn random_unit(&mut self) -> f64 {
                0.5
            }
            fn exit(&mut self, _code: i32) {}
            fn fork_exec(
                &mut self,
                parent: Pid,
                uid: Uid,
                spec: SpawnSpec,
            ) -> Result<Pid, SysError> {
                let now = self.now();
                let (k, fx) = (&mut self.kernel, &mut self.fx);
                Ok(k.spawn(parent, uid, spec.command, spec.cpu_bound, now, fx))
            }
            fn post_signal(&mut self, _t: Pid, _s: Signal) -> Result<(), SysError> {
                Ok(())
            }
            fn conn_alive(&self, _c: ConnId) -> bool {
                true
            }
            fn net_epoch(&self) -> u64 {
                0
            }
            fn edge_up(&self, _a: &str, _b: &str) -> bool {
                true
            }
            fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
                nominal
            }
            fn make_service(&self, _n: &str) -> Option<(Port, Box<dyn Program>)> {
                None
            }
            fn kernel(&self) -> &Kernel {
                &self.kernel
            }
            fn kernel_fx(&mut self) -> (&mut Kernel, &mut Effects) {
                (&mut self.kernel, &mut self.fx)
            }
            fn flush_effects(&mut self) {
                self.fx.clear();
            }
            fn hub(&mut self) -> HubRef<'_> {
                HubRef::Own(&mut self.hub)
            }
        }

        let mut mini = Mini {
            kernel: Kernel::new(Micros::ZERO),
            fx: Effects::new(),
            hub: ObsHub::new(true),
            pid: Pid::INIT,
            sent: Vec::new(),
            timers: 0,
        };
        // Root may spawn for another user; that user may not.
        mini.pid = mini.spawn_as(Uid(7), SpawnSpec::inert("job")).unwrap();
        let sys: &mut dyn Sys = &mut mini;
        assert_eq!(sys.uid(), Uid(7));
        assert_eq!(
            sys.spawn_as(Uid(8), SpawnSpec::inert("job")),
            Err(SysError::PermissionDenied)
        );
        assert_eq!(sys.spawn_service("pmd"), Err(SysError::PermissionDenied));
        assert_eq!(
            sys.kill(Pid::INIT, Signal::Kill),
            Err(SysError::PermissionDenied)
        );
        assert_eq!(sys.now(), Micros::from_millis(1));
        sys.trace(TraceCategory::Tool, format_args!("n={}", 1));
        let conn = sys.connect(HostId(0), Port(9)).unwrap();
        sys.send(conn, Bytes::from_static(b"hi")).unwrap();
        sys.stable_put("k", Bytes::from_static(b"v"));
        assert_eq!(sys.stable_get("k"), Some(Bytes::from_static(b"v")));
        let fd = sys.open("/tmp/f", OpenMode::ReadWrite).unwrap();
        assert!(sys.close_fd(fd).is_ok());
        sys.set_timer(SimDuration::from_millis(5), 7);
        assert_eq!(mini.hub.trace.entries().next().unwrap().text(), "n=1");
        assert_eq!((mini.sent.len(), mini.timers), (1, 1));
    }

    #[test]
    fn crashed_at_key_is_stable() {
        assert_eq!(CRASHED_AT_KEY, "os.crashed_at");
    }
}
