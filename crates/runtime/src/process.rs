//! Processes and resource accounting.

use std::fmt;

use crate::time::{SimDuration, SimTime};

use crate::events::TraceFlags;
use crate::fd::FdTable;
use crate::ids::{Pid, Uid};
use crate::signal::ExitStatus;

/// Scheduling state of a process, as reported by snapshots.
///
/// The paper: "The PPM can determine in which state (running, stopped, or
/// dead) each of the component processes of a multiple-process program is".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcState {
    /// Being created: fork+exec in progress (the paper's 77 ms of Table 2).
    Embryo,
    /// Runnable or running.
    Running,
    /// Stopped by SIGSTOP.
    Stopped,
    /// Terminated; exit status retained.
    Exited(ExitStatus),
}

impl ProcState {
    /// True for states in which the process still exists.
    pub fn is_alive(self) -> bool {
        !matches!(self, ProcState::Exited(_))
    }
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcState::Embryo => f.write_str("embryo"),
            ProcState::Running => f.write_str("running"),
            ProcState::Stopped => f.write_str("stopped"),
            ProcState::Exited(s) => write!(f, "dead ({s})"),
        }
    }
}

/// Resource usage of a process — the data behind the paper's
/// "exited process resource consumption statistics" tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rusage {
    /// CPU time consumed, in microseconds.
    pub cpu: SimDuration,
    /// Messages sent over stream connections.
    pub msgs_sent: u64,
    /// Messages received over stream connections.
    pub msgs_received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Files opened over the process lifetime.
    pub files_opened: u64,
    /// Signals received.
    pub signals_received: u64,
    /// Child processes forked.
    pub forks: u64,
}

/// One entry in a host's process table.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id on this host.
    pub pid: Pid,
    /// Parent pid on this host ([`Pid::INIT`] for daemons and orphans).
    pub ppid: Pid,
    /// Owning user.
    pub uid: Uid,
    /// Command name (argv\[0\] equivalent).
    pub command: String,
    /// Scheduling state.
    pub state: ProcState,
    /// When the process was created.
    pub started_at: SimTime,
    /// When the process exited, if it has.
    pub exited_at: Option<SimTime>,
    /// Accumulated resource usage.
    pub rusage: Rusage,
    /// Tracing flags set by adoption.
    pub trace_flags: TraceFlags,
    /// The LPM (pid on this host) receiving this process's kernel events.
    pub tracer: Option<Pid>,
    /// The process is a CPU-bound workload (counts toward the run queue
    /// even when it has no pending events).
    pub cpu_bound: bool,
    /// The process is busy handling work until this instant; events
    /// arriving earlier queue behind it.
    pub busy_until: SimTime,
    /// Live child pids on this host, in pid order.
    pub children: Vec<Pid>,
    /// Open file descriptors.
    pub fds: FdTable,
}

impl Process {
    /// Creates a fresh process entry in the embryonic state.
    pub fn new(pid: Pid, ppid: Pid, uid: Uid, command: impl Into<String>, now: SimTime) -> Self {
        Process {
            pid,
            ppid,
            uid,
            command: command.into(),
            state: ProcState::Embryo,
            started_at: now,
            exited_at: None,
            rusage: Rusage::default(),
            trace_flags: TraceFlags::NONE,
            tracer: None,
            cpu_bound: false,
            busy_until: SimTime::ZERO,
            children: Vec::new(),
            fds: FdTable::new(),
        }
    }

    /// True while the process has not exited.
    pub fn is_alive(&self) -> bool {
        self.state.is_alive()
    }

    /// True when the process is traced by an LPM.
    pub fn is_adopted(&self) -> bool {
        self.tracer.is_some()
    }
}

/// The externally visible summary of a process (what `ps` or a snapshot
/// would show). This is the type handed across the syscall boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcInfo {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Owner.
    pub uid: Uid,
    /// Command name.
    pub command: String,
    /// Scheduling state.
    pub state: ProcState,
    /// Creation time.
    pub started_at: SimTime,
    /// Resource usage so far.
    pub rusage: Rusage,
    /// Whether an LPM has adopted it.
    pub adopted: bool,
}

impl From<&Process> for ProcInfo {
    fn from(p: &Process) -> Self {
        ProcInfo {
            pid: p.pid,
            ppid: p.ppid,
            uid: p.uid,
            command: p.command.clone(),
            state: p.state,
            started_at: p.started_at,
            rusage: p.rusage,
            adopted: p.is_adopted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;

    #[test]
    fn state_liveness() {
        assert!(ProcState::Running.is_alive());
        assert!(ProcState::Stopped.is_alive());
        assert!(ProcState::Embryo.is_alive());
        assert!(!ProcState::Exited(ExitStatus::SUCCESS).is_alive());
    }

    #[test]
    fn state_display_matches_paper_vocabulary() {
        assert_eq!(ProcState::Running.to_string(), "running");
        assert_eq!(ProcState::Stopped.to_string(), "stopped");
        assert!(ProcState::Exited(ExitStatus::Signaled(Signal::Kill))
            .to_string()
            .starts_with("dead"));
    }

    #[test]
    fn new_process_starts_embryonic_untraced() {
        let p = Process::new(Pid(5), Pid(1), Uid(100), "cc", SimTime::from_millis(3));
        assert_eq!(p.state, ProcState::Embryo);
        assert!(p.is_alive());
        assert!(!p.is_adopted());
        assert_eq!(p.started_at, SimTime::from_millis(3));
    }

    #[test]
    fn proc_info_reflects_process() {
        let mut p = Process::new(Pid(5), Pid(1), Uid(100), "cc", SimTime::ZERO);
        p.tracer = Some(Pid(9));
        p.state = ProcState::Running;
        let info = ProcInfo::from(&p);
        assert!(info.adopted);
        assert_eq!(info.command, "cc");
        assert_eq!(info.state, ProcState::Running);
    }
}
