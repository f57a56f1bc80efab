//! Kernel event tracing.
//!
//! Adoption (the extended `ptrace` of Section 4) sets **tracing flags** on
//! a process; thereafter the kernel generates event messages that are
//! delivered to the adopting LPM's kernel socket, with the load-dependent
//! latency of Table 1. The flag set controls the granularity, which the
//! paper makes user-settable ("the granularity of event tracing is
//! user-settable").

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use crate::ids::Pid;
use crate::process::Rusage;
use crate::signal::{ExitStatus, Signal};

/// Which classes of kernel events are reported for a traced process.
///
/// A small hand-rolled bitflag set (the `bitflags` crate is not among the
/// approved offline dependencies).
///
/// # Examples
///
/// ```
/// use ppm_runtime::events::TraceFlags;
///
/// let f = TraceFlags::PROC | TraceFlags::SIGNALS;
/// assert!(f.contains(TraceFlags::PROC));
/// assert!(!f.contains(TraceFlags::IPC));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceFlags(u8);

impl TraceFlags {
    /// No tracing.
    pub const NONE: TraceFlags = TraceFlags(0);
    /// Process lifecycle: fork, exec, exit.
    pub const PROC: TraceFlags = TraceFlags(1 << 0);
    /// Signal delivery, stop and continue.
    pub const SIGNALS: TraceFlags = TraceFlags(1 << 1);
    /// Interprocess communication: message sends and receives.
    pub const IPC: TraceFlags = TraceFlags(1 << 2);
    /// File opens and closes.
    pub const FILES: TraceFlags = TraceFlags(1 << 3);
    /// Everything.
    pub const ALL: TraceFlags = TraceFlags(0b1111);

    /// True if every flag in `other` is set in `self`.
    pub fn contains(self, other: TraceFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no flag is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bits, for wire encoding.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs from raw bits, masking unknown bits away.
    pub fn from_bits(bits: u8) -> TraceFlags {
        TraceFlags(bits & TraceFlags::ALL.0)
    }
}

impl BitOr for TraceFlags {
    type Output = TraceFlags;
    fn bitor(self, rhs: TraceFlags) -> TraceFlags {
        TraceFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TraceFlags {
    fn bitor_assign(&mut self, rhs: TraceFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TraceFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for (flag, name) in [
            (TraceFlags::PROC, "proc"),
            (TraceFlags::SIGNALS, "sig"),
            (TraceFlags::IPC, "ipc"),
            (TraceFlags::FILES, "files"),
        ] {
            if self.contains(flag) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// One kernel-generated event about a traced process.
///
/// These are the messages the (modified) kernel deposits on the LPM's
/// kernel socket. `S` is how the event holds its text (an exec's
/// command, a file's path), and the one type serves every place an
/// event lives: the kernel queues a `KernelEvent<Name>` (the process
/// table's name, copied without an allocation), the LPM walks a
/// `KernelEvent<&str>` borrowed from the batch frame, and a reader that
/// keeps events owns a `KernelEvent<String>`, the default.
/// [`KernelEvent::map`] turns one form into another.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum KernelEvent<S = String> {
    /// `parent` forked `child`; the child inherits tracing.
    Fork { parent: Pid, child: Pid },
    /// `pid` replaced its image with `command`.
    Exec { pid: Pid, command: S },
    /// `pid` terminated; final resource usage attached.
    Exit {
        pid: Pid,
        status: ExitStatus,
        rusage: Rusage,
    },
    /// A signal was delivered to `pid`.
    SignalDelivered { pid: Pid, signal: Signal },
    /// `pid` was stopped.
    Stopped { pid: Pid },
    /// `pid` was continued.
    Continued { pid: Pid },
    /// `pid` sent an IPC message of `bytes` bytes.
    MsgSent { pid: Pid, bytes: usize },
    /// `pid` received an IPC message of `bytes` bytes.
    MsgReceived { pid: Pid, bytes: usize },
    /// `pid` opened `path`.
    FileOpened { pid: Pid, path: S },
    /// `pid` closed `path`.
    FileClosed { pid: Pid, path: S },
}

impl KernelEvent {
    /// Every name [`KernelEvent::kind`] gives, in variant order: the
    /// wire tag of an event is the index of its name here.
    pub const KINDS: [&'static str; 10] = [
        "fork",
        "exec",
        "exit",
        "signal",
        "stop",
        "cont",
        "msg-sent",
        "msg-recv",
        "file-open",
        "file-close",
    ];
}

impl<S> KernelEvent<S> {
    /// The process the event concerns.
    pub fn pid(&self) -> Pid {
        match *self {
            KernelEvent::Fork { parent, .. } => parent,
            KernelEvent::Exec { pid, .. }
            | KernelEvent::Exit { pid, .. }
            | KernelEvent::SignalDelivered { pid, .. }
            | KernelEvent::Stopped { pid }
            | KernelEvent::Continued { pid }
            | KernelEvent::MsgSent { pid, .. }
            | KernelEvent::MsgReceived { pid, .. }
            | KernelEvent::FileOpened { pid, .. }
            | KernelEvent::FileClosed { pid, .. } => pid,
        }
    }

    /// The wire tag, which is also the index of the event's name in
    /// [`KernelEvent::KINDS`].
    pub fn tag(&self) -> u8 {
        match self {
            KernelEvent::Fork { .. } => 0,
            KernelEvent::Exec { .. } => 1,
            KernelEvent::Exit { .. } => 2,
            KernelEvent::SignalDelivered { .. } => 3,
            KernelEvent::Stopped { .. } => 4,
            KernelEvent::Continued { .. } => 5,
            KernelEvent::MsgSent { .. } => 6,
            KernelEvent::MsgReceived { .. } => 7,
            KernelEvent::FileOpened { .. } => 8,
            KernelEvent::FileClosed { .. } => 9,
        }
    }

    /// Short name for traces and history records.
    pub fn kind(&self) -> &'static str {
        KernelEvent::KINDS[usize::from(self.tag())]
    }

    /// The flag class that must be enabled for this event to be reported.
    pub fn required_flag(&self) -> TraceFlags {
        match self {
            KernelEvent::Fork { .. } | KernelEvent::Exec { .. } | KernelEvent::Exit { .. } => {
                TraceFlags::PROC
            }
            KernelEvent::SignalDelivered { .. }
            | KernelEvent::Stopped { .. }
            | KernelEvent::Continued { .. } => TraceFlags::SIGNALS,
            KernelEvent::MsgSent { .. } | KernelEvent::MsgReceived { .. } => TraceFlags::IPC,
            KernelEvent::FileOpened { .. } | KernelEvent::FileClosed { .. } => TraceFlags::FILES,
        }
    }

    /// The same event with its text passed through `f`: `map(String::as_str)`
    /// borrows an owned event, `map(|s| s.to_string())` copies a queued or
    /// borrowed one out.
    pub fn map<'a, T>(&'a self, f: impl FnOnce(&'a S) -> T) -> KernelEvent<T> {
        match *self {
            KernelEvent::Fork { parent, child } => KernelEvent::Fork { parent, child },
            KernelEvent::Exec { pid, ref command } => KernelEvent::Exec {
                pid,
                command: f(command),
            },
            KernelEvent::Exit {
                pid,
                status,
                rusage,
            } => KernelEvent::Exit {
                pid,
                status,
                rusage,
            },
            KernelEvent::SignalDelivered { pid, signal } => {
                KernelEvent::SignalDelivered { pid, signal }
            }
            KernelEvent::Stopped { pid } => KernelEvent::Stopped { pid },
            KernelEvent::Continued { pid } => KernelEvent::Continued { pid },
            KernelEvent::MsgSent { pid, bytes } => KernelEvent::MsgSent { pid, bytes },
            KernelEvent::MsgReceived { pid, bytes } => KernelEvent::MsgReceived { pid, bytes },
            KernelEvent::FileOpened { pid, ref path } => {
                KernelEvent::FileOpened { pid, path: f(path) }
            }
            KernelEvent::FileClosed { pid, ref path } => {
                KernelEvent::FileClosed { pid, path: f(path) }
            }
        }
    }
}

impl<S: AsRef<str>> KernelEvent<S> {
    /// Approximate encoded size in bytes, used by the Table 1 latency
    /// model. The paper's reference kernel→LPM message is 112 bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            KernelEvent::Exec { command, .. } => 64 + command.as_ref().len(),
            KernelEvent::FileOpened { path, .. } | KernelEvent::FileClosed { path, .. } => {
                48 + path.as_ref().len()
            }
            _ => 112,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_combine_and_query() {
        let f = TraceFlags::PROC | TraceFlags::IPC;
        assert!(f.contains(TraceFlags::PROC));
        assert!(f.contains(TraceFlags::IPC));
        assert!(!f.contains(TraceFlags::SIGNALS));
        assert!(!f.contains(TraceFlags::ALL));
        assert!(TraceFlags::ALL.contains(f));
    }

    #[test]
    fn flags_bits_roundtrip() {
        for bits in 0..=0b1111u8 {
            assert_eq!(TraceFlags::from_bits(bits).bits(), bits);
        }
        assert_eq!(TraceFlags::from_bits(0xFF), TraceFlags::ALL);
    }

    #[test]
    fn flags_display() {
        assert_eq!(TraceFlags::NONE.to_string(), "none");
        assert_eq!(
            (TraceFlags::PROC | TraceFlags::FILES).to_string(),
            "proc|files"
        );
        assert_eq!(TraceFlags::ALL.to_string(), "proc|sig|ipc|files");
    }

    #[test]
    fn event_required_flags() {
        let e: KernelEvent = KernelEvent::Fork {
            parent: Pid(1),
            child: Pid(2),
        };
        assert_eq!(e.required_flag(), TraceFlags::PROC);
        let e: KernelEvent = KernelEvent::Stopped { pid: Pid(3) };
        assert_eq!(e.required_flag(), TraceFlags::SIGNALS);
        let e: KernelEvent = KernelEvent::MsgSent {
            pid: Pid(3),
            bytes: 10,
        };
        assert_eq!(e.required_flag(), TraceFlags::IPC);
        let e: KernelEvent = KernelEvent::FileOpened {
            pid: Pid(3),
            path: "/tmp/x".into(),
        };
        assert_eq!(e.required_flag(), TraceFlags::FILES);
    }

    #[test]
    fn exit_event_is_reference_sized() {
        let e: KernelEvent = KernelEvent::Exit {
            pid: Pid(9),
            status: ExitStatus::SUCCESS,
            rusage: Rusage::default(),
        };
        assert_eq!(e.wire_size(), 112);
        assert_eq!(e.kind(), "exit");
        assert_eq!(e.pid(), Pid(9));
    }

    #[test]
    fn kinds_names_every_kernel_event() {
        let (pid, path) = (Pid(2), String::new());
        let events = [
            KernelEvent::Fork {
                parent: pid,
                child: Pid(3),
            },
            KernelEvent::Exec {
                pid,
                command: String::new(),
            },
            KernelEvent::Exit {
                pid,
                status: ExitStatus::SUCCESS,
                rusage: Rusage::default(),
            },
            KernelEvent::SignalDelivered {
                pid,
                signal: Signal::Hup,
            },
            KernelEvent::Stopped { pid },
            KernelEvent::Continued { pid },
            KernelEvent::MsgSent { pid, bytes: 1 },
            KernelEvent::MsgReceived { pid, bytes: 1 },
            KernelEvent::FileOpened {
                pid,
                path: path.clone(),
            },
            KernelEvent::FileClosed { pid, path },
        ];
        let kinds: Vec<&str> = events.iter().map(KernelEvent::kind).collect();
        assert_eq!(kinds, KernelEvent::KINDS);
    }
}
