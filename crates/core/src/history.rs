//! LPM history: the event log and exited-process statistics.
//!
//! "The LPMs gather and preserve local information about user process
//! activities, accept parameters that determine the amount of process
//! events recorded" (Section 2). History is the substrate for the
//! resource-statistics tool and for history-dependent triggers.
//!
//! Values in, wire records out. An LPM records an event for every kernel
//! message about every traced process, and almost none of them is ever
//! asked for, so an entry holds what the event *is* — a pid, a literal
//! kind, the child, status, signal or byte count it carries — and the
//! [`HistoryRecord`] / [`RusageRecord`] a tool sees (host name, `"child
//! 7"`, `"exit(0)"`, `"112 bytes"`) is built in [`History::query`] and
//! [`History::exited`], when `Op::History` or `Op::Rusage` asks. Both
//! rings evict before they push and so never hold more than their cap.

use std::collections::VecDeque;

use ppm_proto::codec::clip_str;
use ppm_proto::types::{Gpid, HistoryRecord, Name, RusageRecord};
use ppm_runtime::ids::Pid;
use ppm_runtime::process::Rusage;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::time::SimTime;

/// Whom an event is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Who {
    /// A process of the recording LPM's own host (pid 0: the LPM itself).
    Local(u32),
    /// A process elsewhere (the target of a forwarded trigger action).
    Remote(Gpid),
}

/// What an event carries besides its kind: the value its detail text is
/// made from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// Nothing (`""`).
    None,
    /// A forked child (`"child 7"`).
    Child(Pid),
    /// How a process ended (`"exit(0)"`, `"killed by SIGKILL"`).
    Status(ExitStatus),
    /// A signal delivered or sent (`"SIGSTOP"`).
    Signal(Signal),
    /// A message size (`"112 bytes"`).
    Bytes(usize),
    /// A process an LPM created for a request, by its command
    /// (`"spawned troff for request"`).
    Spawned(Name),
    /// Text that is only known as text: a command, a path, a note.
    Text(Name),
}

impl Detail {
    fn render(&self) -> String {
        match self {
            Detail::None => String::new(),
            Detail::Child(pid) => format!("child {pid}"),
            Detail::Status(status) => status.to_string(),
            Detail::Signal(signal) => signal.to_string(),
            Detail::Bytes(n) => format!("{n} bytes"),
            // Cut, like a note, to what the record can carry.
            Detail::Spawned(command) => {
                let mut text = format!("spawned {command} for request");
                text.truncate(clip_str(&text).len());
                text
            }
            // A note built around a name at a protocol string's limit
            // is cut to what the record can carry.
            Detail::Text(text) => clip_str(text).to_string(),
        }
    }
}

impl From<String> for Detail {
    fn from(text: String) -> Self {
        Detail::Text(text.into())
    }
}

impl From<&str> for Detail {
    fn from(text: &str) -> Self {
        Detail::Text(text.into())
    }
}

#[derive(Debug, Clone)]
struct Event {
    at_us: u64,
    who: Who,
    kind: &'static str,
    detail: Detail,
}

impl Event {
    fn to_record(&self, host: &str) -> HistoryRecord {
        HistoryRecord {
            at_us: self.at_us,
            gpid: match &self.who {
                Who::Local(pid) => Gpid::new(host, *pid),
                Who::Remote(gpid) => gpid.clone(),
            },
            kind: self.kind.to_string(),
            detail: self.detail.render(),
        }
    }
}

#[derive(Debug, Clone)]
struct Exited {
    pid: u32,
    command: Name,
    exited_us: u64,
    status: ExitStatus,
    rusage: Rusage,
}

impl Exited {
    fn to_record(&self, host: &str) -> RusageRecord {
        let r = &self.rusage;
        RusageRecord {
            gpid: Gpid::new(host, self.pid),
            command: self.command.clone(),
            exited_us: self.exited_us,
            status: match self.status {
                ExitStatus::Code(c) => c,
                ExitStatus::Signaled(s) => -(1000 + i32::from(s.number())),
            },
            cpu_us: r.cpu.as_micros(),
            msgs: r.msgs_sent + r.msgs_received,
            bytes: r.bytes_sent + r.bytes_received,
            files: r.files_opened,
            forks: r.forks,
        }
    }
}

/// Bounded event log plus exited-process statistics.
///
/// The log does not know its host's name: the LPM passes it when a
/// query renders records.
///
/// # Examples
///
/// ```
/// use ppm_core::history::{Detail, History, Who};
/// use ppm_runtime::signal::ExitStatus;
/// use ppm_runtime::time::SimTime;
///
/// let mut h = History::new(100, 10);
/// h.record(SimTime::from_millis(5), Who::Local(9), "exec", "troff".into());
/// let status = Detail::Status(ExitStatus::Code(0));
/// h.record(SimTime::from_millis(9), Who::Local(9), "exit", status);
/// let events = h.query("a", 6_000, 100); // at or after 6 ms
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].gpid.host, "a");
/// assert_eq!(events[0].kind, "exit");
/// assert_eq!(events[0].detail, "exit(0)");
/// ```
#[derive(Debug, Clone)]
pub struct History {
    events: VecDeque<Event>,
    exited: VecDeque<Exited>,
    events_cap: usize,
    exited_cap: usize,
    dropped: u64,
}

impl History {
    /// Creates an empty history with the given capacities.
    pub fn new(events_cap: usize, exited_cap: usize) -> Self {
        History {
            events: VecDeque::new(),
            exited: VecDeque::new(),
            events_cap: events_cap.max(1),
            exited_cap: exited_cap.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when the log is full.
    pub fn record(&mut self, at: SimTime, who: Who, kind: &'static str, detail: Detail) {
        if self.events.len() == self.events_cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            at_us: at.as_micros(),
            who,
            kind,
            detail,
        });
    }

    /// Appends the statistics of a local process that exited at `at`,
    /// evicting the oldest when the ring is full.
    pub fn record_exit(
        &mut self,
        at: SimTime,
        pid: u32,
        command: Name,
        status: ExitStatus,
        rusage: Rusage,
    ) {
        if self.exited.len() == self.exited_cap {
            self.exited.pop_front();
        }
        self.exited.push_back(Exited {
            pid,
            command,
            exited_us: at.as_micros(),
            status,
            rusage,
        });
    }

    /// Events at or after `since_us`, oldest first, at most `max`, as
    /// the records of the LPM on `host`.
    pub fn query(&self, host: &str, since_us: u64, max: usize) -> Vec<HistoryRecord> {
        self.events
            .iter()
            .filter(|e| e.at_us >= since_us)
            .take(max)
            .map(|e| e.to_record(host))
            .collect()
    }

    /// Statistics of exited processes, oldest first, as the records of
    /// the LPM on `host`; `pid` filters.
    pub fn exited(&self, host: &str, pid: Option<u32>) -> Vec<RusageRecord> {
        self.exited
            .iter()
            .filter(|r| pid.is_none_or(|p| r.pid == p))
            .map(|r| r.to_record(host))
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent event, if any, as a record of the LPM on `host`.
    pub fn last(&self, host: &str) -> Option<HistoryRecord> {
        self.events.back().map(|e| e.to_record(host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(h: &mut History, t: u64, pid: u32, kind: &'static str) {
        h.record(SimTime::from_micros(t), Who::Local(pid), kind, Detail::None);
    }

    fn exit(h: &mut History, t: u64, pid: u32) {
        let at = SimTime::from_micros(t);
        h.record_exit(at, pid, "x".into(), ExitStatus::SUCCESS, Rusage::default());
    }

    #[test]
    fn records_and_queries_by_time() {
        let mut h = History::new(100, 10);
        rec(&mut h, 10, 1, "fork");
        rec(&mut h, 20, 1, "exec");
        rec(&mut h, 30, 1, "exit");
        assert_eq!(h.len(), 3);
        let q = h.query("a", 20, 100);
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].kind, "exec");
        assert_eq!(h.query("a", 0, 1).len(), 1);
        assert_eq!(h.last("a").unwrap().kind, "exit");
    }

    #[test]
    fn details_render_as_the_texts_a_tool_reads() {
        let texts = [
            (Detail::None, ""),
            (Detail::Child(Pid(7)), "child 7"),
            (Detail::Status(ExitStatus::Code(0)), "exit(0)"),
            (
                Detail::Status(ExitStatus::Signaled(Signal::Kill)),
                "killed by SIGKILL",
            ),
            (Detail::Signal(Signal::Stop), "SIGSTOP"),
            (Detail::Bytes(112), "112 bytes"),
            (Detail::from("troff"), "troff"),
            (Detail::Spawned("troff".into()), "spawned troff for request"),
        ];
        for (detail, text) in texts {
            assert_eq!(detail.render(), text);
        }
    }

    /// A spawn's detail is the note it replaced, built when it is read:
    /// the same text, cut at the same char boundary for a command at a
    /// protocol string's limit.
    #[test]
    fn a_spawn_renders_the_note_it_replaced() {
        let long = "é".repeat(ppm_proto::codec::MAX_STR_BYTES / 2);
        for command in ["troff", "a-command-longer-than-a-name-held-inline", &long] {
            let note = format!("spawned {command} for request");
            let spawned = Detail::Spawned(command.into()).render();
            assert_eq!(spawned, Detail::from(note).render());
            assert!(spawned.len() <= ppm_proto::codec::MAX_STR_BYTES);
        }
    }

    #[test]
    fn a_remote_subject_keeps_its_own_host() {
        let mut h = History::new(10, 10);
        let far = Gpid::new("kim", 5);
        let at = SimTime::ZERO;
        h.record(at, Who::Remote(far.clone()), "trigger-signal", Detail::None);
        h.record(at, Who::Local(5), "signal", Detail::Signal(Signal::Kill));
        let q = h.query("calder", 0, 10);
        assert_eq!(q[0].gpid, far);
        assert_eq!(q[1].gpid, Gpid::new("calder", 5));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut h = History::new(2, 10);
        rec(&mut h, 1, 1, "a");
        rec(&mut h, 2, 1, "b");
        rec(&mut h, 3, 1, "c");
        assert_eq!(h.len(), 2);
        assert_eq!(h.dropped(), 1);
        assert_eq!(h.query("a", 0, 10)[0].kind, "b");
    }

    #[test]
    fn exited_records_filter_by_pid() {
        let mut h = History::new(10, 10);
        for pid in [5u32, 6, 5] {
            exit(&mut h, 0, pid);
        }
        assert_eq!(h.exited("a", None).len(), 3);
        assert_eq!(h.exited("a", Some(5)).len(), 2);
        assert_eq!(h.exited("a", Some(9)).len(), 0);
    }

    #[test]
    fn exited_capacity_bounded() {
        let mut h = History::new(10, 2);
        for i in 0..5u32 {
            exit(&mut h, u64::from(i), i);
        }
        let left = h.exited("a", None);
        assert_eq!(left.len(), 2);
        assert_eq!(left[0].gpid.pid, 3);
    }
}
