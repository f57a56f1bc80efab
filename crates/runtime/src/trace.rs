//! Structured simulation trace.
//!
//! Every layer of the stack (kernel, network, daemons, LPMs, tools) can
//! append timestamped entries to a shared [`TraceLog`]. The figure
//! regenerators in `ppm-bench` replay these entries to print the message
//! sequences of Figures 2–4, and tests assert on them to check protocol
//! steps without reaching into private state.
//!
//! An entry is a [`Note`]. The lines a backend writes once per process
//! or per connection are typed variants: the log keeps their values and
//! formats the line only when it is read. Everything else is
//! [`Note::Text`], formatted when recorded. Both kinds live in the one
//! log and read the same way.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

use crate::events::KernelEvent;
use crate::ids::{ConnId, HostId, Pid, Port};
use crate::pages::{Arena, Pages};
use crate::signal::{ExitStatus, Signal};
use crate::time::{SimDuration, SimTime};

/// Coarse category of a trace entry, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Kernel activity: fork/exec/exit/signal, trace-flag events.
    Kernel,
    /// Network activity: connections, message deliveries, partitions.
    Net,
    /// Daemon activity: inetd and pmd.
    Daemon,
    /// LPM activity: dispatch, handlers, siblings, adoption.
    Lpm,
    /// Broadcast/graph-cover activity.
    Broadcast,
    /// Crash detection and recovery (CCS).
    Recovery,
    /// Tool requests and replies.
    Tool,
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceCategory::Kernel => "kernel",
            TraceCategory::Net => "net",
            TraceCategory::Daemon => "daemon",
            TraceCategory::Lpm => "lpm",
            TraceCategory::Broadcast => "bcast",
            TraceCategory::Recovery => "recov",
            TraceCategory::Tool => "tool",
        };
        f.write_str(s)
    }
}

/// What a trace entry says; its [`fmt::Display`] is the entry's line.
///
/// The typed variants are the lines a backend writes per process or per
/// connection. Handing the log the values ([`TraceLog::note`]) instead
/// of a formatted line costs a few stores where formatting costs a pass
/// through `core::fmt`, and a traced process five of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Note<'a> {
    /// A line formatted by its writer.
    Text(&'a str),
    /// A kernel event (`kind` is a [`KernelEvent::kind`]) about `pid`
    /// joined `tracer`'s batch. The first of a batch carries the delay
    /// until the batch is delivered; later ones ride along.
    KernelEvent {
        kind: &'static str,
        pid: Pid,
        tracer: Pid,
        wire_size: usize,
        delay: Option<SimDuration>,
    },
    /// A signal reached a process.
    Signaled { signal: Signal, pid: Pid },
    /// A process left the live set.
    Exiting { pid: Pid, status: ExitStatus },
    /// `parent` created `pid`; its program starts after `ready_in`.
    Spawned {
        pid: Pid,
        command: &'a str,
        parent: Pid,
        ready_in: SimDuration,
    },
    /// A batch of more than one kernel event went to `tracer`.
    Flushed { count: usize, tracer: Pid },
    /// A process bound a port.
    Listening { pid: Pid, port: Port },
    /// A process began connecting to `port` on the host named `to`.
    Connecting {
        pid: Pid,
        to: &'a str,
        port: Port,
        hops: u32,
        conn: ConnId,
    },
    /// A connection from `client` on the host named `from` was accepted
    /// on `port` of the host named `to`.
    Established {
        conn: ConnId,
        from: &'a str,
        client: Pid,
        to: &'a str,
        port: Port,
    },
}

impl fmt::Display for Note<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl Note<'_> {
    /// Writes the line: what [`fmt::Display`] does, into any sink.
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let mut line = Pieces {
            out,
            result: Ok(()),
        };
        match *self {
            Note::Text(text) => line.s(text),
            Note::KernelEvent {
                kind,
                pid,
                tracer,
                wire_size,
                delay,
            } => {
                line.s("event ").s(kind).s(" pid ").n(pid.0);
                line.s(" -> lpm ").n(tracer.0);
                line.s(" (").n(wire_size as u64).s(" bytes, ");
                match delay {
                    Some(delay) => line.d(delay).s(")"),
                    None => line.s("batched)"),
                }
            }
            Note::Signaled { signal, pid } => {
                line.s(signal.name()).s(" delivered to pid ").n(pid.0)
            }
            Note::Exiting { pid, status } => line.s("pid ").n(pid.0).s(" ").d(status),
            Note::Spawned {
                pid,
                command,
                parent,
                ready_in,
            } => {
                line.s("fork+exec pid ").n(pid.0).s(" (").s(command);
                line.s(") by ").n(parent.0).s(", ready in ").d(ready_in)
            }
            Note::Flushed { count, tracer } => {
                line.s("flush ").n(count as u64);
                line.s(" coalesced event(s) -> lpm ").n(tracer.0)
            }
            // A port displays as `:80`, a connection as `c9`.
            Note::Listening { pid, port } => line.s("pid ").n(pid.0).s(" listening on :").n(port.0),
            Note::Connecting {
                pid,
                to,
                port,
                hops,
                conn,
            } => {
                line.s("pid ").n(pid.0).s(" connecting to ").s(to);
                line.s(":").n(port.0).s(" (").n(hops);
                line.s(" hops, c").n(conn.0).s(")")
            }
            Note::Established {
                conn,
                from,
                client,
                to,
                port,
            } => {
                line.s("c").n(conn.0).s(" established ").s(from);
                line.s(":").n(client.0).s(" -> ").s(to).s(":").n(port.0)
            }
        };
        line.result
    }
}

/// A line written piece by piece. A typed line is a few literals, names
/// and decimals, and one `format_args!` over them costs several times
/// what the pieces do — which is what a reader of a long trace (a sweep
/// cell renders all of its own) would pay for the log not having
/// formatted them when they were recorded.
struct Pieces<'a, W> {
    out: &'a mut W,
    result: fmt::Result,
}

impl<W: fmt::Write> Pieces<'_, W> {
    fn s(&mut self, s: &str) -> &mut Self {
        self.result = self.result.and_then(|()| self.out.write_str(s));
        self
    }

    /// A decimal.
    fn n(&mut self, n: impl Into<u64>) -> &mut Self {
        let mut n = n.into();
        let mut digits = [0; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.s(utf8(&digits[at..]))
    }

    /// A value with a format of its own.
    fn d(&mut self, value: impl fmt::Display) -> &mut Self {
        self.result = self.result.and_then(|()| write!(self.out, "{value}"));
        self
    }
}

/// [`Head::kind`] of each [`Note`] variant.
mod kind {
    pub const TEXT: u8 = 0;
    pub const KERNEL_EVENT: u8 = 1;
    pub const SIGNALED: u8 = 2;
    pub const EXITING: u8 = 3;
    pub const SPAWNED: u8 = 4;
    pub const FLUSHED: u8 = 5;
    pub const LISTENING: u8 = 6;
    pub const CONNECTING: u8 = 7;
    pub const ESTABLISHED: u8 = 8;
}

/// Decimal digits of `n`.
fn dec(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn pid_len(pid: Pid) -> usize {
    dec(u64::from(pid.0))
}

/// Length of a duration's `1.234ms`.
fn millis_len(d: SimDuration) -> usize {
    dec(d.as_micros() / 1_000) + ".000ms".len()
}

fn put_str(out: &mut Vec<u8>, len: u32, s: &str) {
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the log stores only what a str or a Display wrote")
}

impl<'a> Note<'a> {
    /// Length in bytes of the line, without formatting it.
    fn rendered_len(&self) -> usize {
        match *self {
            Note::Text(text) => text.len(),
            Note::KernelEvent {
                kind,
                pid,
                tracer,
                wire_size,
                delay,
            } => {
                "event  pid  -> lpm  ( bytes, )".len()
                    + kind.len()
                    + pid_len(pid)
                    + pid_len(tracer)
                    + dec(wire_size as u64)
                    + delay.map_or("batched".len(), millis_len)
            }
            Note::Signaled { signal, pid } => {
                signal.name().len() + " delivered to pid ".len() + pid_len(pid)
            }
            Note::Exiting { pid, status } => {
                "pid  ".len()
                    + pid_len(pid)
                    + match status {
                        ExitStatus::Code(c) => {
                            "exit()".len() + usize::from(c < 0) + dec(u64::from(c.unsigned_abs()))
                        }
                        ExitStatus::Signaled(s) => "killed by ".len() + s.name().len(),
                    }
            }
            Note::Spawned {
                pid,
                command,
                parent,
                ready_in,
            } => {
                "fork+exec pid  () by , ready in ".len()
                    + pid_len(pid)
                    + command.len()
                    + pid_len(parent)
                    + millis_len(ready_in)
            }
            Note::Flushed { count, tracer } => {
                "flush  coalesced event(s) -> lpm ".len() + dec(count as u64) + pid_len(tracer)
            }
            Note::Listening { pid, port } => {
                "pid  listening on :".len() + pid_len(pid) + dec(u64::from(port.0))
            }
            Note::Connecting {
                pid,
                to,
                port,
                hops,
                conn,
            } => {
                "pid  connecting to : ( hops, c)".len()
                    + pid_len(pid)
                    + to.len()
                    + dec(u64::from(port.0))
                    + dec(u64::from(hops))
                    + dec(conn.0)
            }
            Note::Established {
                conn,
                from,
                client,
                to,
                port,
            } => {
                "c established : -> :".len()
                    + dec(conn.0)
                    + from.len()
                    + pid_len(client)
                    + to.len()
                    + dec(u64::from(port.0))
            }
        }
    }

    /// Appends the note's stored form — the text itself, or a typed
    /// variant's values, little-endian — and returns its [`Head::kind`].
    /// `None`, with nothing appended, when a value is outside what the
    /// stored form holds.
    fn pack(&self, out: &mut Vec<u8>) -> Option<u8> {
        Some(match *self {
            Note::Text(text) => {
                out.extend_from_slice(text.as_bytes());
                kind::TEXT
            }
            Note::KernelEvent {
                kind,
                pid,
                tracer,
                wire_size,
                delay,
            } => {
                let code = KernelEvent::KINDS.iter().position(|k| *k == kind)?;
                let size = u32::try_from(wire_size).ok()?;
                out.push(code as u8);
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(&tracer.0.to_le_bytes());
                out.extend_from_slice(&size.to_le_bytes());
                if let Some(delay) = delay {
                    out.extend_from_slice(&delay.as_micros().to_le_bytes());
                }
                kind::KERNEL_EVENT
            }
            Note::Signaled { signal, pid } => {
                out.push(signal.number());
                out.extend_from_slice(&pid.0.to_le_bytes());
                kind::SIGNALED
            }
            Note::Exiting { pid, status } => {
                out.extend_from_slice(&pid.0.to_le_bytes());
                match status {
                    ExitStatus::Code(c) => out.extend_from_slice(&c.to_le_bytes()),
                    ExitStatus::Signaled(s) => out.push(s.number()),
                }
                kind::EXITING
            }
            Note::Spawned {
                pid,
                command,
                parent,
                ready_in,
            } => {
                let len = u32::try_from(command.len()).ok()?;
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(&parent.0.to_le_bytes());
                out.extend_from_slice(&ready_in.as_micros().to_le_bytes());
                put_str(out, len, command);
                kind::SPAWNED
            }
            Note::Flushed { count, tracer } => {
                let count = u32::try_from(count).ok()?;
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&tracer.0.to_le_bytes());
                kind::FLUSHED
            }
            Note::Listening { pid, port } => {
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(&port.0.to_le_bytes());
                kind::LISTENING
            }
            Note::Connecting {
                pid,
                to,
                port,
                hops,
                conn,
            } => {
                let len = u32::try_from(to.len()).ok()?;
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(&port.0.to_le_bytes());
                out.extend_from_slice(&hops.to_le_bytes());
                out.extend_from_slice(&conn.0.to_le_bytes());
                put_str(out, len, to);
                kind::CONNECTING
            }
            Note::Established {
                conn,
                from,
                client,
                to,
                port,
            } => {
                let from_len = u32::try_from(from.len()).ok()?;
                let to_len = u32::try_from(to.len()).ok()?;
                out.extend_from_slice(&conn.0.to_le_bytes());
                out.extend_from_slice(&client.0.to_le_bytes());
                out.extend_from_slice(&port.0.to_le_bytes());
                put_str(out, from_len, from);
                put_str(out, to_len, to);
                kind::ESTABLISHED
            }
        })
    }

    /// The note [`Note::pack`] stored as `bytes` under `kind`.
    fn unpack(kind: u8, bytes: &'a [u8]) -> Note<'a> {
        let mut f = Fields(bytes);
        match kind {
            kind::TEXT => Note::Text(utf8(bytes)),
            kind::KERNEL_EVENT => Note::KernelEvent {
                kind: KernelEvent::KINDS[usize::from(f.u8())],
                pid: f.pid(),
                tracer: f.pid(),
                wire_size: f.u32() as usize,
                delay: (!f.0.is_empty()).then(|| SimDuration::from_micros(f.u64())),
            },
            kind::SIGNALED => Note::Signaled {
                signal: f.signal(),
                pid: f.pid(),
            },
            kind::EXITING => Note::Exiting {
                pid: f.pid(),
                status: match f.0.len() {
                    1 => ExitStatus::Signaled(f.signal()),
                    _ => ExitStatus::Code(i32::from_le_bytes(f.take())),
                },
            },
            kind::SPAWNED => Note::Spawned {
                pid: f.pid(),
                parent: f.pid(),
                ready_in: SimDuration::from_micros(f.u64()),
                command: f.str(),
            },
            kind::FLUSHED => Note::Flushed {
                count: f.u32() as usize,
                tracer: f.pid(),
            },
            kind::LISTENING => Note::Listening {
                pid: f.pid(),
                port: f.port(),
            },
            kind::CONNECTING => Note::Connecting {
                pid: f.pid(),
                port: f.port(),
                hops: f.u32(),
                conn: ConnId(f.u64()),
                to: f.str(),
            },
            kind::ESTABLISHED => Note::Established {
                conn: ConnId(f.u64()),
                client: f.pid(),
                port: f.port(),
                from: f.str(),
                to: f.str(),
            },
            other => unreachable!("no note is stored under kind {other}"),
        }
    }
}

/// Reads back, in order, the values [`Note::pack`] appended.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .expect("a stored note holds every field of its kind");
        self.0 = rest;
        *head
    }

    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn pid(&mut self) -> Pid {
        Pid(self.u32())
    }

    fn port(&mut self) -> Port {
        Port(u16::from_le_bytes(self.take()))
    }

    fn signal(&mut self) -> Signal {
        Signal::from_number(self.u8()).expect("stored from a Signal")
    }

    fn str(&mut self) -> &'a str {
        let len = self.u32() as usize;
        let (s, rest) = self.0.split_at(len);
        self.0 = rest;
        utf8(s)
    }
}

/// One timestamped trace entry, borrowed from its [`TraceLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry<'a> {
    /// When the entry was recorded.
    pub at: SimTime,
    /// Host the activity happened on, when host-local.
    pub host: Option<HostId>,
    /// Category for filtering.
    pub category: TraceCategory,
    /// What happened.
    pub note: Note<'a>,
}

impl<'a> TraceEntry<'a> {
    /// Human-readable description: the note's line, whatever its kind
    /// (formatted here unless it was recorded as text).
    pub fn text(&self) -> Cow<'a, str> {
        match self.note {
            Note::Text(text) => Cow::Borrowed(text),
            typed => Cow::Owned(typed.to_string()),
        }
    }
}

impl TraceEntry<'_> {
    /// Writes the display line: what [`fmt::Display`] does, into any
    /// sink (`render`'s is the `String` itself, not a formatter).
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        write!(out, "[{:>12} ", self.at)?;
        match self.host {
            Some(h) => write!(out, "{h}")?,
            None => out.write_str("--")?,
        }
        write!(out, " {}] ", self.category)?;
        self.note.write_to(out)
    }
}

impl fmt::Display for TraceEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// The fixed-size part of a stored entry; its body runs from the
/// previous entry's `end` (or the start of the page) to its own.
#[derive(Debug, Clone, Copy)]
struct Head {
    at: SimTime,
    /// Index of the arena page.
    page: u32,
    /// End offset within that page.
    end: u32,
    /// `HostId.0`, or [`NO_HOST`].
    host: u32,
    category: TraceCategory,
    /// Which [`Note`] variant the body holds: one of [`kind`].
    kind: u8,
}

// Every entry pays for the header, text ones too: what a typed entry
// needs beyond these fields belongs in the arena.
const _: () = assert!(std::mem::size_of::<Head>() <= 24);

/// Stands for "not host-local" in [`Head::host`]; never a real host id
/// (ids index a host table held in memory).
const NO_HOST: u32 = u32::MAX;

/// An append-only log of simulation activity.
///
/// An entry is a fixed-size header and a body in a byte arena: a text
/// entry's body is the text, formatted straight into the arena; a typed
/// entry's is its values, formatted when the entry is read. Both grow a
/// page at a time (see [`crate::pages`]), so recording allocates once
/// per page, not per entry. Recording can be toggled off for long
/// benchmark runs: a disabled log returns before looking at the
/// [`fmt::Arguments`], so no argument is ever formatted.
///
/// # Examples
///
/// ```
/// use ppm_runtime::ids::{Pid, Port};
/// use ppm_runtime::trace::{Note, TraceCategory, TraceLog};
/// use ppm_runtime::time::SimTime;
///
/// let mut log = TraceLog::new();
/// log.record(SimTime::ZERO, None, TraceCategory::Net, format_args!("link {} up", 3));
/// let listening = Note::Listening { pid: Pid(7), port: Port(80) };
/// log.note(SimTime::ZERO, None, TraceCategory::Net, listening);
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.filtered(TraceCategory::Net).count(), 2);
/// assert_eq!(log.entries().next().unwrap().text(), "link 3 up");
/// assert_eq!(log.entries().nth(1).unwrap().note, listening);
/// assert_eq!(log.grep("listening on :80").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The entries' bodies.
    arena: Arena,
    heads: Pages<Head>,
    /// Bytes the entries' lines come to (a typed entry's rendered, not
    /// stored, bytes): what `render` sizes its output by.
    rendered: usize,
    enabled: bool,
}

impl TraceLog {
    /// Creates an empty, enabled log.
    pub fn new() -> Self {
        TraceLog {
            enabled: true,
            ..TraceLog::default()
        }
    }

    /// Creates a disabled log that drops all entries.
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// Whether entries are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Appends a text entry (no-op while disabled).
    pub fn record(
        &mut self,
        at: SimTime,
        host: Option<HostId>,
        category: TraceCategory,
        text: fmt::Arguments<'_>,
    ) {
        self.push(at, host, category, |body| {
            let start = body.len();
            body.write_fmt(text)
                .expect("a Display impl returned an error");
            (kind::TEXT, body.len() - start)
        });
    }

    /// Appends an entry from its values (no-op while disabled). Nothing
    /// is formatted until the entry is read.
    pub fn note(
        &mut self,
        at: SimTime,
        host: Option<HostId>,
        category: TraceCategory,
        note: Note<'_>,
    ) {
        self.push(at, host, category, |body| {
            let kind = note.pack(body).unwrap_or_else(|| {
                // The line is kept whatever its values: as text.
                write!(body, "{note}").expect("a Display impl returned an error");
                kind::TEXT
            });
            (kind, note.rendered_len())
        });
    }

    /// Appends the header of an entry whose body `write` appends to the
    /// arena page it is given, returning the body's kind and the length
    /// of its line.
    fn push(
        &mut self,
        at: SimTime,
        host: Option<HostId>,
        category: TraceCategory,
        write: impl FnOnce(&mut Vec<u8>) -> (u8, usize),
    ) {
        if !self.enabled {
            return;
        }
        let host = host.map_or(NO_HOST, |h| {
            assert!(h.0 != NO_HOST, "host id {NO_HOST} is reserved");
            h.0
        });
        let (page, body) = self.arena.tail();
        let (kind, line) = write(body);
        self.rendered += line;
        // Offsets are checked, not truncated: a page index or a single
        // page beyond u32 fails here instead of corrupting the log.
        let end = u32::try_from(body.len()).expect("trace page over 4 GiB");
        let page = u32::try_from(page).expect("over 2^32 trace pages");
        self.heads.push(Head {
            at,
            page,
            end,
            host,
            category,
            kind,
        });
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Bytes the recorded entries occupy: headers and bodies.
    pub fn stored_bytes(&self) -> usize {
        self.heads.len() * std::mem::size_of::<Head>() + self.arena.len()
    }

    fn entry(&self, i: usize) -> TraceEntry<'_> {
        let h = self.heads.get(i).expect("index below len");
        let prev = i.checked_sub(1).and_then(|p| self.heads.get(p));
        let start = prev.filter(|p| p.page == h.page).map_or(0, |p| p.end);
        let body = self
            .arena
            .get(h.page as usize, start as usize..h.end as usize);
        TraceEntry {
            at: h.at,
            host: (h.host != NO_HOST).then_some(HostId(h.host)),
            category: h.category,
            note: Note::unpack(h.kind, body),
        }
    }

    /// All recorded entries, in order.
    pub fn entries(
        &self,
    ) -> impl DoubleEndedIterator<Item = TraceEntry<'_>> + ExactSizeIterator + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Entries of one category, in order.
    pub fn filtered(&self, category: TraceCategory) -> impl Iterator<Item = TraceEntry<'_>> {
        self.entries().filter(move |e| e.category == category)
    }

    /// Entries whose line contains `needle`, in order.
    pub fn grep<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = TraceEntry<'a>> + 'a {
        // One buffer for the typed entries' lines.
        let mut line = String::new();
        self.entries().filter(move |e| match e.note {
            Note::Text(text) => text.contains(needle),
            typed => {
                line.clear();
                typed
                    .write_to(&mut line)
                    .expect("writing to a String cannot fail");
                line.contains(needle)
            }
        })
    }

    /// Drops all recorded entries, bodies and headers.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.heads.clear();
        self.rendered = 0;
    }

    /// Renders the whole log (or one category) as display lines.
    pub fn render(&self, category: Option<TraceCategory>) -> String {
        // A line is what its note renders to — for a typed entry, not
        // what is stored — plus a "[  123.456ms h12 kernel] " prefix.
        let mut out = String::with_capacity(self.rendered + 28 * self.len());
        for e in self.entries() {
            if category.is_none_or(|c| c == e.category) {
                e.write_to(&mut out)
                    .expect("writing to a String cannot fail");
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PAGE_BYTES;

    fn sample() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(1),
            Some(HostId(0)),
            TraceCategory::Kernel,
            format_args!("fork pid {}", 2),
        );
        log.record(
            SimTime::from_millis(2),
            None,
            TraceCategory::Net,
            format_args!("deliver {}B", 112),
        );
        log.record(
            SimTime::from_millis(3),
            Some(HostId(1)),
            TraceCategory::Kernel,
            format_args!("exit pid 2"),
        );
        log
    }

    #[test]
    fn records_and_filters() {
        let log = sample();
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.filtered(TraceCategory::Kernel).count(), 2);
        assert_eq!(log.grep("pid 2").count(), 2);
        let texts: Vec<_> = log.entries().map(|e| e.text()).collect();
        assert_eq!(texts, ["fork pid 2", "deliver 112B", "exit pid 2"]);
        let second = log.entries().nth(1).unwrap();
        assert_eq!(second.at, SimTime::from_millis(2));
        assert_eq!(second.host, None);
        assert_eq!(second.category, TraceCategory::Net);
        assert_eq!(log.entries().next_back().unwrap().host, Some(HostId(1)));
        assert_eq!(log.entries().skip(2).len(), 1);
    }

    #[test]
    fn empty_and_multibyte_texts_keep_their_boundaries() {
        let mut log = TraceLog::new();
        let texts = ["", "naïve → ünïcode", "", "日本", "é", ""];
        for t in texts {
            log.record(
                SimTime::ZERO,
                None,
                TraceCategory::Tool,
                format_args!("{t}"),
            );
        }
        assert_eq!(log.len(), texts.len());
        let back: Vec<_> = log.entries().map(|e| e.text()).collect();
        assert_eq!(back, texts);
        assert_eq!(log.grep("本").count(), 1);
        assert_eq!(log.grep("").count(), texts.len());
    }

    #[test]
    fn entries_survive_text_and_header_page_boundaries() {
        let mut log = TraceLog::new();
        // ~290 KB of text and 6 000 headers: several pages of each, with
        // one entry far larger than a page's slack in the middle.
        let huge = "x".repeat(3 * PAGE_BYTES);
        let text = |i: usize| format!("entry {i} {}", "é".repeat(i % 40));
        for i in 0..6_000 {
            let at = SimTime::from_micros(i as u64);
            let host = (i % 3 != 0).then_some(HostId(i as u32));
            if i == 3_000 {
                log.record(at, host, TraceCategory::Net, format_args!("{huge}"));
            } else {
                log.record(at, host, TraceCategory::Lpm, format_args!("{}", text(i)));
            }
        }
        assert!(log.arena.len() > 4 * PAGE_BYTES, "the arena spans pages");
        assert_eq!(log.len(), 6_000);
        for (i, e) in log.entries().enumerate() {
            assert_eq!(e.at, SimTime::from_micros(i as u64));
            assert_eq!(e.host, (i % 3 != 0).then_some(HostId(i as u32)));
            if i == 3_000 {
                assert_eq!(e.text(), huge);
            } else {
                assert_eq!(e.text(), text(i), "entry {i}");
            }
        }
        assert_eq!(log.entries().nth(5_999).unwrap().text(), text(5_999));
        assert_eq!(log.filtered(TraceCategory::Net).count(), 1);
        assert_eq!(log.render(None).lines().count(), 6_000);
    }

    #[test]
    fn disabled_log_drops_entries() {
        let mut log = TraceLog::disabled();
        assert!(!log.is_enabled());
        log.record(
            SimTime::ZERO,
            None,
            TraceCategory::Tool,
            format_args!("dropped"),
        );
        assert!(log.is_empty());
        log.set_enabled(true);
        log.record(
            SimTime::ZERO,
            None,
            TraceCategory::Tool,
            format_args!("kept"),
        );
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn disabled_log_never_formats_its_arguments() {
        struct Bomb;
        impl fmt::Display for Bomb {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("a disabled log formatted its argument");
            }
        }
        let mut log = TraceLog::disabled();
        log.record(
            SimTime::ZERO,
            None,
            TraceCategory::Lpm,
            format_args!("{Bomb}"),
        );
        assert!(log.is_empty());
    }

    #[test]
    fn render_is_the_line_format_of_display() {
        let log = sample();
        assert_eq!(
            log.render(None),
            "[     1.000ms h0 kernel] fork pid 2\n\
             [     2.000ms -- net] deliver 112B\n\
             [     3.000ms h1 kernel] exit pid 2\n"
        );
        let lines: Vec<String> = log.entries().map(|e| e.to_string()).collect();
        assert_eq!(log.render(None), lines.join("\n") + "\n");
        // Times wider than the column push it out instead of truncating.
        let mut late = TraceLog::new();
        let at = SimTime::from_secs(123_456_789);
        late.record(
            at,
            Some(HostId(12)),
            TraceCategory::Recovery,
            format_args!("x"),
        );
        assert_eq!(late.render(None), "[123456789000.000ms h12 recov] x\n");
    }

    #[test]
    fn render_filters_by_category() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, None, TraceCategory::Net, format_args!("a"));
        log.record(SimTime::ZERO, None, TraceCategory::Lpm, format_args!("b"));
        assert_eq!(
            log.render(Some(TraceCategory::Lpm)),
            "[     0.000ms -- lpm] b\n"
        );
    }

    #[test]
    fn clear_resets_arena_and_headers() {
        let mut log = sample();
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.entries().count(), 0);
        assert_eq!(log.render(None), "");
        // Offsets restart from zero: a new entry is exactly its own text.
        log.record(
            SimTime::ZERO,
            None,
            TraceCategory::Net,
            format_args!("fresh"),
        );
        assert_eq!(log.entries().next().unwrap().text(), "fresh");
        assert!(log.is_enabled(), "clear leaves the switch alone");
    }

    /// Every typed line, beside the `format_args!` its writer used to
    /// pass: the rendered bytes are the contract.
    fn typed_lines() -> Vec<(Note<'static>, String)> {
        let (pid, tracer, parent) = (Pid(4_321), Pid(17), Pid(1));
        let (port, conn, hops) = (Port(2_000), ConnId(1 << 40 | 9), 3u32);
        let delay = SimDuration::from_micros(1_234_567);
        let mut lines = Vec::new();
        for kind in KernelEvent::KINDS {
            for wire_size in [0usize, 112, 70_000] {
                let note = |delay| Note::KernelEvent {
                    kind,
                    pid,
                    tracer,
                    wire_size,
                    delay,
                };
                lines.push((
                    note(Some(delay)),
                    format!("event {kind} pid {pid} -> lpm {tracer} ({wire_size} bytes, {delay})"),
                ));
                lines.push((
                    note(None),
                    format!("event {kind} pid {pid} -> lpm {tracer} ({wire_size} bytes, batched)"),
                ));
            }
        }
        for n in 0..=u8::MAX {
            let Some(signal) = Signal::from_number(n) else {
                continue;
            };
            lines.push((
                Note::Signaled { signal, pid },
                format!("{signal} delivered to pid {pid}"),
            ));
            let status = ExitStatus::Signaled(signal);
            lines.push((Note::Exiting { pid, status }, format!("pid {pid} {status}")));
        }
        for code in [0, 1, 9, 10, -1, -10, i32::MAX, i32::MIN] {
            let status = ExitStatus::Code(code);
            lines.push((Note::Exiting { pid, status }, format!("pid {pid} {status}")));
        }
        for command in ["", "worker", "naïve-ünïcode 日本"] {
            for ready_in in [SimDuration::ZERO, delay, SimDuration::from_micros(u64::MAX)] {
                lines.push((
                    Note::Spawned {
                        pid,
                        command,
                        parent,
                        ready_in,
                    },
                    format!("fork+exec pid {pid} ({command}) by {parent}, ready in {ready_in}"),
                ));
            }
        }
        for count in [2usize, 10, 99_999] {
            lines.push((
                Note::Flushed { count, tracer },
                format!("flush {count} coalesced event(s) -> lpm {tracer}"),
            ));
        }
        for pid in [Pid(0), Pid(9), Pid(10), Pid(u32::MAX)] {
            lines.push((
                Note::Listening { pid, port },
                format!("pid {pid} listening on {port}"),
            ));
        }
        for (from, to) in [("calder", "b"), ("", "ünï"), ("日本", "")] {
            lines.push((
                Note::Connecting {
                    pid,
                    to,
                    port,
                    hops,
                    conn,
                },
                format!("pid {pid} connecting to {to}{port} ({hops} hops, {conn})"),
            ));
            lines.push((
                Note::Established {
                    conn,
                    from,
                    client: pid,
                    to,
                    port,
                },
                format!("{conn} established {from}:{pid} -> {to}{port}"),
            ));
        }
        lines.push((Note::Text("host crashed"), "host crashed".to_owned()));
        lines
    }

    #[test]
    fn every_note_renders_the_line_its_format_args_produced() {
        let lines = typed_lines();
        let mut log = TraceLog::new();
        let at = SimTime::from_millis(5);
        for (note, line) in &lines {
            assert_eq!(&note.to_string(), line);
            assert_eq!(note.rendered_len(), line.len(), "{line}");
            log.note(at, Some(HostId(2)), TraceCategory::Kernel, *note);
        }
        // Stored and read back, a note is the note that was given, and
        // reads as its line through every accessor.
        assert_eq!(log.len(), lines.len());
        for (e, (note, line)) in log.entries().zip(&lines) {
            assert_eq!(e.note, *note);
            assert_eq!(&e.text(), line);
            assert_eq!(e.to_string(), format!("[     5.000ms h2 kernel] {line}"));
            assert!(log.grep(line).any(|hit| hit == e), "grep misses {line}");
        }
        let rendered: usize = lines.iter().map(|(_, line)| 26 + line.len()).sum();
        let out = log.render(None);
        assert_eq!(out.len(), rendered);
        // Sized by rendered, not stored, bytes: at 28 a prefix, neither
        // regrown nor much too large.
        assert_eq!(out.capacity(), rendered + 2 * lines.len());
        let text: usize = lines.iter().map(|(_, line)| line.len()).sum();
        assert!(
            log.arena.len() < text / 2,
            "typed entries are stored packed"
        );
    }

    #[test]
    fn a_note_outside_its_packed_range_is_kept_as_text() {
        let mut log = TraceLog::new();
        let odd = Note::KernelEvent {
            kind: "not-a-kernel-event",
            pid: Pid(1),
            tracer: Pid(2),
            wire_size: 3,
            delay: None,
        };
        log.note(SimTime::ZERO, None, TraceCategory::Kernel, odd);
        let line = "event not-a-kernel-event pid 1 -> lpm 2 (3 bytes, batched)";
        assert_eq!(log.entries().next().unwrap().note, Note::Text(line));
        assert_eq!(log.grep("not-a-kernel").count(), 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_no_host_sentinel_is_not_a_host() {
        let mut log = TraceLog::new();
        let h = Some(HostId(u32::MAX));
        log.record(SimTime::ZERO, h, TraceCategory::Net, format_args!("x"));
    }
}
