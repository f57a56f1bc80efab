//! Structured simulation trace.
//!
//! Every layer of the stack (kernel, network, daemons, LPMs, tools) can
//! append timestamped entries to a shared [`TraceLog`]. The figure
//! regenerators in `ppm-bench` replay these entries to print the message
//! sequences of Figures 2–4, and tests assert on them to check protocol
//! steps without reaching into private state.

use std::fmt::{self, Write as _};

use crate::ids::HostId;
use crate::pages::{Pages, PAGE_BYTES};
use crate::time::SimTime;

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

/// One timestamped trace entry, borrowed from its [`TraceLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry<'a> {
    /// When the entry was recorded.
    pub at: SimTime,
    /// Host the activity happened on, when host-local.
    pub host: Option<HostId>,
    /// Category for filtering.
    pub category: TraceCategory,
    /// Human-readable description.
    pub text: &'a str,
}

impl fmt::Display for TraceEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12} ", self.at)?;
        match self.host {
            Some(h) => write!(f, "{h}")?,
            None => f.write_str("--")?,
        }
        write!(f, " {}] {}", self.category, self.text)
    }
}

/// The fixed-size part of a stored entry; its text runs from the
/// previous entry's `end` (or the start of the page) to its own.
#[derive(Debug, Clone, Copy)]
struct Head {
    at: SimTime,
    /// Index of the text page.
    page: u32,
    /// End offset within that page.
    end: u32,
    /// `HostId.0`, or [`NO_HOST`].
    host: u32,
    category: TraceCategory,
}

/// Stands for "not host-local" in [`Head::host`]; never a real host id
/// (ids index a host table held in memory).
const NO_HOST: u32 = u32::MAX;

/// A text page takes entries until it is this full; the slack lets the
/// last one in without the page having to grow.
const PAGE_FULL: usize = PAGE_BYTES - 2048;

/// An append-only log of simulation activity.
///
/// Entries are formatted straight into a text arena and described by a
/// fixed-size header each; both grow a page at a time (see
/// [`crate::pages`]), so recording allocates once per page, not per
/// entry. Recording can be toggled off for long benchmark runs: a
/// disabled log returns before looking at the [`fmt::Arguments`], so no
/// argument is ever formatted.
///
/// # Examples
///
/// ```
/// use ppm_runtime::trace::{TraceCategory, TraceLog};
/// use ppm_runtime::time::SimTime;
///
/// let mut log = TraceLog::new();
/// log.record(SimTime::ZERO, None, TraceCategory::Net, format_args!("link {} up", 3));
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.filtered(TraceCategory::Net).count(), 1);
/// assert_eq!(log.entries().next().unwrap().text, "link 3 up");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The arena: an entry's text lies within one page.
    text: Vec<String>,
    heads: Pages<Head>,
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

    /// Appends an entry (no-op while disabled).
    pub fn record(
        &mut self,
        at: SimTime,
        host: Option<HostId>,
        category: TraceCategory,
        text: fmt::Arguments<'_>,
    ) {
        if !self.enabled {
            return;
        }
        let host = host.map_or(NO_HOST, |h| {
            assert!(h.0 != NO_HOST, "host id {NO_HOST} is reserved");
            h.0
        });
        if self.text.last().is_none_or(|p| p.len() >= PAGE_FULL) {
            // Like `Pages`: the first page grows from nothing (by
            // doubling, so to exactly a page), later ones come whole.
            let whole = if self.text.is_empty() { 0 } else { PAGE_BYTES };
            self.text.push(String::with_capacity(whole));
        }
        let last = self.text.last_mut().expect("just ensured");
        last.write_fmt(text)
            .expect("a Display impl returned an error");
        // Offsets are checked, not truncated: a page index or a single
        // page beyond u32 fails here instead of corrupting the log.
        let end = u32::try_from(last.len()).expect("trace page over 4 GiB");
        let page = u32::try_from(self.text.len() - 1).expect("over 2^32 trace pages");
        self.heads.push(Head {
            at,
            page,
            end,
            host,
            category,
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

    fn entry(&self, i: usize) -> TraceEntry<'_> {
        let h = self.heads.get(i).expect("index below len");
        let prev = i.checked_sub(1).and_then(|p| self.heads.get(p));
        let start = prev.filter(|p| p.page == h.page).map_or(0, |p| p.end);
        TraceEntry {
            at: h.at,
            host: (h.host != NO_HOST).then_some(HostId(h.host)),
            category: h.category,
            text: &self.text[h.page as usize][start as usize..h.end as usize],
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

    /// Entries whose text contains `needle`, in order.
    pub fn grep<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = TraceEntry<'a>> + 'a {
        self.entries().filter(move |e| e.text.contains(needle))
    }

    /// Drops all recorded entries, text and headers.
    pub fn clear(&mut self) {
        self.text.clear();
        self.heads.clear();
    }

    /// Renders the whole log (or one category) as display lines.
    pub fn render(&self, category: Option<TraceCategory>) -> String {
        // A line is its text plus a "[  123.456ms h12 kernel] " prefix.
        let text: usize = self.text.iter().map(String::len).sum();
        let mut out = String::with_capacity(text + 28 * self.len());
        for e in self.entries() {
            if category.is_none_or(|c| c == e.category) {
                writeln!(out, "{e}").expect("writing to a String cannot fail");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

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
        let texts: Vec<&str> = log.entries().map(|e| e.text).collect();
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
        let back: Vec<&str> = log.entries().map(|e| e.text).collect();
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
        assert!(log.text.len() > 3, "the arena spans several pages");
        assert_eq!(log.len(), 6_000);
        for (i, e) in log.entries().enumerate() {
            assert_eq!(e.at, SimTime::from_micros(i as u64));
            assert_eq!(e.host, (i % 3 != 0).then_some(HostId(i as u32)));
            if i == 3_000 {
                assert_eq!(e.text, huge);
            } else {
                assert_eq!(e.text, text(i), "entry {i}");
            }
        }
        assert_eq!(log.entries().nth(5_999).unwrap().text, text(5_999));
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
        assert_eq!(log.entries().next().unwrap().text, "fresh");
        assert!(log.is_enabled(), "clear leaves the switch alone");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_no_host_sentinel_is_not_a_host() {
        let mut log = TraceLog::new();
        let h = Some(HostId(u32::MAX));
        log.record(SimTime::ZERO, h, TraceCategory::Net, format_args!("x"));
    }
}
