//! The trace log against a model that formats every line when it is
//! recorded and keeps `(at, host, category, line)` in a `Vec` — what the
//! log was before it stored typed entries as values. Whatever mix of
//! text and typed entries goes in, across arena pages and header pages,
//! every reader must see the model's lines.

use std::fmt;

use ppm_runtime::events::KernelEvent;
use ppm_runtime::ids::{ConnId, HostId, Pid, Port};
use ppm_runtime::pages::PAGE_BYTES;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::time::{SimDuration, SimTime};
use ppm_runtime::trace::{Note, TraceCategory, TraceLog};
use proptest::prelude::*;

const CATEGORIES: [TraceCategory; 7] = [
    TraceCategory::Kernel,
    TraceCategory::Net,
    TraceCategory::Daemon,
    TraceCategory::Lpm,
    TraceCategory::Broadcast,
    TraceCategory::Recovery,
    TraceCategory::Tool,
];

type ModelEntry = (SimTime, Option<HostId>, TraceCategory, String);

/// The eager log: one formatted line per entry.
#[derive(Default)]
struct Model {
    entries: Vec<ModelEntry>,
}

impl Model {
    fn render(&self, category: Option<TraceCategory>) -> String {
        let mut out = String::new();
        for (at, host, cat, line) in &self.entries {
            if category.is_none_or(|c| c == *cat) {
                let host = host.map_or("--".to_owned(), |h| h.to_string());
                out.push_str(&format!("[{at:>12} {host} {cat}] {line}\n"));
            }
        }
        out
    }
}

/// A value of `bits` with a magnitude that varies with `bits` itself, so
/// that every decimal width turns up.
fn scaled(bits: u64) -> u64 {
    bits >> (bits % 64)
}

/// `len` characters, some of them multi-byte.
fn word(bits: u64, len: usize) -> String {
    const ALPHABET: [&str; 8] = ["a", "z", "0", "-", " ", "é", "日", "→"];
    (0..len)
        .map(|i| ALPHABET[(bits.rotate_left(i as u32 * 3) % 8) as usize])
        .collect()
}

/// Typed note number `variant`, its values drawn from `bits`.
fn typed<'a>(variant: u8, bits: u64, first: &'a str, second: &'a str) -> Note<'a> {
    let pid = Pid(scaled(bits) as u32);
    let other = Pid(scaled(bits.rotate_left(17)) as u32);
    let port = Port(scaled(bits.rotate_left(29)) as u16);
    let conn = ConnId(scaled(bits.rotate_left(41)));
    let span = SimDuration::from_micros(scaled(bits.rotate_left(53)));
    let signal = [Signal::Kill, Signal::Usr1, Signal::Hup, Signal::Stop][(bits % 4) as usize];
    match variant % 8 {
        0 => Note::KernelEvent {
            kind: KernelEvent::KINDS[(bits % 10) as usize],
            pid,
            tracer: other,
            wire_size: scaled(bits.rotate_left(7)) as u32 as usize,
            delay: bits.is_multiple_of(2).then_some(span),
        },
        1 => Note::Signaled { signal, pid },
        2 => Note::Exiting {
            pid,
            status: match bits % 3 {
                0 => ExitStatus::Signaled(signal),
                1 => ExitStatus::Code(scaled(bits) as i32),
                _ => ExitStatus::Code((scaled(bits) as i32).wrapping_neg()),
            },
        },
        3 => Note::Spawned {
            pid,
            command: first,
            parent: other,
            ready_in: span,
        },
        4 => Note::Flushed {
            count: scaled(bits.rotate_left(7)) as u32 as usize,
            tracer: other,
        },
        5 => Note::Listening { pid, port },
        6 => Note::Connecting {
            pid,
            to: first,
            port,
            hops: scaled(bits.rotate_left(11)) as u32,
            conn,
        },
        _ => Note::Established {
            conn,
            from: first,
            client: pid,
            to: second,
            port,
        },
    }
}

/// Records one entry in both logs: typed when `variant` is below 8, as
/// text of `len` characters otherwise.
fn record(log: &mut TraceLog, model: &mut Model, variant: u8, bits: u64, len: usize) {
    let at = SimTime::from_micros(scaled(bits.rotate_left(3)));
    let host = (!bits.is_multiple_of(5)).then_some(HostId((bits % 40) as u32));
    let category = CATEGORIES[(bits % 7) as usize];
    let (first, second) = (word(bits, len), word(!bits, len / 2));
    let line = if variant < 8 {
        let note = typed(variant, bits, &first, &second);
        log.note(at, host, category, note);
        note.to_string()
    } else {
        log.record(at, host, category, format_args!("{first}#{bits}"));
        format!("{first}#{bits}")
    };
    if log.is_enabled() {
        model.entries.push((at, host, category, line));
    }
}

/// Every reader of the log agrees with the model.
fn assert_same(log: &TraceLog, model: &Model) {
    let line = |e: ppm_runtime::trace::TraceEntry<'_>| -> ModelEntry {
        (e.at, e.host, e.category, e.text().into_owned())
    };
    assert_eq!(log.len(), model.entries.len());
    assert_eq!(log.is_empty(), model.entries.is_empty());
    assert_eq!(log.entries().len(), model.entries.len());
    assert!(log.entries().map(line).eq(model.entries.iter().cloned()));
    let backwards = model.entries.iter().rev().cloned();
    assert!(log.entries().rev().map(line).eq(backwards));
    for category in CATEGORIES {
        let wanted = model.entries.iter().filter(|e| e.2 == category).cloned();
        assert!(log.filtered(category).map(line).eq(wanted), "{category}");
        assert_eq!(log.render(Some(category)), model.render(Some(category)));
    }
    assert_eq!(log.render(None), model.render(None));
    // Needles cut from what the model holds, typed lines included, and
    // a few that every typed line of one kind contains.
    let cut = |e: &ModelEntry| {
        let from = e.3.char_indices().nth(e.3.chars().count() / 3);
        let from = from.map_or(0, |(at, _)| at);
        e.3[from..].chars().take(9).collect::<String>()
    };
    let step = model.entries.len() / 5 + 1;
    let cuts: Vec<String> = model.entries.iter().step_by(step).map(cut).collect();
    let fixed = [
        " -> lpm ", "batched", "SIGKILL", "ready in", " hops, c", "é",
    ];
    for needle in cuts.iter().map(String::as_str).chain(fixed) {
        let wanted = model.entries.iter().filter(|e| e.3.contains(needle));
        assert!(
            log.grep(needle).map(line).eq(wanted.cloned()),
            "grep {needle:?}"
        );
    }
}

/// A `Display` that must never run.
struct Bomb;

impl fmt::Display for Bomb {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        panic!("a disabled log formatted its argument");
    }
}

proptest! {
    /// Random interleavings of text and typed entries: single ones, runs
    /// long enough to cross a header page (2 048 entries), texts long
    /// enough to cross an arena page or to exceed one, a disabled
    /// stretch, a `clear` and reuse.
    #[test]
    fn trace_log_matches_the_eager_model(
        ops in prop::collection::vec((0u8..32, any::<u64>(), 0usize..48), 1..40)
    ) {
        let mut log = TraceLog::new();
        let mut model = Model::default();
        for (op, bits, len) in ops {
            match op {
                // One entry: eight typed variants, then text.
                0..=23 => record(&mut log, &mut model, op % 12, bits, len),
                // A run of short entries, across header pages.
                24 | 25 => {
                    for i in 0..bits % 3_000 {
                        let bits = bits.wrapping_mul(i | 1);
                        record(&mut log, &mut model, (bits % 12) as u8, bits, len % 6);
                    }
                }
                // A text near, or past, the size of an arena page.
                26 | 27 => {
                    let chars = PAGE_BYTES / 8 + (bits % (PAGE_BYTES as u64)) as usize;
                    record(&mut log, &mut model, 8, bits, chars);
                }
                // Off: nothing is recorded, nothing is formatted.
                28 | 29 => {
                    log.set_enabled(false);
                    let (at, cat) = (SimTime::ZERO, TraceCategory::Lpm);
                    log.record(at, None, cat, format_args!("{Bomb}"));
                    record(&mut log, &mut model, (bits % 12) as u8, bits, len);
                    log.set_enabled(true);
                }
                30 => {
                    log.clear();
                    model.entries.clear();
                    prop_assert!(log.is_enabled(), "clear leaves the switch alone");
                }
                _ => assert_same(&log, &model),
            }
        }
        assert_same(&log, &model);
        // Typed entries are kept as values: never more bytes than text.
        let text: usize = model.entries.iter().map(|e| 24 + e.3.len()).sum();
        prop_assert!(log.stored_bytes() <= text);
    }
}
