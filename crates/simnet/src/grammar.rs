//! One reader for every text file: `.ppm` scenarios, `.fault` plans,
//! `.topo` network models and `.sweep` grids, and the command lines of
//! `ppm-sim`, `ppm-sweep` and `ppm-mc`.
//!
//! Every file is read the same way ([`each_line`]): text from a `#` on is
//! a comment, a blank line is skipped, lines are numbered from 1, and a
//! statement is its whitespace-separated tokens, the first naming it. No
//! token is longer than [`MAX_TOKEN_BYTES`], the most a protocol string
//! carries. A statement takes its tokens through [`Tokens`] and its
//! values through one set of readers, so a token means the same value in
//! every file:
//!
//! | form | reader | examples |
//! |---|---|---|
//! | count | [`count`], [`count_at_least`] | `1986`, `0x7c2` |
//! | 32-bit id (a UID or PID) | [`id`] | `100`, `0xBEEF` |
//! | duration: a count and a unit | [`duration`] | `250us`, `5ms`, `3s` |
//! | instant: a duration after time zero | [`instant`], [`later`] | `2s` |
//! | probability in `[0, 1]` | [`probability`] | `0.05`, `1` |
//! | option | [`option`] | `secret=0xBEEF`, `fast` |
//!
//! A refusal is one [`LineError`]: the line it came from and what went
//! wrong, shown as `line N: message`. Line 0 marks a rule of the whole
//! file (`scenario declares no hosts`), a command line ([`flag_value`],
//! [`flag_number`], [`operand`]) or a
//! failure while a scenario runs.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// The longest token a file may hold: a protocol string's `u16` length
/// (`proto::codec::MAX_STR_BYTES`), so a host name or a command read from
/// a file always encodes.
pub const MAX_TOKEN_BYTES: usize = u16::MAX as usize;

/// A refusal, with the line it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct LineError {
    /// 1-based line number; 0 for a whole-file rule, a command line or
    /// an execution error without a line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl LineError {
    /// An error on `line` (0: none).
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        LineError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for LineError {}

/// A refusal with no line: a whole-file rule or a command line's.
impl From<String> for LineError {
    fn from(message: String) -> Self {
        LineError::new(0, message)
    }
}

impl From<&str> for LineError {
    fn from(message: &str) -> Self {
        LineError::new(0, message)
    }
}

/// One statement of a file, as [`each_line`] hands it over.
#[derive(Debug)]
pub struct Line<'a> {
    /// 1-based line number.
    pub no: usize,
    /// The line with its comment cut and its ends trimmed.
    text: &'a str,
    /// Its tokens: never empty, none longer than [`MAX_TOKEN_BYTES`].
    pub tokens: Vec<&'a str>,
}

impl<'a> Line<'a> {
    /// The tokens from token `i` on, token `i` their verb.
    pub fn at(&self, i: usize) -> Tokens<'_, 'a> {
        Tokens(self.tokens.get(i..).unwrap_or_default())
    }

    /// The text from token `i` to the comment, inner spacing kept; empty
    /// when the line has no token `i`.
    pub fn rest(&self, i: usize) -> &'a str {
        let from = |t: &&str| t.as_ptr() as usize - self.text.as_ptr() as usize;
        self.tokens.get(i).map_or("", |t| &self.text[from(t)..])
    }
}

/// Hands `statement` each line of `text` that holds one, in order. A
/// token past [`MAX_TOKEN_BYTES`], or the message `statement` refuses its
/// line with, is a [`LineError`] on that line.
///
/// # Examples
///
/// ```
/// use ppm_simnet::grammar::{count, each_line};
/// let mut seeds = Vec::new();
/// let read = each_line("# seeds\nseed 7\n\nseed 0x7c2 # 1986\nseed x", |line| {
///     seeds.push(count(line.at(0).need(1, "a value")?)?);
///     Ok(())
/// });
/// assert_eq!(seeds, [7, 1986]);
/// assert_eq!(read.unwrap_err().to_string(), "line 5: bad number \"x\"");
/// ```
///
/// # Errors
///
/// The first refused line's [`LineError`].
pub fn each_line<'a>(
    text: &'a str,
    mut statement: impl FnMut(&mut Line<'a>) -> Result<(), String>,
) -> Result<(), LineError> {
    let mut line = Line {
        no: 0,
        text: "",
        tokens: Vec::new(),
    };
    for (idx, raw) in text.lines().enumerate() {
        line.no = idx + 1;
        line.text = raw.split('#').next().unwrap_or("").trim();
        line.tokens.clear();
        line.tokens.extend(line.text.split_whitespace());
        if line.tokens.is_empty() {
            continue;
        }
        if let Some(long) = line.tokens.iter().find(|t| t.len() > MAX_TOKEN_BYTES) {
            let len = long.len();
            let message = format!("a token of {len} bytes is longer than {MAX_TOKEN_BYTES}");
            return Err(LineError::new(line.no, message));
        }
        statement(&mut line).map_err(|message| LineError::new(line.no, message))?;
    }
    Ok(())
}

/// A statement's tokens, the first its verb: the cursor a statement is
/// read with.
#[derive(Debug, Clone, Copy)]
pub struct Tokens<'t, 'a>(pub &'t [&'a str]);

impl<'a> Tokens<'_, 'a> {
    /// The statement's name: its first token.
    pub fn verb(self) -> &'a str {
        self.0.first().copied().unwrap_or_default()
    }

    /// Token `i`, if the statement has one.
    pub fn get(self, i: usize) -> Option<&'a str> {
        self.0.get(i).copied()
    }

    /// Token `i`, or the refusal `VERB needs WHAT`.
    pub fn need(self, i: usize, what: &str) -> Result<&'a str, String> {
        self.get(i)
            .ok_or_else(|| format!("{} needs {what}", self.verb()))
    }

    /// Refuses a token past the first `n`, the verb counted: what a
    /// statement that has read all it takes says last, so that nothing
    /// written after it is dropped unread.
    ///
    /// ```
    /// use ppm_simnet::grammar::Tokens;
    /// assert_eq!(Tokens(&["crash", "b"]).end(2), Ok(()));
    /// let refused = Tokens(&["crash", "b", "now", "please"]).end(2);
    /// assert_eq!(refused.unwrap_err(), "crash has an extra token \"now\"");
    /// ```
    pub fn end(self, n: usize) -> Result<(), String> {
        match self.get(n) {
            None => Ok(()),
            Some(extra) => Err(format!("{} has an extra token {extra:?}", self.verb())),
        }
    }
}

/// A count: decimal, or hexadecimal after `0x`.
pub fn count(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad number {s:?}"))
}

/// A [`count`] that fits `T` and is at least `min`.
pub fn count_at_least<T: TryFrom<u64> + PartialOrd>(s: &str, min: T) -> Option<T> {
    let n = T::try_from(count(s).ok()?).ok()?;
    (n >= min).then_some(n)
}

/// A UID or PID: a [`count`] that fits in 32 bits.
pub fn id(s: &str) -> Result<u32, String> {
    u32::try_from(count(s)?).map_err(|_| format!("{s:?} does not fit in 32 bits"))
}

/// A duration: a whole count and a unit (`us`, `ms` or `s`), inside the
/// simulated clock's range.
pub fn duration(s: &str) -> Result<SimDuration, String> {
    s.parse()
}

/// An instant: a [`duration`] after time zero.
pub fn instant(s: &str) -> Result<SimTime, String> {
    Ok(SimTime::ZERO + duration(s)?)
}

/// `at` plus the [`duration`] `s`, still inside the clock's range (so a
/// fault plan's `encode` reads back).
pub fn later(at: SimTime, s: &str) -> Result<SimTime, String> {
    let d = duration(s)?;
    let later = at.as_micros().checked_add(d.as_micros());
    let later = later.filter(|us| *us <= SimTime::FAR_FUTURE.as_micros());
    later
        .map(|_| at + d)
        .ok_or_else(|| format!("{at} + {s} is out of range"))
}

/// A probability in `[0, 1]`.
pub fn probability(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    Ok(p)
}

/// An option token: `key=value` as its key and value, a bare word as
/// itself and `None`.
pub fn option(token: &str) -> (&str, Option<&str>) {
    match token.split_once('=') {
        Some((key, value)) => (key, Some(value)),
        None => (token, None),
    }
}

/// The value after a command line's `flag`, or the refusal `FLAG needs
/// WHAT`.
pub fn flag_value(flag: &str, value: Option<String>, what: &str) -> Result<String, LineError> {
    value.ok_or_else(|| format!("{flag} needs {what}").into())
}

/// The value after a command line's `flag` as a [`count`] of at least
/// `min` that fits `T`.
pub fn flag_number<T>(flag: &str, value: Option<String>, min: T) -> Result<T, LineError>
where
    T: TryFrom<u64> + PartialOrd + fmt::Display + Copy,
{
    let n = value.and_then(|v| count_at_least(&v, min));
    n.ok_or_else(|| format!("{flag} needs a number of at least {min}").into())
}

/// `arg`, neither a flag nor a flag's value, as a command line's one
/// `what` (`scenario path`): refuses an unknown flag and a second one.
pub fn operand(arg: String, slot: &mut Option<String>, what: &str) -> Result<(), LineError> {
    if arg.starts_with('-') {
        return Err(format!("unknown flag {arg:?}").into());
    }
    if slot.is_some() {
        return Err(format!("a second {what} {arg:?}").into());
    }
    *slot = Some(arg);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn statements(text: &str) -> Result<Vec<(usize, Vec<&str>)>, LineError> {
        let mut seen = Vec::new();
        each_line(text, |line| {
            seen.push((line.no, line.tokens.clone()));
            Ok(())
        })?;
        Ok(seen)
    }

    #[test]
    fn comments_blanks_and_line_numbers() {
        let seen = statements("# head\n\n  a b#c\n\t#\nd   e  f # g\n").unwrap();
        assert_eq!(seen, [(3, vec!["a", "b"]), (5, vec!["d", "e", "f"])]);
    }

    #[test]
    fn a_long_token_is_refused_on_its_line() {
        let long = "x".repeat(MAX_TOKEN_BYTES + 1);
        let e = statements(&format!("a\n\nb {long}")).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("65536 bytes"), "{e}");
        assert!(statements(&format!("b {}", &long[1..])).is_ok());
    }

    #[test]
    fn a_refusal_carries_its_line_and_a_whole_file_rule_none() {
        let e = each_line("a\nb", |l| match l.at(0).verb() {
            "b" => Err(format!("{} needs {}", "b", "more")),
            _ => Ok(()),
        });
        assert_eq!(e.unwrap_err().to_string(), "line 2: b needs more");
        assert_eq!(LineError::from("no hosts").to_string(), "no hosts");
    }

    #[test]
    fn tokens_and_rest() {
        each_line("expect  a   b  # c", |l| {
            assert_eq!(l.rest(1), "a   b");
            assert_eq!(l.rest(3), "");
            let t = l.at(1);
            assert_eq!((t.verb(), t.get(1), t.get(2)), ("a", Some("b"), None));
            assert_eq!(t.need(2, "c"), Err("a needs c".to_string()));
            assert_eq!(l.at(5).verb(), "");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn value_readers() {
        assert_eq!(count("0x7c2"), Ok(1986));
        assert_eq!(count("1986"), Ok(1986));
        for bad in ["", "0x", "-1", "1.5", "18446744073709551616"] {
            assert!(count(bad).is_err(), "{bad}");
        }
        assert_eq!(id("0xBEEF"), Ok(0xBEEF));
        assert!(id("4294967296").unwrap_err().contains("32 bits"));
        assert_eq!(count_at_least::<u16>("2", 2), Some(2));
        assert_eq!(count_at_least::<u16>("1", 2), None);
        assert_eq!(count_at_least::<u16>("70000", 2), None);
        assert_eq!(duration("250ms"), Ok(SimDuration::from_millis(250)));
        assert_eq!(duration("3s"), Ok(SimDuration::from_secs(3)));
        assert!(duration("10").is_err());
        assert!(duration("5h").is_err());
        assert_eq!(instant("2s"), Ok(SimTime::from_secs(2)));
        assert_eq!(
            later(SimTime::from_secs(2), "6s"),
            Ok(SimTime::from_secs(8))
        );
        let far = SimTime::from_secs(4_611_686_018_427);
        assert!(later(far, "3s").unwrap_err().contains("out of range"));
        assert_eq!(probability("0.25"), Ok(0.25));
        for bad in ["1.5", "-0.1", "NaN", "x"] {
            assert!(probability(bad).is_err(), "{bad}");
        }
        assert_eq!(option("a=b=c"), ("a", Some("b=c")));
        assert_eq!(option("fast"), ("fast", None));
    }

    #[test]
    fn command_lines() {
        assert_eq!(flag_number::<u32>("--n", Some("0x10".into()), 1), Ok(16));
        let e = flag_number::<u32>("--m", Some("1".into()), 2).unwrap_err();
        assert_eq!(e.to_string(), "--m needs a number of at least 2");
        assert!(flag_number::<u16>("--m", Some("70000".into()), 2).is_err());
        assert_eq!(flag_value("--p", None, "a path").unwrap_err().line, 0);
        let mut slot = None;
        operand("a".into(), &mut slot, "path").unwrap();
        let e = operand("b".into(), &mut slot, "path").unwrap_err();
        assert_eq!(e.message, "a second path \"b\"");
        let e = operand("--b".into(), &mut slot, "path").unwrap_err();
        assert_eq!(e.message, "unknown flag \"--b\"");
    }
}
