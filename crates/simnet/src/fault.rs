//! Deterministic fault injection: scripted fault plans.
//!
//! A [`FaultPlan`] describes *when the world misbehaves*: hosts crash and
//! restart, links are cut and heal, processes are killed, and the wire
//! drops, duplicates, reorders or delays messages with seeded
//! probabilities. Plans are text files (one statement per line, `#`
//! comments) so a chaos scenario is an artifact that can be committed,
//! diffed and replayed:
//!
//! ```text
//! seed 7
//! at 2s crash calder restart 6s       # crash, heal 6s later
//! at 3s cut calder kim heal 2s        # partition, heal 2s later
//! at 4s cut link core:tor0-spine1     # cut a named netmodel link
//! at 5s kill calder lpm               # SIGKILL by command prefix
//! drop 0.05 from calder to kim after 1s until 9s
//! dup 0.02
//! reorder 0.1 skew 3ms
//! delay 0.2 add 40ms
//! ```
//!
//! Nothing here executes faults: the simulation layers interpret the
//! plan by scheduling [`FaultEvent`]s on the event engine and consulting
//! [`WireFaults`] on every message send. The wire-fault generator owns
//! its **own** seeded [`SimRng`] stream, so fault decisions never
//! perturb the latency jitter stream — the same plan and seed produce
//! the same fault schedule whether or not other randomness changes.

use std::fmt;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A timed fault: what happens and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time of the fault.
    pub at: SimTime,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// The kinds of scheduled (non-probabilistic) faults.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Power-fail a host: every process, FD and socket dies.
    Crash { host: String },
    /// Power the host back up (kernel reboots, daemons re-run).
    Restart { host: String },
    /// Cut the link between two hosts.
    LinkDown { a: String, b: String },
    /// Heal the link between two hosts.
    LinkUp { a: String, b: String },
    /// Cut a *named* netmodel link (`cut link <name>`); requires a
    /// topology to be installed so the name can resolve.
    NetLinkDown { link: String },
    /// Heal a named netmodel link.
    NetLinkUp { link: String },
    /// SIGKILL every live process on `host` whose command starts with
    /// `command` — the way a plan kills an LPM without taking the whole
    /// host down.
    Kill { host: String, command: String },
}

/// The kinds of probabilistic per-message wire faults.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFaultKind {
    /// Silently lose the message.
    Drop,
    /// Deliver the message twice.
    Dup,
    /// Delay this message past the FIFO floor so a later message can
    /// overtake it.
    Reorder {
        /// How far past its nominal arrival the message lands.
        skew: SimDuration,
    },
    /// A latency spike: extra one-way delay.
    Delay {
        /// The added delay.
        extra: SimDuration,
    },
}

/// One probabilistic wire rule, optionally scoped by direction and time.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRule {
    /// The fault applied when the rule fires.
    pub kind: WireFaultKind,
    /// Per-message firing probability in `[0, 1]`.
    pub p: f64,
    /// Only messages sent from this host (any, when `None`).
    pub from: Option<String>,
    /// Only messages sent to this host (any, when `None`).
    pub to: Option<String>,
    /// Only messages sent at or after this time.
    pub after: Option<SimTime>,
    /// Only messages sent strictly before this time.
    pub until: Option<SimTime>,
}

impl WireRule {
    /// An unscoped rule: applies to every message, forever.
    pub fn new(kind: WireFaultKind, p: f64) -> Self {
        WireRule {
            kind,
            p,
            from: None,
            to: None,
            after: None,
            until: None,
        }
    }

    /// Whether the rule covers a message `from → to` sent at `now`.
    pub fn applies(&self, from: &str, to: &str, now: SimTime) -> bool {
        self.from.as_deref().is_none_or(|f| f == from)
            && self.to.as_deref().is_none_or(|t| t == to)
            && self.after.is_none_or(|a| now >= a)
            && self.until.is_none_or(|u| now < u)
    }
}

/// A full fault plan: seed, scheduled faults, wire rules.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the dedicated wire-fault RNG stream.
    pub seed: u64,
    /// Scheduled faults, in plan order (ties scheduled in file order).
    pub events: Vec<FaultEvent>,
    /// Probabilistic wire rules, consulted in plan order.
    pub wire: Vec<WireRule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1986,
            events: Vec::new(),
            wire: Vec::new(),
        }
    }
}

/// A parse failure, with the 1-based line it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FaultPlanError {}

fn err(line: usize, message: impl Into<String>) -> FaultPlanError {
    FaultPlanError {
        line,
        message: message.into(),
    }
}

fn parse_duration(s: &str, line: usize) -> Result<SimDuration, FaultPlanError> {
    s.parse().map_err(|m: String| err(line, m))
}

fn parse_time(s: &str, line: usize) -> Result<SimTime, FaultPlanError> {
    Ok(SimTime::ZERO + parse_duration(s, line)?)
}

/// `at` plus a sugared `restart` / `heal` delay, still inside the clock's
/// range (so the plan's `encode` parses again).
fn parse_later(at: SimTime, s: &str, line: usize) -> Result<SimTime, FaultPlanError> {
    let d = parse_duration(s, line)?;
    let later = at.as_micros().checked_add(d.as_micros());
    let later = later.filter(|us| *us <= SimTime::FAR_FUTURE.as_micros());
    later
        .map(|_| at + d)
        .ok_or_else(|| err(line, format!("{at} + {s} is out of range")))
}

fn parse_prob(s: &str, line: usize) -> Result<f64, FaultPlanError> {
    let p: f64 = s
        .parse()
        .map_err(|_| err(line, format!("bad probability {s:?}")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(err(line, format!("probability {p} outside [0, 1]")));
    }
    Ok(p)
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.wire.is_empty()
    }

    /// Parses a plan from text.
    ///
    /// # Examples
    ///
    /// ```
    /// use ppm_simnet::fault::FaultPlan;
    /// let plan = FaultPlan::parse("seed 7\nat 2s crash calder restart 6s\ndrop 0.1")?;
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.events.len(), 2, "crash + sugared restart");
    /// assert_eq!(plan.wire.len(), 1);
    /// # Ok::<(), ppm_simnet::fault::FaultPlanError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, FaultPlanError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = stripped.split_whitespace().collect();
            match tokens[0] {
                "seed" => {
                    let v = tokens
                        .get(1)
                        .ok_or_else(|| err(line, "seed needs a value"))?;
                    plan.seed = v
                        .parse()
                        .map_err(|_| err(line, format!("bad seed {v:?}")))?;
                }
                "at" => parse_event(&mut plan, &tokens[1..], line)?,
                "drop" | "dup" | "reorder" | "delay" => {
                    plan.wire.push(parse_wire_rule(&tokens, line)?);
                }
                other => return Err(err(line, format!("unknown statement {other:?}"))),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back to canonical text (sugar expanded, times in
    /// microseconds). `parse(encode(p))` reproduces `p` exactly.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.seed);
        for ev in &self.events {
            let at = ev.at.as_micros();
            match &ev.kind {
                FaultKind::Crash { host } => {
                    let _ = writeln!(out, "at {at}us crash {host}");
                }
                FaultKind::Restart { host } => {
                    let _ = writeln!(out, "at {at}us restart {host}");
                }
                FaultKind::LinkDown { a, b } => {
                    let _ = writeln!(out, "at {at}us link-down {a} {b}");
                }
                FaultKind::LinkUp { a, b } => {
                    let _ = writeln!(out, "at {at}us link-up {a} {b}");
                }
                FaultKind::NetLinkDown { link } => {
                    let _ = writeln!(out, "at {at}us link-down link {link}");
                }
                FaultKind::NetLinkUp { link } => {
                    let _ = writeln!(out, "at {at}us link-up link {link}");
                }
                FaultKind::Kill { host, command } => {
                    let _ = writeln!(out, "at {at}us kill {host} {command}");
                }
            }
        }
        for rule in &self.wire {
            match &rule.kind {
                WireFaultKind::Drop => {
                    let _ = write!(out, "drop {}", rule.p);
                }
                WireFaultKind::Dup => {
                    let _ = write!(out, "dup {}", rule.p);
                }
                WireFaultKind::Reorder { skew } => {
                    let _ = write!(out, "reorder {} skew {}us", rule.p, skew.as_micros());
                }
                WireFaultKind::Delay { extra } => {
                    let _ = write!(out, "delay {} add {}us", rule.p, extra.as_micros());
                }
            }
            if let Some(f) = &rule.from {
                let _ = write!(out, " from {f}");
            }
            if let Some(t) = &rule.to {
                let _ = write!(out, " to {t}");
            }
            if let Some(a) = rule.after {
                let _ = write!(out, " after {}us", a.as_micros());
            }
            if let Some(u) = rule.until {
                let _ = write!(out, " until {}us", u.as_micros());
            }
            out.push('\n');
        }
        out
    }
}

fn parse_event(plan: &mut FaultPlan, tokens: &[&str], line: usize) -> Result<(), FaultPlanError> {
    let when = tokens.first().ok_or_else(|| err(line, "at needs a time"))?;
    let at = parse_time(when, line)?;
    let verb = tokens
        .get(1)
        .ok_or_else(|| err(line, "at needs a fault verb"))?;
    let need = |i: usize, what: &str| -> Result<String, FaultPlanError> {
        tokens
            .get(i)
            .map(|t| t.to_string())
            .ok_or_else(|| err(line, format!("{verb} needs {what}")))
    };
    match *verb {
        "crash" => {
            let host = need(2, "HOST")?;
            plan.events.push(FaultEvent {
                at,
                kind: FaultKind::Crash { host: host.clone() },
            });
            // Sugar: `crash HOST restart DUR` heals the host DUR later.
            match tokens.get(3) {
                Some(&"restart") => {
                    plan.events.push(FaultEvent {
                        at: parse_later(at, &need(4, "a delay after `restart`")?, line)?,
                        kind: FaultKind::Restart { host },
                    });
                }
                Some(other) => {
                    return Err(err(line, format!("unknown crash option {other:?}")));
                }
                None => {}
            }
        }
        "restart" => {
            plan.events.push(FaultEvent {
                at,
                kind: FaultKind::Restart {
                    host: need(2, "HOST")?,
                },
            });
        }
        "cut" | "link-down" => {
            // Sugar: `cut link NAME [heal DUR]` targets a named netmodel
            // link instead of a host pair.
            if tokens.get(2) == Some(&"link") {
                let link = need(3, "a link name after `link`")?;
                plan.events.push(FaultEvent {
                    at,
                    kind: FaultKind::NetLinkDown { link: link.clone() },
                });
                match tokens.get(4) {
                    Some(&"heal") => {
                        plan.events.push(FaultEvent {
                            at: parse_later(at, &need(5, "a delay after `heal`")?, line)?,
                            kind: FaultKind::NetLinkUp { link },
                        });
                    }
                    Some(other) => {
                        return Err(err(line, format!("unknown cut option {other:?}")));
                    }
                    None => {}
                }
                return Ok(());
            }
            let a = need(2, "two hosts")?;
            let b = need(3, "two hosts")?;
            plan.events.push(FaultEvent {
                at,
                kind: FaultKind::LinkDown {
                    a: a.clone(),
                    b: b.clone(),
                },
            });
            // Sugar: `cut A B heal DUR` restores the link DUR later.
            match tokens.get(4) {
                Some(&"heal") => {
                    plan.events.push(FaultEvent {
                        at: parse_later(at, &need(5, "a delay after `heal`")?, line)?,
                        kind: FaultKind::LinkUp { a, b },
                    });
                }
                Some(other) => {
                    return Err(err(line, format!("unknown cut option {other:?}")));
                }
                None => {}
            }
        }
        "link-up" | "heal" => {
            if tokens.get(2) == Some(&"link") {
                plan.events.push(FaultEvent {
                    at,
                    kind: FaultKind::NetLinkUp {
                        link: need(3, "a link name after `link`")?,
                    },
                });
                return Ok(());
            }
            plan.events.push(FaultEvent {
                at,
                kind: FaultKind::LinkUp {
                    a: need(2, "two hosts")?,
                    b: need(3, "two hosts")?,
                },
            });
        }
        "kill" => {
            plan.events.push(FaultEvent {
                at,
                kind: FaultKind::Kill {
                    host: need(2, "HOST")?,
                    command: need(3, "a command prefix")?,
                },
            });
        }
        other => return Err(err(line, format!("unknown fault verb {other:?}"))),
    }
    Ok(())
}

fn parse_wire_rule(tokens: &[&str], line: usize) -> Result<WireRule, FaultPlanError> {
    let verb = tokens[0];
    let p = parse_prob(
        tokens
            .get(1)
            .ok_or_else(|| err(line, format!("{verb} needs a probability")))?,
        line,
    )?;
    let mut i = 2;
    let value = |what: &str, i: usize| -> Result<&str, FaultPlanError> {
        tokens
            .get(i)
            .copied()
            .ok_or_else(|| err(line, format!("{verb} needs {what}")))
    };
    let kind = match verb {
        "drop" => WireFaultKind::Drop,
        "dup" => WireFaultKind::Dup,
        "reorder" => {
            if tokens.get(2) != Some(&"skew") {
                return Err(err(line, "reorder needs `skew DUR`"));
            }
            let skew = parse_duration(value("a duration after `skew`", 3)?, line)?;
            i = 4;
            WireFaultKind::Reorder { skew }
        }
        "delay" => {
            if tokens.get(2) != Some(&"add") {
                return Err(err(line, "delay needs `add DUR`"));
            }
            let extra = parse_duration(value("a duration after `add`", 3)?, line)?;
            i = 4;
            WireFaultKind::Delay { extra }
        }
        other => return Err(err(line, format!("unknown wire fault {other:?}"))),
    };
    let mut rule = WireRule::new(kind, p);
    while i < tokens.len() {
        match tokens[i] {
            "from" => rule.from = Some(value("a host after `from`", i + 1)?.to_string()),
            "to" => rule.to = Some(value("a host after `to`", i + 1)?.to_string()),
            "after" => rule.after = Some(parse_time(value("a time after `after`", i + 1)?, line)?),
            "until" => rule.until = Some(parse_time(value("a time after `until`", i + 1)?, line)?),
            other => return Err(err(line, format!("unknown rule option {other:?}"))),
        }
        i += 2;
    }
    Ok(rule)
}

/// What the wire does to one message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireDecision {
    /// Lose the message entirely.
    pub drop: bool,
    /// Deliver it twice.
    pub dup: bool,
    /// Extra one-way delay (latency spikes, summed across rules).
    pub extra: SimDuration,
    /// Deliver late, past the FIFO floor, so later traffic overtakes.
    pub reorder: Option<SimDuration>,
    /// How many rules fired on this message (for `faults.injected`).
    pub fired: u32,
}

/// The runtime wire-fault generator: the plan's rules plus a dedicated
/// seeded RNG stream.
///
/// Every rule matching a message consumes exactly one Bernoulli draw
/// whether or not it fires, so the decision sequence is a pure function
/// of `(seed, message sequence)` — two runs over the same traffic make
/// identical decisions.
#[derive(Debug, Clone)]
pub struct WireFaults {
    rules: Vec<WireRule>,
    rng: SimRng,
}

impl WireFaults {
    /// Builds the generator from a plan's wire rules and seed.
    pub fn new(plan: &FaultPlan) -> Self {
        WireFaults {
            rules: plan.wire.clone(),
            rng: SimRng::seed_from(plan.seed),
        }
    }

    /// True when no rules are installed (the common, fault-free case).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fate of one message `from → to` sent at `now`.
    pub fn decide(&mut self, from: &str, to: &str, now: SimTime) -> WireDecision {
        let mut d = WireDecision::default();
        for rule in &self.rules {
            if !rule.applies(from, to, now) {
                continue;
            }
            if !self.rng.chance(rule.p) {
                continue;
            }
            d.fired += 1;
            match &rule.kind {
                WireFaultKind::Drop => d.drop = true,
                WireFaultKind::Dup => d.dup = true,
                WireFaultKind::Reorder { skew } => d.reorder = Some(*skew),
                WireFaultKind::Delay { extra } => {
                    d.extra = SimDuration::from_micros(d.extra.as_micros() + extra.as_micros());
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"
# chaos: crash calder, partition kim, flaky wire
seed 42
at 2s crash calder restart 6s
at 3s cut calder kim heal 2s
at 10s kill kim lpm
drop 0.1 from calder to kim after 1s until 9s
dup 0.05
reorder 0.2 skew 3ms
delay 0.5 add 40ms to kim
"#;

    #[test]
    fn parses_the_example_with_sugar_expanded() {
        let plan = FaultPlan::parse(PLAN).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.events.len(), 5, "crash+restart, cut+heal, kill");
        assert_eq!(
            plan.events[1],
            FaultEvent {
                at: SimTime::from_secs(8),
                kind: FaultKind::Restart {
                    host: "calder".into()
                },
            }
        );
        assert_eq!(
            plan.events[3].kind,
            FaultKind::LinkUp {
                a: "calder".into(),
                b: "kim".into()
            }
        );
        assert_eq!(plan.wire.len(), 4);
        let drop = &plan.wire[0];
        assert_eq!(drop.kind, WireFaultKind::Drop);
        assert_eq!(drop.from.as_deref(), Some("calder"));
        assert_eq!(drop.to.as_deref(), Some("kim"));
        assert_eq!(drop.after, Some(SimTime::from_secs(1)));
        assert_eq!(drop.until, Some(SimTime::from_secs(9)));
    }

    #[test]
    fn cut_link_sugar_targets_named_links() {
        let plan = FaultPlan::parse(
            "at 1s cut link core:tor0-spine1 heal 2s\nat 5s link-down link wan:h3\nat 6s heal link wan:h3",
        )
        .unwrap();
        assert_eq!(
            plan.events[0].kind,
            FaultKind::NetLinkDown {
                link: "core:tor0-spine1".into()
            }
        );
        assert_eq!(
            plan.events[1],
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: FaultKind::NetLinkUp {
                    link: "core:tor0-spine1".into()
                }
            }
        );
        assert_eq!(
            plan.events[3].kind,
            FaultKind::NetLinkUp {
                link: "wan:h3".into()
            }
        );
        let again = FaultPlan::parse(&plan.encode()).unwrap();
        assert_eq!(plan, again);
        assert!(FaultPlan::parse("at 1s cut link").is_err());
        assert!(FaultPlan::parse("at 1s cut link x frob").is_err());
    }

    #[test]
    fn encode_parse_roundtrips() {
        let plan = FaultPlan::parse(PLAN).unwrap();
        let text = plan.encode();
        let again = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, again, "canonical text reproduces the plan:\n{text}");
    }

    #[test]
    fn rule_scoping() {
        let plan = FaultPlan::parse("drop 1.0 from a to b after 1s until 2s").unwrap();
        let r = &plan.wire[0];
        assert!(r.applies("a", "b", SimTime::from_millis(1500)));
        assert!(!r.applies("b", "a", SimTime::from_millis(1500)));
        assert!(!r.applies("a", "c", SimTime::from_millis(1500)));
        assert!(!r.applies("a", "b", SimTime::from_millis(999)));
        assert!(
            !r.applies("a", "b", SimTime::from_secs(2)),
            "until excludes"
        );
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::parse("seed 9\ndrop 0.3\ndup 0.3\nreorder 0.3 skew 1ms").unwrap();
        let mut a = WireFaults::new(&plan);
        let mut b = WireFaults::new(&plan);
        for i in 0..200u64 {
            let now = SimTime::from_micros(i * 37);
            assert_eq!(a.decide("x", "y", now), b.decide("x", "y", now));
        }
    }

    #[test]
    fn certain_drop_always_fires() {
        let plan = FaultPlan::parse("drop 1.0").unwrap();
        let mut w = WireFaults::new(&plan);
        let d = w.decide("x", "y", SimTime::ZERO);
        assert!(d.drop);
        assert_eq!(d.fired, 1);
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::parse("# nothing\n").unwrap();
        assert!(plan.is_empty());
        assert!(WireFaults::new(&plan).is_empty());
        assert_eq!(plan.seed, 1986, "default seed");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = FaultPlan::parse("seed 1\nat 1s explode calder").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("explode"), "{e}");
        let e = FaultPlan::parse("drop 1.5").unwrap_err();
        assert!(e.message.contains("outside"), "{e}");
        let e = FaultPlan::parse("at 1s crash").unwrap_err();
        assert!(e.message.contains("HOST"), "{e}");
        let e = FaultPlan::parse("reorder 0.1").unwrap_err();
        assert!(e.message.contains("skew"), "{e}");
        // A time past the clock's range is refused, not wrapped to ~0.
        let e = FaultPlan::parse("seed 1\nat 18446744073710s crash far").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"), "{e}");
        // So is a sugared restart or heal that lands past it: `encode`
        // could not write it back.
        for late in [
            "at 4611686018427s crash far restart 3s",
            "at 4611686018427s cut a b heal 3s",
            "at 4611686018427s cut link up0 heal 3s",
        ] {
            let e = FaultPlan::parse(&format!("seed 1\n{late}")).unwrap_err();
            assert_eq!(e.line, 2, "{late}: {e}");
            assert!(e.message.contains("out of range"), "{late}: {e}");
        }
    }

    #[test]
    fn delay_rules_accumulate() {
        let plan = FaultPlan::parse("delay 1.0 add 10ms\ndelay 1.0 add 5ms").unwrap();
        let mut w = WireFaults::new(&plan);
        let d = w.decide("x", "y", SimTime::ZERO);
        assert_eq!(d.extra, SimDuration::from_millis(15));
        assert_eq!(d.fired, 2);
    }
}
