//! Deterministic fault injection: scripted fault plans.
//!
//! A [`FaultPlan`] describes *when the world misbehaves*: hosts crash and
//! restart, links are cut and heal, processes are killed, and the wire
//! drops, duplicates, reorders or delays messages with seeded
//! probabilities. Plans are text files, read by [`crate::grammar`] as
//! every file is (one statement per line, `#` comments, counts such as a
//! `seed` in decimal or `0x` hex, durations with a unit), so a chaos
//! scenario is an artifact that can be committed, diffed and replayed:
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
//! An `at` line's fault is read by [`parse_event`], which a scenario's
//! fault statements go through too, so both files write a fault alike.
//!
//! Nothing here executes faults: the simulation layers interpret the
//! plan by scheduling [`FaultEvent`]s on the event engine and consulting
//! [`WireFaults`] on every message send. The wire-fault generator owns
//! its **own** seeded [`SimRng`] stream, so fault decisions never
//! perturb the latency jitter stream — the same plan and seed produce
//! the same fault schedule whether or not other randomness changes.

use std::fmt;

use ppm_runtime::name::Name;

use crate::grammar::{self, LineError, Tokens};
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

/// The kinds of scheduled (non-probabilistic) faults: what a plan's and
/// a scenario's `at` lines name, and what the checker stages. Names are
/// [`Name`]s, so a short one is held inline.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Power-fail a host: every process, FD and socket dies.
    Crash { host: Name },
    /// Power the host back up (kernel reboots, daemons re-run).
    Restart { host: Name },
    /// Cut the link between two hosts.
    LinkDown { a: Name, b: Name },
    /// Heal the link between two hosts.
    LinkUp { a: Name, b: Name },
    /// Cut a *named* netmodel link (`cut link <name>`); requires a
    /// topology to be installed so the name can resolve.
    NetLinkDown { link: Name },
    /// Heal a named netmodel link.
    NetLinkUp { link: Name },
    /// SIGKILL every live process on `host` whose command starts with
    /// `command` — the way a plan kills an LPM without taking the whole
    /// host down.
    Kill { host: Name, command: Name },
}

impl FaultKind {
    /// The canonical verb of the fault: what [`FaultPlan::encode`]
    /// writes for it.
    pub fn verb(&self) -> &'static str {
        use FaultKind::*;
        match self {
            Crash { .. } => "crash",
            Restart { .. } => "restart",
            LinkDown { .. } | NetLinkDown { .. } => "link-down",
            LinkUp { .. } | NetLinkUp { .. } => "link-up",
            Kill { .. } => "kill",
        }
    }
}

/// The fault in canonical text, its verb first: `crash far`,
/// `link-down a b`, `link-up link up0`, `kill work lpm`.
impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FaultKind::*;
        let verb = self.verb();
        match self {
            Crash { host } | Restart { host } => write!(f, "{verb} {host}"),
            LinkDown { a, b } | LinkUp { a, b } => write!(f, "{verb} {a} {b}"),
            NetLinkDown { link } | NetLinkUp { link } => write!(f, "{verb} link {link}"),
            Kill { host, command } => write!(f, "{verb} {host} {command}"),
        }
    }
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
    pub from: Option<Name>,
    /// Only messages sent to this host (any, when `None`).
    pub to: Option<Name>,
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

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.wire.is_empty()
    }

    /// Parses a plan from text, read by [`grammar::each_line`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ppm_simnet::fault::FaultPlan;
    /// let plan = FaultPlan::parse("seed 7\nat 2s crash calder restart 6s\ndrop 0.1")?;
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.events.len(), 2, "crash + sugared restart");
    /// assert_eq!(plan.wire.len(), 1);
    /// # Ok::<(), ppm_simnet::grammar::LineError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`LineError`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, LineError> {
        let mut plan = FaultPlan::default();
        grammar::each_line(text, |line| {
            let t = line.at(0);
            match t.verb() {
                "seed" => {
                    plan.seed = grammar::count(t.need(1, "a value")?)?;
                    t.end(2)?;
                }
                "at" => {
                    let at = grammar::instant(t.need(1, "a time")?)?;
                    let verb = t.need(2, "a fault verb")?;
                    let Some((fault, later)) = parse_event(at, line.at(2))? else {
                        return Err(format!("unknown fault verb {verb:?}"));
                    };
                    plan.events.push(fault);
                    plan.events.extend(later);
                }
                "drop" | "dup" | "reorder" | "delay" => plan.wire.push(parse_wire_rule(t)?),
                other => return Err(format!("unknown statement {other:?}")),
            }
            Ok(())
        })?;
        Ok(plan)
    }

    /// Renders the plan back to canonical text (sugar expanded, times in
    /// microseconds). `parse(encode(p))` reproduces `p` exactly.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.seed);
        for ev in &self.events {
            let _ = writeln!(out, "at {}us {}", ev.at.as_micros(), ev.kind);
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

/// Reads the fault `t` names, its verb first, at `at`: the fault, and
/// the `restart` or `heal` its sugar schedules later. `None` when the
/// verb names no fault. The one reader of a fault verb: a plan's `at`
/// lines and a scenario's go through it.
///
/// # Errors
///
/// A missing or extra token, or a sugar delay past the clock's range.
pub fn parse_event(
    at: SimTime,
    t: Tokens,
) -> Result<Option<(FaultEvent, Option<FaultEvent>)>, String> {
    use FaultKind::*;
    let word = |i, what| t.need(i, what).map(Name::new);
    let host = || word(1, "HOST");
    let link = || word(2, "a link name after `link`");
    let pair = || Ok::<_, String>((word(1, "two hosts")?, word(2, "two hosts")?));
    // Each verb's arm gives the fault, the instant and fault of its
    // sugar, and how many tokens it read, the verb counted.
    let (kind, later, read) = match t.verb() {
        "crash" => {
            let host = host()?;
            // Sugar: `crash HOST restart DUR` heals the host DUR later.
            let later = sugar(t, 2, "restart", at)?;
            let later = later.map(|at| (at, Restart { host: host.clone() }));
            (Crash { host }, later, 4)
        }
        "restart" => (Restart { host: host()? }, None, 2),
        // Sugar: `cut link NAME [heal DUR]` targets a named netmodel
        // link instead of a host pair.
        "cut" | "link-down" if t.get(1) == Some("link") => {
            let link = link()?;
            let later = sugar(t, 3, "heal", at)?;
            let later = later.map(|at| (at, NetLinkUp { link: link.clone() }));
            (NetLinkDown { link }, later, 5)
        }
        "cut" | "link-down" => {
            let (a, b) = pair()?;
            // Sugar: `cut A B heal DUR` restores the link DUR later.
            let later = sugar(t, 3, "heal", at)?;
            let later = later.map(|at| {
                (
                    at,
                    LinkUp {
                        a: a.clone(),
                        b: b.clone(),
                    },
                )
            });
            (LinkDown { a, b }, later, 5)
        }
        "link-up" | "heal" if t.get(1) == Some("link") => (NetLinkUp { link: link()? }, None, 3),
        "link-up" | "heal" => {
            let (a, b) = pair()?;
            (LinkUp { a, b }, None, 3)
        }
        "kill" => {
            let (host, command) = (host()?, word(2, "a command prefix")?);
            (Kill { host, command }, None, 3)
        }
        _ => return Ok(None),
    };
    // Tokens run on without a gap, so a sugar left out leaves no token
    // at its place or past it.
    t.end(read)?;
    let later = later.map(|(at, kind)| FaultEvent { at, kind });
    Ok(Some((FaultEvent { at, kind }, later)))
}

/// The instant of the optional `WORD DUR` at token `i`: `at` plus DUR.
/// Any other token there is one the statement does not read.
fn sugar(t: Tokens, i: usize, word: &str, at: SimTime) -> Result<Option<SimTime>, String> {
    if t.get(i) != Some(word) {
        return t.end(i).map(|()| None);
    }
    let delay = t.get(i + 1);
    let delay = delay.ok_or_else(|| format!("{} needs a delay after `{word}`", t.verb()))?;
    grammar::later(at, delay).map(Some)
}

fn parse_wire_rule(t: Tokens) -> Result<WireRule, String> {
    let p = grammar::probability(t.need(1, "a probability")?)?;
    let (kind, mut i) = match t.verb() {
        "drop" => (WireFaultKind::Drop, 2),
        "dup" => (WireFaultKind::Dup, 2),
        "reorder" if t.get(2) != Some("skew") => return Err("reorder needs `skew DUR`".into()),
        "reorder" => {
            let skew = grammar::duration(t.need(3, "a duration after `skew`")?)?;
            (WireFaultKind::Reorder { skew }, 4)
        }
        "delay" if t.get(2) != Some("add") => return Err("delay needs `add DUR`".into()),
        "delay" => {
            let extra = grammar::duration(t.need(3, "a duration after `add`")?)?;
            (WireFaultKind::Delay { extra }, 4)
        }
        other => return Err(format!("unknown wire fault {other:?}")),
    };
    let mut rule = WireRule::new(kind, p);
    while let Some(option) = t.get(i) {
        match option {
            "from" => rule.from = Some(t.need(i + 1, "a host after `from`")?.into()),
            "to" => rule.to = Some(t.need(i + 1, "a host after `to`")?.into()),
            "after" => rule.after = Some(grammar::instant(t.need(i + 1, "a time after `after`")?)?),
            "until" => rule.until = Some(grammar::instant(t.need(i + 1, "a time after `until`")?)?),
            other => return Err(format!("unknown rule option {other:?}")),
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
        // A token past the ones a statement reads is refused, not dropped.
        for (extra, message) in [
            ("at 1s kill a lpm junk", "kill has an extra token \"junk\""),
            (
                "at 2s restart b whenever",
                "restart has an extra token \"whenever\"",
            ),
            (
                "at 2s crash b restart 1s now",
                "crash has an extra token \"now\"",
            ),
            (
                "at 2s cut a b heal 1s now",
                "cut has an extra token \"now\"",
            ),
            (
                "at 2s cut link up0 heal 1s now",
                "cut has an extra token \"now\"",
            ),
            ("at 2s heal a b now", "heal has an extra token \"now\""),
            ("seed 1 2", "seed has an extra token \"2\""),
        ] {
            let e = FaultPlan::parse(&format!("seed 1\n{extra}")).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (2, message), "{extra}");
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
