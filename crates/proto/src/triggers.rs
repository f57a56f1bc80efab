//! History-dependent trigger specifications.
//!
//! The paper (Section 1): "history dependent events can be set by users to
//! trigger process state changes" — and the conclusions list "event driven
//! user defined actions" as a headline capability. A trigger is a pattern
//! over the LPM's event stream plus an action to perform when it matches.

use std::fmt;

use crate::codec::wire;
use crate::types::Gpid;

wire! {
    /// A pattern over kernel/history events. All present fields must match.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct EventPattern {
        /// Event kind to match ("exit", "stop", "fork", ...); empty = any.
        pub kind: String,
        /// Restrict to one local pid.
        pub pid: Option<u32>,
        /// Restrict to commands with this prefix.
        pub command_prefix: Option<String>,
        /// Only match once the process has consumed at least this much CPU
        /// (µs) — the "history dependent" part.
        pub min_cpu_us: Option<u64>,
    }
}

impl EventPattern {
    /// A pattern matching any event of `kind`.
    pub fn kind(kind: impl Into<String>) -> Self {
        EventPattern {
            kind: kind.into(),
            ..Default::default()
        }
    }

    /// Restricts the pattern to a pid.
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = Some(pid);
        self
    }

    /// Restricts the pattern to a command prefix.
    pub fn with_command_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.command_prefix = Some(prefix.into());
        self
    }

    /// Adds a minimum-CPU condition.
    pub fn with_min_cpu_us(mut self, us: u64) -> Self {
        self.min_cpu_us = Some(us);
        self
    }
}

wire! {
    /// What to do when a trigger fires.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TriggerAction {
        /// Deliver a signal to a (possibly remote) process.
        [0] Signal {
            /// Target process.
            target: Gpid,
            /// BSD signal number.
            signal: u8,
        },
        /// Record a notification in the LPM history (picked up by tools).
        [1] Notify {
            /// Free-form note.
            note: String,
        },
        /// Kill every process of the computation rooted at `root`.
        [2] KillTree {
            /// Root of the subtree.
            root: Gpid,
        },
    }
}

impl fmt::Display for TriggerAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerAction::Signal { target, signal } => write!(f, "signal {signal} -> {target}"),
            TriggerAction::Notify { note } => write!(f, "notify: {note}"),
            TriggerAction::KillTree { root } => write!(f, "kill tree rooted at {root}"),
        }
    }
}

wire! {
    /// A complete trigger registration.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TriggerSpec {
        /// Identifier assigned by the registering tool (unique per user).
        pub id: u32,
        /// When to fire.
        pub pattern: EventPattern,
        /// What to do.
        pub action: TriggerAction,
        /// Remove after first firing?
        pub once: bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecError, Wire};

    #[test]
    fn pattern_builder_and_roundtrip() {
        let p = EventPattern::kind("exit")
            .with_pid(9)
            .with_command_prefix("cc")
            .with_min_cpu_us(1000);
        assert_eq!(EventPattern::from_bytes(&p.to_bytes()).unwrap(), p);
        let empty = EventPattern::default();
        assert_eq!(EventPattern::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn actions_roundtrip() {
        for a in [
            TriggerAction::Signal {
                target: Gpid::new("a", 1),
                signal: 9,
            },
            TriggerAction::Notify {
                note: "make finished".into(),
            },
            TriggerAction::KillTree {
                root: Gpid::new("b", 2),
            },
        ] {
            assert_eq!(TriggerAction::from_bytes(&a.to_bytes()).unwrap(), a);
        }
        assert!(matches!(
            TriggerAction::from_bytes(&[7]),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn spec_roundtrip() {
        let s = TriggerSpec {
            id: 4,
            pattern: EventPattern::kind("stop"),
            action: TriggerAction::Notify {
                note: "stopped".into(),
            },
            once: true,
        };
        assert_eq!(TriggerSpec::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn action_display() {
        let a = TriggerAction::Signal {
            target: Gpid::new("a", 1),
            signal: 9,
        };
        assert_eq!(a.to_string(), "signal 9 -> <a, 1>");
    }
}
