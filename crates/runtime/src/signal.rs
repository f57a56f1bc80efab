//! Software interrupts (signals).
//!
//! The PPM's headline capability is delivering software interrupts "with
//! no interprocess constraints based on creation dependencies" — stop,
//! continue and kill across machine boundaries. This module models the
//! small signal vocabulary the paper's tools use, with 4.3BSD-style
//! default dispositions.

use std::fmt;

/// The signals understood by the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Stop the process (SIGSTOP — cannot be caught).
    Stop,
    /// Continue a stopped process (SIGCONT).
    Cont,
    /// Terminate, catchable (SIGTERM).
    Term,
    /// Terminate, uncatchable (SIGKILL).
    Kill,
    /// Interactive interrupt (SIGINT).
    Int,
    /// Hangup (SIGHUP) — the PPM delivers this when a time-to-die interval
    /// expires and local processes must be shut down.
    Hup,
    /// User-defined signal 1 (SIGUSR1) — used by history-dependent triggers.
    Usr1,
    /// User-defined signal 2 (SIGUSR2).
    Usr2,
}

impl Signal {
    /// BSD-style signal number, for display and wire encoding.
    pub fn number(self) -> u8 {
        match self {
            Signal::Hup => 1,
            Signal::Int => 2,
            Signal::Kill => 9,
            Signal::Usr1 => 30,
            Signal::Usr2 => 31,
            Signal::Term => 15,
            Signal::Stop => 17,
            Signal::Cont => 19,
        }
    }

    /// Inverse of [`Signal::number`].
    pub fn from_number(n: u8) -> Option<Signal> {
        Some(match n {
            1 => Signal::Hup,
            2 => Signal::Int,
            9 => Signal::Kill,
            15 => Signal::Term,
            17 => Signal::Stop,
            19 => Signal::Cont,
            30 => Signal::Usr1,
            31 => Signal::Usr2,
            _ => return None,
        })
    }

    /// The conventional name, `SIGKILL` and the like.
    pub fn name(self) -> &'static str {
        match self {
            Signal::Stop => "SIGSTOP",
            Signal::Cont => "SIGCONT",
            Signal::Term => "SIGTERM",
            Signal::Kill => "SIGKILL",
            Signal::Int => "SIGINT",
            Signal::Hup => "SIGHUP",
            Signal::Usr1 => "SIGUSR1",
            Signal::Usr2 => "SIGUSR2",
        }
    }

    /// Whether the default disposition terminates the target.
    pub fn is_fatal_by_default(self) -> bool {
        matches!(
            self,
            Signal::Term | Signal::Kill | Signal::Int | Signal::Hup
        )
    }

    /// Whether the signal can be caught/handled by the target program.
    pub fn is_catchable(self) -> bool {
        !matches!(self, Signal::Kill | Signal::Stop)
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a process ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// Voluntary `exit(code)`.
    Code(i32),
    /// Killed by a signal.
    Signaled(Signal),
}

impl ExitStatus {
    /// The conventional "success" status.
    pub const SUCCESS: ExitStatus = ExitStatus::Code(0);

    /// True for `exit(0)`.
    pub fn is_success(self) -> bool {
        self == ExitStatus::SUCCESS
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitStatus::Code(c) => write!(f, "exit({c})"),
            ExitStatus::Signaled(s) => write!(f, "killed by {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Signal; 8] = [
        Signal::Stop,
        Signal::Cont,
        Signal::Term,
        Signal::Kill,
        Signal::Int,
        Signal::Hup,
        Signal::Usr1,
        Signal::Usr2,
    ];

    #[test]
    fn number_roundtrips() {
        for s in ALL {
            assert_eq!(Signal::from_number(s.number()), Some(s), "{s}");
        }
        assert_eq!(Signal::from_number(200), None);
    }

    #[test]
    fn numbers_are_unique() {
        let mut nums: Vec<u8> = ALL.iter().map(|s| s.number()).collect();
        nums.sort_unstable();
        nums.dedup();
        assert_eq!(nums.len(), ALL.len());
    }

    #[test]
    fn dispositions_match_bsd() {
        assert!(Signal::Kill.is_fatal_by_default());
        assert!(Signal::Term.is_fatal_by_default());
        assert!(!Signal::Stop.is_fatal_by_default());
        assert!(!Signal::Cont.is_fatal_by_default());
        assert!(!Signal::Kill.is_catchable());
        assert!(!Signal::Stop.is_catchable());
        assert!(Signal::Term.is_catchable());
    }

    #[test]
    fn exit_status_success() {
        assert!(ExitStatus::Code(0).is_success());
        assert!(!ExitStatus::Code(1).is_success());
        assert!(!ExitStatus::Signaled(Signal::Kill).is_success());
        assert_eq!(
            ExitStatus::Signaled(Signal::Kill).to_string(),
            "killed by SIGKILL"
        );
    }
}
