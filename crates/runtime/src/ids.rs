//! Identifier newtypes shared by every runtime backend.

use std::fmt;

/// Index of a host within a world (simulated topology or real cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// CPU class of a host, after the three machine types of the paper's
/// Table 1.
///
/// In the simulation the class selects the constants of the
/// load-dependent latency model; the real backend carries it for display
/// purposes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CpuClass {
    /// DEC VAX 11/780 — the fastest machine in the paper's testbed.
    #[default]
    Vax780,
    /// DEC VAX 11/750.
    Vax750,
    /// SUN II workstation — slowest, degrades fastest under load.
    Sun2,
}

impl CpuClass {
    /// All classes, in the column order of Table 1.
    pub const ALL: [CpuClass; 3] = [CpuClass::Vax780, CpuClass::Vax750, CpuClass::Sun2];

    /// Relative CPU speed factor (VAX 11/780 ≡ 1.0). Higher is faster.
    ///
    /// Derived from the paper's Table 1 light-load column: the SUN II takes
    /// ~1.15× the VAX time on the same message, and degrades faster.
    pub fn speed_factor(self) -> f64 {
        match self {
            CpuClass::Vax780 => 1.0,
            CpuClass::Vax750 => 0.98,
            CpuClass::Sun2 => 0.82,
        }
    }
}

impl fmt::Display for CpuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpuClass::Vax780 => "VAX 11/780",
            CpuClass::Vax750 => "VAX 11/750",
            CpuClass::Sun2 => "SUN II",
        };
        f.write_str(s)
    }
}

/// A process id, unique within one host (like a UNIX pid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Pid {
    /// The init/system pseudo-process that owns per-host daemons.
    pub const INIT: Pid = Pid(1);

    /// No process: no kernel hands out pid 0, so a descriptor or an
    /// accounting call for it does nothing. A connection end that is
    /// not known by its pid is recorded under it.
    pub const NONE: Pid = Pid(0);
}

/// A user id. Uid 0 is the superuser, as in UNIX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// True for the superuser.
    pub fn is_root(self) -> bool {
        self == Uid::ROOT
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid{}", self.0)
    }
}

/// A TCP-style port number on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u16);

impl Port {
    /// Well-known port of the inet daemon on every host.
    pub const INETD: Port = Port(1);
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// World-unique identifier of one stream connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A file descriptor within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_compact() {
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(Pid(42).to_string(), "42");
        assert_eq!(Uid(7).to_string(), "uid7");
        assert_eq!(Port(3).to_string(), ":3");
        assert_eq!(ConnId(9).to_string(), "c9");
        assert_eq!(Fd(2).to_string(), "fd2");
    }

    #[test]
    fn root_detection() {
        assert!(Uid::ROOT.is_root());
        assert!(!Uid(100).is_root());
    }

    #[test]
    fn constants() {
        assert_eq!(Pid::INIT, Pid(1));
        assert_eq!(Port::INETD, Port(1));
    }
}
