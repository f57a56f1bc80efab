//! Per-process file descriptor tables.
//!
//! Section 7 of the paper plans "a tool for displaying the open and closed
//! files of processes, a tool for displaying file descriptors". The
//! simulated kernel keeps enough descriptor state for those tools to work.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{ConnId, Fd, Port};

/// How a file was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenMode {
    /// Read only.
    Read,
    /// Write only.
    Write,
    /// Read and write.
    ReadWrite,
}

impl fmt::Display for OpenMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpenMode::Read => "r",
            OpenMode::Write => "w",
            OpenMode::ReadWrite => "rw",
        })
    }
}

/// What a descriptor refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum FdKind {
    /// A regular file.
    File {
        /// Path opened.
        path: String,
        /// Open mode.
        mode: OpenMode,
    },
    /// One end of a stream connection (socket).
    Socket {
        /// The connection.
        conn: ConnId,
    },
    /// A listening socket.
    Listener {
        /// The bound port.
        port: Port,
    },
    /// The LPM's kernel socket, where the kernel deposits event messages.
    KernelSocket,
}

impl FdKind {
    /// Short classification for display tools.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FdKind::File { .. } => "file",
            FdKind::Socket { .. } => "socket",
            FdKind::Listener { .. } => "listener",
            FdKind::KernelSocket => "kernel",
        }
    }
}

/// A process's descriptor table.
///
/// Its first socket is held in place, so a process that never holds
/// more than one descriptor at a time — a tool, whose dial hangs up each
/// step's connection before it makes the next — allocates nothing for
/// it. The process table keeps every process's table in place, so the
/// slot is a descriptor and a connection id, not a whole [`FdKind`]: a
/// slot of four such entries made `kernel_storm`'s 1 365-process waves
/// hold 2.3 MiB more. Everything else goes to a B-tree. While the B-tree
/// holds any descriptor, the socket in place is lower than all of them:
/// a new descriptor is the highest yet, and goes in place only when the
/// B-tree is empty.
#[derive(Clone)]
pub struct FdTable {
    /// The socket held in place, or [`FdTable::NONE`].
    socket: Fd,
    /// The connection `socket` refers to.
    conn: ConnId,
    spilled: BTreeMap<Fd, FdKind>,
    next: u32,
}

impl Default for FdTable {
    fn default() -> Self {
        FdTable::new()
    }
}

impl FdTable {
    /// No socket in place: a descriptor never handed out.
    const NONE: Fd = Fd(0);

    /// Creates an empty table. Descriptors start at 3, as if stdin,
    /// stdout and stderr were already taken.
    pub fn new() -> Self {
        FdTable {
            socket: FdTable::NONE,
            conn: ConnId(0),
            spilled: BTreeMap::new(),
            next: 3,
        }
    }

    /// Allocates a descriptor for `kind`.
    pub fn alloc(&mut self, kind: FdKind) -> Fd {
        let fd = Fd(self.next);
        self.next += 1;
        match kind {
            FdKind::Socket { conn } if self.socket == FdTable::NONE && self.spilled.is_empty() => {
                (self.socket, self.conn) = (fd, conn);
            }
            kind => {
                self.spilled.insert(fd, kind);
            }
        }
        fd
    }

    /// The socket in place, if there is one.
    fn in_place(&self) -> Option<(Fd, FdKind)> {
        let kind = FdKind::Socket { conn: self.conn };
        (self.socket != FdTable::NONE).then_some((self.socket, kind))
    }

    /// Releases a descriptor, returning what it referred to.
    pub fn release(&mut self, fd: Fd) -> Option<FdKind> {
        if fd != self.socket || fd == FdTable::NONE {
            return self.spilled.remove(&fd);
        }
        self.socket = FdTable::NONE;
        Some(FdKind::Socket { conn: self.conn })
    }

    /// Looks a descriptor up.
    pub fn get(&self, fd: Fd) -> Option<FdKind> {
        match self.in_place() {
            Some((socket, kind)) if socket == fd => Some(kind),
            _ => self.spilled.get(&fd).cloned(),
        }
    }

    /// Finds the descriptor referring to a connection, if any.
    pub fn fd_for_conn(&self, conn: ConnId) -> Option<Fd> {
        if self.socket != FdTable::NONE && self.conn == conn {
            return Some(self.socket);
        }
        self.spilled
            .iter()
            .find(|(_, k)| matches!(k, FdKind::Socket { conn: c } if *c == conn))
            .map(|(fd, _)| *fd)
    }

    /// All entries in descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, FdKind)> + '_ {
        let spilled = self.spilled.iter().map(|(fd, k)| (*fd, k.clone()));
        self.in_place().into_iter().chain(spilled)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        usize::from(self.socket != FdTable::NONE) + self.spilled.len()
    }

    /// True when no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// As a map from descriptor to what it refers to, whichever way each is
/// held.
impl fmt::Debug for FdTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a FdTable);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("FdTable")
            .field("entries", &Entries(self))
            .field("next", &self.next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_start_at_three_and_increment() {
        let mut t = FdTable::new();
        let a = t.alloc(FdKind::KernelSocket);
        let b = t.alloc(FdKind::Listener { port: Port(3) });
        assert_eq!(a, Fd(3));
        assert_eq!(b, Fd(4));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn release_removes_and_returns() {
        let mut t = FdTable::new();
        let fd = t.alloc(FdKind::File {
            path: "/etc/passwd".into(),
            mode: OpenMode::Read,
        });
        let k = t.release(fd).unwrap();
        assert!(matches!(k, FdKind::File { .. }));
        assert!(t.release(fd).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn descriptors_are_not_reused() {
        let mut t = FdTable::new();
        let a = t.alloc(FdKind::KernelSocket);
        t.release(a);
        let b = t.alloc(FdKind::KernelSocket);
        assert_ne!(a, b, "descriptor ids are never recycled in the sim");
    }

    #[test]
    fn fd_for_conn_finds_the_socket() {
        let mut t = FdTable::new();
        t.alloc(FdKind::File {
            path: "/tmp/a".into(),
            mode: OpenMode::Write,
        });
        let s = t.alloc(FdKind::Socket { conn: ConnId(7) });
        assert_eq!(t.fd_for_conn(ConnId(7)), Some(s));
        assert_eq!(t.fd_for_conn(ConnId(8)), None);
    }

    /// The first socket is held in place and everything else in the
    /// B-tree, and the table answers as one ascending map whichever way
    /// each entry is held, against a `BTreeMap` model, through releases
    /// in place, in the B-tree and of everything.
    #[test]
    fn in_place_and_spilled_descriptors_read_as_one_map() {
        let mut t = FdTable::new();
        let mut model = BTreeMap::new();
        let check = |t: &FdTable, model: &BTreeMap<Fd, FdKind>| {
            let seen: Vec<(Fd, FdKind)> = t.iter().collect();
            let want: Vec<(Fd, FdKind)> = model.iter().map(|(f, k)| (*f, k.clone())).collect();
            assert_eq!(seen, want);
            assert_eq!(t.len(), model.len());
            for (fd, k) in model {
                assert_eq!(t.get(*fd).as_ref(), Some(k));
            }
        };
        let mut alloc = |t: &mut FdTable, model: &mut BTreeMap<Fd, FdKind>, kind: FdKind| {
            let fd = t.alloc(kind.clone());
            model.insert(fd, kind);
            check(t, model);
            fd
        };
        // A socket alone stays in place, and goes when it is released.
        let first = alloc(&mut t, &mut model, FdKind::Socket { conn: ConnId(1) });
        assert!(t.spilled.is_empty());
        assert_eq!(t.release(first), model.remove(&first));
        check(&t, &model);
        assert_eq!(t.release(first), None);
        for i in 2..6 {
            alloc(&mut t, &mut model, FdKind::Socket { conn: ConnId(i) });
        }
        alloc(&mut t, &mut model, FdKind::KernelSocket);
        // Released in place while the B-tree holds some: a new socket
        // goes to the B-tree.
        assert_eq!(t.socket, Fd(4));
        assert_eq!(t.release(Fd(4)), model.remove(&Fd(4)));
        check(&t, &model);
        let late = alloc(&mut t, &mut model, FdKind::Socket { conn: ConnId(9) });
        assert_eq!((late, t.socket), (Fd(9), FdTable::NONE));
        assert_eq!(t.fd_for_conn(ConnId(9)), Some(Fd(9)));
        assert_eq!(t.fd_for_conn(ConnId(4)), Some(Fd(6)));
        assert_eq!(t.fd_for_conn(ConnId(1)), None);
        assert_eq!(t.release(FdTable::NONE), None);
        for fd in model.keys().copied().collect::<Vec<_>>() {
            assert_eq!(t.release(fd), model.remove(&fd));
            check(&t, &model);
        }
        assert!(t.is_empty());
        assert_eq!(t.alloc(FdKind::Socket { conn: ConnId(3) }), Fd(10));
        assert_eq!(
            format!("{t:?}"),
            "FdTable { entries: {Fd(10): Socket { conn: ConnId(3) }}, next: 11 }"
        );
        assert_eq!(FdTable::default().alloc(FdKind::KernelSocket), Fd(3));
    }

    #[test]
    fn kind_names_cover_all_variants() {
        assert_eq!(FdKind::KernelSocket.kind_name(), "kernel");
        assert_eq!(FdKind::Listener { port: Port(1) }.kind_name(), "listener");
        assert_eq!(FdKind::Socket { conn: ConnId(1) }.kind_name(), "socket");
        assert_eq!(
            FdKind::File {
                path: "x".into(),
                mode: OpenMode::ReadWrite
            }
            .kind_name(),
            "file"
        );
    }

    #[test]
    fn open_mode_display() {
        assert_eq!(OpenMode::Read.to_string(), "r");
        assert_eq!(OpenMode::Write.to_string(), "w");
        assert_eq!(OpenMode::ReadWrite.to_string(), "rw");
    }
}
