//! The stream connection: one table and state machine under every backend.
//!
//! The paper's managers talk over "private reliable stream communication
//! channels" (4.3BSD TCP). What such a channel is lives here, once: its
//! endpoints, its `Connecting → Established → Closed` life, its counters,
//! the index of what a process or a host still holds, and the rule for
//! each step — open, refuse, establish, send, deliver, close, being told
//! of a close, process death, host crash — including when an end holds a
//! socket descriptor and what a message adds to its rusage, both asked of
//! that end's [`Kernel`].
//!
//! Like the kernel, the table is pure: a backend calls a transition with
//! the current instant and the kernel of the end it touches, and gets back
//! who must be told what ([`Tell`]). *When* is the backend's: the sim
//! prices the notice onto its wheel, a real node hears of a peer's close
//! from its socket. Beside each record the backend keeps its transport,
//! the table's `L`: the sim its FIFO floors, a real node its stream.
//!
//! Records are never dropped — the IPC tool reads closed ones too — so
//! the table is append-only and dense: ids are handed out from `base + 1`
//! and `ConnId(base + n)` sits at slot `n - 1`. What a process or a host
//! still holds is answered from an index of the open (`Connecting` or
//! `Established`) connections, kept where the state changes, so a process
//! exit costs the same however many connections the world has made.

use std::collections::BTreeSet;

use crate::fd::FdKind;
use crate::ids::{ConnId, HostId, Pid, Port};
use crate::kernel::{Effects, Kernel};
use crate::pages::Pages;
use crate::program::{ConnEvent, ProcKey, SysError};
use crate::time::SimTime;

/// One endpoint of a connection.
pub type Endpoint = ProcKey;

/// Lifecycle of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnState {
    /// SYN in flight.
    Connecting,
    /// Open in both directions.
    Established,
    /// Broken or closed; no further traffic.
    Closed,
}

/// Per-connection counters, the raw material of the paper's planned
/// "IPC activity tracing and analysis" tool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Messages sent client→server.
    pub msgs_to_server: u64,
    /// Messages sent server→client.
    pub msgs_to_client: u64,
    /// Bytes sent client→server.
    pub bytes_to_server: u64,
    /// Bytes sent server→client.
    pub bytes_to_client: u64,
    /// When the connection was opened.
    pub opened_at: SimTime,
    /// When it was established (handshake complete).
    pub established_at: Option<SimTime>,
    /// When it closed, if it has.
    pub closed_at: Option<SimTime>,
}

/// A stream connection between two processes, possibly on different hosts.
#[derive(Debug, Clone)]
pub struct Connection {
    /// Identifier.
    pub id: ConnId,
    /// The initiating endpoint.
    pub client: Endpoint,
    /// The accepting endpoint.
    pub server: Endpoint,
    /// The server port connected to.
    pub port: Port,
    /// Current state.
    pub state: ConnState,
    /// Counters.
    pub stats: ConnStats,
}

impl Connection {
    /// The peer of `end`, or `None` if `end` is not an endpoint.
    pub fn peer_of(&self, end: Endpoint) -> Option<Endpoint> {
        match end {
            e if e == self.client => Some(self.server),
            e if e == self.server => Some(self.client),
            _ => None,
        }
    }

    /// The direction of traffic arriving at `end`: 1 at the server, 0 at
    /// the client.
    pub fn toward(&self, end: Endpoint) -> usize {
        usize::from(end == self.server)
    }
}

/// What a transition asks its backend to deliver: `event`, about `conn`,
/// to the endpoint `to`.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct Tell {
    /// The connection.
    pub conn: ConnId,
    /// Who is to be told.
    pub to: Endpoint,
    /// What they are told.
    pub event: ConnEvent,
}

impl Tell {
    /// `to` is to be told `event` about `conn`.
    pub fn new(conn: ConnId, to: Endpoint, event: ConnEvent) -> Self {
        Tell { conn, to, event }
    }

    /// `to` is to be told `conn` closed.
    pub fn closed(conn: ConnId, to: Endpoint) -> Self {
        Tell::new(conn, to, ConnEvent::Closed)
    }
}

/// Every connection a world (or a real node) has made, which of them
/// are still open, and the backend's transport `L` beside each record.
#[derive(Debug, Default)]
pub struct ConnTable<L = ()> {
    records: Pages<(Connection, L)>,
    base: u64,
    /// `(endpoint, id)` for the held ends of every open connection.
    held: BTreeSet<(Endpoint, ConnId)>,
}

impl<L: Default> ConnTable<L> {
    /// An empty table whose first id is `base + 1`. A real node puts its
    /// host in the high bits, so ids do not collide across a cluster.
    pub fn numbered_from(base: u64) -> Self {
        let table = ConnTable::default();
        ConnTable { base, ..table }
    }

    fn push(
        &mut self,
        ends: (Endpoint, Endpoint),
        port: Port,
        state: ConnState,
        now: SimTime,
    ) -> ConnId {
        let id = ConnId(self.base + self.records.len() as u64 + 1);
        let at = |s| (state == s).then_some(now);
        let stats = ConnStats {
            opened_at: now,
            established_at: at(ConnState::Established),
            closed_at: at(ConnState::Closed),
            ..ConnStats::default()
        };
        let (client, server) = ends;
        let record = Connection {
            id,
            client,
            server,
            port,
            state,
            stats,
        };
        self.records.push((record, L::default()));
        id
    }

    /// `client` starts connecting to `server` on `port`: a `Connecting`
    /// record held by both ends, and the client's socket descriptor.
    pub fn open(
        &mut self,
        client: Endpoint,
        server: Endpoint,
        port: Port,
        now: SimTime,
        k: &mut Kernel,
    ) -> ConnId {
        let id = self.push((client, server), port, ConnState::Connecting, now);
        self.held.insert((client, id));
        self.held.insert((server, id));
        k.alloc_fd(client.1, FdKind::Socket { conn: id });
        id
    }

    /// A connect that fails before it starts (no listener, no route): the
    /// record is born `Closed`, so a late `close` is harmless; no
    /// descriptor is allocated; the client is to be told `Failed`.
    pub fn open_refused(
        &mut self,
        client: Endpoint,
        server: Endpoint,
        port: Port,
        reason: SysError,
        now: SimTime,
    ) -> Tell {
        let conn = self.push((client, server), port, ConnState::Closed, now);
        Tell::new(conn, client, ConnEvent::Failed(reason))
    }

    /// The accepting end of a stream whose connecting end another table
    /// holds (a real node over TCP): born `Established`, held by the
    /// server alone, the server's descriptor allocated, and the server to
    /// be told it accepted `client`.
    pub fn accept(
        &mut self,
        client: Endpoint,
        server: Endpoint,
        port: Port,
        now: SimTime,
        k: &mut Kernel,
    ) -> Tell {
        let conn = self.push((client, server), port, ConnState::Established, now);
        self.held.insert((server, conn));
        k.alloc_fd(server.1, FdKind::Socket { conn });
        Tell::new(conn, server, ConnEvent::Accepted { peer: client, port })
    }
}

impl<L> ConnTable<L> {
    fn slot(&self, id: ConnId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(self.base + 1)?).ok()
    }

    fn entry_mut(&mut self, id: ConnId) -> Option<&mut (Connection, L)> {
        let slot = self.slot(id)?;
        self.records.get_mut(slot)
    }

    /// One connection by id, open or closed.
    pub fn get(&self, id: ConnId) -> Option<&Connection> {
        self.records.get(self.slot(id)?).map(|(c, _)| c)
    }

    /// The backend's transport beside one connection.
    pub fn link(&self, id: ConnId) -> Option<&L> {
        self.records.get(self.slot(id)?).map(|(_, l)| l)
    }

    /// The backend's transport beside one connection, mutably.
    pub fn link_mut(&mut self, id: ConnId) -> Option<&mut L> {
        self.entry_mut(id).map(|(_, l)| l)
    }

    /// All records, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.records.iter().map(|(c, _)| c)
    }

    /// All records with their transports, in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&Connection, &mut L)> {
        self.records.iter_mut().map(|(c, l)| (&*c, l))
    }

    /// Number of records, open and closed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no connection was ever made.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The open connections with `end` as a held endpoint, in id order.
    pub fn held_by(&self, end: Endpoint) -> impl Iterator<Item = ConnId> + '_ {
        self.held
            .range((end, ConnId(0))..=(end, ConnId(u64::MAX)))
            .map(|(_, id)| *id)
    }

    /// The open connections with a held endpoint on `host`, in id order.
    pub fn held_on(&self, host: HostId) -> Vec<ConnId> {
        let (lo, hi) = ((host, Pid(0)), (host, Pid(u32::MAX)));
        let mut ids: Vec<ConnId> = self
            .held
            .range((lo, ConnId(0))..=(hi, ConnId(u64::MAX)))
            .map(|(_, id)| *id)
            .collect();
        // Sorted by endpoint first, and a host-local connection is in
        // the range once per endpoint.
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Entries in the open-connection index: at most two per open
    /// connection, none for a closed one.
    pub fn held_len(&self) -> usize {
        self.held.len()
    }

    /// Closes an open connection without telling anyone — what a backend
    /// calls when the link under it broke (a send found no route) and it
    /// decides itself who learns, and when. `false` if it was closed or
    /// unknown.
    pub fn sever(&mut self, id: ConnId, now: SimTime) -> bool {
        let Some((c, _)) = self.entry_mut(id) else {
            return false;
        };
        if c.state == ConnState::Closed {
            return false;
        }
        c.state = ConnState::Closed;
        c.stats.closed_at = Some(now);
        let (client, server) = (c.client, c.server);
        self.held.remove(&(client, id));
        self.held.remove(&(server, id));
        true
    }

    /// The handshake completes: a `Connecting` connection becomes
    /// `Established` and the server's descriptor is allocated; the server
    /// is to be told it accepted, then the client that it is established.
    /// `None`, changing nothing, from any other state.
    pub fn establish(&mut self, id: ConnId, now: SimTime, k: &mut Kernel) -> Option<[Tell; 2]> {
        let (c, _) = self.entry_mut(id)?;
        if c.state != ConnState::Connecting {
            return None;
        }
        c.state = ConnState::Established;
        c.stats.established_at = Some(now);
        let (client, server, port) = (c.client, c.server, c.port);
        k.alloc_fd(server.1, FdKind::Socket { conn: id });
        let accepted = ConnEvent::Accepted { peer: client, port };
        let accepted = Tell::new(id, server, accepted);
        Some([accepted, Tell::new(id, client, ConnEvent::Established)])
    }

    /// The handshake fails: a `Connecting` connection closes, the
    /// client's descriptor is given back, and the client is to be told
    /// `Failed(reason)`. `None`, changing nothing, from any other state.
    pub fn refuse(
        &mut self,
        id: ConnId,
        reason: SysError,
        now: SimTime,
        k: &mut Kernel,
    ) -> Option<Tell> {
        let c = self.get(id).filter(|c| c.state == ConnState::Connecting)?;
        let client = c.client;
        self.sever(id, now);
        k.release_socket(client.1, id);
        Some(Tell::new(id, client, ConnEvent::Failed(reason)))
    }

    /// Whether `from` may send on `id`: the peer if `from` is an endpoint
    /// of an established connection; [`SysError::NotConnected`] if it is
    /// not an endpoint or the handshake has not completed,
    /// [`SysError::ConnectionClosed`] once it has closed.
    pub fn may_send(&self, id: ConnId, from: Endpoint) -> Result<Endpoint, SysError> {
        let c = self.get(id).ok_or(SysError::NotConnected)?;
        let peer = c.peer_of(from).ok_or(SysError::NotConnected)?;
        match c.state {
            ConnState::Connecting => Err(SysError::NotConnected),
            ConnState::Closed => Err(SysError::ConnectionClosed),
            ConnState::Established => Ok(peer),
        }
    }

    /// `from` sends `len` bytes: refused as by [`ConnTable::may_send`];
    /// otherwise the message is accounted to the sender (which may queue
    /// a kernel event in `fx`) and the peer is returned for the backend
    /// to carry it to. A backend whose local write can fail checks with
    /// `may_send` first and calls this once the write succeeded.
    pub fn send(
        &self,
        id: ConnId,
        from: Endpoint,
        len: usize,
        now: SimTime,
        k: &mut Kernel,
        fx: &mut Effects,
    ) -> Result<Endpoint, SysError> {
        let peer = self.may_send(id, from)?;
        k.account_sent(from.1, len, now, fx);
        Ok(peer)
    }

    /// The backend put `len` bytes from `from` on the wire: counts them,
    /// and returns their direction ([`Connection::toward`] the peer) with
    /// the connection's transport.
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown or `from` is not an endpoint.
    pub fn carry(&mut self, id: ConnId, from: Endpoint, len: usize) -> (usize, &mut L) {
        let (c, link) = self.entry_mut(id).expect("a known connection");
        let dir = c.toward(c.peer_of(from).expect("carried from an endpoint"));
        let s = &mut c.stats;
        let (msgs, bytes) = if dir == 1 {
            (&mut s.msgs_to_server, &mut s.bytes_to_server)
        } else {
            (&mut s.msgs_to_client, &mut s.bytes_to_client)
        };
        *msgs += 1;
        *bytes += len as u64;
        (dir, link)
    }

    /// A message of `len` bytes reaches `to`. `true` — and it is accounted
    /// to `to`, which may queue a kernel event in `fx` — when it is to be
    /// handed over: `to` is alive and the connection was established
    /// (data sent before a close still arrives after it).
    pub fn deliver(
        &self,
        id: ConnId,
        to: Endpoint,
        len: usize,
        now: SimTime,
        k: &mut Kernel,
        fx: &mut Effects,
    ) -> bool {
        let state = self.get(id).map(|c| c.state);
        if state.is_none_or(|s| s == ConnState::Connecting) || !k.is_alive(to.1) {
            return false;
        }
        k.account_received(to.1, len, now, fx);
        true
    }

    /// `from` closes its end: [`SysError::NotConnected`] unless it is an
    /// endpoint. Its descriptor is given back; if the connection was
    /// open it closes, and the peer is to be told `Closed`.
    pub fn close(
        &mut self,
        id: ConnId,
        from: Endpoint,
        now: SimTime,
        k: &mut Kernel,
    ) -> Result<Option<Tell>, SysError> {
        let c = self.get(id).ok_or(SysError::NotConnected)?;
        let peer = c.peer_of(from).ok_or(SysError::NotConnected)?;
        k.release_socket(from.1, id);
        Ok(self.sever(id, now).then(|| Tell::closed(id, peer)))
    }

    /// `to` is told the connection closed or broke: it closes if it had
    /// not, and `to`'s descriptor is given back. `true` when this call
    /// closed it — how a real node tells a peer's close, which it hears
    /// from its socket, from one of its own.
    pub fn told_closed(&mut self, id: ConnId, to: Endpoint, now: SimTime, k: &mut Kernel) -> bool {
        k.release_socket(to.1, id);
        self.sever(id, now)
    }

    /// `end`'s process is gone: every connection it held closes, and each
    /// peer is to be told `Closed`, in id order. (A dead process has no
    /// descriptors left to give back.)
    pub fn process_gone(&mut self, end: Endpoint, now: SimTime) -> Vec<Tell> {
        let peer = |c: &Connection| c.peer_of(end).expect("indexed under its end");
        let told: Vec<Tell> = self
            .held_by(end)
            .map(|id| Tell::closed(id, peer(self.get(id).expect("indexed"))))
            .collect();
        for t in &told {
            self.sever(t.conn, now);
        }
        told
    }

    /// `host` crashed: every connection with an end on it closes, and
    /// each end on another host is to be told `Closed`, in id order.
    pub fn host_crash(&mut self, host: HostId, now: SimTime) -> Vec<Tell> {
        let mut told = Vec::new();
        for id in self.held_on(host) {
            let c = self.get(id).expect("indexed");
            let survivor = [c.client, c.server].into_iter().find(|end| end.0 != host);
            self.sever(id, now);
            told.extend(survivor.map(|end| Tell::closed(id, end)));
        }
        told
    }

    /// The peer of `from` on an established connection: where every
    /// backend's `Sys::conn_alive` starts.
    pub fn established(&self, id: ConnId, from: Endpoint) -> Option<Endpoint> {
        let c = self.get(id)?;
        (c.state == ConnState::Established).then_some(c.peer_of(from)?)
    }
}
