//! Reliable stream connections (simulated TCP virtual circuits).
//!
//! The PPM's sibling LPMs and tools communicate over "private reliable
//! stream communication channels" — 4.3BSD TCP connections. This module
//! holds the bookkeeping; delivery scheduling lives in
//! [`crate::world::World`]. Guarantees preserved: in-order delivery per
//! direction, connection-oriented failure reporting (a break is observed
//! by the sender), and per-connection statistics for the IPC-tracing tool.

use std::collections::BTreeSet;

use ppm_runtime::pages::Pages;
use ppm_simnet::time::SimTime;
use ppm_simnet::topology::HostId;

use crate::ids::{ConnId, Pid, Port};
use ppm_runtime::program::ProcKey;

/// One endpoint of a connection.
pub type Endpoint = ProcKey;

/// Lifecycle of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Earliest admissible arrival time of the next message, per
    /// direction, enforcing FIFO despite jittered latencies.
    /// Index 0: messages arriving at the client; 1: at the server.
    pub next_arrival: [SimTime; 2],
    /// Counters.
    pub stats: ConnStats,
}

impl Connection {
    /// Creates a connection in the `Connecting` state.
    pub fn new(id: ConnId, client: Endpoint, server: Endpoint, port: Port, now: SimTime) -> Self {
        Connection {
            id,
            client,
            server,
            port,
            state: ConnState::Connecting,
            next_arrival: [SimTime::ZERO; 2],
            stats: ConnStats {
                opened_at: now,
                ..Default::default()
            },
        }
    }

    /// The peer of `end`, or `None` if `end` is not an endpoint.
    pub fn peer_of(&self, end: Endpoint) -> Option<Endpoint> {
        if end == self.client {
            Some(self.server)
        } else if end == self.server {
            Some(self.client)
        } else {
            None
        }
    }

    /// True when `end` is one of the two endpoints.
    pub fn has_endpoint(&self, end: Endpoint) -> bool {
        self.peer_of(end).is_some()
    }

    /// Records a send from `from` of `bytes` bytes and returns the index
    /// into [`Connection::next_arrival`] for the receiving side.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint.
    pub fn record_send(&mut self, from: Endpoint, bytes: usize) -> usize {
        if from == self.client {
            self.stats.msgs_to_server += 1;
            self.stats.bytes_to_server += bytes as u64;
            1
        } else if from == self.server {
            self.stats.msgs_to_client += 1;
            self.stats.bytes_to_client += bytes as u64;
            0
        } else {
            panic!("record_send from non-endpoint");
        }
    }

    /// Total messages in both directions.
    pub fn total_msgs(&self) -> u64 {
        self.stats.msgs_to_server + self.stats.msgs_to_client
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.stats.bytes_to_server + self.stats.bytes_to_client
    }
}

/// Every connection a world has made, and which of them are still open.
///
/// Records are never dropped — the IPC tool reads closed ones too — so
/// the table is append-only and dense: ids are handed out from 1 and
/// `ConnId(n)` sits at slot `n - 1`. What a process or a host still
/// holds is answered from an index of the open (`Connecting` or
/// `Established`) connections, kept where the state changes, so a
/// process exit costs the same however many requests the world has
/// served.
#[derive(Debug, Default)]
pub struct ConnTable {
    records: Pages<Connection>,
    /// `(endpoint, id)` for both endpoints of every open connection.
    held: BTreeSet<(Endpoint, ConnId)>,
}

impl ConnTable {
    /// Records a new connection, `Connecting`, under the next id.
    pub(crate) fn open(
        &mut self,
        client: Endpoint,
        server: Endpoint,
        port: Port,
        now: SimTime,
    ) -> ConnId {
        let id = ConnId(self.records.len() as u64 + 1);
        self.records
            .push(Connection::new(id, client, server, port, now));
        self.held.insert((client, id));
        self.held.insert((server, id));
        id
    }

    fn slot(id: ConnId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(1)?).ok()
    }

    /// One connection by id, open or closed.
    pub fn get(&self, id: ConnId) -> Option<&Connection> {
        self.records.get(Self::slot(id)?)
    }

    /// For traffic accounting; `state` changes go through
    /// [`ConnTable::establish`] and [`ConnTable::close`], which keep the
    /// index.
    pub(crate) fn get_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        self.records.get_mut(Self::slot(id)?)
    }

    /// Completes the handshake of a `Connecting` connection.
    pub(crate) fn establish(&mut self, id: ConnId, now: SimTime) {
        if let Some(c) = self.get_mut(id) {
            if c.state == ConnState::Connecting {
                c.state = ConnState::Established;
                c.stats.established_at = Some(now);
            }
        }
    }

    /// Closes a connection; closing a closed or unknown one is a no-op.
    pub(crate) fn close(&mut self, id: ConnId, now: SimTime) {
        let Some(c) = self.get_mut(id) else {
            return;
        };
        if c.state == ConnState::Closed {
            return;
        }
        c.state = ConnState::Closed;
        c.stats.closed_at = Some(now);
        let (client, server) = (c.client, c.server);
        self.held.remove(&(client, id));
        self.held.remove(&(server, id));
    }

    /// All records, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.records.iter()
    }

    /// Number of records, open and closed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no connection was ever made.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The open connections with `end` as an endpoint, in id order.
    pub fn held_by(&self, end: Endpoint) -> impl Iterator<Item = ConnId> + '_ {
        self.held
            .range((end, ConnId(0))..=(end, ConnId(u64::MAX)))
            .map(|(_, id)| *id)
    }

    /// The open connections with an endpoint on `host`, in id order.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Connection {
        Connection::new(
            ConnId(1),
            (HostId(0), Pid(10)),
            (HostId(1), Pid(20)),
            Port(3),
            SimTime::from_millis(2),
        )
    }

    #[test]
    fn starts_connecting_with_open_timestamp() {
        let c = conn();
        assert_eq!(c.state, ConnState::Connecting);
        assert_eq!(c.stats.opened_at, SimTime::from_millis(2));
        assert_eq!(c.stats.established_at, None);
    }

    #[test]
    fn peer_resolution() {
        let c = conn();
        assert_eq!(c.peer_of((HostId(0), Pid(10))), Some((HostId(1), Pid(20))));
        assert_eq!(c.peer_of((HostId(1), Pid(20))), Some((HostId(0), Pid(10))));
        assert_eq!(c.peer_of((HostId(2), Pid(1))), None);
        assert!(c.has_endpoint((HostId(0), Pid(10))));
        assert!(!c.has_endpoint((HostId(0), Pid(11))));
    }

    #[test]
    fn record_send_updates_direction_stats() {
        let mut c = conn();
        let dir = c.record_send((HostId(0), Pid(10)), 100);
        assert_eq!(dir, 1, "client send arrives at server side");
        let dir = c.record_send((HostId(1), Pid(20)), 40);
        assert_eq!(dir, 0);
        assert_eq!(c.stats.msgs_to_server, 1);
        assert_eq!(c.stats.bytes_to_server, 100);
        assert_eq!(c.stats.msgs_to_client, 1);
        assert_eq!(c.stats.bytes_to_client, 40);
        assert_eq!(c.total_msgs(), 2);
        assert_eq!(c.total_bytes(), 140);
    }

    #[test]
    #[should_panic(expected = "non-endpoint")]
    fn record_send_from_stranger_panics() {
        let mut c = conn();
        c.record_send((HostId(9), Pid(9)), 1);
    }

    /// What the index replaced: a scan of every record for the open
    /// ones with an endpoint on `host`.
    fn scan_host(t: &ConnTable, host: HostId) -> Vec<ConnId> {
        t.iter()
            .filter(|c| c.state != ConnState::Closed)
            .filter(|c| c.client.0 == host || c.server.0 == host)
            .map(|c| c.id)
            .collect()
    }

    #[test]
    fn table_is_dense_from_one_and_keeps_closed_records() {
        let mut t = ConnTable::default();
        assert!(t.is_empty());
        assert!(t.get(ConnId(0)).is_none());
        let (a, b) = ((HostId(0), Pid(10)), (HostId(1), Pid(20)));
        let c1 = t.open(a, b, Port(3), SimTime::ZERO);
        let c2 = t.open(b, a, Port(4), SimTime::ZERO);
        assert_eq!((c1, c2), (ConnId(1), ConnId(2)));
        t.close(c1, SimTime::from_millis(5));
        t.close(c1, SimTime::from_millis(9));
        t.close(ConnId(77), SimTime::ZERO);
        assert_eq!(t.len(), 2);
        let ids: Vec<ConnId> = t.iter().map(|c| c.id).collect();
        assert_eq!(ids, [c1, c2]);
        let closed = t.get(c1).unwrap();
        assert_eq!(closed.state, ConnState::Closed);
        assert_eq!(closed.stats.closed_at, Some(SimTime::from_millis(5)));
        assert!(t.get(ConnId(3)).is_none());
    }

    #[test]
    fn index_holds_connecting_and_established_until_close() {
        let mut t = ConnTable::default();
        let (a, b, c) = (
            (HostId(0), Pid(10)),
            (HostId(1), Pid(20)),
            (HostId(1), Pid(21)),
        );
        let ab = t.open(a, b, Port(3), SimTime::ZERO);
        let ac = t.open(a, c, Port(3), SimTime::ZERO);
        let cb = t.open(c, b, Port(3), SimTime::ZERO);
        t.establish(ac, SimTime::from_millis(1));
        assert_eq!(t.get(ac).unwrap().state, ConnState::Established);
        assert_eq!(t.held_by(a).collect::<Vec<_>>(), [ab, ac]);
        assert_eq!(t.held_by(b).collect::<Vec<_>>(), [ab, cb]);
        // Host 1 holds `cb` through both endpoints; it is listed once.
        assert_eq!(t.held_on(HostId(1)), [ab, ac, cb]);
        assert_eq!(t.held_on(HostId(1)), scan_host(&t, HostId(1)));
        assert_eq!(t.held_len(), 6);

        t.close(ab, SimTime::from_millis(2));
        assert_eq!(t.held_by(a).collect::<Vec<_>>(), [ac]);
        assert_eq!(t.held_by(b).collect::<Vec<_>>(), [cb]);
        assert_eq!(t.held_on(HostId(0)), [ac]);
        // A closed connection does not re-open.
        t.establish(ab, SimTime::from_millis(3));
        assert_eq!(t.get(ab).unwrap().state, ConnState::Closed);
        t.close(ac, SimTime::from_millis(4));
        t.close(cb, SimTime::from_millis(4));
        assert_eq!(t.held_len(), 0);
        assert!(t.held_on(HostId(1)).is_empty());
    }

    #[test]
    fn a_process_connected_to_itself_is_indexed_once() {
        let mut t = ConnTable::default();
        let me = (HostId(2), Pid(5));
        let id = t.open(me, me, Port(9), SimTime::ZERO);
        assert_eq!(t.held_by(me).collect::<Vec<_>>(), [id]);
        assert_eq!(t.held_on(HostId(2)), [id]);
        assert_eq!(t.held_len(), 1);
        t.close(id, SimTime::ZERO);
        assert_eq!(t.held_len(), 0);
    }
}
