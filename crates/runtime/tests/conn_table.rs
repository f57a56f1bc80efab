//! The connection table as a state machine: what each transition
//! changes — state, timestamps, counters, the open-connection index, the
//! ends' socket descriptors and rusage — and whom it says to tell.

use ppm_runtime::conn::{ConnState, ConnTable, Endpoint, Tell};
use ppm_runtime::ids::{ConnId, HostId, Pid, Port, Uid};
use ppm_runtime::kernel::{Effects, Kernel};
use ppm_runtime::program::{ConnEvent, SysError};
use ppm_runtime::time::SimTime;

/// A kernel on `host` with `n` live processes, and their endpoints.
fn host(h: u32, n: usize) -> (Kernel, Vec<Endpoint>) {
    let (mut k, fx) = (Kernel::new(SimTime::ZERO), &mut Effects::new());
    let mut spawn = || {
        (
            HostId(h),
            k.spawn(Pid::INIT, Uid(1), "p", false, SimTime::ZERO, fx),
        )
    };
    let ends = (0..n).map(|_| spawn()).collect();
    (k, ends)
}

fn sockets(k: &Kernel, end: Endpoint) -> usize {
    let fds = k.open_fds(Uid::ROOT, end.1).expect("live");
    fds.iter()
        .filter(|(_, f)| f.kind_name() == "socket")
        .count()
}

/// What the index replaced: a scan of every record for the open ones
/// with an endpoint on `host`.
fn scan_host<L>(t: &ConnTable<L>, host: HostId) -> Vec<ConnId> {
    t.iter()
        .filter(|c| c.state != ConnState::Closed)
        .filter(|c| c.client.0 == host || c.server.0 == host)
        .map(|c| c.id)
        .collect()
}

#[test]
fn a_connection_lives_connecting_established_closed() {
    let ((mut ka, a), (mut kb, b)) = (host(0, 1), host(1, 1));
    let (a, b, now, fx) = (a[0], b[0], SimTime::from_millis(1), &mut Effects::new());
    let (mut t, no) = (ConnTable::<()>::default(), Err(SysError::NotConnected));
    let id = t.open(a, b, Port(3), now, &mut ka);
    assert_eq!((id, sockets(&ka, a), sockets(&kb, b)), (ConnId(1), 1, 0));
    assert_eq!(
        t.send(id, a, 5, now, &mut ka, fx),
        no,
        "not before the handshake"
    );
    assert!(!t.deliver(id, b, 5, now, &mut kb, fx));
    let [acc, est] = t.establish(id, now, &mut kb).expect("connecting");
    assert_eq!(
        (acc.to, est, sockets(&kb, b)),
        (b, Tell::new(id, a, ConnEvent::Established), 1)
    );
    assert_eq!(t.send(id, a, 5, now, &mut ka, fx), Ok(b));
    assert_eq!(t.carry(id, a, 5).0, 1, "toward the server");
    assert!(t.deliver(id, b, 5, now, &mut kb, fx));
    let stranger = t.close(id, (HostId(2), Pid(9)), now, &mut ka);
    assert_eq!(stranger, Err(SysError::NotConnected));
    assert_eq!(t.close(id, a, now, &mut ka), Ok(Some(Tell::closed(id, b))));
    assert_eq!(t.close(id, a, now, &mut ka), Ok(None), "closing twice");
    assert_eq!(
        t.send(id, b, 1, now, &mut kb, fx),
        Err(SysError::ConnectionClosed)
    );
    assert!(
        t.deliver(id, b, 5, now, &mut kb, fx),
        "data in flight arrives"
    );
    assert!(!t.told_closed(id, b, now, &mut kb));
    assert_eq!((sockets(&ka, a), sockets(&kb, b), t.held_len()), (0, 0, 0));
    let (ra, rb) = (ka.rusage_of(a.1).unwrap(), kb.rusage_of(b.1).unwrap());
    assert_eq!(
        (
            ra.msgs_sent,
            rb.bytes_received,
            t.get(id).unwrap().stats.bytes_to_server
        ),
        (1, 10, 5)
    );
    assert_eq!(t.establish(id, now, &mut kb), None, "closed stays closed");
    let no = SysError::ConnectionRefused;
    let told = t.open_refused(a, b, Port(4), no, now);
    assert_eq!(told, Tell::new(ConnId(2), a, ConnEvent::Failed(no)));
    let id = t.open(a, b, Port(4), now, &mut ka);
    assert_eq!(t.refuse(id, no, now, &mut ka).map(|t| t.to), Some(a));
    assert_eq!(t.refuse(id, no, now, &mut ka), None);
    assert_eq!((sockets(&ka, a), t.held_len(), t.len()), (0, 0, 3));
}

#[test]
fn the_index_holds_open_connections_by_their_held_ends() {
    let ((mut k0, p0), (mut k1, p1)) = (host(0, 1), host(1, 2));
    let (a, b, c, now) = (p0[0], p1[0], p1[1], SimTime::ZERO);
    let mut t = ConnTable::<u8>::numbered_from(7 << 40);
    let ab = t.open(a, b, Port(3), now, &mut k0);
    let ac = t.open(a, c, Port(3), now, &mut k0);
    let cb = t.open(c, b, Port(3), now, &mut k1);
    let aa = t.open(a, a, Port(3), now, &mut k0);
    assert_eq!(
        (ab.0, t.held_len()),
        ((7 << 40) + 1, 7),
        "a self-connection once"
    );
    // Host 1 holds `cb` through both endpoints; it is listed once.
    assert_eq!(t.held_on(HostId(1)), [ab, ac, cb]);
    let scanned = |t: &ConnTable<u8>| [0, 1].map(|h| scan_host(t, HostId(h)));
    assert_eq!([0, 1].map(|h| t.held_on(HostId(h))), scanned(&t));
    let gone = t.process_gone(b, now);
    assert_eq!(gone, [Tell::closed(ab, a), Tell::closed(cb, c)]);
    assert_eq!(t.held_by(a).collect::<Vec<_>>(), [ac, aa]);
    assert_eq!([0, 1].map(|h| t.held_on(HostId(h))), scanned(&t));
    assert_eq!(t.host_crash(HostId(1), now), [Tell::closed(ac, a)]);
    assert_eq!([0, 1].map(|h| t.held_on(HostId(h))), scanned(&t));
    let far = (HostId(6), Pid::NONE);
    let told = t.accept(far, c, Port(9), now, &mut k1);
    assert_eq!(
        (told.to, t.held_by(far).count()),
        (c, 0),
        "the far end is held elsewhere"
    );
    assert_eq!((t.held_len(), sockets(&k1, c)), (2, 2));
    *t.link_mut(told.conn).unwrap() = 4;
    let links: Vec<u8> = t.iter_mut().map(|(_, l)| *l).collect();
    assert_eq!(links, [0, 0, 0, 0, 4]);
}

#[test]
fn a_record_keeps_when_it_opened_established_and_first_closed() {
    let ((mut ka, a), (mut kb, b)) = (host(0, 1), host(1, 1));
    let (a, b, ms) = (a[0], b[0], SimTime::from_millis);
    let mut t = ConnTable::<()>::default();
    let times = |t: &ConnTable, id| {
        let s = t.get(id).expect("recorded").stats;
        (s.opened_at, s.established_at, s.closed_at)
    };
    let id = t.open(a, b, Port(3), ms(2), &mut ka);
    assert_eq!(times(&t, id), (ms(2), None, None));
    t.establish(id, ms(3), &mut kb);
    assert_eq!(times(&t, id), (ms(2), Some(ms(3)), None));
    assert_eq!((t.carry(id, a, 100).0, t.carry(id, b, 40).0), (1, 0));
    let s = t.get(id).unwrap().stats;
    assert_eq!(
        (s.msgs_to_server, s.bytes_to_server),
        (1, 100),
        "client to server"
    );
    assert_eq!((s.msgs_to_client, s.bytes_to_client), (1, 40));
    assert_eq!(
        t.close(id, a, ms(5), &mut ka),
        Ok(Some(Tell::closed(id, b)))
    );
    assert_eq!(t.close(id, b, ms(9), &mut kb), Ok(None));
    assert!(!t.sever(id, ms(11)) && !t.told_closed(id, b, ms(12), &mut kb));
    let first_close = (ms(2), Some(ms(3)), Some(ms(5)));
    assert_eq!(times(&t, id), first_close, "the first close wins");
    let no = SysError::ConnectionRefused;
    let refused = t.open_refused(a, b, Port(4), no, ms(6)).conn;
    assert_eq!(times(&t, refused), (ms(6), None, Some(ms(6))));
    let accepted = t.accept(a, b, Port(5), ms(7), &mut kb).conn;
    assert_eq!(times(&t, accepted), (ms(7), Some(ms(7)), None));
}

#[test]
fn ids_outside_the_table_are_unknown_and_harmless() {
    let ((mut ka, a), (mut kb, b)) = (host(0, 1), host(1, 1));
    let (a, b, now, fx) = (a[0], b[0], SimTime::ZERO, &mut Effects::new());
    let base = 5 << 40;
    let mut t = ConnTable::<()>::numbered_from(base);
    assert!(t.is_empty() && t.get(ConnId(base + 1)).is_none());
    let id = t.open(a, b, Port(3), now, &mut ka);
    assert_eq!(id, ConnId(base + 1));
    let below = [ConnId(0), ConnId(1), ConnId(base)];
    for bad in below
        .into_iter()
        .chain([ConnId(base + 2), ConnId(u64::MAX)])
    {
        let unknown = t.get(bad).is_none() && t.link(bad).is_none();
        assert!(unknown && t.link_mut(bad).is_none(), "{bad}");
        assert!(!t.sever(bad, now), "{bad}");
        assert!(!t.told_closed(bad, a, now, &mut ka), "{bad}");
        let no = SysError::NotConnected;
        assert_eq!(t.close(bad, a, now, &mut ka), Err(no), "{bad}");
        assert_eq!(t.may_send(bad, a), Err(no), "{bad}");
        assert!(!t.deliver(bad, b, 1, now, &mut kb, fx), "{bad}");
        assert_eq!(t.establish(bad, now, &mut kb), None, "{bad}");
        let refused = t.refuse(bad, SysError::ConnectionRefused, now, &mut ka);
        assert_eq!((refused, t.established(bad, a)), (None, None), "{bad}");
    }
    let c = t.get(id).expect("still there");
    assert_eq!(
        (c.state, t.len(), t.held_len()),
        (ConnState::Connecting, 1, 2)
    );
    assert_eq!(sockets(&ka, a), 1, "the real descriptor is kept");
}

#[test]
#[should_panic(expected = "carried from an endpoint")]
fn carrying_from_a_stranger_panics() {
    let ((mut ka, a), (_, b)) = (host(0, 1), host(1, 1));
    let mut t = ConnTable::<()>::default();
    let id = t.open(a[0], b[0], Port(3), SimTime::ZERO, &mut ka);
    t.carry(id, (HostId(9), Pid(9)), 1);
}
