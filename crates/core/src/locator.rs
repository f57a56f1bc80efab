//! The LPM-creation chain of Figure 2, as a reusable client state machine.
//!
//! Both tools and sibling LPMs need an authenticated channel to a user's
//! LPM on some host. Getting one takes the paper's four steps plus the
//! handshake:
//!
//! 1. connect to the target's **inetd** and request the `pmd` service;
//! 2. inetd starts **pmd** if necessary and returns its port;
//! 3. connect to pmd and send [`Msg::CreateLpm`]; pmd creates the LPM if
//!    necessary "after verifying that there is no LPM for that user in
//!    that host";
//! 4. pmd returns the **accept address**; connect to it and exchange
//!    [`Msg::Hello`]/[`Msg::HelloAck`] to authenticate the channel.
//!
//! Daemons may still be booting when we connect, so refused connections
//! are retried — the owner of the machine schedules the retry timer.
//!
//! The chain is written once, as [`Dial`]. [`Dial::lpm`] runs all of it;
//! [`Dial::pmd`] stops after step 3 with any question in place of
//! `CreateLpm` and hands back pmd's answer. Two owners drive it: a
//! [`Tool`](crate::client::Tool) holds one dial to its local LPM, and an
//! LPM keeps a table of them — one per sibling channel being set up, plus
//! the name-server query of the Section 5 alternative policy.

use bytes::Bytes;
use ppm_proto::codec::Wire;
use ppm_proto::msg::Msg;
use ppm_proto::types::{Name, Route};
use ppm_runtime::hashx::FastMap;
use ppm_runtime::ids::HostId;
use ppm_runtime::ids::{ConnId, Port};
use ppm_runtime::inetd;
use ppm_runtime::program::{ConnEvent, SysError};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimDuration;
use ppm_runtime::trace::TraceCategory;

use crate::config::PMD_SERVICE;

/// One learned route: the next hop to relay through, plus the full hop
/// path (`[me, next, ..., dest]`) it was learned from, kept so the cache
/// can revalidate every leg when the world's reachability epoch moves.
#[derive(Debug, Clone)]
struct RouteEntry {
    next: Name,
    path: Vec<Name>,
}

/// A bounded next-hop cache learned from reply routes.
///
/// Establishing a direct sibling channel costs the full Figure 2 chain
/// (inetd → pmd → LPM handshake); relaying through an already-connected
/// sibling costs one message. The cache maps a destination host to the
/// first hop of a route that reached it, keyed with the hot-path hasher —
/// it is consulted on every remote send. First-learned routes win, and
/// the cache stops learning at `cap` entries so a pathological topology
/// cannot grow it without bound.
#[derive(Debug, Clone)]
pub struct RouteCache {
    map: FastMap<Name, RouteEntry>,
    cap: usize,
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache::new(1024)
    }
}

impl RouteCache {
    /// Creates a cache that learns at most `cap` destinations.
    pub fn new(cap: usize) -> Self {
        RouteCache {
            map: FastMap::default(),
            cap,
        }
    }

    /// The next hop toward `dest`, if one was learned.
    pub fn get(&self, dest: &str) -> Option<&str> {
        self.map.get(dest).map(|e| e.next.as_str())
    }

    /// Learns next hops from a reply's route, which must originate at
    /// `self_host` (routes we did not source teach us nothing about our
    /// own next hop). `route = [me, hop1, hop2, ..., responder]`; every
    /// host past `hop1` becomes reachable via `hop1`. Direct neighbours
    /// (`len < 3`) are never cached. First route wins.
    pub fn learn(&mut self, route: &Route, self_host: &str) {
        if route.origin() != Some(self_host) {
            return;
        }
        let hops = &route.0;
        if hops.len() < 3 {
            return;
        }
        let next = &hops[1];
        for (i, dest) in hops.iter().enumerate().skip(2) {
            if self.map.len() >= self.cap && !self.map.contains_key(dest) {
                return;
            }
            self.map.entry(dest.clone()).or_insert_with(|| RouteEntry {
                next: next.clone(),
                path: hops[..=i].to_vec(),
            });
        }
    }

    /// Evicts `host` as a destination and every entry routed *via* it.
    /// Returns how many entries went.
    ///
    /// Called on an observed transport error (a crashed host or cut
    /// link): without eviction, stale next-hops only age out wholesale,
    /// so post-heal traffic would keep relaying into the dead hop
    /// instead of re-learning a live route.
    pub fn evict_via(&mut self, host: &str) -> usize {
        let before = self.map.len();
        self.map.retain(|dest, e| dest != host && e.next != host);
        before - self.map.len()
    }

    /// Revalidates every cached route against current reachability:
    /// each leg of an entry's learned path is checked with `edge_up`,
    /// and entries with any dead leg are evicted. Returns how many went.
    ///
    /// Called when the world's reachability epoch moves (link cut/heal,
    /// named net-link cut, crash, restart). `evict_via` only fires on an
    /// *observed* transport error, so before this check a fault-plan cut
    /// that changed reachability mid-run left stale entries relaying into
    /// the severed link until each one burned a retry cycle; healed links
    /// re-learn naturally from the next reply route.
    pub fn validate(&mut self, mut edge_up: impl FnMut(&str, &str) -> bool) -> usize {
        let before = self.map.len();
        self.map
            .retain(|_, e| e.path.windows(2).all(|leg| edge_up(&leg[0], &leg[1])));
        before - self.map.len()
    }
}

/// Identity material a dial presents in its `Hello`.
#[derive(Debug, Clone)]
pub struct HelloIdentity {
    /// Acting user.
    pub user: u32,
    /// Caller's host name.
    pub host: Name,
    /// True for tools, false for sibling LPMs.
    pub is_tool: bool,
    /// Caller's CCS view.
    pub ccs: Name,
    /// Caller's CCS epoch.
    pub epoch: u64,
    /// Authentication proof.
    pub proof: u64,
}

/// What a finished [`Dial`] hands its owner.
#[derive(Debug, Clone, PartialEq)]
pub enum Dialed {
    /// [`Dial::pmd`]: the pmd's answer.
    Answer(Msg),
    /// [`Dial::lpm`]: an authenticated channel to the LPM.
    Channel {
        /// The authenticated connection to the LPM.
        conn: ConnId,
        /// Whether this request created the LPM.
        created: bool,
        /// The LPM's CCS view from its `HelloAck`.
        peer_ccs: Name,
        /// The LPM's CCS epoch.
        peer_epoch: u64,
    },
}

/// Progress report returned by every event fed to a [`Dial`].
#[derive(Debug, Clone, PartialEq)]
pub enum Progress {
    /// Still working; nothing for the owner to do.
    Pending,
    /// Transient failure (daemon booting); call [`Dial::retry`] after
    /// this delay.
    RetryAfter(SimDuration),
    /// Finished.
    Done(Dialed),
    /// Permanent failure.
    Failed(SysError),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    ToInetd,
    AwaitPmdPort,
    ToPmd,
    AwaitAnswer,
    ToLpm,
    AwaitAck,
    Done,
    Dead,
}

/// The chain as a state machine. The owner routes events for the
/// connection the dial [`owns`](Dial::owns) into
/// [`on_conn_event`](Self::on_conn_event) / [`on_message`](Self::on_message),
/// and calls [`retry`](Self::retry) when a `RetryAfter` delay elapses. One
/// attempts budget covers every refused connection of the whole chain.
#[derive(Debug)]
pub struct Dial {
    target: HostId,
    /// What pmd is asked once located, encoded.
    request: Bytes,
    /// `Some`: pmd's answer is an accept address to connect to and
    /// authenticate on with this (encoded) `Hello`. `None`: the answer
    /// is the goal.
    hello: Option<Bytes>,
    step: Step,
    conn: Option<ConnId>,
    /// Where the current step connects: inetd, then pmd, then the LPM.
    port: Port,
    created: bool,
    attempts_left: u32,
    retry_delay: SimDuration,
}

impl Dial {
    /// Starts the full chain toward the LPM of `identity.user` on
    /// `target`; finishes with [`Dialed::Channel`].
    pub fn lpm(
        sys: &mut dyn Sys,
        target: HostId,
        identity: HelloIdentity,
        retry_delay: SimDuration,
        attempts: u32,
    ) -> Self {
        let request = Msg::CreateLpm {
            user: identity.user,
        };
        let hello = Msg::Hello {
            user: identity.user,
            host: identity.host,
            is_tool: identity.is_tool,
            ccs: identity.ccs,
            epoch: identity.epoch,
            proof: identity.proof,
        };
        let (request, hello) = (request.to_bytes(), Some(hello.to_bytes()));
        Self::start(sys, target, request, hello, retry_delay, attempts)
    }

    /// Starts a one-shot exchange with `target`'s pmd — steps 1–3 with
    /// `request` in place of `CreateLpm` — and finishes with
    /// [`Dialed::Answer`]. Used by the name-server CCS policy of Section 5
    /// ("LPMs would query the name server for a CCS"), where pmd plays the
    /// name server it already is for LPM creation.
    pub fn pmd(
        sys: &mut dyn Sys,
        target: HostId,
        request: &Msg,
        retry_delay: SimDuration,
        attempts: u32,
    ) -> Self {
        Self::start(sys, target, request.to_bytes(), None, retry_delay, attempts)
    }

    fn start(
        sys: &mut dyn Sys,
        target: HostId,
        request: Bytes,
        hello: Option<Bytes>,
        retry_delay: SimDuration,
        attempts: u32,
    ) -> Self {
        let mut dial = Dial {
            target,
            request,
            hello,
            step: Step::ToInetd,
            conn: None,
            port: Port::INETD,
            created: false,
            attempts_left: attempts.max(1),
            retry_delay,
        };
        dial.connect_current(sys);
        dial
    }

    /// Whether `conn` belongs to this dial.
    pub fn owns(&self, conn: ConnId) -> bool {
        self.conn == Some(conn)
    }

    /// True once the dial reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.step, Step::Done | Step::Dead)
    }

    /// Connects to `self.port` if the current step is a connecting one.
    fn connect_current(&mut self, sys: &mut dyn Sys) {
        if matches!(self.step, Step::ToInetd | Step::ToPmd | Step::ToLpm) {
            self.conn = sys.connect(self.target, self.port).ok();
            if self.conn.is_none() {
                self.step = Step::Dead;
            }
        }
    }

    /// Hangs up the finished step's connection.
    fn hang_up(&mut self, sys: &mut dyn Sys) {
        let _ = sys.close(self.conn.expect("owned conn"));
    }

    fn connect_next(&mut self, sys: &mut dyn Sys, step: Step, port: Port) {
        self.port = port;
        self.step = step;
        self.connect_current(sys);
    }

    /// Re-attempts the current step after a `RetryAfter`.
    pub fn retry(&mut self, sys: &mut dyn Sys) -> Progress {
        if self.is_terminal() {
            return Progress::Failed(SysError::ConnectionClosed);
        }
        self.connect_current(sys);
        if self.is_terminal() {
            Progress::Failed(SysError::HostDown)
        } else {
            Progress::Pending
        }
    }

    fn fail(&mut self, err: SysError) -> Progress {
        self.step = Step::Dead;
        Progress::Failed(err)
    }

    fn bounce(&mut self) -> Progress {
        if self.attempts_left == 0 {
            return self.fail(SysError::ConnectionRefused);
        }
        self.attempts_left -= 1;
        Progress::RetryAfter(self.retry_delay)
    }

    /// Feeds a connection event for an owned connection.
    pub fn on_conn_event(&mut self, sys: &mut dyn Sys, ev: ConnEvent) -> Progress {
        match ev {
            ConnEvent::Established => {
                let (wire, next) = match (self.step, &self.hello) {
                    (Step::ToInetd, _) => (inetd::request(PMD_SERVICE), Step::AwaitPmdPort),
                    (Step::ToPmd, _) => (self.request.clone(), Step::AwaitAnswer),
                    (Step::ToLpm, Some(hello)) => (hello.clone(), Step::AwaitAck),
                    _ => return Progress::Pending,
                };
                let conn = self.conn.expect("owned conn");
                if sys.send(conn, wire).is_err() {
                    return self.bounce();
                }
                self.step = next;
                Progress::Pending
            }
            // Daemon still booting: retry, like TCP SYN retransmission.
            ConnEvent::Failed(SysError::ConnectionRefused) => self.bounce(),
            ConnEvent::Failed(err) => self.fail(err),
            ConnEvent::Closed if self.step != Step::Done => self.fail(SysError::ConnectionClosed),
            _ => Progress::Pending,
        }
    }

    /// Feeds a message arriving on an owned connection.
    pub fn on_message(&mut self, sys: &mut dyn Sys, data: Bytes) -> Progress {
        match self.step {
            Step::AwaitPmdPort => match inetd::parse_reply(&data) {
                Ok(port) => {
                    self.hang_up(sys);
                    self.connect_next(sys, Step::ToPmd, port);
                    Progress::Pending
                }
                Err(e) => self.fail(e),
            },
            Step::AwaitAnswer => match (Msg::from_bytes(&data), self.hello.is_some()) {
                (Ok(answer), false) => {
                    self.hang_up(sys);
                    self.step = Step::Done;
                    Progress::Done(Dialed::Answer(answer))
                }
                (Ok(Msg::LpmAddr { port, created, .. }), true) => {
                    self.hang_up(sys);
                    self.created = created;
                    sys.trace(
                        TraceCategory::Daemon,
                        format_args!(
                            "locator: pmd returned accept address :{port} (created={created})"
                        ),
                    );
                    self.connect_next(sys, Step::ToLpm, Port(port));
                    Progress::Pending
                }
                (Ok(Msg::NoLpm { .. }), true) => self.fail(SysError::PermissionDenied),
                _ => self.fail(SysError::InvalidArgument),
            },
            Step::AwaitAck => match Msg::from_bytes(&data) {
                Ok(Msg::HelloAck {
                    ok: true,
                    ccs,
                    epoch,
                    ..
                }) => {
                    self.step = Step::Done;
                    Progress::Done(Dialed::Channel {
                        conn: self.conn.expect("owned conn"),
                        created: self.created,
                        peer_ccs: ccs,
                        peer_epoch: epoch,
                    })
                }
                Ok(Msg::HelloAck { ok: false, .. }) => self.fail(SysError::PermissionDenied),
                _ => self.fail(SysError::InvalidArgument),
            },
            _ => Progress::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The chain is exercised end-to-end in the LPM/harness integration
    //! tests; here a stub backend feeds it the events those never produce
    //! on demand.
    use super::*;
    use crate::stub_sys::StubSys;

    const DELAY: SimDuration = SimDuration::from_millis(20);
    const REFUSED: ConnEvent = ConnEvent::Failed(SysError::ConnectionRefused);

    /// A stub backend and a dial on it that inetd has just answered.
    fn dial_past_inetd(hello: bool, attempts: u32) -> (StubSys, Dial) {
        let mut sys = StubSys::new(false);
        let mut dial = if hello {
            let identity = HelloIdentity {
                user: 100,
                host: "a".into(),
                is_tool: true,
                ccs: "a".into(),
                epoch: 0,
                proof: 1,
            };
            Dial::lpm(&mut sys, HostId(1), identity, DELAY, attempts)
        } else {
            let ask = Msg::CcsQuery {
                user: 100,
                claimant: "a".into(),
                dead: None,
            };
            Dial::pmd(&mut sys, HostId(1), &ask, DELAY, attempts)
        };
        dial.on_conn_event(&mut sys, ConnEvent::Established);
        let port = Bytes::copy_from_slice(&[inetd::INETD_OK, 0, 9]);
        assert_eq!(dial.on_message(&mut sys, port), Progress::Pending);
        assert_eq!((dial.step, dial.port), (Step::ToPmd, Port(9)));
        (sys, dial)
    }

    #[test]
    fn refusals_anywhere_in_the_chain_draw_on_one_budget() {
        let (mut sys, mut dial) = dial_past_inetd(true, 2);
        let sys = &mut sys;
        // pmd is still booting ...
        assert_eq!(
            dial.on_conn_event(sys, REFUSED),
            Progress::RetryAfter(DELAY)
        );
        assert_eq!(dial.retry(sys), Progress::Pending);
        dial.on_conn_event(sys, ConnEvent::Established);
        let addr = Msg::LpmAddr {
            user: 100,
            port: 1100,
            created: true,
        };
        assert_eq!(dial.on_message(sys, addr.to_bytes()), Progress::Pending);
        assert_eq!((dial.step, dial.port), (Step::ToLpm, Port(1100)));
        // ... and so is the LPM it names, which gets what is left.
        assert_eq!(
            dial.on_conn_event(sys, REFUSED),
            Progress::RetryAfter(DELAY)
        );
        assert_eq!(dial.retry(sys), Progress::Pending);
        assert_eq!(
            dial.on_conn_event(sys, REFUSED),
            Progress::Failed(SysError::ConnectionRefused)
        );
        assert!(dial.is_terminal());
    }

    #[test]
    fn closed_after_done_is_not_a_failure() {
        let (mut sys, mut dial) = dial_past_inetd(false, 1);
        let sys = &mut sys;
        dial.on_conn_event(sys, ConnEvent::Established);
        let conn = dial.conn.expect("connected to pmd");
        assert!(dial.owns(conn) && !dial.owns(ConnId(conn.0 - 1)));
        let answer = Msg::CcsInfo {
            user: 100,
            ccs: "a".into(),
            epoch: 1,
        };
        assert_eq!(
            dial.on_message(sys, answer.to_bytes()),
            Progress::Done(Dialed::Answer(answer))
        );
        assert_eq!(
            dial.on_conn_event(sys, ConnEvent::Closed),
            Progress::Pending
        );
    }

    #[test]
    fn route_cache_evicts_dest_and_via() {
        let mut c = RouteCache::new(8);
        // here → mid → {far, farther}; here → alt → elsewhere.
        let mut r1 = Route::from_origin("here");
        r1.push("mid");
        r1.push("far");
        r1.push("farther");
        c.learn(&r1, "here");
        let mut r2 = Route::from_origin("here");
        r2.push("alt");
        r2.push("elsewhere");
        c.learn(&r2, "here");
        assert_eq!(c.get("nowhere"), None);
        // mid crashed: both entries routed via it go; the other stays.
        assert_eq!(c.evict_via("mid"), 2);
        assert_eq!((c.get("far"), c.get("farther")), (None, None));
        assert_eq!(c.get("elsewhere"), Some("alt"));
        // Evicting a destination host drops its entry too.
        assert_eq!(c.evict_via("elsewhere"), 1);
        assert_eq!(c.evict_via("elsewhere"), 0, "nothing is left");
    }

    #[test]
    fn route_cache_caps_learning() {
        let mut c = RouteCache::new(2);
        for dest in ["d1", "d2", "d3"] {
            let mut route = Route::from_origin("here");
            route.push("mid");
            route.push(dest);
            c.learn(&route, "here");
        }
        assert_eq!((c.get("d1"), c.get("d2")), (Some("mid"), Some("mid")));
        assert_eq!(c.get("d3"), None, "third destination rejected at capacity");
        // Hosts already cached still refresh-no-op past the cap.
        let mut again = Route::from_origin("here");
        again.push("alt");
        again.push("d1");
        c.learn(&again, "here");
        assert_eq!(c.get("d1"), Some("mid"), "first route wins");
    }
}
