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

use bytes::Bytes;
use ppm_proto::codec::Wire;
use ppm_proto::msg::Msg;
use ppm_proto::types::Route;
use ppm_runtime::hashx::FastMap;
use ppm_runtime::ids::HostId;
use ppm_runtime::ids::{ConnId, Port};
use ppm_runtime::inetd;
use ppm_runtime::program::{ConnEvent, SysError};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimDuration;
use ppm_runtime::trace::TraceCategory;

use crate::config::PMD_SERVICE;

/// A bounded next-hop cache learned from reply routes.
///
/// Establishing a direct sibling channel costs the full Figure 2 chain
/// (inetd → pmd → LPM handshake); relaying through an already-connected
/// sibling costs one message. The cache maps a destination host to the
/// first hop of a route that reached it, keyed with the hot-path hasher —
/// it is consulted on every remote send. First-learned routes win, and
/// the cache stops learning at `cap` entries so a pathological topology
/// cannot grow it without bound. Entries are only dropped wholesale via
/// [`RouteCache::clear`], never evicted one by one, which keeps lookups
/// deterministic.
/// One learned route: the next hop to relay through, plus the full hop
/// path (`[me, next, ..., dest]`) it was learned from, kept so the cache
/// can revalidate every leg when the world's reachability epoch moves.
#[derive(Debug, Clone)]
struct RouteEntry {
    next: String,
    path: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct RouteCache {
    map: FastMap<String, RouteEntry>,
    cap: usize,
    hits: u64,
    misses: u64,
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
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the next hop toward `dest`, counting the hit or miss.
    pub fn lookup(&mut self, dest: &str) -> Option<&str> {
        match self.map.get(dest) {
            Some(e) => {
                self.hits += 1;
                Some(e.next.as_str())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks at the next hop toward `dest` without touching the counters.
    pub fn get(&self, dest: &str) -> Option<&str> {
        self.map.get(dest).map(|e| e.next.as_str())
    }

    /// Whether a next hop is known for `dest`.
    pub fn contains_key(&self, dest: &str) -> bool {
        self.map.contains_key(dest)
    }

    /// Number of cached destinations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) recorded by [`RouteCache::lookup`].
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
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

    /// Forgets everything (counters included).
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
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

/// Identity material the channel presents in its `Hello`.
#[derive(Debug, Clone)]
pub struct HelloIdentity {
    /// Acting user.
    pub user: u32,
    /// Caller's host name.
    pub host: String,
    /// True for tools, false for sibling LPMs.
    pub is_tool: bool,
    /// Caller's CCS view.
    pub ccs: String,
    /// Caller's CCS epoch.
    pub epoch: u64,
    /// Authentication proof.
    pub proof: u64,
}

/// Progress report returned by every event fed to the channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ChanProgress {
    /// Still working; nothing for the owner to do.
    Pending,
    /// Transient failure (daemon booting); call
    /// [`LpmChannel::retry`] after this delay.
    RetryAfter(SimDuration),
    /// Channel established and authenticated.
    Ready {
        /// The authenticated connection to the LPM.
        conn: ConnId,
        /// Whether this request created the LPM.
        created: bool,
        /// The LPM's CCS view from its `HelloAck`.
        peer_ccs: String,
        /// The LPM's CCS epoch.
        peer_epoch: u64,
    },
    /// Permanent failure.
    Failed(SysError),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    ToInetd,
    AwaitPmdPort,
    ToPmd,
    AwaitLpmAddr,
    ToLpm,
    AwaitAck,
    Done,
    Dead,
}

/// The state machine. The owner routes events for connections the channel
/// [`owns`](LpmChannel::owns) into [`on_conn_event`](Self::on_conn_event) /
/// [`on_message`](Self::on_message), and calls [`retry`](Self::retry) when
/// a `RetryAfter` delay elapses.
#[derive(Debug)]
pub struct LpmChannel {
    target: HostId,
    identity: HelloIdentity,
    step: Step,
    conn: Option<ConnId>,
    pmd_port: Option<Port>,
    lpm_port: Option<Port>,
    created: bool,
    attempts_left: u32,
    retry_delay: SimDuration,
}

impl LpmChannel {
    /// Starts the chain toward `target`.
    pub fn start(
        sys: &mut dyn Sys,
        target: HostId,
        identity: HelloIdentity,
        retry_delay: SimDuration,
        attempts: u32,
    ) -> Self {
        let mut chan = LpmChannel {
            target,
            identity,
            step: Step::ToInetd,
            conn: None,
            pmd_port: None,
            lpm_port: None,
            created: false,
            attempts_left: attempts.max(1),
            retry_delay,
        };
        chan.connect_current(sys);
        chan
    }

    /// The host this channel targets.
    pub fn target(&self) -> HostId {
        self.target
    }

    /// Whether `conn` belongs to this channel.
    pub fn owns(&self, conn: ConnId) -> bool {
        self.conn == Some(conn)
    }

    /// The connection the channel is currently using, if any. Owners
    /// re-register this after every progress report so events route back.
    pub fn current_conn(&self) -> Option<ConnId> {
        self.conn
    }

    /// True once the channel reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.step, Step::Done | Step::Dead)
    }

    fn connect_current(&mut self, sys: &mut dyn Sys) {
        let port = match self.step {
            Step::ToInetd => Port::INETD,
            Step::ToPmd => self.pmd_port.expect("pmd port known at ToPmd"),
            Step::ToLpm => self.lpm_port.expect("lpm port known at ToLpm"),
            _ => return,
        };
        self.conn = sys.connect(self.target, port).ok();
        if self.conn.is_none() {
            self.step = Step::Dead;
        }
    }

    /// Re-attempts the current step after a `RetryAfter`.
    pub fn retry(&mut self, sys: &mut dyn Sys) -> ChanProgress {
        if self.is_terminal() {
            return ChanProgress::Failed(SysError::ConnectionClosed);
        }
        self.connect_current(sys);
        match self.step {
            Step::ToInetd | Step::ToPmd | Step::ToLpm if self.conn.is_some() => {
                ChanProgress::Pending
            }
            _ => self.fail(SysError::HostDown),
        }
    }

    fn fail(&mut self, err: SysError) -> ChanProgress {
        self.step = Step::Dead;
        ChanProgress::Failed(err)
    }

    fn bounce(&mut self) -> ChanProgress {
        if self.attempts_left == 0 {
            return self.fail(SysError::ConnectionRefused);
        }
        self.attempts_left -= 1;
        ChanProgress::RetryAfter(self.retry_delay)
    }

    /// Feeds a connection event for an owned connection.
    pub fn on_conn_event(&mut self, sys: &mut dyn Sys, ev: ConnEvent) -> ChanProgress {
        match (self.step, ev) {
            (Step::ToInetd, ConnEvent::Established) => {
                let conn = self.conn.expect("owned conn");
                if sys.send(conn, inetd::request(PMD_SERVICE)).is_err() {
                    return self.bounce();
                }
                self.step = Step::AwaitPmdPort;
                ChanProgress::Pending
            }
            (Step::ToPmd, ConnEvent::Established) => {
                let conn = self.conn.expect("owned conn");
                let msg = Msg::CreateLpm {
                    user: self.identity.user,
                };
                if sys.send(conn, msg.to_bytes()).is_err() {
                    return self.bounce();
                }
                self.step = Step::AwaitLpmAddr;
                ChanProgress::Pending
            }
            (Step::ToLpm, ConnEvent::Established) => {
                let conn = self.conn.expect("owned conn");
                let id = &self.identity;
                let hello = Msg::Hello {
                    user: id.user,
                    host: id.host.clone(),
                    is_tool: id.is_tool,
                    ccs: id.ccs.clone(),
                    epoch: id.epoch,
                    proof: id.proof,
                };
                if sys.send(conn, hello.to_bytes()).is_err() {
                    return self.bounce();
                }
                self.step = Step::AwaitAck;
                ChanProgress::Pending
            }
            (_, ConnEvent::Failed(SysError::ConnectionRefused)) => {
                // Daemon still booting: retry, like TCP SYN retransmission.
                self.bounce()
            }
            (_, ConnEvent::Failed(err)) => self.fail(err),
            (_, ConnEvent::Closed) => {
                if self.step == Step::Done {
                    ChanProgress::Pending
                } else {
                    self.fail(SysError::ConnectionClosed)
                }
            }
            _ => ChanProgress::Pending,
        }
    }

    /// Feeds a message arriving on an owned connection.
    pub fn on_message(&mut self, sys: &mut dyn Sys, data: Bytes) -> ChanProgress {
        match self.step {
            Step::AwaitPmdPort => {
                let conn = self.conn.expect("owned conn");
                match inetd::parse_reply(&data) {
                    Ok(port) => {
                        let _ = sys.close(conn);
                        self.pmd_port = Some(port);
                        self.step = Step::ToPmd;
                        self.connect_current(sys);
                        ChanProgress::Pending
                    }
                    Err(e) => self.fail(e),
                }
            }
            Step::AwaitLpmAddr => {
                let conn = self.conn.expect("owned conn");
                match Msg::from_bytes(&data) {
                    Ok(Msg::LpmAddr { port, created, .. }) => {
                        let _ = sys.close(conn);
                        self.lpm_port = Some(Port(port));
                        self.created = created;
                        sys.trace(
                            TraceCategory::Daemon,
                            format_args!(
                                "locator: pmd returned accept address :{port} (created={created})"
                            ),
                        );
                        self.step = Step::ToLpm;
                        self.connect_current(sys);
                        ChanProgress::Pending
                    }
                    Ok(Msg::NoLpm { .. }) => self.fail(SysError::PermissionDenied),
                    _ => self.fail(SysError::InvalidArgument),
                }
            }
            Step::AwaitAck => match Msg::from_bytes(&data) {
                Ok(Msg::HelloAck {
                    ok: true,
                    ccs,
                    epoch,
                    ..
                }) => {
                    self.step = Step::Done;
                    ChanProgress::Ready {
                        conn: self.conn.expect("owned conn"),
                        created: self.created,
                        peer_ccs: ccs,
                        peer_epoch: epoch,
                    }
                }
                Ok(Msg::HelloAck { ok: false, .. }) => self.fail(SysError::PermissionDenied),
                _ => self.fail(SysError::InvalidArgument),
            },
            _ => ChanProgress::Pending,
        }
    }
}

/// Progress of a [`PmdExchange`].
#[derive(Debug, Clone, PartialEq)]
pub enum PmdProgress {
    /// Still working.
    Pending,
    /// Transient failure; call [`PmdExchange::retry`] after this delay.
    RetryAfter(SimDuration),
    /// The pmd answered.
    Answer(Msg),
    /// Permanent failure.
    Failed(SysError),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PmdStep {
    ToInetd,
    AwaitPort,
    ToPmd,
    AwaitAnswer,
    Done,
    Dead,
}

/// A one-shot exchange with a (possibly remote) pmd: locate it through
/// inetd, send one message, return the answer. Used by the name-server
/// CCS policy of Section 5 ("LPMs would query the name server for a
/// CCS"), where pmd plays the name server it already is for LPM creation.
#[derive(Debug)]
pub struct PmdExchange {
    target: HostId,
    request: Msg,
    step: PmdStep,
    conn: Option<ConnId>,
    pmd_port: Option<Port>,
    attempts_left: u32,
    retry_delay: SimDuration,
}

impl PmdExchange {
    /// Starts the exchange toward `target`'s pmd.
    pub fn start(
        sys: &mut dyn Sys,
        target: HostId,
        request: Msg,
        retry_delay: SimDuration,
        attempts: u32,
    ) -> Self {
        let mut x = PmdExchange {
            target,
            request,
            step: PmdStep::ToInetd,
            conn: None,
            pmd_port: None,
            attempts_left: attempts.max(1),
            retry_delay,
        };
        x.connect_current(sys);
        x
    }

    /// Whether `conn` belongs to this exchange.
    pub fn owns(&self, conn: ConnId) -> bool {
        self.conn == Some(conn)
    }

    /// The connection currently in use.
    pub fn current_conn(&self) -> Option<ConnId> {
        self.conn
    }

    /// True once finished (successfully or not).
    pub fn is_terminal(&self) -> bool {
        matches!(self.step, PmdStep::Done | PmdStep::Dead)
    }

    fn connect_current(&mut self, sys: &mut dyn Sys) {
        let port = match self.step {
            PmdStep::ToInetd => Port::INETD,
            PmdStep::ToPmd => self.pmd_port.expect("port known"),
            _ => return,
        };
        self.conn = sys.connect(self.target, port).ok();
        if self.conn.is_none() {
            self.step = PmdStep::Dead;
        }
    }

    fn bounce(&mut self) -> PmdProgress {
        if self.attempts_left == 0 {
            self.step = PmdStep::Dead;
            return PmdProgress::Failed(SysError::ConnectionRefused);
        }
        self.attempts_left -= 1;
        PmdProgress::RetryAfter(self.retry_delay)
    }

    /// Re-attempts the current step.
    pub fn retry(&mut self, sys: &mut dyn Sys) -> PmdProgress {
        if self.is_terminal() {
            return PmdProgress::Failed(SysError::ConnectionClosed);
        }
        self.connect_current(sys);
        if self.conn.is_some() {
            PmdProgress::Pending
        } else {
            self.step = PmdStep::Dead;
            PmdProgress::Failed(SysError::HostDown)
        }
    }

    /// Feeds a connection event for an owned connection.
    pub fn on_conn_event(&mut self, sys: &mut dyn Sys, ev: ConnEvent) -> PmdProgress {
        match (self.step, ev) {
            (PmdStep::ToInetd, ConnEvent::Established) => {
                let conn = self.conn.expect("owned");
                if sys.send(conn, inetd::request(PMD_SERVICE)).is_err() {
                    return self.bounce();
                }
                self.step = PmdStep::AwaitPort;
                PmdProgress::Pending
            }
            (PmdStep::ToPmd, ConnEvent::Established) => {
                let conn = self.conn.expect("owned");
                if sys.send(conn, self.request.to_bytes()).is_err() {
                    return self.bounce();
                }
                self.step = PmdStep::AwaitAnswer;
                PmdProgress::Pending
            }
            (_, ConnEvent::Failed(SysError::ConnectionRefused)) => self.bounce(),
            (_, ConnEvent::Failed(err)) => {
                self.step = PmdStep::Dead;
                PmdProgress::Failed(err)
            }
            (_, ConnEvent::Closed) if self.step != PmdStep::Done => {
                self.step = PmdStep::Dead;
                PmdProgress::Failed(SysError::ConnectionClosed)
            }
            _ => PmdProgress::Pending,
        }
    }

    /// Feeds a message arriving on an owned connection.
    pub fn on_message(&mut self, sys: &mut dyn Sys, data: Bytes) -> PmdProgress {
        match self.step {
            PmdStep::AwaitPort => match inetd::parse_reply(&data) {
                Ok(port) => {
                    let conn = self.conn.expect("owned");
                    let _ = sys.close(conn);
                    self.pmd_port = Some(port);
                    self.step = PmdStep::ToPmd;
                    self.connect_current(sys);
                    PmdProgress::Pending
                }
                Err(e) => {
                    self.step = PmdStep::Dead;
                    PmdProgress::Failed(e)
                }
            },
            PmdStep::AwaitAnswer => match Msg::from_bytes(&data) {
                Ok(answer) => {
                    let conn = self.conn.expect("owned");
                    let _ = sys.close(conn);
                    self.step = PmdStep::Done;
                    PmdProgress::Answer(answer)
                }
                Err(_) => {
                    self.step = PmdStep::Dead;
                    PmdProgress::Failed(SysError::InvalidArgument)
                }
            },
            _ => PmdProgress::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The channel is exercised end-to-end in the LPM/harness integration
    //! tests; here we check the pure state transitions that need no world.
    use super::*;

    fn identity() -> HelloIdentity {
        HelloIdentity {
            user: 100,
            host: "a".into(),
            is_tool: true,
            ccs: "a".into(),
            epoch: 0,
            proof: 1,
        }
    }

    #[test]
    fn route_cache_learns_and_counts() {
        let mut c = RouteCache::new(8);
        let mut route = Route::from_origin("here");
        route.push("mid");
        route.push("far");
        c.learn(&route, "here");
        assert_eq!(c.lookup("far"), Some("mid"));
        assert_eq!(c.lookup("nowhere"), None);
        assert_eq!(c.counters(), (1, 1));
        // Peeking leaves the counters alone.
        assert_eq!(c.get("far"), Some("mid"));
        assert_eq!(c.counters(), (1, 1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.counters(), (0, 0));
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
        assert_eq!(c.len(), 3);
        // mid crashed: both entries routed via it go; the other stays.
        assert_eq!(c.evict_via("mid"), 2);
        assert!(!c.contains_key("far"));
        assert!(!c.contains_key("farther"));
        assert_eq!(c.get("elsewhere"), Some("alt"));
        // Evicting a destination host drops its entry too.
        assert_eq!(c.evict_via("elsewhere"), 1);
        assert!(c.is_empty());
        assert_eq!(c.evict_via("nowhere"), 0);
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
        assert_eq!(c.len(), 2, "third destination rejected at capacity");
        assert!(c.contains_key("d1"));
        assert!(c.contains_key("d2"));
        assert!(!c.contains_key("d3"));
        // Hosts already cached still refresh-no-op past the cap.
        let mut again = Route::from_origin("here");
        again.push("alt");
        again.push("d1");
        c.learn(&again, "here");
        assert_eq!(c.get("d1"), Some("mid"), "first route wins");
    }

    #[test]
    fn bounce_counts_down_then_fails() {
        let mut chan = LpmChannel {
            target: HostId(0),
            identity: identity(),
            step: Step::ToInetd,
            conn: Some(ConnId(1)),
            pmd_port: None,
            lpm_port: None,
            created: false,
            attempts_left: 2,
            retry_delay: SimDuration::from_millis(20),
        };
        assert_eq!(
            chan.bounce(),
            ChanProgress::RetryAfter(SimDuration::from_millis(20))
        );
        assert_eq!(
            chan.bounce(),
            ChanProgress::RetryAfter(SimDuration::from_millis(20))
        );
        assert_eq!(
            chan.bounce(),
            ChanProgress::Failed(SysError::ConnectionRefused)
        );
        assert!(chan.is_terminal());
    }

    #[test]
    fn ownership_is_per_conn() {
        let chan = LpmChannel {
            target: HostId(3),
            identity: identity(),
            step: Step::ToInetd,
            conn: Some(ConnId(9)),
            pmd_port: None,
            lpm_port: None,
            created: false,
            attempts_left: 1,
            retry_delay: SimDuration::from_millis(20),
        };
        assert!(chan.owns(ConnId(9)));
        assert!(!chan.owns(ConnId(8)));
        assert_eq!(chan.target(), HostId(3));
    }
}
