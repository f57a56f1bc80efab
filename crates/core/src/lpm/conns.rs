//! LPM connection management: hellos, sibling channels, outboxes.
//!
//! "The LPMs are able to perform authentication when channels are
//! created, rather than upon every request. ... The local LPM will create
//! a remote LPM when one is required, and maintain communication with the
//! remote LPM when this is possible."

use ppm_proto::msg::Msg;
use ppm_proto::types::Name;
use ppm_runtime::ids::ConnId;
use ppm_runtime::program::{ConnEvent, SysError};
use ppm_runtime::sys::Sys;
use ppm_runtime::trace::TraceCategory;

use crate::config::CONNECT_ATTEMPTS;
use crate::locator::{Dial, Dialed, HelloIdentity, Progress};

use super::{BcastKey, ChanPurpose, ChannelSlot, ConnRole, DialKey, Lpm, TimerKind};

/// Result of asking for a sibling connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiblingStatus {
    /// Use this connection now.
    Connected(ConnId),
    /// A channel is being established; queue in the outbox.
    Pending,
    /// The host cannot be reached (unknown name).
    Unavailable,
}

impl Lpm {
    // ---- accept side ------------------------------------------------------

    /// First message on an accepted connection must be an authenticating
    /// `Hello` (Figure 3's "secure reliable communication channel").
    pub(crate) fn handle_hello(&mut self, sys: &mut dyn Sys, conn: ConnId, msg: Msg) {
        let Msg::Hello {
            user,
            host,
            is_tool,
            ccs,
            epoch,
            proof,
        } = msg
        else {
            // Protocol violation before authentication: drop the channel.
            self.conns.remove(&conn);
            let _ = sys.close(conn);
            return;
        };
        let ok = self.auth.check_hello(user, proof);
        if !ok {
            self.stats.auth_failures += 1;
            self.note(
                sys,
                format_args!("hello from {host} rejected (user {user}): bad proof"),
            );
            let nak = Msg::HelloAck {
                host: self.host.clone(),
                ok: false,
                ccs: self.ccs.clone(),
                epoch: self.epoch,
            };
            let _ = self.send_msg(sys, conn, &nak);
            self.conns.remove(&conn);
            let _ = sys.close(conn);
            return;
        }
        // Adopt the caller's CCS view if fresher, before acking with ours.
        self.consider_ccs(sys, &ccs, epoch);
        if is_tool {
            self.conns.insert(conn, ConnRole::Tool);
            self.ttl_deadline = None;
        } else {
            self.conns.insert(conn, ConnRole::Sibling(host.clone()));
            self.siblings.entry(host.clone()).or_insert(conn);
            sys.trace(
                TraceCategory::Lpm,
                format_args!("sibling channel accepted from {host}"),
            );
        }
        let ack = Msg::HelloAck {
            host: self.host.clone(),
            ok: true,
            ccs: self.ccs.clone(),
            epoch: self.epoch,
        };
        let _ = self.send_msg(sys, conn, &ack);
        // Contact from a healthy sibling ends orphanhood.
        if !is_tool {
            self.recovered_contact(sys);
            self.maybe_pull_forest(sys, conn);
        }
    }

    // ---- initiating channels ----------------------------------------------

    /// Ensures a sibling connection toward `host`, starting a channel if
    /// needed.
    pub(crate) fn ensure_sibling(&mut self, sys: &mut dyn Sys, host: &str) -> SiblingStatus {
        if let Some(&conn) = self.siblings.get(host) {
            return SiblingStatus::Connected(conn);
        }
        match self.start_channel_if_absent(sys, host, ChanPurpose::Sibling) {
            true => SiblingStatus::Pending,
            false => SiblingStatus::Unavailable,
        }
    }

    /// Starts a channel toward `host` for `purpose` unless one is up or
    /// on its way. Returns `false` when the host name does not resolve.
    pub(crate) fn start_channel_if_absent(
        &mut self,
        sys: &mut dyn Sys,
        host: &str,
        purpose: ChanPurpose,
    ) -> bool {
        if self.siblings.contains_key(host) {
            return true;
        }
        let key = DialKey::Lpm(host.into());
        if self.channels.contains_key(&key) {
            return true;
        }
        let Ok(target) = sys.resolve_host(host) else {
            return false;
        };
        let identity = HelloIdentity {
            user: self.auth.uid().0,
            host: self.host.clone(),
            is_tool: false,
            ccs: self.ccs.clone(),
            epoch: self.epoch,
            proof: self.auth.proof(),
        };
        let retry = self.cfg.connect_retry;
        let dial = Dial::lpm(sys, target, identity, retry, CONNECT_ATTEMPTS);
        self.channels.insert(key, ChannelSlot { dial, purpose });
        true
    }

    /// The dial that is using `conn` at its current step, if any.
    pub(crate) fn dial_owning(&self, conn: ConnId) -> Option<DialKey> {
        let mut slots = self.channels.iter();
        slots
            .find(|(_, slot)| slot.dial.owns(conn))
            .map(|(key, _)| key.clone())
    }

    /// Feeds a dial an event of the connection it is using.
    pub(crate) fn channel_conn_event(&mut self, sys: &mut dyn Sys, key: &DialKey, ev: ConnEvent) {
        if let Some(slot) = self.channels.get_mut(key) {
            let progress = slot.dial.on_conn_event(sys, ev);
            self.apply_channel_progress(sys, key, progress);
        }
    }

    /// Feeds a dial a message off the connection it is using.
    pub(crate) fn channel_message(&mut self, sys: &mut dyn Sys, key: &DialKey, data: bytes::Bytes) {
        if let Some(slot) = self.channels.get_mut(key) {
            let progress = slot.dial.on_message(sys, data);
            self.apply_channel_progress(sys, key, progress);
        }
    }

    /// A `ChannelRetry` timer fired.
    pub(crate) fn channel_retry(&mut self, sys: &mut dyn Sys, key: &DialKey) {
        self.chan_retry_armed.remove(key);
        if let Some(slot) = self.channels.get_mut(key) {
            let progress = slot.dial.retry(sys);
            self.apply_channel_progress(sys, key, progress);
        }
    }

    fn apply_channel_progress(&mut self, sys: &mut dyn Sys, key: &DialKey, progress: Progress) {
        let host = key.host();
        match progress {
            Progress::Pending => {}
            Progress::RetryAfter(delay) => {
                if self.chan_retry_armed.insert(key.clone()) {
                    self.arm(sys, delay, TimerKind::ChannelRetry(key.clone()));
                }
            }
            Progress::Done(Dialed::Channel {
                conn,
                created,
                peer_ccs,
                peer_epoch,
            }) => {
                let slot = self.channels.remove(key).expect("channel exists");
                self.conns.insert(conn, ConnRole::Sibling(host.into()));
                self.siblings.entry(Name::new(host)).or_insert(conn);
                self.consider_ccs(sys, &peer_ccs, peer_epoch);
                self.note(
                    sys,
                    format_args!("sibling channel to {host} ready (created={created})"),
                );
                self.recovered_contact(sys);
                self.maybe_pull_forest(sys, conn);
                self.flush_outbox(sys, host, conn);
                self.channel_purpose_done(sys, host, slot.purpose, true);
            }
            Progress::Done(Dialed::Answer(answer)) => {
                self.channels.remove(key);
                self.name_server_answered(sys, *answer);
            }
            Progress::Failed(err) => match self.channels.remove(key).map(|slot| slot.purpose) {
                Some(ChanPurpose::NameServer) => {
                    self.note_recovery(sys, format_args!("name server unreachable: {err}"));
                    self.enter_orphanhood(sys);
                }
                purpose => {
                    self.note(sys, format_args!("channel to {host} failed: {err}"));
                    self.fail_outbox(sys, host, err);
                    if let Some(purpose) = purpose {
                        self.channel_purpose_done(sys, host, purpose, false);
                    }
                }
            },
        }
    }

    fn flush_outbox(&mut self, sys: &mut dyn Sys, host: &str, conn: ConnId) {
        let Some(queued) = self.outbox.remove(host) else {
            return;
        };
        for (frame, id) in queued {
            if sys.send(conn, frame).is_err() {
                self.fail_request_transport(sys, id, "sibling channel broke during flush");
            } else {
                self.mark_sent(sys, id, conn);
            }
        }
    }

    fn fail_outbox(&mut self, sys: &mut dyn Sys, host: &str, err: SysError) {
        let Some(queued) = self.outbox.remove(host) else {
            return;
        };
        for (_, id) in queued {
            // Transport-level failure: origin requests with attempt
            // budget left go into retry backoff instead of erroring.
            self.fail_request_transport(sys, id, &format!("cannot reach {host}: {err}"));
        }
    }

    // ---- connection loss ----------------------------------------------------

    pub(crate) fn on_conn_closed(&mut self, sys: &mut dyn Sys, conn: ConnId) {
        let Some(role) = self.conns.remove(&conn) else {
            return;
        };
        match role {
            ConnRole::Tool | ConnRole::AwaitHello => {}
            ConnRole::Sibling(host) => {
                let host: &str = &host;
                if self.siblings.get(host) == Some(&conn) {
                    self.siblings.remove(host);
                }
                self.note(sys, format_args!("sibling channel to {host} lost"));
                // Directed requests sent on this connection hit the retry
                // machinery: origin-side requests with budget left re-send
                // under the same correlation id; relays fail upstream.
                for id in self.rpc.sent_on(conn) {
                    self.fail_request_transport(sys, id, &format!("connection to {host} broke"));
                }
                // Broadcasts waiting on this child complete without it; the
                // loss surfaces in the origin's partial-result marker.
                let keys: Vec<BcastKey> = self
                    .bcasts
                    .iter()
                    .filter(|(_, b)| b.pending_children.iter().any(|c| c.host == host))
                    .map(|(k, _)| k.clone())
                    .collect();
                for key in keys {
                    self.bcast_child_lost(sys, &key, host);
                }
                // Crash fallout: evict next-hops learned through the dead
                // peer so post-heal traffic re-learns routes instead of
                // bouncing off the broken hop. The dedup window is NOT
                // purged here — a transient partition keeps the same peer
                // incarnation, whose retries must still deduplicate.
                let evicted = self.route_cache.evict_via(host);
                if evicted > 0 {
                    self.note(
                        sys,
                        format_args!("peer {host} down: evicted {evicted} route(s)"),
                    );
                }
                self.on_sibling_lost(sys, host);
            }
        }
    }
}
