//! The inet daemon.
//!
//! Step (1) and (2) of the paper's Figure 2: "the creation request is
//! directed to the inet daemon, inetd, which then passes the request to
//! the process manager daemon, pmd, creating it if necessary."
//!
//! Our inetd is a generic service broker: a client connects to the
//! well-known [`Port::INETD`], names a service, and inetd ensures the
//! service daemon runs (spawning it on demand from the world's service
//! registry) and replies with the daemon's accept port. The client then
//! talks to the daemon directly — the daemon may still be booting, so
//! clients retry their connect, exactly like TCP SYN retransmission.

use bytes::{Bytes, BytesMut};

use crate::ids::{ConnId, Port};
use crate::program::{ConnEvent, Program, SysError};
use crate::sys::Sys;
use crate::trace::TraceCategory;

/// Reply status byte: success, port follows.
pub const INETD_OK: u8 = 0;
/// Reply status byte: unknown service.
pub const INETD_UNKNOWN: u8 = 1;
/// Reply status byte: service could not be started.
pub const INETD_FAILED: u8 = 2;

/// Builds an inetd request for a service name: the name's own bytes,
/// not a copy of them.
pub fn request(service: &'static str) -> Bytes {
    Bytes::from_static(service.as_bytes())
}

/// The positive reply naming `port`, written in one of the thread's spare
/// buffers, to which it goes back when the client has read it.
fn port_reply(port: Port) -> Bytes {
    let [hi, lo] = port.0.to_be_bytes();
    let mut reply = BytesMut::with_capacity(3);
    reply.extend_from_slice(&[INETD_OK, hi, lo]);
    reply.freeze()
}

/// Parses an inetd reply into the service port.
///
/// # Errors
///
/// [`SysError::UnknownService`] for a negative reply or malformed data.
pub fn parse_reply(data: &[u8]) -> Result<Port, SysError> {
    match data {
        [INETD_OK, hi, lo] => Ok(Port(u16::from_be_bytes([*hi, *lo]))),
        _ => Err(SysError::UnknownService),
    }
}

/// The inet daemon program. One runs on every host, started at boot.
#[derive(Debug, Default)]
pub struct Inetd {
    _private: (),
}

impl Inetd {
    /// Creates the daemon (the world spawns it at host boot).
    pub fn new() -> Self {
        Inetd::default()
    }
}

impl Program for Inetd {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(Port::INETD).expect("inetd port free at boot");
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let Ok(service) = std::str::from_utf8(&data) else {
            let _ = sys.send(conn, Bytes::from_static(&[INETD_UNKNOWN]));
            return;
        };
        match sys.spawn_service(service) {
            Ok((pid, port)) => {
                sys.trace(
                    TraceCategory::Daemon,
                    format_args!("inetd: request for {service} -> pid {pid} port {port}"),
                );
                let _ = sys.send(conn, port_reply(port));
            }
            Err(SysError::UnknownService) => {
                let _ = sys.send(conn, Bytes::from_static(&[INETD_UNKNOWN]));
            }
            Err(_) => {
                let _ = sys.send(conn, Bytes::from_static(&[INETD_FAILED]));
            }
        }
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        // inetd serves one request per connection; nothing to track.
        let _ = (sys, conn, event);
    }

    fn name(&self) -> &str {
        "inetd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_roundtrip() {
        let p = Port(3);
        let [hi, lo] = p.0.to_be_bytes();
        assert_eq!(parse_reply(&[INETD_OK, hi, lo]), Ok(p));
        let port = Port(0x1234);
        assert_eq!(&port_reply(port)[..], [INETD_OK, 0x12, 0x34]);
        assert_eq!(parse_reply(&port_reply(port)), Ok(port));
    }

    #[test]
    fn bad_replies_are_errors() {
        assert_eq!(parse_reply(&[INETD_UNKNOWN]), Err(SysError::UnknownService));
        assert_eq!(parse_reply(&[INETD_FAILED]), Err(SysError::UnknownService));
        assert_eq!(parse_reply(&[]), Err(SysError::UnknownService));
        assert_eq!(parse_reply(&[INETD_OK, 1]), Err(SysError::UnknownService));
    }

    #[test]
    fn request_is_service_name_bytes() {
        assert_eq!(&request("pmd")[..], b"pmd");
    }
}
