//! Loopback TCP plumbing: framing, the connect preamble, and the
//! acceptor / connector / reader threads that feed a node's event queue.
//!
//! The simulated network delivers each `send` as one message; TCP is a
//! byte stream, so every message travels as a `[u32 len][payload]` frame
//! and the reader thread restores message boundaries before handing
//! bytes to the node. A connecting client sends a fixed preamble first
//! (magic, source host, source pid, destination logical port) so the
//! accepting node can report the paper's `<host, pid>` peer identity in
//! [`ppm_runtime::program::ConnEvent::Accepted`].
//!
//! Logical well-known ports (inetd = 1, pmd, per-uid LPM ports) map to
//! ephemeral real ports through the cluster port map: `listen` binds
//! `127.0.0.1:0` and publishes the real port under `(host, logical)`.
//! A listener that dies is unpublished, so connects are refused until a
//! respawn re-binds — the behaviour the LPM-creation chain of Figure 2
//! and the crash-recovery path both rely on.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use ppm_runtime::ids::{ConnId, HostId, Pid, Port};
use ppm_runtime::program::SysError;

use crate::node::NodeEvent;

/// Frame/preamble magic: "PPMR".
pub const MAGIC: u32 = 0x5050_4D52;

/// Maximum accepted frame size (a guard against corrupt length words).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Shared map from `(host, logical port)` to the real loopback TCP port.
pub type PortMap = Arc<Mutex<HashMap<(HostId, Port), u16>>>;

/// Writes the connect preamble.
pub fn write_preamble(
    stream: &mut TcpStream,
    src_host: HostId,
    src_pid: Pid,
    dst_port: Port,
) -> std::io::Result<()> {
    let mut buf = [0u8; 14];
    buf[0..4].copy_from_slice(&MAGIC.to_be_bytes());
    buf[4..8].copy_from_slice(&src_host.0.to_be_bytes());
    buf[8..12].copy_from_slice(&src_pid.0.to_be_bytes());
    buf[12..14].copy_from_slice(&dst_port.0.to_be_bytes());
    stream.write_all(&buf)
}

/// Reads and validates the connect preamble.
pub fn read_preamble(stream: &mut TcpStream) -> std::io::Result<(HostId, Pid, Port)> {
    let mut buf = [0u8; 14];
    stream.read_exact(&mut buf)?;
    let magic = u32::from_be_bytes(buf[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad preamble magic",
        ));
    }
    let host = HostId(u32::from_be_bytes(buf[4..8].try_into().unwrap()));
    let pid = Pid(u32::from_be_bytes(buf[8..12].try_into().unwrap()));
    let port = Port(u16::from_be_bytes(buf[12..14].try_into().unwrap()));
    Ok((host, pid, port))
}

/// Writes one length-prefixed frame.
pub fn write_frame(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    let len = (data.len() as u32).to_be_bytes();
    stream.write_all(&len)?;
    stream.write_all(data)
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a frame
/// boundary.
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Bytes>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    Ok(Some(Bytes::from(buf)))
}

/// Spawns the per-connection reader thread: turns the byte stream back
/// into framed messages and forwards them to the owning node's queue.
pub fn spawn_reader(conn: ConnId, to: Pid, mut stream: TcpStream, tx: Sender<NodeEvent>) {
    std::thread::Builder::new()
        .name(format!("ppm-reader-{}", conn.0))
        .spawn(move || loop {
            match read_frame(&mut stream) {
                Ok(Some(data)) => {
                    if tx.send(NodeEvent::Incoming { conn, to, data }).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send(NodeEvent::PeerClosed { conn, to });
                    return;
                }
            }
        })
        .expect("spawn reader thread");
}

/// Spawns the per-listener acceptor thread. Polls non-blockingly so a
/// dead listener (owner exited) or a cluster shutdown lets the thread
/// exit instead of pinning the process in `accept`.
pub fn spawn_acceptor(
    listener: TcpListener,
    port: Port,
    alive: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    tx: Sender<NodeEvent>,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    std::thread::Builder::new()
        .name(format!("ppm-accept-{}", port.0))
        .spawn(move || loop {
            if !alive.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
                    let Ok((peer_host, peer_pid, dst_port)) = read_preamble(&mut stream) else {
                        continue; // not one of ours; drop it
                    };
                    stream.set_read_timeout(None).ok();
                    if dst_port != port {
                        continue; // stale connect to a re-used real port
                    }
                    if tx
                        .send(NodeEvent::AcceptedConn {
                            port,
                            peer: (peer_host, peer_pid),
                            stream,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        })
        .expect("spawn acceptor thread");
}

/// Spawns the connector thread for one outbound connection attempt.
///
/// A target with no published listener reports
/// [`SysError::ConnectionRefused`] at once, as the simulated network
/// refuses it after one round trip; clients treat it like a TCP RST and
/// retry at the protocol layer. Only a published port whose TCP connect
/// fails is tried again, briefly: its listener may be rebinding
/// mid-respawn.
pub fn spawn_connector(
    conn: ConnId,
    src: (HostId, Pid),
    dst: (HostId, Port),
    ports: PortMap,
    tx: Sender<NodeEvent>,
) {
    std::thread::Builder::new()
        .name(format!("ppm-connect-{}", conn.0))
        .spawn(move || {
            for attempt in 0..4 {
                if attempt > 0 {
                    std::thread::sleep(Duration::from_millis(10 * attempt));
                }
                let real = ports.lock().unwrap().get(&dst).copied();
                let Some(real) = real else { break };
                match TcpStream::connect(("127.0.0.1", real)) {
                    Ok(mut stream) => {
                        stream.set_nodelay(true).ok();
                        if write_preamble(&mut stream, src.0, src.1, dst.1).is_err() {
                            continue;
                        }
                        let _ = tx.send(NodeEvent::ConnUp { conn, stream });
                        return;
                    }
                    Err(_) => continue,
                }
            }
            let _ = tx.send(NodeEvent::ConnFail {
                conn,
                error: SysError::ConnectionRefused,
            });
        })
        .expect("spawn connector thread");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let pre = read_preamble(&mut s).unwrap();
            assert_eq!(pre, (HostId(3), Pid(9), Port(42)));
            let f = read_frame(&mut s).unwrap().unwrap();
            assert_eq!(&f[..], b"hello");
            assert!(read_frame(&mut s).unwrap().is_none(), "clean EOF");
        });
        let mut c = TcpStream::connect(addr).unwrap();
        write_preamble(&mut c, HostId(3), Pid(9), Port(42)).unwrap();
        write_frame(&mut c, b"hello").unwrap();
        drop(c);
        t.join().unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(read_preamble(&mut s).is_err());
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(&[0u8; 14]).unwrap();
        t.join().unwrap();
    }
}
