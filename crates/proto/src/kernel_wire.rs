//! Wire encoding for kernel event messages.
//!
//! The kernel coalesces event messages headed for the same LPM wakeup
//! into one batch frame (`[u32 count][u32 len][frame]...`, the protocol's
//! standard batch layout). Each frame is one [`KernelMsg`]. The batch is
//! walked in place by [`walk_kernel_batch`]: the zero-copy frame
//! iterator yields each frame and [`KernelEventRef`] reads it with its
//! text borrowed, so a burst of fork/exec/exit events costs one delivery
//! and no copy of a command or path.

use crate::codec::{CodecError, Dec, Enc, Wire};
use ppm_runtime::time::{SimDuration, SimTime};

use ppm_runtime::events::KernelEvent;
use ppm_runtime::ids::Pid;
use ppm_runtime::process::Rusage;
use ppm_runtime::program::KernelMsg;
use ppm_runtime::signal::{ExitStatus, Signal};

fn enc_signal(enc: &mut Enc, s: Signal) {
    enc.u8(s.number());
}

fn dec_signal(dec: &mut Dec<'_>) -> Result<Signal, CodecError> {
    let n = dec.u8()?;
    Signal::from_number(n).ok_or(CodecError::BadTag {
        what: "signal",
        tag: n,
    })
}

fn enc_status(enc: &mut Enc, st: &ExitStatus) {
    match st {
        ExitStatus::Code(c) => {
            enc.u8(0);
            enc.i32(*c);
        }
        ExitStatus::Signaled(s) => {
            enc.u8(1);
            enc_signal(enc, *s);
        }
    }
}

fn dec_status(dec: &mut Dec<'_>) -> Result<ExitStatus, CodecError> {
    match dec.u8()? {
        0 => Ok(ExitStatus::Code(dec.i32()?)),
        1 => Ok(ExitStatus::Signaled(dec_signal(dec)?)),
        t => Err(CodecError::BadTag {
            what: "exit status",
            tag: t,
        }),
    }
}

fn enc_rusage(enc: &mut Enc, r: &Rusage) {
    enc.u64(r.cpu.as_micros());
    enc.u64(r.msgs_sent);
    enc.u64(r.msgs_received);
    enc.u64(r.bytes_sent);
    enc.u64(r.bytes_received);
    enc.u64(r.files_opened);
    enc.u64(r.signals_received);
    enc.u64(r.forks);
}

fn dec_rusage(dec: &mut Dec<'_>) -> Result<Rusage, CodecError> {
    Ok(Rusage {
        cpu: SimDuration::from_micros(dec.u64()?),
        msgs_sent: dec.u64()?,
        msgs_received: dec.u64()?,
        bytes_sent: dec.u64()?,
        bytes_received: dec.u64()?,
        files_opened: dec.u64()?,
        signals_received: dec.u64()?,
        forks: dec.u64()?,
    })
}

/// A kernel event read in place: a [`KernelEvent`] whose exec command
/// and file paths borrow the batch frame they were decoded from.
///
/// This is the one place that knows a kernel event's layout. Both
/// directions go through it — [`KernelEvent`]'s [`Wire`] impl encodes its
/// borrowed view and decodes by this walk plus
/// [`KernelEventRef::to_owned`] — so the LPM, which reads every event
/// of every traced process, can take the command straight off the frame
/// and build nothing it does not keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelEventRef<'a> {
    /// `parent` forked `child`.
    Fork { parent: Pid, child: Pid },
    /// `pid` replaced its image with `command`.
    Exec { pid: Pid, command: &'a str },
    /// `pid` terminated.
    Exit {
        pid: Pid,
        status: ExitStatus,
        rusage: Rusage,
    },
    /// A signal was delivered to `pid`.
    SignalDelivered { pid: Pid, signal: Signal },
    /// `pid` was stopped.
    Stopped { pid: Pid },
    /// `pid` was continued.
    Continued { pid: Pid },
    /// `pid` sent an IPC message of `bytes` bytes.
    MsgSent { pid: Pid, bytes: usize },
    /// `pid` received an IPC message of `bytes` bytes.
    MsgReceived { pid: Pid, bytes: usize },
    /// `pid` opened `path`.
    FileOpened { pid: Pid, path: &'a str },
    /// `pid` closed `path`.
    FileClosed { pid: Pid, path: &'a str },
}

impl<'a> From<&'a KernelEvent> for KernelEventRef<'a> {
    fn from(ev: &'a KernelEvent) -> Self {
        match *ev {
            KernelEvent::Fork { parent, child } => KernelEventRef::Fork { parent, child },
            KernelEvent::Exec { pid, ref command } => KernelEventRef::Exec { pid, command },
            KernelEvent::Exit {
                pid,
                status,
                rusage,
            } => KernelEventRef::Exit {
                pid,
                status,
                rusage,
            },
            KernelEvent::SignalDelivered { pid, signal } => {
                KernelEventRef::SignalDelivered { pid, signal }
            }
            KernelEvent::Stopped { pid } => KernelEventRef::Stopped { pid },
            KernelEvent::Continued { pid } => KernelEventRef::Continued { pid },
            KernelEvent::MsgSent { pid, bytes } => KernelEventRef::MsgSent { pid, bytes },
            KernelEvent::MsgReceived { pid, bytes } => KernelEventRef::MsgReceived { pid, bytes },
            KernelEvent::FileOpened { pid, ref path } => KernelEventRef::FileOpened { pid, path },
            KernelEvent::FileClosed { pid, ref path } => KernelEventRef::FileClosed { pid, path },
        }
    }
}

impl<'a> KernelEventRef<'a> {
    /// The wire tag, which is also the index of the event's name in
    /// [`KernelEvent::KINDS`].
    fn tag(&self) -> u8 {
        match self {
            KernelEventRef::Fork { .. } => 0,
            KernelEventRef::Exec { .. } => 1,
            KernelEventRef::Exit { .. } => 2,
            KernelEventRef::SignalDelivered { .. } => 3,
            KernelEventRef::Stopped { .. } => 4,
            KernelEventRef::Continued { .. } => 5,
            KernelEventRef::MsgSent { .. } => 6,
            KernelEventRef::MsgReceived { .. } => 7,
            KernelEventRef::FileOpened { .. } => 8,
            KernelEventRef::FileClosed { .. } => 9,
        }
    }

    /// Short name for traces and history records, as
    /// [`KernelEvent::kind`] gives it.
    pub fn kind(&self) -> &'static str {
        KernelEvent::KINDS[usize::from(self.tag())]
    }

    /// The process the event concerns, as [`KernelEvent::pid`] gives it.
    pub fn pid(&self) -> Pid {
        match *self {
            KernelEventRef::Fork { parent, .. } => parent,
            KernelEventRef::Exec { pid, .. }
            | KernelEventRef::Exit { pid, .. }
            | KernelEventRef::SignalDelivered { pid, .. }
            | KernelEventRef::Stopped { pid }
            | KernelEventRef::Continued { pid }
            | KernelEventRef::MsgSent { pid, .. }
            | KernelEventRef::MsgReceived { pid, .. }
            | KernelEventRef::FileOpened { pid, .. }
            | KernelEventRef::FileClosed { pid, .. } => pid,
        }
    }

    /// The owned event, its text copied out of the frame.
    pub fn to_owned(&self) -> KernelEvent {
        match *self {
            KernelEventRef::Fork { parent, child } => KernelEvent::Fork { parent, child },
            KernelEventRef::Exec { pid, command } => KernelEvent::Exec {
                pid,
                command: command.to_owned(),
            },
            KernelEventRef::Exit {
                pid,
                status,
                rusage,
            } => KernelEvent::Exit {
                pid,
                status,
                rusage,
            },
            KernelEventRef::SignalDelivered { pid, signal } => {
                KernelEvent::SignalDelivered { pid, signal }
            }
            KernelEventRef::Stopped { pid } => KernelEvent::Stopped { pid },
            KernelEventRef::Continued { pid } => KernelEvent::Continued { pid },
            KernelEventRef::MsgSent { pid, bytes } => KernelEvent::MsgSent { pid, bytes },
            KernelEventRef::MsgReceived { pid, bytes } => KernelEvent::MsgReceived { pid, bytes },
            KernelEventRef::FileOpened { pid, path } => KernelEvent::FileOpened {
                pid,
                path: path.to_owned(),
            },
            KernelEventRef::FileClosed { pid, path } => KernelEvent::FileClosed {
                pid,
                path: path.to_owned(),
            },
        }
    }

    /// Writes the event: its tag, its pid, then what the variant carries.
    pub fn encode(&self, enc: &mut Enc) {
        enc.u8(self.tag());
        enc.u32(self.pid().0);
        match *self {
            KernelEventRef::Fork { child, .. } => enc.u32(child.0),
            KernelEventRef::Exec { command, .. } => enc.str(command),
            KernelEventRef::Exit { status, rusage, .. } => {
                enc_status(enc, &status);
                enc_rusage(enc, &rusage);
            }
            KernelEventRef::SignalDelivered { signal, .. } => enc_signal(enc, signal),
            KernelEventRef::Stopped { .. } | KernelEventRef::Continued { .. } => {}
            KernelEventRef::MsgSent { bytes, .. } | KernelEventRef::MsgReceived { bytes, .. } => {
                enc.u64(bytes as u64)
            }
            KernelEventRef::FileOpened { path, .. } | KernelEventRef::FileClosed { path, .. } => {
                enc.str(path)
            }
        }
    }

    /// Reads one event, borrowing its text from `dec`'s input.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] for an unknown event, signal or exit-status
    /// tag; [`CodecError::Truncated`] or [`CodecError::BadUtf8`] as the
    /// decoder reports them.
    pub fn decode(dec: &mut Dec<'a>) -> Result<Self, CodecError> {
        let tag = dec.u8()?;
        if usize::from(tag) >= KernelEvent::KINDS.len() {
            return Err(CodecError::BadTag {
                what: "kernel event",
                tag,
            });
        }
        let pid = Pid(dec.u32()?);
        Ok(match tag {
            0 => KernelEventRef::Fork {
                parent: pid,
                child: Pid(dec.u32()?),
            },
            1 => KernelEventRef::Exec {
                pid,
                command: dec.str_ref()?,
            },
            2 => KernelEventRef::Exit {
                pid,
                status: dec_status(dec)?,
                rusage: dec_rusage(dec)?,
            },
            3 => KernelEventRef::SignalDelivered {
                pid,
                signal: dec_signal(dec)?,
            },
            4 => KernelEventRef::Stopped { pid },
            5 => KernelEventRef::Continued { pid },
            6 => KernelEventRef::MsgSent {
                pid,
                bytes: dec.u64()? as usize,
            },
            7 => KernelEventRef::MsgReceived {
                pid,
                bytes: dec.u64()? as usize,
            },
            8 => KernelEventRef::FileOpened {
                pid,
                path: dec.str_ref()?,
            },
            _ => KernelEventRef::FileClosed {
                pid,
                path: dec.str_ref()?,
            },
        })
    }
}

/// A kernel message read in place: the borrowed view of a [`KernelMsg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMsgRef<'a> {
    /// When the kernel queued the event.
    pub queued_at: SimTime,
    /// The event, its text borrowed from the frame.
    pub event: KernelEventRef<'a>,
}

impl<'a> KernelMsgRef<'a> {
    /// Reads one message that fills `frame` exactly.
    ///
    /// # Errors
    ///
    /// As [`KernelEventRef::decode`], and [`CodecError::TrailingBytes`]
    /// when the frame holds more than one message.
    pub fn from_bytes(frame: &'a [u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(frame);
        let msg = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(msg)
    }

    fn decode(dec: &mut Dec<'a>) -> Result<Self, CodecError> {
        Ok(KernelMsgRef {
            queued_at: SimTime::from_micros(dec.u64()?),
            event: KernelEventRef::decode(dec)?,
        })
    }

    /// The owned message, its text copied out of the frame.
    pub fn to_owned(&self) -> KernelMsg {
        KernelMsg {
            queued_at: self.queued_at,
            event: self.event.to_owned(),
        }
    }
}

// Written by hand, not in the wire table: `KernelEvent` and `KernelMsg`
// are declared in `ppm-runtime`, and their layout is the borrowed
// walk's above.
impl Wire for KernelEvent {
    fn encode(&self, enc: &mut Enc) {
        KernelEventRef::from(self).encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        KernelEventRef::decode(dec).map(|ev| ev.to_owned())
    }
}

impl Wire for KernelMsg {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.queued_at.as_micros());
        self.event.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        KernelMsgRef::decode(dec).map(|msg| msg.to_owned())
    }
}

/// Walks a coalesced kernel batch frame in place and feeds each message,
/// borrowed from `data`, to `f` in queue order; a malformed message is
/// dropped, and a framing error ends the walk. Tracer programs (the LPM)
/// call this from their `on_kernel_batch` override — the runtime layer's
/// default ignores batches because the codec is a protocol-layer concern.
pub fn walk_kernel_batch<'a>(data: &'a [u8], mut f: impl FnMut(KernelMsgRef<'a>)) {
    let Ok(iter) = crate::codec::frames(data) else {
        return;
    };
    for frame in iter {
        let Ok(frame) = frame else { return };
        if let Ok(msg) = KernelMsgRef::from_bytes(frame) {
            f(msg);
        }
    }
}

/// [`walk_kernel_batch`], each message copied out as an owned
/// [`KernelMsg`].
pub fn for_each_kernel_msg(data: &[u8], mut f: impl FnMut(KernelMsg)) {
    walk_kernel_batch(data, |msg| f(msg.to_owned()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_batch, encode_batch};

    fn sample_events() -> Vec<KernelEvent> {
        vec![
            KernelEvent::Fork {
                parent: Pid(4),
                child: Pid(9),
            },
            KernelEvent::Exec {
                pid: Pid(9),
                command: "simulate".into(),
            },
            KernelEvent::Exit {
                pid: Pid(9),
                status: ExitStatus::Signaled(Signal::Kill),
                rusage: Rusage {
                    cpu: SimDuration::from_micros(1234),
                    msgs_sent: 1,
                    msgs_received: 2,
                    bytes_sent: 3,
                    bytes_received: 4,
                    files_opened: 5,
                    signals_received: 6,
                    forks: 7,
                },
            },
            KernelEvent::SignalDelivered {
                pid: Pid(9),
                signal: Signal::Usr1,
            },
            KernelEvent::Stopped { pid: Pid(9) },
            KernelEvent::Continued { pid: Pid(9) },
            KernelEvent::MsgSent {
                pid: Pid(9),
                bytes: 112,
            },
            KernelEvent::MsgReceived {
                pid: Pid(9),
                bytes: 48,
            },
            KernelEvent::FileOpened {
                pid: Pid(9),
                path: "/tmp/x".into(),
            },
            KernelEvent::FileClosed {
                pid: Pid(9),
                path: "/tmp/x".into(),
            },
        ]
    }

    #[test]
    fn every_kernel_event_roundtrips() {
        for ev in sample_events() {
            let msg = KernelMsg {
                event: ev.clone(),
                queued_at: SimTime::from_micros(42),
            };
            let back = KernelMsg::from_bytes(&msg.to_bytes()).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn kernel_msgs_batch_roundtrips() {
        let msgs: Vec<KernelMsg> = sample_events()
            .into_iter()
            .enumerate()
            .map(|(i, event)| KernelMsg {
                event,
                queued_at: SimTime::from_micros(i as u64),
            })
            .collect();
        let batch = encode_batch(&msgs);
        let back: Vec<KernelMsg> = decode_batch(&batch).expect("batch roundtrip");
        assert_eq!(back, msgs);
    }

    #[test]
    fn garbage_does_not_decode() {
        assert!(KernelMsg::from_bytes(&[0xFF; 6]).is_err());
        let mut good = KernelMsg {
            event: KernelEvent::Stopped { pid: Pid(1) },
            queued_at: SimTime::ZERO,
        }
        .to_bytes()
        .to_vec();
        good[8] = 0xEE; // corrupt the event tag
        assert!(KernelMsg::from_bytes(&good).is_err());
    }
}
