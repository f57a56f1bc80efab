//! Wire encoding for kernel event messages.
//!
//! The kernel coalesces event messages headed for the same LPM wakeup
//! into one batch frame (`[u32 count][u32 len][frame]...`, the protocol's
//! standard batch layout). Each frame is one [`KernelMsg`], its layout
//! written once: [`encode_kernel_msg`] writes a message whatever holds
//! its text, and [`decode_kernel_msg`] reads one with its text borrowed.
//! The batch is walked in place by [`walk_kernel_batch`], so a burst of
//! fork/exec/exit events costs one delivery and no copy of a command or
//! path. The kernel's side is [`encode_kernel_batch`]: its queue of
//! `KernelMsg<Name>`s, to the bytes
//! [`encode_batch`](crate::codec::encode_batch) gives the owned
//! messages they stand for.

use bytes::Bytes;

use crate::codec::{encode_batch_with, CodecError, Dec, Enc, Wire};
use ppm_runtime::time::{SimDuration, SimTime};

use ppm_runtime::events::KernelEvent;
use ppm_runtime::ids::Pid;
use ppm_runtime::name::Name;
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

/// A kernel event read in place: its exec command or file path borrows
/// the batch frame it was decoded from.
pub type KernelEventRef<'a> = KernelEvent<&'a str>;

/// A kernel message read in place, as [`decode_kernel_msg`] gives it.
pub type KernelMsgRef<'a> = KernelMsg<&'a str>;

/// Writes one kernel message: when it was queued, the event's tag, its
/// pid, then what the variant carries. The one writer of the layout,
/// for an owned, queued or borrowed message alike.
pub fn encode_kernel_msg<S: AsRef<str>>(msg: &KernelMsg<S>, enc: &mut Enc) {
    enc.u64(msg.queued_at.as_micros());
    let event = &msg.event;
    enc.u8(event.tag());
    enc.u32(event.pid().0);
    match event {
        KernelEvent::Fork { child, .. } => enc.u32(child.0),
        KernelEvent::Exec { command: text, .. }
        | KernelEvent::FileOpened { path: text, .. }
        | KernelEvent::FileClosed { path: text, .. } => enc.str(text.as_ref()),
        KernelEvent::Exit { status, rusage, .. } => {
            enc_status(enc, status);
            enc_rusage(enc, rusage);
        }
        KernelEvent::SignalDelivered { signal, .. } => enc_signal(enc, *signal),
        KernelEvent::Stopped { .. } | KernelEvent::Continued { .. } => {}
        KernelEvent::MsgSent { bytes, .. } | KernelEvent::MsgReceived { bytes, .. } => {
            enc.u64(*bytes as u64)
        }
    }
}

/// Reads one kernel message, borrowing its text from `dec`'s input: the
/// one reader of the layout [`encode_kernel_msg`] writes.
///
/// # Errors
///
/// [`CodecError::BadTag`] for an unknown event, signal or exit-status
/// tag; [`CodecError::Truncated`] or [`CodecError::BadUtf8`] as the
/// decoder reports them.
pub fn decode_kernel_msg<'a>(dec: &mut Dec<'a>) -> Result<KernelMsgRef<'a>, CodecError> {
    let queued_at = SimTime::from_micros(dec.u64()?);
    let tag = dec.u8()?;
    if usize::from(tag) >= KernelEvent::KINDS.len() {
        return Err(CodecError::BadTag {
            what: "kernel event",
            tag,
        });
    }
    let pid = Pid(dec.u32()?);
    let event = match tag {
        0 => KernelEvent::Fork {
            parent: pid,
            child: Pid(dec.u32()?),
        },
        1 => KernelEvent::Exec {
            pid,
            command: dec.str_ref()?,
        },
        2 => KernelEvent::Exit {
            pid,
            status: dec_status(dec)?,
            rusage: dec_rusage(dec)?,
        },
        3 => KernelEvent::SignalDelivered {
            pid,
            signal: dec_signal(dec)?,
        },
        4 => KernelEvent::Stopped { pid },
        5 => KernelEvent::Continued { pid },
        6 => KernelEvent::MsgSent {
            pid,
            bytes: dec.u64()? as usize,
        },
        7 => KernelEvent::MsgReceived {
            pid,
            bytes: dec.u64()? as usize,
        },
        8 => KernelEvent::FileOpened {
            pid,
            path: dec.str_ref()?,
        },
        _ => KernelEvent::FileClosed {
            pid,
            path: dec.str_ref()?,
        },
    };
    Ok(KernelMsg { event, queued_at })
}

// Written by hand, not in the wire table: `KernelMsg` is declared in
// `ppm-runtime`, and its layout is the pair above.
impl Wire for KernelMsg {
    fn encode(&self, enc: &mut Enc) {
        encode_kernel_msg(self, enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        decode_kernel_msg(dec).map(|msg| msg.map(|text| String::from(*text)))
    }
}

/// Encodes a tracer's queue as one kernel batch frame, byte for byte
/// what [`encode_batch`](crate::codec::encode_batch) writes for the
/// owned [`KernelMsg`]s it stands for.
pub fn encode_kernel_batch(msgs: &[KernelMsg<Name>]) -> Bytes {
    encode_batch_with(msgs, encode_kernel_msg)
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
        let mut dec = Dec::new(frame);
        if let Ok(msg) = decode_kernel_msg(&mut dec) {
            if dec.finish().is_ok() {
                f(msg);
            }
        }
    }
}

/// [`walk_kernel_batch`], each message copied out as an owned
/// [`KernelMsg`].
pub fn for_each_kernel_msg(data: &[u8], mut f: impl FnMut(KernelMsg)) {
    walk_kernel_batch(data, |msg| f(msg.map(|text| String::from(*text))));
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
