//! The host kernel as a state machine: what each call changes and which
//! effects, in which order, it hands the backend to schedule.

use bytes::Bytes;

use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::ids::{Pid, Port, Uid};
use ppm_runtime::kernel::{Effect, Effects, Kernel};
use ppm_runtime::program::{KernelMsg, SigAction, SysError};
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::CRASHED_AT_KEY;
use ppm_runtime::time::SimTime;

const T0: SimTime = SimTime::ZERO;
const USER: Uid = Uid(100);

/// A kernel with a running LPM (with its kernel socket) and a running
/// job the LPM has adopted with `flags`.
fn traced(flags: TraceFlags) -> (Kernel, Pid, Pid, Effects) {
    let mut k = Kernel::new(T0);
    let mut fx = Effects::new();
    let lpm = k.spawn(Pid::INIT, USER, "lpm", false, T0, &mut fx);
    let job = k.spawn(Pid::INIT, USER, "job", false, T0, &mut fx);
    assert!(k.start(lpm, T0, &mut fx) && k.start(job, T0, &mut fx));
    k.register_kernel_socket(lpm);
    k.adopt(job, lpm, USER, flags).expect("same user");
    assert!(fx.is_empty(), "nothing traced yet: {fx:?}");
    (k, lpm, job, fx)
}

fn kinds(fx: &Effects) -> Vec<&'static str> {
    fx.iter()
        .map(|e| match e {
            Effect::Queued { kind, .. } => *kind,
            Effect::Signaled(..) => "signaled",
            Effect::Resumed(_) => "resumed",
            Effect::Exiting(..) => "exiting",
            Effect::Gone(..) => "gone",
        })
        .collect()
}

#[test]
fn children_inherit_the_tracer_and_only_the_first_event_arms_a_flush() {
    let (mut k, lpm, job, mut fx) = traced(TraceFlags::PROC);
    let kid = k.spawn(job, USER, "kid", false, T0, &mut fx);
    let p = k.get(kid).expect("forked");
    assert_eq!((p.tracer, p.trace_flags), (Some(lpm), TraceFlags::PROC));
    assert!(k.start(kid, T0, &mut fx));
    let firsts: Vec<bool> = fx
        .iter()
        .map(|e| matches!(e, Effect::Queued { tracer, first: true, .. } if *tracer == lpm))
        .collect();
    assert_eq!(kinds(&fx), ["fork", "exec"]);
    assert_eq!(firsts, [true, false], "the exec rides the fork's flush");
    let batch = k.drain_batch(lpm, <[_]>::to_vec).expect("pending");
    assert_eq!(batch.len(), 2);
    assert!(matches!(batch[0].event, KernelEvent::Fork { child, .. } if child == kid));
    assert!(k.drain_batch(lpm, |_| ()).is_none(), "collected once");
}

#[test]
fn a_batch_drains_in_queue_order_whatever_was_popped_and_arms_again_after() {
    let (mut k, lpm, job, mut fx) = traced(TraceFlags::IPC);
    for bytes in 1..=5 {
        k.account_sent(job, bytes, T0, &mut fx);
    }
    let sizes = |msgs: &[KernelMsg]| -> Vec<usize> {
        let size = |m: &KernelMsg| match m.event {
            KernelEvent::MsgSent { bytes, .. } => bytes,
            _ => 0,
        };
        msgs.iter().map(size).collect()
    };
    // One event per wakeup takes the oldest; the flush takes the rest.
    let first = k.pop_kernel_msg(lpm).expect("queued");
    assert_eq!(sizes(&[first]), [1]);
    assert_eq!(k.pending_batches()[0].1.len(), 4);
    assert_eq!(k.drain_batch(lpm, sizes), Some(vec![2, 3, 4, 5]));
    assert!(k.pending_batches().is_empty() && k.pop_kernel_msg(lpm).is_none());
    // The drained queue is empty again: the next event is a first.
    fx.clear();
    k.account_sent(job, 6, T0, &mut fx);
    assert!(matches!(fx[0], Effect::Queued { first: true, .. }));
    // A dead tracer's batch is still collected, once.
    k.exit(lpm, ExitStatus::SUCCESS, T0, &mut fx);
    assert_eq!(k.drain_batch(lpm, sizes), Some(vec![6]));
    assert!(k.drain_batch(lpm, sizes).is_none());
}

#[test]
fn events_respect_flags_and_need_a_live_tracer_other_than_the_subject() {
    let (mut k, lpm, job, mut fx) = traced(TraceFlags::PROC);
    k.account_sent(job, 10, T0, &mut fx);
    k.deliver_signal(job, Signal::Stop, T0, &mut fx);
    assert_eq!(
        kinds(&fx),
        ["signaled"],
        "IPC and SIGNALS were not asked for"
    );
    // An LPM tracing itself hears nothing about itself.
    k.adopt(lpm, lpm, USER, TraceFlags::ALL)
        .expect("own process");
    k.account_sent(lpm, 10, T0, &mut fx);
    assert_eq!(fx.len(), 1);
    // Nor does a dead tracer hear about its orphans.
    k.exit(lpm, ExitStatus::SUCCESS, T0, &mut fx);
    fx.clear();
    k.exit(job, ExitStatus::SUCCESS, T0, &mut fx);
    assert_eq!(kinds(&fx), ["exiting", "gone"]);
}

#[test]
fn exit_reports_then_unpublishes_then_names_the_parent_to_notify() {
    let (mut k, _lpm, job, mut fx) = traced(TraceFlags::ALL);
    let kid = k.spawn(job, USER, "daemon", false, T0, &mut fx);
    k.bind(kid, Port(40)).expect("free port");
    assert_eq!(k.bind(job, Port(40)), Err(SysError::PortInUse));
    k.register_service("svc", kid, Port(41));
    fx.clear();
    k.exit(kid, ExitStatus::Code(2), T0, &mut fx);
    assert_eq!(kinds(&fx), ["exiting", "exit", "gone"]);
    assert_eq!(fx[2], Effect::Gone(kid, ExitStatus::Code(2), Some(job)));
    assert_eq!((k.listener(Port(40)), k.service("svc")), (None, None));
    fx.clear();
    k.exit(kid, ExitStatus::SUCCESS, T0, &mut fx);
    assert!(fx.is_empty(), "a second exit is a no-op");
}

#[test]
fn signals_are_two_step_and_default_dispositions_kill() {
    let (mut k, _lpm, job, mut fx) = traced(TraceFlags::SIGNALS);
    assert!(!k.deliver_signal(job, Signal::Stop, T0, &mut fx));
    assert!(!k.deliver_signal(job, Signal::Stop, T0, &mut fx));
    assert!(!k.deliver_signal(job, Signal::Cont, T0, &mut fx));
    assert_eq!(
        kinds(&fx),
        [
            "signal", "signaled", "stop", "signal", "signaled", "signal", "signaled", "cont",
            "resumed"
        ],
        "a second stop changes nothing; cont releases what was held"
    );
    fx.clear();
    // Catchable: the backend runs the handler between the two halves.
    assert!(k.deliver_signal(job, Signal::Term, T0, &mut fx));
    k.finish_signal(job, Signal::Term, SigAction::Handled, T0, &mut fx);
    assert!(k.is_alive(job), "handled");
    assert!(k.deliver_signal(job, Signal::Usr1, T0, &mut fx));
    k.finish_signal(job, Signal::Usr1, SigAction::Default, T0, &mut fx);
    assert!(k.is_alive(job), "not fatal by default");
    assert!(k.deliver_signal(job, Signal::Term, T0, &mut fx));
    k.finish_signal(job, Signal::Term, SigAction::Default, T0, &mut fx);
    let status = ExitStatus::Signaled(Signal::Term);
    assert_eq!(fx.last(), Some(&Effect::Gone(job, status, Some(Pid::INIT))));
    assert_eq!(k.rusage_of(job).expect("retained").signals_received, 6);
    assert!(!k.deliver_signal(job, Signal::Kill, T0, &mut fx), "dead");
}

#[test]
fn acting_on_a_process_takes_its_owner_or_root() {
    let (mut k, lpm, job, mut fx) = traced(TraceFlags::NONE);
    let stranger = Uid(200);
    assert_eq!(k.may_signal(stranger, job), Err(SysError::PermissionDenied));
    assert_eq!(k.open_fds(stranger, lpm), Err(SysError::PermissionDenied));
    assert_eq!(k.may_signal(Uid::ROOT, job), Ok(()));
    assert_eq!(k.open_fds(USER, lpm).map(|fds| fds.len()), Ok(1));
    k.exit(job, ExitStatus::SUCCESS, T0, &mut fx);
    assert_eq!(k.may_signal(USER, job), Err(SysError::NoSuchProcess));
}

#[test]
fn a_crash_keeps_the_disk_and_hands_the_services_to_the_reboot() {
    let (mut k, lpm, _job, _fx) = traced(TraceFlags::NONE);
    k.stable_put("k".to_string(), Bytes::from_static(b"v"));
    k.register_service("pmd", lpm, Port(8));
    k.bind(lpm, Port(7)).expect("free port");
    let at = SimTime::from_millis(1_500);
    k.crash(at);
    assert_eq!((k.listener(Port(7)), k.service("pmd")), (None, None));
    assert_eq!(k.reboot(SimTime::from_secs(2)), ["pmd".to_string()]);
    assert_eq!(k.boot_count(), 2);
    assert!(!k.is_alive(lpm), "nothing survives but the disk");
    assert_eq!(k.stable_get("k"), Some(Bytes::from_static(b"v")));
    let stamp = k.stable_get(CRASHED_AT_KEY).expect("stamped");
    assert_eq!(&stamp[..], &at.as_micros().to_be_bytes()[..]);
}
