//! Kernel event ingestion: genealogy updates, history, triggers, and
//! pending-spawn completion.
//!
//! "LPMs also receive messages from the local kernel. All data pertaining
//! to the local user's processes are obtained in this way."

use ppm_proto::msg::{Reply, WireReply};
use ppm_proto::triggers::TriggerAction;
use ppm_proto::types::{Gpid, RusageRecord, WireProcState};
use ppm_runtime::events::KernelEvent;
use ppm_runtime::ids::Pid;
use ppm_runtime::program::KernelMsg;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::Sys;

use crate::trigger_engine::TriggerEvent;

use super::{requests::RequestCtx, Lpm, ReplyTo};

impl Lpm {
    pub(crate) fn ingest_kernel_event(&mut self, sys: &mut dyn Sys, msg: KernelMsg) {
        let now = sys.now();
        let ev = msg.event;
        let pid = ev.pid().0;
        let gpid = Gpid::new(self.host.clone(), pid);
        let fired = match &ev {
            KernelEvent::Fork { parent, child } => {
                // A traced process forked: its child is traced too; track
                // the genealogy edge.
                let command = sys
                    .proc_info(*child)
                    .map(|i| i.command)
                    .unwrap_or_else(|| "(fork)".to_string());
                self.tree
                    .track(child.0, parent.0, None, command, now.as_micros(), true);
                self.history
                    .record(now, gpid.clone(), "fork", format!("child {child}"));
                self.trigger_check(sys, "fork", parent.0)
            }
            KernelEvent::Exec { pid, command } => {
                self.tree.set_exec(pid.0, command.clone());
                self.history
                    .record(now, gpid.clone(), "exec", command.clone());
                // A pending remote-creation request completes when its
                // child reaches exec (the process exists and runs).
                if let Some(req_id) = self.rpc.take_spawn_wait(pid.0) {
                    let reply = Reply::Spawned {
                        gpid: Gpid::new(self.host.clone(), pid.0),
                    };
                    self.finish_req(sys, req_id, WireReply::from(&reply));
                }
                self.trigger_check(sys, "exec", pid.0)
            }
            KernelEvent::Exit {
                pid,
                status,
                rusage,
            } => {
                self.tree
                    .mark_dead_at(pid.0, rusage.cpu.as_micros(), now.as_micros());
                let command = self
                    .tree
                    .get(pid.0)
                    .map(|n| n.command.clone())
                    .unwrap_or_default();
                let status_code = match status {
                    ExitStatus::Code(c) => *c,
                    ExitStatus::Signaled(s) => -(1000 + s.number() as i32),
                };
                self.history.record_exit(RusageRecord {
                    gpid: gpid.clone(),
                    command,
                    exited_us: now.as_micros(),
                    status: status_code,
                    cpu_us: rusage.cpu.as_micros(),
                    msgs: rusage.msgs_sent + rusage.msgs_received,
                    bytes: rusage.bytes_sent + rusage.bytes_received,
                    files: rusage.files_opened,
                    forks: rusage.forks,
                });
                self.history
                    .record(now, gpid.clone(), "exit", status.to_string());
                // An unfinished spawn whose child died: report failure.
                if let Some(req_id) = self.rpc.take_spawn_wait(pid.0) {
                    self.finish_with_error(
                        sys,
                        req_id,
                        ppm_proto::msg::ErrCode::Internal,
                        "created process died before exec",
                    );
                }
                self.trigger_check(sys, "exit", pid.0)
            }
            KernelEvent::Stopped { pid } => {
                self.tree.set_state(pid.0, WireProcState::Stopped);
                self.history.record(now, gpid.clone(), "stop", "");
                self.trigger_check(sys, "stop", pid.0)
            }
            KernelEvent::Continued { pid } => {
                self.tree.set_state(pid.0, WireProcState::Running);
                self.history.record(now, gpid.clone(), "cont", "");
                self.trigger_check(sys, "cont", pid.0)
            }
            KernelEvent::SignalDelivered { pid, signal } => {
                self.history
                    .record(now, gpid.clone(), "signal", signal.to_string());
                self.trigger_check(sys, "signal", pid.0)
            }
            KernelEvent::MsgSent { pid, bytes } => {
                self.history
                    .record(now, gpid.clone(), "msg-sent", format!("{bytes} bytes"));
                self.trigger_check(sys, "msg-sent", pid.0)
            }
            KernelEvent::MsgReceived { pid, bytes } => {
                self.history
                    .record(now, gpid.clone(), "msg-recv", format!("{bytes} bytes"));
                self.trigger_check(sys, "msg-recv", pid.0)
            }
            KernelEvent::FileOpened { pid, path } => {
                self.history
                    .record(now, gpid.clone(), "file-open", path.clone());
                self.trigger_check(sys, "file-open", pid.0)
            }
            KernelEvent::FileClosed { pid, path } => {
                self.history
                    .record(now, gpid.clone(), "file-close", path.clone());
                self.trigger_check(sys, "file-close", pid.0)
            }
        };

        for firing in fired {
            self.execute_trigger_action(sys, firing.trigger_id, firing.action);
        }
        // Refresh CPU accounting for the process, when still visible.
        if let Some(info) = sys.proc_info(Pid(pid)) {
            self.tree.set_cpu(pid, info.rusage.cpu.as_micros());
        }
    }

    fn trigger_check(
        &mut self,
        sys: &mut dyn Sys,
        kind: &str,
        pid: u32,
    ) -> Vec<crate::trigger_engine::Firing> {
        let (command, cpu_us) = match self.tree.get(pid) {
            Some(n) => (n.command.clone(), n.cpu_us),
            None => (
                sys.proc_info(Pid(pid))
                    .map(|i| i.command)
                    .unwrap_or_default(),
                0,
            ),
        };
        self.triggers.on_event(TriggerEvent {
            kind,
            pid,
            command: &command,
            cpu_us,
        })
    }

    /// Executes one trigger action: "history dependent events can be set
    /// by users to trigger process state changes."
    pub(crate) fn execute_trigger_action(
        &mut self,
        sys: &mut dyn Sys,
        trigger_id: u32,
        action: TriggerAction,
    ) {
        let now = sys.now();
        match action {
            TriggerAction::Notify { note } => {
                self.history.record(
                    now,
                    Gpid::new(self.host.clone(), 0),
                    "trigger",
                    format!("#{trigger_id}: {note}"),
                );
            }
            TriggerAction::Signal { target, signal } => {
                let sig = Signal::from_number(signal).unwrap_or(Signal::Term);
                if target.host == self.host {
                    let _ = sys.kill(Pid(target.pid), sig);
                    self.history.record(
                        now,
                        target,
                        "trigger-signal",
                        format!("#{trigger_id}: {sig} (local)"),
                    );
                } else {
                    // Cross-machine delivery through the PPM itself.
                    self.history.record(
                        now,
                        target.clone(),
                        "trigger-signal",
                        format!("#{trigger_id}: {sig} (remote via {})", target.host),
                    );
                    self.begin_request(
                        sys,
                        self.auth.uid().0,
                        target.host.clone(),
                        ppm_proto::msg::Op::Control {
                            pid: target.pid,
                            action: ppm_proto::msg::ControlAction::Signal(signal),
                        },
                        ReplyTo::Internal,
                        self.cfg.max_hops,
                        RequestCtx::origin(),
                    );
                }
            }
            TriggerAction::KillTree { root } => {
                if root.host == self.host {
                    let mut members = self.tree.descendants(root.pid);
                    members.push(root.pid);
                    members.sort_unstable();
                    for pid in members {
                        let _ = sys.kill(Pid(pid), Signal::Kill);
                    }
                    self.history.record(
                        now,
                        root,
                        "trigger-killtree",
                        format!("#{trigger_id}: local subtree killed"),
                    );
                } else {
                    self.history.record(
                        now,
                        root.clone(),
                        "trigger-killtree",
                        format!("#{trigger_id}: forwarded to {}", root.host),
                    );
                    self.begin_request(
                        sys,
                        self.auth.uid().0,
                        root.host.clone(),
                        ppm_proto::msg::Op::Control {
                            pid: root.pid,
                            action: ppm_proto::msg::ControlAction::Kill,
                        },
                        ReplyTo::Internal,
                        self.cfg.max_hops,
                        RequestCtx::origin(),
                    );
                }
            }
        }
    }
}
