//! Kernel event ingestion: genealogy updates, history, triggers, and
//! pending-spawn completion.
//!
//! "LPMs also receive messages from the local kernel. All data pertaining
//! to the local user's processes are obtained in this way."
//!
//! Every fork, exec and exit of every traced process comes through
//! [`Lpm::ingest_kernel_event`], so it builds nothing it can borrow or be
//! given. The message is read in place off the batch frame
//! ([`KernelMsgRef`]): an exec's command is a `&str` into the frame,
//! made into a [`Name`](ppm_proto::types::Name) — inline up to 22 bytes,
//! so no allocation — once for the genealogy and once for the history
//! entry's text, a file path likewise. A fork's node takes the command
//! the kernel holds, and an exit's ring entry the command the node
//! holds, each a `Name` clone. The subject is a bare pid (the history
//! adds the host when asked, see [`crate::history`]); the kernel is read
//! in place through `Sys::kernel` (a `ProcInfo` would clone the command
//! to read one field); the trigger check borrows the command from the
//! tree node. Nothing is left per process on this side of the frame.

use ppm_proto::kernel_wire::{KernelEventRef, KernelMsgRef};
use ppm_proto::triggers::TriggerAction;
use ppm_proto::types::WireProcState;
use ppm_runtime::ids::Pid;
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;

use crate::history::{Detail, Who};
use crate::trigger_engine::{Firing, TriggerEvent};

use super::{requests::RequestCtx, Lpm, ReplyTo};

impl Lpm {
    pub(crate) fn ingest_kernel_event(&mut self, sys: &mut dyn Sys, msg: KernelMsgRef<'_>) {
        let now = sys.now();
        let kind = msg.event.kind();
        let pid = msg.event.pid().0;
        // `Some(true)`: the process reached exec; `Some(false)`: it died.
        // Either settles a remote-creation request waiting on it.
        let mut created = None;
        let detail =
            match msg.event {
                KernelEventRef::Fork { parent, child } => {
                    // A traced process forked: its child is traced too; track
                    // the genealogy edge.
                    let command = match sys.kernel().get(child) {
                        Some(p) => p.command.clone(),
                        None => "(fork)".into(),
                    };
                    self.tree
                        .track(child.0, parent.0, None, command, now.as_micros(), true);
                    Detail::Child(child)
                }
                KernelEventRef::Exec { command, .. } => {
                    self.tree.set_exec(pid, command);
                    created = Some(true);
                    Detail::from(command)
                }
                KernelEventRef::Exit { status, rusage, .. } => {
                    self.tree
                        .mark_dead_at(pid, rusage.cpu.as_micros(), now.as_micros());
                    let command = self.tree.get(pid).map(|n| n.command.clone());
                    let command = command.unwrap_or_default();
                    self.history.record_exit(now, pid, command, status, rusage);
                    created = Some(false);
                    Detail::Status(status)
                }
                KernelEventRef::Stopped { .. } => {
                    self.tree.set_state(pid, WireProcState::Stopped);
                    Detail::None
                }
                KernelEventRef::Continued { .. } => {
                    self.tree.set_state(pid, WireProcState::Running);
                    Detail::None
                }
                KernelEventRef::SignalDelivered { signal, .. } => Detail::Signal(signal),
                KernelEventRef::MsgSent { bytes, .. }
                | KernelEventRef::MsgReceived { bytes, .. } => Detail::Bytes(bytes),
                KernelEventRef::FileOpened { path, .. }
                | KernelEventRef::FileClosed { path, .. } => Detail::from(path),
            };
        self.history.record(now, Who::Local(pid), kind, detail);

        if let Some(reached_exec) = created {
            self.finish_spawn_wait(sys, pid, reached_exec);
        }

        for firing in self.trigger_check(sys, kind, pid) {
            self.execute_trigger_action(sys, firing.trigger_id, firing.action);
        }
        // Refresh CPU accounting for the process, when still visible.
        if let Some(rusage) = sys.rusage_of(Pid(pid)) {
            self.tree.set_cpu(pid, rusage.cpu.as_micros());
        }
    }

    fn trigger_check(&mut self, sys: &dyn Sys, kind: &str, pid: u32) -> Vec<Firing> {
        let (command, cpu_us) = match self.tree.get(pid) {
            Some(n) => (n.command.as_str(), n.cpu_us),
            None => match sys.kernel().get(Pid(pid)) {
                Some(p) => (p.command.as_str(), 0),
                None => ("", 0),
            },
        };
        self.triggers.on_event(TriggerEvent {
            kind,
            pid,
            command,
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
                let note = format!("#{trigger_id}: {note}");
                self.history
                    .record(now, Who::Local(0), "trigger", note.into());
            }
            TriggerAction::Signal { target, signal } => {
                let sig = Signal::from_number(signal).unwrap_or(Signal::Term);
                if target.host == self.host {
                    let _ = sys.kill(Pid(target.pid), sig);
                    let note = format!("#{trigger_id}: {sig} (local)");
                    let who = Who::Local(target.pid);
                    self.history.record(now, who, "trigger-signal", note.into());
                } else {
                    // Cross-machine delivery through the PPM itself.
                    let note = format!("#{trigger_id}: {sig} (remote via {})", target.host);
                    let who = Who::Remote(target.clone());
                    self.history.record(now, who, "trigger-signal", note.into());
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
                    let note = format!("#{trigger_id}: local subtree killed");
                    let who = Who::Local(root.pid);
                    self.history
                        .record(now, who, "trigger-killtree", note.into());
                } else {
                    let note = format!("#{trigger_id}: forwarded to {}", root.host);
                    let who = Who::Remote(root.clone());
                    self.history
                        .record(now, who, "trigger-killtree", note.into());
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
