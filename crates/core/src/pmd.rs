//! The process manager daemon.
//!
//! One pmd per host, started on demand by inetd. "This daemon proceeds
//! then to create the LPM, and returns the accept address after verifying
//! that there is no LPM for that user in that host. ... It serves as a
//! trusted name server for the creation of LPMs."
//!
//! The paper notes (Section 5) that pmd state lost in a pmd-only crash
//! breaks the mechanism, and suggests keeping it in stable storage; that
//! hardening "has not been implemented" there — here it is available
//! behind [`PmdOptions::stable_storage`] and ablated by
//! `scenarios/ablation_pmd.sweep`.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use ppm_proto::codec::{Dec, Enc, Wire};
use ppm_proto::msg::Msg;
use ppm_proto::types::Name;
use ppm_runtime::ids::{ConnId, Pid, Port, Uid};
use ppm_runtime::program::{Program, SpawnSpec};
use ppm_runtime::signal::ExitStatus;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimTime;
use ppm_runtime::trace::TraceCategory;

use crate::config::lpm_port;
use crate::lpm::Lpm;
use crate::users::UserDirectory;

/// Stable-storage key of the pmd registry.
const REGISTRY_KEY: &str = "pmd.registry";
/// Stable-storage key of the name-server CCS assignments.
const CCS_KEY: &str = "pmd.ccs";

/// Pmd behaviour switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmdOptions {
    /// Persist the `user → LPM` registry to the host's stable storage so
    /// a pmd-only crash does not lose track of live LPMs.
    pub stable_storage: bool,
    /// Respawn an LPM whose process died without exiting cleanly (host
    /// crash, kill): the replacement re-adopts surviving same-user
    /// processes and rebuilds its genealogy forest. Registered LPMs found
    /// dead at restore time (a host crash/reboot) are respawned too,
    /// which requires `stable_storage`.
    pub respawn_lpms: bool,
}

/// The daemon program.
pub struct Pmd {
    users: Arc<UserDirectory>,
    options: PmdOptions,
    registry: HashMap<u32, (Pid, Port)>,
    /// Reverse index of `registry`: LPM pid → owning uid. Keeps the
    /// child-exit path (which arrives with only a pid) O(1) instead of a
    /// scan over every registered user on the host.
    lpm_pids: HashMap<Pid, u32>,
    /// Name-server role: per-user CCS assignment (Section 5 alternative).
    ccs_registry: HashMap<u32, (Name, u64)>,
    port: Port,
    requests_served: u64,
}

impl std::fmt::Debug for Pmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pmd")
            .field("options", &self.options)
            .field("registry", &self.registry)
            .field("requests_served", &self.requests_served)
            .finish()
    }
}

impl Pmd {
    /// Creates a pmd that accepts on `port` and consults `users`.
    pub fn new(users: Arc<UserDirectory>, port: Port, options: PmdOptions) -> Self {
        Pmd {
            users,
            options,
            registry: HashMap::new(),
            lpm_pids: HashMap::new(),
            ccs_registry: HashMap::new(),
            port,
            requests_served: 0,
        }
    }

    /// Records a user's LPM in the registry and the pid reverse index,
    /// retiring the replaced pid's mapping if the user had one.
    fn register(&mut self, user: u32, pid: Pid, port: Port) {
        if let Some((old, _)) = self.registry.insert(user, (pid, port)) {
            self.lpm_pids.remove(&old);
        }
        self.lpm_pids.insert(pid, user);
    }

    fn persist(&mut self, sys: &mut dyn Sys) {
        if !self.options.stable_storage {
            return;
        }
        let mut enc = Enc::new();
        let mut entries: Vec<(u32, Pid, Port)> = self
            .registry
            .iter()
            .map(|(&u, &(pid, port))| (u, pid, port))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        enc.seq(&entries, |e, (u, pid, port)| {
            e.u32(*u);
            e.u32(pid.0);
            e.u16(port.0);
        });
        sys.stable_put(REGISTRY_KEY, enc.into_bytes());
    }

    fn restore(&mut self, sys: &mut dyn Sys) {
        if !self.options.stable_storage {
            return;
        }
        let Some(raw) = sys.stable_get(REGISTRY_KEY) else {
            return;
        };
        let mut dec = Dec::new(&raw);
        let Ok(entries) = dec.seq(|d| Ok((d.u32()?, d.u32()?, d.u16()?))) else {
            return;
        };
        for (uid, pid, port) in entries {
            // Validate: pid must still be a live LPM process. Stale entries
            // (e.g. written before a host crash) are dropped — or, with
            // respawn enabled, brought back so they can re-adopt.
            let live = sys
                .proc_info(Pid(pid))
                .is_some_and(|p| p.state.is_alive() && p.command.starts_with("lpm"));
            if live {
                self.register(uid, Pid(pid), Port(port));
            } else if self.options.respawn_lpms {
                let crashed_at = crash_stamp(sys).unwrap_or_else(|| sys.now());
                self.respawn_lpm(sys, uid, crashed_at);
            }
        }
        if !self.registry.is_empty() {
            sys.trace(
                TraceCategory::Daemon,
                format_args!(
                    "pmd: restored {} LPM registrations from stable storage",
                    self.registry.len()
                ),
            );
        }
    }

    fn persist_ccs(&mut self, sys: &mut dyn Sys) {
        if !self.options.stable_storage {
            return;
        }
        let mut enc = Enc::new();
        let mut entries: Vec<(u32, Name, u64)> = self
            .ccs_registry
            .iter()
            .map(|(&u, (h, e))| (u, h.clone(), *e))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        enc.seq(&entries, |e, (u, h, ep)| {
            e.u32(*u);
            e.str(h);
            e.u64(*ep);
        });
        sys.stable_put(CCS_KEY, enc.into_bytes());
    }

    fn restore_ccs(&mut self, sys: &mut dyn Sys) {
        if !self.options.stable_storage {
            return;
        }
        let Some(raw) = sys.stable_get(CCS_KEY) else {
            return;
        };
        let mut dec = Dec::new(&raw);
        if let Ok(entries) = dec.seq(|d| Ok((d.u32()?, Name::decode(d)?, d.u64()?))) {
            for (u, h, e) in entries {
                self.ccs_registry.insert(u, (h, e));
            }
        }
    }

    /// The name-server role: answer (and when needed, reassign) the CCS
    /// for a user. A dead report matching the current assignment, or no
    /// assignment at all, promotes the claimant.
    fn assign_ccs(
        &mut self,
        sys: &mut dyn Sys,
        user: u32,
        claimant: Name,
        dead: Option<Name>,
    ) -> (Name, u64) {
        let reassign = match self.ccs_registry.get(&user) {
            None => true,
            Some((current, _)) => dead.as_ref() == Some(current),
        };
        if reassign {
            let epoch = self.ccs_registry.get(&user).map(|(_, e)| *e).unwrap_or(0) + 1;
            sys.trace(
                TraceCategory::Daemon,
                format_args!("pmd(ns): CCS for uid {user} -> {claimant} (epoch {epoch})"),
            );
            self.ccs_registry.insert(user, (claimant, epoch));
            self.persist_ccs(sys);
        }
        self.ccs_registry.get(&user).cloned().expect("just ensured")
    }

    fn live_lpm(&self, sys: &dyn Sys, user: u32) -> Option<Port> {
        let &(pid, port) = self.registry.get(&user)?;
        let alive = sys
            .proc_info(pid)
            .is_some_and(|p| p.state.is_alive() && p.command.starts_with("lpm"));
        alive.then_some(port)
    }

    fn create_lpm(&mut self, sys: &mut dyn Sys, user: u32) -> Option<(Port, bool)> {
        if let Some(port) = self.live_lpm(sys, user) {
            return Some((port, false));
        }
        let program = Lpm::new(self.users.get(Uid(user))?);
        let port = lpm_port(Uid(user));
        let spec = SpawnSpec::new(lpm_command(user), Box::new(program));
        let pid = sys.spawn_as(Uid(user), spec).ok()?;
        self.register(user, pid, port);
        self.persist(sys);
        sys.trace(
            TraceCategory::Daemon,
            format_args!("pmd: created LPM pid {pid} for uid {user} (accept {port})"),
        );
        Some((port, true))
    }

    /// Respawns a crashed user's LPM in crash-recovery mode: the
    /// replacement re-adopts survivors and measures its recovery time
    /// from `crashed_at`.
    fn respawn_lpm(&mut self, sys: &mut dyn Sys, user: u32, crashed_at: SimTime) -> Option<Pid> {
        let program = Lpm::respawned(self.users.get(Uid(user))?, crashed_at);
        let port = lpm_port(Uid(user));
        let spec = SpawnSpec::new(lpm_command(user), Box::new(program));
        let pid = sys.spawn_as(Uid(user), spec).ok()?;
        self.register(user, pid, port);
        self.persist(sys);
        sys.trace(
            TraceCategory::Daemon,
            format_args!("pmd: respawned LPM pid {pid} for uid {user} (accept {port})"),
        );
        Some(pid)
    }
}

/// An LPM's command, `lpm-<uid>`, written on the stack into the inline
/// `Name` it is: no `String` on the way.
fn lpm_command(user: u32) -> Name {
    use std::io::Write as _;
    const ROOM: usize = "lpm-".len() + 10;
    let mut buf = [0u8; ROOM];
    let mut rest = &mut buf[..];
    write!(rest, "lpm-{user}").expect("room for `lpm-` and a u32");
    let len = ROOM - rest.len();
    Name::new(std::str::from_utf8(&buf[..len]).expect("ASCII"))
}

/// The host's crash stamp ([`ppm_runtime::sys::CRASHED_AT_KEY`]), if the
/// host ever crashed: big-endian micros written at teardown time.
fn crash_stamp(sys: &dyn Sys) -> Option<SimTime> {
    let raw = sys.stable_get(ppm_runtime::sys::CRASHED_AT_KEY)?;
    let bytes: [u8; 8] = raw.as_ref().try_into().ok()?;
    Some(SimTime::from_micros(u64::from_be_bytes(bytes)))
}

impl Program for Pmd {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(self.port)
            .expect("pmd port free (inetd singleton)");
        self.restore(sys);
        self.restore_ccs(sys);
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        self.requests_served += 1;
        let reply = match Msg::from_bytes(&data) {
            Ok(Msg::CreateLpm { user }) => match self.create_lpm(sys, user) {
                Some((port, created)) => Msg::LpmAddr {
                    user,
                    port: port.0,
                    created,
                },
                None => Msg::NoLpm { user },
            },
            Ok(Msg::CcsQuery {
                user,
                claimant,
                dead,
            }) => {
                let (ccs, epoch) = self.assign_ccs(sys, user, claimant, dead);
                Msg::CcsInfo { user, ccs, epoch }
            }
            _ => return, // not pmd protocol; drop
        };
        let _ = sys.send(conn, reply.to_bytes());
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        // O(1) pid → uid through the reverse index — a host carrying
        // thousands of users must not rescan its whole registry per
        // child exit. The dead pid leaves the index either way; the
        // user's forward entry stays until a respawn or re-create
        // replaces it (`live_lpm` validates against the kernel).
        let Some(user) = self.lpm_pids.remove(&child) else {
            return;
        };
        if !self.options.respawn_lpms {
            return;
        }
        // Clean exits (idle TTL, duplicate yield) are not crashes.
        if !matches!(status, ExitStatus::Signaled(_)) {
            return;
        }
        sys.trace(
            TraceCategory::Daemon,
            format_args!("pmd: LPM pid {child} for uid {user} died ({status:?}); respawning"),
        );
        let now = sys.now();
        self.respawn_lpm(sys, user, now);
    }

    fn name(&self) -> &str {
        "pmd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_lpm_command_is_its_uid_written_out() {
        for user in [0, 7, 100, 65_535, u32::MAX] {
            assert_eq!(lpm_command(user), format!("lpm-{user}"));
        }
    }

    #[test]
    fn default_options_do_not_persist() {
        assert!(!PmdOptions::default().stable_storage);
    }

    #[test]
    fn registry_encoding_roundtrips() {
        // The persistence format: seq of (u32 uid, u32 pid, u16 port).
        let entries = vec![(100u32, 7u32, 1100u16), (200, 9, 1200)];
        let mut enc = Enc::new();
        enc.seq(&entries, |e, (u, p, port)| {
            e.u32(*u);
            e.u32(*p);
            e.u16(*port);
        });
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = dec.seq(|d| Ok((d.u32()?, d.u32()?, d.u16()?))).unwrap();
        assert_eq!(back, entries);
    }
}
