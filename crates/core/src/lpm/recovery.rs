//! Crash recovery: the crash coordinator site machinery of Section 5.
//!
//! "At all times in normal operation, one LPM has the distinguished role
//! of being the crash coordinator site, CCS. ... The crash of a host (or a
//! LPM) in the network results in LPMs trying to establish connections
//! with the (known) CCS. If the CCS were found to be down ... the LPM that
//! has detected the failure would try to connect in descending order of
//! priority with the hosts listed in the user's .recovery file. If none of
//! these hosts is available, a time-to-die interval exists that tells the
//! LPM when to exit after having terminated all of the user's processes in
//! that host. ... those new CCSs that are not at the top of the list keep
//! probing, at a low frequency, the hosts higher on the list."

use ppm_proto::msg::Msg;
use ppm_proto::types::{Gpid, Name};
use ppm_runtime::ids::{ConnId, Pid};
use ppm_runtime::obs::SpanPhase;
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;

use crate::config::{RecoveryPolicy, CONNECT_ATTEMPTS, DEFAULT_TRACE_FLAGS};
use crate::history::Who;
use crate::locator::Dial;

use super::{ChanPurpose, ChannelSlot, DialKey, Lpm, RecovMode, TimerKind};

impl Lpm {
    // ---- CCS view management ------------------------------------------------

    /// Considers adopting another LPM's CCS view. Higher epochs win; equal
    /// epochs prefer the higher-priority (earlier `.recovery`) host.
    pub(crate) fn consider_ccs(&mut self, sys: &mut dyn Sys, ccs: &str, epoch: u64) {
        if ccs.is_empty() {
            return;
        }
        let adopt = match epoch.cmp(&self.epoch) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => {
                ccs != self.ccs && self.rank_of(ccs) < self.rank_of(&self.ccs)
            }
        };
        if adopt {
            self.ccs = Name::new(ccs);
            self.epoch = epoch;
            self.note_recovery(sys, format_args!("adopted CCS {ccs} (epoch {epoch})"));
            self.after_ccs_change(sys);
        }
    }

    fn rank_of(&self, host: &str) -> usize {
        self.recovery_list
            .iter()
            .position(|h| h == host)
            .unwrap_or(usize::MAX)
    }

    fn after_ccs_change(&mut self, sys: &mut dyn Sys) {
        // Leaving orphanhood if we were there.
        if matches!(
            self.recov,
            RecovMode::Orphan { .. } | RecovMode::Seeking { .. }
        ) {
            self.recov = RecovMode::Normal;
        }
        // If we are the acting CCS but not the top-priority host, probe
        // upward at low frequency.
        self.maybe_arm_probe(sys);
    }

    fn maybe_arm_probe(&mut self, sys: &mut dyn Sys) {
        if matches!(self.cfg.recovery_policy, RecoveryPolicy::NameServer { .. }) {
            // Assignments are stable until the name server reassigns;
            // there is no priority list to probe upward.
            return;
        }
        let acting_ccs = self.ccs == self.host;
        let top_priority = self.rank_of(&self.host) == 0 || self.recovery_list.is_empty();
        if acting_ccs && !top_priority && !self.probe_armed {
            self.probe_armed = true;
            let d = self.cfg.probe_interval;
            self.arm(sys, d, TimerKind::Probe);
        }
    }

    /// Announces the current CCS view on all sibling channels.
    pub(crate) fn announce_ccs(&mut self, sys: &mut dyn Sys) {
        let msg = Msg::CcsAnnounce {
            user: self.auth.uid().0,
            ccs: self.ccs.clone(),
            epoch: self.epoch,
        };
        let conns: Vec<_> = self.siblings.values().copied().collect();
        for conn in conns {
            let _ = self.send_msg(sys, conn, &msg);
        }
    }

    // ---- failure detection entry points --------------------------------------

    /// A sibling connection was lost: Section 5's trigger for recovery.
    pub(crate) fn on_sibling_lost(&mut self, sys: &mut dyn Sys, host: &str) {
        if matches!(self.recov, RecovMode::Seeking { .. }) {
            return; // already walking the list
        }
        if host == self.ccs {
            self.note_recovery(sys, format_args!("lost contact with CCS {host}; seeking"));
            self.start_seek(sys);
        } else if self.ccs != self.host && !self.siblings.contains_key(&self.ccs) {
            // Re-establish contact with the CCS on any failure.
            let ccs = self.ccs.clone();
            let _ = self.start_channel_if_absent(sys, &ccs, ChanPurpose::Sibling);
        }
    }

    /// Locates a new CCS: walks the `.recovery` list, or asks the name
    /// server, per the configured policy.
    pub(crate) fn start_seek(&mut self, sys: &mut dyn Sys) {
        self.recov = RecovMode::Seeking { rank: 0 };
        match self.cfg.recovery_policy {
            RecoveryPolicy::RecoveryFile => self.try_seek_candidate(sys),
            RecoveryPolicy::NameServer { .. } => {
                let dead = Some(self.ccs.clone()).filter(|c| !c.is_empty());
                self.begin_ns_query(sys, dead);
            }
        }
    }

    // ---- name-server CCS policy (Section 5 alternative) ---------------------

    /// Starts (or restarts) a CCS query toward the name server's pmd.
    pub(crate) fn begin_ns_query(&mut self, sys: &mut dyn Sys, dead: Option<Name>) {
        let RecoveryPolicy::NameServer { host } = self.cfg.recovery_policy.clone() else {
            return;
        };
        let Ok(target) = sys.resolve_host(&host) else {
            self.enter_orphanhood(sys);
            return;
        };
        let request = Msg::CcsQuery {
            user: self.auth.uid().0,
            claimant: self.host.clone(),
            dead,
        };
        let retry = self.cfg.connect_retry;
        let dial = Dial::pmd(sys, target, &request, retry, CONNECT_ATTEMPTS);
        // A query still in flight is replaced; its connection, owned by
        // no dial now, is ignored from here on.
        let purpose = ChanPurpose::NameServer;
        let key = DialKey::Pmd(host);
        self.channels.insert(key, ChannelSlot { dial, purpose });
    }

    /// The name server's pmd answered the CCS query.
    pub(crate) fn name_server_answered(&mut self, sys: &mut dyn Sys, answer: Msg) {
        let Msg::CcsInfo { ccs, epoch, .. } = answer else {
            self.enter_orphanhood(sys);
            return;
        };
        if epoch >= self.epoch {
            let changed = self.ccs != ccs || self.epoch != epoch;
            self.ccs = ccs.clone();
            self.epoch = epoch;
            if changed {
                self.note_recovery(
                    sys,
                    format_args!("name server assigned CCS {ccs} (epoch {epoch})"),
                );
                self.announce_ccs(sys);
            }
        }
        self.recov = RecovMode::Normal;
        self.orphan_deadline = None;
        // Keep a channel to the coordinator so its failure is
        // observable.
        if self.ccs != self.host && !self.siblings.contains_key(&self.ccs) {
            let ccs = self.ccs.clone();
            let _ = self.start_channel_if_absent(sys, &ccs, ChanPurpose::Sibling);
        }
    }

    fn try_seek_candidate(&mut self, sys: &mut dyn Sys) {
        let RecovMode::Seeking { rank } = self.recov else {
            return;
        };
        let candidates: Vec<Name> = if self.recovery_list.is_empty() {
            vec![self.host.clone()]
        } else {
            self.recovery_list.clone()
        };
        if rank >= candidates.len() {
            self.enter_orphanhood(sys);
            return;
        }
        let candidate = candidates[rank].clone();
        if candidate == self.host {
            self.become_ccs(sys);
            return;
        }
        if self.siblings.contains_key(&candidate) {
            // Already connected: adopt it directly.
            self.adopt_candidate(sys, &candidate);
            return;
        }
        if !self.start_channel_if_absent(sys, &candidate, ChanPurpose::Seek { rank }) {
            // Unresolvable name; next candidate.
            self.recov = RecovMode::Seeking { rank: rank + 1 };
            self.try_seek_candidate(sys);
        }
    }

    fn adopt_candidate(&mut self, sys: &mut dyn Sys, candidate: &str) {
        self.epoch += 1;
        self.obs.registry.inc(self.obs.ccs_elections);
        self.ccs = Name::new(candidate);
        self.recov = RecovMode::Normal;
        self.orphan_deadline = None;
        self.note_recovery(
            sys,
            format_args!("recovered: CCS is {candidate} (epoch {})", self.epoch),
        );
        self.announce_ccs(sys);
        self.maybe_arm_probe(sys);
    }

    /// This LPM assumes the CCS role.
    pub(crate) fn become_ccs(&mut self, sys: &mut dyn Sys) {
        self.epoch += 1;
        self.obs.registry.inc(self.obs.ccs_elections);
        self.ccs = self.host.clone();
        self.recov = RecovMode::Normal;
        self.orphan_deadline = None;
        self.note_recovery(sys, format_args!("acting as CCS (epoch {})", self.epoch));
        self.announce_ccs(sys);
        self.maybe_arm_probe(sys);
    }

    /// Outcome of a channel started for recovery purposes.
    pub(crate) fn channel_purpose_done(
        &mut self,
        sys: &mut dyn Sys,
        host: &str,
        purpose: ChanPurpose,
        success: bool,
    ) {
        match purpose {
            ChanPurpose::Sibling | ChanPurpose::NameServer => {}
            ChanPurpose::Seek { rank } => {
                if !matches!(self.recov, RecovMode::Seeking { rank: r } if r == rank) {
                    return; // stale
                }
                if success {
                    self.adopt_candidate(sys, host);
                } else {
                    self.recov = RecovMode::Seeking { rank: rank + 1 };
                    self.try_seek_candidate(sys);
                }
            }
            ChanPurpose::Probe => {
                if success {
                    // A higher-priority host answered: it resumes as CCS.
                    self.adopt_candidate(sys, host);
                }
                // Failure: keep probing at the next tick.
            }
        }
    }

    // ---- orphanhood and time-to-die ------------------------------------------

    pub(crate) fn enter_orphanhood(&mut self, sys: &mut dyn Sys) {
        let now = sys.now();
        let ttd = self.cfg.time_to_die;
        // The deadline is set once, when contact is first lost; failed
        // retries do not push it back.
        let deadline = match self.orphan_deadline {
            Some(deadline) => deadline,
            None => {
                let deadline = now + ttd;
                self.orphan_deadline = Some(deadline);
                self.obs.registry.inc(self.obs.orphan_entries);
                self.note_recovery(
                    sys,
                    format_args!("no recovery host reachable; time-to-die at {deadline}"),
                );
                deadline
            }
        };
        self.recov = RecovMode::Orphan { deadline };
        if !self.ttd_armed {
            self.ttd_armed = true;
            let remaining = deadline.saturating_since(now);
            self.arm(sys, remaining, TimerKind::TimeToDie);
        }
        let retry = self.cfg.reconnect_interval;
        self.arm(sys, retry, TimerKind::SeekRetry);
    }

    /// Contact with a healthy sibling or the CCS ends orphanhood: "a LPM
    /// not in contact with a CCS resumes the normal mode of operation if
    /// it manages to connect to the CCS at any future retry, or gets a
    /// communication request from a LPM in contact with a valid CCS."
    pub(crate) fn recovered_contact(&mut self, sys: &mut dyn Sys) {
        if matches!(self.recov, RecovMode::Orphan { .. }) {
            self.recov = RecovMode::Normal;
            self.note_recovery(
                sys,
                format_args!("contact re-established; normal operation resumed"),
            );
        }
        self.orphan_deadline = None;
    }

    /// Periodic retry while orphaned.
    pub(crate) fn seek_retry(&mut self, sys: &mut dyn Sys) {
        if matches!(self.recov, RecovMode::Orphan { .. }) {
            self.start_seek(sys);
        }
    }

    /// The time-to-die deadline fired.
    pub(crate) fn time_to_die(&mut self, sys: &mut dyn Sys) {
        self.ttd_armed = false;
        // Still disconnected? (Seeking counts: the walk is failing.)
        let Some(deadline) = self.orphan_deadline else {
            return;
        };
        if matches!(self.recov, RecovMode::Normal) {
            return;
        }
        if sys.now() < deadline {
            let remaining = deadline.saturating_since(sys.now());
            self.ttd_armed = true;
            self.arm(sys, remaining, TimerKind::TimeToDie);
            return;
        }
        self.note_recovery(
            sys,
            format_args!("time-to-die expired: terminating local processes and exiting"),
        );
        // "the appropriate action is to close down all the activities."
        let at = sys.now();
        for rec in self.tree.records() {
            if rec.state != ppm_proto::types::WireProcState::Dead {
                let _ = sys.kill(Pid(rec.pid), Signal::Kill);
                let who = Who::Local(rec.pid);
                let note = "killed at time-to-die".into();
                self.history.record(at, who, "ttd-kill", note);
            }
        }
        self.shutdown(sys, 2);
    }

    /// Low-frequency probe of higher-priority recovery hosts.
    pub(crate) fn probe_tick(&mut self, sys: &mut dyn Sys) {
        self.probe_armed = false;
        if self.ccs != self.host {
            return; // no longer acting CCS
        }
        let my_rank = self.rank_of(&self.host);
        let higher: Vec<Name> = self
            .recovery_list
            .iter()
            .take(my_rank.min(self.recovery_list.len()))
            .cloned()
            .collect();
        if higher.is_empty() {
            return;
        }
        for host in higher {
            if let Some(&conn) = self.siblings.get(&host) {
                // Connected: ask directly whether it is back.
                self.send_probe(sys, &host, conn);
            } else {
                let _ = self.start_channel_if_absent(sys, &host, ChanPurpose::Probe);
            }
        }
        self.maybe_arm_probe(sys);
    }

    /// A probed host answered.
    pub(crate) fn handle_probe_ack(
        &mut self,
        sys: &mut dyn Sys,
        from: &str,
        ccs: &str,
        epoch: u64,
    ) {
        if let Some(sent) = self.probe_sent.remove(from) {
            let rtt = sys.now().saturating_since(sent);
            let probe_rtt = self.obs.probe_rtt_us;
            self.obs.registry.record(probe_rtt, rtt.as_micros());
            let span = format_args!("{}>{from}", self.host);
            sys.span("probe", span, SpanPhase::End);
        }
        self.consider_ccs(sys, ccs, epoch);
        // The probed host is alive; if it outranks the current CCS, it
        // resumes the coordinator role.
        if self.ccs == self.host && self.rank_of(from) < self.rank_of(&self.host) {
            self.adopt_candidate(sys, from);
        }
    }

    /// Housekeeping hook: keep the probe timer alive while acting CCS,
    /// and keepalive the CCS channel so partitions are discovered — a
    /// break is only observable on send, like TCP.
    pub(crate) fn recovery_housekeeping(&mut self, sys: &mut dyn Sys) {
        self.maybe_arm_probe(sys);
        let now = sys.now();
        let interval = self.cfg.probe_interval;
        if self.ccs != self.host && now.saturating_since(self.last_keepalive) >= interval {
            if let Some(&conn) = self.siblings.get(&self.ccs.clone()) {
                self.last_keepalive = now;
                let ccs = self.ccs.clone();
                self.send_probe(sys, &ccs, conn);
            }
        }
    }

    /// Probes `host` over `conn`, stamped for RTT measurement. An
    /// unanswered probe keeps its original stamp so the eventual ack
    /// measures the full gap.
    fn send_probe(&mut self, sys: &mut dyn Sys, host: &str, conn: ConnId) {
        if !self.probe_sent.contains_key(host) {
            self.probe_sent.insert(Name::new(host), sys.now());
            let span = format_args!("{}>{host}", self.host);
            sys.span("probe", span, SpanPhase::Begin);
        }
        let probe = Msg::Probe {
            user: self.auth.uid().0,
            from: self.host.clone(),
        };
        let _ = self.send_msg(sys, conn, &probe);
    }

    // ---- crash respawn: re-adoption and forest gossip ------------------------

    /// Respawn-mode start: adopt every surviving same-user process and
    /// rebuild the local genealogy from kernel truth ("the LPM can regain
    /// control of already-running processes via adoption"). Cross-host
    /// logical edges are not recoverable locally; sibling gossip restores
    /// them ([`Msg::ForestPull`]).
    pub(crate) fn readopt_survivors(
        &mut self,
        sys: &mut dyn Sys,
        crashed_at: ppm_runtime::time::SimTime,
    ) {
        let me = sys.pid();
        let mut readopted = 0u64;
        for info in sys.user_processes(sys.uid()) {
            // Skip ourselves and any other manager; a dead predecessor's
            // claim on a survivor lapses, so adoption takes over.
            if info.pid == me || info.command.starts_with("lpm") {
                continue;
            }
            if sys.adopt(info.pid, DEFAULT_TRACE_FLAGS).is_err() {
                continue;
            }
            // A survivor reparented to init lost its real parent to the
            // crash; record ppid 0 ("parent lost") so such roots stay
            // distinguishable from ordinary root spawns, which the tree
            // records with ppid 1.
            let ppid = if info.ppid.0 <= 1 { 0 } else { info.ppid.0 };
            self.tree.track(
                info.pid.0,
                ppid,
                None,
                info.command.clone(),
                info.started_at.as_micros(),
                true,
            );
            self.tree.set_cpu(info.pid.0, info.rusage.cpu.as_micros());
            // Survivors already executed; there will be no exec event.
            self.tree
                .set_state(info.pid.0, ppm_proto::types::WireProcState::Running);
            readopted += 1;
        }
        let now = sys.now();
        let mttr = now.saturating_since(crashed_at);
        self.obs.registry.inc(self.obs.restarts);
        self.obs.registry.add(self.obs.readopted, readopted);
        self.obs.registry.record(self.obs.mttr_us, mttr.as_micros());
        self.rebuilding = readopted > 0;
        self.note_recovery(
            sys,
            format_args!("respawned LPM re-adopted {readopted} survivor(s), mttr {mttr}"),
        );
        if readopted > 0 {
            let note = format!("{readopted} survivors after crash");
            self.history
                .record(now, Who::Local(0), "readopt", note.into());
        }
        // Rejoin the computation: the predecessor's sibling channels died
        // with it, and nobody dials a host they believe is still up. The
        // recovery-list walk (Section 5's trigger) reconnects us — and the
        // first channel to come up carries the forest pull.
        self.start_seek(sys);
    }

    /// Survivors whose place in the forest is unexplained: re-adopted,
    /// alive, with the "parent lost" marker and no cross-host logical
    /// edge. These are the forest roots the crash manufactured.
    pub(crate) fn failure_roots(&self) -> Vec<u32> {
        self.tree
            .snapshot()
            .iter()
            .filter(|p| {
                p.adopted
                    && p.state != ppm_proto::types::WireProcState::Dead
                    && p.logical_parent.is_none()
                    && p.ppid == 0
            })
            .map(|p| p.gpid.pid)
            .collect()
    }

    /// While rebuilding, ask a freshly connected sibling for the logical
    /// parents of the survivors that still look like failure roots.
    pub(crate) fn maybe_pull_forest(&mut self, sys: &mut dyn Sys, conn: ConnId) {
        if !self.rebuilding {
            return;
        }
        let live = self.failure_roots();
        if live.is_empty() {
            self.rebuilding = false;
            return;
        }
        let msg = Msg::ForestPull {
            user: self.auth.uid().0,
            host: self.host.clone(),
            live,
            // Announce our incarnation so receivers fence the
            // predecessor's correlation ids when they purge its dedup
            // entries below.
            boot: self.boot_epoch(),
        };
        let _ = self.send_msg(sys, conn, &msg);
    }

    /// A respawned sibling asked which of its survivors we know remote
    /// parents for. Answer only with edges we actually recorded; silence
    /// means we have nothing to contribute.
    pub(crate) fn handle_forest_pull(
        &mut self,
        sys: &mut dyn Sys,
        conn: ppm_runtime::ids::ConnId,
        from: &str,
        live: Vec<u32>,
        boot: u64,
    ) {
        // A pull proves the peer's LPM is a fresh incarnation: its
        // correlation counter restarted, so stale dedup entries from its
        // predecessor would wrongly suppress (and mis-answer) new ids.
        // Fence the predecessor's boot epoch *before* purging: once the
        // cached replies are gone, a late retry stamped by the dead
        // incarnation must classify Stale, never New.
        self.rpc.fence_origin(from, boot);
        let purged = self.rpc.purge_peer(from);
        if purged > 0 {
            self.note_recovery(
                sys,
                format_args!("peer {from} restarted: purged {purged} dedup entries"),
            );
        }
        let edges: Vec<(u32, Gpid)> = match self.remote_children.get(from) {
            Some(known) => live
                .iter()
                .filter_map(|pid| known.get(pid).map(|g| (*pid, g.clone())))
                .collect(),
            None => Vec::new(),
        };
        if edges.is_empty() {
            return;
        }
        self.note_recovery(
            sys,
            format_args!("forest gossip: sending {} edge(s) to {from}", edges.len()),
        );
        let msg = Msg::ForestInfo {
            user: self.auth.uid().0,
            host: Name::new(from),
            edges,
        };
        let _ = self.send_msg(sys, conn, &msg);
    }

    /// Sibling gossip answering our pull: graft the remembered logical
    /// edges onto the rebuilt forest, undoing the crash's degeneration.
    pub(crate) fn handle_forest_info(
        &mut self,
        sys: &mut dyn Sys,
        host: &str,
        edges: Vec<(u32, Gpid)>,
    ) {
        if host != self.host {
            return;
        }
        let mut applied = 0usize;
        for (pid, parent) in edges {
            let known = self
                .tree
                .get(pid)
                .is_some_and(|n| n.logical_parent.is_none());
            if known {
                self.tree.set_logical_parent(pid, parent);
                applied += 1;
            }
        }
        if applied > 0 {
            self.note_recovery(
                sys,
                format_args!("forest gossip restored {applied} logical edge(s)"),
            );
        }
        // If the gossip explained every failure root, the rebuild is
        // done *now*. Waiting for the next sibling connect to notice
        // (via `maybe_pull_forest`) leaves the LPM rebuilding forever
        // when the only sibling channel is already up — the model
        // checker's `no-orphans` counterexample.
        if self.rebuilding && self.failure_roots().is_empty() {
            self.rebuilding = false;
            self.note_recovery(sys, format_args!("forest rebuild complete"));
        }
    }
}
