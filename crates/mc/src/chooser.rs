//! The checker's chooser: the sim's own [`World`], and the few things
//! exploration keeps beside it.
//!
//! Every pending event of the world belongs to one FIFO stream
//! ([`Stream`]): a connection's direction, a process's start, kernel
//! socket, child exits or signals, the world-wide timer stream, or one
//! staged fault. Only a stream's head is a move, so each stream stays in
//! order while independent streams commute, and the explorer (see
//! [`crate::explore`](mod@crate::explore)) picks which head fires next
//! ([`World::moves`], [`World::fire`]). Picking move 0 every time is the
//! sim's own run; any other pick fires its event out of time order, and
//! the clock moves to the later of now and the event's instant.
//!
//! Beside the world the chooser keeps only what exploration adds: the
//! horizon past which a timer is no move, when the schedule last
//! disrupted the world and how much schedule a repair needs after that,
//! and the per-LPM executed counts at the start of a suite's race.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use ppm_core::Lpm;
use ppm_proto::codec::Wire;
use ppm_proto::Msg;
use ppm_runtime::conn::ConnState;
use ppm_runtime::hashx::HashX;
use ppm_runtime::host::{Backend, Wake};
use ppm_runtime::time::{SimDuration, SimTime};
use ppm_runtime::{ConnEvent, HostId, Pid, ProcKey};
use ppm_simnet::fault::FaultKind;
use ppm_simos::world::{Move, SimEvent, Stream, World};

/// The sim's world under the checker's choices.
pub struct Chooser {
    world: World,
    /// Timers due after this instant are no move: the end of the
    /// explored schedule ([`Chooser::set_horizon`]). Keeps housekeeping
    /// from generating unbounded suffixes.
    horizon: SimTime,
    /// When the schedule last disrupted the world: a staged fault fired,
    /// or a `Failed`/`Closed` notice delivered (stale failure notices
    /// trigger repair chains just as faults do).
    last_disruption_at: Option<SimTime>,
    /// Schedule headroom a convergence predicate needs after the last
    /// disruption (see [`Chooser::converge_expected`]).
    convergence_margin: SimDuration,
    /// Per-LPM executed-operation counts at baseline (see
    /// [`Chooser::snapshot_exec_baseline`]).
    exec_baseline: BTreeMap<ProcKey, u64>,
}

impl Chooser {
    /// Explores `world` from its present state, with no horizon.
    pub fn new(world: World) -> Self {
        Chooser {
            world,
            horizon: SimTime::FAR_FUTURE,
            last_disruption_at: None,
            convergence_margin: SimDuration::ZERO,
            exec_baseline: BTreeMap::new(),
        }
    }

    /// The world, for what predicates read.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The world, mutable: a signal from outside, the trace switch.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    // ---- staging (deterministic world construction) ---------------------

    /// Re-anchors the timer horizon to `window` after now. Suites call
    /// this once staging is done: the interesting frontier is already set
    /// up, so a short remaining window keeps the periodic housekeeping
    /// suffix small enough for schedules to reach quiescence.
    pub fn set_horizon(&mut self, window: SimDuration) {
        self.horizon = self.world.now() + window;
    }

    /// Declares how much schedule must remain after a disruption for the
    /// convergence predicate to apply (probes and reconnects need a few
    /// cycles to repair what the fault broke).
    pub fn set_convergence_margin(&mut self, margin: SimDuration) {
        self.convergence_margin = margin;
    }

    /// `false` when the last disruption landed closer to the horizon
    /// than the declared margin: the schedule ends before the protocols
    /// could have repaired it, so non-convergence there is a budget
    /// artifact, not a bug. Quiescence predicates gate on this.
    pub fn converge_expected(&self) -> bool {
        self.last_disruption_at
            .is_none_or(|t| t + self.convergence_margin <= self.horizon)
    }

    /// Copies the first pending message (in move order) toward `toward`,
    /// if given, that decodes to a message for which `pred` holds: the
    /// copy follows the original in its stream, the retransmit the
    /// protocols must deduplicate. Returns `true` if a frame matched.
    pub fn stage_dup_head(&mut self, toward: Option<HostId>, pred: impl Fn(&Msg) -> bool) -> bool {
        let hit = self.world.moves().iter().position(|m| match m.event {
            SimEvent::Wake(to, Wake::Message { data, .. }) => {
                toward.is_none_or(|h| h == to.0) && Msg::from_bytes(data).is_ok_and(|m| pred(&m))
            }
            _ => false,
        });
        hit.map(|i| self.world.repeat(i)).is_some()
    }

    /// Stages a fault as a move of its own: the explorer chooses when it
    /// fires, as it chooses any stream's head.
    ///
    /// # Panics
    ///
    /// Panics if the fault names a host the world does not have.
    pub fn stage_fault(&mut self, kind: FaultKind) {
        let staged = self.world.schedule_fault(&kind, SimDuration::ZERO);
        staged.expect("a staged fault names the world's hosts");
    }

    /// Records the current per-LPM executed-operation counts; the
    /// broadcast-dedup predicate compares against this baseline.
    pub fn snapshot_exec_baseline(&mut self) {
        let lpms = self.lpms().into_iter();
        self.exec_baseline = lpms.map(|(k, l)| (k, l.stats().executed)).collect();
    }

    // ---- inspection (predicates) ----------------------------------------

    /// All live LPM programs, keyed by (host, pid), in that order.
    pub fn lpms(&self) -> Vec<(ProcKey, &Lpm)> {
        let programs = self.world.hosts().programs();
        let mut lpms: Vec<_> = programs
            .filter_map(|(k, p)| Some((k, p.as_any()?.downcast_ref::<Lpm>()?)))
            .collect();
        lpms.sort_unstable_by_key(|(k, _)| *k);
        lpms
    }

    /// How many signals the kernel has delivered to `pid` on `host`.
    pub fn signals_received(&self, host: HostId, pid: Pid) -> u64 {
        let p = self.world.kernel(host).get(pid);
        p.map_or(0, |p| p.rusage.signals_received)
    }

    /// Largest per-LPM growth of the executed-operation counter since
    /// the recorded baseline.
    pub fn max_exec_delta(&self) -> u64 {
        let delta = |(k, l): (ProcKey, &Lpm)| {
            let base = self.exec_baseline.get(&k).copied().unwrap_or(0);
            l.stats().executed.saturating_sub(base)
        };
        self.lpms().into_iter().map(delta).max().unwrap_or(0)
    }

    // ---- the moves ------------------------------------------------------

    /// The world's moves, less the timer stream's head once it is due
    /// past the horizon.
    pub fn moves(&self) -> Vec<Move<'_>> {
        let mut moves = self.world.moves();
        moves.retain(|m| m.stream != Stream::Timers || m.at <= self.horizon);
        moves
    }

    /// Fires move `pick % n` of the `n` [`Chooser::moves`], so that a
    /// pick vector stays replayable while the minimizer deletes entries.
    /// Returns `false`, firing nothing, when there is no move.
    pub fn fire(&mut self, pick: usize) -> bool {
        let (id, disrupts) = {
            let moves = self.moves();
            let Some(m) = moves.get(pick % moves.len().max(1)) else {
                return false;
            };
            let told = match m.event {
                SimEvent::Tell(t) => Some(t.event),
                SimEvent::Wake(_, Wake::Told { event, .. }) => Some(*event),
                _ => None,
            };
            let failed = matches!(told, Some(ConnEvent::Failed(_) | ConnEvent::Closed));
            (m.id, failed || matches!(m.stream, Stream::Fault(_)))
        };
        self.world.fire_id(id);
        if disrupts {
            self.last_disruption_at = Some(self.world.now());
        }
        true
    }

    /// Human-readable description of a move, used in counterexample
    /// traces and for directed replays in regression tests.
    pub fn describe(&self, m: &Move<'_>) -> String {
        let host = |h: &HostId| self.world.host_name(*h);
        let told = |to: &ProcKey, event: &ConnEvent| {
            let what = match event {
                ConnEvent::Established => "established".to_string(),
                ConnEvent::Accepted { .. } => "accepted".to_string(),
                ConnEvent::Failed(e) => format!("failed({e})"),
                ConnEvent::Closed => "closed".to_string(),
            };
            format!("deliver {what} -> {}", self.label(*to))
        };
        match m.event {
            SimEvent::Wake(to, wake) => match wake {
                Wake::Start => format!("start {}", self.label(*to)),
                Wake::Message { data, .. } => {
                    format!("deliver msg {} -> {}", frame_kind(data), self.label(*to))
                }
                Wake::Told { event, .. } => told(to, event),
                Wake::Flush | Wake::Batch(_) => format!("kernel-event -> {}", self.label(*to)),
                Wake::ChildExit { .. } => format!("child-exit -> {}", self.label(*to)),
                Wake::Timer { token, .. } => format!("timer {} @{token}", self.label(*to)),
                Wake::Signal(s) => format!("signal {s} -> {}", self.label(*to)),
            },
            SimEvent::ConnEstablish { conn } => {
                let c = self.world.conn_table().get(*conn).expect("a record per id");
                told(&c.client, &ConnEvent::Established)
            }
            SimEvent::Tell(t) => told(&t.to, &t.event),
            SimEvent::KillCmd(h, command) => format!("fault kill {command}@{}", host(h)),
            SimEvent::LinkSet(a, b, up) => {
                let verb = if *up { "heal" } else { "cut" };
                format!("fault {verb} {}-{}", host(a), host(b))
            }
            SimEvent::NetLinkSet(link, up) => {
                let net = self.world.net().expect("a named link needs a netmodel");
                let name = &net.graph.links[*link as usize].name;
                format!("fault net-link {name} {}", if *up { "up" } else { "down" })
            }
            SimEvent::HostCrash(h) => format!("fault crash {}", host(h)),
            SimEvent::HostRestart(h) => format!("fault restart {}", host(h)),
            SimEvent::LoadTick(h) => format!("load-tick {}", host(h)),
        }
    }

    fn label(&self, (host, pid): ProcKey) -> String {
        let p = self.world.kernel(host).get(pid);
        let cmd = p.map_or("?", |p| p.command.as_str());
        format!("{cmd}@{}:{}", self.world.host_name(host), pid.0)
    }

    // ---- deterministic drains (staging) ---------------------------------

    /// Fires the first move that is no staged fault and that `skip`
    /// lets through — the sim's own order, less what is skipped — until
    /// `until` holds or no such move is left. Returns `true` if the
    /// condition was reached. Skipped moves stay pending for later
    /// exploration.
    pub fn run_until(
        &mut self,
        max_steps: usize,
        skip: impl Fn(&Chooser, &Move<'_>) -> bool,
        until: impl Fn(&Chooser) -> bool,
    ) -> bool {
        for _ in 0..max_steps {
            if until(self) {
                return true;
            }
            let moves = self.moves();
            let natural = |m: &Move<'_>| !matches!(m.stream, Stream::Fault(_)) && !skip(self, m);
            match moves.iter().position(natural) {
                Some(i) => self.fire(i),
                None => return until(self),
            };
        }
        until(self)
    }

    /// Fires every move but the staged faults. Returns `true` on
    /// quiescence within the step bound.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> bool {
        let faults_only = |w: &Chooser| {
            let moves = w.moves();
            moves.iter().all(|m| matches!(m.stream, Stream::Fault(_)))
        };
        self.run_until(max_steps, |_, _| false, faults_only)
    }

    // ---- state digest ---------------------------------------------------

    /// Deterministic fingerprint of the protocol-visible world state,
    /// hashed from the typed values. Absolute time and the RNG's position
    /// are left out, so schedules that differ only in when housekeeping
    /// fired merge; everything that steers which moves come next — hosts
    /// and links, process tables, open connections, every pending event
    /// by stream, program state, the observables predicates read — is
    /// folded in.
    pub fn digest(&self) -> u64 {
        let w = &self.world;
        let mut h = HashX::default();
        let hosts: Vec<HostId> = w.hosts().iter().map(|(host, _)| host).collect();
        for (host, kernel) in w.hosts().iter() {
            (w.host_up(host), kernel.boot_count()).hash(&mut h);
            for p in kernel.processes() {
                (p.pid, p.ppid, p.uid, &p.command, p.state, p.tracer).hash(&mut h);
                (p.trace_flags, p.rusage.signals_received).hash(&mut h);
            }
            kernel.stable_records().hash(&mut h);
            kernel.listeners().hash(&mut h);
            for (tracer, q) in kernel.pending_batches() {
                tracer.hash(&mut h);
                q.iter().for_each(|m| m.event.hash(&mut h));
            }
        }
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                w.edge_up(a, b).hash(&mut h);
            }
        }
        w.net_epoch().hash(&mut h);
        for c in w.connections().filter(|c| c.state != ConnState::Closed) {
            (c.id, c.client, c.server, c.state).hash(&mut h);
        }
        // Each stream's events in its order, the streams in key order: an
        // interleaving of arrival instants across streams is time.
        let mut pending = w.pending();
        pending.sort_by_key(|m| (m.stream, m.at, m.id));
        for m in &pending {
            (m.stream, m.event).hash(&mut h);
        }
        let mut programs: Vec<_> = w.hosts().programs().collect();
        programs.sort_unstable_by_key(|(k, _)| *k);
        for (k, p) in programs {
            (k, p.state_digest()).hash(&mut h);
        }
        let mut held: Vec<_> = w.hosts().held().collect();
        held.sort_unstable_by_key(|(k, _)| *k);
        held.hash(&mut h);
        // Observables the predicates read must split states, or pruning
        // could hide a violation behind an already-visited digest.
        for (k, l) in self.lpms() {
            (k, l.stats().executed).hash(&mut h);
        }
        // The one time-derived bit: whether a convergence predicate
        // still applies. Two states differing only here must not merge,
        // or pruning could skip the schedule that demands convergence.
        self.converge_expected().hash(&mut h);
        h.finish()
    }
}

/// Short wire-frame classification for trace lines: the message's kind
/// without its dashes (`forestpull`), or `raw`.
fn frame_kind(bytes: &bytes::Bytes) -> String {
    match Msg::from_bytes(bytes) {
        Ok(m) => m.kind().replace('-', ""),
        Err(_) => "raw".to_string(),
    }
}
