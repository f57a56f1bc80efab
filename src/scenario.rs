//! A small scenario language for driving the PPM from files.
//!
//! `ppm-sim` (see `src/bin/ppm-sim.rs`) reads a line-oriented scenario,
//! builds the network, plays timed actions, and prints tool output —
//! making the reproduction usable as a standalone experimentation
//! vehicle, the way the paper positions the PPM prototype ("a tool for
//! experimentation in networked environments"). One executor plays a
//! scenario on every runtime — the simulation or a real loopback
//! cluster — behind [`crate::sweep::run_cell`], which runs every cell;
//! [`execute_with`] plays one on the simulation alone, and
//! [`execute_played`] on any runtime that holds the sim's world.
//!
//! # Grammar (one statement per line, `#` comments)
//!
//! ```text
//! seed 1986                               # seeds the sim; real makes no seeded choice
//! host calder vax780                      # cpu: vax780 | vax750 | sun2
//! link calder ucbarpa                     # sim-only unless every pair is linked
//! load calder 1.5                         # sim-only
//! pmd stable                              # or: pmd volatile
//! user 100 secret=0xBEEF recovery=calder,ucbarpa [fast] [nameserver=ns] [noagg]
//!          [noreuse] [noroutes] [window=60s]
//!
//! at 0s    spawn calder 100 ucbarpa worker as w1 [lifetime=10s] [parent=$w0] [time=LABEL]
//! at 500ms adopt calder 100 calder 4
//! at 1s    control calder 100 $w1 stop [time=LABEL]  # stop | fg | bg | kill
//! at 2s    snapshot calder 100 * [time=LABEL]
//! at 3s    dashboard calder 100
//! at 4s    rusage calder 100 ucbarpa
//! at 5s    history calder 100 *
//! at 6s    killtree calder 100 $w1
//! at 7s    drill calder 100 ucbarpa,kim [kill=ucbarpa]
//! at 7s    files calder 100 calder 5          # a process's descriptors
//! at 8s    crash ucbarpa                     # sim-only
//! at 9s    restart ucbarpa                   # sim-only
//! at 10s   link-down calder ucbarpa          # sim-only
//! at 11s   link-up calder ucbarpa            # sim-only
//!
//! run 30s
//! ```
//!
//! `as NAME` binds the created process's `<host, pid>`; `$NAME` refers to
//! it in later `control`/`killtree`/`parent=` arguments. The file is read
//! by [`ppm_simnet::grammar`], as every text file is: durations are a
//! count and a unit (`us`, `ms` or `s`), a seed or a secret is decimal or
//! `0x` hex, UIDs and PIDs fit in 32 bits, and no token is longer than
//! 65 535 bytes, the most a protocol string carries (a host name, a
//! command, a destination). A refusal names its line. A `link`, a `load`
//! and a user's `recovery=` and `nameserver=` name hosts declared on
//! earlier lines; a host and a user are each declared once.
//!
//! A user's options set its [`PpmConfig`]: `fast` the short recovery
//! timers, `noagg` no reply splicing, `noreuse` no handler reuse,
//! `noroutes` no route learning and `window=` the broadcast stamp
//! window. `pmd stable|volatile` sets whether pmds keep their registry
//! on stable storage ([`PmdOptions::stable_storage`]); without it they
//! do only when LPMs are brought back (a `kill=` drill, a fault plan).
//!
//! `load HOST AVG` pins the host's load average near AVG (0, or 0.25 to
//! 8) with duty-cycled spinners from the first instant, and times each
//! kernel message handed to a process: `kernel.delivery_us` in the world
//! metrics, `delivery_us` in the sweep report (Table 1).
//!
//! `time=LABEL` on a `spawn`, `control` or `snapshot` reports the tool's
//! elapsed time for it — request sent to reply received — under LABEL in
//! the sweep report ([`crate::sweep::render_report`]); it changes nothing
//! the scenario prints or digests.
//!
//! `drill` runs [`ppm_tools::drill::recovery_drill`]: a root on FROM, one
//! job per listed host, display, locate and, with `kill=HOST`, SIGKILL
//! that host's LPM and wait for the respawn and re-adoption. A scenario
//! with a `kill=` runs its pmds with stable storage and LPM respawn.
//!
//! **Sim-only statements** — `crash`, `restart`, `link-down`, `link-up`,
//! `load`, and a `link` set that leaves some pair of hosts unlinked
//! (every other runtime is one LAN segment) — need the simulated world,
//! as do `ppm-sim --seed`, fault plans, a network model, the `--hosts`
//! chain and the `--users` storm. [`crate::sweep::run_cell`] refuses
//! them on every other runtime, with the offending line, before a host
//! boots.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use ppm_core::config::{PpmConfig, RecoveryPolicy};
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::{HarnessBuilder, HarnessError, PpmHarness, Runtime};
use ppm_harness::tenant::{self, scale_spec, TenantWorld};
use ppm_proto::msg::ControlAction;
use ppm_proto::types::{Gpid, Name, ProcRecord};
use ppm_runtime::events::TraceFlags;
use ppm_runtime::program::SpawnSpec;
use ppm_runtime::workload::DutyCycle;
use ppm_simnet::fault::FaultPlan;
use ppm_simnet::grammar::{self, LineError, Tokens};
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostId, NetGraph, NetSpec};
use ppm_simos::ids::Uid;
use ppm_simos::world::World;
use ppm_tools::computation::signal_computation;
use ppm_tools::display;
use ppm_tools::drill::{forest_nodes, recovery_drill, DrillReport};
use ppm_tools::forest::Forest;

use crate::digest::{fnv1a, fnv1a_fold};

/// The generated `--hosts N` scale scenario: a chain where each host's
/// worker is created from the previous host, so the sibling graph — and
/// thus the broadcast cover tree — is the chain itself. Shared by
/// `ppm-sim --hosts N` and the `ppm-sweep` chain axis, which must agree
/// byte for byte for cell digests to be reproducible.
#[must_use]
pub fn chain_scenario(n: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("seed 1986\n");
    for i in 0..n {
        let cpu = if i % 2 == 0 { "vax780" } else { "sun2" };
        writeln!(s, "host h{i} {cpu}").expect("write to string");
    }
    for i in 1..n {
        writeln!(s, "link h{} h{i}", i - 1).expect("write to string");
    }
    s.push_str("user 100 secret=0xBEEF recovery=h0,h1 fast\n\n");
    s.push_str("at 0s spawn h0 100 h0 job-0 as w0\n");
    for i in 1..n {
        writeln!(
            s,
            "at {}ms spawn h{} 100 h{i} job-{i} as w{i}",
            i * 200,
            i - 1,
        )
        .expect("write to string");
    }
    writeln!(s, "at {}ms snapshot h0 100 *", n * 200 + 2_000).expect("write to string");
    s.push_str("run 10s\n");
    s
}

/// A process reference: literal `host pid` pair or a `$name` binding.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcRef {
    /// Literal `<host, pid>`.
    Literal(Gpid),
    /// A name bound by `as NAME`.
    Named(Name),
}

/// One timed action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Create a process through the PPM.
    Spawn {
        from: Name,
        uid: u32,
        dest: Name,
        command: Name,
        bind: Option<Name>,
        lifetime: Option<SimDuration>,
        parent: Option<ProcRef>,
    },
    /// Adopt an existing process.
    Adopt {
        from: Name,
        uid: u32,
        host: Name,
        pid: u32,
    },
    /// Control one process.
    Control {
        from: Name,
        uid: u32,
        target: ProcRef,
        action: ControlAction,
    },
    /// Snapshot (`dest` may be `*`) and print the forest.
    Snapshot { from: Name, uid: u32, dest: Name },
    /// Print the display-tool dashboard.
    Dashboard { from: Name, uid: u32 },
    /// Print exited-process statistics.
    Rusage { from: Name, uid: u32, dest: Name },
    /// Print the history log.
    History { from: Name, uid: u32, dest: Name },
    /// Broadcast SIGKILL to a whole computation.
    KillTree { from: Name, uid: u32, root: ProcRef },
    /// Print a process's open descriptors.
    Files {
        from: Name,
        uid: u32,
        target: ProcRef,
    },
    /// Run the recovery drill: jobs on `jobs`, `kill`'s LPM the victim.
    Drill {
        from: Name,
        uid: u32,
        jobs: Vec<Name>,
        kill: Option<Name>,
    },
    /// Crash a host.
    Crash { host: Name },
    /// Restart a host.
    Restart { host: Name },
    /// Take a link down / bring it up.
    Link { a: Name, b: Name, up: bool },
}

impl Action {
    /// The statement, when only the simulated world can play it.
    pub(crate) fn sim_only(&self) -> Option<&'static str> {
        match self {
            Action::Crash { .. } => Some("crash"),
            Action::Restart { .. } => Some("restart"),
            Action::Link { up: false, .. } => Some("link-down"),
            Action::Link { up: true, .. } => Some("link-up"),
            _ => None,
        }
    }
}

/// A parsed scenario. Host names, commands, destinations and `$name`
/// bindings are [`Name`]s: a name the shipped scenarios use is held
/// inline, so parsing one allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// World seed.
    pub seed: u64,
    /// Hosts in declaration order.
    pub hosts: Vec<(Name, CpuClass)>,
    /// Links.
    pub links: Vec<(Name, Name)>,
    /// The line declaring the first host with no link to some host
    /// declared before it: a partial mesh, which only the sim can play.
    pub mesh_gap: Option<usize>,
    /// Users: uid → (secret, recovery list, config).
    pub users: Vec<(u32, u64, Vec<Name>, PpmConfig)>,
    /// Timed actions, in file order, each with its `time=` label.
    pub actions: Vec<(usize, SimTime, Action, Option<Name>)>,
    /// `load HOST AVG` statements: line, host and the average pinned.
    pub loads: Vec<(usize, Name, f64)>,
    /// `pmd stable|volatile`: whether pmds keep their registry on stable
    /// storage, when the file says.
    pub stable_storage: Option<bool>,
    /// Extra time to run after the last action.
    pub tail: SimDuration,
}

/// A process: `$name`, or a `host` and a pid; with the tokens it took.
fn proc_ref(host: Option<&str>, pid: Option<&str>) -> Result<(ProcRef, usize), String> {
    match host {
        Some(t) if t.starts_with('$') => Ok((ProcRef::Named(Name::new(&t[1..])), 1)),
        Some(host) => {
            let pid = grammar::id(pid.ok_or("expected HOST PID or $name")?)?;
            Ok((ProcRef::Literal(Gpid::new(host, pid)), 2))
        }
        None => Err("expected a process reference".into()),
    }
}

/// Parses a scenario from text, read by [`grammar::each_line`].
///
/// # Examples
///
/// ```
/// let scenario = ppm::scenario::parse(
///     "host a vax780\nhost b sun2\nlink a b\n\
///      user 100 secret=0xBEEF recovery=a\n\
///      at 1s spawn a 100 b job as j\nrun 5s",
/// )?;
/// assert_eq!(scenario.hosts.len(), 2);
/// assert_eq!(scenario.actions.len(), 1);
/// # Ok::<(), ppm::simnet::grammar::LineError>(())
/// ```
///
/// # Errors
///
/// [`LineError`] with the offending line number, or line 0 for a
/// scenario with no hosts or no users.
pub fn parse(text: &str) -> Result<Scenario, LineError> {
    let mut sc = Scenario {
        seed: 1986,
        tail: SimDuration::ZERO,
        ..Default::default()
    };
    let mut host_lines = Vec::new();
    grammar::each_line(text, |line| {
        let t = line.at(0);
        match t.verb() {
            "seed" => {
                sc.seed = grammar::count(t.need(1, "a value")?)?;
                t.end(2)?;
            }
            "host" => {
                let name = t.need(1, "a name")?;
                let cpu = match t.get(2) {
                    Some("vax780") | None => CpuClass::Vax780,
                    Some("vax750") => CpuClass::Vax750,
                    Some("sun2") => CpuClass::Sun2,
                    Some(other) => return Err(format!("unknown cpu {other:?}")),
                };
                t.end(3)?;
                if sc.hosts.iter().any(|(h, _)| h == name) {
                    return Err(format!("host {name:?} is declared twice"));
                }
                sc.hosts.push((Name::new(name), cpu));
                host_lines.push(line.no);
            }
            "link" => {
                let (a, b) = (t.need(1, "two hosts")?, t.need(2, "two hosts")?);
                t.end(3)?;
                if a == b {
                    return Err(format!("link joins {a:?} to itself"));
                }
                for end in [a, b] {
                    if !sc.hosts.iter().any(|(h, _)| h == end) {
                        return Err(format!("link names undeclared host {end:?}"));
                    }
                }
                sc.links.push((Name::new(a), Name::new(b)));
            }
            "load" => {
                let (Some(host), Some(avg), 3) = (t.get(1), t.get(2), t.0.len()) else {
                    return Err("load takes HOST AVG".into());
                };
                if !sc.hosts.iter().any(|(h, _)| h == host) {
                    return Err(format!("load names undeclared host {host:?}"));
                }
                if sc.loads.iter().any(|(_, h, _)| h == host) {
                    return Err(format!("load of {host:?} is given twice"));
                }
                let avg: f64 = avg
                    .parse()
                    .map_err(|_| format!("bad load average {avg:?}"))?;
                // Spinners come in halves of a process: 0, or 0.25 to MAX_LOAD.
                if !(avg == 0.0 || (0.25..=MAX_LOAD).contains(&avg)) {
                    return Err(format!("cannot pin a load average of {avg}"));
                }
                sc.loads.push((line.no, Name::new(host), avg));
            }
            "pmd" => {
                sc.stable_storage = match (t.get(1), t.0.len()) {
                    (Some("stable"), 2) => Some(true),
                    (Some("volatile"), 2) => Some(false),
                    _ => return Err("pmd takes stable or volatile".into()),
                };
            }
            "user" => {
                let uid = grammar::id(t.need(1, "a uid")?)?;
                if sc.users.iter().any(|u| u.0 == uid) {
                    return Err(format!("user {uid} is declared twice"));
                }
                let mut secret = 0u64;
                let mut recovery = Vec::new();
                // `fast` sets timers only, so it goes first wherever it is.
                let mut cfg = if t.0[2..].contains(&"fast") {
                    PpmConfig::fast_recovery()
                } else {
                    PpmConfig::default()
                };
                let declared = |h: &str| {
                    let known = sc.hosts.iter().any(|(d, _)| d == h);
                    let unknown = || format!("user names undeclared host {h:?}");
                    known.then(|| Name::new(h)).ok_or_else(unknown)
                };
                for &opt in &t.0[2..] {
                    match grammar::option(opt) {
                        ("secret", Some(v)) => secret = grammar::count(v)?,
                        ("recovery", Some(v)) => {
                            recovery = v.split(',').map(declared).collect::<Result<_, _>>()?;
                        }
                        ("nameserver", Some(v)) => {
                            let host = declared(v)?;
                            cfg.recovery_policy = RecoveryPolicy::NameServer { host };
                        }
                        ("window", Some(v)) => cfg.bcast_window = grammar::duration(v)?,
                        ("fast", None) => {}
                        ("noagg", None) => cfg.reply_splicing = false,
                        ("noreuse", None) => cfg.handler_reuse = false,
                        ("noroutes", None) => cfg.route_learning = false,
                        _ => return Err(format!("unknown user option {opt:?}")),
                    }
                }
                sc.users.push((uid, secret, recovery, cfg));
            }
            "at" => {
                let at = grammar::instant(t.need(1, "a time")?)?;
                let label = take_label(&mut line.tokens)?;
                line.at(0).need(2, "an action")?;
                let action = parse_action(line.at(2))?;
                sc.actions.push((line.no, at, action, label));
            }
            "run" => {
                sc.tail += grammar::duration(t.need(1, "a duration")?)?;
                t.end(2)?;
                if sc.tail.as_micros() > SimTime::FAR_FUTURE.as_micros() {
                    return Err("run durations add up out of range".into());
                }
            }
            other => return Err(format!("unknown statement {other:?}")),
        }
        Ok(())
    })?;
    if sc.hosts.is_empty() {
        return Err("scenario declares no hosts".into());
    }
    if sc.users.is_empty() {
        return Err("scenario declares no users".into());
    }
    let joins = |a: &str, b: &str| {
        sc.links
            .iter()
            .any(|(x, y)| [x, y] == [a, b] || [y, x] == [a, b])
    };
    let gap = |i: usize| sc.hosts[..i].iter().any(|(h, _)| !joins(h, &sc.hosts[i].0));
    sc.mesh_gap = (1..sc.hosts.len()).find(|&i| gap(i)).map(|i| host_lines[i]);
    Ok(sc)
}

/// Takes the `time=LABEL` token off an `at` line, if it has one: the
/// label its action's elapsed time is reported under.
fn take_label(tokens: &mut Vec<&str>) -> Result<Option<Name>, String> {
    let is_label = |t: &&str| t.starts_with("time=");
    let Some(i) = tokens.iter().skip(3).position(is_label) else {
        return Ok(None);
    };
    let label = Name::new(&tokens.remove(3 + i)["time=".len()..]);
    if label.is_empty() {
        return Err("time= needs a label".into());
    }
    if tokens.iter().skip(3).any(is_label) {
        return Err("time= is given twice".into());
    }
    match tokens[2] {
        "spawn" | "control" | "snapshot" => Ok(Some(label)),
        verb => Err(format!("{verb} takes no time= label")),
    }
}

/// The action `t` names, its verb first.
fn parse_action(t: Tokens) -> Result<Action, String> {
    let name = |i, what| t.need(i, what).map(Name::new);
    let from = || name(1, "FROM");
    let uid = || grammar::id(t.need(2, "UID")?);
    match t.verb() {
        "spawn" => {
            let (from, uid) = (from()?, uid()?);
            let (dest, command) = (name(3, "DEST")?, name(4, "COMMAND")?);
            let (mut bind, mut lifetime, mut parent) = (None, None, None);
            let mut i = 5;
            while let Some(opt) = t.get(i) {
                match grammar::option(opt) {
                    ("as", None) => {
                        bind = Some(name(i + 1, "a name after `as`")?);
                        i += 1;
                    }
                    ("lifetime", Some(v)) => lifetime = Some(grammar::duration(v)?),
                    ("parent", Some(v)) => {
                        let mut toks = v.split(':');
                        parent = Some(proc_ref(toks.next(), toks.next())?.0);
                    }
                    _ => return Err(format!("unknown spawn option {opt:?}")),
                }
                i += 1;
            }
            Ok(Action::Spawn {
                from,
                uid,
                dest,
                command,
                bind,
                lifetime,
                parent,
            })
        }
        "adopt" => {
            let (from, uid, host) = (from()?, uid()?, name(3, "HOST")?);
            let pid = grammar::id(t.need(4, "PID")?)?;
            t.end(5)?;
            Ok(Action::Adopt {
                from,
                uid,
                host,
                pid,
            })
        }
        "control" => {
            let (from, uid) = (from()?, uid()?);
            let (target, used) = proc_ref(t.get(3), t.get(4))?;
            let action = match t.need(3 + used, "stop|fg|bg|kill")? {
                "stop" => ControlAction::Stop,
                "fg" => ControlAction::Foreground,
                "bg" => ControlAction::Background,
                "kill" => ControlAction::Kill,
                other => return Err(format!("unknown control verb {other:?}")),
            };
            t.end(4 + used)?;
            Ok(Action::Control {
                from,
                uid,
                target,
                action,
            })
        }
        "snapshot" | "rusage" | "history" => {
            let (from, uid, dest) = (from()?, uid()?, name(3, "DEST")?);
            t.end(4)?;
            Ok(match t.verb() {
                "snapshot" => Action::Snapshot { from, uid, dest },
                "rusage" => Action::Rusage { from, uid, dest },
                _ => Action::History { from, uid, dest },
            })
        }
        "dashboard" => {
            let (from, uid) = (from()?, uid()?);
            t.end(3)?;
            Ok(Action::Dashboard { from, uid })
        }
        "killtree" => {
            let (from, uid) = (from()?, uid()?);
            let (root, used) = proc_ref(t.get(3), t.get(4))?;
            t.end(3 + used)?;
            Ok(Action::KillTree { from, uid, root })
        }
        "files" => {
            let (from, uid) = (from()?, uid()?);
            let (target, used) = proc_ref(t.get(3), t.get(4))?;
            t.end(3 + used)?;
            Ok(Action::Files { from, uid, target })
        }
        "drill" => {
            let (from, uid) = (from()?, uid()?);
            let jobs: Vec<Name> = t
                .need(3, "HOST[,HOST..]")?
                .split(',')
                .map(Name::new)
                .collect();
            let kill = t.get(4).map(|opt| match grammar::option(opt) {
                ("kill", Some(host)) if !host.is_empty() => Some(host),
                _ => None,
            });
            let kill = match kill {
                Some(Some(host)) if t.0.len() == 5 => Some(Name::new(host)),
                None if !jobs.iter().any(|job| job.is_empty()) => None,
                _ => return Err("drill takes FROM UID HOST[,HOST..] [kill=HOST]".into()),
            };
            Ok(Action::Drill {
                from,
                uid,
                jobs,
                kill,
            })
        }
        "crash" | "restart" => {
            let host = name(1, "HOST")?;
            t.end(2)?;
            Ok(match t.verb() {
                "crash" => Action::Crash { host },
                _ => Action::Restart { host },
            })
        }
        "link-down" | "link-up" => {
            let (a, b) = (name(1, "A")?, name(2, "B")?);
            t.end(3)?;
            let up = t.verb() == "link-up";
            Ok(Action::Link { a, b, up })
        }
        other => Err(format!("unknown action {other:?}")),
    }
}

/// Execution knobs for [`execute_with`] and the storm.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Record structured spans from the first event.
    pub spans: bool,
    /// A fault plan applied before the first action (`ppm-sim --faults`).
    /// Enables LPM respawn and (unless a scenario says `pmd volatile`)
    /// pmd stable storage, so the world can heal from the faults the plan
    /// injects.
    pub faults: Option<&'a FaultPlan>,
    /// A physical network model installed before the first action
    /// (`ppm-sim --topology`): deliveries are priced over its routes with
    /// per-link capacity and contention instead of the flat wire law.
    pub topology: Option<&'a NetSpec>,
}

/// A pmd that can bring LPMs back: registries on stable storage, dead
/// LPMs respawned.
const RECOVERING: PmdOptions = PmdOptions {
    stable_storage: true,
    respawn_lpms: true,
};

impl ExecOptions<'_> {
    /// `builder` plus what must be settled before the sim world boots:
    /// the network model and, for a faulted run, a pmd that can bring
    /// LPMs back.
    fn builder(
        &self,
        mut builder: HarnessBuilder,
        host_names: impl FnOnce() -> Vec<String>,
    ) -> Result<HarnessBuilder, LineError> {
        if let Some(spec) = self.topology {
            // Dry-run the graph build so a bad spec (unknown endpoint, name
            // collision with a host) surfaces as a scenario error instead of
            // a harness panic.
            NetGraph::build(spec, &host_names()).map_err(LineError::from)?;
            builder = builder.topology(spec.clone());
        }
        if self.faults.is_some() {
            // A faulted run only makes sense if the system is allowed to
            // recover.
            builder = builder.pmd_options(RECOVERING);
        }
        Ok(builder)
    }

    /// What is switched on once the world has booted: span recording and
    /// the fault plan.
    fn arm<R: Runtime + AsRef<World> + AsMut<World>>(
        &self,
        ppm: &mut PpmHarness<R>,
        out: &mut dyn fmt::Write,
    ) -> Result<(), LineError> {
        if self.spans {
            ppm.enable_spans();
        }
        if let Some(plan) = self.faults {
            ppm.world_mut()
                .apply_fault_plan(plan)
                .map_err(LineError::from)?;
            let _ = writeln!(
                out,
                "--- fault plan armed: {} scheduled fault(s), {} wire rule(s), seed {}",
                plan.events.len(),
                plan.wire.len(),
                plan.seed
            );
        }
        Ok(())
    }
}

/// Plays the canonical `users × hosts` storm ([`scale_spec`]) of `procs`
/// forks — the whole of `ppm-sim --users U --hosts N` — writing its
/// report through `out`, its trace recorded if `trace`. Refuses a world
/// larger than [`tenant::MAX_STORM_CELLS`], a bad topology or a bad
/// fault plan.
pub(crate) fn execute_storm(
    users: u32,
    hosts: u16,
    seed: u64,
    procs: u64,
    out: &mut dyn fmt::Write,
    opts: ExecOptions<'_>,
    trace: bool,
) -> Result<PpmHarness, LineError> {
    tenant::storm_fits(users, hosts).map_err(LineError::from)?;
    let builder = PpmHarness::builder().trace(trace);
    let builder = opts.builder(builder, || tenant::host_names(hosts))?;
    let mut world = TenantWorld::boot(builder, scale_spec(users, hosts, seed), procs);
    opts.arm(&mut world.ppm, out)?;
    let report = world.run();
    let _ = out.write_str(&report.render());
    Ok(world.ppm)
}

/// A scenario played on runtime `R`, to its end or to the action that
/// failed.
pub struct Played<R: Runtime = World> {
    /// The harness, for post-run inspection — its trace and metrics say
    /// how far a failed play got.
    pub ppm: PpmHarness<R>,
    /// The observable digest: an FNV-1a fold of what the actions returned
    /// (gpids, logical parents, commands, states, adopted flags,
    /// `missing` host sets, reachability, killtree counts), with every
    /// clock value left out. A scenario every runtime can play folds the
    /// same value on each. Or the error of the action that failed.
    pub observed: Result<u64, LineError>,
    /// Each `time=` labelled action played, in play order: its label and
    /// the tool's elapsed time from request sent to reply, µs.
    pub times: Vec<(String, u64)>,
}

/// Executes a parsed scenario on the simulation, writing tool output
/// through `out`; returns the harness for post-run inspection, its trace
/// recorded from boot.
///
/// # Errors
///
/// [`LineError`] naming the failing action's line, or (line 0) a
/// fault plan referencing an unknown host.
pub fn execute_with(
    sc: &Scenario,
    out: &mut dyn fmt::Write,
    opts: ExecOptions<'_>,
) -> Result<PpmHarness, LineError> {
    let played = execute_played(sc, out, opts, true, |world| world)?;
    played.observed.map(|_| played.ppm)
}

/// Like [`execute_with`], keeping the observable digest, and the harness
/// when an action fails; the trace is recorded only if `trace`. The
/// built world is handed to `wrap` before it boots
/// ([`HarnessBuilder::build_with`]): the identity plays the sim's run.
///
/// # Errors
///
/// A fault plan or topology the world refuses, with its line.
pub fn execute_played<R: Runtime + AsRef<World> + AsMut<World> + 'static>(
    sc: &Scenario,
    out: &mut dyn fmt::Write,
    opts: ExecOptions<'_>,
    trace: bool,
    wrap: impl FnOnce(World) -> R,
) -> Result<Played<R>, LineError> {
    let host_names = || sc.hosts.iter().map(|(n, _)| n.to_string()).collect();
    let builder = opts.builder(PpmHarness::builder(), host_names)?;
    let mut builder = scenario_builder(sc, builder, opts.faults.is_some());
    for (a, b) in &sc.links {
        builder = builder.link(a, b);
    }
    let mut ppm = builder.trace(trace).seed(sc.seed).build_with(wrap);
    if !sc.loads.is_empty() {
        ppm.world_mut().time_kernel_delivery();
    }
    for (line, host, avg) in &sc.loads {
        let host = ppm
            .host(host)
            .map_err(|e| LineError::new(*line, e.to_string()))?;
        pin_load(ppm.world_mut(), host, *avg);
    }
    opts.arm(&mut ppm, out)?;
    let mut times = Vec::new();
    let observed = play(sc, &mut ppm, out, &sim_world, &mut times);
    Ok(Played {
        ppm,
        observed,
        times,
    })
}

/// Plays a scenario on another runtime — a real loopback cluster — as
/// one LAN segment. What only the sim can play has
/// been refused by [`crate::sweep::run_cell`]; an action that fails is
/// [`Played::observed`]'s error.
pub(crate) fn execute_on<R: Runtime>(sc: &Scenario, rt: R, out: &mut dyn fmt::Write) -> Played<R> {
    let mut ppm = scenario_builder(sc, PpmHarness::builder(), false).build_on(rt);
    let mut times = Vec::new();
    let observed = play(sc, &mut ppm, out, &|_, _, _| Ok(()), &mut times);
    Played {
        ppm,
        observed,
        times,
    }
}

/// What every runtime boots for `sc` on `builder`: its hosts and
/// accounts and, when it is `faulted` or a drill kills an LPM, a pmd that
/// brings LPMs back; `pmd stable|volatile` has the last word on its
/// stable storage.
fn scenario_builder(sc: &Scenario, mut builder: HarnessBuilder, faulted: bool) -> HarnessBuilder {
    for (name, cpu) in &sc.hosts {
        builder = builder.host(name.as_str(), *cpu);
    }
    for (uid, secret, recovery, cfg) in &sc.users {
        let rec: Vec<&str> = recovery.iter().map(Name::as_str).collect();
        builder = builder.user(Uid(*uid), *secret, &rec, cfg.clone());
    }
    let kills = |(_, _, a, _): &_| matches!(a, Action::Drill { kill: Some(_), .. });
    let respawn_lpms = faulted || sc.actions.iter().any(kills);
    builder.pmd_options(PmdOptions {
        stable_storage: sc.stable_storage.unwrap_or(respawn_lpms),
        respawn_lpms,
    })
}

/// The most load a `load` statement pins: sixteen spinners.
const MAX_LOAD: f64 = 8.0;

/// Pins `host`'s load average near `avg` as Table 1 is measured: `2·avg`
/// spinners of uid 1 (rounded), each runnable for its share of a 400 ms
/// period, from the world's first instant.
fn pin_load(world: &mut World, host: HostId, avg: f64) {
    let n = (avg * 2.0).round();
    for i in 0..n as usize {
        let spin = DutyCycle::new(avg / n, SimDuration::from_millis(400));
        let spec = SpawnSpec::new(format!("spin{i}"), Box::new(spin));
        let spawned = world.spawn_user(host, Uid(1), spec);
        spawned.expect("a booted host takes a spinner");
    }
}

/// The one way a sim-only statement (`crash`, `restart`, `link-down`,
/// `link-up`) reaches the simulated world, and the world's network
/// section reaches a dashboard's text. Only [`execute_played`] hands
/// [`play`] this one; every other runtime hands it a no-op, having
/// refused those statements before it booted.
fn sim_world<R: Runtime + AsRef<World> + AsMut<World>>(
    ppm: &mut PpmHarness<R>,
    action: &Action,
    text: &mut String,
) -> Result<(), HarnessError> {
    let now = SimDuration::ZERO;
    match action {
        Action::Crash { host } => {
            let h = ppm.host(host)?;
            ppm.world_mut().schedule_crash(h, now);
        }
        Action::Restart { host } => {
            let h = ppm.host(host)?;
            ppm.world_mut().schedule_restart(h, now);
        }
        Action::Link { a, b, up } => {
            let (ha, hb) = (ppm.host(a)?, ppm.host(b)?);
            ppm.world_mut().schedule_link(ha, hb, *up, now);
        }
        Action::Dashboard { .. } => text.extend(display::net_section(ppm)),
        _ => {}
    }
    Ok(())
}

/// What [`play`] hands a sim-only statement and a dashboard's text to:
/// [`sim_world`] on the sim, a no-op elsewhere.
type SimHook<R> = dyn Fn(&mut PpmHarness<R>, &Action, &mut String) -> Result<(), HarnessError>;

/// FNV-1a as a [`Hasher`]: what [`play`] folds [`Played::observed`] with.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }
}

impl Fnv {
    fn new() -> Self {
        Fnv(fnv1a(&[]))
    }

    /// Folds `items` in any order: each on its own, the folds summed.
    fn set<T: Hash>(&mut self, items: impl Iterator<Item = T>) {
        let one = |item: T| {
            let mut fnv = Fnv::new();
            item.hash(&mut fnv);
            fnv.0
        };
        let (n, sum) = items.fold((0u64, 0u64), |(n, sum), item| {
            (n + 1, sum.wrapping_add(one(item)))
        });
        (n, sum).hash(self);
    }

    fn procs(&mut self, procs: &[ProcRecord]) {
        self.set(
            procs
                .iter()
                .map(|p| (&p.gpid, &p.logical_parent, &*p.command, p.state, p.adopted)),
        );
    }
}

/// Plays `sc`'s actions in time order on a booted harness, then its
/// tail; returns the observable digest. `sim` plays what only the sim
/// can (see [`sim_world`]); each labelled action's elapsed time goes to
/// `times`.
fn play<R: Runtime>(
    sc: &Scenario,
    ppm: &mut PpmHarness<R>,
    out: &mut dyn fmt::Write,
    sim: &SimHook<R>,
    times: &mut Vec<(String, u64)>,
) -> Result<u64, LineError> {
    let mut bindings: HashMap<&str, Gpid> = HashMap::new();
    let mut seen = Fnv::new();
    let mut actions: Vec<_> = sc.actions.iter().collect();
    actions.sort_by_key(|(_, at, _, _)| *at);
    let resolve = |r: &ProcRef, bindings: &HashMap<&str, Gpid>, line| match r {
        ProcRef::Literal(g) => Ok(g.clone()),
        ProcRef::Named(n) => bindings
            .get(n.as_str())
            .cloned()
            .ok_or_else(|| LineError::new(line, format!("unbound process name ${n}"))),
    };
    let lift = |line: usize| move |e: HarnessError| LineError::new(line, e.to_string());

    for &(line, at, ref action, ref label) in actions {
        if at > ppm.now() {
            let wait = at.saturating_since(ppm.now());
            ppm.run_for(wait);
        }
        let _ = writeln!(out, "--- [{at}] {action:?}");
        match action {
            Action::Spawn {
                from,
                uid,
                dest,
                command,
                bind,
                lifetime,
                parent,
            } => {
                let parent = match parent {
                    Some(r) => Some(resolve(r, &bindings, line)?),
                    None => None,
                };
                let g = ppm
                    .spawn_remote(from, Uid(*uid), dest, command, parent, *lifetime)
                    .map_err(lift(line))?;
                let _ = writeln!(out, "created {g}");
                g.hash(&mut seen);
                if let Some(name) = bind {
                    bindings.insert(name.as_str(), g);
                }
            }
            Action::Adopt {
                from,
                uid,
                host,
                pid,
            } => {
                ppm.adopt(from, Uid(*uid), host, *pid, TraceFlags::ALL.bits())
                    .map_err(lift(line))?;
            }
            Action::Control {
                from,
                uid,
                target,
                action,
            } => {
                let g = resolve(target, &bindings, line)?;
                ppm.control(from, Uid(*uid), &g, *action)
                    .map_err(lift(line))?;
            }
            Action::Snapshot { from, uid, dest } => {
                let (procs, missing) = ppm
                    .snapshot_partial(from, Uid(*uid), dest)
                    .map_err(lift(line))?;
                seen.procs(&procs);
                seen.set(missing.iter());
                let title = format!("snapshot of {dest}");
                let text = ppm_tools::snapshot::render_partial(procs, &title, &missing);
                let _ = writeln!(out, "{text}");
            }
            Action::Dashboard { from, uid } => {
                let (rows, procs, missing) =
                    display::gather(ppm, from, Uid(*uid)).map_err(lift(line))?;
                for row in &rows {
                    (&row.host, row.reachable, row.managed).hash(&mut seen);
                }
                seen.procs(&procs);
                seen.set(missing.iter());
                let forest = Forest::build(procs);
                let mut text = display::render_dashboard(from, Uid(*uid), &rows, &forest, &missing);
                sim(ppm, action, &mut text).map_err(lift(line))?;
                let _ = writeln!(out, "{text}");
            }
            Action::Rusage { from, uid, dest } => {
                let records = ppm
                    .rusage(from, Uid(*uid), dest, None)
                    .map_err(lift(line))?;
                seen.set(
                    records
                        .iter()
                        .map(|r| (&r.gpid, r.command.as_str(), r.status)),
                );
                let title = format!("exited on {dest}");
                let _ = writeln!(out, "{}", ppm_tools::rusage_tool::render(&records, &title));
            }
            Action::History { from, uid, dest } => {
                let events = ppm
                    .history(from, Uid(*uid), dest, SimTime::ZERO, 200)
                    .map_err(lift(line))?;
                seen.set(events.iter().map(|e| (&e.gpid, &e.kind)));
                let title = format!("history of {dest}");
                let _ = writeln!(out, "{}", ppm_tools::history_tool::render(&events, &title));
            }
            Action::KillTree { from, uid, root } => {
                let g = resolve(root, &bindings, line)?;
                let n = signal_computation(ppm, from, Uid(*uid), &g, ControlAction::Kill)
                    .map_err(lift(line))?;
                n.hash(&mut seen);
                let _ = writeln!(out, "killed {n} member(s) of {g}");
            }
            Action::Files { from, uid, target } => {
                let g = resolve(target, &bindings, line)?;
                let fds = ppm.open_files(from, Uid(*uid), &g).map_err(lift(line))?;
                seen.set(fds.iter().map(|e| (e.fd, &e.kind)));
                let title = format!("descriptors of {g}");
                let _ = writeln!(out, "{}", ppm_tools::files_tool::render_fds(&fds, &title));
            }
            Action::Drill {
                from,
                uid,
                jobs,
                kill,
            } => {
                let jobs: Vec<&str> = jobs.iter().map(Name::as_str).collect();
                let report = recovery_drill(ppm, Uid(*uid), from, &jobs, kill.as_deref())
                    .map_err(|e| LineError::new(line, e))?;
                (&report.root, &report.jobs, &report.sites.hosts).hash(&mut seen);
                seen.procs(&report.procs);
                let recovery = report.recovery.as_ref();
                recovery
                    .map(|r| (r.victim, r.respawned, &r.forest, &r.after))
                    .hash(&mut seen);
                print_drill(out, &report, &ppm.host_names());
            }
            Action::Crash { .. } | Action::Restart { .. } | Action::Link { .. } => {
                sim(ppm, action, &mut String::new()).map_err(lift(line))?;
            }
        }
        if let (Some(label), Some(elapsed)) = (label, ppm.last_elapsed()) {
            times.push((label.to_string(), elapsed.as_micros()));
        }
    }
    if !sc.tail.is_zero() {
        ppm.run_for(sc.tail);
    }
    let _ = writeln!(out, "--- scenario complete at {}", ppm.now());
    Ok(seen.0)
}

/// What a drill observed, one act a line: exec, display, locate and,
/// when an LPM was killed, kill, respawn, re-adopt and new work.
fn print_drill(out: &mut dyn fmt::Write, report: &DrillReport, hosts: &[String]) {
    let root = &report.root;
    let _ = writeln!(out, "exec    root {root} (inetd -> pmd -> LPM)");
    for g in &report.jobs {
        let _ = writeln!(out, "exec    job {g} (logical parent {})", root.pid);
    }
    let _ = writeln!(out, "display {} managed processes:", report.procs.len());
    for name in hosts {
        let nodes = forest_nodes(&report.procs, name);
        let _ = writeln!(out, "display   {name}: {nodes:?}");
    }
    let sites = &report.sites.hosts;
    let _ = writeln!(out, "locate  computation {} runs on {sites:?}", root.pid);
    if let Some(r) = &report.recovery {
        let (victim, respawned, host) = (r.victim.0, r.respawned.0, &r.after.host);
        let _ = writeln!(out, "kill    SIGKILL {host} LPM (pid {victim})");
        let _ = writeln!(
            out,
            "respawn pmd restarted the LPM as pid {respawned} after {}",
            r.respawn_after
        );
        let _ = writeln!(
            out,
            "readopt forest node set restored {:?} after {}",
            r.forest, r.readopt_after
        );
        let _ = writeln!(out, "exec    job {} on the respawned LPM", r.after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_proto::codec::MAX_STR_BYTES;

    const DEMO: &str = r#"
# demo scenario
seed 7
host a vax780
host b vax750
link a b
user 100 secret=0xBEEF recovery=a,b fast

at 0s    spawn a 100 a master as m
at 100ms spawn a 100 b worker as w parent=$m lifetime=5s
at 1s    control a 100 $w stop
at 2s    control a 100 $w bg
at 3s    snapshot a 100 *
at 4s    crash b
at 6s    restart b
at 8s    dashboard a 100
run 2s
"#;

    #[test]
    fn parses_the_demo() {
        let sc = parse(DEMO).unwrap();
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.hosts.len(), 2);
        assert_eq!(sc.links.len(), 1);
        assert_eq!(sc.users.len(), 1);
        assert_eq!(sc.actions.len(), 8);
        assert_eq!(sc.tail, SimDuration::from_secs(2));
        assert_eq!(sc.users[0].1, 0xBEEF);
        assert_eq!(sc.users[0].2, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn executes_the_demo() {
        let sc = parse(DEMO).unwrap();
        let mut out = String::new();
        let ppm = execute_with(&sc, &mut out, ExecOptions::default()).unwrap();
        assert!(out.contains("created <a,"), "{out}");
        assert!(out.contains("snapshot of *"));
        assert!(out.contains("worker"));
        assert!(out.contains("PPM display"));
        assert!(out.contains("scenario complete"));
        assert!(ppm.now() >= SimTime::from_secs(10));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse("host a vax780\nuser 1 secret=1\nat 1s bogus x").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));

        let e = parse("host a cray1\nuser 1 secret=1").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse("user 1 secret=1").unwrap_err();
        assert!(e.message.contains("no hosts"));

        // A token past the ones a statement reads is refused, not dropped.
        let head = "host a\nhost b\nuser 1\n";
        for (line, extra) in [
            (
                "at 1s snapshot a 1 * junk more",
                "snapshot has an extra token \"junk\"",
            ),
            (
                "at 2s crash b now please",
                "crash has an extra token \"now\"",
            ),
            (
                "at 2s control a 1 $m stop now",
                "control has an extra token \"now\"",
            ),
            (
                "at 2s link-down a b c",
                "link-down has an extra token \"c\"",
            ),
            ("seed 7 8", "seed has an extra token \"8\""),
            ("run 1s 2s", "run has an extra token \"2s\""),
        ] {
            let e = parse(&format!("{head}{line}")).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (4, extra), "{line}");
        }
    }

    #[test]
    fn ids_past_32_bits_are_line_numbered_errors() {
        // 4294967396 is 2^32 + 100: it used to wrap to uid 100.
        let e = parse("host a vax780\nuser 4294967396 secret=1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("32 bits"), "{e}");

        let user = "host a vax780\nuser 100 secret=1\n";
        for action in [
            "at 1s snapshot a 4294967396 *",
            "at 1s adopt a 100 a 4294967297",
            "at 1s control a 100 a 0x100000004 stop",
            "at 1s spawn a 100 a job parent=a:4294967297",
            "at 1s drill a 4294967396 a",
        ] {
            let e = parse(&format!("{user}{action}")).unwrap_err();
            assert_eq!(e.line, 3, "{action}: {e}");
            assert!(e.message.contains("32 bits"), "{action}: {e}");
        }
    }

    #[test]
    fn tokens_past_a_protocol_string_are_line_numbered_errors() {
        let long = "x".repeat(70_000);
        let user = "host a vax780\nuser 100 secret=1\n";
        for (text, at) in [
            (format!("host {long}"), 1),
            (format!("{user}at 1s spawn a 100 a {long}"), 3),
            (format!("{user}at 1s spawn a 100 {long} job"), 3),
            (format!("{user}at 1s snapshot a 100 {long}"), 3),
        ] {
            let e = parse(&text).unwrap_err();
            assert_eq!(e.line, at, "{e}");
            assert!(e.message.contains("70000 bytes"), "{e}");
        }
        // The longest a protocol string carries is still a command.
        let most = "y".repeat(MAX_STR_BYTES);
        assert!(parse(&format!("{user}at 1s spawn a 100 a {most}")).is_ok());
        assert_eq!(MAX_STR_BYTES, grammar::MAX_TOKEN_BYTES);
        // Every other file is read by the same reader, so bound alike.
        let path = std::path::Path::new(".");
        for e in [
            FaultPlan::parse(&format!("seed 1\nat 1s crash {long}")).unwrap_err(),
            NetSpec::parse(&format!("switch s\nlink a {long}")).unwrap_err(),
            crate::sweep::Grid::parse(&format!("sweep x\nexpect {long}"), path).unwrap_err(),
        ] {
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("70000 bytes"), "{e}");
        }
    }

    #[test]
    fn a_user_declared_twice_is_a_line_numbered_error() {
        let e = parse("host a vax780\nuser 100 secret=1\n\nuser 100 secret=2").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("user 100 is declared twice"), "{e}");
    }

    #[test]
    fn parses_a_drill() {
        let sc = parse("host a vax780\nuser 1 secret=1\nat 0s drill a 1 b,c kill=b").unwrap();
        let drill = Action::Drill {
            from: "a".into(),
            uid: 1,
            jobs: vec!["b".into(), "c".into()],
            kill: Some("b".into()),
        };
        assert_eq!(sc.actions[0].2, drill);
        assert_eq!(sc.actions[0].3, None);
        for bad in [
            "drill a 1",
            "drill a 1 b,,c",
            "drill a 1 b kill=",
            "drill a 1 b x=y",
            "drill a 1 b kill=b z",
        ] {
            let e = parse(&format!("host a vax780\nuser 1 secret=1\nat 0s {bad}")).unwrap_err();
            assert_eq!(e.line, 3, "{bad}: {e}");
        }
    }

    #[test]
    fn a_time_label_rides_beside_its_action() {
        let user = "host a vax780\nuser 1 secret=1\n";
        let sc = parse(&format!(
            "{user}at 0s spawn a 1 a job as j time=create\n\
             at 1s control a 1 $j stop time=stop\n\
             at 2s snapshot a 1 * time=snap\n\
             at 3s snapshot a 1 *"
        ))
        .unwrap();
        let labels: Vec<_> = sc.actions.iter().map(|a| a.3.as_deref()).collect();
        assert_eq!(labels, [Some("create"), Some("stop"), Some("snap"), None]);
        // The label is not part of the action: its printed line is unchanged.
        assert_eq!(sc.actions[2].2, sc.actions[3].2);
        assert!(matches!(&sc.actions[0].2, Action::Spawn { bind: Some(b), .. } if b == "j"));

        for (bad, says) in [
            ("at 1s snapshot a 1 * time=", "needs a label"),
            ("at 1s crash a time=x", "crash takes no time="),
            ("at 1s dashboard a 1 time=x", "dashboard takes no time="),
            ("at 1s snapshot a 1 * time=x time=y", "given twice"),
            ("at 1s spawn a 1 a job time=x as j time=x", "given twice"),
        ] {
            let e = parse(&format!("{user}\n{bad}")).unwrap_err();
            assert_eq!(e.line, 4, "{bad}: {e}");
            assert!(e.message.contains(says), "{bad}: {e}");
        }
    }

    #[test]
    fn duration_parsing() {
        let run = |d: &str| parse(&format!("host a vax780\nuser 1 secret=1\nrun {d}"));
        assert_eq!(run("250ms").unwrap().tail, SimDuration::from_millis(250));
        assert_eq!(run("3s").unwrap().tail, SimDuration::from_secs(3));
        for bad in ["10", "5h"] {
            assert_eq!(run(bad).unwrap_err().line, 3, "{bad}");
        }
    }

    #[test]
    fn unbound_name_is_an_execution_error() {
        let text =
            "host a vax780\nuser 100 secret=1 recovery=a\nat 1s control a 100 $ghost kill\nrun 1s";
        let sc = parse(text).unwrap();
        let mut out = String::new();
        let e = execute_with(&sc, &mut out, ExecOptions::default()).unwrap_err();
        assert!(e.message.contains("$ghost"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn the_exhibit_spellings_set_existing_settings() {
        let sc = parse(
            "host a vax780\nhost b sun2\nload b 1.5\npmd volatile\n\
             user 7 secret=1 noreuse noroutes window=60ms fast noagg\n\
             at 1s files a 7 b 5",
        )
        .unwrap();
        assert_eq!(sc.loads, vec![(3, Name::new("b"), 1.5)]);
        assert_eq!(sc.stable_storage, Some(false));
        let cfg = &sc.users[0].3;
        let want = PpmConfig {
            handler_reuse: false,
            route_learning: false,
            reply_splicing: false,
            bcast_window: SimDuration::from_millis(60),
            ..PpmConfig::fast_recovery()
        };
        assert_eq!(*cfg, want, "`fast` keeps what the other options set");
        let files = Action::Files {
            from: "a".into(),
            uid: 7,
            target: ProcRef::Literal(Gpid::new("b", 5)),
        };
        assert_eq!(sc.actions[0].2, files);
        let sc = parse("host a vax780\nuser 7 secret=1\npmd stable").unwrap();
        assert_eq!((sc.loads.len(), sc.stable_storage), (0, Some(true)));
    }

    #[test]
    fn a_load_times_kernel_delivery_and_nothing_else_does() {
        let text = "host a vax780\nuser 7 secret=1 recovery=a\n\
                    at 300s spawn a 7 a job as j\nat 301s control a 7 $j stop\nrun 1s";
        let metrics = |text: &str| {
            let sc = parse(text).unwrap();
            let ppm = execute_with(&sc, &mut String::new(), ExecOptions::default()).unwrap();
            ppm.metrics_report()
        };
        assert!(!metrics(text).contains("kernel.delivery_us"));
        let loaded = metrics(&text.replace("user", "load a 1\nuser"));
        let line = loaded.lines().find(|l| l.contains(" kernel.delivery_us "));
        // The exec, then the signal and stop messages of the control.
        assert!(line.expect("timed").contains(" count=3 "), "{loaded}");
    }

    #[test]
    fn nameserver_option_selects_policy() {
        let text = "host ns vax780\nhost a vax750\nlink ns a\nuser 5 secret=2 nameserver=ns fast";
        let sc = parse(text).unwrap();
        assert!(matches!(
            sc.users[0].3.recovery_policy,
            RecoveryPolicy::NameServer { ref host } if host == "ns"
        ));
        // `fast` preserves the already-chosen policy.
        assert!(sc.users[0].3.time_to_die < PpmConfig::default().time_to_die);
    }
}
