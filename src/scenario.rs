//! A small scenario language for driving the PPM from files.
//!
//! `ppm-sim` (see `src/bin/ppm-sim.rs`) reads a line-oriented scenario,
//! builds the network, plays timed actions, and prints tool output —
//! making the reproduction usable as a standalone experimentation
//! vehicle, the way the paper positions the PPM prototype ("a tool for
//! experimentation in networked environments"). One executor plays a
//! scenario on every runtime — the simulation, a real loopback cluster or
//! the model checker's world — behind [`crate::sweep::run_cell`], which
//! runs every cell; [`execute_with`] plays one on the simulation alone.
//!
//! # Grammar (one statement per line, `#` comments)
//!
//! ```text
//! seed 1986                               # seeds the sim; real and mc make no seeded choice
//! host calder vax780                      # cpu: vax780 | vax750 | sun2
//! link calder ucbarpa                     # sim-only unless every pair is linked
//! user 100 secret=0xBEEF recovery=calder,ucbarpa [fast] [nameserver=ns] [noagg]
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
//! at 8s    crash ucbarpa                     # sim-only
//! at 9s    restart ucbarpa                   # sim-only
//! at 10s   link-down calder ucbarpa          # sim-only
//! at 11s   link-up calder ucbarpa            # sim-only
//!
//! run 30s
//! ```
//!
//! `as NAME` binds the created process's `<host, pid>`; `$NAME` refers to
//! it in later `control`/`killtree`/`parent=` arguments. Durations are a
//! count and a unit (`us`, `ms` or `s`). UIDs and PIDs fit in 32 bits,
//! and no token is longer than 65 535 bytes, the most a protocol string
//! carries (a host name, a command, a destination). A
//! `link` joins two distinct hosts declared on earlier lines; a host and
//! a user are each declared once.
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
//! and a `link` set that leaves some pair of hosts unlinked (every other
//! runtime is one LAN segment) — need the simulated world, as do
//! `ppm-sim --seed`, fault plans, a network model, the `--hosts` chain
//! and the `--users` storm.
//! [`crate::sweep::run_cell`] refuses them on every other runtime, with
//! the offending line, before a host boots.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use ppm_core::config::{PpmConfig, RecoveryPolicy};
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::{HarnessBuilder, HarnessError, PpmHarness, Runtime};
use ppm_harness::tenant::{self, scale_spec, TenantWorld};
use ppm_proto::codec::MAX_STR_BYTES;
use ppm_proto::msg::ControlAction;
use ppm_proto::types::{Gpid, ProcRecord};
use ppm_runtime::events::TraceFlags;
use ppm_simnet::fault::FaultPlan;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, NetGraph, NetSpec};
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

/// A parse or execution failure, with the line it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// 1-based line number (0 for execution-phase errors without one).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        message: message.into(),
    }
}

/// A process reference: literal `host pid` pair or a `$name` binding.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcRef {
    /// Literal `<host, pid>`.
    Literal(Gpid),
    /// A name bound by `as NAME`.
    Named(String),
}

/// One timed action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Create a process through the PPM.
    Spawn {
        from: String,
        uid: u32,
        dest: String,
        command: String,
        bind: Option<String>,
        lifetime: Option<SimDuration>,
        parent: Option<ProcRef>,
    },
    /// Adopt an existing process.
    Adopt {
        from: String,
        uid: u32,
        host: String,
        pid: u32,
    },
    /// Control one process.
    Control {
        from: String,
        uid: u32,
        target: ProcRef,
        action: ControlAction,
    },
    /// Snapshot (`dest` may be `*`) and print the forest.
    Snapshot {
        from: String,
        uid: u32,
        dest: String,
    },
    /// Print the display-tool dashboard.
    Dashboard { from: String, uid: u32 },
    /// Print exited-process statistics.
    Rusage {
        from: String,
        uid: u32,
        dest: String,
    },
    /// Print the history log.
    History {
        from: String,
        uid: u32,
        dest: String,
    },
    /// Broadcast SIGKILL to a whole computation.
    KillTree {
        from: String,
        uid: u32,
        root: ProcRef,
    },
    /// Run the recovery drill: jobs on `jobs`, `kill`'s LPM the victim.
    Drill {
        from: String,
        uid: u32,
        jobs: Vec<String>,
        kill: Option<String>,
    },
    /// Crash a host.
    Crash { host: String },
    /// Restart a host.
    Restart { host: String },
    /// Take a link down / bring it up.
    Link { a: String, b: String, up: bool },
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

/// A parsed scenario.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// World seed.
    pub seed: u64,
    /// Hosts in declaration order.
    pub hosts: Vec<(String, CpuClass)>,
    /// Links.
    pub links: Vec<(String, String)>,
    /// The line declaring the first host with no link to some host
    /// declared before it: a partial mesh, which only the sim can play.
    pub mesh_gap: Option<usize>,
    /// Users: uid → (secret, recovery list, config).
    pub users: Vec<(u32, u64, Vec<String>, PpmConfig)>,
    /// Timed actions, in file order, each with its `time=` label.
    pub actions: Vec<(usize, SimTime, Action, Option<String>)>,
    /// Extra time to run after the last action.
    pub tail: SimDuration,
}

fn parse_duration(s: &str, line: usize) -> Result<SimDuration, ScenarioError> {
    s.parse().map_err(|m: String| err(line, m))
}

fn parse_u64(s: &str, line: usize) -> Result<u64, ScenarioError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| err(line, format!("bad number {s:?}")))
}

/// A UID or PID: a number that fits in 32 bits.
fn parse_u32(s: &str, line: usize) -> Result<u32, ScenarioError> {
    u32::try_from(parse_u64(s, line)?)
        .map_err(|_| err(line, format!("{s:?} does not fit in 32 bits")))
}

fn parse_proc_ref(tokens: &[&str], line: usize) -> Result<(ProcRef, usize), ScenarioError> {
    match tokens.first() {
        Some(t) if t.starts_with('$') => Ok((ProcRef::Named(t[1..].to_string()), 1)),
        Some(host) => {
            let pid = tokens
                .get(1)
                .ok_or_else(|| err(line, "expected HOST PID or $name"))?;
            let pid = parse_u32(pid, line)?;
            Ok((ProcRef::Literal(Gpid::new(*host, pid)), 2))
        }
        None => Err(err(line, "expected a process reference")),
    }
}

/// Parses a scenario from text.
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
/// # Ok::<(), ppm::scenario::ScenarioError>(())
/// ```
///
/// # Errors
///
/// [`ScenarioError`] with the offending line number.
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut sc = Scenario {
        seed: 1986,
        tail: SimDuration::ZERO,
        ..Default::default()
    };
    let mut host_lines = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = raw.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let mut tokens: Vec<&str> = stripped.split_whitespace().collect();
        if let Some(long) = tokens.iter().find(|t| t.len() > MAX_STR_BYTES) {
            let len = long.len();
            return Err(err(
                line,
                format!("a token of {len} bytes is longer than {MAX_STR_BYTES}"),
            ));
        }
        match tokens[0] {
            "seed" => {
                sc.seed = parse_u64(
                    tokens
                        .get(1)
                        .ok_or_else(|| err(line, "seed needs a value"))?,
                    line,
                )?;
            }
            "host" => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err(line, "host needs a name"))?;
                let cpu = match tokens.get(2).copied() {
                    Some("vax780") | None => CpuClass::Vax780,
                    Some("vax750") => CpuClass::Vax750,
                    Some("sun2") => CpuClass::Sun2,
                    Some(other) => return Err(err(line, format!("unknown cpu {other:?}"))),
                };
                if sc.hosts.iter().any(|(h, _)| h == name) {
                    return Err(err(line, format!("host {name:?} is declared twice")));
                }
                sc.hosts.push((name.to_string(), cpu));
                host_lines.push(line);
            }
            "link" => {
                let a = tokens
                    .get(1)
                    .ok_or_else(|| err(line, "link needs two hosts"))?;
                let b = tokens
                    .get(2)
                    .ok_or_else(|| err(line, "link needs two hosts"))?;
                if a == b {
                    return Err(err(line, format!("link joins {a:?} to itself")));
                }
                for end in [a, b] {
                    if !sc.hosts.iter().any(|(h, _)| h == end) {
                        return Err(err(line, format!("link names undeclared host {end:?}")));
                    }
                }
                sc.links.push((a.to_string(), b.to_string()));
            }
            "user" => {
                let uid = parse_u32(
                    tokens.get(1).ok_or_else(|| err(line, "user needs a uid"))?,
                    line,
                )?;
                if sc.users.iter().any(|u| u.0 == uid) {
                    return Err(err(line, format!("user {uid} is declared twice")));
                }
                let mut secret = 0u64;
                let mut recovery = Vec::new();
                let mut cfg = PpmConfig::default();
                for t in &tokens[2..] {
                    if let Some(v) = t.strip_prefix("secret=") {
                        secret = parse_u64(v, line)?;
                    } else if let Some(v) = t.strip_prefix("recovery=") {
                        recovery = v.split(',').map(str::to_string).collect();
                    } else if let Some(v) = t.strip_prefix("nameserver=") {
                        cfg.recovery_policy = RecoveryPolicy::NameServer { host: v.into() };
                    } else if *t == "fast" {
                        let policy = cfg.recovery_policy.clone();
                        let splicing = cfg.reply_splicing;
                        cfg = PpmConfig::fast_recovery();
                        cfg.recovery_policy = policy;
                        cfg.reply_splicing = splicing;
                    } else if *t == "noagg" {
                        cfg.reply_splicing = false;
                    } else {
                        return Err(err(line, format!("unknown user option {t:?}")));
                    }
                }
                sc.users.push((uid, secret, recovery, cfg));
            }
            "at" => {
                let when = tokens.get(1).ok_or_else(|| err(line, "at needs a time"))?;
                let at = SimTime::ZERO + parse_duration(when, line)?;
                let label = take_label(&mut tokens, line)?;
                let action = parse_action(&tokens[2..], line)?;
                sc.actions.push((line, at, action, label));
            }
            "run" => {
                let d = tokens
                    .get(1)
                    .ok_or_else(|| err(line, "run needs a duration"))?;
                sc.tail += parse_duration(d, line)?;
                if sc.tail.as_micros() > SimTime::FAR_FUTURE.as_micros() {
                    return Err(err(line, "run durations add up out of range"));
                }
            }
            other => return Err(err(line, format!("unknown statement {other:?}"))),
        }
    }
    if sc.hosts.is_empty() {
        return Err(err(0, "scenario declares no hosts"));
    }
    if sc.users.is_empty() {
        return Err(err(0, "scenario declares no users"));
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
fn take_label(tokens: &mut Vec<&str>, line: usize) -> Result<Option<String>, ScenarioError> {
    let is_label = |t: &&str| t.starts_with("time=");
    let Some(i) = tokens.iter().skip(3).position(is_label) else {
        return Ok(None);
    };
    let label = tokens.remove(3 + i)["time=".len()..].to_string();
    if label.is_empty() {
        return Err(err(line, "time= needs a label"));
    }
    if tokens.iter().skip(3).any(is_label) {
        return Err(err(line, "time= is given twice"));
    }
    match tokens[2] {
        "spawn" | "control" | "snapshot" => Ok(Some(label)),
        verb => Err(err(line, format!("{verb} takes no time= label"))),
    }
}

fn parse_action(tokens: &[&str], line: usize) -> Result<Action, ScenarioError> {
    let verb = tokens
        .first()
        .ok_or_else(|| err(line, "at needs an action"))?;
    let need = |i: usize, what: &str| -> Result<&str, ScenarioError> {
        tokens
            .get(i)
            .copied()
            .ok_or_else(|| err(line, format!("{verb} needs {what}")))
    };
    match *verb {
        "spawn" => {
            let from = need(1, "FROM")?.to_string();
            let uid = parse_u32(need(2, "UID")?, line)?;
            let dest = need(3, "DEST")?.to_string();
            let command = need(4, "COMMAND")?.to_string();
            let mut bind = None;
            let mut lifetime = None;
            let mut parent = None;
            let mut i = 5;
            while i < tokens.len() {
                match tokens[i] {
                    "as" => {
                        bind = Some(need(i + 1, "a name after `as`")?.to_string());
                        i += 2;
                    }
                    t if t.starts_with("lifetime=") => {
                        lifetime = Some(parse_duration(&t["lifetime=".len()..], line)?);
                        i += 1;
                    }
                    t if t.starts_with("parent=") => {
                        let rest = &t["parent=".len()..];
                        let toks: Vec<&str> = rest.split(':').collect();
                        let (r, _) = parse_proc_ref(&toks, line)?;
                        parent = Some(r);
                        i += 1;
                    }
                    other => return Err(err(line, format!("unknown spawn option {other:?}"))),
                }
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
        "adopt" => Ok(Action::Adopt {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u32(need(2, "UID")?, line)?,
            host: need(3, "HOST")?.to_string(),
            pid: parse_u32(need(4, "PID")?, line)?,
        }),
        "control" => {
            let from = need(1, "FROM")?.to_string();
            let uid = parse_u32(need(2, "UID")?, line)?;
            let (target, used) = parse_proc_ref(&tokens[3..], line)?;
            let verb = need(3 + used, "stop|fg|bg|kill")?;
            let action = match verb {
                "stop" => ControlAction::Stop,
                "fg" => ControlAction::Foreground,
                "bg" => ControlAction::Background,
                "kill" => ControlAction::Kill,
                other => return Err(err(line, format!("unknown control verb {other:?}"))),
            };
            Ok(Action::Control {
                from,
                uid,
                target,
                action,
            })
        }
        "snapshot" => Ok(Action::Snapshot {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u32(need(2, "UID")?, line)?,
            dest: need(3, "DEST")?.to_string(),
        }),
        "dashboard" => Ok(Action::Dashboard {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u32(need(2, "UID")?, line)?,
        }),
        "rusage" => Ok(Action::Rusage {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u32(need(2, "UID")?, line)?,
            dest: need(3, "DEST")?.to_string(),
        }),
        "history" => Ok(Action::History {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u32(need(2, "UID")?, line)?,
            dest: need(3, "DEST")?.to_string(),
        }),
        "killtree" => {
            let from = need(1, "FROM")?.to_string();
            let uid = parse_u32(need(2, "UID")?, line)?;
            let (root, _) = parse_proc_ref(&tokens[3..], line)?;
            Ok(Action::KillTree { from, uid, root })
        }
        "drill" => {
            let from = need(1, "FROM")?.to_string();
            let uid = parse_u32(need(2, "UID")?, line)?;
            let jobs: Vec<String> = need(3, "HOST[,HOST..]")?
                .split(',')
                .map(str::to_string)
                .collect();
            let kill = tokens
                .get(4)
                .map(|t| t.strip_prefix("kill=").filter(|h| !h.is_empty()));
            let kill = match kill {
                Some(Some(host)) if tokens.len() == 5 => Some(host.to_string()),
                None if !jobs.iter().any(String::is_empty) => None,
                _ => return Err(err(line, "drill takes FROM UID HOST[,HOST..] [kill=HOST]")),
            };
            Ok(Action::Drill {
                from,
                uid,
                jobs,
                kill,
            })
        }
        "crash" => Ok(Action::Crash {
            host: need(1, "HOST")?.to_string(),
        }),
        "restart" => Ok(Action::Restart {
            host: need(1, "HOST")?.to_string(),
        }),
        "link-down" => Ok(Action::Link {
            a: need(1, "A")?.to_string(),
            b: need(2, "B")?.to_string(),
            up: false,
        }),
        "link-up" => Ok(Action::Link {
            a: need(1, "A")?.to_string(),
            b: need(2, "B")?.to_string(),
            up: true,
        }),
        other => Err(err(line, format!("unknown action {other:?}"))),
    }
}

/// Execution knobs for [`execute_with`] and the storm.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Record structured spans from the first event.
    pub spans: bool,
    /// A fault plan applied before the first action (`ppm-sim --faults`).
    /// Enables pmd stable storage and LPM respawn, so the world can heal
    /// from the faults the plan injects.
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
    ) -> Result<HarnessBuilder, ScenarioError> {
        if let Some(spec) = self.topology {
            // Dry-run the graph build so a bad spec (unknown endpoint, name
            // collision with a host) surfaces as a scenario error instead of
            // a harness panic.
            NetGraph::build(spec, &host_names()).map_err(|e| err(0, e))?;
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
    fn arm(&self, ppm: &mut PpmHarness, out: &mut dyn fmt::Write) -> Result<(), ScenarioError> {
        if self.spans {
            ppm.enable_spans();
        }
        if let Some(plan) = self.faults {
            ppm.world_mut()
                .apply_fault_plan(plan)
                .map_err(|e| err(0, e))?;
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
) -> Result<PpmHarness, ScenarioError> {
    tenant::storm_fits(users, hosts).map_err(|e| err(0, e))?;
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
pub(crate) struct Played<R: Runtime = World> {
    /// The harness, for post-run inspection — its trace and metrics say
    /// how far a failed play got.
    pub ppm: PpmHarness<R>,
    /// The observable digest: an FNV-1a fold of what the actions returned
    /// (gpids, logical parents, commands, states, adopted flags,
    /// `missing` host sets, reachability, killtree counts), with every
    /// clock value left out. A scenario every runtime can play folds the
    /// same value on each. Or the error of the action that failed.
    pub observed: Result<u64, ScenarioError>,
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
/// [`ScenarioError`] naming the failing action's line, or (line 0) a
/// fault plan referencing an unknown host.
pub fn execute_with(
    sc: &Scenario,
    out: &mut dyn fmt::Write,
    opts: ExecOptions<'_>,
) -> Result<PpmHarness, ScenarioError> {
    let played = execute_played(sc, out, opts, true)?;
    played.observed.map(|_| played.ppm)
}

/// Like [`execute_with`], keeping the observable digest, and the harness
/// when an action fails; the trace is recorded only if `trace`.
pub(crate) fn execute_played(
    sc: &Scenario,
    out: &mut dyn fmt::Write,
    opts: ExecOptions<'_>,
    trace: bool,
) -> Result<Played, ScenarioError> {
    let host_names = || sc.hosts.iter().map(|(n, _)| n.clone()).collect();
    let builder = builder(sc).trace(trace).seed(sc.seed);
    let mut builder = opts.builder(builder, host_names)?;
    for (a, b) in &sc.links {
        builder = builder.link(a.clone(), b.clone());
    }
    let mut ppm = builder.build();
    opts.arm(&mut ppm, out)?;
    let mut times = Vec::new();
    let observed = play(sc, &mut ppm, out, &sim_world, &mut times);
    Ok(Played {
        ppm,
        observed,
        times,
    })
}

/// Plays a scenario on another runtime — a real loopback cluster or the
/// checker's world — as one LAN segment. What only the sim can play has
/// been refused by [`crate::sweep::run_cell`]; an action that fails is
/// [`Played::observed`]'s error.
pub(crate) fn execute_on<R: Runtime>(sc: &Scenario, rt: R, out: &mut dyn fmt::Write) -> Played<R> {
    let mut ppm = builder(sc).build_on(rt);
    let mut times = Vec::new();
    let observed = play(sc, &mut ppm, out, &|_, _, _| Ok(()), &mut times);
    Played {
        ppm,
        observed,
        times,
    }
}

/// What every runtime boots for `sc`: its hosts and accounts and, when a
/// drill kills an LPM, a pmd that brings it back.
fn builder(sc: &Scenario) -> HarnessBuilder {
    let mut builder = PpmHarness::builder();
    for (name, cpu) in &sc.hosts {
        builder = builder.host(name.clone(), *cpu);
    }
    for (uid, secret, recovery, cfg) in &sc.users {
        let rec: Vec<&str> = recovery.iter().map(String::as_str).collect();
        builder = builder.user(Uid(*uid), *secret, &rec, cfg.clone());
    }
    let kills = |(_, _, a, _): &_| matches!(a, Action::Drill { kill: Some(_), .. });
    if sc.actions.iter().any(kills) {
        builder = builder.pmd_options(RECOVERING);
    }
    builder
}

/// The one way a sim-only statement (`crash`, `restart`, `link-down`,
/// `link-up`) reaches the simulated world, and the world's network
/// section reaches a dashboard's text. Only [`execute_played`] hands
/// [`play`] this one; every other runtime hands it a no-op, having
/// refused those statements before it booted.
fn sim_world(ppm: &mut PpmHarness, action: &Action, text: &mut String) -> Result<(), HarnessError> {
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
) -> Result<u64, ScenarioError> {
    let mut bindings: HashMap<&str, Gpid> = HashMap::new();
    let mut seen = Fnv::new();
    let mut actions: Vec<_> = sc.actions.iter().collect();
    actions.sort_by_key(|(_, at, _, _)| *at);
    let resolve = |r: &ProcRef, bindings: &HashMap<&str, Gpid>, line| match r {
        ProcRef::Literal(g) => Ok(g.clone()),
        ProcRef::Named(n) => bindings
            .get(n.as_str())
            .cloned()
            .ok_or_else(|| err(line, format!("unbound process name ${n}"))),
    };
    let lift = |line: usize| move |e: HarnessError| err(line, e.to_string());

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
                    bindings.insert(name, g);
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
            Action::Drill {
                from,
                uid,
                jobs,
                kill,
            } => {
                let jobs: Vec<&str> = jobs.iter().map(String::as_str).collect();
                let report = recovery_drill(ppm, Uid(*uid), from, &jobs, kill.as_deref())
                    .map_err(|e| err(line, e))?;
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
            times.push((label.clone(), elapsed.as_micros()));
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
        assert_eq!(
            parse_duration("250ms", 1).unwrap(),
            SimDuration::from_millis(250)
        );
        assert_eq!(parse_duration("3s", 1).unwrap(), SimDuration::from_secs(3));
        assert!(parse_duration("10", 1).is_err());
        assert!(parse_duration("5h", 1).is_err());
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
