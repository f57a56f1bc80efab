//! A small scenario language for driving the simulated PPM from files.
//!
//! `ppm-sim` (see `src/bin/ppm-sim.rs`) reads a line-oriented scenario,
//! builds the network, plays timed actions, and prints tool output —
//! making the reproduction usable as a standalone experimentation
//! vehicle, the way the paper positions the PPM prototype ("a tool for
//! experimentation in networked environments").
//!
//! # Grammar (one statement per line, `#` comments)
//!
//! ```text
//! seed 1986
//! host calder vax780                      # cpu: vax780 | vax750 | sun2
//! link calder ucbarpa
//! user 100 secret=0xBEEF recovery=calder,ucbarpa [fast] [nameserver=ns]
//!
//! at 0s    spawn calder 100 ucbarpa worker as w1 [lifetime=10s] [parent=$w0]
//! at 500ms adopt calder 100 calder 4
//! at 1s    control calder 100 $w1 stop       # stop | fg | bg | kill
//! at 2s    snapshot calder 100 *
//! at 3s    dashboard calder 100
//! at 4s    rusage calder 100 ucbarpa
//! at 5s    history calder 100 *
//! at 6s    killtree calder 100 $w1
//! at 7s    crash ucbarpa
//! at 8s    restart ucbarpa
//! at 9s    link-down calder ucbarpa
//! at 10s   link-up calder ucbarpa
//!
//! run 30s
//! ```
//!
//! `as NAME` binds the created process's `<host, pid>`; `$NAME` refers to
//! it in later `control`/`killtree`/`parent=` arguments. Durations are a
//! count and a unit (`us`, `ms` or `s`). A `link` joins two distinct
//! hosts declared on earlier lines; a host is declared once.

use std::collections::HashMap;
use std::fmt;

use ppm_core::config::{PpmConfig, RecoveryPolicy};
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::{HarnessBuilder, HarnessError, PpmHarness};
use ppm_harness::tenant::{self, scale_spec, TenantWorld};
use ppm_proto::msg::ControlAction;
use ppm_proto::types::Gpid;
use ppm_runtime::events::TraceFlags;
use ppm_simnet::fault::FaultPlan;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, NetGraph, NetSpec};
use ppm_simos::ids::Uid;

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

fn err(line: usize, message: impl Into<String>) -> ScenarioError {
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
    /// Crash a host.
    Crash { host: String },
    /// Restart a host.
    Restart { host: String },
    /// Take a link down / bring it up.
    Link { a: String, b: String, up: bool },
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
    /// Users: uid → (secret, recovery list, config).
    pub users: Vec<(u32, u64, Vec<String>, PpmConfig)>,
    /// Timed actions, in file order.
    pub actions: Vec<(usize, SimTime, Action)>,
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

fn parse_proc_ref(tokens: &[&str], line: usize) -> Result<(ProcRef, usize), ScenarioError> {
    match tokens.first() {
        Some(t) if t.starts_with('$') => Ok((ProcRef::Named(t[1..].to_string()), 1)),
        Some(host) => {
            let pid = tokens
                .get(1)
                .ok_or_else(|| err(line, "expected HOST PID or $name"))?;
            let pid = parse_u64(pid, line)? as u32;
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
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = raw.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = stripped.split_whitespace().collect();
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
                let uid = parse_u64(
                    tokens.get(1).ok_or_else(|| err(line, "user needs a uid"))?,
                    line,
                )? as u32;
                let mut secret = 0u64;
                let mut recovery = Vec::new();
                let mut cfg = PpmConfig::default();
                for t in &tokens[2..] {
                    if let Some(v) = t.strip_prefix("secret=") {
                        secret = parse_u64(v, line)?;
                    } else if let Some(v) = t.strip_prefix("recovery=") {
                        recovery = v.split(',').map(str::to_string).collect();
                    } else if let Some(v) = t.strip_prefix("nameserver=") {
                        cfg.recovery_policy = RecoveryPolicy::NameServer {
                            host: v.to_string(),
                        };
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
                let action = parse_action(&tokens[2..], line)?;
                sc.actions.push((line, at, action));
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
    Ok(sc)
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
            let uid = parse_u64(need(2, "UID")?, line)? as u32;
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
            uid: parse_u64(need(2, "UID")?, line)? as u32,
            host: need(3, "HOST")?.to_string(),
            pid: parse_u64(need(4, "PID")?, line)? as u32,
        }),
        "control" => {
            let from = need(1, "FROM")?.to_string();
            let uid = parse_u64(need(2, "UID")?, line)? as u32;
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
            uid: parse_u64(need(2, "UID")?, line)? as u32,
            dest: need(3, "DEST")?.to_string(),
        }),
        "dashboard" => Ok(Action::Dashboard {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u64(need(2, "UID")?, line)? as u32,
        }),
        "rusage" => Ok(Action::Rusage {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u64(need(2, "UID")?, line)? as u32,
            dest: need(3, "DEST")?.to_string(),
        }),
        "history" => Ok(Action::History {
            from: need(1, "FROM")?.to_string(),
            uid: parse_u64(need(2, "UID")?, line)? as u32,
            dest: need(3, "DEST")?.to_string(),
        }),
        "killtree" => {
            let from = need(1, "FROM")?.to_string();
            let uid = parse_u64(need(2, "UID")?, line)? as u32;
            let (root, _) = parse_proc_ref(&tokens[3..], line)?;
            Ok(Action::KillTree { from, uid, root })
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

/// Executes a parsed scenario, writing tool output through `out`.
///
/// Returns the harness for post-run inspection.
///
/// # Errors
///
/// [`ScenarioError`] naming the failing action's line.
pub fn execute(sc: &Scenario, out: &mut dyn fmt::Write) -> Result<PpmHarness, ScenarioError> {
    execute_with(sc, out, ExecOptions::default())
}

/// Execution knobs for [`execute_with`] and [`execute_storm`].
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

impl ExecOptions<'_> {
    /// A harness builder carrying what must be settled before the world
    /// boots: the network model and, for a faulted run, a pmd that can
    /// bring LPMs back.
    fn builder(
        &self,
        host_names: impl FnOnce() -> Vec<String>,
    ) -> Result<HarnessBuilder, ScenarioError> {
        let mut builder = PpmHarness::builder();
        if let Some(spec) = self.topology {
            // Dry-run the graph build so a bad spec (unknown endpoint, name
            // collision with a host) surfaces as a scenario error instead of
            // a harness panic.
            NetGraph::build(spec, &host_names()).map_err(|e| err(0, e))?;
            builder = builder.topology(spec.clone());
        }
        if self.faults.is_some() {
            // A faulted run only makes sense if the system is allowed to
            // recover: persist pmd registries and respawn dead LPMs.
            builder = builder.pmd_options(PmdOptions {
                stable_storage: true,
                respawn_lpms: true,
            });
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
/// report through `out`.
///
/// # Errors
///
/// A world larger than [`tenant::MAX_STORM_CELLS`], or what
/// [`execute_with`] reports for a bad topology or fault plan.
pub fn execute_storm(
    users: u32,
    hosts: u16,
    seed: u64,
    procs: u64,
    out: &mut dyn fmt::Write,
    opts: ExecOptions<'_>,
) -> Result<PpmHarness, ScenarioError> {
    tenant::storm_fits(users, hosts).map_err(|e| err(0, e))?;
    let builder = opts.builder(|| tenant::host_names(hosts))?;
    let mut world = TenantWorld::boot(builder, scale_spec(users, hosts, seed), procs);
    opts.arm(&mut world.ppm, out)?;
    let report = world.run();
    let _ = out.write_str(&report.render());
    Ok(world.ppm)
}

/// Like [`execute`], with all execution knobs explicit.
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
    let host_names = || sc.hosts.iter().map(|(n, _)| n.clone()).collect();
    let mut builder = opts.builder(host_names)?.seed(sc.seed);
    for (name, cpu) in &sc.hosts {
        builder = builder.host(name.clone(), *cpu);
    }
    for (a, b) in &sc.links {
        builder = builder.link(a.clone(), b.clone());
    }
    for (uid, secret, recovery, cfg) in &sc.users {
        let rec: Vec<&str> = recovery.iter().map(String::as_str).collect();
        builder = builder.user(Uid(*uid), *secret, &rec, cfg.clone());
    }
    let mut ppm = builder.build();
    opts.arm(&mut ppm, out)?;
    let mut bindings: HashMap<String, Gpid> = HashMap::new();

    let mut actions = sc.actions.clone();
    actions.sort_by_key(|(_, at, _)| *at);

    let resolve = |r: &ProcRef,
                   bindings: &HashMap<String, Gpid>,
                   line: usize|
     -> Result<Gpid, ScenarioError> {
        match r {
            ProcRef::Literal(g) => Ok(g.clone()),
            ProcRef::Named(n) => bindings
                .get(n)
                .cloned()
                .ok_or_else(|| err(line, format!("unbound process name ${n}"))),
        }
    };
    let lift = |e: HarnessError, line: usize| err(line, e.to_string());

    for (line, at, action) in actions {
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
                    Some(r) => Some(resolve(&r, &bindings, line)?),
                    None => None,
                };
                let g = ppm
                    .spawn_remote(&from, Uid(uid), &dest, &command, parent, lifetime)
                    .map_err(|e| lift(e, line))?;
                let _ = writeln!(out, "created {g}");
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
                ppm.adopt(&from, Uid(uid), &host, pid, TraceFlags::ALL.bits())
                    .map_err(|e| lift(e, line))?;
            }
            Action::Control {
                from,
                uid,
                target,
                action,
            } => {
                let g = resolve(&target, &bindings, line)?;
                ppm.control(&from, Uid(uid), &g, action)
                    .map_err(|e| lift(e, line))?;
            }
            Action::Snapshot { from, uid, dest } => {
                let (procs, missing) = ppm
                    .snapshot_partial(&from, Uid(uid), &dest)
                    .map_err(|e| lift(e, line))?;
                let title = format!("snapshot of {dest}");
                let text = ppm_tools::snapshot::render_partial(procs, &title, &missing);
                let _ = writeln!(out, "{text}");
            }
            Action::Dashboard { from, uid } => {
                let text = ppm_tools::display::dashboard(&mut ppm, &from, Uid(uid))
                    .map_err(|e| lift(e, line))?;
                let _ = writeln!(out, "{text}");
            }
            Action::Rusage { from, uid, dest } => {
                let records = ppm
                    .rusage(&from, Uid(uid), &dest, None)
                    .map_err(|e| lift(e, line))?;
                let _ = writeln!(
                    out,
                    "{}",
                    ppm_tools::rusage_tool::render(&records, &format!("exited on {dest}"))
                );
            }
            Action::History { from, uid, dest } => {
                let events = ppm
                    .history(&from, Uid(uid), &dest, SimTime::ZERO, 200)
                    .map_err(|e| lift(e, line))?;
                let _ = writeln!(
                    out,
                    "{}",
                    ppm_tools::history_tool::render(&events, &format!("history of {dest}"))
                );
            }
            Action::KillTree { from, uid, root } => {
                let g = resolve(&root, &bindings, line)?;
                let n = ppm_tools::computation::signal_computation(
                    &mut ppm,
                    &from,
                    Uid(uid),
                    &g,
                    ControlAction::Kill,
                )
                .map_err(|e| lift(e, line))?;
                let _ = writeln!(out, "killed {n} member(s) of {g}");
            }
            Action::Crash { host } => {
                let h = ppm.host(&host).map_err(|e| lift(e, line))?;
                ppm.world_mut().schedule_crash(h, SimDuration::ZERO);
            }
            Action::Restart { host } => {
                let h = ppm.host(&host).map_err(|e| lift(e, line))?;
                ppm.world_mut().schedule_restart(h, SimDuration::ZERO);
            }
            Action::Link { a, b, up } => {
                let ha = ppm.host(&a).map_err(|e| lift(e, line))?;
                let hb = ppm.host(&b).map_err(|e| lift(e, line))?;
                ppm.world_mut().schedule_link(ha, hb, up, SimDuration::ZERO);
            }
        }
    }
    if !sc.tail.is_zero() {
        ppm.run_for(sc.tail);
    }
    let _ = writeln!(out, "--- scenario complete at {}", ppm.now());
    Ok(ppm)
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
        let ppm = execute(&sc, &mut out).unwrap();
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
        let e = execute(&sc, &mut out).unwrap_err();
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
