//! The host driver's differential property: one random syscall script,
//! the same ending on every backend.
//!
//! A script is a list of steps on a fixed grid. A tracer — the subject's
//! parent, which adopts it with every trace flag — owns the grid: at
//! each step it stops or continues the subject when the script says so,
//! and after the last step it kills the subject and every child the
//! subject forked, then publishes what it saw. Every other step is the
//! subject's own, run from a timer half a step later: spawn a child,
//! open or close a file, listen, connect to itself, send, arm a timer,
//! signal itself or its newest child, or exit and then go on calling.
//!
//! Everything both programs see lands in one log, stamped with the grid
//! step it happened in: each syscall's result, each callback with the
//! state the process saw itself in (so a callback that ran while its
//! process was stopped shows as `Stopped`), every kernel event the
//! tracer receives (rusage, `files_opened` included, rides on each
//! exit), and each exit status. Within a step the lines are sorted:
//! which of two things in the same step came first is a backend's
//! accident; in which step a thing happened is the semantics.
//!
//! The simulated world and the model checker's world run every script
//! in tier-1. A real loopback node runs 32 of them under `--ignored`,
//! one node at a time, each joined before the next starts.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;

use ppm_mc::McWorld;
use ppm_proto::kernel_wire::for_each_kernel_msg;
use ppm_realos::RealRuntime;
use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::fd::OpenMode;
use ppm_runtime::ids::{ConnId, CpuClass, Fd, Pid, Port, Uid};
use ppm_runtime::program::{ConnEvent, Program, SigAction, SpawnSpec};
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimDuration;
use ppm_simos::world::World;

const OWNER: Uid = Uid(100);
const PORT: Port = Port(40);
/// Stable-storage key the tracer publishes the log under.
const REPORT: &str = "differential.report";

/// One step of a script.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Spawn,
    Open,
    CloseFd,
    Listen,
    Connect,
    Send,
    /// Arm a timer this many eighths of a step ahead.
    Timer(u8),
    SignalSelf(Signal),
    SignalKid(Signal),
    /// The tracer stops the subject.
    Stop,
    /// The tracer continues it.
    Cont,
    /// Exit, then open a file, listen, fork, arm a timer, and signal
    /// its newest child and itself.
    Exit,
}

impl Step {
    fn from_code(code: u8) -> Step {
        match code {
            0 => Step::Spawn,
            1 => Step::Open,
            2 => Step::CloseFd,
            3 => Step::Listen,
            4 => Step::Connect,
            5 => Step::Send,
            6 => Step::Timer(1),
            7 => Step::Timer(3),
            8 => Step::SignalSelf(Signal::Usr1),
            9 => Step::SignalSelf(Signal::Term),
            10 => Step::SignalKid(Signal::Usr1),
            11 => Step::SignalKid(Signal::Kill),
            12 | 13 => Step::Stop,
            14 | 15 => Step::Cont,
            _ => Step::Exit,
        }
    }

    fn is_tracers(self) -> bool {
        matches!(self, Step::Stop | Step::Cont)
    }
}

/// The script `codes` stand for. A stop holds the subject for exactly
/// one step of its own and is continued at the next: everything a
/// `SIGCONT` releases runs in the same instant, and two things in one
/// instant would race on the modelled latencies of the sim (a signal
/// against a connection's round trip), which no other backend prices.
fn steps(codes: &[u8]) -> Vec<Step> {
    let mut script = Vec::new();
    let mut codes = codes.iter().map(|&c| Step::from_code(c)).peekable();
    while let Some(step) = codes.next() {
        script.push(step);
        if step == Step::Stop {
            script.extend(codes.next_if(|s| !s.is_tracers()));
            script.push(Step::Cont);
        }
    }
    script
}

fn script() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..17, 1..12)
}

/// The one log of a case: the current grid step, and every line so far
/// with the step it was written in.
#[derive(Clone, Default)]
struct Log(Arc<Mutex<Lines>>);

#[derive(Default)]
struct Lines {
    step: usize,
    lines: Vec<(usize, String)>,
}

impl Log {
    fn line(&self, line: String) {
        let mut log = self.0.lock().unwrap();
        let step = log.step;
        log.lines.push((step, line));
    }

    fn enter(&self, step: usize) {
        self.0.lock().unwrap().step = step;
    }

    fn render(&self) -> String {
        let mut lines = self.0.lock().unwrap().lines.clone();
        lines.sort();
        let lines: Vec<_> = lines.iter().map(|(s, l)| format!("{s} {l}")).collect();
        lines.join("\n")
    }
}

fn state(sys: &dyn Sys) -> String {
    sys.proc_info(sys.pid())
        .map_or("gone".to_string(), |p| format!("{:?}", p.state))
}

/// A child of the subject: it handles every catchable signal.
struct Kid {
    name: String,
    log: Log,
}

impl Program for Kid {
    fn on_start(&mut self, _: &mut dyn Sys) {
        self.log.line(format!("{} start", self.name));
    }

    fn on_signal(&mut self, _: &mut dyn Sys, signal: Signal) -> SigAction {
        self.log.line(format!("{} signal {signal}", self.name));
        SigAction::Handled
    }
}

/// The process under test: runs its own steps of the script.
struct Subject {
    script: Vec<Step>,
    spacing: SimDuration,
    log: Log,
    kids: Vec<(Pid, String)>,
    fds: Vec<Fd>,
    conn: Option<ConnId>,
}

impl Subject {
    fn eighths(&self, n: u8) -> SimDuration {
        SimDuration::from_micros(self.spacing.as_micros() * u64::from(n) / 8)
    }

    fn act(&mut self, sys: &mut dyn Sys, step: Step) {
        let said = match step {
            Step::Spawn => {
                let name = format!("kid{}", self.kids.len());
                let kid = Kid {
                    name: name.clone(),
                    log: self.log.clone(),
                };
                let spawned = sys.spawn(SpawnSpec::new("kid", Box::new(kid)));
                if let Ok(pid) = spawned {
                    self.kids.push((pid, name));
                }
                format!("spawn {:?}", spawned.map(|_| ()))
            }
            Step::Open => {
                let path = format!("/tmp/f{}", self.fds.len());
                let opened = sys.open(path, OpenMode::Write);
                self.fds.extend(opened.as_ref().ok());
                format!("open {:?}", opened.map(|_| ()))
            }
            Step::CloseFd => match self.fds.pop() {
                Some(fd) => format!("close_fd {:?}", sys.close_fd(fd)),
                None => "close_fd: none open".to_string(),
            },
            Step::Listen => format!("listen {:?}", sys.listen(PORT)),
            Step::Connect => {
                let conn = sys.connect(sys.host(), PORT);
                self.conn = conn.ok().or(self.conn);
                format!("connect {:?}", conn.map(|_| ()))
            }
            Step::Send => match self.conn {
                Some(conn) => format!("send {:?}", sys.send(conn, Bytes::from_static(b"ping"))),
                None => "send: no connection".to_string(),
            },
            Step::Timer(n) => {
                sys.set_timer(self.eighths(n), 100 + u64::from(n));
                format!("armed {n}")
            }
            Step::SignalSelf(signal) => {
                format!("kill self {signal} {:?}", sys.kill(sys.pid(), signal))
            }
            Step::SignalKid(signal) => match self.kids.last() {
                Some((pid, name)) => format!("kill {name} {signal} {:?}", sys.kill(*pid, signal)),
                None => "kill: no kid".to_string(),
            },
            Step::Exit => {
                sys.exit(3);
                let opened = sys.open("/tmp/late", OpenMode::Write).map(|_| ());
                let listened = sys.listen(PORT);
                let spawned = sys.spawn(SpawnSpec::inert("late")).map(|_| ());
                sys.set_timer(self.eighths(1), 199);
                let kid = self
                    .kids
                    .last()
                    .map(|(pid, _)| sys.kill(*pid, Signal::Usr1));
                let killed = sys.kill(sys.pid(), Signal::Usr1);
                format!(
                    "exit, then open {opened:?} listen {listened:?} spawn {spawned:?} \
                     kill kid {kid:?} kill self {killed:?}"
                )
            }
            Step::Stop | Step::Cont => return,
        };
        self.log.line(format!("subject {said}"));
    }
}

impl Program for Subject {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.log.line(format!("subject start {}", state(sys)));
        // Step i runs half a step after the tracer enters it.
        for (i, step) in self.script.iter().enumerate() {
            if !step.is_tracers() {
                let at = self.spacing.as_micros() * (i as u64 + 1) + self.spacing.as_micros() / 2;
                sys.set_timer(SimDuration::from_micros(at), i as u64);
            }
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        self.log
            .line(format!("subject timer {token} {}", state(sys)));
        if let Some(&step) = self.script.get(token as usize) {
            self.act(sys, step);
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, _: ConnId, data: Bytes) {
        let line = format!("subject message {}B {}", data.len(), state(sys));
        self.log.line(line);
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, _: ConnId, event: ConnEvent) {
        let what = match event {
            ConnEvent::Accepted { .. } => "accepted".to_string(),
            ConnEvent::Established => "established".to_string(),
            ConnEvent::Failed(e) => format!("failed {e:?}"),
            ConnEvent::Closed => "closed".to_string(),
        };
        self.log.line(format!("subject conn {what} {}", state(sys)));
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        let name = self.kids.iter().find(|(pid, _)| *pid == child);
        let name = name.map_or("other", |(_, name)| name.as_str());
        self.log
            .line(format!("subject child {name} {status} {}", state(sys)));
    }

    fn on_signal(&mut self, sys: &mut dyn Sys, signal: Signal) -> SigAction {
        self.log
            .line(format!("subject signal {signal} {}", state(sys)));
        match signal {
            Signal::Term => SigAction::Default,
            _ => SigAction::Handled,
        }
    }
}

/// The subject's parent and tracer: owns the grid and the report.
struct Tracer {
    script: Vec<Step>,
    spacing: SimDuration,
    log: Log,
    subject: Option<Pid>,
    kids: Vec<Pid>,
}

impl Tracer {
    fn name_of(&self, pid: Pid) -> String {
        if Some(pid) == self.subject {
            return "subject".to_string();
        }
        match self.kids.iter().position(|k| *k == pid) {
            Some(i) => format!("kid{i}"),
            None => "other".to_string(),
        }
    }

    fn observe(&mut self, event: KernelEvent) {
        use KernelEvent as E;
        if let E::Fork { child, .. } = &event {
            self.kids.push(*child);
        }
        let who = self.name_of(event.pid());
        let line = match &event {
            E::Fork { child, .. } => format!("fork {who} -> {}", self.name_of(*child)),
            E::Exec { command, .. } => format!("exec {who} {command}"),
            E::Exit { status, rusage, .. } => format!(
                "exit {who} {status} forks={} signals={} files={} sent={}/{}B received={}/{}B",
                rusage.forks,
                rusage.signals_received,
                rusage.files_opened,
                rusage.msgs_sent,
                rusage.bytes_sent,
                rusage.msgs_received,
                rusage.bytes_received,
            ),
            E::SignalDelivered { signal, .. } => format!("signal {who} {signal}"),
            E::FileOpened { path, .. } | E::FileClosed { path, .. } => {
                format!("{} {who} {path}", event.kind())
            }
            E::MsgSent { bytes, .. } | E::MsgReceived { bytes, .. } => {
                format!("{} {who} {bytes}B", event.kind())
            }
            other => format!("{} {who}", other.kind()),
        };
        self.log.line(format!("event {line}"));
    }
}

impl Program for Tracer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket().expect("alive");
        let subject = Subject {
            script: self.script.clone(),
            spacing: self.spacing,
            log: self.log.clone(),
            kids: Vec::new(),
            fds: Vec::new(),
            conn: None,
        };
        let pid = sys
            .spawn(SpawnSpec::new("subject", Box::new(subject)))
            .expect("spawn subject");
        sys.adopt(pid, TraceFlags::ALL).expect("adopt own child");
        self.subject = Some(pid);
        sys.set_timer(self.spacing, 0);
    }

    /// Enters step `token + 1`: a stop or a continue, the kills after
    /// the last step, and the report one step after those.
    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        let step = token as usize;
        self.log.enter(step + 1);
        let subject = self.subject.expect("spawned");
        let kill = |sys: &mut dyn Sys, name: String, pid, signal| {
            let sent = sys.kill(pid, signal);
            self.log
                .line(format!("tracer kill {name} {signal} {sent:?}"));
        };
        match self.script.get(step) {
            Some(Step::Stop) => kill(sys, "subject".into(), subject, Signal::Stop),
            Some(Step::Cont) => kill(sys, "subject".into(), subject, Signal::Cont),
            Some(_) => {}
            None if step == self.script.len() => {
                kill(sys, "subject".into(), subject, Signal::Kill);
                for (i, &kid) in self.kids.clone().iter().enumerate() {
                    kill(sys, format!("kid{i}"), kid, Signal::Kill);
                }
            }
            None => {
                sys.stable_put(REPORT, self.log.render());
                return;
            }
        }
        sys.set_timer(self.spacing, token + 1);
    }

    fn on_kernel_batch(&mut self, _: &mut dyn Sys, data: Bytes) {
        for_each_kernel_msg(&data, |msg| self.observe(msg.event));
    }

    fn on_child_exit(&mut self, _: &mut dyn Sys, child: Pid, status: ExitStatus) {
        let line = format!("tracer reaped {} {status}", self.name_of(child));
        self.log.line(line);
    }
}

/// Runs `codes` as a script on `rt` with steps `spacing` apart; returns
/// the tracer's report.
fn run_script<R: Runtime>(mut rt: R, codes: &[u8], spacing: SimDuration) -> String {
    let script = steps(codes);
    let host = rt.add_host("a", CpuClass::Vax780);
    let tracer = Tracer {
        script,
        spacing,
        log: Log::default(),
        subject: None,
        kids: Vec::new(),
    };
    rt.spawn_user(host, OWNER, SpawnSpec::new("tracer", Box::new(tracer)))
        .expect("spawn tracer");
    let slice = SimDuration::from_micros(spacing.as_micros() / 4);
    for _ in 0..(codes.len() + 8) * 4 {
        if rt.stable_get(host, REPORT).is_some() {
            break;
        }
        rt.run(slice);
    }
    let report = rt.stable_get(host, REPORT).expect("the tracer reports");
    String::from_utf8(report.to_vec()).expect("utf-8 report")
}

/// Half a step is far longer than anything the sim prices between two
/// steps (a fork's exec, a signal, a kernel message, a local round trip).
const SIM_STEP: SimDuration = SimDuration::from_millis(500);

proptest! {
    #[test]
    fn a_script_ends_the_same_on_sim_and_mc(codes in script()) {
        let sim = run_script(World::new(7), &codes, SIM_STEP);
        let mc = run_script(McWorld::new(), &codes, SIM_STEP);
        prop_assert_eq!(&mc, &sim, "script {:?}", codes);
    }
}

/// One script through three of the driver's rules: a timer due while
/// its process is stopped runs after `SIGCONT` (step 4), a parent that
/// kills its own child is told (step 5), and a call after `exit` acts
/// as from a dead process: the exit counts one file, and nothing is
/// opened, bound, forked or signalled after it (step 7).
#[test]
fn a_stop_a_killed_child_and_a_late_call_end_the_same_on_sim_and_mc() {
    let codes = [0, 12, 7, 11, 1, 16];
    let expected = "\
0 event exec subject subject
0 subject start Running
1 event exec kid0 kid
1 event fork subject -> kid0
1 kid0 start
1 subject spawn Ok(())
1 subject timer 0 Running
2 event signal subject SIGSTOP
2 event stop subject
2 tracer kill subject SIGSTOP Ok(())
4 event cont subject
4 event signal subject SIGCONT
4 subject armed 3
4 subject timer 103 Running
4 subject timer 2 Running
4 tracer kill subject SIGCONT Ok(())
5 event exit kid0 killed by SIGKILL forks=0 signals=1 files=0 sent=0/0B received=0/0B
5 event signal kid0 SIGKILL
5 subject child kid0 killed by SIGKILL Running
5 subject kill kid0 SIGKILL Ok(())
5 subject timer 4 Running
6 event file-open subject /tmp/f0
6 subject open Ok(())
6 subject timer 5 Running
7 event exit subject exit(3) forks=1 signals=2 files=1 sent=0/0B received=0/0B
7 subject exit, then open Err(NoSuchProcess) listen Err(NoSuchProcess) spawn Err(NoSuchProcess) kill kid Some(Err(NoSuchProcess)) kill self Err(NoSuchProcess)
7 subject timer 6 Running
7 tracer reaped subject exit(3)
8 tracer kill kid0 SIGKILL Err(NoSuchProcess)
8 tracer kill subject SIGKILL Err(NoSuchProcess)";
    assert_eq!(run_script(World::new(7), &codes, SIM_STEP), expected, "sim");
    assert_eq!(run_script(McWorld::new(), &codes, SIM_STEP), expected, "mc");
}

/// The real column: 32 scripts on one loopback node, at the sim's steps
/// (a connect to a port nobody listens on is refused at once on both).
#[test]
#[ignore = "real TCP and wall-clock time; run with --ignored"]
fn a_script_ends_the_same_on_sim_and_real() {
    let strategy = script();
    for case in 0..32u64 {
        let mut rng = TestRng::from_seed(0x1986 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let codes = strategy.generate(&mut rng);
        let sim = run_script(World::new(7), &codes, SIM_STEP);
        let real = run_script(RealRuntime::with_trace(false), &codes, SIM_STEP);
        assert_eq!(real, sim, "case {case}: script {codes:?}");
    }
}
