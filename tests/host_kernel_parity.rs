//! Three backends, one kernel.
//!
//! One observer script — adopt a process with every trace flag, watch it
//! fork, open and close a file, be stopped and continued, take a
//! catchable signal with and without a handler, exit, and watch its
//! child be killed — runs on the simulated world, on real loopback
//! nodes, and on the model checker's world (one canonical schedule).
//! All three sit on `ppm_runtime::kernel::Kernel`, so the tracer must
//! see the same `KernelEvent` sequence and the same resource usage, and
//! a foreign user's `open_fds` must be refused, on each of them.
//!
//! A second script starts a daemon the way inetd does and opens and
//! closes one connection to it: the daemon is init's child, and neither
//! end keeps a descriptor for the closed connection, on each of them.

use bytes::Bytes;

use ppm_mc::McWorld;
use ppm_proto::kernel_wire::for_each_kernel_msg;
use ppm_realos::RealRuntime;
use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::fd::OpenMode;
use ppm_runtime::ids::{ConnId, CpuClass, Pid, Port, Uid};
use ppm_runtime::program::{ConnEvent, Program, SigAction, SpawnSpec, SysError};
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimDuration;
use ppm_simos::rt::SimRuntime;

const OWNER: Uid = Uid(100);
const STRANGER: Uid = Uid(200);
/// Stable-storage key the observer writes its report under when done.
const REPORT: &str = "parity.report";
/// Stable-storage key the foreign-uid prober writes its result under.
const SNOOP: &str = "parity.snoop";

/// The traced process: forks a child, touches a file, handles SIGUSR1,
/// and exits from inside its SIGUSR2 handler.
struct Subject;

impl Program for Subject {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.spawn(SpawnSpec::inert("kid")).expect("fork kid");
        let fd = sys.open("/tmp/parity", OpenMode::Write);
        sys.close_fd(fd).expect("close own file");
    }

    fn on_signal(&mut self, sys: &mut dyn Sys, signal: Signal) -> SigAction {
        if signal == Signal::Usr2 {
            sys.exit(3);
        }
        SigAction::Handled
    }
}

/// The tracer: records every kernel event and lets each one trigger the
/// next step, so the script is the same sequence under any scheduler.
#[derive(Default)]
struct Observer {
    log: Vec<String>,
    subject: Option<Pid>,
    kid: Option<Pid>,
}

impl Observer {
    fn name_of(&self, pid: Pid) -> &'static str {
        match Some(pid) {
            p if p == self.subject => "subject",
            p if p == self.kid => "kid",
            _ => "other",
        }
    }

    fn observe(&mut self, sys: &mut dyn Sys, event: KernelEvent) {
        use KernelEvent as E;
        if let E::Fork { child, .. } = &event {
            self.kid = Some(*child);
        }
        let who = self.name_of(event.pid());
        let (subject, kid) = (self.subject.expect("spawned"), self.kid);
        let line = match &event {
            E::Fork { child, .. } => format!("fork {who} -> {}", self.name_of(*child)),
            E::Exec { command, .. } => format!("exec {who} {command}"),
            E::Exit { status, rusage, .. } => format!(
                "exit {who} {status} forks={} signals={} files={}",
                rusage.forks, rusage.signals_received, rusage.files_opened
            ),
            E::SignalDelivered { signal, .. } => format!("signal {who} {signal}"),
            E::FileOpened { path, .. } | E::FileClosed { path, .. } => {
                format!("{} {who} {path}", event.kind())
            }
            other => format!("{} {who}", other.kind()),
        };
        self.log.push(line);
        // Each observation releases the next step of the script.
        let kill = |sys: &mut dyn Sys, pid: Pid, signal| sys.kill(pid, signal).expect("kill");
        match event {
            E::Exec { pid, .. } if Some(pid) == kid => kill(sys, subject, Signal::Stop),
            E::Stopped { .. } => kill(sys, subject, Signal::Cont),
            E::Continued { .. } => kill(sys, subject, Signal::Usr1),
            E::SignalDelivered { pid, signal } => match (signal, pid == subject) {
                (Signal::Usr1, true) => kill(sys, kid.expect("forked"), Signal::Usr1),
                (Signal::Usr1, false) => kill(sys, subject, Signal::Usr2),
                _ => {}
            },
            E::Exit { pid, .. } if pid == subject => kill(sys, kid.expect("forked"), Signal::Kill),
            E::Exit { .. } => {
                // Last step: an owner may list its own descriptors (the
                // kernel socket); then publish the report.
                let own = sys.open_fds(sys.pid()).map(|fds| fds.len());
                self.log.push(format!("own open_fds {own:?}"));
                sys.stable_put(REPORT, self.log.join("\n"));
            }
            _ => {}
        }
    }
}

impl Program for Observer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        let subject = sys
            .spawn(SpawnSpec::new("subject", Box::new(Subject)))
            .expect("spawn subject");
        sys.adopt(subject, TraceFlags::ALL)
            .expect("adopt own child");
        self.subject = Some(subject);
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        for_each_kernel_msg(&data, |msg| self.observe(sys, msg.event));
    }
}

/// Another user asking for the observer's descriptor table.
struct Snoop {
    target: Pid,
}

impl Program for Snoop {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let verdict = match sys.open_fds(self.target) {
            Ok(fds) => format!("ok {}", fds.len()),
            Err(e) => format!("{e:?}"),
        };
        sys.stable_put(SNOOP, verdict);
    }
}

/// What one backend reported: the observer's log and the prober's verdict.
type Outcome = (String, String);

fn text(bytes: Option<Bytes>, what: &str, backend: &str) -> String {
    let bytes = bytes.unwrap_or_else(|| panic!("{backend}: no {what} within the budget"));
    String::from_utf8(bytes.to_vec()).expect("utf-8 report")
}

fn run_on<R: Runtime>(rt: &mut R, backend: &str) -> Outcome {
    let host = rt.add_host("a", CpuClass::Vax780);
    let observer = rt
        .spawn_user(
            host,
            OWNER,
            SpawnSpec::new("observer", Box::<Observer>::default()),
        )
        .expect("spawn observer");
    let snoop = Snoop { target: observer };
    rt.spawn_user(host, STRANGER, SpawnSpec::new("snoop", Box::new(snoop)))
        .expect("spawn snoop");
    for _ in 0..250 {
        if rt.stable_get(host, REPORT).is_some() {
            break;
        }
        rt.run(SimDuration::from_millis(20));
    }
    (
        text(rt.stable_get(host, REPORT), "report", backend),
        text(rt.stable_get(host, SNOOP), "snoop verdict", backend),
    )
}

fn run_on_mc() -> Outcome {
    let mut w = McWorld::new(&["a"], SimDuration::from_secs(20));
    let observer = w.spawn_program(0, OWNER, "observer", Box::<Observer>::default());
    let snoop = Snoop { target: observer };
    w.spawn_program(0, STRANGER, "snoop", Box::new(snoop));
    assert!(w.run_to_quiescence(10_000), "mc: script never quiesced");
    let disk = w.kernel(0);
    (
        text(disk.stable_get(REPORT), "report", "mc"),
        text(disk.stable_get(SNOOP), "snoop verdict", "mc"),
    )
}

#[test]
fn one_script_same_kernel_events_on_sim_real_and_mc() {
    let sim = run_on(&mut SimRuntime::new(7), "sim");
    let expected = "\
exec subject subject
fork subject -> kid
file-open subject /tmp/parity
file-close subject /tmp/parity
exec kid kid
signal subject SIGSTOP
stop subject
signal subject SIGCONT
cont subject
signal subject SIGUSR1
signal kid SIGUSR1
signal subject SIGUSR2
exit subject exit(3) forks=1 signals=4 files=1
signal kid SIGKILL
exit kid killed by SIGKILL forks=0 signals=2 files=0
own open_fds Ok(1)";
    assert_eq!(sim.0, expected, "sim: kernel-event sequence");
    assert_eq!(
        sim.1,
        format!("{:?}", SysError::PermissionDenied),
        "sim: a foreign uid may not list another user's descriptors"
    );
    let real = run_on(&mut RealRuntime::with_trace(false), "real");
    assert_eq!(real, sim, "real backend diverges from sim");
    assert_eq!(run_on_mc(), sim, "model checker diverges from sim");
}

const SINK: &str = "sink";
const SINK_PORT: Port = Port(9);
/// Stable-storage keys of the second script's three findings.
const FINDINGS: [&str; 3] = ["parity.daemon_ppid", "parity.closer_fds", "parity.told_fds"];

fn own_fd_kinds(sys: &dyn Sys) -> String {
    let fds = sys.open_fds(sys.pid()).expect("own table");
    let kinds: Vec<_> = fds.iter().map(|(_, kind)| kind.kind_name()).collect();
    kinds.join(",")
}

/// The daemon: accepts, and reports its descriptors when told of a close.
struct Sink;

impl Program for Sink {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(SINK_PORT).expect("port free");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, _: ConnId, event: ConnEvent) {
        if event == ConnEvent::Closed {
            sys.stable_put(FINDINGS[2], own_fd_kinds(sys));
        }
    }
}

/// Root's caller: starts the daemon, connects until it listens, closes.
struct Caller;

impl Program for Caller {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let (daemon, _) = sys.spawn_service(SINK).expect("root starts services");
        let ppid = sys.proc_info(daemon).expect("just started").ppid;
        sys.stable_put(FINDINGS[0], ppid.to_string());
        self.on_timer(sys, 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _: u64) {
        sys.connect(sys.host(), SINK_PORT).expect("host known");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        match event {
            ConnEvent::Established => {
                sys.close(conn).expect("own connection");
                sys.stable_put(FINDINGS[1], own_fd_kinds(sys));
            }
            _ => sys.set_timer(SimDuration::from_millis(5), 0),
        }
    }
}

fn sink_factory() -> ppm_runtime::rt::ServiceFactory {
    Box::new(|_| Box::new(Sink))
}

fn findings(backend: &str, get: impl Fn(&str) -> Option<Bytes>) -> Vec<String> {
    let read = |key: &&str| text(get(key), key, backend);
    FINDINGS.iter().map(read).collect()
}

fn dial_on<R: Runtime>(rt: &mut R, backend: &str) -> Vec<String> {
    rt.register_service(SINK, SINK_PORT, sink_factory());
    let host = rt.add_host("a", CpuClass::Vax780);
    rt.spawn_user(host, Uid::ROOT, SpawnSpec::new("caller", Box::new(Caller)))
        .expect("spawn caller");
    for _ in 0..250 {
        if rt.stable_get(host, FINDINGS[2]).is_some() {
            break;
        }
        rt.run(SimDuration::from_millis(20));
    }
    findings(backend, |key| rt.stable_get(host, key))
}

#[test]
fn a_daemon_is_inits_child_and_a_closed_connection_leaves_no_descriptor() {
    let expected = ["1", "", "listener"];
    assert_eq!(dial_on(&mut SimRuntime::new(7), "sim"), expected);
    assert_eq!(
        dial_on(&mut RealRuntime::with_trace(false), "real"),
        expected
    );
    let mut w = McWorld::new(&["a"], SimDuration::from_secs(20));
    w.register_service(SINK, SINK_PORT, sink_factory());
    w.spawn_program(0, Uid::ROOT, "caller", Box::new(Caller));
    assert!(w.run_to_quiescence(10_000), "mc: script never quiesced");
    assert_eq!(findings("mc", |key| w.kernel(0).stable_get(key)), expected);
}
