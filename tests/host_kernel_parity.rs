//! Two backends, one kernel.
//!
//! One observer script — adopt a process with every trace flag, watch it
//! fork, open and close a file, be stopped and continued, take a
//! catchable signal with and without a handler, exit, and watch its
//! child be killed — runs on the simulated world and on real loopback
//! nodes. (The model checker explores the sim's own world, and its
//! default schedule is the sim's run: `host_driver_differential` and
//! `scenario_runtimes` hold it there.) Both sit on
//! `ppm_runtime::kernel::Kernel`, so the tracer must
//! see the same `KernelEvent` sequence and the same resource usage, and
//! a foreign user's `open_fds` must be refused, on each of them.
//!
//! A second script starts a daemon the way inetd does and opens and
//! closes one connection to it: the daemon is init's child, and neither
//! end keeps a descriptor for the closed connection, on each of them.
//!
//! A third script walks one connection through every rule of the shared
//! connection table (`ppm_runtime::conn`): a refused connect, a send
//! before the handshake, one socket descriptor per end while it is up,
//! one message each way in both ends' rusage, a process on the server's
//! host refused the server's end, a close and a process exit each
//! reaching the peer as `Closed`, and `conn_alive` after it, with the
//! same findings on each of them.
//!
//! A fourth sends a process two signals from itself: its handler runs
//! for both, a fatal-by-default one included, and both count.
//!
//! A fifth asks the driver's facade about the host id just past the
//! last one: each action says `NoSuchHost`, each query `None` or
//! `false`, and none panics.
//!
//! A sixth starts two processes that exit and then go on calling, one
//! opening a file and one registering a kernel socket, both listening,
//! forking and killing their parent: each ends with its exit status,
//! neither counts a file, no tracer hears of one, the port stays free,
//! no orphan is forked, the parent lives, and none panics the world.
//!
//! A seventh kills its own child from a timer callback and is told the
//! child was killed. An eighth arms a timer that falls due while its
//! process is stopped, and whose child is killed meanwhile: the timer
//! callback and the child's exit notice run only after `SIGCONT`, and
//! each sees its process running.
//!
//! Each script is one generic driver, run on both `Runtime`s.

use bytes::Bytes;

use ppm_proto::kernel_wire::for_each_kernel_msg;
use ppm_realos::RealRuntime;
use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::fd::{FdKind, OpenMode};
use ppm_runtime::ids::{ConnId, CpuClass, HostId, Pid, Port, Uid};
use ppm_runtime::program::{ConnEvent, Program, SigAction, SpawnSpec, SysError};
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::SimDuration;
use ppm_simos::world::World;

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
        let fd = sys.open("/tmp/parity", OpenMode::Write).expect("alive");
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
        sys.register_kernel_socket().expect("alive");
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

/// Lets `rt` run until `host` keeps a record under `key`, for at most
/// five seconds of its clock.
fn wait_for<R: Runtime>(rt: &mut R, host: HostId, key: &str) {
    for _ in 0..250 {
        if rt.stable_get(host, key).is_some() {
            break;
        }
        rt.run(SimDuration::from_millis(20));
    }
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
    wait_for(rt, host, REPORT);
    (
        text(rt.stable_get(host, REPORT), "report", backend),
        text(rt.stable_get(host, SNOOP), "snoop verdict", backend),
    )
}

#[test]
fn one_script_same_kernel_events_on_sim_real_and_mc() {
    let sim = run_on(&mut World::new(7), "sim");
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

fn dial_on<R: Runtime>(rt: &mut R, backend: &str) -> Vec<String> {
    rt.register_service(SINK, SINK_PORT, Box::new(|_| Box::new(Sink)));
    let host = rt.add_host("a", CpuClass::Vax780);
    rt.spawn_user(host, Uid::ROOT, SpawnSpec::new("caller", Box::new(Caller)))
        .expect("spawn caller");
    wait_for(rt, host, FINDINGS[2]);
    let read = |key: &&str| text(rt.stable_get(host, key), key, backend);
    FINDINGS.iter().map(read).collect()
}

#[test]
fn a_daemon_is_inits_child_and_a_closed_connection_leaves_no_descriptor() {
    let expected = ["1", "", "listener"];
    assert_eq!(dial_on(&mut World::new(7), "sim"), expected);
    assert_eq!(
        dial_on(&mut RealRuntime::with_trace(false), "real"),
        expected
    );
}

const PORT_UP: Port = Port(21);
const PORT_DOWN: Port = Port(22);
/// Stable-storage keys the two ends of the third script report under.
const CONN_REPORTS: [&str; 2] = ["parity.conn.client", "parity.conn.server"];
/// Where the server leaves the id it accepted its first connection on.
const ACCEPTED_ID: &str = "parity.conn.accepted";

/// How many of `sys`'s descriptors are sockets; of `conn`'s, if given.
fn sockets(sys: &dyn Sys, conn: Option<ConnId>) -> usize {
    let fds = sys.open_fds(sys.pid()).expect("own table");
    let of = |kind: &FdKind| match kind {
        FdKind::Socket { conn: c } => conn.is_none_or(|want| *c == want),
        _ => false,
    };
    fds.iter().filter(|(_, kind)| of(kind)).count()
}

fn ipc(sys: &dyn Sys) -> String {
    let r = sys.rusage_of(sys.pid()).expect("own rusage");
    let (sent, got) = (
        (r.msgs_sent, r.bytes_sent),
        (r.msgs_received, r.bytes_received),
    );
    format!("sent {}/{}B received {}/{}B", sent.0, sent.1, got.0, got.1)
}

/// Listens, starts the client, answers its ping, and reports how its
/// two connections ended: one closed by the client, one by its exit.
#[derive(Default)]
struct ConnServer {
    accepted: Vec<ConnId>,
    lines: [Option<String>; 5],
}

impl Program for ConnServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(PORT_UP).expect("port free");
        sys.spawn(SpawnSpec::new("client", Box::<ConnClient>::default()))
            .expect("spawn client");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        let line = match event {
            ConnEvent::Accepted { port, .. } => {
                self.accepted.push(conn);
                let first = self.accepted.len() == 1;
                if first {
                    sys.stable_put(ACCEPTED_ID, conn.0.to_string());
                }
                first.then(|| (0, format!("accepted on {port}")))
            }
            ConnEvent::Closed => {
                let first = self.accepted.first() == Some(&conn);
                let (slot, how) = if first { (3, "closed") } else { (4, "exited") };
                let (alive, left) = (sys.conn_alive(conn), sockets(sys, Some(conn)));
                Some((slot, format!("peer {how}: alive {alive}, sockets {left}")))
            }
            other => Some((4, format!("unexpected {other:?}"))),
        };
        if let Some((slot, line)) = line {
            self.lines[slot] = Some(line);
        }
        if self.lines.iter().all(Option::is_some) {
            let report: Vec<_> = self.lines.iter().flatten().cloned().collect();
            sys.stable_put(CONN_REPORTS[1], report.join("\n"));
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let up = sockets(sys, None);
        self.lines[1] = Some(format!("got {} bytes, sockets {up}", data.len()));
        let _ = sys.send(conn, Bytes::from_static(b"pong!!"));
        self.lines[2] = Some(ipc(sys));
    }
}

/// Connects to a port nobody listens on, then to the server: sends too
/// early, pings, closes, connects again and exits holding it.
#[derive(Default)]
struct ConnClient {
    log: Vec<String>,
    first: Option<ConnId>,
}

impl Program for ConnClient {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(sys.host(), PORT_DOWN).expect("host known");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        match (event, self.first) {
            (ConnEvent::Failed(why), None) => {
                self.log.push(format!("no listener: {why:?}"));
                let conn = sys.connect(sys.host(), PORT_UP).expect("host known");
                let early = sys.send(conn, Bytes::from_static(b"early"));
                self.log.push(format!("send while connecting: {early:?}"));
                self.first = Some(conn);
            }
            (ConnEvent::Established, Some(first)) if conn == first => {
                let (up, alive) = (sockets(sys, None), sys.conn_alive(conn));
                self.log
                    .push(format!("established: sockets {up}, alive {alive}"));
                sys.send(conn, Bytes::from_static(b"ping"))
                    .expect("established");
            }
            (ConnEvent::Established, Some(_)) => {
                sys.stable_put(CONN_REPORTS[0], self.log.join("\n"));
                sys.exit(0);
            }
            (other, _) => self.log.push(format!("unexpected {other:?}")),
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, _: Bytes) {
        self.log.push(ipc(sys));
        // The server's end, from a process on its host: the sim names
        // both ends by one id, a real node names each end.
        let id = text(sys.stable_get(ACCEPTED_ID), ACCEPTED_ID, "client");
        let theirs = ConnId(id.parse().expect("an id"));
        let no = Err(SysError::NotConnected);
        let refused = theirs == conn
            || (sys.send(theirs, Bytes::from_static(b"x")) == no
                && !sys.conn_alive(theirs)
                && sys.close(theirs) == no);
        self.log
            .push(format!("only its own end is usable: {refused}"));
        sys.close(conn).expect("own connection");
        let (alive, left) = (sys.conn_alive(conn), sockets(sys, Some(conn)));
        self.log
            .push(format!("closed: alive {alive}, sockets {left}"));
        sys.connect(sys.host(), PORT_UP).expect("host known");
    }
}

fn conn_script_on<R: Runtime>(rt: &mut R, backend: &str) -> [String; 2] {
    let host = rt.add_host("a", CpuClass::Vax780);
    let server = SpawnSpec::new("server", Box::<ConnServer>::default());
    rt.spawn_user(host, OWNER, server).expect("spawn server");
    wait_for(rt, host, CONN_REPORTS[1]);
    CONN_REPORTS.map(|key| text(rt.stable_get(host, key), key, backend))
}

#[test]
fn one_connection_keeps_the_same_rules_on_sim_real_and_mc() {
    let expected = [
        "\
no listener: ConnectionRefused
send while connecting: Err(NotConnected)
established: sockets 1, alive true
sent 1/4B received 1/6B
only its own end is usable: true
closed: alive false, sockets 0",
        "\
accepted on :21
got 4 bytes, sockets 1
sent 1/6B received 1/4B
peer closed: alive false, sockets 0
peer exited: alive false, sockets 0",
    ];
    assert_eq!(conn_script_on(&mut World::new(7), "sim"), expected);
    let real = conn_script_on(&mut RealRuntime::with_trace(false), "real");
    assert_eq!(real, expected, "real backend diverges from sim");
}

/// Where the fourth script's process reports what it handled.
const SELF_REPORT: &str = "parity.self";

/// Handles every catchable signal, sends itself SIGUSR1 and SIGTERM
/// (fatal by default), and reports 30 ms later what reached it.
#[derive(Default)]
struct SelfSignaller {
    handled: Vec<String>,
}

impl Program for SelfSignaller {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        for signal in [Signal::Usr1, Signal::Term] {
            sys.kill(sys.pid(), signal).expect("its own pid");
        }
        sys.set_timer(SimDuration::from_millis(30), 0);
    }

    fn on_signal(&mut self, _: &mut dyn Sys, signal: Signal) -> SigAction {
        self.handled.push(signal.to_string());
        SigAction::Handled
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _: u64) {
        let received = sys.rusage_of(sys.pid()).expect("own rusage");
        let report = format!(
            "handled {:?} received {}",
            self.handled, received.signals_received
        );
        sys.stable_put(SELF_REPORT, report);
    }
}

fn self_signal_on<R: Runtime>(rt: &mut R, backend: &str) -> String {
    let host = rt.add_host("a", CpuClass::Vax780);
    let spec = SpawnSpec::new("self-signaller", Box::<SelfSignaller>::default());
    rt.spawn_user(host, OWNER, spec)
        .expect("spawn self-signaller");
    wait_for(rt, host, SELF_REPORT);
    text(rt.stable_get(host, SELF_REPORT), "report", backend)
}

#[test]
fn a_signal_a_process_sends_itself_reaches_its_handler_on_sim_real_and_mc() {
    let expected = r#"handled ["SIGUSR1", "SIGTERM"] received 2"#;
    assert_eq!(self_signal_on(&mut World::new(7), "sim"), expected);
    let real = self_signal_on(&mut RealRuntime::with_trace(false), "real");
    assert_eq!(real, expected, "real backend diverges from sim");
}

/// Every facade call that names a host, made with one no `add_host`
/// returned.
fn unknown_host_on<R: Runtime>(rt: &mut R) -> Vec<String> {
    let host = rt.add_host("a", CpuClass::Vax780);
    let ghost = HostId(host.0 + 1);
    let spawned = rt.spawn_user(ghost, OWNER, SpawnSpec::inert("ghost"));
    let signalled = rt.post_signal(OWNER, (ghost, Pid(2)), Signal::Kill);
    vec![
        format!("spawn_user {spawned:?}"),
        format!("post_signal {signalled:?}"),
        format!("find_proc {:?}", rt.find_proc(ghost, OWNER, "")),
        format!("is_alive {}", rt.is_alive(ghost, Pid::INIT)),
        format!("stable_get {:?}", rt.stable_get(ghost, REPORT)),
    ]
}

#[test]
fn an_unknown_host_is_an_answer_not_a_panic_on_sim_real_and_mc() {
    let expected = [
        "spawn_user Err(NoSuchHost)",
        "post_signal Err(NoSuchHost)",
        "find_proc None",
        "is_alive false",
        "stable_get None",
    ];
    let mut sim = World::new(7);
    assert_eq!(unknown_host_on(&mut sim), expected);
    assert_eq!(sim.power(HostId(1)), (false, 0), "sim: never booted");
    let real = unknown_host_on(&mut RealRuntime::with_trace(false));
    assert_eq!(real, expected, "real backend diverges from sim");
}

/// Where the sixth script's parent reports how its children ended.
const LATE_REPORT: &str = "parity.late";
/// The port each late caller tries to bind after its exit.
const LATE_PORT: Port = Port(23);
/// The command each late caller tries to fork after its exit.
const LATE_ORPHAN: &str = "late-orphan";

/// Exits, then opens a file (or, with `register`, registers a kernel
/// socket) as if it had not.
struct LateCaller {
    register: bool,
    parent: Pid,
}

impl Program for LateCaller {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.exit(0);
        if self.register {
            let _ = sys.register_kernel_socket();
        } else {
            let _ = sys.open("/tmp/late", OpenMode::Write);
        }
        // None of these may act: no port is bound to the dead, no
        // orphan forked by it, no signal sent in its name.
        let _ = sys.listen(LATE_PORT);
        let _ = sys.spawn(SpawnSpec::inert(LATE_ORPHAN));
        let _ = sys.kill(self.parent, Signal::Usr1);
    }
}

/// Starts and traces both late callers, and reports, in order, each
/// child's exit status and what its tracer heard of its files.
#[derive(Default)]
struct LateParent {
    names: Vec<(Pid, &'static str)>,
    lines: Vec<String>,
}

impl LateParent {
    fn name_of(&self, pid: Pid) -> &'static str {
        let name = self.names.iter().find(|(p, _)| *p == pid);
        name.map_or("other", |(_, name)| name)
    }

    /// Two lines per child: its exit status, and its exit event. The
    /// report follows 100 ms after the last, when any signal the
    /// children sent would have arrived.
    fn record(&mut self, sys: &mut dyn Sys, line: String) {
        self.lines.push(line);
        if self.lines.len() == 2 * self.names.len() {
            sys.set_timer(SimDuration::from_millis(100), 0);
        }
    }
}

impl Program for LateParent {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket().expect("alive");
        let parent = sys.pid();
        for (name, register) in [("late-open", false), ("late-register", true)] {
            let spec = SpawnSpec::new(name, Box::new(LateCaller { register, parent }));
            let pid = sys.spawn(spec).expect("spawn late caller");
            sys.adopt(pid, TraceFlags::ALL).expect("adopt own child");
            self.names.push((pid, name));
        }
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        let mut heard = Vec::new();
        for_each_kernel_msg(&data, |msg| match msg.event {
            KernelEvent::FileOpened { pid, path } => {
                heard.push(format!("{} opened {path}", self.name_of(pid)));
            }
            KernelEvent::Exit { pid, rusage, .. } => {
                let files = rusage.files_opened;
                heard.push(format!("{} exit event files={files}", self.name_of(pid)));
            }
            _ => {}
        });
        for line in heard {
            self.record(sys, line);
        }
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        let line = format!("{} {status}", self.name_of(child));
        self.record(sys, line);
    }

    /// Reports, after the children's lines, whether their late port is
    /// free, how many orphans they forked and how many signals reached
    /// this process.
    fn on_timer(&mut self, sys: &mut dyn Sys, _: u64) {
        self.lines.sort();
        let listen = sys.listen(LATE_PORT);
        let everyone = [OWNER, Uid::ROOT].map(|uid| sys.user_processes(uid));
        let orphans = everyone.iter().flatten();
        let orphans = orphans.filter(|p| p.command == LATE_ORPHAN).count();
        let signals = sys.rusage_of(sys.pid()).expect("alive").signals_received;
        let then = format!("then listen {listen:?}, orphans {orphans}, signals {signals}");
        self.lines.push(then);
        sys.stable_put(LATE_REPORT, self.lines.join("\n"));
    }

    fn on_signal(&mut self, _: &mut dyn Sys, _: Signal) -> SigAction {
        SigAction::Handled
    }
}

fn late_calls_on<R: Runtime>(rt: &mut R, backend: &str) -> String {
    let host = rt.add_host("a", CpuClass::Vax780);
    let spec = SpawnSpec::new("late-parent", Box::<LateParent>::default());
    rt.spawn_user(host, OWNER, spec).expect("spawn late parent");
    wait_for(rt, host, LATE_REPORT);
    text(rt.stable_get(host, LATE_REPORT), "report", backend)
}

#[test]
fn a_call_after_its_own_exit_is_answered_not_a_panic_on_sim_real_and_mc() {
    let expected = "\
late-open exit event files=0
late-open exit(0)
late-register exit event files=0
late-register exit(0)
then listen Ok(()), orphans 0, signals 0";
    assert_eq!(late_calls_on(&mut World::new(7), "sim"), expected);
    let real = late_calls_on(&mut RealRuntime::with_trace(false), "real");
    assert_eq!(real, expected, "real backend diverges from sim");
}

/// Where the seventh script's parent reports how its child ended.
const REAPED: &str = "parity.reaped";

/// Forks a child and kills it from a timer callback.
#[derive(Default)]
struct Reaper {
    kid: Option<Pid>,
}

impl Program for Reaper {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.kid = Some(sys.spawn(SpawnSpec::inert("kid")).expect("fork kid"));
        sys.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _: u64) {
        let kid = self.kid.expect("forked");
        sys.kill(kid, Signal::Kill).expect("its own child");
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        let who = if Some(child) == self.kid {
            "kid"
        } else {
            "other"
        };
        sys.stable_put(REAPED, format!("{who} {status}"));
    }
}

fn reap_on<R: Runtime>(rt: &mut R, backend: &str) -> String {
    let host = rt.add_host("a", CpuClass::Vax780);
    let spec = SpawnSpec::new("reaper", Box::<Reaper>::default());
    rt.spawn_user(host, OWNER, spec).expect("spawn reaper");
    wait_for(rt, host, REAPED);
    text(rt.stable_get(host, REAPED), "report", backend)
}

#[test]
fn a_parent_that_kills_its_own_child_is_told_on_sim_real_and_mc() {
    let expected = "kid killed by SIGKILL";
    assert_eq!(reap_on(&mut World::new(7), "sim"), expected);
    let real = reap_on(&mut RealRuntime::with_trace(false), "real");
    assert_eq!(real, expected, "real backend diverges from sim");
}

/// Where the eighth script's sleeper reports what its timer saw and
/// what it heard of its child, and where its parent marks that it sent
/// `SIGCONT`.
const WOKE: &str = "parity.woke";
const HEARD: &str = "parity.heard";
const CONTINUED: &str = "parity.continued";

/// Forks a child and arms a timer 100 ms ahead; reports, when the timer
/// runs and when it hears of the child's exit, its own state and
/// whether its `SIGCONT` was already sent.
struct Sleeper;

impl Sleeper {
    fn report(sys: &mut dyn Sys, key: &str, what: String) {
        let state = sys.proc_info(sys.pid()).expect("alive").state;
        let continued = sys.stable_get(CONTINUED).is_some();
        sys.stable_put(key, format!("{what}{state:?}, continued {continued}"));
    }
}

impl Program for Sleeper {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.spawn(SpawnSpec::inert("kid")).expect("fork kid");
        sys.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _: u64) {
        Sleeper::report(sys, WOKE, String::new());
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, _: Pid, status: ExitStatus) {
        Sleeper::report(sys, HEARD, format!("{status}, "));
    }
}

/// Stops the sleeper once it forks (its fork event says so), kills its
/// child 50 ms later, and continues it 250 ms after that, well past its
/// timer.
#[derive(Default)]
struct Stopper {
    sleeper: Option<Pid>,
    kid: Option<Pid>,
}

impl Program for Stopper {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket().expect("alive");
        let pid = sys.spawn(SpawnSpec::new("sleeper", Box::new(Sleeper)));
        let pid = pid.expect("spawn sleeper");
        sys.adopt(pid, TraceFlags::ALL).expect("adopt own child");
        self.sleeper = Some(pid);
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        let mut forked = None;
        for_each_kernel_msg(&data, |msg| {
            if let KernelEvent::Fork { child, .. } = msg.event {
                forked = Some(child);
            }
        });
        if let Some(kid) = forked.filter(|_| self.kid.is_none()) {
            self.kid = Some(kid);
            sys.kill(self.sleeper.expect("spawned"), Signal::Stop)
                .expect("own child");
            sys.set_timer(SimDuration::from_millis(50), 0);
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        if token == 0 {
            sys.kill(self.kid.expect("forked"), Signal::Kill)
                .expect("own grandchild");
            sys.set_timer(SimDuration::from_millis(250), 1);
        } else {
            sys.stable_put(CONTINUED, "yes");
            sys.kill(self.sleeper.expect("spawned"), Signal::Cont)
                .expect("own child");
        }
    }
}

fn stop_hold_on<R: Runtime>(rt: &mut R, backend: &str) -> [String; 2] {
    let host = rt.add_host("a", CpuClass::Vax780);
    let spec = SpawnSpec::new("stopper", Box::<Stopper>::default());
    rt.spawn_user(host, OWNER, spec).expect("spawn stopper");
    wait_for(rt, host, WOKE);
    wait_for(rt, host, HEARD);
    [WOKE, HEARD].map(|key| text(rt.stable_get(host, key), key, backend))
}

#[test]
fn a_timer_and_a_child_exit_due_while_stopped_run_after_sigcont_on_sim_real_and_mc() {
    let expected = [
        "Running, continued true",
        "killed by SIGKILL, Running, continued true",
    ];
    assert_eq!(stop_hold_on(&mut World::new(7), "sim"), expected);
    let real = stop_hold_on(&mut RealRuntime::with_trace(false), "real");
    assert_eq!(real, expected, "real backend diverges from sim");
}
