//! Backend conformance: one suite of observation programs, run over the
//! simulated runtime, the real loopback runtime and the model checker's
//! world (its default schedule) through the [`Runtime`] facade.
//!
//! The programs report what they observed through stable storage (the
//! facade's only introspection channel), so the assertions are identical
//! for every backend: message ordering over a connection, timer firing
//! order, deadline expiry against the backend clock, refused
//! connects, close notification, and child-exit plus kernel-event
//! delivery for adopted processes.

use bytes::Bytes;

use ppm_proto::kernel_wire::for_each_kernel_msg;
use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::ids::{ConnId, CpuClass, HostId, Pid, Port, Uid};
use ppm_runtime::program::{ConnEvent, KernelMsg, Program, SpawnSpec, SysError};
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::ExitStatus;
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{Micros, SimDuration};

const USER: Uid = Uid(100);
const ECHO_PORT: Port = Port(40);
const CLOSER_PORT: Port = Port(41);
const DEAD_PORT: Port = Port(99);

/// Polls a stable-storage key while letting the backend run.
fn wait_for<R: Runtime>(rt: &mut R, host: HostId, key: &str, budget_ms: u64) -> Option<Bytes> {
    let step = 20;
    let mut waited = 0;
    loop {
        if let Some(v) = rt.stable_get(host, key) {
            return Some(v);
        }
        if waited >= budget_ms {
            return None;
        }
        rt.run(SimDuration::from_millis(step));
        waited += step;
    }
}

/// Listens and echoes every message back on the same connection.
struct EchoServer {
    port: Port,
}

impl Program for EchoServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(self.port).expect("echo port free");
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let _ = sys.send(conn, data);
    }

    fn name(&self) -> &str {
        "echo-server"
    }
}

/// Connects to the echo server, sends three messages after establishment,
/// and records the concatenated echoes — proving per-connection FIFO
/// ordering end to end.
struct OrderClient {
    server: HostId,
    got: Vec<u8>,
}

impl Program for OrderClient {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, ECHO_PORT).expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if event == ConnEvent::Established {
            for part in [&b"a"[..], b"b", b"c"] {
                let _ = sys.send(conn, Bytes::copy_from_slice(part));
            }
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, _conn: ConnId, data: Bytes) {
        self.got.extend_from_slice(&data);
        if self.got.len() >= 3 {
            sys.stable_put("conf.order", Bytes::copy_from_slice(&self.got));
        }
    }

    fn name(&self) -> &str {
        "order-client"
    }
}

/// Arms three timers, longest delay first, and records the order they
/// fire in.
struct TimerProg {
    fired: Vec<u64>,
}

impl Program for TimerProg {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(60), 1);
        sys.set_timer(SimDuration::from_millis(40), 3);
        sys.set_timer(SimDuration::from_millis(20), 2);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        self.fired.push(token);
        if self.fired.len() == 3 {
            let order = self
                .fired
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            sys.stable_put("conf.timers", order);
        }
    }

    fn name(&self) -> &str {
        "timer-prog"
    }
}

/// Arms a deadline and checks the backend clock actually reached it when
/// the timer fires.
struct DeadlineProg {
    armed_at: Micros,
}

impl Program for DeadlineProg {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.armed_at = sys.now();
        sys.set_timer(SimDuration::from_millis(25), 9);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        let elapsed = sys.now().saturating_since(self.armed_at);
        let verdict: &[u8] = if elapsed.as_micros() >= 25_000 {
            b"expired"
        } else {
            b"early"
        };
        sys.stable_put("conf.deadline", Bytes::from_static(verdict));
    }

    fn name(&self) -> &str {
        "deadline-prog"
    }
}

/// Connects to a port nobody listens on and records the failure.
struct RefusedClient {
    server: HostId,
}

impl Program for RefusedClient {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, DEAD_PORT).expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, _conn: ConnId, event: ConnEvent) {
        if event == ConnEvent::Failed(SysError::ConnectionRefused) {
            sys.stable_put("conf.refused", Bytes::from_static(b"refused"));
        }
    }

    fn name(&self) -> &str {
        "refused-client"
    }
}

/// Accepts one connection and exits on the first message, so the peer
/// observes a close.
struct CloserServer;

impl Program for CloserServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(CLOSER_PORT).expect("closer port free");
    }

    fn on_message(&mut self, sys: &mut dyn Sys, _conn: ConnId, _data: Bytes) {
        sys.exit(0);
    }

    fn name(&self) -> &str {
        "closer-server"
    }
}

/// Sends one message and records the close notification that follows the
/// server's exit.
struct CloseWatcher {
    server: HostId,
}

impl Program for CloseWatcher {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, CLOSER_PORT)
            .expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        match event {
            ConnEvent::Established => {
                let _ = sys.send(conn, Bytes::from_static(b"x"));
            }
            ConnEvent::Closed => {
                sys.stable_put("conf.closed", Bytes::from_static(b"closed"));
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "close-watcher"
    }
}

/// Exits with code 7 shortly after starting.
struct ShortChild;

impl Program for ShortChild {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(15), 1);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(7);
    }

    fn name(&self) -> &str {
        "short-child"
    }
}

/// Spawns and adopts a child, then records both notification paths: the
/// parent's `on_child_exit` and the tracer's kernel Exit event.
struct ParentProg {
    child: Option<Pid>,
}

impl ParentProg {
    fn note_kernel(&mut self, sys: &mut dyn Sys, msg: KernelMsg) {
        if let KernelEvent::Exit {
            pid,
            status: ExitStatus::Code(code),
            ..
        } = msg.event
        {
            if Some(pid) == self.child {
                sys.stable_put("conf.kexit", format!("code:{code}"));
            }
        }
    }
}

impl Program for ParentProg {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        let pid = sys
            .spawn(SpawnSpec::new("short-child", Box::new(ShortChild)))
            .expect("spawn child");
        sys.adopt(pid, TraceFlags::PROC).expect("adopt own child");
        self.child = Some(pid);
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        if Some(child) == self.child && status == ExitStatus::Code(7) {
            sys.stable_put("conf.child", Bytes::from_static(b"code:7"));
        }
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        for_each_kernel_msg(&data, |msg| self.note_kernel(sys, msg));
    }

    fn name(&self) -> &str {
        "parent-prog"
    }
}

/// Runs the whole suite against one backend.
fn conformance_suite<R: Runtime>(rt: &mut R) {
    let alpha = rt.add_host("alpha", CpuClass::Vax780);
    let beta = rt.add_host("beta", CpuClass::Vax780);

    // Servers first; give them time to bind.
    rt.spawn_user(
        beta,
        USER,
        SpawnSpec::new("echo-server", Box::new(EchoServer { port: ECHO_PORT })),
    )
    .expect("spawn echo server");
    rt.spawn_user(
        beta,
        USER,
        SpawnSpec::new("closer-server", Box::new(CloserServer)),
    )
    .expect("spawn closer server");
    rt.run(SimDuration::from_millis(120));

    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new(
            "order-client",
            Box::new(OrderClient {
                server: beta,
                got: Vec::new(),
            }),
        ),
    )
    .expect("spawn order client");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new("timer-prog", Box::new(TimerProg { fired: Vec::new() })),
    )
    .expect("spawn timer prog");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new(
            "deadline-prog",
            Box::new(DeadlineProg {
                armed_at: Micros::ZERO,
            }),
        ),
    )
    .expect("spawn deadline prog");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new("refused-client", Box::new(RefusedClient { server: beta })),
    )
    .expect("spawn refused client");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new("close-watcher", Box::new(CloseWatcher { server: beta })),
    )
    .expect("spawn close watcher");
    let parent = rt
        .spawn_user(
            beta,
            USER,
            SpawnSpec::new("parent-prog", Box::new(ParentProg { child: None })),
        )
        .expect("spawn parent");

    let budget = 5_000;
    assert_eq!(
        wait_for(rt, alpha, "conf.order", budget).as_deref(),
        Some(&b"abc"[..]),
        "echoed messages arrive in send order"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.timers", budget).as_deref(),
        Some(&b"2,3,1"[..]),
        "timers fire shortest-delay first"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.deadline", budget).as_deref(),
        Some(&b"expired"[..]),
        "a timer never fires before its deadline on the backend clock"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.refused", budget).as_deref(),
        Some(&b"refused"[..]),
        "connecting to an unbound port reports ConnectionRefused"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.closed", budget).as_deref(),
        Some(&b"closed"[..]),
        "a peer exit surfaces as a Closed event"
    );
    assert_eq!(
        wait_for(rt, beta, "conf.child", budget).as_deref(),
        Some(&b"code:7"[..]),
        "the parent hears its child's exit status"
    );
    assert_eq!(
        wait_for(rt, beta, "conf.kexit", budget).as_deref(),
        Some(&b"code:7"[..]),
        "the tracer receives the kernel Exit event for an adopted child"
    );
    assert!(rt.is_alive(beta, parent), "the parent program is still up");
    assert!(rt.now() > Micros::ZERO, "the backend clock advanced");
}

#[test]
fn sim_backend_conforms() {
    let mut rt = ppm_simos::rt::SimRuntime::new(0xC0FFEE);
    conformance_suite(&mut rt);
}

#[test]
fn real_backend_conforms() {
    let mut rt = ppm_realos::RealRuntime::new();
    conformance_suite(&mut rt);
}

#[test]
fn mc_backend_conforms() {
    let mut rt = ppm_mc::McWorld::new();
    conformance_suite(&mut rt);
}
