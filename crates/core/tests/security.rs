//! Authentication and isolation tests — Section 3: "Our current
//! authentication scheme can only prevent user-level masquerade" — plus
//! per-user isolation of the management domain.

use bytes::Bytes;
use ppm_core::auth::UserCred;
use ppm_core::client::{Tool, ToolStep};
use ppm_core::config::PpmConfig;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::Op;
use ppm_runtime::program::{ConnEvent, Program, SpawnSpec};
use ppm_runtime::sys::Sys;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::{ConnId, Uid};

const ALICE: Uid = Uid(100);
const BOB: Uid = Uid(200);
const ALICE_SECRET: u64 = 0xA11CE;
const BOB_SECRET: u64 = 0xB0B;

fn harness() -> PpmHarness {
    PpmHarness::builder()
        .host("shared", CpuClass::Vax780)
        .host("other", CpuClass::Vax750)
        .link("shared", "other")
        .user(ALICE, ALICE_SECRET, &["shared"], PpmConfig::default())
        .user(BOB, BOB_SECRET, &["shared"], PpmConfig::default())
        .build()
}

#[test]
fn masquerading_tool_with_wrong_secret_is_rejected() {
    let mut ppm = harness();
    // Alice's LPM exists.
    ppm.spawn_remote("shared", ALICE, "shared", "job", None, None)
        .unwrap();

    // An attacker claims to be Alice but only knows Bob's secret.
    let forged = UserCred::new(ALICE, BOB_SECRET);
    let (tool, handle) = Tool::new(
        forged,
        PpmConfig::default(),
        vec![ToolStep::new("shared", Op::Snapshot)],
    );
    let host = ppm.host("shared").unwrap();
    ppm.world_mut()
        .spawn_user(host, ALICE, SpawnSpec::new("evil-tool", Box::new(tool)))
        .unwrap();
    ppm.run_for(SimDuration::from_secs(10));

    let outcome = handle.lock().unwrap().clone();
    assert!(outcome.done);
    let err = outcome.error.expect("authentication must fail");
    assert!(err.contains("permission denied"), "{err}");
    assert!(outcome.replies.is_empty(), "no data leaked");
}

#[test]
fn users_have_separate_lpms_and_views() {
    let mut ppm = harness();
    let a = ppm
        .spawn_remote("shared", ALICE, "shared", "alice-job", None, None)
        .unwrap();
    let b = ppm
        .spawn_remote("shared", BOB, "shared", "bob-job", None, None)
        .unwrap();

    let alices = ppm.snapshot("shared", ALICE, "*").unwrap();
    assert!(alices.iter().any(|p| p.gpid == a));
    assert!(
        !alices.iter().any(|p| p.gpid == b),
        "Bob's processes invisible to Alice"
    );

    let bobs = ppm.snapshot("shared", BOB, "*").unwrap();
    assert!(bobs.iter().any(|p| p.gpid == b));
    assert!(!bobs.iter().any(|p| p.gpid == a));

    // Two LPM processes exist on the shared host, one per user.
    let host = ppm.host("shared").unwrap();
    let lpms = ppm
        .world()
        .core()
        .kernel(host)
        .processes()
        .filter(|p| p.command.starts_with("lpm") && p.is_alive())
        .count();
    assert_eq!(lpms, 2);
}

#[test]
fn cross_user_control_is_denied_end_to_end() {
    let mut ppm = harness();
    let a = ppm
        .spawn_remote("shared", ALICE, "shared", "alice-job", None, None)
        .unwrap();
    // Bob (with his own valid credentials) asks *his* LPM to kill Alice's
    // process; the kernel-level uid check refuses.
    let err = ppm
        .control("shared", BOB, &a, ppm_proto::msg::ControlAction::Kill)
        .unwrap_err();
    assert!(err.to_string().contains("Permission"), "{err}");
    let host = ppm.host("shared").unwrap();
    assert!(ppm
        .world()
        .core()
        .kernel(host)
        .get(ppm_simos::ids::Pid(a.pid))
        .unwrap()
        .is_alive());
}

/// A program that connects straight to an LPM accept port and sends
/// garbage instead of a `Hello`.
struct GarbageSender {
    port: ppm_simos::ids::Port,
    conn: Option<ConnId>,
    closed: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Program for GarbageSender {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.conn = sys.connect(sys.host(), self.port).ok();
    }
    fn on_conn_event(&mut self, sys: &mut dyn Sys, _conn: ConnId, event: ConnEvent) {
        match event {
            ConnEvent::Established => {
                let conn = self.conn.expect("connected");
                let _ = sys.send(conn, Bytes::from_static(b"\xFF\xFFnot a hello"));
            }
            ConnEvent::Closed | ConnEvent::Failed(_) => {
                self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
                sys.exit(0);
            }
            _ => {}
        }
    }
    fn name(&self) -> &str {
        "garbage"
    }
}

#[test]
fn protocol_violation_before_hello_drops_the_channel() {
    let mut ppm = harness();
    ppm.spawn_remote("shared", ALICE, "shared", "job", None, None)
        .unwrap();
    let closed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let prog = GarbageSender {
        port: ppm_core::config::lpm_port(ALICE),
        conn: None,
        closed: std::sync::Arc::clone(&closed),
    };
    let host = ppm.host("shared").unwrap();
    ppm.world_mut()
        .spawn_user(host, BOB, SpawnSpec::new("garbage", Box::new(prog)))
        .unwrap();
    ppm.run_for(SimDuration::from_secs(5));
    assert!(
        closed.load(std::sync::atomic::Ordering::SeqCst),
        "LPM closed the unauthenticated channel"
    );

    // The LPM is unharmed.
    let procs = ppm.snapshot("shared", ALICE, "shared").unwrap();
    assert!(!procs.is_empty());
}

#[test]
fn unknown_user_cannot_create_an_lpm() {
    let mut ppm = harness();
    // uid 999 is not in the directory; pmd answers NoLpm and the channel
    // reports a permanent failure.
    let ghost = UserCred::new(Uid(999), 1234);
    let (tool, handle) = Tool::new(
        ghost,
        PpmConfig::default(),
        vec![ToolStep::new("shared", Op::Ping)],
    );
    let host = ppm.host("shared").unwrap();
    ppm.world_mut()
        .spawn_user(host, Uid(999), SpawnSpec::new("ghost-tool", Box::new(tool)))
        .unwrap();
    ppm.run_for(SimDuration::from_secs(10));
    let outcome = handle.lock().unwrap().clone();
    assert!(outcome.done);
    assert!(outcome.error.is_some());
}
