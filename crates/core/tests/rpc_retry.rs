//! Chaos tests for the unified RPC layer: retry with backoff on sibling
//! connection loss, idempotent deduplication of retried deliveries, and
//! deadline propagation.
//!
//! The invariant under test is exactly-once *execution* on top of
//! at-least-once *delivery*: a retried attempt reuses the original
//! correlation id, so the executing LPM either redirects the in-flight
//! request or replays its cached reply — it never runs the operation
//! twice. Duplicate execution would show up as a second process in the
//! genealogy, which the snapshot assertions rule out.

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_harness::harness::{PpmHarness, Runtime};
use ppm_proto::msg::{ErrCode, Op, Reply};
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);
const SECRET: u64 = 0x1986;

fn spawn_op(command: &str) -> Op {
    Op::Spawn {
        command: command.to_string(),
        logical_parent: None,
        lifetime_us: None,
        work_us: 0,
        cpu_bound: false,
    }
}

/// Two hosts on a single link, so taking the link down actually severs
/// them (richer topologies reroute at the network layer); the trace is
/// recorded for a test that reads it.
fn pair(trace: bool) -> PpmHarness {
    PpmHarness::builder()
        .trace(trace)
        .host("origin", CpuClass::Vax780)
        .host("exec", CpuClass::Vax750)
        .link("origin", "exec")
        .user(USER, SECRET, &["origin"], PpmConfig::fast_recovery())
        .build()
}

/// Warms the sibling channel origin → exec so later requests reuse an
/// established connection.
fn warm(ppm: &mut PpmHarness) {
    let outcome = ppm
        .run_tool(
            "origin",
            USER,
            vec![ToolStep::new("exec", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(outcome.error.is_none());
}

/// Counts live processes named `command` on `host` — the genealogy-level
/// duplicate-execution detector.
fn live_named(ppm: &mut PpmHarness, host: &str, command: &str) -> usize {
    ppm.snapshot("origin", USER, "*")
        .unwrap()
        .iter()
        .filter(|p| p.gpid.host == host && p.command == command)
        .count()
}

/// The sibling connection breaks before the request gets out: the origin
/// LPM retries under the same correlation id over a rebuilt channel, and
/// the operation executes exactly once.
#[test]
fn sibling_loss_before_delivery_retries_and_executes_once() {
    let mut ppm = pair(true);
    warm(&mut ppm);

    // Cut the direct link, healing it again shortly after. The stale
    // connection only notices on the next send (breakage surfaces after
    // the detection interval), so the first attempt is lost and the
    // retry rebuilds the channel over the healed link.
    let a = ppm.host("origin").unwrap();
    let b = ppm.host("exec").unwrap();
    ppm.world_mut()
        .schedule_link(a, b, false, SimDuration::from_millis(1));
    ppm.world_mut()
        .schedule_link(a, b, true, SimDuration::from_millis(250));

    let outcome = ppm
        .run_tool(
            "origin",
            USER,
            vec![ToolStep::new("exec", spawn_op("retried-job"))],
            SimDuration::from_secs(30),
        )
        .unwrap();
    assert!(outcome.error.is_none(), "error: {:?}", outcome.error);
    assert!(
        matches!(outcome.reply(0), Some(Reply::Spawned { .. })),
        "retried spawn succeeds: {:?}",
        outcome.reply(0)
    );

    let trace = ppm.world().trace().render(None);
    assert!(
        trace.contains("retry attempt 1"),
        "the retry path was exercised"
    );
    // Same correlation id end-to-end: the retry was scheduled under an
    // origin-scoped key, not a fresh wire id.
    let key = trace
        .lines()
        .find(|l| l.contains("retry attempt 1"))
        .and_then(|l| l.split("request ").nth(1))
        .and_then(|s| s.split(' ').next())
        .expect("retry trace names the correlation key");
    assert!(key.starts_with("origin#"), "key is origin-scoped: {key}");

    // Exactly one execution.
    assert_eq!(live_named(&mut ppm, "exec", "retried-job"), 1);
}

/// The request executes but its reply is lost to a partition: the origin
/// times out and retries, and the executor answers the duplicate from its
/// done-reply cache instead of running the operation again.
#[test]
fn lost_reply_is_replayed_from_the_dedup_cache_not_reexecuted() {
    let mut ppm = pair(true);
    warm(&mut ppm);

    let a = ppm.host("origin").unwrap();
    let b = ppm.host("exec").unwrap();
    // Launch the spawn asynchronously so the partition can hit
    // mid-request: after the request has been delivered, before the
    // reply is sent.
    let handle = ppm
        .launch_tool(
            "origin",
            USER,
            vec![ToolStep::new("exec", spawn_op("once-job"))],
        )
        .unwrap();
    // Let the tool start (~60 ms) and its request reach exec, then cut
    // the link while the handler is still working (the spawn's reply is
    // deferred until the child's exec event, ~60 ms later).
    ppm.run_for(SimDuration::from_millis(80));
    ppm.world_mut()
        .schedule_link(a, b, false, SimDuration::from_millis(1));
    // Heal before the origin's 3 s request timeout fires, so the retry
    // can get through.
    ppm.run_for(SimDuration::from_secs(1));
    ppm.world_mut()
        .schedule_link(a, b, true, SimDuration::from_millis(1));
    ppm.run_for(SimDuration::from_secs(20));

    let outcome = handle.lock().unwrap().clone();
    assert!(outcome.done, "tool finished after the retry");
    assert!(outcome.error.is_none(), "error: {:?}", outcome.error);
    assert!(
        matches!(outcome.reply(0), Some(Reply::Spawned { .. })),
        "spawn reply arrived on a later attempt: {:?}",
        outcome.reply(0)
    );

    let trace = ppm.world().trace().render(None);
    assert!(trace.contains("retry attempt"), "origin retried");
    assert!(
        trace.contains("replaying cached reply") || trace.contains("suppressed (in flight)"),
        "executor deduplicated the retried delivery"
    );
    // The genealogy shows exactly one execution despite the duplicate
    // delivery.
    assert_eq!(live_named(&mut ppm, "exec", "once-job"), 1);
}

/// A request stamped with a too-tight deadline is refused in flight with
/// `DeadlineExceeded` — distinct from `Timeout`, which means attempts
/// were exhausted with no verdict.
#[test]
fn expired_deadline_is_refused_in_flight() {
    let mut ppm = pair(false);
    warm(&mut ppm);

    // One hop costs ~5 ms and each relay decays the deadline by 20 ms,
    // so a 2 ms budget is unmeetable: the executing LPM refuses rather
    // than doing work whose answer can no longer arrive in time.
    let (tool, handle) = ppm_core::client::Tool::new(
        ppm_core::auth::UserCred::new(USER, SECRET),
        PpmConfig::fast_recovery(),
        vec![ToolStep::new("exec", Op::Ping)],
    );
    let tool = tool.with_step_deadline(SimDuration::from_millis(2));
    let h = ppm.host("origin").unwrap();
    ppm.world_mut()
        .spawn_user(
            h,
            USER,
            ppm_runtime::program::SpawnSpec::new("ppm-tool", Box::new(tool)),
        )
        .unwrap();
    ppm.run_for(SimDuration::from_secs(10));

    let outcome = handle.lock().unwrap().clone();
    assert!(outcome.done);
    assert!(
        matches!(
            outcome.reply(0),
            Some(Reply::Err {
                code: ErrCode::DeadlineExceeded,
                ..
            })
        ),
        "expired deadline maps to DeadlineExceeded, got {:?}",
        outcome.reply(0)
    );
}
