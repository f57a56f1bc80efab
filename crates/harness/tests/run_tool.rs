//! The synchronous tool calls hand a finished tool's outcome over whole
//! — every reply of the script, in script order, with its timing — and
//! hand nothing over for a tool that has not finished.

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_harness::harness::{HarnessError, PpmHarness};
use ppm_proto::msg::{Op, Reply};
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);

fn pair() -> PpmHarness {
    PpmHarness::builder()
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax750)
        .link("a", "b")
        .user(USER, 0x7001, &["a"], PpmConfig::default())
        .build()
}

#[test]
fn a_pipelined_script_returns_every_reply_in_script_order() {
    let mut ppm = pair();
    ppm.spawn_remote("a", USER, "b", "job", None, None).unwrap();
    let script = vec![
        ToolStep::new("a", Op::Ping),
        ToolStep::new("*", Op::Snapshot),
        ToolStep::new("b", Op::Status),
        ToolStep::new("b", Op::Snapshot),
        ToolStep::new(
            "a",
            Op::Control {
                pid: 4_000_000,
                action: ppm_proto::msg::ControlAction::Stop,
            },
        ),
        ToolStep::new("b", Op::Ping),
    ];
    let steps = script.len();
    let out = ppm
        .run_tool_pipelined("a", USER, script, 3, SimDuration::from_secs(60))
        .unwrap();
    assert!(out.done);
    assert_eq!(out.error, None);
    assert!(out.started_at.is_some() && out.connected_at.is_some());
    assert_eq!(out.replies.len(), steps);
    assert_eq!(out.sent_at.len(), steps);
    assert!(matches!(out.reply(0), Some(Reply::Pong)));
    assert!(
        matches!(out.reply(1), Some(Reply::Snapshot { host, procs }) if host == "*" && procs.len() == 1)
    );
    assert!(matches!(out.reply(2), Some(Reply::Status { host, .. }) if host == "b"));
    assert!(
        matches!(out.reply(3), Some(Reply::Snapshot { host, procs }) if host == "b" && procs.len() == 1)
    );
    assert!(matches!(out.reply(4), Some(Reply::Err { .. })));
    assert!(matches!(out.reply(5), Some(Reply::Pong)));
    for i in 0..steps {
        assert!(out.elapsed(i).is_some(), "step {i} has its timing");
    }
}

#[test]
fn a_tool_that_has_not_finished_is_a_timeout() {
    let mut ppm = pair();
    // First contact has to create the LPM; one polling step of the wait
    // loop is not enough for that.
    let script = vec![ToolStep::new("a", Op::Ping)];
    let early = ppm.run_tool("a", USER, script.clone(), SimDuration::from_millis(1));
    assert_eq!(early.unwrap_err(), HarnessError::Timeout);
    // The abandoned tool runs on; the harness is none the worse.
    ppm.run_for(SimDuration::from_secs(5));
    let out = ppm
        .run_tool("a", USER, script, SimDuration::from_secs(60))
        .unwrap();
    assert!(matches!(out.reply(0), Some(Reply::Pong)));
}
