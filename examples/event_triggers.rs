//! History-dependent triggers — "history dependent events can be set by
//! users to trigger process state changes" and the conclusions'
//! "event driven user defined actions".
//!
//! Three triggers are installed:
//! 1. notify when the batch job finishes;
//! 2. when the producer exits, kill the consumer on another host;
//! 3. kill any `runaway`-named process once it has burned 500 ms of CPU.
//!
//! Run with: `cargo run --example event_triggers`

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{ControlAction, Op};
use ppm::proto::triggers::{EventPattern, TriggerAction, TriggerSpec};
use ppm::simnet::time::{SimDuration, SimTime};
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::Uid;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let user = Uid(100);
    let mut ppm = PpmHarness::builder()
        .host("alpha", CpuClass::Vax780)
        .host("beta", CpuClass::Vax750)
        .link("alpha", "beta")
        .user(user, 0xFEED, &["alpha"], PpmConfig::default())
        .build();

    let batch = ppm.spawn_remote("alpha", user, "alpha", "batch-job", None, None)?;
    let producer = ppm.spawn_remote("alpha", user, "alpha", "producer", None, None)?;
    let consumer = ppm.spawn_remote("alpha", user, "beta", "consumer", None, None)?;
    println!("batch={batch} producer={producer} consumer={consumer}");

    let add = |id, pattern, action, once| {
        ToolStep::new(
            "alpha",
            Op::AddTrigger {
                spec: TriggerSpec {
                    id,
                    pattern,
                    action,
                    once,
                },
            },
        )
    };
    let outcome = ppm.run_tool(
        "alpha",
        user,
        vec![
            add(
                1,
                EventPattern::kind("exit").with_pid(batch.pid),
                TriggerAction::Notify {
                    note: "batch job finished".into(),
                },
                true,
            ),
            add(
                2,
                EventPattern::kind("exit").with_pid(producer.pid),
                TriggerAction::Signal {
                    target: consumer.clone(),
                    signal: 15,
                },
                true,
            ),
            add(
                3,
                EventPattern::default()
                    .with_command_prefix("runaway")
                    .with_min_cpu_us(500_000),
                TriggerAction::Signal {
                    target: ppm::proto::types::Gpid::new("alpha", 0),
                    signal: 9,
                },
                false,
            ),
            ToolStep::new("alpha", Op::ListTriggers),
        ],
        SimDuration::from_secs(30),
    )?;
    println!("installed triggers: {:?}", outcome.reply(3));

    // Fire trigger 1 and 2 by killing batch and producer.
    ppm.control("alpha", user, &batch, ControlAction::Kill)?;
    ppm.control("alpha", user, &producer, ControlAction::Kill)?;
    ppm.run_for(SimDuration::from_secs(3));

    let beta = ppm.host("beta")?;
    let consumer_alive = ppm
        .world()
        .kernel(beta)
        .get(ppm::simos::ids::Pid(consumer.pid))
        .unwrap()
        .is_alive();
    println!("consumer alive after producer exit: {consumer_alive} (expected false)");
    assert!(!consumer_alive, "trigger 2 delivered SIGTERM across hosts");

    let events = ppm.history("alpha", user, "alpha", SimTime::ZERO, 500)?;
    for e in &events {
        if e.kind.starts_with("trigger") {
            println!(
                "trigger event: [{:>9.3}ms] {} {}",
                e.at_us as f64 / 1000.0,
                e.kind,
                e.detail
            );
        }
    }
    assert!(events
        .iter()
        .any(|e| e.detail.contains("batch job finished")));
    println!("done at {}", ppm.now());
    Ok(())
}
