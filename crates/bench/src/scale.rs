//! Scale stress test — beyond the paper.
//!
//! "The PPM's algorithms were designed to scale well into the tens of
//! nodes, but we have yet to stress test our implementation." Here we run
//! the stress test the authors could not: global snapshots and directed
//! control as the PPM grows to tens of hosts, under star and chain
//! sibling graphs.

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::{ControlAction, Op, Reply};
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);

/// Sibling-graph shape for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The originator is connected to every other LPM directly.
    Star,
    /// LPMs form a line; the wave relays hop by hop.
    Chain,
}

impl Shape {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Shape::Star => "star",
            Shape::Chain => "chain",
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Total hosts (originator included).
    pub hosts: usize,
    /// Global snapshot elapsed ms.
    pub snapshot_ms: f64,
    /// Processes gathered.
    pub procs: usize,
    /// Directed stop of a process on the farthest host, elapsed ms.
    pub control_far_ms: f64,
}

/// Builds an `n`-host PPM with the given sibling shape (one managed
/// process per non-origin host) and measures a global snapshot plus a
/// directed control of the farthest process.
pub fn measure(n: usize, shape: Shape, seed: u64) -> ScalePoint {
    assert!(n >= 2, "need at least two hosts");
    let mut b = PpmHarness::builder().seed(seed);
    for i in 0..n {
        b = b.host(
            format!("h{i}"),
            if i % 3 == 2 {
                CpuClass::Vax750
            } else {
                CpuClass::Vax780
            },
        );
    }
    match shape {
        Shape::Star => {
            for i in 1..n {
                b = b.link("h0".to_string(), format!("h{i}"));
            }
        }
        Shape::Chain => {
            for i in 1..n {
                b = b.link(format!("h{}", i - 1), format!("h{i}"));
            }
        }
    }
    // Deep chains take several sequential wave legs; give the echo wave
    // room before its safety timeout.
    let cfg = PpmConfig {
        bcast_timeout: SimDuration::from_secs(60),
        req_timeout: SimDuration::from_secs(60),
        ..PpmConfig::default()
    };
    let mut ppm = b.user(USER, 0x1986, &["h0"], cfg).build();

    // Build the sibling graph by creating one process per remote host
    // from the right creator.
    let mut far = None;
    for i in 1..n {
        let creator = match shape {
            Shape::Star => "h0".to_string(),
            Shape::Chain => format!("h{}", i - 1),
        };
        let g = ppm
            .spawn_remote(
                &creator,
                USER,
                &format!("h{i}"),
                &format!("p{i}"),
                None,
                None,
            )
            .expect("populate");
        far = Some(g);
    }
    let far = far.expect("n >= 2");
    ppm.run_for(SimDuration::from_secs(25));

    let outcome = ppm
        .run_tool(
            "h0",
            USER,
            vec![ToolStep::new("*", Op::Snapshot)],
            SimDuration::from_secs(120),
        )
        .expect("snapshot tool");
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    let snapshot_ms = outcome.elapsed(0).expect("reply").as_millis_f64();
    let procs = match outcome.reply(0) {
        Some(Reply::Snapshot { procs, .. }) => procs.len(),
        _ => 0,
    };

    ppm.run_for(SimDuration::from_secs(25));
    let outcome = ppm
        .run_tool(
            "h0",
            USER,
            vec![ToolStep::new(
                far.host.to_string(),
                Op::Control {
                    pid: far.pid,
                    action: ControlAction::Stop,
                },
            )],
            SimDuration::from_secs(120),
        )
        .expect("control tool");
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    let control_far_ms = outcome.elapsed(0).expect("reply").as_millis_f64();

    ScalePoint {
        hosts: n,
        snapshot_ms,
        procs,
        control_far_ms,
    }
}

/// The sweep used by the bench target.
pub fn sweep(shape: Shape, sizes: &[usize], seed: u64) -> Vec<ScalePoint> {
    sizes.iter().map(|&n| measure(n, shape, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_snapshot_scales_gently_into_tens_of_nodes() {
        let small = measure(4, Shape::Star, 31);
        let big = measure(16, Shape::Star, 31);
        assert_eq!(small.procs, 3);
        assert_eq!(big.procs, 15, "every host contributed");
        // 4x the hosts must cost far less than 4x the time (parallel wave;
        // only the serialized merges grow).
        assert!(
            big.snapshot_ms < small.snapshot_ms * 3.0,
            "small {:.0}ms big {:.0}ms",
            small.snapshot_ms,
            big.snapshot_ms
        );
    }

    #[test]
    fn chain_snapshot_grows_linearly_with_depth() {
        let d4 = measure(4, Shape::Chain, 32);
        let d8 = measure(8, Shape::Chain, 32);
        assert_eq!(d8.procs, 7);
        let per_leg_4 = d4.snapshot_ms / 3.0;
        let per_leg_8 = d8.snapshot_ms / 7.0;
        // Per-leg cost is roughly constant: the wave is sequential.
        let ratio = per_leg_8 / per_leg_4;
        assert!((0.6..1.6).contains(&ratio), "per-leg ratio {ratio:.2}");
        assert!(d8.snapshot_ms > d4.snapshot_ms * 1.7);
    }

    #[test]
    fn directed_control_cost_is_flat_in_a_star() {
        let small = measure(4, Shape::Star, 33);
        let big = measure(12, Shape::Star, 33);
        // Controlling one remote process does not get more expensive as
        // the PPM grows: on-demand design, "overhead proportional to the
        // amount of service provided".
        let ratio = big.control_far_ms / small.control_far_ms;
        assert!(
            (0.7..1.4).contains(&ratio),
            "{:.0}ms vs {:.0}ms",
            small.control_far_ms,
            big.control_far_ms
        );
    }
}
