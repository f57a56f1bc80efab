//! A reply counts its records in 16 bits. A genealogy that has outgrown
//! that — or the parts of a broadcast that together have — must cost the
//! tool its answer, not the user the manager that was asked: the reply
//! is an error naming the count and the limit, and the LPM lives to
//! answer the next request.

use ppm_core::config::PpmConfig;
use ppm_harness::harness::{HarnessError, PpmHarness};
use ppm_proto::msg::{Reply, MAX_REPLY_RECORDS};
use ppm_runtime::events::TraceFlags;
use ppm_runtime::program::{Program, SpawnSpec};
use ppm_runtime::sys::Sys;
use ppm_runtime::workload::Worker;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);
/// Children forked per tick of a [`Forker`].
const BATCH: u32 = 512;

/// Forks `left` short-lived children, a batch every few milliseconds.
/// It holds first, so an adopt lands before the first fork and every
/// child is traced.
struct Forker {
    left: u32,
}

impl Program for Forker {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(500), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        let life = SimDuration::from_millis(2);
        for _ in 0..self.left.min(BATCH) {
            let child = Worker::new(life, SimDuration::ZERO);
            sys.spawn(SpawnSpec::new("kid", Box::new(child)))
                .expect("fork");
        }
        self.left = self.left.saturating_sub(BATCH);
        if self.left > 0 {
            sys.set_timer(SimDuration::from_millis(5), 0);
        }
    }
}

fn world(hosts: &[&str]) -> PpmHarness {
    let mut builder = PpmHarness::builder().seed(1986);
    for host in hosts {
        builder = builder.host(*host, CpuClass::Vax780);
    }
    for pair in hosts.windows(2) {
        builder = builder.link(pair[0], pair[1]);
    }
    // At Table 3's 0.8 ms a record, gathering tens of thousands would
    // outlast every request timer; the limit is what is under test.
    let config = PpmConfig {
        snapshot_per_proc_cost: SimDuration::from_micros(10),
        ..PpmConfig::default()
    };
    builder.user(USER, 0xBEEF, &[hosts[0]], config).build()
}

/// Starts a forker of `kids` children on `host`, adopted by the user's
/// LPM there from a tool on `from`: the LPM will hold `kids + 1` records.
fn fork_under_lpm(ppm: &mut PpmHarness, from: &str, host: &str, kids: u32) {
    let spec = SpawnSpec::new("forker", Box::new(Forker { left: kids }));
    let pid = ppm.spawn_login_process(host, USER, spec).expect("spawn");
    ppm.adopt(from, USER, host, pid.0, TraceFlags::PROC.bits())
        .expect("adopt");
}

/// What the refused snapshot must say: how many records, and the limit.
fn assert_names_count_and_limit(err: HarnessError, count: usize) {
    let HarnessError::Lpm(detail) = err else {
        panic!("expected an error reply, got {err:?}");
    };
    assert!(detail.starts_with("Internal"), "{detail}");
    assert!(detail.contains(&format!("{count} records")), "{detail}");
    assert!(detail.contains(&MAX_REPLY_RECORDS.to_string()), "{detail}");
}

fn assert_answers_stats(ppm: &mut PpmHarness, host: &str) {
    let stats = ppm.lpm_stats(host, USER, host).expect("the LPM is alive");
    assert!(matches!(stats, Reply::Stats { .. }), "{stats:?}");
}

#[test]
fn a_genealogy_past_the_record_limit_is_an_error_reply_not_a_dead_lpm() {
    let mut ppm = world(&["a"]);
    let kids = MAX_REPLY_RECORDS as u32;
    fork_under_lpm(&mut ppm, "a", "a", kids);
    ppm.run_for(SimDuration::from_secs(2));
    let err = ppm.snapshot("a", USER, "a").expect_err("over the limit");
    assert_names_count_and_limit(err, MAX_REPLY_RECORDS + 1);
    assert_answers_stats(&mut ppm, "a");
}

#[test]
fn parts_that_sum_past_the_record_limit_are_an_error_reply_at_the_originator() {
    let mut ppm = world(&["a", "b"]);
    // Each manager's own snapshot fits a reply; the two together do not.
    let kids = MAX_REPLY_RECORDS as u32 / 2;
    fork_under_lpm(&mut ppm, "a", "a", kids);
    fork_under_lpm(&mut ppm, "a", "b", kids);
    ppm.run_for(SimDuration::from_secs(2));
    for host in ["a", "b"] {
        let own = ppm.snapshot("a", USER, host).expect("fits");
        assert_eq!(own.len(), kids as usize + 1, "{host}");
    }
    let err = ppm.snapshot("a", USER, "*").expect_err("over the limit");
    assert_names_count_and_limit(err, 2 * (kids as usize + 1));
    assert_answers_stats(&mut ppm, "a");
    assert_answers_stats(&mut ppm, "b");
}
