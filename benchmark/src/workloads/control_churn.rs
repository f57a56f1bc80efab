//! `control_churn`: the write path with small messages. Eight hosts in a
//! full mesh on the flat wire, four users; every round one user creates a
//! remote process, stops it, backgrounds it, kills it and reads its
//! rusage — **one tool process per op**, as in the paper's interactive
//! use, so every op pays the Figure-2 locate and a connection set-up.
//! The world also ages: connection records accumulate round after round.

use std::collections::BTreeMap;
use std::time::Instant;

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{ControlAction, Msg, Op, Reply};
use ppm::proto::types::Gpid;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::Uid;

use super::{
    complete_snapshot, run_script, sim_conn_sends, sim_totals, single_reply, tool_request,
    tool_response, Captured, Def, Rep, Totals, Workload,
};
use crate::layers::sim_layer_counts;
use crate::spans::Tracer;
use crate::stats::Rng;

pub const DEF: Def = Def {
    name: "control_churn",
    why: "small directed RPCs with a tool process and connection set-up per op, several users' pmd lookups, writes into genealogy; ages the world's connection table",
    op: "one request of a {remote spawn, stop, bg, kill, rusage} round, each from its own tool process",
    cpu_bound: true,
    steppable: true,
    setup,
};

const HOSTS: usize = 8;
const USERS: [Uid; 4] = [Uid(100), Uid(101), Uid(102), Uid(103)];
/// Rounds (of five ops) per repetition at full size.
const ROUNDS: u32 = 1_600;
const LIFETIME_US: u64 = 20_000_000;

#[derive(Debug, Clone, Copy)]
struct Round {
    user: usize,
    from: usize,
    dest: usize,
    tag: u64,
}

pub struct ControlChurn {
    ppm: PpmHarness,
    rounds: Vec<Round>,
    next_op: u64,
    tracked_end: usize,
    msgs: Vec<Msg>,
}

fn host(i: usize) -> String {
    format!("c{i}")
}

fn setup(seed: u64, scale: u32, tr: &mut Tracer) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed ^ 0x6368_7572);
    let rounds = (0..(ROUNDS / scale).max(1))
        .map(|_| {
            let from = rng.below(HOSTS as u64) as usize;
            // Always remote: the op crosses one sibling connection.
            let dest = (from + 1 + rng.below(HOSTS as u64 - 1) as usize) % HOSTS;
            Round {
                user: rng.below(USERS.len() as u64) as usize,
                from,
                dest,
                tag: rng.below(1 << 20),
            }
        })
        .collect();

    let open = tr.enter("harness.build");
    let mut b = PpmHarness::builder().seed(seed);
    for i in 0..HOSTS {
        b = b.host(host(i), CpuClass::Vax780);
    }
    for i in 0..HOSTS {
        for j in i + 1..HOSTS {
            b = b.link(host(i), host(j));
        }
    }
    for (i, uid) in USERS.iter().enumerate() {
        let home = host(i);
        b = b.user(
            *uid,
            0xC0DE + i as u64,
            &[home.as_str()],
            PpmConfig::default(),
        );
    }
    let ppm = b.build();
    tr.exit(open);

    let mut w = ControlChurn {
        ppm,
        rounds,
        next_op: 0,
        tracked_end: 0,
        msgs: Vec::new(),
    };
    // First contact: every user's LPM on every host, and every sibling
    // pair the rounds will use, so the timed region is steady state.
    let mut warm = Rep::new(false);
    for user in 0..USERS.len() {
        for from in 0..HOSTS {
            let round = Round {
                user,
                from,
                dest: (from + 1) % HOSTS,
                tag: 0,
            };
            w.round(round, &mut warm, tr);
        }
    }
    assert!(
        warm.failed == 0,
        "control_churn warm-up failed: {:?}",
        warm.failures
    );
    w.msgs.clear();
    Box::new(w)
}

/// The span each op class is recorded under: spawn, stop, bg, kill,
/// rusage. Class 0 (spawn) is the reference class for the ageing ratio.
const SPANS: [&str; 5] = [
    "harness.spawn_remote",
    "harness.control",
    "harness.control",
    "harness.control",
    "harness.rusage",
];

impl ControlChurn {
    /// One op from its own tool process; `check` validates the reply.
    fn op<T>(
        &mut self,
        class: u8,
        round: Round,
        op: Op,
        rep: &mut Rep,
        tr: &mut Tracer,
        check: impl FnOnce(&Reply) -> Result<T, String>,
    ) -> Option<T> {
        let span = SPANS[class as usize];
        tr.set_op(self.next_op);
        self.next_op += 1;
        let open = tr.enter("op");
        let started = Instant::now();
        let dest = host(round.dest);
        if tr.is_on() && self.msgs.len() < 64 {
            self.msgs
                .push(tool_request(USERS[round.user], &dest, op.clone()));
        }
        let out = run_script(
            &mut self.ppm,
            tr,
            span,
            &host(round.from),
            USERS[round.user],
            vec![ToolStep::new(dest, op)],
            1,
        );
        let checked = single_reply(&out).and_then(|reply| {
            if tr.is_on() && self.msgs.len() < 64 {
                self.msgs.push(tool_response(reply.clone()));
            }
            check(reply)
        });
        let wall = started.elapsed();
        tr.exit(open);
        if let (Ok(_), Ok(outcome)) = (&checked, &out) {
            let sim_us = outcome.elapsed(0).map_or(0.0, |d| d.as_micros() as f64);
            rep.op_sim_us.push(sim_us);
            rep.observe(&format!("{span} {sim_us}\n"));
        }
        match checked {
            Ok(v) => {
                rep.record(class, 1, wall, Ok(()));
                Some(v)
            }
            Err(why) => {
                rep.record(class, 1, wall, Err(format!("{span}: {why}")));
                None
            }
        }
    }

    fn round(&mut self, round: Round, rep: &mut Rep, tr: &mut Tracer) {
        let dest = host(round.dest);
        let spawn = Op::Spawn {
            command: format!("job-{:x}", round.tag),
            logical_parent: None,
            lifetime_us: Some(LIFETIME_US),
            work_us: 0,
            cpu_bound: false,
        };
        let spawned = self.op(0, round, spawn, rep, tr, |r| match r {
            Reply::Spawned { gpid } if gpid.host == dest => Ok(gpid.clone()),
            other => Err(format!("expected Spawned on {dest}, got {other:?}")),
        });
        let Some(Gpid { pid, .. }) = spawned else {
            // The four dependent ops cannot be attempted; count them.
            rep.attempted += 4;
            rep.failed += 4;
            return;
        };
        let acked = |r: &Reply| match r {
            Reply::Ok => Ok(()),
            other => Err(format!("expected Ok, got {other:?}")),
        };
        for (class, action) in [
            (1, ControlAction::Stop),
            (2, ControlAction::Background),
            (3, ControlAction::Kill),
        ] {
            let op = Op::Control { pid, action };
            self.op(class, round, op, rep, tr, acked);
        }
        let rusage = Op::Rusage { pid: Some(pid) };
        self.op(4, round, rusage, rep, tr, |r| match r {
            Reply::Rusage { records } if records.iter().any(|x| x.gpid.pid == pid) => Ok(()),
            other => Err(format!("expected the rusage of pid {pid}, got {other:?}")),
        });
    }
}

impl Workload for ControlChurn {
    fn run(&mut self, rep: &mut Rep, tr: &mut Tracer) {
        for round in self.rounds.clone() {
            self.round(round, rep, tr);
        }
        // One more request, not counted as an op: what the LPMs track now.
        let out = run_script(
            &mut self.ppm,
            tr,
            "harness.snapshot",
            &host(0),
            USERS[0],
            vec![ToolStep::new("*", Op::Snapshot)],
            1,
        );
        if let Ok(records) = single_reply(&out).and_then(complete_snapshot) {
            self.tracked_end = records.len();
        }
    }

    fn totals(&self) -> Totals {
        sim_totals(&self.ppm)
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        sim_layer_counts(&self.ppm, out);
        out.insert("core.genealogy.tracked_end", self.tracked_end as f64);
    }

    fn capture(&mut self) -> Captured {
        Captured {
            msgs: std::mem::take(&mut self.msgs),
            conn_sends: sim_conn_sends(&self.ppm),
            host_names: self.ppm.host_names(),
            metrics_sections: self.ppm.metrics_sections(),
            ..Captured::default()
        }
    }
}
