//! `snapshot_fanout`: the read path with large replies. Sixteen hosts
//! under the fat-tree network model, LPMs joined as a 4-ary sibling
//! tree, 301 long-lived processes; long-lived pipelined tools issue `*`
//! snapshots and every reply is checked complete. Exercises the codec's
//! per-byte cost, the broadcast cover tree with in-network splicing,
//! netmodel pricing on every send and `tools::forest`; the kernel event
//! path is idle and connection set-up is amortised.

use std::collections::BTreeMap;
use std::time::Instant;

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{Op, Reply};
use ppm::proto::types::ProcRecord;
use ppm::simnet::time::SimDuration;
use ppm::simnet::topology::{CpuClass, NetSpec};
use ppm::simos::ids::Uid;

use super::{
    complete_snapshot, nth_reply, run_script, sim_conn_sends, sim_totals, single_reply,
    tool_request, tool_response, Captured, Def, Rep, Tally, Totals, Workload,
};
use crate::layers::sim_layer_counts;
use crate::spans::Tracer;
use crate::stats::Rng;

pub const DEF: Def = Def {
    name: "snapshot_fanout",
    why: "large broadcast replies: codec per-byte cost, cover tree + splicing, netmodel pricing, forest build; kernel path idle, connection set-up amortised",
    op: "one `*` snapshot over 16 hosts returning 301 records, issued by a pipelined tool (window 4)",
    cpu_bound: true,
    steppable: true,
    setup,
};

const USER: Uid = Uid(100);
const HOSTS: usize = 16;
const PER_HOST: usize = 20;
/// One root on h0 plus `PER_HOST` on each other host.
const RECORDS: usize = 1 + (HOSTS - 1) * PER_HOST;
/// Snapshots one tool process issues before it exits.
const STEPS_PER_TOOL: usize = 32;
const WINDOW: usize = 4;
/// Tool processes per repetition at full size.
const TOOLS: u32 = 48;

pub struct SnapshotFanout {
    ppm: PpmHarness,
    spec: NetSpec,
    tools: u32,
    /// The host each tool runs on: every host equally often (so the mix
    /// of origin depths is the same for every seed), in seeded order.
    origins: Vec<usize>,
    captured: Vec<ProcRecord>,
    tally: Tally,
}

fn host(i: usize) -> String {
    format!("h{i}")
}

fn setup(seed: u64, scale: u32, tr: &mut Tracer) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed ^ 0x736e_6170);
    let names: Vec<String> = (0..HOSTS).map(host).collect();
    let spec = NetSpec::preset("fat-tree", &names).expect("fat-tree preset builds");
    let cfg = PpmConfig {
        bcast_timeout: SimDuration::from_secs(60),
        req_timeout: SimDuration::from_secs(60),
        ..PpmConfig::default()
    };

    let open = tr.enter("harness.build");
    let mut b = PpmHarness::builder().seed(seed);
    for (i, name) in names.iter().enumerate() {
        let cpu = if i % 3 == 2 {
            CpuClass::Vax750
        } else {
            CpuClass::Vax780
        };
        b = b.host(name.clone(), cpu);
    }
    for i in 1..HOSTS {
        b = b.link(host((i - 1) / 4), host(i));
    }
    let mut ppm = b
        .topology(spec.clone())
        .user(USER, 0x1986, &["h0"], cfg)
        .build();
    tr.exit(open);

    // Populate: host i's processes are created from host ⌊(i−1)/4⌋, which
    // is what makes the sibling graph — and so the cover tree — 4-ary.
    // Commands are seeded so record sizes differ between seeds.
    let spawn = |ppm: &mut PpmHarness, tr: &mut Tracer, from: &str, dest: &str, command: String| {
        let op = Op::Spawn {
            command,
            logical_parent: None,
            lifetime_us: None,
            work_us: 0,
            cpu_bound: false,
        };
        let out = run_script(
            ppm,
            tr,
            "harness.spawn_remote",
            from,
            USER,
            vec![ToolStep::new(dest, op)],
            1,
        );
        match single_reply(&out) {
            Ok(Reply::Spawned { .. }) => {}
            other => panic!("snapshot_fanout populate {from}->{dest}: {other:?}"),
        }
    };
    spawn(&mut ppm, tr, "h0", "h0", "root".to_string());
    for i in 1..HOSTS {
        let from = host((i - 1) / 4);
        for j in 0..PER_HOST {
            let digits = 1 + rng.below(4);
            let command = format!("job{j}-{:x}", rng.below(1 << (4 * digits)));
            spawn(&mut ppm, tr, &from, &host(i), command);
        }
    }
    // Let handler pools and load averages settle, then warm the wave.
    ppm.run_for(SimDuration::from_secs(25));
    let tools = (TOOLS / scale).max(1);
    let mut origins: Vec<usize> = (0..tools as usize).map(|t| t % HOSTS).collect();
    rng.shuffle(&mut origins);
    let mut w = SnapshotFanout {
        ppm,
        spec,
        tools,
        origins,
        captured: Vec::new(),
        tally: Tally::default(),
    };
    let mut warm = Rep::new(false);
    w.tool(0, 0, 4, &mut warm, tr);
    assert!(
        warm.failed == 0,
        "snapshot_fanout warm-up failed: {:?}",
        warm.failures
    );
    Box::new(w)
}

impl SnapshotFanout {
    /// One tool process: `steps` pipelined `*` snapshots from `origin`.
    fn tool(&mut self, index: u32, origin: usize, steps: usize, rep: &mut Rep, tr: &mut Tracer) {
        tr.set_op(u64::from(index) * STEPS_PER_TOOL as u64);
        let op = tr.enter("op");
        let started = Instant::now();
        let script = vec![ToolStep::new("*", Op::Snapshot); steps];
        let out = run_script(
            &mut self.ppm,
            tr,
            "harness.snapshot",
            &host(origin),
            USER,
            script,
            WINDOW,
        );
        let mut verdict = Ok(());
        match &out {
            Err(e) => verdict = Err(e.to_string()),
            Ok(outcome) => {
                for i in 0..steps {
                    let checked =
                        nth_reply(outcome, i)
                            .and_then(complete_snapshot)
                            .and_then(|records| {
                                if records.len() == RECORDS {
                                    Ok(records)
                                } else {
                                    Err(format!("{} records, expected {RECORDS}", records.len()))
                                }
                            });
                    match checked {
                        Ok(records) => {
                            let sim_us = outcome.elapsed(i).map_or(0.0, |d| d.as_micros() as f64);
                            rep.op_sim_us.push(sim_us);
                            self.tally.snapshot_records += records.len() as u64;
                            rep.observe(&format!("snap {index}.{i} {} {sim_us}\n", records.len()));
                            // What the user of the tool sees: render the
                            // first reply of each tool as the display does.
                            if i == 0 {
                                let open = tr.enter("tools.render");
                                let text = ppm::tools::snapshot::render(records.to_vec(), "*");
                                tr.exit(open);
                                self.tally.rendered_records += records.len() as u64;
                                rep.observe(&text);
                                if tr.is_on() && self.captured.is_empty() {
                                    self.captured = records.to_vec();
                                }
                            }
                        }
                        Err(why) => {
                            verdict = Err(format!("tool {index} step {i}: {why}"));
                            break;
                        }
                    }
                }
            }
        }
        let wall = started.elapsed();
        tr.exit(op);
        rep.record(0, steps as u64, wall, verdict);
    }
}

impl Workload for SnapshotFanout {
    fn run(&mut self, rep: &mut Rep, tr: &mut Tracer) {
        self.tally = Tally::default();
        let began = self.ppm.now();
        for t in 0..self.tools {
            let origin = self.origins[t as usize];
            self.tool(t + 1, origin, STEPS_PER_TOOL, rep, tr);
        }
        self.tally.sim_elapsed_us = self.ppm.now().saturating_since(began).as_micros();
    }

    fn totals(&self) -> Totals {
        sim_totals(&self.ppm)
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        sim_layer_counts(&self.ppm, out);
        out.insert("core.genealogy.tracked_end", RECORDS as f64);
    }

    fn capture(&mut self) -> Captured {
        let snapshot = std::mem::take(&mut self.captured);
        // The request and the reply as they crossed the tool's connection,
        // for the codec replays.
        let mut msgs = vec![tool_request(USER, "*", Op::Snapshot)];
        if !snapshot.is_empty() {
            msgs.push(tool_response(Reply::Snapshot {
                host: "*".to_string(),
                procs: snapshot.clone(),
            }));
        }
        Captured {
            snapshot,
            msgs,
            conn_sends: sim_conn_sends(&self.ppm),
            topology: Some(self.spec.clone()),
            host_names: self.ppm.host_names(),
            metrics_sections: self.ppm.metrics_sections(),
            tally: self.tally,
            ..Captured::default()
        }
    }
}
