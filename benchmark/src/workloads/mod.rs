//! The five workloads and what they share: the per-repetition record,
//! the workload interface the measurement loop drives, and the helpers
//! that run one tool script against a simulated world with a span around
//! it (or, in the stepped pass, with a timed `World::step()` loop in
//! place of the harness's `run_for`).

use std::collections::BTreeMap;
use std::time::Instant;

use ppm::core::client::{ToolOutcome, ToolStep};
use ppm::harness::harness::{HarnessError, PpmHarness};
use ppm::proto::msg::{Msg, Op, Reply};
use ppm::proto::types::{MetricRow, ProcRecord, Route};
use ppm::simnet::time::SimDuration;
use ppm::simos::ids::Uid;

use crate::spans::Tracer;

pub mod control_churn;
pub mod kernel_storm;
pub mod real_loopback;
pub mod snapshot_fanout;
pub mod sweep_cells;

/// One workload: its name, why it exists, what one op is, and how to
/// set one up from a seed. `scale` divides the op counts (1 = full size,
/// 20 = `--smoke`).
pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
    pub op: &'static str,
    /// One busy thread and no waiting: wall times are scaled to the
    /// reference speed (see [`crate::speed`]).
    pub cpu_bound: bool,
    /// The driver holds the `World` and can step it event by event.
    pub steppable: bool,
    pub setup: fn(seed: u64, scale: u32, tr: &mut Tracer) -> Box<dyn Workload>,
}

pub const ALL: [Def; 5] = [
    kernel_storm::DEF,
    snapshot_fanout::DEF,
    control_churn::DEF,
    sweep_cells::DEF,
    real_loopback::DEF,
];

pub fn find(name: &str) -> Option<&'static Def> {
    ALL.iter().find(|d| d.name == name)
}

/// A set-up world ready for its timed region. One value serves one
/// repetition; the measurement loop sets a fresh one up for the next.
pub trait Workload {
    /// The timed region: every op of the repetition, each checked.
    fn run(&mut self, rep: &mut Rep, tr: &mut Tracer);

    /// Running totals of the program's own counters, read (untimed)
    /// before and after [`Workload::run`] so the timed region's share is
    /// a difference.
    fn totals(&self) -> Totals;

    /// Per-layer counts of the whole run so far, from the registries and
    /// stats the program publishes. Keys are `PER_LAYER` metric names.
    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>);

    /// Inputs for the isolated replays, captured from this run.
    fn capture(&mut self) -> Captured;
}

/// Cumulative program-side counters. `None` where the backend has no
/// such counter (the real backend has no event engine).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub engine_fired: Option<u64>,
    pub wire_bytes: u64,
}

/// What one timed repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
    /// Wall µs of the harness call per op (a call that carries a batch
    /// of ops contributes one sample: its wall over the ops it carried).
    pub op_wall_us: Vec<f64>,
    /// Ops carried by the call behind each wall sample.
    pub op_count: Vec<u64>,
    /// [`crate::speed::factor`] right after each wall sample (1 when the
    /// repetition is not scaled).
    pub op_speed: Vec<f64>,
    /// The op class of each wall sample; class 0 is the workload's
    /// reference class for the ageing ratio.
    pub op_class: Vec<u8>,
    /// Latency on the runtime's clock (`ToolOutcome::elapsed`), µs.
    pub op_sim_us: Vec<f64>,
    /// Whether wall samples are scaled to the reference speed.
    scaled: bool,
    /// FNV-1a over the protocol-observable output of the repetition.
    pub digest: u64,
    /// The first few failure descriptions, for the human reading stderr.
    pub failures: Vec<String>,
}

impl Rep {
    /// `scaled`: the workload is CPU-bound, so each wall sample carries
    /// the speed factor of its moment (see [`crate::speed`]).
    pub fn new(scaled: bool) -> Self {
        Rep {
            scaled,
            digest: ppm::digest::fnv1a(&[]),
            ..Rep::default()
        }
    }

    /// Folds protocol-observable text into the run digest.
    pub fn observe(&mut self, text: &str) {
        self.digest = ppm::digest::fnv1a_fold(self.digest, text.as_bytes());
    }

    /// Records the outcome of `ops` ops carried by one harness call that
    /// took `wall` in total; `Err` marks all of them failed.
    pub fn record(
        &mut self,
        class: u8,
        ops: u64,
        wall: std::time::Duration,
        ok: Result<(), String>,
    ) {
        self.attempted += ops;
        self.op_wall_us.push(wall.as_secs_f64() * 1e6 / ops as f64);
        self.op_count.push(ops);
        self.op_speed.push(if self.scaled {
            crate::speed::factor()
        } else {
            1.0
        });
        self.op_class.push(class);
        if let Err(why) = ok {
            self.failed += ops;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }
}

/// Inputs the isolated replays run on, captured from the same-seed run.
#[derive(Debug, Default)]
pub struct Captured {
    /// One snapshot reply as the tool received it.
    pub snapshot: Vec<ProcRecord>,
    /// Requests and replies as they crossed the tool's connection.
    pub msgs: Vec<Msg>,
    /// The storm's fork/exec/exit order, as the storm's own processes
    /// saw it.
    pub kernel_log: Vec<KernelLogEntry>,
    /// Per connection: host of either end, messages and bytes carried.
    pub conn_sends: Vec<ConnSends>,
    /// The installed topology, if any, and the world's host names.
    pub topology: Option<ppm::simnet::topology::NetSpec>,
    pub host_names: Vec<String>,
    /// Scenario and fault-plan texts the run parsed.
    pub scenario_texts: Vec<String>,
    pub fault_texts: Vec<String>,
    /// One world's metric sections (for the obs replay).
    pub metrics_sections: Vec<(String, Vec<MetricRow>)>,
    /// One whole world of the run, kept for the report replays.
    pub sample_world: Option<PpmHarness>,
    /// How often the timed region entered each layer.
    pub tally: Tally,
    /// Real backend only: tool start → LPM channel ready, directed
    /// snapshots of the remote host and of the tool's own host, on the
    /// cluster clock (µs).
    pub real_connect_us: Vec<f64>,
    pub real_remote_op_us: Vec<f64>,
    pub real_local_op_us: Vec<f64>,
}

/// Units of layer work the driver saw the timed region do; the replays
/// multiply them by the layer's isolated cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Processes the storm created.
    pub storm_procs: u64,
    /// Records returned by snapshots, and records rendered for display.
    pub snapshot_records: u64,
    pub rendered_records: u64,
    /// Scenario and fault-plan parses, hosts built, reports rendered,
    /// and the bytes of trace rendered and of text digested.
    pub scenario_parses: u64,
    pub plan_parses: u64,
    pub hosts_built: u64,
    pub reports: u64,
    pub trace_bytes: u64,
    pub digest_bytes: u64,
    /// Simulated µs the timed region spanned (one long-lived world).
    pub sim_elapsed_us: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct ConnSends {
    pub a: u32,
    pub b: u32,
    pub msgs: u64,
    pub bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLogEntry {
    Fork { parent: u32, child: u32 },
    Exec { pid: u32 },
    Exit { pid: u32 },
}

/// A tool's request as it goes onto its LPM connection.
pub fn tool_request(user: Uid, dest: &str, op: Op) -> Msg {
    Msg::Req {
        id: 1,
        user: user.0,
        dest: dest.to_string(),
        op,
        route: Route::default(),
        hops_left: 8,
        deadline_us: 0,
        attempt: 0,
        boot: 0,
    }
}

/// The reply as it comes back to the tool.
pub fn tool_response(reply: Reply) -> Msg {
    Msg::Resp {
        id: 1,
        reply,
        route: Route::default(),
    }
}

/// Generous simulated wait for one tool script.
const WAIT: SimDuration = SimDuration::from_secs(600);

/// Runs one tool script to completion under span `span`. With
/// `tr.stepped` the harness's `run_for` polling is replaced by a
/// `World::step()` loop whose steps are timed one by one.
pub fn run_script(
    ppm: &mut PpmHarness,
    tr: &mut Tracer,
    span: &'static str,
    host: &str,
    uid: Uid,
    script: Vec<ToolStep>,
    window: usize,
) -> Result<ToolOutcome, HarnessError> {
    let open = tr.enter(span);
    let out = if tr.stepped {
        ppm.launch_tool_pipelined(host, uid, script, window)
            .and_then(|handle| {
                step_until(ppm, tr, || handle.lock().expect("tool outcome lock").done);
                let outcome = handle.lock().expect("tool outcome lock").clone();
                if outcome.done {
                    Ok(outcome)
                } else {
                    Err(HarnessError::Timeout)
                }
            })
    } else {
        ppm.run_tool_pipelined(host, uid, script, window, WAIT)
    };
    tr.exit(open);
    out
}

/// Steps the world until `done()` or the queue runs dry, timing each
/// step. The bound stops a wedged world from hanging the benchmark.
pub fn step_until(ppm: &mut PpmHarness, tr: &mut Tracer, done: impl Fn() -> bool) {
    const MAX_STEPS: u64 = 50_000_000;
    for _ in 0..MAX_STEPS {
        if done() {
            return;
        }
        let t = Instant::now();
        let more = ppm.world_mut().step();
        tr.step_ns.push(t.elapsed().as_nanos() as f64);
        if !more {
            return;
        }
    }
}

/// The single reply of a one-step script, with tool and LPM errors
/// turned into `Err`.
pub fn single_reply(out: &Result<ToolOutcome, HarnessError>) -> Result<&Reply, String> {
    let out = out.as_ref().map_err(ToString::to_string)?;
    nth_reply(out, 0)
}

/// Reply `i` of a script, with tool and LPM errors turned into `Err`.
pub fn nth_reply(out: &ToolOutcome, i: usize) -> Result<&Reply, String> {
    if let Some(err) = &out.error {
        return Err(format!("tool failed: {err}"));
    }
    match out.reply(i) {
        Some(Reply::Err { code, detail }) => Err(format!("lpm error {code:?}: {detail}")),
        Some(reply) => Ok(reply),
        None => Err(format!("no reply for step {i}")),
    }
}

/// A complete snapshot's records: `Partial` (missing hosts) and any
/// other reply shape are errors.
pub fn complete_snapshot(reply: &Reply) -> Result<&[ProcRecord], String> {
    match reply {
        Reply::Snapshot { procs, .. } => Ok(procs),
        Reply::Partial { missing, .. } => Err(format!("partial snapshot, missing {missing:?}")),
        other => Err(format!("expected a snapshot, got {other:?}")),
    }
}

/// Bytes carried by every connection the world still records.
pub fn sim_wire_bytes(ppm: &PpmHarness) -> u64 {
    ppm.world()
        .core()
        .connections()
        .map(|c| c.stats.bytes_to_server + c.stats.bytes_to_client)
        .sum()
}

pub fn sim_totals(ppm: &PpmHarness) -> Totals {
    Totals {
        engine_fired: Some(ppm.world().core().engine_stats().fired),
        wire_bytes: sim_wire_bytes(ppm),
    }
}

/// Per-connection traffic of a simulated world, for the netmodel replay.
pub fn sim_conn_sends(ppm: &PpmHarness) -> Vec<ConnSends> {
    ppm.world()
        .core()
        .connections()
        .map(|c| ConnSends {
            a: c.client.0 .0,
            b: c.server.0 .0,
            msgs: c.stats.msgs_to_server + c.stats.msgs_to_client,
            bytes: c.stats.bytes_to_server + c.stats.bytes_to_client,
        })
        .collect()
}
