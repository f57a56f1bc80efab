//! `real_loopback`: the same `core`/`proto` stack over real TCP. Two
//! node threads (one per core of the 2-core box) under `RealRuntime`,
//! every `PpmConfig` cost zero, one closed-loop client: directed and `*`
//! snapshots, each from its own tool process, each reply checked.
//!
//! Traffic crosses the host's **loopback interface, not a link**: the
//! numbers say nothing about wire latency or link rate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm::core::auth::UserCred;
use ppm::core::client::{Tool, ToolOutcome, ToolStep};
use ppm::core::config::{PpmConfig, PMD_PORT, PMD_SERVICE};
use ppm::core::pmd::{Pmd, PmdOptions};
use ppm::core::users::{UserDirectory, UserEntry};
use ppm::proto::codec::Wire;
use ppm::proto::msg::{Msg, Op, Reply};
use ppm::runtime::ids::{CpuClass, HostId, Uid};
use ppm::runtime::program::SpawnSpec;
use ppm::runtime::rt::Runtime;
use ppm::simnet::time::SimDuration;
use ppm_realos::RealRuntime;

use super::{
    complete_snapshot, nth_reply, tool_request, tool_response, Captured, Def, Rep, Totals, Workload,
};
use crate::layers::LayerCounts;
use crate::spans::Tracer;
use crate::stats::Rng;

pub const DEF: Def = Def {
    name: "real_loopback",
    why: "the same core/proto stack over real TCP on the loopback interface (not a link): transport stalls and thread hand-offs instead of modelled costs",
    op: "one snapshot from its own tool process, closed loop: two directed at the remote host for every `*` over both hosts",
    cpu_bound: false,
    steppable: false,
    setup,
};

const USER: Uid = Uid(100);
const HOSTS: [&str; 2] = ["r0", "r1"];
/// Long-lived processes on the remote host.
const REMOTE_PROCS: usize = 3;
/// (directed, directed, `*`) triples per repetition at full size.
const TRIPLES: u32 = 14;
const TOOL_BUDGET: Duration = Duration::from_secs(30);

pub struct RealLoopback {
    rt: RealRuntime,
    users: Arc<UserDirectory>,
    hosts: [HostId; 2],
    triples: u32,
    next_op: u64,
    wire_bytes: u64,
    connect_us: Vec<f64>,
    remote_op_us: Vec<f64>,
    msgs: Vec<Msg>,
}

fn zero_cost_config() -> PpmConfig {
    let z = SimDuration::ZERO;
    PpmConfig {
        dispatch_cost: z,
        control_cost: z,
        snapshot_base_cost: z,
        snapshot_per_proc_cost: z,
        spawn_bookkeeping_cost: z,
        misc_op_cost: z,
        merge_cost: z,
        handler_fork_cost: z,
        handler_reuse_cost: z,
        ..PpmConfig::default()
    }
}

fn setup(seed: u64, scale: u32, tr: &mut Tracer) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed ^ 0x7265_616c);
    let open = tr.enter("harness.build");
    let mut users = UserDirectory::new();
    users.insert(UserEntry {
        cred: UserCred::new(USER, 0x1986 ^ rng.below(1 << 16)),
        recovery: vec![HOSTS[0].to_string()],
        config: zero_cost_config(),
    });
    let users = users.into_shared();
    let pmd_users = Arc::clone(&users);
    let mut rt = RealRuntime::with_trace(false);
    rt.register_service(
        PMD_SERVICE,
        PMD_PORT,
        Box::new(move |_host| {
            Box::new(Pmd::new(
                Arc::clone(&pmd_users),
                PMD_PORT,
                PmdOptions::default(),
            ))
        }),
    );
    let hosts = [
        rt.add_host(HOSTS[0], CpuClass::Vax780),
        rt.add_host(HOSTS[1], CpuClass::Vax780),
    ];
    tr.exit(open);

    let mut w = RealLoopback {
        rt,
        users,
        hosts,
        triples: (TRIPLES / scale).max(1),
        next_op: 0,
        wire_bytes: 0,
        connect_us: Vec::new(),
        remote_op_us: Vec::new(),
        msgs: Vec::new(),
    };
    // Populate through the protocol: a root at home, jobs on the remote
    // host (which also creates both LPMs and their sibling connection).
    let spawn = |w: &mut RealLoopback, tr: &mut Tracer, dest: &str, command: String| {
        let op = Op::Spawn {
            command,
            logical_parent: None,
            lifetime_us: None,
            work_us: 0,
            cpu_bound: false,
        };
        let open = tr.enter("harness.spawn_remote");
        let out = w.run_tool(ToolStep::new(dest, op));
        tr.exit(open);
        match out
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|o| nth_reply(o, 0).cloned())
        {
            Ok(Reply::Spawned { .. }) => {}
            other => panic!("real_loopback populate {dest}: {other:?}"),
        }
    };
    spawn(&mut w, tr, HOSTS[0], "root".to_string());
    for j in 0..REMOTE_PROCS {
        spawn(
            &mut w,
            tr,
            HOSTS[1],
            format!("job{j}-{:x}", rng.below(1 << 16)),
        );
    }
    let mut warm = Rep::new(false);
    w.snapshot(0, HOSTS[1], &mut warm, tr);
    w.snapshot(1, "*", &mut warm, tr);
    assert!(
        warm.failed == 0,
        "real_loopback warm-up failed: {:?}",
        warm.failures
    );
    w.wire_bytes = 0;
    w.connect_us.clear();
    w.remote_op_us.clear();
    w.msgs.clear();
    Box::new(w)
}

impl RealLoopback {
    /// Runs a one-step tool on the home host and waits for it. The driver
    /// thread sleeps between polls; the two node threads do the work.
    fn run_tool(&mut self, step: ToolStep) -> Result<ToolOutcome, String> {
        let entry = self.users.get(USER).expect("registered user");
        let (tool, handle) = Tool::new(entry.cred, entry.config.clone(), vec![step]);
        self.rt
            .spawn_user(
                self.hosts[0],
                USER,
                SpawnSpec::new("ppm-tool", Box::new(tool)),
            )
            .map_err(|e| format!("spawn tool: {e}"))?;
        let deadline = Instant::now() + TOOL_BUDGET;
        loop {
            if handle.lock().expect("tool outcome lock").done {
                break;
            }
            if Instant::now() >= deadline {
                return Err("tool timed out".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let outcome = handle.lock().expect("tool outcome lock").clone();
        Ok(outcome)
    }

    fn snapshot(&mut self, class: u8, dest: &str, rep: &mut Rep, tr: &mut Tracer) {
        tr.set_op(self.next_op);
        self.next_op += 1;
        let op = tr.enter("op");
        let started = Instant::now();
        let open = tr.enter("harness.snapshot");
        let out = self.run_tool(ToolStep::new(dest, Op::Snapshot));
        tr.exit(open);
        let expected = if dest == "*" {
            1 + REMOTE_PROCS
        } else {
            REMOTE_PROCS
        };
        let checked = out.as_ref().map_err(Clone::clone).and_then(|o| {
            let reply = nth_reply(o, 0)?;
            let records = complete_snapshot(reply)?;
            if records.len() != expected {
                return Err(format!("{} records, expected {expected}", records.len()));
            }
            if dest != "*" && records.iter().any(|r| r.gpid.host != dest) {
                return Err(format!(
                    "directed snapshot of {dest} returned foreign records"
                ));
            }
            Ok((o, reply))
        });
        let wall = started.elapsed();
        tr.exit(op);
        match checked {
            Ok((outcome, reply)) => {
                let request = tool_request(USER, dest, Op::Snapshot);
                // What the tool itself put on and took off its LPM
                // connection; sibling-LPM traffic has no counter on this
                // backend.
                self.wire_bytes += (request.wire_len() + reply.wire_len()) as u64;
                let clock_us = outcome.elapsed(0).map_or(0.0, |d| d.as_micros() as f64);
                rep.op_sim_us.push(clock_us);
                if class == 0 {
                    self.remote_op_us.push(clock_us);
                }
                if let (Some(s), Some(c)) = (outcome.started_at, outcome.connected_at) {
                    self.connect_us
                        .push(c.saturating_since(s).as_micros() as f64);
                }
                if tr.is_on() && self.msgs.len() < 16 {
                    self.msgs.push(request);
                    self.msgs.push(tool_response(reply.clone()));
                }
                // Wall-clock latencies differ run to run; the digest
                // covers what the protocol returned.
                if let Ok(records) = complete_snapshot(reply) {
                    for r in records {
                        rep.observe(&format!("{dest} {} {}\n", r.gpid.host, r.command));
                    }
                }
                rep.record(class, 1, wall, Ok(()));
            }
            Err(why) => rep.record(class, 1, wall, Err(format!("snapshot {dest}: {why}"))),
        }
    }

    fn sections(&self) -> Vec<(String, Vec<ppm::proto::types::MetricRow>)> {
        let obs = self.rt.shared().obs.lock().expect("cluster obs lock");
        obs.iter()
            .map(|(label, reg)| (label.clone(), ppm::core::obs::rows(&reg.snapshot())))
            .collect()
    }
}

impl Workload for RealLoopback {
    fn run(&mut self, rep: &mut Rep, tr: &mut Tracer) {
        for _ in 0..self.triples {
            self.snapshot(0, HOSTS[1], rep, tr);
            self.snapshot(0, HOSTS[1], rep, tr);
            self.snapshot(1, "*", rep, tr);
        }
    }

    fn totals(&self) -> Totals {
        Totals {
            engine_fired: None,
            wire_bytes: self.wire_bytes,
        }
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        let mut counts = LayerCounts::default();
        counts.add_sections(&self.sections());
        counts.finish(out);
        out.insert("core.genealogy.tracked_end", (1 + REMOTE_PROCS) as f64);
    }

    fn capture(&mut self) -> Captured {
        // A few directed snapshots of the home host: the same op without
        // the sibling hop.
        let mut local_op_us = Vec::new();
        for _ in 0..8 {
            if let Ok(o) = self.run_tool(ToolStep::new(HOSTS[0], Op::Snapshot)) {
                let ok = nth_reply(&o, 0)
                    .and_then(complete_snapshot)
                    .is_ok_and(|records| records.len() == 1);
                if let (true, Some(d)) = (ok, o.elapsed(0)) {
                    local_op_us.push(d.as_micros() as f64);
                }
            }
        }
        Captured {
            msgs: std::mem::take(&mut self.msgs),
            host_names: HOSTS.iter().map(|h| (*h).to_string()).collect(),
            metrics_sections: self.sections(),
            real_connect_us: std::mem::take(&mut self.connect_us),
            real_remote_op_us: std::mem::take(&mut self.remote_op_us),
            real_local_op_us: local_op_us,
            ..Captured::default()
        }
    }
}
