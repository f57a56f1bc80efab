//! `kernel_storm`: seeded fork/exec/exit waves through the real kernel
//! event path — simos kernel batching → `proto::kernel_wire` frames →
//! `lpm::kernel_ev` → `core::genealogy` — each wave verified by a local
//! snapshot. RPC fan-out, broadcast and the netmodel are idle here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{Op, Reply};
use ppm::proto::types::WireProcState;
use ppm::runtime::events::TraceFlags;
use ppm::runtime::program::{Program, SpawnSpec};
use ppm::runtime::sys::Sys;
use ppm::simnet::time::SimDuration;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::Uid;

use super::{
    complete_snapshot, run_script, sim_conn_sends, sim_totals, single_reply, step_until,
    tool_request, tool_response, Captured, Def, KernelLogEntry, Rep, Tally, Totals, Workload,
};
use crate::layers::sim_layer_counts;
use crate::spans::Tracer;
use crate::stats::{mix, Rng};

pub const DEF: Def = Def {
    name: "kernel_storm",
    why: "fork/exec/exit bursts: the only workload where kernel batching, kernel_wire, lpm::kernel_ev and genealogy do most of the work",
    op: "one wave: spawn + adopt a seeded process tree of 40, 364 or 1365 processes, run it to quiescence, verify it by a local snapshot",
    cpu_bound: true,
    steppable: true,
    setup,
};

const USER: Uid = Uid(100);
const HOSTS: [&str; 2] = ["ka", "kb"];

/// Full k-ary trees: (fan-out, depth, processes, waves per repetition).
/// 75/10/15 by count keeps the wall p50 inside the small-wave mode and
/// the p90 inside the large-wave mode. Class 0 (small waves) is the
/// reference class for the ageing ratio.
const SHAPES: [(u8, u8, u64, u32); 3] = [(3, 3, 40, 110), (3, 5, 364, 15), (4, 5, 1365, 22)];

/// How long a wave's root waits before forking, so the adopt request
/// (tool fork + Figure-2 walk + LPM handler) always lands first and the
/// whole tree is traced from its first fork.
const ROOT_HOLD: SimDuration = SimDuration::from_millis(500);

#[derive(Debug, Clone, Copy)]
struct Wave {
    class: u8,
    host: usize,
    key: u64,
}

/// Shared between the driver and every process of a wave.
#[derive(Debug)]
struct WaveState {
    exited: AtomicU64,
    /// Fork/exec/exit order, recorded only for the replay capture.
    log: Option<Mutex<Vec<KernelLogEntry>>>,
}

impl WaveState {
    fn log(&self, e: KernelLogEntry) {
        if let Some(log) = &self.log {
            log.lock().expect("kernel log lock").push(e);
        }
    }
}

/// The benchmark's own storm process: forks `fanout` children while
/// `depth` lasts, lives a keyed few milliseconds, exits.
struct StormProc {
    fanout: u8,
    depth: u8,
    key: u64,
    wave: u32,
    hold: bool,
    state: Arc<WaveState>,
}

const TOKEN_FORK: u64 = 1;
const TOKEN_EXIT: u64 = 2;

impl StormProc {
    fn fork_children(&mut self, sys: &mut dyn Sys) {
        let me = sys.pid().0;
        self.state.log(KernelLogEntry::Exec { pid: me });
        if self.depth > 0 {
            for i in 0..self.fanout {
                let child = StormProc {
                    fanout: self.fanout,
                    depth: self.depth - 1,
                    key: mix(self.key ^ u64::from(i + 1)),
                    wave: self.wave,
                    hold: false,
                    state: Arc::clone(&self.state),
                };
                let command = format!("w{}-d{}", self.wave, self.depth - 1);
                if let Ok(pid) = sys.spawn(SpawnSpec::new(command, Box::new(child))) {
                    self.state.log(KernelLogEntry::Fork {
                        parent: me,
                        child: pid.0,
                    });
                }
            }
        }
        let life = SimDuration::from_micros(2_000 + self.key % 30_000);
        sys.set_timer(life, TOKEN_EXIT);
    }
}

impl Program for StormProc {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        if self.hold {
            sys.set_timer(ROOT_HOLD, TOKEN_FORK);
        } else {
            self.fork_children(sys);
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        if token == TOKEN_FORK {
            self.fork_children(sys);
        } else {
            self.state.log(KernelLogEntry::Exit { pid: sys.pid().0 });
            self.state.exited.fetch_add(1, Ordering::Relaxed);
            sys.exit(0);
        }
    }

    fn name(&self) -> &str {
        "storm"
    }
}

pub struct KernelStorm {
    ppm: PpmHarness,
    waves: Vec<Wave>,
    next_wave: u32,
    tally: Tally,
    tracked_end: usize,
    kernel_log: Vec<KernelLogEntry>,
    last_snapshot: Vec<ppm::proto::types::ProcRecord>,
}

fn setup(seed: u64, scale: u32, tr: &mut Tracer) -> Box<dyn Workload> {
    let mut rng = Rng::new(seed ^ 0x6b65_726e);
    // The schedule — which class runs when, on which host — is the same
    // for every seed: a wave's verification snapshot also carries the
    // dead records earlier waves left inside the retention window, so a
    // seeded order would make one seed's ops bigger than another's. The
    // classes are spread evenly and the hosts alternate; the seed decides
    // every process lifetime, and with it the fork/exit interleaving.
    let counts: Vec<u32> = SHAPES.iter().map(|s| (s.3 / scale).max(1)).collect();
    let total: u32 = counts.iter().sum();
    let mut placed = vec![0u32; SHAPES.len()];
    let mut waves = Vec::new();
    for i in 0..total {
        // The class furthest behind its even share goes next.
        let class = (0..SHAPES.len())
            .max_by_key(|&c| {
                let due = i64::from(counts[c]) * i64::from(i + 1);
                (due - i64::from(placed[c]) * i64::from(total), c)
            })
            .expect("SHAPES is not empty");
        placed[class] += 1;
        waves.push(Wave {
            class: class as u8,
            host: i as usize % HOSTS.len(),
            key: rng.next_u64(),
        });
    }

    let open = tr.enter("harness.build");
    let cfg = PpmConfig {
        dead_retention: SimDuration::from_secs(10),
        ..PpmConfig::default()
    };
    let ppm = PpmHarness::builder()
        .seed(seed)
        .host(HOSTS[0], CpuClass::Vax780)
        .host(HOSTS[1], CpuClass::Vax780)
        .link(HOSTS[0], HOSTS[1])
        .user(USER, 0xBEEF, &[HOSTS[0]], cfg)
        .build();
    tr.exit(open);

    let mut w = KernelStorm {
        ppm,
        waves,
        next_wave: 0,
        tally: Tally::default(),
        tracked_end: 0,
        kernel_log: Vec::new(),
        last_snapshot: Vec::new(),
    };
    // First contact on each host walks inetd → pmd → LPM creation, and
    // the first large wave sizes the kernel tables and genealogy arenas;
    // do both here so the timed region sees steady state only.
    let mut warm = Rep::new(false);
    for host in 0..HOSTS.len() {
        for class in 0..SHAPES.len() {
            let wave = Wave {
                class: class as u8,
                host,
                key: rng.next_u64(),
            };
            w.wave(wave, &mut warm, tr);
        }
    }
    assert!(
        warm.failed == 0,
        "kernel_storm warm-up failed: {:?}",
        warm.failures
    );
    Box::new(w)
}

impl KernelStorm {
    /// One wave: spawn the held root, adopt it, run the tree dry, verify.
    fn wave(&mut self, wave: Wave, rep: &mut Rep, tr: &mut Tracer) {
        let (fanout, depth, expected, _) = SHAPES[wave.class as usize];
        let id = self.next_wave;
        self.next_wave += 1;
        let host = HOSTS[wave.host];
        let state = Arc::new(WaveState {
            exited: AtomicU64::new(0),
            log: tr.is_on().then(|| Mutex::new(Vec::new())),
        });
        let root = StormProc {
            fanout,
            depth,
            key: wave.key,
            wave: id,
            hold: true,
            state: Arc::clone(&state),
        };

        tr.set_op(u64::from(id));
        let op = tr.enter("op");
        let started = Instant::now();
        let verdict = (|| -> Result<f64, String> {
            let open = tr.enter("harness.spawn_login");
            let pid = self.ppm.spawn_login_process(
                host,
                USER,
                SpawnSpec::new(format!("w{id}-root"), Box::new(root)),
            );
            tr.exit(open);
            let pid = pid.map_err(|e| e.to_string())?;

            let adopt = Op::Adopt {
                pid: pid.0,
                flags: TraceFlags::ALL.bits(),
            };
            let out = run_script(
                &mut self.ppm,
                tr,
                "harness.adopt",
                host,
                USER,
                vec![ToolStep::new(host, adopt)],
                1,
            );
            match single_reply(&out)? {
                Reply::Ok => {}
                other => return Err(format!("adopt answered {other:?}")),
            }

            let open = tr.enter("harness.run_for");
            let quiet = || state.exited.load(Ordering::Relaxed) >= expected;
            if tr.stepped {
                step_until(&mut self.ppm, tr, quiet);
            } else {
                // 60 simulated seconds is two orders of magnitude more
                // than the deepest tree needs.
                for _ in 0..1_200 {
                    if quiet() {
                        break;
                    }
                    self.ppm.run_for(SimDuration::from_millis(50));
                }
            }
            tr.exit(open);
            if !quiet() {
                return Err(format!(
                    "wave {id}: {} of {expected} processes exited",
                    state.exited.load(Ordering::Relaxed)
                ));
            }

            let out = run_script(
                &mut self.ppm,
                tr,
                "harness.snapshot",
                host,
                USER,
                vec![ToolStep::new(host, Op::Snapshot)],
                1,
            );
            let records = complete_snapshot(single_reply(&out)?)?;
            let prefix = format!("w{id}-");
            let mine = records
                .iter()
                .filter(|r| r.command.starts_with(&prefix))
                .count() as u64;
            let dead = records
                .iter()
                .filter(|r| r.command.starts_with(&prefix) && r.state == WireProcState::Dead)
                .count() as u64;
            if mine != expected || dead != expected {
                return Err(format!(
                    "wave {id}: snapshot shows {mine} tracked / {dead} dead of {expected}"
                ));
            }
            self.tracked_end = records.len();
            self.tally.snapshot_records += records.len() as u64;
            if tr.is_on() {
                self.last_snapshot = records.to_vec();
            }
            let sim_us = out
                .as_ref()
                .ok()
                .and_then(|o| o.elapsed(0))
                .map_or(0.0, |d| d.as_micros() as f64);
            rep.observe(&format!(
                "wave {id} {host} {expected} tracked={} sim_us={sim_us}\n",
                records.len()
            ));
            Ok(sim_us)
        })();
        let wall = started.elapsed();
        tr.exit(op);

        self.tally.storm_procs += expected;
        if let Some(log) = &state.log {
            if self.kernel_log.len() < 400_000 {
                self.kernel_log
                    .extend(log.lock().expect("kernel log lock").iter().copied());
            }
        }
        match verdict {
            Ok(sim_us) => {
                rep.op_sim_us.push(sim_us);
                rep.record(wave.class, 1, wall, Ok(()));
            }
            Err(why) => rep.record(wave.class, 1, wall, Err(why)),
        }
    }
}

impl Workload for KernelStorm {
    fn run(&mut self, rep: &mut Rep, tr: &mut Tracer) {
        self.tally = Tally::default();
        for wave in self.waves.clone() {
            self.wave(wave, rep, tr);
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
        // The two requests of a wave and their replies, as they crossed
        // the tool's connection.
        let adopt = Op::Adopt {
            pid: 7,
            flags: TraceFlags::ALL.bits(),
        };
        let msgs = vec![
            tool_request(USER, HOSTS[0], adopt),
            tool_response(Reply::Ok),
            tool_request(USER, HOSTS[0], Op::Snapshot),
            tool_response(Reply::Snapshot {
                host: HOSTS[0].to_string(),
                procs: self.last_snapshot.clone(),
            }),
        ];
        Captured {
            msgs,
            snapshot: std::mem::take(&mut self.last_snapshot),
            kernel_log: std::mem::take(&mut self.kernel_log),
            conn_sends: sim_conn_sends(&self.ppm),
            host_names: self.ppm.host_names(),
            metrics_sections: self.ppm.metrics_sections(),
            tally: self.tally,
            ..Captured::default()
        }
    }
}
