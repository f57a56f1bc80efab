//! Isolated replays: one layer's public function, timed alone, on inputs
//! captured from the same-seed run — the snapshot records the tool
//! received, the storm's own fork/exec/exit order, the messages that
//! crossed the tool's connection, the per-connection traffic, the
//! scenario texts. Each gives a cost per unit of layer work; times the
//! units the run did (its counters, or the driver's [`Tally`]) it gives
//! an *estimate* of the layer's share of the timed region. What no
//! replay reaches from outside — `simos::world` dispatch and the
//! `core::lpm` handlers — is `layer.unattributed.est_share`.
//!
//! Where an input cannot be observed from outside the program the replay
//! says how it was reconstructed: the engine's delay mix comes from the
//! run's configured cost constants, netmodel send sizes are each
//! connection's mean message size, and the codec's share is priced per
//! byte on the tool-edge messages.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ppm::core::config::PpmConfig;
use ppm::core::genealogy::Genealogy;
use ppm::harness::harness::PpmHarness;
use ppm::harness::tenant::{scale_spec, TenantWorld};
use ppm::proto::codec::{encode_batch, Wire};
use ppm::proto::kernel_wire::for_each_kernel_msg;
use ppm::proto::msg::{Msg, Reply};
use ppm::proto::types::ProcRecord;
use ppm::runtime::events::KernelEvent;
use ppm::runtime::ids::Pid;
use ppm::runtime::obs::Registry;
use ppm::runtime::process::Rusage;
use ppm::runtime::program::KernelMsg;
use ppm::runtime::signal::ExitStatus;
use ppm::simnet::bandwidth::NetModel;
use ppm::simnet::engine::{Engine, TimerWheel};
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::latency::LatencyModel;
use ppm::simnet::routing::RoutingTable;
use ppm::simnet::time::{SimDuration, SimTime};
use ppm::simnet::topology::{CpuClass, NetGraph};
use ppm::simos::config::OsConfig;
use ppm::simos::ids::Uid;

use crate::stats::{median, percentile, Rng};
use crate::workloads::{tool_response, Captured, KernelLogEntry};

/// Repeats per replay; the median is reported.
const REPEATS: usize = 5;
/// Cap on the units one replay pass handles, to keep a pass near 10 ms.
const MAX_UNITS: usize = 100_000;

/// Median over [`REPEATS`] passes of `pass()`'s wall nanoseconds, scaled
/// to the reference speed, per unit. `pass` returns how many units it
/// did and times only the layer call itself.
fn ns_per_unit(mut pass: impl FnMut() -> (u64, std::time::Duration)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (units, wall) = pass();
            wall.as_nanos() as f64 * crate::speed::factor() / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// The delays the run's worlds schedule, from its configured constants.
fn delay_mix() -> Vec<SimDuration> {
    let os = OsConfig::default();
    let cfg = PpmConfig::default();
    let lat = LatencyModel::default();
    vec![
        os.spawn_cost,
        os.signal_latency,
        os.child_exit_latency,
        os.load_tick,
        lat.hop_base,
        cfg.dispatch_cost,
        cfg.handler_reuse_cost,
        cfg.control_cost,
        cfg.snapshot_base_cost,
        cfg.connect_retry,
        cfg.housekeeping_interval,
        SimDuration::from_millis(20),
    ]
}

/// Steady-state schedule/pop (and the run's share of cancels) through
/// one event queue; `$queue` is `TimerWheel` or `Engine`.
macro_rules! queue_replay {
    ($queue:ident, $events:expr, $cancel_every:expr) => {
        ns_per_unit(|| {
            let mix = delay_mix();
            let mut rng = Rng::new(0x7175_6575);
            let mut q: $queue<u64> = $queue::new();
            let t = Instant::now();
            let mut fired = 0u64;
            for i in 0..256u64 {
                q.schedule(mix[rng.below(mix.len() as u64) as usize], i);
            }
            for i in 0..$events as u64 {
                let id = q.schedule(mix[rng.below(mix.len() as u64) as usize], i);
                if $cancel_every > 0 && i % $cancel_every == 0 {
                    q.cancel(id);
                } else if q.pop().is_some() {
                    fired += 1;
                }
            }
            while q.pop().is_some() {
                fired += 1;
            }
            (black_box(fired), t.elapsed())
        })
    };
}

fn kernel_msgs(log: &[KernelLogEntry]) -> Vec<KernelMsg> {
    log.iter()
        .enumerate()
        .map(|(i, e)| KernelMsg {
            queued_at: SimTime::from_micros(i as u64 * 50),
            event: match *e {
                KernelLogEntry::Fork { parent, child } => KernelEvent::Fork {
                    parent: Pid(parent),
                    child: Pid(child),
                },
                KernelLogEntry::Exec { pid } => KernelEvent::Exec {
                    pid: Pid(pid),
                    command: "w0-d0".to_string(),
                },
                KernelLogEntry::Exit { pid } => KernelEvent::Exit {
                    pid: Pid(pid),
                    status: ExitStatus::Code(0),
                    rusage: Rusage::default(),
                },
            },
        })
        .collect()
}

/// Applies the storm's order to a fresh genealogy the way
/// `lpm::kernel_ev` does: fork → track, exec → set_exec, exit → dead.
fn apply_log(g: &mut Genealogy, log: &[KernelLogEntry]) -> u64 {
    let mut forks = 0;
    for (i, e) in log.iter().enumerate() {
        let now = i as u64 * 50;
        match *e {
            KernelLogEntry::Fork { parent, child } => {
                g.track(child, parent, None, "w0-d0", now, true);
                forks += 1;
            }
            KernelLogEntry::Exec { pid } => g.set_exec(pid, "w0-d0"),
            KernelLogEntry::Exit { pid } => g.mark_dead_at(pid, 0, now),
        }
    }
    forks
}

fn genealogy_of(records: &[ProcRecord]) -> Genealogy {
    let mut g = Genealogy::new("replay");
    for r in records {
        g.track(
            r.gpid.pid,
            r.ppid,
            None,
            &r.command,
            r.started_us,
            r.adopted,
        );
    }
    g
}

fn chain_harness(hosts: usize) -> PpmHarness {
    let mut b = PpmHarness::builder();
    for i in 0..hosts {
        b = b.host(format!("b{i}"), CpuClass::Vax780);
    }
    for i in 1..hosts {
        b = b.link(format!("b{}", i - 1), format!("b{i}"));
    }
    b.user(Uid(100), 0xBEEF, &["b0"], PpmConfig::default())
        .build()
}

/// Runs every replay the captured inputs allow and writes the metrics
/// and estimated shares into `out`. `counts` are the plain repetition's
/// layer counts, `wall_s` its timed region (at reference speed), `ops`
/// its op count.
pub fn run(
    c: &Captured,
    counts: &BTreeMap<&'static str, f64>,
    wall_s: f64,
    ops: u64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let wall_ns = wall_s * 1e9;
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut share = |name: &'static str, ns: f64| {
        if wall_ns > 0.0 {
            *shares.entry(name).or_default() += ns / wall_ns;
        }
    };

    // simnet::engine — both queues on the run's schedule count, cancel
    // ratio and configured delay mix.
    let schedules = count("simnet.engine.schedules");
    if schedules > 0.0 {
        let events = (schedules as usize).min(MAX_UNITS);
        let cancels = count("simnet.engine.cancels");
        let cancel_every = if cancels > 0.0 {
            (schedules / cancels).round().max(2.0) as u64
        } else {
            0
        };
        let wheel = queue_replay!(TimerWheel, events, cancel_every);
        let heap = queue_replay!(Engine, events, cancel_every);
        out.insert("simnet.engine.wheel_ns_per_event", wheel);
        out.insert("simnet.engine.heap_ns_per_event", heap);
        share(
            "layer.simnet.engine.est_share",
            wheel * count("simnet.engine.fired"),
        );
    }

    // proto::codec — the messages that crossed the tool's connection.
    if !c.msgs.is_empty() {
        let encoded: Vec<_> = c.msgs.iter().map(Wire::to_bytes).collect();
        let bytes: usize = encoded.iter().map(|b| b.len()).sum();
        let rounds = (MAX_UNITS / c.msgs.len() / 8).clamp(1, 2_000);
        let encode = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                for m in &c.msgs {
                    black_box(m.to_bytes());
                }
            }
            ((rounds * c.msgs.len()) as u64, t.elapsed())
        });
        let decode = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                for b in &encoded {
                    black_box(Msg::from_bytes(b).ok());
                }
            }
            ((rounds * c.msgs.len()) as u64, t.elapsed())
        });
        out.insert("proto.codec.encode_ns_per_msg", encode);
        out.insert("proto.codec.decode_ns_per_msg", decode);
        // Every byte the world carried was encoded once and decoded once
        // (relays that splice aggregates without re-encoding make this an
        // upper estimate).
        let per_byte = (encode + decode) * c.msgs.len() as f64 / bytes.max(1) as f64;
        share(
            "layer.proto.codec.est_share",
            per_byte * count("simos.net.bytes"),
        );
    }
    if !c.snapshot.is_empty() {
        let records = &c.snapshot;
        let reply = tool_response(Reply::Snapshot {
            host: "*".to_string(),
            procs: records.clone(),
        });
        let rounds = (MAX_UNITS / records.len() / 4).clamp(1, 2_000);
        let per_record = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                let bytes = reply.to_bytes();
                black_box(Msg::from_bytes(&bytes).ok());
            }
            ((rounds * records.len()) as u64, t.elapsed())
        });
        out.insert("proto.codec.snapshot_ns_per_record", per_record);

        // core::genealogy snapshot and tools on the same records.
        let g = genealogy_of(records);
        let snap = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                black_box(g.snapshot());
            }
            ((rounds * records.len()) as u64, t.elapsed())
        });
        out.insert("core.genealogy.snapshot_ns_per_record", snap);
        share(
            "layer.core.genealogy.est_share",
            snap * c.tally.snapshot_records as f64,
        );
        let forest = ns_per_unit(|| {
            let copies: Vec<Vec<ProcRecord>> = (0..rounds).map(|_| records.clone()).collect();
            let t = Instant::now();
            for copy in copies {
                black_box(ppm::tools::forest::Forest::build(copy));
            }
            ((rounds * records.len()) as u64, t.elapsed())
        });
        let render = ns_per_unit(|| {
            let copies: Vec<Vec<ProcRecord>> = (0..rounds).map(|_| records.clone()).collect();
            let t = Instant::now();
            for copy in copies {
                black_box(ppm::tools::snapshot::render(copy, "*"));
            }
            ((rounds * records.len()) as u64, t.elapsed())
        });
        out.insert("tools.forest.build_ns_per_record", forest);
        out.insert("tools.snapshot.render_ns_per_record", render);
        // `render` builds the forest itself, so it alone is the share.
        share(
            "layer.tools.est_share",
            render * c.tally.rendered_records as f64,
        );
    }

    // proto::kernel_wire and core::genealogy on the storm's own order.
    if !c.kernel_log.is_empty() {
        let log = &c.kernel_log[..c.kernel_log.len().min(MAX_UNITS)];
        let msgs = kernel_msgs(log);
        let batch = (count("simos.kernel.events_per_wakeup").round() as usize).max(1);
        let frames: Vec<_> = msgs.chunks(batch).map(encode_batch).collect();
        let decode = ns_per_unit(|| {
            let t = Instant::now();
            let mut seen = 0u64;
            for frame in &frames {
                for_each_kernel_msg(frame, |m| {
                    black_box(&m);
                    seen += 1;
                });
            }
            (seen, t.elapsed())
        });
        out.insert("proto.kernel_wire.decode_ns_per_event", decode);
        share(
            "layer.proto.kernel_wire.est_share",
            decode * count("simos.kernel.events"),
        );

        let track = ns_per_unit(|| {
            let mut g = Genealogy::new("replay");
            let t = Instant::now();
            let forks = apply_log(&mut g, log);
            let wall = t.elapsed();
            black_box(g.len());
            (forks, wall)
        });
        let prune = ns_per_unit(|| {
            let mut g = Genealogy::new("replay");
            apply_log(&mut g, log);
            let t = Instant::now();
            let pruned = g.prune_older_than(u64::MAX / 2, 0);
            (pruned as u64, t.elapsed())
        });
        out.insert("core.genealogy.track_ns_per_proc", track);
        out.insert("core.genealogy.prune_ns_per_node", prune);
        share(
            "layer.core.genealogy.est_share",
            (track + prune) * c.tally.storm_procs as f64,
        );

        // The same number of processes through the storage-only world:
        // the gap to this workload's own rate is "storage vs system".
        let procs = c.tally.storm_procs.clamp(1, MAX_UNITS as u64);
        let tenant = ns_per_unit(|| {
            let mut world = TenantWorld::new(scale_spec(1, 2, 1986), procs);
            let t = Instant::now();
            let report = world.run();
            let wall = t.elapsed();
            black_box(report.sim_end_us);
            (procs, wall)
        });
        out.insert("harness.tenant.ns_per_proc", tenant);
    } else if !c.snapshot.is_empty() {
        let records = &c.snapshot;
        let rounds = (MAX_UNITS / records.len() / 4).clamp(1, 2_000);
        let track = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                black_box(genealogy_of(records).len());
            }
            ((rounds * records.len()) as u64, t.elapsed())
        });
        out.insert("core.genealogy.track_ns_per_proc", track);
    }

    // simnet::netmodel — each connection's traffic at its mean message
    // size over the run's topology, spaced at the run's own mean interval
    // between routed sends (contention depends on how many transfers
    // overlap); routing table build on the same.
    if let Some(spec) = &c.topology {
        let sends: Vec<(u32, u32, u64)> = c
            .conn_sends
            .iter()
            .filter(|s| s.a != s.b && s.msgs > 0)
            .flat_map(|s| {
                let size = s.bytes / s.msgs;
                (0..s.msgs.min(2_000)).map(move |i| {
                    if i % 2 == 0 {
                        (s.a, s.b, size)
                    } else {
                        (s.b, s.a, size)
                    }
                })
            })
            .take(MAX_UNITS)
            .collect();
        if !sends.is_empty() {
            let routed = count("simnet.netmodel.routed_sends").max(1.0);
            let gap_us = (c.tally.sim_elapsed_us as f64 / routed).max(1.0);
            let transfer = ns_per_unit(|| {
                let mut model =
                    NetModel::build(spec, &c.host_names, 1986).expect("captured topology builds");
                let t = Instant::now();
                for (i, (a, b, bytes)) in sends.iter().enumerate() {
                    black_box(model.transfer(*a, *b, *bytes, (i as f64 * gap_us) as u64));
                }
                (sends.len() as u64, t.elapsed())
            });
            out.insert("simnet.netmodel.transfer_ns_per_send", transfer);
            share(
                "layer.simnet.netmodel.est_share",
                transfer * count("simnet.netmodel.routed_sends"),
            );
        }
        let build = ns_per_unit(|| {
            let t = Instant::now();
            let graph = NetGraph::build(spec, &c.host_names).expect("captured topology builds");
            black_box(RoutingTable::build(&graph));
            (1, t.elapsed())
        });
        out.insert("simnet.routing.build_us", build / 1e3);
    }

    // runtime::obs — one counter bump plus one histogram record, against
    // the number of samples the run's registries hold.
    if !c.metrics_sections.is_empty() {
        let mut reg = Registry::new();
        let counter = reg.counter("replay.counter");
        let hist = reg.hist("replay.hist");
        let record = ns_per_unit(|| {
            let t = Instant::now();
            for i in 0..50_000u64 {
                reg.inc(counter);
                reg.record(hist, i);
            }
            (100_000, t.elapsed())
        });
        out.insert("runtime.obs.record_ns_per_op", record);
        // Histogram samples plus counter values; counters of bytes grow
        // by `add(n)`, not once per call, and are left out. For
        // `sweep_cells` the sample world stands for every cell.
        let recorded: f64 = c
            .metrics_sections
            .iter()
            .flat_map(|(_, rows)| rows)
            .filter(|r| r.kind != 1 && !r.name.contains("bytes"))
            .map(|r| r.value as f64)
            .sum();
        let worlds = c.tally.reports.max(1) as f64;
        share("layer.runtime.obs.est_share", record * recorded * worlds);
    }

    // scenario, simnet::fault, harness build, report — the sweep cell's
    // own layers.
    if !c.scenario_texts.is_empty() {
        let parse = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..50 {
                for text in &c.scenario_texts {
                    black_box(ppm::scenario::parse(text).ok());
                }
            }
            (50 * c.scenario_texts.len() as u64, t.elapsed())
        });
        out.insert("scenario.parse_us_per_file", parse / 1e3);
        share(
            "layer.scenario.parse.est_share",
            parse * c.tally.scenario_parses as f64,
        );
    }
    if !c.fault_texts.is_empty() {
        let parse = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..200 {
                for text in &c.fault_texts {
                    black_box(FaultPlan::parse(text).ok());
                }
            }
            (200 * c.fault_texts.len() as u64, t.elapsed())
        });
        out.insert("simnet.fault.parse_us_per_plan", parse / 1e3);
        share(
            "layer.simnet.fault.parse.est_share",
            parse * c.tally.plan_parses as f64,
        );
    }
    if !c.host_names.is_empty() {
        let hosts = c.host_names.len();
        let build = ns_per_unit(|| {
            let t = Instant::now();
            let h = chain_harness(hosts);
            let wall = t.elapsed();
            black_box(h.now());
            (hosts as u64, wall)
        });
        out.insert("harness.build_us_per_host", build / 1e3);
        share(
            "layer.harness.build.est_share",
            build * c.tally.hosts_built as f64,
        );
    }
    if let Some(world) = &c.sample_world {
        let trace_log = world.world().core().trace();
        let text = trace_log.render(None);
        let kb = (text.len() as f64 / 1024.0).max(1e-9);
        let rounds = 20;
        let render = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                black_box(trace_log.render(None));
            }
            (rounds, t.elapsed())
        }) / kb;
        let report = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                black_box(world.metrics_report());
            }
            (rounds, t.elapsed())
        });
        let digest = ns_per_unit(|| {
            let t = Instant::now();
            for _ in 0..rounds {
                black_box(ppm::digest::fnv1a(&[&text]));
            }
            (rounds, t.elapsed())
        }) / kb;
        out.insert("report.trace_render_ns_per_kb", render);
        out.insert("report.metrics_report_us", report / 1e3);
        out.insert("report.fnv1a_ns_per_kb", digest);
        share(
            "layer.report.est_share",
            render * c.tally.trace_bytes as f64 / 1024.0
                + report * c.tally.reports as f64
                + digest * c.tally.digest_bytes as f64 / 1024.0,
        );
    }

    // realos — what the tool saw on the cluster clock. The transport
    // share is the time between request sent and reply received.
    if !c.real_remote_op_us.is_empty() {
        out.insert(
            "realos.loopback.connect_us_p50",
            percentile(&c.real_connect_us, 0.5),
        );
        out.insert(
            "realos.loopback.local_op_us_p50",
            percentile(&c.real_local_op_us, 0.5),
        );
        let remote = percentile(&c.real_remote_op_us, 0.5);
        out.insert("realos.loopback.remote_op_us_p50", remote);
        share(
            "layer.realos.transport.est_share",
            remote * 1e3 * ops as f64,
        );
    }

    let attributed: f64 = shares.values().sum();
    out.extend(shares);
    out.insert("layer.unattributed.est_share", 1.0 - attributed);
}
