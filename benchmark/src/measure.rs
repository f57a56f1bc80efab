//! The measurement loop. One *repetition* sets a workload up from the
//! seed (timed as set-up), runs its fixed list of ops (the timed region)
//! and reads the program's counters either side. A run repeats that —
//! same seed, fresh world, so the same ops in the same order — until
//! `--seconds` is used up, and reports medians: each op's wall time is
//! the median of its repetitions, throughput and the wall percentiles
//! are computed from those per-op times, and counts, clock latencies,
//! bytes and allocations are medians over repetitions. Identical inputs
//! must give identical run digests.
//!
//! Wall times of the CPU-bound (simulated) workloads are scaled to the
//! reference speed first; see [`crate::speed`] for why and how.
//!
//! The layered run (`--trace 1`) alternates plain and span-traced
//! repetitions, adds one short stepped pass, then the isolated replays.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::alloc::{peak_rss_mb, AllocMark};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::workloads::{Captured, Def, Rep, Workload};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Divides every workload's op counts; 20 under `--smoke`.
    pub scale: u32,
}

/// What one run reports: the contract's four keys plus the digest.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub run_digest: u64,
    pub notes: Vec<String>,
}

/// One repetition, measured.
struct Measured {
    rep: Rep,
    /// Set-up wall seconds, scaled like the op walls.
    setup_s: f64,
    /// Raw wall seconds of set-up and timed region, for budgeting.
    spent_s: f64,
    setup_alloc: AllocMark,
    run_alloc: AllocMark,
    fired: Option<u64>,
    wire_bytes: u64,
    counts: BTreeMap<&'static str, f64>,
}

/// Counts that accumulate over a world's life: the timed region's share
/// is the difference of the readings either side of it.
fn is_cumulative(name: &str) -> bool {
    !matches!(
        name,
        "simnet.engine.overflow_peak"
            | "simos.kernel.events_per_wakeup"
            | "core.recovery.mttr_us_p50"
            | "core.genealogy.tracked_end"
    )
}

fn repetition(
    def: &Def,
    opts: &Options,
    scale: u32,
    tr: &mut Tracer,
) -> (Box<dyn Workload>, Measured) {
    let pass = tr.enter("pass");
    let a0 = AllocMark::now();
    let t0 = Instant::now();
    let mut workload = (def.setup)(opts.seed, scale, tr);
    let setup_raw_s = t0.elapsed().as_secs_f64();
    let setup_s = setup_raw_s * scale_of(def);
    let a1 = AllocMark::now();

    let totals0 = workload.totals();
    let mut counts0 = BTreeMap::new();
    workload.layer_counts(&mut counts0);

    let mut rep = Rep::new(def.cpu_bound);
    let a2 = AllocMark::now();
    let t1 = Instant::now();
    workload.run(&mut rep, tr);
    let run_s = t1.elapsed().as_secs_f64();
    let a3 = AllocMark::now();
    tr.exit(pass);

    let totals1 = workload.totals();
    let mut counts = BTreeMap::new();
    workload.layer_counts(&mut counts);
    for (name, v) in &mut counts {
        if is_cumulative(name) {
            *v -= counts0.get(name).copied().unwrap_or(0.0);
        }
    }
    if let (Some(e), Some(w)) = (
        counts.get("simos.kernel.events").copied(),
        counts.get("simos.kernel.wakeups").copied(),
    ) {
        if w > 0.0 {
            counts.insert("simos.kernel.events_per_wakeup", e / w);
        }
    }
    let measured = Measured {
        rep,
        setup_s,
        spent_s: setup_raw_s + run_s,
        setup_alloc: a1.since(a0),
        run_alloc: a3.since(a2),
        fired: totals1
            .engine_fired
            .zip(totals0.engine_fired)
            .map(|(b, a)| b - a),
        wire_bytes: totals1.wire_bytes - totals0.wire_bytes,
        counts,
    };
    (workload, measured)
}

fn note_failures(notes: &mut Vec<String>, m: &Measured) {
    for why in &m.rep.failures {
        notes.push(format!("failed op: {why}"));
    }
}

/// The wall-time scale of the moment: 1 for a workload that waits
/// rather than computes.
fn scale_of(def: &Def) -> f64 {
    if def.cpu_bound {
        crate::speed::factor()
    } else {
        1.0
    }
}

/// Each op's (scaled) wall time as the median of its repetitions: µs per
/// op, one entry per harness call. Repetitions whose call list differs
/// from the first's — only possible after a failed op — are left out.
fn typical_walls(reps: &[&Rep]) -> Vec<f64> {
    let first = reps[0];
    let same: Vec<&&Rep> = reps
        .iter()
        .filter(|r| r.op_count == first.op_count)
        .collect();
    (0..first.op_wall_us.len())
        .map(|i| {
            let samples: Vec<f64> = same
                .iter()
                .map(|r| r.op_wall_us[i] * r.op_speed[i])
                .collect();
            median(&samples)
        })
        .collect()
}

/// Seconds the harness calls of one repetition typically take.
fn total_s(rep: &Rep, walls: &[f64]) -> f64 {
    walls
        .iter()
        .zip(&rep.op_count)
        .map(|(w, n)| w * *n as f64)
        .sum::<f64>()
        / 1e6
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(def: &Def, opts: &Options) -> Report {
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut reps: Vec<Measured> = Vec::new();
    loop {
        let (workload, m) = repetition(def, opts, opts.scale, &mut Tracer::new(false));
        drop(workload);
        reps.push(m);
        let spent: Vec<f64> = reps.iter().map(|m| m.spent_s).collect();
        let next_ends = started.elapsed() + Duration::from_secs_f64(median(&spent) / 2.0);
        if next_ends >= budget {
            break;
        }
    }

    let mut notes = Vec::new();
    let attempted: u64 = reps.iter().map(|m| m.rep.attempted).sum();
    let mut failed: u64 = reps.iter().map(|m| m.rep.failed).sum();
    for m in &reps {
        note_failures(&mut notes, m);
    }
    let run_digest = reps[0].rep.digest;
    if reps.iter().any(|m| m.rep.digest != run_digest) {
        // Same seed, same inputs: differing output is a failed check.
        failed += 1;
        notes.push(format!(
            "run_digest differs between repetitions: {:?}",
            reps.iter()
                .map(|m| ppm::digest::hex(m.rep.digest))
                .collect::<Vec<_>>()
        ));
    }

    let all: Vec<&Rep> = reps.iter().map(|m| &m.rep).collect();
    let walls = typical_walls(&all);
    let timed_s = total_s(all[0], &walls);
    let over = |f: &dyn Fn(&Measured) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let ops = |m: &Measured| m.rep.attempted.max(1) as f64;
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => over(&|m| m.setup_s),
            "ops_per_s" => ops(&reps[0]) / timed_s,
            "op_wall_us_p50" => percentile(&walls, 0.50),
            "op_wall_us_p90" => percentile(&walls, 0.90),
            "op_sim_us_p50" => over(&|m| percentile(&m.rep.op_sim_us, 0.50)),
            "op_sim_us_p99" => over(&|m| percentile(&m.rep.op_sim_us, 0.99)),
            "wire_bytes_per_op" => over(&|m| m.wire_bytes as f64 / ops(m)),
            "allocs_per_op" => over(&|m| m.run_alloc.allocs as f64 / ops(m)),
            "alloc_bytes_per_op" => over(&|m| m.run_alloc.bytes as f64 / ops(m)),
            "peak_rss_mb" => peak_rss_mb().unwrap_or(0.0),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    notes.push(format!(
        "{} repetition(s) of {} op(s) in {} harness call(s); {} clock-latency sample(s) each; measured {:.1}s",
        reps.len(),
        reps[0].rep.attempted,
        reps[0].rep.op_wall_us.len(),
        reps[0].rep.op_sim_us.len(),
        started.elapsed().as_secs_f64(),
    ));
    if def.cpu_bound {
        let raw: Vec<f64> = reps
            .iter()
            .map(|m| total_s(&m.rep, &m.rep.op_wall_us))
            .collect();
        notes.push(format!(
            "timed region at reference speed {timed_s:.4}s; raw wall per repetition {:.4}s..{:.4}s (the spread is the sandbox's speed drift)",
            raw.iter().copied().fold(f64::INFINITY, f64::min),
            raw.iter().copied().fold(0.0, f64::max),
        ));
    }
    notes.extend(class_summary(&reps[0].rep, &walls));
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        run_digest,
        notes,
    }
}

/// Per op class: how many wall samples and their median, so a reader
/// sees which mode each percentile sits in.
fn class_summary(rep: &Rep, walls: &[f64]) -> Vec<String> {
    let mut by_class: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    for (w, c) in walls.iter().zip(&rep.op_class) {
        by_class.entry(*c).or_default().push(*w);
    }
    by_class
        .iter()
        .map(|(c, w)| {
            format!(
                "op class {c}: {} wall sample(s), median {:.1} us per op",
                w.len(),
                median(w)
            )
        })
        .collect()
}

/// Median wall of class-0 ops in the last tenth of the repetition over
/// the first tenth.
fn age_slowdown(rep: &Rep, walls: &[f64]) -> f64 {
    let reference: Vec<f64> = walls
        .iter()
        .zip(&rep.op_class)
        .filter(|(_, c)| **c == 0)
        .map(|(w, _)| *w)
        .collect();
    let tenth = reference.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    let first = median(&reference[..tenth]);
    let last = median(&reference[reference.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// `--trace 1`: the per-layer metrics.
pub fn layered(def: &Def, opts: &Options, spans_out: &std::path::Path) -> Report {
    let mut notes = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    // 1. Plain and span-traced repetitions, alternating so both meet the
    //    same mix of the sandbox's speed phases. The last traced one
    //    keeps its spans and captures the inputs the replays run on.
    //    Pairs take half of `--seconds`; the rest is for the stepped
    //    pass and the replays.
    let mut plain: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    let mut shares: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds / 2.0);
    let started = Instant::now();
    let (captured, tracer): (Captured, Tracer) = loop {
        let (workload, m) = repetition(def, opts, opts.scale, &mut Tracer::new(false));
        drop(workload);
        plain.push(m);

        let mut tracer = Tracer::new(true);
        let (mut workload, m) = repetition(def, opts, opts.scale, &mut tracer);
        traced.push(m);
        shares.push(tracer.self_shares_under("pass"));
        if started.elapsed() >= budget {
            break (workload.capture(), tracer);
        }
    };
    match tracer.write_jsonl(spans_out) {
        Ok(()) => notes.push(format!(
            "{} plain/traced pair(s); {} spans written to {}",
            plain.len(),
            tracer.spans().len(),
            spans_out.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", spans_out.display())),
    }
    for m in plain.iter().chain(&traced) {
        note_failures(&mut notes, m);
    }

    let first = &plain[0];
    values.extend(first.counts.iter().map(|(k, v)| (*k, *v)));
    let plain_reps: Vec<&Rep> = plain.iter().map(|m| &m.rep).collect();
    let traced_reps: Vec<&Rep> = traced.iter().map(|m| &m.rep).collect();
    let plain_walls = typical_walls(&plain_reps);
    let plain_s = total_s(&first.rep, &plain_walls);
    let traced_s = total_s(&traced[0].rep, &typical_walls(&traced_reps));
    values.insert("trace_overhead_ratio", traced_s / plain_s);
    if let Some(fired) = first.fired {
        values.insert("simnet.engine.fired_per_s", fired as f64 / plain_s);
    }
    values.insert(
        "simos.world.age_slowdown",
        age_slowdown(&first.rep, &plain_walls),
    );
    values.insert("setup.allocs", first.setup_alloc.allocs as f64);
    values.insert("setup.alloc_bytes", first.setup_alloc.bytes as f64);
    values.insert("op_wall_samples", first.rep.op_wall_us.len() as f64);

    // Span self-time shares of the whole traced pass, set-up included, so
    // work moved between set-up and the timed region shows: per name the
    // median over the traced passes, scaled to sum to 1.
    let mut by_metric: BTreeMap<&'static str, f64> = BTreeMap::new();
    let names: std::collections::BTreeSet<&'static str> =
        shares.iter().flat_map(|s| s.keys().copied()).collect();
    for name in names {
        let per_pass: Vec<f64> = shares
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        let metric = format!("span.{name}.share");
        let key = PER_LAYER
            .iter()
            .find(|m| m.name == metric)
            // `pass` and `op` self times are the driver's own bookkeeping.
            .map_or("span.unattributed.share", |m| m.name);
        *by_metric.entry(key).or_default() += median(&per_pass);
    }
    let total: f64 = by_metric.values().sum();
    if total > 0.0 {
        values.extend(by_metric.into_iter().map(|(k, v)| (k, v / total)));
    }

    // 2. A short stepped pass: `run_for` replaced by timed `step()`s,
    //    where the driver holds the world.
    let mut stepped = Vec::new();
    if def.steppable {
        let mut stepper = Tracer::new(false);
        stepper.stepped = true;
        let (workload, m) = repetition(def, opts, opts.scale.saturating_mul(4), &mut stepper);
        drop(workload);
        note_failures(&mut notes, &m);
        stepped.push(m);
        values.insert(
            "simos.world.step_ns_p50",
            percentile(&stepper.step_ns, 0.50),
        );
        values.insert(
            "simos.world.step_ns_p90",
            percentile(&stepper.step_ns, 0.90),
        );
        notes.push(format!("{} timed world steps", stepper.step_ns.len()));
    }

    // 3. Isolated replays on the captured inputs, and the estimated
    //    share of the plain timed region each layer accounts for.
    replay::run(
        &captured,
        &first.counts,
        plain_s,
        first.rep.attempted,
        &mut values,
    );

    let run_digest = first.rep.digest;
    let every = || plain.iter().chain(&traced).chain(&stepped);
    let mut failed: u64 = every().map(|m| m.rep.failed).sum();
    if plain
        .iter()
        .chain(&traced)
        .any(|m| m.rep.digest != run_digest)
    {
        failed += 1;
        notes.push("run_digest differs between repetitions of the layered run".to_string());
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    Report {
        correct: failed == 0,
        attempted: every().map(|m| m.rep.attempted).sum(),
        failed,
        metrics,
        run_digest,
        notes,
    }
}
