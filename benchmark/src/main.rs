//! `ppm-benchmark` — the repository's one ruler. See `README.md`.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!       --workload kernel_storm --seed 1986 --seconds 15 --trace 0
//! $ cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 1986
//! ```
//!
//! The first form is one run of one workload: human-readable lines, then
//! one JSON object on the last line of standard output (`--trace 0`: the
//! end-to-end metrics, `--trace 1`: the per-layer metrics). The second
//! runs every workload both ways, each in a child process of its own,
//! prints every metric and writes `benchmark/out/results.{json,tsv}`.
//! `--compare a.tsv b.tsv` judges two such tables of one commit
//! (`aa.sh`), `--manifest` prints `BENCHMARK.json`.

mod alloc;
mod layers;
mod measure;
mod metrics;
mod replay;
mod spans;
mod speed;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{Options, Report};
use stats::{json_num, json_str};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const SMOKE_SCALE: u32 = 20;

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    manifest: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppm-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]\n\
         \x20      ppm-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--out <results.json>]   (every workload)\n\
         \x20      ppm-benchmark --compare <a.tsv> <b.tsv> | --manifest\n\
         workloads: {}",
        workloads::ALL.map(|d| d.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1986,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        manifest: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            "--out" => args.out = Some(PathBuf::from(it.next()?)),
            "--compare" => args.compare = Some((it.next()?, it.next()?)),
            _ => return None,
        }
    }
    Some(args)
}

/// The contract's result line.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn run_one(def: &workloads::Def, args: &Args) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        scale: if args.smoke { SMOKE_SCALE } else { 1 },
    };
    println!("workload   {}", def.name);
    println!("why        {}", def.why);
    println!("op         {}", def.op);
    println!(
        "load       closed loop, one client, one load-generating thread; {} core(s) available",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if def.name == "real_loopback" {
        println!("transport  traffic crossed the loopback interface, not a link");
    }
    let report = if args.trace {
        let spans = out_dir().join(format!("{}.spans.jsonl", def.name));
        measure::layered(def, &opts, &spans)
    } else {
        measure::end_to_end(def, &opts)
    };
    for note in &report.notes {
        println!("note       {note}");
    }
    println!("run_digest {}", ppm::digest::hex(report.run_digest));
    println!(
        "fail_ratio {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, value, unit) in &report.metrics {
        println!("metric     {name} = {} {unit}", json_num(*value));
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.manifest {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(def) => run_one(def, &args),
            None => usage(),
        },
        None => {
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| out_dir().join("results.json"));
            suite::run_all(args.seed, args.seconds, args.smoke, &out)
        }
    }
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs` and the
/// workload definitions.
fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {},\n", metrics::RUN_SECONDS));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(d.name),
                json_str(d.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
