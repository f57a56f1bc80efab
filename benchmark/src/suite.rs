//! The whole benchmark in one command, and the A/A comparison.
//!
//! Without `--workload` the binary runs every workload twice — end to
//! end, then layered — each run in a child process of its own, so peak
//! RSS and allocator counts belong to one workload. It prints every
//! child's output, writes the results as JSON and as a flat table, and
//! fails if any child's checks failed.
//!
//! `--compare a.tsv b.tsv` reads two such tables measured on the same
//! commit and seed and judges every end-to-end metric of every workload
//! against its bound (see [`compare`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use crate::metrics::END_TO_END;
use crate::stats::json_str;
use crate::workloads;

/// What the parent keeps of one child run.
struct ChildResult {
    /// The contract's result line.
    json: String,
    run_digest: String,
    /// `(name, value, unit)` of every `metric` line.
    metrics: Vec<(String, String, String)>,
    ok: bool,
}

/// `metric     <name> = <value> <unit>` → its three fields.
fn metric_line(line: &str) -> Option<(String, String, String)> {
    let mut f = line.strip_prefix("metric")?.split_whitespace();
    let (name, eq, value, unit) = (f.next()?, f.next()?, f.next()?, f.next()?);
    (eq == "=").then(|| (name.to_string(), value.to_string(), unit.to_string()))
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = cmd.output().expect("spawn benchmark child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let json = stdout.lines().last().filter(|l| l.starts_with('{'));
    ChildResult {
        ok: output.status.success() && json.is_some(),
        json: json.unwrap_or("null").to_string(),
        run_digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("run_digest "))
            .unwrap_or("")
            .trim()
            .to_string(),
        metrics: stdout.lines().filter_map(metric_line).collect(),
    }
}

pub fn run_all(seed: u64, seconds: f64, smoke: bool, out_json: &Path) -> ExitCode {
    let mut ok = true;
    let mut json = format!("{{\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"workloads\": {{\n");
    let mut table = String::new();
    for (i, def) in workloads::ALL.iter().enumerate() {
        let e2e = run_child(def.name, seed, seconds, false, smoke);
        let layered = run_child(def.name, seed, seconds, true, smoke);
        ok &= e2e.ok && layered.ok;
        json.push_str(&format!(
            "    {}: {{\n      \"run_digest\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}{}\n",
            json_str(def.name),
            json_str(&e2e.run_digest),
            e2e.json,
            layered.json,
            if i + 1 == workloads::ALL.len() { "" } else { "," }
        ));
        table.push_str(&format!(
            "{}\trun_digest\t{}\thex\n",
            def.name, e2e.run_digest
        ));
        for (name, value, unit) in e2e.metrics.iter().chain(&layered.metrics) {
            table.push_str(&format!("{}\t{name}\t{value}\t{unit}\n", def.name));
        }
    }
    // This benchmark measures; it claims nothing.
    json.push_str("  },\n  \"claim\": null\n}\n");
    let out_tsv = out_json.with_extension("tsv");
    let written = out_json
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out_json, json))
        .and_then(|()| std::fs::write(&out_tsv, table));
    match written {
        Ok(()) => println!(
            "results    {} and {}",
            out_json.display(),
            out_tsv.display()
        ),
        Err(e) => {
            eprintln!("ppm-benchmark: cannot write {}: {e}", out_json.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ppm-benchmark: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

type Table = BTreeMap<(String, String), String>;

fn read_table(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some((
                (f.next()?.to_string(), f.next()?.to_string()),
                f.next()?.to_string(),
            ))
        })
        .collect())
}

/// Metrics that repeat bit for bit on the sim backend for one seed.
fn is_exact(workload: &str, metric: &str) -> bool {
    workload != "real_loopback"
        && matches!(
            metric,
            "op_sim_us_p50" | "op_sim_us_p99" | "wire_bytes_per_op"
        )
}

/// Judges two tables of the same commit and seed. Per (metric, workload):
/// an exact metric or a digest is `same` or `differs`; a measured one is
/// `same` when the two runs agree within a third of its bound,
/// `unresolved` when their difference — which on one commit is all noise —
/// uses up more of the bound than that, and `differs` beyond the bound.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (read_table(a_path), read_table(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ppm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut differs = 0;
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for def in &workloads::ALL {
        let key = |m: &str| (def.name.to_string(), m.to_string());
        let digests = (a.get(&key("run_digest")), b.get(&key("run_digest")));
        let verdict = if digests.0.is_some() && digests.0 == digests.1 {
            "same"
        } else {
            differs += 1;
            "differs"
        };
        println!(
            "{:<18} {:<20} {:>16} {:>16} {:>9} {:>6}  {verdict}",
            def.name,
            "run_digest",
            digests.0.map_or("-", String::as_str),
            digests.1.map_or("-", String::as_str),
            "",
            "exact"
        );
        for m in &END_TO_END {
            let values = (
                a.get(&key(m.name)).and_then(|v| v.parse::<f64>().ok()),
                b.get(&key(m.name)).and_then(|v| v.parse::<f64>().ok()),
            );
            let (verdict, change, bound) = match values {
                (Some(x), Some(y)) if is_exact(def.name, m.name) => {
                    let v = if x.to_bits() == y.to_bits() {
                        "same"
                    } else {
                        "differs"
                    };
                    (v, y - x, "exact".to_string())
                }
                (Some(x), Some(y)) if x != 0.0 => {
                    let rel = (y - x).abs() / x.abs();
                    let v = if rel <= m.bound / 3.0 {
                        "same"
                    } else if rel <= m.bound {
                        "unresolved"
                    } else {
                        "differs"
                    };
                    (v, (y - x) / x.abs(), format!("{:.0}%", m.bound * 100.0))
                }
                _ => ("differs", 0.0, "-".to_string()),
            };
            if verdict == "differs" {
                differs += 1;
            }
            println!(
                "{:<18} {:<20} {:>16} {:>16} {:>+8.2}% {:>6}  {verdict}",
                def.name,
                m.name,
                values.0.map_or("-".to_string(), |v| format!("{v:.4}")),
                values.1.map_or("-".to_string(), |v| format!("{v:.4}")),
                if bound == "exact" {
                    change
                } else {
                    change * 100.0
                },
                bound
            );
        }
    }
    if differs == 0 {
        println!("A/A: no `differs` row");
        ExitCode::SUCCESS
    } else {
        println!("A/A: {differs} `differs` row(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_back() {
        assert_eq!(
            metric_line("metric     a.b = 1.5 ms"),
            Some(("a.b".to_string(), "1.5".to_string(), "ms".to_string()))
        );
        assert_eq!(metric_line("note       a = b c"), None);
        assert_eq!(metric_line("metric     broken"), None);
    }

    #[test]
    fn exactness_is_a_sim_property() {
        assert!(is_exact("kernel_storm", "wire_bytes_per_op"));
        assert!(!is_exact("real_loopback", "wire_bytes_per_op"));
        assert!(!is_exact("kernel_storm", "ops_per_s"));
    }
}
