//! Regenerates Table 1 of the paper, printing measured vs published
//! values. Run with `cargo bench -p ppm-bench --bench paper_tables`.
//!
//! Tables 2 and 3 are scenario cells, run by the sweep harness:
//! `cargo run --release --bin ppm-sweep -- scenarios/paper_table2.sweep`
//! (and `paper_table3.sweep`).
//!
//! All times are *simulated* milliseconds from the calibrated substrate;
//! the reproduction criterion is shape (orderings, ratios, crossovers).

use ppm_bench::{table1, vs};

fn main() {
    println!("=====================================================================");
    println!("Table 1: estimated 112-byte kernel-LPM message delivery time (ms)");
    println!("         load estimator: la (time-averaged cpu run queue length)");
    println!("=====================================================================");
    println!(
        "{:<12} {:<14} {:>9} {:>34}",
        "host type", "load bucket", "la", "delivery ms (vs paper)"
    );
    for (cpu, label, paper, cell) in table1::run(1986) {
        println!(
            "{:<12} {:<14} {:>9.2} {:>34}",
            cpu.to_string(),
            label,
            cell.load_avg,
            vs(paper, cell.mean_ms)
        );
    }
}
