//! # ppm-bench — regenerating the paper's evaluation
//!
//! What the scenario cells cannot yet express, plus the figure
//! renderers and ablations:
//!
//! * [`table1`] — kernel→LPM message delivery vs load and CPU class (it
//!   pins host load with a custom program on the raw world);
//! * [`figures`] — textual regenerations of Figures 1–5;
//! * [`ablate`] — ablations of the design choices DESIGN.md calls out;
//! * [`scale`] — the tens-of-nodes stress test the paper deferred.
//!
//! Tables 2 and 3 are cells, not code: `scenarios/paper/*.ppm`, run by
//! `ppm-sweep scenarios/paper_table2.sweep` and `paper_table3.sweep`.
//! Every measurement is *simulated* milliseconds from the calibrated
//! substrate, directly comparable in shape to the paper's tables.

pub mod ablate;
pub mod figures;
pub mod scale;
pub mod table1;

/// Formats a measured-vs-paper pair with relative error.
pub fn vs(paper: Option<f64>, measured: f64) -> String {
    match paper {
        Some(p) if p > 0.0 => {
            let rel = (measured - p) / p * 100.0;
            format!("{measured:>8.1}  (paper {p:>6.1}, {rel:+5.1}%)")
        }
        _ => format!("{measured:>8.1}  (paper     N/A)"),
    }
}
