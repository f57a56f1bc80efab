//! `sweep_cells`: the sweep harness's cell path on one thread — many
//! short worlds instead of one long one. Each cell parses a scenario,
//! executes it (with or without the crash/heal fault plan), renders the
//! trace and the metrics report and folds them into the cell digest,
//! exactly the strings `ppm-sim --digest` hashes. World build, daemon
//! boot, pmd/LPM creation, fault injection, recovery, RPC retry and
//! report rendering dominate; the steady-state layers do little.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ppm::digest::fnv1a;
use ppm::scenario::{self, ExecOptions};
use ppm::simnet::fault::FaultPlan;

use super::{Captured, Def, Rep, Tally, Totals, Workload};
use crate::layers::LayerCounts;
use crate::spans::Tracer;
use crate::stats::Rng;

pub const DEF: Def = Def {
    name: "sweep_cells",
    why: "many short worlds: scenario parse, world build, daemon boot, LPM creation, fault injection, recovery and report rendering dominate; steady-state layers do little",
    op: "one sweep cell: parse + execute a scenario (chaos, chaos_dual, demo or a 24-host chain; the chaos pair also under crash_heal.fault) + render trace and metrics + digest",
    cpu_bound: true,
    steppable: false,
    setup,
};

/// (scenario index, faulted, cells per repetition at full size). Class 0
/// is the reference class for the ageing ratio.
const KINDS: [(usize, bool, u32); 6] = [
    (0, false, 300),
    (0, true, 300),
    (1, false, 200),
    (1, true, 200),
    (2, false, 100),
    (3, false, 100),
];
const SCENARIO_FILES: [&str; 3] = ["chaos.ppm", "chaos_dual.ppm", "demo.ppm"];
const FAULT_FILE: &str = "crash_heal.fault";
const CHAIN_HOSTS: usize = 24;

#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: u8,
    seed: u64,
}

pub struct SweepCells {
    /// The three scenario files plus the generated chain.
    scenarios: Vec<String>,
    fault_text: String,
    cells: Vec<Cell>,
    next_cell: u64,
    totals: Totals,
    counts: LayerCounts,
    tally: Tally,
    sample_world: Option<ppm::harness::harness::PpmHarness>,
}

fn scenarios_dir() -> PathBuf {
    // The package sits in the repository it measures.
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios"))
}

fn setup(seed: u64, scale: u32, tr: &mut Tracer) -> Box<dyn Workload> {
    let dir = scenarios_dir();
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("sweep_cells: cannot read {name}: {e}"))
    };
    let mut scenarios: Vec<String> = SCENARIO_FILES.iter().map(|f| read(f)).collect();
    scenarios.push(scenario::chain_scenario(CHAIN_HOSTS));
    let fault_text = read(FAULT_FILE);

    let mut rng = Rng::new(seed ^ 0x7377_6565);
    let mut cells = Vec::new();
    for (kind, (_, _, count)) in KINDS.iter().enumerate() {
        for _ in 0..(count / scale).max(1) {
            cells.push(Cell {
                kind: kind as u8,
                seed: 0,
            });
        }
    }
    rng.shuffle(&mut cells);
    for c in &mut cells {
        c.seed = 1 + rng.below(1 << 32);
    }

    let mut w = SweepCells {
        scenarios,
        fault_text,
        cells,
        next_cell: 0,
        totals: Totals {
            engine_fired: Some(0),
            wire_bytes: 0,
        },
        counts: LayerCounts::default(),
        tally: Tally::default(),
        sample_world: None,
    };
    // One cell of each kind: page in every code path before timing.
    let mut warm = Rep::new(false);
    for kind in 0..KINDS.len() {
        let cell = Cell {
            kind: kind as u8,
            seed: 1 + rng.below(1 << 32),
        };
        w.cell(cell, &mut warm, tr);
    }
    assert!(
        warm.failed == 0,
        "sweep_cells warm-up failed: {:?}",
        warm.failures
    );
    w.totals = Totals {
        engine_fired: Some(0),
        wire_bytes: 0,
    };
    w.counts = LayerCounts::default();
    w.tally = Tally::default();
    Box::new(w)
}

impl SweepCells {
    fn cell(&mut self, cell: Cell, rep: &mut Rep, tr: &mut Tracer) {
        let (scenario_idx, faulted, _) = KINDS[cell.kind as usize];
        tr.set_op(self.next_cell);
        self.next_cell += 1;
        let op = tr.enter("op");
        let started = Instant::now();

        let verdict = (|| -> Result<Option<f64>, String> {
            let open = tr.enter("scenario.parse");
            let parsed = scenario::parse(&self.scenarios[scenario_idx]);
            let plan = faulted.then(|| FaultPlan::parse(&self.fault_text));
            tr.exit(open);
            let mut sc = parsed.map_err(|e| format!("parse: {e}"))?;
            let plan = plan.transpose().map_err(|e| format!("fault plan: {e}"))?;
            sc.seed = cell.seed;

            let mut out = String::new();
            let open = tr.enter("scenario.execute");
            let run = scenario::execute_with(
                &sc,
                &mut out,
                ExecOptions {
                    spans: false,
                    faults: plan.as_ref(),
                    topology: None,
                },
            );
            tr.exit(open);
            let h = run.map_err(|e| format!("execute: {e}"))?;

            let open = tr.enter("report.render");
            let trace = h.world().core().trace().render(None);
            let sections = h.metrics_sections();
            let metrics = ppm::core::obs::render_metrics(&sections);
            let digest = fnv1a(&[&out, &trace, &metrics]);
            tr.exit(open);

            if !out.contains("scenario complete") {
                return Err("output lacks `scenario complete`".to_string());
            }
            rep.observe(&format!("cell {} {digest:016x}\n", cell.kind));

            // Program-side counters of this cell's world.
            let fired = h.world().core().engine_stats().fired;
            self.totals.engine_fired = self.totals.engine_fired.map(|f| f + fired);
            self.totals.wire_bytes += super::sim_wire_bytes(&h);
            let before = self.counts.mttr_us.len();
            self.counts.add_sections(&sections);
            self.counts.add_connections(&h);
            // The cell's recovery time: the mean over its LPMs that
            // recovered of their mean MTTR.
            let mttr = &self.counts.mttr_us[before..];
            let pooled = (!mttr.is_empty()).then(|| mttr.iter().sum::<f64>() / mttr.len() as f64);
            self.tally.scenario_parses += 1;
            self.tally.plan_parses += u64::from(faulted);
            self.tally.hosts_built += sc.hosts.len() as u64;
            self.tally.reports += 1;
            self.tally.trace_bytes += trace.len() as u64;
            self.tally.digest_bytes += (out.len() + trace.len() + metrics.len()) as u64;
            if tr.is_on() && self.sample_world.is_none() {
                self.sample_world = Some(h);
            }
            Ok(pooled)
        })();
        let wall = started.elapsed();
        tr.exit(op);
        match verdict {
            Ok(mttr) => {
                rep.op_sim_us.extend(mttr);
                rep.record(cell.kind, 1, wall, Ok(()));
            }
            Err(why) => rep.record(
                cell.kind,
                1,
                wall,
                Err(format!("cell kind {} seed {}: {why}", cell.kind, cell.seed)),
            ),
        }
    }
}

impl Workload for SweepCells {
    fn run(&mut self, rep: &mut Rep, tr: &mut Tracer) {
        for cell in self.cells.clone() {
            self.cell(cell, rep, tr);
        }
    }

    fn totals(&self) -> Totals {
        self.totals
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        // No long-lived genealogy here: `core.genealogy.tracked_end`
        // stays 0.
        self.counts.finish(out);
    }

    fn capture(&mut self) -> Captured {
        Captured {
            scenario_texts: self.scenarios.clone(),
            fault_texts: vec![self.fault_text.clone()],
            metrics_sections: self
                .sample_world
                .as_ref()
                .map(|h| h.metrics_sections())
                .unwrap_or_default(),
            sample_world: self.sample_world.take(),
            tally: self.tally,
            host_names: (0..CHAIN_HOSTS).map(|i| format!("h{i}")).collect(),
            ..Captured::default()
        }
    }
}
