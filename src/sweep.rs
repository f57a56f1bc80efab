//! The parallel experiment harness: deterministic sweep grids.
//!
//! A `.sweep` grid file declares a cross product of run dimensions —
//! seeds × variants (scenario files, generated chains, tenant storms) ×
//! fault plans — plus pass/fail predicates. [`Grid::parse`] expands the
//! product into independent [`RunSpec`]s; [`run_specs`] fans them out
//! over a pool of worker threads, each of which builds its *own*
//! simulated world (one engine per run — the engine itself stays
//! single-threaded and deterministic, parallelism lives strictly
//! *between* runs); [`render_report`] folds the results into a
//! [`SweepReport`] rendering that is **byte-identical regardless of
//! worker count or completion order**, because results land in
//! spec-indexed slots and every section is sorted by spec id — arrival
//! order never reaches the output. Wall-clock numbers are observational
//! and live in [`render_timing`], which callers send to stderr.
//!
//! ## Grid grammar
//!
//! ```text
//! sweep chaos-mttr              # required header, names the grid
//! seeds 1..8                    # inclusive range, or: seeds 1,5,9
//! scenario chaos.ppm            # variant: scenario file (grid-relative)
//! chain 12                      # variant: generated chain topology
//! storm 8x4 procs=4000          # variant: U users x H hosts storm
//! faults crash_heal.fault       # fault plan (grid-relative), or: faults none
//! topology fat-tree             # net model: preset, spec file, or: topology none
//! expect scenario complete      # substring the run output must contain
//! expect-metric lpm.restarts    # substring the metrics text must contain
//! ```
//!
//! Every variant runs under every fault plan and every topology. Grids
//! that never say `topology` keep their pre-netmodel ids and report
//! bytes — the `net:<arg>` id segment appears only once the axis is
//! declared.
//! Each (variant, plan, topology) triple runs once per seed. A run's digest is the
//! FNV-1a fold of exactly the strings `ppm-sim --digest` hashes, so any
//! cell — failed or not — can be re-derived standalone from the repro
//! command line carried in its result.

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::digest::{fnv1a, fnv1a_fold, hex};
use crate::harness::harness::{PpmHarness, Runtime};
use crate::harness::tenant::{host_names, storm_fits};
use crate::scenario::{ExecOptions, ScenarioError};
use crate::simnet::fault::FaultPlan;
use crate::simnet::topology::NetSpec;

/// One axis-point of the variant dimension.
#[derive(Debug, Clone)]
pub enum VariantKind {
    /// A scenario file, preloaded so workers never touch the filesystem.
    Scenario { text: Arc<str> },
    /// A generated chain-topology scale scenario (`ppm-sim --hosts N`).
    Chain { hosts: usize },
    /// A multi-tenant fork/exec/exit storm (`ppm-sim --users U --hosts H`).
    Storm { users: u32, hosts: u16, procs: u64 },
}

/// A variant with its stable label (`scenario:chaos.ppm`, `chain:12`,
/// `storm:8x4`). Labels use the path *as written* in the grid so report
/// bytes do not depend on where the grid file itself lives.
#[derive(Debug, Clone)]
pub struct Variant {
    pub label: String,
    /// Resolved path for repro command lines (scenario variants only).
    pub repro_path: Option<String>,
    pub kind: VariantKind,
}

/// A fault-plan axis point; `text == None` is the no-faults plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub label: String,
    pub repro_path: Option<String>,
    pub text: Option<Arc<str>>,
}

impl Plan {
    fn none() -> Self {
        Plan {
            label: "fault:none".into(),
            repro_path: None,
            text: None,
        }
    }
}

/// A topology axis point; `arg == None` is the flat wire (no net model).
/// Presets carry only their name (they are instantiated over each
/// variant's own host list at run time); spec files are preloaded like
/// fault plans so workers never touch the filesystem.
#[derive(Debug, Clone)]
pub struct Topo {
    pub label: String,
    /// The preset name or path *as written* in the grid (repro lines).
    pub arg: Option<String>,
    pub repro_path: Option<String>,
    /// Preloaded spec-file text (file-based topologies only).
    pub text: Option<Arc<str>>,
}

impl Topo {
    fn flat() -> Self {
        Topo {
            label: "net:flat".into(),
            arg: None,
            repro_path: None,
            text: None,
        }
    }
}

/// A parsed sweep grid: the declared axes plus the pass predicates.
#[derive(Debug, Clone)]
pub struct Grid {
    pub name: String,
    pub seeds: Vec<u64>,
    pub variants: Vec<Variant>,
    pub plans: Vec<Plan>,
    /// Topology axis; empty means the axis was never declared (flat wire,
    /// and the `net:` id segment is omitted for report-byte stability).
    pub topos: Vec<Topo>,
    /// Substrings the run output (scenario output / storm report) must contain.
    pub expects: Vec<String>,
    /// Substrings the metrics text must contain.
    pub expects_metric: Vec<String>,
}

/// One fully-specified independent run: a cell of the expanded grid.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// `variant|plan|seed=N` — the sort key for every report section.
    pub id: String,
    pub variant: Variant,
    pub plan: Plan,
    pub topo: Topo,
    pub seed: u64,
    pub expects: Vec<String>,
    pub expects_metric: Vec<String>,
}

/// The compact result a worker sends back: strings and integers only —
/// no world state ever crosses a thread boundary.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub id: String,
    /// FNV-1a digest of the run's observable surface (identical to
    /// `ppm-sim --digest` for the same spec).
    pub digest: u64,
    pub sim_end_us: u64,
    /// Pooled (`count`, `sum`) of every `lpm.mttr_us` histogram in the
    /// metrics text, when any LPM recovered during the run.
    pub mttr: Option<(u64, u64)>,
    /// Unmet predicates and execution errors; empty means the run passed.
    pub failures: Vec<String>,
    /// The exact `cargo run … ppm-sim` command line reproducing this cell.
    pub repro: String,
}

impl Grid {
    /// Parses a grid file. `base` is the directory paths are resolved
    /// against (the grid file's parent). Scenario and fault files are
    /// read and fault grammars validated here, so workers start from
    /// in-memory text and grammar errors fail fast, not per-cell.
    pub fn parse(text: &str, base: &Path) -> Result<Grid, String> {
        let mut name = None;
        let mut seeds = Vec::new();
        let mut variants = Vec::new();
        let mut plans = Vec::new();
        let mut topos = Vec::new();
        let mut expects = Vec::new();
        let mut expects_metric = Vec::new();
        for (lno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("line {}: {msg}", lno + 1);
            let (key, rest) = match line.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (line, ""),
            };
            match key {
                "sweep" => {
                    if rest.is_empty() {
                        return Err(err("sweep needs a name".into()));
                    }
                    name = Some(rest.to_string());
                }
                "seeds" => seeds.extend(parse_seeds(rest).map_err(err)?),
                "scenario" => {
                    let resolved = base.join(rest);
                    let text = std::fs::read_to_string(&resolved)
                        .map_err(|e| err(format!("cannot read {}: {e}", resolved.display())))?;
                    variants.push(Variant {
                        label: format!("scenario:{rest}"),
                        repro_path: Some(resolved.display().to_string()),
                        kind: VariantKind::Scenario { text: text.into() },
                    });
                }
                "chain" => {
                    let hosts: usize = rest
                        .parse()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or_else(|| err("chain needs a host count of at least 2".into()))?;
                    variants.push(Variant {
                        label: format!("chain:{hosts}"),
                        repro_path: None,
                        kind: VariantKind::Chain { hosts },
                    });
                }
                "storm" => {
                    let mut parts = rest.split_whitespace();
                    let shape = parts.next().unwrap_or("");
                    let (u, h) = shape
                        .split_once('x')
                        .and_then(|(u, h)| Some((u.parse().ok()?, h.parse().ok()?)))
                        .filter(|&(u, h): &(u32, u16)| u >= 1 && h >= 2)
                        .ok_or_else(|| err(format!("bad storm shape {shape:?} (want UxH)")))?;
                    storm_fits(u, h).map_err(err)?;
                    let mut procs = u64::from(u).saturating_mul(2_000);
                    for p in parts {
                        let v = p
                            .strip_prefix("procs=")
                            .and_then(|v| v.parse().ok())
                            .filter(|&v: &u64| v >= 1)
                            .ok_or_else(|| err(format!("bad storm option {p:?}")))?;
                        procs = v;
                    }
                    variants.push(Variant {
                        label: format!("storm:{u}x{h}"),
                        repro_path: None,
                        kind: VariantKind::Storm {
                            users: u,
                            hosts: h,
                            procs,
                        },
                    });
                }
                "faults" => {
                    if rest == "none" {
                        plans.push(Plan::none());
                    } else {
                        let resolved = base.join(rest);
                        let text = std::fs::read_to_string(&resolved)
                            .map_err(|e| err(format!("cannot read {}: {e}", resolved.display())))?;
                        FaultPlan::parse(&text).map_err(|e| err(format!("{rest}: {e}")))?;
                        plans.push(Plan {
                            label: format!("fault:{rest}"),
                            repro_path: Some(resolved.display().to_string()),
                            text: Some(text.into()),
                        });
                    }
                }
                "topology" => {
                    if rest == "none" {
                        topos.push(Topo::flat());
                    } else if NetSpec::PRESETS.contains(&rest) {
                        topos.push(Topo {
                            label: format!("net:{rest}"),
                            arg: Some(rest.to_string()),
                            repro_path: None,
                            text: None,
                        });
                    } else {
                        let resolved = base.join(rest);
                        let text = std::fs::read_to_string(&resolved)
                            .map_err(|e| err(format!("cannot read {}: {e}", resolved.display())))?;
                        NetSpec::parse(&text).map_err(|e| err(format!("{rest}: {e}")))?;
                        topos.push(Topo {
                            label: format!("net:{rest}"),
                            arg: Some(rest.to_string()),
                            repro_path: Some(resolved.display().to_string()),
                            text: Some(text.into()),
                        });
                    }
                }
                "expect" => {
                    if rest.is_empty() {
                        return Err(err("expect needs a substring".into()));
                    }
                    expects.push(rest.to_string());
                }
                "expect-metric" => {
                    if rest.is_empty() {
                        return Err(err("expect-metric needs a substring".into()));
                    }
                    expects_metric.push(rest.to_string());
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
        }
        let name = name.ok_or("missing `sweep NAME` header")?;
        if variants.is_empty() {
            return Err("grid declares no variants (scenario/chain/storm)".into());
        }
        if seeds.is_empty() {
            seeds.push(1986);
        }
        if plans.is_empty() {
            plans.push(Plan::none());
        }
        Ok(Grid {
            name,
            seeds,
            variants,
            plans,
            topos,
            expects,
            expects_metric,
        })
    }

    /// Reads and parses a grid file; paths resolve against its parent dir.
    pub fn load(path: &Path) -> Result<Grid, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Grid::parse(&text, path.parent().unwrap_or(Path::new(".")))
    }

    /// Expands the cross product into independent run specs, in the
    /// deterministic grid order (variant-major, then plan, then seed).
    #[must_use]
    pub fn expand(&self) -> Vec<RunSpec> {
        let flat = [Topo::flat()];
        let mut specs = Vec::new();
        for v in &self.variants {
            let topos: &[Topo] = if self.topos.is_empty() {
                &flat
            } else {
                &self.topos
            };
            for p in &self.plans {
                for t in topos {
                    // The `net:` segment appears only when the grid
                    // declares the axis, so pre-netmodel grids keep
                    // their exact ids and report bytes.
                    let id = if self.topos.is_empty() {
                        format!("{}|{}|seed=", v.label, p.label)
                    } else {
                        format!("{}|{}|{}|seed=", v.label, p.label, t.label)
                    };
                    for &seed in &self.seeds {
                        specs.push(RunSpec {
                            id: format!("{id}{seed}"),
                            variant: v.clone(),
                            plan: p.clone(),
                            topo: t.clone(),
                            seed,
                            expects: self.expects.clone(),
                            expects_metric: self.expects_metric.clone(),
                        });
                    }
                }
            }
        }
        specs
    }
}

fn parse_seeds(rest: &str) -> Result<Vec<u64>, String> {
    if rest.is_empty() {
        return Err("seeds needs a range a..b or a comma list".into());
    }
    if let Some((a, b)) = rest.split_once("..") {
        let a: u64 = a.trim().parse().map_err(|_| format!("bad seed {a:?}"))?;
        let b: u64 = b.trim().parse().map_err(|_| format!("bad seed {b:?}"))?;
        if b < a {
            return Err(format!("empty seed range {a}..{b}"));
        }
        if b - a >= 4_096 {
            return Err(format!("seed range {a}..{b} too large (max 4096)"));
        }
        return Ok((a..=b).collect());
    }
    rest.split(',')
        .map(|s| {
            let s = s.trim();
            s.parse().map_err(|_| format!("bad seed {s:?}"))
        })
        .collect()
}

impl RunSpec {
    /// The `ppm-sim` command line that replays exactly this cell,
    /// digest and all.
    #[must_use]
    pub fn repro(&self) -> String {
        let mut cmd = format!(
            "cargo run --release --bin ppm-sim -- --digest --seed {}",
            self.seed
        );
        if let Some(p) = &self.plan.repro_path {
            cmd.push_str(&format!(" --faults {p}"));
        }
        if let Some(t) = self.topo.repro_path.as_ref().or(self.topo.arg.as_ref()) {
            cmd.push_str(&format!(" --topology {t}"));
        }
        match &self.variant.kind {
            VariantKind::Scenario { .. } => {
                if let Some(p) = &self.variant.repro_path {
                    cmd.push_str(&format!(" {p}"));
                }
            }
            VariantKind::Chain { hosts } => cmd.push_str(&format!(" --hosts {hosts}")),
            VariantKind::Storm {
                users,
                hosts,
                procs,
            } => cmd.push_str(&format!(" --users {users} --hosts {hosts} --procs {procs}")),
        }
        cmd
    }
}

/// Pools every `lpm.mttr_us` histogram line of a metrics text into one
/// (count, sum) pair. Render shape (see `ppm_core::obs`):
/// `label lpm.mttr_us count=N sum=S buckets=[...]`.
fn pool_mttr(metrics: &str) -> Option<(u64, u64)> {
    let mut count = 0u64;
    let mut sum = 0u64;
    for line in metrics.lines() {
        if !line.contains(" lpm.mttr_us ") {
            continue;
        }
        for tok in line.split_whitespace() {
            if let Some(v) = tok.strip_prefix("count=") {
                count += v.parse::<u64>().unwrap_or(0);
            } else if let Some(v) = tok.strip_prefix("sum=") {
                sum += v.parse::<u64>().unwrap_or(0);
            }
        }
    }
    (count > 0).then_some((count, sum))
}

/// What one cell's run leaves behind: exactly the strings `ppm-sim`
/// prints or writes, and the digest `--digest` reports over them.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// Scenario output, or the storm report.
    pub output: String,
    /// The rendered trace.
    pub trace: String,
    /// Every metrics registry as stable text.
    pub metrics: String,
    /// JSONL and Chrome renderings of the span log, when asked for.
    pub spans: Option<(String, String)>,
    /// FNV-1a fold of `output`, `trace` and `metrics`.
    pub digest: u64,
    /// The backend-clock instant the run ended, µs.
    pub sim_end_us: u64,
}

/// Where a cell's network model comes from.
#[derive(Debug, Clone, Copy)]
pub enum CellTopology<'a> {
    /// A preset, instantiated over the cell's own host list.
    Preset(&'a str),
    /// A parsed spec file.
    Spec(&'a NetSpec),
}

impl<'a> CellTopology<'a> {
    /// The model to install in a world of `hosts`.
    fn spec(self, hosts: Vec<String>) -> Result<Cow<'a, NetSpec>, ScenarioError> {
        match self {
            CellTopology::Spec(spec) => Ok(Cow::Borrowed(spec)),
            CellTopology::Preset(name) => {
                NetSpec::preset(name, &hosts)
                    .map(Cow::Owned)
                    .ok_or_else(|| ScenarioError {
                        line: 0,
                        message: format!("preset {name:?} needs at least one host"),
                    })
            }
        }
    }
}

/// Runs one cell — the whole of `ppm-sim` and of a sweep cell, whatever
/// it plays: build, fault plan, network model, execute, render, digest.
/// `seed` overrides a scenario's `seed` statement; a storm without one
/// runs on 1986.
///
/// # Errors
///
/// The parse or execution error, with whatever output preceded it.
pub fn run_cell(
    kind: &VariantKind,
    seed: Option<u64>,
    faults: Option<&FaultPlan>,
    topology: Option<CellTopology<'_>>,
    spans: bool,
) -> Result<CellRun, (String, ScenarioError)> {
    let mut output = String::new();
    let net = |hosts: Vec<String>| topology.map(|t| t.spec(hosts)).transpose();
    let flat = ExecOptions {
        spans,
        faults,
        topology: None,
    };
    let mut scenario = |text: &str| {
        let mut sc = crate::scenario::parse(text)?;
        sc.seed = seed.unwrap_or(sc.seed);
        let topology = net(sc.hosts.iter().map(|(n, _)| n.clone()).collect())?;
        let opts = ExecOptions {
            topology: topology.as_deref(),
            ..flat
        };
        crate::scenario::execute_with(&sc, &mut output, opts)
    };
    let run = match kind {
        VariantKind::Scenario { text } => scenario(text),
        VariantKind::Chain { hosts } => scenario(&crate::scenario::chain_scenario(*hosts)),
        &VariantKind::Storm {
            users,
            hosts,
            procs,
        } => net(host_names(hosts)).and_then(|topology| {
            let opts = ExecOptions {
                topology: topology.as_deref(),
                ..flat
            };
            let seed = seed.unwrap_or(1986);
            crate::scenario::execute_storm(users, hosts, seed, procs, &mut output, opts)
        }),
    };
    match run {
        Ok(h) => Ok(finished(h, output, spans)),
        Err(e) => Err((output, e)),
    }
}

/// Runs one scenario cell on another runtime (`ppm-sim --runtime
/// real|mc`), its trace recorded. What only the sim can play — a seed,
/// the chain, the storm, a fault plan, a network model, a sim-only
/// statement — is refused before a host boots.
///
/// # Errors
///
/// The refusal or the parse error; or the failed action's error with
/// the run so far — output, trace, metrics — which says how far it got.
pub fn run_cell_on<R: Runtime>(
    mut rt: R,
    kind: &VariantKind,
    seed: Option<u64>,
    faults: Option<&FaultPlan>,
    topology: Option<CellTopology<'_>>,
    spans: bool,
) -> Result<CellRun, (Option<Box<CellRun>>, ScenarioError)> {
    let refuse = |what: &str| {
        let message = format!("{what} needs the sim runtime");
        Err((None, ScenarioError { line: 0, message }))
    };
    let text = match kind {
        VariantKind::Scenario { text } => text,
        VariantKind::Chain { .. } => return refuse("the --hosts chain"),
        VariantKind::Storm { .. } => return refuse("the --users storm"),
    };
    if seed.is_some() {
        return refuse("a seed (--seed)");
    }
    if faults.is_some() {
        return refuse("a fault plan (--faults)");
    }
    if topology.is_some() {
        return refuse("a network model (--topology)");
    }
    let sc = crate::scenario::parse(text).map_err(|e| (None, e))?;
    rt.hub().trace.set_enabled(true);
    rt.hub().spans.set_enabled(spans);
    let mut output = String::new();
    let played = crate::scenario::execute_on(&sc, rt, &mut output).map_err(|e| (None, e))?;
    let run = finished(played.ppm, output, spans);
    match played.observed {
        Ok(_) => Ok(run),
        Err(e) => Err((Some(Box::new(run)), e)),
    }
}

/// What a finished run leaves behind, on any runtime.
fn finished<R: Runtime>(mut h: PpmHarness<R>, output: String, spans: bool) -> CellRun {
    let trace = h.trace_render(None);
    let metrics = h.metrics_report();
    CellRun {
        digest: fnv1a(&[&output, &trace, &metrics]),
        sim_end_us: h.now().as_micros(),
        spans: spans.then(|| (h.spans_jsonl(), h.spans_chrome())),
        output,
        trace,
        metrics,
    }
}

/// Executes one spec in the calling thread: builds a private world, runs
/// it to completion, reduces it to a [`RunResult`]. This is the only
/// function a worker runs; nothing in it is shared.
#[must_use]
pub fn run_spec(spec: &RunSpec) -> RunResult {
    // Plans and file-based topologies were validated at grid load.
    let plan = spec.plan.text.as_deref();
    let plan = plan.map(|t| FaultPlan::parse(t).expect("plan validated at grid load"));
    let file = spec.topo.text.as_deref();
    let file = file.map(|t| NetSpec::parse(t).expect("topology validated at grid load"));
    let preset = spec.topo.arg.as_deref().map(CellTopology::Preset);
    let topology = file.as_ref().map(CellTopology::Spec).or(preset);
    let run = run_cell(
        &spec.variant.kind,
        Some(spec.seed),
        plan.as_ref(),
        topology,
        false,
    );
    let mut failures = Vec::new();
    let run = run.unwrap_or_else(|(output, e)| {
        failures.push(format!("execution error: {e}"));
        CellRun {
            digest: fnv1a(&[&output]),
            output,
            ..CellRun::default()
        }
    });
    for want in &spec.expects {
        if !run.output.contains(want) {
            failures.push(format!("output missing {want:?}"));
        }
    }
    for want in &spec.expects_metric {
        if !run.metrics.contains(want) {
            failures.push(format!("metrics missing {want:?}"));
        }
    }
    RunResult {
        id: spec.id.clone(),
        digest: run.digest,
        sim_end_us: run.sim_end_us,
        mttr: pool_mttr(&run.metrics),
        failures,
        repro: spec.repro(),
    }
}

/// Fans `specs` out over `workers` threads. Work-stealing is a shared
/// atomic cursor — an idle worker takes the next unclaimed spec, so a
/// slow cell never stalls the rest of the grid behind a static
/// partition. Results land in spec-indexed slots: the returned vector
/// is in grid order no matter which worker finished when.
#[must_use]
pub fn run_specs(specs: &[RunSpec], workers: usize) -> Vec<RunResult> {
    let workers = workers.max(1).min(specs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let result = run_spec(spec);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled slot")
        })
        .collect()
}

/// Nearest-rank percentile of a sorted slice (p in 0..=100).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Renders the deterministic sweep report. Every section is keyed and
/// sorted by spec id (cells by their `variant|plan` prefix); per-run
/// digests fold into one grid digest so two reports are equal iff every
/// cell agreed. No wall-clock data here — see [`render_timing`].
#[must_use]
pub fn render_report(grid: &Grid, results: &[RunResult]) -> String {
    let mut results: Vec<&RunResult> = results.iter().collect();
    results.sort_by(|a, b| a.id.cmp(&b.id));
    let mut out = String::new();
    out.push_str(&format!("sweep {}\n", grid.name));
    out.push_str(&format!(
        "grid variants={} plans={} seeds={} runs={}\n",
        grid.variants.len(),
        grid.plans.len(),
        grid.seeds.len(),
        results.len()
    ));
    // Cells: group by the `variant|plan` prefix of the id.
    let mut cells: Vec<(&str, Vec<&RunResult>)> = Vec::new();
    for r in &results {
        let key = r.id.rsplit_once('|').map_or(r.id.as_str(), |(k, _)| k);
        match cells.last_mut() {
            Some((k, rs)) if *k == key => rs.push(r),
            _ => cells.push((key, vec![r])),
        }
    }
    for (key, rs) in &cells {
        let ok = rs.iter().filter(|r| r.failures.is_empty()).count();
        let mut ends: Vec<u64> = rs.iter().map(|r| r.sim_end_us).collect();
        ends.sort_unstable();
        let (mttr_count, mttr_sum) = rs
            .iter()
            .filter_map(|r| r.mttr)
            .fold((0u64, 0u64), |(c, s), (rc, rs)| (c + rc, s + rs));
        out.push_str(&format!(
            "cell {key} runs={} ok={ok} fail={} sim_end_us median={} p99={}",
            rs.len(),
            rs.len() - ok,
            percentile(&ends, 50),
            percentile(&ends, 99),
        ));
        if let Some(mean) = mttr_sum.checked_div(mttr_count) {
            out.push_str(&format!(" mttr_us mean={mean} samples={mttr_count}"));
        }
        out.push('\n');
    }
    let mut grid_digest = fnv1a(&[]);
    for r in &results {
        out.push_str(&format!(
            "run {} digest {} sim_end_us {}",
            r.id,
            hex(r.digest),
            r.sim_end_us
        ));
        if let Some((c, s)) = r.mttr {
            out.push_str(&format!(" mttr_us mean={} samples={c}", s / c));
        }
        out.push_str(if r.failures.is_empty() {
            " ok\n"
        } else {
            " FAIL\n"
        });
        grid_digest = fnv1a_fold(grid_digest, r.id.as_bytes());
        grid_digest = fnv1a_fold(grid_digest, &r.digest.to_le_bytes());
    }
    for r in &results {
        for f in &r.failures {
            out.push_str(&format!("fail {} {f}\n", r.id));
        }
        if !r.failures.is_empty() {
            out.push_str(&format!("repro {} {}\n", r.id, r.repro));
        }
    }
    let ok = results.iter().filter(|r| r.failures.is_empty()).count();
    out.push_str(&format!(
        "summary runs={} ok={ok} fail={} digest {}\n",
        results.len(),
        results.len() - ok,
        hex(grid_digest)
    ));
    out
}

/// Observational wall-clock summary — runs/sec and the worker count.
/// Callers print this to stderr so determinism diffs never see it.
#[must_use]
pub fn render_timing(runs: usize, workers: usize, elapsed: std::time::Duration) -> String {
    let rate = runs as f64 / elapsed.as_secs_f64().max(1e-9);
    format!("ppm-sweep: {runs} runs on {workers} workers in {elapsed:.2?} ({rate:.1} runs/sec)")
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_SCENARIO: &str = "\
seed 7
host a vax780
host b sun2
link a b
user 9 secret=0xAB recovery=a
at 0s spawn a 9 b job
run 200ms
";

    fn mini_grid() -> Grid {
        Grid {
            name: "mini".into(),
            seeds: vec![3, 4],
            variants: vec![
                Variant {
                    label: "scenario:mini.ppm".into(),
                    repro_path: Some("scenarios/mini.ppm".into()),
                    kind: VariantKind::Scenario {
                        text: MINI_SCENARIO.into(),
                    },
                },
                Variant {
                    label: "storm:2x2".into(),
                    repro_path: None,
                    kind: VariantKind::Storm {
                        users: 2,
                        hosts: 2,
                        procs: 80,
                    },
                },
            ],
            plans: vec![Plan::none()],
            topos: vec![],
            expects: vec![],
            expects_metric: vec![],
        }
    }

    #[test]
    fn grammar_round_trip() {
        let text = "\
# a comment
sweep demo
seeds 1..3
seeds 9
chain 4
storm 2x2 procs=100
storm 4096x16                 # the largest world there may be
faults none
expect complete
expect-metric lpm.
";
        let g = Grid::parse(text, Path::new(".")).expect("parses");
        assert_eq!(g.name, "demo");
        assert_eq!(g.seeds, vec![1, 2, 3, 9]);
        assert_eq!(g.variants.len(), 3);
        assert_eq!(g.variants[0].label, "chain:4");
        assert_eq!(g.variants[1].label, "storm:2x2");
        assert_eq!(g.variants[2].label, "storm:4096x16");
        assert_eq!(g.plans.len(), 1);
        assert_eq!(g.expects, vec!["complete"]);
        assert_eq!(g.expects_metric, vec!["lpm."]);
    }

    #[test]
    fn grammar_rejects_bad_lines() {
        for bad in [
            "seeds 1..2\nchain 4",          // no header
            "sweep x\nchain 1",             // chain too small
            "sweep x\nstorm 2",             // bad storm shape
            "sweep x\nstorm 2x2 blobs=4",   // unknown storm option
            "sweep x\nstorm 100000x65535",  // more managers than a world may boot
            "sweep x\nstorm 2x300",         // more hosts than a LAN may have
            "sweep x\nseeds 9..1\nchain 2", // empty seed range
            "sweep x\nwat 3",               // unknown directive
            "sweep x",                      // no variants
        ] {
            assert!(Grid::parse(bad, Path::new(".")).is_err(), "{bad:?}");
        }
        let e = Grid::parse("sweep x\n\nstorm 100000x65535", Path::new(".")).unwrap_err();
        assert!(
            e.starts_with("line 3: a 100000x65535 storm is too large"),
            "{e}"
        );
    }

    #[test]
    fn expansion_order_is_grid_order() {
        let mut g = mini_grid();
        g.plans = vec![
            Plan::none(),
            Plan {
                label: "fault:x.fault".into(),
                repro_path: Some("x.fault".into()),
                text: Some("seed 1\n".into()),
            },
        ];
        let specs = g.expand();
        let ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "scenario:mini.ppm|fault:none|seed=3",
                "scenario:mini.ppm|fault:none|seed=4",
                "scenario:mini.ppm|fault:x.fault|seed=3",
                "scenario:mini.ppm|fault:x.fault|seed=4",
                "storm:2x2|fault:none|seed=3",
                "storm:2x2|fault:none|seed=4",
                "storm:2x2|fault:x.fault|seed=3",
                "storm:2x2|fault:x.fault|seed=4",
            ]
        );
        let repro = specs[7].repro();
        assert!(
            repro.ends_with("--seed 4 --faults x.fault --users 2 --hosts 2 --procs 80"),
            "{repro}"
        );
    }

    #[test]
    fn topology_axis_expands_and_reproduces() {
        let text = "\
sweep net
seeds 5
scenario mini.ppm
storm 2x2
topology none
topology fat-tree
";
        // `scenario` reads from disk at parse time, so feed the grid a
        // real file in a scratch dir.
        let dir = std::env::temp_dir().join("ppm_sweep_topo_axis_test");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("mini.ppm"), MINI_SCENARIO).expect("write scenario");
        let g = Grid::parse(text, &dir).expect("parses");
        assert_eq!(g.topos.len(), 2);
        let specs = g.expand();
        let ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "scenario:mini.ppm|fault:none|net:flat|seed=5",
                "scenario:mini.ppm|fault:none|net:fat-tree|seed=5",
                "storm:2x2|fault:none|net:flat|seed=5",
                "storm:2x2|fault:none|net:fat-tree|seed=5",
            ]
        );
        assert!(
            specs[1].repro().contains(" --topology fat-tree "),
            "{}",
            specs[1].repro()
        );
        assert!(!specs[0].repro().contains("--topology"));
        // The routed cell runs and digests differently from the flat one.
        let results = run_specs(&specs, 2);
        assert!(results.iter().all(|r| r.failures.is_empty()), "{results:?}");
        assert_ne!(results[0].digest, results[1].digest);
        assert_ne!(results[2].digest, results[3].digest);
    }

    #[test]
    fn undeclared_topology_axis_keeps_legacy_ids() {
        let g = mini_grid();
        let specs = g.expand();
        assert!(specs.iter().all(|s| !s.id.contains("net:")), "ids changed");
        assert!(specs.iter().all(|s| s.topo.arg.is_none()));
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let g = mini_grid();
        let specs = g.expand();
        let r1 = render_report(&g, &run_specs(&specs, 1));
        let r4 = render_report(&g, &run_specs(&specs, 4));
        assert_eq!(r1, r4);
        assert!(r1.contains("summary runs=4 ok=4 fail=0"));
    }

    #[test]
    fn cell_digest_matches_standalone_run() {
        let g = mini_grid();
        let specs = g.expand();
        let pooled = run_specs(&specs, 3);
        for (spec, got) in specs.iter().zip(&pooled) {
            let solo = run_spec(spec);
            assert_eq!(solo.digest, got.digest, "{}", spec.id);
        }
    }

    #[test]
    fn failed_expectations_carry_repro() {
        let mut g = mini_grid();
        g.expects.push("no such output line".into());
        let specs = g.expand();
        let report = render_report(&g, &run_specs(&specs, 2));
        assert!(report.contains("fail scenario:mini.ppm|fault:none|seed=3"));
        assert!(report.contains(
            "repro storm:2x2|fault:none|seed=4 cargo run --release --bin ppm-sim -- \
                       --digest --seed 4 --users 2 --hosts 2 --procs 80"
        ));
    }

    #[test]
    fn seed_changes_the_digest() {
        let g = mini_grid();
        let specs = g.expand();
        let results = run_specs(&specs, 2);
        assert_ne!(results[0].digest, results[1].digest, "scenario seeds");
        assert_ne!(results[2].digest, results[3].digest, "storm seeds");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[10], 50), 10);
        assert_eq!(percentile(&[10, 20], 50), 10);
        assert_eq!(percentile(&[10, 20], 99), 20);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50), 3);
    }
}
