//! The parallel experiment harness: deterministic sweep grids, and the
//! one runner behind every cell.
//!
//! A `.sweep` grid file declares a cross product of run dimensions —
//! seeds × variants (scenario files, generated chains, tenant storms) ×
//! fault plans — plus pass/fail predicates. [`Grid::parse`] expands the
//! product into independent [`RunSpec`]s; [`run_specs`] fans them out
//! over a pool of worker threads, each of which builds its *own*
//! simulated world (one engine per run — the engine itself stays
//! single-threaded and deterministic, parallelism lives strictly
//! *between* runs); [`render_report`] folds the results into a
//! report whose text is **byte-identical regardless of
//! worker count or completion order**, because results land in
//! spec-indexed slots and every section is sorted by spec id — arrival
//! order never reaches the output. Wall-clock numbers are observational
//! and live in [`render_timing`], which callers send to stderr.
//!
//! A `ppm-sim` command line is a one-cell grid: [`SimArgs::parse`] loads
//! it into a [`RunSpec`] with a grid's loaders, and [`run_cell`] runs
//! either on any runtime.
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
//!
//! A grid names each cell once: a seed, variant, fault plan or topology
//! listed twice (`seeds 1,1`) would repeat ids, and is refused.
//!
//! A grid is read by [`grammar::each_line`], as every text file is: `#`
//! comments, the text after a directive as its argument (a path, a name,
//! a substring), seeds and counts in decimal or `0x` hex, and a refusal
//! that names its line. [`SimArgs::parse`] reads `ppm-sim`'s flags with
//! the same module's [`grammar::flag_value`], [`grammar::flag_number`] and
//! [`grammar::operand`].

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ppm_mc::McWorld;
use ppm_realos::RealRuntime;

use crate::digest::{fnv1a, fnv1a_fold, hex};
use crate::harness::harness::{PpmHarness, Runtime};
use crate::harness::tenant::{host_names, storm_fits};
use crate::scenario::{self, ExecOptions, Played, Scenario};
use crate::simnet::fault::FaultPlan;
use crate::simnet::grammar::{self, flag_number, flag_value, LineError, Tokens};
use crate::simnet::topology::NetSpec;

/// The runtime a cell plays on (`ppm-sim --runtime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated world: seeded, faultable, with network models.
    Sim,
    /// Node threads on loopback TCP, on the wall clock.
    Real,
    /// The model checker's world under its default schedule.
    Mc,
}

/// Each runtime by its `--runtime` name.
const BACKENDS: [(&str, Backend); 3] = [
    ("sim", Backend::Sim),
    ("real", Backend::Real),
    ("mc", Backend::Mc),
];

/// One axis-point of the variant dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum VariantKind {
    /// A scenario file, read and parsed at load, so workers never touch
    /// the filesystem and a broken file fails before any cell runs.
    Scenario { scenario: Arc<Scenario> },
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
    /// The `ppm-sim` arguments that play it: the scenario's resolved
    /// path, `--hosts N`, or `--users U --hosts H --procs P`.
    pub args: String,
    pub kind: VariantKind,
}

/// A fault-plan axis point, parsed once at load; `plan == None` is the
/// no-faults plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub label: String,
    /// The `--faults` path that replays it.
    pub repro_path: Option<String>,
    pub plan: Option<Arc<FaultPlan>>,
}

/// A topology axis point; `arg == None` is the flat wire (no net model).
/// A preset is instantiated over each cell's own host list when it runs;
/// a spec file is read and parsed once, at load.
#[derive(Debug, Clone)]
pub struct Topo {
    pub label: String,
    /// The `--topology` argument that replays it: the preset's name or
    /// the spec file's resolved path.
    pub arg: Option<String>,
    /// The parsed spec file (file-based topologies only).
    pub spec: Option<Arc<NetSpec>>,
}

/// Reads a file a cell names — once, when the cell is loaded.
fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

impl Variant {
    /// `scenario FILE` / `ppm-sim FILE`: the file at `base.join(arg)`,
    /// parsed; a grammar error names the file and its line.
    pub fn scenario(arg: &str, base: &Path) -> Result<Variant, String> {
        let path = base.join(arg);
        let args = path.display().to_string();
        let scenario = scenario::parse(&read(&path)?).map_err(|e| format!("{args}: {e}"))?;
        Ok(Variant {
            label: format!("scenario:{arg}"),
            args,
            kind: VariantKind::Scenario {
                scenario: Arc::new(scenario),
            },
        })
    }

    /// `chain N` / `ppm-sim --hosts N`: the generated chain of `hosts`.
    #[must_use]
    pub fn chain(hosts: usize) -> Variant {
        Variant {
            label: format!("chain:{hosts}"),
            args: format!("--hosts {hosts}"),
            kind: VariantKind::Chain { hosts },
        }
    }

    /// `storm UxH [procs=P]` / `ppm-sim --users U --hosts H [--procs P]`:
    /// `procs` forks (default `U × 2000`), if the world is not too large.
    pub fn storm(users: u32, hosts: u16, procs: Option<u64>) -> Result<Variant, String> {
        storm_fits(users, hosts)?;
        let procs = procs.unwrap_or_else(|| u64::from(users).saturating_mul(2_000));
        Ok(Variant {
            label: format!("storm:{users}x{hosts}"),
            args: format!("--users {users} --hosts {hosts} --procs {procs}"),
            kind: VariantKind::Storm {
                users,
                hosts,
                procs,
            },
        })
    }
}

impl Plan {
    /// No fault plan.
    #[must_use]
    pub fn none() -> Self {
        Plan {
            label: "fault:none".into(),
            repro_path: None,
            plan: None,
        }
    }

    /// `faults FILE|none` / `ppm-sim --faults FILE`: the plan at
    /// `base.join(arg)`, read and parsed once.
    pub fn load(arg: &str, base: &Path) -> Result<Plan, String> {
        if arg == "none" {
            return Ok(Plan::none());
        }
        let path = base.join(arg);
        let plan = FaultPlan::parse(&read(&path)?).map_err(|e| format!("{arg}: {e}"))?;
        Ok(Plan {
            label: format!("fault:{arg}"),
            repro_path: Some(path.display().to_string()),
            plan: Some(Arc::new(plan)),
        })
    }
}

impl Topo {
    /// The flat wire.
    #[must_use]
    pub fn flat() -> Self {
        Topo {
            label: "net:flat".into(),
            arg: None,
            spec: None,
        }
    }

    /// `topology PRESET|FILE|none` / `ppm-sim --topology PRESET|FILE`: a
    /// preset by name, or the spec file at `base.join(arg)`, read and
    /// parsed once.
    pub fn load(arg: &str, base: &Path) -> Result<Topo, String> {
        if arg == "none" {
            return Ok(Topo::flat());
        }
        let label = format!("net:{arg}");
        if NetSpec::PRESETS.contains(&arg) {
            let (arg, spec) = (Some(arg.to_string()), None);
            return Ok(Topo { label, arg, spec });
        }
        let path = base.join(arg);
        let spec = NetSpec::parse(&read(&path)?).map_err(|e| format!("{arg}: {e}"))?;
        let (arg, spec) = (Some(path.display().to_string()), Some(Arc::new(spec)));
        Ok(Topo { label, arg, spec })
    }

    /// The model to install in a world of `hosts`, if any.
    fn model(&self, hosts: Vec<String>) -> Result<Option<Cow<'_, NetSpec>>, LineError> {
        let preset = |name| NetSpec::preset(name, &hosts).map(Cow::Owned);
        match (&self.spec, &self.arg) {
            (Some(spec), _) => Ok(Some(Cow::Borrowed(spec))),
            (None, Some(name)) => preset(name)
                .map(Some)
                .ok_or_else(|| LineError::from(format!("preset {name:?} needs at least one host"))),
            (None, None) => Ok(None),
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

/// One fully-specified independent run: a cell of the expanded grid, or
/// the one cell a `ppm-sim` command line names.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// `variant|plan|seed=N` — the sort key for every report section; a
    /// command line's one cell is named by its variant's arguments.
    pub id: String,
    pub variant: Variant,
    pub plan: Plan,
    pub topo: Topo,
    /// Overrides a scenario's `seed` statement; a storm without one runs
    /// on 1986.
    pub seed: Option<u64>,
    /// What the cell plays on; a grid's cells play on the sim.
    pub runtime: Backend,
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
    /// Pooled (`count`, `sum`) of every `lpm.mttr_us` and of every
    /// `kernel.delivery_us` histogram in the metrics text, where they have
    /// samples: when any LPM recovered, and under a `load` statement.
    pub pooled: [Option<(u64, u64)>; 2],
    /// The scenario's `time=` samples ([`CellRun::times`]).
    pub times: Vec<(String, u64)>,
    /// Unmet predicates and execution errors; empty means the run passed.
    pub failures: Vec<String>,
    /// The exact `cargo run … ppm-sim` command line reproducing this cell.
    pub repro: String,
}

/// Appends `item` to an axis unless a point of the same label — so the
/// same cell ids — is on it already.
fn once<T>(axis: &mut Vec<T>, item: T, label: fn(&T) -> &str) -> Result<(), String> {
    if axis.iter().any(|x| label(x) == label(&item)) {
        return Err(format!("{} is listed twice", label(&item)));
    }
    axis.push(item);
    Ok(())
}

impl Grid {
    /// Parses a grid file, read by [`grammar::each_line`]. `base` is the
    /// directory paths are resolved against (the grid file's parent).
    /// Scenario and fault files are read and parsed here, so workers
    /// never touch the filesystem and grammar errors fail fast, not
    /// per-cell: a broken scenario refuses the grid's line that names
    /// it, with the scenario's path and its own line.
    pub fn parse(text: &str, base: &Path) -> Result<Grid, LineError> {
        let mut name = None;
        let mut seeds = Vec::new();
        let mut variants = Vec::new();
        let mut plans = Vec::new();
        let mut topos = Vec::new();
        let mut expects = Vec::new();
        let mut expects_metric = Vec::new();
        let variant: fn(&Variant) -> &str = |v| &v.label;
        grammar::each_line(text, |line| {
            let (t, rest) = (line.at(0), line.rest(1));
            let arg = |what| t.need(1, what).map(|_| rest.to_string());
            match t.verb() {
                "sweep" => name = Some(arg("a name")?),
                "seeds" => {
                    for seed in parse_seeds(rest)? {
                        if seeds.contains(&seed) {
                            return Err(format!("seed {seed} is listed twice"));
                        }
                        seeds.push(seed);
                    }
                }
                "scenario" => once(&mut variants, Variant::scenario(rest, base)?, variant)?,
                "chain" => {
                    let hosts = grammar::count_at_least(rest, 2);
                    let hosts = hosts.ok_or("chain needs a host count of at least 2")?;
                    once(&mut variants, Variant::chain(hosts), variant)?;
                }
                "storm" => once(&mut variants, parse_storm(t)?, variant)?,
                "faults" => once(&mut plans, Plan::load(rest, base)?, |p| &p.label)?,
                "topology" => once(&mut topos, Topo::load(rest, base)?, |t| &t.label)?,
                "expect" => expects.push(arg("a substring")?),
                "expect-metric" => expects_metric.push(arg("a substring")?),
                other => return Err(format!("unknown directive {other:?}")),
            }
            Ok(())
        })?;
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
    pub fn load(path: &Path) -> Result<Grid, LineError> {
        Grid::parse(&read(path)?, path.parent().unwrap_or(Path::new(".")))
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
                            seed: Some(seed),
                            runtime: Backend::Sim,
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

/// A grid's `storm UxH [procs=P]`.
fn parse_storm(t: Tokens) -> Result<Variant, String> {
    let shape = t.get(1).unwrap_or("");
    let (u, h) = shape.split_once('x').unwrap_or_default();
    let (users, hosts) = (grammar::count_at_least(u, 1), grammar::count_at_least(h, 2));
    let (Some(users), Some(hosts)) = (users, hosts) else {
        return Err(format!("bad storm shape {shape:?} (want UxH)"));
    };
    let mut procs = None;
    for &opt in t.0.get(2..).unwrap_or_default() {
        let v = match grammar::option(opt) {
            ("procs", Some(v)) => grammar::count_at_least(v, 1),
            _ => None,
        };
        procs = Some(v.ok_or_else(|| format!("bad storm option {opt:?}"))?);
    }
    Variant::storm(users, hosts, procs)
}

fn parse_seeds(rest: &str) -> Result<Vec<u64>, String> {
    if rest.is_empty() {
        return Err("seeds needs a range a..b or a comma list".into());
    }
    if let Some((a, b)) = rest.split_once("..") {
        let (a, b) = (grammar::count(a.trim())?, grammar::count(b.trim())?);
        if b < a {
            return Err(format!("empty seed range {a}..{b}"));
        }
        if b - a >= 4_096 {
            return Err(format!("seed range {a}..{b} too large (max 4096)"));
        }
        return Ok((a..=b).collect());
    }
    rest.split(',').map(|s| grammar::count(s.trim())).collect()
}

impl RunSpec {
    /// The `ppm-sim` command line that replays exactly this cell,
    /// digest and all.
    #[must_use]
    pub fn repro(&self) -> String {
        let mut cmd = String::from("cargo run --release --bin ppm-sim -- --digest");
        // The sim is the default, so it goes unsaid.
        if let Some((name, _)) = BACKENDS[1..].iter().find(|(_, b)| *b == self.runtime) {
            cmd.push_str(&format!(" --runtime {name}"));
        }
        if let Some(seed) = self.seed {
            cmd.push_str(&format!(" --seed {seed}"));
        }
        if let Some(p) = &self.plan.repro_path {
            cmd.push_str(&format!(" --faults {p}"));
        }
        if let Some(t) = &self.topo.arg {
            cmd.push_str(&format!(" --topology {t}"));
        }
        format!("{cmd} {}", self.variant.args)
    }
}

/// A `ppm-sim` command line: the one cell it names, loaded as a grid's
/// cells are, and what to print or write of its run.
#[derive(Debug, Clone)]
pub struct SimArgs {
    pub cell: RunSpec,
    /// `--trace`: print the trace after the output.
    pub trace: bool,
    /// `--digest`: print the run's digest line.
    pub digest: bool,
    /// `--metrics PATH`: write every metrics registry there.
    pub metrics: Option<String>,
    /// `--spans PATH`: record spans, write them there as JSONL and at
    /// `PATH.chrome.json` for Chrome.
    pub spans: Option<String>,
}

impl SimArgs {
    /// Parses `ppm-sim`'s arguments (program name excluded); paths are
    /// read relative to the working directory. Refuses an unknown flag, a
    /// second scenario path and `--procs` without `--users`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<SimArgs, LineError> {
        let here = Path::new("");
        let mut args = args.into_iter();
        let (mut trace, mut digest, mut metrics, mut spans) = (false, false, None, None);
        let (mut hosts, mut users): (Option<usize>, Option<u32>) = (None, None);
        let (mut procs, mut seed, mut path) = (None, None, None);
        let mut runtime = Backend::Sim;
        let (mut plan, mut topo) = (Plan::none(), Topo::flat());
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            match flag {
                "--trace" => trace = true,
                "--digest" => digest = true,
                "--runtime" => {
                    let name = args.next().unwrap_or_default();
                    let found = BACKENDS.iter().find(|(n, _)| *n == name);
                    runtime = found.ok_or("--runtime needs sim, real or mc")?.1;
                }
                "--faults" => plan = Plan::load(&flag_value(flag, args.next(), "a plan")?, here)?,
                "--topology" => {
                    topo = Topo::load(&flag_value(flag, args.next(), "a model")?, here)?
                }
                "--hosts" => hosts = Some(flag_number(flag, args.next(), 2)?),
                "--users" => users = Some(flag_number(flag, args.next(), 1)?),
                "--procs" => procs = Some(flag_number(flag, args.next(), 1)?),
                "--seed" => seed = Some(flag_number(flag, args.next(), 0)?),
                "--metrics" => metrics = Some(flag_value(flag, args.next(), "an output path")?),
                "--spans" => spans = Some(flag_value(flag, args.next(), "an output path")?),
                _ => grammar::operand(arg, &mut path, "scenario path")?,
            }
        }
        if procs.is_some() && users.is_none() {
            return Err("--procs needs --users".into());
        }
        let variant = match (users, hosts, path) {
            (Some(users), Some(n), None) => {
                let hosts =
                    u16::try_from(n).map_err(|_| "--users needs --hosts of at most 65535")?;
                Variant::storm(users, hosts, procs)?
            }
            (None, Some(hosts), None) => Variant::chain(hosts),
            (None, None, Some(path)) => Variant::scenario(&path, here)?,
            _ => return Err("name a scenario file, --hosts N or --users U --hosts N".into()),
        };
        let cell = RunSpec {
            id: variant.args.clone(),
            variant,
            plan,
            topo,
            seed,
            runtime,
            expects: Vec::new(),
            expects_metric: Vec::new(),
        };
        Ok(SimArgs {
            cell,
            trace,
            digest,
            metrics,
            spans,
        })
    }
}

/// The histograms a report line pools over every registry of a run, each
/// with the name the line gives it.
const POOLED: [(&str, &str); 2] = [
    (" lpm.mttr_us ", "mttr_us"),
    (" kernel.delivery_us ", "delivery_us"),
];

/// Pools every `name` histogram line of a metrics text into one
/// (count, sum) pair. Render shape (see `ppm_core::obs`):
/// `label name count=N sum=S buckets=[...]`.
fn pool(metrics: &str, name: &str) -> Option<(u64, u64)> {
    let mut count = 0u64;
    let mut sum = 0u64;
    for line in metrics.lines() {
        if !line.contains(name) {
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
    /// The rendered trace: empty unless it was asked for.
    pub trace: String,
    /// Every metrics registry as stable text.
    pub metrics: String,
    /// JSONL and Chrome renderings of the span log, when asked for.
    pub spans: Option<(String, String)>,
    /// FNV-1a fold of `output`, `trace` and `metrics`, when the trace
    /// was recorded: never a fold of a trace nobody kept.
    pub digest: Option<u64>,
    /// A scenario's observable digest (`scenario::Played::observed`):
    /// equal on every runtime that plays it to its end.
    pub observed: Option<u64>,
    /// The backend-clock instant the run ended, µs.
    pub sim_end_us: u64,
    /// Each `time=` labelled action's label and tool-measured elapsed
    /// time, µs, in play order (`scenario::Played::times`).
    pub times: Vec<(String, u64)>,
}

/// A cell that did not run to its end: the run so far, when one
/// started, and why.
pub type CellFailure = (Option<Box<CellRun>>, LineError);

/// Runs one cell on its runtime — the whole of `ppm-sim` and of a sweep
/// worker, whatever it plays: refuse what the runtime cannot play, build,
/// fault plan, network model, execute, render, digest. Off the sim, the
/// first of the chain, the storm, a seed, a fault plan, a network model,
/// a sim-only statement and a partial mesh is refused here, and only
/// here, with no run. A failed action's error comes with the run so far
/// — output, trace, metrics — which says how far it got. The trace is
/// recorded, and the digest folded, only if the caller reads them
/// (`trace`); spans only if `spans`.
pub fn run_cell(spec: &RunSpec, spans: bool, trace: bool) -> Result<CellRun, CellFailure> {
    let off_sim = spec.runtime != Backend::Sim;
    use VariantKind::{Chain, Storm};
    let kind = &spec.variant.kind;
    let flags = [
        (matches!(kind, Chain { .. }), "the --hosts chain"),
        (matches!(kind, Storm { .. }), "the --users storm"),
        (spec.seed.is_some(), "a seed (--seed)"),
        (spec.plan.plan.is_some(), "a fault plan (--faults)"),
        (spec.topo.arg.is_some(), "a network model (--topology)"),
    ];
    if let Some((_, what)) = flags.into_iter().find(|&(set, _)| set && off_sim) {
        return Err(refused(0, what));
    }
    let faults = spec.plan.plan.as_deref();
    let opts = |topology| ExecOptions {
        spans,
        faults,
        topology,
    };
    let mut output = String::new();
    let mut sc = match *kind {
        VariantKind::Scenario { ref scenario } => Scenario::clone(scenario),
        Chain { hosts } => {
            scenario::parse(&scenario::chain_scenario(hosts)).map_err(|e| (None, e))?
        }
        Storm {
            users,
            hosts,
            procs,
        } => {
            let seed = spec.seed.unwrap_or(1986);
            let topology = spec.topo.model(host_names(hosts)).map_err(|e| (None, e))?;
            let opts = opts(topology.as_deref());
            let run = scenario::execute_storm(users, hosts, seed, procs, &mut output, opts, trace);
            let run = run.map_err(|e| (None, e))?;
            return Ok(finished(run, output, spans, trace, None));
        }
    };
    sc.seed = spec.seed.unwrap_or(sc.seed);
    let statement = sc
        .actions
        .iter()
        .find_map(|(line, _, a, _)| Some((*line, a.sim_only()?)));
    let mesh = sc
        .mesh_gap
        .map(|line| (line, "a link set that is not the full mesh"));
    let load = sc.loads.first().map(|&(line, ..)| (line, "load"));
    let first = statement.into_iter().chain(mesh).chain(load).min();
    if let Some((line, what)) = first.filter(|_| off_sim) {
        return Err(refused(line, what));
    }
    match spec.runtime {
        Backend::Sim => {
            let hosts = sc.hosts.iter().map(|(n, _)| n.clone()).collect();
            let topology = spec.topo.model(hosts).map_err(|e| (None, e))?;
            let opts = opts(topology.as_deref());
            let played = scenario::execute_played(&sc, &mut output, opts, trace);
            done(played.map_err(|e| (None, e))?, output, spans, trace)
        }
        Backend::Real => off_the_sim(RealRuntime::new(), &sc, spans, trace, output),
        Backend::Mc => off_the_sim(McWorld::new(), &sc, spans, trace, output),
    }
}

/// What only the sim can play, refused on another runtime.
fn refused(line: usize, what: &str) -> CellFailure {
    (
        None,
        LineError::new(line, format!("{what} needs the sim runtime")),
    )
}

/// Plays `sc` on a runtime other than the sim, recording what the
/// caller reads.
fn off_the_sim<R: Runtime>(
    mut rt: R,
    sc: &Scenario,
    spans: bool,
    trace: bool,
    mut out: String,
) -> Result<CellRun, CellFailure> {
    rt.hub().trace.set_enabled(trace);
    rt.hub().spans.set_enabled(spans);
    let played = scenario::execute_on(sc, rt, &mut out);
    done(played, out, spans, trace)
}

/// A played scenario's run, or the failed action's error with the run
/// so far.
fn done<R: Runtime>(
    played: Played<R>,
    output: String,
    spans: bool,
    trace: bool,
) -> Result<CellRun, CellFailure> {
    let Played {
        ppm,
        observed,
        times,
    } = played;
    match observed {
        Ok(digest) => Ok(CellRun {
            times,
            ..finished(ppm, output, spans, trace, Some(digest))
        }),
        Err(e) => Err((Some(Box::new(finished(ppm, output, spans, trace, None))), e)),
    }
}

/// What a finished run leaves behind, on any runtime; `traced` says
/// whether its trace was recorded, and so whether it has a digest.
fn finished<R: Runtime>(
    mut h: PpmHarness<R>,
    output: String,
    spans: bool,
    traced: bool,
    observed: Option<u64>,
) -> CellRun {
    let trace = h.trace_render(None);
    let metrics = h.metrics_report();
    CellRun {
        digest: traced.then(|| fnv1a(&[&output, &trace, &metrics])),
        observed,
        sim_end_us: h.now().as_micros(),
        spans: spans.then(|| (h.spans_jsonl(), h.spans_chrome())),
        output,
        trace,
        metrics,
        times: Vec::new(),
    }
}

/// Executes one spec in the calling thread: builds a private world, runs
/// it to completion, reduces it to a [`RunResult`]. This is the only
/// function a worker runs; nothing in it is shared.
#[must_use]
pub fn run_spec(spec: &RunSpec) -> RunResult {
    let mut failures = Vec::new();
    // The report folds every run's digest, so every run records.
    let run = run_cell(spec, false, true).unwrap_or_else(|(run, e)| {
        failures.push(format!("execution error: {e}"));
        // A failed cell reports the fold of its output alone.
        let output = run.map(|run| run.output).unwrap_or_default();
        CellRun {
            digest: Some(fnv1a(&[&output])),
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
        digest: run.digest.expect("a recorded run has a digest"),
        sim_end_us: run.sim_end_us,
        pooled: POOLED.map(|(name, _)| pool(&run.metrics, name)),
        times: run.times,
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

/// Appends ` <name> mean=<m> samples=<n>` for each [`POOLED`] histogram
/// with samples among `runs`, pooled over them.
fn push_pooled<'a>(out: &mut String, runs: impl Iterator<Item = &'a [Option<(u64, u64)>; 2]>) {
    let mut pooled = [(0u64, 0u64); 2];
    for run in runs {
        for ((c, s), one) in pooled.iter_mut().zip(run) {
            if let Some((rc, rs)) = one {
                (*c, *s) = (*c + rc, *s + rs);
            }
        }
    }
    for ((_, name), (count, sum)) in POOLED.iter().zip(pooled) {
        if let Some(mean) = sum.checked_div(count) {
            out.push_str(&format!(" {name} mean={mean} samples={count}"));
        }
    }
}

/// Appends ` time:<label> mean_us=<m> n=<k>` for each label among
/// `samples`, in the order the labels first appear.
fn push_times<'a>(out: &mut String, samples: impl Iterator<Item = &'a (String, u64)>) {
    let mut pooled: Vec<(&str, u64, u64)> = Vec::new();
    for (label, us) in samples {
        match pooled.iter_mut().find(|(l, _, _)| l == label) {
            Some((_, n, sum)) => {
                *n += 1;
                *sum += us;
            }
            None => pooled.push((label, 1, *us)),
        }
    }
    for (label, n, sum) in pooled {
        out.push_str(&format!(" time:{label} mean_us={} n={n}", sum / n));
    }
}

/// Renders the deterministic sweep report. Every section is keyed and
/// sorted by spec id (cells by their `variant|plan` prefix); per-run
/// digests fold into one grid digest so two reports are equal iff every
/// cell agreed. A cell's `time=` samples are pooled over its seeds, as
/// its `mttr_us` is. No wall-clock data here — see [`render_timing`].
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
        out.push_str(&format!(
            "cell {key} runs={} ok={ok} fail={} sim_end_us median={} p99={}",
            rs.len(),
            rs.len() - ok,
            percentile(&ends, 50),
            percentile(&ends, 99),
        ));
        push_pooled(&mut out, rs.iter().map(|r| &r.pooled));
        push_times(&mut out, rs.iter().flat_map(|r| &r.times));
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
        push_pooled(&mut out, std::iter::once(&r.pooled));
        push_times(&mut out, r.times.iter());
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
                    args: "scenarios/mini.ppm".into(),
                    kind: VariantKind::Scenario {
                        scenario: Arc::new(scenario::parse(MINI_SCENARIO).expect("mini parses")),
                    },
                },
                Variant::storm(2, 2, Some(80)).expect("a small storm"),
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
        let e = Grid::parse("sweep x\n\nstorm 100000x65535", Path::new("."));
        let e = e.unwrap_err().to_string();
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
                plan: Some(Arc::new(FaultPlan::parse("seed 1\n").expect("a plan"))),
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
    fn a_repeated_cell_id_is_a_line_numbered_error() {
        let dir = std::env::temp_dir().join(format!("ppm_sweep_dup_ids_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("mini.ppm"), MINI_SCENARIO).expect("write scenario");
        std::fs::write(dir.join("p.fault"), "seed 1\n").expect("write plan");
        for (grid, line, twice) in [
            ("sweep x\nseeds 1,1\nchain 2", 2, "seed 1 is listed twice"),
            (
                "sweep x\nseeds 1..3\nseeds 3\nchain 2",
                3,
                "seed 3 is listed twice",
            ),
            (
                "sweep x\nscenario mini.ppm\nscenario mini.ppm",
                3,
                "scenario:mini.ppm",
            ),
            ("sweep x\nchain 2\nchain 2", 3, "chain:2 is listed twice"),
            (
                "sweep x\nstorm 2x2\nstorm 2x2 procs=9",
                3,
                "storm:2x2 is listed twice",
            ),
            (
                "sweep x\nchain 2\nfaults p.fault\nfaults p.fault",
                4,
                "fault:p.fault",
            ),
            (
                "sweep x\nchain 2\nfaults none\nfaults none",
                4,
                "fault:none",
            ),
            (
                "sweep x\nchain 2\ntopology none\ntopology none",
                4,
                "net:flat",
            ),
            (
                "sweep x\nchain 2\ntopology fat-tree\ntopology fat-tree",
                4,
                "net:fat-tree",
            ),
        ] {
            let e = Grid::parse(grid, &dir).expect_err(grid).to_string();
            assert!(e.starts_with(&format!("line {line}: ")), "{grid}: {e}");
            assert!(e.contains(twice) && e.contains("twice"), "{grid}: {e}");
        }
        // Distinct points on every axis are still one cell each.
        let g = Grid::parse(
            "sweep x\nseeds 1,2\nchain 2\nchain 3\nfaults none\nfaults p.fault",
            &dir,
        );
        assert_eq!(g.expect("distinct points").expand().len(), 8);
    }

    fn sim_args(args: &[&str]) -> Result<SimArgs, String> {
        SimArgs::parse(args.iter().map(|a| a.to_string())).map_err(|e| e.to_string())
    }

    #[test]
    fn a_misspelled_flag_is_refused_not_taken_for_the_path() {
        let e = sim_args(&["--digest", "--fault", "x.fault", "--hosts", "4"]).unwrap_err();
        assert!(e.contains("unknown flag \"--fault\""), "{e}");
    }

    #[test]
    fn a_second_scenario_path_is_refused() {
        let dir = std::env::temp_dir().join(format!("ppm_sim_args_two_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (a, b) = (dir.join("a.ppm"), dir.join("b.ppm"));
        for p in [&a, &b] {
            std::fs::write(p, MINI_SCENARIO).expect("write scenario");
        }
        let (a, b) = (a.display().to_string(), b.display().to_string());
        let e = sim_args(&[&a, &b]).unwrap_err();
        assert!(
            e.contains("a second scenario path") && e.contains(&b),
            "{e}"
        );
        // One path is a cell, named by that path.
        assert_eq!(sim_args(&[&a]).expect("one path").cell.variant.args, a);
    }

    #[test]
    fn procs_without_users_is_refused() {
        let e = sim_args(&["--hosts", "4", "--procs", "100"]).unwrap_err();
        assert!(e.contains("--procs needs --users"), "{e}");
        let storm = sim_args(&["--users", "2", "--hosts", "4", "--procs", "100"]).expect("a storm");
        assert_eq!(
            storm.cell.variant.kind,
            VariantKind::Storm {
                users: 2,
                hosts: 4,
                procs: 100
            }
        );
    }

    #[test]
    fn a_command_line_names_one_cell_on_one_runtime() {
        let args = sim_args(&[
            "--runtime",
            "mc",
            "--seed",
            "9",
            "--topology",
            "fat-tree",
            "--hosts",
            "3",
        ]);
        let args = args.expect("parses");
        assert_eq!(args.cell.runtime, Backend::Mc);
        assert_eq!(args.cell.seed, Some(9));
        assert_eq!(args.cell.topo.arg.as_deref(), Some("fat-tree"));
        assert_eq!(args.cell.variant.kind, VariantKind::Chain { hosts: 3 });
        assert!(args
            .cell
            .repro()
            .ends_with(" -- --digest --runtime mc --seed 9 --topology fat-tree --hosts 3"));
        for bad in [
            &["--runtime", "vax", "--hosts", "3"][..],
            &["--hosts", "1"],
            &["--hosts"],
            &["--seed", "-1", "--hosts", "3"],
            &["--users", "0", "--hosts", "3"],
            &["--users", "2", "--hosts", "70000"],
            &["--users", "2"],
            &[],
        ] {
            assert!(sim_args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[10], 50), 10);
        assert_eq!(percentile(&[10, 20], 50), 10);
        assert_eq!(percentile(&[10, 20], 99), 20);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50), 3);
    }
}
