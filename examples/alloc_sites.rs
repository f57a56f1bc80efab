//! Where the benchmark's workloads allocate: a sampling allocator over
//! the `sweep_cells` mix (the default) or the `snapshot_fanout` world.
//!
//! Every allocation the measuring thread makes while an operation plays
//! is counted exactly; at every 53rd the sampler captures a backtrace
//! (its own allocations neither counted nor sampled) and files it under
//! the first frame in this repository — `crates/`, `src/` or
//! `benchmark/`; frames of `vendor/`'s stand-ins and of this file count
//! as the library code they are.
//!
//! `--workload sweep_cells`: each cell is what a sweep worker does:
//! `scenario::parse` (and the fault plan) → `execute_with` → the trace
//! and the metrics report rendered → `fnv1a` over the three. The mix is
//! the benchmark's, from the shipped files: `chaos.ppm` and
//! `chaos_dual.ppm`, each with and without `crash_heal.fault`, then
//! `demo.ppm` and the 24-host `chain_scenario`. Cells cycle through a
//! 12-slot pattern in the benchmark's 3:3:2:2:1:1 proportions, so the
//! first six cells play each kind once and any multiple of twelve is the
//! benchmark's mix exactly; one cell of each kind is played uncounted
//! first, as the benchmark warms up.
//!
//! `--workload snapshot_fanout`: the benchmark's world — 16 hosts on the
//! fat-tree model, their LPMs linked as a 4-ary tree, 301 records (one
//! root on `h0`, 20 processes on each other host) — settled for 25 s and
//! warmed by one tool of 4 steps, then `--tools` tools (48 by default),
//! each from a host in turn in seeded order, of 32 pipelined `*`
//! snapshots at window 4, the first reply of each rendered as the
//! display does. An operation is one snapshot.
//!
//! Run with line tables, so the backtraces name files and lines:
//!
//! ```console
//! $ CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!       cargo run --release --example alloc_sites -- --cells 120 --seed 1986
//! $ CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!       cargo run --release --example alloc_sites -- --workload snapshot_fanout
//! ```
//!
//! It prints each cell's or tool's exact count, then the sampled rows —
//! per file and per `file:line`, as allocations an operation (samples ×
//! 53 ÷ operations) — beside the exact total an operation, and what each
//! class of `bytes`'s spare buffers was asked for meanwhile. Being an
//! example, it links into neither `ppm-sim` nor the benchmark, whose
//! counts it leaves alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use bytes::SpareCounts;

use ppm::core::client::ToolStep;
use ppm::core::config::PpmConfig;
use ppm::digest::fnv1a;
use ppm::harness::harness::PpmHarness;
use ppm::proto::msg::{Op, Reply};
use ppm::scenario::{self, ExecOptions};
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::time::SimDuration;
use ppm::simnet::topology::{CpuClass, NetSpec};
use ppm::simos::ids::Uid;

/// One allocation in this many is sampled: a prime, so no loop of the
/// program beats in step with it.
const EVERY: u64 = 53;

/// (scenario, faulted) of each cell kind, in the benchmark's order.
const KINDS: [(&str, bool); 6] = [
    ("chaos.ppm", false),
    ("chaos.ppm", true),
    ("chaos_dual.ppm", false),
    ("chaos_dual.ppm", true),
    ("demo.ppm", false),
    ("chain", false),
];
/// The kind of each cell in a cycle of twelve: 3:3:2:2:1:1.
const PATTERN: [usize; 12] = [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 0, 1];
const FAULT_FILE: &str = "crash_heal.fault";
const CHAIN_HOSTS: usize = 24;

struct Sampler;

thread_local! {
    /// Counting is on only on the measuring thread, while an operation
    /// plays.
    static ON: Cell<bool> = const { Cell::new(false) };
    /// The sampler is capturing: what it allocates meanwhile is its own.
    static BUSY: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    /// Captured, not yet resolved.
    static SAMPLES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

fn count_one() {
    // No count while the thread's locals are being torn down.
    let counting = ON.try_with(Cell::get).unwrap_or(false) && !BUSY.with(Cell::get);
    if !counting {
        return;
    }
    let n = COUNT.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    if n.is_multiple_of(EVERY) {
        BUSY.with(|b| b.set(true));
        let trace = Backtrace::force_capture();
        SAMPLES.with_borrow_mut(|s| s.push(trace));
        BUSY.with(|b| b.set(false));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The counters
// are const-initialised thread-local `Cell`s, which neither allocate nor
// touch allocator state; a capture's own allocations re-enter `alloc`
// with `BUSY` set and go straight to `System`.
unsafe impl GlobalAlloc for Sampler {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a trip to the allocator, as the benchmark counts it.
        count_one();
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Sampler = Sampler;

/// The first frame of `trace` in this repository, as `file:line`
/// relative to its root; `None` when every frame is std's, a vendored
/// stand-in's or this sampler's. A backtrace prints a path under the
/// working directory relative to it, so `cwd` puts it back.
fn site(trace: &Backtrace, root: &Path, cwd: &Path) -> Option<String> {
    let text = trace.to_string();
    text.lines().find_map(|line| {
        let at = line.trim_start().strip_prefix("at ")?;
        // `file:line:column` → `file:line`.
        let (file, line) = at.rsplit_once(':')?.0.rsplit_once(':')?;
        let file = cwd.join(file);
        let file = file.strip_prefix(root).ok()?;
        let in_repo = ["crates", "src", "benchmark"]
            .iter()
            .any(|dir| file.starts_with(dir));
        in_repo.then(|| format!("{}:{line}", file.display()))
    })
}

/// The samples taken so far, filed by site.
#[derive(Default)]
struct Sites {
    /// `file:line` → samples.
    sites: BTreeMap<String, u64>,
    /// Samples with no frame in the repository.
    unplaced: u64,
}

impl Sites {
    /// Files the samples captured since the last call.
    fn file(&mut self, root: &Path, cwd: &Path) {
        for trace in SAMPLES.take() {
            match site(&trace, root, cwd) {
                Some(s) => *self.sites.entry(s).or_default() += 1,
                None => self.unplaced += 1,
            }
        }
    }

    /// Prints the rows per file and per site, as allocations an `op`,
    /// and the sampled total beside the `counted` one.
    fn print(&self, op: &str, ops: u64, counted: u64) {
        let per_op = |samples: u64| (samples * EVERY) as f64 / ops as f64;
        let mut files: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, n) in &self.sites {
            let file = s.rsplit_once(':').map_or(s.as_str(), |(f, _)| f);
            *files.entry(file).or_default() += n;
        }
        let sampled: u64 = self.sites.values().sum::<u64>() + self.unplaced;
        println!();
        println!("allocations a {op}, by file (sampled x {EVERY} / {op}s):");
        let mut by_file: Vec<_> = files.into_iter().collect();
        by_file.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (file, n) in &by_file {
            println!("  {:>8.2}  {file}", per_op(*n));
        }
        println!(
            "  {:>8.2}  (no frame in the repository)",
            per_op(self.unplaced)
        );
        println!();
        println!("allocations a {op}, by site:");
        let mut by_site: Vec<_> = self.sites.iter().collect();
        by_site.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (s, n) in by_site {
            println!("  {:>8.2}  {s}", per_op(*n));
        }
        println!();
        println!(
            "sampled total a {op} {:.2}, counted total a {op} {:.2} ({counted} over {ops} {op}s)",
            per_op(sampled),
            counted as f64 / ops as f64
        );
    }
}

/// Prints what each class of spare buffers was asked for between
/// `before` and now, on this thread, in all and an `op`.
fn print_spares(before: &[SpareCounts], op: &str, ops: u64) {
    println!();
    println!("spare buffers on this thread, by class: in all (a {op})");
    println!("   class      draws          misses          keeps           drops");
    for (now, was) in bytes::spare_counts().iter().zip(before) {
        let cell = |now: u64, was: u64| {
            let n = now - was;
            format!("{n:>6} ({:>6.2})", n as f64 / ops as f64)
        };
        println!(
            "  {:>6}  {}  {}  {}  {}",
            now.class_bytes,
            cell(now.draws, was.draws),
            cell(now.misses, was.misses),
            cell(now.keeps, was.keeps),
            cell(now.drops, was.drops),
        );
    }
}

/// Runs `f` with this thread's allocations counted (and sampled); returns
/// how many it made and what it returned.
fn counting<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = COUNT.with(Cell::get);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (COUNT.with(Cell::get) - before, out)
}

/// One cell, start to digest. Returns the digest.
fn play(text: &str, plan: Option<&FaultPlan>, seed: u64) -> Result<u64, String> {
    let mut sc = scenario::parse(text).map_err(|e| format!("parse: {e}"))?;
    sc.seed = seed;
    let mut out = String::new();
    let opts = ExecOptions {
        spans: false,
        faults: plan,
        topology: None,
    };
    let h = scenario::execute_with(&sc, &mut out, opts).map_err(|e| format!("execute: {e}"))?;
    let trace = h.world().core().trace().render(None);
    let metrics = ppm::core::obs::render_metrics(&h.metrics_sections());
    Ok(fnv1a(&[&out, &trace, &metrics]))
}

/// splitmix64: the run's seeds and seeded choices, from its seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn usage(why: &str) -> ExitCode {
    eprintln!("alloc_sites: {why}");
    eprintln!(
        "usage: alloc_sites [--workload sweep_cells|snapshot_fanout] [--cells N] [--tools N] [--seed S]"
    );
    ExitCode::FAILURE
}

/// The `sweep_cells` mix, `cells` cells of it.
fn sweep_cells(cells: usize, seed: u64, root: &Path, cwd: &Path) -> Result<(), String> {
    let read = |name: &str| {
        let path = root.join("scenarios").join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let texts = KINDS
        .iter()
        .map(|&(file, _)| match file {
            "chain" => Ok(scenario::chain_scenario(CHAIN_HOSTS)),
            file => read(file),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let plan = FaultPlan::parse(&read(FAULT_FILE)?).map_err(|e| format!("{FAULT_FILE}: {e}"))?;
    let cell = |kind: usize, seed: u64| {
        let faults = KINDS[kind].1.then_some(&plan);
        play(&texts[kind], faults, seed)
    };

    for kind in 0..KINDS.len() {
        cell(kind, mix(seed ^ kind as u64)).map_err(|why| format!("warm-up cell {kind}: {why}"))?;
    }

    println!("alloc_sites: {cells} cells, seed {seed}, 1 allocation in {EVERY} sampled");
    println!("cell  kind  scenario              allocations  digest");
    let spares = bytes::spare_counts();
    let mut sites = Sites::default();
    let mut counted = 0u64;
    for i in 0..cells {
        let kind = PATTERN[i % PATTERN.len()];
        let cell_seed = 1 + mix(seed.wrapping_add(i as u64)) % (1 << 32);
        let (n, played) = counting(|| cell(kind, cell_seed));
        counted += n;
        let digest =
            played.map_err(|why| format!("cell {i} (kind {kind}, seed {cell_seed}): {why}"))?;
        let (file, faulted) = KINDS[kind];
        let name = if faulted {
            format!("{file}+fault")
        } else {
            file.to_string()
        };
        println!("{i:>4}  {kind:>4}  {name:<20}  {n:>11}  {digest:016x}");
        sites.file(root, cwd);
    }
    sites.print("cell", cells as u64, counted);
    print_spares(&spares, "cell", cells as u64);
    Ok(())
}

const USER: Uid = Uid(100);
const HOSTS: usize = 16;
const PER_HOST: usize = 20;
/// One root on `h0` plus `PER_HOST` on each other host.
const RECORDS: usize = 1 + (HOSTS - 1) * PER_HOST;
const STEPS_PER_TOOL: usize = 32;
const WINDOW: usize = 4;
const WAIT: SimDuration = SimDuration::from_secs(600);

fn host(i: usize) -> String {
    format!("h{i}")
}

/// The `snapshot_fanout` world, populated, settled and warmed.
fn fanout_world(seed: u64) -> Result<PpmHarness, String> {
    let names: Vec<String> = (0..HOSTS).map(host).collect();
    let spec = NetSpec::preset("fat-tree", &names).ok_or("the fat-tree preset does not build")?;
    let cfg = PpmConfig {
        bcast_timeout: SimDuration::from_secs(60),
        req_timeout: SimDuration::from_secs(60),
        ..PpmConfig::default()
    };
    let mut b = PpmHarness::builder().seed(seed);
    for (i, name) in names.iter().enumerate() {
        let cpu = if i % 3 == 2 {
            CpuClass::Vax750
        } else {
            CpuClass::Vax780
        };
        b = b.host(name.clone(), cpu);
    }
    for i in 1..HOSTS {
        b = b.link(host((i - 1) / 4), host(i));
    }
    let mut ppm = b.topology(spec).user(USER, 0x1986, &["h0"], cfg).build();
    // Host i's processes are created from host (i - 1) / 4, which makes
    // the sibling graph, and so the cover tree, 4-ary; seeded commands
    // give the records seeded sizes.
    let mut spawn = |from: &str, dest: &str, command: &str| {
        ppm.spawn_remote(from, USER, dest, command, None, None)
            .map(drop)
            .map_err(|e| format!("spawn {from} -> {dest}: {e}"))
    };
    spawn("h0", "h0", "root")?;
    for i in 1..HOSTS {
        for j in 0..PER_HOST {
            let r = mix(seed ^ (i * PER_HOST + j) as u64);
            let digits = 1 + r % 4;
            let command = format!("job{j}-{:x}", (r >> 8) % (1 << (4 * digits)));
            spawn(&host((i - 1) / 4), &host(i), &command)?;
        }
    }
    ppm.run_for(SimDuration::from_secs(25));
    snapshot_tool(&mut ppm, 0, 4)?;
    Ok(ppm)
}

/// One tool on host `origin`: `steps` pipelined `*` snapshots, each
/// checked complete, the first rendered. Returns the rendered bytes.
fn snapshot_tool(ppm: &mut PpmHarness, origin: usize, steps: usize) -> Result<usize, String> {
    let script = vec![ToolStep::new("*", Op::Snapshot); steps];
    let outcome = ppm
        .run_tool_pipelined(&host(origin), USER, script, WINDOW, WAIT)
        .map_err(|e| e.to_string())?;
    if let Some(err) = &outcome.error {
        return Err(format!("tool failed: {err}"));
    }
    let mut rendered = 0;
    for i in 0..steps {
        match outcome.reply(i) {
            Some(Reply::Snapshot { procs, .. }) if procs.len() == RECORDS => {
                if i == 0 {
                    rendered = ppm::tools::snapshot::render(procs.to_vec(), "*").len();
                }
            }
            other => return Err(format!("step {i}: {other:?}")),
        }
    }
    Ok(rendered)
}

/// The `snapshot_fanout` world under `tools` tools.
fn snapshot_fanout(tools: usize, seed: u64, root: &Path, cwd: &Path) -> Result<(), String> {
    let mut ppm = fanout_world(seed)?;
    // Every host equally often, in seeded order.
    let mut origins: Vec<usize> = (0..tools).map(|t| t % HOSTS).collect();
    for i in (1..origins.len()).rev() {
        let j = (mix(seed ^ (i as u64).rotate_left(32)) % (i as u64 + 1)) as usize;
        origins.swap(i, j);
    }

    println!(
        "alloc_sites: snapshot_fanout, {tools} tools of {STEPS_PER_TOOL} snapshots, seed {seed}, 1 allocation in {EVERY} sampled"
    );
    println!("tool  origin  allocations  spare misses  rendered bytes");
    let spares = bytes::spare_counts();
    let mut sites = Sites::default();
    let mut counted = 0u64;
    let misses = || bytes::spare_counts().iter().map(|c| c.misses).sum::<u64>();
    for (t, &origin) in origins.iter().enumerate() {
        let missed = misses();
        let (n, played) = counting(|| snapshot_tool(&mut ppm, origin, STEPS_PER_TOOL));
        counted += n;
        let rendered = played.map_err(|why| format!("tool {t} on {}: {why}", host(origin)))?;
        let missed = misses() - missed;
        println!(
            "{t:>4}  {:>6}  {n:>11}  {missed:>12}  {rendered:>14}",
            host(origin)
        );
        sites.file(root, cwd);
    }
    let ops = (tools * STEPS_PER_TOOL) as u64;
    sites.print("snapshot", ops, counted);
    print_spares(&spares, "snapshot", ops);
    Ok(())
}

fn main() -> ExitCode {
    let (mut workload, mut cells, mut tools, mut seed) =
        (String::from("sweep_cells"), 120, 48, 1986);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        let number = value.as_deref().and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), number) {
            ("--workload", _) if value.is_some() => workload = value.unwrap_or_default(),
            ("--cells", Some(n)) if n > 0 => cells = n as usize,
            ("--tools", Some(n)) if n > 0 => tools = n as usize,
            ("--seed", Some(s)) => seed = s,
            _ => return usage(&format!("bad argument {flag:?}")),
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cwd = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let run = match workload.as_str() {
        "sweep_cells" => sweep_cells(cells, seed, root, &cwd),
        "snapshot_fanout" => snapshot_fanout(tools, seed, root, &cwd),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => usage(&why),
    }
}
