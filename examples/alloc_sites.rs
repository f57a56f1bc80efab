//! Where a sweep cell allocates: a sampling allocator over the
//! benchmark's `sweep_cells` mix.
//!
//! Every allocation the measuring thread makes while a cell plays is
//! counted exactly; at every 53rd the sampler captures a backtrace
//! (its own allocations neither counted nor sampled) and files it under
//! the first frame in this repository — `crates/`, `src/` or
//! `benchmark/`; frames of `vendor/`'s stand-ins and of this file count
//! as the library code they are. Each cell is what a sweep worker does:
//! `scenario::parse` (and the fault plan) → `execute_with` → the trace
//! and the metrics report rendered → `fnv1a` over the three.
//!
//! The mix is the benchmark's, from the shipped files: `chaos.ppm` and
//! `chaos_dual.ppm`, each with and without `crash_heal.fault`, then
//! `demo.ppm` and the 24-host `chain_scenario`. Cells cycle through a
//! 12-slot pattern in the benchmark's 3:3:2:2:1:1 proportions, so the
//! first six cells play each kind once and any multiple of twelve is the
//! benchmark's mix exactly; one cell of each kind is played uncounted
//! first, as the benchmark warms up.
//!
//! Run with line tables, so the backtraces name files and lines:
//!
//! ```console
//! $ CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!       cargo run --release --example alloc_sites -- --cells 120 --seed 1986
//! ```
//!
//! It prints each cell's exact count, then the sampled rows — per file
//! and per `file:line`, as allocations a cell (samples × 53 ÷ cells) —
//! beside the exact total a cell. Being an example, it links into
//! neither `ppm-sim` nor the benchmark, whose counts it leaves alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use ppm::digest::fnv1a;
use ppm::scenario::{self, ExecOptions};
use ppm::simnet::fault::FaultPlan;

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
    /// Counting is on only on the measuring thread, while a cell plays.
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

/// splitmix64: the cells' seeds, from the run's.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn usage(why: &str) -> ExitCode {
    eprintln!("alloc_sites: {why}");
    eprintln!("usage: alloc_sites [--cells N] [--seed S]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let (mut cells, mut seed) = (120usize, 1986u64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), value) {
            ("--cells", Some(n)) if n > 0 => cells = n as usize,
            ("--seed", Some(s)) => seed = s,
            _ => return usage(&format!("bad argument {flag:?}")),
        }
    }
    let root = env!("CARGO_MANIFEST_DIR");
    let cwd = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let read = |name: &str| {
        let path = format!("{root}/scenarios/{name}");
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let loaded = (|| -> Result<_, String> {
        let texts = KINDS
            .iter()
            .map(|&(file, _)| match file {
                "chain" => Ok(scenario::chain_scenario(CHAIN_HOSTS)),
                file => read(file),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let plan =
            FaultPlan::parse(&read(FAULT_FILE)?).map_err(|e| format!("{FAULT_FILE}: {e}"))?;
        Ok((texts, plan))
    })();
    let (texts, plan) = match loaded {
        Ok(loaded) => loaded,
        Err(why) => return usage(&why),
    };
    let cell = |kind: usize, seed: u64| {
        let faults = KINDS[kind].1.then_some(&plan);
        play(&texts[kind], faults, seed)
    };

    for kind in 0..KINDS.len() {
        if let Err(why) = cell(kind, mix(seed ^ kind as u64)) {
            return usage(&format!("warm-up cell {kind}: {why}"));
        }
    }

    println!("alloc_sites: {cells} cells, seed {seed}, 1 allocation in {EVERY} sampled");
    println!("cell  kind  scenario              allocations  digest");
    let mut sites: BTreeMap<String, u64> = BTreeMap::new();
    let mut unplaced = 0u64;
    let mut counted = 0u64;
    for i in 0..cells {
        let kind = PATTERN[i % PATTERN.len()];
        let cell_seed = 1 + mix(seed.wrapping_add(i as u64)) % (1 << 32);
        let before = COUNT.with(Cell::get);
        ON.with(|on| on.set(true));
        let played = cell(kind, cell_seed);
        ON.with(|on| on.set(false));
        let n = COUNT.with(Cell::get) - before;
        counted += n;
        let digest = match played {
            Ok(d) => d,
            Err(why) => return usage(&format!("cell {i} (kind {kind}, seed {cell_seed}): {why}")),
        };
        let (file, faulted) = KINDS[kind];
        let name = if faulted {
            format!("{file}+fault")
        } else {
            file.to_string()
        };
        println!("{i:>4}  {kind:>4}  {name:<20}  {n:>11}  {digest:016x}");
        for trace in SAMPLES.take() {
            match site(&trace, Path::new(root), &cwd) {
                Some(s) => *sites.entry(s).or_default() += 1,
                None => unplaced += 1,
            }
        }
    }

    let per_cell = |samples: u64| (samples * EVERY) as f64 / cells as f64;
    let mut files: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, n) in &sites {
        let file = s.rsplit_once(':').map_or(s.as_str(), |(f, _)| f);
        *files.entry(file).or_default() += n;
    }
    let sampled: u64 = sites.values().sum::<u64>() + unplaced;
    println!();
    println!("allocations a cell, by file (sampled x {EVERY} / cells):");
    let mut by_file: Vec<_> = files.into_iter().collect();
    by_file.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (file, n) in &by_file {
        println!("  {:>8.2}  {file}", per_cell(*n));
    }
    println!(
        "  {:>8.2}  (no frame in the repository)",
        per_cell(unplaced)
    );
    println!();
    println!("allocations a cell, by site:");
    let mut by_site: Vec<_> = sites.iter().collect();
    by_site.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (s, n) in by_site {
        println!("  {:>8.2}  {s}", per_cell(*n));
    }
    println!();
    println!(
        "sampled total a cell {:.2}, counted total a cell {:.2} ({counted} over {cells} cells)",
        per_cell(sampled),
        counted as f64 / cells as f64
    );
    ExitCode::SUCCESS
}
