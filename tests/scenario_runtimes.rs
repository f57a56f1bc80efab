//! One scenario executor on every runtime: a `.ppm` cell played on the
//! simulation and on a real loopback cluster folds the same observable
//! digest — what the actions returned, every clock value left out
//! (`scenario::Played::observed`). The model checker's default
//! schedule — `World::fire(0)` until no move is due — is the sim's own
//! run: every shipped cell played through it prints the sim's bytes.
//!
//! What is shared and what is substituted (DESIGN.md §12): the parser,
//! the runner (`sweep::run_cell`), the executor (`scenario::play`), the
//! harness, the tools and the whole PPM stack are shared; only the
//! runtime under the harness differs. What only the sim can play is
//! refused on the real runtime, with its line, before a host boots.
//!
//! Sim and checker run in tier-1. The real column boots loopback TCP
//! clusters and waits wall-clock time (about 45 s for the three cells):
//! `cargo test --release --test scenario_runtimes -- --ignored` (CI
//! `real-smoke`).

use bytes::Bytes;

use ppm::digest::{fnv1a, hex};
use ppm::harness::harness::Runtime;
use ppm::runtime::ids::{CpuClass, HostId, Pid, Port, Uid};
use ppm::runtime::obs::{HubRef, Section};
use ppm::runtime::program::{ProcKey, SpawnSpec, SysError};
use ppm::runtime::rt::ServiceFactory;
use ppm::runtime::signal::Signal;
use ppm::runtime::time::{Micros, SimDuration};
use ppm::scenario::{self, ExecOptions};
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::grammar::LineError;
use ppm::simos::World;
use ppm::sweep::{run_cell, Backend, CellRun, Plan, RunSpec, SimArgs, Topo, Variant, VariantKind};

/// The sim's world played by the checker's default schedule: move 0
/// fired while one is due, where the sim pops its queue.
struct Fired(World);

impl Runtime for Fired {
    fn register_service(&mut self, name: &str, port: Port, factory: ServiceFactory) {
        self.0.register_service(name, port, factory);
    }

    fn add_host(&mut self, name: &str, cpu: CpuClass) -> HostId {
        Runtime::add_host(&mut self.0, name, cpu)
    }

    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.0.spawn_user(host, uid, spec)
    }

    fn post_signal(&mut self, from: Uid, target: ProcKey, signal: Signal) -> Result<(), SysError> {
        self.0.post_signal(from, target, signal)
    }

    fn find_proc(&self, host: HostId, uid: Uid, prefix: &str) -> Option<Pid> {
        self.0.find_proc(host, uid, prefix)
    }

    /// Move 0 while one is due by `span`'s end, then the load ticks due
    /// by then, and the clock to the end, as the sim's run leaves it.
    fn run(&mut self, span: SimDuration) {
        let end = self.0.now() + span;
        while self.0.moves().first().is_some_and(|m| m.at <= end) {
            self.0.fire(0);
        }
        self.0.run_until(end);
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        self.0.is_alive(host, pid)
    }

    fn power(&self, host: HostId) -> (bool, u32) {
        self.0.power(host)
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.0.stable_get(host, key)
    }

    fn metric_sections(&self, visit: &mut dyn FnMut(Section<'_>)) {
        self.0.metric_sections(visit);
    }

    fn hub(&mut self) -> HubRef<'_> {
        Runtime::hub(&mut self.0)
    }

    fn now(&self) -> Micros {
        self.0.now()
    }
}

impl AsRef<World> for Fired {
    fn as_ref(&self) -> &World {
        &self.0
    }
}

impl AsMut<World> for Fired {
    fn as_mut(&mut self) -> &mut World {
        &mut self.0
    }
}

/// The fault-free shipped cells every runtime plays.
const CELLS: [&str; 3] = ["chaos.ppm", "chaos_dual.ppm", "drill.ppm"];

fn path(name: &str) -> String {
    format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn shipped(name: &str) -> String {
    let path = path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The cell that plays `text` on `runtime`, as `ppm-sim --runtime` does.
fn cell(runtime: Backend, text: &str) -> RunSpec {
    let scenario = scenario::parse(text).expect("the cell parses");
    let kind = VariantKind::Scenario {
        scenario: scenario.into(),
    };
    RunSpec {
        id: String::new(),
        variant: Variant {
            label: String::new(),
            args: String::new(),
            kind,
        },
        plan: Plan::none(),
        topo: Topo::flat(),
        seed: None,
        runtime,
        expects: Vec::new(),
        expects_metric: Vec::new(),
    }
}

/// `drill.ppm` with three jobs on the victim's host: the home host
/// keeps one node, h1's LPM re-adopts all three jobs.
fn three_jobs() -> String {
    let drill = shipped("drill.ppm");
    let line = "at 0s drill h0 100 h1,h2 kill=h1";
    assert!(drill.contains(line), "drill.ppm changed its drill line");
    drill.replace(line, "at 0s drill h0 100 h1,h1,h1 kill=h1")
}

/// The observable digest and the run of `text` played on `runtime`.
fn on(runtime: Backend, text: &str) -> (u64, CellRun) {
    let run = run_cell(&cell(runtime, text), false, false);
    let run = run.unwrap_or_else(|(run, e)| panic!("{runtime:?}: {e}\n{run:?}"));
    (run.observed.expect("a scenario's observable digest"), run)
}

/// The sim's digest and output.
fn on_sim(text: &str) -> (u64, String) {
    let (observed, run) = on(Backend::Sim, text);
    (observed, run.output)
}

/// The output line that starts with `prefix`.
fn line<'a>(out: &'a str, prefix: &str) -> &'a str {
    let found = out.lines().find(|l| l.starts_with(prefix));
    found.unwrap_or_else(|| panic!("no {prefix:?} line in\n{out}"))
}

/// The number of pids in a `{5, 6, 7}` set at the end of a line.
fn set_len(l: &str) -> usize {
    let set = &l[l.rfind('{').expect("a pid set")..];
    set.split(',')
        .filter(|p| !p.trim_matches([' ', '{', '}']).is_empty())
        .count()
}

/// What `tests/loopback_e2e.rs` asserted of its drill: one node on the
/// home host, three jobs re-adopted on the victim, a fresh LPM pid.
fn assert_three_jobs_recovered(out: &str, metrics: &str) {
    assert_eq!(set_len(line(out, "display   h0:")), 1, "{out}");
    assert_eq!(set_len(line(out, "readopt")), 3, "{out}");
    assert!(metrics.contains("h1/uid100 lpm.readopted 3"), "{metrics}");
    let pid = |l: &str, before: &str| {
        let at = l.find(before).expect("a pid") + before.len();
        let digits = l[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.expect("digits").parse::<u32>().expect("a pid")
    };
    let victim = pid(line(out, "kill"), "(pid ");
    let respawned = pid(line(out, "respawn"), "as pid ");
    assert_ne!(victim, respawned, "a fresh LPM process: {out}");
}

/// `text` under `plan` played through the checker's default schedule,
/// recorded as `ppm-sim --trace --digest` records it.
fn fired(text: &str, plan: Option<&FaultPlan>) -> CellRun {
    let sc = scenario::parse(text).expect("the cell parses");
    let opts = ExecOptions {
        faults: plan,
        ..ExecOptions::default()
    };
    let mut output = String::new();
    let played = scenario::execute_played(&sc, &mut output, opts, true, Fired);
    let played = played.unwrap_or_else(|e| panic!("{e}"));
    let mut ppm = played.ppm;
    let (trace, metrics) = (ppm.trace_render(None), ppm.metrics_report());
    CellRun {
        digest: Some(fnv1a(&[&output, &trace, &metrics])),
        observed: played.observed.ok(),
        sim_end_us: ppm.now().as_micros(),
        output,
        trace,
        metrics,
        ..CellRun::default()
    }
}

/// The first line where two renderings part, for a readable failure.
fn first_difference(a: &str, b: &str) -> String {
    let mut lines = a.lines().zip(b.lines()).enumerate();
    let found = lines.find(|(_, (x, y))| x != y);
    found.map_or("one is a prefix of the other".into(), |(i, (x, y))| {
        format!("line {}: {x:?} vs {y:?}", i + 1)
    })
}

/// Every shipped cell, and `chaos.ppm` under `crash_heal.fault`, played
/// through `World::fire(0)` prints the sim's output, trace and metrics:
/// the same `--digest` line and the same trace FNV.
#[test]
fn every_shipped_cell_plays_the_sims_run_through_fire_0() {
    let mut cells: Vec<(String, Option<String>)> = Vec::new();
    for dir in ["", "exhibits/", "paper/"] {
        let entries = std::fs::read_dir(path(dir)).expect("scenarios/ lists");
        let mut names: Vec<String> = entries
            .map(|e| {
                e.expect("an entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n.ends_with(".ppm"))
            .map(|n| format!("{dir}{n}"))
            .collect();
        names.sort();
        cells.extend(names.into_iter().map(|n| (n, None)));
    }
    assert!(cells.len() >= 60, "{} cells", cells.len());
    cells.push(("chaos.ppm".into(), Some("crash_heal.fault".into())));
    for (name, fault) in &cells {
        let text = shipped(name);
        let plan = fault
            .as_deref()
            .map(|f| Plan::load(&path(f), std::path::Path::new("/")));
        let plan = plan
            .map(|p| p.expect("the plan loads"))
            .unwrap_or_else(Plan::none);
        let spec = RunSpec {
            plan: plan.clone(),
            ..cell(Backend::Sim, &text)
        };
        let sim = run_cell(&spec, false, true).unwrap_or_else(|(_, e)| panic!("{name}: {e}"));
        let run = fired(&text, plan.plan.as_deref());
        let label = format!("{name} {fault:?}");
        let fnv = |t: &str| hex(fnv1a(&[t]));
        assert_eq!(
            run.output,
            sim.output,
            "{label}: {}",
            first_difference(&run.output, &sim.output)
        );
        assert_eq!(
            fnv(&run.trace),
            fnv(&sim.trace),
            "{label}: {}",
            first_difference(&run.trace, &sim.trace)
        );
        assert_eq!(
            run.metrics,
            sim.metrics,
            "{label}: {}",
            first_difference(&run.metrics, &sim.metrics)
        );
        assert_eq!(run.digest, sim.digest, "{label}");
        assert_eq!(run.sim_end_us, sim.sim_end_us, "{label}");
    }
}

#[test]
fn sim_and_checker_observe_the_same_cells() {
    for name in CELLS {
        let text = shipped(name);
        let (sim, sim_out) = on_sim(&text);
        let run = fired(&text, None);
        let mc = run.observed.expect("a scenario's observable digest");
        assert_eq!(sim, mc, "{name}: sim\n{sim_out}\nmc\n{}", run.output);
    }
}

#[test]
fn the_checker_recovers_all_three_jobs_as_the_sim_does() {
    let text = three_jobs();
    let (sim, _) = on_sim(&text);
    let run = fired(&text, None);
    assert_eq!(Some(sim), run.observed, "{}", run.output);
    assert_three_jobs_recovered(&run.output, &run.metrics);
}

#[test]
#[ignore = "boots real loopback TCP clusters; run with --ignored (CI real-smoke job)"]
fn the_real_runtime_observes_what_the_sim_does() {
    for name in CELLS {
        let text = shipped(name);
        let (sim, _) = on_sim(&text);
        let (real, run) = on(Backend::Real, &text);
        assert_eq!(sim, real, "{name}: real\n{}", run.output);
        if name == "drill.ppm" {
            let metrics = run.metrics;
            assert!(metrics.contains("h1/uid100 lpm.restarts 1"), "{metrics}");
            assert!(metrics.contains("h1/uid100 lpm.readopted 1"), "{metrics}");
        }
    }
    let text = three_jobs();
    let (sim, _) = on_sim(&text);
    let (real, run) = on(Backend::Real, &text);
    assert_eq!(sim, real, "{}", run.output);
    assert_three_jobs_recovered(&run.output, &run.metrics);
}

/// Three hosts in a full mesh and one job: a statement appended is
/// line 9.
const MESH: &str = "host a vax780\nhost b sun2\nhost c sun2\nlink a b\nlink a c\nlink b c\n";
const USER: &str = "user 100 secret=0x1986 recovery=a\nat 0s spawn a 100 b job\n";

/// `text` is refused at `line` on the real runtime, naming `what`, with
/// nothing played.
fn refused_off_the_sim(text: &str, line: usize, what: &str) {
    let sc = scenario::parse(text).expect("parses");
    let mut out = String::new();
    scenario::execute_with(&sc, &mut out, ExecOptions::default()).expect("the sim plays it");
    let check = |e: LineError, out: String, runtime: &str| {
        assert_eq!(e.line, line, "{runtime}: {e}");
        assert!(e.message.contains(what), "{runtime}: {e}");
        assert!(e.message.contains("sim runtime"), "{runtime}: {e}");
        assert!(out.is_empty(), "{runtime} played before refusing: {out}");
    };
    let refused = |runtime| {
        let (run, e) = run_cell(&cell(runtime, text), false, false).err()?;
        Some((e, run.map(|run| run.output).unwrap_or_default()))
    };
    let (e, out) = refused(Backend::Real).expect("real refuses");
    check(e, out, "real");
}

#[test]
fn crash_is_refused_off_the_sim() {
    refused_off_the_sim(&format!("{MESH}{USER}at 1s crash b\n"), 9, "crash");
}

#[test]
fn restart_is_refused_off_the_sim() {
    let text = format!("{MESH}{USER}at 1s restart b\n");
    refused_off_the_sim(&text, 9, "restart");
}

#[test]
fn link_down_is_refused_off_the_sim() {
    let text = format!("{MESH}{USER}at 1s link-down a b\n");
    refused_off_the_sim(&text, 9, "link-down");
}

#[test]
fn link_up_is_refused_off_the_sim() {
    let text = format!("{MESH}{USER}at 1s link-up a b\n");
    refused_off_the_sim(&text, 9, "link-up");
}

#[test]
fn kill_is_refused_off_the_sim() {
    let text = format!("{MESH}{USER}at 1s kill b lpm\n");
    refused_off_the_sim(&text, 9, "kill");
}

#[test]
fn a_sugared_crash_and_restart_is_refused_off_the_sim() {
    let text = format!("{MESH}{USER}at 1s crash b restart 2s\n");
    refused_off_the_sim(&text, 9, "crash");
}

#[test]
fn load_is_refused_off_the_sim() {
    let text = format!("{MESH}{USER}load b 1.5\n");
    refused_off_the_sim(&text, 9, "load");
    // Named at its own line, before a later sim-only action's.
    let text = format!("{MESH}load c 0.5\n{USER}at 1s crash b\n");
    refused_off_the_sim(&text, 7, "load");
}

#[test]
fn a_partial_mesh_is_refused_off_the_sim() {
    // c, declared on line 3, has no link to a.
    let text = format!("host a vax780\nhost b sun2\nhost c sun2\nlink a b\nlink b c\n{USER}");
    refused_off_the_sim(&text, 3, "full mesh");
    // The first refusal in file order is the one named.
    let text = format!("host a vax780\nhost b sun2\nhost c sun2\nlink a b\n{USER}at 1s crash b\n");
    refused_off_the_sim(&text, 3, "full mesh");
    // Table 3's unspliced chains, as the chain cells they copy: host b,
    // on line 10, has no link to the root.
    for cell in ["table3_topology3_noagg.ppm", "table3_topology4_noagg.ppm"] {
        refused_off_the_sim(&shipped(&format!("paper/{cell}")), 10, "full mesh");
    }
}

/// A `ppm-sim` command line only the sim can honour, refused on the real
/// runtime, naming the flag.
fn flag_refused_off_the_sim(args: &[&str], flag: &str) {
    let check = |run: Result<_, (Option<Box<CellRun>>, LineError)>, runtime: &str| {
        let (run, e) = run
            .err()
            .unwrap_or_else(|| panic!("{runtime} refuses {flag}"));
        assert!(run.is_none(), "{runtime} played before refusing");
        assert_eq!(e.line, 0, "{runtime}: {e}");
        assert!(e.message.contains(flag), "{runtime}: {e}");
        assert!(e.message.contains("sim runtime"), "{runtime}: {e}");
    };
    let on = |runtime: &str| {
        let argv = [&["--runtime", runtime][..], args].concat();
        let sim_args = SimArgs::parse(argv.iter().map(|a| a.to_string()));
        let spec = sim_args.unwrap_or_else(|e| panic!("{e}")).cell;
        run_cell(&spec, false, false)
    };
    check(on("real"), "real");
}

#[test]
fn a_fault_plan_is_refused_off_the_sim() {
    let (plan, drill) = (path("crash_heal.fault"), path("drill.ppm"));
    flag_refused_off_the_sim(&["--faults", &plan, &drill], "--faults");
}

#[test]
fn a_network_model_is_refused_off_the_sim() {
    let drill = path("drill.ppm");
    flag_refused_off_the_sim(&["--topology", "fat-tree", &drill], "--topology");
}

#[test]
fn the_chain_is_refused_off_the_sim() {
    flag_refused_off_the_sim(&["--hosts", "4"], "--hosts");
}

#[test]
fn the_storm_is_refused_off_the_sim() {
    let storm = ["--users", "1", "--hosts", "2", "--procs", "10"];
    flag_refused_off_the_sim(&storm, "--users");
}

#[test]
fn a_seed_is_refused_off_the_sim() {
    flag_refused_off_the_sim(&["--seed", "7", &path("drill.ppm")], "--seed");
}

/// A run that fails at line 9 keeps what it printed, traced and counted.
fn a_failed_run_keeps_its_output_trace_and_metrics(runtime: Backend) {
    // Line 9 controls a process no statement bound.
    let text = format!("{MESH}{USER}at 1s control a 100 $nobody stop\n");
    let (run, e) =
        run_cell(&cell(runtime, &text), false, true).expect_err("an unbound name fails the run");
    assert_eq!(e.line, 9, "{e}");
    let run = run.expect("the run so far");
    assert!(run.output.contains("created <b, "), "{}", run.output);
    assert!(!run.output.contains("scenario complete"), "{}", run.output);
    assert!(run.trace.contains(" lpm] "), "{}", run.trace);
    assert!(run.metrics.contains("lpm."), "{}", run.metrics);
}

#[test]
fn a_failed_run_off_the_sim_keeps_its_output_trace_and_metrics() {
    a_failed_run_keeps_its_output_trace_and_metrics(Backend::Real);
}

#[test]
fn a_failed_run_on_the_sim_keeps_its_output_trace_and_metrics() {
    a_failed_run_keeps_its_output_trace_and_metrics(Backend::Sim);
}
