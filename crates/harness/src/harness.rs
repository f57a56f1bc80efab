//! A synchronous driver around a PPM, on any backend.
//!
//! Tests, examples, benchmarks and the `ppm-real` demo all need the same
//! scaffolding: hosts, the pmd service registered with inetd, user
//! accounts with `.recovery` lists, and a way to run a tool script and
//! wait for its outcome. [`PpmHarness`] packages that once, over the
//! [`Runtime`] facade: it plays the user at the terminal — everything it
//! does goes through the same tools, daemons and protocols a real user
//! of the paper's system would exercise — and only the world underneath
//! (virtual or wall clock, modelled or loopback wire) is substituted.
//! What the world recorded about itself — trace, spans, published
//! registries — is read from the backend's one hub, so it too is the
//! same call on every backend. What only the simulation has (the
//! [`World`] itself, fault plans, the network model) stays on
//! `PpmHarness<SimRuntime>`, which is what the bare name `PpmHarness`
//! means.

use std::sync::Arc;

use ppm_proto::msg::{ControlAction, Op, Reply};
use ppm_proto::types::{Gpid, HistoryRecord, MetricRow, ProcRecord, RusageRecord};
use ppm_runtime::obs::SpanEvent;
use ppm_runtime::program::SpawnSpec;
pub use ppm_runtime::rt::Runtime;
pub use ppm_runtime::signal::Signal;
use ppm_runtime::trace::TraceCategory;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostId, HostSpec, NetSpec};
use ppm_simos::ids::{Pid, Uid};
use ppm_simos::rt::SimRuntime;
use ppm_simos::world::World;

use ppm_core::auth::UserCred;
use ppm_core::client::{Tool, ToolHandle, ToolOutcome, ToolStep};
use ppm_core::config::{PpmConfig, PMD_PORT, PMD_SERVICE};
use ppm_core::pmd::{Pmd, PmdOptions};
use ppm_core::users::{UserDirectory, UserEntry};

/// Builder for a [`PpmHarness`].
pub struct HarnessBuilder {
    seed: u64,
    pmd_options: PmdOptions,
    hosts: Vec<HostSpec>,
    links: Vec<(String, String)>,
    users: UserDirectory,
    topology: Option<NetSpec>,
}

impl Default for HarnessBuilder {
    fn default() -> Self {
        HarnessBuilder {
            seed: 1986,
            pmd_options: PmdOptions::default(),
            hosts: Vec::new(),
            links: Vec::new(),
            users: UserDirectory::new(),
            topology: None,
        }
    }
}

impl std::fmt::Debug for HarnessBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarnessBuilder")
            .field("seed", &self.seed)
            .field("hosts", &self.hosts.len())
            .field("links", &self.links.len())
            .field("users", &self.users.len())
            .finish()
    }
}

impl HarnessBuilder {
    /// Sets the world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Configures pmd (stable storage ablation).
    pub fn pmd_options(mut self, options: PmdOptions) -> Self {
        self.pmd_options = options;
        self
    }

    /// Adds a host.
    pub fn host(mut self, name: impl Into<String>, cpu: CpuClass) -> Self {
        self.hosts.push(HostSpec::new(name, cpu));
        self
    }

    /// Adds an undirected link between two named hosts.
    pub fn link(mut self, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.links.push((a.into(), b.into()));
        self
    }

    /// Installs a physical network model (see
    /// [`ppm_simos::world::World::install_netmodel`]): deliveries are
    /// priced over the topology's routes with per-link capacity and
    /// contention instead of the flat wire law. Without this, the flat
    /// model stays in force and runs are byte-identical to pre-netmodel
    /// builds.
    pub fn topology(mut self, spec: NetSpec) -> Self {
        self.topology = Some(spec);
        self
    }

    /// Adds a user account with a `.recovery` list and PPM config.
    pub fn user(mut self, uid: Uid, secret: u64, recovery: &[&str], config: PpmConfig) -> Self {
        self.users.insert(UserEntry {
            cred: UserCred::new(uid, secret),
            recovery: recovery.iter().map(|s| s.to_string()).collect(),
            config,
        });
        self
    }

    /// Builds the simulated world: hosts, links, daemons, accounts.
    ///
    /// # Panics
    ///
    /// Panics if a link references an unknown host name.
    pub fn build(self) -> PpmHarness {
        let mut rt = SimRuntime::from_world(World::new(self.seed));
        let users = self.users.into_shared();
        register_pmd(&mut rt, &users, self.pmd_options);
        let world = rt.world_mut();
        let hosts: Vec<String> = self.hosts.iter().map(|h| h.name.clone()).collect();
        for spec in self.hosts {
            world.add_host(spec);
        }
        for (a, b) in self.links {
            let id = |name: &String| {
                let at = hosts.iter().position(|h| h == name);
                HostId(at.unwrap_or_else(|| panic!("link references unknown host {name:?}")) as u32)
            };
            world.add_link(id(&a), id(&b));
        }
        if let Some(spec) = &self.topology {
            world
                .install_netmodel(spec)
                .unwrap_or_else(|e| panic!("topology install failed: {e}"));
        }
        PpmHarness::booted(rt, users, hosts)
    }

    /// Boots the same PPM on any backend through the [`Runtime`] facade:
    /// the hosts share one LAN segment. The knobs that describe a
    /// simulated world (`seed`, `os_config`, `latency`, `link`,
    /// `topology`) have no meaning there and are not consulted.
    pub fn build_on<R: Runtime>(self, mut rt: R) -> PpmHarness<R> {
        let users = self.users.into_shared();
        register_pmd(&mut rt, &users, self.pmd_options);
        let hosts: Vec<String> = self.hosts.iter().map(|h| h.name.clone()).collect();
        for spec in &self.hosts {
            rt.add_host(&spec.name, spec.cpu);
        }
        PpmHarness::booted(rt, users, hosts)
    }
}

/// Registers the pmd with inetd's registry: one factory serves every host
/// of either backend.
fn register_pmd<R: Runtime>(rt: &mut R, users: &Arc<UserDirectory>, options: PmdOptions) {
    let users = Arc::clone(users);
    rt.register_service(
        PMD_SERVICE,
        PMD_PORT,
        Box::new(move |_host| Box::new(Pmd::new(Arc::clone(&users), PMD_PORT, options))),
    );
}

/// Errors surfaced by the synchronous harness operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The tool reported a failure.
    Tool(String),
    /// The LPM answered with an error reply.
    Lpm(String),
    /// The tool never finished within the wait budget.
    Timeout,
    /// The account is not in the directory.
    UnknownUser,
    /// A host name did not resolve.
    UnknownHost(String),
    /// The reply had an unexpected shape for the request.
    UnexpectedReply,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Tool(s) => write!(f, "tool failed: {s}"),
            HarnessError::Lpm(s) => write!(f, "lpm error: {s}"),
            HarnessError::Timeout => f.write_str("tool did not finish in time"),
            HarnessError::UnknownUser => f.write_str("unknown user"),
            HarnessError::UnknownHost(h) => write!(f, "unknown host {h}"),
            HarnessError::UnexpectedReply => f.write_str("unexpected reply shape"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// The assembled PPM plus conveniences, on backend `R` (the simulation
/// unless said otherwise).
pub struct PpmHarness<R: Runtime = SimRuntime> {
    rt: R,
    users: Arc<UserDirectory>,
    /// Host names indexed by `HostId`.
    hosts: Vec<String>,
}

impl<R: Runtime> std::fmt::Debug for PpmHarness<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PpmHarness")
            .field("hosts", &self.hosts)
            .field("users", &self.users.len())
            .finish()
    }
}

impl PpmHarness {
    /// Starts a builder.
    pub fn builder() -> HarnessBuilder {
        HarnessBuilder::default()
    }

    /// The world, for inspection.
    pub fn world(&self) -> &World {
        self.rt.world()
    }

    /// The world, mutable (fault injection, load hooks).
    pub fn world_mut(&mut self) -> &mut World {
        self.rt.world_mut()
    }
}

impl<R: Runtime> PpmHarness<R> {
    fn booted(mut rt: R, users: Arc<UserDirectory>, hosts: Vec<String>) -> Self {
        // Let daemons boot.
        rt.run(SimDuration::from_millis(50));
        PpmHarness { rt, users, hosts }
    }

    /// The backend clock's current instant.
    pub fn now(&self) -> SimTime {
        self.rt.now()
    }

    /// Enables structured span recording. Off by default: span records
    /// cost an allocation each, so benchmarks leave them disabled.
    pub fn enable_spans(&mut self) {
        self.rt.hub().spans.set_enabled(true);
    }

    /// Recorded span events (empty unless [`PpmHarness::enable_spans`]
    /// was called before the activity of interest).
    pub fn span_events(&mut self) -> Vec<SpanEvent> {
        self.rt.hub().spans.events().to_vec()
    }

    /// Span events rendered as JSONL, one record per line.
    pub fn spans_jsonl(&mut self) -> String {
        ppm_core::obs::spans_jsonl(self.rt.hub().spans.events(), &self.hosts)
    }

    /// Span events rendered as a Chrome `trace_event` document.
    pub fn spans_chrome(&mut self) -> String {
        ppm_core::obs::spans_chrome(self.rt.hub().spans.events(), &self.hosts)
    }

    /// The trace (or one category of it) as display lines — what
    /// `ppm-sim --trace` and `ppm-real --trace` print.
    pub fn trace_render(&mut self, category: Option<TraceCategory>) -> String {
        self.rt.hub().trace.render(category)
    }

    /// Lets the world run for `d` of the backend clock.
    pub fn run_for(&mut self, d: SimDuration) {
        self.rt.run(d);
    }

    /// Resolves a host name.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownHost`].
    pub fn host(&self, name: &str) -> Result<HostId, HarnessError> {
        let at = self.hosts.iter().position(|h| h == name);
        at.map(|i| HostId(i as u32))
            .ok_or_else(|| HarnessError::UnknownHost(name.to_string()))
    }

    /// Host names indexed by `HostId`.
    pub fn host_names(&self) -> Vec<String> {
        self.hosts.clone()
    }

    /// `uid`'s live process on `host` whose command starts with `prefix`
    /// (`"lpm-"` finds the user's LPM), as `ps` at a terminal would.
    pub fn find_proc(&self, host: &str, uid: Uid, prefix: &str) -> Option<Pid> {
        self.rt.find_proc(self.host(host).ok()?, uid, prefix)
    }

    /// Sends `signal` to a process with `from`'s credentials, as `kill`
    /// at a terminal would — outside the PPM.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownHost`], or the kernel's refusal as a tool
    /// error.
    pub fn post_signal(
        &mut self,
        host: &str,
        from: Uid,
        pid: Pid,
        signal: Signal,
    ) -> Result<(), HarnessError> {
        let h = self.host(host)?;
        self.rt
            .post_signal(from, (h, pid), signal)
            .map_err(|e| HarnessError::Tool(e.to_string()))
    }

    /// Spawns a user process directly on a host (as if from a login
    /// shell), outside PPM control until adopted.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownHost`] or the spawn failure as a tool error.
    pub fn spawn_login_process(
        &mut self,
        host: &str,
        uid: Uid,
        spec: SpawnSpec,
    ) -> Result<Pid, HarnessError> {
        let h = self.host(host)?;
        self.rt
            .spawn_user(h, uid, spec)
            .map_err(|e| HarnessError::Tool(e.to_string()))
    }

    /// Launches a tool process on `host` running `script`; returns its
    /// outcome handle immediately (asynchronous).
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownUser`] / [`HarnessError::UnknownHost`].
    pub fn launch_tool(
        &mut self,
        host: &str,
        uid: Uid,
        script: Vec<ToolStep>,
    ) -> Result<ToolHandle, HarnessError> {
        self.launch_tool_pipelined(host, uid, script, 1)
    }

    /// Like [`PpmHarness::launch_tool`], but the tool keeps up to `window`
    /// requests in flight on its LPM connection instead of running the
    /// script in lock-step.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownUser`] / [`HarnessError::UnknownHost`].
    pub fn launch_tool_pipelined(
        &mut self,
        host: &str,
        uid: Uid,
        script: Vec<ToolStep>,
        window: usize,
    ) -> Result<ToolHandle, HarnessError> {
        let h = self.host(host)?;
        let entry = self.users.get(uid).ok_or(HarnessError::UnknownUser)?;
        let (tool, handle) = Tool::new(entry.cred, entry.config.clone(), script);
        let tool = tool.with_pipeline(window);
        self.rt
            .spawn_user(h, uid, SpawnSpec::new("ppm-tool", Box::new(tool)))
            .map_err(|e| HarnessError::Tool(e.to_string()))?;
        Ok(handle)
    }

    /// Runs a pipelined tool script to completion (bounded by `wait`).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Timeout`] if the tool does not finish, or the
    /// launch errors of [`PpmHarness::launch_tool_pipelined`].
    pub fn run_tool_pipelined(
        &mut self,
        host: &str,
        uid: Uid,
        script: Vec<ToolStep>,
        window: usize,
        wait: SimDuration,
    ) -> Result<ToolOutcome, HarnessError> {
        let handle = self.launch_tool_pipelined(host, uid, script, window)?;
        self.await_tool(handle, wait)
    }

    /// Runs a tool script to completion (bounded by `wait`), returning the
    /// outcome.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Timeout`] if the tool does not finish, or the
    /// launch errors of [`PpmHarness::launch_tool`].
    pub fn run_tool(
        &mut self,
        host: &str,
        uid: Uid,
        script: Vec<ToolStep>,
        wait: SimDuration,
    ) -> Result<ToolOutcome, HarnessError> {
        self.run_tool_pipelined(host, uid, script, 1, wait)
    }

    fn await_tool(
        &mut self,
        handle: ToolHandle,
        wait: SimDuration,
    ) -> Result<ToolOutcome, HarnessError> {
        let deadline = self.rt.now() + wait;
        while self.rt.now() < deadline {
            if handle.lock().unwrap().done {
                break;
            }
            self.rt.run(SimDuration::from_millis(20));
        }
        let mut shared = handle.lock().unwrap();
        if !shared.done {
            return Err(HarnessError::Timeout);
        }
        // The tool is finished and this was the only other handle: hand
        // its outcome over instead of copying every reply in it. What is
        // left behind still says `done`, should the exiting tool look.
        let outcome = std::mem::take(&mut *shared);
        shared.done = true;
        Ok(outcome)
    }

    /// Waits, `wait` in all, for tools launched earlier (a launch that
    /// failed stays failed) and returns what each one-step script got.
    pub fn await_replies(
        &mut self,
        tools: Vec<Result<ToolHandle, HarnessError>>,
        wait: SimDuration,
    ) -> Vec<Result<Reply, HarnessError>> {
        let deadline = self.rt.now() + wait;
        let mut reply = |tool| {
            let left = deadline.saturating_since(self.rt.now());
            self.await_tool(tool, left).and_then(first_reply)
        };
        tools.into_iter().map(|tool| reply(tool?)).collect()
    }

    fn one_reply(
        &mut self,
        host: &str,
        uid: Uid,
        dest: &str,
        op: Op,
        wait: SimDuration,
    ) -> Result<Reply, HarnessError> {
        first_reply(self.run_tool(host, uid, vec![ToolStep::new(dest, op)], wait)?)
    }

    /// Default wait budget for synchronous convenience calls.
    const WAIT: SimDuration = SimDuration::from_secs(60);

    /// Takes a snapshot: `dest` is a host name or `"*"` for the whole
    /// computation. A partial result (unreachable hosts) is returned
    /// as-is; callers who care use [`PpmHarness::snapshot_partial`].
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn snapshot(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
    ) -> Result<Vec<ProcRecord>, HarnessError> {
        Ok(self.snapshot_partial(from_host, uid, dest)?.0)
    }

    /// Takes a snapshot and reports which hosts, if any, never answered
    /// the sweep (lost mid-gather or timed out as stragglers).
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn snapshot_partial(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
    ) -> Result<(Vec<ProcRecord>, Vec<String>), HarnessError> {
        let reply = self.one_reply(from_host, uid, dest, Op::Snapshot, Self::WAIT)?;
        let (inner, missing) = split_partial(reply);
        match inner {
            Reply::Snapshot { procs, .. } => Ok((procs, missing)),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Adopts a process into the user's PPM.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn adopt(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
        pid: u32,
        flags: u8,
    ) -> Result<(), HarnessError> {
        match self.one_reply(from_host, uid, dest, Op::Adopt { pid, flags }, Self::WAIT)? {
            Reply::Ok => Ok(()),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Controls a (possibly remote) process.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn control(
        &mut self,
        from_host: &str,
        uid: Uid,
        target: &Gpid,
        action: ControlAction,
    ) -> Result<(), HarnessError> {
        let op = Op::Control {
            pid: target.pid,
            action,
        };
        match self.one_reply(from_host, uid, &target.host.clone(), op, Self::WAIT)? {
            Reply::Ok => Ok(()),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Creates a process on a remote host through the PPM.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn spawn_remote(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
        command: &str,
        logical_parent: Option<Gpid>,
        lifetime: Option<SimDuration>,
    ) -> Result<Gpid, HarnessError> {
        let op = spawn_op(command, logical_parent, lifetime);
        match self.one_reply(from_host, uid, dest, op, Self::WAIT)? {
            Reply::Spawned { gpid } => Ok(gpid),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Fetches exited-process statistics.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn rusage(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
        pid: Option<u32>,
    ) -> Result<Vec<RusageRecord>, HarnessError> {
        let reply = self.one_reply(from_host, uid, dest, Op::Rusage { pid }, Self::WAIT)?;
        match split_partial(reply).0 {
            Reply::Rusage { records } => Ok(records),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Fetches history events.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn history(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
        since: SimTime,
        max: u16,
    ) -> Result<Vec<HistoryRecord>, HarnessError> {
        let op = Op::History {
            since_us: since.as_micros(),
            max,
        };
        let reply = self.one_reply(from_host, uid, dest, op, Self::WAIT)?;
        match split_partial(reply).0 {
            Reply::History { events } => Ok(events),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Fetches the LPM status on a host.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn status(&mut self, from_host: &str, uid: Uid, dest: &str) -> Result<Reply, HarnessError> {
        self.one_reply(from_host, uid, dest, Op::Status, Self::WAIT)
    }

    /// Fetches the LPM internal counters on a host.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn lpm_stats(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
    ) -> Result<Reply, HarnessError> {
        self.one_reply(from_host, uid, dest, Op::Stats, Self::WAIT)
    }

    /// Pulls a remote LPM's metrics registry over the wire
    /// ([`Op::Metrics`]), returning the answering host, its sim-clock
    /// timestamp, and the rows.
    ///
    /// # Errors
    ///
    /// Tool/LPM/timeout errors as [`HarnessError`].
    pub fn metrics_pull(
        &mut self,
        from_host: &str,
        uid: Uid,
        dest: &str,
    ) -> Result<(String, u64, Vec<MetricRow>), HarnessError> {
        match self.one_reply(from_host, uid, dest, Op::Metrics, Self::WAIT)? {
            Reply::Metrics { host, at_us, rows } => Ok((host, at_us, rows)),
            _ => Err(HarnessError::UnexpectedReply),
        }
    }

    /// Every registry in the world as label-sorted sections: the
    /// backend's own section first when it keeps one (the simulation's
    /// `world`: kernel event path plus the event-engine queue
    /// statistics), then each registered LPM registry under its
    /// `host/uid` label.
    pub fn metrics_sections(&self) -> Vec<(String, Vec<MetricRow>)> {
        let snaps = self.rt.metric_snapshots();
        snaps
            .into_iter()
            .map(|(label, snap)| (label, ppm_core::obs::rows(&snap)))
            .collect()
    }

    /// All metrics rendered as the stable text format behind
    /// `ppm-sim --metrics` and `ppm-real --metrics`.
    pub fn metrics_report(&self) -> String {
        ppm_core::obs::render_metrics(&self.metrics_sections())
    }
}

/// The request that creates `command` (an idle process living `lifetime`,
/// or inert).
pub(crate) fn spawn_op(command: &str, parent: Option<Gpid>, lifetime: Option<SimDuration>) -> Op {
    Op::Spawn {
        command: command.to_string(),
        logical_parent: parent,
        lifetime_us: lifetime.map(|d| d.as_micros()),
        work_us: 0,
        cpu_bound: false,
    }
}

/// The reply a finished one-step tool got, if it is not an error.
fn first_reply(outcome: ToolOutcome) -> Result<Reply, HarnessError> {
    if let Some(err) = outcome.error {
        return Err(HarnessError::Tool(err));
    }
    match outcome.replies.into_iter().next() {
        Some((Reply::Err { code, detail }, _)) => {
            Err(HarnessError::Lpm(format!("{code:?}: {detail}")))
        }
        Some((reply, _)) => Ok(reply),
        None => Err(HarnessError::UnexpectedReply),
    }
}

/// Unwraps a partial-result marker: the inner reply plus the hosts that
/// never answered (empty for a complete result).
pub(crate) fn split_partial(reply: Reply) -> (Reply, Vec<String>) {
    match reply {
        Reply::Partial { missing, inner } => (*inner, missing),
        other => (other, Vec::new()),
    }
}
