//! Ablations of the design choices the paper discusses.
//!
//! * **Handler reuse** (§6): "processes that have handled a request may be
//!   given further requests, rather than simply creating new processes".
//! * **Route learning** (§4): reply-carried routes "allow quick routing of
//!   messages affecting processes in topologically distant hosts".
//! * **pmd stable storage** (§5): the suggested-but-unimplemented
//!   hardening of the daemon registry.
//! * **Broadcast retention window** (§4): "the appropriate time window for
//!   retaining old broadcast requests is a configuration parameter".
//! * **Connection-graph density** (§4): on-demand low-connectivity graphs
//!   vs a full mesh — "multiple interconnections within one ethernet do
//!   not increase the probability of the services being operational".

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_core::pmd::PmdOptions;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::{ControlAction, Op, Reply};
use ppm_runtime::signal::Signal;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);

fn two_hosts(cfg: PpmConfig, seed: u64) -> PpmHarness {
    PpmHarness::builder()
        .seed(seed)
        .host("h0", CpuClass::Vax780)
        .host("h1", CpuClass::Vax750)
        .link("h0", "h1")
        .user(USER, 0x1986, &["h0"], cfg)
        .build()
}

/// Handler-pool ablation result: one-hop stop latency in three regimes.
#[derive(Debug, Clone, Copy)]
pub struct HandlerReuse {
    /// Cold pool: every hand-off forks.
    pub cold_ms: f64,
    /// Warm pool: the previous request's handlers are reused.
    pub warm_ms: f64,
    /// Reuse disabled: forks even when handlers idle.
    pub no_reuse_repeat_ms: f64,
}

/// Measures the handler-reuse effect on a one-hop stop.
pub fn handler_reuse(seed: u64) -> HandlerReuse {
    let stop = |ppm: &mut PpmHarness, pid: u32| -> f64 {
        let outcome = ppm
            .run_tool(
                "h0",
                USER,
                vec![ToolStep::new(
                    "h1",
                    Op::Control {
                        pid,
                        action: ControlAction::Stop,
                    },
                )],
                SimDuration::from_secs(30),
            )
            .expect("tool");
        outcome.elapsed(0).expect("reply").as_millis_f64()
    };

    // Reuse enabled: cold then immediately repeated (warm).
    let mut ppm = two_hosts(PpmConfig::default(), seed);
    let g = ppm
        .spawn_remote("h0", USER, "h1", "victim", None, None)
        .expect("spawn");
    ppm.run_for(SimDuration::from_secs(25)); // drain pools
    let cold_ms = stop(&mut ppm, g.pid);
    let warm_ms = stop(&mut ppm, g.pid);

    // Reuse disabled: repeat is as expensive as cold.
    let cfg = PpmConfig {
        handler_reuse: false,
        ..PpmConfig::default()
    };
    let mut ppm = two_hosts(cfg, seed);
    let g = ppm
        .spawn_remote("h0", USER, "h1", "victim", None, None)
        .expect("spawn");
    ppm.run_for(SimDuration::from_secs(25));
    let _first = stop(&mut ppm, g.pid);
    let no_reuse_repeat_ms = stop(&mut ppm, g.pid);

    HandlerReuse {
        cold_ms,
        warm_ms,
        no_reuse_repeat_ms,
    }
}

/// Route-learning ablation result.
#[derive(Debug, Clone, Copy)]
pub struct RouteLearning {
    /// Latency of controlling a distant process right after a broadcast
    /// taught (or did not teach) the route.
    pub control_ms: f64,
    /// Whether the origin had to build a brand-new sibling channel
    /// (inetd→pmd→LPM chain) to reach the distant host.
    pub new_channel_built: bool,
}

/// Chain `root — a — b` with sibling edges root↔a and a↔b only; after a
/// broadcast, control a process on `b` from `root`.
pub fn route_learning(enabled: bool, seed: u64) -> RouteLearning {
    let cfg = PpmConfig {
        route_learning: enabled,
        ..PpmConfig::default()
    };
    // The trace says whether the origin dialled b: it is read below.
    let mut ppm = PpmHarness::builder()
        .seed(seed)
        .trace(true)
        .host("root", CpuClass::Vax780)
        .host("a", CpuClass::Vax750)
        .host("b", CpuClass::Vax750)
        .link("root", "a")
        .link("a", "b")
        .user(USER, 0x1986, &["root"], cfg)
        .build();
    // Sibling edges: root→a and a→b (b is distant from root).
    ppm.spawn_remote("root", USER, "a", "j-a", None, None)
        .expect("spawn a");
    let gb = ppm
        .spawn_remote("a", USER, "b", "j-b", None, None)
        .expect("spawn b");
    // A broadcast from root covers b through a and (optionally) teaches
    // the route.
    let _ = ppm.snapshot("root", USER, "*").expect("snapshot");
    ppm.run_for(SimDuration::from_secs(25));

    let mark = ppm.world().core().trace().len();
    let outcome = ppm
        .run_tool(
            "root",
            USER,
            vec![ToolStep::new(
                "b",
                Op::Control {
                    pid: gb.pid,
                    action: ControlAction::Stop,
                },
            )],
            SimDuration::from_secs(30),
        )
        .expect("tool");
    let control_ms = outcome.elapsed(0).expect("reply").as_millis_f64();
    let root_id = ppm.host("root").expect("host");
    let new_channel_built = ppm
        .world()
        .core()
        .trace()
        .entries()
        .skip(mark)
        .any(|e| e.host == Some(root_id) && e.text().contains("connecting to b:1 "));
    RouteLearning {
        control_ms,
        new_channel_built,
    }
}

/// pmd stable-storage ablation result.
#[derive(Debug, Clone, Copy)]
pub struct PmdStable {
    /// Dead duplicate LPM processes left behind after a pmd-only crash.
    pub duplicate_lpms: usize,
    /// Whether the recreated pmd correctly reported the LPM as existing.
    pub found_existing: bool,
}

/// Crashes pmd (only), contacts the PPM again, and inspects the damage.
pub fn pmd_stable(stable_storage: bool, seed: u64) -> PmdStable {
    let mut ppm = PpmHarness::builder()
        .seed(seed)
        .host("h0", CpuClass::Vax780)
        .user(USER, 0x1986, &["h0"], PpmConfig::default())
        .pmd_options(PmdOptions {
            stable_storage,
            ..PmdOptions::default()
        })
        .build();
    ppm.spawn_remote("h0", USER, "h0", "job", None, None)
        .expect("spawn");
    let h0 = ppm.host("h0").expect("host");
    let pmd_pid = ppm.find_proc("h0", Uid::ROOT, "pmd").expect("pmd alive");
    ppm.post_signal("h0", Uid::ROOT, pmd_pid, Signal::Kill)
        .expect("kill pmd");
    ppm.run_for(SimDuration::from_secs(1));

    let outcome = ppm
        .run_tool(
            "h0",
            USER,
            vec![ToolStep::new("h0", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .expect("tool");
    ppm.run_for(SimDuration::from_secs(2));
    let duplicate_lpms = ppm
        .world()
        .core()
        .kernel(h0)
        .processes()
        .filter(|p| p.command.starts_with("lpm") && !p.is_alive())
        .count();
    PmdStable {
        duplicate_lpms,
        found_existing: !outcome.created_lpm,
    }
}

/// Broadcast retention-window ablation result.
#[derive(Debug, Clone, Copy)]
pub struct BcastWindow {
    /// Duplicates suppressed (cheap: one `BcastDone`). While a wave is in
    /// progress its `bcasts` entry suppresses copies regardless of the
    /// window — the echo wave cannot complete at a host before that host's
    /// duplicates have arrived — so this count is window-independent.
    pub suppressed: usize,
    /// Full wave processings (gather + respond + forward); ideally one per
    /// remote host.
    pub processings: usize,
    /// Hosts other than the originator (the ideal processing count).
    pub remote_hosts: usize,
    /// Stamps forgotten after the wave settled. This is what the window
    /// actually controls: a healthy window keeps completed-wave stamps
    /// remembered (replays stay suppressed), a too-short window purges
    /// them, reopening the door to reprocessing stale requests.
    pub stamps_purged: usize,
}

/// A four-host full sibling mesh: every broadcast reaches each non-origin
/// host several times. In-flight duplicates are suppressed by the active
/// wave state; the retention window determines whether the stamps are still
/// recognized after the wave completes.
pub fn bcast_window(window: SimDuration, seed: u64) -> BcastWindow {
    let cfg = PpmConfig {
        bcast_window: window,
        housekeeping_interval: SimDuration::from_millis(20),
        ..PpmConfig::default()
    };
    let hosts = ["r", "a", "b", "c"];
    // Suppressions and purges are counted from the trace.
    let mut b = PpmHarness::builder().seed(seed).trace(true);
    for (i, h) in hosts.iter().enumerate() {
        b = b.host(
            *h,
            if i == 0 {
                CpuClass::Vax780
            } else {
                CpuClass::Vax750
            },
        );
    }
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            b = b.link(hosts[i], hosts[j]);
        }
    }
    let mut ppm = b.user(USER, 0x1986, &["r"], cfg).build();
    // Full sibling mesh with one process per pair.
    for from in hosts {
        for to in hosts {
            if from != to {
                ppm.spawn_remote(from, USER, to, &format!("p{from}{to}"), None, None)
                    .expect("spawn");
            }
        }
    }
    ppm.run_for(SimDuration::from_secs(25));

    let mark = ppm.world().core().trace().len();
    let outcome = ppm
        .run_tool(
            "r",
            USER,
            vec![ToolStep::new("*", Op::Snapshot)],
            SimDuration::from_secs(30),
        )
        .expect("tool");
    assert!(outcome.error.is_none());
    // Settle long enough for a too-short window to purge the wave's stamps
    // but well inside the healthy (60 s) retention.
    ppm.run_for(SimDuration::from_secs(5));
    let entries = || ppm.world().core().trace().entries().skip(mark);
    let suppressed = entries()
        .filter(|e| e.text().starts_with("suppress duplicate"))
        .count();
    let processings = entries()
        .filter(|e| e.text().starts_with("receive "))
        .count();
    let stamps_purged = entries()
        .filter_map(|e| {
            e.text()
                .strip_prefix("stamp window purge ")?
                .parse::<usize>()
                .ok()
        })
        .sum();
    BcastWindow {
        suppressed,
        processings,
        remote_hosts: hosts.len() - 1,
        stamps_purged,
    }
}

/// Connection-density ablation result.
#[derive(Debug, Clone, Copy)]
pub struct Density {
    /// Sibling channels in the whole PPM.
    pub channels: usize,
    /// Elapsed ms of a network-wide snapshot.
    pub snapshot_ms: f64,
}

/// Builds `n` hosts on one LAN with either a star or a full-mesh sibling
/// graph and measures a global snapshot.
pub fn density(n: usize, mesh: bool, seed: u64) -> Density {
    let mut b = PpmHarness::builder().seed(seed);
    for i in 0..n {
        b = b.host(
            format!("h{i}"),
            if i == 0 {
                CpuClass::Vax780
            } else {
                CpuClass::Vax750
            },
        );
    }
    // One ethernet: everyone links to everyone (the medium is shared).
    for i in 0..n {
        for j in (i + 1)..n {
            b = b.link(format!("h{i}"), format!("h{j}"));
        }
    }
    let mut ppm = b.user(USER, 0x1986, &["h0"], PpmConfig::default()).build();

    // Star: h0 spawns on everyone. Mesh: every pair connects.
    for i in 1..n {
        ppm.spawn_remote("h0", USER, &format!("h{i}"), &format!("p{i}"), None, None)
            .expect("spawn");
    }
    if mesh {
        for i in 1..n {
            for j in 1..n {
                if i != j {
                    ppm.spawn_remote(
                        &format!("h{i}"),
                        USER,
                        &format!("h{j}"),
                        &format!("m{i}{j}"),
                        None,
                        None,
                    )
                    .expect("mesh spawn");
                }
            }
        }
    }
    ppm.run_for(SimDuration::from_secs(25));

    // Count sibling channels from each LPM's status.
    let mut channels = 0usize;
    for i in 0..n {
        if let Ok(Reply::Status { siblings, .. }) = ppm.status("h0", USER, &format!("h{i}")) {
            channels += siblings.len();
        }
    }
    channels /= 2; // each channel counted from both ends

    ppm.run_for(SimDuration::from_secs(25));
    let outcome = ppm
        .run_tool(
            "h0",
            USER,
            vec![ToolStep::new("*", Op::Snapshot)],
            SimDuration::from_secs(30),
        )
        .expect("tool");
    let snapshot_ms = outcome.elapsed(0).expect("reply").as_millis_f64();
    Density {
        channels,
        snapshot_ms,
    }
}

/// Recovery-policy comparison result.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryComparison {
    /// Simulated seconds from the CCS host's crash until a surviving LPM
    /// reports a new, different CCS.
    pub reelection_secs: f64,
}

/// Measures CCS re-election convergence after the coordinator host
/// crashes, under either recovery policy.
pub fn recovery_comparison(name_server: bool, seed: u64) -> RecoveryComparison {
    use ppm_core::config::RecoveryPolicy;
    let mut cfg = PpmConfig::fast_recovery();
    if name_server {
        cfg.recovery_policy = RecoveryPolicy::NameServer { host: "ns".into() };
    }
    let recovery: &[&str] = if name_server { &[] } else { &["alpha", "beta"] };
    let mut ppm = PpmHarness::builder()
        .seed(seed)
        .host("ns", CpuClass::Vax780)
        .host("alpha", CpuClass::Vax750)
        .host("beta", CpuClass::Vax750)
        .link("ns", "alpha")
        .link("ns", "beta")
        .link("alpha", "beta")
        .user(USER, 0x1986, recovery, cfg)
        .build();
    // LPMs on alpha (CCS under both policies: first claimant / top of
    // list) and beta.
    ppm.spawn_remote("alpha", USER, "alpha", "j1", None, None)
        .expect("spawn");
    ppm.spawn_remote("alpha", USER, "beta", "j2", None, None)
        .expect("spawn");
    ppm.run_for(SimDuration::from_secs(3));

    let alpha = ppm.host("alpha").expect("host");
    let t0 = ppm.now();
    ppm.world_mut()
        .schedule_crash(alpha, SimDuration::from_millis(1));

    // Poll beta's view until the CCS changes.
    let deadline = t0 + SimDuration::from_secs(120);
    loop {
        ppm.run_for(SimDuration::from_secs(1));
        if let Ok(Reply::Status { ccs, .. }) = ppm.status("beta", USER, "beta") {
            if ccs != "alpha" && !ccs.is_empty() {
                break;
            }
        }
        assert!(ppm.now() < deadline, "re-election never converged");
    }
    RecoveryComparison {
        reelection_secs: ppm.now().saturating_since(t0).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_makes_repeats_cheap() {
        let r = handler_reuse(5);
        assert!(
            r.warm_ms < r.cold_ms * 0.5,
            "warm {:.1}ms vs cold {:.1}ms",
            r.warm_ms,
            r.cold_ms
        );
        assert!(
            r.no_reuse_repeat_ms > r.warm_ms * 2.0,
            "without reuse, repeats stay expensive: {:.1}ms vs {:.1}ms",
            r.no_reuse_repeat_ms,
            r.warm_ms
        );
    }

    #[test]
    fn route_learning_avoids_new_channels() {
        let with = route_learning(true, 9);
        let without = route_learning(false, 9);
        assert!(!with.new_channel_built, "learned route relays via a");
        assert!(
            without.new_channel_built,
            "without learning, a direct channel is built"
        );
    }

    #[test]
    fn stable_storage_prevents_duplicates() {
        let with = pmd_stable(true, 4);
        assert_eq!(with.duplicate_lpms, 0);
        assert!(with.found_existing);
        let without = pmd_stable(false, 4);
        assert!(without.duplicate_lpms >= 1);
        assert!(!without.found_existing);
    }

    #[test]
    fn healthy_window_retains_stamps() {
        let healthy = bcast_window(SimDuration::from_secs(60), 8);
        assert!(
            healthy.suppressed >= 1,
            "mesh produces duplicates: {healthy:?}"
        );
        assert_eq!(
            healthy.processings, healthy.remote_hosts,
            "each host processes the wave exactly once: {healthy:?}"
        );
        assert_eq!(
            healthy.stamps_purged, 0,
            "a healthy window outlives the run: {healthy:?}"
        );
        let short = bcast_window(SimDuration::from_millis(60), 8);
        assert_eq!(
            short.processings, short.remote_hosts,
            "in-flight duplicates are suppressed by the active wave: {short:?}"
        );
        assert!(
            short.stamps_purged > 0,
            "a too-short window forgets completed-wave stamps: {short:?}"
        );
    }

    #[test]
    fn both_recovery_policies_reelect() {
        let file = recovery_comparison(false, 6);
        let ns = recovery_comparison(true, 6);
        assert!(file.reelection_secs < 60.0, "{file:?}");
        assert!(ns.reelection_secs < 60.0, "{ns:?}");
    }

    #[test]
    fn mesh_has_more_channels_than_star() {
        let star = density(4, false, 2);
        let mesh = density(4, true, 2);
        assert!(mesh.channels > star.channels, "star {star:?} mesh {mesh:?}");
        assert_eq!(star.channels, 3);
    }
}
