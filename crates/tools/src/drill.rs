//! The LPM-crash recovery drill, written once for every backend.
//!
//! One script walks the facilities the paper's introduction asks for and
//! the recovery path its Section 5 sketches: **exec** a computation
//! rooted on a home host with jobs on other hosts, **display** it with a
//! whole-network snapshot sweep, **locate** its execution sites, then
//! SIGKILL one host's LPM out from under its live jobs and wait until
//! the pmd has **respawned** it, the replacement has **re-adopted**
//! exactly the pre-crash forest node set, and it **serves new work**.
//!
//! The script is generic over [`Runtime`] and waits only by polling the
//! backend clock through the harness, so the simulation's `fault_e2e`
//! test, the real loopback e2e test and the `ppm-real` demo all run this
//! one body; each adds only its own extras to the [`DrillReport`].

use std::collections::BTreeSet;

use ppm_harness::harness::{PpmHarness, Runtime, Signal};
use ppm_proto::types::{Gpid, ProcRecord, WireProcState};
use ppm_simnet::time::SimDuration;
use ppm_simos::ids::{Pid, Uid};

use crate::computation::{locate, ComputationSites};

/// Backend-clock budget for the pmd to notice the unclean exit and
/// respawn the LPM.
const RESPAWN_BUDGET: SimDuration = SimDuration::from_secs(20);
/// Backend-clock budget for the respawned LPM to re-adopt its survivors.
const READOPT_BUDGET: SimDuration = SimDuration::from_secs(30);

/// What the drill observed.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The computation's root, on the home host.
    pub root: Gpid,
    /// The jobs, one per entry of the `job_hosts` argument, in order.
    pub jobs: Vec<Gpid>,
    /// The display sweep taken before any kill.
    pub procs: Vec<ProcRecord>,
    /// Where the computation executes, per `locate`.
    pub sites: ComputationSites,
    /// The kill → respawn → re-adopt leg; `None` when no victim was named.
    pub recovery: Option<Recovery>,
}

/// The recovery leg of a [`DrillReport`].
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The LPM process that was SIGKILLed.
    pub victim: Pid,
    /// Its replacement.
    pub respawned: Pid,
    /// Kill → a different LPM pid visible on the host.
    pub respawn_after: SimDuration,
    /// The victim host's forest node set, equal before and after.
    pub forest: BTreeSet<u32>,
    /// Kill → a sweep showing the pre-crash node set again.
    pub readopt_after: SimDuration,
    /// The job the respawned LPM created afterwards.
    pub after: Gpid,
}

/// Adopted, live pids on `host` in a snapshot: the forest's node set
/// there.
pub fn forest_nodes(procs: &[ProcRecord], host: &str) -> BTreeSet<u32> {
    procs
        .iter()
        .filter(|p| p.gpid.host == host && p.adopted && p.state != WireProcState::Dead)
        .map(|p| p.gpid.pid)
        .collect()
}

/// Runs the drill for `uid` from `home`: a root on `home`, one job per
/// entry of `job_hosts` (its logical children), display, locate, and —
/// when `victim` names a host — the LPM kill and recovery there.
///
/// # Errors
///
/// The first step that fails or observes the wrong thing, in words.
pub fn recovery_drill<R: Runtime>(
    ppm: &mut PpmHarness<R>,
    uid: Uid,
    home: &str,
    job_hosts: &[&str],
    victim: Option<&str>,
) -> Result<DrillReport, String> {
    // Exec. The first spawn walks the whole Figure-2 chain (inetd → pmd →
    // fresh LPM) on home, the first one on each other host walks it there.
    let root = ppm
        .spawn_remote(home, uid, home, "root", None, None)
        .map_err(|e| format!("exec root on {home}: {e}"))?;
    let mut jobs = Vec::new();
    for (i, host) in job_hosts.iter().enumerate() {
        let job = ppm
            .spawn_remote(
                home,
                uid,
                host,
                &format!("job-{i}"),
                Some(root.clone()),
                None,
            )
            .map_err(|e| format!("exec job-{i} on {host}: {e}"))?;
        jobs.push(job);
    }

    // Display: the distributed sweep gathers every managed process.
    let procs = ppm
        .snapshot(home, uid, "*")
        .map_err(|e| format!("display: {e}"))?;
    for g in jobs.iter().chain([&root]) {
        if !forest_nodes(&procs, &g.host).contains(&g.pid) {
            return Err(format!("display does not show {g} live and managed"));
        }
    }

    // Locate: exactly the hosts the computation was placed on.
    let sites = locate(ppm, home, uid, &root).map_err(|e| format!("locate: {e}"))?;
    let placed: BTreeSet<&str> = job_hosts.iter().copied().chain([home]).collect();
    if !sites.hosts.iter().map(String::as_str).eq(placed) {
        return Err(format!("locate found {:?}", sites.hosts));
    }

    let mut report = DrillReport {
        root,
        jobs,
        procs,
        sites,
        recovery: None,
    };
    let Some(host) = victim else {
        return Ok(report);
    };

    // SIGKILL the LPM out from under its live jobs; they survive it.
    let forest = forest_nodes(&report.procs, host);
    let lpm = |ppm: &PpmHarness<R>| ppm.find_proc(host, uid, "lpm-");
    let victim = lpm(ppm).ok_or_else(|| format!("{host} has no LPM"))?;
    ppm.post_signal(host, Uid::ROOT, victim, Signal::Kill)
        .map_err(|e| format!("kill {host} LPM: {e}"))?;
    let killed = ppm.now();

    // The pmd (the LPM's real parent) sees the unclean exit and respawns.
    let respawned = loop {
        match lpm(ppm) {
            Some(pid) if pid != victim => break pid,
            _ if ppm.now().saturating_since(killed) >= RESPAWN_BUDGET => {
                return Err(format!("{host} LPM was not respawned within budget"));
            }
            _ => ppm.run_for(SimDuration::from_millis(50)),
        }
    };
    let respawn_after = ppm.now().saturating_since(killed);

    // The replacement re-adopts from stable storage shortly after boot:
    // poll until the sweep shows the pre-crash node set again.
    loop {
        let procs = ppm
            .snapshot(home, uid, "*")
            .map_err(|e| format!("display after respawn: {e}"))?;
        let now = forest_nodes(&procs, host);
        if now == forest {
            break;
        }
        if ppm.now().saturating_since(killed) >= READOPT_BUDGET {
            return Err(format!(
                "re-adoption did not restore the forest: before={forest:?} after={now:?}"
            ));
        }
        ppm.run_for(SimDuration::from_millis(250));
    }
    let readopt_after = ppm.now().saturating_since(killed);

    // And the respawned LPM serves new requests.
    let after = ppm
        .spawn_remote(home, uid, host, "after", None, None)
        .map_err(|e| format!("exec on the respawned {host} LPM: {e}"))?;
    report.recovery = Some(Recovery {
        victim,
        respawned,
        respawn_after,
        forest,
        readopt_after,
        after,
    });
    Ok(report)
}
