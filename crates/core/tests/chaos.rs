//! Randomized fault-injection ("chaos") runs.
//!
//! Seeded random interleavings of user operations (remote creation,
//! control, snapshots, history) with faults (host crashes, restarts,
//! partitions, pmd/LPM kills). The assertions are liveness and sanity,
//! not specific outcomes: every operation either succeeds or fails with
//! a clean error; the world never panics; snapshots never report
//! processes from dead hosts; and after the dust settles the PPM still
//! serves requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_harness::harness::{HarnessError, PpmHarness, Runtime};
use ppm_proto::codec::{encode_batch, Wire};
use ppm_proto::msg::{BcastPart, ControlAction, Msg, Op, Reply};
use ppm_proto::types::{Gpid, ProcRecord, WireProcState};
use ppm_runtime::program::{ConnEvent, Program, SpawnSpec};
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::{ConnId, Uid};

const USER: Uid = Uid(100);
const HOSTS: [&str; 4] = ["h0", "h1", "h2", "h3"];

fn harness(seed: u64) -> PpmHarness {
    let mut b = PpmHarness::builder().seed(seed);
    for (i, h) in HOSTS.iter().enumerate() {
        b = b.host(
            *h,
            if i % 2 == 0 {
                CpuClass::Vax780
            } else {
                CpuClass::Sun2
            },
        );
    }
    // Ring plus one chord: stays connected under any single link failure.
    b = b
        .link("h0", "h1")
        .link("h1", "h2")
        .link("h2", "h3")
        .link("h3", "h0")
        .link("h0", "h2");
    b.user(USER, 0xC4A05, &["h0", "h1"], PpmConfig::fast_recovery())
        .build()
}

/// One chaos episode: random ops + faults for `steps` rounds.
fn run_episode(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ppm = harness(seed);
    let mut live_procs: Vec<Gpid> = Vec::new();
    let mut downed: Vec<&str> = Vec::new();
    let mut cut_links: Vec<(&str, &str)> = Vec::new();

    let up_host = |rng: &mut StdRng, downed: &Vec<&str>| -> Option<&'static str> {
        let ups: Vec<&str> = HOSTS
            .iter()
            .filter(|h| !downed.contains(h))
            .copied()
            .collect();
        if ups.is_empty() {
            None
        } else {
            Some(ups[rng.gen_range(0..ups.len())])
        }
    };

    for step in 0..steps {
        let dice = rng.gen_range(0..100);
        match dice {
            // ---- user operations -------------------------------------
            0..=34 => {
                // Remote creation between two up hosts.
                let (Some(from), Some(to)) =
                    (up_host(&mut rng, &downed), up_host(&mut rng, &downed))
                else {
                    continue;
                };
                match ppm.spawn_remote(from, USER, to, &format!("job-{step}"), None, None) {
                    Ok(g) => live_procs.push(g),
                    Err(HarnessError::UnknownHost(_)) => panic!("hosts are static"),
                    Err(_) => {} // clean failure under faults is fine
                }
            }
            35..=54 => {
                // Control a random known process.
                if live_procs.is_empty() {
                    continue;
                }
                let Some(from) = up_host(&mut rng, &downed) else {
                    continue;
                };
                let idx = rng.gen_range(0..live_procs.len());
                let target = live_procs[idx].clone();
                let action = match rng.gen_range(0..3) {
                    0 => ControlAction::Stop,
                    1 => ControlAction::Background,
                    _ => ControlAction::Kill,
                };
                let res = ppm.control(from, USER, &target, action);
                if matches!(action, ControlAction::Kill) && res.is_ok() {
                    live_procs.remove(idx);
                }
            }
            55..=64 => {
                // Distributed snapshot; validate it.
                let Some(from) = up_host(&mut rng, &downed) else {
                    continue;
                };
                if let Ok(procs) = ppm.snapshot(from, USER, "*") {
                    for p in &procs {
                        assert!(
                            !downed.contains(&p.gpid.host.as_str()),
                            "snapshot reported {} from a crashed host",
                            p.gpid
                        );
                    }
                }
            }
            65..=69 => {
                // History query.
                let Some(from) = up_host(&mut rng, &downed) else {
                    continue;
                };
                let _ = ppm.history(from, USER, from, SimTime::ZERO, 100);
            }
            // ---- faults ------------------------------------------------
            70..=79 => {
                // Crash a host (keep at least two up).
                if downed.len() >= HOSTS.len() - 2 {
                    continue;
                }
                let Some(victim) = up_host(&mut rng, &downed) else {
                    continue;
                };
                let h = ppm.host(victim).unwrap();
                ppm.world_mut()
                    .schedule_crash(h, SimDuration::from_millis(1));
                downed.push(victim);
                live_procs.retain(|g| g.host != victim);
            }
            80..=86 => {
                // Restart a downed host.
                if let Some(victim) = downed.pop() {
                    let h = ppm.host(victim).unwrap();
                    ppm.world_mut()
                        .schedule_restart(h, SimDuration::from_millis(1));
                }
            }
            87..=92 => {
                // Cut or heal one link.
                let links = [
                    ("h0", "h1"),
                    ("h1", "h2"),
                    ("h2", "h3"),
                    ("h3", "h0"),
                    ("h0", "h2"),
                ];
                let l = links[rng.gen_range(0..links.len())];
                let a = ppm.host(l.0).unwrap();
                let b = ppm.host(l.1).unwrap();
                if let Some(pos) = cut_links.iter().position(|&c| c == l) {
                    cut_links.remove(pos);
                    ppm.world_mut()
                        .schedule_link(a, b, true, SimDuration::from_millis(1));
                } else {
                    cut_links.push(l);
                    ppm.world_mut()
                        .schedule_link(a, b, false, SimDuration::from_millis(1));
                }
            }
            93..=96 => {
                // Kill a pmd or an LPM outright (process-level failure).
                let Some(victim) = up_host(&mut rng, &downed) else {
                    continue;
                };
                let h = ppm.host(victim).unwrap();
                let daemon = ppm
                    .world()
                    .kernel(h)
                    .processes()
                    .find(|p| (p.command == "pmd" || p.command.starts_with("lpm")) && p.is_alive())
                    .map(|p| p.pid);
                if let Some(pid) = daemon {
                    let _ = ppm
                        .world_mut()
                        .post_signal(Uid::ROOT, (h, pid), Signal::Kill);
                }
            }
            _ => {
                // Let time pass.
                ppm.run_for(SimDuration::from_secs(rng.gen_range(1..5)));
            }
        }
        ppm.run_for(SimDuration::from_millis(rng.gen_range(50..500)));
    }

    // Settle: heal everything and verify the PPM still works end to end.
    for l in cut_links {
        let a = ppm.host(l.0).unwrap();
        let b = ppm.host(l.1).unwrap();
        ppm.world_mut()
            .schedule_link(a, b, true, SimDuration::from_millis(1));
    }
    for victim in downed {
        let h = ppm.host(victim).unwrap();
        ppm.world_mut()
            .schedule_restart(h, SimDuration::from_millis(1));
    }
    ppm.run_for(SimDuration::from_secs(30));

    let g = ppm
        .spawn_remote("h0", USER, "h3", "after-the-storm", None, None)
        .expect("PPM recovered and serves requests");
    let procs = ppm
        .snapshot("h0", USER, "*")
        .expect("snapshot works after recovery");
    assert!(procs.iter().any(|p| p.gpid == g));
    let outcome = ppm
        .run_tool(
            "h0",
            USER,
            vec![ToolStep::new("h3", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .expect("ping works after recovery");
    assert!(outcome.error.is_none());
}

#[test]
fn chaos_episode_seed_1() {
    run_episode(0xC4A0_5000 + 1, 40);
}

#[test]
fn chaos_episode_seed_2() {
    run_episode(0xC4A0_5000 + 2, 40);
}

#[test]
fn chaos_episode_seed_3() {
    run_episode(0xC4A0_5000 + 3, 40);
}

#[test]
fn chaos_episode_seed_4() {
    run_episode(0xC4A0_5000 + 4, 60);
}

#[test]
fn chaos_episode_seed_5() {
    run_episode(0xC4A0_5000 + 5, 60);
}

/// Chaos episodes are reproducible: the same seed yields the same final
/// simulated clock.
#[test]
fn chaos_is_deterministic() {
    let clock = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ppm = harness(seed);
        for _ in 0..10 {
            let to = HOSTS[rng.gen_range(0..HOSTS.len())];
            let _ = ppm.spawn_remote("h0", USER, to, "j", None, None);
            ppm.run_for(SimDuration::from_millis(rng.gen_range(50..500)));
        }
        ppm.now()
    };
    assert_eq!(clock(42), clock(42));
}

/// A relay that loses a child mid-gather still answers with a partial
/// aggregate: the origin's sweep completes and marks exactly the
/// unreachable hosts, with every reachable host's slice intact.
#[test]
fn relay_losing_a_child_mid_gather_yields_a_partial_aggregate() {
    let chain = ["c0", "c1", "c2", "c3"];
    let mut b = PpmHarness::builder().seed(0xBCA57);
    for h in chain {
        b = b.host(h, CpuClass::Vax780);
    }
    b = b.link("c0", "c1").link("c1", "c2").link("c2", "c3");
    let mut ppm = b
        .user(USER, 0xBCA57, &chain, PpmConfig::fast_recovery())
        .build();

    // Spawn each host's process from its chain predecessor so the
    // on-demand sibling graph is the chain itself: c1 and c2 become true
    // relays on the broadcast cover tree.
    for i in 1..chain.len() {
        ppm.spawn_remote(
            chain[i - 1],
            USER,
            chain[i],
            &format!("job-{}", chain[i]),
            None,
            None,
        )
        .expect("spawn succeeds on the healthy chain");
    }
    ppm.run_for(SimDuration::from_secs(1));

    // Sever the c2–c3 edge just before the sweep. The sibling channel is
    // still registered at c2, so the relay forwards the wave to c3 and
    // waits — then the break surfaces mid-gather and c2 must fall back to
    // a partial aggregate naming exactly its lost child.
    let c2 = ppm.host("c2").unwrap();
    let c3 = ppm.host("c3").unwrap();
    ppm.world_mut()
        .schedule_link(c2, c3, false, SimDuration::from_millis(1));
    ppm.run_for(SimDuration::from_millis(50));

    let (procs, missing) = ppm
        .snapshot_partial("c0", USER, "*")
        .expect("partial sweep still completes");
    assert_eq!(
        missing,
        vec!["c3".to_string()],
        "exactly the unreachable host is marked missing"
    );
    for h in ["c1", "c2"] {
        assert!(
            procs.iter().any(|p| p.gpid.host == h),
            "reachable host {h} contributed its slice"
        );
    }
    assert!(
        procs.iter().all(|p| p.gpid.host != "c3"),
        "no stale records from the lost subtree"
    );

    // A later sweep over the healed chain is complete again.
    let h2 = ppm.host("c2").unwrap();
    let h3 = ppm.host("c3").unwrap();
    ppm.world_mut()
        .schedule_link(h2, h3, true, SimDuration::from_millis(1));
    ppm.run_for(SimDuration::from_secs(20));
    let (_, missing) = ppm
        .snapshot_partial("c0", USER, "*")
        .expect("sweep after heal");
    assert!(missing.is_empty(), "healed sweep is complete: {missing:?}");
}

/// A process that joins the sibling graph of the LPM on its own host as
/// the relay of a subtree called `ghost`, and answers every wave with an
/// aggregate the receiver cannot use.
struct CorruptChild {
    /// Damages a well-formed batch holding `ghost`'s one-record slice.
    damage: fn(&mut Vec<u8>),
}

impl Program for CorruptChild {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let _ = sys.connect(sys.host(), ppm_core::config::lpm_port(USER));
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if matches!(event, ConnEvent::Established) {
            let hello = Msg::Hello {
                user: USER.0,
                host: "ghost".into(),
                is_tool: false,
                ccs: Default::default(),
                epoch: 0,
                proof: ppm_core::auth::UserCred::new(USER, 0xBCA57).proof(),
            };
            let _ = sys.send(conn, hello.to_bytes());
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: bytes::Bytes) {
        let Ok(Msg::Bcast { stamp, route, .. }) = Msg::from_bytes(&data) else {
            return;
        };
        let mut batch = encode_batch(&[BcastPart {
            host: "ghost".into(),
            reply: Reply::Snapshot {
                host: "ghost".into(),
                procs: vec![ProcRecord {
                    gpid: Gpid::new("ghost", 66),
                    ppid: 1,
                    logical_parent: None,
                    command: "haunt".into(),
                    state: WireProcState::Running,
                    started_us: 1,
                    cpu_us: 2,
                    adopted: true,
                }],
            },
            route,
        }])
        .to_vec();
        (self.damage)(&mut batch);
        let agg = Msg::BcastAgg {
            stamp: stamp.clone(),
            parts: batch.into(),
            missing: Vec::new(),
        };
        let _ = sys.send(conn, agg.to_bytes());
        let _ = sys.send(conn, Msg::BcastDone { stamp }.to_bytes());
    }

    fn name(&self) -> &str {
        "corrupt-child"
    }
}

/// A child whose aggregate cannot be read has not answered, and the tool
/// is told so: the sweep comes back `Partial`, naming that child, with
/// every readable slice intact — not complete-looking with a hole.
#[test]
fn an_unreadable_aggregate_names_its_sender_missing() {
    // Framing intact, one record's state tag out of range: caught where
    // the parts are read, at the originator.
    let bad_record: fn(&mut Vec<u8>) = |batch| {
        let command = batch.windows(5).position(|w| w == b"haunt").unwrap();
        batch[command + 5] = 9;
    };
    // Cut short: caught by the first LPM that would splice it.
    let bad_framing: fn(&mut Vec<u8>) = |batch| batch.truncate(batch.len() - 3);

    for (attach_to, damage, lost) in [
        // Under the originator: only the ghost is lost.
        ("c0", bad_record, vec!["ghost"]),
        ("c0", bad_framing, vec!["ghost"]),
        // Under a relay: broken framing is refused there, and costs only
        // the ghost...
        ("c1", bad_framing, vec!["ghost"]),
        // ...while a bad record is spliced on unread and makes the
        // relay's whole aggregate unreadable at the originator, which
        // names the child that sent it: c1, and so c1's subtree.
        ("c1", bad_record, vec!["c1"]),
    ] {
        let chain = ["c0", "c1", "c2"];
        let mut b = PpmHarness::builder().seed(0xBCA57);
        for h in chain {
            b = b.host(h, CpuClass::Vax780);
        }
        let mut ppm = b
            .link("c0", "c1")
            .link("c1", "c2")
            .user(USER, 0xBCA57, &chain, PpmConfig::fast_recovery())
            .build();
        ppm.spawn_remote("c0", USER, "c0", "job-c0", None, None)
            .unwrap();
        for i in 1..chain.len() {
            let command = format!("job-{}", chain[i]);
            ppm.spawn_remote(chain[i - 1], USER, chain[i], &command, None, None)
                .unwrap();
        }
        let host = ppm.host(attach_to).unwrap();
        let ghost = CorruptChild { damage };
        ppm.world_mut()
            .spawn_user(host, USER, SpawnSpec::new("ghost", Box::new(ghost)))
            .unwrap();
        ppm.run_for(SimDuration::from_secs(1));

        let before = ppm.metrics_report();
        let (procs, missing) = ppm
            .snapshot_partial("c0", USER, "*")
            .expect("the sweep still completes");
        assert_eq!(missing, lost, "ghost under {attach_to}");
        let answered: Vec<&str> = chain
            .iter()
            .copied()
            .filter(|h| procs.iter().any(|p| p.gpid.host == *h))
            .collect();
        let expect = if lost == ["c1"] {
            vec!["c0"]
        } else {
            chain.to_vec()
        };
        assert_eq!(answered, expect, "ghost under {attach_to}");
        assert!(procs.iter().all(|p| p.gpid.host != "ghost"));

        // The originator counted one partial flush and one missing host.
        let counter = |report: &str, name: &str| -> u64 {
            let line = report
                .lines()
                .find(|l| l.starts_with("c0/") && l.contains(name))
                .unwrap_or_else(|| panic!("no {name} row for c0 in\n{report}"));
            line.split_whitespace().last().unwrap().parse().unwrap()
        };
        let after = ppm.metrics_report();
        for name in ["bcast.partial_flushes", "bcast.missing_hosts"] {
            assert_eq!(counter(&after, name), counter(&before, name) + 1, "{name}");
        }
    }
}
