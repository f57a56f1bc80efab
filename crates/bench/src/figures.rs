//! Textual regenerations of the paper's Figures 1–5.
//!
//! The originals are diagrams; each function here reproduces the same
//! information from a *live run* of the system: the three-host genealogy
//! snapshot (Fig. 1), the four-step LPM creation message sequence
//! (Fig. 2), the full set of authenticated sibling channels (Fig. 3), the
//! LPM's communication endpoint types (Fig. 4), and the four snapshot
//! topologies (Fig. 5), drawn from the Table 3 cells that measure them.

use std::fmt::Write as _;

use ppm::scenario::Action;
use ppm_core::client::ToolStep;
use ppm_core::config::PpmConfig;
use ppm_harness::harness::PpmHarness;
use ppm_proto::msg::{Op, Reply};
use ppm_runtime::trace::TraceCategory;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);

fn three_host_harness(seed: u64) -> PpmHarness {
    PpmHarness::builder()
        .seed(seed)
        .host("calder", CpuClass::Vax780)
        .host("ucbarpa", CpuClass::Vax750)
        .host("kim", CpuClass::Sun2)
        .link("calder", "ucbarpa")
        .link("ucbarpa", "kim")
        .link("calder", "kim")
        .user(USER, 0x1986, &["calder"], PpmConfig::default())
        .build()
}

/// Figure 1: "Possible State of a PPM Spanning Three Hosts" — a logical
/// tree with live, stopped and exited members across machines.
pub fn figure1(seed: u64) -> String {
    let mut ppm = three_host_harness(seed);
    let root = ppm
        .spawn_remote("calder", USER, "calder", "simulate", None, None)
        .expect("root");
    let shell = ppm
        .spawn_remote("calder", USER, "calder", "csh", Some(root.clone()), None)
        .expect("shell");
    let w1 = ppm
        .spawn_remote(
            "calder",
            USER,
            "ucbarpa",
            "cruncher",
            Some(shell.clone()),
            None,
        )
        .expect("w1");
    let _w2 = ppm
        .spawn_remote("calder", USER, "ucbarpa", "filter", Some(w1.clone()), None)
        .expect("w2");
    let w3 = ppm
        .spawn_remote(
            "calder",
            USER,
            "kim",
            "collector",
            Some(shell.clone()),
            None,
        )
        .expect("w3");
    // One stopped member, one exited parent retained in the display.
    ppm.control("calder", USER, &w3, ppm_proto::msg::ControlAction::Stop)
        .expect("stop");
    ppm.control("calder", USER, &shell, ppm_proto::msg::ControlAction::Kill)
        .expect("kill");
    ppm.run_for(SimDuration::from_secs(1));
    let procs = ppm.snapshot("calder", USER, "*").expect("snapshot");
    ppm_tools::snapshot::render(
        procs,
        "Figure 1: possible state of a PPM spanning three hosts",
    )
}

/// Figure 2: "LPM Creation Steps Ab Initio" — the numbered message
/// sequence on a cold host, taken from the live trace.
pub fn figure2(seed: u64) -> String {
    let mut ppm = PpmHarness::builder()
        .seed(seed)
        .trace(true)
        .host("calder", CpuClass::Vax780)
        .user(USER, 0x1986, &["calder"], PpmConfig::default())
        .build();
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("calder", Op::Ping)],
            SimDuration::from_secs(30),
        )
        .expect("tool");
    assert!(outcome.created_lpm);

    let mut out = String::new();
    let _ = writeln!(out, "Figure 2: LPM creation steps ab initio");
    let _ = writeln!(out, "(trace of the first tool contact on a cold host)\n");
    let mut step = 0;
    for e in ppm.world().core().trace().entries() {
        let text = e.text();
        let annotate = if text.contains("connecting to calder:1 ") && step == 0 {
            step = 1;
            Some("(1) creation request directed to the inet daemon")
        } else if text.contains("service pmd started") && step == 1 {
            step = 2;
            Some("(2) inetd passes the request to pmd, creating it")
        } else if text.contains("created LPM") && step == 2 {
            step = 3;
            Some("(3) pmd creates the LPM")
        } else if text.contains("accept address") && step == 3 {
            step = 4;
            Some("(4) the accept address is returned")
        } else {
            None
        };
        if matches!(e.category, TraceCategory::Daemon | TraceCategory::Lpm) || annotate.is_some() {
            let _ = writeln!(out, "{e}");
            if let Some(a) = annotate {
                let _ = writeln!(out, "        ^^^ {a}");
            }
        }
    }
    let _ = writeln!(out, "\nall four steps observed: {}", step == 4);
    out
}

/// Figure 3: "All LPMs of a PPM Maintain a Secure Reliable Communication
/// Channel" — the authenticated sibling channel matrix.
pub fn figure3(seed: u64) -> String {
    let mut ppm = three_host_harness(seed);
    // Establish all pairwise channels by creating work from each host.
    let hosts = ["calder", "ucbarpa", "kim"];
    for from in hosts {
        for to in hosts {
            if from != to {
                ppm.spawn_remote(from, USER, to, &format!("j-{from}-{to}"), None, None)
                    .expect("spawn");
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: all LPMs of a PPM maintain secure reliable channels\n"
    );
    for host in hosts {
        match ppm.status(host, USER, host).expect("status") {
            Reply::Status { host, siblings, .. } => {
                let _ = writeln!(out, "  LPM@{host:<8} <===> {}", siblings.join(", "));
            }
            _ => unreachable!("status reply"),
        }
    }
    let _ = writeln!(
        out,
        "\n(channels authenticated once at creation via the user's network secret)"
    );
    out
}

/// Figure 4: "LPM Types Of Communication End Points" — the descriptor
/// table of a live LPM: kernel socket, accept socket, sibling and tool
/// connections.
pub fn figure4(seed: u64) -> String {
    let mut ppm = three_host_harness(seed);
    ppm.spawn_remote("calder", USER, "ucbarpa", "peer", None, None)
        .expect("spawn");
    let lpm_pid = ppm.find_proc("calder", USER, "lpm").expect("lpm alive");
    let outcome = ppm
        .run_tool(
            "calder",
            USER,
            vec![ToolStep::new("calder", Op::OpenFiles { pid: lpm_pid.0 })],
            SimDuration::from_secs(30),
        )
        .expect("tool");
    let mut out = String::new();
    if let Some(Reply::Files { entries }) = outcome.reply(0) {
        out.push_str(&ppm_tools::files_tool::render_fds(
            entries,
            "Figure 4: LPM types of communication end points (live descriptor table)",
        ));
    }
    let _ = writeln!(
        out,
        "kernel   = where the kernel deposits event messages\nlistener = the accept socket whose address pmd hands out\nsocket   = sibling LPM and tool stream connections"
    );
    out
}

/// The Table 3 cells, one per Figure 5 topology.
const TABLE3_CELLS: [&str; 4] = [
    include_str!("../../../scenarios/paper/table3_topology1.ppm"),
    include_str!("../../../scenarios/paper/table3_topology2.ppm"),
    include_str!("../../../scenarios/paper/table3_topology3.ppm"),
    include_str!("../../../scenarios/paper/table3_topology4.ppm"),
];

/// Figure 5: the four snapshot topologies, as the Table 3 cells build
/// them: a cell's hosts, and each distinct (from, dest) pair of its
/// spawns as a sibling LPM channel.
pub fn figure5() -> String {
    let mut out = String::from("Figure 5: snapshot configuration for four PPM topologies\n\n");
    for (id, cell) in (1..).zip(TABLE3_CELLS) {
        let sc = ppm::scenario::parse(cell).expect("a Table 3 cell parses");
        let hosts: Vec<&str> = sc.hosts.iter().map(|(h, _)| h.as_str()).collect();
        let _ = writeln!(out, "topology {id}:\n  hosts: {}", hosts.join(", "));
        let mut channels = Vec::new();
        for (_, _, action, _) in &sc.actions {
            match action {
                Action::Spawn { from, dest, .. } if !channels.contains(&(from, dest)) => {
                    channels.push((from, dest));
                }
                _ => {}
            }
        }
        for (a, b) in channels {
            let _ = writeln!(out, "  {a} <===> {b}   (sibling LPM channel)");
        }
        out.push('\n');
    }
    out.push_str("(reconstructed from the Table 3 timings; see DESIGN.md)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shows_all_states_across_hosts() {
        let art = figure1(3);
        assert!(art.contains("calder"));
        assert!(art.contains("ucbarpa"));
        assert!(art.contains("kim"));
        assert!(art.contains("[exited]"), "{art}");
        assert!(art.contains("[stopped]"), "{art}");
        assert!(art.contains("remote child"), "{art}");
    }

    #[test]
    fn figure2_observes_all_four_steps() {
        let art = figure2(3);
        assert!(art.contains("(1)"), "{art}");
        assert!(art.contains("(2)"));
        assert!(art.contains("(3)"));
        assert!(art.contains("(4)"));
        assert!(art.contains("all four steps observed: true"));
    }

    #[test]
    fn figure3_is_a_full_mesh() {
        let art = figure3(3);
        for line in ["LPM@calder", "LPM@ucbarpa", "LPM@kim"] {
            assert!(art.contains(line), "{art}");
        }
        // calder's sibling list names both peers.
        let calder_line = art
            .lines()
            .find(|l| l.contains("LPM@calder"))
            .expect("line");
        assert!(
            calder_line.contains("ucbarpa") && calder_line.contains("kim"),
            "{calder_line}"
        );
    }

    #[test]
    fn figure4_lists_the_three_endpoint_kinds() {
        let art = figure4(3);
        assert!(art.contains("kernel"), "{art}");
        assert!(art.contains("listener"));
        assert!(art.contains("socket"));
    }

    #[test]
    fn figure5_renders_four_topologies() {
        let art = figure5();
        for id in 1..=4 {
            assert!(art.contains(&format!("topology {id}:")));
        }
        // Topology 4: a chain of two plus a star leaf.
        let four = art.split("topology 4:").nth(1).expect("topology 4");
        assert!(four.contains("hosts: root, a, b, c"), "{four}");
        for edge in ["root <===> a", "a <===> b", "root <===> c"] {
            assert!(four.contains(edge), "{four}");
        }
        assert_eq!(four.matches("<===>").count(), 3, "{four}");
    }
}
