//! A world that serves many requests remembers them — every connection
//! record stays readable — but what it must *search* does not grow: the
//! open connections and their index stay as small after two thousand
//! tool invocations as after the first few, and so do the descriptor
//! tables of the daemons that served them.

use ppm::core::config::{lpm_port, PpmConfig, PMD_PORT};
use ppm::harness::harness::PpmHarness;
use ppm::simnet::topology::CpuClass;
use ppm::simos::ids::{Port, Uid};
use ppm::simos::net::ConnState;

const USER: Uid = Uid(100);

/// (records, open connections, index entries)
fn census(ppm: &PpmHarness) -> (usize, usize, usize) {
    let core = ppm.world();
    let open = core
        .connections()
        .filter(|c| c.state != ConnState::Closed)
        .count();
    (
        core.connections().count(),
        open,
        core.conn_table().held_len(),
    )
}

/// The largest descriptor table among the daemons every request on host
/// `a` passes through: inetd, pmd and the user's LPM.
fn daemon_fds(ppm: &PpmHarness) -> usize {
    let core = ppm.world();
    let kernel = core.kernel(core.host_by_name("a").expect("host a"));
    let table_of = |port: Port| {
        let daemon = kernel.listener(port).expect("daemon listens");
        let fds = kernel.open_fds(Uid::ROOT, daemon).expect("root may look");
        fds.len()
    };
    let ports = [Port::INETD, PMD_PORT, lpm_port(USER)];
    ports
        .into_iter()
        .map(table_of)
        .max()
        .expect("three daemons")
}

#[test]
fn two_thousand_tool_rounds_leave_the_open_set_bounded() {
    let mut ppm = PpmHarness::builder()
        .seed(1986)
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax780)
        .link("a", "b")
        .user(USER, 0xC0DE, &["a"], PpmConfig::default())
        .build();
    // First contact creates the LPMs and the sibling channel.
    for _ in 0..10 {
        ppm.status("a", USER, "b").expect("warm-up status");
    }
    let (records0, open0, index0) = census(&ppm);
    assert!(open0 > 0, "the sibling channel stays open");
    assert!(index0 <= 2 * open0);

    let rounds = 2_000;
    for round in 1..=rounds {
        // One tool process and one stream connection per request.
        ppm.status("a", USER, "b").expect("status");
        if round % 500 == 0 {
            let (records, open, index) = census(&ppm);
            assert!(
                records >= records0 + round,
                "closed records stay readable: {records} after {round} rounds"
            );
            // A request in flight holds a handful of connections; none
            // may be left behind per round.
            assert!(
                open <= open0 + 8,
                "{open} open connections after {round} rounds (was {open0})"
            );
            assert!(index <= 2 * open, "index {index} for {open} open");
            // Listener, kernel socket, sibling channel, the request's own
            // connection: a closed connection's descriptor is given back.
            let fds = daemon_fds(&ppm);
            assert!(fds <= 8, "a daemon holds {fds} descriptors after {round}");
        }
    }
}
