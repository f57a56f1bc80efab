//! Property tests: the scenario parser never panics and either yields a
//! well-formed scenario or a line-numbered error, on arbitrary input;
//! and a scenario it accepts builds and runs without panicking.

use ppm::scenario::ExecOptions;
use ppm::simnet::topology::NetSpec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn parser_total_on_arbitrary_text(text in "[ -~\n]{0,500}") {
        match ppm::scenario::parse(&text) {
            Ok(sc) => {
                prop_assert!(!sc.hosts.is_empty());
                prop_assert!(!sc.users.is_empty());
            }
            Err(e) => {
                prop_assert!(!e.message.is_empty());
            }
        }
    }

    #[test]
    fn parser_total_on_keyword_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("host".to_string()), Just("link".to_string()),
                Just("user".to_string()), Just("at".to_string()),
                Just("run".to_string()), Just("spawn".to_string()),
                Just("crash".to_string()), Just("1s".to_string()),
                Just("a".to_string()), Just("100".to_string()),
                Just("secret=1".to_string()), Just("$x".to_string()),
                Just("drill".to_string()), Just("kill=a".to_string()),
                Just("time=x".to_string()), Just("snapshot".to_string()),
                Just("load".to_string()), Just("0.5".to_string()),
                Just("pmd".to_string()), Just("stable".to_string()),
                Just("files".to_string()), Just("noreuse".to_string()),
                Just("noroutes".to_string()), Just("window=1s".to_string()),
                Just("\n".to_string()),
            ],
            0..60,
        )
    ) {
        let text = words.join(" ");
        let _ = ppm::scenario::parse(&text);
    }
}

/// Renders a scenario that is mostly well-formed — hosts `h0..h{k-1}`,
/// links between declared hosts, loads, actions at bounded times — with
/// a hostile statement mixed in now and then (a repeated host, a link,
/// a load, a recovery host or an action naming an undeclared host, a
/// load no spinners can pin, a bad stamp window, an unbound `$name`, a
/// user nobody declared), so that both the accepting and the rejecting
/// side of `parse` are exercised.
fn render(
    k: usize,
    dup_host: bool,
    links: &[(u8, u8, u8)],
    loads: &[(u8, u8)],
    users: &[(u8, u8, u8)],
    actions: &[(u8, u8, u8, u8, u8)],
    tail: u8,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("seed 3\n");
    let cpus = ["vax780", "vax750", "sun2"];
    for i in 0..k {
        writeln!(s, "host h{i} {}", cpus[i % 3]).unwrap();
    }
    if dup_host {
        s.push_str("host h0\n");
    }
    for &(x, y, mode) in links {
        let (x, y) = (x as usize, y as usize);
        if mode.is_multiple_of(16) {
            writeln!(s, "link h{} h{}", x % (k + 1), y % (k + 1)).unwrap();
        } else if k >= 2 {
            let a = x % k;
            writeln!(s, "link h{a} h{}", (a + 1 + y % (k - 1)) % k).unwrap();
        }
    }
    // One draw in sixteen names the undeclared `h{k}` / user 9 / `$ghost`.
    let host = |n: u8| {
        let i = if n.is_multiple_of(16) {
            k
        } else {
            n as usize % k
        };
        format!("h{i}")
    };
    // One draw in sixteen is an average no spinners can pin.
    let average = |a: u8| match a % 16 {
        15 => ["-1", "NaN", "inf", "0.1", "9", "x"][a as usize / 16 % 6],
        n => ["0", "0.25", "0.5", "1", "1.5", "2", "2.5", "3.5"][n as usize % 8],
    };
    for &(h, avg) in loads {
        writeln!(s, "load {} {}", host(h), average(avg)).unwrap();
    }
    match tail & 48 {
        16 => s.push_str("pmd stable\n"),
        32 => s.push_str("pmd volatile\n"),
        _ => {}
    }
    let uids = [7u32, 100];
    for (i, &(rec, ns, flags)) in users.iter().enumerate() {
        let uid = uids[i % 2];
        write!(s, "user {uid} secret=0x{:X}", 0xBE00 + u32::from(flags)).unwrap();
        write!(s, " recovery=h0,{}", host(rec)).unwrap();
        if ns.is_multiple_of(4) {
            write!(s, " nameserver={}", host(ns)).unwrap();
        }
        if flags & 1 == 1 {
            s.push_str(" fast");
        }
        if flags & 2 == 2 {
            s.push_str(" noagg");
        }
        if flags & 4 == 4 {
            s.push_str(" noreuse");
        }
        if flags & 8 == 8 {
            s.push_str(" noroutes");
        }
        if flags & 16 == 16 {
            let windows = ["60s", "60ms", "0s", "1s", "250ms", "10s", "2s", "5h"];
            write!(s, " window={}", windows[ns as usize % 8]).unwrap();
        }
        s.push('\n');
    }
    let mut spawned = Vec::new();
    for (i, &(kind, from, dest, t, extra)) in actions.iter().enumerate() {
        let uid = if extra % 16 == 15 {
            9
        } else {
            uids[extra as usize % users.len()]
        };
        let (from, dest) = (host(from), host(dest));
        let name = match spawned.get(t as usize % (spawned.len() + 1)) {
            Some(j) => format!("$n{j}"),
            None if t.is_multiple_of(16) => "$ghost".to_string(),
            None => format!("{dest} {}", 2 + extra % 8),
        };
        write!(s, "at {}ms ", u32::from(t % 30) * 100).unwrap();
        match kind % 13 {
            0..=2 => {
                write!(s, "spawn {from} {uid} {dest} job{i} as n{i}").unwrap();
                spawned.push(i);
                if extra & 1 == 1 {
                    write!(s, " lifetime={}ms", u32::from(extra) * 10).unwrap();
                }
                if extra & 2 == 2 && name.starts_with('$') {
                    write!(s, " parent={name}").unwrap();
                }
            }
            3 => write!(s, "adopt {from} {uid} {dest} {}", 2 + extra % 8).unwrap(),
            4 => {
                let verb = ["stop", "bg", "fg", "kill"][t as usize % 4];
                write!(s, "control {from} {uid} {name} {verb}").unwrap();
            }
            5 => write!(
                s,
                "snapshot {from} {uid} {}",
                if t & 1 == 0 { "*" } else { &dest }
            )
            .unwrap(),
            6 => write!(s, "dashboard {from} {uid}").unwrap(),
            7 => write!(s, "rusage {from} {uid} {dest}").unwrap(),
            8 => write!(s, "history {from} {uid} *").unwrap(),
            9 => write!(s, "killtree {from} {uid} {name}").unwrap(),
            10 => write!(s, "{} {dest}", if t & 1 == 0 { "crash" } else { "restart" }).unwrap(),
            11 => write!(s, "files {from} {uid} {name}").unwrap(),
            _ => {
                let verb = if t & 1 == 0 { "link-down" } else { "link-up" };
                write!(s, "{verb} {from} {dest}").unwrap();
            }
        }
        s.push('\n');
    }
    writeln!(s, "run {}s", tail % 4).unwrap();
    s
}

/// Renders a `.topo` chain over hosts `h0..h{k-1}` (at least one link,
/// to an undeclared `h1` when there is only `h0`) whose attributes are
/// drawn from valid and hostile spellings alike: non-finite, negative,
/// unit-less and clock-filling latencies, zero and non-finite capacities,
/// loss outside `0..=1`.
fn render_topo(k: usize, picks: &[(u8, u8, u8)]) -> String {
    use std::fmt::Write as _;
    let lats = [
        "2ms",
        "infs",
        "NaNms",
        "-3ms",
        "7",
        "0us",
        "4611686018427s",
        "2000000000000s",
    ];
    let caps = ["100k", "1", "0", "infm", "-5k", "NaN", "9999999999999m"];
    let losses = ["0", "0.5", "1", "2", "-1", "NaN"];
    let mut s = String::from("topo hostile\n");
    for i in 0..k.max(2) - 1 {
        let (l, c, p) = picks.get(i).copied().unwrap_or((0, 0, 0));
        let (l, c, p) = (l as usize, c as usize, p as usize);
        write!(s, "link h{i} h{}", i + 1).unwrap();
        write!(s, " lat={}", lats[l % lats.len()]).unwrap();
        write!(s, " cap={}", caps[c % caps.len()]).unwrap();
        writeln!(s, " loss={}", losses[p % losses.len()]).unwrap();
    }
    s
}

proptest! {
    /// Whatever `parse` accepts also builds and runs: `execute_with` may
    /// report a line-numbered error (an unknown host in an action, an
    /// unbound name, a topology naming an undeclared host) but never
    /// panics on a parsed scenario — on the flat wire, under a preset,
    /// or under whatever a hostile `.topo` file `NetSpec::parse` let
    /// through.
    #[test]
    fn accepted_scenarios_build_and_run_without_panicking(
        k in 1usize..5,
        dup_host in (0u8..16).prop_map(|n| n == 0),
        links in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..5),
        loads in prop::collection::vec((any::<u8>(), any::<u8>()), 0..2),
        users in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3),
        actions in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..16,
        ),
        tail in any::<u8>(),
    ) {
        let text = render(k, dup_host, &links, &loads, &users, &actions, tail);
        let Ok(sc) = ppm::scenario::parse(&text) else {
            return Ok(());
        };
        let hosts: Vec<String> = sc.hosts.iter().map(|(h, _)| h.clone()).collect();
        let topology = match tail & 12 {
            4 => NetSpec::preset("fat-tree", &hosts),
            8 => match NetSpec::parse(&render_topo(k, &links)) {
                Ok(spec) => Some(spec),
                Err(e) => {
                    prop_assert!(e.to_string().starts_with("line "), "{e}");
                    None
                }
            },
            _ => None,
        };
        let opts = ExecOptions {
            topology: topology.as_ref(),
            ..ExecOptions::default()
        };
        let mut out = String::new();
        if let Err(e) = ppm::scenario::execute_with(&sc, &mut out, opts) {
            prop_assert!(!e.message.is_empty(), "{text}");
        }
    }
}

/// The hostile inputs that used to panic in the world builder or a
/// tool's encode, or wrap to time zero: each is now a parse error on the
/// offending line.
#[test]
fn hostile_statements_are_line_numbered_parse_errors() {
    let user = "user 1 secret=1 recovery=a\n";
    for (text, line, needle) in [
        (
            format!("host a\nhost b\nhost a\n{user}"),
            3,
            "declared twice",
        ),
        (format!("host a\nlink a a\n{user}"), 2, "to itself"),
        (
            format!("host a\nlink a zzz\n{user}"),
            2,
            "undeclared host \"zzz\"",
        ),
        (
            format!("host a\nlink b a\nhost b\n{user}"),
            2,
            "undeclared host \"b\"",
        ),
        (
            format!("host a\n{user}at 18446744073710s crash a\n"),
            3,
            "out of range",
        ),
        (
            format!("host a\n{user}at 4611686018428s crash a\n"),
            3,
            "out of range",
        ),
        (
            format!("host a\n{user}at 0s spawn a 1 a job lifetime=18446744073709552ms\n"),
            3,
            "out of range",
        ),
        (
            format!("host a\n{user}run 4611686018427s\nrun 4611686018427s\n"),
            4,
            "out of range",
        ),
        // Past a protocol string's u16 length: the encode used to panic.
        (
            format!("host a\n{user}at 0s spawn a 1 a {}\n", "c".repeat(70_000)),
            3,
            "70000 bytes",
        ),
        (
            format!("host {}\n{user}", "h".repeat(70_000)),
            1,
            "70000 bytes",
        ),
        // A recovery host or name server nobody declared, or none at
        // all: the LPMs ran with no CCS, or each as its own.
        (
            "host a\nhost b\nlink a b\nuser 1 secret=1 nameserver=zz\n".into(),
            4,
            "undeclared host \"zz\"",
        ),
        (
            "host a\nuser 1 secret=1 recovery=\n".into(),
            2,
            "undeclared host \"\"",
        ),
        (
            "host a\nuser 1 secret=1 recovery=a,,zz\n".into(),
            2,
            "undeclared host \"\"",
        ),
        (
            "host a\nuser 1 secret=1 recovery=a,zz\n".into(),
            2,
            "undeclared host \"zz\"",
        ),
        (
            "user 1 secret=1 recovery=a\nhost a\n".into(),
            1,
            "undeclared host \"a\"",
        ),
        // A load no spinners pin, or of a host nobody declared.
        (format!("host a\n{user}load a -1\n"), 3, "cannot pin"),
        (format!("host a\n{user}load a NaN\n"), 3, "cannot pin"),
        (format!("host a\n{user}load a inf\n"), 3, "cannot pin"),
        (format!("host a\n{user}load a 1e300\n"), 3, "cannot pin"),
        (format!("host a\n{user}load a 0.1\n"), 3, "cannot pin"),
        (format!("host a\n{user}load a x\n"), 3, "bad load average"),
        (format!("host a\n{user}load a\n"), 3, "load takes HOST AVG"),
        (format!("host a\n{user}load zz 1\n"), 3, "undeclared host"),
        (format!("host a\n{user}load a 1\nload a 2\n"), 4, "twice"),
        // A stamp window that is no duration.
        ("host a\nuser 1 secret=1 window=5h\n".into(), 2, "unit"),
        ("host a\nuser 1 secret=1 window=60\n".into(), 2, "unit"),
        (
            "host a\nuser 1 secret=1 window=-1s\n".into(),
            2,
            "bad duration",
        ),
        (
            format!("host a\n{user}pmd durable\n"),
            3,
            "stable or volatile",
        ),
    ] {
        let e = ppm::scenario::parse(&text).expect_err(&text);
        assert_eq!(e.line, line, "{text}: {e}");
        assert!(e.message.contains(needle), "{text}: {e}");
    }
}

/// A name at the protocol's limit is accepted, and the text an LPM
/// builds around one (an error's detail, a history note) still encodes:
/// both runs used to panic in the encoder.
#[test]
fn names_at_the_protocol_limit_run_without_panicking() {
    let host = "h".repeat(65_535);
    let command = "c".repeat(65_535);
    let user = "user 100 secret=1 recovery=a\n";
    let unreachable = format!(
        "host a vax780\nhost {host} vax780\nlink a {host}\n{user}\
         at 1s crash {host}\nat 2s spawn a 100 {host} job\nrun 1s\n"
    );
    let noted = format!(
        "host a vax780\nhost b vax780\nlink a b\n{user}\
         at 1s spawn a 100 b {command}\nat 2s history a 100 *\nrun 1s\n"
    );
    let run = |text: &str| {
        let sc = ppm::scenario::parse(text).expect("a name at the limit parses");
        let mut out = String::new();
        let done = ppm::scenario::execute_with(&sc, &mut out, ExecOptions::default());
        (done, out)
    };
    let (done, _) = run(&unreachable);
    let e = done.expect_err("the crashed host is unreachable");
    assert!(e.message.contains("cannot reach"), "{}", &e.message[..80]);
    let (done, out) = run(&noted);
    assert!(done.is_ok());
    assert!(
        out.contains("create     spawned ccc"),
        "the note is kept, cut"
    );
}
