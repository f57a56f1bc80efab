//! End-to-end observability: spans pair up across hosts, the harness
//! sampler and the wire pull agree on the same registry, and the
//! exporters render loadable documents.

use std::collections::HashMap;

use ppm_core::config::PpmConfig;
use ppm_harness::harness::PpmHarness;
use ppm_runtime::obs::SpanPhase;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::CpuClass;
use ppm_simos::ids::Uid;

const USER: Uid = Uid(100);

fn harness() -> PpmHarness {
    PpmHarness::builder()
        .host("a", CpuClass::Vax780)
        .host("b", CpuClass::Vax750)
        .link("a", "b")
        .user(USER, 7, &["a"], PpmConfig::default())
        .build()
}

#[test]
fn request_spans_balance_on_every_host() {
    let mut ppm = harness();
    ppm.enable_spans();
    ppm.spawn_remote("a", USER, "b", "w", None, None).unwrap();
    ppm.run_for(SimDuration::from_secs(1));

    // Every request span opened on a host closes on that host: the same
    // correlation id is spanned independently at the origin and at the
    // executor, and both lifetimes end with the reply.
    let mut open: HashMap<(String, Option<u32>), i64> = HashMap::new();
    let mut req_spans = 0;
    for ev in ppm.span_events() {
        if ev.name != "req" {
            continue;
        }
        req_spans += 1;
        let key = (ev.corr.clone(), ev.host.map(|h| h.0));
        match ev.phase {
            SpanPhase::Begin => *open.entry(key).or_insert(0) += 1,
            SpanPhase::End => *open.entry(key).or_insert(0) -= 1,
        }
    }
    assert!(req_spans >= 4, "spawn must span origin and executor");
    for (key, balance) in open {
        assert_eq!(balance, 0, "unbalanced req span {key:?}");
    }
}

#[test]
fn wire_pull_agrees_with_the_out_of_band_sample() {
    let mut ppm = harness();
    ppm.spawn_remote("a", USER, "b", "w", None, None).unwrap();

    let (host, at_us, rows) = ppm.metrics_pull("a", USER, "b").unwrap();
    assert_eq!(host, "b");
    assert!(at_us > 0);

    // The pull snapshots the identical registry the harness samples
    // out-of-band (nothing ran on b after the pull executed there).
    let sections = ppm.metrics_sections();
    let (_, sampled) = sections
        .iter()
        .find(|(label, _)| label == "b/uid100")
        .expect("b's LPM registered its registry");
    assert_eq!(&rows, sampled);

    let report = ppm.metrics_report();
    assert!(report.contains("world kernel.events"), "{report}");
    assert!(report.contains("world engine.fired"), "{report}");
    assert!(report.contains("a/uid100 rpc.requests"), "{report}");
    assert!(report.contains("b/uid100 rpc.requests"), "{report}");
}

#[test]
fn span_exports_render_both_formats() {
    let mut ppm = harness();
    ppm.enable_spans();
    ppm.spawn_remote("a", USER, "b", "w", None, None).unwrap();

    let jsonl = ppm.spans_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"at_us\":"), "{line}");
    }
    // Host ids resolve to names, never to the placeholder.
    assert!(jsonl.contains("\"host\":\"a\"") || jsonl.contains("\"host\":\"b\""));
    assert!(!jsonl.contains("\"host\":\"-\""));

    let chrome = ppm.spans_chrome();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    assert!(chrome.contains("\"ph\":\"b\"") && chrome.contains("\"ph\":\"e\""));
}

#[test]
fn spans_disabled_by_default_record_nothing() {
    let mut ppm = harness();
    ppm.spawn_remote("a", USER, "b", "w", None, None).unwrap();
    assert!(ppm.span_events().is_empty());
    assert!(ppm.spans_jsonl().is_empty());
}
