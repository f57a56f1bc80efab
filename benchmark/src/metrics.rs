//! The benchmark's vocabulary: every metric it prints, with unit and
//! direction. `BENCHMARK.json` is generated from these tables
//! (`--manifest`) and `tests/smoke.rs` checks the two stay equal.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Seconds one run measures; also written to `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_wall_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_wall_us_p90",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_sim_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "op_sim_us_p99",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "bytes",
        better: "lower",
        bound: 0.03,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "bytes",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these with `--trace 1`; a layer
/// the workload never enters reports 0.
pub const PER_LAYER: [PerLayer; 86] = [
    // 1. Counts per timed repetition, from the program's own registries
    //    and stats (exact on the sim backend).
    pl("simnet.engine.schedules", "count", "lower"),
    pl("simnet.engine.fired", "count", "lower"),
    pl("simnet.engine.cancels", "count", "lower"),
    pl("simnet.engine.overflow_peak", "count", "lower"),
    pl("simnet.engine.fired_per_s", "1/s", "higher"),
    pl("simos.kernel.events", "count", "lower"),
    pl("simos.kernel.wakeups", "count", "lower"),
    pl("simos.kernel.events_per_wakeup", "ratio", "higher"),
    pl("simos.net.conns_opened", "count", "lower"),
    pl("simos.net.conns_retained", "count", "lower"),
    pl("simos.net.msgs", "count", "lower"),
    pl("simos.net.bytes", "bytes", "lower"),
    pl("core.rpc.requests", "count", "lower"),
    pl("core.rpc.retries", "count", "lower"),
    pl("core.rpc.dups_suppressed", "count", "lower"),
    pl("core.rpc.deadline_refused", "count", "lower"),
    pl("core.bcast.parts_spliced", "count", "higher"),
    pl("core.bcast.partial_flushes", "count", "lower"),
    pl("core.bcast.missing_hosts", "count", "lower"),
    pl("core.recovery.restarts", "count", "lower"),
    pl("core.recovery.readopted", "count", "higher"),
    pl("core.recovery.ccs_elections", "count", "lower"),
    pl("core.recovery.mttr_us_p50", "us", "lower"),
    pl("simnet.netmodel.routed_sends", "count", "lower"),
    pl("simnet.netmodel.congested_sends", "count", "lower"),
    pl("simnet.netmodel.bisection_bytes", "bytes", "lower"),
    pl("simnet.netmodel.link_queue_us", "us", "lower"),
    pl("simnet.fault.injected", "count", "lower"),
    pl("core.genealogy.tracked_end", "count", "lower"),
    // 2. Isolated replays: the layer's public function alone, on inputs
    //    captured from the same-seed run.
    pl("simnet.engine.wheel_ns_per_event", "ns", "lower"),
    pl("simnet.engine.heap_ns_per_event", "ns", "lower"),
    pl("proto.codec.encode_ns_per_msg", "ns", "lower"),
    pl("proto.codec.decode_ns_per_msg", "ns", "lower"),
    pl("proto.codec.snapshot_ns_per_record", "ns", "lower"),
    pl("proto.kernel_wire.decode_ns_per_event", "ns", "lower"),
    pl("core.genealogy.track_ns_per_proc", "ns", "lower"),
    pl("core.genealogy.snapshot_ns_per_record", "ns", "lower"),
    pl("core.genealogy.prune_ns_per_node", "ns", "lower"),
    pl("simnet.netmodel.transfer_ns_per_send", "ns", "lower"),
    pl("simnet.routing.build_us", "us", "lower"),
    pl("runtime.obs.record_ns_per_op", "ns", "lower"),
    pl("tools.forest.build_ns_per_record", "ns", "lower"),
    pl("tools.snapshot.render_ns_per_record", "ns", "lower"),
    pl("scenario.parse_us_per_file", "us", "lower"),
    pl("simnet.fault.parse_us_per_plan", "us", "lower"),
    pl("harness.build_us_per_host", "us", "lower"),
    pl("harness.tenant.ns_per_proc", "ns", "lower"),
    pl("report.trace_render_ns_per_kb", "ns", "lower"),
    pl("report.metrics_report_us", "us", "lower"),
    pl("report.fnv1a_ns_per_kb", "ns", "lower"),
    pl("realos.loopback.connect_us_p50", "us", "lower"),
    pl("realos.loopback.local_op_us_p50", "us", "lower"),
    pl("realos.loopback.remote_op_us_p50", "us", "lower"),
    //    Replay ns/unit × the run's count, over the timed wall. With
    //    `layer.unattributed.est_share` they sum to 1.
    pl("layer.simnet.engine.est_share", "ratio", "lower"),
    pl("layer.proto.codec.est_share", "ratio", "lower"),
    pl("layer.proto.kernel_wire.est_share", "ratio", "lower"),
    pl("layer.core.genealogy.est_share", "ratio", "lower"),
    pl("layer.simnet.netmodel.est_share", "ratio", "lower"),
    pl("layer.runtime.obs.est_share", "ratio", "lower"),
    pl("layer.tools.est_share", "ratio", "lower"),
    pl("layer.scenario.parse.est_share", "ratio", "lower"),
    pl("layer.simnet.fault.parse.est_share", "ratio", "lower"),
    pl("layer.harness.build.est_share", "ratio", "lower"),
    pl("layer.report.est_share", "ratio", "lower"),
    pl("layer.realos.transport.est_share", "ratio", "lower"),
    pl("layer.unattributed.est_share", "ratio", "lower"),
    // 3. The traced repetition: self-time shares of the benchmark-side
    //    spans (sum to 1), the stepped pass, ageing, tracing overhead.
    pl("span.harness.build.share", "ratio", "lower"),
    pl("span.harness.run_for.share", "ratio", "lower"),
    pl("span.harness.spawn_login.share", "ratio", "lower"),
    pl("span.harness.spawn_remote.share", "ratio", "lower"),
    pl("span.harness.adopt.share", "ratio", "lower"),
    pl("span.harness.control.share", "ratio", "lower"),
    pl("span.harness.snapshot.share", "ratio", "lower"),
    pl("span.harness.rusage.share", "ratio", "lower"),
    pl("span.tools.render.share", "ratio", "lower"),
    pl("span.scenario.parse.share", "ratio", "lower"),
    pl("span.scenario.execute.share", "ratio", "lower"),
    pl("span.report.render.share", "ratio", "lower"),
    pl("span.unattributed.share", "ratio", "lower"),
    pl("simos.world.step_ns_p50", "ns", "lower"),
    pl("simos.world.step_ns_p90", "ns", "lower"),
    pl("simos.world.age_slowdown", "ratio", "lower"),
    pl("trace_overhead_ratio", "ratio", "lower"),
    pl("setup.allocs", "count", "lower"),
    pl("setup.alloc_bytes", "bytes", "lower"),
    pl("op_wall_samples", "count", "higher"),
];
