//! Table 1 — estimated 112-byte kernel→LPM message delivery time (ms)
//! as a function of host type and load average.
//!
//! Method: one host of the given CPU class; the load average is pinned
//! into each bucket with duty-cycled CPU spinners; a probe process
//! registers a kernel socket, adopts an emitter child, and measures the
//! queue→delivery latency of the kernel event messages generated when the
//! emitter receives signals (112-byte messages, like the paper's
//! reference).

use ppm_runtime::events::TraceFlags;
use ppm_runtime::program::{Program, SpawnSpec};
use ppm_runtime::signal::Signal;
use ppm_runtime::sys::Sys;
use ppm_runtime::workload::DutyCycle;
use ppm_simnet::time::SimDuration;
use ppm_simnet::topology::{CpuClass, HostSpec};
use ppm_simos::ids::{Pid, Uid};
use ppm_simos::world::World;

use std::sync::{Arc, Mutex};

/// Samples collected by the probe.
#[derive(Debug, Default)]
pub struct Samples {
    /// Delivery latencies (µs).
    pub latencies_us: Vec<u64>,
}

/// A minimal LPM-like program measuring kernel message delivery.
struct KernelMsgProbe {
    emitter: Option<Pid>,
    samples: Arc<Mutex<Samples>>,
    interval: SimDuration,
    rounds: u32,
    fired: u32,
}

impl Program for KernelMsgProbe {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        let pid = sys
            .spawn(SpawnSpec::inert("emitter"))
            .expect("spawn emitter");
        sys.adopt(pid, TraceFlags::SIGNALS).expect("adopt emitter");
        self.emitter = Some(pid);
        sys.set_timer(self.interval, 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        if self.fired >= self.rounds {
            return;
        }
        self.fired += 1;
        if let Some(pid) = self.emitter {
            // Each delivered signal produces one ~112-byte kernel event.
            let _ = sys.kill(pid, Signal::Usr1);
        }
        sys.set_timer(self.interval, 0);
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: bytes::Bytes) {
        let mut samples = self.samples.lock().unwrap();
        ppm_proto::kernel_wire::for_each_kernel_msg(&data, |msg| {
            let latency = sys.now().saturating_since(msg.queued_at);
            samples.latencies_us.push(latency.as_micros());
        });
    }

    fn name(&self) -> &str {
        "kmsg-probe"
    }
}

/// Result of one Table 1 cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Achieved load average during the measurement.
    pub load_avg: f64,
    /// Mean delivery time in milliseconds.
    pub mean_ms: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Measures one cell: host class × target load-average bucket midpoint.
pub fn measure_cell(cpu: CpuClass, la_target: f64, seed: u64) -> Cell {
    let mut world = World::new(seed);
    let host = world.add_host(HostSpec::new("m", cpu));

    // Pin the load: n spinners with duty d give la ≈ n·d.
    let spinners = (la_target * 2.0).round() as usize;
    let duty = if spinners > 0 {
        la_target / spinners as f64
    } else {
        0.0
    };
    for i in 0..spinners {
        world
            .spawn_user(
                host,
                Uid(1),
                SpawnSpec::new(
                    format!("spin{i}"),
                    Box::new(DutyCycle::new(duty, SimDuration::from_millis(400))),
                ),
            )
            .expect("spawn spinner");
    }
    // Let the 60-second EWMA converge.
    world.run_for(SimDuration::from_secs(300));

    let samples = Arc::new(Mutex::new(Samples::default()));
    let probe = KernelMsgProbe {
        emitter: None,
        samples: Arc::clone(&samples),
        interval: SimDuration::from_millis(500),
        rounds: 120,
        fired: 0,
    };
    world
        .spawn_user(host, Uid(100), SpawnSpec::new("probe", Box::new(probe)))
        .expect("spawn probe");
    world.run_for(SimDuration::from_secs(90));

    let load_avg = world.core().kernel(host).load_avg();
    let s = samples.lock().unwrap();
    let n = s.latencies_us.len();
    let mean_ms = if n == 0 {
        f64::NAN
    } else {
        s.latencies_us.iter().sum::<u64>() as f64 / n as f64 / 1000.0
    };
    Cell {
        load_avg,
        mean_ms,
        samples: n,
    }
}

/// The paper's Table 1, as (class, bucket label, midpoint, value-ms).
/// Cells the paper left blank are `None`.
pub const PAPER: &[(CpuClass, &str, f64, Option<f64>)] = &[
    (CpuClass::Vax780, "0 < la <= 1", 0.5, Some(7.2)),
    (CpuClass::Vax780, "1 < la <= 2", 1.5, Some(9.8)),
    (CpuClass::Vax780, "2 < la <= 3", 2.5, Some(13.6)),
    (CpuClass::Vax780, "3 < la <= 4", 3.5, None),
    (CpuClass::Vax750, "0 < la <= 1", 0.5, Some(7.2)),
    (CpuClass::Vax750, "1 < la <= 2", 1.5, Some(9.6)),
    (CpuClass::Vax750, "2 < la <= 3", 2.5, Some(12.8)),
    (CpuClass::Vax750, "3 < la <= 4", 3.5, Some(18.9)),
    (CpuClass::Sun2, "0 < la <= 1", 0.5, Some(8.31)),
    (CpuClass::Sun2, "1 < la <= 2", 1.5, Some(14.13)),
    (CpuClass::Sun2, "2 < la <= 3", 2.5, Some(22.0)),
    (CpuClass::Sun2, "3 < la <= 4", 3.5, Some(42.7)),
];

/// Runs the whole table.
pub fn run(seed: u64) -> Vec<(CpuClass, &'static str, Option<f64>, Cell)> {
    PAPER
        .iter()
        .map(|&(cpu, label, mid, paper)| (cpu, label, paper, measure_cell(cpu, mid, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_vax_is_near_paper() {
        let cell = measure_cell(CpuClass::Vax780, 0.5, 42);
        assert!(cell.samples > 100, "enough samples: {}", cell.samples);
        assert!(
            (0.2..0.9).contains(&cell.load_avg),
            "la pinned: {}",
            cell.load_avg
        );
        let rel = (cell.mean_ms - 7.2).abs() / 7.2;
        assert!(rel < 0.25, "measured {:.2}ms vs paper 7.2ms", cell.mean_ms);
    }

    #[test]
    fn sun_degrades_much_faster_than_vax() {
        let sun_hi = measure_cell(CpuClass::Sun2, 3.5, 7);
        let sun_lo = measure_cell(CpuClass::Sun2, 0.5, 7);
        let vax_hi = measure_cell(CpuClass::Vax750, 3.5, 7);
        let vax_lo = measure_cell(CpuClass::Vax750, 0.5, 7);
        let sun_ratio = sun_hi.mean_ms / sun_lo.mean_ms;
        let vax_ratio = vax_hi.mean_ms / vax_lo.mean_ms;
        assert!(
            sun_ratio > vax_ratio * 1.3,
            "SUN ratio {sun_ratio:.2} vs VAX ratio {vax_ratio:.2}"
        );
    }
}
