//! The sandbox's speed, measured alongside the ops.
//!
//! The box this benchmark was defined on drifts, every second or two,
//! between speed levels up to 1.3× apart (one commit, one seed: 13%
//! inter-quartile spread of raw throughput, and some 15 s windows never
//! see the fast level, so taking minima does not help either). The
//! drift is uniform — a fixed probe loop and a whole repetition of a sim
//! workload slow down by the same factor to within 3% — so each wall
//! measurement of a CPU-bound workload is scaled by the probe time
//! observed next to it: `wall × PROBE_REF_NS / probe_ns`. The result
//! reads as wall time on a machine that runs the probe in exactly
//! `PROBE_REF_NS`; between two commits measured with this same file it
//! compares like wall time, with the drift taken out.
//!
//! `real_loopback` waits on kernel timers and sockets, not on the CPU,
//! and reports raw wall time.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// What the probe takes on the reference machine. Chosen near this
/// sandbox's common level so scaled and raw numbers read alike.
const PROBE_REF_NS: f64 = 10_000.0;
/// A probe older than this is measured again before it is used.
const MAX_AGE: Duration = Duration::from_millis(2);

/// One pass of the probe: integer arithmetic over a 32 KiB table, the
/// same mix of ALU and L1 traffic whatever the program under test does.
fn probe_once(table: &mut [u64; 4096]) -> f64 {
    let t = Instant::now();
    let mut x = 0u64;
    for i in 0..20_000u64 {
        let slot = (i as usize).wrapping_mul(7) & 4095;
        x = x.wrapping_add(i.wrapping_mul(i) ^ table[slot]);
        table[i as usize & 4095] = x;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

thread_local! {
    static LAST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// The factor that turns a wall time measured just now into wall time at
/// the reference speed. Probes at most once per [`MAX_AGE`]; the fastest
/// of three passes, so an interrupt landing in one does not count.
pub fn factor() -> f64 {
    LAST.with(|last| {
        if let Some((at, factor)) = last.get() {
            if at.elapsed() < MAX_AGE {
                return factor;
            }
        }
        let mut table = [0u64; 4096];
        let ns = (0..3)
            .map(|_| probe_once(&mut table))
            .fold(f64::INFINITY, f64::min);
        let factor = PROBE_REF_NS / ns.max(1.0);
        last.set(Some((Instant::now(), factor)));
        factor
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_cached_and_sane() {
        let a = factor();
        let b = factor();
        assert_eq!(a, b, "second call inside MAX_AGE reuses the probe");
        assert!(a > 0.01 && a < 100.0, "{a}");
    }
}
