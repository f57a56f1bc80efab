//! Deterministic randomness for the simulation.
//!
//! Every run is driven by a single seeded generator so that a given seed
//! reproduces the exact same event schedule. The helpers here produce the
//! small latency jitters the latency models apply on top of their
//! deterministic baselines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A seeded random number generator owned by the simulation world.
///
/// # Examples
///
/// ```
/// use ppm_simnet::rng::SimRng;
/// use ppm_simnet::time::SimDuration;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// let d = SimDuration::from_millis(10);
/// assert_eq!(a.jitter(d, 0.05), b.jitter(d, 0.05));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Applies a multiplicative jitter of up to `±fraction` to a duration.
    ///
    /// A `fraction` of `0.05` yields a uniformly distributed value in
    /// `[0.95 · d, 1.05 · d]`. Non-positive fractions return `d` unchanged.
    pub fn jitter(&mut self, d: SimDuration, fraction: f64) -> SimDuration {
        if fraction <= 0.0 || d.is_zero() {
            return d;
        }
        let k = 1.0 + self.inner.gen_range(-fraction..=fraction);
        d.mul_f64(k)
    }

    /// A uniformly distributed `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// A uniformly distributed integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// An exponentially distributed duration with the given mean.
    ///
    /// Used by workload generators to produce Poisson-ish arrival patterns.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        mean.mul_f64(-u.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.unit_f64().to_bits(), b.unit_f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.unit_f64() == b.unit_f64()).count();
        assert!(same < 32);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut rng = SimRng::seed_from(3);
        let d = SimDuration::from_millis(100);
        for _ in 0..1000 {
            let j = rng.jitter(d, 0.05);
            assert!(j >= SimDuration::from_micros(95_000));
            assert!(j <= SimDuration::from_micros(105_000));
        }
    }

    #[test]
    fn jitter_with_zero_fraction_is_identity() {
        let mut rng = SimRng::seed_from(4);
        let d = SimDuration::from_millis(10);
        assert_eq!(rng.jitter(d, 0.0), d);
        assert_eq!(rng.jitter(SimDuration::ZERO, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed_from(8);
        let mean = SimDuration::from_millis(10);
        let n = 4000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_micros()).sum();
        let avg = total as f64 / n as f64;
        // Mean of Exp(10ms) should land near 10_000us; allow generous slack.
        assert!((8_000.0..12_000.0).contains(&avg), "avg={avg}");
    }
}
