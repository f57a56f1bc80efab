//! Real time as [`Micros`]: microseconds since the cluster epoch.
//!
//! All nodes of one [`crate::rt::RealRuntime`] share the epoch (the
//! instant the runtime was created), so timestamps exchanged over the
//! wire — RPC deadlines, kernel event `queued_at` stamps — are directly
//! comparable across nodes, exactly as simulated time is in the other
//! backend. On one machine there is no clock skew to model.

use std::time::Instant;

use ppm_runtime::time::Micros;

/// A monotonic clock counting from a shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct ClusterClock {
    epoch: Instant,
}

impl ClusterClock {
    /// A clock whose zero is `epoch`.
    pub fn new(epoch: Instant) -> Self {
        ClusterClock { epoch }
    }

    /// Microseconds elapsed since the epoch.
    pub fn now(&self) -> Micros {
        Micros::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_shared() {
        let c = ClusterClock::new(Instant::now());
        let d = c; // copy shares the epoch
        let a = c.now();
        let b = d.now();
        assert!(b >= a);
    }
}
