//! # ppm-harness — synchronous drivers for tests, scenarios, benchmarks
//!
//! Boots a PPM on any backend behind the `ppm_runtime::rt::Runtime`
//! facade (the simulated world by default, the real loopback cluster
//! through [`HarnessBuilder::build_on`]), runs tools against it, and
//! exports metrics. Split out of `ppm-core` so the protocol stack itself
//! stays backend-agnostic: the harness is allowed to know about
//! `ppm-simos` worlds and `ppm-simnet` engines, the core is not.

pub mod harness;
pub mod tenant;

pub use harness::{HarnessBuilder, HarnessError, PpmHarness};
pub use tenant::{ScaleReport, TenantWorld};
