//! Reliable stream connections (simulated TCP virtual circuits).
//!
//! The connection table and its state machine are
//! [`ppm_runtime::conn`], shared with the real and checker backends. The
//! simulation supplies only the wire: [`crate::world::World`] prices
//! each handshake, message and close notice, keeps each direction's FIFO
//! floor beside the record, and decides when each end is told.

pub use ppm_runtime::conn::ConnState;
