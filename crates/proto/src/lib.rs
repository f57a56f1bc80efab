//! # ppm-proto — the PPM wire protocol
//!
//! Message types and a length-checked binary codec, whose wire table
//! declares each message once (see [`codec`]), for everything that flows between tools, local process managers (LPMs) and
//! process manager daemons (pmds): the LPM-creation protocol of Figure 2,
//! the authenticated sibling handshake of Figure 3, directed
//! request/reply with source-destination routes, the broadcast echo wave
//! with signed timestamps of Section 4, and the crash-recovery probes of
//! Section 5.
//!
//! The codec is deliberately byte-exact: message sizes drive the
//! simulation's latency models, and the paper's measurements are keyed to
//! specific sizes (the 112-byte kernel message of Table 1).
//!
//! ## Example
//!
//! ```
//! use ppm_proto::codec::Wire;
//! use ppm_proto::msg::{ControlAction, Msg, Op};
//! use ppm_proto::types::Route;
//!
//! let msg = Msg::Req {
//!     id: 1,
//!     user: 100,
//!     dest: "ucbarpa".into(),
//!     op: Op::Control { pid: 42, action: ControlAction::Stop },
//!     route: Route::from_origin("ucbvax"),
//!     hops_left: 8,
//!     deadline_us: 0,
//!     attempt: 0,
//!     boot: 0,
//! };
//! let bytes = msg.to_bytes();
//! assert_eq!(Msg::from_bytes(&bytes)?, msg);
//! # Ok::<(), ppm_proto::codec::CodecError>(())
//! ```

pub mod codec;
pub mod kernel_wire;
pub mod msg;
pub mod triggers;
pub mod types;

pub use codec::{CodecError, Dec, Enc, Wire};
pub use msg::{ControlAction, ErrCode, Msg, Op, Reply};
pub use triggers::{EventPattern, TriggerAction, TriggerSpec};
pub use types::{
    FileRecord, Gpid, HistoryRecord, ProcRecord, Route, RusageRecord, Stamp, WireProcState,
};
