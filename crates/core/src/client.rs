//! The tool-side client library.
//!
//! "A library of subroutines handles most interactions with the PPM, so
//! that user-written programs may easily make use of PPM's capabilities."
//! [`Tool`] is that library wrapped in a runnable program: it locates (or
//! creates) the user's local LPM through the Figure-2 chain, authenticates,
//! plays a script of requests, records every reply with its timing into a
//! shared [`ToolOutcome`], and exits.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use ppm_proto::codec::Wire;
use ppm_proto::msg::{Msg, Op, Reply};
use ppm_runtime::ids::ConnId;
use ppm_runtime::program::{ConnEvent, Program};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{SimDuration, SimTime};

use crate::auth::UserCred;
use crate::config::{PpmConfig, CONNECT_ATTEMPTS};
use crate::locator::{Dial, Dialed, HelloIdentity, Progress};

/// One scripted request: destination host (or `"*"`) and operation.
#[derive(Debug, Clone)]
pub struct ToolStep {
    /// Destination host name, or `"*"` for a broadcast.
    pub dest: String,
    /// The operation.
    pub op: Op,
}

impl ToolStep {
    /// Convenience constructor.
    pub fn new(dest: impl Into<String>, op: Op) -> Self {
        ToolStep {
            dest: dest.into(),
            op,
        }
    }
}

/// What the tool observed, shared with the test/benchmark driver.
#[derive(Debug, Clone, Default)]
pub struct ToolOutcome {
    /// Replies in script order, with the time each arrived.
    pub replies: Vec<(Reply, SimTime)>,
    /// When each request was sent.
    pub sent_at: Vec<SimTime>,
    /// Fatal error, if the tool could not complete.
    pub error: Option<String>,
    /// The tool finished its script (successfully or not).
    pub done: bool,
    /// When the tool started running.
    pub started_at: Option<SimTime>,
    /// When the channel to the LPM was ready.
    pub connected_at: Option<SimTime>,
    /// Whether this request created the LPM.
    pub created_lpm: bool,
}

impl ToolOutcome {
    /// Elapsed time from request send to reply for step `i`.
    pub fn elapsed(&self, i: usize) -> Option<SimDuration> {
        let (_, at) = self.replies.get(i)?;
        let sent = *self.sent_at.get(i)?;
        Some(at.saturating_since(sent))
    }

    /// The reply of step `i`, if it arrived.
    pub fn reply(&self, i: usize) -> Option<&Reply> {
        self.replies.get(i).map(|(r, _)| r)
    }
}

/// Shared handle to a tool's outcome.
pub type ToolHandle = Arc<Mutex<ToolOutcome>>;

/// A scripted PPM tool process.
pub struct Tool {
    cred: UserCred,
    cfg: PpmConfig,
    script: Vec<ToolStep>,
    outcome: ToolHandle,
    chan: Option<Dial>,
    conn: Option<ConnId>,
    step: usize,
    next_id: u64,
    /// How many requests may be in flight at once (1 = lock-step).
    pipeline: usize,
    /// Per-request deadline stamped on the wire; `None` lets the LPM
    /// apply its configured default.
    step_deadline: Option<SimDuration>,
    /// Wire id → script index of requests awaiting a reply.
    inflight: HashMap<u64, usize>,
    /// Replies that arrived ahead of an earlier outstanding step.
    reordered: BTreeMap<usize, (Reply, SimTime)>,
    /// Next script index to flush into `outcome.replies`.
    flushed: usize,
}

impl std::fmt::Debug for Tool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tool")
            .field("user", &self.cred.uid)
            .field("steps", &self.script.len())
            .field("step", &self.step)
            .finish()
    }
}

const RETRY_TOKEN: u64 = 1;
const DEADLINE_TOKEN: u64 = 2;
/// How long a tool waits for its whole script before giving up.
const GIVE_UP: SimDuration = SimDuration::from_secs(120);

impl Tool {
    /// Creates a tool with a script; results land in the returned handle.
    pub fn new(cred: UserCred, cfg: PpmConfig, script: Vec<ToolStep>) -> (Self, ToolHandle) {
        let outcome: ToolHandle = Arc::new(Mutex::new(ToolOutcome::default()));
        let tool = Tool {
            cred,
            cfg,
            script,
            outcome: Arc::clone(&outcome),
            chan: None,
            conn: None,
            step: 0,
            next_id: 1,
            pipeline: 1,
            step_deadline: None,
            inflight: HashMap::new(),
            reordered: BTreeMap::new(),
            flushed: 0,
        };
        (tool, outcome)
    }

    /// Allows up to `window` requests in flight at once on the LPM
    /// connection. Replies are matched by wire id, so they may arrive out
    /// of script order; the outcome still records them in script order.
    pub fn with_pipeline(mut self, window: usize) -> Self {
        self.pipeline = window.max(1);
        self
    }

    /// Stamps each request with an absolute deadline `d` from its send
    /// time, propagated (and decayed) through relays.
    pub fn with_step_deadline(mut self, d: SimDuration) -> Self {
        self.step_deadline = Some(d);
        self
    }

    fn fail(&mut self, sys: &mut dyn Sys, why: String) {
        {
            let mut o = self.outcome.lock().unwrap();
            o.error = Some(why);
            o.done = true;
        }
        sys.exit(1);
    }

    /// Sends script steps until the pipeline window is full, and exits
    /// once every step has been sent and answered.
    fn pump(&mut self, sys: &mut dyn Sys) {
        let Some(conn) = self.conn else { return };
        while self.step < self.script.len() && self.inflight.len() < self.pipeline {
            let ToolStep { dest, op } = self.script[self.step].clone();
            let id = self.next_id;
            self.next_id += 1;
            let deadline_us = self
                .step_deadline
                .map_or(0, |d| (sys.now() + d).as_micros());
            let msg = Msg::Req {
                id,
                user: self.cred.uid.0,
                dest,
                op,
                route: ppm_proto::types::Route::default(),
                hops_left: self.cfg.max_hops,
                deadline_us,
                attempt: 0,
                boot: 0,
            };
            self.inflight.insert(id, self.step);
            self.outcome.lock().unwrap().sent_at.push(sys.now());
            self.step += 1;
            if sys.send(conn, msg.to_bytes()).is_err() {
                self.fail(sys, "send to LPM failed".to_string());
                return;
            }
        }
        if self.step >= self.script.len() && self.inflight.is_empty() {
            {
                let mut o = self.outcome.lock().unwrap();
                o.done = true;
            }
            let _ = sys.close(conn);
            sys.exit(0);
        }
    }

    /// Records a reply for script index `idx`, flushing any contiguous run
    /// into the outcome so `replies` stays in script order.
    fn record_reply(&mut self, idx: usize, reply: Reply, at: SimTime) {
        self.reordered.insert(idx, (reply, at));
        let mut o = self.outcome.lock().unwrap();
        while let Some(entry) = self.reordered.remove(&self.flushed) {
            o.replies.push(entry);
            self.flushed += 1;
        }
    }

    fn apply_progress(&mut self, sys: &mut dyn Sys, progress: Progress) {
        match progress {
            // This dial asks for a channel; pmd's answer is not its end.
            Progress::Pending | Progress::Done(Dialed::Answer(_)) => {}
            Progress::RetryAfter(d) => {
                sys.set_timer(d, RETRY_TOKEN);
            }
            Progress::Done(Dialed::Channel { conn, created, .. }) => {
                self.conn = Some(conn);
                {
                    let mut o = self.outcome.lock().unwrap();
                    o.connected_at = Some(sys.now());
                    o.created_lpm = created;
                }
                self.pump(sys);
            }
            Progress::Failed(e) => {
                self.fail(sys, format!("cannot reach LPM: {e}"));
            }
        }
    }
}

impl Program for Tool {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.outcome.lock().unwrap().started_at = Some(sys.now());
        sys.set_timer(GIVE_UP, DEADLINE_TOKEN);
        let identity = HelloIdentity {
            user: self.cred.uid.0,
            host: sys.host_name().to_string(),
            is_tool: true,
            ccs: String::new(),
            epoch: 0,
            proof: self.cred.proof(),
        };
        let target = sys.host();
        let retry = self.cfg.connect_retry;
        self.chan = Some(Dial::lpm(sys, target, identity, retry, CONNECT_ATTEMPTS));
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if self.conn == Some(conn) {
            if matches!(event, ConnEvent::Closed) && !self.outcome.lock().unwrap().done {
                self.fail(sys, "LPM closed the connection".to_string());
            }
            return;
        }
        if let Some(chan) = &mut self.chan {
            if chan.owns(conn) {
                let progress = chan.on_conn_event(sys, event);
                self.apply_progress(sys, progress);
            }
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        if self.conn == Some(conn) {
            match Msg::from_bytes(&data) {
                Ok(Msg::Resp { id, reply, .. }) => {
                    // Match the reply to its request by wire id; stale or
                    // duplicate ids are ignored.
                    if let Some(idx) = self.inflight.remove(&id) {
                        self.record_reply(idx, reply, sys.now());
                        self.pump(sys);
                    }
                }
                // Announcements etc. are not replies; ignore.
                Ok(_) => {}
                Err(_) => self.fail(sys, "undecodable reply".to_string()),
            }
            return;
        }
        if let Some(chan) = &mut self.chan {
            if chan.owns(conn) {
                let progress = chan.on_message(sys, data);
                self.apply_progress(sys, progress);
            }
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        match token {
            RETRY_TOKEN => {
                if let Some(chan) = &mut self.chan {
                    if !chan.is_terminal() {
                        let progress = chan.retry(sys);
                        self.apply_progress(sys, progress);
                    }
                }
            }
            DEADLINE_TOKEN if !self.outcome.lock().unwrap().done => {
                self.fail(sys, "tool deadline exceeded".to_string());
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "ppm-tool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_runtime::ids::Uid;

    #[test]
    fn outcome_elapsed_math() {
        let mut o = ToolOutcome::default();
        o.sent_at.push(SimTime::from_millis(10));
        o.replies.push((Reply::Ok, SimTime::from_millis(40)));
        assert_eq!(o.elapsed(0), Some(SimDuration::from_millis(30)));
        assert_eq!(o.elapsed(1), None);
        assert!(matches!(o.reply(0), Some(Reply::Ok)));
    }

    #[test]
    fn tool_construction_shares_outcome() {
        let (tool, handle) = Tool::new(
            UserCred::new(Uid(1), 2),
            PpmConfig::default(),
            vec![ToolStep::new("a", Op::Ping)],
        );
        assert!(!handle.lock().unwrap().done);
        assert_eq!(tool.script.len(), 1);
        assert_eq!(tool.pipeline, 1);
    }

    #[test]
    fn out_of_order_replies_flush_in_script_order() {
        let (tool, handle) = Tool::new(
            UserCred::new(Uid(1), 2),
            PpmConfig::default(),
            vec![ToolStep::new("a", Op::Ping), ToolStep::new("b", Op::Ping)],
        );
        let mut tool = tool.with_pipeline(4);
        assert_eq!(tool.pipeline, 4);
        // Step 1's reply lands first: nothing flushes until step 0 arrives.
        tool.record_reply(1, Reply::Ok, SimTime::from_millis(5));
        assert!(handle.lock().unwrap().replies.is_empty());
        tool.record_reply(0, Reply::Pong, SimTime::from_millis(9));
        let o = handle.lock().unwrap();
        assert!(matches!(o.replies[0].0, Reply::Pong));
        assert!(matches!(o.replies[1].0, Reply::Ok));
    }
}
