//! The tool-side client library.
//!
//! "A library of subroutines handles most interactions with the PPM, so
//! that user-written programs may easily make use of PPM's capabilities."
//! [`Tool`] is that library wrapped in a runnable program: it locates (or
//! creates) the user's local LPM through the Figure-2 chain, authenticates,
//! plays a script of requests, records every reply with its timing into a
//! shared [`ToolOutcome`], and exits.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use ppm_proto::codec::Wire;
use ppm_proto::msg::{Msg, Op, Reply};
use ppm_proto::types::Name;
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
    pub dest: Name,
    /// The operation.
    pub op: Op,
}

impl ToolStep {
    /// Convenience constructor.
    pub fn new(dest: impl Into<Name>, op: Op) -> Self {
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
    /// Script steps sent so far; step `i` goes out with wire id `i + 1`.
    step: usize,
    /// How many requests may be in flight at once (1 = lock-step).
    pipeline: usize,
    /// Per-request deadline stamped on the wire; `None` lets the LPM
    /// apply its configured default.
    step_deadline: Option<SimDuration>,
    /// Replies that arrived ahead of an earlier outstanding step; a reply
    /// in script order goes straight into `outcome.replies`.
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
            pipeline: 1,
            step_deadline: None,
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
        while self.step < self.script.len() && self.in_flight() < self.pipeline {
            // A step is sent once and never read again: its op moves
            // into the request.
            let ToolStep { dest, op } = &mut self.script[self.step];
            let (dest, op) = (dest.to_string(), std::mem::replace(op, Op::Ping));
            let id = self.step as u64 + 1;
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
            self.outcome.lock().unwrap().sent_at.push(sys.now());
            self.step += 1;
            if sys.send(conn, msg.to_bytes()).is_err() {
                self.fail(sys, "send to LPM failed".to_string());
                return;
            }
        }
        if self.step >= self.script.len() && self.in_flight() == 0 {
            {
                let mut o = self.outcome.lock().unwrap();
                o.done = true;
            }
            let _ = sys.close(conn);
            sys.exit(0);
        }
    }

    /// Requests sent and not yet answered.
    fn in_flight(&self) -> usize {
        self.step - self.flushed - self.reordered.len()
    }

    /// The script index a reply with wire id `id` answers, if that step
    /// was sent and is still unanswered: id 0, an id never sent and a
    /// duplicate are not.
    fn awaiting(&self, id: u64) -> Option<usize> {
        let idx = usize::try_from(id.checked_sub(1)?).ok()?;
        let open = (self.flushed..self.step).contains(&idx);
        (open && !self.reordered.contains_key(&idx)).then_some(idx)
    }

    /// Records a reply for script index `idx`: in script order it goes
    /// straight into the outcome, with any early arrivals it was holding
    /// back; ahead of order it waits, so `replies` stays in script order.
    fn record_reply(&mut self, idx: usize, reply: Reply, at: SimTime) {
        if idx != self.flushed {
            self.reordered.insert(idx, (reply, at));
            return;
        }
        let mut o = self.outcome.lock().unwrap();
        o.replies.push((reply, at));
        self.flushed += 1;
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
            host: Name::new(sys.host_name()),
            is_tool: true,
            ccs: Name::default(),
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
                    if let Some(idx) = self.awaiting(id) {
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
    use crate::stub_sys::StubSys;
    use ppm_proto::msg::ErrCode;
    use ppm_proto::types::Route;
    use ppm_runtime::ids::Uid;

    const LPM: ConnId = ConnId(1);

    /// A tool with `steps` pings and a `window`, its channel to the LPM
    /// open and its first window sent.
    fn connected(steps: usize, window: usize) -> (Tool, ToolHandle, StubSys) {
        let script = (0..steps).map(|_| ToolStep::new("a", Op::Ping)).collect();
        let (tool, handle) = Tool::new(UserCred::new(Uid(1), 2), PpmConfig::default(), script);
        let mut tool = tool.with_pipeline(window);
        let mut sys = StubSys::new(false);
        tool.conn = Some(LPM);
        tool.pump(&mut sys);
        (tool, handle, sys)
    }

    fn answer(tool: &mut Tool, sys: &mut StubSys, id: u64, reply: Reply) {
        let route = Route::default();
        let resp = Msg::Resp { id, reply, route };
        tool.on_message(sys, LPM, resp.to_bytes());
    }

    /// The wire ids of the requests sent so far.
    fn sent_ids(sys: &StubSys) -> Vec<u64> {
        let id = |frame: &Bytes| match Msg::from_bytes(frame) {
            Ok(Msg::Req { id, .. }) => id,
            other => panic!("not a request: {other:?}"),
        };
        sys.sent.iter().map(id).collect()
    }

    #[test]
    fn a_duplicate_an_unsent_id_and_id_zero_are_ignored() {
        let (mut tool, handle, mut sys) = connected(2, 1);
        assert_eq!(sent_ids(&sys), [1]);
        answer(&mut tool, &mut sys, 0, Reply::Ok);
        answer(&mut tool, &mut sys, 2, Reply::Ok);
        answer(&mut tool, &mut sys, u64::MAX, Reply::Ok);
        assert!(handle.lock().unwrap().replies.is_empty());
        assert_eq!(sent_ids(&sys), [1], "nothing answered, nothing more sent");

        answer(&mut tool, &mut sys, 1, Reply::Pong);
        assert_eq!(sent_ids(&sys), [1, 2]);
        answer(&mut tool, &mut sys, 1, Reply::Ok);
        assert_eq!(handle.lock().unwrap().replies.len(), 1, "a duplicate");
        assert_eq!(sent_ids(&sys), [1, 2]);
        assert_eq!(sys.exited, None);

        answer(&mut tool, &mut sys, 2, Reply::Pong);
        let o = handle.lock().unwrap();
        assert!(o.done);
        assert_eq!(sys.exited, Some(0));
        assert!(o.replies.iter().all(|(r, _)| matches!(r, Reply::Pong)));
        assert_eq!(o.replies.len(), 2);
    }

    #[test]
    fn pipelined_replies_out_of_order_land_in_script_order() {
        let (mut tool, handle, mut sys) = connected(4, 3);
        assert_eq!(sent_ids(&sys), [1, 2, 3]);
        let err = |detail: &str| Reply::Err {
            code: ErrCode::BadRequest,
            detail: detail.to_string(),
        };
        // Step 2's reply lands first, twice: it waits, and a step is sent
        // in its place.
        answer(&mut tool, &mut sys, 3, err("third"));
        answer(&mut tool, &mut sys, 3, err("again"));
        assert!(handle.lock().unwrap().replies.is_empty());
        assert_eq!(sent_ids(&sys), [1, 2, 3, 4]);
        answer(&mut tool, &mut sys, 2, err("second"));
        answer(&mut tool, &mut sys, 4, err("fourth"));
        assert!(handle.lock().unwrap().replies.is_empty());
        answer(&mut tool, &mut sys, 1, err("first"));
        let o = handle.lock().unwrap();
        let details: Vec<&str> = o
            .replies
            .iter()
            .map(|(r, _)| match r {
                Reply::Err { detail, .. } => detail.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(details, ["first", "second", "third", "fourth"]);
        assert!(o.done);
        assert_eq!(sys.exited, Some(0));
    }

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
