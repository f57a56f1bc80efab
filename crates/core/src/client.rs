//! The tool-side client library.
//!
//! "A library of subroutines handles most interactions with the PPM, so
//! that user-written programs may easily make use of PPM's capabilities."
//! [`Tool`] is that library wrapped in a runnable program: it locates (or
//! creates) the user's local LPM through the Figure-2 chain, authenticates,
//! plays a script of requests, records every reply with its timing into a
//! shared [`ToolOutcome`], and exits.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use ppm_proto::codec::Wire;
use ppm_proto::msg::{Msg, Op, Reply, ReqRef};
use ppm_proto::types::{Name, Route};
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

/// One script step as the tool saw it.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// When the request was sent.
    pub sent_at: SimTime,
    /// The reply and when it arrived, once it has.
    pub reply: Option<(Reply, SimTime)>,
}

/// What the tool observed, shared with the test/benchmark driver.
#[derive(Debug, Clone, Default)]
pub struct ToolOutcome {
    /// The steps sent so far, in script order; room for the whole script
    /// is made when the tool is created. A reply lands in its step's
    /// entry as it arrives, in whatever order replies arrive.
    pub steps: Vec<StepOutcome>,
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
        let step = self.steps.get(i)?;
        let (_, at) = step.reply.as_ref()?;
        Some(at.saturating_since(step.sent_at))
    }

    /// The reply of step `i`, if it arrived.
    pub fn reply(&self, i: usize) -> Option<&Reply> {
        self.steps.get(i)?.reply.as_ref().map(|(r, _)| r)
    }

    /// The replies that arrived, in script order, with when each did.
    pub fn replies(&self) -> impl Iterator<Item = (&Reply, SimTime)> {
        let answered = self.steps.iter().filter_map(|s| s.reply.as_ref());
        answered.map(|(r, at)| (r, *at))
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
    /// Steps answered so far.
    answered: usize,
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
        let outcome = ToolOutcome {
            steps: Vec::with_capacity(script.len()),
            ..ToolOutcome::default()
        };
        let outcome: ToolHandle = Arc::new(Mutex::new(outcome));
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
            answered: 0,
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
            let ToolStep { dest, op } = &self.script[self.step];
            let deadline_us = self
                .step_deadline
                .map_or(0, |d| (sys.now() + d).as_micros());
            let frame = ReqRef {
                id: self.step as u64 + 1,
                user: self.cred.uid.0,
                dest,
                op,
                route: &Route::default(),
                hops_left: self.cfg.max_hops,
                deadline_us,
                attempt: 0,
                boot: 0,
            }
            .to_bytes();
            let sent = StepOutcome {
                sent_at: sys.now(),
                reply: None,
            };
            self.outcome.lock().unwrap().steps.push(sent);
            self.step += 1;
            if sys.send(conn, frame).is_err() {
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
        self.step - self.answered
    }

    /// Records the reply with wire id `id` in the step it answers, if
    /// that step was sent and is still unanswered: id 0, an id never
    /// sent and a duplicate are not. Returns whether it was recorded.
    fn record_reply(&mut self, id: u64, reply: Reply, at: SimTime) -> bool {
        let Some(idx) = id.checked_sub(1).and_then(|i| usize::try_from(i).ok()) else {
            return false;
        };
        let mut o = self.outcome.lock().unwrap();
        match o.steps.get_mut(idx) {
            Some(step) if step.reply.is_none() => {
                step.reply = Some((reply, at));
                self.answered += 1;
                true
            }
            _ => false,
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
                    if self.record_reply(id, reply, sys.now()) {
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
        assert_eq!(handle.lock().unwrap().replies().count(), 0);
        assert_eq!(sent_ids(&sys), [1], "nothing answered, nothing more sent");

        answer(&mut tool, &mut sys, 1, Reply::Pong);
        assert_eq!(sent_ids(&sys), [1, 2]);
        answer(&mut tool, &mut sys, 1, Reply::Ok);
        assert_eq!(handle.lock().unwrap().replies().count(), 1, "a duplicate");
        assert_eq!(sent_ids(&sys), [1, 2]);
        assert_eq!(sys.exited, None);

        answer(&mut tool, &mut sys, 2, Reply::Pong);
        let o = handle.lock().unwrap();
        assert!(o.done);
        assert_eq!(sys.exited, Some(0));
        assert!(o.replies().all(|(r, _)| matches!(r, Reply::Pong)));
        assert_eq!(o.replies().count(), 2);
    }

    #[test]
    fn pipelined_replies_out_of_order_land_in_script_order() {
        let (mut tool, handle, mut sys) = connected(4, 3);
        assert_eq!(sent_ids(&sys), [1, 2, 3]);
        let err = |detail: &str| Reply::Err {
            code: ErrCode::BadRequest,
            detail: detail.to_string(),
        };
        // Step 2's reply lands first, twice: the first is kept in its
        // step, and a step is sent in its place.
        answer(&mut tool, &mut sys, 3, err("third"));
        answer(&mut tool, &mut sys, 3, err("again"));
        assert!(handle.lock().unwrap().reply(0).is_none());
        assert_eq!(sent_ids(&sys), [1, 2, 3, 4]);
        answer(&mut tool, &mut sys, 2, err("second"));
        answer(&mut tool, &mut sys, 4, err("fourth"));
        assert!(!handle.lock().unwrap().done);
        answer(&mut tool, &mut sys, 1, err("first"));
        let o = handle.lock().unwrap();
        let details: Vec<&str> = o
            .replies()
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
        o.steps.push(StepOutcome {
            sent_at: SimTime::from_millis(10),
            reply: Some((Reply::Ok, SimTime::from_millis(40))),
        });
        o.steps.push(StepOutcome {
            sent_at: SimTime::from_millis(20),
            reply: None,
        });
        assert_eq!(o.elapsed(0), Some(SimDuration::from_millis(30)));
        assert_eq!(o.elapsed(1), None);
        assert_eq!(o.elapsed(2), None);
        assert!(matches!(o.reply(0), Some(Reply::Ok)));
        assert!(o.reply(1).is_none());
    }

    #[test]
    fn tool_construction_shares_outcome() {
        let (tool, handle) = Tool::new(
            UserCred::new(Uid(1), 2),
            PpmConfig::default(),
            vec![ToolStep::new("a", Op::Ping)],
        );
        let o = handle.lock().unwrap();
        assert!(!o.done);
        assert!(o.steps.capacity() >= 1, "room for the script up front");
        assert_eq!(tool.script.len(), 1);
        assert_eq!(tool.pipeline, 1);
    }

    #[test]
    fn out_of_order_replies_land_in_their_steps() {
        let (mut tool, handle, _sys) = connected(2, 4);
        assert_eq!(tool.pipeline, 4);
        // Step 1's reply lands first, in step 1; step 0 is still open.
        assert!(tool.record_reply(2, Reply::Ok, SimTime::from_millis(5)));
        assert!(handle.lock().unwrap().reply(0).is_none());
        assert!(tool.record_reply(1, Reply::Pong, SimTime::from_millis(9)));
        assert!(!tool.record_reply(1, Reply::Ok, SimTime::from_millis(9)));
        let o = handle.lock().unwrap();
        assert!(matches!(o.reply(0), Some(Reply::Pong)));
        assert!(matches!(o.reply(1), Some(Reply::Ok)));
    }
}
