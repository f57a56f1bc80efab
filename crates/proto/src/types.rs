//! Protocol data types: names, global pids, signed timestamps, routes,
//! and the record types carried in replies.

use std::fmt;

use ppm_runtime::hashx::{fnv1a_fold, FNV_OFFSET};

use crate::codec::{CodecError, Dec, Enc, Wire};

pub use ppm_runtime::name::Name;

impl Wire for Name {
    #[inline]
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.str_ref().map(Name::new)
    }
}

/// A network-global process identity, written `<host name, pid>` as in the
/// paper ("Processes are identified in the network by `<host name, pid>`").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gpid {
    /// Host name.
    pub host: Name,
    /// Pid on that host.
    pub pid: u32,
}

impl Gpid {
    /// Convenience constructor.
    pub fn new(host: impl Into<Name>, pid: u32) -> Self {
        Gpid {
            host: host.into(),
            pid,
        }
    }
}

impl fmt::Display for Gpid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.host, self.pid)
    }
}

impl Wire for Gpid {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.host);
        enc.u32(self.pid);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Gpid {
            host: Name::decode(dec)?,
            pid: dec.u32()?,
        })
    }
}

/// The signed timestamp carried by broadcast requests.
///
/// Per Section 4: "A scheme for not retransmitting old broadcast requests
/// has been implemented using a signed timestamp in which the name of the
/// originating host appears." The signature is an FNV-1a keyed hash over
/// the other fields — a stand-in for the paper-era shared-secret signing
/// (host-level masquerade was explicitly out of scope there too).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stamp {
    /// Originating host name. A stamp is cloned on every hop of the echo
    /// wave and keyed into the seen/active maps; a [`Name`] clones
    /// without allocating.
    pub origin: Name,
    /// Per-origin sequence number.
    pub seq: u64,
    /// Origination time, microseconds of simulated time.
    pub at_us: u64,
    /// Keyed hash over `(origin, seq, at_us)`.
    pub sig: u64,
}

impl Stamp {
    /// Creates a stamp signed with `secret`.
    pub fn signed(origin: impl Into<Name>, seq: u64, at_us: u64, secret: u64) -> Self {
        let origin = origin.into();
        let sig = Self::compute_sig(&origin, seq, at_us, secret);
        Stamp {
            origin,
            seq,
            at_us,
            sig,
        }
    }

    fn compute_sig(origin: &str, seq: u64, at_us: u64, secret: u64) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET, origin.as_bytes());
        h = fnv1a_fold(h, &seq.to_be_bytes());
        h = fnv1a_fold(h, &at_us.to_be_bytes());
        fnv1a_fold(h, &secret.to_be_bytes())
    }

    /// Verifies the signature against `secret`.
    pub fn verify(&self, secret: u64) -> bool {
        self.sig == Self::compute_sig(&self.origin, self.seq, self.at_us, secret)
    }

    /// The deduplication key (origin, seq) — `at_us` only drives window
    /// expiry.
    pub fn key(&self) -> (Name, u64) {
        (self.origin.clone(), self.seq)
    }
}

impl Wire for Stamp {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.origin);
        enc.u64(self.seq);
        enc.u64(self.at_us);
        enc.u64(self.sig);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Stamp {
            origin: Name::decode(dec)?,
            seq: dec.u64()?,
            at_us: dec.u64()?,
            sig: dec.u64()?,
        })
    }

    /// Counted, not encoded: a relay's aggregate is written into a
    /// buffer sized up front, and it starts with the wave's stamp.
    fn wire_len(&self) -> usize {
        2 + self.origin.len() + 24
    }
}

/// The most hosts a route may name: the origin, one relay for each unit
/// of a directed request's `u8` hop budget, and the responder. No honest
/// relay chain makes a longer route, so decoding refuses one — an LPM that
/// pushed its own name onto a route of `u16::MAX` hosts could not encode
/// its answer.
pub const MAX_ROUTE_HOSTS: usize = u8::MAX as usize + 2;

/// The hosts a message traversed, in order. "All data returned to the
/// originator of a broadcast request includes the message's
/// source-destination route. This allows quick routing of messages
/// affecting processes in topologically distant hosts."
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Route(pub Vec<Name>);

impl Route {
    /// A route starting at `origin`.
    pub fn from_origin(origin: impl Into<Name>) -> Self {
        Route(vec![origin.into()])
    }

    /// Appends a hop (no-op if it is already the last entry).
    pub fn push(&mut self, host: impl Into<Name>) {
        let host = host.into();
        if self.0.last() != Some(&host) {
            self.0.push(host);
        }
    }

    /// Whether the route already visits `host` (loop prevention).
    pub fn contains(&self, host: &str) -> bool {
        self.0.iter().any(|h| h == host)
    }

    /// Number of hops (edges) traversed.
    pub fn hops(&self) -> usize {
        self.0.len().saturating_sub(1)
    }

    /// The host the route started from.
    pub fn origin(&self) -> Option<&str> {
        self.0.first().map(Name::as_str)
    }

    /// The host the route last visited.
    pub fn last(&self) -> Option<&str> {
        self.0.last().map(Name::as_str)
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join(" -> "))
    }
}

impl Wire for Route {
    fn encode(&self, enc: &mut Enc) {
        enc.seq(&self.0, |e, h| e.str(h));
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = dec.seq_len()?;
        if n > MAX_ROUTE_HOSTS {
            return Err(CodecError::TooLong {
                what: "Route",
                len: n,
            });
        }
        let mut hosts = Vec::with_capacity(n);
        for _ in 0..n {
            hosts.push(Name::decode(dec)?);
        }
        Ok(Route(hosts))
    }

    /// Counted, not encoded: replies are spliced into frames sized up
    /// front, and every one of them ends in a route.
    fn wire_len(&self) -> usize {
        2 + self.0.iter().map(|h| 2 + h.len()).sum::<usize>()
    }
}

/// Process state on the wire (the paper's running / stopped / dead, plus
/// embryonic creations in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireProcState {
    /// Runnable or running.
    Running,
    /// Stopped by signal.
    Stopped,
    /// Exited; retained in the tree while children are alive.
    Dead,
    /// Creation in progress.
    Embryo,
}

impl WireProcState {
    fn tag(self) -> u8 {
        match self {
            WireProcState::Running => 0,
            WireProcState::Stopped => 1,
            WireProcState::Dead => 2,
            WireProcState::Embryo => 3,
        }
    }
}

impl fmt::Display for WireProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireProcState::Running => "running",
            WireProcState::Stopped => "stopped",
            WireProcState::Dead => "dead",
            WireProcState::Embryo => "embryo",
        })
    }
}

impl Wire for WireProcState {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(self.tag());
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(WireProcState::Running),
            1 => Ok(WireProcState::Stopped),
            2 => Ok(WireProcState::Dead),
            3 => Ok(WireProcState::Embryo),
            tag => Err(CodecError::BadTag {
                what: "WireProcState",
                tag,
            }),
        }
    }
}

/// One process in a snapshot reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcRecord {
    /// Where the process runs.
    pub gpid: Gpid,
    /// Local parent pid (1 when parentless on its host).
    pub ppid: u32,
    /// The *logical* parent when the process was created remotely on
    /// behalf of a process on another host.
    pub logical_parent: Option<Gpid>,
    /// Command name.
    pub command: Name,
    /// State.
    pub state: WireProcState,
    /// Creation time (µs, simulated).
    pub started_us: u64,
    /// CPU consumed so far (µs).
    pub cpu_us: u64,
    /// Whether the LPM adopted it.
    pub adopted: bool,
}

impl ProcRecord {
    /// This record with its strings borrowed.
    pub fn view(&self) -> ProcRecordRef<'_> {
        ProcRecordRef {
            host: &self.gpid.host,
            pid: self.gpid.pid,
            ppid: self.ppid,
            logical_parent: self.logical_parent.as_ref().map(|g| (&*g.host, g.pid)),
            command: &self.command,
            state: self.state,
            started_us: self.started_us,
            cpu_us: self.cpu_us,
            adopted: self.adopted,
        }
    }
}

impl Wire for ProcRecord {
    fn encode(&self, enc: &mut Enc) {
        self.view().encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        ProcRecordRef::decode(dec).map(ProcRecordRef::to_record)
    }
}

/// A [`ProcRecord`] whose strings are borrowed: from the genealogy that
/// is being reported, or from the frame a record arrived in.
///
/// This is the one place that knows a record's wire layout —
/// [`ProcRecord`]'s own [`Wire`] impl goes through it — so a record
/// written straight from an LPM's slab and a record merely walked over at
/// a broadcast's originator are encoded and checked exactly as the owned
/// type is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcRecordRef<'a> {
    /// Host the process runs on.
    pub host: &'a str,
    /// Pid on that host.
    pub pid: u32,
    /// Local parent pid.
    pub ppid: u32,
    /// Logical parent `(host, pid)`, when created remotely.
    pub logical_parent: Option<(&'a str, u32)>,
    /// Command name.
    pub command: &'a str,
    /// State.
    pub state: WireProcState,
    /// Creation time (µs, simulated).
    pub started_us: u64,
    /// CPU consumed so far (µs).
    pub cpu_us: u64,
    /// Whether the LPM adopted it.
    pub adopted: bool,
}

impl<'a> ProcRecordRef<'a> {
    /// Appends the record in [`ProcRecord`]'s wire form.
    #[inline]
    pub fn encode(&self, enc: &mut Enc) {
        enc.str(self.host);
        enc.u32(self.pid);
        enc.u32(self.ppid);
        enc.opt(&self.logical_parent, |e, (host, pid)| {
            e.str(host);
            e.u32(*pid);
        });
        enc.str(self.command);
        self.state.encode(enc);
        enc.u64(self.started_us);
        enc.u64(self.cpu_us);
        enc.bool(self.adopted);
    }

    /// Reads one record, checking every length, string, option byte and
    /// state tag, and allocating nothing. Always inlined: every record
    /// that crosses an LPM is walked through here, and the walk's loop
    /// should not make a call per record.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    #[inline(always)]
    pub fn decode(dec: &mut Dec<'a>) -> Result<Self, CodecError> {
        Ok(ProcRecordRef {
            host: dec.str_ref()?,
            pid: dec.u32()?,
            ppid: dec.u32()?,
            logical_parent: dec.opt(|d| Ok((d.str_ref()?, d.u32()?)))?,
            command: dec.str_ref()?,
            state: WireProcState::decode(dec)?,
            started_us: dec.u64()?,
            cpu_us: dec.u64()?,
            adopted: dec.bool()?,
        })
    }

    /// The owned record: no allocation for names that fit inline.
    #[inline]
    pub fn to_record(self) -> ProcRecord {
        ProcRecord {
            gpid: Gpid::new(self.host, self.pid),
            ppid: self.ppid,
            logical_parent: self.logical_parent.map(|(host, pid)| Gpid::new(host, pid)),
            command: Name::new(self.command),
            state: self.state,
            started_us: self.started_us,
            cpu_us: self.cpu_us,
            adopted: self.adopted,
        }
    }
}

/// Resource statistics of one exited process (the paper's second tool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RusageRecord {
    /// Identity.
    pub gpid: Gpid,
    /// Command name.
    pub command: Name,
    /// Exit time (µs, simulated).
    pub exited_us: u64,
    /// Exit code, or the signal number that killed it (negated - 1000).
    pub status: i32,
    /// CPU consumed (µs).
    pub cpu_us: u64,
    /// Messages sent / received.
    pub msgs: u64,
    /// Bytes sent / received.
    pub bytes: u64,
    /// Files opened.
    pub files: u64,
    /// Children forked.
    pub forks: u64,
}

impl Wire for RusageRecord {
    fn encode(&self, enc: &mut Enc) {
        self.gpid.encode(enc);
        enc.str(&self.command);
        enc.u64(self.exited_us);
        enc.i32(self.status);
        enc.u64(self.cpu_us);
        enc.u64(self.msgs);
        enc.u64(self.bytes);
        enc.u64(self.files);
        enc.u64(self.forks);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(RusageRecord {
            gpid: Gpid::decode(dec)?,
            command: Name::decode(dec)?,
            exited_us: dec.u64()?,
            status: dec.i32()?,
            cpu_us: dec.u64()?,
            msgs: dec.u64()?,
            bytes: dec.u64()?,
            files: dec.u64()?,
            forks: dec.u64()?,
        })
    }
}

/// One entry of an LPM's history log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRecord {
    /// When (µs, simulated).
    pub at_us: u64,
    /// Which process.
    pub gpid: Gpid,
    /// Event kind ("fork", "exec", "exit", "signal", ...).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

impl Wire for HistoryRecord {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.at_us);
        self.gpid.encode(enc);
        enc.str(&self.kind);
        enc.str(&self.detail);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        HistoryRecordRef::decode(dec).map(HistoryRecordRef::to_record)
    }
}

/// A [`HistoryRecord`] whose strings are borrowed from the bytes it was
/// read off: the one reader of its wire layout, as [`ProcRecordRef`] is
/// a snapshot record's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryRecordRef<'a> {
    /// When (µs, simulated).
    pub at_us: u64,
    /// Host of the process.
    pub host: &'a str,
    /// Its pid there.
    pub pid: u32,
    /// Event kind.
    pub kind: &'a str,
    /// Free-form detail.
    pub detail: &'a str,
}

impl<'a> HistoryRecordRef<'a> {
    /// Reads one record, checking every length and string, and
    /// allocating nothing.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn decode(dec: &mut Dec<'a>) -> Result<Self, CodecError> {
        Ok(HistoryRecordRef {
            at_us: dec.u64()?,
            host: dec.str_ref()?,
            pid: dec.u32()?,
            kind: dec.str_ref()?,
            detail: dec.str_ref()?,
        })
    }

    /// The owned record.
    pub fn to_record(self) -> HistoryRecord {
        HistoryRecord {
            at_us: self.at_us,
            gpid: Gpid::new(self.host, self.pid),
            kind: self.kind.to_owned(),
            detail: self.detail.to_owned(),
        }
    }
}

/// One open descriptor of a process (for the files/fd tools of Section 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// Descriptor number.
    pub fd: u32,
    /// Kind: "file", "socket", "listener", "kernel".
    pub kind: String,
    /// Path or peer description.
    pub detail: String,
}

impl Wire for FileRecord {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.fd);
        enc.str(&self.kind);
        enc.str(&self.detail);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(FileRecord {
            fd: dec.u32()?,
            kind: dec.str()?,
            detail: dec.str()?,
        })
    }
}

/// One metric of an LPM's observability registry, as pulled over the wire
/// by `Op::Metrics` and answered in `Reply::Metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Registry name, e.g. `"rpc.retries"`.
    pub name: String,
    /// `0` counter, `1` gauge, `2` log2 histogram.
    pub kind: u8,
    /// Counter or gauge value; for histograms, the sample count.
    pub value: i64,
    /// Histogram sum (zero for counters and gauges).
    pub sum: u64,
    /// Histogram buckets, trimmed after the last occupied one (empty for
    /// counters and gauges); bucket `i` counts values of bit length `i`.
    pub buckets: Vec<u64>,
}

impl Wire for MetricRow {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.name);
        enc.u8(self.kind);
        enc.i64(self.value);
        enc.u64(self.sum);
        enc.seq(&self.buckets, |e, b| e.u64(*b));
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(MetricRow {
            name: dec.str()?,
            kind: dec.u8()?,
            value: dec.i64()?,
            sum: dec.u64()?,
            buckets: dec.seq(|d| d.u64())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpid_displays_like_the_paper() {
        assert_eq!(Gpid::new("ucbvax", 42).to_string(), "<ucbvax, 42>");
    }

    #[test]
    fn gpid_roundtrip() {
        let g = Gpid::new("calder", 7);
        assert_eq!(Gpid::from_bytes(&g.to_bytes()).unwrap(), g);
    }

    #[test]
    fn stamp_signature_verifies_with_right_secret_only() {
        let s = Stamp::signed("ucbvax", 3, 1_000_000, 0xDEAD);
        assert!(s.verify(0xDEAD));
        assert!(!s.verify(0xBEEF));
        let mut forged = s.clone();
        forged.origin = "evil".into();
        assert!(!forged.verify(0xDEAD));
        let mut replayed = s.clone();
        replayed.seq = 4;
        assert!(!replayed.verify(0xDEAD));
    }

    #[test]
    fn stamp_roundtrip_and_key() {
        let s = Stamp::signed("a", 9, 55, 1);
        assert_eq!(Stamp::from_bytes(&s.to_bytes()).unwrap(), s);
        assert_eq!(s.wire_len(), s.to_bytes().len());
        assert_eq!(s.key(), ("a".into(), 9));
    }

    #[test]
    fn route_grows_without_duplicate_tail() {
        let mut r = Route::from_origin("a");
        r.push("b");
        r.push("b");
        r.push("c");
        assert_eq!(r.to_string(), "a -> b -> c");
        assert_eq!(r.hops(), 2);
        assert!(r.contains("b"));
        assert!(!r.contains("z"));
        assert_eq!(r.origin(), Some("a"));
        assert_eq!(r.last(), Some("c"));
    }

    #[test]
    fn route_roundtrip() {
        let mut r = Route::from_origin("x");
        r.push("y");
        assert_eq!(Route::from_bytes(&r.to_bytes()).unwrap(), r);
        assert_eq!(r.wire_len(), r.to_bytes().len());
        let empty = Route::default();
        assert_eq!(empty.wire_len(), empty.to_bytes().len());
        assert_eq!(empty.hops(), 0);
        assert_eq!(empty.origin(), None);
    }

    #[test]
    fn a_route_past_the_hop_budget_is_refused() {
        let longest = Route(
            (0..MAX_ROUTE_HOSTS)
                .map(|i| format!("h{i}").into())
                .collect(),
        );
        assert_eq!(Route::from_bytes(&longest.to_bytes()).unwrap(), longest);
        let mut past = longest;
        past.push("one-more");
        assert_eq!(
            Route::from_bytes(&past.to_bytes()),
            Err(CodecError::TooLong {
                what: "Route",
                len: MAX_ROUTE_HOSTS + 1
            })
        );
    }

    #[test]
    fn proc_state_roundtrip_and_bad_tag() {
        for s in [
            WireProcState::Running,
            WireProcState::Stopped,
            WireProcState::Dead,
            WireProcState::Embryo,
        ] {
            assert_eq!(WireProcState::from_bytes(&s.to_bytes()).unwrap(), s);
        }
        assert!(matches!(
            WireProcState::from_bytes(&[9]),
            Err(CodecError::BadTag { .. })
        ));
    }

    #[test]
    fn proc_record_roundtrip() {
        let r = ProcRecord {
            gpid: Gpid::new("a", 10),
            ppid: 1,
            logical_parent: Some(Gpid::new("b", 77)),
            command: "cc".into(),
            state: WireProcState::Stopped,
            started_us: 123,
            cpu_us: 456,
            adopted: true,
        };
        assert_eq!(ProcRecord::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn rusage_and_history_and_file_roundtrip() {
        let r = RusageRecord {
            gpid: Gpid::new("a", 10),
            command: "troff".into(),
            exited_us: 1,
            status: -1009,
            cpu_us: 2,
            msgs: 3,
            bytes: 4,
            files: 5,
            forks: 6,
        };
        assert_eq!(RusageRecord::from_bytes(&r.to_bytes()).unwrap(), r);
        let h = HistoryRecord {
            at_us: 9,
            gpid: Gpid::new("b", 2),
            kind: "exit".into(),
            detail: "code 0".into(),
        };
        assert_eq!(HistoryRecord::from_bytes(&h.to_bytes()).unwrap(), h);
        let f = FileRecord {
            fd: 3,
            kind: "file".into(),
            detail: "/etc/passwd".into(),
        };
        assert_eq!(FileRecord::from_bytes(&f.to_bytes()).unwrap(), f);
    }
}
