//! Binary wire codec.
//!
//! A small, explicit, length-checked binary format, written here rather
//! than taken from a serialization framework for two reasons: the
//! byte-exact message sizes feed the latency models — Table 1 is about a
//! *112-byte* message — and the decoder must be robust against arbitrary
//! bytes, since LPMs accept connections from the network.
//!
//! Conventions: integers are big-endian; strings are `u16` length-prefixed
//! UTF-8; byte blobs are `u32` length-prefixed; sequences are `u16`
//! count-prefixed; options are a one-byte tag; tuples, records and
//! variants' fields are their members in order. Batches of messages are
//! `u32` count-prefixed sequences of `u32` length-prefixed frames (see
//! [`encode_batch`] / [`frames`]).
//!
//! # The wire table
//!
//! Every wire enum and record struct is declared once, through the
//! crate's `wire!` macro: its docs and derives, each variant's tag
//! (and trace name, where the type has `kind()`), and each field with its
//! type. The table generates the type itself, [`Wire::encode`] and
//! [`Wire::decode`] — [`CodecError::BadTag`] for any tag it does not list
//! — `kind()`, and a `TAGS` list. A field is written by its type's own
//! [`Wire`] impl (scalars, `String`, [`Bytes`], `Option`, `Vec`, `Box`
//! and tuples have one here), so adding a message is writing one entry.
//!
//! What stays written by hand, and why, is said beside each piece: the
//! borrowed readers an LPM runs over arriving bytes (`ProcRecordRef`,
//! `HistoryRecordRef`, `ReplyRef::read`, `Inbound`, `WirePart`,
//! `kernel_wire::decode_kernel_msg`), the splices that write a message
//! without building it (`WireReply`, `Msg::bcast_agg_bytes`), `Route`
//! for its storage, and `Name` and `KernelMsg`, which live in
//! `ppm-runtime`.
//!
//! # Allocation discipline
//!
//! Encoding is the hottest protocol path — every request, relay, and
//! broadcast fan-out serializes at least one message. [`Enc::pooled`]
//! draws its buffer from a thread-local pool so steady-state encoding
//! never grows a fresh `Vec` through the realloc ladder; the buffer's
//! capacity is recycled when the encoder finishes. On the decode side,
//! [`Dec::str_ref`] borrows string fields straight out of the receive
//! buffer so callers that only inspect (route hops, host-name dispatch)
//! skip the per-field `String` allocation that [`Dec::str`] pays.
//! A value that is only passed on is not decoded at all: [`Dec::pos`]
//! (and [`Dec::sub`], [`FrameIter::next_dec`] for values inside a frame)
//! say where it sits in the buffer, so it can be kept as a
//! [`Bytes::slice`] and written back out with [`Enc::splice`].

use std::cell::RefCell;
use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// Buffers at most this large are returned to the encode pool; anything
/// bigger (a huge snapshot reply) is freed rather than hoarded. A kernel
/// batch fits: the largest a 1 365-process fork/exec/exit wave flushes
/// is 29.7 KB, so its grown buffer is kept, not regrown from empty by
/// the next large batch.
const POOL_MAX_CAPACITY: usize = 32 * 1024;

/// Buffers retained per thread. Encoding rarely nests more than a frame
/// inside a batch, so a small stack suffices.
const POOL_MAX_BUFFERS: usize = 8;

thread_local! {
    /// Recycled encode buffers, cleared but with capacity intact.
    static ENC_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a warm buffer from the pool (or a fresh one).
fn pool_get() -> Vec<u8> {
    ENC_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a buffer to the pool if it is worth keeping.
fn pool_put(mut buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAPACITY {
        return;
    }
    buf.clear();
    ENC_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_MAX_BUFFERS {
            pool.push(buf);
        }
    });
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated,
    /// A tag byte had no corresponding variant.
    BadTag {
        /// Context description (which type was being decoded).
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
    /// A sequence held more entries than any honest sender writes.
    TooLong {
        /// Context description (which type was being decoded).
        what: &'static str,
        /// The count the input claimed.
        len: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("message truncated"),
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            CodecError::BadUtf8 => f.write_str("invalid utf-8 in string field"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            CodecError::TooLong { what, len } => write!(f, "{len} entries is too many for {what}"),
        }
    }
}

impl Error for CodecError {}

/// The most bytes a protocol string carries: its length is a `u16`.
pub const MAX_STR_BYTES: usize = u16::MAX as usize;

/// `text` cut to at most [`MAX_STR_BYTES`] bytes, at a char boundary.
/// For text composed around a name from outside (an error's detail, a
/// history note): a name at the limit would otherwise carry it past
/// what [`Enc::str`] can write.
pub fn clip_str(text: &str) -> &str {
    let mut end = text.len().min(MAX_STR_BYTES);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// Encoder: accumulates bytes.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
    /// Whether `buf` came from (and returns to) the thread-local pool.
    pooled: bool,
}

impl Enc {
    /// Creates an empty encoder with a fresh buffer.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Creates an encoder backed by a recycled thread-local buffer.
    ///
    /// The buffer's capacity survives across messages, so steady-state
    /// encoding performs no growth reallocations; [`Enc::into_bytes`]
    /// copies the encoding into an exact-size buffer and recycles the
    /// working one.
    pub fn pooled() -> Self {
        Enc {
            buf: pool_get(),
            pooled: true,
        }
    }

    /// Creates an encoder over a fresh buffer of exactly `n` bytes, for
    /// callers that know the encoded size up front (a reply spliced out
    /// of pieces already on the wire): the buffer never regrows and
    /// [`Enc::into_bytes`] hands it over without the pooled path's copy.
    pub fn with_capacity(n: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(n),
            pooled: false,
        }
    }

    /// Finishes encoding, yielding the bytes.
    pub fn into_bytes(self) -> Bytes {
        if self.pooled {
            let out = Bytes::copy_from_slice(&self.buf);
            pool_put(self.buf);
            out
        } else {
            Bytes::from(self.buf)
        }
    }

    /// Finishes encoding, yielding only the length (recycling the buffer
    /// when pooled). Used for size queries that never need the bytes.
    pub fn into_len(self) -> usize {
        let n = self.buf.len();
        if self.pooled {
            pool_put(self.buf);
        }
        n
    }

    /// Appends whatever `body` writes as a `u32` length-prefixed frame.
    ///
    /// The length slot is reserved up front and patched after the body
    /// encodes, so framing costs no extra buffer or second encode pass.
    pub fn frame_with(&mut self, body: impl FnOnce(&mut Self)) {
        let slot = self.buf.len();
        self.u32(0);
        body(self);
        let len = u32::try_from(self.buf.len() - slot - 4).expect("frame fits in u32");
        self.buf[slot..slot + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// Makes room for at least `additional` more bytes, growing the
    /// buffer as a `Vec` does: for a caller that knows what it is about
    /// to write, so that its last field does not regrow the buffer.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends bytes that are already in wire form (no length prefix):
    /// how a value is forwarded without being decoded.
    #[inline]
    pub fn splice(&mut self, encoded: &[u8]) {
        self.buf.extend_from_slice(encoded);
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` big-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u32` big-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u64` big-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes an `i32` big-endian.
    #[inline]
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes an `i64` big-endian.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a bool as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds [`MAX_STR_BYTES`] (protocol fields
    /// are short names and paths; composed text is [`clip_str`]ped).
    #[inline]
    pub fn str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("protocol string fits in u16");
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a `u32` length-prefixed byte blob.
    ///
    /// Blobs carry nested pre-encoded payloads (aggregated reply batches),
    /// so the length prefix is `u32` rather than the string codec's `u16`.
    ///
    /// # Panics
    ///
    /// Panics if the blob exceeds `u32::MAX` bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        let len = u32::try_from(b.len()).expect("protocol blob fits in u32");
        self.u32(len);
        self.buf.extend_from_slice(b);
    }

    /// Writes an `Option` with a one-byte presence tag.
    #[inline]
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Writes the count that prefixes a sequence, for callers that write
    /// the elements themselves.
    ///
    /// # Panics
    ///
    /// Panics if the count exceeds `u16::MAX`.
    #[inline]
    pub fn seq_len(&mut self, count: usize) {
        self.u16(u16::try_from(count).expect("protocol sequence fits in u16"));
    }

    /// Writes a count-prefixed sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence exceeds `u16::MAX` entries.
    #[inline]
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.seq_len(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Decoder: a cursor over received bytes.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Offset of the next unread byte from the start of the input this
    /// decoder (or the decoder it was carved from, see [`Dec::sub`]) was
    /// created over. A caller that holds that input as [`Bytes`] can
    /// slice a value out of it by the positions before and after.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Carves the next `len` bytes off as a decoder of their own, which
    /// cannot read past them. Its [`Dec::pos`] keeps counting from the
    /// start of this decoder's input.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn sub(&mut self, len: usize) -> Result<Dec<'a>, CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let start = self.pos;
        self.pos += len;
        Ok(Dec {
            data: &self.data[..self.pos],
            pos: start,
        })
    }

    /// The bytes read since `start`, an earlier [`Dec::pos`] of this
    /// decoder.
    #[inline]
    pub fn read_since(&self, start: usize) -> &'a [u8] {
        &self.data[start..self.pos]
    }

    /// Fails unless all input was consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`].
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `i32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a bool (any nonzero byte is true).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed string, borrowing it from the input.
    ///
    /// The returned slice lives as long as the receive buffer, so callers
    /// that only inspect the field (dispatch on a host name, compare a
    /// route hop) pay no allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadUtf8`].
    #[inline]
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed string into an owned `String`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadUtf8`].
    #[inline]
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a `u32` length-prefixed byte blob, borrowing it from the
    /// input (the zero-copy mate of [`Enc::bytes`]).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    #[inline]
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads an `Option`.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] for a tag other than 0 or 1, plus whatever
    /// the element decoder returns.
    #[inline]
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }

    /// Reads the count that prefixes a sequence.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], also for a count the remaining input
    /// cannot hold.
    #[inline]
    pub fn seq_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u16()? as usize;
        // Guard against absurd counts in hostile input: each element needs
        // at least one byte.
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a count-prefixed sequence.
    ///
    /// # Errors
    ///
    /// Whatever the element decoder returns.
    #[inline]
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Types that encode to / decode from the wire format.
pub trait Wire: Sized {
    /// Appends this value to the encoder.
    fn encode(&self, enc: &mut Enc);

    /// Reads one value from the decoder.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError>;

    /// Encodes to a standalone byte string using a pooled buffer.
    fn to_bytes(&self) -> Bytes {
        let mut enc = Enc::pooled();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decodes from a complete byte string (no trailing bytes allowed).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(data);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    /// Encoded size in bytes.
    fn wire_len(&self) -> usize {
        let mut enc = Enc::pooled();
        self.encode(&mut enc);
        enc.into_len()
    }
}

/// Integers and `bool`: the [`Enc`] / [`Dec`] method of the same name.
macro_rules! scalar_wire {
    ($($t:ident)*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, enc: &mut Enc) {
                enc.$t(*self);
            }

            #[inline]
            fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
                dec.$t()
            }
        }
    )*};
}

scalar_wire!(u8 u16 u32 u64 i32 i64 bool);

impl Wire for String {
    #[inline]
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.str()
    }
}

/// A `u32` length-prefixed blob, copied out of the input on decode.
impl Wire for Bytes {
    #[inline]
    fn encode(&self, enc: &mut Enc) {
        enc.bytes(self);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.bytes_ref().map(Bytes::copy_from_slice)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, enc: &mut Enc) {
        enc.opt(self, |e, v| v.encode(e));
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.opt(T::decode)
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode(&self, enc: &mut Enc) {
        enc.seq(self, |e, v| v.encode(e));
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.seq(T::decode)
    }
}

impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn encode(&self, enc: &mut Enc) {
        T::encode(self, enc);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        T::decode(dec).map(Box::new)
    }
}

/// Tuples: their members in order.
macro_rules! tuple_wire {
    ($(($($T:ident),+))+) => {$(
        #[allow(non_snake_case)]
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            #[inline]
            fn encode(&self, enc: &mut Enc) {
                let ($($T,)+) = self;
                $($T.encode(enc);)+
            }

            #[inline]
            fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(($($T::decode(dec)?,)+))
            }
        }
    )+};
}

tuple_wire!((A, B)(A, B, C));

/// The wire table: declares one wire enum or record struct and generates
/// its [`Wire`] impl, so that its layout is written once.
///
/// A struct is written as usual; its fields are encoded in order, each by
/// its type's [`Wire`] impl. Items after the struct (a `wire_len` that
/// counts instead of encoding) go into the generated impl.
///
/// In an enum, each variant is led by `[tag]`, or `[tag, "name"]` when
/// the type has a `kind()` (then every variant has a name); a variant is
/// its tag byte followed by its fields in order. A tuple variant names
/// its fields, as in `Signal(signal: u8)`, which declares `Signal(u8)`.
/// An enum also gets `TAGS`, every tag in the table, and its decoder
/// refuses any other byte with [`CodecError::BadTag`].
///
/// A field may be followed by `=> f`: it is then written by
/// `f(&field, enc)` (decoding is still by its type).
macro_rules! wire {
    (
        $(#[$m:meta])*
        $vis:vis struct $Name:ident {
            $( $(#[$fm:meta])* $fvis:vis $f:ident : $ft:ty $(=> $fenc:path)? ),* $(,)?
        }
        $($extra:tt)*
    ) => {
        $(#[$m])*
        $vis struct $Name {
            $( $(#[$fm])* $fvis $f : $ft ),*
        }

        impl $crate::codec::Wire for $Name {
            fn encode(&self, enc: &mut $crate::codec::Enc) {
                $( $crate::codec::wire!(@put enc, &self.$f $(, $fenc)?); )*
            }

            fn decode(dec: &mut $crate::codec::Dec<'_>) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $( $f: $crate::codec::Wire::decode(dec)? ),* })
            }

            $($extra)*
        }
    };
    (
        $(#[$m:meta])*
        $vis:vis enum $Name:ident {
            $(
                $(#[$vm:meta])*
                [$tag:tt $(, $kind:literal)?] $V:ident
                $({ $( $(#[$fm:meta])* $f:ident : $ft:ty $(=> $fenc:path)? ),* $(,)? })?
                $(( $($b:ident : $bt:ty),* ))?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        $vis enum $Name {
            $(
                $(#[$vm])*
                $V $({ $( $(#[$fm])* $f : $ft ),* })? $(( $($bt),* ))?,
            )*
        }

        impl $Name {
            /// Every tag the wire table gives this type, in table order.
            pub const TAGS: &[u8] = &[$($tag),*];
        }

        $crate::codec::wire!(@kind $Name $($V $($kind)?,)*);

        impl $crate::codec::Wire for $Name {
            fn encode(&self, enc: &mut $crate::codec::Enc) {
                match self {
                    $(
                        Self::$V $({ $($f),* })? $(( $($b),* ))? => {
                            enc.u8($tag);
                            $($( $crate::codec::wire!(@put enc, $f $(, $fenc)?); )*)?
                            $($( $crate::codec::Wire::encode($b, enc); )*)?
                        }
                    )*
                }
            }

            fn decode(dec: &mut $crate::codec::Dec<'_>) -> Result<Self, $crate::codec::CodecError> {
                Ok(match dec.u8()? {
                    $(
                        $tag => Self::$V
                            $({ $($f: $crate::codec::Wire::decode(dec)?),* })?
                            $(( $(<$bt as $crate::codec::Wire>::decode(dec)?),* ))?,
                    )*
                    tag => {
                        return Err($crate::codec::CodecError::BadTag { what: stringify!($Name), tag })
                    }
                })
            }
        }
    };
    (@put $enc:ident, $v:expr) => {
        $crate::codec::Wire::encode($v, $enc)
    };
    (@put $enc:ident, $v:expr, $fenc:path) => {
        $fenc($v, $enc)
    };
    (@kind $Name:ident $($V:ident $kind:literal,)*) => {
        impl $Name {
            /// Short name for traces.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$V { .. } => $kind,)*
                }
            }
        }
    };
    (@kind $Name:ident $($V:ident,)*) => {};
}

pub(crate) use wire;

/// Encodes `items` as one batch: a `u32` count followed by a `u32`
/// length-prefixed frame per item.
///
/// Batching amortizes per-send overhead when several messages travel to
/// the same destination at once (a broadcast merge relaying queued
/// responses upstream, a snapshot reply carrying many records).
pub fn encode_batch<T: Wire>(items: &[T]) -> Bytes {
    encode_batch_with(items, T::encode)
}

/// [`encode_batch`], each frame written by `encode`: for items that
/// stand for a [`Wire`] value without being one (the kernel's queue).
pub(crate) fn encode_batch_with<T>(items: &[T], mut encode: impl FnMut(&T, &mut Enc)) -> Bytes {
    let mut enc = Enc::pooled();
    enc.u32(u32::try_from(items.len()).expect("batch count fits in u32"));
    for item in items {
        enc.frame_with(|enc| encode(item, enc));
    }
    enc.into_bytes()
}

/// Decodes a batch produced by [`encode_batch`].
///
/// # Errors
///
/// Any [`CodecError`] on malformed input, including trailing bytes after
/// the final frame.
pub fn decode_batch<T: Wire>(data: &[u8]) -> Result<Vec<T>, CodecError> {
    let iter = frames(data)?;
    let mut out = Vec::with_capacity(iter.len());
    for frame in iter {
        out.push(T::from_bytes(frame?)?);
    }
    Ok(out)
}

/// Opens a batch for zero-copy iteration: each frame is yielded as a
/// borrowed slice of `data`, so callers can decode lazily, skip frames,
/// or relay them without reserializing.
///
/// # Errors
///
/// [`CodecError::Truncated`] when the header is incomplete or the claimed
/// count cannot fit in the remaining bytes.
pub fn frames(data: &[u8]) -> Result<FrameIter<'_>, CodecError> {
    let mut dec = Dec::new(data);
    let count = dec.u32()? as usize;
    // Each frame needs at least its 4-byte length prefix; reject hostile
    // counts before any allocation happens downstream.
    if count.checked_mul(4).is_none_or(|min| min > dec.remaining()) {
        return Err(CodecError::Truncated);
    }
    Ok(FrameIter { dec, left: count })
}

/// Zero-copy iterator over the frames of a batch. See [`frames`].
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    dec: Dec<'a>,
    left: usize,
}

impl<'a> FrameIter<'a> {
    /// Frames not yet yielded.
    pub fn len(&self) -> usize {
        self.left
    }

    /// True when every frame has been yielded.
    pub fn is_empty(&self) -> bool {
        self.left == 0
    }

    /// The next frame as a decoder confined to it, whose [`Dec::pos`]
    /// counts from the start of the batch — what a caller needs to keep
    /// part of a frame as a slice of the batch. Otherwise as
    /// [`Iterator::next`].
    pub fn next_dec(&mut self) -> Option<Result<Dec<'a>, CodecError>> {
        if self.left == 0 {
            // All frames consumed: any residue is a framing error.
            return match self.dec.remaining() {
                0 => None,
                trailing => {
                    self.dec.pos = self.dec.data.len();
                    Some(Err(CodecError::TrailingBytes(trailing)))
                }
            };
        }
        self.left -= 1;
        let frame = self.dec.u32().and_then(|len| self.dec.sub(len as usize));
        if frame.is_err() {
            // Poison the iterator: framing is unrecoverable.
            self.left = 0;
            self.dec.pos = self.dec.data.len();
        }
        Some(frame)
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Result<&'a [u8], CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_dec()?.map(|frame| &frame.data[frame.pos..]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // +1 covers the possible trailing-bytes error item.
        (self.left, Some(self.left + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(1 << 40);
        e.i32(-5);
        e.bool(true);
        e.bool(false);
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.i32().unwrap(), -5);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn composite_values_encode_as_their_members_in_order() {
        let mut manual = Enc::new();
        manual.seq(&[(7u32, true)], |e, (n, b)| {
            e.u32(*n);
            e.bool(*b);
        });
        manual.opt(&Some(-3i64), |e, v| e.i64(*v));
        manual.str("x");
        manual.u16(9);
        manual.u8(1);
        manual.bytes(b"blob");
        let value = (
            (vec![(7u32, true)], Some(-3i64)),
            (String::from("x"), 9u16, Box::new(1u8)),
            Bytes::from(b"blob".to_vec()),
        );
        let bytes = value.to_bytes();
        assert_eq!(bytes, manual.into_bytes());
        assert_eq!(Wire::from_bytes(&bytes), Ok(value));
    }

    #[test]
    fn string_roundtrip_and_utf8_check() {
        let mut e = Enc::new();
        e.str("ucbvax ✓");
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        assert_eq!(d.str().unwrap(), "ucbvax ✓");

        // corrupt the payload
        let mut bad = b.to_vec();
        let n = bad.len();
        bad[n - 1] = 0xFF;
        bad[n - 2] = 0xFF;
        bad[n - 3] = 0xFF;
        let mut d = Dec::new(&bad);
        assert_eq!(d.str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn option_roundtrip_and_bad_tag() {
        let mut e = Enc::new();
        e.opt(&Some(9u32), |e, v| e.u32(*v));
        e.opt(&None::<u32>, |e, v| e.u32(*v));
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        assert_eq!(d.opt(|d| d.u32()).unwrap(), Some(9));
        assert_eq!(d.opt(|d| d.u32()).unwrap(), None);

        let mut d = Dec::new(&[9u8]);
        assert!(matches!(d.opt(|d| d.u32()), Err(CodecError::BadTag { .. })));
    }

    #[test]
    fn seq_roundtrip() {
        let mut e = Enc::new();
        e.seq(&[1u32, 2, 3], |e, v| e.u32(*v));
        let b = e.into_bytes();
        let mut d = Dec::new(&b);
        assert_eq!(d.seq(|d| d.u32()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn hostile_seq_count_is_rejected_early() {
        // count claims 65535 elements but only 2 bytes follow
        let data = [0xFFu8, 0xFF, 1, 2];
        let mut d = Dec::new(&data);
        assert_eq!(d.seq(|d| d.u32()), Err(CodecError::Truncated));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut d = Dec::new(&[1u8]);
        assert_eq!(d.u32(), Err(CodecError::Truncated));
        let mut d = Dec::new(&[0u8, 5, b'a']);
        assert_eq!(d.str(), Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let d = Dec::new(&[1u8, 2, 3]);
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes(3)));
    }

    #[test]
    fn pooled_encoder_matches_fresh_encoder() {
        let encode_all = |mut e: Enc| {
            e.u8(1);
            e.str("host-name");
            e.seq(&[10u64, 20, 30], |e, v| e.u64(*v));
            e.into_bytes()
        };
        let fresh = encode_all(Enc::new());
        let pooled = encode_all(Enc::pooled());
        assert_eq!(fresh, pooled);
        // A second pooled encode reuses the recycled buffer and must not
        // leak bytes from the first.
        let again = encode_all(Enc::pooled());
        assert_eq!(fresh, again);
    }

    #[test]
    fn into_len_matches_into_bytes() {
        let mut a = Enc::pooled();
        a.str("abc");
        a.u32(7);
        let mut b = Enc::pooled();
        b.str("abc");
        b.u32(7);
        assert_eq!(a.into_len(), b.into_bytes().len());
    }

    #[test]
    fn clipped_text_fits_a_protocol_string_at_a_char_boundary() {
        assert_eq!(clip_str("short"), "short");
        let at_limit = "a".repeat(MAX_STR_BYTES);
        assert_eq!(clip_str(&at_limit).len(), MAX_STR_BYTES);
        // A two-byte character straddling the limit is left out whole.
        let straddling = "a".repeat(MAX_STR_BYTES - 1) + "é";
        assert_eq!(clip_str(&straddling), &straddling[..MAX_STR_BYTES - 1]);
        let mut enc = Enc::new();
        enc.str(clip_str(&(at_limit + "x")));
        assert_eq!(enc.len(), 2 + MAX_STR_BYTES);
    }

    #[test]
    fn str_ref_borrows_from_input() {
        let mut e = Enc::new();
        e.str("borrowed");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let s = d.str_ref().unwrap();
        assert_eq!(s, "borrowed");
        // Pointer identity: the slice is inside the receive buffer.
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(range.contains(&(s.as_ptr() as usize)));
        d.finish().unwrap();
    }

    #[test]
    fn batch_roundtrip_and_zero_copy_frames() {
        let items: Vec<String> = ["a", "bb", "ccc"].map(String::from).to_vec();
        let bytes = encode_batch(&items);
        let back: Vec<String> = decode_batch(&bytes).unwrap();
        assert_eq!(back, items);

        let mut it = frames(&bytes).unwrap();
        assert_eq!(it.len(), 3);
        let first = it.next().unwrap().unwrap();
        // Frame payload is a borrowed slice of the batch buffer.
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(range.contains(&(first.as_ptr() as usize)));
        assert!(it.by_ref().all(|f| f.is_ok()));
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch::<crate::types::Route>(&[]);
        assert_eq!(decode_batch::<crate::types::Route>(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn hostile_batch_rejected() {
        // Claims 1 billion frames in 8 bytes.
        let mut data = Vec::new();
        data.extend_from_slice(&1_000_000_000u32.to_be_bytes());
        data.extend_from_slice(&[0u8; 4]);
        assert_eq!(frames(&data).err(), Some(CodecError::Truncated));

        // Frame length runs past the end.
        let mut data = Vec::new();
        data.extend_from_slice(&1u32.to_be_bytes());
        data.extend_from_slice(&100u32.to_be_bytes());
        data.push(0);
        let mut it = frames(&data).unwrap();
        assert_eq!(it.next(), Some(Err(CodecError::Truncated)));
        assert_eq!(it.next(), None, "errors poison the iterator");

        // Trailing garbage after the final frame.
        let mut data = Vec::new();
        data.extend_from_slice(&1u32.to_be_bytes());
        data.extend_from_slice(&1u32.to_be_bytes());
        data.push(9);
        data.push(0xEE);
        let mut it = frames(&data).unwrap();
        assert!(it.next().unwrap().is_ok());
        assert_eq!(it.next(), Some(Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn errors_display() {
        assert_eq!(CodecError::Truncated.to_string(), "message truncated");
        assert!(CodecError::BadTag {
            what: "Msg",
            tag: 9
        }
        .to_string()
        .contains("Msg"));
        assert!(CodecError::TrailingBytes(4).to_string().contains('4'));
    }
}
