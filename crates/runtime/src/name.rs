//! The one name type: every host name and command, from the process
//! table and the genealogy to the wire and the tool's output.
//!
//! It lives below the protocol so that a command is one value from
//! `fork_exec` to a snapshot record: the process table, the genealogy
//! and the history hold the `Name` a spawn was handed. `ppm-proto`
//! re-exports it as `ppm_proto::types::Name` and gives it its wire
//! encoding.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A host name or command: immutable, and equal, ordered, hashed and
/// printed exactly as the `str` it holds, so a map keyed by names is
/// probed with a `&str` and walks in `str` order.
///
/// A name of at most [`Name::INLINE_CAP`] bytes — every host name and
/// command the shipped workloads use — is held in the value itself:
/// decoding one allocates nothing and cloning one copies 24 bytes. A
/// longer name shares one `Arc<str>`. Either way a `Name` is the size of
/// the `String` it replaced.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are a `str`.
    Inline {
        len: u8,
        bytes: [u8; Name::INLINE_CAP],
    },
    /// Longer than [`Name::INLINE_CAP`] bytes.
    Shared(Arc<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == 24);

impl Name {
    /// The longest name held inline: what fits beside the length byte
    /// and the variant tag in a `String`'s 24 bytes.
    pub const INLINE_CAP: usize = 22;

    /// A name holding `s`.
    #[inline]
    pub fn new(s: &str) -> Self {
        if s.len() <= Self::INLINE_CAP {
            let mut bytes = [0; Self::INLINE_CAP];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Name(Repr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Name(Repr::Shared(Arc::from(s)))
        }
    }

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline name holds the bytes of a str"),
            Repr::Shared(s) => s,
        }
    }

    /// The name's bytes, without the UTF-8 check `as_str` makes: what
    /// an encoder or a byte comparison needs.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }
}

impl Default for Name {
    /// The empty name.
    fn default() -> Self {
        Name::new("")
    }
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    #[inline]
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<&Name> for Name {
    #[inline]
    fn from(name: &Name) -> Self {
        name.clone()
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::new(&s)
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Byte-wise, which is `str`'s order.
    #[inline]
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    /// What `str`'s hash writes — its bytes, then `0xff`, which no `str`
    /// contains — without `as_str`'s UTF-8 check on every map probe. The
    /// values must stay equal to the `str`'s: `Borrow<str>` probes a
    /// name-keyed map with a `&str`.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        other == self
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        other == self
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashx::HashX;
    use std::collections::hash_map::DefaultHasher;

    fn hash_with<H: Hasher + Default>(value: &(impl Hash + ?Sized)) -> u64 {
        let mut h = H::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_name_hashes_as_its_str() {
        let long = "a command name longer than twenty-two bytes";
        for s in ["", "vax780", long] {
            let name = Name::new(s);
            assert_eq!(hash_with::<HashX>(&name), hash_with::<HashX>(s), "{s:?}");
            assert_eq!(
                hash_with::<DefaultHasher>(&name),
                hash_with::<DefaultHasher>(s),
                "{s:?}"
            );
        }
        assert!(matches!(Name::new("vax780").0, Repr::Inline { .. }));
        assert!(matches!(Name::new(long).0, Repr::Shared(_)));
    }
}
