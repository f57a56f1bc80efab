//! User-level authentication.
//!
//! Section 3: "Our current authentication scheme can only prevent
//! user-level masquerade. ... We use the process manager daemons as
//! trusted name servers, and communication between sibling LPMs is done by
//! reliable virtual circuits", avoiding "system-wide unforgeable tickets".
//!
//! The concrete mechanism here: every user has a network-wide secret (the
//! consistent-password-file assumption of Section 4); connections to an
//! LPM open with a `Hello` carrying a keyed proof derived from the secret
//! and the caller's claimed identity. Host-level masquerade is out of
//! scope, exactly as in the paper.

use ppm_runtime::hashx::{fnv1a_fold, FNV_OFFSET};
use ppm_runtime::ids::Uid;

/// Network-wide credentials of one user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserCred {
    /// The user.
    pub uid: Uid,
    /// Shared secret known to all of the user's LPMs and tools
    /// (the password-file analogue).
    pub secret: u64,
}

impl UserCred {
    /// Creates credentials.
    pub fn new(uid: Uid, secret: u64) -> Self {
        UserCred { uid, secret }
    }

    /// The proof a caller places in `Hello` messages.
    pub fn proof(&self) -> u64 {
        hash_pair(self.uid.0 as u64, self.secret)
    }

    /// Verifies a claimed `(uid, proof)` pair against these credentials.
    pub fn verify(&self, uid: Uid, proof: u64) -> bool {
        uid == self.uid && proof == self.proof()
    }
}

/// FNV-1a over two words.
fn hash_pair(a: u64, b: u64) -> u64 {
    fnv1a_fold(fnv1a_fold(FNV_OFFSET, &a.to_be_bytes()), &b.to_be_bytes())
}

/// Per-LPM authenticator: validates `Hello`s against the owning user's
/// credentials. Authentication happens once per channel, "when channels
/// are created, rather than upon every request".
#[derive(Debug, Clone, Copy)]
pub struct Authenticator {
    cred: UserCred,
}

impl Authenticator {
    /// Creates an authenticator for the LPM's owner.
    pub fn new(cred: UserCred) -> Self {
        Authenticator { cred }
    }

    /// The owner.
    pub fn uid(&self) -> Uid {
        self.cred.uid
    }

    /// The owner's broadcast-stamp signing secret.
    pub fn stamp_secret(&self) -> u64 {
        // Domain-separate from the hello proof.
        hash_pair(self.cred.secret, 0x5741_4D50) // "STMP"
    }

    /// Checks an incoming hello.
    pub fn check_hello(&self, uid: u32, proof: u64) -> bool {
        self.cred.verify(Uid(uid), proof)
    }

    /// The proof to place in outgoing hellos.
    pub fn proof(&self) -> u64 {
        self.cred.proof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proof_verifies_for_owner_only() {
        let cred = UserCred::new(Uid(100), 0x5EC0_7E57);
        let proof = cred.proof();
        assert!(cred.verify(Uid(100), proof));
        assert!(!cred.verify(Uid(101), proof));
        assert!(!cred.verify(Uid(100), proof ^ 1));
    }

    #[test]
    fn different_secrets_different_proofs() {
        let a = UserCred::new(Uid(100), 1);
        let b = UserCred::new(Uid(100), 2);
        assert_ne!(a.proof(), b.proof());
    }

    #[test]
    fn authenticator_checks_hellos() {
        let auth = Authenticator::new(UserCred::new(Uid(7), 42));
        assert!(auth.check_hello(7, UserCred::new(Uid(7), 42).proof()));
        assert!(!auth.check_hello(7, UserCred::new(Uid(7), 43).proof()));
        assert!(!auth.check_hello(8, UserCred::new(Uid(7), 42).proof()));
        assert_eq!(auth.uid(), Uid(7));
    }

    #[test]
    fn stamp_secret_differs_from_proof() {
        let auth = Authenticator::new(UserCred::new(Uid(7), 42));
        assert_ne!(auth.stamp_secret(), auth.proof());
    }
}
