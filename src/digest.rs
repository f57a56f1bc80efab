//! The run digest: one 64-bit fingerprint per simulation run.
//!
//! `ppm-sim --digest` and the `ppm-sweep` experiment harness both reduce
//! a run's observable surface — scenario output, trace, metrics (or the
//! scale report and its metrics) — to a single FNV-1a fold. Because both
//! paths hash exactly the same strings in the same order, a sweep cell's
//! digest can be re-derived by running the cell's repro command line
//! standalone, which is what makes a failed cell reproducible and what
//! the sweep determinism gate checksums.

pub use ppm_runtime::hashx::fnv1a_fold;
use ppm_runtime::hashx::FNV_OFFSET;

/// FNV-1a over a sequence of text chunks, as if concatenated.
#[must_use]
pub fn fnv1a(chunks: &[&str]) -> u64 {
    chunks
        .iter()
        .fold(FNV_OFFSET, |st, c| fnv1a_fold(st, c.as_bytes()))
}

/// The canonical 16-digit lower-hex rendering of a digest.
#[must_use]
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_invisible() {
        assert_eq!(fnv1a(&["ab", "cd"]), fnv1a(&["abcd"]));
        assert_eq!(fnv1a(&["", "abcd", ""]), fnv1a(&["abcd"]));
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(fnv1a(&["abcd"]), fnv1a(&["abce"]));
        assert_ne!(fnv1a(&[]), fnv1a(&["\0"]));
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0xBEEF), "000000000000beef");
        assert_eq!(hex(u64::MAX), "ffffffffffffffff");
    }
}
