//! The tier-1 copy of `ppm-core`'s `cached_slice_is_a_fresh_encode`, at
//! the default case count: a genealogy's kept snapshot slice is, after
//! any sequence of its mutators, what a fresh encode writes. CI runs the
//! original at 2 000 cases.

use proptest::prelude::*;

#[path = "../crates/core/tests/support/genealogy_ops.rs"]
mod genealogy_ops;

proptest! {
    #[test]
    fn cached_slice_is_a_fresh_encode(ops in genealogy_ops::arb_mutations()) {
        genealogy_ops::check_cached_slice(&ops);
    }
}
