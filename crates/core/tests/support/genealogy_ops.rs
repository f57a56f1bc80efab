//! Random sequences of every `Genealogy` mutator, and the property that
//! the slice a genealogy answers a snapshot with is, after each one, byte
//! for byte what a fresh encode of its records writes. `prop_core.rs`
//! runs it; the root package's `genealogy_slice.rs` is its tier-1 copy.

use ppm_core::genealogy::Genealogy;
use ppm_proto::msg::WireReply;
use ppm_proto::types::{Gpid, WireProcState};
use proptest::prelude::*;

const HOST: &str = "h";

/// One call of a `Genealogy` mutator. Pids come from a small range, so
/// a sequence recycles them, revives dead nodes through `track`, and
/// aims some updates at pids that are not tracked.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// pid, ppid, logical parent's pid, command, started, adopted.
    Track(u32, u32, Option<u32>, &'static str, u64, bool),
    SetState(u32, WireProcState),
    SetExec(u32, &'static str),
    SetLogicalParent(u32, u32),
    SetCpu(u32, u64),
    /// pid, cpu, now.
    MarkDeadAt(u32, u64, u64),
    MarkDead(u32, u64),
    /// now, retention.
    PruneOlderThan(u64, u64),
    Prune,
}

fn pid() -> std::ops::Range<u32> {
    1..16
}

/// Two commands held inline and one past `Name::INLINE_CAP`.
fn command() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("sh"),
        Just("cc"),
        Just("a command name past the inline capacity"),
    ]
}

fn state() -> impl Strategy<Value = WireProcState> {
    prop_oneof![
        Just(WireProcState::Running),
        Just(WireProcState::Stopped),
        Just(WireProcState::Dead),
        Just(WireProcState::Embryo),
    ]
}

pub fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec(
        prop_oneof![
            (
                pid(),
                pid(),
                prop::option::of(1u32..4),
                command(),
                0u64..1_000,
                any::<bool>()
            )
                .prop_map(|(pid, ppid, lp, cmd, at, adopted)| {
                    Mutation::Track(pid, ppid, lp, cmd, at, adopted)
                }),
            (pid(), state()).prop_map(|(pid, s)| Mutation::SetState(pid, s)),
            (pid(), command()).prop_map(|(pid, cmd)| Mutation::SetExec(pid, cmd)),
            (pid(), 1u32..4).prop_map(|(pid, lp)| Mutation::SetLogicalParent(pid, lp)),
            (pid(), 0u64..100).prop_map(|(pid, cpu)| Mutation::SetCpu(pid, cpu)),
            (pid(), 0u64..100, 0u64..200)
                .prop_map(|(pid, cpu, now)| Mutation::MarkDeadAt(pid, cpu, now)),
            (pid(), 0u64..100).prop_map(|(pid, cpu)| Mutation::MarkDead(pid, cpu)),
            (0u64..300, 0u64..150).prop_map(|(now, keep)| Mutation::PruneOlderThan(now, keep)),
            Just(Mutation::Prune),
        ],
        1..80,
    )
}

pub fn apply(g: &mut Genealogy, m: &Mutation) {
    match *m {
        Mutation::Track(pid, ppid, lp, cmd, at, adopted) => {
            g.track(pid, ppid, lp.map(|p| Gpid::new("far", p)), cmd, at, adopted);
        }
        Mutation::SetState(pid, s) => g.set_state(pid, s),
        Mutation::SetExec(pid, cmd) => g.set_exec(pid, cmd),
        Mutation::SetLogicalParent(pid, lp) => g.set_logical_parent(pid, Gpid::new("far", lp)),
        Mutation::SetCpu(pid, cpu) => g.set_cpu(pid, cpu),
        Mutation::MarkDeadAt(pid, cpu, now) => g.mark_dead_at(pid, cpu, now),
        Mutation::MarkDead(pid, cpu) => g.mark_dead(pid, cpu),
        Mutation::PruneOlderThan(now, keep) => {
            g.prune_older_than(now, keep);
        }
        Mutation::Prune => {
            g.prune();
        }
    }
}

/// Applies `ops` in turn and, after each, asks for the snapshot slice
/// (twice, so a hit is checked as well as a miss) and compares it with
/// a fresh encode of the same state.
pub fn check_cached_slice(ops: &[Mutation]) {
    let mut g = Genealogy::new(HOST);
    for (step, m) in ops.iter().enumerate() {
        apply(&mut g, m);
        let fresh = WireReply::snapshot(HOST, g.records());
        for _ in 0..2 {
            assert_eq!(
                g.snapshot_reply().as_bytes(),
                fresh.as_bytes(),
                "step {step}: {m:?}"
            );
        }
    }
}
