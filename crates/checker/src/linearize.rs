//! A standalone Wing–Gong linearizability checker.
//!
//! The ghost engine certifies refinement *online* via commit points. This
//! module is the independent cross-check: given only the observable
//! history (invocations and responses — no commit information), search
//! for a legal linearization against the spec. Used in tests to confirm
//! the ghost discipline is not vacuously strong or weak.
//!
//! Complexity is exponential in the number of concurrent operations;
//! intended for the small histories model checking produces. Memoization
//! on (linearized set, abstract state) keeps typical cases fast.

use perennial_spec::transition::Outcome;
use perennial_spec::{Jid, SpecTS, Step};
use std::collections::HashSet;
use std::fmt::Debug;

/// One operation instance in a complete history.
#[derive(Debug, Clone)]
pub struct HistOp<Op, Ret> {
    /// Operation instance id.
    pub jid: Jid,
    /// The operation.
    pub op: Op,
    /// Observed return value (`None` when the op never returned — it may
    /// then linearize or vanish).
    pub ret: Option<Ret>,
    /// Global timestamp of the invocation.
    pub invoked_at: u64,
    /// Global timestamp of the response (`u64::MAX` if none).
    pub returned_at: u64,
}

/// Verdict of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A legal linearization exists.
    Linearizable,
    /// No linearization exists.
    NotLinearizable,
    /// The search exceeded its budget (inconclusive).
    BudgetExceeded,
}

/// Checks a crash-free history for linearizability against `spec`,
/// starting from the spec's initial state.
///
/// Completed operations must linearize with their observed return values,
/// respecting real-time order (an op that returned before another was
/// invoked must linearize first). Incomplete operations may linearize
/// (with any return value) or be dropped.
pub fn check_linearizable<S: SpecTS>(
    spec: &S,
    ops: &[HistOp<S::Op, S::Ret>],
    budget: usize,
) -> Verdict {
    let state = spec.init();
    let mut remaining: Vec<usize> = (0..ops.len()).collect();
    // Incomplete ops can always be dropped; enumerate each subset choice
    // lazily inside the search instead of up front: dropping is modelled
    // as "linearize never", which the search handles by allowing success
    // with incomplete ops left over.
    let mut memo: HashSet<(Vec<usize>, String)> = HashSet::new();
    let mut steps = 0usize;
    let r = search(
        spec,
        ops,
        &state,
        &mut remaining,
        &mut memo,
        &mut steps,
        budget,
    );
    match r {
        Some(true) => Verdict::Linearizable,
        Some(false) => Verdict::NotLinearizable,
        None => Verdict::BudgetExceeded,
    }
}

fn search<S: SpecTS>(
    spec: &S,
    ops: &[HistOp<S::Op, S::Ret>],
    state: &S::State,
    remaining: &mut Vec<usize>,
    memo: &mut HashSet<(Vec<usize>, String)>,
    steps: &mut usize,
    budget: usize,
) -> Option<bool> {
    *steps += 1;
    if *steps > budget {
        return None;
    }
    // Success: every *completed* operation has been linearized.
    if remaining.iter().all(|&i| ops[i].ret.is_none()) {
        return Some(true);
    }
    let key = {
        let mut ids = remaining.clone();
        ids.sort_unstable();
        (ids, format!("{state:?}"))
    };
    if !memo.insert(key) {
        return Some(false);
    }

    // Minimal ops: those whose invocation precedes every remaining
    // completed op's response (classic Wing–Gong frontier).
    let earliest_response = remaining
        .iter()
        .map(|&i| ops[i].returned_at)
        .min()
        .unwrap_or(u64::MAX);

    let candidates: Vec<usize> = remaining
        .iter()
        .copied()
        .filter(|&i| ops[i].invoked_at <= earliest_response)
        .collect();

    for i in candidates {
        let hop = &ops[i];
        match spec.op_transition(&hop.op).run(state) {
            Outcome::Ok(next_state, v) => {
                let matches = match &hop.ret {
                    Some(r) => r == &v,
                    None => true, // incomplete: any value is consistent
                };
                if matches {
                    let pos = remaining.iter().position(|&x| x == i).unwrap();
                    remaining.remove(pos);
                    match search(spec, ops, &next_state, remaining, memo, steps, budget) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => return None,
                    }
                    remaining.insert(pos, i);
                }
            }
            Outcome::Undefined | Outcome::Blocked => {}
        }
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_spec::fixtures::{RegOp, RegSpec};

    fn op(
        jid: u64,
        op: RegOp,
        ret: Option<Option<u64>>,
        inv: u64,
        ret_at: u64,
    ) -> HistOp<RegOp, Option<u64>> {
        HistOp {
            jid: Jid(jid),
            op,
            ret,
            invoked_at: inv,
            returned_at: ret_at,
        }
    }

    #[test]
    fn sequential_history_linearizable() {
        let spec = RegSpec { size: 4 };
        let ops = vec![
            op(0, RegOp::Write(0, 5), Some(None), 0, 1),
            op(1, RegOp::Read(0), Some(Some(5)), 2, 3),
        ];
        assert_eq!(
            check_linearizable(&spec, &ops, 10_000),
            Verdict::Linearizable
        );
    }

    #[test]
    fn stale_read_after_write_not_linearizable() {
        let spec = RegSpec { size: 4 };
        // Write(0,5) fully returns before Read(0) is invoked, yet the
        // read observed the old value 0 — illegal.
        let ops = vec![
            op(0, RegOp::Write(0, 5), Some(None), 0, 1),
            op(1, RegOp::Read(0), Some(Some(0)), 2, 3),
        ];
        assert_eq!(
            check_linearizable(&spec, &ops, 10_000),
            Verdict::NotLinearizable
        );
    }

    #[test]
    fn concurrent_read_may_see_either_value() {
        let spec = RegSpec { size: 4 };
        // Read overlaps the write: both 0 and 5 are legal.
        for seen in [0u64, 5] {
            let ops = vec![
                op(0, RegOp::Write(0, 5), Some(None), 0, 10),
                op(1, RegOp::Read(0), Some(Some(seen)), 1, 9),
            ];
            assert_eq!(
                check_linearizable(&spec, &ops, 10_000),
                Verdict::Linearizable,
                "value {seen} should be linearizable"
            );
        }
    }

    #[test]
    fn incomplete_op_may_or_may_not_take_effect() {
        let spec = RegSpec { size: 4 };
        // A write that never returned; a later read may see it or not.
        for seen in [0u64, 7] {
            let ops = vec![
                op(0, RegOp::Write(1, 7), None, 0, u64::MAX),
                op(1, RegOp::Read(1), Some(Some(seen)), 5, 6),
            ];
            assert_eq!(
                check_linearizable(&spec, &ops, 10_000),
                Verdict::Linearizable,
                "value {seen} should be linearizable"
            );
        }
    }

    #[test]
    fn impossible_value_rejected() {
        let spec = RegSpec { size: 4 };
        let ops = vec![
            op(0, RegOp::Write(1, 7), None, 0, u64::MAX),
            op(1, RegOp::Read(1), Some(Some(8)), 5, 6),
        ];
        assert_eq!(
            check_linearizable(&spec, &ops, 10_000),
            Verdict::NotLinearizable
        );
    }

    #[test]
    fn budget_exceeded_is_inconclusive() {
        let spec = RegSpec { size: 4 };
        let ops: Vec<_> = (0..6)
            .map(|i| op(i, RegOp::Write(0, i), Some(None), 0, u64::MAX - 1))
            .collect();
        assert_eq!(check_linearizable(&spec, &ops, 3), Verdict::BudgetExceeded);
    }

    #[test]
    fn real_time_order_enforced_across_three_ops() {
        let spec = RegSpec { size: 4 };
        // w1 returns before w2 invoked; read sees w1's value after w2
        // completed — illegal (w2 must overwrite).
        let ops = vec![
            op(0, RegOp::Write(0, 1), Some(None), 0, 1),
            op(1, RegOp::Write(0, 2), Some(None), 2, 3),
            op(2, RegOp::Read(0), Some(Some(1)), 4, 5),
        ];
        assert_eq!(
            check_linearizable(&spec, &ops, 10_000),
            Verdict::NotLinearizable
        );
    }
}
