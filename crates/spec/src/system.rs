//! Complete specifications: state, operations, crash transition.

use crate::transition::Transition;
use std::fmt::Debug;

/// A specification transition system (§3.1 of the paper).
///
/// A `SpecTS` packages the abstract state, the family of top-level
/// operations, the crash transition, and the initial state. Implementations
/// are *refined* against it: every concrete execution (including crashes
/// followed by recovery) must correspond to some interleaving of these
/// atomic transitions — the paper's *concurrent recovery refinement*.
pub trait SpecTS: Send + Sync + 'static {
    /// Abstract state (e.g. `Map<u64, Block>` for the replicated disk).
    type State: Clone + Debug + PartialEq + Send + Sync + 'static;
    /// Operation descriptors, including their arguments.
    type Op: Clone + Debug + PartialEq + Send + Sync + 'static;
    /// Return values. A single type for all ops keeps histories simple;
    /// specs use an enum when ops return different things.
    type Ret: Clone + Debug + PartialEq + Send + Sync + 'static;

    /// The initial abstract state.
    fn init(&self) -> Self::State;

    /// The atomic transition for operation `op`.
    fn op_transition(&self, op: &Self::Op) -> Transition<Self::State, Self::Ret>;

    /// The atomic crash transition (Figure 3's `crash`). For most storage
    /// specs this is `ret tt` (nothing is lost); group commit's crash
    /// drops un-persisted buffered transactions.
    fn crash_transition(&self) -> Transition<Self::State, ()>;

    /// Whether `committed` is a legitimate resolution of the invoked
    /// operation `invoked`.
    ///
    /// Most operations commit exactly as invoked (the default). Operations
    /// with implementation-chosen nondeterminism (e.g. Mailboat's
    /// `Deliver` picks a fresh message id during execution) commit a
    /// *refined* op carrying the choice; the spec declares which
    /// refinements are faithful to the invocation.
    fn op_refines(&self, invoked: &Self::Op, committed: &Self::Op) -> bool {
        invoked == committed
    }
}

/// A sequential replayer for spec histories.
///
/// The ghost-trace validator (crates/core) and the linearizability checker
/// (crates/checker) both reduce their question to "does this *sequence* of
/// op/crash steps run from the initial state with these return values?" —
/// which this replayer answers.
#[derive(Debug)]
pub struct SeqReplay<S: SpecTS> {
    spec: S,
    state: S::State,
    steps: usize,
}

impl<S: SpecTS> SeqReplay<S> {
    /// Starts a replay from the spec's initial state.
    pub fn new(spec: S) -> Self {
        let state = spec.init();
        SeqReplay {
            spec,
            state,
            steps: 0,
        }
    }

    /// Starts a replay from an explicit state.
    pub fn from_state(spec: S, state: S::State) -> Self {
        SeqReplay {
            spec,
            state,
            steps: 0,
        }
    }

    /// The current abstract state.
    pub fn state(&self) -> &S::State {
        &self.state
    }

    /// Number of steps replayed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Applies `op`; on success returns the value the spec produced.
    pub fn step_op(&mut self, op: &S::Op) -> Result<S::Ret, ReplayError> {
        self.step(&self.spec.op_transition(op))
    }

    /// Applies `op` and additionally requires the returned value to equal
    /// `expected` (what the implementation actually returned).
    pub fn step_op_expect(&mut self, op: &S::Op, expected: &S::Ret) -> Result<(), ReplayError> {
        let got = self.step_op(op)?;
        if &got == expected {
            Ok(())
        } else {
            Err(ReplayError::RetMismatch {
                expected: format!("{expected:?}"),
                got: format!("{got:?}"),
            })
        }
    }

    /// Applies the crash transition.
    pub fn step_crash(&mut self) -> Result<(), ReplayError> {
        self.step(&self.spec.crash_transition())
    }

    fn step<R: 'static>(&mut self, t: &Transition<S::State, R>) -> Result<R, ReplayError> {
        let (state, ret) = t.step(&self.state)?;
        self.state = state;
        self.steps += 1;
        Ok(ret)
    }
}

/// Why a sequential replay failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The step triggered spec-level undefined behaviour.
    Undefined,
    /// The step was not enabled in the current abstract state.
    Blocked,
    /// The spec's return value differed from the implementation's.
    RetMismatch {
        /// Implementation-observed value.
        expected: String,
        /// Spec-produced value.
        got: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Undefined => write!(f, "spec step hit undefined behaviour"),
            ReplayError::Blocked => write!(f, "spec step not enabled"),
            ReplayError::RetMismatch { expected, got } => {
                write!(
                    f,
                    "return mismatch: impl returned {expected}, spec produced {got}"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{RegOp, RegSpec};

    #[test]
    fn replay_sequence() {
        let mut r = SeqReplay::new(RegSpec { size: 4 });
        assert_eq!(r.step_op(&RegOp::Read(0)).unwrap(), Some(0));
        assert_eq!(r.step_op(&RegOp::Write(0, 9)).unwrap(), None);
        assert_eq!(r.step_op(&RegOp::Read(0)).unwrap(), Some(9));
        r.step_crash().unwrap();
        // Crash loses nothing for this spec.
        assert_eq!(r.step_op(&RegOp::Read(0)).unwrap(), Some(9));
        assert_eq!(r.steps(), 5);
    }

    #[test]
    fn replay_detects_ret_mismatch() {
        let mut r = SeqReplay::new(RegSpec { size: 4 });
        let err = r.step_op_expect(&RegOp::Read(0), &Some(1)).unwrap_err();
        assert!(matches!(err, ReplayError::RetMismatch { .. }));
    }

    #[test]
    fn replay_surfaces_undefined() {
        let mut r = SeqReplay::new(RegSpec { size: 2 });
        assert_eq!(r.step_op(&RegOp::Read(7)), Err(ReplayError::Undefined));
    }
}
