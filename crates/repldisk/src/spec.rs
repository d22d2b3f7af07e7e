//! The replicated-disk specification — Figure 3 of the paper,
//! transliterated from its Coq DSL into ours.
//!
//! The state is a single logical disk (`Map uint64 block`); reads return
//! the last value written; out-of-bounds access is undefined behaviour;
//! the crash transition is `ret tt` — no data is lost across a crash.

use perennial_spec::{ReplayError, SpecTS, Step, Transition};
use std::collections::BTreeMap;

/// A disk block value at the spec level.
pub type Block = Vec<u8>;

/// Abstract state: one logical disk.
pub type RdState = BTreeMap<u64, Block>;

/// Replicated-disk operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdOp {
    /// `rd_read(a)` — returns the block at `a`.
    Read(u64),
    /// `rd_write(a, v)` — replaces the block at `a`.
    Write(u64, Block),
}

/// Replicated-disk return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdRet {
    /// The block a read returned.
    Val(Block),
    /// A write's unit return.
    Unit,
}

perennial_spec::encode! {
    enum RdOp { Read(a), Write(a, b) }
}
perennial_spec::encode! {
    enum RdRet { Val(b), Unit }
}

/// The replicated-disk spec: `size` blocks of `block_size` bytes,
/// initially zero.
#[derive(Debug, Clone)]
pub struct RdSpec {
    /// Number of addressable blocks.
    pub size: u64,
    /// Bytes per block.
    pub block_size: usize,
}

impl SpecTS for RdSpec {
    type State = RdState;
    type Op = RdOp;
    type Ret = RdRet;

    fn init(&self) -> RdState {
        (0..self.size)
            .map(|a| (a, vec![0u8; self.block_size]))
            .collect()
    }

    fn op_transition(&self, op: &RdOp) -> Transition<RdState, RdRet> {
        match op.clone() {
            // Figure 3's rd_read: gets, then ret or undefined.
            RdOp::Read(a) => Transition::gets(move |s: &RdState| s.get(&a).cloned())
                .and_then(|mv| {
                    mv.map(|v| Transition::ret(RdRet::Val(v)))
                        .ok_or(ReplayError::Undefined)
                })
                .boxed(),
            // Figure 3's rd_write: gets, then modify or undefined.
            RdOp::Write(a, v) => Transition::gets(move |s: &RdState| s.contains_key(&a))
                .and_then(move |present| {
                    present
                        .then_some(Transition::modify(move |s: &mut RdState| {
                            s.insert(a, v);
                        }))
                        .ok_or(ReplayError::Undefined)
                })
                .map(|()| RdRet::Unit)
                .boxed(),
        }
    }

    /// Figure 3's `crash := ret tt`: the logical disk loses nothing.
    fn crash_transition(&self) -> Transition<RdState, ()> {
        Transition::skip().boxed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_spec::system::{ReplayError, SeqReplay};

    #[test]
    fn read_returns_last_write() {
        let mut r = SeqReplay::new(RdSpec {
            size: 2,
            block_size: 4,
        });
        assert_eq!(
            r.step_op(&RdOp::Read(0)).unwrap(),
            RdRet::Val(vec![0, 0, 0, 0])
        );
        r.step_op(&RdOp::Write(0, vec![1, 2, 3, 4])).unwrap();
        assert_eq!(
            r.step_op(&RdOp::Read(0)).unwrap(),
            RdRet::Val(vec![1, 2, 3, 4])
        );
    }

    #[test]
    fn out_of_bounds_is_undefined() {
        let mut r = SeqReplay::new(RdSpec {
            size: 2,
            block_size: 4,
        });
        assert_eq!(r.step_op(&RdOp::Read(5)), Err(ReplayError::Undefined));
        assert_eq!(
            r.step_op(&RdOp::Write(5, vec![0; 4])),
            Err(ReplayError::Undefined)
        );
    }

    #[test]
    fn crash_preserves_logical_disk() {
        let mut r = SeqReplay::new(RdSpec {
            size: 1,
            block_size: 2,
        });
        r.step_op(&RdOp::Write(0, vec![9, 9])).unwrap();
        r.step_crash().unwrap();
        assert_eq!(r.step_op(&RdOp::Read(0)).unwrap(), RdRet::Val(vec![9, 9]));
    }
}
