//! Reusable specification fixtures for tests across the workspace.
//!
//! Two tiny specs exercise the two interesting crash behaviours:
//!
//! - [`RegSpec`]: a durable register file; crash preserves everything
//!   (like the replicated disk's `crash := ret tt`).
//! - [`BufSpec`]: an append-only log with a volatile tail; crash drops the
//!   un-persisted suffix (like group commit).

use crate::system::{ReplayError, SpecTS};
use crate::transition::{Step, Transition};
use std::collections::BTreeMap;

/// A durable register file of `size` registers initialized to zero.
#[derive(Debug, Clone)]
pub struct RegSpec {
    /// Number of registers.
    pub size: u64,
}

/// Operations on [`RegSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegOp {
    /// Read register `a`; returns `Some(value)`.
    Read(u64),
    /// Write `v` to register `a`; returns `None`.
    Write(u64, u64),
}

/// State of [`RegSpec`]: register → value.
pub type RegState = BTreeMap<u64, u64>;

impl SpecTS for RegSpec {
    type State = RegState;
    type Op = RegOp;
    type Ret = Option<u64>;

    fn init(&self) -> RegState {
        (0..self.size).map(|a| (a, 0)).collect()
    }

    fn op_transition(&self, op: &RegOp) -> Transition<RegState, Option<u64>> {
        match *op {
            RegOp::Read(a) => Transition::gets(move |s: &RegState| s.get(&a).copied())
                .and_then(|mv| {
                    mv.map(|v| Transition::ret(Some(v)))
                        .ok_or(ReplayError::Undefined)
                })
                .boxed(),
            RegOp::Write(a, v) => Transition::gets(move |s: &RegState| s.contains_key(&a))
                .and_then(move |present| {
                    present
                        .then_some(Transition::modify(move |s: &mut RegState| {
                            s.insert(a, v);
                        }))
                        .ok_or(ReplayError::Undefined)
                })
                .map(|()| None)
                .boxed(),
        }
    }

    fn crash_transition(&self) -> Transition<RegState, ()> {
        Transition::skip().boxed()
    }
}

/// An append-only log whose tail beyond `persisted` may be lost on crash.
#[derive(Debug, Clone)]
pub struct BufSpec;

/// State of [`BufSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BufState {
    /// All appended entries, in order.
    pub entries: Vec<u64>,
    /// How many leading entries are persisted (survive a crash).
    pub persisted: usize,
}

/// Operations on [`BufSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufOp {
    /// Append an entry (buffered; durable only once flushed).
    Append(u64),
    /// Read the whole logical log.
    ReadAll,
}

/// Return values for [`BufSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufRet {
    /// `Append` acknowledgement.
    Done,
    /// `ReadAll` result.
    Entries(Vec<u64>),
}

crate::encode! {
    enum RegOp { Read(a), Write(a, v) }
}
crate::encode! {
    enum BufOp { Append(v), ReadAll }
}
crate::encode! {
    enum BufRet { Done, Entries(es) }
}

impl BufSpec {
    /// The internal flush transition: persists everything buffered.
    pub fn flush_transition() -> Transition<BufState, ()> {
        Transition::modify(|s: &mut BufState| s.persisted = s.entries.len()).boxed()
    }
}

impl SpecTS for BufSpec {
    type State = BufState;
    type Op = BufOp;
    type Ret = BufRet;

    fn init(&self) -> BufState {
        BufState::default()
    }

    fn op_transition(&self, op: &BufOp) -> Transition<BufState, BufRet> {
        match *op {
            BufOp::Append(v) => Transition::modify(move |s: &mut BufState| s.entries.push(v))
                .map(|()| BufRet::Done)
                .boxed(),
            BufOp::ReadAll => {
                Transition::gets(|s: &BufState| BufRet::Entries(s.entries.clone())).boxed()
            }
        }
    }

    fn crash_transition(&self) -> Transition<BufState, ()> {
        Transition::modify(|s: &mut BufState| s.entries.truncate(s.persisted)).boxed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SeqReplay;

    #[test]
    fn bufspec_crash_drops_unpersisted_tail() {
        let mut r = SeqReplay::new(BufSpec);
        r.step_op(&BufOp::Append(1)).unwrap();
        r.step_op(&BufOp::Append(2)).unwrap();
        // Flush persists both; a third append stays buffered.
        let mut s = r.state().clone();
        let (s2, ()) = BufSpec::flush_transition().run(&s).unwrap();
        s = s2;
        let mut r = SeqReplay::from_state(BufSpec, s);
        r.step_op(&BufOp::Append(3)).unwrap();
        r.step_crash().unwrap();
        assert_eq!(
            r.step_op(&BufOp::ReadAll).unwrap(),
            BufRet::Entries(vec![1, 2])
        );
    }

    #[test]
    fn regspec_crash_preserves_all() {
        let mut r = SeqReplay::new(RegSpec { size: 2 });
        r.step_op(&RegOp::Write(1, 5)).unwrap();
        r.step_crash().unwrap();
        assert_eq!(r.step_op(&RegOp::Read(1)).unwrap(), Some(5));
    }
}
