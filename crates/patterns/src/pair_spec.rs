//! The atomic-pair specification shared by the shadow-copy and
//! write-ahead-log patterns (§9.1): a pair of values that must update
//! atomically — after any crash, readers see either the old pair or the
//! new pair, never a mix.

use perennial_disk::Block;
use perennial_spec::{SpecTS, Step, Transition};

/// Abstract state: the current pair.
pub type Pair = (u64, u64);

/// Operations on the atomic pair store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairOp {
    /// Atomically replace both values.
    Put(u64, u64),
    /// Read both values.
    Get,
}

/// Return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairRet {
    /// `Put` acknowledgement.
    Unit,
    /// `Get` result.
    Val(u64, u64),
}

perennial_spec::encode! {
    enum PairOp { Put(a, b), Get }
}
perennial_spec::encode! {
    enum PairRet { Unit, Val(a, b) }
}

/// The atomic-pair spec. Crash loses nothing (both patterns make the
/// update durable before acknowledging).
#[derive(Debug, Clone, Default)]
pub struct PairSpec;

impl SpecTS for PairSpec {
    type State = Pair;
    type Op = PairOp;
    type Ret = PairRet;

    fn init(&self) -> Pair {
        (0, 0)
    }

    fn op_transition(&self, op: &PairOp) -> Transition<Pair, PairRet> {
        match *op {
            PairOp::Put(a, b) => Transition::modify(move |s: &mut Pair| *s = (a, b))
                .map(|()| PairRet::Unit)
                .boxed(),
            PairOp::Get => Transition::gets(|s: &Pair| PairRet::Val(s.0, s.1)).boxed(),
        }
    }

    fn crash_transition(&self) -> Transition<Pair, ()> {
        Transition::skip().boxed()
    }
}

/// Encodes a value into a block (blocks are 8 bytes in these patterns).
pub fn enc(v: u64) -> Block {
    Block::from(&v.to_le_bytes()[..])
}

/// Decodes a block back to a value.
pub fn dec(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("block too short"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_spec::system::SeqReplay;

    #[test]
    fn put_then_get() {
        let mut r = SeqReplay::new(PairSpec);
        assert_eq!(r.step_op(&PairOp::Get).unwrap(), PairRet::Val(0, 0));
        r.step_op(&PairOp::Put(3, 4)).unwrap();
        r.step_crash().unwrap();
        assert_eq!(r.step_op(&PairOp::Get).unwrap(), PairRet::Val(3, 4));
    }

    #[test]
    fn enc_dec_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(dec(&enc(v)), v);
        }
    }
}
