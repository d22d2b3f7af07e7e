//! Lock invariants: `is_lock(ℓ, I)` as a runtime-checked bundle slot.
//!
//! In Iris, a lock is associated with an invariant `I`; acquiring the lock
//! hands the owner the capabilities in `I`, and releasing requires giving
//! them back (§4). Here the bundle is an ordinary Rust value (typically a
//! struct of [`crate::resource::Lease`]s): taking it *moves* it out, so
//! the borrow checker enforces single ownership, and the slot's state
//! machine catches protocol violations (double take, put without take).
//!
//! A lock invariant differs from a plain Iris invariant in that the owner
//! may hold (and violate) the bundle for many steps — exactly the paper's
//! distinction. On crash, the bundle's leases become stale on their own
//! (version check), so the slot can simply be rebuilt by recovery via
//! [`LockInv::reset`].

use crate::error::{GhostError, GhostResult};
use parking_lot::owner::OwnerCell;

/// A lock invariant slot holding a capability bundle of type `B`.
#[derive(Debug)]
pub struct LockInv<B> {
    slot: OwnerCell<SlotState<B>>,
}

#[derive(Debug)]
enum SlotState<B> {
    /// Lock free: bundle stored here.
    Present(B),
    /// Lock held: bundle is with the owner.
    Taken,
}

impl<B: Send> LockInv<B> {
    /// Creates the invariant, storing the initial bundle (the paper: "when
    /// invariants are allocated, the creating thread must provide the
    /// underlying capability").
    pub fn new(bundle: B) -> Self {
        LockInv {
            slot: OwnerCell::new(SlotState::Present(bundle)),
        }
    }

    /// Takes the bundle on lock acquisition.
    pub fn take(&self) -> GhostResult<B> {
        let mut s = self.slot.lock();
        match std::mem::replace(&mut *s, SlotState::Taken) {
            SlotState::Present(b) => Ok(b),
            SlotState::Taken => Err(GhostError::LockInvariant {
                msg: "bundle taken while already taken (lock not actually exclusive?)",
            }),
        }
    }

    /// Returns the bundle on lock release.
    pub fn put(&self, bundle: B) -> GhostResult<()> {
        let mut s = self.slot.lock();
        match &*s {
            SlotState::Taken => {
                *s = SlotState::Present(bundle);
                Ok(())
            }
            SlotState::Present(_) => Err(GhostError::LockInvariant {
                msg: "bundle returned while not taken",
            }),
        }
    }

    /// Rebuilds the slot after a crash: recovery supplies a fresh bundle
    /// (with new-version leases), discarding whatever state was left.
    pub fn reset(&self, bundle: B) {
        *self.slot.lock() = SlotState::Present(bundle);
    }

    /// Whether the bundle is currently taken.
    pub fn is_taken(&self) -> bool {
        matches!(&*self.slot.lock(), SlotState::Taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle() {
        let inv = LockInv::new(41u64);
        let b = inv.take().unwrap();
        assert_eq!(b, 41);
        assert!(inv.is_taken());
        inv.put(b + 1).unwrap();
        assert_eq!(inv.take().unwrap(), 42);
    }

    #[test]
    fn double_take_rejected() {
        let inv = LockInv::new(());
        inv.take().unwrap();
        assert!(matches!(inv.take(), Err(GhostError::LockInvariant { .. })));
    }

    #[test]
    fn put_without_take_rejected() {
        let inv = LockInv::new(0u8);
        assert!(matches!(inv.put(1), Err(GhostError::LockInvariant { .. })));
    }

    #[test]
    fn reset_recovers_from_taken() {
        let inv = LockInv::new(1u64);
        let _ = inv.take().unwrap();
        // Crash: the owner never returns the bundle. Recovery resets.
        inv.reset(2);
        assert_eq!(inv.take().unwrap(), 2);
    }
}
