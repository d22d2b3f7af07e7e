//! Ghost resources: versioned volatile cells, durable master/lease cells,
//! and durable sets with lower-bound leases.
//!
//! These are the runtime analogs of the paper's capabilities:
//!
//! - `p ↦ₙ v` — [`PointsTo`], valid only at the version it was minted for
//!   (§5.2, *versioned memory*).
//! - `d[a] ↦ₙ v ∗ leaseₙ(d[a], v)` — an implicit master copy held in the
//!   crash invariant plus a [`Lease`] token (§5.3, *recovery leases*).
//!   Writes require the lease; after a crash the master survives and a
//!   fresh lease can be synthesized exactly once per version.
//! - `lease(dir, ⊇N)` — [`SetLease`], the lower-bound lease Mailboat's
//!   proof uses (§8.3): the holder may delete members, while any thread
//!   may insert new ones.
//!
//! Tokens are deliberately **not** `Clone`: ownership of the Rust value is
//! ownership of the capability, which is how separation logic's
//! "capabilities cannot be duplicated" rule is enforced for free by the
//! borrow checker. The engine additionally checks versions and lease
//! uniqueness dynamically, so even code that cheats with `unsafe` or
//! reconstructs tokens is caught.

use crate::error::{GhostError, GhostResult};
use std::fmt;
use std::marker::PhantomData;

/// Capability for a volatile (in-memory) cell: the paper's `p ↦ₙ v`.
///
/// Invalidated wholesale by a crash; any use afterwards is a
/// [`GhostError::StaleVersion`].
pub struct PointsTo<T> {
    pub(crate) id: u64,
    pub(crate) version: u64,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> fmt::Debug for PointsTo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PointsTo(id={}, v={})", self.id, self.version)
    }
}

/// Capability to mutate a durable cell for the current version: the
/// paper's `leaseₙ(d[a], v)`.
pub struct Lease<T> {
    pub(crate) id: u64,
    pub(crate) version: u64,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> fmt::Debug for Lease<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lease(id={}, v={})", self.id, self.version)
    }
}

/// Stable identifier of a durable cell whose master copy lives in the
/// crash invariant. `Copy` on purpose: naming a resource is free; only
/// the lease conveys mutation rights.
pub struct DurId<T> {
    pub(crate) id: u64,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DurId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DurId<T> {}

impl<T> fmt::Debug for DurId<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DurId({})", self.id)
    }
}

impl<T> DurId<T> {
    /// Raw id, for keying helper maps.
    pub fn raw(&self) -> u64 {
        self.id
    }
}

/// Stable identifier of a durable set resource.
pub struct SetId<T> {
    pub(crate) id: u64,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for SetId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SetId<T> {}

impl<T> fmt::Debug for SetId<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SetId({})", self.id)
    }
}

/// Lower-bound lease over a durable set: the paper's `lease(dir, ⊇N)`.
///
/// The holder may delete members; any thread may insert (modelling
/// concurrent `Deliver` during a locked `Pickup`).
pub struct SetLease<T> {
    pub(crate) id: u64,
    pub(crate) version: u64,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> fmt::Debug for SetLease<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SetLease(id={}, v={})", self.id, self.version)
    }
}

/// A durable resource in the engine's table — a cell's master copy or a
/// set's members — with the one lease that may be out on it.
pub(crate) struct Leased<V> {
    pub(crate) value: V,
    /// Version for which a lease is currently outstanding, if any.
    lease_out_for: Option<u64>,
}

impl<V> Leased<V> {
    /// A fresh resource, its lease for `version` handed to the allocator.
    pub(crate) fn new(value: V, version: u64) -> Self {
        Leased {
            value,
            lease_out_for: Some(version),
        }
    }

    /// A crash: whatever lease was out died with its version.
    pub(crate) fn revoke(&mut self) {
        self.lease_out_for = None;
    }

    /// Mints the one lease of `version` (§5.3: at most one lease per
    /// resource per version).
    pub(crate) fn mint(&mut self, id: u64, version: u64) -> GhostResult<()> {
        if self.lease_out_for == Some(version) {
            return Err(GhostError::LeaseAlreadyOut { id });
        }
        self.lease_out_for = Some(version);
        Ok(())
    }
}

/// Values storable in durable set resources: anything with a stable byte
/// encoding usable as a set key.
pub trait SetItem: Clone + Send + Sync + 'static {
    /// Stable byte encoding (must be injective).
    fn encode(&self) -> Vec<u8>;
}

impl SetItem for String {
    fn encode(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
}

impl SetItem for u64 {
    fn encode(&self) -> Vec<u8> {
        self.to_be_bytes().to_vec()
    }
}

impl SetItem for (u64, String) {
    fn encode(&self) -> Vec<u8> {
        let mut v = self.0.to_be_bytes().to_vec();
        v.extend_from_slice(self.1.as_bytes());
        v
    }
}

/// Checks a capability version against the current execution version.
pub(crate) fn check_version(what: &'static str, cap_version: u64, current: u64) -> GhostResult<()> {
    if cap_version == current {
        Ok(())
    } else {
        Err(GhostError::StaleVersion {
            what,
            cap_version,
            current,
        })
    }
}
