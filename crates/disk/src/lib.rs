//! Disk substrates for the crash-safety patterns (§9.1).
//!
//! The paper's pattern examples are built on "an alternate set of simpler
//! primitives": a single-disk semantics (shadow copy, write-ahead
//! logging, group commit) and a two-disk semantics (the replicated disk).
//! This crate provides both, in model mode (scheduler-integrated, one
//! atomic step per operation, durable across crashes) and native mode
//! (lock-per-block, for benchmarks).
//!
//! The two-disk semantics includes the failure model of §1: a disk may
//! *fail* permanently, after which reads return `None` and writes are
//! silently dropped — this is what makes the replicated disk's failover
//! path reachable.

#![deny(unsafe_code)]

pub mod buffered;
pub mod single;
pub mod two;

pub use buffered::BufferedDisk;
pub use goose_rt::fault::{IoError, IoResult};
pub use single::{ModelDisk, NativeDisk, SingleDisk};
pub use two::{DiskId, ModelTwoDisks, NativeTwoDisks, TwoDisks};

/// A disk block. The paper uses 4 KiB blocks; model-mode tests use small
/// blocks for readable counterexamples, so the size is per-instance.
pub type Block = Vec<u8>;

/// Builds a block of `size` bytes all equal to `b` (test convenience).
pub fn block_of(size: usize, b: u8) -> Block {
    vec![b; size]
}
