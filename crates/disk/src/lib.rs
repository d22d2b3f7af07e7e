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

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Bytes a [`Block`] holds without a heap buffer: as many as fit beside
/// its length in the 32 bytes a `Vec<u8>` and the word of its heap
/// buffer took, so an array of blocks is no larger than it was. The
/// patterns' 8-byte and the replicated disk's blocks fit; the KV
/// store's 56-byte ones do not.
const INLINE: usize = 23;

/// A disk block. The paper uses 4 KiB blocks; model-mode tests use small
/// blocks for readable counterexamples, so the size is per-instance. A
/// block of up to 23 bytes is a plain value (reading or copying one
/// allocates nothing); a larger one keeps its bytes on the heap. Either
/// way it reads as a byte slice, and compares and prints as one.
pub struct Block(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Vec<u8>),
}

impl Clone for Block {
    fn clone(&self) -> Block {
        Block(self.0.clone())
    }

    /// Copies into the heap buffer `self` already has, if both are on
    /// the heap: a ghost cell or a write buffer copied back over its
    /// earlier self allocates nothing.
    fn clone_from(&mut self, source: &Block) {
        match (&mut self.0, &source.0) {
            (Repr::Heap(to), Repr::Heap(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl Block {
    /// A block of `size` zero bytes.
    pub fn zeroed(size: usize) -> Block {
        block_of(size, 0)
    }
}

/// Builds a block of `size` bytes all equal to `b`.
pub fn block_of(size: usize, b: u8) -> Block {
    match u8::try_from(size) {
        Ok(len) if size <= INLINE => Block(Repr::Inline {
            len,
            bytes: [b; INLINE],
        }),
        _ => Block(Repr::Heap(vec![b; size])),
    }
}

impl From<&[u8]> for Block {
    fn from(v: &[u8]) -> Block {
        match u8::try_from(v.len()) {
            Ok(len) if v.len() <= INLINE => {
                let mut bytes = [0; INLINE];
                bytes[..v.len()].copy_from_slice(v);
                Block(Repr::Inline { len, bytes })
            }
            _ => Block(Repr::Heap(v.to_vec())),
        }
    }
}

impl Deref for Block {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl DerefMut for Block {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Inline { len, bytes } => &mut bytes[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        **self == **other
    }
}

impl Eq for Block {}

impl PartialEq<Vec<u8>> for Block {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The blocks of one model disk in one flat buffer: a read or a write
/// copies bytes, an image of the disk is one allocation, and restoring
/// an image copies into the buffer the disk has.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Platter {
    bytes: Vec<u8>,
    nblocks: u64,
    block_size: usize,
}

impl Clone for Platter {
    fn clone(&self) -> Platter {
        Platter {
            bytes: self.bytes.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Platter) {
        self.bytes.clone_from(&source.bytes);
        self.nblocks = source.nblocks;
        self.block_size = source.block_size;
    }
}

impl Platter {
    /// `nblocks` zeroed blocks of `block_size` bytes.
    pub(crate) fn new(nblocks: u64, block_size: usize) -> Platter {
        Platter {
            bytes: vec![0; nblocks as usize * block_size],
            nblocks,
            block_size,
        }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> u64 {
        self.nblocks
    }

    /// Block `a`'s bytes.
    pub(crate) fn get(&self, a: u64) -> &[u8] {
        let at = a as usize * self.block_size;
        &self.bytes[at..at + self.block_size]
    }

    /// A copy of block `a`.
    pub(crate) fn block(&self, a: u64) -> Block {
        Block::from(self.get(a))
    }

    /// Overwrites block `a` with `v`, which must be a whole block.
    pub(crate) fn put(&mut self, a: u64, v: &[u8]) {
        let at = a as usize * self.block_size;
        self.bytes[at..at + self.block_size].copy_from_slice(v);
    }
}
