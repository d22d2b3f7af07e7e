//! A crash-safe, concurrent node key-value store, verified with the
//! Perennial reproduction's checker.
//!
//! The paper's related-work section (§2) observes that of the verified
//! distributed systems, only Verdi handles node crashes — and that
//! "Perennial can be used to verify the kind of crash-safe, concurrent
//! node-storage system that Verdi assumes". This crate is that system:
//! a hash-bucketed KV store on a single disk where
//!
//! - each bucket is updated atomically with the **shadow-copy** pattern
//!   (write the inactive slot, flip an install pointer);
//! - per-bucket locks allow genuinely parallel operations on different
//!   buckets (the checker exercises both same- and cross-bucket races);
//! - acknowledged updates survive crashes without any repair work in
//!   recovery (an uninstalled shadow is invisible);
//! - the spec is the obvious one: a linearizable map with a lossless
//!   crash transition.
//!
//! Module map: [`spec`] (the map specification), [`store`] (the
//! instrumented implementation and its mutants), [`harness`] (checker
//! plumbing and programs).

#![deny(unsafe_code)]

pub mod harness;
pub mod spec;
pub mod store;

pub use harness::{mutant_scenarios, scenarios, KvHarness};
pub use spec::{bucket_of, KvOp, KvRet, KvSpec, BUCKETS, BUCKET_CAP};
pub use store::{KvMutant, NodeKv};
