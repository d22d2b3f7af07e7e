//! Perennial's reasoning techniques as an executable, runtime-checked
//! capability discipline.
//!
//! The SOSP '19 paper extends the Iris concurrency framework with three
//! techniques for crash-safety reasoning, summarized in its Table 1. This
//! crate is the Rust reproduction of that contribution. Lacking a proof
//! assistant, the capability rules are *enforced at runtime* on every
//! execution the checker explores, instead of being discharged once by
//! `coqc`:
//!
//! | Paper technique | Here | Guard (one per rule) |
//! |---|---|---|
//! | crash invariant (§5.1) | the [`Ghost`] engine itself holds master copies and helping tokens across crashes | `engine::cell`, `engine::typed` |
//! | versioned memory (§5.2) | [`resource::PointsTo`] stamped with a version; any use after a crash fails | `resource::check_version` |
//! | recovery leases (§5.3) | [`resource::Lease`]/[`resource::DurId`] — writes need master + current lease; [`Ghost::recover_lease`] synthesizes a fresh lease once per version | `Inner::governs`, `Leased::mint` |
//! | refinement (§4) | [`engine::OpToken`] (`j ⇛ op`), [`Ghost::commit_op`] simulating spec steps against `source(σ)` | `Inner::op`, `Inner::pending_op`, `Inner::simulate` |
//! | crash refinement (§5.5) | [`engine::CrashToken`] (`⇛Crashing`/`⇛Done`), spent by [`Ghost::recovery_done`] | `Inner::in_recovery`, `Inner::simulate` |
//! | recovery helping (§5.4) | [`Ghost::stash_op`]/[`Ghost::help_commit`] moving `j ⇛ op` through the crash invariant | `Inner::stashed`, `Inner::in_recovery` |
//!
//! The guards are private functions of `engine.rs` and `resource.rs`,
//! each the single place its [`GhostError`] is constructed; `DESIGN.md`
//! §4 maps every one to the test that pins it, and lists the rules that
//! have no guard because ownership enforces them (`finish_op` takes
//! [`OpToken`] by value; no capability is `Clone`).
//!
//! A system "verified" with this crate is one whose implementation is
//! instrumented with these ghost calls (the runtime analog of writing the
//! Perennial proof) and for which the checker (`perennial-checker`)
//! explored schedules and crash points without any ghost rule ever
//! failing. See `DESIGN.md` §1 for the precise claim this substitutes for
//! the paper's Coq theorem.
//!
//! # Examples
//!
//! Verifying one atomic register write across a crash:
//!
//! ```
//! use perennial::{Ghost, GhostUnwrap};
//! use perennial_spec::fixtures::{RegOp, RegSpec};
//!
//! let g = Ghost::new(RegSpec { size: 8 });
//! // Durable resource + lease for address 3.
//! let (cell, mut lease) = g.alloc_durable(0u64);
//!
//! // A write operation: begin, mutate under the lease, commit, finish.
//! let tok = g.begin_op(RegOp::Write(3, 7)).ghost_unwrap();
//! g.write_durable(cell, &mut lease, 7).ghost_unwrap();
//! let ret = g.commit_op(&tok).ghost_unwrap();
//! g.finish_op(tok, &ret).ghost_unwrap();
//!
//! // Crash: the lease dies with the version bump, but the master copy
//! // survives in the crash invariant, and recovery mints a fresh lease.
//! g.crash();
//! assert_eq!(g.read_master(cell).ghost_unwrap(), 7);
//! let lease2 = g.recover_lease(cell).ghost_unwrap();
//! g.recovery_done().ghost_unwrap();
//! assert_eq!(g.read_durable(cell, &lease2).ghost_unwrap(), 7);
//! let report = g.validate().unwrap();
//! assert_eq!(report.finished, 1);
//!
//! // Using the stale pre-crash lease is a discipline violation (and any
//! // recorded violation poisons later validation — errors are sticky).
//! assert!(g.read_durable(cell, &lease).is_err());
//! assert!(g.validate().is_err());
//! ```

#![deny(unsafe_code)]

pub mod engine;
pub mod error;
pub mod lockinv;
pub mod resource;
pub mod trace;
pub mod validate;

pub use engine::{CrashToken, Ghost, OpToken};
pub use error::{GhostError, GhostPanic, GhostResult, GhostUnwrap};
pub use lockinv::LockInv;
pub use resource::{DurId, Lease, PointsTo, SetId, SetItem, SetLease};
pub use trace::{Fnv1a, Trace, TraceEvent};
pub use validate::Report;
