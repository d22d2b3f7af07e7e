//! Transition-system specification DSL for the Perennial reproduction.
//!
//! The paper (§3.1) writes specifications as transition systems embedded in
//! Coq: a state type plus, for every top-level operation, a transition built
//! from a small set of primitives (`gets`, `modify`, `ret`, `undefined`).
//! This crate provides the same DSL embedded in Rust.
//!
//! A transition (a [`Step`]; [`Transition`] when its type is erased) is a
//! (possibly partial) function from a state to a new state and a return
//! value, run once and in place. Partiality comes in two flavours mirroring the
//! paper:
//!
//! - [`Outcome::Undefined`]: the caller triggered *undefined behaviour*
//!   (e.g. an out-of-bounds disk address). Refinement obligations only
//!   apply to executions that avoid undefined behaviour, exactly as in §8.3
//!   of the paper.
//! - [`Outcome::Blocked`]: the transition is not enabled in this state.
//!   This is used by specifications with guards (e.g. group commit may only
//!   persist a prefix of the buffered transactions).
//!
//! A complete specification is a [`SpecTS`]: an initial state, an
//! op-indexed family of transitions, and a distinguished crash transition
//! (Figure 3 of the paper shows all three for the replicated disk). Its
//! operations and return values carry a fixed byte encoding
//! ([`Encode`], stated through [`encode!`]), which is what a ghost
//! trace is fingerprinted by.
//!
//! # Examples
//!
//! The replicated-disk specification of Figure 3, transliterated:
//!
//! ```
//! use perennial_spec::{Outcome, ReplayError, Step, Transition};
//! use std::collections::BTreeMap;
//!
//! type State = BTreeMap<u64, u8>;
//!
//! fn rd_read(a: u64) -> impl Step<State, Ret = u8> {
//!     Transition::gets(move |s: &State| s.get(&a).copied()).and_then(|mv| match mv {
//!         Some(v) => Ok(Transition::ret(v)),
//!         None => Err(ReplayError::Undefined),
//!     })
//! }
//!
//! let mut s = State::new();
//! s.insert(3, 7);
//! assert_eq!(rd_read(3).run(&s), Outcome::Ok(s.clone(), 7));
//! assert_eq!(rd_read(9).run(&s), Outcome::Undefined);
//! ```

#![deny(unsafe_code)]

pub mod encode;
pub mod fixtures;
pub mod history;
pub mod system;
pub mod transition;

pub use encode::{Encode, Fnv1a};
pub use history::{Event, EventKind, History, Jid};
pub use system::{ReplayError, SeqReplay, SpecTS};
pub use transition::{Outcome, Step, Transition};
