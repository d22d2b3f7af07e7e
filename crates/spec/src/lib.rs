//! Transition-system specification DSL for the Perennial reproduction.
//!
//! The paper (§3.1) writes specifications as transition systems embedded in
//! Coq: a state type plus, for every top-level operation, a transition built
//! from a small set of primitives (`gets`, `modify`, `ret`, `undefined`).
//! This crate provides the same DSL embedded in Rust.
//!
//! A [`Transition`] is a (possibly partial) function from a state to a new
//! state and a return value. Partiality comes in two flavours mirroring the
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
//! (Figure 3 of the paper shows all three for the replicated disk).
//!
//! # Examples
//!
//! The replicated-disk specification of Figure 3, transliterated:
//!
//! ```
//! use perennial_spec::{Transition, Outcome};
//! use std::collections::BTreeMap;
//!
//! type State = BTreeMap<u64, u8>;
//!
//! fn rd_read(a: u64) -> Transition<State, u8> {
//!     Transition::gets(move |s: &State| s.get(&a).copied()).and_then(|mv| match mv {
//!         Some(v) => Transition::ret(v),
//!         None => Transition::undefined(),
//!     })
//! }
//!
//! let mut s = State::new();
//! s.insert(3, 7);
//! assert_eq!(rd_read(3).run(&s), Outcome::Ok(s.clone(), 7));
//! assert_eq!(rd_read(9).run(&s), Outcome::Undefined);
//! ```

#![deny(unsafe_code)]

pub mod fixtures;
pub mod history;
pub mod system;
pub mod transition;

pub use history::{Event, EventKind, History, Jid};
pub use system::{SeqReplay, SpecTS};
pub use transition::{Outcome, Transition};
