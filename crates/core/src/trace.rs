//! Refinement traces: the record of spec-level steps an execution
//! simulated, used for reporting and end-of-execution validation, and
//! its fingerprint, the FNV-1a fold of the events' [`Encode`] bytes,
//! kept as the events arrive. `Debug` renders a trace for a reader and
//! plays no part in its fingerprint.

pub use perennial_spec::Fnv1a;
use perennial_spec::{Encode, Jid};
use std::fmt::{Debug, Write};

/// One spec-level event recorded by the ghost engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent<Op, Ret> {
    /// `begin_op`: minted `j ⇛ op`.
    Invoke { jid: Jid, op: Op },
    /// `commit_op`: simulated the spec step for `j`, producing `ret`.
    Commit { jid: Jid, op: Op, ret: Ret },
    /// `finish_op`: the implementation returned `ret` for `j`.
    Return { jid: Jid, ret: Ret },
    /// `stash_op`: `j ⇛ op` moved into the crash invariant under `key`.
    Stash { jid: Jid, key: u64 },
    /// `unstash_op`: `j ⇛ op` taken back out of the crash invariant.
    Unstash { jid: Jid, key: u64 },
    /// Recovery committed `j`'s operation on its behalf (§5.4 helping).
    HelpCommit { jid: Jid, op: Op, ret: Ret },
    /// A crash: version bumped to `new_version`; uncommitted, unstashed
    /// in-flight ops listed in `aborted` are treated as never-executed.
    Crash { new_version: u64, aborted: Vec<Jid> },
    /// Recovery finished: the spec crash transition was simulated and the
    /// crash token moved `⇛Crashing → ⇛Done`.
    RecoveryDone { version: u64 },
}

perennial_spec::encode! {
    enum TraceEvent<Op, Ret> {
        Invoke { jid, op },
        Commit { jid, op, ret },
        Return { jid, ret },
        Stash { jid, key },
        Unstash { jid, key },
        HelpCommit { jid, op, ret },
        Crash { new_version, aborted },
        RecoveryDone { version },
    }
}

/// A full refinement trace for one execution.
#[derive(Debug)]
pub struct Trace<Op, Ret> {
    events: Vec<TraceEvent<Op, Ret>>,
    /// FNV-1a over the [`Encode`] bytes of `events`, in order.
    fingerprint: Fnv1a,
}

impl<Op: Clone, Ret: Clone> Clone for Trace<Op, Ret> {
    fn clone(&self) -> Self {
        Trace {
            events: self.events.clone(),
            fingerprint: self.fingerprint,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.events.clone_from(&source.events);
        self.fingerprint = source.fingerprint;
    }
}

impl<Op, Ret> Default for Trace<Op, Ret> {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            fingerprint: Fnv1a::default(),
        }
    }
}

impl<Op: Clone + Debug + Encode, Ret: Clone + Debug + Encode> Trace<Op, Ret> {
    /// Appends an event, folding its encoding into the fingerprint.
    pub(crate) fn push(&mut self, ev: TraceEvent<Op, Ret>) {
        ev.encode(&mut self.fingerprint);
        self.events.push(ev);
    }

    /// The fold of every event's encoding, in order: the execution's
    /// behavioural-coverage fingerprint, as a state that can be copied
    /// and carried on. The encoding is prefix-free, so two traces agree
    /// on it (up to a hash collision) exactly when their events are
    /// equal. Of an empty trace, the hash of no bytes.
    pub fn fingerprint(&self) -> Fnv1a {
        self.fingerprint
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent<Op, Ret>] {
        &self.events
    }

    /// Number of committed spec steps (own commits plus helped commits).
    pub fn commits(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Commit { .. } | TraceEvent::HelpCommit { .. }))
            .count()
    }

    /// Number of crashes.
    pub fn crashes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Crash { .. }))
            .count()
    }

    /// Renders the trace as one line per event, for a reader (failure
    /// reports, replays): the one place a trace is formatted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, ev) in self.events.iter().enumerate() {
            writeln!(out, "  [{i:3}] {ev:?}")
                .expect("a String takes any bytes: a Debug impl failed");
        }
        out
    }
}
