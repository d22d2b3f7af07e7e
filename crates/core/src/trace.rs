//! Refinement traces: the record of spec-level steps an execution
//! simulated, used for reporting and end-of-execution validation, and
//! the fingerprint of its rendering, kept as the events arrive.

use perennial_spec::Jid;
use std::fmt::{self, Debug, Write};

/// A running 64-bit FNV-1a hash: the workspace's one fingerprint
/// function, as a value that can be copied mid-stream. As an
/// [`fmt::Write`] sink it hashes formatted text without building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The hash of no bytes: the FNV offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

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

/// A full refinement trace for one execution.
#[derive(Debug, Clone)]
pub struct Trace<Op, Ret> {
    events: Vec<TraceEvent<Op, Ret>>,
    /// FNV-1a over [`render`](Trace::render)'s bytes for `events`.
    fingerprint: Fnv1a,
}

impl<Op, Ret> Default for Trace<Op, Ret> {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            fingerprint: Fnv1a::default(),
        }
    }
}

/// The rendering of event `i`, the one statement of a trace line: what
/// [`Trace::render`] prints is what [`Trace::push`] hashed.
fn write_line(out: &mut impl Write, i: usize, ev: &impl Debug) -> fmt::Result {
    writeln!(out, "  [{i:3}] {ev:?}")
}

impl<Op: Clone + Debug, Ret: Clone + Debug> Trace<Op, Ret> {
    /// Appends an event, folding its rendered line into the fingerprint.
    pub(crate) fn push(&mut self, ev: TraceEvent<Op, Ret>) {
        write_line(&mut self.fingerprint, self.events.len(), &ev)
            .expect("the hash takes any bytes: a Debug impl failed");
        self.events.push(ev);
    }

    /// The hash of the bytes [`render`](Trace::render) would return,
    /// without rendering them: the execution's behavioural-coverage
    /// fingerprint, as a state that can be copied and carried on. Of an
    /// empty trace, the hash of no bytes.
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

    /// Renders the trace as one line per event, for failure reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, ev) in self.events.iter().enumerate() {
            write_line(&mut out, i, ev).expect("a String takes any bytes: a Debug impl failed");
        }
        out
    }
}
