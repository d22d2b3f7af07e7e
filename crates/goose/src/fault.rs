//! Fault plans: deterministic storage and network fault injection.
//!
//! The checker sweeps *fault plans* the same way it sweeps crash points:
//! every explored execution carries one [`FaultPlan`], fixed before the
//! run starts and derived purely from the execution's canonical job key
//! (`hash(base_seed, pass_rank, index)`), never from wall-clock state.
//! The model runtime threads the plan through the storage and network
//! models:
//!
//! - **Transient I/O errors** — the plan names disk-operation indices at
//!   which a model-disk `read`/`write` returns
//!   [`IoError::Transient`]. Systems absorb these with the bounded
//!   [`retry_with_backoff`] helper; each retry is a scheduler yield
//!   point, so the interleavings *during* a retry loop are explored like
//!   any other schedule.
//! - **Torn writes** — a `BufferedDisk` holds writes in a volatile
//!   buffer until an explicit `flush` barrier. On a crash, the plan's
//!   [`TornMode`] decides which unflushed writes made it to the platter:
//!   all of them (the pre-fault-model behaviour), none, or a
//!   pseudo-random subset — which models both torn (prefix lost) and
//!   reordered (later write survives an earlier one) writes.
//! - **Disk failure** — fail one disk of a two-disk device at a chosen
//!   grant count, including counts inside recovery.
//! - **Network faults** — drop, duplicate, or delay a message at a
//!   chosen send index on the model network.
//!
//! An empty plan ([`FaultPlan::default`]) injects nothing and leaves
//! every model exactly as kind as it was before this module existed.

use crate::sched::ModelRt;
use std::collections::{BTreeMap, BTreeSet};

/// Error returned by fallible model-disk operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// The operation failed this time but may succeed if retried (a
    /// controller-injected transient fault).
    Transient,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Transient => write!(f, "transient I/O error"),
        }
    }
}

/// Result of a fallible model-disk operation.
pub type IoResult<T> = Result<T, IoError>;

/// What a crash does to the writes still sitting in a `BufferedDisk`'s
/// volatile buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornMode {
    /// Every buffered write reaches the platter (equivalent to the
    /// atomic-write model the crash sweeps always used).
    KeepAll,
    /// No buffered write reaches the platter.
    KeepNone,
    /// A pseudo-random subset survives, chosen by bits derived from the
    /// execution seed and this variant tag — deterministic per job key.
    Subset(u64),
}

/// A network fault applied to one message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The message is silently lost.
    Drop,
    /// The message is delivered twice.
    Duplicate,
    /// The message is held back and delivered after the next send (or at
    /// the end of the stream).
    Delay,
}

/// One execution's complete fault schedule. Immutable once the runtime
/// is built; the empty plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Global disk-operation indices (across all model disks of the
    /// execution, in consult order) at which the operation returns
    /// [`IoError::Transient`] once.
    pub transient_io: BTreeSet<u64>,
    /// How a crash treats unflushed buffered writes. `None` behaves like
    /// [`TornMode::KeepAll`].
    pub torn: Option<TornMode>,
    /// Fail disk `d` (1 or 2) of a two-disk device once the controller
    /// reaches this absolute grant count.
    pub disk_fail: Option<(u8, u64)>,
    /// Per-send-index network faults.
    pub net: BTreeMap<u64, NetFault>,
}

impl FaultPlan {
    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.transient_io.is_empty()
            && self.torn.is_none()
            && self.disk_fail.is_none()
            && self.net.is_empty()
    }

    /// Human-readable fault schedule for counterexample reports.
    pub fn describe(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if !self.transient_io.is_empty() {
            let idxs: Vec<u64> = self.transient_io.iter().copied().collect();
            parts.push(format!("transient I/O error at disk op(s) {idxs:?}"));
        }
        match self.torn {
            None => {}
            Some(TornMode::KeepAll) => parts.push("crash persists all buffered writes".to_string()),
            Some(TornMode::KeepNone) => parts.push("crash drops all unflushed writes".to_string()),
            Some(TornMode::Subset(s)) => parts.push(format!(
                "crash persists a pseudo-random subset of unflushed writes (torn, variant {s:#x})"
            )),
        }
        if let Some((d, g)) = self.disk_fail {
            parts.push(format!("disk D{d} fails at grant count {g}"));
        }
        for (i, f) in &self.net {
            let what = match f {
                NetFault::Drop => "dropped",
                NetFault::Duplicate => "duplicated",
                NetFault::Delay => "delayed",
            };
            parts.push(format!("net message {i} {what}"));
        }
        parts.join("; ")
    }

    /// Compact fault summary for one-line verdicts and JSONL records,
    /// e.g. `io@3`, `d1@5`, `torn-none`, `net-drop@2`; multiple faults
    /// join with `+`. Empty plans render as `-`. Every byte is one of
    /// `[a-z0-9@+-]`, so the text needs no escaping wherever it lands.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes [`compact`](Self::compact)'s text into `out`, allocating
    /// nothing: the form a per-execution record streams.
    pub fn write_compact(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        if self.is_empty() {
            return out.write_char('-');
        }
        let mut sep = "";
        let mut part = |args: std::fmt::Arguments<'_>| {
            out.write_str(std::mem::replace(&mut sep, "+"))?;
            out.write_fmt(args)
        };
        for i in &self.transient_io {
            part(format_args!("io@{i}"))?;
        }
        match self.torn {
            None => {}
            Some(TornMode::KeepAll) => part(format_args!("torn-all"))?,
            Some(TornMode::KeepNone) => part(format_args!("torn-none"))?,
            Some(TornMode::Subset(s)) => part(format_args!("torn-sub{s}"))?,
        }
        if let Some((d, g)) = self.disk_fail {
            part(format_args!("d{d}@{g}"))?;
        }
        for (i, f) in &self.net {
            let what = match f {
                NetFault::Drop => "drop",
                NetFault::Duplicate => "dup",
                NetFault::Delay => "delay",
            };
            part(format_args!("net-{what}@{i}"))?;
        }
        Ok(())
    }
}

/// Why a text is not a [`FaultPlan::compact`] rendering: the first token
/// that is not in its written form, or out of its written order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError(pub String);

impl std::fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not a compact fault-plan token: {:?}", self.0)
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = ParsePlanError;

    /// The exact inverse of [`FaultPlan::write_compact`] ([`FaultPlan::check_compact`]
    /// says which texts are one).
    fn from_str(text: &str) -> Result<Self, ParsePlanError> {
        let mut plan = FaultPlan::default();
        tokens(text, |token| match token {
            Token::Io(i) => _ = plan.transient_io.insert(i),
            Token::Torn(mode) => plan.torn = Some(mode),
            Token::Disk(d, g) => plan.disk_fail = Some((d, g)),
            Token::Net(i, fault) => _ = plan.net.insert(i, fault),
        })?;
        Ok(plan)
    }
}

impl FaultPlan {
    /// Whether `text` is what [`FaultPlan::write_compact`] writes for some
    /// plan, without building the plan: `-` for the empty plan; otherwise
    /// `+`-joined tokens in the order it writes them (transient errors
    /// ascending, the torn mode, the disk failure, net faults ascending),
    /// each number in canonical decimal. Anything else — a token twice,
    /// out of order, a leading zero, an empty text — is an error, so a
    /// plan reads back only from the text it writes.
    pub fn check_compact(text: &str) -> Result<(), ParsePlanError> {
        tokens(text, |_| {})
    }
}

/// One token of a compact fault plan.
enum Token {
    Io(u64),
    Torn(TornMode),
    Disk(u8, u64),
    Net(u64, NetFault),
}

impl Token {
    /// `text` as a token, if it is one in written form.
    fn read(text: &str) -> Option<Token> {
        if let Some(i) = text.strip_prefix("io@") {
            return Some(Token::Io(number(i)?));
        }
        if let Some(mode) = text.strip_prefix("torn-") {
            return Some(Token::Torn(match mode {
                "all" => TornMode::KeepAll,
                "none" => TornMode::KeepNone,
                _ => TornMode::Subset(number(mode.strip_prefix("sub")?)?),
            }));
        }
        if let Some(rest) = text.strip_prefix("net-") {
            let (what, i) = rest.split_once('@')?;
            let fault = match what {
                "drop" => NetFault::Drop,
                "dup" => NetFault::Duplicate,
                "delay" => NetFault::Delay,
                _ => return None,
            };
            return Some(Token::Net(number(i)?, fault));
        }
        let (d, g) = text.strip_prefix('d')?.split_once('@')?;
        Some(Token::Disk(number(d)?, number(g)?))
    }

    /// Where the token sits in the written order: its kind's place, then
    /// its index among the transient errors or the net faults.
    fn place(&self) -> (u8, u64) {
        match *self {
            Token::Io(i) => (0, i),
            Token::Torn(_) => (1, 0),
            Token::Disk(..) => (2, 0),
            Token::Net(i, _) => (3, i),
        }
    }
}

/// Hands each token of the compact plan `text` to `each`, in order, or
/// names the first that is not in written form or not after the one
/// before it.
fn tokens(text: &str, mut each: impl FnMut(Token)) -> Result<(), ParsePlanError> {
    if text == "-" {
        return Ok(());
    }
    let mut last = None;
    for word in text.split('+') {
        let after = |token: &Token| last.is_none_or(|last| token.place() > last);
        let token = Token::read(word).filter(after);
        let token = token.ok_or_else(|| ParsePlanError(word.to_string()))?;
        last = Some(token.place());
        each(token);
    }
    Ok(())
}

/// `text` as a number if it is one in canonical decimal: digits only, and
/// no leading zero unless it is `0`.
fn number<T: std::str::FromStr>(text: &str) -> Option<T> {
    let digits = !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit());
    let canonical = digits && (text == "0" || !text.starts_with('0'));
    canonical.then(|| text.parse().ok()).flatten()
}

/// Which fault families a scenario's substrate can absorb. The explorer
/// only schedules a fault pass when the harness claims the matching
/// surface — injecting torn writes under a system that never buffers, or
/// two-disk failures under a single-disk system, would be noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSurface {
    /// Model-disk reads/writes may return transient errors (the
    /// substrate retries via [`retry_with_backoff`]).
    pub transient_disk_io: bool,
    /// Storage goes through a `BufferedDisk` with flush barriers, so
    /// torn-write crash plans are meaningful.
    pub torn_writes: bool,
    /// The system runs on a two-disk device whose halves can fail.
    pub two_disk: bool,
    /// The workload exchanges messages over the model network.
    pub net: bool,
}

impl FaultSurface {
    /// A surface exposing no fault families (the default).
    pub fn none() -> Self {
        FaultSurface::default()
    }
}

/// Default retry budget for [`retry_with_backoff`] — enough to outlast
/// any single plan-injected transient fault with room to spare.
pub const DEFAULT_IO_ATTEMPTS: u32 = 4;

/// Retries a fallible operation up to `attempts` times, yielding to the
/// scheduler between attempts (the model analog of sleeping through a
/// backoff): every retry boundary is a schedule point, so the checker
/// explores interleavings *during* the retry loop. Returns the first
/// success, or the last error once the budget is exhausted.
pub fn retry_with_backoff<T>(
    rt: &ModelRt,
    attempts: u32,
    mut op: impl FnMut() -> IoResult<T>,
) -> IoResult<T> {
    assert!(
        attempts > 0,
        "retry_with_backoff needs at least one attempt"
    );
    let mut last = IoError::Transient;
    for i in 0..attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                last = e;
                if i + 1 < attempts {
                    // Backoff: give every other thread a chance to run
                    // before the next attempt.
                    rt.yield_point();
                }
            }
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn empty_plan_describes_as_none() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.describe(), "none");
    }

    #[test]
    fn plan_description_names_every_fault() {
        let mut plan = FaultPlan::default();
        plan.transient_io.insert(3);
        plan.torn = Some(TornMode::KeepNone);
        plan.disk_fail = Some((1, 7));
        plan.net.insert(2, NetFault::Duplicate);
        let d = plan.describe();
        assert!(d.contains("disk op(s) [3]"), "{d}");
        assert!(d.contains("drops all unflushed"), "{d}");
        assert!(d.contains("D1 fails at grant count 7"), "{d}");
        assert!(d.contains("net message 2 duplicated"), "{d}");
    }

    #[test]
    fn compact_summary_is_terse_and_complete() {
        assert_eq!(FaultPlan::default().compact(), "-");
        let mut plan = FaultPlan {
            disk_fail: Some((1, 5)),
            ..FaultPlan::default()
        };
        assert_eq!(plan.compact(), "d1@5");
        plan.transient_io.insert(3);
        plan.torn = Some(TornMode::KeepNone);
        plan.net.insert(2, NetFault::Drop);
        assert_eq!(plan.compact(), "io@3+torn-none+d1@5+net-drop@2");
    }

    #[test]
    fn retry_succeeds_after_transient_errors() {
        let rt = ModelRt::new(0, 10_000);
        let mut failures_left = 2;
        let r = retry_with_backoff(&rt, DEFAULT_IO_ATTEMPTS, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(IoError::Transient)
            } else {
                Ok(42)
            }
        });
        assert_eq!(r, Ok(42));
    }

    #[test]
    fn retry_is_bounded() {
        let rt = ModelRt::new(0, 10_000);
        let attempts = Arc::new(Mutex::new(0u32));
        let a2 = Arc::clone(&attempts);
        let r: IoResult<()> = retry_with_backoff(&rt, 3, move || {
            *a2.lock() += 1;
            Err(IoError::Transient)
        });
        assert_eq!(r, Err(IoError::Transient));
        assert_eq!(*attempts.lock(), 3, "exactly `attempts` tries, no more");
    }

    #[test]
    fn retry_yields_between_attempts_on_a_virtual_thread() {
        // Two attempts = one backoff yield between them; counting grants
        // pins the deterministic yield-point interaction.
        let rt = ModelRt::new(0, 10_000);
        let rt2 = Arc::clone(&rt);
        rt.spawn("retrier", move || {
            let mut first = true;
            let r = retry_with_backoff(&rt2, 2, || {
                if std::mem::take(&mut first) {
                    Err(IoError::Transient)
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Ok(()));
        });
        let mut grants = 0;
        loop {
            let runnable = rt.runnable();
            if runnable.is_empty() {
                break;
            }
            let _ = rt.grant(runnable[0]);
            grants += 1;
        }
        rt.join_all();
        // Grant 1 starts the body, grant 2 releases the backoff yield
        // point, after which the second attempt succeeds and the thread
        // finishes.
        assert_eq!(grants, 2);
    }
}
