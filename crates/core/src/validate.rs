//! End-of-execution reports: what the ghost engine certified.

/// Summary of one successfully validated execution.
///
/// Produced by [`crate::Ghost::validate`] only when *every* ghost step
/// succeeded and the Theorem 2 obligations hold; the checker aggregates
/// these across explored schedules and crash points.
#[derive(Debug, Clone)]
pub struct Report {
    /// Final execution version (= number of crashes survived).
    pub version: u64,
    /// Operations invoked (`begin_op` calls).
    pub ops_invoked: usize,
    /// Operations that committed and returned with matching values.
    pub finished: usize,
    /// Operations completed by recovery on a crashed thread's behalf.
    pub helped: usize,
    /// In-flight uncommitted operations cut off by a crash (legal: the
    /// caller observed no return).
    pub aborted: usize,
    /// Operations that committed but whose return was cut off by a crash
    /// (legal: the effect is durable, the value was simply never
    /// delivered).
    pub committed_unreturned: usize,
    /// Crash events.
    pub crashes: usize,
    /// Total committed spec steps (own + helped).
    pub commits: usize,
}

impl Report {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "v{}: {} invoked, {} finished, {} helped, {} aborted, {} committed-unreturned, {} crashes",
            self.version,
            self.ops_invoked,
            self.finished,
            self.helped,
            self.aborted,
            self.committed_unreturned,
            self.crashes
        )
    }
}
