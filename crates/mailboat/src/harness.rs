//! Checker harnesses for Mailboat: concurrent deliver/pickup/delete
//! workloads, crash sweeps, the §8.3 slice-race scenario, and mutants.

use crate::proof::{MbMutant, VerifiedMailboat};
use crate::server::mail_dirs;
use crate::spec::MailSpec;
use goose_rt::fault::FaultSurface;
use goose_rt::fs::ModelFs;
use perennial_checker::{Harness, ScenarioSet, Script, World};
use std::sync::Arc;

/// Scenario shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbWorkload {
    /// One delivery (smallest crash-sweep scenario).
    SingleDeliver,
    /// A delivery racing a pickup(+delete+unlock) on the same user.
    DeliverVsPickup,
    /// Two deliveries racing on the same user.
    TwoDelivers,
    /// Deliveries to two users racing a pickup.
    TwoUsers,
    /// §8.3: a delivery reading from a heap slice while another thread
    /// mutates that slice — must be flagged as undefined behaviour.
    SliceRace,
    /// A client submits deliveries over the unreliable model channel and
    /// a courier performs them, deduplicating by request id (the
    /// net-fault sweep drops/duplicates/delays each message).
    NetDeliver,
}

/// Mailboat harness.
pub struct MbHarness {
    /// Number of users.
    pub users: u64,
    /// Which mutant ([`MbMutant::None`] = correct system).
    pub mutant: MbMutant,
    /// Which workload.
    pub workload: MbWorkload,
    /// Run a post-recovery verification round.
    pub after_round: bool,
}

impl Default for MbHarness {
    fn default() -> Self {
        MbHarness {
            users: 2,
            mutant: MbMutant::None,
            workload: MbWorkload::DeliverVsPickup,
            after_round: true,
        }
    }
}

/// The crate's expected-pass scenarios (correct system, every workload
/// except the §8.3 slice race, which is expected to fail), under the
/// registry names `"mailboat/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, workload) in [
        (
            "mailboat/single-deliver",
            "one delivery (smallest crash sweep)",
            MbWorkload::SingleDeliver,
        ),
        (
            "mailboat/deliver-vs-pickup",
            "delivery racing a pickup+delete",
            MbWorkload::DeliverVsPickup,
        ),
        (
            "mailboat/two-delivers",
            "two deliveries racing on one user",
            MbWorkload::TwoDelivers,
        ),
        (
            "mailboat/two-users",
            "deliveries to two users racing a pickup",
            MbWorkload::TwoUsers,
        ),
        (
            "mailboat/net-deliver",
            "courier delivering requests from an unreliable channel",
            MbWorkload::NetDeliver,
        ),
    ] {
        set.add(
            name,
            desc,
            MbHarness {
                workload,
                ..MbHarness::default()
            },
        );
    }
    set
}

/// The crate's expected-fail scenarios: mutants the checker must catch,
/// plus the §8.3 slice race (a correct-system workload whose data race
/// must be flagged as UB). Registry names `"mailboat/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant, workload) in [
        (
            "mailboat/mutant/no-spool",
            "deliver without spool",
            MbMutant::NoSpool,
            MbWorkload::DeliverVsPickup,
        ),
        (
            "mailboat/mutant/commit-at-spool",
            "commit at spool write",
            MbMutant::CommitAtSpool,
            MbWorkload::SingleDeliver,
        ),
        (
            "mailboat/mutant/skip-recovery-cleanup",
            "recovery skips spool cleanup",
            MbMutant::SkipRecoveryCleanup,
            MbWorkload::SingleDeliver,
        ),
        (
            "mailboat/mutant/delete-without-lock",
            "delete without pickup lock",
            MbMutant::DeleteWithoutLock,
            MbWorkload::DeliverVsPickup,
        ),
        (
            "mailboat/mutant/slice-race",
            "§8.3 heap slice race (must be flagged as UB)",
            MbMutant::None,
            MbWorkload::SliceRace,
        ),
        (
            "mailboat/mutant/net-no-dedup",
            "courier without request dedup (duplicate delivery)",
            MbMutant::NetNoDedup,
            MbWorkload::NetDeliver,
        ),
    ] {
        set.add(
            name,
            desc,
            MbHarness {
                mutant,
                workload,
                ..MbHarness::default()
            },
        );
    }
    set
}

impl Harness<MailSpec> for MbHarness {
    type Sys = VerifiedMailboat;

    fn spec(&self) -> MailSpec {
        MailSpec { users: self.users }
    }

    fn make(&self, w: &World<MailSpec>) -> Script<VerifiedMailboat, MailSpec> {
        let dirs = mail_dirs(self.users);
        let dir_refs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        let fs = ModelFs::new(Arc::clone(&w.rt), &dir_refs);
        let mut script = Script::new(VerifiedMailboat::new(w, fs, self.users, self.mutant));
        match self.workload {
            MbWorkload::SingleDeliver => {
                script.thread("deliver", |sys, w| sys.deliver(w, 0, "alpha-msg"));
            }
            MbWorkload::DeliverVsPickup => {
                script.thread("deliver", |sys, w| sys.deliver(w, 0, "alpha"));
                script.thread("pickup", |sys, w| {
                    let msgs = sys.pickup(w, 0);
                    for (id, contents) in &msgs {
                        // Only complete messages are ever observable.
                        assert_eq!(contents, "alpha", "partial message read");
                        sys.delete(w, 0, id);
                    }
                    sys.unlock(w, 0);
                });
            }
            MbWorkload::TwoDelivers => {
                for (name, msg) in [("deliver-a", "alpha"), ("deliver-b", "bravo")] {
                    script.thread(name, move |sys, w| sys.deliver(w, 0, msg));
                }
            }
            MbWorkload::TwoUsers => {
                script.thread("deliver-u0", |sys, w| sys.deliver(w, 0, "for-zero"));
                script.thread("deliver-u1", |sys, w| sys.deliver(w, 1, "for-one"));
                script.thread("pickup-u0", |sys, w| {
                    let _ = sys.pickup(w, 0);
                    sys.unlock(w, 0);
                });
            }
            MbWorkload::NetDeliver => {
                script.thread("net-client", |sys, _| {
                    let net = sys.net();
                    net.send(b"0:net-alpha");
                    net.send(b"1:net-bravo");
                    net.close();
                });
                let dedup = self.mutant != MbMutant::NetNoDedup;
                script.thread("courier", move |sys, w| {
                    let net = sys.net();
                    let mut seen = std::collections::BTreeSet::new();
                    // Bounded poll loop: finite under every schedule (a
                    // starved courier gives up, losing coverage but never
                    // correctness).
                    for _ in 0..64 {
                        match net.recv() {
                            Some(raw) => {
                                let text = String::from_utf8(raw).expect("utf8 request");
                                let (id, msg) = text.split_once(':').expect("framed request");
                                if !dedup || seen.insert(id.to_string()) {
                                    sys.deliver(w, 0, msg);
                                }
                            }
                            None => {
                                if net.finished() {
                                    break;
                                }
                            }
                        }
                    }
                    // At-most-once: whatever the channel did, no request
                    // may have been delivered twice.
                    let msgs = sys.pickup(w, 0);
                    let mut contents: Vec<_> = msgs.iter().map(|(_, c)| c.clone()).collect();
                    contents.sort();
                    contents.dedup();
                    assert_eq!(contents.len(), msgs.len(), "duplicate delivery: {msgs:?}");
                    sys.unlock(w, 0);
                });
            }
            MbWorkload::SliceRace => {
                let msg = "abcdefgh";
                let slice = script.sys.heap().new_byte_slice(msg.as_bytes());
                script.thread("deliver-slice", move |sys, w| {
                    sys.deliver_slice(w, 0, slice, msg)
                });
                script.thread("slice-mutator", move |sys, _| {
                    sys.heap().slice_write(slice, 0, b"ZZ");
                });
            }
        }
        if self.after_round {
            script.after("post-crash", |sys, w| {
                // Everything delivered before the crash must be readable
                // (the pickup's ghost machinery checks the values).
                let msgs = sys.pickup(w, 0);
                for (id, _) in &msgs {
                    sys.delete(w, 0, id);
                }
                sys.unlock(w, 0);
                // And the system still works.
                sys.deliver(w, 0, "post-crash-msg");
                let msgs = sys.pickup(w, 0);
                assert!(msgs.iter().any(|(_, c)| c == "post-crash-msg"));
                sys.unlock(w, 0);
            });
        }
        script
    }

    fn name(&self) -> &str {
        "mailboat"
    }

    fn fault_surface(&self) -> FaultSurface {
        FaultSurface {
            net: self.workload == MbWorkload::NetDeliver,
            ..FaultSurface::none()
        }
    }
}
