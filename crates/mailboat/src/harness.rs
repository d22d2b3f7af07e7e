//! Checker harness for Mailboat: its programs (deliveries, pickups, the
//! network courier and the §8.3 slice race), its scenarios and mutants.

use crate::proof::{MbMutant, VerifiedMailboat};
use crate::server::mail_dirs;
use crate::spec::MailSpec;
use goose_rt::fault::FaultSurface;
use goose_rt::fs::ModelFs;
use perennial_checker::{Harness, Program, ScenarioSet, Script, World};
use std::sync::Arc;
use MbStep::{
    Courier, Deliver, DeliverSlice, Drain, MutateSlice, NetClose, NetSend, Pickup, Unlock,
};

/// Number of users.
const USERS: u64 = 2;
/// What the slice-race program's slice holds.
const SLICE_MSG: &str = "abcdefgh";

/// One step of a Mailboat program: the spec's operations, plus the
/// workload code some programs run between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbStep {
    /// `deliver(user, msg)`.
    Deliver(u64, &'static str),
    /// `pickup(user)`, which takes the user lock.
    Pickup(u64),
    /// `unlock(user)`.
    Unlock(u64),
    /// `pickup(user)`, `delete` of each message picked up, `unlock(user)`.
    Drain(u64),
    /// Sends a `"<request id>:<message>"` request over the model network.
    NetSend(&'static str),
    /// Closes the network's sending end.
    NetClose,
    /// Delivers each request received from the network to user 0,
    /// deduplicating by request id (not under [`MbMutant::NetNoDedup`]),
    /// then asserts at-most-once delivery: the dedup is workload code,
    /// so the ghost engine does not check it.
    Courier,
    /// `deliver_slice(user, ..)` of the slice-race program's heap slice.
    DeliverSlice(u64),
    /// Overwrites the start of that slice, racing a `DeliverSlice`.
    MutateSlice,
}

/// Every program's post-recovery round: everything delivered before the
/// crash is readable, and the system still works.
const AFTER: &[MbStep] = &[Drain(0), Deliver(0, "post-crash-msg"), Pickup(0), Unlock(0)];

/// One delivery (smallest crash-sweep scenario).
pub static SINGLE_DELIVER: Program<MbStep> = Program {
    threads: &[("deliver", &[Deliver(0, "alpha-msg")])],
    after: AFTER,
};

/// A delivery racing a pickup(+delete+unlock) on the same user.
pub static DELIVER_VS_PICKUP: Program<MbStep> = Program {
    threads: &[("deliver", &[Deliver(0, "alpha")]), ("pickup", &[Drain(0)])],
    after: AFTER,
};

/// Two deliveries racing on the same user.
pub static TWO_DELIVERS: Program<MbStep> = Program {
    threads: &[
        ("deliver-a", &[Deliver(0, "alpha")]),
        ("deliver-b", &[Deliver(0, "bravo")]),
    ],
    after: AFTER,
};

/// Deliveries to two users racing a pickup.
pub static TWO_USERS: Program<MbStep> = Program {
    threads: &[
        ("deliver-u0", &[Deliver(0, "for-zero")]),
        ("deliver-u1", &[Deliver(1, "for-one")]),
        ("pickup-u0", &[Pickup(0), Unlock(0)]),
    ],
    after: AFTER,
};

/// §8.3: a delivery reading from a heap slice while another thread
/// mutates that slice — must be flagged as undefined behaviour.
pub static SLICE_RACE: Program<MbStep> = Program {
    threads: &[
        ("deliver-slice", &[DeliverSlice(0)]),
        ("slice-mutator", &[MutateSlice]),
    ],
    after: AFTER,
};

/// A client submits deliveries over the unreliable model channel and a
/// courier performs them (the net-fault sweep drops, duplicates or
/// delays each message).
pub static NET_DELIVER: Program<MbStep> = Program {
    threads: &[
        (
            "net-client",
            &[NetSend("0:net-alpha"), NetSend("1:net-bravo"), NetClose],
        ),
        ("courier", &[Courier]),
    ],
    after: AFTER,
};

/// Mailboat harness: a mutant and the program it runs.
pub struct MbHarness {
    /// Which mutant ([`MbMutant::None`] = correct system).
    pub mutant: MbMutant,
    /// The workload.
    pub program: &'static Program<MbStep>,
}

/// The crate's expected-pass scenarios (correct system, every program
/// except the §8.3 slice race, which is expected to fail), under the
/// registry names `"mailboat/..."`.
pub fn scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, program) in [
        (
            "mailboat/single-deliver",
            "one delivery (smallest crash sweep)",
            &SINGLE_DELIVER,
        ),
        (
            "mailboat/deliver-vs-pickup",
            "delivery racing a pickup+delete",
            &DELIVER_VS_PICKUP,
        ),
        (
            "mailboat/two-delivers",
            "two deliveries racing on one user",
            &TWO_DELIVERS,
        ),
        (
            "mailboat/two-users",
            "deliveries to two users racing a pickup",
            &TWO_USERS,
        ),
        (
            "mailboat/net-deliver",
            "courier delivering requests from an unreliable channel",
            &NET_DELIVER,
        ),
    ] {
        let mutant = MbMutant::None;
        set.add(name, desc, MbHarness { mutant, program });
    }
    set
}

/// The crate's expected-fail scenarios: mutants the checker must catch,
/// plus the §8.3 slice race (a correct-system program whose data race
/// must be flagged as UB). Registry names `"mailboat/mutant/..."`.
pub fn mutant_scenarios() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    for (name, desc, mutant, program) in [
        (
            "mailboat/mutant/no-spool",
            "deliver without spool",
            MbMutant::NoSpool,
            &DELIVER_VS_PICKUP,
        ),
        (
            "mailboat/mutant/commit-at-spool",
            "commit at spool write",
            MbMutant::CommitAtSpool,
            &SINGLE_DELIVER,
        ),
        (
            "mailboat/mutant/skip-recovery-cleanup",
            "recovery skips spool cleanup",
            MbMutant::SkipRecoveryCleanup,
            &SINGLE_DELIVER,
        ),
        (
            "mailboat/mutant/delete-without-lock",
            "delete without pickup lock",
            MbMutant::DeleteWithoutLock,
            &DELIVER_VS_PICKUP,
        ),
        (
            "mailboat/mutant/slice-race",
            "§8.3 heap slice race (must be flagged as UB)",
            MbMutant::None,
            &SLICE_RACE,
        ),
        (
            "mailboat/mutant/net-no-dedup",
            "courier without request dedup (duplicate delivery)",
            MbMutant::NetNoDedup,
            &NET_DELIVER,
        ),
    ] {
        set.add(name, desc, MbHarness { mutant, program });
    }
    set
}

/// Takes one step of a Mailboat program. Every return of an operation
/// is checked by the ghost engine against σ; only the courier's dedup is
/// asserted here.
pub fn step(sys: &VerifiedMailboat, w: &World<MailSpec>, s: &MbStep) {
    match *s {
        Deliver(user, msg) => sys.deliver(w, user, msg),
        Pickup(user) => _ = sys.pickup(w, user),
        Unlock(user) => sys.unlock(w, user),
        Drain(user) => {
            for (id, _) in &sys.pickup(w, user) {
                sys.delete(w, user, id);
            }
            sys.unlock(w, user);
        }
        NetSend(request) => sys.net().send(request.as_bytes()),
        NetClose => sys.net().close(),
        Courier => courier(sys, w),
        DeliverSlice(user) => sys.deliver_slice(w, user, sys.slice(), SLICE_MSG),
        MutateSlice => sys.heap().slice_write(sys.slice(), 0, b"ZZ"),
    }
}

/// The [`Courier`] step.
fn courier(sys: &VerifiedMailboat, w: &World<MailSpec>) {
    let net = sys.net();
    let dedup = sys.mutant() != MbMutant::NetNoDedup;
    let mut seen = std::collections::BTreeSet::new();
    // Bounded poll loop: finite under every schedule (a starved courier
    // gives up, losing coverage but never correctness).
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
    // At-most-once: whatever the channel did, no request may have been
    // delivered twice.
    let msgs = sys.pickup(w, 0);
    let mut contents: Vec<_> = msgs.iter().map(|(_, c)| c.clone()).collect();
    contents.sort();
    contents.dedup();
    assert_eq!(contents.len(), msgs.len(), "duplicate delivery: {msgs:?}");
    sys.unlock(w, 0);
}

impl Harness<MailSpec> for MbHarness {
    type Sys = VerifiedMailboat;

    fn spec(&self) -> MailSpec {
        MailSpec { users: USERS }
    }

    fn make(&self, w: &World<MailSpec>) -> Script<VerifiedMailboat, MailSpec> {
        let dirs = mail_dirs(USERS);
        let dir_refs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        let fs = ModelFs::new(Arc::clone(&w.rt), &dir_refs);
        let mut sys = VerifiedMailboat::new(w, fs, USERS, self.mutant);
        if self.program.any(|s| *s == MutateSlice) {
            sys = sys.with_slice(SLICE_MSG);
        }
        let mut script = Script::new(sys);
        script.program(self.program, step);
        script
    }

    fn name(&self) -> &str {
        "mailboat"
    }

    fn fault_surface(&self) -> FaultSurface {
        FaultSurface {
            net: self
                .program
                .any(|s| matches!(s, NetSend(_) | NetClose | Courier)),
            ..FaultSurface::none()
        }
    }
}
