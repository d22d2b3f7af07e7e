//! The Mailboat specification (§8.1): a set of user mailboxes, each a
//! mapping from message IDs to contents.
//!
//! `Deliver` is invoked without an ID (the implementation picks a fresh
//! one by retrying random names, §8.2) and therefore *commits* as the
//! refined [`MailOp::DeliverAs`] carrying the chosen ID —
//! [`perennial_spec::SpecTS::op_refines`] accepts exactly that
//! refinement. `Delete` of an ID not in the mailbox is undefined
//! behaviour: the library assumes callers only delete messages returned
//! by `Pickup` (§8.1, §9.2). The crash transition is `ret tt`: delivered
//! mail survives crashes (spool cleanup is invisible at this level).

use perennial_spec::{ReplayError, SpecTS, Step, Transition};
use std::collections::BTreeMap;

/// Abstract state: user ID → (message ID → contents).
pub type MailState = BTreeMap<u64, BTreeMap<String, String>>;

/// Mailboat operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MailOp {
    /// `Deliver(user, msg)` as invoked (ID not yet chosen).
    Deliver(u64, String),
    /// `Deliver` as committed, carrying the implementation-chosen ID.
    DeliverAs(u64, String, String),
    /// `Pickup(user)`: list the complete mailbox (and implicitly take
    /// the user lock).
    Pickup(u64),
    /// `Delete(user, id)`: remove a previously picked-up message.
    Delete(u64, String),
    /// `Unlock(user)`: release the user lock.
    Unlock(u64),
}

/// Mailboat return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MailRet {
    /// Acknowledgement for `Deliver`/`Delete`/`Unlock`.
    Unit,
    /// `Pickup`'s message list, sorted by ID.
    Msgs(Vec<(String, String)>),
}

perennial_spec::encode! {
    enum MailOp { Deliver(u, body), DeliverAs(u, id, body), Pickup(u), Delete(u, id), Unlock(u) }
}
perennial_spec::encode! {
    enum MailRet { Unit, Msgs(msgs) }
}

/// The Mailboat spec for a fixed set of `users`.
#[derive(Debug, Clone)]
pub struct MailSpec {
    /// Number of user mailboxes.
    pub users: u64,
}

impl SpecTS for MailSpec {
    type State = MailState;
    type Op = MailOp;
    type Ret = MailRet;

    fn init(&self) -> MailState {
        (0..self.users).map(|u| (u, BTreeMap::new())).collect()
    }

    fn op_transition(&self, op: &MailOp) -> Transition<MailState, MailRet> {
        match op.clone() {
            // The un-refined Deliver cannot commit: the implementation
            // must resolve the ID first.
            MailOp::Deliver(..) => Transition::blocked().boxed(),
            MailOp::DeliverAs(user, msg, id) => Transition::gets(move |s: &MailState| {
                (s.get(&user).map(|mbox| mbox.contains_key(&id)), id)
            })
            .and_then(move |(present, id)| match present {
                None => Err(ReplayError::Undefined), // unknown user
                // The implementation only commits after winning the
                // exclusive link, so a clash is a disabled transition,
                // not UB.
                Some(true) => Err(ReplayError::Blocked),
                Some(false) => Ok(Transition::modify(move |s: &mut MailState| {
                    let mbox = s.get_mut(&user).expect("user checked above");
                    mbox.insert(id, msg);
                })),
            })
            .map(|()| MailRet::Unit)
            .boxed(),
            MailOp::Pickup(user) => Transition::gets(move |s: &MailState| {
                s.get(&user).map(|mbox| {
                    mbox.iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect::<Vec<_>>()
                })
            })
            .and_then(|mv| {
                mv.map(|msgs| Transition::ret(MailRet::Msgs(msgs)))
                    .ok_or(ReplayError::Undefined)
            })
            .boxed(),
            MailOp::Delete(user, id) => Transition::gets(move |s: &MailState| {
                (s.get(&user).map(|mbox| mbox.contains_key(&id)), id)
            })
            .and_then(move |(present, id)| match present {
                // Deleting an unlisted message is caller UB.
                None | Some(false) => Err(ReplayError::Undefined),
                Some(true) => Ok(Transition::modify(move |s: &mut MailState| {
                    s.get_mut(&user).expect("user present").remove(&id);
                })),
            })
            .map(|()| MailRet::Unit)
            .boxed(),
            MailOp::Unlock(user) => Transition::gets(move |s: &MailState| s.contains_key(&user))
                .and_then(|ok| {
                    ok.then_some(Transition::ret(MailRet::Unit))
                        .ok_or(ReplayError::Undefined)
                })
                .boxed(),
        }
    }

    fn crash_transition(&self) -> Transition<MailState, ()> {
        Transition::skip().boxed()
    }

    fn op_refines(&self, invoked: &MailOp, committed: &MailOp) -> bool {
        match (invoked, committed) {
            (MailOp::Deliver(u1, m1), MailOp::DeliverAs(u2, m2, _id)) => u1 == u2 && m1 == m2,
            _ => invoked == committed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perennial_spec::system::{ReplayError, SeqReplay};

    #[test]
    fn deliver_pickup_delete_cycle() {
        let mut r = SeqReplay::new(MailSpec { users: 2 });
        r.step_op(&MailOp::DeliverAs(0, "hello".into(), "m1".into()))
            .unwrap();
        assert_eq!(
            r.step_op(&MailOp::Pickup(0)).unwrap(),
            MailRet::Msgs(vec![("m1".into(), "hello".into())])
        );
        r.step_op(&MailOp::Delete(0, "m1".into())).unwrap();
        r.step_op(&MailOp::Unlock(0)).unwrap();
        assert_eq!(
            r.step_op(&MailOp::Pickup(0)).unwrap(),
            MailRet::Msgs(vec![])
        );
    }

    #[test]
    fn deliver_unrefined_cannot_commit() {
        let mut r = SeqReplay::new(MailSpec { users: 1 });
        assert_eq!(
            r.step_op(&MailOp::Deliver(0, "x".into())),
            Err(ReplayError::Blocked)
        );
    }

    #[test]
    fn deliver_id_clash_is_blocked() {
        let mut r = SeqReplay::new(MailSpec { users: 1 });
        r.step_op(&MailOp::DeliverAs(0, "a".into(), "m".into()))
            .unwrap();
        assert_eq!(
            r.step_op(&MailOp::DeliverAs(0, "b".into(), "m".into())),
            Err(ReplayError::Blocked)
        );
    }

    #[test]
    fn delete_unlisted_is_undefined() {
        let mut r = SeqReplay::new(MailSpec { users: 1 });
        assert_eq!(
            r.step_op(&MailOp::Delete(0, "ghost".into())),
            Err(ReplayError::Undefined)
        );
    }

    #[test]
    fn unknown_user_is_undefined() {
        let mut r = SeqReplay::new(MailSpec { users: 1 });
        assert_eq!(r.step_op(&MailOp::Pickup(9)), Err(ReplayError::Undefined));
    }

    #[test]
    fn refinement_relation() {
        let spec = MailSpec { users: 1 };
        let inv = MailOp::Deliver(0, "m".into());
        assert!(spec.op_refines(&inv, &MailOp::DeliverAs(0, "m".into(), "id7".into())));
        assert!(!spec.op_refines(&inv, &MailOp::DeliverAs(1, "m".into(), "id7".into())));
        assert!(!spec.op_refines(&inv, &MailOp::DeliverAs(0, "other".into(), "id7".into())));
        assert!(spec.op_refines(&MailOp::Pickup(0), &MailOp::Pickup(0)));
        assert!(!spec.op_refines(&MailOp::Pickup(0), &MailOp::Unlock(0)));
    }

    #[test]
    fn crash_preserves_delivered_mail() {
        let mut r = SeqReplay::new(MailSpec { users: 1 });
        r.step_op(&MailOp::DeliverAs(0, "keep".into(), "m1".into()))
            .unwrap();
        r.step_crash().unwrap();
        assert_eq!(
            r.step_op(&MailOp::Pickup(0)).unwrap(),
            MailRet::Msgs(vec![("m1".into(), "keep".into())])
        );
    }
}
