//! Model network: an in-memory message channel scheduled by the model
//! runtime, with plan-driven unreliability.
//!
//! The channel is asynchronous and unordered-under-faults: a send
//! normally appends to the in-flight queue, but the execution's
//! [`FaultPlan`](crate::fault::FaultPlan) may **drop** the message,
//! **duplicate** it, or **delay** it past the next send. Receivers poll
//! non-blockingly (`recv`) so workloads stay finite under every schedule
//! the checker enumerates — a blocked receiver is modelled as a bounded
//! poll loop with yield points, not a busy-wait.
//!
//! Crash semantics: in-flight messages are volatile, like process memory
//! — [`ModelNet::crash`] clears the queue.

use crate::fault::NetFault;
use crate::sched::{res, ModelRt};
use parking_lot::owner::OwnerCell;
use std::collections::VecDeque;
use std::sync::Arc;

struct NetState {
    queue: VecDeque<Vec<u8>>,
    /// A message held back by a [`NetFault::Delay`]; it re-enters the
    /// queue after the next send (or is drained once the queue empties).
    delayed: Option<Vec<u8>>,
    closed: bool,
}

/// One unreliable model channel.
pub struct ModelNet {
    rt: Arc<ModelRt>,
    state: OwnerCell<NetState>,
    /// Dependency-tracking resource id: the whole channel is one
    /// resource (queue order makes all sends/recvs conflict anyway).
    tag: u64,
}

impl ModelNet {
    /// Creates an open channel on the given runtime.
    pub fn new(rt: Arc<ModelRt>) -> Arc<Self> {
        let tag = rt.alloc_resource_tag();
        Arc::new(ModelNet {
            rt,
            state: OwnerCell::new(NetState {
                queue: VecDeque::new(),
                delayed: None,
                closed: false,
            }),
            tag,
        })
    }

    /// Sends a message (one scheduler step). The fault plan decides
    /// whether it arrives once, twice, later, or never.
    pub fn send(&self, msg: &[u8]) {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), true);
        self.rt.note_net_send(self.tag, msg.len() as u64);
        let fault = self.rt.next_net_fault();
        let mut s = self.state.lock();
        match fault {
            Some(NetFault::Drop) => {}
            Some(NetFault::Duplicate) => {
                s.queue.push_back(msg.to_vec());
                s.queue.push_back(msg.to_vec());
            }
            Some(NetFault::Delay) => {
                // Hold this message back; flush any previously delayed
                // one first so at most one message is ever in the slot.
                if let Some(prev) = s.delayed.take() {
                    s.queue.push_back(prev);
                }
                s.delayed = Some(msg.to_vec());
            }
            None => {
                s.queue.push_back(msg.to_vec());
                if let Some(prev) = s.delayed.take() {
                    s.queue.push_back(prev);
                }
            }
        }
    }

    /// Non-blocking receive (one scheduler step): the next in-flight
    /// message, if any. A delayed message is only released once the main
    /// queue has drained past it.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), true);
        let msg = {
            let mut s = self.state.lock();
            match s.queue.pop_front() {
                Some(m) => Some(m),
                None => s.delayed.take(),
            }
        };
        if let Some(m) = &msg {
            self.rt.note_net_recv(self.tag, m.len() as u64);
        }
        msg
    }

    /// Marks the sender side finished; receivers can stop polling once
    /// the channel is closed and drained.
    pub fn close(&self) {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), true);
        self.state.lock().closed = true;
    }

    /// Whether the channel is closed *and* fully drained.
    pub fn finished(&self) -> bool {
        // No yield point of its own, but it reads shared state within
        // the caller's current grant window.
        self.rt.note_access(res::instance(self.tag), false);
        let s = self.state.lock();
        s.closed && s.queue.is_empty() && s.delayed.is_none()
    }

    /// Crash: in-flight messages are volatile and lost.
    pub fn crash(&self) {
        let mut s = self.state.lock();
        s.queue.clear();
        s.delayed = None;
        s.closed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn net_with(plan: FaultPlan) -> Arc<ModelNet> {
        // Controller-context sends/recvs (no virtual thread) skip the
        // yield, which keeps these unit tests schedule-free.
        ModelNet::new(ModelRt::with_faults(0, 10_000, plan))
    }

    #[test]
    fn fifo_without_faults() {
        let net = net_with(FaultPlan::default());
        net.send(b"a");
        net.send(b"b");
        assert_eq!(net.recv(), Some(b"a".to_vec()));
        assert_eq!(net.recv(), Some(b"b".to_vec()));
        assert_eq!(net.recv(), None);
        net.close();
        assert!(net.finished());
    }

    #[test]
    fn drop_loses_exactly_the_planned_message() {
        let mut plan = FaultPlan::default();
        plan.net.insert(0, NetFault::Drop);
        let net = net_with(plan);
        net.send(b"lost");
        net.send(b"kept");
        assert_eq!(net.recv(), Some(b"kept".to_vec()));
        assert_eq!(net.recv(), None);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut plan = FaultPlan::default();
        plan.net.insert(1, NetFault::Duplicate);
        let net = net_with(plan);
        net.send(b"a");
        net.send(b"b");
        assert_eq!(net.recv(), Some(b"a".to_vec()));
        assert_eq!(net.recv(), Some(b"b".to_vec()));
        assert_eq!(net.recv(), Some(b"b".to_vec()));
        assert_eq!(net.recv(), None);
    }

    #[test]
    fn delay_reorders_past_the_next_send() {
        let mut plan = FaultPlan::default();
        plan.net.insert(0, NetFault::Delay);
        let net = net_with(plan);
        net.send(b"late");
        net.send(b"early");
        assert_eq!(net.recv(), Some(b"early".to_vec()));
        assert_eq!(net.recv(), Some(b"late".to_vec()));
        assert_eq!(net.recv(), None);
    }

    #[test]
    fn crash_clears_in_flight_messages() {
        let net = net_with(FaultPlan::default());
        net.send(b"a");
        net.crash();
        assert_eq!(net.recv(), None);
    }
}
