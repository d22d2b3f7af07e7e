//! The Go heap model: pointers, slices, and maps with
//! racy-access-is-undefined-behaviour detection (§6.1).
//!
//! The Go memory model requires serialized access to shared data; Goose
//! makes a racy access *undefined behaviour* so that verified code must
//! prove race freedom. The paper models a store as **two** atomic
//! operations — a start and an end — and declares overlap with any other
//! access to the same object UB. This module implements exactly that: in
//! model mode a [`Heap::store`]/[`Heap::slice_write`] performs a
//! `write_start` step, yields to the scheduler, then a `write_end` step;
//! any read or write of the same object scheduled in between aborts the
//! execution with a [`UbSignal`].
//!
//! Map iteration uses a variant of the same idea: mutating a map while an
//! iteration is in progress is UB (iterator invalidation).
//!
//! Objects are tracked at object granularity (one busy flag per heap
//! object), which is conservative but matches the paper's "unordered
//! accesses to the same object".

use crate::sched::{res, ModelRt, Tid, UbSignal};
use parking_lot::owner::OwnerCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A heap value: the subset of Go values our systems need.
#[derive(Debug, Clone, PartialEq)]
pub enum HVal {
    /// `uint64`
    U64(u64),
    /// `bool`
    Bool(bool),
    /// `string`
    Str(String),
    /// `[]byte` backing array
    Bytes(Vec<u8>),
    /// array of values (slice backing store)
    Arr(Vec<HVal>),
    /// `map[string]HVal`
    Map(BTreeMap<String, HVal>),
}

impl HVal {
    /// Unwraps a `U64`, panicking on type confusion (a test-code bug, not
    /// a modelled fault).
    pub fn as_u64(&self) -> u64 {
        match self {
            HVal::U64(v) => *v,
            other => panic!("heap type confusion: expected U64, got {other:?}"),
        }
    }

    /// Unwraps `Bytes`.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            HVal::Bytes(b) => b,
            other => panic!("heap type confusion: expected Bytes, got {other:?}"),
        }
    }

    /// Unwraps `Str`.
    pub fn as_str(&self) -> &str {
        match self {
            HVal::Str(s) => s,
            other => panic!("heap type confusion: expected Str, got {other:?}"),
        }
    }
}

/// A pointer into the model heap. `Copy`: pointers are values; the
/// *permission* story is the ghost layer's job, while the heap's job is
/// race detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ptr(u64);

/// A Go slice: pointer to a backing array plus offset and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Backing array object.
    pub ptr: Ptr,
    /// Start offset into the backing array.
    pub off: u64,
    /// Length.
    pub len: u64,
}

struct HeapObj {
    val: HVal,
    /// Some(tid) while a two-phase write is in flight.
    busy_writer: Option<Tid>,
    /// Number of in-progress map iterations.
    active_iters: u64,
}

struct HeapState {
    objs: BTreeMap<u64, HeapObj>,
    next: u64,
}

/// The model heap. Cleared wholesale by a crash (all in-memory state is
/// lost, §6.2's crash model).
pub struct Heap {
    rt: Arc<ModelRt>,
    state: OwnerCell<HeapState>,
}

fn ub(msg: String) -> ! {
    std::panic::panic_any(UbSignal(msg))
}

impl Heap {
    /// Creates a heap bound to a model runtime (for step points).
    pub fn new(rt: Arc<ModelRt>) -> Arc<Self> {
        Arc::new(Heap {
            rt,
            state: OwnerCell::new(HeapState {
                objs: BTreeMap::new(),
                next: 1,
            }),
        })
    }

    fn cur_tid() -> Tid {
        ModelRt::current_tid().unwrap_or(usize::MAX)
    }

    /// Allocates a new object; one atomic step.
    pub fn alloc(&self, val: HVal) -> Ptr {
        self.rt.yield_point();
        // Allocation order determines the pointer id, so concurrent
        // allocations never commute.
        self.rt.note_access(res::ALLOC, true);
        let mut s = self.state.lock();
        let id = s.next;
        s.next += 1;
        s.objs.insert(
            id,
            HeapObj {
                val,
                busy_writer: None,
                active_iters: 0,
            },
        );
        Ptr(id)
    }

    fn with_obj<R>(&self, p: Ptr, access: &str, f: impl FnOnce(&mut HeapObj) -> R) -> R {
        self.rt.note_access(res::heap_obj(p.0), false);
        let mut s = self.state.lock();
        let tid = Self::cur_tid();
        match s.objs.get_mut(&p.0) {
            Some(obj) => {
                if let Some(w) = obj.busy_writer {
                    if w != tid {
                        ub(format!(
                            "racy {access} of object {} overlapping a write by thread {w}",
                            p.0
                        ));
                    }
                }
                f(obj)
            }
            None => ub(format!("{access} of dangling pointer {}", p.0)),
        }
    }

    /// Atomic load; one step. UB if it overlaps an in-flight write.
    pub fn load(&self, p: Ptr) -> HVal {
        self.rt.yield_point();
        self.with_obj(p, "read", |o| o.val.clone())
    }

    /// A store, modelled as two atomic operations (write start / write
    /// end) with a schedule point in between — the paper's representation
    /// that makes racy access detectable.
    pub fn store(&self, p: Ptr, val: HVal) {
        self.write_start(p);
        self.rt.yield_point();
        self.write_end(p, val);
    }

    fn write_start(&self, p: Ptr) {
        self.rt.yield_point();
        self.rt.note_access(res::heap_obj(p.0), true);
        let mut s = self.state.lock();
        let tid = Self::cur_tid();
        match s.objs.get_mut(&p.0) {
            Some(obj) => {
                if obj.busy_writer.is_some() {
                    ub(format!("racy write-write overlap on object {}", p.0));
                }
                if obj.active_iters > 0 {
                    ub(format!("write to object {} during active iteration", p.0));
                }
                obj.busy_writer = Some(tid);
            }
            None => ub(format!("write to dangling pointer {}", p.0)),
        }
    }

    fn write_end(&self, p: Ptr, val: HVal) {
        self.rt.note_access(res::heap_obj(p.0), true);
        let mut s = self.state.lock();
        let tid = Self::cur_tid();
        match s.objs.get_mut(&p.0) {
            Some(obj) => {
                assert_eq!(
                    obj.busy_writer,
                    Some(tid),
                    "write_end without matching write_start"
                );
                obj.val = val;
                obj.busy_writer = None;
            }
            None => ub(format!("write_end on dangling pointer {}", p.0)),
        }
    }

    // ------------------------------------------------------------------
    // Slices.
    // ------------------------------------------------------------------

    /// Allocates a byte slice with the given contents.
    pub fn new_byte_slice(&self, data: &[u8]) -> Slice {
        let ptr = self.alloc(HVal::Bytes(data.to_vec()));
        Slice {
            ptr,
            off: 0,
            len: data.len() as u64,
        }
    }

    /// Reads `len` bytes of a byte slice starting at `off` (relative to
    /// the slice); one atomic step. UB on racy overlap.
    pub fn slice_read(&self, s: Slice, off: u64, len: u64) -> Vec<u8> {
        self.rt.yield_point();
        self.with_obj(s.ptr, "read", |o| match &o.val {
            HVal::Bytes(b) => {
                let start = (s.off + off) as usize;
                let end = (s.off + off + len).min(s.off + s.len) as usize;
                if start > b.len() || end > b.len() {
                    ub(format!(
                        "slice read out of bounds: [{start}, {end}) of {}",
                        b.len()
                    ));
                }
                b[start..end.max(start)].to_vec()
            }
            other => panic!("heap type confusion: slice over {other:?}"),
        })
    }

    /// Overwrites slice contents (two-phase write; UB on racy overlap).
    pub fn slice_write(&self, s: Slice, off: u64, data: &[u8]) {
        self.write_start(s.ptr);
        self.rt.yield_point();
        self.rt.note_access(res::heap_obj(s.ptr.0), true);
        let mut st = self.state.lock();
        let tid = Self::cur_tid();
        let obj = st.objs.get_mut(&s.ptr.0).expect("slice backing vanished");
        assert_eq!(obj.busy_writer, Some(tid));
        match &mut obj.val {
            HVal::Bytes(b) => {
                let start = (s.off + off) as usize;
                let end = start + data.len();
                if end > b.len() || end > (s.off + s.len) as usize {
                    obj.busy_writer = None;
                    ub(format!("slice write out of bounds: [{start}, {end})"));
                }
                b[start..end].copy_from_slice(data);
            }
            other => panic!("heap type confusion: slice over {other:?}"),
        }
        obj.busy_writer = None;
    }

    /// Slice length (no step: lengths are immutable in our model).
    pub fn slice_len(&self, s: Slice) -> u64 {
        s.len
    }

    /// Sub-slice (`s[from:to]`), sharing the backing array like Go.
    pub fn sub_slice(&self, s: Slice, from: u64, to: u64) -> Slice {
        assert!(from <= to && to <= s.len, "sub_slice bounds");
        Slice {
            ptr: s.ptr,
            off: s.off + from,
            len: to - from,
        }
    }

    /// Go's `append(s, data...)`: extends the slice, reallocating a new
    /// backing array when the view does not end at the array's end —
    /// exactly Go's aliasing semantics, where appending to a sub-slice
    /// that reaches the backing array's end mutates in place while any
    /// other append copies. Two-phase write on the array it mutates.
    pub fn slice_append(&self, s: Slice, data: &[u8]) -> Slice {
        // Inspect the backing array length (one atomic read step).
        let backing_len = {
            self.rt.yield_point();
            self.with_obj(s.ptr, "read", |o| match &o.val {
                HVal::Bytes(b) => b.len() as u64,
                other => panic!("heap type confusion: slice over {other:?}"),
            })
        };
        if s.off + s.len == backing_len {
            // In place: extend the existing array under a write window.
            self.write_start(s.ptr);
            self.rt.yield_point();
            self.rt.note_access(res::heap_obj(s.ptr.0), true);
            let mut st = self.state.lock();
            let tid = Self::cur_tid();
            let obj = st.objs.get_mut(&s.ptr.0).expect("slice backing vanished");
            assert_eq!(obj.busy_writer, Some(tid));
            match &mut obj.val {
                HVal::Bytes(b) => b.extend_from_slice(data),
                other => panic!("heap type confusion: slice over {other:?}"),
            }
            obj.busy_writer = None;
            Slice {
                ptr: s.ptr,
                off: s.off,
                len: s.len + data.len() as u64,
            }
        } else {
            // Reallocate: copy the view plus the new bytes into a fresh
            // array (the old backing is untouched — Go's copy-on-append).
            let mut bytes = self.slice_read(s, 0, s.len);
            bytes.extend_from_slice(data);
            self.new_byte_slice(&bytes)
        }
    }

    // ------------------------------------------------------------------
    // Maps (with iterator-invalidation UB).
    // ------------------------------------------------------------------

    /// Allocates an empty `map[string]HVal`.
    pub fn new_map(&self) -> Ptr {
        self.alloc(HVal::Map(BTreeMap::new()))
    }

    /// Inserts into a map; UB during active iteration or racy overlap.
    pub fn map_insert(&self, p: Ptr, key: &str, val: HVal) {
        self.write_start(p);
        self.rt.yield_point();
        self.rt.note_access(res::heap_obj(p.0), true);
        let mut s = self.state.lock();
        let obj = s.objs.get_mut(&p.0).expect("map vanished");
        match &mut obj.val {
            HVal::Map(m) => {
                m.insert(key.to_string(), val);
            }
            other => panic!("heap type confusion: map over {other:?}"),
        }
        obj.busy_writer = None;
    }

    /// Looks up a map key; one step.
    pub fn map_get(&self, p: Ptr, key: &str) -> Option<HVal> {
        self.rt.yield_point();
        self.with_obj(p, "read", |o| match &o.val {
            HVal::Map(m) => m.get(key).cloned(),
            other => panic!("heap type confusion: map over {other:?}"),
        })
    }

    /// Deletes a map key; UB during active iteration or racy overlap.
    pub fn map_delete(&self, p: Ptr, key: &str) {
        self.write_start(p);
        self.rt.yield_point();
        self.rt.note_access(res::heap_obj(p.0), true);
        let mut s = self.state.lock();
        let obj = s.objs.get_mut(&p.0).expect("map vanished");
        match &mut obj.val {
            HVal::Map(m) => {
                m.remove(key);
            }
            other => panic!("heap type confusion: map over {other:?}"),
        }
        obj.busy_writer = None;
    }

    /// Iterates a map: `begin_iter` marks iteration active (writes become
    /// UB), yielding between entries; `end_iter` releases. The callback
    /// sees each key in order, with a schedule point before each.
    pub fn map_iter(&self, p: Ptr, mut f: impl FnMut(&str, &HVal)) {
        self.rt.yield_point();
        self.rt.note_access(res::heap_obj(p.0), false);
        let keys: Vec<String> = {
            let mut s = self.state.lock();
            let obj = s.objs.get_mut(&p.0).expect("map vanished");
            if obj.busy_writer.is_some() {
                ub(format!(
                    "map iteration overlapping a write on object {}",
                    p.0
                ));
            }
            obj.active_iters += 1;
            match &obj.val {
                HVal::Map(m) => m.keys().cloned().collect(),
                other => panic!("heap type confusion: map over {other:?}"),
            }
        };
        for k in keys {
            self.rt.yield_point();
            self.rt.note_access(res::heap_obj(p.0), false);
            let s = self.state.lock();
            let obj = s.objs.get(&p.0).expect("map vanished");
            if let HVal::Map(m) = &obj.val {
                if let Some(v) = m.get(&k) {
                    f(&k, v);
                }
            }
        }
        let mut s = self.state.lock();
        let obj = s.objs.get_mut(&p.0).expect("map vanished");
        obj.active_iters -= 1;
    }

    /// Crash: all heap contents are lost (§6.2 crash model).
    pub fn crash(&self) {
        let mut s = self.state.lock();
        s.objs.clear();
    }

    /// Number of live objects (tests and leak checks).
    pub fn live_objects(&self) -> usize {
        self.state.lock().objs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{PanicKind, StepResult};

    fn rr_until_done(rt: &Arc<ModelRt>) -> Vec<(String, PanicKind)> {
        loop {
            let runnable = rt.runnable();
            if runnable.is_empty() {
                break;
            }
            for tid in runnable {
                let _ = rt.grant(tid);
            }
        }
        rt.join_all();
        rt.failures()
    }

    #[test]
    fn load_store_roundtrip() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let h2 = Arc::clone(&heap);
        rt.spawn("t", move || {
            let p = h2.alloc(HVal::U64(1));
            h2.store(p, HVal::U64(2));
            assert_eq!(h2.load(p).as_u64(), 2);
        });
        assert!(rr_until_done(&rt).is_empty());
    }

    #[test]
    fn racy_write_write_is_ub() {
        // Interleave two stores to the same object so one lands between
        // the other's write_start and write_end.
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let p = {
            // Allocate from controller context (no scheduling).
            heap.alloc(HVal::U64(0))
        };
        for name in ["w1", "w2"] {
            let h = Arc::clone(&heap);
            rt.spawn(name, move || {
                h.store(p, HVal::U64(9));
            });
        }
        // Drive w1 into its write window: store = write_start step,
        // yield, write_end. Grant w1 twice: first grant runs up to the
        // yield_point at write_start; second grant performs write_start
        // and parks at the mid-write yield.
        assert_eq!(rt.grant(0), StepResult::Yielded);
        assert_eq!(rt.grant(0), StepResult::Yielded);
        // Now w2 attempts its write_start against a busy object.
        assert_eq!(rt.grant(1), StepResult::Yielded);
        match rt.grant(1) {
            StepResult::Panicked(PanicKind::Ub(msg)) => {
                assert!(msg.contains("racy"), "got: {msg}");
            }
            other => panic!("expected UB, got {other:?}"),
        }
        rt.crash_all();
    }

    #[test]
    fn racy_read_during_write_is_ub() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let p = heap.alloc(HVal::U64(0));
        let hw = Arc::clone(&heap);
        rt.spawn("writer", move || hw.store(p, HVal::U64(1)));
        let hr = Arc::clone(&heap);
        rt.spawn("reader", move || {
            let _ = hr.load(p);
        });
        assert_eq!(rt.grant(0), StepResult::Yielded); // up to write_start
        assert_eq!(rt.grant(0), StepResult::Yielded); // mid-write window
        assert_eq!(rt.grant(1), StepResult::Yielded); // reader reaches its load step
        match rt.grant(1) {
            StepResult::Panicked(PanicKind::Ub(msg)) => {
                assert!(msg.contains("read"), "got: {msg}");
            }
            other => panic!("expected UB, got {other:?}"),
        }
        rt.crash_all();
    }

    #[test]
    fn serialized_access_is_not_ub() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let lock = rt.new_lock();
        let p = heap.alloc(HVal::U64(0));
        for name in ["a", "b"] {
            let h = Arc::clone(&heap);
            let rt2 = Arc::clone(&rt);
            rt.spawn(name, move || {
                rt2.lock_acquire(lock);
                let v = h.load(p).as_u64();
                h.store(p, HVal::U64(v + 1));
                rt2.lock_release(lock);
            });
        }
        assert!(rr_until_done(&rt).is_empty());
        assert_eq!(heap.load(p).as_u64(), 2);
    }

    #[test]
    fn slice_read_write() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let h = Arc::clone(&heap);
        rt.spawn("t", move || {
            let s = h.new_byte_slice(b"hello world");
            assert_eq!(h.slice_read(s, 0, 5), b"hello");
            let sub = h.sub_slice(s, 6, 11);
            assert_eq!(h.slice_read(sub, 0, 5), b"world");
            h.slice_write(sub, 0, b"WORLD");
            assert_eq!(h.slice_read(s, 0, 11), b"hello WORLD");
        });
        assert!(rr_until_done(&rt).is_empty());
    }

    #[test]
    fn map_insert_during_iteration_is_ub() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let m = heap.new_map();
        heap.map_insert(m, "k1", HVal::U64(1));
        heap.map_insert(m, "k2", HVal::U64(2));
        let hi = Arc::clone(&heap);
        rt.spawn("iter", move || {
            hi.map_iter(m, |_, _| {});
        });
        let hw = Arc::clone(&heap);
        rt.spawn("mutator", move || {
            hw.map_insert(m, "k3", HVal::U64(3));
        });
        // Start the iteration (registers active_iters).
        assert_eq!(rt.grant(0), StepResult::Yielded);
        assert_eq!(rt.grant(0), StepResult::Yielded);
        // Mutator now attempts an insert mid-iteration.
        assert_eq!(rt.grant(1), StepResult::Yielded);
        match rt.grant(1) {
            StepResult::Panicked(PanicKind::Ub(msg)) => {
                assert!(msg.contains("iteration"), "got: {msg}");
            }
            other => panic!("expected UB, got {other:?}"),
        }
        rt.crash_all();
    }

    #[test]
    fn crash_clears_heap() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(Arc::clone(&rt));
        let _ = heap.alloc(HVal::U64(1));
        let _ = heap.alloc(HVal::Str("x".into()));
        assert_eq!(heap.live_objects(), 2);
        heap.crash();
        assert_eq!(heap.live_objects(), 0);
    }
}

#[cfg(test)]
mod append_tests {
    use super::*;

    #[test]
    fn append_at_array_end_extends_in_place() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(rt);
        let s = heap.new_byte_slice(b"abc");
        let s2 = heap.slice_append(s, b"de");
        // Same backing array, longer view; the original view still sees
        // its own prefix.
        assert_eq!(s2.ptr, s.ptr);
        assert_eq!(heap.slice_read(s2, 0, 5), b"abcde");
        assert_eq!(heap.slice_read(s, 0, 3), b"abc");
    }

    #[test]
    fn append_to_prefix_view_reallocates() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(rt);
        let s = heap.new_byte_slice(b"abcdef");
        let prefix = heap.sub_slice(s, 0, 3);
        let grown = heap.slice_append(prefix, b"XY");
        // Fresh backing: the original array is untouched (Go would have
        // clobbered in place only if the view reached the array's end).
        assert_ne!(grown.ptr, s.ptr);
        assert_eq!(heap.slice_read(grown, 0, 5), b"abcXY");
        assert_eq!(heap.slice_read(s, 0, 6), b"abcdef");
    }

    #[test]
    fn append_chain_accumulates() {
        let rt = ModelRt::new(0, 100_000);
        let heap = Heap::new(rt);
        let mut s = heap.new_byte_slice(b"");
        for chunk in [&b"one-"[..], b"two-", b"three"] {
            s = heap.slice_append(s, chunk);
        }
        assert_eq!(heap.slice_read(s, 0, s.len), b"one-two-three");
    }
}
