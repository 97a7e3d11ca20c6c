//! The engine's event queue: a branch-free **binary winner tree** over
//! per-process event slots.
//!
//! The engine holds at most one event per process and almost every queue
//! operation is the *hold*: the earliest process re-keys its own next
//! event. That fixes the shape of the structure:
//!
//! * Leaves are a **pid-indexed array**: pid `p`'s event lives at node
//!   `n + p` of a `2n`-node array (node 0 unused). Internal node `i` holds
//!   the smaller of nodes `2i` and `2i + 1`, so node 1 is the earliest
//!   event. For `n = 1` the single leaf is node 1 itself.
//! * A node is an [`Event`]'s two key words, `[time_key, seq_pid]`. The
//!   low 24 bits of `seq_pid` are the pid, so the root is at once the
//!   earliest event and its owner: no index bookkeeping.
//! * A re-key writes the pid's leaf and walks that pid's **fixed path** to
//!   the root: at node `i` the sibling is `i ^ 1` and the parent `i / 2`.
//!   Every address on the path is known before the walk starts, so the
//!   sibling loads issue ahead of the compares, and each level is one
//!   compare and one select on values already in registers. The 4-ary
//!   heap ([`crate::queue::EventQueue`]) instead walks a data-dependent
//!   path (which child is smallest decides the next address) and then
//!   sifts up.
//!
//! **Codegen.** The select must compile to `cmov`, or a random event
//! order mispredicts about half the levels and the tree runs about 2×
//! slower than the heap. LLVM lowers a `u128` `min`, a mask-arithmetic
//! select and a plain `if` on the key pair to data-dependent branches
//! (an isolated hold loop at n = 100 read 58–83 ns/hold for those three
//! spellings, 35–45 ns for the heap and 27–35 ns for this one).
//! The spelling that compiles to `cmov` is the three-compare
//! `lt = (st < vt) | ((st == vt) & (ss < vs))` on the two `u64` halves,
//! with [`std::hint::select_unpredictable`] on each half (`min2`).
//!
//! **Measured outcome** (`docs/engine-internals.md`, "Queue selection"):
//! on a 2-core x86-64 host this tree beat the 4-ary heap end to end,
//! ×1.16 `events_per_s` at n = 100 (10/10 alternating perfbench pairs)
//! and ×1.17 at n = 10,000 (5/5), with the traced queue layer down from
//! 34–35 to 27–29 ns/event at n = 100. So
//! [`crate::select::QueuePolicy::Auto`] picks it at every size, and the
//! heap stays as the forced oracle and ablation.
//!
//! Determinism: the min over total integer keys is exact, so the pop
//! sequence is identical to the heap's (pinned by differential property
//! tests here and by the engine's equivalence suites).

use std::hint::select_unpredictable;

use crate::queue::Event;

/// One tree node: an [`Event`]'s `[time_key, seq_pid]` key words,
/// compared lexicographically.
type Node = [u64; 2];

/// Sentinel key for "no event in this slot". Real events cannot collide
/// with it: their time keys come from finite `f64`s, which never map to
/// all-ones.
const EMPTY: Node = [u64::MAX, u64::MAX];

/// The smaller of two nodes, without a data-dependent branch: three
/// `u64` compares feed one flag, and [`select_unpredictable`] turns each
/// half's pick into a `cmov` (see the module docs for the spellings that
/// compiled to branches instead).
#[inline(always)]
fn min2(a: Node, b: Node) -> Node {
    let lt = (a[0] < b[0]) | ((a[0] == b[0]) & (a[1] < b[1]));
    [
        select_unpredictable(lt, a[0], b[0]),
        select_unpredictable(lt, a[1], b[1]),
    ]
}

/// A fixed-capacity binary winner tree of at most one event per process.
///
/// [`EventTree::reset`] sizes it for pids `0..n`; [`EventTree::set`]
/// inserts or reschedules a process's event, [`EventTree::remove`]
/// clears one, [`EventTree::peek`]/[`EventTree::pop`] read the global
/// earliest.
///
/// # Example
///
/// ```
/// use nc_sched::queue::Event;
/// use nc_sched::tree::EventTree;
///
/// let mut q = EventTree::new();
/// q.reset(2);
/// q.set(Event::new(2.0, 1, 0));
/// q.set(Event::new(1.0, 2, 1));
/// assert_eq!(q.peek().unwrap().pid(), 1);
/// q.set(Event::new(3.0, 3, 1)); // reschedule pid 1: the hold operation
/// assert_eq!(q.peek().unwrap().pid(), 0);
/// ```
#[derive(Debug, Default)]
pub struct EventTree {
    /// `nodes[leaves + pid]` is pid's leaf; `nodes[i]` for
    /// `1 <= i < leaves` is `min(nodes[2i], nodes[2i + 1])`; `nodes[0]`
    /// is unused.
    nodes: Vec<Node>,
    /// Number of leaves: the `n` of the last reset, at least 1.
    leaves: usize,
    len: usize,
}

impl EventTree {
    /// An empty tree; size it with [`EventTree::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tree and sizes it for pids `0..n`, reusing existing
    /// storage.
    pub fn reset(&mut self, n: usize) {
        self.leaves = n.max(1);
        self.nodes.clear();
        self.nodes.resize(2 * self.leaves, EMPTY);
        self.len = 0;
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest event, if any — a single root read.
    #[inline]
    pub fn peek(&self) -> Option<Event> {
        let [time_key, seq_pid] = self.nodes[1];
        if [time_key, seq_pid] == EMPTY {
            None
        } else {
            Some(Event { time_key, seq_pid })
        }
    }

    /// Inserts or reschedules the event of `ev.pid()` — the engine's
    /// hold operation: one leaf write plus one compare and select per
    /// level of the pid's path.
    #[inline]
    pub fn set(&mut self, ev: Event) {
        let leaf = self.leaf(ev.pid());
        if self.nodes[leaf] == EMPTY {
            self.len += 1;
        }
        self.rekey(leaf, [ev.time_key, ev.seq_pid]);
    }

    /// Inserts or reschedules every event of `events` (at most one per
    /// pid), then rebuilds the internal nodes in one bottom-up pass: `n`
    /// compares in all, where one [`EventTree::set`] per event walks
    /// `n` root paths.
    pub(crate) fn set_all<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        for ev in events {
            let leaf = self.leaf(ev.pid());
            if self.nodes[leaf] == EMPTY {
                self.len += 1;
            }
            self.nodes[leaf] = [ev.time_key, ev.seq_pid];
        }
        for i in (1..self.leaves).rev() {
            self.nodes[i] = min2(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// Removes the event of `pid`, if present.
    #[inline]
    pub fn remove(&mut self, pid: u32) {
        let leaf = self.leaf(pid);
        if self.nodes[leaf] != EMPTY {
            self.len -= 1;
            self.rekey(leaf, EMPTY);
        }
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let top = self.peek()?;
        self.len -= 1;
        self.rekey(self.leaf(top.pid()), EMPTY);
        Some(top)
    }

    /// Replaces the earliest event with `ev`, which must carry the same
    /// pid — the hold operation without [`EventTree::set`]'s occupancy
    /// check.
    #[inline]
    pub(crate) fn replace_first(&mut self, ev: Event) {
        debug_assert_eq!(self.peek().map(|e| e.pid()), Some(ev.pid()));
        self.rekey(self.leaf(ev.pid()), [ev.time_key, ev.seq_pid]);
    }

    /// The node index of `pid`'s leaf.
    #[inline]
    fn leaf(&self, pid: u32) -> usize {
        let pid = pid as usize;
        debug_assert!(pid < self.leaves, "pid {pid} out of range");
        self.leaves + pid
    }

    /// Writes `key` at node `i` and walks its path to the root, carrying
    /// the running minimum in registers: each level loads the sibling
    /// `i ^ 1` (an address fixed by `i` alone), takes one [`min2`], and
    /// stores the parent.
    #[inline]
    fn rekey(&mut self, mut i: usize, key: Node) {
        let mut v = key;
        self.nodes[i] = v;
        while i > 1 {
            v = min2(v, self.nodes[i ^ 1]);
            i >>= 1;
            self.nodes[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventTree::new();
        q.reset(5);
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            q.set(Event::new(*t, i as u64, i as u32));
        }
        assert_eq!(q.len(), 5);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_break_by_seq() {
        let mut q = EventTree::new();
        q.reset(3);
        q.set(Event::new(1.0, 7, 0));
        q.set(Event::new(1.0, 3, 1));
        q.set(Event::new(1.0, 5, 2));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![3, 5, 7]);
    }

    #[test]
    fn set_reschedules_in_place() {
        let mut q = EventTree::new();
        q.reset(2);
        q.set(Event::new(1.0, 1, 0));
        q.set(Event::new(2.0, 2, 1));
        q.set(Event::new(5.0, 3, 0)); // pid 0 rescheduled later
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().pid(), 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.pid()).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn remove_clears_slots() {
        let mut q = EventTree::new();
        q.reset(4);
        for pid in 0..4u32 {
            q.set(Event::new(pid as f64, pid as u64, pid));
        }
        q.remove(0);
        q.remove(0); // idempotent
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().unwrap().pid(), 1);
    }

    #[test]
    fn single_process_tree_works() {
        let mut q = EventTree::new();
        q.reset(1);
        assert!(q.peek().is_none());
        q.set(Event::new(0.5, 1, 0));
        assert_eq!(q.pop().unwrap().time(), 0.5);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut q = EventTree::new();
        for trial in 0..20 {
            let n = 1 + (trial * 37) % 500;
            q.reset(n);
            assert!(q.is_empty());
            for pid in 0..n as u32 {
                q.set(Event::new(pid as f64 * 0.25, pid as u64, pid));
            }
            assert_eq!(q.len(), n);
            assert_eq!(q.peek().unwrap().pid(), 0);
        }
    }

    /// Power-of-two sizes and their neighbours: every leaf depth mix a
    /// `2n`-node layout can have.
    const SIZES: [usize; 17] = [
        1, 2, 3, 5, 7, 8, 9, 63, 64, 65, 100, 511, 512, 513, 4095, 4096, 4097,
    ];

    #[test]
    fn large_n_boundaries() {
        for n in SIZES {
            let mut q = EventTree::new();
            q.reset(n);
            for pid in (0..n as u32).rev() {
                q.set(Event::new(pid as f64, pid as u64, pid));
            }
            let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.pid()).collect();
            assert_eq!(popped, (0..n as u32).collect::<Vec<_>>(), "n = {n}");
        }
    }

    /// Deterministic hold traffic against the heap at every size in
    /// [`SIZES`], with a pop every seventh step so leaves empty out too.
    #[test]
    fn hold_traffic_matches_heap_at_every_size() {
        use crate::queue::EventQueue;
        for n in SIZES {
            let mut tree = EventTree::new();
            tree.reset(n);
            let mut heap = EventQueue::new();
            let mut seq = 0u64;
            for pid in 0..n as u32 {
                let e = Event::new((pid as f64 * 0.618).fract(), seq, pid);
                seq += 1;
                tree.set(e);
                heap.push(e);
            }
            for i in 0..4 * n {
                let top = *heap.peek().unwrap();
                assert_eq!(tree.peek(), Some(top), "n = {n}, step {i}");
                heap.pop();
                if i % 7 == 6 {
                    tree.pop();
                } else {
                    let e = Event::new(top.time() + (i as f64 * 0.377).fract(), seq, top.pid());
                    seq += 1;
                    tree.replace_first(e);
                    heap.push(e);
                }
                if heap.is_empty() {
                    break;
                }
            }
            assert_eq!(tree.len(), heap.len(), "n = {n}");
            let heap_rest: Vec<Event> = std::iter::from_fn(|| heap.pop()).collect();
            let tree_rest: Vec<Event> = std::iter::from_fn(|| tree.pop()).collect();
            assert_eq!(heap_rest, tree_rest, "n = {n}");
        }
    }

    /// Bulk priming builds exactly the tree that one `set` per event
    /// builds, node for node, including pids left without an event.
    #[test]
    fn bulk_priming_equals_one_by_one_inserts() {
        for n in SIZES {
            let events: Vec<Event> = (0..n as u32)
                .filter(|pid| pid % 5 != 3)
                .map(|pid| Event::new((pid as f64 * 0.618).fract(), pid as u64 + 1, pid))
                .collect();
            let mut bulk = EventTree::new();
            bulk.reset(n);
            bulk.set_all(events.iter().copied());
            let mut single = EventTree::new();
            single.reset(n);
            for &e in &events {
                single.set(e);
            }
            assert_eq!(bulk.nodes, single.nodes, "n = {n}");
            assert_eq!(bulk.len(), events.len(), "n = {n}");
            assert_eq!(bulk.len(), single.len(), "n = {n}");
        }
    }

    proptest! {
        /// Differential test against the heap under hold-model traffic.
        #[test]
        fn hold_traffic_matches_heap(
            starts in proptest::collection::vec(0.0f64..10.0, 1..60),
            incs in proptest::collection::vec(0.0f64..1e3, 0..200),
        ) {
            use crate::queue::EventQueue;
            let n = starts.len();
            let mut tree = EventTree::new();
            tree.reset(n);
            let mut heap = EventQueue::new();
            let mut seq = 0u64;
            for (pid, &t) in starts.iter().enumerate() {
                let e = Event::new(t, seq, pid as u32);
                seq += 1;
                tree.set(e);
                heap.push(e);
            }
            for (i, &inc) in incs.iter().enumerate() {
                let top_h = *heap.peek().unwrap();
                let top_t = tree.peek().unwrap();
                prop_assert_eq!(top_h, top_t, "diverged before hold {}", i);
                let new = Event::new(top_h.time() + inc, seq, top_h.pid());
                seq += 1;
                heap.pop();
                heap.push(new);
                tree.set(new);
            }
            let heap_rest: Vec<Event> = std::iter::from_fn(|| heap.pop()).collect();
            let tree_rest: Vec<Event> = std::iter::from_fn(|| tree.pop()).collect();
            prop_assert_eq!(heap_rest, tree_rest);
        }

        /// Arbitrary set/remove traffic keeps the root exact.
        #[test]
        fn set_remove_traffic_matches_model(
            ops in proptest::collection::vec((0usize..32, 0.0f64..50.0, any::<bool>()), 1..150),
        ) {
            let mut tree = EventTree::new();
            tree.reset(32);
            let mut model: Vec<Option<Event>> = vec![None; 32];
            let mut seq = 0u64;
            for &(pid, t, is_remove) in &ops {
                if is_remove {
                    tree.remove(pid as u32);
                    model[pid] = None;
                } else {
                    let e = Event::new(t, seq, pid as u32);
                    seq += 1;
                    tree.set(e);
                    model[pid] = Some(e);
                }
                let expect = model
                    .iter()
                    .flatten()
                    .copied()
                    .min_by(|a, b| a.key_cmp(b));
                prop_assert_eq!(tree.peek(), expect);
                prop_assert_eq!(tree.len(), model.iter().flatten().count());
            }
        }
    }
}
