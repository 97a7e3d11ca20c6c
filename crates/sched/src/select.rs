//! Runtime event-queue selection: one trait over the crate's queue
//! implementations plus the policy choosing between them.
//!
//! The engine's queue traffic is almost entirely the *hold* pattern —
//! pop the earliest event, push one successor for the same process —
//! over a totally ordered key space ([`Event::key_cmp`] never returns
//! `Equal` for distinct queued events). Totality means the pop sequence
//! of any correct priority queue is **uniquely determined**, so queue
//! choice is purely a performance matter: swapping implementations
//! cannot change simulation results (pinned by the differential
//! equivalence suites in `nc-engine`).
//!
//! Two implementations exist:
//!
//! * [`EventTree`] — the branch-free binary winner tree over pid-indexed
//!   leaves. A hold re-keys one leaf and walks its fixed `log₂ n` path,
//!   one compare and select per level. It is the engine's queue at every
//!   `n`: on a 2-core x86-64 host it beat the heap end to end at
//!   n = 100 and at n = 10,000, so there is no size cut.
//! * [`EventQueue`] — the 4-ary tournament-select heap, kept as the
//!   forced [`QueuePolicy::Heap`] oracle and ablation column.
//!
//! [`QueuePolicy`] is the engine-facing choice: `Auto` resolves to the
//! tree, `Heap` forces the heap (used by the differential tests and the
//! benchmark ablations).

use crate::queue::{Event, EventQueue};
use crate::tree::EventTree;

/// Which queue implementation a simulation run should use.
///
/// The default (`Auto`) is the tree at every size; the forced `Heap`
/// exists for differential tests and perf ablations. Either choice
/// produces bit-identical simulation results — see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueuePolicy {
    /// The engine's default: the branch-free [`EventTree`] at every `n`.
    #[default]
    Auto,
    /// Always the 4-ary tournament-select heap ([`EventQueue`]).
    Heap,
}

/// A concrete queue implementation choice, after [`QueuePolicy`] has
/// been resolved for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// The 4-ary tournament-select heap.
    Heap,
    /// The branch-free pid-indexed winner tree.
    Tree,
}

impl QueuePolicy {
    /// Resolves the policy for a run with `n` processes: `Auto` is the
    /// tree at every `n`. No policy depends on `n` any more; callers
    /// still resolve per run, so the parameter stays.
    #[inline]
    pub fn kind_for(self, _n: usize) -> QueueKind {
        match self {
            QueuePolicy::Auto => QueueKind::Tree,
            QueuePolicy::Heap => QueueKind::Heap,
        }
    }
}

/// The queue interface the simulation loops are generic over.
///
/// # Contract
///
/// Callers (the `nc-engine` drivers) maintain the engine invariants the
/// tree implementation depends on:
///
/// * at most one queued event per pid at any time;
/// * every queued `Event::pid()` is below the `n` given to
///   [`SimQueue::prepare`];
/// * [`SimQueue::reschedule_first`] is only called with an event whose
///   pid equals the current first event's pid (the hold operation).
///
/// Under that contract, and because the event key order is total, every
/// implementation yields the identical pop sequence.
pub trait SimQueue {
    /// Empties the queue and sizes it for pids `0..n`, keeping
    /// allocations for reuse across trials.
    fn prepare(&mut self, n: usize);

    /// Inserts a new event.
    fn insert(&mut self, ev: Event);

    /// Inserts a run's initial events, at most one per pid — priming a
    /// run. The default inserts them one by one; a queue with a cheaper
    /// bulk build overrides it.
    fn insert_all<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        for ev in events {
            self.insert(ev);
        }
    }

    /// The earliest event, if any.
    fn first(&self) -> Option<Event>;

    /// Removes and returns the earliest event.
    fn pop_first(&mut self) -> Option<Event>;

    /// Replaces the earliest event with `ev` — the hold operation. `ev`
    /// must carry the same pid as the current first event.
    fn reschedule_first(&mut self, ev: Event);
}

impl SimQueue for EventQueue {
    #[inline]
    fn prepare(&mut self, _n: usize) {
        self.clear();
    }

    #[inline]
    fn insert(&mut self, ev: Event) {
        self.push(ev);
    }

    #[inline]
    fn first(&self) -> Option<Event> {
        self.peek().copied()
    }

    #[inline]
    fn pop_first(&mut self) -> Option<Event> {
        self.pop()
    }

    #[inline]
    fn reschedule_first(&mut self, ev: Event) {
        self.replace_top(ev);
    }
}

impl SimQueue for EventTree {
    #[inline]
    fn prepare(&mut self, n: usize) {
        self.reset(n);
    }

    #[inline]
    fn insert(&mut self, ev: Event) {
        self.set(ev);
    }

    /// Writes every leaf, then fills the internal nodes in one
    /// bottom-up pass instead of walking one root path per event.
    fn insert_all<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        self.set_all(events);
    }

    #[inline]
    fn first(&self) -> Option<Event> {
        self.peek()
    }

    #[inline]
    fn pop_first(&mut self) -> Option<Event> {
        self.pop()
    }

    #[inline]
    fn reschedule_first(&mut self, ev: Event) {
        // The hold event carries the top's pid, so its leaf is occupied:
        // re-key it in place, with no occupancy check or separate remove.
        self.replace_first(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_policy_resolves_to_tree_at_every_n() {
        for n in [0, 1, 2, 100, 4095, 4096, 10_000, usize::MAX] {
            assert_eq!(QueuePolicy::Auto.kind_for(n), QueueKind::Tree, "n = {n}");
        }
    }

    #[test]
    fn forced_heap_ignores_n() {
        for n in [0, 1, 4096, 40_960] {
            assert_eq!(QueuePolicy::Heap.kind_for(n), QueueKind::Heap);
        }
    }

    /// Hold-model traffic through the trait produces the identical pop
    /// sequence on both implementations.
    #[test]
    fn trait_impls_agree_on_hold_traffic() {
        fn run<Q: SimQueue>(q: &mut Q) -> Vec<(u64, u32)> {
            q.prepare(8);
            let mut seq = 0u64;
            for pid in 0..8u32 {
                q.insert(Event::new(pid as f64 * 0.37, seq, pid));
                seq += 1;
            }
            let mut log = Vec::new();
            for i in 0..200 {
                let top = q.first().unwrap();
                log.push((top.seq(), top.pid()));
                if i % 5 == 4 {
                    q.pop_first();
                } else {
                    let inc = 0.1 + (i as f64 * 0.731).fract();
                    q.reschedule_first(Event::new(top.time() + inc, seq, top.pid()));
                    seq += 1;
                }
                if q.first().is_none() {
                    break;
                }
            }
            while let Some(e) = q.pop_first() {
                log.push((e.seq(), e.pid()));
            }
            log
        }
        let mut heap = EventQueue::new();
        let mut tree = EventTree::new();
        assert_eq!(run(&mut heap), run(&mut tree));
    }
}
