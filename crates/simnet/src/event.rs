//! The discrete-event scheduler's future-event list.
//!
//! A slab of generation-stamped payload slots under a small POD
//! `(time, seq, slot)` binary min-heap. Ties on time are broken by
//! insertion sequence, so execution order is fully deterministic.
//!
//! ## Design
//!
//! * **Slab + free list**: payloads live in `slots`, a `Vec` reused
//!   through an intrusive free list. `schedule` pops a vacant slot (or
//!   grows the slab), so steady-state scheduling never allocates once the
//!   high-water mark is reached.
//! * **Generation stamps**: each slot carries a generation counter bumped
//!   every time the slot is vacated. An [`EventId`] is `(slot, gen)`;
//!   cancelling a stale id (already fired, already cancelled, or from a
//!   previous [`EventQueue::clear`] epoch within the same generation
//!   numbering) fails the `gen` check. Cancel is O(1) — no hashing, no
//!   tombstone set.
//! * **Lazy heap deletion**: cancellation vacates the slot but leaves the
//!   heap entry in place; `pop`/`peek_time` discard entries whose `seq`
//!   no longer matches the slot's current occupant. This is the classic
//!   pairing of O(1) cancel with amortized-O(log n) pop.
//! * **Storage persistence**: [`EventQueue::clear`] drops pending
//!   payloads but keeps the slab and heap `Vec` capacity, so a pooled
//!   simulation reuses the same backing storage across visits.

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event; usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Sentinel for "no slot" in the free list.
const NIL: u32 = u32::MAX;

/// One POD heap entry; the payload stays in the slab.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

struct Slot<E> {
    /// Generation of the current (or next, once reused) occupant.
    gen: u32,
    /// Insertion sequence of the current occupant; a heap entry whose
    /// `seq` differs is stale and is discarded on pop.
    seq: u64,
    /// The payload; `None` while the slot sits on the free list.
    payload: Option<E>,
    /// Free-list link (meaningful only while vacant).
    next_free: u32,
}

/// A deterministic future-event list (see module docs for the design).
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    heap: Vec<HeapEntry>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_head: NIL,
            heap: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `payload` at absolute time `at`; returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if self.free_head != NIL {
            let s = self.free_head;
            let entry = &mut self.slots[s as usize];
            self.free_head = entry.next_free;
            entry.seq = seq;
            entry.payload = Some(payload);
            s
        } else {
            let s = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                seq,
                payload: Some(payload),
                next_free: NIL,
            });
            s
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.live += 1;
        EventId { slot, gen }
    }

    /// Cancel a previously scheduled event. Returns `true` when the event
    /// was still pending (not yet fired or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.cancel_take(id).is_some()
    }

    /// Cancel a pending event, returning its payload for reuse. O(1):
    /// vacates the slot; the stale heap entry is discarded lazily by the
    /// next pop that reaches it.
    pub fn cancel_take(&mut self, id: EventId) -> Option<E> {
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        let payload = slot.payload.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = id.slot;
        self.live -= 1;
        Some(payload)
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_stale();
        self.heap.first().map(|e| e.at)
    }

    /// Pop the next live event as `(time, id, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.skip_stale();
        let entry = *self.heap.first()?;
        self.pop_root();
        let slot = &mut self.slots[entry.slot as usize];
        let gen = slot.gen;
        let payload = slot.payload.take().expect("skip_stale left a live root");
        slot.gen = gen.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = entry.slot;
        self.live -= 1;
        Some((
            entry.at,
            EventId {
                slot: entry.slot,
                gen,
            },
            payload,
        ))
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every pending event, handing each payload to `f` (for pooled
    /// reuse), while keeping the slab and heap storage for the next run.
    /// The sequence counter restarts, so a cleared queue schedules and
    /// pops exactly like a freshly constructed one — but the slots keep
    /// their generation stamps (bumped for every vacated occupant), so an
    /// [`EventId`] issued before the clear can never cancel an event
    /// scheduled after it.
    pub fn clear_with(&mut self, mut f: impl FnMut(E)) {
        self.free_head = NIL;
        // Rebuild the free list back-to-front so post-clear scheduling
        // fills slots from index 0, like a fresh queue would.
        for (i, slot) in self.slots.iter_mut().enumerate().rev() {
            if let Some(p) = slot.payload.take() {
                f(p);
                slot.gen = slot.gen.wrapping_add(1);
            }
            slot.next_free = self.free_head;
            self.free_head = i as u32;
        }
        self.heap.clear();
        self.next_seq = 0;
        self.live = 0;
    }

    /// [`EventQueue::clear_with`] dropping the payloads.
    pub fn clear(&mut self) {
        self.clear_with(drop);
    }

    /// Discard stale heap entries (cancelled or superseded slots) at the
    /// root until a live entry — or nothing — remains.
    fn skip_stale(&mut self) {
        while let Some(entry) = self.heap.first() {
            let slot = &self.slots[entry.slot as usize];
            if slot.payload.is_some() && slot.seq == entry.seq {
                break;
            }
            self.pop_root();
        }
    }

    /// Remove the heap root, restoring the heap property.
    fn pop_root(&mut self) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < n && self.heap[l].key() < self.heap[best].key() {
                best = l;
            }
            if r < n && self.heap[r].key() < self.heap[best].key() {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        let (_, _, p) = q.pop().unwrap();
        assert_eq!(p, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        let id = q.schedule(SimTime::ZERO, ());
        q.pop();
        // The id was consumed; cancelling a fired event reports false.
        assert!(!q.cancel(id));
        // A fresh queue rejects ids it never issued.
        let mut q2: EventQueue<()> = EventQueue::new();
        assert!(!q2.cancel(id));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(7));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_take_returns_payload() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(3), String::from("x"));
        assert_eq!(q.cancel_take(id).as_deref(), Some("x"));
        assert_eq!(q.cancel_take(id), None);
    }

    #[test]
    fn slots_are_reused_after_pop_and_cancel() {
        let mut q = EventQueue::new();
        for round in 0..5u64 {
            let a = q.schedule(SimTime::from_millis(round), round);
            let b = q.schedule(SimTime::from_millis(round + 1), round + 1);
            assert!(q.cancel(a));
            assert_eq!(q.pop().map(|(_, _, p)| p), Some(round + 1));
            assert!(!q.cancel(b), "popped event can no longer be cancelled");
        }
        // Two logical slots served all five rounds.
        assert!(q.slots.len() <= 2, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn stale_id_from_reused_slot_does_not_cancel_new_event() {
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::from_millis(1), "old");
        q.pop();
        // The new event reuses the slot; the old id must not touch it.
        let new = q.schedule(SimTime::from_millis(2), "new");
        assert!(!q.cancel(old));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(new));
    }

    #[test]
    fn pre_clear_ids_cannot_cancel_post_clear_events() {
        let mut q = EventQueue::new();
        let popped = q.schedule(SimTime::from_millis(1), "popped");
        let stale = q.schedule(SimTime::from_millis(2), "old");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("popped"));
        q.clear();
        // The new event reuses slot storage; every pre-clear id is stale.
        let fresh = q.schedule(SimTime::from_millis(3), "new");
        assert!(!q.cancel(stale), "pending-at-clear id must go stale");
        assert!(!q.cancel(popped), "popped-before-clear id must stay stale");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(fresh));
    }

    #[test]
    fn clear_keeps_storage_but_restarts_sequence() {
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        let heap_cap = q.heap.capacity();
        let slab_cap = q.slots.capacity();
        let mut drained = Vec::new();
        q.clear_with(|p| drained.push(p));
        assert_eq!(drained.len(), 8);
        assert!(q.is_empty());
        assert_eq!(q.heap.capacity(), heap_cap);
        assert_eq!(q.slots.capacity(), slab_cap);
        // Post-clear behaviour matches a fresh queue (ties by insertion).
        let t = SimTime::from_millis(1);
        q.schedule(t, 100);
        q.schedule(t, 200);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![100, 200]);
    }
}
