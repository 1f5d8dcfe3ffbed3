//! Ordered, bounded hand-off of sealed chunks from the crawl workers of
//! one block list to the one consumer that streams them on.
//!
//! Block `b` travels through slot `b % cap`, and the consumer takes the
//! blocks in ascending order, so the `(day, shard, seq)` stream needs no
//! reorder window. A producer may publish block `b` only once
//! `b < next + cap`, where `next` is the block the consumer waits for:
//! the slot is then free, and at most `cap` sealed chunks wait at once.
//! The slots are allocated once per block list. Every wait blocks on one
//! `Condvar`; nothing polls.
//!
//! The two drop guards keep one failing side from hanging the other. A
//! producer that unwinds aborts the run, which releases the consumer
//! waiting for the block it will never publish and every sibling blocked
//! on capacity. A consumer that stops early (a panicking sink) aborts it
//! too, which releases the producers. The surrounding `thread::scope`
//! then propagates the original panic.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State<T> {
    /// Block `b` waits in slot `b % slots.len()`.
    slots: Vec<Option<T>>,
    /// The block the consumer takes next.
    next: usize,
    /// Producers that have not exited yet.
    producers: usize,
    /// Set when either side gives up on the run.
    aborted: bool,
}

/// A bounded multi-producer / single-consumer hand-off of numbered
/// blocks, delivered in ascending order.
pub(crate) struct Handoff<T> {
    state: Mutex<State<T>>,
    changed: Condvar,
}

impl<T> Handoff<T> {
    /// A hand-off fed by `producers` workers, with room for
    /// `2 × producers` waiting blocks: every worker can run one block
    /// ahead while the consumer is busy.
    pub(crate) fn new(producers: usize) -> Handoff<T> {
        let cap = 2 * producers.max(1);
        Handoff {
            state: Mutex::new(State {
                slots: (0..cap).map(|_| None).collect(),
                next: 0,
                producers,
                aborted: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// No code under the lock can panic, so a poisoned lock still holds
    /// a consistent state.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish block `b`, blocking while it would run `cap` blocks ahead
    /// of the consumer. Returns `false`, dropping `value`, when the run
    /// was aborted; the producer should stop claiming blocks.
    #[must_use]
    pub(crate) fn publish(&self, b: usize, value: T) -> bool {
        let mut st = self.lock();
        while !st.aborted && b >= st.next + st.slots.len() {
            st = self.wait(st);
        }
        if st.aborted {
            return false;
        }
        let cap = st.slots.len();
        st.slots[b % cap] = Some(value);
        drop(st);
        self.changed.notify_all();
        true
    }

    /// Take the next block, waiting for its producer. Returns `None` when
    /// the run was aborted, or when every producer exited without
    /// publishing it.
    pub(crate) fn consume(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            let (next, cap) = (st.next, st.slots.len());
            // Only block `next` can sit in its slot: `next + cap` may not
            // be published before `next` is taken.
            if let Some(value) = st.slots[next % cap].take() {
                st.next += 1;
                drop(st);
                self.changed.notify_all();
                return Some(value);
            }
            if st.aborted || st.producers == 0 {
                return None;
            }
            st = self.wait(st);
        }
    }

    /// Guard for one producer: marks it exited on drop, and aborts the
    /// run when it exits by a panic.
    pub(crate) fn producer(&self) -> ProducerGuard<'_, T> {
        ProducerGuard(self)
    }

    /// Guard for the consumer: aborts the run on drop, releasing any
    /// producer blocked in [`Handoff::publish`]. After a fully drained
    /// run every producer has already exited, so it changes nothing.
    pub(crate) fn consumer(&self) -> ConsumerGuard<'_, T> {
        ConsumerGuard(self)
    }
}

pub(crate) struct ProducerGuard<'a, T>(&'a Handoff<T>);

impl<T> Drop for ProducerGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.producers -= 1;
        st.aborted |= std::thread::panicking();
        drop(st);
        self.0.changed.notify_all();
    }
}

pub(crate) struct ConsumerGuard<'a, T>(&'a Handoff<T>);

impl<T> Drop for ConsumerGuard<'_, T> {
    fn drop(&mut self) {
        self.0.lock().aborted = true;
        self.0.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// `producers` threads claim blocks `0..n_blocks` from a shared
    /// cursor and publish each as its own number.
    fn spawn_producers<'s>(
        scope: &'s std::thread::Scope<'s, '_>,
        handoff: &'s Handoff<usize>,
        next: &'s AtomicUsize,
        producers: usize,
        n_blocks: usize,
    ) {
        for _ in 0..producers {
            scope.spawn(move || {
                let _producer = handoff.producer();
                loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= n_blocks || !handoff.publish(b, b) {
                        break;
                    }
                }
            });
        }
    }

    #[test]
    fn handoff_single_producer_round_trips_in_order() {
        let handoff: Handoff<usize> = Handoff::new(1);
        let producer = handoff.producer();
        // Interleave publish/consume so the bound never blocks.
        for b in 0..10 {
            assert!(handoff.publish(b, b * 7));
            assert_eq!(handoff.consume(), Some(b * 7));
        }
        drop(producer);
        assert_eq!(handoff.consume(), None, "drained and every producer gone");
    }

    #[test]
    fn handoff_delivers_in_block_order_under_four_producers() {
        let n_blocks = 200;
        let handoff: Handoff<usize> = Handoff::new(4);
        let next = AtomicUsize::new(0);
        let mut seen = Vec::with_capacity(n_blocks);
        std::thread::scope(|scope| {
            spawn_producers(scope, &handoff, &next, 4, n_blocks);
            let _consumer = handoff.consumer();
            for _ in 0..n_blocks {
                seen.push(handoff.consume().expect("all producers healthy"));
            }
        });
        assert_eq!(seen, (0..n_blocks).collect::<Vec<_>>());
    }

    #[test]
    fn handoff_holds_at_most_two_blocks_per_producer() {
        // A consumer that takes nothing: the producers fill exactly
        // `2 × producers` slots, then all block on the bound.
        let producers = 3;
        let cap = 2 * producers;
        let handoff: Handoff<usize> = Handoff::new(producers);
        let next = AtomicUsize::new(0);
        let waiting = || handoff.lock().slots.iter().flatten().count();
        std::thread::scope(|scope| {
            // Created first, so a failed assert still releases the
            // producers and the test fails instead of hanging.
            let _consumer = handoff.consumer();
            spawn_producers(scope, &handoff, &next, producers, 100);
            while waiting() < cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Every producer has now claimed a block it cannot publish.
            while next.load(Ordering::Relaxed) < cap + producers {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(waiting(), cap, "the bound let a block through");
            // Taking one block admits exactly one more.
            assert_eq!(handoff.consume(), Some(0));
            while waiting() < cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(waiting(), cap);
            assert_eq!(handoff.lock().slots[0], Some(cap), "block cap took slot 0");
        });
    }

    #[test]
    fn handoff_dead_producer_releases_the_consumer() {
        let handoff: Handoff<usize> = Handoff::new(1);
        let producer = handoff.producer();
        assert!(handoff.publish(0, 42));
        drop(producer); // the producer exits before block 1
        assert_eq!(
            handoff.consume(),
            Some(42),
            "a published block still drains"
        );
        assert_eq!(
            handoff.consume(),
            None,
            "a missing block is reported, no hang"
        );
    }

    #[test]
    fn handoff_panicking_producer_releases_everyone_with_a_live_sibling() {
        // Worker A claims a block and dies; worker B races ahead to the
        // bound and must not deadlock; the consumer must stop so the scope
        // can propagate A's panic, although B is still alive when A dies.
        let n_blocks = 100;
        let handoff: Handoff<usize> = Handoff::new(2);
        let next = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let (handoff, next) = (&handoff, &next);
                scope.spawn(move || {
                    let _producer = handoff.producer();
                    next.fetch_add(1, Ordering::Relaxed);
                    panic!("worker A dies");
                });
                spawn_producers(scope, handoff, next, 1, n_blocks);
                let _consumer = handoff.consumer();
                let mut drained = 0;
                while handoff.consume().is_some() {
                    drained += 1;
                }
                // A's claimed block was never published.
                assert!(drained < n_blocks);
            });
        }));
        assert!(result.is_err(), "worker A's panic must propagate");
    }

    #[test]
    fn handoff_dying_consumer_releases_blocked_producers() {
        // A panicking sink drops the consumer guard; a producer blocked on
        // the bound must return from publish instead of waiting forever.
        let handoff: Handoff<usize> = Handoff::new(1);
        std::thread::scope(|scope| {
            let handoff = &handoff;
            scope.spawn(move || {
                let _producer = handoff.producer();
                for b in 0..50 {
                    if !handoff.publish(b, b) {
                        return;
                    }
                }
                panic!("the producer should have been released by the abort");
            });
            let consumer = handoff.consumer();
            assert_eq!(handoff.consume(), Some(0));
            drop(consumer); // the consumer stops without draining the rest
        });
    }
}
