//! The simulator: a clock plus the future-event list, executing boxed
//! closures against a user-supplied world state.
//!
//! The design follows the event-driven style of embedded TCP/IP stacks:
//! a single-threaded loop, no hidden global state, and explicit time. The
//! world type `W` is owned by the caller and handed to every callback, so
//! callbacks can freely schedule further events through the [`Scheduler`]
//! handle they receive.
//!
//! ## Callback recycling
//!
//! Scheduling boxes the callback, and on a visit-simulation hot path that
//! box used to be an allocation per `schedule` call. The scheduler now
//! recycles callback boxes through a **type-keyed box pool**: each pool
//! class holds spent boxes of one concrete closure type, so a recycled
//! box always matches the layout of the closure it is asked to hold next
//! — exact-fit size classes without any `unsafe`. A steady-state simulation (same call sites firing visit
//! after visit) reaches a fixed point where `at`/`after` never touch the
//! allocator. Captured state is dropped the moment a callback fires or is
//! cancelled; only the empty box is pooled.
//!
//! ## Pooled lifecycle
//!
//! [`Simulation::reset`] (swap in a new world) and
//! [`Simulation::reset_in_place`] (re-arm the existing world) return the
//! simulation to the state of a fresh [`Simulation::new`] while keeping
//! every piece of backing storage: the event slab, the POD heap, and the
//! callback pool. One pooled simulation per worker replaces the
//! construct-per-visit pattern.

use crate::event::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};
use std::any::{Any, TypeId};

/// A scheduled callback as the queue stores it: a reusable box holding a
/// concrete closure (see module docs on recycling).
pub type Callback<W> = Box<dyn QueuedCb<W>>;

/// One pooled callback cell: the closure, taken out when fired.
struct CbCell<F> {
    f: Option<F>,
}

/// Object-safe face of a boxed, poolable callback. Implemented for the
/// scheduler's own closure cells; not meant to be implemented outside this
/// module (construct callbacks through [`Scheduler::at`] /
/// [`Scheduler::after`]).
pub trait QueuedCb<W> {
    /// Run the callback (at most once; later calls are no-ops).
    fn invoke(&mut self, w: &mut W, s: &mut Scheduler<W>);
    /// The concrete cell type, keying the pool class.
    fn cell_type_id(&self) -> TypeId;
    /// Drop any captured state and surrender the empty box for pooling.
    fn into_empty_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<W, F> QueuedCb<W> for CbCell<F>
where
    F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
{
    fn invoke(&mut self, w: &mut W, s: &mut Scheduler<W>) {
        if let Some(f) = self.f.take() {
            f(w, s);
        }
    }

    fn cell_type_id(&self) -> TypeId {
        TypeId::of::<CbCell<F>>()
    }

    fn into_empty_any(mut self: Box<Self>) -> Box<dyn Any> {
        self.f = None;
        self
    }
}

/// Most closure types a simulation schedules (bounded by its call sites).
const POOL_MAX_CLASSES: usize = 64;
/// Most spent boxes kept per closure type.
const POOL_CLASS_CAP: usize = 32;

/// Type-keyed pool of spent callback boxes. A linear scan over the class
/// list suffices: a simulation has a small, fixed set of scheduling call
/// sites, hence a small set of closure types.
#[derive(Default)]
struct CbPool {
    classes: Vec<(TypeId, Vec<Box<dyn Any>>)>,
}

impl CbPool {
    /// Position of `tid`'s class, promoting it one step toward the front
    /// so a visit's hot call sites settle at the head of the scan.
    fn class_pos(&mut self, tid: TypeId) -> Option<usize> {
        let i = self.classes.iter().position(|(t, _)| *t == tid)?;
        if i > 0 {
            self.classes.swap(i, i - 1);
            Some(i - 1)
        } else {
            Some(i)
        }
    }

    /// Take a spent box able to hold a closure of type `F`.
    fn take<F: 'static>(&mut self) -> Option<Box<CbCell<F>>> {
        let i = self.class_pos(TypeId::of::<CbCell<F>>())?;
        let b = self.classes[i].1.pop()?;
        Some(
            b.downcast::<CbCell<F>>()
                .expect("pool class holds its own type"),
        )
    }

    /// Return a spent box to its class (bounded; overflow goes back to
    /// the allocator).
    fn put(&mut self, tid: TypeId, b: Box<dyn Any>) {
        match self.class_pos(tid) {
            Some(i) => {
                let boxes = &mut self.classes[i].1;
                if boxes.len() < POOL_CLASS_CAP {
                    boxes.push(b);
                }
            }
            None => {
                if self.classes.len() < POOL_MAX_CLASSES {
                    self.classes.push((tid, vec![b]));
                }
            }
        }
    }

    /// Number of boxes currently pooled (diagnostics).
    fn len(&self) -> usize {
        self.classes.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Handle exposed to callbacks for scheduling more work.
///
/// Separating the handle from [`Simulation`] lets callbacks mutate the event
/// queue while the simulation loop holds the world mutably.
pub struct Scheduler<W> {
    now: SimTime,
    queue: EventQueue<Callback<W>>,
    executed: u64,
    pool: CbPool,
}

impl<W> Scheduler<W> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            pool: CbPool::default(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of callbacks executed so far.
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of callback boxes waiting in the recycling pool
    /// (diagnostics for the pooled-visit tests).
    pub fn pooled_callbacks(&self) -> usize {
        self.pool.len()
    }

    /// Box `f`, reusing a pooled box of the same closure type when one is
    /// available.
    fn make_cb<F>(&mut self, f: F) -> Callback<W>
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        match self.pool.take::<F>() {
            Some(mut cell) => {
                cell.f = Some(f);
                cell
            }
            None => Box::new(CbCell { f: Some(f) }),
        }
    }

    /// Recycle a spent callback box.
    fn recycle(&mut self, cb: Callback<W>) {
        let tid = cb.cell_type_id();
        self.pool.put(tid, cb.into_empty_any());
    }

    /// Schedule a callback at an absolute time. Times in the past are
    /// clamped to "now" (they run next, in insertion order).
    pub fn at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        let at = at.max(self.now);
        let cb = self.make_cb(f);
        self.queue.schedule(at, cb)
    }

    /// Schedule a callback after a relative delay.
    pub fn after<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    {
        let at = self.now.saturating_add(delay);
        let cb = self.make_cb(f);
        self.queue.schedule(at, cb)
    }

    /// Cancel a pending event. Its captured state is dropped immediately;
    /// the callback box returns to the pool.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.queue.cancel_take(id) {
            Some(cb) => {
                self.recycle(cb);
                true
            }
            None => false,
        }
    }

    /// Return to the fresh-scheduler state (clock at zero, queue empty)
    /// while keeping the event slab, heap, and callback pool storage.
    fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.executed = 0;
        let Scheduler { queue, pool, .. } = self;
        queue.clear_with(|cb| {
            let tid = cb.cell_type_id();
            pool.put(tid, cb.into_empty_any());
        });
    }
}

/// A deterministic discrete-event simulation over a world `W`.
pub struct Simulation<W> {
    world: W,
    sched: Scheduler<W>,
}

/// Why [`Simulation::run_until`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The event queue drained before the deadline.
    Idle,
    /// The deadline was reached with events still pending.
    Deadline,
    /// The event budget was exhausted (runaway protection).
    EventBudget,
}

impl<W> Simulation<W> {
    /// Create a simulation owning `world`, with the clock at zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The scheduler handle (for seeding initial events).
    pub fn scheduler(&mut self) -> &mut Scheduler<W> {
        &mut self.sched
    }

    /// Re-arm this simulation for a fresh run over `world`, returning the
    /// previous world. Pending events are dropped (their boxes recycled),
    /// the clock returns to zero, and all queue/pool storage is kept —
    /// behaviourally identical to `Simulation::new(world)`, minus the
    /// allocations.
    pub fn reset(&mut self, world: W) -> W {
        self.sched.reset();
        std::mem::replace(&mut self.world, world)
    }

    /// Like [`Simulation::reset`], but keeps the current world and hands
    /// it back mutably for in-place re-arming — the pooled crawl path
    /// resets the browser/flow state it already owns instead of building
    /// a new world each visit.
    pub fn reset_in_place(&mut self) -> &mut W {
        self.sched.reset();
        &mut self.world
    }

    /// Execute a single event if one is pending. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some((at, _, mut cb)) => {
                debug_assert!(at >= self.sched.now, "time went backwards");
                self.sched.now = at;
                self.sched.executed += 1;
                cb.invoke(&mut self.world, &mut self.sched);
                self.sched.recycle(cb);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains, `deadline` passes, or `max_events`
    /// callbacks have executed. The clock never advances past `deadline`.
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> StopReason {
        let mut budget = max_events;
        loop {
            if budget == 0 {
                return StopReason::EventBudget;
            }
            match self.sched.queue.peek_time() {
                None => return StopReason::Idle,
                Some(t) if t > deadline => {
                    self.sched.now = deadline;
                    return StopReason::Deadline;
                }
                Some(_) => {
                    self.step();
                    budget -= 1;
                }
            }
        }
    }

    /// Run to quiescence with an event budget (default deadline: forever).
    pub fn run_to_idle(&mut self, max_events: u64) -> StopReason {
        self.run_until(SimTime::MAX, max_events)
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_run_in_order_and_advance_clock() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .after(SimDuration::from_millis(20), |w: &mut World, s| {
                w.log.push((s.now().as_micros(), "b"));
            });
        sim.scheduler()
            .after(SimDuration::from_millis(10), |w: &mut World, s| {
                w.log.push((s.now().as_micros(), "a"));
            });
        let reason = sim.run_to_idle(100);
        assert_eq!(reason, StopReason::Idle);
        assert_eq!(sim.world().log, vec![(10_000, "a"), (20_000, "b")]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn callbacks_can_chain() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler().after(SimDuration::from_millis(1), |_, s| {
            s.after(SimDuration::from_millis(2), |w: &mut World, s| {
                w.log.push((s.now().as_micros(), "chained"));
            });
        });
        sim.run_to_idle(10);
        assert_eq!(sim.world().log, vec![(3_000, "chained")]);
    }

    #[test]
    fn deadline_stops_and_clamps_clock() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .after(SimDuration::from_secs(10), |w: &mut World, _| {
                w.log.push((0, "too late"));
            });
        let reason = sim.run_until(SimTime::from_secs(1), 100);
        assert_eq!(reason, StopReason::Deadline);
        assert!(sim.world().log.is_empty());
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn event_budget_guards_runaway() {
        struct Loopy;
        fn respawn(_: &mut Loopy, s: &mut Scheduler<Loopy>) {
            s.after(SimDuration::from_micros(1), respawn);
        }
        let mut sim = Simulation::new(Loopy);
        sim.scheduler().after(SimDuration::ZERO, respawn);
        let reason = sim.run_to_idle(1_000);
        assert_eq!(reason, StopReason::EventBudget);
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut sim = Simulation::new(World::default());
        let id = sim
            .scheduler()
            .after(SimDuration::from_millis(5), |w: &mut World, _| {
                w.log.push((0, "cancelled"));
            });
        sim.scheduler().cancel(id);
        sim.run_to_idle(10);
        assert!(sim.world().log.is_empty());
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler().after(SimDuration::from_millis(10), |_, s| {
            // Scheduling "at zero" from t=10ms must not rewind the clock.
            s.at(SimTime::ZERO, |w: &mut World, s| {
                w.log.push((s.now().as_micros(), "late"));
            });
        });
        sim.run_to_idle(10);
        assert_eq!(sim.world().log, vec![(10_000, "late")]);
    }

    #[test]
    fn spent_callback_boxes_are_pooled_and_reused() {
        // Pool classes are keyed by closure type, i.e. by call site: the
        // same site scheduling visit after visit reuses its own box.
        let mut sim = Simulation::new(World::default());
        let schedule_one = |sim: &mut Simulation<World>, tag: &'static str| {
            sim.scheduler()
                .after(SimDuration::from_millis(1), move |w: &mut World, s| {
                    w.log.push((s.now().as_micros(), tag));
                });
        };
        schedule_one(&mut sim, "first");
        sim.run_to_idle(10);
        assert_eq!(sim.scheduler().pooled_callbacks(), 1);
        schedule_one(&mut sim, "second");
        assert_eq!(sim.scheduler().pooled_callbacks(), 0, "box was reused");
        sim.run_to_idle(10);
        assert_eq!(sim.world().log.len(), 2);
    }

    #[test]
    fn reset_swaps_world_and_rewinds_clock() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .after(SimDuration::from_millis(4), |w: &mut World, _| {
                w.log.push((0, "old"));
            });
        sim.run_to_idle(10);
        assert_eq!(sim.now(), SimTime::from_millis(4));

        let old = sim.reset(World::default());
        assert_eq!(old.log.len(), 1);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.scheduler().pending(), 0);
        assert_eq!(sim.scheduler().executed(), 0);

        // The reset simulation behaves exactly like a fresh one.
        sim.scheduler()
            .after(SimDuration::from_millis(2), |w: &mut World, s| {
                w.log.push((s.now().as_micros(), "new"));
            });
        sim.run_to_idle(10);
        assert_eq!(sim.world().log, vec![(2_000, "new")]);
    }

    #[test]
    fn reset_recycles_pending_callbacks() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .after(SimDuration::from_secs(1), |w: &mut World, _| {
                w.log.push((0, "never runs"));
            });
        sim.reset_in_place().log.clear();
        assert_eq!(sim.scheduler().pending(), 0);
        assert_eq!(
            sim.scheduler().pooled_callbacks(),
            1,
            "pending callback box was pooled, not leaked to the allocator"
        );
        sim.run_to_idle(10);
        assert!(sim.world().log.is_empty());
    }

    #[test]
    fn dropped_world_state_released_on_reset() {
        use std::rc::Rc;
        let marker = Rc::new(());
        let probe = marker.clone();
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .after(SimDuration::from_secs(5), move |_: &mut World, _| {
                let _keep = probe;
            });
        assert_eq!(Rc::strong_count(&marker), 2);
        sim.reset_in_place();
        // Captured state is dropped when the pending callback is recycled.
        assert_eq!(Rc::strong_count(&marker), 1);
    }
}
