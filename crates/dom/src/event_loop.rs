//! Single-threaded JavaScript main-thread model.
//!
//! The paper stresses (§7.2) that even well-optimized asynchronous HB calls
//! queue on the single JS thread, inflating both HB completion time and
//! page load time. [`JsThread`] models that contention: every task has an
//! arrival time and a service time; a task cannot start before the thread
//! is free, and the thread is busy until the task finishes.

use hb_simnet::{SimDuration, SimTime};

/// The page's single JavaScript execution thread.
#[derive(Debug, Clone)]
pub struct JsThread {
    busy_until: SimTime,
}

/// Scheduling result for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSlot {
    /// When the task actually starts executing.
    pub start: SimTime,
    /// When the task finishes (thread becomes free).
    pub end: SimTime,
    /// Time the task waited behind earlier tasks.
    pub queued_for: SimDuration,
}

impl Default for JsThread {
    fn default() -> Self {
        Self::new()
    }
}

impl JsThread {
    /// A fresh, idle thread.
    pub fn new() -> Self {
        JsThread {
            busy_until: SimTime::ZERO,
        }
    }

    /// Reserve the thread for a task arriving at `arrival` needing
    /// `service` CPU time. Returns when it will start and end.
    pub fn run_task(&mut self, arrival: SimTime, service: SimDuration) -> TaskSlot {
        let start = arrival.max(self.busy_until);
        let end = start + service;
        let queued_for = start.saturating_since(arrival);
        self.busy_until = end;
        TaskSlot {
            start,
            end,
            queued_for,
        }
    }

    /// When the thread next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_thread_starts_immediately() {
        let mut t = JsThread::new();
        let slot = t.run_task(SimTime::from_millis(5), SimDuration::from_millis(2));
        assert_eq!(slot.start, SimTime::from_millis(5));
        assert_eq!(slot.end, SimTime::from_millis(7));
        assert_eq!(slot.queued_for, SimDuration::ZERO);
    }

    #[test]
    fn overlapping_tasks_serialize() {
        let mut t = JsThread::new();
        t.run_task(SimTime::from_millis(0), SimDuration::from_millis(10));
        let slot = t.run_task(SimTime::from_millis(3), SimDuration::from_millis(4));
        assert_eq!(slot.start, SimTime::from_millis(10));
        assert_eq!(slot.end, SimTime::from_millis(14));
        assert_eq!(slot.queued_for, SimDuration::from_millis(7));
    }

    #[test]
    fn gaps_leave_thread_idle() {
        let mut t = JsThread::new();
        t.run_task(SimTime::from_millis(0), SimDuration::from_millis(1));
        let slot = t.run_task(SimTime::from_millis(100), SimDuration::from_millis(1));
        assert_eq!(slot.start, SimTime::from_millis(100));
        assert_eq!(slot.queued_for, SimDuration::ZERO);
        assert_eq!(t.busy_until(), SimTime::from_millis(101));
    }

    #[test]
    fn burst_queueing_accumulates() {
        // Ten responses all arriving at once: the last one waits 9 service times.
        let mut t = JsThread::new();
        let arrival = SimTime::from_millis(50);
        let mut last = TaskSlot {
            start: arrival,
            end: arrival,
            queued_for: SimDuration::ZERO,
        };
        for _ in 0..10 {
            last = t.run_task(arrival, SimDuration::from_millis(5));
        }
        assert_eq!(last.queued_for, SimDuration::from_millis(45));
        assert_eq!(last.end, SimTime::from_millis(100));
    }
}
