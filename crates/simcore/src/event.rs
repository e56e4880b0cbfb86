//! Stable timestamped event queue.
//!
//! A discrete-event simulation repeatedly pops the earliest pending
//! event, advances the clock to its timestamp, and handles it (usually
//! scheduling more events). Binary heaps are not stable, so two events
//! with the same timestamp could pop in an arbitrary, allocator-
//! dependent order — poison for reproducibility. [`EventQueue`] breaks
//! timestamp ties with a monotone insertion sequence number, making the
//! pop order a pure function of the push history.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of payload type `E` scheduled at a virtual time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence number (unique per queue, monotone in push order).
    pub seq: u64,
    /// The simulation-specific payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    /// Reverse ordering so that `BinaryHeap` (a max-heap) pops the
    /// event with the *smallest* `(at, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic min-queue of timestamped events.
///
/// # Example
/// ```
/// use dck_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::seconds(5.0), "b");
/// q.push(SimTime::seconds(1.0), "a");
/// q.push(SimTime::seconds(5.0), "c"); // same time as "b": FIFO among ties
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at time `at`. Returns the sequence number
    /// assigned to the event (handy for logging/cancellation layers).
    pub fn push(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
        seq
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Moves the earliest event to time `at`, keeping its payload, and
    /// returns the fresh sequence number it is given; `None` if empty.
    ///
    /// Equivalent to popping the earliest event and pushing its payload
    /// back at `at` — the pending `(at, seq, payload)` set, and so the
    /// pop order, is the same — but it sifts the heap once instead of
    /// twice.
    pub fn reschedule_first(&mut self, at: SimTime) -> Option<u64> {
        let mut top = self.heap.peek_mut()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        top.at = at;
        top.seq = seq;
        Some(seq)
    }

    /// Peeks at the earliest event without removing it.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        self.heap.peek()
    }

    /// The timestamp of the earliest pending event, or `None` if empty.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events but keeps the sequence counter, so a
    /// cleared-and-reused queue still orders new ties after old pushes.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drains events up to and including time `horizon`, in order.
    pub fn drain_until(&mut self, horizon: SimTime) -> Vec<ScheduledEvent<E>> {
        let mut out = Vec::new();
        while self.heap.peek().is_some_and(|e| e.at <= horizon) {
            out.extend(self.heap.pop());
        }
        out
    }
}

/// Builds the queue in O(n) by heapifying once. Events get sequence
/// numbers in iteration order, so the queue pops exactly as if each
/// had been [`EventQueue::push`]ed in that order.
impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(events: I) -> Self {
        let events: Vec<ScheduledEvent<E>> = events
            .into_iter()
            .zip(0u64..)
            .map(|((at, payload), seq)| ScheduledEvent { at, seq, payload })
            .collect();
        EventQueue {
            next_seq: events.len() as u64,
            heap: BinaryHeap::from(events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, v) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            q.push(SimTime::seconds(t), v);
        }
        let got: Vec<char> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::seconds(7.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn drain_until_respects_horizon() {
        let mut q = EventQueue::new();
        for t in [1.0, 2.0, 3.0, 4.0] {
            q.push(SimTime::seconds(t), t);
        }
        let drained = q.drain_until(SimTime::seconds(2.5));
        assert_eq!(drained.len(), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(SimTime::seconds(3.0)));
    }

    #[test]
    fn clear_keeps_counter_monotone() {
        let mut q = EventQueue::new();
        let s0 = q.push(SimTime::ZERO, ());
        q.clear();
        let s1 = q.push(SimTime::ZERO, ());
        assert!(s1 > s0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.peek().is_none());
        assert!(q.next_time().is_none());
    }
}
