//! Deterministic discrete-event queue.
//!
//! Events are ordered by simulation time with a monotonically increasing
//! sequence number as a tiebreaker, so simulations are fully deterministic
//! regardless of insertion order of simultaneous events.
//!
//! [`BinaryHeapQueue`] — a `std::collections::BinaryHeap` — is the queue of
//! the exact reference engine
//! ([`Simulation::with_reference_engine`](crate::sim::Simulation::with_reference_engine)).
//! The streaming engine needs no general-purpose queue: it keeps generation
//! slots in a flat min-heap and completions in a FIFO (see [`crate::sim`]).

use hidwa_units::TimeSpan;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events processed by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A node's traffic source produced a frame of `bytes` application data.
    FrameGenerated {
        /// Index of the producing node.
        node: usize,
        /// Application bytes in the frame.
        bytes: usize,
    },
    /// The medium finished carrying the frame at the head of the schedule.
    TransmissionComplete {
        /// Index of the transmitting node.
        node: usize,
        /// Application bytes delivered.
        bytes: usize,
        /// When the frame was generated (for latency accounting).
        generated_at: TimeSpan,
    },
    /// Periodic bookkeeping tick (MAC schedule rollover).
    Tick,
}

/// An event tagged with its firing time and sequence number.
#[derive(Debug, Clone)]
struct Scheduled {
    time: TimeSpan,
    sequence: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sequence == other.sequence
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue backed by `std::collections::BinaryHeap`:
/// earliest time first, ties in insertion order.
#[derive(Debug, Default)]
pub struct BinaryHeapQueue {
    heap: BinaryHeap<Scheduled>,
    next_sequence: u64,
}

impl BinaryHeapQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at an absolute simulation time.
    pub fn schedule(&mut self, time: TimeSpan, event: Event) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Scheduled {
            time,
            sequence,
            event,
        });
    }

    /// Pops the earliest event, returning its time and payload.
    pub fn pop(&mut self) -> Option<(TimeSpan, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(TimeSpan::from_seconds(2.0), Event::Tick);
        q.schedule(
            TimeSpan::from_seconds(1.0),
            Event::FrameGenerated { node: 0, bytes: 1 },
        );
        q.schedule(TimeSpan::from_seconds(3.0), Event::Tick);
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, TimeSpan::from_seconds(1.0));
        assert!(matches!(e1, Event::FrameGenerated { .. }));
        assert_eq!(q.pop().unwrap().0, TimeSpan::from_seconds(2.0));
        assert_eq!(q.pop().unwrap().0, TimeSpan::from_seconds(3.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_preserve_insertion_order() {
        let mut q = BinaryHeapQueue::new();
        let t = TimeSpan::from_seconds(1.0);
        q.schedule(t, Event::FrameGenerated { node: 1, bytes: 1 });
        q.schedule(t, Event::FrameGenerated { node: 2, bytes: 2 });
        q.schedule(t, Event::FrameGenerated { node: 3, bytes: 3 });
        let order: Vec<usize> = (0..3)
            .map(|_| match q.pop().unwrap().1 {
                Event::FrameGenerated { node, .. } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.is_empty());
        q.schedule(TimeSpan::ZERO, Event::Tick);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn infinite_times_pop_last() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(
            TimeSpan::from_seconds(f64::INFINITY),
            Event::FrameGenerated { node: 9, bytes: 9 },
        );
        q.schedule(TimeSpan::from_seconds(1.0), Event::Tick);
        assert_eq!(q.pop().unwrap().0, TimeSpan::from_seconds(1.0));
        let (t, e) = q.pop().unwrap();
        assert!(t.as_seconds().is_infinite());
        assert!(matches!(e, Event::FrameGenerated { node: 9, .. }));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_key_pile_up_drains_fast() {
        // 100k simultaneous events drain in insertion order, in well under
        // a second even on a loaded machine.
        let n = 100_000usize;
        let mut q = BinaryHeapQueue::new();
        let t = TimeSpan::from_millis(0.25);
        for i in 0..n {
            q.schedule(t, Event::FrameGenerated { node: i, bytes: 1 });
        }
        let start = std::time::Instant::now();
        for i in 0..n {
            match q.pop().unwrap().1 {
                Event::FrameGenerated { node, .. } => assert_eq!(node, i),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(q.is_empty());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "same-key drain took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn growth_keeps_order_under_load() {
        // Clustered and spread-out times with ties, pushed through several
        // reallocations of the heap: pops follow (time, insertion) order.
        let mut q = BinaryHeapQueue::new();
        let mut expected = Vec::new();
        for i in 0..2000usize {
            let t = TimeSpan::from_seconds(((i * 37) % 500) as f64 * 0.01);
            q.schedule(t, Event::FrameGenerated { node: i, bytes: 1 });
            expected.push((t.as_seconds(), i));
        }
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(q.len(), expected.len());
        for (seconds, node) in expected {
            let (t, event) = q.pop().unwrap();
            assert_eq!(t.as_seconds(), seconds);
            assert_eq!(event, Event::FrameGenerated { node, bytes: 1 });
        }
        assert!(q.is_empty());
    }
}
