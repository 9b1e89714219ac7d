//! The network's event list: a calendar queue with O(1) push and pop.
//!
//! A power-of-two ring of per-cycle FIFO buckets, indexed by
//! `cycle & mask`. The network ticks consecutive cycles and may jump over
//! cycles up to, but not past, the first non-empty bucket
//! ([`CalendarQueue::next_cycle`]), so tick `c` drains exactly bucket
//! `c`, and every queued event lies within one revolution of the current
//! cycle. Each bucket therefore holds one cycle's events in push order,
//! which *is* `(cycle, seq)` order: events pop in the order the binary
//! heap this replaces delivered them. An occupancy bitset, one bit per
//! bucket, answers the next-cycle query in ring/64 word reads.
//!
//! Buckets are linked lists threaded through one slab of nodes with a
//! free list, so memory is O(events in flight) however long the ring
//! gets. The ring starts small and doubles whenever an event is scheduled
//! a revolution or more ahead (slow links and degraded-BER retransmits
//! make the horizon unbounded), re-homing whole bucket lists.

use memnet_common::time::narrow_u32;

const NIL: u32 = u32::MAX;
const INITIAL_BUCKETS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    ev: T,
    next: u32,
}

/// Slab indices of one cycle's first and last event.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// Time-ordered event queue for a clock that advances one cycle at a
/// time. Every method takes the caller's current cycle `now`; the caller
/// must pop bucket `now` empty before moving on to `now + 1`, and may
/// move further only up to [`CalendarQueue::next_cycle`].
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    /// The ring; its length is a power of two, at least 64.
    buckets: Vec<Bucket>,
    /// Bit `s` is set while bucket `s` holds an event.
    occupied: Vec<u64>,
    nodes: Vec<Node<T>>,
    /// Head of the free-node list, linked through `Node::next`.
    free: u32,
    len: usize,
}

impl<T: Copy> CalendarQueue<T> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: vec![EMPTY; INITIAL_BUCKETS],
            occupied: vec![0; INITIAL_BUCKETS / 64],
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every event; the ring keeps its size.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.occupied.fill(0);
        self.nodes.clear();
        self.free = NIL;
        self.len = 0;
    }

    #[allow(clippy::cast_possible_truncation, reason = "masked below the bucket count")]
    fn slot(&self, cycle: u64) -> usize {
        (cycle & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Schedules `ev` for `cycle >= now`, behind everything already
    /// scheduled for that cycle.
    pub(crate) fn push(&mut self, now: u64, cycle: u64, ev: T) {
        debug_assert!(cycle >= now, "event scheduled in the past");
        if cycle - now >= self.buckets.len() as u64 {
            self.grow(now, cycle);
        }
        let node = Node { ev, next: NIL };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            narrow_u32(self.nodes.len() as u64 - 1, "event slab index")
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        let slot = self.slot(cycle);
        let b = &mut self.buckets[slot];
        if b.head == NIL {
            b.head = idx;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.nodes[b.tail as usize].next = idx;
        }
        b.tail = idx;
        self.len += 1;
    }

    /// Takes the oldest event scheduled for cycle `now`.
    pub(crate) fn pop(&mut self, now: u64) -> Option<T> {
        let slot = self.slot(now);
        let idx = self.buckets[slot].head;
        if idx == NIL {
            return None;
        }
        let Node { ev, next } = self.nodes[idx as usize];
        self.buckets[slot].head = next;
        if next == NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.len -= 1;
        Some(ev)
    }

    /// The first cycle at or after `now` whose bucket holds an event, or
    /// `None` when the queue is empty: the furthest the caller may move
    /// without popping.
    pub(crate) fn next_cycle(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // Walk the bitset one revolution from `now`'s slot, wrapping once;
        // the starting word is read twice, its high bits first.
        let words = self.occupied.len();
        let start = self.slot(now);
        let (w0, bit) = (start / 64, start % 64);
        let mut word = self.occupied[w0] & (!0 << bit);
        for k in 0..=words {
            if word != 0 {
                let slot = (w0 + k) % words * 64 + word.trailing_zeros() as usize;
                let ahead = slot.wrapping_sub(start) & (self.buckets.len() - 1);
                return Some(now + ahead as u64);
            }
            word = self.occupied[(w0 + k + 1) % words];
        }
        unreachable!("a non-empty queue has an occupied bucket")
    }

    /// Doubles the ring until `cycle` fits within one revolution of
    /// `now`. Every queued event lies in `now..now + old_len` and each old
    /// bucket holds a single cycle's events, so lists move whole.
    fn grow(&mut self, now: u64, cycle: u64) {
        let old = std::mem::take(&mut self.buckets);
        let mut size = old.len();
        while cycle - now >= size as u64 {
            size *= 2;
        }
        self.buckets = vec![EMPTY; size];
        self.occupied = vec![0; size / 64];
        #[allow(clippy::cast_possible_truncation, reason = "masked below old.len()")]
        for c in now..now + old.len() as u64 {
            let b = old[(c & (old.len() as u64 - 1)) as usize];
            if b.head != NIL {
                let slot = self.slot(c);
                self.buckets[slot] = b;
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_common::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives the calendar queue and a `(cycle, seq)` binary heap — the
    /// structure it replaced — through one schedule and requires the same
    /// pop order, and [`CalendarQueue::next_cycle`] to name the heap's
    /// earliest cycle at every step. `delay` draws how far ahead each push
    /// lands. The clock starts at a seeded cycle so the ring is entered
    /// mid-revolution, and moves by one cycle — or with `jump`, straight
    /// to the first non-empty bucket, as a parked network does — and
    /// while the queue is empty, sometimes by many revolutions.
    fn differential(
        seed: u64,
        ticks: u64,
        jump: bool,
        mut delay: impl FnMut(&mut SplitMix64) -> u64,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = rng.next_below(1 << 40);
        let mut popped = 0u64;
        let earliest = |heap: &BinaryHeap<Reverse<(u64, u64)>>| heap.peek().map(|r| r.0 .0);
        for _ in 0..ticks {
            assert_eq!(q.next_cycle(now), earliest(&heap), "next cycle at {now}");
            // Deliver: the heap pops everything due, the queue bucket `now`.
            while let Some(&Reverse((c, s))) = heap.peek() {
                if c > now {
                    break;
                }
                heap.pop();
                assert_eq!(c, now, "the reference never holds an overdue event");
                assert_eq!(q.pop(now), Some(s), "pop order diverged at cycle {now}");
                popped += 1;
            }
            assert_eq!(q.pop(now), None, "queue holds an event the heap does not");
            // Schedule a burst, sometimes several for one cycle.
            for _ in 0..rng.next_below(6) {
                let at = now + 1 + delay(&mut rng);
                for _ in 0..1 + rng.next_below(3) {
                    seq += 1;
                    heap.push(Reverse((at, seq)));
                    q.push(now, at, seq);
                }
            }
            assert_eq!(q.is_empty(), heap.is_empty());
            assert_eq!(q.next_cycle(now + 1), earliest(&heap));
            now = match (jump, earliest(&heap)) {
                (true, Some(c)) => c,
                (_, None) if rng.chance(0.3) => now + 1 + rng.next_below(10_000),
                _ => now + 1,
            };
        }
        assert!(popped > ticks, "schedule too thin to mean anything");
    }

    #[test]
    fn pops_in_cycle_then_push_order_within_the_initial_ring() {
        // Delays under one revolution: same-cycle bursts and wrap-around.
        for jump in [false, true] {
            differential(1, 20_000, jump, |rng| {
                rng.next_below(INITIAL_BUCKETS as u64 - 1)
            });
        }
    }

    #[test]
    fn growth_mid_flight_keeps_the_order() {
        // Mostly short hops with a rare ×10, ×100 or ×1000 one (a slow
        // link, degraded), pushed while nearer events are still queued: a
        // fresh queue per seed, so each grows in its own stages from its
        // own cycle.
        for seed in 0..64 {
            for jump in [false, true] {
                differential(seed, 2_000, jump, |rng| {
                    let d = rng.next_below(40);
                    if rng.chance(0.005) {
                        d * [10, 100, 1000][rng.next_below(3) as usize]
                    } else {
                        d
                    }
                });
            }
        }
    }

    #[test]
    fn horizon_jump_lands_in_a_rehomed_bucket() {
        let mut q = CalendarQueue::new();
        let now = 1_000_003;
        q.push(now, now + 5, 'a');
        q.push(now, now + 5, 'b');
        q.push(now, now + 63, 'c');
        // One revolution of the initial ring ahead: forces a grow.
        q.push(now, now + 64 * 1000, 'z');
        q.push(now, now + 5, 'd');
        assert!(q.buckets.len() >= 64 * 1000 && q.buckets.len().is_power_of_two());
        let mut out = Vec::new();
        for c in now..=now + 64 * 1000 {
            while let Some(e) = q.pop(c) {
                out.push((c - now, e));
            }
        }
        assert_eq!(
            out,
            vec![(5, 'a'), (5, 'b'), (5, 'd'), (63, 'c'), (64_000, 'z')]
        );
        assert!(q.is_empty());
        assert_eq!(q.nodes.len(), 5, "slab holds only what was in flight");
    }

    #[test]
    fn slab_memory_tracks_events_in_flight_not_ring_size() {
        let mut q = CalendarQueue::new();
        for now in 0..100_000u64 {
            while q.pop(now).is_some() {}
            q.push(now, now + 1 + now % 50, now);
            q.push(now, now + 3, now);
        }
        assert!(q.nodes.len() <= 2 * 51, "free list must recycle nodes");
    }
}
