//! Property proof that [`EventQueue`] is observationally identical to a
//! plain `(time, seq)` binary heap.
//!
//! Every simulator in this workspace depends on the queue's exact
//! `(time, payload)` stream — same-instant events must pop in schedule
//! order — so the queue is exercised here against a test-local heap
//! reference on randomized interleavings of schedules and pops,
//! including heavy ties, far-future events (the ladder's overflow path
//! once promoted), scheduling-at-now edge cases, occupancy ramps crossing
//! the promotion threshold mid-program, and runs after a `reset`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use jockey_simrt::event::EventQueue;
use jockey_simrt::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The reference: a min-heap on `(time, seq, payload)` with the
/// sequence assigned at schedule time, so ties pop FIFO.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
    now: SimTime,
}

impl Reference {
    fn schedule(&mut self, at: SimTime, event: u32) {
        assert!(at >= self.now);
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// One step of an interleaved workload. Schedule offsets are relative
/// to the queue's current "now" so generated programs never violate the
/// no-scheduling-into-the-past contract.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `offset_ms` after the last popped time.
    Schedule { offset_ms: u64 },
    /// Pop the next event (a no-op on an empty queue).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix decoded from a selector: mostly short offsets
    // (bucket window), some zero (same-instant ties), a few far-future
    // ones (overflow path, > 262 s window), and pops.
    (0_u8..9, 0_u64..5_000, 300_000_u64..3_000_000).prop_map(|(sel, short, far)| match sel {
        0..=3 => Op::Schedule { offset_ms: short },
        4 => Op::Schedule { offset_ms: 0 },
        5 => Op::Schedule { offset_ms: far },
        _ => Op::Pop,
    })
}

/// Runs `ops` on the queue and the reference in lockstep, checking
/// every observable after each step, then drains both.
fn run_in_lockstep(queue: &mut EventQueue<u32>, reference: &mut Reference, ops: &[Op]) {
    let mut next_id: u32 = 0;
    for op in ops {
        match *op {
            Op::Schedule { offset_ms } => {
                let at = queue.now() + SimDuration::from_millis(offset_ms);
                queue.schedule(at, next_id);
                reference.schedule(at, next_id);
                next_id += 1;
            }
            Op::Pop => prop_assert_eq!(queue.pop(), reference.pop()),
        }
        prop_assert_eq!(queue.len(), reference.heap.len());
        prop_assert_eq!(queue.peek_time(), reference.peek_time());
        prop_assert_eq!(queue.now(), reference.now);
    }
    // Drain whatever is left: the tails must agree element-for-element.
    // A promoted queue with far-future events left over migrates them
    // out of the overflow heap here.
    loop {
        let a = queue.pop();
        prop_assert_eq!(a, reference.pop());
        if a.is_none() {
            return;
        }
    }
}

proptest! {
    /// Interleaved schedule/pop programs produce the reference's
    /// `(time, payload)` stream. A prefill of up to 300 events puts some
    /// programs past the promotion threshold before the first pop, so
    /// both representations run the mix.
    #[test]
    fn queue_matches_reference_on_interleaved_programs(
        prefill in proptest::collection::vec(op_strategy(), 0..300),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut queue = EventQueue::new();
        let mut reference = Reference::default();
        let program: Vec<Op> = prefill
            .into_iter()
            .filter(|op| matches!(op, Op::Schedule { .. }))
            .chain(ops)
            .collect();
        run_in_lockstep(&mut queue, &mut reference, &program);
    }

    /// Programs deep enough to force promotion mid-stream stay identical
    /// to the reference through the representation switch, and the
    /// switch itself is observed.
    #[test]
    fn promotion_preserves_the_stream(
        depth in 150_usize..400,
        offsets in proptest::collection::vec(0_u64..30_000, 600..900),
    ) {
        let mut queue = EventQueue::new();
        let mut reference = Reference::default();
        for (i, &off) in offsets.iter().enumerate() {
            let at = queue.now() + SimDuration::from_millis(off);
            let id = i as u32;
            queue.schedule(at, id);
            reference.schedule(at, id);
            // Hold the queue near `depth` pending events.
            if i >= depth {
                prop_assert_eq!(queue.pop(), reference.pop());
            }
        }
        prop_assert!(queue.is_promoted());
        loop {
            let a = queue.pop();
            prop_assert_eq!(a, reference.pop());
            if a.is_none() {
                break;
            }
        }
    }

    /// After a run that promoted, `reset` demotes and the queue replays
    /// a second program exactly like a fresh one: "now" is back at zero
    /// and the pending events of the first run are gone.
    #[test]
    fn reset_demotes_and_replays_like_a_fresh_queue(
        first in proptest::collection::vec(0_u64..3_000_000, 128..300),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut queue = EventQueue::new();
        for (i, &at) in first.iter().enumerate() {
            queue.schedule(SimTime::from_millis(at), i as u32);
        }
        prop_assert!(queue.is_promoted());
        // Leave part of the first run pending: reset must drop it.
        for _ in 0..first.len() / 2 {
            queue.pop();
        }
        queue.reset();
        prop_assert!(!queue.is_promoted());
        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.now(), SimTime::ZERO);
        run_in_lockstep(&mut queue, &mut Reference::default(), &ops);
    }

    /// Bursts of same-instant events pop FIFO, in the heap and after
    /// promotion, even when interleaved with later bursts.
    #[test]
    fn same_instant_bursts_pop_fifo(
        burst_sizes in proptest::collection::vec(1_usize..40, 1..20),
        gap_ms in 0_u64..2_000,
    ) {
        let mut q = EventQueue::new();
        let mut reference = Reference::default();
        let mut id: u32 = 0;
        let mut t = SimTime::ZERO;
        for &n in &burst_sizes {
            for _ in 0..n {
                q.schedule(t, id);
                reference.schedule(t, id);
                id += 1;
            }
            t += SimDuration::from_millis(gap_ms);
        }
        let mut popped = 0_usize;
        while let Some((at, e)) = q.pop() {
            prop_assert_eq!(Some((at, e)), reference.pop());
            // FIFO across the whole program: ids were assigned in
            // nondecreasing time order, so the stream is exactly 0..id.
            prop_assert_eq!(e, popped as u32);
            popped += 1;
        }
        prop_assert_eq!(popped, id as usize);
    }

    /// The queue rejects scheduling before the last popped time and
    /// accepts scheduling exactly at it, both before and after
    /// promotion.
    #[test]
    fn past_rejection_holds_in_both_representations(
        first_ms in 1_u64..1_000_000,
        behind_ms in 1_u64..1_000,
    ) {
        for promoted in [false, true] {
            let mut q = EventQueue::new();
            let pending = if promoted { EventQueue::<u8>::ADAPTIVE_PROMOTE_LEN } else { 1 };
            for _ in 0..pending {
                q.schedule(SimTime::from_millis(first_ms), 0_u8);
            }
            prop_assert_eq!(q.is_promoted(), promoted);
            q.pop();
            // Exactly at now: allowed, and FIFO behind the pending ties.
            q.schedule(q.now(), 1);
            for _ in 1..pending {
                prop_assert_eq!(q.pop(), Some((SimTime::from_millis(first_ms), 0)));
            }
            prop_assert_eq!(q.pop(), Some((SimTime::from_millis(first_ms), 1)));
            // Strictly before now: rejected by panic.
            let at = SimTime::from_millis(first_ms.saturating_sub(behind_ms));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.schedule(at, 2);
            }));
            prop_assert!(result.is_err(), "promoted={promoted} accepted a past event");
        }
    }
}
