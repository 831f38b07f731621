//! Property tests pinning the scheduler's ordering contract: events drain
//! in (time, scheduling-order) order, exactly matching a stable sort by
//! time — no matter how adversarial the insertion pattern — and a
//! differential test against a `BinaryHeap` reference under interleaved
//! schedule/pop traffic whose offsets reach every radix bucket level.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use press_sim::{Model, Scheduler, SimTime, Simulator};
use proptest::collection::vec;
use proptest::prelude::*;

/// A follow-up offset in ns at one of five scales, picked by `scale`: a
/// tie at `now`, 1–100 ns, up to 1 ms in µs steps, anything up to 2⁴⁰
/// ns, or a small offset that makes ties with other follow-ups likely.
fn offset(scale: u8, raw: u64) -> u64 {
    match scale {
        0 => 0,
        1 => 1 + raw % 100,
        2 => 1_000 * (1 + raw % 1_000),
        3 => raw % (1 << 40),
        _ => raw % 4,
    }
}

/// The steps of a differential run, each `(op, scale, raw)`: `op < 3`
/// schedules one event at `now + offset(scale, raw)`, and any other `op`
/// pops one. Schedules outnumber pops, so queues grow and buckets fill
/// before they drain.
fn ops() -> impl Strategy<Value = Vec<(u8, u8, u64)>> {
    vec((0u8..5, 0u8..5, 0u64..u64::MAX), 1..400)
}

/// Records `(fire_time, payload)` for every event it sees, optionally
/// chaining one follow-up per event to exercise interleaved push/pop.
#[derive(Default)]
struct Recorder {
    seen: Vec<(u64, u64)>,
}

impl Model for Recorder {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, _sched: &mut Scheduler<u64>) {
        self.seen.push((now.as_nanos(), ev));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Draining the queue yields exactly the input stable-sorted by time:
    /// ties at one instant keep their scheduling order.
    #[test]
    fn drain_order_is_stable_sort_by_time(times in vec(0u64..500, 1..200)) {
        let mut sim = Simulator::new(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler_mut().schedule(SimTime::from_nanos(t), i as u64);
        }
        sim.run();

        let mut expected: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order per time
        prop_assert_eq!(&sim.model().seen, &expected);
        prop_assert_eq!(sim.processed(), times.len() as u64);
    }

    /// Interleaving pops with pushes (the real engine pattern) preserves
    /// the same contract: each pop returns the earliest pending event,
    /// scheduling order breaking ties.
    #[test]
    fn interleaved_push_pop_keeps_ordering(
        batches in vec(vec(0u64..100, 1..10), 1..30),
    ) {
        struct Chain {
            // Future events each handled event schedules, keyed by batch.
            pending_batches: Vec<Vec<u64>>,
            seen: Vec<(u64, u64)>,
            next_payload: u64,
        }
        impl Model for Chain {
            type Event = u64;
            fn handle(&mut self, now: SimTime, ev: u64, sched: &mut Scheduler<u64>) {
                self.seen.push((now.as_nanos(), ev));
                if let Some(offsets) = self.pending_batches.pop() {
                    for off in offsets {
                        let payload = self.next_payload;
                        self.next_payload += 1;
                        sched.schedule(now + SimTime::from_nanos(off), payload);
                    }
                }
            }
        }

        let mut sim = Simulator::new(Chain {
            pending_batches: batches.clone(),
            seen: Vec::new(),
            next_payload: 1,
        });
        sim.scheduler_mut().schedule(SimTime::ZERO, 0);
        sim.run();

        // The times must be non-decreasing, and within one instant the
        // payloads must appear in scheduling (payload) order.
        let seen = &sim.model().seen;
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie fired out of order: {:?}", w);
            }
        }
        // Every scheduled event fired exactly once.
        let total: usize = 1 + batches.iter().map(Vec::len).sum::<usize>();
        prop_assert_eq!(seen.len(), total);
        prop_assert_eq!(sim.processed(), total as u64);
        let mut payloads: Vec<u64> = seen.iter().map(|&(_, p)| p).collect();
        payloads.sort_unstable();
        prop_assert_eq!(payloads, (0..total as u64).collect::<Vec<_>>());
    }

    /// total_scheduled counts every schedule call, popped or pending.
    #[test]
    fn total_scheduled_counts_all(times in vec(0u64..50, 0..40), drain in prop::bool::ANY) {
        let mut sim = Simulator::new(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler_mut().schedule(SimTime::from_nanos(t), i as u64);
        }
        if drain {
            sim.run();
            prop_assert_eq!(sim.scheduler_mut().pending(), 0);
        } else {
            prop_assert_eq!(sim.scheduler_mut().pending(), times.len());
        }
        prop_assert_eq!(sim.scheduler_mut().total_scheduled(), times.len() as u64);
    }

    /// The scheduler and a `BinaryHeap<Reverse<(time, seq)>>` reference
    /// agree on every pop, on `pending()` and on `total_scheduled()`,
    /// under interleaved schedule/pop traffic. Follow-ups land at `now`
    /// (the last popped time) plus an offset of any scale, so keys differ
    /// from the last popped key first at bits all through the
    /// sequence-number field and the low 41 bits of the time field.
    #[test]
    fn matches_binary_heap_reference(steps in ops()) {
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for &(op, scale, raw) in &steps {
            if op < 3 {
                let at = now + offset(scale, raw);
                sched.schedule(SimTime::from_nanos(at), seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let got = sched.pop().map(|(t, e)| (t.as_nanos(), e));
                let want = reference.pop().map(|Reverse(p)| p);
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            prop_assert_eq!(sched.pending(), reference.len());
            prop_assert_eq!(sched.total_scheduled(), seq);
        }
        // Drain both, still scheduling a tie and a near follow-up per pop
        // so the tail also mixes pushes into re-bucketed levels.
        let mut budget = steps.len();
        while let Some(Reverse(want)) = reference.pop() {
            let got = sched.pop().map(|(t, e)| (t.as_nanos(), e));
            prop_assert_eq!(got, Some(want));
            if budget > 0 {
                budget -= 1;
                for at in [want.0, want.0 + offset(1, want.1)] {
                    sched.schedule(SimTime::from_nanos(at), seq);
                    reference.push(Reverse((at, seq)));
                    seq += 1;
                }
            }
        }
        prop_assert!(sched.pop().is_none());
        prop_assert_eq!(sched.pending(), 0);
        prop_assert_eq!(sched.total_scheduled(), seq);
    }
}
