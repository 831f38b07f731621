//! The event loop: a time-ordered queue of model events.

use crate::time::SimTime;

/// A simulation model: application state plus an event handler.
///
/// The engine is generic over the event type so that models can use a plain
/// `enum` of events with no boxing on the hot path.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handles one event at simulated time `now`.
    ///
    /// The handler may schedule any number of future events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Low key bits holding the event's slot in the slab.
const SLOT_BITS: u32 = 24;
/// Key bits holding the scheduling sequence number, above the slot.
const SEQ_BITS: u32 = 40;
/// At most this many events may be pending at once (slots are 24 bits).
const MAX_PENDING: usize = 1 << SLOT_BITS;
/// One bucket per bit position of a 128-bit key, plus bucket 0 for a key
/// equal to the last popped one (only a first key of 0 can be).
const BUCKETS: usize = 129;

/// The event queue handed to [`Model::handle`] for scheduling future events.
///
/// Models only insert events; popping is normally the engine's job (the
/// engine borrows the model mutably while the model schedules), but
/// [`Scheduler::pop`] is public for standalone use and benchmarking.
///
/// Internally this is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
/// Tarjan, 1990) over `u128` keys packed as `time << 64 | seq << 24 |
/// slot`:
///
/// - `time` is the firing time in ns. `seq` is a 40-bit sequence number
///   that breaks ties between events scheduled for the same instant, so
///   they fire in scheduling order and runs are reproducible.
/// - `slot` indexes a slab of event payloads. A payload is written into
///   its slot once, by [`Scheduler::schedule`], and taken out once, by
///   [`Scheduler::pop`]; only the 16-byte keys move between buckets.
/// - A key lives in bucket `128 - (key ^ last).leading_zeros()`, where
///   `last` is the last popped key: one more than the position of the
///   highest bit in which the two differ. `pop` takes the least key of
///   the lowest non-empty bucket and re-buckets the rest of that bucket,
///   each into a lower one, so a key moves down at most 128 times in all.
///
/// The queue is monotone: an event may not be scheduled before the last
/// popped one, and at most 2²⁴ events may be pending at once. Both are
/// checked on [`Scheduler::schedule`].
pub struct Scheduler<E> {
    /// Pending keys, bucketed by their highest bit differing from `last`.
    buckets: [Vec<u128>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty, for `b < 128`.
    /// Bucket 128 (the top bit of `time` differs) has no bit: it is the
    /// one left when the mask is clear and keys are pending.
    occupied: u128,
    /// The last popped key; no pending key is less.
    last: u128,
    /// Event payloads by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused before the slab grows.
    free: Vec<u32>,
    /// Sequence number for the next schedule, and the all-time total.
    next_seq: u64,
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The bucket of `key` relative to the last popped key.
#[inline]
fn bucket_of(key: u128, last: u128) -> usize {
    128 - (key ^ last).leading_zeros() as usize
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("pending", &self.pending())
            .field("total_scheduled", &self.next_seq)
            .finish()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Events scheduled for the same instant fire in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last popped event (a model bug), if
    /// 2²⁴ events are already pending, or after 2⁴⁰ schedules in all.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        assert!(seq < 1 << SEQ_BITS, "more than 2^40 events scheduled");
        // Checked before the slot is known: at an equal time the larger
        // `seq` already puts the key above `last`, whatever the slot.
        let key = (u128::from(at.as_nanos()) << 64) | (u128::from(seq) << SLOT_BITS);
        assert!(key >= self.last, "event scheduled in the past");
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                assert!(
                    self.slots.len() < MAX_PENDING,
                    "more than 2^24 events pending at once"
                );
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        self.push_key(key | u128::from(slot));
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        // Sequence numbers are dense from zero, so the next one to hand
        // out doubles as the all-time count.
        self.next_seq
    }

    /// Removes and returns the earliest pending event, if any.
    ///
    /// Ties on time come out in scheduling order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let b = self.first_bucket()?;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let (i, key) = min_key(&bucket);
        bucket.swap_remove(i);
        self.last = key;
        self.occupied &= !bit(b);
        // Every other key of the bucket agrees with the new `last` on bit
        // `b - 1` and every bit above it, so it lands in a lower bucket;
        // the keys of higher buckets keep theirs.
        for &k in &bucket {
            self.push_key(k);
        }
        bucket.clear();
        self.buckets[b] = bucket;
        let slot = (key as u32 & (MAX_PENDING as u32 - 1)) as usize;
        let event = self.slots[slot]
            .take()
            .expect("a pending key owns its slot");
        self.free.push(slot as u32);
        Some((unpack_time(key), event))
    }

    /// The time of the earliest pending event, without removing it.
    fn peek_time(&self) -> Option<SimTime> {
        let b = self.first_bucket()?;
        Some(unpack_time(min_key(&self.buckets[b]).1))
    }

    #[inline]
    fn push_key(&mut self, key: u128) {
        let b = bucket_of(key, self.last);
        self.buckets[b].push(key);
        self.occupied |= bit(b);
    }

    /// The lowest non-empty bucket, if any event is pending.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        if self.occupied != 0 {
            Some(self.occupied.trailing_zeros() as usize)
        } else if !self.buckets[BUCKETS - 1].is_empty() {
            Some(BUCKETS - 1)
        } else {
            None
        }
    }
}

/// The mask bit of bucket `b`; bucket 128 has none.
#[inline]
fn bit(b: usize) -> u128 {
    1u128.checked_shl(b as u32).unwrap_or(0)
}

/// Index and value of the least key in a non-empty bucket.
#[inline]
fn min_key(bucket: &[u128]) -> (usize, u128) {
    let mut best = (0, bucket[0]);
    for (i, &k) in bucket.iter().enumerate().skip(1) {
        if k < best.1 {
            best = (i, k);
        }
    }
    best
}

/// The simulation engine: owns the model, the clock, and the event queue.
///
/// See the crate-level documentation for a complete example.
pub struct Simulator<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> std::fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.sched.pending())
            .finish()
    }
}

impl<M: Model> Simulator<M> {
    /// Creates a simulator at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulator {
            model,
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Exclusive access to the scheduler, e.g. to seed initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Runs one event. Returns `false` if the queue was empty.
    ///
    /// The handler's [`Scheduler::schedule`] panics if it schedules an
    /// event in the past (a model bug).
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((at, event)) => {
                self.now = at;
                self.processed += 1;
                self.model.handle(at, event, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event is after `deadline`.
    ///
    /// Events at exactly `deadline` are processed. On return the clock is
    /// the time of the last processed event (it is *not* advanced to
    /// `deadline` when the queue drains early).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.sched.peek_time() {
            if at > deadline {
                break;
            }
            self.step();
        }
    }

    /// Consumes the simulator, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now.as_nanos(), ev));
            if ev == 42 {
                sched.schedule(now + SimTime::from_nanos(5), 43);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new(Recorder::default());
        sim.scheduler_mut().schedule(SimTime::from_nanos(30), 3);
        sim.scheduler_mut().schedule(SimTime::from_nanos(10), 1);
        sim.scheduler_mut().schedule(SimTime::from_nanos(20), 2);
        sim.run();
        assert_eq!(sim.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut sim = Simulator::new(Recorder::default());
        let t = SimTime::from_nanos(7);
        for ev in 0..5 {
            sim.scheduler_mut().schedule(t, ev);
        }
        sim.run();
        let evs: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim = Simulator::new(Recorder::default());
        sim.scheduler_mut().schedule(SimTime::from_nanos(1), 42);
        sim.run();
        assert_eq!(sim.model().seen, vec![(1, 42), (6, 43)]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(Recorder::default());
        for i in 1..=10 {
            sim.scheduler_mut()
                .schedule(SimTime::from_nanos(i * 10), i as u32);
        }
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!(sim.model().seen.len(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.scheduler_mut().pending(), 5);
        sim.run();
        assert_eq!(sim.model().seen.len(), 10);
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut sim = Simulator::new(Recorder::default());
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    /// A handler that schedules before the event it is handling panics
    /// in `schedule` itself, not later when the event would be popped.
    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                sched.schedule(SimTime::ZERO, ());
            }
        }
        let mut sim = Simulator::new(Bad);
        sim.scheduler_mut().schedule(SimTime::from_nanos(10), ());
        // The event at t=10 schedules one at t=0: `schedule` panics.
        sim.step();
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_before_the_last_pop_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule(SimTime::from_nanos(10), ());
        assert_eq!(s.pop().map(|(t, _)| t), Some(SimTime::from_nanos(10)));
        // A tie with the popped event is fine; one ns earlier is not.
        s.schedule(SimTime::from_nanos(10), ());
        s.schedule(SimTime::from_nanos(9), ());
    }

    #[test]
    fn run_until_deadline_inside_a_rebucketed_bucket() {
        let mut sim = Simulator::new(Recorder::default());
        // 1000..=1010 share their top set bit (512), so they start in one
        // bucket; 2000 sits in the next. Popping 1000 re-buckets the rest
        // by their low bits, and the deadline falls among them.
        for t in (1000..=1010).chain([2000]) {
            sim.scheduler_mut()
                .schedule(SimTime::from_nanos(t), t as u32);
        }
        sim.run_until(SimTime::from_nanos(1005));
        let seen: Vec<u64> = sim.model().seen.iter().map(|&(t, _)| t).collect();
        assert_eq!(seen, (1000..=1005).collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_nanos(1005));
        assert_eq!(sim.scheduler_mut().pending(), 6);
        // Peeking at 1006 did not move the floor: events between the clock
        // and the next pending one may still be scheduled.
        sim.scheduler_mut().schedule(SimTime::from_nanos(1005), 1);
        sim.scheduler_mut().schedule(SimTime::from_nanos(1006), 2);
        sim.run();
        let tail: Vec<(u64, u32)> = sim.model().seen[6..].to_vec();
        let mut want = vec![(1005, 1), (1006, 1006), (1006, 2)];
        want.extend((1007..=1010).map(|t| (t, t as u32)));
        want.push((2000, 2000));
        assert_eq!(tail, want);
    }

    /// Times with the top bit set land in bucket 128, which has no mask
    /// bit; a first key of 0 lands in bucket 0.
    #[test]
    fn extreme_buckets_pop_in_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let top = 1u64 << 63;
        for (t, e) in [(top + 7, 0), (top, 1), (0, 2), (u64::MAX, 3), (top, 4)] {
            s.schedule(SimTime::from_nanos(t), e);
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| s.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(
            order,
            vec![(0, 2), (top, 1), (top, 4), (top + 7, 0), (u64::MAX, 3)]
        );
        assert_eq!(s.pending(), 0);
    }

    /// Popped slots are reused: a long hold phase never grows the slab
    /// past the most events ever pending at once.
    #[test]
    fn hold_phase_reuses_slots() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut peak = 0;
        for i in 0..500 {
            s.schedule(SimTime::from_nanos(rand() % 1_000), i);
            peak = peak.max(s.pending());
        }
        for i in 0..100_000u64 {
            let (t, _) = s.pop().expect("never drains");
            // Mostly one follow-up per pop, sometimes zero or two, so the
            // depth wanders around its start without draining.
            let follow_ups = match rand() % 8 {
                0 if s.pending() > 0 => 0,
                1 => 2,
                _ => 1,
            };
            for _ in 0..follow_ups {
                s.schedule(t + SimTime::from_nanos(1 + rand() % 100_000), i);
            }
            peak = peak.max(s.pending());
            assert!(
                s.slots.len() <= peak,
                "slab {} > peak {peak}",
                s.slots.len()
            );
        }
        assert_eq!(s.slots.len(), peak);
        assert_eq!(s.free.len() + s.pending(), s.slots.len());
    }
}
