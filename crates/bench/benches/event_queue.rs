//! Criterion benchmarks for the event-queue fast path.
//!
//! The `Scheduler` is a monotone radix heap: packed `time << 64 | seq <<
//! 24 | slot` keys sit in 129 buckets by their highest bit differing from
//! the last popped key, and event payloads stay put in a slab. `HeapRef`
//! below is a plain `BinaryHeap<Reverse<..>>` carrying its payloads, the
//! textbook structure, so the two can be compared on identical workloads:
//!
//! - `fill_drain` and `hold_64k_ops`: uniform-random times, where a radix
//!   queue and a heap are close.
//! - `sim_hold`: the shape the simulator drives. A steady queue of
//!   64-byte events, as deep as `sim-paper` (512) or `sim-scale` (8192),
//!   where each pop schedules a follow-up 1–100 µs later in whole µs,
//!   and one in eight lands at `now`. Ties are common.
//!
//! Run `cargo bench -p press-bench --bench event_queue`; add `-- --test`
//! for a one-iteration smoke run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use press_sim::{Model, Scheduler, SimTime, Simulator};

/// The reference queue: a binary max-heap of reversed entries, each
/// carrying its payload and an explicit tie-break sequence number.
struct HeapRef<E> {
    heap: BinaryHeap<Reverse<(u64, u64, WithOrd<E>)>>,
    next_seq: u64,
}

/// Wrapper granting payloads the `Ord` the tuple needs; the (time, seq)
/// prefix is unique, so payload comparison never actually runs.
struct WithOrd<E>(E);
impl<E> PartialEq for WithOrd<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for WithOrd<E> {}
impl<E> PartialOrd for WithOrd<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for WithOrd<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> HeapRef<E> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
    fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(Reverse((at.as_nanos(), seq, WithOrd(event))));
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, e))| (SimTime::from_nanos(t), e.0))
    }
}

/// Pseudo-random but deterministic event times (SplitMix64).
fn times(n: usize) -> Vec<u64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 1_000_000
        })
        .collect()
}

/// Fill-then-drain: N pushes followed by N pops.
fn bench_fill_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("fill_drain");
    for n in [1_000usize, 100_000] {
        let ts = times(n);
        group.bench_with_input(BenchmarkId::new("scheduler", n), &ts, |b, ts| {
            b.iter(|| {
                let mut s: Scheduler<u64> = Scheduler::new();
                for (i, &t) in ts.iter().enumerate() {
                    s.schedule(SimTime::from_nanos(t), i as u64);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = s.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
        group.bench_with_input(BenchmarkId::new("binaryheap_ref", n), &ts, |b, ts| {
            b.iter(|| {
                let mut s: HeapRef<u64> = HeapRef::new();
                for (i, &t) in ts.iter().enumerate() {
                    s.schedule(SimTime::from_nanos(t), i as u64);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = s.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            })
        });
    }
    group.finish();
}

/// Hold pattern: steady-state queue of fixed size, pop one / push one,
/// with follow-ups 1–997 ns ahead.
fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("hold_64k_ops");
    const DEPTH: usize = 4_096;
    const OPS: usize = 65_536;
    group.bench_function("scheduler", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            for (i, &t) in times(DEPTH).iter().enumerate() {
                s.schedule(SimTime::from_nanos(t), i as u64);
            }
            let mut sum = 0u64;
            for _ in 0..OPS {
                let (t, e) = s.pop().expect("queue never drains");
                sum = sum.wrapping_add(e);
                s.schedule(t + SimTime::from_nanos(1 + (e % 997)), e);
            }
            black_box(sum)
        })
    });
    group.bench_function("binaryheap_ref", |b| {
        b.iter(|| {
            let mut s: HeapRef<u64> = HeapRef::new();
            for (i, &t) in times(DEPTH).iter().enumerate() {
                s.schedule(SimTime::from_nanos(t), i as u64);
            }
            let mut sum = 0u64;
            for _ in 0..OPS {
                let (t, e) = s.pop().expect("queue never drains");
                sum = sum.wrapping_add(e);
                s.schedule(t + SimTime::from_nanos(1 + (e % 997)), e);
            }
            black_box(sum)
        })
    });
    group.finish();
}

/// A 64-byte payload, the size of the simulator's `Event`.
type Payload = [u64; 8];

/// The follow-up offset in ns for draw `r`: one in eight is a tie at
/// `now`, the rest are 1–100 µs in whole µs.
fn sim_offset(r: u64) -> u64 {
    if r % 8 == 0 {
        0
    } else {
        1_000 * (1 + (r >> 3) % 100)
    }
}

/// Hold pattern shaped like the simulator's traffic, at the pending
/// depths of the two simulator workloads.
fn bench_sim_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_hold_64k_ops");
    const OPS: usize = 65_536;
    for depth in [512usize, 8_192] {
        let draws = times(OPS);
        group.bench_with_input(BenchmarkId::new("scheduler", depth), &draws, |b, draws| {
            b.iter(|| {
                let mut s: Scheduler<Payload> = Scheduler::new();
                for (i, &t) in times(depth).iter().enumerate() {
                    s.schedule(SimTime::from_nanos(t % 100_000), [i as u64; 8]);
                }
                let mut sum = 0u64;
                for &r in draws {
                    let (t, e) = s.pop().expect("queue never drains");
                    sum = sum.wrapping_add(e[0]);
                    s.schedule(t + SimTime::from_nanos(sim_offset(r)), e);
                }
                black_box(sum)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("binaryheap_ref", depth),
            &draws,
            |b, draws| {
                b.iter(|| {
                    let mut s: HeapRef<Payload> = HeapRef::new();
                    for (i, &t) in times(depth).iter().enumerate() {
                        s.schedule(SimTime::from_nanos(t % 100_000), [i as u64; 8]);
                    }
                    let mut sum = 0u64;
                    for &r in draws {
                        let (t, e) = s.pop().expect("queue never drains");
                        sum = sum.wrapping_add(e[0]);
                        s.schedule(t + SimTime::from_nanos(sim_offset(r)), e);
                    }
                    black_box(sum)
                })
            },
        );
    }
    group.finish();
}

/// A self-rescheduling model through the full Simulator, as a smoke-level
/// end-to-end number for the engine.
struct Ticker {
    remaining: u64,
}

impl Model for Ticker {
    type Event = ();
    fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule(now + SimTime::from_nanos(10), ());
        }
    }
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulator_ticker_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(Ticker { remaining: 100_000 });
            sim.scheduler_mut().schedule(SimTime::ZERO, ());
            sim.run();
            black_box(sim.processed())
        })
    });
}

criterion_group!(
    benches,
    bench_fill_drain,
    bench_hold,
    bench_sim_hold,
    bench_simulator
);
criterion_main!(benches);
