//! Host-time calibration for shared machines.
//!
//! On a host whose cores other tenants share, the same simulator run can
//! take anywhere from 1× to 1.7× its quiet time, in phases that last
//! seconds. A fixed loop that uses nothing from this repository, run
//! right after each timed unit, slows down with it; the ratio of the two
//! repeats within a few percent. Timings taken with [`timed`] are that
//! ratio converted back to seconds at [`REF_S`], so a change to the
//! repository's code moves them and load from outside the process cancels.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's duration on a quiet core of the host the
/// benchmark was tuned on (2.1 GHz Xeon, 2 vCPUs): the unit [`timed`]
/// converts back to seconds with.
pub const REF_S: f64 = 0.016;

/// An event-queue and request-table mix like the simulator's: a bounded
/// binary heap of timestamps and a hash map of 30,000 keys, driven by a
/// fixed xorshift stream.
fn calibration_loop() -> u64 {
    let mut x = 0x1234_5678u64;
    let mut heap = BinaryHeap::with_capacity(400);
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > 320 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(t)| t));
        }
        *table.entry(x % 30_000).or_insert(0) += i;
        acc = acc.wrapping_add(table.get(&(acc % 30_000)).copied().unwrap_or(0));
    }
    acc
}

/// Runs `f`, then the calibration loop, and returns `f`'s result with its
/// duration in calibrated seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    let work = t.elapsed().as_secs_f64();
    (out, calibrated(work))
}

/// Converts `work` host seconds, measured just before, to calibrated
/// seconds by running the calibration loop now.
pub fn calibrated(work: f64) -> f64 {
    let t = Instant::now();
    black_box(calibration_loop());
    work / t.elapsed().as_secs_f64() * REF_S
}
