//! Folds an engine's drained `Trace` into per-layer figures. The same
//! fold runs over both engines' traces (the simulator's in simulated
//! time, the live cluster's in wall time), so one name means one thing.

use std::collections::{HashMap, VecDeque};

use press_telem::{EventKind, Trace};

use crate::report::nearest_rank;

pub struct TraceFold {
    /// `ViaPost` → `ViaComplete` per descriptor, in microseconds.
    pub post_complete_us: Vec<f64>,
    /// `DiskRead` span durations, in microseconds.
    pub disk_read_us: Vec<f64>,
    pub credit_stalls: u64,
    pub done: u64,
    pub dropped: u64,
}

impl TraceFold {
    pub fn post_complete_p(&self, p: f64) -> f64 {
        nearest_rank(&self.post_complete_us, p)
    }

    pub fn disk_read_p50(&self) -> f64 {
        nearest_rank(&self.disk_read_us, 50.0)
    }

    pub fn credit_stall_per_req(&self) -> f64 {
        self.credit_stalls as f64 / self.done.max(1) as f64
    }
}

/// Pairs posts with completions per VI in FIFO order: each NIC engine
/// completes a VI's operations in posting order. A `ViaPost` carries its
/// doorbell batch size in `b` (0 for a single post); a remote write posts
/// one operation under `RdmaWrite`.
pub fn fold(trace: &Trace) -> TraceFold {
    let mut posted: HashMap<u64, VecDeque<u64>> = HashMap::new();
    let mut out = TraceFold {
        post_complete_us: Vec::new(),
        disk_read_us: Vec::new(),
        credit_stalls: 0,
        done: 0,
        dropped: trace.dropped(),
    };
    for ev in trace.events() {
        match ev.kind {
            EventKind::ViaPost => {
                let q = posted.entry(ev.req).or_default();
                q.extend(std::iter::repeat_n(ev.ts_ns, ev.b.max(1) as usize));
            }
            EventKind::RdmaWrite => posted.entry(ev.req).or_default().push_back(ev.ts_ns),
            EventKind::ViaComplete => {
                if let Some(at) = posted.get_mut(&ev.req).and_then(VecDeque::pop_front) {
                    out.post_complete_us
                        .push(ev.ts_ns.saturating_sub(at) as f64 / 1e3);
                }
            }
            EventKind::DiskRead => out.disk_read_us.push(ev.dur_ns as f64 / 1e3),
            EventKind::CreditStall => out.credit_stalls += 1,
            EventKind::Done => out.done += 1,
            _ => {}
        }
    }
    out.post_complete_us.sort_by(f64::total_cmp);
    out.disk_read_us.sort_by(f64::total_cmp);
    out
}
