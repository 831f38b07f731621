//! Per-layer probes: each times one layer's public functions on the
//! inputs of the workload it is listed under (its catalog and request
//! stream, node count, per-node cache capacity and message sizes), so a
//! probe's number belongs to that workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use press_cluster::{FileCache, NodeId};
use press_collect::{sample_peers, select_topology, DetRng, TreeView};
use press_core::{decide, PolicyConfig, RequestView};
use press_sim::{Scheduler, SimTime};
use press_trace::FileId;
use press_via::{Descriptor, Doorbell, Fabric, Nic, Reliability, RemoteBuffer, Vi};

use crate::report::median;

/// Repetitions of every timed loop; probes report the median.
const REPS: usize = 5;
/// Operations per repetition of the cheap (sub-microsecond) probes.
const OPS: u64 = 200_000;
/// Round trips per VIA probe; they report the median round trip.
const VIA_ROUNDS: usize = 2_000;
const VIA_TIMEOUT: Duration = Duration::from_secs(10);

/// The inputs a workload hands its probes.
pub struct ProbeInputs {
    pub nodes: usize,
    /// Per-node file-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Pending events in the simulator's queue: one per closed-loop client.
    pub queue_depth: usize,
    /// `(file, size)` requests drawn from the workload's own sampler.
    pub stream: Vec<(FileId, u64)>,
    /// Mean wire size of the workload's control messages.
    pub small_bytes: usize,
    /// Mean wire size of the workload's file-data messages.
    pub file_bytes: usize,
    /// Caching-broadcast payload, which selects the relay topology.
    pub caching_bytes: u64,
    pub seed: u64,
}

/// Median over [`REPS`] repetitions of `f`'s wall time per operation,
/// in nanoseconds.
pub fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// A splitmix64 step: cheap deterministic probe inputs.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn live_mask(nodes: usize) -> u128 {
    if nodes >= 128 {
        u128::MAX
    } else {
        (1u128 << nodes) - 1
    }
}

/// `Scheduler` schedule plus pop, per event, at the workload's depth.
pub fn queue_ns_per_event(inp: &ProbeInputs) -> f64 {
    let mut rng = inp.seed;
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..inp.queue_depth.max(1) {
        sched.schedule(SimTime::from_nanos(mix(&mut rng) % 1_000_000), i as u64);
    }
    let deltas: Vec<SimTime> = (0..1024)
        .map(|_| SimTime::from_nanos(1 + mix(&mut rng) % 2_000_000))
        .collect();
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let (at, ev) = sched.pop().expect("queue holds its depth");
            sched.schedule(at + deltas[i & 1023], black_box(ev));
        }
    })
}

/// `FileCache` touch, and insert on a miss, replaying the workload's
/// request stream at one node's capacity.
pub fn cache_access_ns(inp: &ProbeInputs) -> f64 {
    ns_per_op(inp.stream.len() as u64, || {
        let mut cache = FileCache::new(inp.cache_bytes);
        for &(file, size) in &inp.stream {
            if !cache.touch(file) {
                black_box(cache.insert(file, size));
            }
        }
        black_box(cache.len());
    })
}

/// `decide` with every node a cacher and a load view of the workload's
/// node count; a quarter of the loads exceed `T`, so the overload branch
/// and its global scan run too.
pub fn decide_ns(inp: &ProbeInputs) -> f64 {
    let n = inp.nodes;
    let cfg = PolicyConfig::default();
    let cachers: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
    let mut rng = inp.seed;
    let views: Vec<Vec<u32>> = (0..64)
        .map(|_| {
            (0..n)
                .map(|_| (mix(&mut rng) % (4 * cfg.overload_threshold as u64 / 3)) as u32)
                .collect()
        })
        .collect();
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let view = RequestView {
                initial: NodeId((i % n) as u16),
                file_bytes: 8 * 1024,
                cached_locally: false,
                first_request: false,
                cachers: &cachers,
                loads: &views[i & 63],
                load_balancing: true,
            };
            black_box(decide(&cfg, black_box(&view)));
        }
    })
}

/// `TreeView::build` plus `children` for one relay hop, in the topology
/// the size-switched rule picks for the workload's caching broadcasts.
pub fn tree_build_ns(inp: &ProbeInputs) -> f64 {
    let n = inp.nodes;
    let topo = select_topology(n as u32, inp.caching_bytes);
    let mask = live_mask(n);
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let tree = TreeView::build(topo, (i % n) as u16, mask, n as u16);
            black_box(tree.children(((i * 7 + 3) % n) as u16).as_slice().len());
        }
    })
}

/// `sample_peers` with k = 2 over all of the workload's nodes.
pub fn sample_peers_ns(inp: &ProbeInputs) -> f64 {
    let n = inp.nodes;
    let mask = live_mask(n);
    let mut rng = DetRng::new(inp.seed);
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            black_box(sample_peers(&mut rng, (i % n) as u16, mask, n as u16, 2));
        }
    })
}

/// Medians of the VIA probes, in microseconds.
pub struct ViaTimes {
    pub send_recv_small: f64,
    pub send_recv_file: f64,
    pub rdma_write_file: f64,
    pub doorbell_partial_flush: f64,
}

/// A connected VI pair on a private two-NIC fabric, with a registered
/// source region at the sender and a remotely writable sink at the
/// receiver. The NICs ride along: dropping one stops its engine.
struct Pair {
    tx_nic: Nic,
    _rx_nic: Nic,
    tx: Vi,
    rx: Vi,
    src: press_via::MemHandle,
    sink: press_via::MemHandle,
}

fn pair(bytes: usize) -> Pair {
    let fabric = Fabric::new();
    let tx_nic = fabric.create_nic("probe-tx");
    let rx_nic = fabric.create_nic("probe-rx");
    let (tx, rx) = fabric
        .connect(&tx_nic, &rx_nic, Reliability::ReliableDelivery)
        .expect("connect probe VIs");
    let src = tx_nic
        .register(vec![0xA5; bytes], false)
        .expect("register probe source");
    let sink = rx_nic
        .register(vec![0; bytes], true)
        .expect("register probe sink");
    Pair {
        tx_nic,
        _rx_nic: rx_nic,
        tx,
        rx,
        src,
        sink,
    }
}

/// Median of `VIA_ROUNDS` timed rounds, in microseconds.
fn median_round_us(mut round: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..VIA_ROUNDS)
        .map(|_| round().as_nanos() as f64 / 1e3)
        .collect();
    median(&samples)
}

/// Send/receive (post to receive completion) at `len` bytes.
fn send_recv_us(p: &Pair, len: usize) -> f64 {
    median_round_us(|| {
        p.rx.post_recv(Descriptor::new(p.sink, 0, len))
            .expect("post probe recv");
        let t = Instant::now();
        p.tx.post_send(Descriptor::new(p.src, 0, len))
            .expect("post probe send");
        p.rx.wait_recv_completion(VIA_TIMEOUT)
            .expect("probe recv completion");
        let dt = t.elapsed();
        p.tx.wait_send_completion(VIA_TIMEOUT)
            .expect("probe send completion");
        dt
    })
}

/// The VIA probes at the workload's message sizes.
pub fn via_times(inp: &ProbeInputs) -> ViaTimes {
    let file = inp.file_bytes.max(1);
    let small = inp.small_bytes.clamp(1, file);
    let p = pair(file);
    let send_recv_small = send_recv_us(&p, small);
    let send_recv_file = send_recv_us(&p, file);
    let rdma_write_file = median_round_us(|| {
        let t = Instant::now();
        p.tx.rdma_write(
            Descriptor::new(p.src, 0, file),
            RemoteBuffer {
                region: p.sink,
                offset: 0,
            },
        )
        .expect("post probe rdma write");
        p.tx.wait_send_completion(VIA_TIMEOUT)
            .expect("probe rdma completion");
        t.elapsed()
    });
    // One post into a batch-8 doorbell, then the stale flush posts the
    // partial batch (zero delay, so the flush always fires).
    let Pair {
        tx_nic: _tx_nic,
        _rx_nic,
        tx,
        rx,
        src,
        sink,
    } = pair(file);
    let mut bell = Doorbell::new(tx, 8, Duration::ZERO);
    let doorbell_partial_flush = median_round_us(|| {
        rx.post_recv(Descriptor::new(sink, 0, small))
            .expect("post probe recv");
        let t = Instant::now();
        bell.post(Descriptor::new(src, 0, small))
            .expect("stage probe send");
        bell.flush_stale().expect("stale flush");
        rx.wait_recv_completion(VIA_TIMEOUT)
            .expect("probe recv completion");
        let dt = t.elapsed();
        bell.vi()
            .wait_send_completion(VIA_TIMEOUT)
            .expect("probe send completion");
        dt
    });
    ViaTimes {
        send_recv_small,
        send_recv_file,
        rdma_write_file,
        doorbell_partial_flush,
    }
}
