//! The live-cluster workloads: closed-loop client latency and throughput
//! over the in-memory software VIA (no link, no loopback socket).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use press_server::{
    file_contents, FileTransferMode, LiveCluster, LiveConfig, ServerStats, WireKind, WireMsg,
};
use press_telem::LiveTracer;
use press_trace::{FileCatalog, FileId, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fold::fold;
use crate::layers::Layers;
use crate::probes::{ns_per_op, ProbeInputs};
use crate::report::{median, nearest_rank, nproc, peak_rss_mb, Metrics, Tally};
use crate::spans::{Span, Spans};
use crate::Run;

/// One live workload on a 4-node RemoteWrite cluster.
pub struct LiveWorkload {
    /// Descriptors per doorbell ring: 8 is the V6 fast path, 1 is V5.
    pub doorbell_batch: u32,
    /// Call `update_file` before every this-many-th request (0: never).
    pub update_every: u64,
}

/// Reads only, V6 doorbell batching.
pub const HOT: LiveWorkload = LiveWorkload {
    doorbell_batch: 8,
    update_every: 0,
};

/// Reads with an update before every 20th request, V5 posting.
pub const CHURN: LiveWorkload = LiveWorkload {
    doorbell_batch: 1,
    update_every: 20,
};

const NODES: usize = 4;
const FILES: usize = 2_048;
const MIN_FILE: u64 = 512;
const MAX_FILE: u64 = 12 * 1024;
const ZIPF_ALPHA: f64 = 0.8;
/// Closed-loop client threads, capped at the host's core count.
const CLIENTS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(5);
const SETUP_REPS: usize = 40;
/// Untimed closed-loop traffic before measuring.
const WARMUP: Duration = Duration::from_millis(500);
/// Requests in the traced half of the traced/untraced pair; small enough
/// that no tracer ring overflows.
const TRACED_REQUESTS: u64 = 2_000;

/// The catalog, its sampler and every file's expected bytes.
struct Files {
    sizes: Vec<u64>,
    zipf: ZipfSampler,
    expected: Vec<Vec<u8>>,
}

/// The workload's file sizes (0.5–12 KB) and its Zipf sampler: the
/// press-trace inputs `trace.build_ms` times.
pub fn catalog_inputs(seed: u64) -> (Vec<u64>, ZipfSampler) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF11E_CA7A);
    let sizes = (0..FILES)
        .map(|_| rng.gen_range(MIN_FILE..=MAX_FILE))
        .collect();
    (sizes, ZipfSampler::new(FILES, ZIPF_ALPHA))
}

impl Files {
    fn new(seed: u64) -> Files {
        let (sizes, zipf) = catalog_inputs(seed);
        let expected = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| file_contents(FileId(i as u32), s as usize))
            .collect();
        Files {
            sizes,
            zipf,
            expected,
        }
    }

    fn catalog(&self) -> FileCatalog {
        FileCatalog::from_sizes(self.sizes.clone())
    }
}

impl LiveWorkload {
    /// Every node's cache holds the whole catalog, so only updates cause
    /// disk reads.
    pub fn live_config(&self, sizes: &[u64]) -> LiveConfig {
        LiveConfig {
            nodes: NODES,
            cache_bytes: sizes.iter().sum(),
            file_transfer: FileTransferMode::RemoteWrite,
            doorbell_batch: self.doorbell_batch,
            ..LiveConfig::default()
        }
    }
}

fn clients() -> usize {
    CLIENTS.min(nproc())
}

/// When a client stops issuing requests.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

#[derive(Default)]
struct ClientOut {
    tally: Tally,
    /// Completion instant and latency of every verified reply.
    done: Vec<(Instant, u64)>,
    spans: Vec<Span>,
}

/// One closed-loop client: the next request goes out only once the
/// previous reply is verified byte for byte.
fn client(
    w: &LiveWorkload,
    cluster: &LiveCluster,
    files: &Files,
    rng: &mut StdRng,
    stop: Stop,
    trace: Option<(Instant, u32, u64)>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut k = 0u64;
    loop {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::After(n) if k >= n => break,
            _ => {}
        }
        k += 1;
        let file = FileId(files.zipf.sample(rng) as u32);
        let node = rng.gen_range(0..NODES);
        if w.update_every > 0 && k.is_multiple_of(w.update_every) {
            cluster.update_file(file);
        }
        let t = Instant::now();
        let ok = match cluster.request(node, file, TIMEOUT) {
            Ok(bytes) => bytes == files.expected[file.0 as usize],
            Err(_) => false,
        };
        let end = Instant::now();
        out.tally.record(1, ok);
        if ok {
            out.done.push((end, (end - t).as_nanos() as u64));
        }
        if let Some((epoch, parent, id_base)) = trace {
            out.spans.push(Span {
                name: "server.request",
                start_ns: (t - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
                parent,
                req: id_base + k,
            });
        }
    }
    out
}

/// Runs the closed loop on every client thread and merges the results.
fn drive(
    w: &LiveWorkload,
    cluster: &LiveCluster,
    files: &Files,
    seed: u64,
    stop: Stop,
    trace: Option<(Instant, u32)>,
) -> ClientOut {
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|c| {
                let trace = trace.map(|(epoch, parent)| (epoch, parent, (c as u64) << 40));
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64 + 1) << 32));
                    client(w, cluster, files, &mut rng, stop, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientOut::default();
    for o in outs {
        all.tally.add(o.tally);
        all.done.extend(o.done);
        all.spans.extend(o.spans);
    }
    all
}

fn start(cfg: &LiveConfig, files: &Files, tracer: Option<Arc<LiveTracer>>) -> LiveCluster {
    LiveCluster::start_with_tracer(cfg.clone(), files.catalog(), tracer)
}

/// The `ServerStats` counters the per-layer table reads, at one instant.
#[derive(Clone, Copy, Default)]
struct Counts {
    completed: u64,
    forwarded: u64,
    file_msgs: u64,
    flow_msgs: u64,
    caching_msgs: u64,
    rdma_load_writes: u64,
    disk_reads: u64,
    invalidations: u64,
    retries: u64,
    via_errors: u64,
    shed: u64,
}

impl Counts {
    fn read(s: &ServerStats) -> Counts {
        let g = ServerStats::get;
        Counts {
            completed: ServerStats::completed(s),
            forwarded: g(&s.forwarded),
            file_msgs: g(&s.file_msgs),
            flow_msgs: g(&s.flow_msgs),
            caching_msgs: g(&s.caching_msgs),
            rdma_load_writes: g(&s.rdma_load_writes),
            disk_reads: g(&s.disk_reads),
            invalidations: g(&s.invalidations),
            retries: g(&s.retries),
            via_errors: g(&s.via_errors),
            shed: g(&s.shed_admission) + g(&s.shed_deadline),
        }
    }

    fn since(self, b: Counts) -> Counts {
        Counts {
            completed: self.completed - b.completed,
            forwarded: self.forwarded - b.forwarded,
            file_msgs: self.file_msgs - b.file_msgs,
            flow_msgs: self.flow_msgs - b.flow_msgs,
            caching_msgs: self.caching_msgs - b.caching_msgs,
            rdma_load_writes: self.rdma_load_writes - b.rdma_load_writes,
            disk_reads: self.disk_reads - b.disk_reads,
            invalidations: self.invalidations - b.invalidations,
            retries: self.retries - b.retries,
            via_errors: self.via_errors - b.via_errors,
            shed: self.shed - b.shed,
        }
    }
}

/// The fastest of [`SETUP_REPS`] `LiveCluster` starts, each shut down
/// again. The minimum, not the median: a process's first start is its
/// fastest, and later ones settle in one of two steady states about 2×
/// apart (likely the allocator reusing and re-zeroing freed regions),
/// which one varying from run to run; the fastest start repeats. Half
/// the starts run before the measured window and half after it, so one
/// burst of outside load cannot cover them all.
fn fastest_start(cfg: &LiveConfig, files: &Files) -> f64 {
    (0..SETUP_REPS / 2)
        .map(|_| {
            let t = Instant::now();
            let cluster = start(cfg, files, None);
            let secs = t.elapsed().as_secs_f64();
            cluster.shutdown();
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// End-to-end: set-up, warm-up, then `seconds` of closed-loop traffic.
pub fn end_to_end(w: &LiveWorkload, run: &Run) -> (Tally, Metrics) {
    let files = Files::new(run.seed);
    let cfg = w.live_config(&files.sizes);
    let setup_before = fastest_start(&cfg, &files);
    let cluster = start(&cfg, &files, None);
    let warm = drive(
        w,
        &cluster,
        &files,
        !run.seed,
        Stop::At(Instant::now() + WARMUP),
        None,
    );
    let t = Instant::now();
    let out = drive(
        w,
        &cluster,
        &files,
        run.seed,
        Stop::At(t + Duration::from_secs_f64(run.seconds)),
        None,
    );
    cluster.shutdown();
    let setup_s = setup_before.min(fastest_start(&cfg, &files));
    let mut tally = warm.tally;
    tally.add(out.tally);
    // One-second windows; each metric is the median window, so a burst of
    // load from outside the process moves it only if it fills half the run.
    let windows = (run.seconds as usize).max(1);
    let width = run.seconds / windows as f64;
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(end, ns) in &out.done {
        let i = ((end - t).as_secs_f64() / width) as usize;
        bins[i.min(windows - 1)].push(ns as f64 / 1e3);
    }
    let (mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for b in &mut bins {
        b.sort_by(f64::total_cmp);
        rps.push(b.len() as f64 / width);
        p50.push(nearest_rank(b, 50.0));
        p99.push(nearest_rank(b, 99.0));
    }
    eprintln!(
        "perfbench: {} latency samples from {} clients in {windows} windows",
        out.done.len(),
        clients()
    );
    let mut metrics = Metrics::default();
    metrics.push("setup_s", "s", setup_s);
    metrics.push("req_per_s", "1/s", median(&rps));
    metrics.push("p50_us", "us", median(&p50));
    metrics.push("p99_us", "us", median(&p99));
    metrics.push("peak_rss_mb", "MB", peak_rss_mb());
    (tally, metrics)
}

/// Per-layer: an untraced run for `ServerStats` deltas, a traced run for
/// the `Trace` fold, and the probes on this workload's inputs.
pub fn layers(w: &LiveWorkload, run: &Run, spans: &mut Spans) -> (Tally, Layers) {
    let seed = run.seed;
    let mut l = Layers::default();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            spans.scope("trace.build", 0, |_| {
                let t = Instant::now();
                let (sizes, zipf) = catalog_inputs(seed);
                black_box((FileCatalog::from_sizes(sizes), zipf));
                t.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();
    l.trace_build_ms = median(&builds);
    let files = Files::new(seed);
    let cfg = w.live_config(&files.sizes);

    // Untraced half: counters over a measured window.
    let cluster = spans.scope("server.start", 0, |_| start(&cfg, &files, None));
    let mut tally = drive(
        w,
        &cluster,
        &files,
        !seed,
        Stop::At(Instant::now() + WARMUP),
        None,
    )
    .tally;
    let before = Counts::read(LiveCluster::stats(&cluster));
    let t = Instant::now();
    let window = Duration::from_secs_f64(run.seconds * 0.4);
    let plain = spans.scope("server.closed_loop", 0, |spans| {
        let parent = spans.current();
        drive(
            w,
            &cluster,
            &files,
            seed,
            Stop::At(t + window),
            Some((spans.epoch(), parent)),
        )
    });
    let plain_per_req = t.elapsed().as_secs_f64() / plain.tally.attempted.max(1) as f64;
    let d = Counts::read(LiveCluster::stats(&cluster)).since(before);
    spans.scope("server.shutdown", 0, |_| cluster.shutdown());
    tally.add(plain.tally);
    spans.merge(plain.spans);

    // Traced half: the same closed loop under the cluster's tracer.
    let per_client = TRACED_REQUESTS / clients() as u64;
    let cluster = spans.scope("server.start_with_tracer", 0, |_| {
        start(&cfg, &files, Some(LiveTracer::new()))
    });
    let t = Instant::now();
    let traced = spans.scope("server.closed_loop_traced", 0, |spans| {
        let parent = spans.current();
        drive(
            w,
            &cluster,
            &files,
            seed,
            Stop::After(per_client),
            Some((spans.epoch(), parent)),
        )
    });
    let traced_per_req = t.elapsed().as_secs_f64() / traced.tally.attempted.max(1) as f64;
    let trace = spans
        .scope("server.shutdown_traced", 0, |_| cluster.shutdown_traced())
        .expect("tracer was installed");
    tally.add(traced.tally);
    spans.merge(traced.spans);
    l.telem_trace_overhead_ratio = traced_per_req / plain_per_req;
    let f = spans.scope("telem.fold", 0, |_| fold(&trace));
    if f.dropped > 0 {
        eprintln!("perfbench: tracer dropped {} events", f.dropped);
    }
    l.server_via_post_complete_us_p50 = f.post_complete_p(50.0);
    l.server_via_post_complete_us_p99 = f.post_complete_p(99.0);
    l.server_disk_read_us = f.disk_read_p50();
    l.server_credit_stall_per_req = f.credit_stall_per_req();

    let per_req = |n: u64| n as f64 / d.completed.max(1) as f64;
    l.server_forwarded_per_req = per_req(d.forwarded);
    l.server_file_msgs_per_req = per_req(d.file_msgs);
    l.server_flow_msgs_per_req = per_req(d.flow_msgs);
    l.server_caching_msgs_per_req = per_req(d.caching_msgs);
    l.server_rdma_load_writes_per_req = per_req(d.rdma_load_writes);
    l.server_disk_reads_per_req = per_req(d.disk_reads);
    l.server_invalidations_per_req = per_req(d.invalidations);
    l.server_retries = d.retries as f64;
    l.server_via_errors = d.via_errors as f64;
    l.server_shed = d.shed as f64;
    l.cluster_cache_hit_ratio = 1.0 - per_req(d.disk_reads);
    l.core_forward_fraction = per_req(d.forwarded);
    l.core_retries = d.retries as f64;
    l.core_shed = d.shed as f64;

    l.trace_sample_ns = spans.scope("trace.sample", 0, |_| {
        let mut rng = StdRng::seed_from_u64(seed);
        ns_per_op(1_000_000, || {
            for _ in 0..1_000_000 {
                black_box(files.zipf.sample(&mut rng));
            }
        })
    });
    let header = WireMsg {
        kind: WireKind::Forward,
        file: FileId(0),
        token: 0,
        sender_load: 0,
        parent_span: 0,
        payload: Vec::new(),
    }
    .encode(&mut [0u8; 64]);
    let mean_reply: f64 = (0..FILES)
        .map(|i| files.zipf.probability(i) * files.sizes[i] as f64)
        .sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let inp = ProbeInputs {
        nodes: NODES,
        cache_bytes: cfg.cache_bytes,
        queue_depth: clients(),
        stream: (0..200_000)
            .map(|_| {
                let f = files.zipf.sample(&mut rng);
                (FileId(f as u32), files.sizes[f])
            })
            .collect(),
        small_bytes: header,
        file_bytes: header + mean_reply as usize,
        caching_bytes: header as u64,
        seed,
    };
    l.probe(spans, &inp);
    l.fail_ratio = tally.fail_ratio();
    (tally, l)
}
