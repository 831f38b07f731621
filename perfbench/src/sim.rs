//! The simulator workloads: host cost of `run_simulation`.
//!
//! Runs are sequential and single-threaded, and never touch the
//! experiment-runner pool or the timing log.

use std::hint::black_box;
use std::time::Instant;

use press_core::{
    run_simulation, run_simulation_traced, Dissemination, Metrics as SimMetrics, ServerVersion,
    SimConfig,
};
use press_net::{MessageType, MsgCounters};
use press_trace::{TracePreset, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib;
use crate::fold::fold;
use crate::layers::Layers;
use crate::probes::{ns_per_op, ProbeInputs};
use crate::report::{median, peak_rss_mb, Metrics, Tally};
use crate::spans::Spans;
use crate::Run;

/// One simulator workload.
pub struct SimWorkload {
    pub nodes: usize,
    pub version: ServerVersion,
    pub dissemination: Dissemination,
    pub warmup: u64,
    pub measure: u64,
}

/// The paper's headline configuration: Clarknet, 8 nodes, VIA/cLAN, V5,
/// piggy-backed load, 40 closed-loop clients per node.
pub const PAPER: SimWorkload = SimWorkload {
    nodes: 8,
    version: ServerVersion::V5,
    dissemination: Dissemination::Piggyback,
    warmup: 5_000,
    measure: 20_000,
};

/// Clarknet at 128 nodes under V6 with power-of-two-choices probing
/// (5,120 simulated clients).
pub const SCALE: SimWorkload = SimWorkload {
    nodes: 128,
    version: ServerVersion::V6,
    dissemination: Dissemination::PowerOfTwoChoices(2),
    warmup: 10_000,
    measure: 20_000,
};

const PRESET: TracePreset = TracePreset::Clarknet;
/// Set-up repetitions per workload; `setup_s` is the median of all.
const SETUP_REPS: usize = 2;
/// Fewest traced/untraced run pairs behind `telem.trace_overhead_ratio`;
/// a traced run makes more while half of `--seconds` has not passed.
const TRACE_PAIRS: usize = 2;

impl SimWorkload {
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(PRESET);
        cfg.nodes = self.nodes;
        cfg.version = self.version;
        cfg.dissemination = self.dissemination;
        cfg.warmup_requests = self.warmup;
        cfg.measure_requests = self.measure;
        cfg.seed = seed;
        cfg
    }

    /// Simulated requests one run completes, warmup included.
    fn run_requests(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// The simulated outputs that must repeat exactly at a fixed seed.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    throughput_bits: u64,
    hit_rate_bits: u64,
    forward_bits: u64,
    p50_bits: u64,
    p99_bits: u64,
    counters: MsgCounters,
}

impl Fingerprint {
    fn of(m: &SimMetrics) -> Self {
        Fingerprint {
            throughput_bits: m.throughput_rps.to_bits(),
            hit_rate_bits: m.hit_rate.to_bits(),
            forward_bits: m.forward_fraction.to_bits(),
            p50_bits: m.p50_response_ms.to_bits(),
            p99_bits: m.p99_response_ms.to_bits(),
            counters: m.counters,
        }
    }
}

/// Checks one finished run: the configured count was measured, no credit
/// leaked, and the outputs match the first run at this seed.
struct Checker {
    measure: u64,
    first: Option<SimMetrics>,
}

impl Checker {
    fn check(&mut self, m: &SimMetrics) -> bool {
        let same = match &self.first {
            Some(first) => Fingerprint::of(first) == Fingerprint::of(m),
            None => {
                self.first = Some(m.clone());
                true
            }
        };
        if !same {
            eprintln!("perfbench: simulated outputs differ between repeats at one seed");
        }
        same && m.measured_requests == self.measure && m.stuck_messages == 0
    }
}

/// Workloads one end-to-end run spreads its work over. Each catalog costs
/// the simulator a different amount per request and gives its clients a
/// different response-time tail; averaging over several keeps one
/// catalog from setting a run's figures.
const SUB_SEEDS: u64 = 16;

/// The `i`-th workload seed of a run (a splitmix64 step of the run seed).
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Workload generation plus the first simulator construction: the median
/// of [`SETUP_REPS`] set-ups of each of the run's workloads. A workload's
/// first set-up builds the shared copy inside `run_simulation`; later
/// ones generate it directly, then construct and start a minimal
/// simulation over the shared copy.
fn setup_s(w: &SimWorkload, seed: u64) -> f64 {
    let mut samples = Vec::new();
    for i in 0..SUB_SEEDS {
        let sub = sub_seed(seed, i);
        let mut tiny = w.sim_config(sub);
        tiny.warmup_requests = 0;
        tiny.measure_requests = w.nodes as u64;
        for rep in 0..SETUP_REPS {
            let ((), secs) = calib::timed(|| {
                if rep > 0 {
                    black_box(Workload::from_preset(PRESET, sub));
                }
                black_box(run_simulation(&tiny));
            });
            samples.push(secs);
        }
    }
    median(&samples)
}

/// End-to-end: set-up, then back-to-back runs for `seconds`, cycling
/// through the run's workloads.
pub fn end_to_end(w: &SimWorkload, run: &Run) -> (Tally, Metrics) {
    let setup = setup_s(w, run.seed);
    let configs: Vec<SimConfig> = (0..SUB_SEEDS)
        .map(|i| w.sim_config(sub_seed(run.seed, i)))
        .collect();
    let mut checkers: Vec<Checker> = configs
        .iter()
        .map(|_| Checker {
            measure: w.measure,
            first: None,
        })
        .collect();
    let mut tally = Tally::default();
    let mut calls: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let start = Instant::now();
    let mut k = 0;
    while k < configs.len() || start.elapsed().as_secs_f64() < run.seconds {
        let i = k % configs.len();
        let (m, secs) = calib::timed(|| run_simulation(&configs[i]));
        calls[i].push(secs);
        tally.record(w.run_requests(), checkers[i].check(&m));
        k += 1;
    }
    // One pass over the run's workloads, each at its median run time.
    let pass_s: f64 = calls.iter().map(|c| median(c)).sum();
    // Simulated outputs repeat exactly at a seed (checked above), so each
    // workload's first run stands for all of them.
    let firsts: Vec<&SimMetrics> = checkers
        .iter()
        .map(|c| c.first.as_ref().expect("every workload ran"))
        .collect();
    let mean =
        |f: fn(&SimMetrics) -> f64| firsts.iter().map(|m| f(m)).sum::<f64>() / firsts.len() as f64;
    eprintln!(
        "perfbench: {k} timed runs of {} simulated requests over {SUB_SEEDS} workloads",
        w.run_requests()
    );
    let mut metrics = Metrics::default();
    metrics.push("setup_s", "s", setup);
    metrics.push(
        "req_per_s",
        "1/s",
        (w.run_requests() * SUB_SEEDS) as f64 / pass_s,
    );
    metrics.push("p50_us", "us", mean(|m| m.p50_response_ms * 1e3));
    metrics.push("p99_us", "us", mean(|m| m.p99_response_ms * 1e3));
    metrics.push("peak_rss_mb", "MB", peak_rss_mb());
    (tally, metrics)
}

/// Per-layer: a traced/untraced pair of runs, the trace fold, the
/// message counts and the probes on this workload's inputs.
pub fn layers(w: &SimWorkload, run: &Run, spans: &mut Spans) -> (Tally, Layers) {
    let seed = run.seed;
    let cfg = w.sim_config(seed);
    let mut l = Layers::default();
    let mut tally = Tally::default();
    let mut checker = Checker {
        measure: w.measure,
        first: None,
    };

    let builds: Vec<f64> = (0..3)
        .map(|_| {
            spans.scope("trace.build", 0, |_| {
                let t = Instant::now();
                black_box(Workload::from_preset(PRESET, seed));
                t.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();
    l.trace_build_ms = median(&builds);

    // The first run also builds the shared workload; it is untimed.
    let m = spans.scope("sim.run_simulation", 0, |_| run_simulation(&cfg));
    tally.record(w.run_requests(), checker.check(&m));
    // Untraced and traced runs alternate, so both see the same host load.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut trace = None;
    let start = Instant::now();
    while plain.len() < TRACE_PAIRS || start.elapsed().as_secs_f64() < run.seconds / 2.0 {
        let t = Instant::now();
        let m = spans.scope("sim.run_simulation", 0, |_| run_simulation(&cfg));
        plain.push(t.elapsed().as_secs_f64());
        tally.record(w.run_requests(), checker.check(&m));
        let t = Instant::now();
        let (m, tr) = spans.scope("sim.run_simulation_traced", 0, |_| {
            run_simulation_traced(&cfg)
        });
        traced.push(t.elapsed().as_secs_f64());
        tally.record(w.run_requests(), checker.check(&m));
        trace = Some(tr);
    }
    l.telem_trace_overhead_ratio = median(&traced) / median(&plain);
    let f = spans.scope("telem.fold", 0, |_| fold(&trace.expect("traced run")));
    l.server_via_post_complete_us_p50 = f.post_complete_p(50.0);
    l.server_via_post_complete_us_p99 = f.post_complete_p(99.0);
    l.server_disk_read_us = f.disk_read_p50();
    l.server_credit_stall_per_req = f.credit_stall_per_req();

    let c = &m.counters;
    let per_req = |n: u64| n as f64 / m.measured_requests as f64;
    l.net_msgs_per_req = per_req(c.total_count());
    l.net_bytes_per_req = per_req(MsgCounters::total_bytes(c));
    l.net_load_msgs_per_req = per_req(c.count(MessageType::Load));
    l.net_flow_msgs_per_req = per_req(c.count(MessageType::Flow));
    l.net_forward_msgs_per_req = per_req(c.count(MessageType::Forward));
    l.net_caching_msgs_per_req = per_req(c.count(MessageType::Caching));
    l.net_file_msgs_per_req = per_req(c.count(MessageType::File));
    l.cluster_cache_hit_ratio = m.hit_rate;
    l.core_forward_fraction = m.forward_fraction;
    l.core_retries = m.retries as f64;
    l.core_shed = m.requests_shed() as f64;

    let wl = Workload::from_preset(PRESET, seed);
    l.trace_sample_ns = spans.scope("trace.sample", 0, |_| {
        let mut rng = StdRng::seed_from_u64(seed);
        ns_per_op(1_000_000, || {
            for _ in 0..1_000_000 {
                black_box(wl.sample(&mut rng));
            }
        })
    });
    let control = c.total_count() - c.count(MessageType::File);
    let control_bytes = MsgCounters::total_bytes(c) - c.bytes(MessageType::File);
    let inp = ProbeInputs {
        nodes: w.nodes,
        cache_bytes: cfg.cache_bytes_per_node,
        queue_depth: w.nodes * cfg.clients_per_node,
        stream: wl
            .stream(seed)
            .take(200_000)
            .map(|f| (f, wl.catalog().size(f)))
            .collect(),
        small_bytes: (control_bytes / control.max(1)) as usize,
        file_bytes: MsgCounters::mean_size(c, MessageType::File) as usize,
        caching_bytes: MsgCounters::mean_size(c, MessageType::Caching) as u64,
        seed,
    };
    l.probe(spans, &inp);
    l.fail_ratio = tally.fail_ratio();
    (tally, l)
}
