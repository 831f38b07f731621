//! Configuring and running complete simulations.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use press_cluster::ServiceRates;
use press_net::ProtocolCombo;
use press_sim::{FaultPlan, SimTime, Simulator};
use press_trace::{RequestLog, ScenarioPlan, TracePreset, Workload, WorkloadSpec};

use crate::forward::MAX_NODES;
use crate::load::Dissemination;
use crate::metrics::Metrics;
use crate::overload::OverloadConfig;
use crate::policy::PolicyConfig;
use crate::server::{ClusterSim, Event, RunParams, SimWorkload};
use crate::version::ServerVersion;

/// Full configuration of one simulated experiment.
///
/// The defaults reproduce the paper's experimental setup: 8 nodes,
/// VIA/cLAN, version 0, piggy-backed load dissemination, `T = 80`,
/// a 256 MB per-node file cache (the machines had 512 MB), and a client
/// population (40 connections per node, ~ the paper's ten client
/// machines) that saturates the server without collapsing into
/// overload-driven replication.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The workload; presets match the paper's four traces.
    pub workload: WorkloadSource,
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Intra-cluster protocol/network combination.
    pub combo: ProtocolCombo,
    /// Server version (Table 3). Ignored (treated as regular messages,
    /// no app-level copies) under the TCP combos.
    pub version: ServerVersion,
    /// Load-information dissemination strategy.
    pub dissemination: Dissemination,
    /// Use remote memory writes for load broadcasts (the ablation at the
    /// end of Section 3.3).
    pub rmw_load_broadcast: bool,
    /// Distribution policy tunables.
    pub policy: PolicyConfig,
    /// Per-node file-cache capacity in bytes.
    pub cache_bytes_per_node: u64,
    /// Closed-loop client connections per node (times `nodes` gives the
    /// total population).
    pub clients_per_node: usize,
    /// Requests completed before measurement starts (cache warmup is also
    /// performed structurally at startup).
    pub warmup_requests: u64,
    /// Requests measured.
    pub measure_requests: u64,
    /// RNG seed (workload generation and request sampling).
    pub seed: u64,
    /// Injected faults and recovery parameters. [`FaultPlan::none`] (the
    /// default) leaves every code path identical to a fault-free build.
    pub faults: FaultPlan,
    /// Overload protection (admission bound, deadline shedding, per-peer
    /// circuit breakers). [`OverloadConfig::disabled`] (the default) is
    /// inert.
    pub overload: OverloadConfig,
    /// Chaos scenario (arrival surges, working-set drift, file updates).
    /// [`ScenarioPlan::none`] (the default) is inert.
    pub scenario: ScenarioPlan,
}

/// Most closed-loop clients a run may have, over all nodes.
///
/// The event queue holds at most 2²⁴ pending events, and each client
/// keeps a few in flight; 2²⁰ clients leaves sixteen each.
pub(crate) const MAX_CLIENTS: usize = 1 << 20;

/// Why a [`SimConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The cluster needs at least two nodes (the paper's protocol has
    /// nothing to distribute on one).
    TooFewNodes(usize),
    /// More nodes than a node mask holds ([`MAX_NODES`]).
    TooManyNodes(usize),
    /// No closed-loop clients.
    NoClients,
    /// More clients in all than [`MAX_CLIENTS`].
    TooManyClients(usize),
    /// Nothing to measure.
    NoMeasuredRequests,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewNodes(n) => {
                write!(f, "{n} node(s): the cluster needs at least two nodes")
            }
            ConfigError::TooManyNodes(n) => {
                write!(f, "{n} nodes: at most {MAX_NODES} nodes are supported")
            }
            ConfigError::NoClients => f.write_str("no clients: at least one per node is needed"),
            ConfigError::TooManyClients(n) => {
                write!(f, "{n} clients: at most {MAX_CLIENTS} in all are supported")
            }
            ConfigError::NoMeasuredRequests => {
                f.write_str("0 measured requests: nothing to measure")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Where the workload comes from.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// One of the paper's four trace presets.
    Preset(TracePreset),
    /// An explicit spec.
    Spec(WorkloadSpec),
    /// Replay a recorded request log (e.g. a converted real server log),
    /// cycling when the log is shorter than warmup + measurement. Held
    /// behind an [`Arc`] so batches of runs share one log.
    Replay(Arc<RequestLog>),
}

/// Cache key for memoized synthetic workloads: the full generating spec
/// plus the seed (`f64` fields keyed by their bit patterns, which is exact
/// for the round-trip values a spec carries).
#[derive(PartialEq, Eq, Hash)]
enum WorkloadKey {
    Preset(TracePreset, u64),
    Spec {
        num_files: usize,
        avg_file_bytes: u64,
        num_requests: u64,
        target_avg_request_bytes: u64,
        zipf_alpha_bits: u64,
        size_bias_bits: u64,
        seed: u64,
    },
}

/// Builds a workload once per distinct `(spec, seed)` and shares it.
///
/// Workload construction calibrates the size–popularity bias by bisection
/// over freshly generated catalogs, which dominates setup time; an
/// experiment batch that sweeps versions or strategies over one trace pays
/// that cost once instead of per run. The cache only ever holds workloads
/// for configurations actually run, and they are small (catalog + CDF).
fn cached_workload(key: WorkloadKey, build: impl FnOnce() -> Workload) -> Arc<Workload> {
    static CACHE: OnceLock<Mutex<HashMap<WorkloadKey, Arc<Workload>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    // Building under the lock means concurrent runs of the same trace
    // wait for one build instead of duplicating it.
    Arc::clone(map.entry(key).or_insert_with(|| Arc::new(build())))
}

impl SimConfig {
    /// The paper's defaults for a given trace.
    pub fn paper_default(preset: TracePreset) -> Self {
        SimConfig {
            workload: WorkloadSource::Preset(preset),
            nodes: 8,
            combo: ProtocolCombo::ViaClan,
            version: ServerVersion::V0,
            dissemination: Dissemination::Piggyback,
            rmw_load_broadcast: false,
            policy: PolicyConfig::default(),
            cache_bytes_per_node: 256 << 20,
            clients_per_node: 40,
            warmup_requests: 30_000,
            measure_requests: 120_000,
            seed: 0xC0FFEE,
            faults: FaultPlan::none(),
            overload: OverloadConfig::disabled(),
            scenario: ScenarioPlan::none(),
        }
    }

    /// A small, fast configuration for tests, doc examples and the
    /// quickstart example (a few thousand requests on 4 nodes).
    pub fn quick_demo() -> Self {
        SimConfig {
            workload: WorkloadSource::Spec(WorkloadSpec {
                num_files: 2_000,
                avg_file_bytes: 12 * 1024,
                num_requests: 50_000,
                target_avg_request_bytes: 9 * 1024,
                zipf_alpha: 0.8,
                size_bias: 0.4,
            }),
            nodes: 4,
            combo: ProtocolCombo::ViaClan,
            version: ServerVersion::V0,
            dissemination: Dissemination::Piggyback,
            rmw_load_broadcast: false,
            policy: PolicyConfig::default(),
            cache_bytes_per_node: 6 << 20,
            clients_per_node: 16,
            warmup_requests: 1_000,
            measure_requests: 4_000,
            seed: 7,
            faults: FaultPlan::none(),
            overload: OverloadConfig::disabled(),
            scenario: ScenarioPlan::none(),
        }
    }

    /// Checks the limits a run needs before anything is built.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] the configuration violates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let clients = self.clients_per_node.saturating_mul(self.nodes);
        if self.nodes < 2 {
            Err(ConfigError::TooFewNodes(self.nodes))
        } else if self.nodes > MAX_NODES {
            Err(ConfigError::TooManyNodes(self.nodes))
        } else if self.clients_per_node == 0 {
            Err(ConfigError::NoClients)
        } else if clients > MAX_CLIENTS {
            Err(ConfigError::TooManyClients(clients))
        } else if self.measure_requests == 0 {
            Err(ConfigError::NoMeasuredRequests)
        } else {
            Ok(())
        }
    }

    /// Builds the request source described by this configuration.
    ///
    /// Synthetic workloads are memoized per `(spec, seed)`: repeated runs
    /// over the same trace share one immutable `Workload` behind an `Arc`.
    pub(crate) fn build_source(&self) -> SimWorkload {
        match &self.workload {
            WorkloadSource::Preset(p) => {
                let key = WorkloadKey::Preset(*p, self.seed);
                let (p, seed) = (*p, self.seed);
                SimWorkload::Synthetic(cached_workload(key, || Workload::from_preset(p, seed)))
            }
            WorkloadSource::Spec(s) => {
                let key = WorkloadKey::Spec {
                    num_files: s.num_files,
                    avg_file_bytes: s.avg_file_bytes,
                    num_requests: s.num_requests,
                    target_avg_request_bytes: s.target_avg_request_bytes,
                    zipf_alpha_bits: s.zipf_alpha.to_bits(),
                    size_bias_bits: s.size_bias.to_bits(),
                    seed: self.seed,
                };
                let (s, seed) = (*s, self.seed);
                SimWorkload::Synthetic(cached_workload(key, || Workload::from_spec(s, seed)))
            }
            WorkloadSource::Replay(log) => SimWorkload::Replay(Arc::clone(log)),
        }
    }
}

/// Runs one complete simulation to completion and returns its metrics.
///
/// The run warms caches structurally (files pre-distributed round-robin by
/// popularity), completes `warmup_requests` before resetting statistics,
/// then measures `measure_requests`.
///
/// # Panics
///
/// Panics if [`SimConfig::validate`] rejects the configuration, or if
/// the simulation fails to reach its measurement target (a model bug).
///
/// # Example
///
/// ```
/// use press_core::{run_simulation, SimConfig};
///
/// let metrics = run_simulation(&SimConfig::quick_demo());
/// assert!(metrics.throughput_rps > 0.0);
/// assert!(metrics.hit_rate > 0.5);
/// ```
pub fn run_simulation(cfg: &SimConfig) -> Metrics {
    run_inner(cfg, false, false).0
}

/// Like [`run_simulation`], but records a request-span trace alongside the
/// metrics.
///
/// Tracing is passive: the returned [`Metrics`] are identical to what
/// [`run_simulation`] produces for the same configuration, and the trace
/// carries one span/instant per modeled step of every request (arrival,
/// dispatch decision, cache/disk service, VIA send/receive, credit stalls,
/// reply transmission) suitable for Chrome `trace_event` export. Spans
/// carry causal `(span, parent)` links stitched across nodes via the
/// message-borne context, so a forwarded request assembles into one
/// multi-node trace.
pub fn run_simulation_traced(cfg: &SimConfig) -> (Metrics, press_telem::Trace) {
    let (metrics, trace, _) = run_inner(cfg, true, false);
    (metrics, trace.expect("tracing was enabled"))
}

/// Like [`run_simulation_traced`], but with the always-on flight
/// recorder armed as well: a bounded, deterministically sampled store of
/// complete request traces that snapshots itself whenever a circuit
/// breaker opens during the run. Both recorders are passive — metrics
/// are identical to an untraced run of the same configuration.
pub fn run_simulation_flight(
    cfg: &SimConfig,
) -> (Metrics, press_telem::Trace, press_telem::FlightRecorder) {
    let (metrics, trace, flight) = run_inner(cfg, true, true);
    (
        metrics,
        trace.expect("tracing was enabled"),
        flight.expect("flight recorder was enabled"),
    )
}

fn run_inner(
    cfg: &SimConfig,
    traced: bool,
    flight: bool,
) -> (
    Metrics,
    Option<press_telem::Trace>,
    Option<press_telem::FlightRecorder>,
) {
    if let Err(e) = cfg.validate() {
        panic!("invalid simulation config: {e}");
    }
    cfg.faults.assert_valid(cfg.nodes);
    let source = cfg.build_source();
    cfg.scenario.assert_valid(
        (cfg.clients_per_node * cfg.nodes) as u64,
        source.catalog().len() as u32,
    );
    let params = RunParams {
        nodes: cfg.nodes,
        cost: cfg.combo.cost_model(),
        version: cfg.version,
        dissemination: cfg.dissemination,
        policy: cfg.policy,
        rates: ServiceRates::default(),
        rmw_load_broadcast: cfg.rmw_load_broadcast,
        warmup_requests: cfg.warmup_requests,
        measure_requests: cfg.measure_requests,
        faults: cfg.faults.clone(),
        overload: cfg.overload,
        scenario: cfg.scenario.clone(),
    };
    let mut sim_model =
        ClusterSim::new(params, source, cfg.cache_bytes_per_node, cfg.seed ^ 0x5EED);
    if traced {
        sim_model.enable_trace();
    }
    if flight {
        sim_model.enable_flight(
            press_telem::DEFAULT_FLIGHT_KEEP,
            press_telem::DEFAULT_FLIGHT_SAMPLE,
        );
    }
    let mut sim = Simulator::new(sim_model);
    // Stagger the initial client population to avoid a thundering herd at
    // t = 0 (clients then pick nodes uniformly at random on every request).
    let total_clients = cfg.clients_per_node * cfg.nodes;
    for c in 0..total_clients {
        let node = (c % cfg.nodes) as u16;
        let at = SimTime::from_micros(97 * c as u64);
        sim.scheduler_mut().schedule(at, Event::NewRequest { node });
    }
    sim.run();
    assert!(
        sim.model().finished(),
        "simulation drained before reaching the measurement target"
    );
    let metrics = Metrics::from_sim(sim.model());
    let trace = sim.model_mut().take_trace();
    let flight = sim.model_mut().take_flight();
    (metrics, trace, flight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_demo_runs_and_measures() {
        let m = run_simulation(&SimConfig::quick_demo());
        assert_eq!(m.measured_requests, 4_000);
        assert_eq!(m.stuck_messages, 0, "flow-control credits leaked");
        assert!(m.throughput_rps > 0.0);
        assert!(m.measure_seconds > 0.0);
        assert!(m.mean_response_ms > 0.0);
        assert!(m.hit_rate > 0.0 && m.hit_rate <= 1.0);
        assert!(m.forward_fraction >= 0.0 && m.forward_fraction <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_simulation(&SimConfig::quick_demo());
        let b = run_simulation(&SimConfig::quick_demo());
        assert_eq!(a.throughput_rps, b.throughput_rps);
        assert_eq!(a.counters.total_count(), b.counters.total_count());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = SimConfig::quick_demo();
        let a = run_simulation(&cfg);
        cfg.seed = 8;
        let b = run_simulation(&cfg);
        assert_ne!(a.throughput_rps, b.throughput_rps);
    }

    #[test]
    fn tcp_slower_than_via() {
        let mut cfg = SimConfig::quick_demo();
        cfg.combo = ProtocolCombo::ViaClan;
        let via = run_simulation(&cfg);
        cfg.combo = ProtocolCombo::TcpFe;
        let tcp = run_simulation(&cfg);
        assert!(
            via.throughput_rps > tcp.throughput_rps,
            "VIA {} <= TCP/FE {}",
            via.throughput_rps,
            tcp.throughput_rps
        );
    }

    #[test]
    fn via_has_flow_messages_tcp_does_not() {
        use press_net::MessageType;
        let mut cfg = SimConfig::quick_demo();
        let via = run_simulation(&cfg);
        assert!(via.counters.count(MessageType::Flow) > 0);
        cfg.combo = ProtocolCombo::TcpClan;
        let tcp = run_simulation(&cfg);
        assert_eq!(tcp.counters.count(MessageType::Flow), 0);
    }

    #[test]
    fn infinite_threshold_disables_replication() {
        // With T = infinity the overload escape hatch never fires, so no
        // file is ever replicated after warmup: caching broadcasts drop to
        // the warmup-only baseline, far below an aggressive threshold.
        use press_net::MessageType;
        let caching_rate = |threshold: u32| {
            let mut cfg = SimConfig::quick_demo();
            cfg.policy.overload_threshold = threshold;
            let m = run_simulation(&cfg);
            m.counters.count(MessageType::Caching) as f64 / m.measured_requests as f64
        };
        let aggressive = caching_rate(16);
        let infinite = caching_rate(u32::MAX);
        assert!(
            infinite < aggressive / 4.0,
            "caching msgs/request: infinite T {infinite} vs aggressive T {aggressive}"
        );
        assert!(infinite < 0.05, "caching msgs/request {infinite}");
    }

    #[test]
    fn rmw_load_broadcast_helps_l1() {
        use crate::load::Dissemination;
        let mut cfg = SimConfig::quick_demo();
        cfg.dissemination = Dissemination::Broadcast(1);
        cfg.rmw_load_broadcast = false;
        let regular = run_simulation(&cfg);
        cfg.rmw_load_broadcast = true;
        let rmw = run_simulation(&cfg);
        // The paper: "using remote memory writes for the load broadcasts
        // improves the performance of L1 significantly".
        assert!(
            rmw.throughput_rps > regular.throughput_rps,
            "rmw {} vs regular {}",
            rmw.throughput_rps,
            regular.throughput_rps
        );
    }

    #[test]
    fn more_nodes_more_throughput() {
        let mut cfg = SimConfig::quick_demo();
        cfg.nodes = 2;
        let two = run_simulation(&cfg);
        cfg.nodes = 8;
        cfg.clients_per_node = 16;
        let eight = run_simulation(&cfg);
        assert!(eight.throughput_rps > 2.0 * two.throughput_rps);
    }

    #[test]
    fn replayed_log_drives_the_simulation() {
        use press_trace::{RequestLog, Workload};
        // Record a log from the quick-demo workload, then replay it: the
        // same requests in the same order make the run deterministic and
        // independent of the Zipf sampler.
        let base = SimConfig::quick_demo();
        let wl = match &base.workload {
            WorkloadSource::Spec(s) => Workload::from_spec(*s, base.seed),
            _ => unreachable!("quick demo uses a spec"),
        };
        let log = RequestLog::sample(&wl, 8_000, 99);
        let mut cfg = base;
        cfg.workload = WorkloadSource::Replay(Arc::new(log));
        cfg.warmup_requests = 500;
        cfg.measure_requests = 2_000;
        let a = run_simulation(&cfg);
        let b = run_simulation(&cfg);
        assert!(a.throughput_rps > 0.0);
        assert_eq!(a.throughput_rps, b.throughput_rps);
        assert_eq!(a.counters.total_count(), b.counters.total_count());
    }

    #[test]
    fn short_logs_cycle() {
        use press_trace::FileId;
        use press_trace::{FileCatalog, RequestLog};
        // A 50-request log replayed for 1500 completions must wrap.
        let catalog = FileCatalog::from_sizes(vec![4096; 20]);
        let requests: Vec<FileId> = (0..50).map(|i| FileId(i % 20)).collect();
        let log = RequestLog::from_parts(catalog, requests);
        let mut cfg = SimConfig::quick_demo();
        cfg.workload = WorkloadSource::Replay(Arc::new(log));
        cfg.cache_bytes_per_node = 1 << 20;
        cfg.warmup_requests = 300;
        cfg.measure_requests = 1_200;
        let m = run_simulation(&cfg);
        assert_eq!(m.measured_requests, 1_200);
        assert!(m.hit_rate > 0.9, "tiny cycled working set should hit");
    }

    #[test]
    fn validate_names_the_first_violated_limit() {
        let mut cfg = SimConfig::quick_demo();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.nodes = MAX_NODES;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.nodes = MAX_NODES + 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyNodes(MAX_NODES + 1))
        );
        cfg.nodes = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooFewNodes(1)));
        cfg.nodes = 4;
        cfg.clients_per_node = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoClients));
        cfg.clients_per_node = MAX_CLIENTS / 4 + 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyClients(MAX_CLIENTS + 4))
        );
        cfg.clients_per_node = 1;
        cfg.measure_requests = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoMeasuredRequests));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_single_node() {
        let mut cfg = SimConfig::quick_demo();
        cfg.nodes = 1;
        let _ = run_simulation(&cfg);
    }
}
