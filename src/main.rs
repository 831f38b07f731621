//! `press` — command-line front end for the PRESS reproduction.
//!
//! ```text
//! press traces
//! press simulate --trace clarknet --combo via --version v5 --nodes 8
//! press model --hsn 0.9 --nodes 32 --file-kb 16
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use press::core::{
    run_simulation, run_simulation_traced, Dissemination, ExperimentRunner, Job, Metrics,
    ServerVersion, SimConfig, WorkloadSource,
};
use press::model::{throughput, CommVariant, ModelParams};
use press::net::ProtocolCombo;
use press::trace::{RequestLog, TracePreset, TraceStats, Workload};

const USAGE: &str = "\
press — User-Level Communication in Cluster-Based Servers (reproduction)

USAGE:
    press traces
        Print the synthetic trace characteristics (Table 1).

    press simulate [OPTIONS]
        Run one cluster simulation and print its metrics.
        --trace    clarknet|forth|nasa|rutgers   (default clarknet)
        --replay   path to a request log (overrides --trace)
        --combo    tcp-fe|tcp-clan|via           (default via)
        --version  v0..v6                        (default v0)
        --strategy pb|l1|l4|l16|nlb|t1|t4|t16|p2c|sp4  (default pb)
        --nodes    N                             (default 8)
        --clients  closed-loop clients per node  (default 40)
        --measure  requests                      (default 60000)
        --warmup   requests                      (default 20000)
        --seed     u64                           (default 12648430)

    press export [OPTIONS]
        Write a synthetic request log for external tools or later replay.
        --trace    clarknet|forth|nasa|rutgers   (default clarknet)
        --requests number of requests            (default 100000)
        --out      output path                   (required)
        --seed     u64                           (default 42)

    press sweep [OPTIONS]
        Run the cross product of the listed configurations in one batch
        (parallelised across PRESS_THREADS worker threads) and print one
        result row per combination, in submission order.
        --traces     comma list of clarknet|forth|nasa|rutgers (default clarknet)
        --combos     comma list of tcp-fe|tcp-clan|via         (default via)
        --versions   comma list of v0..v6                      (default v0)
        --strategies comma list of pb|l1|l4|l16|nlb|t1|t4|t16|p2c|sp4 (default pb)
        --nodes      N                                         (default 8)
        --measure    requests                                  (default 60000)
        --warmup     requests                                  (default 20000)
        --seed       u64                                       (default 12648430)

    press trace <experiment> [OPTIONS]
        Run one traced simulation and export its observability artifacts:
        a Chrome trace_event JSON (open in Perfetto / chrome://tracing),
        the metrics registry as CSV and JSON, and per-resource
        utilization timelines. Experiments: fig5 | fig5_versions | demo.
        --measure  requests                      (default 10000)
        --warmup   requests                      (default 2000)
        --nodes    N                             (default per experiment)
        --seed     u64                           (default 12648430)
        --out      output directory              (default results)

    press attribute [OPTIONS]
        Attribute every traced nanosecond of simulated requests to one
        critical-path bucket and print a fig3-style breakdown table per
        (version, strategy) pair, with p50/p99 critical paths and a
        stitched multi-node Chrome trace per pair. The sim engine is
        deterministic: the same seed prints byte-identical tables.
        --trace      clarknet|forth|nasa|rutgers   (default clarknet)
        --versions   comma list of v0..v6          (default v0,v5,v6)
        --strategies comma list of pb|l1|l4|l16|nlb|t1|t4|t16|p2c|sp4 (default pb)
        --nodes      N                             (default 8)
        --measure    requests                      (default 10000)
        --warmup     requests                      (default 2000)
        --seed       u64                           (default 12648430)
        --out        output directory              (default results)

    press model [OPTIONS]
        Evaluate the analytical model (Section 4).
        --variant  tcp|tcp-nextgen|via|via-rmw|via-nextgen|via-fastpath (default via)
        --hsn      single-node hit rate          (default 0.9)
        --nodes    N                             (default 8)
        --file-kb  average file size             (default 16)

    press chaos [OPTIONS]
        Run the seeded chaos scenario suite (flash crowds, diurnal load,
        working-set drift, content churn, node crashes) and print one SLO
        report card per scenario. The sim engine is deterministic: the
        same seed renders byte-identical cards. Live cards carry
        wall-clock latencies and are reduced to their structural lines
        under --quiet. Failing cards
        (and, in the sim, breaker-trips) dump flight-recorder traces to
        results/flight_chaos_<engine>_<arm>.json.
        --engine     sim|live                    (default sim)
        --trace      clarknet|forth|nasa|rutgers (default clarknet; sim)
        --nodes      N                           (default 8 sim, 4 live)
        --clients    client threads              (default 8; live)
        --measure    requests per scenario       (default 20000 sim, 2000 live)
        --warmup     requests                    (default 5000 sim, 400 live)
        --seed       u64                         (default 12648430)
        --suite      full|smoke                  (default full)
        --protection on|off|both                 (default both sim, on live)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("traces") => cmd_traces(),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("attribute") => cmd_attribute(&args[1..]),
        Some("model") => cmd_model(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            press::telem::error(&format!("unknown command: {other}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` pairs; rejects unknown keys against `allowed`.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {key}"))?;
        if !allowed.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("invalid --{key}: {v}")),
        None => Ok(default),
    }
}

fn cmd_traces() -> ExitCode {
    println!("{}", TraceStats::table_header());
    for preset in TracePreset::ALL {
        let wl = Workload::from_preset(preset, 42);
        let mut stats = wl.stats();
        stats.name = preset.name().to_string();
        println!("{stats}");
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let flags = parse_flags(
            args,
            &[
                "trace", "replay", "combo", "version", "strategy", "nodes", "clients", "measure",
                "warmup", "seed",
            ],
        )?;
        let preset = parse_preset(flags.get("trace").map(String::as_str))?;
        let mut cfg = SimConfig::paper_default(preset);
        if let Some(path) = flags.get("replay") {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let log = RequestLog::read(file).map_err(|e| format!("bad log {path}: {e}"))?;
            cfg.workload = WorkloadSource::Replay(std::sync::Arc::new(log));
        }
        cfg.combo = parse_combo(flags.get("combo").map(String::as_str).unwrap_or("via"))?;
        cfg.version = parse_version(flags.get("version").map(String::as_str).unwrap_or("v0"))?;
        cfg.dissemination =
            parse_strategy(flags.get("strategy").map(String::as_str).unwrap_or("pb"))?;
        cfg.nodes = parse(&flags, "nodes", 8usize)?;
        cfg.clients_per_node = parse(&flags, "clients", cfg.clients_per_node)?;
        cfg.measure_requests = parse(&flags, "measure", 60_000u64)?;
        cfg.warmup_requests = parse(&flags, "warmup", 20_000u64)?;
        cfg.seed = parse(&flags, "seed", cfg.seed)?;
        cfg.validate().map_err(|e| e.to_string())?;

        let m = run_simulation(&cfg);
        println!(
            "{} nodes, {}, {}, {} strategy, {} measured requests",
            cfg.nodes,
            cfg.combo.name(),
            cfg.version.name(),
            cfg.dissemination.name(),
            m.measured_requests
        );
        println!("throughput:        {:>10.0} req/s", m.throughput_rps);
        println!("mean response:     {:>10.2} ms", m.mean_response_ms);
        println!(
            "response p50/p95/p99: {:>7.1} / {:.1} / {:.1} ms",
            m.p50_response_ms, m.p95_response_ms, m.p99_response_ms
        );
        println!("cache hit rate:    {:>10.4}", m.hit_rate);
        println!("forwarded:         {:>10.3}", m.forward_fraction);
        println!(
            "int-comm CPU:      {:>9.1}%",
            100.0 * m.intcomm_cpu_fraction
        );
        println!(
            "int-comm CPU+wire: {:>9.1}%",
            100.0 * m.intcomm_wall_fraction
        );
        println!("cpu utilization:   {:>10.3}", m.cpu_utilization);
        println!("disk utilization:  {:>10.3}", m.disk_utilization);
        println!("\nintra-cluster messages:");
        print!("{}", m.counters.format_table(1.0));
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

fn parse_preset(name: Option<&str>) -> Result<TracePreset, String> {
    match name.unwrap_or("clarknet") {
        "clarknet" => Ok(TracePreset::Clarknet),
        "forth" => Ok(TracePreset::Forth),
        "nasa" => Ok(TracePreset::Nasa),
        "rutgers" => Ok(TracePreset::Rutgers),
        other => Err(format!("unknown trace {other}")),
    }
}

fn parse_combo(name: &str) -> Result<ProtocolCombo, String> {
    match name {
        "tcp-fe" => Ok(ProtocolCombo::TcpFe),
        "tcp-clan" => Ok(ProtocolCombo::TcpClan),
        "via" => Ok(ProtocolCombo::ViaClan),
        other => Err(format!("unknown combo {other}")),
    }
}

fn parse_version(name: &str) -> Result<ServerVersion, String> {
    match name {
        "v0" => Ok(ServerVersion::V0),
        "v1" => Ok(ServerVersion::V1),
        "v2" => Ok(ServerVersion::V2),
        "v3" => Ok(ServerVersion::V3),
        "v4" => Ok(ServerVersion::V4),
        "v5" => Ok(ServerVersion::V5),
        "v6" => Ok(ServerVersion::V6),
        other => Err(format!("unknown version {other}")),
    }
}

fn parse_strategy(name: &str) -> Result<Dissemination, String> {
    match name {
        "pb" => Ok(Dissemination::Piggyback),
        "l1" => Ok(Dissemination::Broadcast(1)),
        "l4" => Ok(Dissemination::Broadcast(4)),
        "l16" => Ok(Dissemination::Broadcast(16)),
        "nlb" => Ok(Dissemination::None),
        "t1" => Ok(Dissemination::TreeBroadcast(1)),
        "t4" => Ok(Dissemination::TreeBroadcast(4)),
        "t16" => Ok(Dissemination::TreeBroadcast(16)),
        "p2c" => Ok(Dissemination::PowerOfTwoChoices(2)),
        "sp4" => Ok(Dissemination::SparsePull {
            threshold: 4,
            fanout: 4,
        }),
        other => Err(format!("unknown strategy {other}")),
    }
}

/// Splits a comma-separated flag value and parses each item.
fn parse_list<T>(
    flags: &HashMap<String, String>,
    key: &str,
    default: &str,
    parse_one: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    flags
        .get(key)
        .map(String::as_str)
        .unwrap_or(default)
        .split(',')
        .map(|item| parse_one(item.trim()))
        .collect()
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    // `--quiet`/`-q` is a bare switch (honored by `press::telem::quiet`),
    // not a `--flag value` pair; strip it before pair parsing.
    let args: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--quiet" && a.as_str() != "-q")
        .cloned()
        .collect();
    let run = || -> Result<(), String> {
        let flags = parse_flags(
            &args,
            &[
                "traces",
                "combos",
                "versions",
                "strategies",
                "nodes",
                "measure",
                "warmup",
                "seed",
            ],
        )?;
        let traces = parse_list(&flags, "traces", "clarknet", |s| parse_preset(Some(s)))?;
        let combos = parse_list(&flags, "combos", "via", parse_combo)?;
        let versions = parse_list(&flags, "versions", "v0", parse_version)?;
        let strategies = parse_list(&flags, "strategies", "pb", parse_strategy)?;
        let nodes = parse(&flags, "nodes", 8usize)?;
        let measure = parse(&flags, "measure", 60_000u64)?;
        let warmup = parse(&flags, "warmup", 20_000u64)?;

        let mut jobs = Vec::new();
        for &preset in &traces {
            for &combo in &combos {
                for &version in &versions {
                    for &strategy in &strategies {
                        let mut cfg = SimConfig::paper_default(preset);
                        cfg.combo = combo;
                        cfg.version = version;
                        cfg.dissemination = strategy;
                        cfg.nodes = nodes;
                        cfg.measure_requests = measure;
                        cfg.warmup_requests = warmup;
                        cfg.seed = parse(&flags, "seed", cfg.seed)?;
                        cfg.validate().map_err(|e| e.to_string())?;
                        let label = format!(
                            "{}/{}/{}/{}",
                            preset.name(),
                            combo.name(),
                            version.name(),
                            strategy.name()
                        );
                        jobs.push(Job::new(label, cfg));
                    }
                }
            }
        }
        let runner = ExperimentRunner::from_env();
        press::telem::progress_with(|| {
            format!(
                "sweep: {} runs on {} thread(s)",
                jobs.len(),
                runner.threads()
            )
        });
        let results = runner.run(jobs);
        println!(
            "{:<36} {:>10} {:>10} {:>9}",
            "configuration", "req/s", "resp ms", "hit rate"
        );
        // Wall time is deliberately not printed: stdout must be identical
        // for any PRESS_THREADS so sweeps diff cleanly across machines.
        for r in results {
            println!(
                "{:<36} {:>10.0} {:>10.2} {:>9.4}",
                r.label, r.metrics.throughput_rps, r.metrics.mean_response_ms, r.metrics.hit_rate
            );
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let flags = parse_flags(args, &["trace", "requests", "out", "seed"])?;
        let preset = parse_preset(flags.get("trace").map(String::as_str))?;
        let requests: usize = parse(&flags, "requests", 100_000)?;
        let seed: u64 = parse(&flags, "seed", 42)?;
        let out = flags
            .get("out")
            .ok_or_else(|| "--out is required".to_string())?;
        let wl = Workload::from_preset(preset, seed);
        let log = RequestLog::sample(&wl, requests, seed ^ 0xA5A5);
        let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        log.write(file).map_err(|e| format!("write failed: {e}"))?;
        let stats = log.stats();
        println!(
            "wrote {requests} requests over {} files to {out} (avg request {:.1} KB)",
            stats.num_files,
            stats.avg_request_bytes / 1024.0
        );
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

/// Utilization timeline bucket width: 1 ms of virtual time.
const UTIL_BUCKET_NS: u64 = 1_000_000;

fn cmd_trace(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let (experiment, rest) = args
            .split_first()
            .ok_or_else(|| "trace needs an experiment: fig5 | fig5_versions | demo".to_string())?;
        let flags = parse_flags(rest, &["measure", "warmup", "nodes", "seed", "out"])?;
        let mut cfg = match experiment.as_str() {
            // The Figure 5 headline configuration: full PRESS (V5) over
            // VIA on the ClarkNet trace.
            "fig5" | "fig5_versions" => {
                let mut cfg = SimConfig::paper_default(TracePreset::Clarknet);
                cfg.version = ServerVersion::V5;
                cfg
            }
            "demo" => SimConfig::quick_demo(),
            other => {
                return Err(format!(
                    "unknown experiment {other}: expected fig5, fig5_versions, or demo"
                ))
            }
        };
        // Traces of full paper-length runs are enormous; default to a
        // short slice that still exercises every span type.
        cfg.measure_requests = parse(&flags, "measure", 10_000u64)?;
        cfg.warmup_requests = parse(&flags, "warmup", 2_000u64)?;
        cfg.nodes = parse(&flags, "nodes", cfg.nodes)?;
        cfg.seed = parse(&flags, "seed", cfg.seed)?;
        cfg.validate().map_err(|e| e.to_string())?;
        let out_dir = flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "results".into());

        press::telem::progress_with(|| {
            format!(
                "tracing {experiment}: {} nodes, {} measured requests ...",
                cfg.nodes, cfg.measure_requests
            )
        });
        let (metrics, trace) = run_simulation_traced(&cfg);

        let chrome = press::telem::chrome_trace_json(&trace);
        let check = press::telem::validate_chrome_json(&chrome)
            .map_err(|e| format!("exported trace failed validation: {e}"))?;

        let mut reg = press::telem::Registry::default();
        metrics.fill_registry(&mut reg, &[("experiment", experiment), ("engine", "sim")]);
        let records = reg.records();

        std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
        let write = |name: &str, body: &str| -> Result<String, String> {
            let path = format!("{out_dir}/{name}");
            std::fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(path)
        };
        let trace_path = write(&format!("trace_{experiment}.json"), &chrome)?;
        let csv_path = write(
            &format!("metrics_{experiment}.csv"),
            &press::telem::metrics_csv(&records),
        )?;
        let json_path = write(
            &format!("metrics_{experiment}.json"),
            &press::telem::metrics_json(&records),
        )?;
        let util_path = write(
            &format!("utilization_{experiment}.csv"),
            &press::telem::utilization_csv(&trace, UTIL_BUCKET_NS),
        )?;

        print_trace_summary(experiment, &metrics, &trace, &check);
        println!("\nartifacts:");
        println!("  {trace_path}   (open in https://ui.perfetto.dev or chrome://tracing)");
        println!("  {csv_path}");
        println!("  {json_path}");
        println!("  {util_path}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

fn print_trace_summary(
    experiment: &str,
    metrics: &Metrics,
    trace: &press::telem::Trace,
    check: &press::telem::TraceCheck,
) {
    println!(
        "{experiment}: {:.0} req/s over {} measured requests",
        metrics.throughput_rps, metrics.measured_requests
    );
    println!(
        "trace: {} events ({} spans) across {} nodes, {} VIA-level events",
        check.events,
        check.spans,
        check.nodes.len(),
        check.via_events
    );
    if trace.dropped() > 0 {
        println!(
            "warning: {} events dropped (raise the buffer or shorten the run)",
            trace.dropped()
        );
    }
}

/// One traced sim per (version, strategy): fig3-style breakdown tables
/// on stdout (integer virtual-time nanoseconds, so a fixed seed prints
/// byte-identical output), a stitched multi-node Chrome trace per pair,
/// and idempotent rows in the bench log.
fn cmd_attribute(args: &[String]) -> ExitCode {
    // `--quiet`/`-q` is a bare switch, as in `press sweep`.
    let args: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--quiet" && a.as_str() != "-q")
        .cloned()
        .collect();
    let run = || -> Result<(), String> {
        let flags = parse_flags(
            &args,
            &[
                "trace",
                "versions",
                "strategies",
                "nodes",
                "measure",
                "warmup",
                "seed",
                "out",
            ],
        )?;
        let preset = parse_preset(flags.get("trace").map(String::as_str))?;
        let versions = parse_list(&flags, "versions", "v0,v5,v6", parse_version)?;
        let strategies = parse_list(&flags, "strategies", "pb", parse_strategy)?;
        let nodes = parse(&flags, "nodes", 8usize)?;
        let measure = parse(&flags, "measure", 10_000u64)?;
        let warmup = parse(&flags, "warmup", 2_000u64)?;
        let out_dir = flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "results".into());
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;

        let mut artifacts: Vec<String> = Vec::new();
        for &version in &versions {
            for &strategy in &strategies {
                let mut cfg = SimConfig::paper_default(preset);
                cfg.version = version;
                cfg.dissemination = strategy;
                cfg.nodes = nodes;
                cfg.measure_requests = measure;
                cfg.warmup_requests = warmup;
                cfg.seed = parse(&flags, "seed", cfg.seed)?;
                cfg.validate().map_err(|e| e.to_string())?;
                press::telem::progress_with(|| {
                    format!("attribute: {}/{} ...", version.name(), strategy.name())
                });
                let (_, trace) = run_simulation_traced(&cfg);
                let attrs = press::telem::attribute_trace(&trace);
                let summary = press::telem::summarize(&attrs);
                println!(
                    "== attribute | {} | {} | {} | {} nodes | seed {} ==",
                    preset.name(),
                    version.name(),
                    strategy.name(),
                    cfg.nodes,
                    cfg.seed
                );
                print_attribution(&summary);

                let chrome = press::telem::chrome_trace_json(&trace);
                press::telem::validate_chrome_json(&chrome)
                    .map_err(|e| format!("stitched trace failed validation: {e}"))?;
                let path = format!(
                    "{out_dir}/trace_attr_{}_{}.json",
                    version.name(),
                    strategy.name()
                );
                std::fs::write(&path, &chrome).map_err(|e| format!("cannot write {path}: {e}"))?;
                artifacts.push(path);
                println!();
            }
        }
        println!("artifacts:");
        for p in &artifacts {
            println!("  {p}   (open in https://ui.perfetto.dev or chrome://tracing)");
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

/// The fig3-style table: mean nanoseconds per request charged to each
/// bucket (with its integer share of the charged total), then the p50
/// and p99 exemplar critical paths. Conservation holds by construction —
/// each request's bucket charges sum exactly to its end-to-end latency.
fn print_attribution(summary: &press::telem::AttributionSummary) {
    println!(
        "requests {} attributed ({} forwarded across nodes), mean end-to-end {} ns",
        summary.requests, summary.forwarded, summary.mean_total_ns
    );
    let charged: u64 = summary.mean_ns.iter().sum();
    println!("{:<14} {:>14} {:>7}", "bucket", "mean ns/req", "share");
    for b in press::telem::BUCKETS {
        let ns = summary.mean_ns[b as usize];
        let share = (ns * 100).checked_div(charged).unwrap_or(0);
        println!("{:<14} {:>14} {:>6}%", b.name(), ns, share);
    }
    for (tag, pick) in [("p50", &summary.p50), ("p99", &summary.p99)] {
        if let Some(a) = pick {
            let path: Vec<String> = press::telem::BUCKETS
                .iter()
                .filter(|&&b| a.ns[b as usize] > 0)
                .map(|&b| format!("{} {}", b.name(), a.ns[b as usize]))
                .collect();
            println!(
                "{tag} critical path (req {}, {} node{}, {} ns): {}",
                a.req,
                a.nodes,
                if a.nodes == 1 { "" } else { "s" },
                a.total_ns,
                path.join(" / ")
            );
        }
    }
}

fn parse_protection(name: &str) -> Result<Vec<bool>, String> {
    match name {
        "on" => Ok(vec![true]),
        "off" => Ok(vec![false]),
        "both" => Ok(vec![true, false]),
        other => Err(format!(
            "unknown protection {other}: expected on, off, or both"
        )),
    }
}

fn cmd_chaos(args: &[String]) -> ExitCode {
    // `--quiet`/`-q` is a bare switch, as in `press sweep`; strip it
    // before pair parsing but remember it: the live engine's wall-clock
    // numbers vary run to run, so quiet mode keeps only the structural
    // lines CI can diff byte-for-byte.
    let quiet = press::telem::quiet() || args.iter().any(|a| a == "--quiet" || a == "-q");
    let args: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--quiet" && a.as_str() != "-q")
        .cloned()
        .collect();
    let run = || -> Result<(), String> {
        let flags = parse_flags(
            &args,
            &[
                "engine",
                "trace",
                "nodes",
                "clients",
                "measure",
                "warmup",
                "seed",
                "suite",
                "protection",
            ],
        )?;
        let smoke = match flags.get("suite").map(String::as_str).unwrap_or("full") {
            "full" => false,
            "smoke" => true,
            other => return Err(format!("unknown suite {other}: expected full or smoke")),
        };
        match flags.get("engine").map(String::as_str).unwrap_or("sim") {
            "sim" => chaos_sim(&flags, smoke),
            "live" => chaos_live(&flags, smoke, quiet),
            other => Err(format!("unknown engine {other}: expected sim or live")),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

/// The simulated chaos suite: deterministic cards on stdout and — when
/// both protection arms run — the protected-vs-unprotected p99
/// comparison under the flash-crowd-plus-crash stressor.
fn chaos_sim(flags: &HashMap<String, String>, smoke: bool) -> Result<(), String> {
    let preset = parse_preset(flags.get("trace").map(String::as_str))?;
    let mut cfg = SimConfig::paper_default(preset);
    cfg.nodes = parse(flags, "nodes", 8usize)?;
    cfg.measure_requests = parse(flags, "measure", 20_000u64)?;
    cfg.warmup_requests = parse(flags, "warmup", 5_000u64)?;
    cfg.seed = parse(flags, "seed", cfg.seed)?;
    cfg.validate().map_err(|e| e.to_string())?;
    let arms = parse_protection(
        flags
            .get("protection")
            .map(String::as_str)
            .unwrap_or("both"),
    )?;

    let suite_name = if smoke { "smoke" } else { "full" };
    // (protected, p99_ms, target_p99_ms) of the stressor runs.
    let mut stress: Vec<(bool, f64, f64)> = Vec::new();
    for &protected in &arms {
        let arm = if protected { "on" } else { "off" };
        press::telem::progress_with(|| format!("chaos sim: {suite_name} suite, protection {arm}"));
        let report = press::core::chaos::run_suite_sim(&cfg, protected, smoke);
        println!(
            "== chaos sim | trace {} | suite {} | seed {} | protection {} ==",
            preset.name(),
            suite_name,
            cfg.seed,
            arm
        );
        println!(
            "steady-state p99 {:.2} ms -> target p99 <= {:.2} ms",
            report.steady_p99_ms, report.cards[0].target.p99_ms
        );
        for card in &report.cards {
            print!("{}", card.render());
        }
        println!();
        write_flight_dumps("sim", arm, &report.flight_dumps)?;
        for card in &report.cards {
            if card.scenario == "flash+crash" {
                stress.push((protected, card.p99_ms, card.target.p99_ms));
            }
        }
    }
    // The acceptance comparison: with protection the stressor's p99 must
    // hold inside the 2x-steady target that the raw build blows through.
    if let (Some(on), Some(off)) = (stress.iter().find(|s| s.0), stress.iter().find(|s| !s.0)) {
        println!(
            "flash+crash p99: protected {:.2} ms vs unprotected {:.2} ms (target <= {:.2} ms)",
            on.1, off.1, on.2
        );
    }
    Ok(())
}

/// The live chaos suite: real threads, wall-clock latencies. Full cards
/// by default; under `--quiet` only the structural lines (scenario
/// names, order, protection) that are stable across runs.
fn chaos_live(flags: &HashMap<String, String>, smoke: bool, quiet: bool) -> Result<(), String> {
    let base = press::server::LiveChaosConfig::default();
    let arms = parse_protection(flags.get("protection").map(String::as_str).unwrap_or("on"))?;
    let suite_name = if smoke { "smoke" } else { "full" };
    for &protected in &arms {
        let cfg = press::server::LiveChaosConfig {
            nodes: parse(flags, "nodes", base.nodes)?,
            clients: parse(flags, "clients", base.clients)?,
            warmup: parse(flags, "warmup", base.warmup)?,
            measure: parse(flags, "measure", base.measure)?,
            seed: parse(flags, "seed", 12_648_430u64)?,
            protected,
            smoke,
        };
        let arm = if protected { "on" } else { "off" };
        press::telem::progress_with(|| format!("chaos live: {suite_name} suite, protection {arm}"));
        println!(
            "== chaos live | suite {} | seed {} | protection {} ==",
            suite_name, cfg.seed, arm
        );
        let report = press::server::run_suite_live(&cfg);
        for card in &report.cards {
            if quiet {
                println!(
                    "+- scenario {} | engine live | protection {}",
                    card.scenario, arm
                );
            } else {
                print!("{}", card.render());
            }
        }
        println!("cards: {}", report.cards.len());
        write_flight_dumps("live", arm, &report.flight_dumps)?;
    }
    Ok(())
}

/// Writes a suite's flight-recorder dumps (if any) to the results
/// directory, announced on stderr so the cards on stdout stay
/// byte-diffable run to run.
fn write_flight_dumps(
    engine: &str,
    arm: &str,
    dumps: &[(String, press::telem::FlightDump)],
) -> Result<(), String> {
    if dumps.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all("results").map_err(|e| format!("cannot create results: {e}"))?;
    let path = format!("results/flight_chaos_{engine}_{arm}.json");
    std::fs::write(&path, press::telem::labeled_dumps_json(dumps))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    press::telem::progress_with(|| {
        format!(
            "flight recorder: {} dump(s) ({}) -> {path}",
            dumps.len(),
            dumps
                .iter()
                .map(|(_, d)| d.reason.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )
    });
    Ok(())
}

fn cmd_model(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let flags = parse_flags(args, &["variant", "hsn", "nodes", "file-kb"])?;
        let variant = match flags.get("variant").map(String::as_str).unwrap_or("via") {
            "tcp" => CommVariant::Tcp,
            "tcp-nextgen" => CommVariant::TcpNextGen,
            "via" => CommVariant::ViaRegular,
            "via-rmw" => CommVariant::ViaRmwZeroCopy,
            "via-nextgen" => CommVariant::ViaNextGen,
            "via-fastpath" => CommVariant::ViaFastPath,
            other => return Err(format!("unknown variant {other}")),
        };
        let hsn: f64 = parse(&flags, "hsn", 0.9)?;
        let nodes: usize = parse(&flags, "nodes", 8)?;
        let file_kb: f64 = parse(&flags, "file-kb", 16.0)?;
        let mut p = ModelParams::default_at(hsn, nodes);
        p.avg_file_kb = file_kb;
        p.variant = variant;
        let t = throughput(&p);
        println!(
            "{} | {} nodes, Hsn {:.2}, {:.0} KB files",
            variant.name(),
            nodes,
            hsn,
            file_kb
        );
        println!(
            "throughput: {:.0} req/s ({:.0}/node)",
            t.total_rps, t.per_node_rps
        );
        println!("bottleneck: {:?}", t.bottleneck);
        println!(
            "cache: Hlc {:.4}, h {:.4}, Q {:.3}, F {}",
            t.cache.hit_rate, t.cache.replicated_hit_rate, t.cache.forwarded, t.cache.num_files
        );
        println!("per-request demands (µs/request):");
        for (station, d) in t.demands {
            println!("  {:?}: {:.1}", station, d * 1e6);
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Errors are never silenced: the telem chokepoint prints
            // them to stderr even under --quiet.
            press::telem::error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}
