//! Re-sweep of the retry timeout under decorrelated-jitter backoff.
//!
//! PR 2 picked 250 ms as the retry timeout with capped exponential
//! backoff; the backoff is now decorrelated jitter (`sleep_n` drawn
//! uniformly from `[base, 3 * sleep_{n-1}]`, capped at `8 * base`), which
//! spreads retry bursts instead of synchronizing them. This sweep
//! re-validates the default: each timeout runs the crash-and-recover
//! schedule and reports throughput, tail latency and the retry traffic
//! the choice costs. Too low and healthy-but-slow requests retry
//! spuriously (retries explode); too high and requests caught by the
//! crash stall for most of a second before failing over (p99 explodes).

use press_bench::{quiet, run_all, standard_config};
use press_core::{FaultPlan, Job};
use press_trace::TracePreset;

/// Retry timeouts swept, in milliseconds.
const TIMEOUTS_MS: [u64; 5] = [50, 100, 250, 500, 1000];
/// The timeout the repo ships as the default.
const DEFAULT_MS: u64 = 250;

fn main() {
    let preset = TracePreset::Forth;
    println!("Retry timeout re-sweep under decorrelated-jitter backoff ({preset}, 8 nodes)");
    let base = standard_config(preset);
    let quarter = base.warmup_requests + base.measure_requests / 4;
    let recover = base.warmup_requests + base.measure_requests * 2 / 5;

    let mut jobs = Vec::new();
    for ms in TIMEOUTS_MS {
        let mut cfg = base.clone();
        cfg.faults = FaultPlan {
            retry_timeout_micros: ms * 1_000,
            ..FaultPlan::crashes_only(17, Vec::new()).with_crash(1, quarter, Some(recover))
        };
        jobs.push(Job::new(format!("retry-timeout/{ms}ms"), cfg));
    }
    let results = run_all(jobs);

    println!(
        "\n{:<10} {:>9} {:>8} {:>8} {:>7} {:>6} {:>5}",
        "timeout", "req/s", "p99 ms", "p999 ms", "retry", "fail", "lost"
    );
    for (ms, m) in TIMEOUTS_MS.into_iter().zip(results) {
        let mark = if ms == DEFAULT_MS { " <- default" } else { "" };
        println!(
            "{:<10} {:>9.0} {:>8.1} {:>8.1} {:>7} {:>6} {:>5}{mark}",
            format!("{ms} ms"),
            m.throughput_rps,
            m.p99_response_ms,
            m.p999_response_ms,
            m.retries,
            m.failovers,
            m.requests_lost,
        );
    }
    if !quiet() {
        println!();
        println!("(the default should sit at the knee: short timeouts inflate retry");
        println!(" traffic with no latency win, long ones stretch the crash window's");
        println!(" tail; jitter keeps same-timeout retries from synchronizing)");
    }
}
