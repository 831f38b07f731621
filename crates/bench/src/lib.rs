//! Shared harness code for the experiment binaries.
//!
//! Each table and figure of the paper has a binary in `src/bin/` that
//! regenerates it:
//!
//! | binary               | reproduces |
//! |----------------------|------------|
//! | `table1_traces`      | Table 1 — trace characteristics |
//! | `fig1_cpu_time`      | Figure 1 — time in intra-cluster communication |
//! | `fig3_protocols`     | Figure 3 — throughput per protocol/network |
//! | `fig4_dissemination` | Figure 4 — load dissemination strategies |
//! | `table2_msg_counts`  | Table 2 — messages per dissemination strategy |
//! | `fig5_versions`      | Figure 5 + Table 3 — versions V0–V5 |
//! | `table4_version_msgs`| Table 4 — messages per version |
//! | `fig6_summary`       | Figure 6 — stacked contribution summary |
//! | `model_validation`   | Section 4.2 — model vs. simulation |
//! | `fig8_overhead_hitrate` … `fig13_nextgen_filesize` | Figures 8–13 |
//! | `fig_availability`   | beyond the paper — throughput retention under node crashes |
//!
//! Runs are scaled down from the full traces (the paper replays millions
//! of requests); `PRESS_MEASURE_REQUESTS` / `PRESS_WARMUP_REQUESTS`
//! override the defaults, and message counts are extrapolated to the full
//! trace length for table comparisons.

use press_core::{run_simulation, ExperimentRunner, Job, Metrics, SimConfig};
use press_trace::TracePreset;

pub use press_core::batch::threads_from_env;

/// Default measured requests per run (the full traces have 0.4–3.1 M).
pub const DEFAULT_MEASURE: u64 = 60_000;
/// Default warmup requests completed before measurement.
pub const DEFAULT_WARMUP: u64 = 20_000;

/// Reads a `u64` override from the environment.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The standard experiment configuration for a trace preset, honoring the
/// `PRESS_*` environment overrides.
///
/// An override that makes the configuration invalid (such as
/// `PRESS_MEASURE_REQUESTS=0`) ends the process here with exit code 2
/// and one `invalid simulation config: …` line on stderr, before any
/// worker thread could panic on it.
pub fn standard_config(preset: TracePreset) -> SimConfig {
    let mut cfg = SimConfig::paper_default(preset);
    cfg.measure_requests = env_u64("PRESS_MEASURE_REQUESTS", DEFAULT_MEASURE);
    cfg.warmup_requests = env_u64("PRESS_WARMUP_REQUESTS", DEFAULT_WARMUP);
    if let Err(msg) = check_config(&cfg) {
        press_telem::error(&msg);
        std::process::exit(2);
    }
    cfg
}

/// Validates `cfg`, rendering a failure as the one-line message a bench
/// binary prints before it exits.
///
/// # Errors
///
/// `invalid simulation config: <reason>` when [`SimConfig::validate`]
/// rejects `cfg`.
fn check_config(cfg: &SimConfig) -> Result<(), String> {
    cfg.validate()
        .map_err(|e| format!("invalid simulation config: {e}"))
}

/// Factor extrapolating a measured run's message counts to the full trace
/// (`num_requests / measure_requests`).
pub fn trace_scale(cfg: &SimConfig, preset: TracePreset) -> f64 {
    preset.spec().num_requests as f64 / cfg.measure_requests as f64
}

/// Whether quiet mode is on — re-exported from the telemetry crate so
/// every binary shares one definition: `--quiet` (or `-q`) on the
/// command line, or `PRESS_QUIET` set to anything but `0`/empty.
///
/// Quiet mode suppresses stderr progress notes and commentary; the
/// figure/table output itself (stdout) is unaffected, so scripted runs
/// capture exactly the reproduction artifact.
pub use press_telem::{env_quiet, quiet};

/// Runs one configuration and prints a one-line progress note to stderr
/// (suppressed under [`quiet`]).
pub fn run_logged(label: &str, cfg: &SimConfig) -> Metrics {
    press_telem::progress_with(|| format!("running {label} ..."));
    let m = run_simulation(cfg);
    log_result(label, &m);
    m
}

fn log_result(label: &str, m: &Metrics) {
    press_telem::progress_with(|| {
        format!(
            "  {label}: {:.0} req/s (hit {:.3}, Q {:.3})",
            m.throughput_rps, m.hit_rate, m.forward_fraction
        )
    });
}

/// Runs a whole experiment batch on the [`ExperimentRunner`] thread pool
/// and returns the metrics **in submission order**.
///
/// The thread count comes from `PRESS_THREADS` (default: all cores);
/// `PRESS_THREADS=1` recovers sequential execution. Results come back in
/// submission order either way, so anything printed from the returned
/// vector is byte-identical to a sequential run. Progress goes to stderr.
pub fn run_all(jobs: Vec<Job>) -> Vec<Metrics> {
    let runner = ExperimentRunner::from_env();
    let results = if runner.threads() == 1 {
        // Stream progress per job, legacy-style.
        jobs.into_iter()
            .map(|job| {
                press_telem::progress_with(|| format!("running {} ...", job.label));
                let r = runner
                    .run(vec![job])
                    .pop()
                    .expect("one job in, one result out");
                log_result(&r.label, &r.metrics);
                r
            })
            .collect::<Vec<_>>()
    } else {
        press_telem::progress_with(|| {
            format!(
                "running {} jobs on {} threads ...",
                jobs.len(),
                runner.threads()
            )
        });
        let results = runner.run(jobs);
        for r in &results {
            log_result(&r.label, &r.metrics);
        }
        results
    };
    results.into_iter().map(|r| r.metrics).collect()
}

/// Renders a labeled bar of relative height, paper-figure style.
pub fn bar(label: &str, value: f64, max: f64) -> String {
    let width = if max > 0.0 {
        ((value / max) * 50.0).round() as usize
    } else {
        0
    };
    format!("{label:<10} {value:>8.0} |{}", "#".repeat(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_matches_trace_length() {
        let cfg = standard_config(TracePreset::Forth);
        let s = trace_scale(&cfg, TracePreset::Forth);
        assert!((s - 400_335.0 / cfg.measure_requests as f64).abs() < 1e-9);
    }

    #[test]
    fn bars_scale_to_width() {
        let b = bar("x", 50.0, 100.0);
        assert_eq!(b.matches('#').count(), 25);
        let full = bar("y", 100.0, 100.0);
        assert_eq!(full.matches('#').count(), 50);
        let zero = bar("z", 0.0, 0.0);
        assert_eq!(zero.matches('#').count(), 0);
    }

    #[test]
    fn check_config_passes_the_standard_config() {
        let cfg = SimConfig::paper_default(TracePreset::Forth);
        assert_eq!(check_config(&cfg), Ok(()));
    }

    #[test]
    fn check_config_renders_one_line_errors() {
        let mut cfg = SimConfig::paper_default(TracePreset::Forth);
        cfg.measure_requests = 0;
        let msg = check_config(&cfg).unwrap_err();
        assert!(
            msg.starts_with("invalid simulation config: "),
            "unexpected message: {msg}"
        );
        assert!(!msg.contains('\n'), "not one line: {msg}");
        cfg.measure_requests = 1;
        cfg.nodes = 1;
        assert!(check_config(&cfg).is_err());
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(env_u64("PRESS_TEST_NO_SUCH_VAR", 7), 7);
    }

    #[test]
    fn quiet_honors_press_quiet() {
        // Only the env half is testable here: the test harness itself
        // receives `--quiet` under `cargo test -q`.
        std::env::remove_var("PRESS_QUIET");
        assert!(!env_quiet());
        std::env::set_var("PRESS_QUIET", "1");
        assert!(env_quiet());
        std::env::set_var("PRESS_QUIET", "0");
        assert!(!env_quiet());
        std::env::remove_var("PRESS_QUIET");
    }

    #[test]
    fn run_all_returns_submission_order() {
        let mut slow = SimConfig::quick_demo();
        slow.warmup_requests = 100;
        slow.measure_requests = 600;
        let mut fast = slow.clone();
        fast.measure_requests = 300;
        let jobs = vec![Job::new("first", slow), Job::new("second", fast)];
        let metrics = run_all(jobs);
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].measured_requests, 600);
        assert_eq!(metrics[1].measured_requests, 300);
    }
}
