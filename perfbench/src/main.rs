//! press-bench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sim-paper|sim-scale|live-hot|live-churn>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs;
//! `--trace 1` runs the per-layer table (traced engine runs plus probes)
//! and writes the benchmark's spans under `out/`. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! README.md for what each metric means and which layer each workload
//! exercises or bypasses.

mod calib;
mod fold;
mod layers;
mod live;
mod probes;
mod report;
mod sim;
mod spans;

use std::process::ExitCode;

use crate::report::{git_rev, nproc, result_line, Metrics, Tally};
use crate::spans::Spans;

/// The parsed command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sim-paper|sim-scale|live-hot|live-churn> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]: {value}"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(
        run.workload.as_str(),
        "sim-paper" | "sim-scale" | "live-hot" | "live-churn"
    ) {
        return Err(format!("unknown workload '{}'", run.workload));
    }
    Ok(run)
}

/// The workload's full configuration, for the run header.
fn config_of(run: &Run) -> String {
    match run.workload.as_str() {
        "sim-paper" => format!("{:?}", sim::PAPER.sim_config(run.seed)),
        "sim-scale" => format!("{:?}", sim::SCALE.sim_config(run.seed)),
        "live-hot" => live_header(&live::HOT, run.seed),
        _ => live_header(&live::CHURN, run.seed),
    }
}

fn live_header(w: &live::LiveWorkload, seed: u64) -> String {
    format!(
        "{:?}; update_every: {}",
        w.live_config(&live::catalog_inputs(seed).0),
        w.update_every
    )
}

fn measure(run: &Run, spans: &mut Spans) -> (Tally, Metrics) {
    match (run.workload.as_str(), run.trace) {
        ("sim-paper", false) => sim::end_to_end(&sim::PAPER, run),
        ("sim-scale", false) => sim::end_to_end(&sim::SCALE, run),
        ("live-hot", false) => live::end_to_end(&live::HOT, run),
        ("live-churn", false) => live::end_to_end(&live::CHURN, run),
        ("sim-paper", true) => layered(sim::layers(&sim::PAPER, run, spans)),
        ("sim-scale", true) => layered(sim::layers(&sim::SCALE, run, spans)),
        ("live-hot", true) => layered(live::layers(&live::HOT, run, spans)),
        _ => layered(live::layers(&live::CHURN, run, spans)),
    }
}

fn layered((tally, layers): (Tally, layers::Layers)) -> (Tally, Metrics) {
    (tally, layers.into_metrics())
}

/// Writes the traced run's spans to `out/spans-<workload>-<seed>.json`
/// inside the benchmark's directory.
fn write_spans(run: &Run, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.json", run.workload, run.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => eprintln!("perfbench: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"git_rev\": \"{}\", \"nproc\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workload\": \"{}\", \"config\": \"{}\"}}",
        press_telem::json_escape(&git_rev()),
        nproc(),
        run.seed,
        run.seconds,
        run.trace as u8,
        press_telem::json_escape(&run.workload),
        press_telem::json_escape(&config_of(&run))
    );
    let mut spans = Spans::new();
    let (tally, metrics) = measure(&run, &mut spans);
    if run.trace {
        write_spans(&run, &spans);
    }
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    println!("{}", result_line(correct, tally, &metrics));
    ExitCode::SUCCESS
}
