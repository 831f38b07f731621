//! End-to-end tests of the `press` CLI binary.

use std::process::Command;

use proptest::prelude::*;

fn press() -> Command {
    Command::new(env!("CARGO_BIN_EXE_press"))
}

#[test]
fn help_lists_commands() {
    let out = press().arg("--help").output().expect("run press");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["traces", "simulate", "model"] {
        assert!(text.contains(cmd), "help should mention {cmd}");
    }
}

#[test]
fn traces_prints_table1() {
    let out = press().arg("traces").output().expect("run press");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for trace in ["Clarknet", "Forth", "Nasa", "Rutgers"] {
        assert!(text.contains(trace), "missing {trace}: {text}");
    }
    assert!(text.contains("28864"));
}

#[test]
fn model_evaluates() {
    let out = press()
        .args([
            "model",
            "--variant",
            "via-rmw",
            "--nodes",
            "16",
            "--hsn",
            "0.85",
        ])
        .output()
        .expect("run press");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("throughput:"), "{text}");
    assert!(text.contains("bottleneck:"), "{text}");
}

#[test]
fn simulate_small_run() {
    let out = press()
        .args([
            "simulate",
            "--trace",
            "forth",
            "--measure",
            "2000",
            "--warmup",
            "500",
        ])
        .output()
        .expect("run press");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("throughput:"), "{text}");
    assert!(text.contains("TOTAL"), "{text}");
}

#[test]
fn sweep_prints_one_row_per_combination() {
    let out = press()
        .args([
            "sweep",
            "--traces",
            "clarknet,forth",
            "--versions",
            "v0,v5",
            "--measure",
            "1000",
            "--warmup",
            "300",
        ])
        .output()
        .expect("run press");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for label in [
        "Clarknet/VIA/cLAN/V0/PB",
        "Clarknet/VIA/cLAN/V5/PB",
        "Forth/VIA/cLAN/V0/PB",
        "Forth/VIA/cLAN/V5/PB",
    ] {
        assert!(text.contains(label), "missing {label}: {text}");
    }
    // Submission order: traces vary slowest, versions fastest.
    let rows: Vec<usize> = [
        "Clarknet/VIA/cLAN/V0",
        "Clarknet/VIA/cLAN/V5",
        "Forth/VIA/cLAN/V0",
        "Forth/VIA/cLAN/V5",
    ]
    .iter()
    .map(|l| text.find(l).expect("row present"))
    .collect();
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "rows out of order: {text}"
    );
}

#[test]
fn sweep_stdout_is_thread_count_invariant() {
    let run = |threads: &str| {
        let out = press()
            .env("PRESS_THREADS", threads)
            .args([
                "sweep",
                "--versions",
                "v0,v4",
                "--measure",
                "800",
                "--warmup",
                "200",
            ])
            .output()
            .expect("run press");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        run("1"),
        run("3"),
        "sweep stdout must not depend on PRESS_THREADS"
    );
}

#[test]
fn sweep_rejects_bad_version() {
    let out = press()
        .args(["sweep", "--versions", "v9"])
        .output()
        .expect("run press");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown version"));
}

/// Out-of-range cluster sizes and an empty measurement are rejected with
/// a one-line error and a nonzero exit, never a panic (exit code 101).
#[test]
fn simulate_rejects_invalid_configs() {
    for (args, needle) in [
        (["--nodes", "129"], "at most 128 nodes"),
        (["--nodes", "1"], "at least two nodes"),
        (["--clients", "200000"], "at most 1048576 in all"),
        (["--measure", "0"], "nothing to measure"),
    ] {
        let out = press()
            .arg("simulate")
            .args(args)
            .output()
            .expect("run press");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn export_then_replay_round_trip() {
    let dir = std::env::temp_dir().join("press-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("forth.log");
    let out = press()
        .args([
            "export",
            "--trace",
            "forth",
            "--requests",
            "5000",
            "--out",
            log_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run export");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = press()
        .args([
            "simulate",
            "--replay",
            log_path.to_str().expect("utf8 path"),
            "--measure",
            "1500",
            "--warmup",
            "400",
        ])
        .output()
        .expect("run replay");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("throughput:"));
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn replay_missing_file_fails_cleanly() {
    let out = press()
        .args(["simulate", "--replay", "/nonexistent/press.log"])
        .output()
        .expect("run press");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = press().arg("frobnicate").output().expect("run press");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn bad_flag_fails_cleanly() {
    let out = press()
        .args(["simulate", "--nonsense", "1"])
        .output()
        .expect("run press");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn sweep_covers_collect_strategies() {
    // The press-collect strategies are first-class sweep arms: tree
    // broadcasts (t1/t4/t16), power-of-two-choices (p2c), and sparse
    // pulls (sp4) parse and run beside the legacy flat strategies.
    let out = press()
        .args([
            "sweep",
            "--strategies",
            "l16,t16,p2c,sp4",
            "--nodes",
            "16",
            "--measure",
            "800",
            "--warmup",
            "200",
        ])
        .output()
        .expect("run press");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for label in [
        "Clarknet/VIA/cLAN/V0/L16",
        "Clarknet/VIA/cLAN/V0/T16",
        "Clarknet/VIA/cLAN/V0/P2C",
        "Clarknet/VIA/cLAN/V0/SP4",
    ] {
        assert!(text.contains(label), "missing {label}: {text}");
    }
}

#[test]
fn simulate_accepts_collect_strategies() {
    for s in ["t1", "t4", "t16", "p2c", "sp4"] {
        let out = press()
            .args([
                "simulate",
                "--strategy",
                s,
                "--nodes",
                "16",
                "--measure",
                "600",
                "--warmup",
                "200",
            ])
            .output()
            .expect("run press");
        assert!(
            out.status.success(),
            "strategy {s}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

const STRATEGIES: [&str; 11] = [
    "pb", "l1", "l4", "l16", "nlb", "t1", "t4", "t16", "p2c", "sp4", "bogus",
];
const VERSIONS: [&str; 8] = ["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v9"];

/// `raw`, or for one draw in four an edge value picked by `raw`, so the
/// limits are hit far more often than a uniform draw would hit them.
fn edgy(draw: (u8, u64), edges: &[u64]) -> String {
    match draw {
        (0, raw) => edges[raw as usize % edges.len()],
        (_, raw) => raw,
    }
    .to_string()
}

proptest! {
    // Each case spawns the binary, so keep the count small.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any bounded `press simulate` argument vector either runs (exit 0)
    /// or fails with exit 1 and an `error:` line. It never panics.
    #[test]
    fn simulate_never_panics(
        nodes in (0u8..4, 0u64..131),
        clients in 0u64..5,
        warmup in (0u8..4, 0u64..201),
        measure in (0u8..4, 0u64..201),
        picks in (0usize..STRATEGIES.len(), 0usize..VERSIONS.len()),
    ) {
        let nodes = edgy(nodes, &[0, 1, 2, 128, 129, 130]);
        let clients = clients.to_string();
        let warmup = edgy(warmup, &[0, 1, 200]);
        let measure = edgy(measure, &[0, 1, 200]);
        let args = [
            "simulate",
            "--nodes", &nodes,
            "--clients", &clients,
            "--warmup", &warmup,
            "--measure", &measure,
            "--strategy", STRATEGIES[picks.0],
            "--version", VERSIONS[picks.1],
        ];
        let out = press().args(args).output().expect("run press");
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        if !out.status.success() {
            prop_assert!(out.status.code() == Some(1), "{args:?}: {stderr}");
            prop_assert!(
                stderr.lines().any(|l| l.starts_with("error:")),
                "{args:?}: {stderr}"
            );
        }
    }
}
