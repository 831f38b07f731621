//! Byte-identity gate for the simulated chaos suite.
//!
//! `press chaos --engine sim --suite smoke` runs the steady and
//! flash+crash cards with protection on and off. Its report cards cover
//! crash recovery, breaker diverts, admission shedding and credit flow
//! control under faults, all at a fixed seed, so the stdout is diffed
//! byte for byte against a checked-in golden.

use std::process::Command;

#[test]
fn sim_smoke_cards_are_byte_identical_to_golden() {
    // The run drops a flight-recorder dump under `results/` in its
    // working directory; keep it out of the source tree.
    let out = Command::new(env!("CARGO_BIN_EXE_press"))
        .args([
            "chaos",
            "--engine",
            "sim",
            "--suite",
            "smoke",
            "--measure",
            "4000",
            "--warmup",
            "1000",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run press chaos");
    assert!(out.status.success(), "press chaos failed: {out:?}");
    let got = String::from_utf8(out.stdout).expect("utf8 stdout");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chaos_sim_smoke.txt"
    );
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        got == want,
        "chaos smoke cards diverged from golden (first differing line: {:?})",
        got.lines()
            .zip(want.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("got `{a}`, want `{b}`"))
    );
}
