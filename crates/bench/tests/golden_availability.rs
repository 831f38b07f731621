//! Byte-identity gate for the availability experiment at CI size.
//!
//! `fig_availability` sweeps node crashes, recovery and admission
//! shielding over three strategies at a fixed seed; its table is diffed
//! byte for byte against a golden checked in at the workspace root.

use std::process::Command;

#[test]
fn availability_table_is_byte_identical_to_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig_availability"))
        .env("PRESS_MEASURE_REQUESTS", "8000")
        .env("PRESS_WARMUP_REQUESTS", "2000")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run fig_availability");
    assert!(out.status.success(), "fig_availability failed: {out:?}");
    let got = String::from_utf8(out.stdout).expect("utf8 stdout");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/fig_availability_m8000_w2000.txt"
    );
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        got == want,
        "availability table diverged from golden (first differing line: {:?})",
        got.lines()
            .zip(want.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("got `{a}`, want `{b}`"))
    );
}
