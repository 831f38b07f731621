//! Byte-identity gate for every dissemination strategy.
//!
//! `press simulate` output at the default seed is diffed byte-for-byte
//! against checked-in goldens. The legacy strategies (PB, L1, L4, L16,
//! NLB) were captured before the press-collect subsystem rewired the
//! simulator's message paths; the collect strategies (T4, P2C, SP4)
//! were captured before broadcast fan-out and credit flow control moved
//! into shared modules. Any drift — an extra RNG draw, a reordered
//! event, a changed counter — fails this gate.

use std::process::Command;

fn simulate(strategy: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_press"))
        .args([
            "simulate",
            "--strategy",
            strategy,
            "--measure",
            "3000",
            "--warmup",
            "500",
        ])
        .output()
        .expect("run press simulate");
    assert!(out.status.success(), "simulate {strategy} failed");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn golden(name: &str) -> String {
    let path = format!(
        "{}/tests/golden/simulate_{name}_seed12648430.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_byte_identical(strategy: &str) {
    let live = simulate(strategy);
    let want = golden(strategy);
    assert!(
        live == want,
        "strategy {strategy} diverged from golden: legacy output must be \
         byte-identical (first differing line: {:?})",
        live.lines()
            .zip(want.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("got `{a}`, want `{b}`"))
    );
}

#[test]
fn pb_output_is_byte_identical_to_golden() {
    assert_byte_identical("pb");
}

#[test]
fn l1_output_is_byte_identical_to_golden() {
    assert_byte_identical("l1");
}

#[test]
fn l4_output_is_byte_identical_to_golden() {
    assert_byte_identical("l4");
}

#[test]
fn l16_output_is_byte_identical_to_golden() {
    assert_byte_identical("l16");
}

#[test]
fn nlb_output_is_byte_identical_to_golden() {
    assert_byte_identical("nlb");
}

/// The press-collect strategies (tree broadcast, power-of-two-choices
/// probes, sparse pull) draw from their own seeded stream and route
/// broadcasts through the shared fan-out; their goldens pin both.
#[test]
fn t4_output_is_byte_identical_to_golden() {
    assert_byte_identical("t4");
}

#[test]
fn p2c_output_is_byte_identical_to_golden() {
    assert_byte_identical("p2c");
}

#[test]
fn sp4_output_is_byte_identical_to_golden() {
    assert_byte_identical("sp4");
}
