//! The `repro` command-line contract: exit codes, argument rejection and
//! the bytes on stdout, checked against the built binary.

use std::process::{Command, Output};

/// Runs `repro` with `args` and every environment default it reads
/// cleared, so the caller's shell cannot redirect stores or threads.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("SIMSCHED_DIR")
        .env_remove("SIMCHK_DIR")
        .env_remove("SIMCHK_MAX")
        .env_remove("SIMTEL_DIR")
        .env("SIMSCHED_THREADS", "1")
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_unknown_experiment_prints_usage_and_exits_2() {
    let out = repro(&["--exp", "fig99", "--quick"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment \"fig99\""), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may reach stdout");
}

#[test]
fn a_removed_flag_is_an_unknown_argument() {
    let out = repro(&["--connect", "127.0.0.1:1", "--exp", "table2"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown argument \"--connect\""), "{err}");
    assert!(out.stdout.is_empty(), "nothing may reach stdout");
}

#[test]
fn table2_prints_its_golden_section_byte_for_byte() {
    let golden = include_str!("../../../tests/golden/repro_quick.txt");
    // Table 2 leads the report; its section runs up to Table 4's header.
    let end = golden.find("Table 4: cache latencies").expect("golden holds Table 4");
    let out = repro(&["--exp", "table2", "--quick", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), golden[..end]);
}
