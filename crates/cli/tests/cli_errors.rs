//! Integration tests for the CLI's failure contract (DESIGN.md §9): bad
//! input exits nonzero with a single structured `error: …` diagnostic on
//! stderr — never a panic backtrace.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn rtm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtm"))
        .args(args)
        .env("RUST_BACKTRACE", "1") // a panic would be loudly visible
        .output()
        .expect("spawn rtm")
}

fn write_trace(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rtm-cli-test-{name}-{}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp trace");
    path
}

fn assert_structured_failure(out: &Output, expect: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got: {stderr}");
    assert!(
        stderr.starts_with("error: "),
        "diagnostic must be structured, got: {stderr}"
    );
    assert!(stderr.contains(expect), "missing {expect:?} in: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "panic leaked to the user: {stderr}"
    );
}

#[test]
fn a_serve_config_that_cannot_serve_is_refused_before_binding() {
    for (flag, field) in [
        ("--max-inflight", "max_inflight"),
        ("--max-traces", "max_cached_traces"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rtm"))
            .args(["serve", "--addr", "127.0.0.1:0", flag, "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rtm serve");
        // A daemon that starts anyway would serve forever: stop it and fail.
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll rtm serve").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("`rtm serve {flag} 0` started a daemon");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect rtm serve");
        assert_structured_failure(&out, field);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(out.stdout.is_empty(), "listened anyway: {out:?}");
    }
}

#[test]
fn malformed_trace_reports_line_and_column() {
    let trace = write_trace("badtok", "a b\nc :w\n");
    let out = rtm(&["place", "--trace", trace.to_str().unwrap()]);
    std::fs::remove_file(&trace).ok();
    assert_structured_failure(&out, "line 2, column 3");
}

#[test]
fn empty_trace_is_a_structured_error() {
    let trace = write_trace("empty", "# only a comment\n\n");
    let out = rtm(&["place", "--trace", trace.to_str().unwrap()]);
    std::fs::remove_file(&trace).ok();
    assert_structured_failure(&out, "no accesses");
}

#[test]
fn missing_trace_file_is_a_structured_error() {
    let out = rtm(&["place", "--trace", "/nonexistent/rtm-no-such-trace"]);
    assert_structured_failure(&out, "/nonexistent/rtm-no-such-trace");
}

#[test]
fn impossible_geometry_is_a_structured_error() {
    let trace = write_trace("geom", "a b c d e f g h\n");
    let out = rtm(&[
        "place",
        "--trace",
        trace.to_str().unwrap(),
        "--dbcs",
        "1",
        "--capacity",
        "2",
        "--subarrays",
        "1",
    ]);
    std::fs::remove_file(&trace).ok();
    assert_structured_failure(&out, "error: ");
}

#[test]
fn bad_flag_values_are_structured_errors() {
    let trace = write_trace("flags", "a b c\n");
    let out = rtm(&[
        "place",
        "--trace",
        trace.to_str().unwrap(),
        "--dbcs",
        "zero",
    ]);
    assert_structured_failure(&out, "--dbcs");
    let out = rtm(&[
        "place",
        "--trace",
        trace.to_str().unwrap(),
        "--strategy",
        "quantum",
    ]);
    assert_structured_failure(&out, "quantum");
    // DBC counts past the supported maximum, including one whose
    // `dbcs × 32` overflows, are refused before anything is allocated.
    for dbcs in ["1099511627776", "576460752303423488"] {
        let out = rtm(&["place", "--trace", trace.to_str().unwrap(), "--dbcs", dbcs]);
        assert_structured_failure(&out, "exceed the maximum");
    }
    // A zero capacity is reported as such, not blamed on the ports, on
    // the materialized and the streamed path alike.
    let path = trace.to_str().unwrap();
    for source in [
        &["--trace", path][..],
        &["--profile", "expected-dsp", "--stream"],
    ] {
        let mut args = vec!["place", "--dbcs", "2", "--capacity", "0"];
        args.extend_from_slice(source);
        assert_structured_failure(&rtm(&args), "capacity");
    }
    // A retired option and a typo are rejected, not silently ignored.
    for option in ["--shards", "--budget-eval"] {
        let out = rtm(&["place", "--trace", trace.to_str().unwrap(), option, "8"]);
        assert_structured_failure(&out, &format!("unknown option {option}"));
    }
    std::fs::remove_file(&trace).ok();
}

#[test]
fn happy_path_still_exits_zero() {
    let trace = write_trace("ok", "a b a b c a c a d d a i e f e f g e g h g i h i\n");
    let out = rtm(&[
        "place",
        "--trace",
        trace.to_str().unwrap(),
        "--dbcs",
        "2",
        "--json",
    ]);
    std::fs::remove_file(&trace).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("\"shifts\":"),
        "missing shifts in: {stdout}"
    );
}
