//! The experiment binaries' front door: `--help` lists the flags and exits
//! 0, and a bad flag exits 2 with one error line and the usage on stderr,
//! never a panic.

use std::process::{Command, Output};

fn portfolio(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_portfolio"))
        .args(args)
        .output()
        .expect("the portfolio binary runs")
}

#[test]
fn help_prints_the_flags_and_exits_zero() {
    let out = portfolio(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("usage: portfolio [options]\n"),
        "{stdout}"
    );
    assert!(stdout.contains("--budgets"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn bad_flags_exit_two_with_one_error_line() {
    for (args, error) in [
        (&["--bogus"][..], "error: unknown argument `--bogus`"),
        (
            &["--budgets", "0"],
            "error: --budgets takes positive integers",
        ),
        (&["--quick", "--seed"], "error: --seed requires a value"),
    ] {
        let out = portfolio(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some(error), "{args:?}");
        assert_eq!(lines.next(), Some("usage: portfolio [options]"), "{args:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
