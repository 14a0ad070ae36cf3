//! End-to-end serving test against the real `rtm` binary: a daemon
//! started with `rtm serve` must answer concurrent protocol requests
//! bit-identically to separate single-shot `rtm place --json` invocations
//! of the same queries, and shut down cleanly on request.

use rtm_serve::report::deterministic_slice;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

fn rtm() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rtm"));
    cmd.env("RUST_BACKTRACE", "1");
    cmd
}

/// Starts `rtm serve` on an ephemeral port and reads back the bound
/// address from its `listening on ADDR` line.
fn start_daemon() -> (Child, SocketAddr) {
    let mut child = rtm()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rtm serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse daemon address");
    (child, addr)
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp.trim_end().to_string()
}

/// Runs a single-shot `rtm place --json` for the same query a serve
/// request describes and returns its deterministic payload slice.
fn single_shot_payload(trace: &str, extra: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "rtm-serve-test-{}-{}.txt",
        std::process::id(),
        trace.len()
    ));
    std::fs::write(&path, trace).unwrap();
    let mut args = vec!["place", "--trace", path.to_str().unwrap(), "--json"];
    args.extend_from_slice(extra);
    let out = rtm().args(&args).output().expect("run rtm place");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "rtm place failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    deterministic_slice(&stdout)
        .unwrap_or_else(|| panic!("no payload in: {stdout}"))
        .to_string()
}

#[test]
fn daemon_matches_single_shot_cli_under_concurrency() {
    let (mut child, addr) = start_daemon();
    // (trace, serve options, equivalent CLI options)
    let queries: [(&str, &str, &[&str]); 3] = [
        (
            "a b a b c a c a d d a d",
            "strategy=dma-sr dbcs=2",
            &["--strategy", "dma-sr", "--dbcs", "2"],
        ),
        (
            "x y z x y z x x w w y w",
            "strategy=sa seed=5 budget-evals=250 dbcs=2",
            &[
                "--strategy",
                "sa",
                "--seed",
                "5",
                "--budget-evals",
                "250",
                "--dbcs",
                "2",
            ],
        ),
        (
            "m n o m n o p p m p n m",
            "strategy=tabu seed=6 budget-evals=250 dbcs=4",
            &[
                "--strategy",
                "tabu",
                "--seed",
                "6",
                "--budget-evals",
                "250",
                "--dbcs",
                "4",
            ],
        ),
    ];
    let expected: Vec<String> = queries
        .iter()
        .map(|(trace, _, cli)| single_shot_payload(trace, cli))
        .collect();

    // Concurrent clients each replay the full mix against warm sessions.
    std::thread::scope(|scope| {
        for client in 0..3 {
            let expected = &expected;
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for round in 0..2 {
                    for i in 0..queries.len() {
                        let idx = (i + client + round) % queries.len();
                        let line = format!("place {} :: {}", queries[idx].1, queries[idx].0);
                        let resp = roundtrip(&mut stream, &line);
                        assert_eq!(
                            deterministic_slice(&resp).unwrap_or("<error>"),
                            expected[idx],
                            "daemon diverged from single-shot CLI for `{line}`"
                        );
                    }
                }
            });
        }
    });

    // Clean shutdown via the protocol; the process must exit by itself.
    let mut stream = TcpStream::connect(addr).unwrap();
    let bye = roundtrip(&mut stream, "shutdown");
    assert!(bye.contains("\"shutdown\":true"), "{bye}");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited with {status}");
}

#[test]
fn daemon_survives_malformed_requests_from_the_binary() {
    let (mut child, addr) = start_daemon();
    let mut stream = TcpStream::connect(addr).unwrap();
    let resp = roundtrip(&mut stream, "place dbcs=2 :: a b\\nc :w d");
    assert!(resp.starts_with("error: "), "{resp}");
    assert!(
        resp.contains("line 2") && resp.contains("column 3"),
        "{resp}"
    );
    // A DBC count no array has is refused before anything is allocated
    // per DBC, instead of aborting the daemon.
    let resp = roundtrip(&mut stream, "place dbcs=1099511627776 :: a b a b c");
    assert!(resp.starts_with("error: "), "{resp}");
    assert!(resp.contains("exceed the maximum"), "{resp}");
    let ok = roundtrip(&mut stream, "place dbcs=2 :: a b a b");
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    let _ = roundtrip(&mut stream, "shutdown");
    // Drain any remaining banner output and reap.
    if let Some(mut out) = child.stdout.take() {
        let mut sink = String::new();
        let _ = out.read_to_string(&mut sink);
    }
    assert!(child.wait().expect("daemon exit").success());
}

/// Descriptor exhaustion: under a tight `ulimit -n`, holding more
/// connections than the daemon has descriptors for makes `accept` fail
/// with `EMFILE`. Once the clients close, the daemon must answer a fresh
/// connection and report the failures as `accept_errors`.
#[cfg(unix)]
#[test]
fn daemon_survives_accept_errors_under_an_fd_limit() {
    use rtm_serve::json::find_u64;
    use std::time::{Duration, Instant};
    // The daemon starts with four descriptors (stdio and the listener) and
    // each served connection holds two (the stream and its reader clone),
    // so an even limit runs out on an `accept`, not on the clone.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 24 && exec \"$0\" serve --addr 127.0.0.1:0 --threads 1")
        .arg(env!("CARGO_BIN_EXE_rtm"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rtm serve under ulimit");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("daemon stdout"))
        .read_line(&mut line)
        .expect("read listening line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse daemon address");
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };

    // The first connection is served before the flood, so it can watch
    // the counter while the backlog is stuck.
    let mut first = connect();
    assert!(roundtrip(&mut first, "ping").contains("\"pong\":true"));
    let held: Vec<TcpStream> = (0..40).map(|_| connect()).collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while find_u64(&roundtrip(&mut first, "stats"), "accept_errors").unwrap_or(0) == 0 {
        assert!(Instant::now() < deadline, "accept never failed");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(held);
    drop(first);

    let mut fresh = connect();
    assert!(roundtrip(&mut fresh, "ping").contains("\"pong\":true"));
    let stats = roundtrip(&mut fresh, "stats");
    assert!(find_u64(&stats, "accept_errors") > Some(0), "{stats}");
    let _ = roundtrip(&mut fresh, "shutdown");
    assert!(child.wait().expect("daemon exit").success());
}
