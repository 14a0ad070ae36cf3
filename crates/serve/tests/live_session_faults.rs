//! Fault injection against *live* cached sessions (`--features faults`):
//! the PR-7 harness (lane panics, stalls, cache poisoning) pointed at the
//! daemon's warm engines instead of a throwaway one. The serving contract
//! under fire: results stay bit-identical, the daemon stays up.

#![cfg(feature = "faults")]

use rtm_placement::search::faults::{Fault, FaultPlan};
use rtm_placement::{Budget, LaneStatus, Portfolio, PortfolioConfig, Strategy};
use rtm_serve::cache::GeometryKey;
use rtm_serve::report::deterministic_slice;
use rtm_serve::server::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp.trim_end().to_string()
}

/// Poisoning every warm session's caches between two identical requests
/// must be invisible in the responses: each engine cache recovers by
/// clear-and-rebuild and the deterministic payloads stay bit-identical.
#[test]
fn poisoned_live_sessions_recover_with_identical_answers() {
    let handle = Server::bind(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let queries = [
        "place strategy=sa seed=9 budget-evals=300 dbcs=2 :: a b a b c a c a d d a d",
        "place strategy=dma-sr dbcs=2 :: a b a b c a c a d d a d",
        "place profile=expected-ctl scale=0.05 strategy=tabu seed=4 budget-evals=300",
    ];
    let before: Vec<String> = queries.iter().map(|q| roundtrip(&mut stream, q)).collect();
    // Sabotage every warm engine's caches while the daemon is live.
    handle.cache().poison_all_sessions();
    let after: Vec<String> = queries.iter().map(|q| roundtrip(&mut stream, q)).collect();
    for ((q, b), a) in queries.iter().zip(&before).zip(&after) {
        assert!(b.starts_with("{\"ok\":true"), "{q}: {b}");
        assert_eq!(
            deterministic_slice(b).unwrap(),
            deterministic_slice(a).unwrap(),
            "poisoning changed the answer for `{q}`"
        );
    }
    // The daemon is still healthy.
    assert!(roundtrip(&mut stream, "ping").contains("\"pong\":true"));
    handle.shutdown();
}

/// The portfolio fault harness run directly against a *warm cached*
/// engine: panicking lanes are contained at the lane boundary, the
/// surviving lanes win, and the session keeps serving identical answers
/// afterwards — a crashing search inside the daemon can't take the
/// session (or the process) down.
#[test]
fn lane_panics_on_a_warm_cached_engine_are_contained() {
    let handle = Server::bind(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let query = "place strategy=sa seed=7 budget-evals=200 dbcs=2 :: a b a b c a c a d d a d";
    let baseline = roundtrip(&mut stream, query);

    // Reach the very session the daemon just used and race a faulted
    // portfolio on its warm engine.
    let cache = handle.cache();
    let (entry, hit) = cache
        .get_or_parse("a b a b c a c a d d a d", || {
            rtm_trace::AccessSequence::parse("a b a b c a c a d d a d")
        })
        .unwrap();
    assert!(hit, "the daemon should have cached this trace");
    let key = GeometryKey {
        dbcs: 2,
        capacity: 512,
        ports: 1,
    };
    let (session, session_hit) = cache.session(&entry, key);
    assert!(session_hit, "the daemon should have warmed this session");
    let cfg = PortfolioConfig::new(Budget::evals(600)).with_seed(3);
    let plan = FaultPlan::new()
        .inject(2, Fault::PanicAfterEvals(30))
        .inject(3, Fault::PanicAfterEvals(20));
    let out = Portfolio::new(cfg)
        .with_faults(plan)
        .run_with_engine(
            session.engine(),
            key.dbcs,
            key.capacity,
            session.heuristic_seeds(),
        )
        .unwrap();
    assert!(
        out.lanes[2..]
            .iter()
            .all(|l| matches!(l.status, LaneStatus::Panicked(_))),
        "{:?}",
        out.lanes
    );
    assert!(
        out.lanes[..2]
            .iter()
            .all(|l| l.status == LaneStatus::Completed),
        "{:?}",
        out.lanes
    );

    // The mauled session still answers the original query identically.
    let after = roundtrip(&mut stream, query);
    assert_eq!(
        deterministic_slice(&baseline).unwrap(),
        deterministic_slice(&after).unwrap()
    );
    // And a plain re-solve through the session agrees with itself.
    let s1 = session.solve(&Strategy::DmaSr).unwrap();
    let s2 = session.solve(&Strategy::DmaSr).unwrap();
    assert_eq!(s1.placement, s2.placement);
    handle.shutdown();
}
