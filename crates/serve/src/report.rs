//! The placement payload every front end reports.
//!
//! The CLI's `--json` output and the serve protocol's `place` responses
//! share [`write_solution`], so the solution schema cannot drift between
//! the two. Each front end writes its own envelope around it with the one
//! JSON [`Writer`] — `{"command":"place",…}` for the CLI,
//! `{"ok":true,"served":{…},…}` for the daemon — and the placement payload
//! itself is byte-identical. Syntax and string escaping are the writer's,
//! in [`crate::json`].
//!
//! [`deterministic_slice`] exposes the machine-independent prefix of that
//! payload (strategy, geometry, shift totals, the full per-DBC layout —
//! everything up to the wall-clock telemetry), which is what the
//! bit-identity checks in the server tests and the load generator compare.

use crate::json::{Fixed, Writer};
use rtm_placement::{Solution, Strategy};
use rtm_trace::AccessSequence;
use std::time::Duration;

/// The geometry block of a report: per-subarray shape plus ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Subarray count (`1` for flat problems).
    pub subarrays: usize,
    /// DBCs per subarray.
    pub dbcs_per_subarray: usize,
    /// Locations per DBC (track length).
    pub locations_per_dbc: usize,
    /// Access ports per track.
    pub ports_per_track: usize,
}

impl Geometry {
    /// A flat (single-subarray) geometry.
    pub fn flat(dbcs: usize, capacity: usize, ports: usize) -> Self {
        Self {
            subarrays: 1,
            dbcs_per_subarray: dbcs,
            locations_per_dbc: capacity,
            ports_per_track: ports,
        }
    }

    /// Global DBC count.
    pub fn total_dbcs(&self) -> usize {
        self.subarrays * self.dbcs_per_subarray
    }
}

/// Writes the stable machine-readable body shared by the CLI and the
/// daemon into the open object of `w`: `"strategy"`, `"geometry"`,
/// `"total_shifts"`, `"per_subarray_shifts"`, `"dbcs"` and `"search"` (with
/// its `"cache"` counters and, for portfolio solves, `"lanes"`).
pub fn write_solution(
    w: &mut Writer,
    strategy: &Strategy,
    geom: &Geometry,
    seq: &AccessSequence,
    sol: &Solution,
) {
    w.field("strategy", strategy.name());
    w.key("geometry")
        .object()
        .field("subarrays", geom.subarrays)
        .field("dbcs_per_subarray", geom.dbcs_per_subarray)
        .field("locations_per_dbc", geom.locations_per_dbc)
        .field("ports_per_track", geom.ports_per_track)
        .field("total_dbcs", geom.total_dbcs())
        .end();
    w.field("total_shifts", sol.shifts)
        .key("per_subarray_shifts")
        .values(sol.per_subarray_shifts(geom.dbcs_per_subarray));
    w.key("dbcs").array();
    for (d, list) in sol.placement.dbc_lists().iter().enumerate() {
        w.object()
            .field("subarray", d / geom.dbcs_per_subarray)
            .field("dbc", d % geom.dbcs_per_subarray)
            .field("shifts", sol.per_dbc_shifts[d])
            .key("vars")
            .values(list.iter().map(|&v| seq.vars().name(v)))
            .end();
    }
    w.end();
    let ms = |d: Duration| Fixed(d.as_secs_f64() * 1e3, 3);
    let es = &sol.engine_stats;
    w.key("search")
        .object()
        .field("evals_consumed", sol.evals_consumed)
        .field("time_to_best_ms", ms(sol.time_to_best))
        .field("elapsed_ms", ms(sol.elapsed))
        .field("stop", sol.stop.name())
        .key("cache")
        .object()
        .field("dbc_recomputations", es.dbc_recomputations)
        .field("dbc_cache_hits", es.dbc_cache_hits)
        .field("subseq_cache_hits", es.subseq_cache_hits)
        .field("dbc_inherited", es.dbc_inherited)
        .field("memo_merged", es.memo_merged)
        .field("memo_contended", es.memo_contended)
        .field("subseq_contended", es.subseq_contended)
        .end();
    if !sol.lanes.is_empty() {
        w.key("lanes").array();
        for lane in &sol.lanes {
            w.object()
                .field("name", lane.name)
                .field("status", lane.status.name())
                .field("cost", lane.cost)
                .field("evals", lane.evals)
                .end();
        }
        w.end();
    }
    w.end();
}

/// [`write_solution`]'s compact text as comma-separated fields without the
/// enclosing braces, for callers that splice it into an envelope of their
/// own.
pub fn solution_fields(
    strategy: &Strategy,
    geom: &Geometry,
    seq: &AccessSequence,
    sol: &Solution,
) -> String {
    let mut w = Writer::compact();
    w.object();
    write_solution(&mut w, strategy, geom, seq, sol);
    w.end();
    let mut fields = w.finish();
    fields.pop();
    fields.remove(0);
    fields
}

/// The machine-independent slice of a report containing
/// [`solution_fields`]: from `"strategy"` up to (excluding) `"search"` —
/// i.e. strategy, geometry, `total_shifts`, `per_subarray_shifts` and the
/// complete per-DBC layout, none of which may differ between a warm serve
/// response and a cold single-shot solve of the same query. Returns `None`
/// when the text carries no such payload (e.g. an `error:` line).
pub fn deterministic_slice(json: &str) -> Option<&str> {
    let start = json.find("\"strategy\":")?;
    let end = json[start..].find(",\"search\":")?;
    Some(&json[start..start + end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use rtm_placement::{PlacementProblem, Strategy};
    use rtm_trace::{AccessKind, SequenceBuilder};

    /// Round-trip satellite: the emitted fields wrapped in any envelope
    /// must parse as valid JSON — including variable names that need every
    /// escape class (quote, backslash, control characters).
    #[test]
    fn emitted_fields_round_trip_through_the_parser() {
        let mut b = SequenceBuilder::new();
        for name in ["plain", "qu\"ote", "back\\slash", "tab\there", "nl\nname"] {
            b.var(name);
        }
        for name in [
            "plain",
            "qu\"ote",
            "back\\slash",
            "tab\there",
            "nl\nname",
            "plain",
        ] {
            b.access_named(name, AccessKind::Read);
        }
        let seq = b.finish();
        let p = PlacementProblem::new(seq.clone(), 2, 16);
        let sol = p.solve(&Strategy::DmaSr).unwrap();
        let fields = solution_fields(
            &Strategy::DmaSr,
            &Geometry::flat(p.dbcs(), p.capacity(), 1),
            &seq,
            &sol,
        );
        let wrapped = format!("{{{fields}}}");
        json::validate(&wrapped).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{wrapped}"));
        assert!(wrapped.contains("qu\\\"ote"));
        assert!(wrapped.contains("back\\\\slash"));
        assert!(wrapped.contains("nl\\nname"));
    }

    #[test]
    fn deterministic_slice_drops_only_the_timing_tail() {
        let seq = rtm_trace::AccessSequence::parse("a b a b c c a").unwrap();
        let p = PlacementProblem::new(seq.clone(), 2, 8);
        let sol = p.solve(&Strategy::DmaSr).unwrap();
        let fields = solution_fields(&Strategy::DmaSr, &Geometry::flat(2, 8, 1), &seq, &sol);
        let slice = deterministic_slice(&fields).unwrap();
        assert!(slice.starts_with("\"strategy\":\"DMA-SR\""));
        assert!(slice.contains("\"total_shifts\""));
        assert!(slice.contains("\"dbcs\":["));
        assert!(!slice.contains("elapsed_ms"));
        assert!(deterministic_slice("error: nope").is_none());
    }
}
