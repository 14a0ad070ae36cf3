use rtm_trace::ParseTraceError;
use std::error::Error;
use std::fmt;

/// Error produced when constructing or solving a placement problem — the
/// crate-spanning taxonomy every fallible library path reports through
/// (`DESIGN.md` §9): capacity/validation failures, malformed trace input
/// (wrapping [`rtm_trace::ParseTraceError`]), invalid geometry (wrapping
/// [`rtm_arch::ConfigError`]), bad search configuration, and degraded
/// search results.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// The variables do not fit: `vars > dbcs × capacity`.
    InsufficientCapacity {
        /// Number of variables to place.
        vars: usize,
        /// Number of DBCs available.
        dbcs: usize,
        /// Locations per DBC.
        capacity: usize,
    },
    /// A placement places the same variable more than once.
    DuplicateVariable(String),
    /// A placement misses a variable that the trace accesses.
    MissingVariable(String),
    /// A single DBC holds more variables than it has locations.
    DbcOverflow {
        /// Index of the offending DBC.
        dbc: usize,
        /// Variables assigned to it.
        assigned: usize,
        /// Its capacity.
        capacity: usize,
    },
    /// The problem was constructed with zero DBCs or zero capacity.
    EmptyGeometry,
    /// A search portfolio was configured with no lanes.
    EmptyPortfolio,
    /// No registered strategy has this CLI name
    /// ([`StrategyKind::cli_name`](crate::StrategyKind::cli_name)).
    UnknownStrategy(String),
    /// No portfolio lane has this name ([`LaneSpec::name`](crate::LaneSpec::name)).
    UnknownLane(String),
    /// The trace text could not be parsed (position-carrying).
    Parse(ParseTraceError),
    /// The memory geometry is invalid (stringified
    /// [`rtm_arch::ConfigError`], kept by value so this enum stays
    /// `Clone + Eq`).
    Geometry(String),
    /// A search was configured with parameters it cannot run under
    /// (e.g. an empty GA population).
    SearchConfig(String),
    /// Every portfolio lane failed (panicked or timed out) before any
    /// incumbent was published — there is no placement to degrade to.
    NoSurvivingLane {
        /// The lanes that were raced, by name.
        lanes: Vec<String>,
    },
}

/// The crate-spanning error alias: `rtm-trace` parse errors, `rtm-arch`
/// geometry errors and search failures all convert into this one taxonomy
/// (via `From`), so callers — the CLI today, `rtm-serve` tomorrow — handle
/// a single error type.
pub type RtmError = PlacementError;

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientCapacity {
                vars,
                dbcs,
                capacity,
            } => write!(
                f,
                "{vars} variables do not fit into {dbcs} DBCs of {capacity} locations"
            ),
            PlacementError::DuplicateVariable(v) => {
                write!(f, "variable `{v}` is placed more than once")
            }
            PlacementError::MissingVariable(v) => {
                write!(f, "variable `{v}` is accessed but not placed")
            }
            PlacementError::DbcOverflow {
                dbc,
                assigned,
                capacity,
            } => write!(
                f,
                "DBC {dbc} holds {assigned} variables but has only {capacity} locations"
            ),
            PlacementError::EmptyGeometry => {
                write!(
                    f,
                    "placement problem needs at least one DBC and one location"
                )
            }
            PlacementError::EmptyPortfolio => {
                write!(f, "search portfolio needs at least one lane")
            }
            PlacementError::UnknownStrategy(name) => {
                let names: Vec<&str> = crate::StrategyKind::ALL
                    .iter()
                    .map(|k| k.cli_name())
                    .collect();
                write!(f, "unknown strategy `{name}` (one of {})", names.join(", "))
            }
            PlacementError::UnknownLane(name) => {
                let names: Vec<&str> = crate::LaneSpec::ALL.iter().map(|l| l.name()).collect();
                write!(f, "unknown lane `{name}` (one of {})", names.join(", "))
            }
            PlacementError::Parse(e) => write!(f, "trace parse error: {e}"),
            PlacementError::Geometry(msg) => write!(f, "invalid geometry: {msg}"),
            PlacementError::SearchConfig(msg) => {
                write!(f, "invalid search configuration: {msg}")
            }
            PlacementError::NoSurvivingLane { lanes } => write!(
                f,
                "no portfolio lane survived to publish a placement (lanes: {})",
                lanes.join(", ")
            ),
        }
    }
}

impl Error for PlacementError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlacementError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseTraceError> for PlacementError {
    fn from(e: ParseTraceError) -> Self {
        PlacementError::Parse(e)
    }
}

impl From<rtm_arch::ConfigError> for PlacementError {
    fn from(e: rtm_arch::ConfigError) -> Self {
        PlacementError::Geometry(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PlacementError::InsufficientCapacity {
            vars: 10,
            dbcs: 2,
            capacity: 4,
        };
        assert!(e.to_string().contains("10 variables"));
        assert!(PlacementError::EmptyGeometry
            .to_string()
            .contains("at least one"));
        assert!(PlacementError::SearchConfig("empty GA population".into())
            .to_string()
            .contains("empty GA population"));
        let e = PlacementError::NoSurvivingLane {
            lanes: vec!["sa".into(), "tabu".into()],
        };
        assert!(e.to_string().contains("sa, tabu"), "{e}");
    }

    #[test]
    fn parse_errors_convert_and_keep_their_position() {
        let err = rtm_trace::AccessSequence::parse("a b\nc x:q").unwrap_err();
        let wrapped: PlacementError = err.clone().into();
        assert_eq!(wrapped, PlacementError::Parse(err));
        let msg = wrapped.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(
            std::error::Error::source(&wrapped).is_some(),
            "source chain preserved"
        );
    }

    #[test]
    fn geometry_errors_convert() {
        let err = rtm_arch::RtmGeometry::new(0, 32, 64, 1).unwrap_err();
        let wrapped: PlacementError = err.into();
        assert!(matches!(wrapped, PlacementError::Geometry(_)));
        assert!(wrapped.to_string().starts_with("invalid geometry: "));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlacementError>();
    }
}
