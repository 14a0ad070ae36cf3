//! Minimal `--key value` argument parsing (no external dependency).

use std::collections::HashMap;
use std::str::FromStr;

/// Options that are bare flags (no value follows them on the command
/// line); everything else is a `--key value` pair.
const BOOL_FLAGS: &[&str] = &["json", "stream"];

/// Every `--key value` option some command reads. Any other name is
/// rejected at parse time, so a typo or a retired option fails loudly
/// instead of being ignored.
const VALUE_OPTIONS: &[&str] = &[
    "addr",
    "benchmark",
    "budget-evals",
    "budget-ms",
    "budget-stall",
    "capacity",
    "dbcs",
    "deadline-ms",
    "lanes",
    "max-inflight",
    "max-traces",
    "ports",
    "profile",
    "scale",
    "seed",
    "strategy",
    "subarrays",
    "threads",
    "trace",
];

/// Parsed `--key value` pairs plus bare boolean flags.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    values: HashMap<String, String>,
}

impl CliArgs {
    /// Parses the remaining argv after the subcommand.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = argv;
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected an option, got `{arg}`"));
            };
            if BOOL_FLAGS.contains(&key) {
                values.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            if !VALUE_OPTIONS.contains(&key) {
                return Err(format!("unknown option --{key}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option --{key} requires a value"))?;
            values.insert(key.to_owned(), value);
        }
        Ok(Self { values })
    }

    /// Raw string value of an option.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(VALUE_OPTIONS.contains(&key), "unregistered option `{key}`");
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare boolean flag (e.g. `--json`) was given.
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(BOOL_FLAGS.contains(&key), "unregistered flag `{key}`");
        self.values.contains_key(key)
    }

    /// Parsed value of an option, `None` if absent.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse.
    pub fn get_parsed<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("invalid value for --{key}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs() {
        let a = parse(&["--trace", "x.txt", "--dbcs", "8"]).unwrap();
        assert_eq!(a.get("trace"), Some("x.txt"));
        assert_eq!(a.get_parsed::<usize>("dbcs").unwrap(), Some(8));
        assert_eq!(a.get("capacity"), None);
        assert_eq!(a.get_parsed::<usize>("capacity").unwrap(), None);
    }

    #[test]
    fn rejects_bare_values() {
        assert!(parse(&["oops"]).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn rejects_bad_parse() {
        let a = parse(&["--dbcs", "many"]).unwrap();
        assert!(a.get_parsed::<usize>("dbcs").is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(&["--json", "--dbcs", "8"]).unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.get_parsed::<usize>("dbcs").unwrap(), Some(8));
        assert!(!parse(&["--dbcs", "8"]).unwrap().flag("json"));
        // Trailing flag still parses (no value consumed).
        assert!(parse(&["--dbcs", "8", "--json"]).unwrap().flag("json"));
    }
}
