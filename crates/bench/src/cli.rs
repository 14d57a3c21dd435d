//! The one command-line parser of the `reproduce` binary and the examples.
//!
//! A command line is a list of known arguments, each given at most once:
//! flags (`--tune`), options with a value (`--cost-model calibrated` or
//! `--cost-model=calibrated`) and options whose value is optional and only
//! attaches with `=` (`--profile` or `--profile=report.json`). Anything else
//! is an error: an unknown argument, a missing value, a value that is itself
//! a flag (`--trace-out --fig8`), or a repeated argument. [`exit_usage`]
//! reports an error on stderr with exit status 2, before the program prints
//! anything.

use std::fmt::Display;
use std::str::FromStr;

/// How a known argument takes a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare flag: `--tune`.
    Flag,
    /// A required value: `--routing zipf:1.2` or `--routing=zipf:1.2`.
    Value,
    /// An optional value, attached with `=` only: `--profile[=path]`.
    OptionalValue,
}

/// A parsed command line: the known arguments it gave, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Parsed {
    given: Vec<(&'static str, Option<String>)>,
}

impl Parsed {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value `name` was given with, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `name` parsed as `T` (`Ok(None)` when absent).
    ///
    /// # Errors
    ///
    /// Returns the parse error, prefixed with `name`.
    pub fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// The names given, in command-line order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(n, _)| *n)
    }
}

/// Parses `args` (without the program name) against the `known` arguments.
///
/// # Errors
///
/// Returns a one-line message for an unknown argument, a missing or empty
/// value, a value starting with `--`, a value given to a flag, or an
/// argument given twice.
pub fn parse<I, S>(args: I, known: &[(&'static str, Arity)]) -> Result<Parsed, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        let (flag, attached) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let Some(&(name, arity)) = known.iter().find(|(n, _)| *n == flag) else {
            return Err(format!("unknown argument {arg}"));
        };
        if given.iter().any(|(n, _)| *n == name) {
            return Err(format!("{name} is given more than once"));
        }
        let value = match (arity, attached) {
            (Arity::Flag, Some(_)) => return Err(format!("{name} takes no value")),
            (Arity::Flag | Arity::OptionalValue, None) => None,
            (Arity::Value, None) => Some(
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))?,
            ),
            (Arity::Value | Arity::OptionalValue, Some(value)) => Some(value),
        };
        if let Some(value) = &value {
            if value.is_empty() || value.starts_with("--") {
                return Err(format!("{name} requires a value, got {value:?}"));
            }
        }
        given.push((name, value));
    }
    Ok(Parsed { given })
}

/// Prints `error: {message}` on stderr and exits with status 2, the usage
/// error status.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: [(&str, Arity); 4] = [
        ("--tune", Arity::Flag),
        ("--cost-model", Arity::Value),
        ("--trace-out", Arity::Value),
        ("--profile", Arity::OptionalValue),
    ];

    #[test]
    fn both_value_forms_and_optional_values_parse() {
        let p = parse(
            [
                "--cost-model",
                "calibrated:a=b.tsv",
                "--trace-out=traces",
                "--profile",
                "--tune",
            ],
            &KNOWN,
        )
        .unwrap();
        assert_eq!(p.value("--cost-model"), Some("calibrated:a=b.tsv"));
        assert_eq!(p.value("--trace-out"), Some("traces"));
        assert!(p.has("--profile") && p.value("--profile").is_none());
        assert_eq!(
            p.names().collect::<Vec<_>>(),
            ["--cost-model", "--trace-out", "--profile", "--tune"]
        );
        let p = parse(["--profile=out.json"], &KNOWN).unwrap();
        assert_eq!(p.value("--profile"), Some("out.json"));
        assert_eq!(p.parse::<u32>("--tune"), Ok(None));
        assert!(parse(["--cost-model", "x"], &KNOWN)
            .unwrap()
            .parse::<u32>("--cost-model")
            .unwrap_err()
            .starts_with("--cost-model: "));
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for (args, needle) in [
            (&["--tun"][..], "unknown argument --tun"),
            (&["trace"][..], "unknown argument trace"),
            (&["--cost-model"][..], "--cost-model requires a value"),
            (&["--cost-model="][..], "--cost-model requires a value"),
            (
                &["--trace-out", "--tune"][..],
                "--trace-out requires a value",
            ),
            (&["--tune", "--tune"][..], "--tune is given more than once"),
            (
                &["--trace-out=a", "--trace-out", "b"][..],
                "--trace-out is given more than once",
            ),
            (&["--tune=yes"][..], "--tune takes no value"),
            (&["--profile", "out.json"][..], "unknown argument out.json"),
        ] {
            let err = parse(args.iter().copied(), &KNOWN).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
