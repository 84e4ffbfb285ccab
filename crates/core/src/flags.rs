//! Command-line flags: the only code that walks an argument list.
//!
//! Each CLI — the worker protocol, `fleet_driver`, `fleet_search --search`,
//! `plan_server` and the `plan_client` example — passes its flag table and
//! reads typed values back, so all of them refuse bad input in the same
//! words: `unknown flag "--x"`, `--x needs a value`, `--x could not parse
//! "v"`, `--x is required`, `--x and --y are mutually exclusive` and
//! `--x needs --y`.  A flag given twice keeps its last value.
//!
//! ```
//! use hidwa_core::flags::Flags;
//!
//! let table = "--bodies= --plan";
//! let flags = Flags::parse(table, ["--bodies", "12", "--plan"].map(String::from)).unwrap();
//! assert_eq!(flags.required::<usize>("--bodies"), Ok(12));
//! assert!(flags.has("--plan"));
//! let missing = Flags::parse(table, ["--bodies".to_string()]).unwrap_err();
//! assert_eq!(missing, "--bodies needs a value");
//! ```

use std::process::ExitCode;
use std::str::FromStr;

/// An argument list checked against a flag table.
#[derive(Debug)]
pub struct Flags {
    /// The given flags and their values (`""` for a switch), in order.
    given: Vec<(String, String)>,
}

impl Flags {
    /// Walks `args` against `table`: whitespace-separated flag names, where
    /// a trailing `=` marks a flag that takes the next argument as its value
    /// and a bare name is a switch.
    ///
    /// # Errors
    /// `unknown flag "--x"` or `--x needs a value`.
    pub fn parse(table: &str, args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let entry = table
                .split_whitespace()
                .find(|entry| entry.trim_end_matches('=') == flag);
            let value = match entry {
                None => return Err(format!("unknown flag {flag:?}")),
                Some(entry) if entry.ends_with('=') => {
                    args.next().ok_or_else(|| format!("{flag} needs a value"))?
                }
                Some(_) => String::new(),
            };
            given.push((flag, value));
        }
        Ok(Self { given })
    }

    /// The last value given for `name` (`""` for a switch).
    #[must_use]
    pub fn raw(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().rev().find(|(flag, _)| flag == name);
        given.map(|(_, value)| value.as_str())
    }

    /// Whether `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The value of `name` as a `T`, if given.
    ///
    /// # Errors
    /// `--x could not parse "v"`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |raw: &str| {
            raw.parse()
                .map_err(|_| format!("{name} could not parse {raw:?}"))
        };
        self.raw(name).map(parse).transpose()
    }

    /// The value of a flag that must be given.
    ///
    /// # Errors
    /// `--x is required`, or the error of [`value`](Self::value).
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.value(name)?.ok_or(format!("{name} is required"))
    }

    /// The value of `name` looked up by [`parse_tag`], if given.
    ///
    /// # Errors
    /// The error of [`parse_tag`].
    pub fn tag<T: Copy>(
        &self,
        name: &str,
        values: &[T],
        tag: fn(T) -> &'static str,
    ) -> Result<Option<T>, String> {
        self.raw(name)
            .map(|raw| parse_tag(name, values, tag, raw))
            .transpose()
    }

    /// Refuses `a` and `b` given together.
    ///
    /// # Errors
    /// `--a and --b are mutually exclusive`.
    pub fn exclusive(&self, a: &str, b: &str) -> Result<(), String> {
        if self.has(a) && self.has(b) {
            return Err(format!("{a} and {b} are mutually exclusive"));
        }
        Ok(())
    }

    /// Refuses `flag` given without `needed`.
    ///
    /// # Errors
    /// `--flag needs --needed`.
    pub fn needs(&self, flag: &str, needed: &str) -> Result<(), String> {
        if self.has(flag) && !self.has(needed) {
            return Err(format!("{flag} needs {needed}"));
        }
        Ok(())
    }
}

/// The value among `values` whose `tag` is `raw`, so that each tag is
/// spelled only in its enum's `tag` function.
///
/// # Errors
/// `<what> could not parse "v" (expected "a", "b" or "c")`.
pub fn parse_tag<T: Copy>(
    what: &str,
    values: &[T],
    tag: fn(T) -> &'static str,
    raw: &str,
) -> Result<T, String> {
    if let Some(&value) = values.iter().find(|&&value| tag(value) == raw) {
        return Ok(value);
    }
    let tags: Vec<String> = values
        .iter()
        .map(|&value| format!("{:?}", tag(value)))
        .collect();
    let expected = match tags.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => tags.concat(),
    };
    Err(format!(
        "{what} could not parse {raw:?} (expected {expected})"
    ))
}

/// Prints `usage`, then `message` (last, so a stderr tail keeps the reason),
/// and returns the usage-error exit code 2.
#[must_use]
pub fn usage_error(usage: &str, message: &str) -> ExitCode {
    eprintln!("{usage}\n{message}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_text() {
        let parse =
            |args: &str| Flags::parse("--n= --m= --plan", args.split(' ').map(String::from));
        assert_eq!(parse("--x").unwrap_err(), r#"unknown flag "--x""#);
        let flags = parse("--n v --plan --n 7").unwrap();
        assert_eq!(flags.required::<u8>("--n"), Ok(7), "the last value wins");
        assert_eq!(flags.required::<u8>("--m"), Err("--m is required".into()));
        let flags = parse("--n v --m 1").unwrap();
        assert_eq!(
            flags.value::<u8>("--n"),
            Err(r#"--n could not parse "v""#.into())
        );
        let exclusive = flags.exclusive("--n", "--m");
        assert_eq!(exclusive, Err("--n and --m are mutually exclusive".into()));
        assert_eq!(flags.needs("--n", "--plan"), Err("--n needs --plan".into()));
        let tag = |n: u8| ["a", "b", "c"][usize::from(n)];
        assert_eq!(parse_tag("--t", &[0, 1, 2], tag, "b"), Ok(1));
        let expected = r#"--t could not parse "d" (expected "a", "b" or "c")"#;
        assert_eq!(parse_tag("--t", &[0, 1, 2], tag, "d"), Err(expected.into()));
    }
}
