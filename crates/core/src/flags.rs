//! Command-line flags: the only code that walks an argument list.
//!
//! Each CLI — the worker protocol, `fleet_driver`, `fleet_search --search`,
//! `plan_server` and the `plan_client` example — passes its flag table and
//! reads typed values back, so all of them refuse bad input in the same
//! words: `unknown flag "--x"`, `--x needs a value`, `--x could not parse
//! "v"`, `--x is required`, `--x and --y are mutually exclusive` and
//! `--x needs --y`.  A flag given twice keeps its last value.  An
//! enum-valued flag is read through the enum's [`Tag`] impl, the one table
//! of its names and wire codes that spools and the serve wire share.
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

    /// The value of `name` looked up by [`Tag::parse`], if given.
    ///
    /// # Errors
    /// The error of [`Tag::parse`].
    pub fn tag<T: Tag>(&self, name: &str) -> Result<Option<T>, String> {
        self.raw(name).map(|raw| T::parse(name, raw)).transpose()
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

/// An enum that crosses a flag, spool or wire boundary: each value's name
/// there is its [`tag`](Self::tag), and its wire code is its position in
/// [`ALL`](Self::ALL), so both are spelled once, in the enum's impl.
pub trait Tag: Copy + 'static {
    /// Every value, in wire-code order.
    const ALL: &'static [Self];

    /// The name this value crosses a boundary under.
    fn tag(self) -> &'static str;

    /// The value whose tag is `raw`.
    ///
    /// # Errors
    /// `<what> could not parse "v" (expected "a", "b" or "c")`.
    fn parse(what: &str, raw: &str) -> Result<Self, String> {
        if let Some(&value) = Self::ALL.iter().find(|value| value.tag() == raw) {
            return Ok(value);
        }
        let tags: Vec<String> = Self::ALL
            .iter()
            .map(|value| format!("{:?}", value.tag()))
            .collect();
        let expected = match tags.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => tags.concat(),
        };
        Err(format!(
            "{what} could not parse {raw:?} (expected {expected})"
        ))
    }
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
    use crate::fleet::driver::PopulationSpec;
    use crate::fleet::PolicyKind;
    use crate::partition::Objective;
    use crate::serve::codec::{code_of, from_code, WireCodecError};
    use hidwa_netsim::mac::MacPolicy;
    use hidwa_phy::RadioTechnology;
    use std::fmt::Debug;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Letter {
        A,
        B,
        C,
    }

    impl Tag for Letter {
        const ALL: &'static [Self] = &[Self::A, Self::B, Self::C];

        fn tag(self) -> &'static str {
            match self {
                Self::A => "a",
                Self::B => "b",
                Self::C => "c",
            }
        }
    }

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
        assert_eq!(Letter::parse("--t", "b"), Ok(Letter::B));
        let expected = r#"--t could not parse "d" (expected "a", "b" or "c")"#;
        assert_eq!(Letter::parse("--t", "d"), Err(expected.into()));
    }

    /// Every value of `T` parses back from its tag and decodes back from
    /// its wire code; an unknown tag lists `expected`, and the first code
    /// past `ALL` is refused.
    fn round_trips<T: Tag + PartialEq + Debug>(expected: &str) {
        for (code, &value) in T::ALL.iter().enumerate() {
            assert_eq!(T::parse("--t", value.tag()), Ok(value));
            assert_eq!(usize::from(code_of(T::ALL, value)), code);
            assert_eq!(from_code(T::ALL, code as u8, "unknown"), Ok(value));
        }
        let unknown = format!(r#"--t could not parse "x" (expected {expected})"#);
        assert_eq!(T::parse("--t", "x"), Err(unknown));
        let past = T::ALL.len() as u8;
        let refused = Err(WireCodecError::Corrupt("unknown"));
        assert_eq!(from_code(T::ALL, past, "unknown"), refused);
    }

    #[test]
    fn every_tag_round_trips() {
        round_trips::<Letter>(r#""a", "b" or "c""#);
        round_trips::<MacPolicy>(r#""tdma" or "polling""#);
        round_trips::<RadioTechnology>(r#""wi-r", "ble", "nfmi" or "wifi""#);
        round_trips::<Objective>(r#""leaf-energy", "latency" or "edp""#);
        let policies = r#""static-at-admission", "reoptimize-on-change" or "hysteresis""#;
        round_trips::<PolicyKind>(policies);
        round_trips::<PopulationSpec>(r#""uniform" or "mixed""#);
    }
}
