//! Minimal JSON encoding for experiment results.
//!
//! The experiment binaries emit flat row structs (numbers, strings, bools);
//! [`ToJson`] plus the [`crate::json_struct!`] macro covers exactly that
//! without a serde dependency.  Output matches `serde_json::to_string_pretty`
//! formatting (two-space indent) so downstream plotting scripts are
//! unaffected by the offline switch.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Types that can write themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON encoding to `out`; nested containers indent
    /// their contents by `indent + 1` levels.
    fn write_json(&self, out: &mut String, indent: usize);
}

/// Encodes a value as pretty-printed JSON (two-space indent, trailing
/// newline-free, matching `serde_json::to_string_pretty`).
#[must_use]
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

pub(crate) fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends a JSON string literal with escaping.
pub fn write_escaped(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _indent: usize) {
        if self.is_finite() {
            // `{:?}` prints the shortest round-trip form ("1.0", not "1").
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! integer_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _indent: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_escaped(out, self);
    }
}

impl ToJson for &str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_escaped(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Some(value) => value.write_json(out, indent),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, indent: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push_str("[\n");
        for (i, item) in self.iter().enumerate() {
            push_indent(out, indent + 1);
            item.write_json(out, indent + 1);
            if i + 1 < self.len() {
                out.push(',');
            }
            out.push('\n');
        }
        push_indent(out, indent);
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_slice().write_json(out, indent);
    }
}

/// Implements [`ToJson`] for a named-field struct by listing its fields:
///
/// ```
/// struct Row { model: String, energy_uj: f64, feasible: bool }
/// hidwa_bench::json_struct!(Row { model, energy_uj, feasible });
/// let row = Row { model: "ecg".into(), energy_uj: 1.5, feasible: true };
/// assert!(hidwa_bench::json::to_string_pretty(&row).contains("\"energy_uj\": 1.5"));
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut ::std::string::String, indent: usize) {
                out.push_str("{\n");
                let fields: &[(&str, &dyn $crate::json::ToJson)] =
                    &[$((::core::stringify!($field), &self.$field as &dyn $crate::json::ToJson)),+];
                for (i, (name, value)) in fields.iter().enumerate() {
                    $crate::json::push_indent_pub(out, indent + 1);
                    $crate::json::write_escaped(out, name);
                    out.push_str(": ");
                    value.write_json(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                $crate::json::push_indent_pub(out, indent);
                out.push('}');
            }
        }
    };
}

/// Public indentation helper for the [`crate::json_struct!`] expansion.
pub fn push_indent_pub(out: &mut String, indent: usize) {
    push_indent(out, indent);
}

/// Where a `BENCH_*.json` was measured, under the field names of
/// perfbench's provenance line, so a diff in a committed file can be read as
/// a regression or as a different machine.
struct Provenance {
    nproc: usize,
    rustc: &'static str,
    git_rev: String,
    profile: &'static str,
}

crate::json_struct!(Provenance {
    nproc,
    rustc,
    git_rev,
    profile
});

/// `git rev-parse HEAD` of the checkout these binaries were built from, read
/// at run time; "unknown" when the sources are not a git checkout.
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a perf-trajectory file `name` (to `$HIDWA_BENCH_OUT`, or the
/// current directory) as `{"provenance": {...}, "results": results}`: the
/// cores, compiler, git revision and profile of this run, then the rows.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_bench<T: ToJson + ?Sized>(name: &str, results: &T) {
    let provenance = Provenance {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        rustc: env!("HIDWA_BENCH_RUSTC"),
        git_rev: git_rev(),
        profile: env!("HIDWA_BENCH_PROFILE"),
    };
    let mut out = String::from("{\n");
    push_indent(&mut out, 1);
    out.push_str("\"provenance\": ");
    provenance.write_json(&mut out, 1);
    out.push_str(",\n");
    push_indent(&mut out, 1);
    out.push_str("\"results\": ");
    results.write_json(&mut out, 1);
    out.push_str("\n}\n");
    let out_dir = std::env::var("HIDWA_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = Path::new(&out_dir).join(name);
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[written {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        count: usize,
        ratio: f64,
        ok: bool,
    }

    crate::json_struct!(Row {
        name,
        count,
        ratio,
        ok
    });

    #[test]
    fn struct_rows_encode_like_serde_json() {
        let rows = vec![
            Row {
                name: "wi-r \"quoted\"".to_string(),
                count: 3,
                ratio: 1.5,
                ok: true,
            },
            Row {
                name: "ble".to_string(),
                count: 0,
                ratio: 100.0,
                ok: false,
            },
        ];
        let json = to_string_pretty(&rows);
        let expected = "[\n  {\n    \"name\": \"wi-r \\\"quoted\\\"\",\n    \"count\": 3,\n    \
                        \"ratio\": 1.5,\n    \"ok\": true\n  },\n  {\n    \"name\": \"ble\",\n    \
                        \"count\": 0,\n    \"ratio\": 100.0,\n    \"ok\": false\n  }\n]";
        assert_eq!(json, expected);
    }

    #[test]
    fn scalars_and_edge_cases() {
        assert_eq!(to_string_pretty(&1.0f64), "1.0");
        assert_eq!(to_string_pretty(&f64::NAN), "null");
        assert_eq!(to_string_pretty(&true), "true");
        assert_eq!(to_string_pretty(&"a\nb"), "\"a\\nb\"");
        let empty: Vec<f64> = Vec::new();
        assert_eq!(to_string_pretty(&empty), "[]");
        assert_eq!(to_string_pretty(&Option::<f64>::None), "null");
        assert_eq!(to_string_pretty(&Some(2u64)), "2");
    }
}
