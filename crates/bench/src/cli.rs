//! Minimal flag parsing for the experiment binaries (`--key value` /
//! `--flag`), keeping the dependency set to the offline-approved crates.
//!
//! Bad input fails loudly: a value that does not parse, a bad list entry
//! or a stray positional argument panics naming what was wrong, instead
//! of silently running with a default.

use std::collections::HashMap;

/// Parsed command line: `--key value` pairs and bare `--switch`es.
#[derive(Debug, Default)]
pub struct Args {
    vals: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses any iterator of arguments (testable). Panics on an
    /// argument that is neither `--key` nor the value following one.
    pub fn parse_from(iter: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                panic!("unexpected argument '{a}': flags are '--key value' or '--switch'");
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = it.next().expect("peeked");
                    out.vals.insert(key.to_string(), v);
                }
                _ => out.switches.push(key.to_string()),
            }
        }
        out
    }

    /// Typed lookup with default. Panics, naming the key and the value,
    /// if the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.vals.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key}: cannot parse '{v}'")),
            None => default,
        }
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.vals
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Whether a bare switch was passed. Panics if the switch was given
    /// a value: the parser cannot tell switches from keys, so the token
    /// after `--switch` would otherwise vanish as its value.
    pub fn has(&self, key: &str) -> bool {
        if let Some(v) = self.vals.get(key) {
            panic!("--{key} takes no value, got '{v}'");
        }
        self.switches.iter().any(|s| s == key)
    }

    /// Comma-separated list of usizes (e.g. `--pes 2,4,8`). Panics,
    /// naming the key and the entry, on an entry that is not a number.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.vals.get(key) {
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key}: cannot parse '{x}' in '{v}'"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn parses_values_switches_and_lists() {
        let a = args("--n 500 --fast --pes 2,4,8 --name web");
        assert_eq!(a.get("n", 0usize), 500);
        assert!(a.has("fast"));
        assert!(!a.has("slow"));
        assert_eq!(a.get_usize_list("pes", &[1]), vec![2, 4, 8]);
        assert_eq!(a.get_str("name", "x"), "web");
        assert_eq!(a.get("missing", 7u32), 7);
    }

    #[test]
    #[should_panic(expected = "--pes: cannot parse '4,16'")]
    fn unparsable_value_panics() {
        args("--pes 4,16").get("pes", 4usize);
    }

    #[test]
    #[should_panic(expected = "--reps: cannot parse 'x'")]
    fn non_numeric_value_panics() {
        args("--reps x").get("reps", 3usize);
    }

    #[test]
    #[should_panic(expected = "--pes: cannot parse 'x' in '2,x,8'")]
    fn bad_list_entry_panics() {
        args("--pes 2,x,8").get_usize_list("pes", &[1]);
    }

    #[test]
    #[should_panic(expected = "--no-check takes no value, got 'extra'")]
    fn switch_with_a_value_panics() {
        args("--no-check extra").has("no-check");
    }

    #[test]
    #[should_panic(expected = "unexpected argument 'stray'")]
    fn stray_positional_panics() {
        args("stray --fast");
    }
}
