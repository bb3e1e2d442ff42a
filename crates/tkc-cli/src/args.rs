//! Minimal flag parsing: positionals plus `--key value` / `--switch`.

use std::collections::BTreeMap;

/// Parsed command line: positionals in order, flags by name.
#[derive(Debug, Default, Clone)]
pub struct Parsed {
    pub positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Parses `argv` given the value-taking flags and the boolean switches;
/// any other `--name` is an error, so a mistyped or removed flag is not
/// silently ignored.
pub fn parse(argv: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--") {
            if value_flags.contains(&name) {
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                out.flags.insert(name.to_string(), v.clone());
                i += 2;
            } else if switches.contains(&name) {
                out.switches.push(name.to_string());
                i += 1;
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else {
            out.positionals.push(a.clone());
            i += 1;
        }
    }
    Ok(out)
}

impl Parsed {
    /// A `--key value` flag, if present.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A parsed numeric flag with default.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {s:?}")),
        }
    }

    /// True when the boolean switch appeared.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The n-th positional or an error mentioning what it should be.
    pub fn positional(&self, n: usize, what: &str) -> Result<&str, String> {
        self.positionals
            .get(n)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument: {what}"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_flags_switches() {
        let p = parse(
            &v(&["decompose", "g.txt", "--top", "5", "--timings"]),
            &["top"],
            &["timings", "verify"],
        )
        .unwrap();
        assert_eq!(p.positionals, vec!["decompose", "g.txt"]);
        assert_eq!(p.flag("top"), Some("5"));
        assert_eq!(p.flag_parse::<usize>("top", 1).unwrap(), 5);
        assert!(p.switch("timings"));
        assert!(!p.switch("verify"));
    }

    #[test]
    fn missing_value_errors() {
        let err = parse(&v(&["plot", "--svg"]), &["svg"], &[]).unwrap_err();
        assert!(err.contains("--svg"));
    }

    #[test]
    fn unknown_flags_error() {
        let decompose = |extra: &[&str]| {
            let argv = v(&[&["decompose", "g.txt"], extra].concat());
            parse(&argv, &["threads"], &["timings"]).unwrap_err()
        };
        // A removed switch and a misspelt value flag both name the flag.
        assert!(decompose(&["--stored"]).contains("--stored"));
        assert!(decompose(&["--thread", "3"]).contains("--thread"));
    }

    #[test]
    fn flag_parse_defaults_and_rejects_junk() {
        let p = parse(&v(&["x", "--scale", "abc"]), &["scale"], &[]).unwrap();
        assert!(p.flag_parse::<f64>("scale", 1.0).is_err());
        let p = parse(&v(&["x"]), &["scale"], &[]).unwrap();
        assert_eq!(p.flag_parse::<f64>("scale", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn positional_error_message() {
        let p = parse(&v(&["decompose"]), &[], &[]).unwrap();
        assert!(p
            .positional(1, "edge list path")
            .unwrap_err()
            .contains("edge list"));
    }
}
