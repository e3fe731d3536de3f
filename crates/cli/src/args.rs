//! A minimal, dependency-free argument parser.
//!
//! Grammar: `apples-cli <command> [ARG | --flag value | --switch]...`.
//! Flags may be given as `--key value` or `--key=value`. Unknown flags
//! are an error (catches typos early), and so is a value flag given
//! twice (the first value would otherwise be silently dropped). Each
//! command names the positional arguments it takes; a missing or an
//! extra one is an error too.

use std::collections::BTreeMap;

/// Parsed command line after the subcommand: its positional
/// arguments and its flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parse raw arguments (without the program name) against a
    /// command's grammar, one word per argument it takes: `name=` is a
    /// value flag, `name` a switch (stored with the value `"true"`),
    /// and an upper-case `NAME` a positional argument, in order
    /// (`[NAME]` is optional).
    pub fn parse(args: &[String], grammar: &[&str]) -> Result<Parsed, ArgError> {
        let is_positional = |w: &str| w.starts_with(|c: char| c.is_ascii_uppercase() || c == '[');
        let positionals: Vec<&str> = grammar
            .iter()
            .copied()
            .filter(|w| is_positional(w))
            .collect();
        let mut iter = args.iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command".into()))?;
        if command.starts_with('-') {
            return Err(ArgError(format!("expected a command, got flag {command}")));
        }
        let mut flags = BTreeMap::new();
        let mut given = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(stripped) = arg.strip_prefix("--") else {
                if given.len() == positionals.len() {
                    return Err(ArgError(format!("unexpected positional argument {arg:?}")));
                }
                given.push(arg.clone());
                continue;
            };
            let (key, inline_value) = match stripped.split_once('=') {
                Some((k, v)) => (k.to_string(), Some(v.to_string())),
                None => (stripped.to_string(), None),
            };
            if !is_positional(&key) && grammar.contains(&key.as_str()) {
                if let Some(v) = inline_value {
                    return Err(ArgError(format!("--{key} takes no value, got {v:?}")));
                }
                flags.insert(key, "true".into());
            } else if grammar.iter().any(|w| w.strip_suffix('=') == Some(&key)) {
                let value = match inline_value {
                    Some(v) => v,
                    None => iter
                        .next()
                        .ok_or_else(|| ArgError(format!("--{key} needs a value")))?
                        .clone(),
                };
                if flags.contains_key(&key) {
                    return Err(ArgError(format!("--{key} given twice")));
                }
                flags.insert(key, value);
            } else {
                return Err(ArgError(format!("unknown flag --{key}")));
            }
        }
        if let Some(name) = positionals
            .get(given.len())
            .filter(|name| !name.starts_with('['))
        {
            return Err(ArgError(format!("missing argument {name}")));
        }
        Ok(Parsed {
            positionals: given,
            flags,
        })
    }

    /// The `i`th positional argument, or `""` when it was not given.
    pub fn positional(&self, i: usize) -> &str {
        self.positionals.get(i).map_or("", String::as_str)
    }

    /// A string flag, or the default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// A typed flag, or the default; error on unparsable values.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse {raw:?}"))),
        }
    }

    /// Whether a switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.flags.get(key).map(|v| v == "true").unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Parsed, ArgError> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&args, &["n=", "seed=", "profile=", "sp2"])
    }

    #[test]
    fn parses_command_and_flags() {
        let p = parse(&["schedule", "--n", "2000", "--seed=7", "--sp2"]).unwrap();
        assert_eq!(p.get("n", "0"), "2000");
        assert_eq!(p.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert!(p.switch("sp2"));
        assert!(!p.switch("other"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = parse(&["testbed"]).unwrap();
        assert_eq!(p.get("profile", "moderate"), "moderate");
        assert_eq!(p.get_parsed::<usize>("n", 1000).unwrap(), 1000);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["schedule", "--bogus", "1"]).unwrap_err();
        assert!(err.0.contains("unknown flag"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse(&["schedule", "--n"]).unwrap_err();
        assert!(err.0.contains("needs a value"));
    }

    #[test]
    fn switch_with_value_is_an_error() {
        let err = parse(&["schedule", "--sp2=yes"]).unwrap_err();
        assert!(err.0.contains("takes no value"));
    }

    #[test]
    fn repeated_value_flag_is_an_error() {
        let err = parse(&["schedule", "--n", "600", "--n=800"]).unwrap_err();
        assert_eq!(err.0, "--n given twice");
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--n", "5"]).is_err());
    }

    #[test]
    fn positionals_are_counted_against_their_names() {
        let grammar = ["SUB", "A", "[B]", "n="];
        let parse = |words: &[&str]| {
            let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            Parsed::parse(&args, &grammar)
        };
        let p = parse(&["trace", "diff", "--n=3", "a", "b"]).unwrap();
        assert_eq!([p.positional(0), p.positional(2)], ["diff", "b"]);
        assert_eq!(p.get("n", ""), "3");
        let p = parse(&["trace", "summary", "a"]).unwrap();
        assert_eq!(p.positional(2), "");
        let err = parse(&["trace", "summary"]).unwrap_err();
        assert_eq!(err.0, "missing argument A");
        let err = parse(&["trace", "d", "a", "b", "c"]).unwrap_err();
        assert_eq!(err.0, "unexpected positional argument \"c\"");
        // A positional's name is not a switch.
        let err = parse(&["trace", "x", "--SUB"]).unwrap_err();
        assert_eq!(err.0, "unknown flag --SUB");
    }

    #[test]
    fn bad_typed_value_is_an_error() {
        let p = parse(&["schedule", "--n", "abc"]).unwrap();
        assert!(p.get_parsed::<usize>("n", 0).is_err());
    }
}
