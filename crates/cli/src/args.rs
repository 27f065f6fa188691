//! Minimal `--flag value` argument parsing (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments: a subcommand plus `--key value` flags.
/// Every accessor records the key it was asked for, so a command can reject
/// flags it never read ([`Args::reject_unread`]) instead of dropping a typo
/// silently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

/// Errors from argument parsing or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, the rest must
    /// be `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Fails on a missing subcommand, a flag without a value, or a
    /// positional token where a flag was expected.
    pub(crate) fn parse<I, S>(argv: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = argv.into_iter().map(Into::into);
        let command = it.next().ok_or_else(|| ArgError("missing subcommand".into()))?;
        let mut flags = BTreeMap::new();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --flag, got '{token}'")))?
                .to_string();
            let value = it.next().ok_or_else(|| ArgError(format!("flag --{key} needs a value")))?;
            flags.insert(key, value);
        }
        Ok(Args { command, flags, read: RefCell::default() })
    }

    /// A string flag, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.flags.get(key).map(String::as_str)
    }

    /// Fails on the first (alphabetically) flag that was passed but that no
    /// accessor has asked for — a typo, a retired flag, or one the options
    /// taken so far make inapplicable. Call once every flag the command
    /// honours has been read.
    ///
    /// # Errors
    ///
    /// Names the unread flag.
    pub(crate) fn reject_unread(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        match self.flags.keys().find(|k| !read.contains(*k)) {
            Some(key) => Err(ArgError(format!(
                "unknown flag --{key} (not read by `{}` with these options)",
                self.command
            ))),
            None => Ok(()),
        }
    }

    /// A string flag with a default.
    pub(crate) fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Fails when the flag is absent.
    pub(crate) fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Fails when the value does not parse.
    pub(crate) fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError(format!("flag --{key} expects a number, got '{v}'")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let args = Args::parse(["plan", "--task", "sst2", "--target-ms", "200"]).unwrap();
        assert_eq!(args.command, "plan");
        assert_eq!(args.get("task"), Some("sst2"));
        assert_eq!(args.get_u64("target-ms", 0).unwrap(), 200);
        assert_eq!(args.get_or("device", "odroid"), "odroid");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["plan", "oops"]).is_err());
        assert!(Args::parse(["plan", "--task"]).is_err());
    }

    #[test]
    fn unread_flags_are_rejected_by_name() {
        let args = Args::parse(["serve", "--task", "sst2", "--chanels", "4"]).unwrap();
        assert_eq!(args.get("task"), Some("sst2"));
        assert_eq!(args.get_u64("channels", 1).unwrap(), 1, "the typo is not the flag");
        let err = args.reject_unread().unwrap_err();
        assert!(err.to_string().contains("unknown flag --chanels"), "{err}");
        // Reading a flag — even one that was not passed — is what clears it.
        let args = Args::parse(["plan", "--task", "sst2"]).unwrap();
        assert!(args.reject_unread().is_err());
        args.get_or("task", "rte");
        args.get("device");
        assert_eq!(args.reject_unread(), Ok(()));
    }

    #[test]
    fn require_and_bad_numbers() {
        let args = Args::parse(["x", "--n", "abc"]).unwrap();
        assert!(args.require("missing").is_err());
        assert!(args.get_u64("n", 1).is_err());
    }
}
