//! Command-line arguments for the `zero-train` and `zero-serve` binaries:
//! `--name value` options and bare `--switch` flags, checked against the
//! binary's own flag table so a typo is an error rather than a silently
//! applied default.

use std::str::FromStr;

/// The arguments a binary was given, already checked against its table.
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

/// Reports a usage error — an argument the binary cannot run with — and
/// exits 2.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg} (try --help)");
    std::process::exit(2);
}

impl Args {
    /// The process's arguments; exits 2 naming the culprit on the errors
    /// of [`Args::parse`].
    pub fn from_env(options: &[&str], switches: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), options, switches).unwrap_or_else(|e| usage_exit(&e))
    }

    /// Splits `argv` into `options` (each followed by its value) and
    /// bare `switches`. An argument in neither table, or an option at the
    /// end with no value, is an error naming it.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        options: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            if options.contains(&arg.as_str()) {
                let value = argv.next().ok_or_else(|| format!("{arg} needs a value"))?;
                given.push((arg, Some(value)));
            } else if switches.contains(&arg.as_str()) {
                given.push((arg, None));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(Args { given })
    }

    /// The value of option `name`, if it was given; an error naming the
    /// option and the value if it does not parse as a `T`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((_, Some(v))) = self.given.iter().find(|(n, _)| n == name) else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|_| format!("{name}: cannot parse {v:?}"))
    }

    /// [`Args::value`], exiting 2 on an unparseable value.
    pub fn maybe<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`Args::maybe`], or `default` when the option was not given.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        self.maybe(name).unwrap_or(default)
    }

    /// Whether switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }
}
