//! Shared command-line plumbing for the bench binaries.
//!
//! Every binary accepts the same three housekeeping flags before its own
//! options:
//!
//! * `--seed N` — override the experiment's RNG seed (binaries that are
//!   fully deterministic ignore it);
//! * `--json PATH` — also write a machine-readable summary to `PATH`;
//! * `--quiet` / `-q` — suppress per-item progress lines, keeping only
//!   failures and the final summary.
//!
//! Binary-specific flags stay with the binary: [`BenchOpts`] strips the
//! shared flags and hands the remainder back via [`BenchOpts::rest`],
//! with [`BenchOpts::flag_value`] for the common look-up.
//! [`BenchOpts::parse_for`] names the flags a binary takes, so a
//! misspelt one stops the run instead of being ignored. [`Checker`] is
//! the pass/fail accountant the verification-style binaries (`verify`,
//! `guarantee`) share; it honors `--quiet` and renders the `--json`
//! summary.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use auditor::report::json_str;

/// The shared housekeeping options, plus the binary-specific remainder.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// `--seed N`, if given.
    pub seed: Option<u64>,
    /// `--json PATH`, if given.
    pub json: Option<PathBuf>,
    /// `--quiet` / `-q`.
    pub quiet: bool,
    rest: Vec<String>,
}

impl BenchOpts {
    /// Parse the process arguments of the binary `bin`: the shared
    /// flags, then the binary-specific remainder, where every argument
    /// must be one of `bin`'s `switches`, or one of its `valued` flags
    /// followed by its value. Any argument error — a malformed shared
    /// flag, `<bin>: unknown flag X` or `<bin>: X requires a value` — is
    /// printed and exits 1.
    #[must_use]
    pub fn parse_for(bin: &str, switches: &[&str], valued: &[&str]) -> Self {
        let args = std::env::args().skip(1);
        Self::from_args_for(bin, switches, valued, args).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(1);
        })
    }

    /// The testable form of [`parse_for`](Self::parse_for): the error
    /// names the first argument it rejects.
    fn from_args_for<I>(
        bin: &str,
        switches: &[&str],
        valued: &[&str],
        args: I,
    ) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let opts = Self::from_args(args).map_err(|message| format!("{bin}: {message}"))?;
        let mut rest = opts.rest.iter();
        while let Some(arg) = rest.next() {
            if valued.contains(&arg.as_str()) {
                if rest.next().is_none() {
                    return Err(format!("{bin}: {arg} requires a value"));
                }
            } else if !switches.contains(&arg.as_str()) {
                return Err(format!("{bin}: unknown flag {arg}"));
            }
        }
        Ok(opts)
    }

    /// Parse the shared flags from an explicit argument list, leaving
    /// everything else in [`rest`](Self::rest) (the first half of
    /// [`parse_for`](Self::parse_for); `paper` checks the rest itself).
    ///
    /// # Errors
    /// Returns a usage message when `--seed` or `--json` is missing its
    /// value, or `--seed` is not an unsigned integer.
    pub fn from_args<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = Self::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    i += 1;
                    let value = args.get(i).ok_or("--seed requires a value")?;
                    opts.seed =
                        Some(value.parse().map_err(|_| {
                            format!("--seed expects an unsigned integer, got {value}")
                        })?);
                }
                "--json" => {
                    i += 1;
                    let value = args.get(i).ok_or("--json requires a path")?;
                    opts.json = Some(PathBuf::from(value));
                }
                "--quiet" | "-q" => opts.quiet = true,
                other => opts.rest.push(other.to_owned()),
            }
            i += 1;
        }
        Ok(opts)
    }

    /// The seed to use: `--seed` if given, else `default`.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The arguments left after the shared flags were stripped.
    #[must_use]
    pub fn rest(&self) -> &[String] {
        &self.rest
    }

    /// The value following a binary-specific `--flag value` pair in
    /// [`rest`](Self::rest), if present.
    #[must_use]
    pub fn flag_value(&self, name: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    /// Print a progress line unless `--quiet` was given.
    pub fn say(&self, message: &str) {
        if !self.quiet {
            println!("{message}");
        }
    }
}

/// Pass/fail accounting with eager diagnostics, shared by the
/// verification-style binaries.
///
/// With `quiet`, passing checks stay silent; failures always print.
#[derive(Debug)]
pub struct Checker {
    passed: usize,
    failed: usize,
    quiet: bool,
    records: Vec<(String, bool, String)>,
}

impl Checker {
    /// A fresh checker; `quiet` suppresses the per-check `ok` lines.
    #[must_use]
    pub fn new(quiet: bool) -> Self {
        Self {
            passed: 0,
            failed: 0,
            quiet,
            records: Vec::new(),
        }
    }

    /// Record one check, printing its verdict.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        let sep = if detail.is_empty() { "" } else { ": " };
        if ok {
            self.passed += 1;
            if !self.quiet {
                println!("  ok   {name}{sep}{detail}");
            }
        } else {
            self.failed += 1;
            println!("  FAIL {name}{sep}{detail}");
        }
        self.records.push((name.to_owned(), ok, detail.to_owned()));
    }

    /// Print an informational (non-check) line unless quiet.
    pub fn note(&self, message: &str) {
        if !self.quiet {
            println!("{message}");
        }
    }

    /// The full summary as a JSON object (check list plus totals).
    fn to_json(&self, title: &str) -> String {
        let mut checks = String::from("[");
        for (i, (name, ok, detail)) in self.records.iter().enumerate() {
            if i > 0 {
                checks.push_str(", ");
            }
            let _ = write!(
                checks,
                "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            );
        }
        checks.push(']');
        format!(
            "{{\"suite\": {}, \"passed\": {}, \"failed\": {}, \"checks\": {checks}}}\n",
            json_str(title),
            self.passed,
            self.failed
        )
    }

    /// Write the JSON summary to `path`.
    fn write_json(&self, title: &str, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json(title))
    }

    /// Print the final tally, write the `--json` summary if requested,
    /// and convert the verdict to a process exit code.
    #[must_use]
    pub fn finish(self, title: &str, opts: &BenchOpts) -> ExitCode {
        println!("{title}: {} passed, {} failed", self.passed, self.failed);
        if let Some(path) = &opts.json {
            if let Err(error) = self.write_json(title, path) {
                eprintln!("{title}: could not write {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn shared_flags_are_stripped_and_rest_preserved() {
        let opts = BenchOpts::from_args(args(&[
            "--part", "a", "--seed", "42", "--quiet", "--json", "out.json", "--csv",
        ]))
        .unwrap();
        assert_eq!(opts.seed, Some(42));
        assert!(opts.quiet);
        assert_eq!(opts.json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(opts.rest(), &["--part", "a", "--csv"]);
        assert_eq!(opts.flag_value("--part"), Some("a"));
        assert_eq!(opts.flag_value("--csv"), None);
        assert_eq!(opts.seed_or(7), 42);
    }

    #[test]
    fn defaults_are_empty() {
        let opts = BenchOpts::from_args(args(&[])).unwrap();
        assert_eq!(opts.seed, None);
        assert!(!opts.quiet);
        assert_eq!(opts.json, None);
        assert_eq!(opts.seed_or(7), 7);
        assert!(opts.rest().is_empty());
    }

    #[test]
    fn malformed_shared_flags_error() {
        assert!(BenchOpts::from_args(args(&["--seed"])).is_err());
        assert!(BenchOpts::from_args(args(&["--seed", "x"])).is_err());
        assert!(BenchOpts::from_args(args(&["--json"])).is_err());
    }

    #[test]
    fn only_the_flags_a_binary_names_pass_the_check() {
        let check = |list: &[&str]| {
            BenchOpts::from_args_for("demo", &["--smoke", "--full"], &["--baseline"], args(list))
                .map(|opts| opts.rest)
        };
        assert_eq!(check(&[]), Ok(vec![]));
        assert_eq!(
            check(&["--quiet", "--smoke", "--seed", "3"]),
            Ok(args(&["--smoke"]))
        );
        assert_eq!(
            check(&["--baseline", "b.json", "--full"]),
            Ok(args(&["--baseline", "b.json", "--full"]))
        );
        // A valued flag consumes its value, whatever it looks like.
        assert_eq!(
            check(&["--baseline", "--smoke"]),
            Ok(args(&["--baseline", "--smoke"]))
        );
        assert_eq!(
            check(&["--smokee"]),
            Err("demo: unknown flag --smokee".to_owned())
        );
        assert_eq!(
            check(&["--smoke", "extra"]),
            Err("demo: unknown flag extra".to_owned())
        );
        assert_eq!(
            check(&["--baselin", "b.json"]),
            Err("demo: unknown flag --baselin".to_owned())
        );
        assert_eq!(
            check(&["--smoke", "--baseline"]),
            Err("demo: --baseline requires a value".to_owned())
        );
        // A malformed shared flag is an error of the same binary.
        assert_eq!(
            check(&["--seed", "x"]),
            Err("demo: --seed expects an unsigned integer, got x".to_owned())
        );
        let none = BenchOpts::from_args_for("guarantee", &[], &[], args(&["-q", "--bogus"]));
        assert_eq!(
            none.map(|opts| opts.quiet),
            Err("guarantee: unknown flag --bogus".to_owned())
        );
    }

    #[test]
    fn checker_counts_and_serializes() {
        let mut c = Checker::new(true);
        c.check("alpha", true, "fine");
        c.check("beta", false, "broke \"here\"");
        assert_eq!((c.passed, c.failed), (1, 1));
        let json = c.to_json("suite");
        assert!(json.contains("\"suite\": \"suite\""));
        assert!(json.contains("\"passed\": 1, \"failed\": 1"));
        assert!(json.contains("\\\"here\\\""));
    }
}
