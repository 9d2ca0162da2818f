//! Minimal CLI-flag parsing shared by the experiment binaries.

/// Run size of an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSize {
    /// Few images / coarse sweeps; finishes in seconds to a couple of
    /// minutes.
    Quick,
    /// The defaults used for `EXPERIMENTS.md`.
    Standard,
    /// More images for tighter statistics.
    Full,
}

impl RunSize {
    /// Picks one of three values by run size.
    pub fn pick<T: Copy>(&self, quick: T, standard: T, full: T) -> T {
        match self {
            RunSize::Quick => quick,
            RunSize::Standard => standard,
            RunSize::Full => full,
        }
    }
}

/// Parsed `--name value` / `--name=value` flags (plus the bare `--quick`
/// / `--full` run-size switches, which take no value).
#[derive(Debug, Clone, Default)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Captures the process arguments.
    pub fn from_env() -> Self {
        Self { args: std::env::args().skip(1).collect() }
    }

    /// Builds from an explicit argument list (tests).
    pub fn from_args<S: Into<String>, I: IntoIterator<Item = S>>(args: I) -> Self {
        Self { args: args.into_iter().map(Into::into).collect() }
    }

    /// The run size implied by `--quick` / `--full` (default standard).
    pub fn run_size(&self) -> RunSize {
        if self.args.iter().any(|a| a == "--quick") {
            RunSize::Quick
        } else if self.args.iter().any(|a| a == "--full") {
            RunSize::Full
        } else {
            RunSize::Standard
        }
    }

    /// The raw value of `--name value` or `--name=value`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        let prefix = format!("--{name}=");
        for (i, arg) in self.args.iter().enumerate() {
            if let Some(v) = arg.strip_prefix(&prefix) {
                return Some(v);
            }
            if *arg == flag {
                return self.args.get(i + 1).map(String::as_str);
            }
        }
        None
    }

    /// Parses the value of `--name`, if present.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value does not parse —
    /// experiment binaries fail loudly on bad invocations.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value_of(name).map(|v| match v.parse() {
            Ok(value) => value,
            Err(_) => panic!("invalid value {v:?} for --{name}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_size() {
        assert_eq!(RunSize::Quick.pick(1, 2, 3), 1);
        assert_eq!(RunSize::Standard.pick(1, 2, 3), 2);
        assert_eq!(RunSize::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn flags_parse_both_spellings() {
        let flags = Flags::from_args(["--width", "640", "--k=4", "--quick", "--mode", "keyed"]);
        assert_eq!(flags.value_of("width"), Some("640"));
        assert_eq!(flags.parsed::<u32>("width"), Some(640));
        assert_eq!(flags.parsed::<u32>("k"), Some(4));
        assert_eq!(flags.value_of("mode"), Some("keyed"));
        assert_eq!(flags.value_of("height"), None);
        assert_eq!(flags.run_size(), RunSize::Quick);
        assert_eq!(Flags::from_args(["--full"]).run_size(), RunSize::Full);
        assert_eq!(Flags::default().run_size(), RunSize::Standard);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn flags_reject_bad_values() {
        let _ = Flags::from_args(["--width", "lots"]).parsed::<u32>("width");
    }
}
