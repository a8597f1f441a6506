//! Tiny command-line conveniences shared by every experiment binary.

/// Parsed command line shared by every experiment binary: the `--smoke`
/// flag plus an optional positional argument (used by the report/gate
/// binaries for the baseline path). Parse once at the top of `main` and
/// thread the value through, instead of re-scanning `argv` per
/// parameter.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// True when `--smoke` was passed: shrink the workload (fewer sweep
    /// points, shorter update streams) while preserving every invariant
    /// the full run asserts — `2(n−1)` messages per update, consistency
    /// levels, monotone growth shapes.
    pub smoke: bool,
    positional: Option<String>,
}

impl BenchArgs {
    /// Parse the process's command line.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut smoke = false;
        let mut positional = None;
        for a in args {
            if a == "--smoke" {
                smoke = true;
            } else if !a.starts_with("--") && positional.is_none() {
                positional = Some(a);
            }
        }
        BenchArgs { smoke, positional }
    }

    /// The first non-flag argument, or `default` (baseline paths).
    pub fn positional_or(&self, default: &str) -> String {
        self.positional
            .clone()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Pick the smoke or the full variant of a workload parameter.
pub fn pick<T>(smoke: bool, smoke_value: T, full_value: T) -> T {
    if smoke {
        smoke_value
    } else {
        full_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn smoke_flag_and_positional() {
        let a = parse(&["--smoke", "report.json"]);
        assert!(a.smoke);
        assert_eq!(a.positional_or("default"), "report.json");
        assert_eq!(pick(a.smoke, 1, 2), 1);
    }

    #[test]
    fn defaults_without_arguments() {
        let a = parse(&[]);
        assert!(!a.smoke);
        assert_eq!(a.positional_or("BENCH_report.json"), "BENCH_report.json");
        assert_eq!(pick(a.smoke, 1, 2), 2);
    }

    #[test]
    fn unknown_flags_are_not_positionals() {
        let a = parse(&["--verbose", "path", "extra"]);
        assert!(!a.smoke);
        assert_eq!(a.positional_or("d"), "path");
    }
}
