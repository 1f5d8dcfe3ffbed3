//! Tiny argv helpers shared by every binary: `crawl`, `figures`,
//! `perf_ab`, `distd-coord` and `distd-worker`.
//!
//! Not an argument-parsing framework — just enough shared plumbing that
//! every malformed invocation (unknown flag, missing value, unparseable
//! number or scale word) produces a one-line explanation plus the usage
//! text and exit code **2**, instead of a panic or a silent default. The
//! binaries keep exit 0 for success, 1 for runtime failures, and 3 for a
//! lost coordinator, so launchers can tell "you called me wrong" apart
//! from "the fabric failed".

use hb_ecosystem::EcosystemConfig;
use std::fmt::Display;
use std::str::FromStr;

/// Exit code for a malformed command line.
pub const EXIT_USAGE: i32 = 2;

/// The campaign sizes a binary accepts as a scale word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 200 sites x 1 day - CI-friendly smoke runs.
    Tiny,
    /// 1,400 sites x 3 days - default for tests/examples.
    Test,
    /// 7,000 sites x 10 days - heavier shape-check runs.
    Medium,
    /// 35,000 sites x 34 days - the paper's full workload.
    Paper,
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        Ok(match s {
            "tiny" => Scale::Tiny,
            "test" => Scale::Test,
            "medium" => Scale::Medium,
            "paper" => Scale::Paper,
            _ => return Err("expected tiny|test|medium|paper".into()),
        })
    }
}

impl Scale {
    /// The ecosystem configuration for this scale.
    pub fn config(self) -> EcosystemConfig {
        match self {
            Scale::Tiny => EcosystemConfig::tiny_scale(),
            Scale::Test => EcosystemConfig::test_scale(),
            Scale::Medium => EcosystemConfig::paper_scale()
                .with_sites(7_000)
                .with_days(10),
            Scale::Paper => EcosystemConfig::paper_scale(),
        }
    }
}

/// Pull the value following `flag`, or say exactly what was missing.
pub fn flag_value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Pull and parse the value following `flag`, naming the flag and the
/// offending text on failure.
pub fn flag_parse<T>(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let raw = flag_value(args, flag)?;
    raw.parse()
        .map_err(|e| format!("{flag}: invalid value {raw:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!("tiny".parse(), Ok(Scale::Tiny));
        assert_eq!("medium".parse(), Ok(Scale::Medium));
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        assert!("bogus".parse::<Scale>().is_err());
    }

    #[test]
    fn flag_value_reports_the_flag_that_starved() {
        let mut args = std::iter::empty();
        let err = flag_value(&mut args, "--seed").unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn flag_parse_names_flag_and_offender() {
        let mut args = vec!["banana".to_string()].into_iter();
        let err = flag_parse::<u32>(&mut args, "--seed").unwrap_err();
        assert!(err.contains("--seed") && err.contains("banana"), "{err}");
        let mut args = vec!["7".to_string()].into_iter();
        assert_eq!(flag_parse::<u32>(&mut args, "--seed").unwrap(), 7);
    }
}
