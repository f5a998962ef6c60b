//! The grid-shaping command-line flags: one decoder and one encoder.
//!
//! [`RunOpts::parse_grid_flag`] reads the flags that decide which cells a
//! spec builds (`--scale`, `--seed`, `--reps`, `--certify`, `--fallback`,
//! `--sessions`, `--skew`, `--filter`); the `htm-exp` CLI and its fabric
//! `worker` command both call it. [`RunOpts::grid_flags`] writes the same
//! flags back out, which is how a fabric worker rebuilds the
//! coordinator's exact grid.
//!
//! `--sessions` and `--skew` take user-typed numbers that flow straight
//! into cell cache keys and traffic-generator loop bounds, so hostile or
//! fat-fingered input must be rejected here with a message, never turned
//! into a panic, an overflow, or a multi-gigabyte allocation. The parsers
//! are plain functions (not buried in the binary) so the regression tests
//! can feed them garbage directly.

use htm_runtime::FallbackPolicy;
use stamp::Scale;

use crate::cell::scale_key;
use crate::spec::RunOpts;

impl RunOpts {
    /// Applies the grid flag `flag`, taking its value (if it has one)
    /// from `args`. Returns `Ok(false)` when `flag` is not a grid flag, and
    /// a usage message when its value is missing or malformed.
    pub fn parse_grid_flag(
        &mut self,
        flag: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs an argument"));
        match flag {
            "--scale" => {
                let s = value()?;
                self.scale = [Scale::Tiny, Scale::Sim, Scale::Full]
                    .into_iter()
                    .find(|&scale| scale_key(scale) == s)
                    .ok_or_else(|| format!("--scale tiny|sim|full (got {s:?})"))?;
                self.scale_explicit = true;
            }
            "--smoke" => {
                self.scale = Scale::Tiny;
                self.scale_explicit = true;
            }
            "--seed" => self.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--reps" => self.reps = value()?.parse().map_err(|_| "--reps needs an integer")?,
            "--certify" => self.certify = true,
            "--fallback" => {
                let s = value()?;
                self.fallback = Some(
                    FallbackPolicy::parse(&s)
                        .ok_or_else(|| format!("--fallback lock|stm|rot|adaptive (got {s:?})"))?,
                );
            }
            "--sessions" => self.svc_sessions = Some(parse_sessions(&value()?)?),
            "--skew" => self.svc_skew = Some(parse_skew_permille(&value()?)?),
            "--filter" => self.filter = Some(value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The grid flags that reproduce these options' cell grid (the scale
    /// always explicit); [`RunOpts::parse_grid_flag`] reads them back.
    pub fn grid_flags(&self) -> Vec<String> {
        let mut flags: Vec<String> = vec![
            "--scale".into(),
            scale_key(self.scale).into(),
            "--seed".into(),
            self.seed.to_string(),
            "--reps".into(),
            self.reps.to_string(),
        ];
        if self.certify {
            flags.push("--certify".into());
        }
        if let Some(f) = self.fallback {
            flags.extend(["--fallback".into(), f.key().into()]);
        }
        if let Some(n) = self.svc_sessions {
            flags.extend(["--sessions".into(), n.to_string()]);
        }
        if let Some(z) = self.svc_skew {
            flags.extend(["--skew".into(), z.to_string()]);
        }
        if let Some(f) = &self.filter {
            flags.extend(["--filter".into(), f.clone()]);
        }
        flags
    }
}

/// Hard ceiling on `--sessions` per cell: the traffic generator
/// materializes every request up front, so an absurd count must fail the
/// parse instead of exhausting memory mid-run.
pub const MAX_SESSIONS: u64 = 10_000_000;

/// Hard ceiling on the Zipf exponent in permille (s = 5.0): beyond this
/// the distribution is a point mass and the grid degenerates.
pub const MAX_SKEW_PERMILLE: u32 = 5000;

/// Parses `--sessions`: a positive decimal integer, with `_` allowed
/// between digits as a separator (`1_000_000`).
pub fn parse_sessions(s: &str) -> Result<u64, String> {
    let err = |why: &str| Err(format!("--sessions: {why} (got {s:?})"));
    if s.is_empty() {
        return err("expected a positive integer");
    }
    if s.starts_with('_') || s.ends_with('_') || s.contains("__") {
        return err("misplaced digit separator");
    }
    let digits: String = s.chars().filter(|c| *c != '_').collect();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return err("expected a positive integer");
    }
    let Ok(n) = digits.parse::<u64>() else {
        return err("value does not fit in 64 bits");
    };
    if n == 0 {
        return err("must be at least 1");
    }
    if n > MAX_SESSIONS {
        return err(&format!("capped at {MAX_SESSIONS} per cell"));
    }
    Ok(n)
}

/// Parses `--skew` into permille: either a permille integer (`1100`) or a
/// decimal exponent with up to three decimals (`1.1`, `0.6`).
pub fn parse_skew_permille(s: &str) -> Result<u32, String> {
    let err = |why: &str| Err(format!("--skew: {why} (got {s:?})"));
    let permille = match s.split_once('.') {
        None => {
            if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
                return err("expected permille integer (1100) or decimal (1.1)");
            }
            let Ok(n) = s.parse::<u32>() else {
                return err("value does not fit");
            };
            n
        }
        Some((int, frac)) => {
            if int.is_empty()
                || frac.is_empty()
                || frac.len() > 3
                || !int.bytes().all(|b| b.is_ascii_digit())
                || !frac.bytes().all(|b| b.is_ascii_digit())
            {
                return err("decimal form is D.DDD with 1-3 decimals");
            }
            let Ok(whole) = int.parse::<u32>() else {
                return err("value does not fit");
            };
            let frac_val: u32 = format!("{frac:0<3}").parse().expect("three checked digits");
            match whole.checked_mul(1000).and_then(|w| w.checked_add(frac_val)) {
                Some(p) => p,
                None => return err("value does not fit"),
            }
        }
    };
    if permille > MAX_SKEW_PERMILLE {
        return err(&format!("capped at {MAX_SKEW_PERMILLE} permille (s = 5.0)"));
    }
    Ok(permille)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(flags: Vec<String>) -> Result<RunOpts, String> {
        let mut opts = RunOpts::default();
        let mut args = flags.into_iter();
        while let Some(flag) = args.next() {
            if !opts.parse_grid_flag(&flag, &mut args)? {
                return Err(format!("not a grid flag: {flag}"));
            }
        }
        Ok(opts)
    }

    #[test]
    fn grid_flags_round_trip_through_the_decoder() {
        let opts = RunOpts {
            scale: Scale::Full,
            seed: 7,
            reps: 3,
            certify: true,
            fallback: Some(FallbackPolicy::Adaptive),
            svc_sessions: Some(1_000),
            svc_skew: Some(1100),
            filter: Some("genome".into()),
            ..RunOpts::default()
        };
        let back = parse_all(opts.grid_flags()).expect("own flags parse");
        assert_eq!((back.scale, back.scale_explicit), (Scale::Full, true));
        assert_eq!((back.seed, back.reps, back.certify), (7, 3, true));
        assert_eq!(back.fallback, Some(FallbackPolicy::Adaptive));
        assert_eq!((back.svc_sessions, back.svc_skew), (Some(1_000), Some(1100)));
        assert_eq!(back.filter.as_deref(), Some("genome"));
        assert_eq!(back.grid_flags(), opts.grid_flags());
        // The defaults round-trip too, with the scale made explicit.
        let plain = parse_all(RunOpts::default().grid_flags()).expect("default flags parse");
        assert_eq!(plain.grid_flags(), RunOpts::default().grid_flags());
    }

    #[test]
    fn grid_flag_decoder_rejects_bad_values_and_skips_other_flags() {
        for (flags, why) in [
            (vec!["--scale", "huge"], "--scale tiny|sim|full"),
            (vec!["--seed"], "--seed needs an argument"),
            (vec!["--reps", "x"], "--reps needs an integer"),
            (vec!["--fallback", "htm"], "--fallback lock|stm|rot|adaptive"),
            (vec!["--sessions", "0"], "--sessions:"),
            (vec!["--skew", "9.9"], "--skew:"),
        ] {
            let err = parse_all(flags.iter().map(|s| s.to_string()).collect()).unwrap_err();
            assert!(err.starts_with(why), "{flags:?}: {err}");
        }
        let mut opts = RunOpts::default();
        let mut rest = std::iter::once("4".to_string());
        assert_eq!(opts.parse_grid_flag("--jobs", &mut rest), Ok(false));
        assert_eq!(rest.next().as_deref(), Some("4"), "a non-grid flag consumes nothing");
    }

    #[test]
    fn sessions_accepts_plain_and_separated_integers() {
        assert_eq!(parse_sessions("1"), Ok(1));
        assert_eq!(parse_sessions("33000"), Ok(33_000));
        assert_eq!(parse_sessions("1_000_000"), Ok(1_000_000));
        assert_eq!(parse_sessions("10000000"), Ok(MAX_SESSIONS));
    }

    #[test]
    fn sessions_rejects_hostile_input() {
        for bad in [
            "",
            "0",
            "-5",
            "+5",
            "abc",
            "1e9",
            "0x10",
            "1 000",
            " 1",
            "1\n",
            "_",
            "_1",
            "1_",
            "1__0",
            "18446744073709551616",          // u64::MAX + 1
            "99999999999999999999999999999", // way past 64 bits
            "10000001",                      // over the cap
            "∞",
            "١٢٣", // non-ASCII digits must not sneak through
        ] {
            let r = parse_sessions(bad);
            assert!(r.is_err(), "{bad:?} must be rejected, got {r:?}");
            assert!(r.unwrap_err().starts_with("--sessions:"), "{bad:?}");
        }
    }

    #[test]
    fn skew_accepts_permille_and_decimal_forms() {
        assert_eq!(parse_skew_permille("0"), Ok(0));
        assert_eq!(parse_skew_permille("600"), Ok(600));
        assert_eq!(parse_skew_permille("1100"), Ok(1100));
        assert_eq!(parse_skew_permille("0.6"), Ok(600));
        assert_eq!(parse_skew_permille("1.1"), Ok(1100));
        assert_eq!(parse_skew_permille("1.125"), Ok(1125));
        assert_eq!(parse_skew_permille("5.0"), Ok(5000));
    }

    #[test]
    fn skew_rejects_hostile_input() {
        for bad in [
            "",
            "-1",
            "+1",
            "abc",
            "1.1.1",
            "1.",
            ".5",
            ".",
            "1.1234", // too many decimals
            "1e3",
            "nan",
            "inf",
            "5001",       // over the permille cap
            "5.001",      // just over via decimal form
            "4294967296", // u32::MAX + 1
            "4294968.0",  // overflows the *1000
            "1 .1",
            "١.١",
        ] {
            let r = parse_skew_permille(bad);
            assert!(r.is_err(), "{bad:?} must be rejected, got {r:?}");
            assert!(r.unwrap_err().starts_with("--skew:"), "{bad:?}");
        }
    }
}
