//! Replayable counterexample traces.
//!
//! A [`ModelTrace`] pins everything a violation needs to reproduce: the
//! kernel (by suite name), platform, tier, seed, seeded bug, the violation
//! class, and the exact grant schedule. [`ModelTrace::replay`] rebuilds the
//! identical [`ModelConfig`], forces the recorded schedule through a fresh
//! controlled execution, and checks that the same violation class
//! reappears — deterministically, every time.
//!
//! The text format (`htm-model-trace v1`) is line-oriented and diffable;
//! `#`-prefixed lines are comments (the saved interleaving diagram rides
//! along as one).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use htm_machine::Platform;

use crate::explore::{Counterexample, ModelConfig, SeededBug, Tier, ViolationClass};
use crate::kernel;

const HEADER: &str = "htm-model-trace v1";

/// A saved, replayable counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelTrace {
    pub kernel: String,
    pub platform: Platform,
    pub tier: Tier,
    pub seed: u64,
    pub bug: SeededBug,
    pub class: ViolationClass,
    pub detail: String,
    pub schedule: Vec<u32>,
}

fn platform_key(p: Platform) -> &'static str {
    match p {
        Platform::BlueGeneQ => "bgq",
        Platform::Zec12 => "zec12",
        Platform::IntelCore => "intel-core",
        Platform::Power8 => "power8",
    }
}

fn platform_parse(s: &str) -> Option<Platform> {
    [Platform::BlueGeneQ, Platform::Zec12, Platform::IntelCore, Platform::Power8]
        .into_iter()
        .find(|&p| platform_key(p) == s)
}

impl ModelTrace {
    /// Packages a counterexample found by [`crate::explore()`].
    pub fn from_counterexample(cfg: &ModelConfig, cx: &Counterexample) -> ModelTrace {
        ModelTrace {
            kernel: cfg.kernel.name.to_string(),
            platform: cfg.platform,
            tier: cfg.tier,
            seed: cfg.seed,
            bug: cfg.bug,
            class: cx.class,
            detail: cx.detail.lines().next().unwrap_or_default().to_string(),
            schedule: cx.schedule.clone(),
        }
    }

    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{HEADER}");
        let _ = writeln!(s, "kernel {}", self.kernel);
        let _ = writeln!(s, "platform {}", platform_key(self.platform));
        let _ = writeln!(s, "tier {}", self.tier.key());
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "bug {}", self.bug.key());
        let _ = writeln!(s, "violation {} {}", self.class.key(), self.detail);
        let sched: Vec<String> = self.schedule.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(s, "schedule {}", sched.join(" "));
        s
    }

    pub fn from_text(text: &str) -> Result<ModelTrace, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(format!("not a model trace (missing `{HEADER}` header)"));
        }
        let mut kernel = None;
        let mut platform = None;
        let mut tier = None;
        let mut seed = None;
        let mut bug = None;
        let mut class = None;
        let mut detail = String::new();
        let mut schedule = None;
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line.trim(), ""));
            let rest = rest.trim();
            match key {
                "kernel" => kernel = Some(rest.to_string()),
                "platform" => {
                    platform =
                        Some(platform_parse(rest).ok_or(format!("unknown platform `{rest}`"))?)
                }
                "tier" => tier = Some(Tier::parse(rest).ok_or(format!("unknown tier `{rest}`"))?),
                "seed" => seed = Some(rest.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?),
                "bug" => bug = Some(SeededBug::parse(rest).ok_or(format!("unknown bug `{rest}`"))?),
                "violation" => {
                    let (c, d) = rest.split_once(' ').unwrap_or((rest, ""));
                    class = Some(ViolationClass::parse(c).ok_or(format!("unknown class `{c}`"))?);
                    detail = d.to_string();
                }
                "schedule" => {
                    let parsed: Result<Vec<u32>, _> =
                        rest.split_whitespace().map(str::parse).collect();
                    schedule = Some(parsed.map_err(|e| format!("bad schedule: {e}"))?);
                }
                other => return Err(format!("unknown trace line `{other}`")),
            }
        }
        Ok(ModelTrace {
            kernel: kernel.ok_or("missing kernel")?,
            platform: platform.ok_or("missing platform")?,
            tier: tier.ok_or("missing tier")?,
            seed: seed.ok_or("missing seed")?,
            bug: bug.ok_or("missing bug")?,
            class: class.ok_or("missing violation")?,
            detail,
            schedule: schedule.ok_or("missing schedule")?,
        })
    }

    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    pub fn load(path: impl AsRef<Path>) -> std::io::Result<ModelTrace> {
        let text = std::fs::read_to_string(path)?;
        ModelTrace::from_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Rebuilds the recorded configuration.
    pub fn config(&self) -> Result<ModelConfig, String> {
        let k = kernel::by_name(&self.kernel)
            .ok_or(format!("kernel `{}` is not in the model suite", self.kernel))?;
        let mut cfg = ModelConfig::new(k, self.platform, self.tier).bug(self.bug);
        cfg.seed = self.seed;
        Ok(cfg)
    }

    /// Re-executes the recorded schedule and verifies the recorded
    /// violation class reappears. Returns the replayed run's diagram.
    ///
    /// # Errors
    ///
    /// A message describing the divergence when the violation does not
    /// reproduce (or the trace references an unknown kernel).
    pub fn replay(&self) -> Result<String, String> {
        let cfg = self.config()?;
        let (found, diagram) = crate::explore::replay_forced(&cfg, &self.schedule);
        let classes: BTreeSet<ViolationClass> = found.iter().map(|&(c, _)| c).collect();
        if classes.contains(&self.class) {
            Ok(diagram)
        } else {
            Err(format!(
                "replay diverged: expected a `{}` violation, found {:?}",
                self.class.key(),
                classes.iter().map(|c| c.key()).collect::<Vec<_>>()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelTrace {
        ModelTrace {
            kernel: "counter".to_string(),
            platform: Platform::IntelCore,
            tier: Tier::Hw,
            seed: 7,
            bug: SeededBug::SkipReaderDoom,
            class: ViolationClass::Certify,
            detail: "1 committed-event violation(s)".to_string(),
            schedule: vec![0, 1, 1, 0, 0, 1],
        }
    }

    #[test]
    fn text_round_trip_preserves_every_field() {
        let t = sample();
        let parsed = ModelTrace::from_text(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn comment_lines_are_ignored_and_junk_is_rejected() {
        let t = sample();
        let mut text = String::from("# a diagram comment\n");
        text.push_str(&t.to_text());
        assert_eq!(ModelTrace::from_text(&text).unwrap(), t);
        assert!(ModelTrace::from_text("not a trace").is_err());
        assert!(ModelTrace::from_text(&t.to_text().replace("tier hw", "tier warp")).is_err());
        assert!(
            ModelTrace::from_text(&t.to_text().replace("schedule", "plan")).is_err(),
            "unknown keys must not parse"
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let t = sample();
        let dir = std::env::temp_dir().join("htm-model-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cx.trace");
        t.save(&path).unwrap();
        assert_eq!(ModelTrace::load(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }
}
