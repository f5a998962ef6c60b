//! The spec registry: all twenty legacy `htm-bench` binaries as
//! declarative [`ExperimentSpec`]s, plus the `hytm` hybrid-TM fallback
//! comparison. Each legacy spec's render reproduces the legacy binary's
//! table and TSV output bit for bit (the golden tests in
//! `tests/golden.rs` hold the line).

mod ablations;
mod adaptive;
mod figs;
mod hytm;
mod model;
mod svc;
mod tools;

use htm_machine::Platform;
use stamp::{BenchId, Variant};

use crate::cell::{platform_key, variant_key, CellKind, CellSpec, StampCell};
use crate::spec::{ExperimentSpec, RunOpts};

/// Every spec, in the order `run all` executes them (the legacy
/// `scripts/run_all_figures.sh` order, plus `lint` last).
pub fn all() -> &'static [&'static ExperimentSpec] {
    &ALL_SPECS
}

static ALL_SPECS: [&ExperimentSpec; 25] = [
    &tools::TABLE1,
    &figs::FIG2,
    &figs::FIG3,
    &figs::FIG4,
    &figs::FIG5,
    &figs::FIG6,
    &figs::FIG7,
    &figs::FIG8,
    &figs::FIG9,
    &figs::FIG10_11,
    &tools::TUNE,
    &ablations::PREFETCH_ABLATION,
    &ablations::ABLATION_POLICY,
    &ablations::ABLATION_TMCAM,
    &ablations::ABLATION_SUBSCRIPTION,
    &ablations::ABLATION_RETRY,
    &ablations::ABLATION_ZEC12_OTHER,
    &ablations::ABLATION_FAULTS,
    &hytm::HYTM,
    &adaptive::ADAPTIVE,
    &svc::SVC,
    &tools::CERTIFY_OVERHEAD,
    &tools::LINT,
    &model::MODEL,
    &tools::FABRIC_SMOKE,
];

/// Looks a spec up by CLI name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    all().iter().copied().find(|s| s.name == name)
}

/// The id convention for tuned-policy grid cells shared across the figure
/// specs (`fig2` and `fig3` build identical cells and therefore share
/// cached results).
pub(crate) fn grid_id(
    bench: BenchId,
    platform: Platform,
    variant: Variant,
    threads: u32,
) -> String {
    format!("{}-{}-{}-{}t", bench.label(), platform_key(platform), variant_key(variant), threads)
}

/// A tuned-policy grid cell honoring the run options (`--reps`,
/// `--certify`, `--fallback`).
pub(crate) fn grid_cell(
    opts: &RunOpts,
    bench: BenchId,
    platform: Platform,
    variant: Variant,
    threads: u32,
) -> CellSpec {
    let mut c = StampCell::tuned(platform, bench, variant, threads, opts.scale, opts.seed);
    c.reps = opts.reps;
    c.certify = opts.certify;
    if let Some(fb) = opts.fallback {
        c.fallback = fb;
    }
    CellSpec::new(grid_id(bench, platform, variant, threads), CellKind::Stamp(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_specs() {
        assert_eq!(all().len(), 25);
        for name in [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10_11",
            "tune",
            "prefetch_ablation",
            "ablation_policy",
            "ablation_tmcam",
            "ablation_subscription",
            "ablation_retry",
            "ablation_zec12_other",
            "ablation_faults",
            "hytm",
            "adaptive",
            "svc",
            "certify_overhead",
            "lint",
            "model",
            "fabric_smoke",
        ] {
            assert!(find(name).is_some(), "missing spec {name}");
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn builders_are_deterministic() {
        let opts = RunOpts::default();
        for spec in all() {
            let eff = opts.effective_for(spec);
            let a = (spec.build)(&eff);
            let b = (spec.build)(&eff);
            assert_eq!(a.len(), b.len(), "{}", spec.name);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "{}", spec.name);
                assert_eq!(x.kind.key(), y.kind.key(), "{}", spec.name);
            }
            // Ids are unique within a spec (render lookups depend on it).
            let mut ids: Vec<_> = a.iter().map(|c| c.id.clone()).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), a.len(), "duplicate cell id in {}", spec.name);
        }
    }

    #[test]
    fn fig2_and_fig3_share_their_grid() {
        let opts = RunOpts::default();
        let keys = |name: &str| -> Vec<String> {
            let spec = find(name).unwrap();
            (spec.build)(&opts.effective_for(spec)).iter().map(|c| c.kind.key()).collect()
        };
        assert_eq!(keys("fig2"), keys("fig3"));
    }
}
