//! Fig. 19 — MAC counts of the DCNN and SCNN with/without PPSR and ERRR
//! on VGGNet (the ablation of the two techniques).

use crate::format::{ratio, Table};
use serde::Serialize;
use tfe_core::Evaluator;
use tfe_transfer::analysis::ReuseConfig;

/// One ablation cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationPoint {
    /// Scheme label.
    pub scheme: String,
    /// Reuse configuration label.
    pub reuse: String,
    /// MAC reduction over the dense baseline on conv layers.
    pub mac_reduction: f64,
}

/// The ablation dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig19 {
    /// All cells, scheme-major.
    pub points: Vec<AblationPoint>,
}

/// Paper reference reductions: (scheme, PPSR-only, ERRR-only, both).
pub const PAPER: [(&str, f64, f64, f64); 3] = [
    ("DCNN4x4", 1.5, 1.5, 2.25),
    ("DCNN6x6", 2.0, 2.0, 4.0),
    ("SCNN", 8.0 / 6.0, 8.0 / 6.0, 4.0),
];

const CONFIGS: [(&str, ReuseConfig); 4] = [
    ("none", ReuseConfig::NONE),
    ("PPSR only", ReuseConfig::PPSR_ONLY),
    ("ERRR only", ReuseConfig::ERRR_ONLY),
    ("PPSR+ERRR", ReuseConfig::FULL),
];

/// Runs the ablation on VGGNet, scheme-major. Each cell is a
/// closed-form evaluation, so the sweep is sequential.
#[must_use]
pub fn run() -> Fig19 {
    let points = super::schemes()
        .into_iter()
        .flat_map(|scheme| CONFIGS.map(|(label, reuse)| (scheme, label, reuse)))
        .map(|(scheme, label, reuse)| {
            let engine = Evaluator::with_reuse(reuse);
            let r = engine
                .run_network("VGGNet", scheme)
                .expect("VGG exists in the zoo");
            AblationPoint {
                scheme: scheme.label(),
                reuse: label.to_owned(),
                mac_reduction: r.conv_mac_reduction,
            }
        })
        .collect();
    Fig19 { points }
}

/// Renders the ablation grid.
#[must_use]
pub fn render(result: &Fig19) -> String {
    let mut table = Table::new(
        "Fig. 19: MAC reduction on VGGNet with/without PPSR and ERRR",
        &[
            "scheme",
            "none",
            "PPSR only",
            "ERRR only",
            "PPSR+ERRR",
            "paper (P/E/both)",
        ],
    );
    for scheme in super::schemes() {
        let label = scheme.label();
        let mut cells = vec![label.clone()];
        for (cfg_label, _) in CONFIGS {
            let v = result
                .points
                .iter()
                .find(|p| p.scheme == label && p.reuse == cfg_label)
                .map_or(0.0, |p| p.mac_reduction);
            cells.push(ratio(v));
        }
        let paper = PAPER
            .iter()
            .find(|(s, _, _, _)| *s == label)
            .map_or_else(String::new, |(_, p, e, b)| {
                format!("{}/{}/{}", ratio(*p), ratio(*e), ratio(*b))
            });
        cells.push(paper);
        table.row(&cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduction(r: &Fig19, scheme: &str, reuse: &str) -> f64 {
        r.points
            .iter()
            .find(|p| p.scheme == scheme && p.reuse == reuse)
            .unwrap()
            .mac_reduction
    }

    #[test]
    fn no_reuse_means_no_reduction() {
        let r = run();
        for scheme in ["DCNN4x4", "DCNN6x6", "SCNN"] {
            assert!(
                (reduction(&r, scheme, "none") - 1.0).abs() < 1e-9,
                "{scheme}"
            );
        }
    }

    #[test]
    fn dcnn_factors_match_paper_within_policy_dilution() {
        // VGG is all-3x3 so the measured factors are essentially exact.
        let r = run();
        assert!((reduction(&r, "DCNN4x4", "PPSR only") - 1.5).abs() < 0.02);
        assert!((reduction(&r, "DCNN4x4", "PPSR+ERRR") - 2.25).abs() < 0.03);
        assert!((reduction(&r, "DCNN6x6", "PPSR only") - 2.0).abs() < 0.02);
        assert!((reduction(&r, "DCNN6x6", "PPSR+ERRR") - 4.0).abs() < 0.05);
    }

    #[test]
    fn scnn_needs_both_techniques_for_4x() {
        // The paper's headline ablation: either technique alone only
        // accelerates two of eight filters.
        let r = run();
        assert!((reduction(&r, "SCNN", "PPSR only") - 8.0 / 6.0).abs() < 0.02);
        assert!((reduction(&r, "SCNN", "ERRR only") - 8.0 / 6.0).abs() < 0.02);
        assert!((reduction(&r, "SCNN", "PPSR+ERRR") - 4.0).abs() < 0.05);
    }

    #[test]
    fn symmetric_roles_of_ppsr_and_errr_in_dcnn() {
        // "As the width and height of meta filters in the DCNN are always
        // equal, the same benefits can be obtained in PPSR and ERRR."
        let r = run();
        for scheme in ["DCNN4x4", "DCNN6x6"] {
            let p = reduction(&r, scheme, "PPSR only");
            let e = reduction(&r, scheme, "ERRR only");
            assert!((p - e).abs() < 1e-9, "{scheme}: {p} vs {e}");
        }
    }

    #[test]
    fn render_contains_grid() {
        let text = render(&run());
        assert!(text.contains("PPSR+ERRR"));
        assert!(text.contains("SCNN"));
    }
}
