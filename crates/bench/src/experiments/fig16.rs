//! Fig. 16 — parameter reduction and speedup vs weight-compression
//! methods on AlexNet's CONV layers.
//!
//! # What is measured vs what is reported
//!
//! The table mixes two kinds of numbers; the rendered columns keep them
//! apart:
//!
//! * **Measured** — the TFE (SCNN) row comes from actually executing
//!   the simulated engine on AlexNet (`param reduction`, `speedup vs
//!   Eyeriss`), and the `TFE/method` column is computed from those
//!   measured values. Since the weight-plan subsystem landed (DESIGN
//!   §5.15), the pruning mechanism the comparison methods rely on is
//!   also executable here: magnitude pruning runs through the engine's
//!   compressed-sparse mode (`ExecMode::Sparse`, fed by
//!   `tfe_baselines::sparse_kernel::SparseFilterBank::prune`),
//!   bit-identical to the dense sweep (`tests/mode_parity.rs`) and
//!   timed against it in the `engine_modes` bench (`BENCH_*.json`).
//!   UCNN-style weight repetition is not executable: its factorized
//!   executor lost to the channel-stacked dense sweep on every measured
//!   cell, its best-case palette cell included, and was removed
//!   (DESIGN §5.15).
//! * **Reported** — the Han / SSL / ADMM / UCNN rows are *analytical*
//!   models ([`PruningModel`]): published per-layer reduction factors
//!   applied to the zoo's layer tables, not executions of those
//!   accelerators. The `paper TFE/method` column reproduces the paper's
//!   claimed factors ([`PAPER_FACTORS`]) verbatim for side-by-side
//!   comparison with the measured `TFE/method` values.

use crate::format::{ratio, Table};
use serde::Serialize;
use tfe_baselines::weight_compression::PruningModel;
use tfe_baselines::Comparator;
use tfe_core::{Evaluator, TransferScheme};

/// One bar pair of Fig. 16.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MethodPoint {
    /// Method name.
    pub method: String,
    /// Parameter reduction ratio.
    pub param_reduction: f64,
    /// CONV-layer speedup over Eyeriss.
    pub speedup: f64,
}

/// The figure's dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig16 {
    /// Comparators plus the TFE (SCNN), in plot order.
    pub points: Vec<MethodPoint>,
    /// TFE-over-comparator speedup factors (the paper reports 5.36x Han,
    /// 4.45x SSL, 3.24x UCNN).
    pub tfe_factors: Vec<(String, f64)>,
}

/// Paper's TFE-relative factors.
pub const PAPER_FACTORS: [(&str, f64); 3] = [("Han", 5.36), ("SSL", 4.45), ("UCNN", 3.24)];

/// Runs the comparison.
#[must_use]
pub fn run(engine: &Evaluator) -> Fig16 {
    let net = tfe_nets::zoo::alexnet();
    let mut points = Vec::new();
    for model in [
        PruningModel::han(),
        PruningModel::ssl(),
        PruningModel::admm(),
        PruningModel::ucnn(),
    ] {
        points.push(MethodPoint {
            method: model.name().to_owned(),
            param_reduction: model.param_reduction(&net),
            speedup: model
                .conv_speedup(&net)
                .expect("pruning models always answer"),
        });
    }
    let tfe = engine
        .run_network("AlexNet", TransferScheme::Scnn)
        .expect("AlexNet exists");
    points.push(MethodPoint {
        method: "TFE (SCNN)".to_owned(),
        param_reduction: tfe.param_reduction,
        speedup: tfe.conv_speedup,
    });
    let tfe_speedup = tfe.conv_speedup;
    let tfe_factors = points
        .iter()
        .filter(|p| p.method != "TFE (SCNN)")
        .map(|p| (p.method.clone(), tfe_speedup / p.speedup))
        .collect();
    Fig16 {
        points,
        tfe_factors,
    }
}

/// Renders the figure's rows.
#[must_use]
pub fn render(result: &Fig16) -> String {
    let mut table = Table::new(
        "Fig. 16: weight-compression comparison on AlexNet CONV layers",
        &[
            "method",
            "param reduction",
            "speedup vs Eyeriss",
            "TFE/method",
            "paper TFE/method",
        ],
    );
    for p in &result.points {
        let factor = result
            .tfe_factors
            .iter()
            .find(|(m, _)| *m == p.method)
            .map(|(_, f)| ratio(*f))
            .unwrap_or_else(|| "-".to_owned());
        let paper = PAPER_FACTORS
            .iter()
            .find(|(m, _)| *m == p.method)
            .map(|(_, f)| ratio(*f))
            .unwrap_or_else(|| "-".to_owned());
        table.row(&[
            p.method.clone(),
            ratio(p.param_reduction),
            ratio(p.speedup),
            factor,
            paper,
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfe_beats_pruning_methods_except_admm() {
        let r = run(&Evaluator::new());
        let get = |name: &str| r.points.iter().find(|p| p.method == name).unwrap().speedup;
        let tfe = get("TFE (SCNN)");
        assert!(tfe > get("Han"));
        assert!(tfe > get("SSL"));
        assert!(tfe > get("UCNN"));
        // Paper: "the speedup is marginally lower than that in [ADMM]".
        assert!(get("ADMM") > tfe * 0.95);
    }

    #[test]
    fn tfe_factors_within_paper_bands() {
        let r = run(&Evaluator::new());
        for (name, paper) in PAPER_FACTORS {
            let (_, measured) = r
                .tfe_factors
                .iter()
                .find(|(m, _)| m == name)
                .expect("factor present");
            let rel = (measured - paper).abs() / paper;
            assert!(rel < 0.35, "{name}: measured {measured} vs paper {paper}");
        }
    }

    #[test]
    fn render_lists_all_methods() {
        let text = render(&run(&Evaluator::new()));
        for m in ["Han", "SSL", "ADMM", "UCNN", "TFE (SCNN)"] {
            assert!(text.contains(m), "{m}");
        }
    }
}
