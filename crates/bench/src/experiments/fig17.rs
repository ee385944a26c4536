//! Fig. 17 — parameter reduction and speedup vs computation-reduction
//! methods on VGGNet's CONV layers.

use crate::format::{pct, ratio, Table};
use serde::Serialize;
use tfe_baselines::computation_reduction::{AsymmetricConv, SnaPea, Winograd};
use tfe_baselines::Comparator;
use tfe_core::Evaluator;

/// One bar pair of Fig. 17.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MethodPoint {
    /// Method name.
    pub method: String,
    /// Parameter reduction (values below 1 mean *more* parameters, as for
    /// Winograd).
    pub param_reduction: f64,
    /// CONV-layer speedup over Eyeriss.
    pub speedup: f64,
    /// Accuracy loss at the operating point, percentage points.
    pub accuracy_loss_pct: f64,
}

/// The figure's dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig17 {
    /// Comparators plus the three TFE schemes.
    pub points: Vec<MethodPoint>,
}

/// Runs the comparison on VGGNet.
#[must_use]
pub fn run(engine: &Evaluator) -> Fig17 {
    let net = tfe_nets::zoo::vgg16();
    let mut points = Vec::new();
    let snapea = SnaPea::new();
    let winograd = Winograd::new();
    let asym = AsymmetricConv::new();
    for c in [&snapea as &dyn Comparator, &winograd, &asym] {
        points.push(MethodPoint {
            method: c.name().to_owned(),
            param_reduction: c.param_reduction(&net),
            speedup: c.conv_speedup(&net).expect("all three answer VGG"),
            accuracy_loss_pct: c.accuracy_loss_pct(),
        });
    }
    for scheme in super::schemes() {
        let r = engine.run_network("VGGNet", scheme).expect("VGG exists");
        points.push(MethodPoint {
            method: format!("TFE ({})", scheme.label()),
            param_reduction: r.param_reduction,
            speedup: r.conv_speedup,
            accuracy_loss_pct: if scheme.label() == "SCNN" { 0.4 } else { 0.7 },
        });
    }
    Fig17 { points }
}

/// Renders the figure's rows.
#[must_use]
pub fn render(result: &Fig17) -> String {
    let mut table = Table::new(
        "Fig. 17: computation-reduction comparison on VGGNet CONV layers",
        &[
            "method",
            "param reduction",
            "speedup vs Eyeriss",
            "accuracy loss",
        ],
    );
    for p in &result.points {
        table.row(&[
            p.method.clone(),
            ratio(p.param_reduction),
            ratio(p.speedup),
            pct(p.accuracy_loss_pct),
        ]);
    }
    let tfe_scnn = result
        .points
        .iter()
        .find(|p| p.method.contains("SCNN"))
        .expect("SCNN row present");
    let snapea = result
        .points
        .iter()
        .find(|p| p.method == "SnaPEA")
        .expect("SnaPEA row present");
    let mut s = table.render();
    s.push_str(&format!(
        "\nTFE(SCNN)/SnaPEA speedup: {} (paper 2.72x); param advantage {} (paper 4.0x vs none)\n",
        ratio(tfe_scnn.speedup / snapea.speedup),
        ratio(tfe_scnn.param_reduction / snapea.param_reduction),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winograd_expands_parameters_and_tfe_compresses() {
        let r = run(&Evaluator::new());
        let get = |m: &str| r.points.iter().find(|p| p.method == m).unwrap();
        assert!(get("Winograd").param_reduction < 1.0);
        assert!(get("TFE (SCNN)").param_reduction >= 3.8);
        assert_eq!(get("SnaPEA").param_reduction, 1.0);
    }

    #[test]
    fn tfe_scnn_over_snapea_near_paper_factor() {
        let r = run(&Evaluator::new());
        let get = |m: &str| r.points.iter().find(|p| p.method == m).unwrap().speedup;
        let factor = get("TFE (SCNN)") / get("SnaPEA");
        // Paper: 2.72x.
        assert!((2.0..4.2).contains(&factor), "{factor}");
    }

    #[test]
    fn asymmetric_conv_factors_match_paper_relations() {
        // Paper: asym uses 1.51x (DCNN4x4) / 2.67x (SCNN) more parameters
        // than the TFE.
        let r = run(&Evaluator::new());
        let get = |m: &str| r.points.iter().find(|p| p.method == m).unwrap();
        let rel4 = get("TFE (DCNN4x4)").param_reduction / get("AsymConv").param_reduction;
        let rel_s = get("TFE (SCNN)").param_reduction / get("AsymConv").param_reduction;
        assert!((1.3..1.7).contains(&rel4), "{rel4}");
        assert!((2.4..2.9).contains(&rel_s), "{rel_s}");
    }

    #[test]
    fn render_reports_snapea_factor() {
        let text = render(&run(&Evaluator::new()));
        assert!(text.contains("SnaPEA"));
        assert!(text.contains("paper 2.72x"));
    }
}
