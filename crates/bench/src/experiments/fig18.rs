//! Fig. 18 — overall energy-efficiency improvement over Eyeriss on
//! VGGNet and AlexNet.

use crate::format::{ratio, Table};
use serde::Serialize;
use tfe_baselines::computation_reduction::SnaPea;
use tfe_baselines::weight_compression::PruningModel;
use tfe_core::Evaluator;

/// One bar of Fig. 18.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EePoint {
    /// Network.
    pub network: String,
    /// Method name.
    pub method: String,
    /// Energy-efficiency improvement over Eyeriss.
    pub improvement: f64,
}

/// The figure's dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig18 {
    /// All bars.
    pub points: Vec<EePoint>,
    /// Per-scheme averages over the two networks.
    pub averages: Vec<(String, f64)>,
}

/// Paper reference averages: scheme → EE improvement over Eyeriss on
/// VGG+AlexNet (Section VII: 8.33×, 12.66×, 13.31×; SnaPEA 1.48×,
/// UCNN 4.23×).
pub const PAPER_AVERAGES: [(&str, f64); 5] = [
    ("SnaPEA", 1.48),
    ("UCNN", 4.23),
    ("TFE (DCNN4x4)", 8.33),
    ("TFE (DCNN6x6)", 12.66),
    ("TFE (SCNN)", 13.31),
];

/// Runs the energy-efficiency comparison.
#[must_use]
pub fn run(engine: &Evaluator) -> Fig18 {
    let mut points = Vec::new();
    for net in ["VGGNet", "AlexNet"] {
        points.push(EePoint {
            network: net.to_owned(),
            method: "SnaPEA".to_owned(),
            improvement: SnaPea::ENERGY_EFFICIENCY,
        });
        points.push(EePoint {
            network: net.to_owned(),
            method: "UCNN".to_owned(),
            improvement: PruningModel::UCNN_ENERGY_EFFICIENCY,
        });
        for scheme in super::schemes() {
            let r = engine.run_network(net, scheme).expect("networks exist");
            points.push(EePoint {
                network: net.to_owned(),
                method: format!("TFE ({})", scheme.label()),
                improvement: r.energy_efficiency,
            });
        }
    }
    let methods: Vec<String> = {
        let mut seen = Vec::new();
        for p in &points {
            if !seen.contains(&p.method) {
                seen.push(p.method.clone());
            }
        }
        seen
    };
    let averages = methods
        .into_iter()
        .map(|m| {
            let vs: Vec<f64> = points
                .iter()
                .filter(|p| p.method == m)
                .map(|p| p.improvement)
                .collect();
            (m, vs.iter().sum::<f64>() / vs.len() as f64)
        })
        .collect();
    Fig18 { points, averages }
}

/// Renders the figure's bars.
#[must_use]
pub fn render(result: &Fig18) -> String {
    let mut table = Table::new(
        "Fig. 18: energy-efficiency improvement over Eyeriss",
        &["method", "VGGNet", "AlexNet", "average", "paper avg"],
    );
    for (method, avg) in &result.averages {
        let get = |net: &str| {
            result
                .points
                .iter()
                .find(|p| p.network == net && &p.method == method)
                .map_or(0.0, |p| p.improvement)
        };
        let paper = PAPER_AVERAGES
            .iter()
            .find(|(m, _)| m == method)
            .map_or_else(|| "-".to_owned(), |(_, v)| ratio(*v));
        table.row(&[
            method.clone(),
            ratio(get("VGGNet")),
            ratio(get("AlexNet")),
            ratio(*avg),
            paper,
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfe_dominates_both_comparators() {
        let r = run(&Evaluator::new());
        let avg = |m: &str| r.averages.iter().find(|(n, _)| n == m).unwrap().1;
        for scheme in ["TFE (DCNN4x4)", "TFE (DCNN6x6)", "TFE (SCNN)"] {
            assert!(avg(scheme) > avg("UCNN"), "{scheme}");
            assert!(avg(scheme) > avg("SnaPEA"), "{scheme}");
        }
    }

    #[test]
    fn scheme_ordering_holds() {
        let r = run(&Evaluator::new());
        let avg = |m: &str| r.averages.iter().find(|(n, _)| n == m).unwrap().1;
        assert!(avg("TFE (SCNN)") > avg("TFE (DCNN6x6)"));
        assert!(avg("TFE (DCNN6x6)") > avg("TFE (DCNN4x4)"));
    }

    #[test]
    fn scnn_average_in_paper_band() {
        // Paper: 13.31x average on VGG + AlexNet.
        let r = run(&Evaluator::new());
        let avg = r
            .averages
            .iter()
            .find(|(n, _)| n == "TFE (SCNN)")
            .unwrap()
            .1;
        assert!((9.0..18.0).contains(&avg), "{avg}");
    }

    #[test]
    fn snapea_factor_vs_tfe_matches_paper_direction() {
        // Paper: TFE(SCNN) is 8.99x higher EE than SnaPEA.
        let r = run(&Evaluator::new());
        let avg = |m: &str| r.averages.iter().find(|(n, _)| n == m).unwrap().1;
        let factor = avg("TFE (SCNN)") / avg("SnaPEA");
        assert!((6.0..13.0).contains(&factor), "{factor}");
    }
}
