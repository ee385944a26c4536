//! Table IV — overall speedup of other published methods vs the TFE
//! (SCNN) on ResNet and GoogLeNet.

use crate::format::{ratio, Table};
use serde::Serialize;
use tfe_baselines::computation_reduction::SnaPea;
use tfe_baselines::reported::{BitFusion, MultiClp};
use tfe_baselines::weight_compression::PruningModel;
use tfe_core::{Evaluator, TransferScheme};

/// One cell of Table IV.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Entry {
    /// Network.
    pub network: String,
    /// Method name.
    pub method: String,
    /// Overall speedup over Eyeriss.
    pub overall_speedup: f64,
    /// The paper's value for this cell (published comparators only).
    pub paper: Option<f64>,
}

/// The table's dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table4 {
    /// All entries.
    pub entries: Vec<Entry>,
}

/// Paper's TFE-SCNN cells.
pub const PAPER_TFE: [(&str, f64); 2] = [("ResNet", 3.29), ("GoogLeNet", 2.37)];

/// Runs the comparison.
#[must_use]
pub fn run(engine: &Evaluator) -> Table4 {
    let mut entries = vec![
        Entry {
            network: "ResNet".to_owned(),
            method: "UCNN".to_owned(),
            overall_speedup: PruningModel::UCNN_RESNET_OVERALL,
            paper: Some(PruningModel::UCNN_RESNET_OVERALL),
        },
        Entry {
            network: "ResNet".to_owned(),
            method: "BitFusion".to_owned(),
            overall_speedup: BitFusion::RESNET_OVERALL,
            paper: Some(BitFusion::RESNET_OVERALL),
        },
        Entry {
            network: "GoogLeNet".to_owned(),
            method: "SnaPEA".to_owned(),
            overall_speedup: SnaPea::GOOGLENET_OVERALL,
            paper: Some(SnaPea::GOOGLENET_OVERALL),
        },
        Entry {
            network: "GoogLeNet".to_owned(),
            method: "Multi-CLP".to_owned(),
            overall_speedup: MultiClp::GOOGLENET_OVERALL,
            paper: Some(MultiClp::GOOGLENET_OVERALL),
        },
    ];
    for (net, paper) in PAPER_TFE {
        let r = engine
            .run_network(net, TransferScheme::Scnn)
            .expect("comparison networks exist");
        entries.push(Entry {
            network: net.to_owned(),
            method: "TFE (SCNN)".to_owned(),
            overall_speedup: r.overall_speedup,
            paper: Some(paper),
        });
    }
    Table4 { entries }
}

/// Renders Table IV.
#[must_use]
pub fn render(result: &Table4) -> String {
    let mut table = Table::new(
        "Table IV: overall speedup over Eyeriss",
        &["network", "method", "speedup", "paper"],
    );
    for e in &result.entries {
        table.row(&[
            e.network.clone(),
            e.method.clone(),
            ratio(e.overall_speedup),
            e.paper.map_or_else(|| "-".to_owned(), ratio),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfe_beats_ucnn_and_approaches_bitfusion_on_resnet() {
        let r = run(&Evaluator::new());
        let get = |net: &str, method: &str| {
            r.entries
                .iter()
                .find(|e| e.network == net && e.method == method)
                .unwrap()
                .overall_speedup
        };
        let tfe = get("ResNet", "TFE (SCNN)");
        // Paper: 2.19x over UCNN, "nearly the same" as Bit Fusion.
        assert!(tfe / get("ResNet", "UCNN") > 1.8);
        assert!((tfe / get("ResNet", "BitFusion") - 1.0).abs() < 0.35);
    }

    #[test]
    fn tfe_beats_snapea_and_multiclp_on_googlenet() {
        let r = run(&Evaluator::new());
        let get = |method: &str| {
            r.entries
                .iter()
                .find(|e| e.network == "GoogLeNet" && e.method == method)
                .unwrap()
                .overall_speedup
        };
        let tfe = get("TFE (SCNN)");
        assert!(tfe > get("SnaPEA"));
        assert!(tfe > get("Multi-CLP"));
    }

    #[test]
    fn measured_tfe_cells_near_paper() {
        let r = run(&Evaluator::new());
        for (net, paper) in PAPER_TFE {
            let e = r
                .entries
                .iter()
                .find(|e| e.network == net && e.method == "TFE (SCNN)")
                .unwrap();
            let rel = (e.overall_speedup - paper).abs() / paper;
            assert!(rel < 0.30, "{net}: {} vs {paper}", e.overall_speedup);
        }
    }
}
