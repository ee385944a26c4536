//! Table V — CONV-layer / overall speedup on the three recent networks
//! (DenseNet, SqueezeNet, ResANet).

use crate::format::Table;
use serde::Serialize;
use tfe_core::Evaluator;

pub use super::fig15::{Fig15 as Table5, SpeedupPoint};

/// Paper Table V: (network, scheme, conv, overall).
pub const PAPER: [(&str, &str, f64, f64); 9] = [
    ("DenseNet", "DCNN4x4", 1.29, 1.24),
    ("DenseNet", "DCNN6x6", 1.38, 1.31),
    ("DenseNet", "SCNN", 1.39, 1.32),
    ("SqueezeNet", "DCNN4x4", 1.65, 1.62),
    ("SqueezeNet", "DCNN6x6", 2.30, 2.26),
    ("SqueezeNet", "SCNN", 2.32, 2.30),
    ("ResANet", "DCNN4x4", 1.48, 1.39),
    ("ResANet", "DCNN6x6", 2.54, 2.44),
    ("ResANet", "SCNN", 2.64, 2.55),
];

/// Runs the recent-network sweep.
#[must_use]
pub fn run(engine: &Evaluator) -> Table5 {
    super::fig15::run_over(engine, &super::RECENT)
}

/// One rendered row pairing measured and paper values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PairedRow {
    /// Network name.
    pub network: String,
    /// Scheme label.
    pub scheme: String,
    /// Measured conv / overall.
    pub measured: (f64, f64),
    /// Paper conv / overall.
    pub paper: (f64, f64),
}

/// Joins the measured sweep with the paper's cells.
#[must_use]
pub fn paired(result: &Table5) -> Vec<PairedRow> {
    PAPER
        .iter()
        .filter_map(|(net, scheme, pc, po)| {
            result
                .points
                .iter()
                .find(|p| p.network == *net && p.scheme == *scheme)
                .map(|p| PairedRow {
                    network: (*net).to_owned(),
                    scheme: (*scheme).to_owned(),
                    measured: (p.conv, p.overall),
                    paper: (*pc, *po),
                })
        })
        .collect()
}

/// Renders Table V with paper values alongside.
#[must_use]
pub fn render(result: &Table5) -> String {
    let mut table = Table::new(
        "Table V: CONV/overall speedup on recent networks",
        &[
            "network",
            "scheme",
            "conv",
            "overall",
            "paper conv",
            "paper overall",
        ],
    );
    for row in paired(result) {
        table.row(&[
            row.network,
            row.scheme,
            format!("{:.2}x", row.measured.0),
            format!("{:.2}x", row.measured.1),
            format!("{:.2}x", row.paper.0),
            format!("{:.2}x", row.paper.1),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_nine_cells() {
        let r = run(&Evaluator::new());
        assert_eq!(paired(&r).len(), 9);
    }

    #[test]
    fn densenet_is_the_weakest_scnn_case() {
        // Table V's key shape: DenseNet's 1x1-heavy profile caps its
        // speedup below the other recent networks.
        let r = run(&Evaluator::new());
        let scnn = |net: &str| {
            r.points
                .iter()
                .find(|p| p.network == net && p.scheme == "SCNN")
                .unwrap()
                .conv
        };
        assert!(scnn("DenseNet") < scnn("SqueezeNet"));
        assert!(scnn("DenseNet") < scnn("ResANet"));
    }

    #[test]
    fn overall_never_exceeds_conv() {
        let r = run(&Evaluator::new());
        for p in &r.points {
            assert!(p.overall <= p.conv + 1e-9, "{}/{}", p.network, p.scheme);
        }
    }

    #[test]
    fn measured_within_band_of_paper() {
        let r = run(&Evaluator::new());
        for row in paired(&r) {
            let rel = (row.measured.0 - row.paper.0).abs() / row.paper.0;
            assert!(
                rel < 0.45,
                "{} {}: {:.2} vs paper {:.2}",
                row.network,
                row.scheme,
                row.measured.0,
                row.paper.0
            );
        }
    }
}
