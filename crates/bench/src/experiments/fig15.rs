//! Fig. 15 — CONV-layer and overall speedup over Eyeriss, per network and
//! scheme.

use crate::format::{ratio, Table};
use serde::Serialize;
use tfe_core::Evaluator;

/// One (network, scheme) speedup pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpeedupPoint {
    /// Network name.
    pub network: String,
    /// Scheme label.
    pub scheme: String,
    /// CONV-layer speedup over Eyeriss (Fig. 15(a)).
    pub conv: f64,
    /// Overall speedup over Eyeriss (Fig. 15(b)).
    pub overall: f64,
}

/// The full Fig. 15 dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig15 {
    /// All points, network-major, scheme-minor.
    pub points: Vec<SpeedupPoint>,
    /// Per-scheme average CONV speedups (the paper reports 2.07× /
    /// 2.93× / 3.17×).
    pub conv_averages: Vec<(String, f64)>,
    /// Per-scheme average overall speedups (paper: 1.99× / 2.73× /
    /// 2.97×).
    pub overall_averages: Vec<(String, f64)>,
}

/// Paper reference averages (scheme label, conv avg, overall avg).
pub const PAPER_AVERAGES: [(&str, f64, f64); 3] = [
    ("DCNN4x4", 2.07, 1.99),
    ("DCNN6x6", 2.93, 2.73),
    ("SCNN", 3.17, 2.97),
];

/// Runs the Fig. 15 sweep over the mainstream networks.
#[must_use]
pub fn run(engine: &Evaluator) -> Fig15 {
    run_over(engine, &super::MAINSTREAM)
}

/// Runs the sweep over an arbitrary network list (Table V reuses this),
/// network-major. Each cell is a closed-form evaluation, so the sweep
/// is sequential.
#[must_use]
pub fn run_over(engine: &Evaluator, networks: &[&str]) -> Fig15 {
    let points: Vec<SpeedupPoint> = networks
        .iter()
        .flat_map(|&net| super::schemes().map(|scheme| (net, scheme)))
        .map(|(net, scheme)| {
            let report = engine
                .run_network(net, scheme)
                .expect("sweep networks exist in the zoo");
            SpeedupPoint {
                network: net.to_owned(),
                scheme: scheme.label(),
                conv: report.conv_speedup,
                overall: report.overall_speedup,
            }
        })
        .collect();
    let averages = |pick: fn(&SpeedupPoint) -> f64| -> Vec<(String, f64)> {
        super::schemes()
            .iter()
            .map(|s| {
                let label = s.label();
                let values: Vec<f64> = points
                    .iter()
                    .filter(|p| p.scheme == label)
                    .map(pick)
                    .collect();
                (label, values.iter().sum::<f64>() / values.len() as f64)
            })
            .collect()
    };
    Fig15 {
        conv_averages: averages(|p| p.conv),
        overall_averages: averages(|p| p.overall),
        points,
    }
}

/// Renders both panels in the paper's layout.
#[must_use]
pub fn render(result: &Fig15) -> String {
    let mut out = String::new();
    for (title, pick, avgs) in [
        (
            "Fig. 15(a): CONV-layer speedup over Eyeriss",
            (|p: &SpeedupPoint| p.conv) as fn(&SpeedupPoint) -> f64,
            &result.conv_averages,
        ),
        (
            "Fig. 15(b): overall speedup over Eyeriss",
            |p: &SpeedupPoint| p.overall,
            &result.overall_averages,
        ),
    ] {
        let mut table = Table::new(title, &["network", "DCNN4x4", "DCNN6x6", "SCNN"]);
        let networks: Vec<&str> = {
            let mut seen = Vec::new();
            for p in &result.points {
                if !seen.contains(&p.network.as_str()) {
                    seen.push(p.network.as_str());
                }
            }
            seen
        };
        for net in networks {
            let mut cells = vec![net.to_owned()];
            for scheme in super::schemes() {
                let v = result
                    .points
                    .iter()
                    .find(|p| p.network == net && p.scheme == scheme.label())
                    .map_or(0.0, pick);
                cells.push(ratio(v));
            }
            table.row(&cells);
        }
        let mut avg_cells = vec!["average".to_owned()];
        for (_, v) in avgs {
            avg_cells.push(ratio(*v));
        }
        table.row(&avg_cells);
        let mut paper_cells = vec!["paper avg".to_owned()];
        for (_, conv, overall) in PAPER_AVERAGES {
            paper_cells.push(ratio(if title.contains("(a)") { conv } else { overall }));
        }
        table.row(&paper_cells);
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Convenience: run with a fresh default engine and render.
#[must_use]
pub fn report() -> String {
    render(&run(&Evaluator::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_networks_and_schemes() {
        let r = run(&Evaluator::new());
        assert_eq!(r.points.len(), 12);
        assert_eq!(r.conv_averages.len(), 3);
    }

    #[test]
    fn averages_preserve_paper_ordering() {
        let r = run(&Evaluator::new());
        let get = |label: &str| {
            r.conv_averages
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("SCNN") > get("DCNN6x6"));
        assert!(get("DCNN6x6") > get("DCNN4x4"));
    }

    #[test]
    fn vgg_and_resnet_outpace_alexnet_and_googlenet_at_dcnn() {
        // Fig. 15's per-network shape for the DCNN configurations.
        let r = run(&Evaluator::new());
        let conv = |net: &str, scheme: &str| {
            r.points
                .iter()
                .find(|p| p.network == net && p.scheme == scheme)
                .unwrap()
                .conv
        };
        for scheme in ["DCNN4x4", "DCNN6x6"] {
            assert!(
                conv("VGGNet", scheme) > conv("GoogLeNet", scheme),
                "{scheme}"
            );
            assert!(conv("ResNet", scheme) > conv("AlexNet", scheme), "{scheme}");
        }
    }

    #[test]
    fn render_contains_every_network_row() {
        let text = report();
        for net in super::super::MAINSTREAM {
            assert!(text.contains(net), "{net}");
        }
        assert!(text.contains("paper avg"));
    }
}
