//! Fig. 20 — off-chip memory access required by transferred filters vs
//! the original filters.

use crate::format::{ratio, Table};
use serde::Serialize;
use tfe_core::Evaluator;

/// One bar of Fig. 20.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OffchipPoint {
    /// Network.
    pub network: String,
    /// Scheme label.
    pub scheme: String,
    /// Off-chip access reduction over the dense layout.
    pub reduction: f64,
}

/// The figure's dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig20 {
    /// All bars, network-major.
    pub points: Vec<OffchipPoint>,
}

/// Paper reference bands per scheme on VGG/AlexNet/ResNet, and the
/// GoogLeNet band.
pub const PAPER_BANDS: [(&str, f64, f64); 3] = [
    ("DCNN4x4", 1.28, 1.38),
    ("DCNN6x6", 1.48, 1.59),
    ("SCNN", 1.48, 1.60),
];
/// GoogLeNet's band (all schemes).
pub const PAPER_GOOGLENET: (f64, f64) = (1.19, 1.24);

/// Runs the off-chip sweep over the mainstream networks.
#[must_use]
pub fn run(engine: &Evaluator) -> Fig20 {
    let mut points = Vec::new();
    for net in super::MAINSTREAM {
        for scheme in super::schemes() {
            let r = engine.run_network(net, scheme).expect("networks exist");
            points.push(OffchipPoint {
                network: net.to_owned(),
                scheme: scheme.label(),
                reduction: r.offchip_reduction,
            });
        }
    }
    Fig20 { points }
}

/// Renders the figure's bars.
#[must_use]
pub fn render(result: &Fig20) -> String {
    let mut table = Table::new(
        "Fig. 20: off-chip access reduction (transferred vs original filters)",
        &["network", "DCNN4x4", "DCNN6x6", "SCNN"],
    );
    for net in super::MAINSTREAM {
        let mut cells = vec![net.to_owned()];
        for scheme in super::schemes() {
            let v = result
                .points
                .iter()
                .find(|p| p.network == net && p.scheme == scheme.label())
                .map_or(0.0, |p| p.reduction);
            cells.push(ratio(v));
        }
        table.row(&cells);
    }
    let mut s = table.render();
    s.push_str(
        "\npaper bands: DCNN4x4 1.28-1.38x, DCNN6x6 1.48-1.59x, SCNN 1.48-1.60x; GoogLeNet 1.19-1.24x\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(r: &Fig20, net: &str, scheme: &str) -> f64 {
        r.points
            .iter()
            .find(|p| p.network == net && p.scheme == scheme)
            .unwrap()
            .reduction
    }

    #[test]
    fn reductions_in_paper_bands_for_dense_3x3_networks() {
        let r = run(&Evaluator::new());
        for net in ["VGGNet", "ResNet"] {
            for (scheme, lo, hi) in PAPER_BANDS {
                let v = point(&r, net, scheme);
                assert!(
                    (lo - 0.15..=hi + 0.15).contains(&v),
                    "{net}/{scheme}: {v} not near [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn googlenet_saves_least() {
        // "As there are many 1×1 filters in GoogLeNet … the corresponding
        // off-chip memory access cannot be saved."
        let r = run(&Evaluator::new());
        for scheme in ["DCNN6x6", "SCNN"] {
            let g = point(&r, "GoogLeNet", scheme);
            let v = point(&r, "VGGNet", scheme);
            assert!(g < v, "{scheme}: googlenet {g} vs vgg {v}");
            assert!(g > 1.0);
        }
    }

    #[test]
    fn higher_compression_gives_higher_savings() {
        let r = run(&Evaluator::new());
        for net in super::super::MAINSTREAM {
            assert!(
                point(&r, net, "DCNN6x6") >= point(&r, net, "DCNN4x4") - 1e-9,
                "{net}"
            );
        }
    }
}
