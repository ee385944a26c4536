//! Fig. 14 — area and power breakdown of the TFE.

use crate::format::{pct, Table};
use serde::Serialize;
use tfe_core::{Evaluator, TransferScheme};
use tfe_energy::{AreaModel, EnergyModel};
use tfe_sim::config::TfeConfig;
use tfe_sim::perf::NetworkPerf;

/// Paper Fig. 14 reference fractions (percent).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PaperBreakdown {
    /// (memory+registers, PE array, control) area percentages.
    pub area: (f64, f64, f64),
    /// (memory+registers, PE array, control) power percentages.
    pub power: (f64, f64, f64),
}

/// The paper's values.
pub const PAPER: PaperBreakdown = PaperBreakdown {
    area: (69.3, 16.5, 8.8),
    power: (75.0, 21.1, 1.2),
};

/// Modelled breakdown fractions in percent.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig14 {
    /// Area: (memory+registers, PE array, control).
    pub area_pct: (f64, f64, f64),
    /// Power: (memory+registers, PE array, static+control).
    pub power_pct: (f64, f64, f64),
    /// Absolute totals for context: (area mm², power mW).
    pub totals: (f64, f64),
}

/// Computes the breakdown on the paper's calibration workload (VGG +
/// AlexNet, SCNN).
#[must_use]
pub fn run(engine: &Evaluator) -> Fig14 {
    let area = AreaModel::new().breakdown(&TfeConfig::paper());
    let energy = EnergyModel::new();
    let mut mem = 0.0;
    let mut pe = 0.0;
    let mut stat = 0.0;
    let mut power = 0.0;
    for name in ["VGGNet", "AlexNet"] {
        let net = tfe_nets::zoo::by_name(name).expect("calibration networks exist");
        let perf: NetworkPerf = engine.tfe_perf(&net, TransferScheme::Scnn);
        let b = energy.breakdown(&perf.total_counters(), perf.runtime_seconds());
        mem += b.register_mj + b.sram_mj;
        pe += b.pe_mj;
        stat += b.static_mj;
        power += b.onchip_mj() / perf.runtime_seconds();
    }
    let onchip = mem + pe + stat;
    Fig14 {
        area_pct: (
            100.0 * area.memory_register_fraction(),
            100.0 * area.pe_fraction(),
            100.0 * area.control_fraction(),
        ),
        power_pct: (
            100.0 * mem / onchip,
            100.0 * pe / onchip,
            100.0 * stat / onchip,
        ),
        totals: (area.total_mm2(), power / 2.0),
    }
}

/// Renders both panels.
#[must_use]
pub fn render(result: &Fig14) -> String {
    let mut table = Table::new(
        "Fig. 14: TFE area and power breakdown (VGG+AlexNet, SCNN)",
        &["component", "area", "paper area", "power", "paper power"],
    );
    let rows = [
        (
            "memory + registers",
            result.area_pct.0,
            PAPER.area.0,
            result.power_pct.0,
            PAPER.power.0,
        ),
        (
            "PE array",
            result.area_pct.1,
            PAPER.area.1,
            result.power_pct.1,
            PAPER.power.1,
        ),
        (
            "control / static",
            result.area_pct.2,
            PAPER.area.2,
            result.power_pct.2,
            PAPER.power.2,
        ),
    ];
    for (name, a, pa, p, pp) in rows {
        table.row(&[name.to_owned(), pct(a), pct(pa), pct(p), pct(pp)]);
    }
    let mut s = table.render();
    s.push_str(&format!(
        "\ntotal: {:.2} mm^2, {:.1} mW average\n",
        result.totals.0, result.totals.1
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_dominates_both_breakdowns() {
        let r = run(&Evaluator::new());
        assert!(r.area_pct.0 > r.area_pct.1, "{:?}", r.area_pct);
        assert!(r.power_pct.0 > r.power_pct.1, "{:?}", r.power_pct);
    }

    #[test]
    fn fractions_near_paper_bands() {
        let r = run(&Evaluator::new());
        assert!((55.0..85.0).contains(&r.area_pct.0), "{:?}", r.area_pct);
        assert!((60.0..85.0).contains(&r.power_pct.0), "{:?}", r.power_pct);
        assert!((10.0..35.0).contains(&r.power_pct.1), "{:?}", r.power_pct);
    }

    #[test]
    fn percentages_sum_to_one_hundred() {
        let r = run(&Evaluator::new());
        let area_sum = r.area_pct.0 + r.area_pct.1 + r.area_pct.2;
        let power_sum = r.power_pct.0 + r.power_pct.1 + r.power_pct.2;
        assert!((area_sum - 100.0).abs() < 1e-6);
        assert!((power_sum - 100.0).abs() < 1e-6);
    }
}
