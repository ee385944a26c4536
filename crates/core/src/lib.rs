//! The analytic evaluator: one call from network name + scheme to the
//! full set of paper metrics.
//!
//! [`Evaluator`] wires the subsystem crates together — plan construction
//! (`tfe-nets`), the TFE performance model (`tfe-sim`), the Eyeriss
//! baseline (`tfe-eyeriss`) and the energy model (`tfe-energy`) — and
//! produces a serializable [`NetworkReport`] carrying every number the
//! paper's figures plot for that (network, scheme) pair.
//!
//! # Example
//!
//! ```
//! use tfe_core::{Evaluator, TransferScheme};
//!
//! # fn main() -> Result<(), tfe_core::EvaluatorError> {
//! let evaluator = Evaluator::new();
//! let report = evaluator.run_network("VGGNet", TransferScheme::Scnn)?;
//! assert!(report.conv_speedup_vs_eyeriss() > 3.0);
//! assert!(report.param_reduction > 3.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;
use tfe_energy::power::{energy_efficiency_improvement, EYERISS_POWER_MW};
use tfe_energy::{AreaModel, EnergyModel};
use tfe_eyeriss::{EyerissConfig, EyerissPerf};
use tfe_nets::{zoo, Network};
use tfe_sim::memory;
use tfe_sim::perf::{NetworkPerf, PerfConfig};
use tfe_transfer::analysis::ReuseConfig;

pub use tfe_transfer::TransferScheme;

/// Error type of the evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvaluatorError {
    /// The requested network is not in the zoo.
    UnknownNetwork {
        /// The name that failed to resolve.
        name: String,
    },
}

impl fmt::Display for EvaluatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluatorError::UnknownNetwork { name } => {
                write!(f, "unknown network '{name}' (see tfe_nets::zoo::by_name)")
            }
        }
    }
}

impl std::error::Error for EvaluatorError {}

/// The full metric set for one (network, scheme) evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkReport {
    /// Network name.
    pub network: String,
    /// Transfer scheme label.
    pub scheme: String,
    /// Eyeriss cycles (conv layers, normalized PE count).
    pub eyeriss_conv_cycles: u64,
    /// Eyeriss cycles (all layers).
    pub eyeriss_total_cycles: u64,
    /// TFE cycles (conv layers).
    pub tfe_conv_cycles: u64,
    /// TFE cycles (all layers).
    pub tfe_total_cycles: u64,
    /// CONV-layer speedup over Eyeriss (Fig. 15(a)).
    pub conv_speedup: f64,
    /// Overall speedup over Eyeriss (Fig. 15(b)).
    pub overall_speedup: f64,
    /// Parameter reduction of the transferred conv layers (Figs. 16/17).
    pub param_reduction: f64,
    /// MAC reduction on conv layers with full reuse (Fig. 19).
    pub conv_mac_reduction: f64,
    /// Off-chip access reduction (Fig. 20).
    pub offchip_reduction: f64,
    /// Modelled TFE on-chip power on this network, mW.
    pub tfe_power_mw: f64,
    /// Energy-efficiency improvement over Eyeriss (Fig. 18).
    pub energy_efficiency: f64,
}

impl NetworkReport {
    /// CONV-layer speedup over Eyeriss (accessor form used in examples).
    #[must_use]
    pub fn conv_speedup_vs_eyeriss(&self) -> f64 {
        self.conv_speedup
    }
}

/// The analytic evaluator: the paper's performance, Eyeriss and energy models over a network plan.
#[derive(Debug, Clone, Default)]
pub struct Evaluator {
    perf_cfg: PerfConfig,
    eyeriss_cfg: EyerissConfig,
    energy: EnergyModel,
    area: AreaModel,
}

impl Evaluator {
    /// An evaluator with the paper's default configuration (full reuse).
    #[must_use]
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// An evaluator with a specific reuse configuration (Fig. 19 ablation).
    #[must_use]
    pub fn with_reuse(reuse: ReuseConfig) -> Self {
        Evaluator {
            perf_cfg: PerfConfig::with_reuse(reuse),
            ..Evaluator::default()
        }
    }

    /// The TFE performance-model configuration in force.
    #[must_use]
    pub fn perf_config(&self) -> &PerfConfig {
        &self.perf_cfg
    }

    /// The Eyeriss baseline configuration in force.
    #[must_use]
    pub fn eyeriss_config(&self) -> &EyerissConfig {
        &self.eyeriss_cfg
    }

    /// The energy model in force.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The area model in force.
    #[must_use]
    pub fn area_model(&self) -> &AreaModel {
        &self.area
    }

    /// Runs a zoo network by name.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluatorError::UnknownNetwork`] if the name does not
    /// resolve (see [`tfe_nets::zoo::by_name`] for accepted aliases).
    pub fn run_network(
        &self,
        name: &str,
        scheme: TransferScheme,
    ) -> Result<NetworkReport, EvaluatorError> {
        let network = zoo::by_name(name).ok_or_else(|| EvaluatorError::UnknownNetwork {
            name: name.to_owned(),
        })?;
        Ok(self.run(&network, scheme))
    }

    /// Runs an arbitrary network under a scheme.
    #[must_use]
    pub fn run(&self, network: &Network, scheme: TransferScheme) -> NetworkReport {
        let plan = network.plan(scheme);
        let tfe = NetworkPerf::evaluate(&plan, &self.perf_cfg);
        let eyeriss = EyerissPerf::evaluate(network, &self.eyeriss_cfg);
        let conv_speedup = eyeriss.conv_cycles() as f64 / tfe.conv_cycles().max(1) as f64;
        let overall_speedup = eyeriss.total_cycles() as f64 / tfe.total_cycles().max(1) as f64;
        let tfe_power_mw = self
            .energy
            .onchip_power_mw(&tfe.total_counters(), tfe.runtime_seconds());
        NetworkReport {
            network: network.name().to_owned(),
            scheme: scheme.label(),
            eyeriss_conv_cycles: eyeriss.conv_cycles(),
            eyeriss_total_cycles: eyeriss.total_cycles(),
            tfe_conv_cycles: tfe.conv_cycles(),
            tfe_total_cycles: tfe.total_cycles(),
            conv_speedup,
            overall_speedup,
            param_reduction: plan.conv_param_reduction(),
            conv_mac_reduction: tfe.conv_mac_reduction(),
            offchip_reduction: memory::offchip_reduction(&plan, &self.perf_cfg.offchip),
            tfe_power_mw,
            energy_efficiency: energy_efficiency_improvement(
                overall_speedup,
                tfe_power_mw,
                EYERISS_POWER_MW,
            ),
        }
    }

    /// Runs every zoo benchmark network under every scheme — the full
    /// evaluation sweep, ready for serialization.
    #[must_use]
    pub fn run_all(&self) -> Vec<NetworkReport> {
        let mut reports = Vec::new();
        for network in zoo::all() {
            for scheme in [
                TransferScheme::DCNN4,
                TransferScheme::DCNN6,
                TransferScheme::Scnn,
            ] {
                reports.push(self.run(&network, scheme));
            }
        }
        reports
    }

    /// The TFE per-layer performance result for a network and scheme
    /// (exposing intermediate results, C-INTERMEDIATE).
    #[must_use]
    pub fn tfe_perf(&self, network: &Network, scheme: TransferScheme) -> NetworkPerf {
        NetworkPerf::evaluate(&network.plan(scheme), &self.perf_cfg)
    }

    /// The Eyeriss per-layer performance result for a network.
    #[must_use]
    pub fn eyeriss_perf(&self, network: &Network) -> EyerissPerf {
        EyerissPerf::evaluate(network, &self.eyeriss_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_network_is_an_error() {
        let engine = Evaluator::new();
        let err = engine
            .run_network("EfficientNet", TransferScheme::Scnn)
            .unwrap_err();
        assert!(matches!(err, EvaluatorError::UnknownNetwork { .. }));
        assert!(err.to_string().contains("EfficientNet"));
    }

    #[test]
    fn vgg_scnn_report_matches_paper_shape() {
        let engine = Evaluator::new();
        let r = engine.run_network("VGGNet", TransferScheme::Scnn).unwrap();
        // Paper: conv 3.45x, overall 3.2-3.4x, params 4x, EE ~13x.
        assert!(
            (3.0..3.8).contains(&r.conv_speedup),
            "conv {}",
            r.conv_speedup
        );
        assert!(r.overall_speedup < r.conv_speedup);
        assert!(
            (3.8..=4.0).contains(&r.param_reduction),
            "params {}",
            r.param_reduction
        );
        assert!(
            (10.0..18.0).contains(&r.energy_efficiency),
            "ee {}",
            r.energy_efficiency
        );
    }

    #[test]
    fn scheme_ordering_holds_on_average() {
        // Paper averages: SCNN > DCNN6x6 > DCNN4x4 for conv speedup.
        let engine = Evaluator::new();
        let avg = |scheme: TransferScheme| -> f64 {
            let nets = ["AlexNet", "VGGNet", "GoogLeNet", "ResNet"];
            nets.iter()
                .map(|n| engine.run_network(n, scheme).unwrap().conv_speedup)
                .sum::<f64>()
                / nets.len() as f64
        };
        let d4 = avg(TransferScheme::DCNN4);
        let d6 = avg(TransferScheme::DCNN6);
        let scnn = avg(TransferScheme::Scnn);
        assert!(scnn > d6 && d6 > d4, "{d4} {d6} {scnn}");
    }

    #[test]
    fn ablation_engine_reduces_less() {
        let full = Evaluator::new();
        let ppsr = Evaluator::with_reuse(ReuseConfig::PPSR_ONLY);
        let rf = full.run_network("VGGNet", TransferScheme::DCNN6).unwrap();
        let rp = ppsr.run_network("VGGNet", TransferScheme::DCNN6).unwrap();
        assert!(rf.conv_mac_reduction > rp.conv_mac_reduction);
        assert!((rp.conv_mac_reduction - 2.0).abs() < 0.05);
    }

    #[test]
    fn run_all_covers_the_sweep() {
        let reports = Evaluator::new().run_all();
        assert_eq!(reports.len(), 7 * 3);
        assert!(reports.iter().all(|r| r.conv_speedup > 0.9));
    }

    #[test]
    fn report_serializes_to_json() {
        let engine = Evaluator::new();
        let r = engine.run_network("ResNet", TransferScheme::DCNN4).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"network\":\"ResNet\""));
        assert!(json.contains("conv_speedup"));
        // Round trip: external tooling can load reports back.
        let back: NetworkReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn accessors_expose_subsystems() {
        let engine = Evaluator::new();
        assert_eq!(engine.eyeriss_config().normalized_pes, 256);
        assert_eq!(engine.perf_config().hw.pes(), 256);
        let net = zoo::resnet56();
        let perf = engine.tfe_perf(&net, TransferScheme::Scnn);
        assert!(!perf.layers().is_empty());
        let ey = engine.eyeriss_perf(&net);
        assert_eq!(ey.layers().len(), net.layers().len());
    }
}
