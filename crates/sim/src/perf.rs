//! Per-layer and per-network performance model of the TFE.
//!
//! The model counts, for each planned layer, the multiplies the datapath
//! actually executes (after PPSR/ERRR), the PE-array utilization of its
//! mapping, and the cycles needed at that utilization — plus the memory
//! traffic the energy model consumes. Whole networks evaluate in
//! microseconds, and property tests pin the multiply counts to the
//! functional datapath on small layers.
//!
//! ## Cycle model
//!
//! ```text
//! cycles = multiplies / (PEs × utilization) × row_fill × overhead
//! ```
//!
//! * `utilization` — SAFM sub-array packing (conventional) or row packing
//!   (transferred); see [`crate::safm`].
//! * `row_fill` — the PPSR pipeline processes one padded input row of
//!   width `Wp` in `Wp + L − 1` cycles for weight-row length `L`
//!   (the stacked registers need `L − 1` cycles to fill; Fig. 6).
//! * `overhead` — a fixed factor (default 5 %) for memory-PP swaps,
//!   ERRR period turnover and pipeline drain between row batches.

use crate::config::TfeConfig;
use crate::counters::Counters;
use crate::memory;
use crate::safm;
use tfe_nets::{LayerPlan, NetworkPlan, TransferMode};
use tfe_transfer::analysis::ReuseConfig;

/// Configuration of the performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// The hardware configuration being modelled.
    pub hw: TfeConfig,
    /// Which reuse techniques are enabled (Fig. 19 ablation).
    pub reuse: ReuseConfig,
    /// Fixed pipeline/control overhead multiplier on cycles (≥ 1).
    pub pipeline_overhead: f64,
    /// Fraction of products that reach the SR group after cross-ifmap
    /// pre-addition (Section IV: pre-adding reduces register writes by
    /// 85.9 %, leaving 14.1 %).
    pub sr_write_fraction: f64,
    /// Off-chip traffic model parameters.
    pub offchip: memory::OffchipModel,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            hw: TfeConfig::paper(),
            reuse: ReuseConfig::FULL,
            pipeline_overhead: 1.05,
            sr_write_fraction: 1.0 - 0.859,
            offchip: memory::OffchipModel::default(),
        }
    }
}

impl PerfConfig {
    /// The default configuration with a different reuse setting.
    #[must_use]
    pub fn with_reuse(reuse: ReuseConfig) -> Self {
        PerfConfig {
            reuse,
            ..PerfConfig::default()
        }
    }
}

/// Performance result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    name: String,
    mode: TransferMode,
    is_fc: bool,
    utilization: f64,
    counters: Counters,
}

impl LayerPerf {
    /// Evaluates the model for one planned layer.
    #[must_use]
    pub fn evaluate(plan: &LayerPlan, cfg: &PerfConfig) -> LayerPerf {
        let layer = plan.layer();
        let shape = layer.shape();
        let (k, e, f) = (shape.k(), shape.e(), shape.f());
        let mode = plan.mode();

        let dense_macs = plan.dense_macs();
        let multiplies = plan.tfe_macs(cfg.reuse);
        let utilization = safm::utilization(&cfg.hw, mode, k);

        // Row-fill factor: padded row width vs pipeline length.
        let row_len = match mode {
            TransferMode::Conventional => k,
            TransferMode::Dcnn { z } => z,
            TransferMode::Scnn => k,
        };
        let padded_w = (shape.w() + 2 * shape.pad()) as f64;
        let row_fill = (padded_w + row_len.saturating_sub(1) as f64) / padded_w;

        let throughput = cfg.hw.pes() as f64 * utilization.max(f64::EPSILON);
        let cycles =
            (multiplies as f64 / throughput * row_fill * cfg.pipeline_overhead).ceil() as u64;

        let out_elems = (e * f) as u64 * shape.m() as u64;
        let sr_writes = (multiplies as f64 * cfg.sr_write_fraction).round() as u64;
        let stored = plan.stored_params();
        // One pass over the ifmap covers the filters resident in the SR
        // group (transferred) or the sub-array grid (conventional).
        let resident = match mode {
            TransferMode::Conventional => {
                let mapping = safm::SubArrayMapping::for_filter(k);
                let tiles = (cfg.hw.pe_rows / mapping.sub_extent.max(1))
                    * (cfg.hw.pe_cols / mapping.sub_extent.max(1));
                (tiles / mapping.sub_arrays_per_filter.max(1)).max(1)
            }
            _ => cfg.hw.sr_count(),
        };
        let passes = (shape.m() as u64).div_ceil(resident as u64);
        // Conv weights are staged through the 512 B weight register and
        // stay PE-resident within a pass; FC weights stream straight from
        // DRAM (counted in dram_bits), so they cost no weight-register
        // reads.
        let weight_reads = if layer.is_fc() { 0 } else { stored };
        let counters = Counters {
            dense_macs,
            multiplies,
            adds: multiplies + out_elems * k.saturating_sub(1) as u64,
            sr_reads: 2 * sr_writes,
            sr_writes,
            psum_mem_reads: out_elems * k as u64,
            psum_mem_writes: out_elems * k as u64,
            input_mem_reads: shape.ifmap_elems() * passes,
            weight_reads,
            dram_bits: memory::layer_dram_bits(plan, &cfg.offchip),
            cycles,
        };
        LayerPerf {
            name: shape.name().to_owned(),
            mode,
            is_fc: layer.is_fc(),
            utilization,
            counters,
        }
    }

    /// The layer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The execution mode the plan chose.
    #[must_use]
    pub fn mode(&self) -> TransferMode {
        self.mode
    }

    /// Whether this is a fully connected layer.
    #[must_use]
    pub fn is_fc(&self) -> bool {
        self.is_fc
    }

    /// PE-array utilization of the layer's mapping.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The counted events.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Cycles this layer occupies the array.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.counters.cycles
    }
}

/// Performance result for a whole network plan.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPerf {
    network_name: String,
    layers: Vec<LayerPerf>,
    frequency_hz: u64,
}

impl NetworkPerf {
    /// Evaluates every layer of a plan, in plan order. A whole network
    /// takes microseconds, less than one thread spawn, so the sweep is
    /// sequential.
    #[must_use]
    pub fn evaluate(plan: &NetworkPlan, cfg: &PerfConfig) -> NetworkPerf {
        NetworkPerf {
            network_name: plan.network_name().to_owned(),
            layers: plan
                .layers()
                .iter()
                .map(|l| LayerPerf::evaluate(l, cfg))
                .collect(),
            frequency_hz: cfg.hw.frequency_hz,
        }
    }

    /// Evaluates the analytic model against a compiled
    /// [`Engine`](crate::engine::Engine): the layer plans come from
    /// [`Engine::layer_plans`](crate::engine::Engine::layer_plans) (the
    /// modes each stage actually compiled to) and the reuse
    /// configuration is the one the engine was compiled with —
    /// `cfg.reuse` is overridden so the analytic counts describe the
    /// same machine the functional counters measure.
    #[must_use]
    pub fn of_engine(engine: &crate::engine::Engine, cfg: &PerfConfig) -> NetworkPerf {
        let cfg = PerfConfig {
            reuse: engine.reuse(),
            ..cfg.clone()
        };
        NetworkPerf {
            network_name: engine
                .stage_shape(0)
                .map_or_else(|| "engine".to_owned(), |s| s.name().to_owned()),
            layers: engine
                .layer_plans()
                .iter()
                .map(|l| LayerPerf::evaluate(l, &cfg))
                .collect(),
            frequency_hz: cfg.hw.frequency_hz,
        }
    }

    /// The network's name.
    #[must_use]
    pub fn network_name(&self) -> &str {
        &self.network_name
    }

    /// Per-layer results in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerPerf] {
        &self.layers
    }

    /// Total cycles across all layers.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerPerf::cycles).sum()
    }

    /// Cycles spent in convolutional layers.
    #[must_use]
    pub fn conv_cycles(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| !l.is_fc())
            .map(LayerPerf::cycles)
            .sum()
    }

    /// Cycles spent in fully connected layers.
    #[must_use]
    pub fn fc_cycles(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.is_fc())
            .map(LayerPerf::cycles)
            .sum()
    }

    /// Aggregated counters over all layers.
    #[must_use]
    pub fn total_counters(&self) -> Counters {
        self.layers.iter().map(|l| *l.counters()).sum()
    }

    /// Aggregated counters over the convolutional layers only.
    #[must_use]
    pub fn conv_counters(&self) -> Counters {
        self.layers
            .iter()
            .filter(|l| !l.is_fc())
            .map(|l| *l.counters())
            .sum()
    }

    /// MAC reduction over the convolutional layers (Fig. 19's metric).
    #[must_use]
    pub fn conv_mac_reduction(&self) -> f64 {
        self.conv_counters().mac_reduction()
    }

    /// Wall-clock runtime in seconds at the configured frequency.
    #[must_use]
    pub fn runtime_seconds(&self) -> f64 {
        self.total_cycles() as f64 / self.frequency_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_nets::zoo;
    use tfe_transfer::TransferScheme;

    #[test]
    fn vgg_scnn_mac_reduction_near_4x() {
        let perf = NetworkPerf::evaluate(
            &zoo::vgg16().plan(TransferScheme::Scnn),
            &PerfConfig::default(),
        );
        let red = perf.conv_mac_reduction();
        assert!(red > 3.9 && red <= 4.0, "got {red}");
    }

    #[test]
    fn fig19_ablation_on_vgg_dcnn() {
        let plan = zoo::vgg16().plan(TransferScheme::DCNN4);
        let full = NetworkPerf::evaluate(&plan, &PerfConfig::default()).conv_mac_reduction();
        let ppsr = NetworkPerf::evaluate(&plan, &PerfConfig::with_reuse(ReuseConfig::PPSR_ONLY))
            .conv_mac_reduction();
        let none = NetworkPerf::evaluate(&plan, &PerfConfig::with_reuse(ReuseConfig::NONE))
            .conv_mac_reduction();
        assert!((full - 2.25).abs() < 0.02, "full {full}");
        assert!((ppsr - 1.5).abs() < 0.02, "ppsr {ppsr}");
        assert!((none - 1.0).abs() < 1e-9, "none {none}");
    }

    #[test]
    fn cycles_scale_inversely_with_reduction() {
        let net = zoo::vgg16();
        let dense = NetworkPerf::evaluate(
            &net.plan(TransferScheme::Scnn),
            &PerfConfig::with_reuse(ReuseConfig::NONE),
        );
        let full = NetworkPerf::evaluate(&net.plan(TransferScheme::Scnn), &PerfConfig::default());
        let ratio = dense.conv_cycles() as f64 / full.conv_cycles() as f64;
        assert!(ratio > 3.5 && ratio < 4.2, "got {ratio}");
    }

    #[test]
    fn fc_layers_are_not_accelerated() {
        let net = zoo::alexnet();
        let dense = NetworkPerf::evaluate(
            &net.plan(TransferScheme::Scnn),
            &PerfConfig::with_reuse(ReuseConfig::NONE),
        );
        let full = NetworkPerf::evaluate(&net.plan(TransferScheme::Scnn), &PerfConfig::default());
        assert_eq!(dense.fc_cycles(), full.fc_cycles());
        assert!(full.conv_cycles() < dense.conv_cycles());
    }

    #[test]
    fn alexnet_overall_speedup_degrades_vs_conv_only() {
        // Section V.C.1: AlexNet's FC share makes overall speedup lag the
        // CONV-only speedup by more than 8 %.
        let net = zoo::alexnet();
        let base = NetworkPerf::evaluate(
            &net.plan(TransferScheme::Scnn),
            &PerfConfig::with_reuse(ReuseConfig::NONE),
        );
        let tfe = NetworkPerf::evaluate(&net.plan(TransferScheme::Scnn), &PerfConfig::default());
        let conv_speedup = base.conv_cycles() as f64 / tfe.conv_cycles() as f64;
        let overall_speedup = base.total_cycles() as f64 / tfe.total_cycles() as f64;
        assert!(overall_speedup < conv_speedup);
        assert!((conv_speedup - overall_speedup) / conv_speedup > 0.05);
    }

    #[test]
    fn utilization_recorded_per_mode() {
        let plan = zoo::vgg16().plan(TransferScheme::DCNN6);
        let perf = NetworkPerf::evaluate(&plan, &PerfConfig::default());
        let conv = perf.layers().iter().find(|l| !l.is_fc()).unwrap();
        assert!((conv.utilization() - 27.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn of_engine_matches_plan_evaluation_and_pins_reuse() {
        use crate::engine::Engine;
        use crate::network::FunctionalNetwork;
        use tfe_tensor::shape::LayerShape;

        let mut seed = 31u32;
        let mut det = move || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            (((seed >> 20) & 0xf) as f32 - 7.5) / 8.0
        };
        let shapes = vec![
            (LayerShape::conv("e1", 1, 8, 12, 12, 3, 1, 1).unwrap(), true),
            (LayerShape::conv("e2", 8, 8, 6, 6, 3, 1, 1).unwrap(), false),
        ];
        let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, &mut det).unwrap();
        let engine = Engine::compile(&net, ReuseConfig::PPSR_ONLY).unwrap();

        // cfg.reuse disagrees with the engine on purpose: of_engine must
        // model the machine the engine actually compiled for.
        let cfg = PerfConfig::with_reuse(ReuseConfig::FULL);
        let perf = NetworkPerf::of_engine(&engine, &cfg);
        assert_eq!(perf.layers().len(), 2);
        assert_eq!(perf.network_name(), "e1");

        let expected_cfg = PerfConfig::with_reuse(ReuseConfig::PPSR_ONLY);
        for (got, plan) in perf.layers().iter().zip(engine.layer_plans()) {
            let want = LayerPerf::evaluate(&plan, &expected_cfg);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn runtime_is_positive_and_finite() {
        let perf = NetworkPerf::evaluate(
            &zoo::resnet56().plan(TransferScheme::Scnn),
            &PerfConfig::default(),
        );
        let t = perf.runtime_seconds();
        assert!(t > 0.0 && t.is_finite());
    }
}
