//! The paper's headline quantitative claims, checked end-to-end through
//! the public facade. Each test cites the claim it reproduces.

use tfe::core::{Evaluator, TransferScheme};
use tfe::transfer::analysis::ReuseConfig;

/// Abstract: "average speedup improvements of 2.93x and 3.17x are
/// achieved in the convolutional layers" (6x6 DCNN / SCNN, mainstream
/// networks). We require the measured averages to land within a band and
/// preserve the ordering.
#[test]
fn abstract_conv_speedup_averages() {
    let engine = Evaluator::new();
    let nets = ["AlexNet", "VGGNet", "GoogLeNet", "ResNet"];
    let avg = |scheme: TransferScheme| -> f64 {
        nets.iter()
            .map(|n| engine.run_network(n, scheme).unwrap().conv_speedup)
            .sum::<f64>()
            / nets.len() as f64
    };
    let d4 = avg(TransferScheme::DCNN4);
    let d6 = avg(TransferScheme::DCNN6);
    let scnn = avg(TransferScheme::Scnn);
    // Paper: 2.07x / 2.93x / 3.17x.
    assert!((1.6..2.6).contains(&d4), "DCNN4x4 avg {d4}");
    assert!((2.1..3.4).contains(&d6), "DCNN6x6 avg {d6}");
    assert!((2.6..3.7).contains(&scnn), "SCNN avg {scnn}");
    assert!(scnn > d6 && d6 > d4);
}

/// Conclusion: "1.99x (4x4 DCNN), 2.73x (6x6 DCNN) and 2.97x (SCNN)
/// overall speedups" — overall lags conv because FC layers do not
/// transfer.
#[test]
fn overall_speedup_lags_conv_speedup() {
    let engine = Evaluator::new();
    for net in ["AlexNet", "VGGNet", "GoogLeNet", "ResNet"] {
        for scheme in [
            TransferScheme::DCNN4,
            TransferScheme::DCNN6,
            TransferScheme::Scnn,
        ] {
            let r = engine.run_network(net, scheme).unwrap();
            assert!(
                r.overall_speedup <= r.conv_speedup + 1e-9,
                "{net}/{}",
                scheme.label()
            );
        }
    }
}

/// Section V.C.1: "the loss in speedup is very limited, less than 3%"
/// for non-AlexNet networks, "greater than 9.8%" for AlexNet.
#[test]
fn fc_dilution_is_worst_on_alexnet() {
    let engine = Evaluator::new();
    let dilution = |net: &str| -> f64 {
        let r = engine.run_network(net, TransferScheme::Scnn).unwrap();
        (r.conv_speedup - r.overall_speedup) / r.conv_speedup
    };
    let alex = dilution("AlexNet");
    assert!(alex > 0.08, "AlexNet dilution {alex}");
    for net in ["VGGNet", "GoogLeNet", "ResNet"] {
        let d = dilution(net);
        assert!(d < 0.04, "{net} dilution {d}");
        assert!(d < alex);
    }
}

/// Abstract: "overall energy efficiency can be improved by 12.66x and
/// 13.31x on average" (VGG + AlexNet).
#[test]
fn energy_efficiency_band() {
    let engine = Evaluator::new();
    let avg = |scheme: TransferScheme| -> f64 {
        ["VGGNet", "AlexNet"]
            .iter()
            .map(|n| engine.run_network(n, scheme).unwrap().energy_efficiency)
            .sum::<f64>()
            / 2.0
    };
    let d6 = avg(TransferScheme::DCNN6);
    let scnn = avg(TransferScheme::Scnn);
    assert!((8.0..18.0).contains(&d6), "DCNN6x6 EE {d6}");
    assert!((9.0..18.0).contains(&scnn), "SCNN EE {scnn}");
    assert!(scnn > d6, "SCNN ({scnn}) must beat DCNN6x6 ({d6})");
}

/// Section V.E / Fig. 19: PPSR and ERRR each contribute the same factor
/// for the DCNN, and only their combination reaches 4x for the SCNN.
#[test]
fn ablation_factors() {
    let vgg = |reuse, scheme| {
        Evaluator::with_reuse(reuse)
            .run_network("VGGNet", scheme)
            .unwrap()
            .conv_mac_reduction
    };
    let full = vgg(ReuseConfig::FULL, TransferScheme::Scnn);
    let ppsr = vgg(ReuseConfig::PPSR_ONLY, TransferScheme::Scnn);
    let errr = vgg(ReuseConfig::ERRR_ONLY, TransferScheme::Scnn);
    assert!((full - 4.0).abs() < 0.05, "full {full}");
    assert!((ppsr - 8.0 / 6.0).abs() < 0.02, "ppsr {ppsr}");
    assert!((errr - 8.0 / 6.0).abs() < 0.02, "errr {errr}");
}

/// Abstract: "the overall off-chip memory access can be reduced by 1.46x
/// (6x6 DCNN) and 1.48x (SCNN)".
#[test]
fn offchip_reduction_band() {
    let engine = Evaluator::new();
    let avg = |scheme: TransferScheme| -> f64 {
        ["AlexNet", "VGGNet", "GoogLeNet", "ResNet"]
            .iter()
            .map(|n| engine.run_network(n, scheme).unwrap().offchip_reduction)
            .sum::<f64>()
            / 4.0
    };
    let d6 = avg(TransferScheme::DCNN6);
    let scnn = avg(TransferScheme::Scnn);
    // AlexNet's weight-heavy conv stack pushes our average slightly above
    // the paper's 1.46x/1.48x; see EXPERIMENTS.md.
    assert!((1.25..1.85).contains(&d6), "DCNN6x6 offchip {d6}");
    assert!((1.25..1.85).contains(&scnn), "SCNN offchip {scnn}");
}

/// Fig. 17: "2.27x (4x4 DCNN) and 4.0x (6x6 DCNN and SCNN) [parameter]
/// reductions are achieved" on VGG.
#[test]
fn vgg_parameter_reductions() {
    let engine = Evaluator::new();
    let get = |scheme| {
        engine
            .run_network("VGGNet", scheme)
            .unwrap()
            .param_reduction
    };
    assert!((get(TransferScheme::DCNN4) - 2.25).abs() < 0.05);
    assert!((get(TransferScheme::DCNN6) - 4.0).abs() < 0.1);
    assert!((get(TransferScheme::Scnn) - 4.0).abs() < 0.1);
}

/// Section I: "the TFE is not beneficial to MobileNet" — running it
/// conventionally yields essentially no speedup under any scheme.
#[test]
fn mobilenet_gains_nothing() {
    use tfe::nets::zoo;
    let engine = Evaluator::new();
    let net = zoo::mobilenet();
    for scheme in [TransferScheme::DCNN6, TransferScheme::Scnn] {
        let r = engine.run(&net, scheme);
        assert!(
            (0.6..1.3).contains(&r.conv_speedup),
            "{}: {}",
            scheme.label(),
            r.conv_speedup
        );
        assert!(r.conv_mac_reduction < 1.05);
    }
}

/// Section I: the TFE does not help MobileNet-like depth-wise networks —
/// they resolve to an explicit dense (untransferred) policy and execute
/// from a per-group dense weight bank instead of being rejected.
#[test]
fn depthwise_resolves_to_dense_policy() {
    use tfe::tensor::shape::LayerShape;
    use tfe::transfer::layer::TransferredLayer;
    use tfe::transfer::Policy;
    let dw = LayerShape::depthwise("dw", 32, 16, 16, 3, 1, 1).unwrap();
    let policy = TransferScheme::Scnn.policy_for(&dw);
    assert!(matches!(policy, Policy::Dense { .. }));
    assert!(!policy.transfers());
    // The weight bank stores only each filter's own channel: [M, 1, K, K].
    let layer = TransferredLayer::random(&dw, TransferScheme::Scnn, || 0.0).unwrap();
    match layer {
        TransferredLayer::Dense { ref weights } => assert_eq!(weights.dims(), [32, 1, 3, 3]),
        ref other => panic!("expected dense fallback, got {other:?}"),
    }
    assert_eq!(layer.stored_params(), dw.params());
}
