//! Deterministic miniature fleet models for demos, the load generator,
//! and the smoke tests.
//!
//! Value-level simulation of the zoo's full ImageNet-scale networks is
//! infeasible, so fleet demos shrink each [`tfe_nets`] network to a
//! two-stage miniature that keeps its signature filter extent: stage 1
//! convolves with the network's leading conv kernel size (clamped odd
//! into `[1, 5]`), stage 2 is the standard 3×3 + 2×2-pool tail every
//! serving demo uses. Grouped networks (the MobileNet family) instead
//! shrink to a depthwise-separable miniature — stem → depthwise →
//! pointwise — so the servable model exercises the engine's grouped
//! dense stages. Every miniature accepts the same
//! `[1, 3, 12, 12]` input geometry
//! ([`tfe_serve::demo::DEMO_INPUT_DIMS`]), so one
//! [`demo_images`](tfe_serve::demo::demo_images) pool drives mixed-model
//! traffic, while weights differ per model id — outputs distinguish the
//! models bit-exactly.

use crate::spec::{FleetSpec, ModelSpec};
use tfe_baselines::sparse_kernel::SparseFilterBank;
use tfe_nets::Network;
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::OutputConfig;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

fn id_hash(id: &str) -> u32 {
    id.bytes()
        .fold(5381u32, |h, b| h.wrapping_mul(33).wrapping_add(b.into()))
}

/// Shrinks a zoo network to a servable two-stage miniature: a 3→8
/// convolution with the network's leading filter extent, then the
/// standard 3×3 8→8 stage with 2×2 pooling. Deterministic in `seed`.
///
/// Networks built from grouped convolutions (the MobileNet family)
/// instead shrink to a [`separable_miniature`], preserving their
/// depthwise-separable structure in the servable model.
#[must_use]
pub fn miniature(net: &Network, seed: u32) -> FunctionalNetwork {
    if net.conv_layers().any(|l| l.shape().groups() > 1) {
        return separable_miniature(seed);
    }
    let k = net.conv_layers().next().map_or(3, |l| l.shape().k()).min(5) | 1; // clamp odd into [1, 5] so 12×12 stays 12×12 under pad k/2
    let sparsity = net.max_target_sparsity();
    if sparsity > 0.0 {
        return pruned_miniature(k, sparsity, seed);
    }
    let shapes = vec![
        (
            LayerShape::conv("mini1", 3, 8, 12, 12, k, 1, k / 2).expect("static miniature shape"),
            false,
        ),
        (
            LayerShape::conv("mini2", 8, 8, 12, 12, 3, 1, 1).expect("static miniature shape"),
            true,
        ),
    ];
    let mut state = seed;
    FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut state))
        .expect("static miniature network is well-formed")
}

/// The pruned miniature for `-p<percent>` zoo variants
/// ([`tfe_nets::Network::pruned`]): the same two-stage geometry as
/// [`miniature`], but the dense weight banks are magnitude-pruned to
/// `sparsity` through `tfe-baselines`'
/// [`SparseFilterBank::prune`] before being handed to the engine — so a
/// served pruned model actually compiles to the compressed-sparse
/// execution mode (`ExecMode::Sparse` past the default policy
/// threshold) and `tfe-loadgen --stats` shows it end to end.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]` (the typed
/// `TensorError::InvalidFraction` from the pruning kernel) — pruned zoo
/// names only produce fractions in `(0, 1)`.
#[must_use]
pub fn pruned_miniature(k: usize, sparsity: f64, seed: u32) -> FunctionalNetwork {
    let mut state = seed;
    let stages = [
        (
            LayerShape::conv("mini1", 3, 8, 12, 12, k, 1, k / 2).expect("static miniature shape"),
            OutputConfig::RELU_ONLY,
        ),
        (
            LayerShape::conv("mini2", 8, 8, 12, 12, 3, 1, 1).expect("static miniature shape"),
            OutputConfig::RELU_POOL2,
        ),
    ]
    .into_iter()
    .map(|(shape, output)| {
        let dims = [shape.m(), shape.n(), shape.k(), shape.k()];
        let dense = Tensor4::from_fn(dims, |_| det(&mut state));
        let pruned = SparseFilterBank::prune(&dense, sparsity)
            .expect("pruned zoo variants carry a valid sparsity fraction")
            .to_dense();
        FunctionalStage {
            shape,
            weights: TransferredLayer::Dense { weights: pruned },
            bias: Vec::new(),
            output,
        }
    })
    .collect();
    FunctionalNetwork::new(stages).expect("static pruned miniature network is well-formed")
}

/// The depthwise-separable miniature for grouped zoo networks: a 3→8
/// stem convolution, a depthwise 3×3 stage (`groups == channels`,
/// compiled to a grouped dense stage), and a 1×1 pointwise stage with
/// the standard 2×2 pool — one separable block on the shared
/// `[1, 3, 12, 12]` input contract. Deterministic in `seed`.
#[must_use]
pub fn separable_miniature(seed: u32) -> FunctionalNetwork {
    let shapes = vec![
        (
            LayerShape::conv("stem", 3, 8, 12, 12, 3, 1, 1).expect("static miniature shape"),
            false,
        ),
        (
            LayerShape::depthwise("dw", 8, 12, 12, 3, 1, 1).expect("static miniature shape"),
            false,
        ),
        (
            LayerShape::conv("pw", 8, 8, 12, 12, 1, 1, 0).expect("static miniature shape"),
            true,
        ),
    ];
    let mut state = seed;
    FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut state))
        .expect("static separable miniature network is well-formed")
}

/// Builds one demo model network by id: `"demo"` is the classic
/// [`tfe_serve::demo::demo_network`]; any [`tfe_nets::zoo`] name
/// resolves to its [`miniature`] with weights seeded from the id (so
/// different models produce different outputs). `None` for an id the
/// zoo does not know.
#[must_use]
pub fn demo_model(id: &str, seed: u32) -> Option<FunctionalNetwork> {
    if id == "demo" {
        return Some(tfe_serve::demo::demo_network(seed));
    }
    let net = tfe_nets::zoo::by_name(id)?;
    Some(miniature(&net, seed ^ id_hash(id)))
}

/// Builds a single-replica [`FleetSpec`] over demo models, in the given
/// id order (the first id becomes the default model). `None` when any
/// id is neither `"demo"` nor a zoo name.
#[must_use]
pub fn demo_fleet(ids: &[&str], seed: u32) -> Option<FleetSpec> {
    let models = ids
        .iter()
        .map(|id| Some(ModelSpec::new(*id, demo_model(id, seed)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(FleetSpec::new(models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_serve::demo::{demo_images, DEMO_INPUT_DIMS};
    use tfe_transfer::analysis::ReuseConfig;

    #[test]
    fn miniatures_accept_demo_inputs_and_differ_by_model() {
        let image = demo_images(1, 3).remove(0);
        assert_eq!(image.dims(), DEMO_INPUT_DIMS);
        let a = demo_model("alexnet", 7).unwrap();
        let b = demo_model("resnet56", 7).unwrap();
        let out_a = a.run(&image, ReuseConfig::FULL).unwrap();
        let out_b = b.run(&image, ReuseConfig::FULL).unwrap();
        // Different seeds per id → different weights → different outputs.
        assert_ne!(out_a.activations, out_b.activations);
        // And deterministic per id.
        let a2 = demo_model("alexnet", 7).unwrap();
        assert_eq!(
            a2.run(&image, ReuseConfig::FULL).unwrap().activations,
            out_a.activations
        );
    }

    #[test]
    fn leading_filter_extent_is_clamped_odd() {
        // AlexNet leads with k=11 → clamped to 5; GoogLeNet k=7 → 5;
        // ResNet k=3 stays 3. All must compile and run.
        for id in ["alexnet", "googlenet", "resnet56", "squeezenet"] {
            let net = demo_model(id, 1).unwrap();
            let k = net.stages()[0].shape.k();
            assert!(k % 2 == 1 && (1..=5).contains(&k), "{id}: k={k}");
        }
    }

    #[test]
    fn mobilenet_mini_serves_as_depthwise_separable_miniature() {
        let net = demo_model("mobilenet-mini", 9).unwrap();
        // Three stages: stem conv, depthwise (groups == channels), pointwise.
        assert_eq!(net.stages().len(), 3);
        let dw = &net.stages()[1].shape;
        assert_eq!(dw.groups(), dw.n());
        assert_eq!(net.stages()[2].shape.k(), 1);
        // Runs on the shared demo input contract.
        let image = demo_images(1, 11).remove(0);
        let out = net.run(&image, ReuseConfig::FULL).unwrap();
        let out2 = demo_model("mobilenet-mini", 9)
            .unwrap()
            .run(&image, ReuseConfig::FULL)
            .unwrap();
        assert_eq!(out.activations, out2.activations);
        // The full-size mobilenet resolves to the same separable shape
        // family, but different weights (different id hash).
        let full = demo_model("mobilenet", 9).unwrap();
        assert_eq!(full.stages().len(), 3);
        assert_ne!(
            full.run(&image, ReuseConfig::FULL).unwrap().activations,
            out.activations
        );
    }

    #[test]
    fn pruned_zoo_ids_serve_sparse_mode_end_to_end() {
        use tfe_transfer::mode::ExecMode;
        let net = demo_model("alexnet-p90", 3).unwrap();
        // Both miniature stages compile to the compressed-sparse mode
        // under the default policy (90% pruned ≫ the 0.8 threshold)…
        let engine = net.engine(ReuseConfig::FULL).unwrap();
        assert_eq!(engine.exec_modes(), vec![ExecMode::Sparse; 2]);
        // …and run bit-identically deterministic on the demo contract.
        let image = demo_images(1, 5).remove(0);
        let out = net.run(&image, ReuseConfig::FULL).unwrap();
        let again = demo_model("alexnet-p90", 3)
            .unwrap()
            .run(&image, ReuseConfig::FULL)
            .unwrap();
        assert_eq!(out.activations, again.activations);
        // The pruned variant differs from the unpruned miniature.
        let dense = demo_model("alexnet", 3).unwrap();
        assert_ne!(
            dense.run(&image, ReuseConfig::FULL).unwrap().activations,
            out.activations
        );
    }

    #[test]
    fn demo_fleet_rejects_unknown_ids() {
        assert!(demo_fleet(&["demo", "alexnet"], 1).is_some());
        assert!(demo_fleet(&["efficientnet"], 1).is_none());
    }
}
