//! Telemetry-subsystem integration tests: enabling the per-layer sink
//! on a compiled [`Engine`] must be invisible to the datapath —
//! activations and network-total counters stay bit-identical to an
//! uninstrumented run — while the per-layer cumulative totals decompose
//! the network totals *exactly* (no sampling error, no loss under ring
//! overflow) across every scheme, reuse ablation, and stride.

use proptest::prelude::*;
use tfe::sim::counters::Counters;
use tfe::sim::engine::{Engine, Scratch};
use tfe::sim::network::FunctionalNetwork;
use tfe::telemetry::{LayerSample, Sink, TelemetryRegistry, TelemetrySnapshot};
use tfe::tensor::fixed::Fx16;
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

const ALL_SCHEMES: [TransferScheme; 3] = [
    TransferScheme::DCNN4,
    TransferScheme::DCNN6,
    TransferScheme::Scnn,
];

const ALL_REUSE: [ReuseConfig; 4] = [
    ReuseConfig::NONE,
    ReuseConfig::PPSR_ONLY,
    ReuseConfig::ERRR_ONLY,
    ReuseConfig::FULL,
];

/// A small two-stage network (conv → conv+pool) compatible with every
/// scheme; `strided` swaps in a stride-2 first stage so the sweep also
/// covers the subsampled window path.
fn test_net(scheme: TransferScheme, strided: bool, seed: u32) -> FunctionalNetwork {
    let m = match scheme {
        TransferScheme::Dcnn { z: 6 } => 16,
        _ => 8,
    };
    let shapes = if strided {
        vec![
            (
                LayerShape::conv("t1", 3, m, 13, 13, 3, 2, 1).unwrap(),
                false,
            ),
            (LayerShape::conv("t2", m, m, 7, 7, 3, 1, 1).unwrap(), false),
        ]
    } else {
        vec![
            (
                LayerShape::conv("p1", 3, m, 12, 12, 3, 1, 1).unwrap(),
                false,
            ),
            (LayerShape::conv("p2", m, m, 12, 12, 3, 1, 1).unwrap(), true),
        ]
    };
    let mut s = seed;
    FunctionalNetwork::random(&shapes, scheme, || det(&mut s)).unwrap()
}

fn images(count: usize, side: usize, seed: u32) -> Vec<Tensor4<Fx16>> {
    let mut s = seed;
    (0..count)
        .map(|_| Tensor4::from_fn([1, 3, side, side], |_| Fx16::from_f32(det(&mut s))))
        .collect()
}

/// Enabling telemetry must not perturb the datapath: activations and
/// network-total counters are bit-identical to the uninstrumented
/// engine, and the registry shows one entry per compiled stage with the
/// stage's label and exact run count.
#[test]
fn enabled_telemetry_is_bit_identical_and_covers_every_stage() {
    for scheme in ALL_SCHEMES {
        let net = test_net(scheme, false, 71);
        let inputs = images(3, 12, 0x7e1e);

        let silent = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let mut loud = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        loud.enable_telemetry(64);
        assert!(!silent.sink().is_enabled());
        assert!(loud.sink().is_enabled());

        let mut scratch_a = Scratch::new();
        let mut scratch_b = Scratch::new();
        for input in &inputs {
            let a = silent.run(input, &mut scratch_a).unwrap();
            let b = loud.run(input, &mut scratch_b).unwrap();
            assert_eq!(
                a.activations, b.activations,
                "{scheme:?} telemetry changed activations"
            );
            assert_eq!(
                a.counters, b.counters,
                "{scheme:?} telemetry changed counters"
            );
        }

        assert_eq!(silent.telemetry().layers().len(), 0);
        let reg = loud.telemetry();
        assert_eq!(reg.layers().len(), loud.stage_count());
        assert_eq!(reg.recorded(), (inputs.len() * loud.stage_count()) as u64);
        assert_eq!(reg.dropped(), 0);
        for (idx, layer) in reg.layers().iter().enumerate() {
            assert_eq!(layer.layer, idx);
            assert_eq!(
                Some(layer.label.as_str()),
                loud.stage_shape(idx).map(|s| s.name()),
                "{scheme:?} layer label must match the compiled stage"
            );
            assert_eq!(layer.runs, inputs.len() as u64);
            assert_eq!(layer.window.total(), inputs.len() as u64);
        }
    }
}

/// A live snapshot survives the JSON wire format bit-exactly — the same
/// path the TCP stats request uses.
#[test]
fn live_snapshot_round_trips_through_json() {
    let net = test_net(TransferScheme::Scnn, false, 5);
    let mut engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    engine.enable_telemetry(16);
    let mut scratch = Scratch::new();
    for input in &images(2, 12, 0x1050) {
        engine.run(input, &mut scratch).unwrap();
    }
    let snap = engine.telemetry().snapshot();
    assert_eq!(snap.layers.len(), 2);
    let text = serde_json::to_string(&snap).unwrap();
    let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(back, snap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact-decomposition invariant: per-layer cumulative counters
    /// sum to the network-total counters from `Engine::run`, exactly,
    /// for every scheme × reuse ablation × stride — even with a ring
    /// small enough to overflow (cumulative totals are overflow-proof).
    #[test]
    fn per_layer_counters_sum_exactly_to_network_totals(
        scheme_idx in 0usize..3,
        reuse_idx in 0usize..4,
        strided in any::<bool>(),
        count in 1usize..4,
        seed in 0u32..500,
    ) {
        let scheme = ALL_SCHEMES[scheme_idx];
        let reuse = ALL_REUSE[reuse_idx];
        let net = test_net(scheme, strided, seed);
        let side = if strided { 13 } else { 12 };
        let inputs = images(count, side, seed ^ 0x7ab5);

        let mut engine = Engine::compile(&net, reuse).unwrap();
        // Capacity 2 with 2 stages per run: any count > 1 overflows the
        // ring, proving the totals don't depend on window survival.
        engine.enable_telemetry(2);
        let mut scratch = Scratch::new();
        let mut total = Counters::new();
        for input in &inputs {
            total.merge(&engine.run(input, &mut scratch).unwrap().counters);
        }

        let reg = engine.telemetry();
        prop_assert_eq!(reg.layers().len(), engine.stage_count());
        let mut layer_sum = Counters::new();
        for layer in reg.layers() {
            prop_assert_eq!(layer.runs, count as u64);
            layer_sum.merge(&layer.counters);
        }
        prop_assert_eq!(layer_sum, total);
        prop_assert_eq!(reg.total(), total);
        prop_assert_eq!(reg.recorded(), (count * engine.stage_count()) as u64);
        prop_assert_eq!(reg.dropped(), reg.recorded().saturating_sub(2));
    }
}

/// Builds one shard's worth of telemetry: a fresh sink with
/// `layer_count` layers (labeled `L0`, `L1`, … — identical per index
/// across every generated registry, the precondition for merge
/// commutativity), a small ring so drop accounting is exercised, and
/// `count` samples synthesized deterministically from `seed`.
fn shard_registry(layer_count: usize, ring: usize, count: usize, seed: u32) -> TelemetryRegistry {
    let labels = (0..layer_count).map(|i| format!("L{i}")).collect();
    let sink = Sink::enabled(labels, ring);
    let mut s = seed;
    let mut next = move |bound: u64| -> u64 {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        u64::from(s >> 8) % bound
    };
    for _ in 0..count {
        let multiplies = 1 + next(100);
        sink.record(&LayerSample {
            layer: next(layer_count as u64) as u32,
            wall_ns: 1 + next(20_000),
            images: 1,
            counters: Counters {
                multiplies,
                dense_macs: multiplies * 3,
                ..Counters::new()
            },
        });
    }
    TelemetryRegistry::collect(&sink)
}

fn merged(a: &TelemetryRegistry, b: &TelemetryRegistry) -> TelemetryRegistry {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `TelemetryRegistry::merge` is commutative and associative over
    /// registries collected from different sinks (shards), and the
    /// empty registry is its identity — so folding any number of shard
    /// registries into a fleet view gives one well-defined answer, in
    /// any fold order.
    #[test]
    fn merge_is_commutative_associative_with_identity(
        layers in prop::collection::vec(1usize..4, 3),
        rings in prop::collection::vec(1usize..6, 3),
        counts in prop::collection::vec(0usize..12, 3),
        seed in 0u32..100_000,
    ) {
        let a = shard_registry(layers[0], rings[0], counts[0], seed);
        let b = shard_registry(layers[1], rings[1], counts[1], seed ^ 0xb00b);
        let c = shard_registry(layers[2], rings[2], counts[2], seed ^ 0xcccc);
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
        let empty = TelemetryRegistry::default();
        prop_assert_eq!(merged(&a, &empty), a.clone());
        prop_assert_eq!(merged(&empty, &a), a);
    }

    /// Merging preserves every exact accounting dimension: per-layer
    /// runs/wall/counters add index-by-index, recorded and dropped
    /// sample counts sum, window populations sum, and the merged
    /// network total is exactly the sum of the inputs' totals.
    #[test]
    fn merge_preserves_exact_accounting(
        layers in prop::collection::vec(1usize..4, 2),
        rings in prop::collection::vec(1usize..6, 2),
        counts in prop::collection::vec(0usize..12, 2),
        seed in 0u32..100_000,
    ) {
        let a = shard_registry(layers[0], rings[0], counts[0], seed);
        let b = shard_registry(layers[1], rings[1], counts[1], seed ^ 0xfeed);
        let m = merged(&a, &b);

        prop_assert_eq!(m.recorded(), a.recorded() + b.recorded());
        prop_assert_eq!(m.dropped(), a.dropped() + b.dropped());

        let mut want_total = a.total();
        want_total.merge(&b.total());
        prop_assert_eq!(m.total(), want_total);

        // Layer-by-layer: every index present in either input appears
        // exactly once, with summed runs, wall time, counters, and
        // window populations.
        let find = |reg: &TelemetryRegistry, idx: usize| {
            reg.layers().iter().find(|l| l.layer == idx).cloned()
        };
        for layer in m.layers() {
            let la = find(&a, layer.layer);
            let lb = find(&b, layer.layer);
            prop_assert!(la.is_some() || lb.is_some());
            let runs = |l: &Option<tfe::telemetry::LayerStats>| {
                l.as_ref().map_or(0, |l| l.runs)
            };
            let wall = |l: &Option<tfe::telemetry::LayerStats>| {
                l.as_ref().map_or(0, |l| l.wall_ns)
            };
            let mults = |l: &Option<tfe::telemetry::LayerStats>| {
                l.as_ref().map_or(0, |l| l.counters.multiplies)
            };
            let window = |l: &Option<tfe::telemetry::LayerStats>| {
                l.as_ref().map_or(0, |l| l.window.total())
            };
            prop_assert_eq!(layer.runs, runs(&la) + runs(&lb));
            prop_assert_eq!(layer.wall_ns, wall(&la) + wall(&lb));
            prop_assert_eq!(layer.counters.multiplies, mults(&la) + mults(&lb));
            prop_assert_eq!(layer.window.total(), window(&la) + window(&lb));
        }
        let indices: Vec<usize> = m.layers().iter().map(|l| l.layer).collect();
        let mut dedup = indices.clone();
        dedup.dedup();
        prop_assert_eq!(indices, dedup);

        // And the exact-decomposition invariant survives the merge:
        // per-layer counters still sum to the merged total.
        let mut layer_sum = Counters::new();
        for layer in m.layers() {
            layer_sum.merge(&layer.counters);
        }
        prop_assert_eq!(layer_sum, m.total());
    }
}
