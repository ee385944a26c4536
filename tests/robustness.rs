//! Robustness and failure-injection tests: thread-safety of the public
//! types, saturation behaviour of the fixed-point datapath under extreme
//! inputs, compile rejections of weights that disagree with their
//! stage, and decoders fed arbitrary bytes.

use proptest::prelude::*;
use tfe::core::{Evaluator, NetworkReport};
use tfe::sim::functional::run_layer;
use tfe::tensor::fixed::{Accum, Fx16};
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::layer::TransferredLayer;
use tfe::transfer::TransferScheme;

/// Key public types are Send + Sync (C-SEND-SYNC): the engine and its
/// reports can be shared across threads for parallel sweeps.
#[test]
fn public_types_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Evaluator>();
    check::<NetworkReport>();
    check::<tfe::nets::Network>();
    check::<tfe::sim::perf::NetworkPerf>();
    check::<tfe::eyeriss::EyerissPerf>();
    check::<TransferredLayer>();
    check::<Fx16>();
    check::<Accum>();
    check::<tfe::tensor::TensorError>();
    check::<tfe::sim::SimError>();
    check::<tfe::transfer::TransferError>();
    check::<tfe::core::EvaluatorError>();
}

/// The engine can actually be driven from multiple threads.
#[test]
fn engine_runs_concurrently() {
    let engine = std::sync::Arc::new(Evaluator::new());
    let handles: Vec<_> = ["VGGNet", "ResNet", "GoogLeNet"]
        .into_iter()
        .map(|net| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine
                    .run_network(net, TransferScheme::Scnn)
                    .unwrap()
                    .conv_speedup
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap() > 1.0);
    }
}

/// Extreme (saturating) weights and inputs never panic the datapath, and
/// the TFE's saturating accumulators match the oracle's — saturation is
/// part of the golden semantics, not an afterthought.
#[test]
fn saturating_inputs_match_oracle() {
    use tfe::tensor::conv::conv2d_fx;
    let shape = LayerShape::conv("sat", 2, 8, 8, 8, 3, 1, 1).unwrap();
    // All-maximum weights and inputs overflow a 3x3x2 window's Q16.16 sum.
    let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || 127.0).unwrap();
    let input = Tensor4::filled([1, 2, 8, 8], Fx16::MAX);
    let got = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
    let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
    let oracle = conv2d_fx(&input, &dense, &shape).unwrap();
    assert_eq!(got.output, oracle);
}

/// Compiles a one-stage network of `weights` on `shape` and returns the
/// error compile reports.
fn compile_error(shape: &LayerShape, weights: TransferredLayer) -> tfe::sim::SimError {
    use tfe::sim::network::{FunctionalNetwork, FunctionalStage};
    let net = FunctionalNetwork::new(vec![FunctionalStage {
        shape: shape.clone(),
        weights,
        bias: Vec::new(),
        output: tfe::sim::output::OutputConfig::RELU_ONLY,
    }])
    .unwrap();
    tfe::sim::engine::Engine::compile(&net, ReuseConfig::FULL)
        .expect_err("weights that disagree with the stage must not compile")
}

/// Transferred weights whose blocks disagree with the stage are typed
/// compile errors, never a panic or a stage whose output differs from
/// the dense expansion: every lane of a stage is one block shape, so a
/// DCNN meta filter's `Z` must be the first's, a meta filter's or SCNN
/// orbit group's channels the stage's `N`, and an orbit group's extent
/// (or a DCNN layer's filter extent) the stage's `K`. The mixed-`Z`
/// layer expands to 13 dense filters, so only compile can catch it.
#[test]
fn transferred_blocks_that_disagree_with_the_stage_are_rejected() {
    use tfe::sim::SimError;
    use tfe::transfer::meta::MetaFilter;
    use tfe::transfer::scnn::ScnnGroup;
    let mismatch = |what, expected, actual| SimError::OperandMismatch {
        what,
        expected,
        actual,
    };
    let stage = |n, m, k| LayerShape::conv("bad", n, m, 6, 6, k, 1, k / 2).unwrap();
    let meta = |channels, z| MetaFilter::from_fn(channels, z, |c, y, x| (c + y + x) as f32 / 16.0);
    let group = |channels, k| ScnnGroup::from_base(channels, k, vec![0.25; channels * k * k]);
    let dcnn = |k, m, metas| TransferredLayer::Dcnn { k, m, metas };
    let mixed = dcnn(3, 13, vec![meta(2, 4), meta(2, 5)]);
    assert!(mixed.expand_to_dense().is_ok());
    assert_eq!(
        compile_error(&stage(2, 13, 3), mixed),
        mismatch("DCNN meta size", 4, 5)
    );
    assert_eq!(
        compile_error(&stage(2, 4, 3), dcnn(3, 4, vec![meta(1, 4)])),
        mismatch("DCNN meta channels", 2, 1)
    );
    assert_eq!(
        compile_error(&stage(2, 4, 3), dcnn(5, 4, vec![meta(2, 6)])),
        mismatch("DCNN filter extent", 3, 5)
    );
    let scnn = |groups| TransferredLayer::Scnn { m: 8, groups };
    assert_eq!(
        compile_error(&stage(2, 8, 3), scnn(vec![group(1, 3).unwrap()])),
        mismatch("SCNN group channels", 2, 1)
    );
    assert_eq!(
        compile_error(&stage(2, 8, 3), scnn(vec![group(2, 5).unwrap()])),
        mismatch("SCNN group extent", 3, 5)
    );
}

/// A 64-filter layer of `scheme` at 3×12×12 (`K = 3`, stride 1) storing
/// the first `groups` of the 24 DCNN4 meta groups or 12 SCNN orbit
/// groups a 96-filter layer draws.
fn grouped_layer(scheme: TransferScheme, groups: usize) -> (LayerShape, TransferredLayer) {
    let shape = LayerShape::conv("count", 3, 64, 12, 12, 3, 1, 1).unwrap();
    let wide = LayerShape::conv("count", 3, 96, 12, 12, 3, 1, 1).unwrap();
    let mut seed = 21u32;
    let layer = TransferredLayer::random(&wide, scheme, || {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        ((seed >> 16) as f32 / 65536.0) - 0.5
    })
    .unwrap();
    let layer = match layer {
        TransferredLayer::Dcnn { k, mut metas, .. } => {
            metas.truncate(groups);
            TransferredLayer::Dcnn { k, m: 64, metas }
        }
        TransferredLayer::Scnn {
            groups: mut orbits, ..
        } => {
            orbits.truncate(groups);
            TransferredLayer::Scnn {
                m: 64,
                groups: orbits,
            }
        }
        TransferredLayer::Dense { .. } => unreachable!("3x3 layers transfer"),
    };
    (shape, layer)
}

/// Transferred weights must yield at least the stage's filters, as
/// `expand_to_dense` requires: a 64-filter layer storing 8 of the 16
/// DCNN4 meta groups it needs, or 4 of the 8 SCNN orbit groups, is a
/// typed compile error (it used to compile and return 64 planes whose
/// last 32 were zero). Surplus groups (24 meta groups, 12 orbit groups)
/// compile and match `conv2d_fx` on the expanded weights.
#[test]
fn transferred_group_counts_must_cover_the_filters() {
    use tfe::sim::SimError;
    use tfe::tensor::conv::conv2d_fx;
    for (scheme, what, needed, surplus) in [
        (TransferScheme::DCNN4, "DCNN effective filters", 16, 24),
        (TransferScheme::Scnn, "SCNN effective filters", 8, 12),
    ] {
        let (shape, short) = grouped_layer(scheme, needed / 2);
        assert!(short.expand_to_dense().is_err(), "{what}");
        let expected = SimError::OperandMismatch {
            what,
            expected: 64,
            actual: 32,
        };
        assert_eq!(compile_error(&shape, short.clone()), expected);
        let input = Tensor4::from_fn([1, 3, 12, 12], |[_, c, y, x]| {
            Fx16::from_f32(((c * 7 + y * 3 + x) % 11) as f32 / 8.0 - 0.6)
        });
        assert_eq!(
            run_layer(&input, &short, &shape, ReuseConfig::FULL).unwrap_err(),
            expected
        );
        let (_, layer) = grouped_layer(scheme, surplus);
        let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
        let got = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
        assert_eq!(
            got.output,
            conv2d_fx(&input, &dense, &shape).unwrap(),
            "{what}"
        );
    }
}

/// A zero input produces a zero ofmap with zero-valued (but fully
/// counted) work — the clock-gating case.
#[test]
fn zero_input_produces_zero_output() {
    let shape = LayerShape::conv("z", 1, 8, 6, 6, 3, 1, 1).unwrap();
    let mut seed = 5u32;
    let layer = TransferredLayer::random(&shape, TransferScheme::DCNN4, || {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        ((seed >> 16) as f32 / 65536.0) - 0.5
    })
    .unwrap();
    let input = Tensor4::filled([1, 1, 6, 6], Fx16::ZERO);
    let out = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
    assert!(out.output.as_slice().iter().all(|&a| a == Accum::ZERO));
    assert!(
        out.counters.multiplies > 0,
        "broadcast still walks the rows"
    );
}

/// Degenerate geometry: a 1x1 ifmap with a 1x1 filter — the smallest
/// legal layer — round-trips every path.
#[test]
fn smallest_legal_layer() {
    let shape = LayerShape::conv("tiny", 1, 1, 1, 1, 1, 1, 0).unwrap();
    let weights = Tensor4::filled([1, 1, 1, 1], 0.5f32);
    let layer = TransferredLayer::Dense { weights };
    let input = Tensor4::filled([1, 1, 1, 1], Fx16::from_f32(2.0));
    let out = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
    assert_eq!(out.output.get([0, 0, 0, 0]).to_f32(), 1.0);
}

/// The wire requests the protocol fuzzer mutates: every request shape a
/// client sends, encoded as the client does.
fn valid_requests(seed: u64) -> Vec<Vec<u8>> {
    use tfe::serve::protocol::WireRequest;
    let mut state = seed;
    let input = Tensor4::from_fn([1, 3, 4, 4], |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Fx16::from_bits((state >> 48) as i16)
    });
    [
        WireRequest::Stats,
        WireRequest::Infer {
            input: input.clone(),
            deadline_ms: None,
            model_id: None,
        },
        WireRequest::Infer {
            input,
            deadline_ms: Some(seed % 1000),
            model_id: Some("demo".to_owned()),
        },
    ]
    .iter()
    .map(|request| request.to_json().into_bytes())
    .collect()
}

/// Every decoder over `bytes`: frames read back to back from an
/// in-memory stream until its end or the first error (each frame parsed
/// as a request and as a response), then the raw bytes parsed both
/// ways. A failure must be typed: an in-memory stream fails a frame
/// read only with `UnexpectedEof` or `InvalidData`, and a payload is
/// `Malformed`, never an I/O error. Returns the frames read.
fn decode_all(bytes: &[u8]) -> usize {
    use std::io::{Cursor, ErrorKind};
    use tfe::serve::protocol::{read_frame, ProtocolError, WireRequest, WireResponse};
    let parse = |payload: &[u8]| {
        let text = String::from_utf8_lossy(payload);
        if let Err(e) = WireRequest::from_json(&text) {
            assert!(matches!(e, ProtocolError::Malformed(_)), "request: {e}");
        }
        if let Err(e) = WireResponse::from_json(&text) {
            assert!(matches!(e, ProtocolError::Malformed(_)), "response: {e}");
        }
    };
    let mut reader = Cursor::new(bytes);
    let mut frames = 0;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => {
                frames += 1;
                parse(&frame);
            }
            Ok(None) => break,
            Err(e) => {
                assert!(
                    matches!(e.kind(), ErrorKind::UnexpectedEof | ErrorKind::InvalidData),
                    "frame read: {e}"
                );
                break;
            }
        }
    }
    parse(bytes);
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Protocol fuzzing: arbitrary bytes, and valid framed requests
    /// truncated, with one byte flipped, with arbitrary bytes inserted,
    /// or surrounded by arbitrary bytes, go through `read_frame` and both
    /// JSON decoders without a panic — every case decodes or is a typed
    /// error. The vendored proptest draws fixed-length vectors, so each
    /// case draws a length and takes a prefix.
    #[test]
    fn protocol_decoders_never_panic_on_arbitrary_bytes(
        noise in prop::collection::vec(any::<u8>(), 300),
        len in 0usize..300,
        which in 0usize..3,
        op in 0usize..5,
        at in any::<usize>(),
        mask in 1u8..255,
        seed in any::<u64>(),
    ) {
        use tfe::serve::protocol::write_frame;
        let noise = &noise[..len];
        decode_all(noise);
        let payload = &valid_requests(seed)[which];
        let mut frame = Vec::new();
        write_frame(&mut frame, payload).unwrap();
        let whole = frame.len();
        let mutated: Vec<u8> = match op {
            // Truncated anywhere, the length prefix included.
            0 => frame[..at % whole].to_vec(),
            1 => {
                frame[at % whole] ^= mask;
                frame
            }
            2 => {
                let at = at % (whole + 1);
                [&frame[..at], noise, &frame[at..]].concat()
            }
            3 => [noise, &frame].concat(),
            _ => [&frame, noise].concat(),
        };
        let frames = decode_all(&mutated);
        if op == 4 {
            // A valid frame first: the stream yields it before the noise.
            prop_assert!(frames >= 1);
        }
        // The untouched frame decodes to the request it encodes.
        let text = std::str::from_utf8(payload).unwrap();
        prop_assert!(tfe::serve::protocol::WireRequest::from_json(text).is_ok());
    }
}
