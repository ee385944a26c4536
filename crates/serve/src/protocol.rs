//! The serving wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian payload length followed by one
//! UTF-8 JSON object carrying a `"kind"` discriminator. Activations
//! travel as raw Q8.8 bit patterns (`i16` per sample), so a response is
//! bit-identical to the in-process result — JSON float formatting never
//! touches the data path.
//!
//! Requests: `infer` (dims + bits + optional relative `deadline_ms` +
//! optional `model` id) and `stats`. Responses: `ok` (dims + bits +
//! per-request counters + latency), `rejected` (a stable reason string
//! from [`Rejected::reason`](crate::service::Rejected::reason)), `stats`
//! (a [`MetricsSnapshot`] plus a per-layer [`TelemetrySnapshot`], and —
//! from a fleet endpoint — a per-model [`ModelStats`] list), and
//! `error` (malformed request).
//!
//! **Version 2** ([`PROTOCOL_VERSION`]) added multi-model serving:
//! `infer` frames may carry a `model` field naming which model of a
//! fleet endpoint should run the request, and `stats` responses may
//! carry a `models` array with per-model routing/latency/telemetry
//! breakdowns. Both fields are strictly optional and omitted when
//! absent, so version-1 single-model clients and servers interoperate
//! unchanged: a request without `model` runs the endpoint's default
//! model, and a version-1 parser never sees a field it does not know.
//! A fleet endpoint answers a `model` id it does not serve with the
//! typed `unknown_model` rejection reason.
//!
//! Everything rides the vendored `serde`/`serde_json` facades — the
//! protocol adds no network or serialization dependencies.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::io::{self, Read, Write};
use tfe_sim::counters::Counters;
use tfe_telemetry::TelemetrySnapshot;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;

/// Wire-protocol version implemented by this build. Version 2 added the
/// optional `model` request field and the optional `models` stats
/// response field (multi-model fleet serving); both are
/// backward-compatible extensions of version 1.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on one frame's payload (guards against hostile or
/// corrupt length prefixes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Most bytes a frame read reserves before its payload arrives; the
/// buffer grows with the bytes actually received beyond that.
const FRAME_PREALLOC_BYTES: usize = 64 << 10;

/// Protocol-level failure: transport or message shape.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The payload was not a well-formed protocol message.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<serde_json::Error> for ProtocolError {
    fn from(e: serde_json::Error) -> Self {
        ProtocolError::Malformed(e.to_string())
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates stream errors; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let len = u32::try_from(payload.len()).expect("bounded by MAX_FRAME_BYTES");
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Propagates stream errors; rejects oversized length prefixes and EOF
/// inside a frame.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        return match reader.read(&mut first) {
            Ok(0) => Ok(None),
            Ok(_) => read_frame_after(first[0], reader).map(Some),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Err(e),
        };
    }
}

/// Completes a frame whose first length byte was already consumed (the
/// polled TCP accept path reads one byte with a timeout, then finishes
/// the frame without losing it).
///
/// The payload buffer grows with the bytes that arrive, so a declared
/// length reserves at most 64 KiB until its payload shows up.
///
/// # Errors
///
/// Propagates stream errors; rejects oversized length prefixes, and
/// returns [`io::ErrorKind::UnexpectedEof`] when the stream ends inside
/// the payload.
pub fn read_frame_after(first: u8, reader: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut rest = [0u8; 3];
    reader.read_exact(&mut rest)?;
    let len = u32::from_be_bytes([first, rest[0], rest[1], rest[2]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_BYTES",
        ));
    }
    let mut payload = Vec::with_capacity(len.min(FRAME_PREALLOC_BYTES));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame",
        ));
    }
    Ok(payload)
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Run one `[1, C, H, W]` image.
    Infer {
        /// The input image.
        input: Tensor4<Fx16>,
        /// Optional deadline relative to server receipt, milliseconds.
        deadline_ms: Option<u64>,
        /// Optional model id (protocol v2). `None` runs the endpoint's
        /// default model — exactly what a v1 client gets; a fleet
        /// endpoint routes `Some(id)` to that model's shard and rejects
        /// unserved ids with the `unknown_model` reason.
        model_id: Option<String>,
    },
    /// Fetch a metrics snapshot.
    Stats,
}

/// One model's row in a fleet `stats` response (protocol v2): routing
/// accounting, merged request-latency quantiles across that model's
/// replicas (live and retired generations), and the model's merged
/// per-layer [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// The model id requests route by.
    pub model: String,
    /// Live replica services in the model's shard.
    pub replicas: u64,
    /// Completed zero-downtime engine hot-swaps on this shard.
    pub swaps: u64,
    /// Requests the router dispatched to this shard.
    pub dispatched: u64,
    /// Requests shed by this shard's admission queues (queue-full).
    pub shed: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests dropped after their deadline expired.
    pub expired: u64,
    /// Requests failed by a simulator error.
    pub failed: u64,
    /// Micro-batches executed across the shard's replicas.
    pub batches: u64,
    /// Requests that rode those batches.
    pub batched_requests: u64,
    /// Median request latency upper bound, microseconds (merged across
    /// replicas).
    pub p50_us: u64,
    /// 95th-percentile request latency upper bound, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency upper bound, microseconds.
    pub p99_us: u64,
    /// Exact maximum request latency, microseconds.
    pub max_us: u64,
    /// Per-layer telemetry merged across the shard's engine generations
    /// (live + every hot-swapped-out predecessor).
    pub telemetry: TelemetrySnapshot,
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// Successful inference.
    Ok {
        /// Output activations (bit-identical to the in-process result).
        activations: Tensor4<Fx16>,
        /// This request's simulator counters.
        counters: Counters,
        /// Admission-to-completion latency, microseconds.
        latency_us: u64,
    },
    /// The request was refused or dropped.
    Rejected {
        /// Stable reason identifier (`queue_full`, `deadline_exceeded`,
        /// `shutting_down`, `sim_error`).
        reason: String,
    },
    /// Metrics + per-layer telemetry snapshot.
    Stats {
        /// The request-level metrics snapshot at receipt time.
        metrics: MetricsSnapshot,
        /// The per-layer telemetry snapshot at receipt time (one entry
        /// per compiled stage; a fleet endpoint reports fleet-wide
        /// totals here and the per-model layer views in `models`).
        telemetry: TelemetrySnapshot,
        /// Per-model breakdown (protocol v2). `None` from a single-model
        /// endpoint — the field is omitted from the frame entirely, so
        /// v1 clients parse the response unchanged.
        models: Option<Vec<ModelStats>>,
    },
    /// The request could not be understood.
    Error {
        /// Human-readable diagnosis.
        message: String,
    },
}

fn tensor_to_fields(t: &Tensor4<Fx16>) -> (Value, Value) {
    let dims = Value::Array(t.dims().iter().map(|&d| Value::U64(d as u64)).collect());
    let bits = Value::Array(
        t.as_slice()
            .iter()
            .map(|fx| Value::I64(i64::from(fx.to_bits())))
            .collect(),
    );
    (dims, bits)
}

fn tensor_from_fields(value: &Value) -> Result<Tensor4<Fx16>, ProtocolError> {
    let dims: Vec<u64> = field(value, "dims")?;
    let bits: Vec<i16> = field(value, "bits")?;
    let dims: [usize; 4] = dims
        .iter()
        .map(|&d| usize::try_from(d).map_err(|_| malformed("dimension out of range")))
        .collect::<Result<Vec<_>, _>>()?
        .try_into()
        .map_err(|_| malformed("dims must have exactly 4 entries"))?;
    let samples: Vec<Fx16> = bits.into_iter().map(Fx16::from_bits).collect();
    Tensor4::from_vec(dims, samples).map_err(|e| malformed(format!("tensor shape mismatch: {e}")))
}

fn malformed(message: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(message.into())
}

fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, ProtocolError> {
    let inner = value
        .get_field(name)
        .ok_or_else(|| malformed(format!("missing field '{name}'")))?;
    T::from_value(inner).map_err(|e| malformed(format!("field '{name}': {e}")))
}

fn kind_of(value: &Value) -> Result<String, ProtocolError> {
    field(value, "kind")
}

impl WireRequest {
    /// Renders the request as one JSON payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let value = match self {
            WireRequest::Infer {
                input,
                deadline_ms,
                model_id,
            } => {
                let (dims, bits) = tensor_to_fields(input);
                let mut fields = vec![
                    ("kind".to_owned(), Value::Str("infer".to_owned())),
                    ("dims".to_owned(), dims),
                    ("bits".to_owned(), bits),
                ];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_owned(), Value::U64(*ms)));
                }
                if let Some(model) = model_id {
                    fields.push(("model".to_owned(), Value::Str(model.clone())));
                }
                Value::Object(fields)
            }
            WireRequest::Stats => {
                Value::Object(vec![("kind".to_owned(), Value::Str("stats".to_owned()))])
            }
        };
        serde_json::to_string(&value).expect("facade rendering is infallible")
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] for bad JSON, an unknown kind, or a
    /// shape mismatch.
    pub fn from_json(text: &str) -> Result<WireRequest, ProtocolError> {
        let value: Value = serde_json::from_str(text)?;
        match kind_of(&value)?.as_str() {
            "infer" => Ok(WireRequest::Infer {
                input: tensor_from_fields(&value)?,
                deadline_ms: match value.get_field("deadline_ms") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        u64::from_value(v)
                            .map_err(|e| malformed(format!("field 'deadline_ms': {e}")))?,
                    ),
                },
                model_id: match value.get_field("model") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        String::from_value(v)
                            .map_err(|e| malformed(format!("field 'model': {e}")))?,
                    ),
                },
            }),
            "stats" => Ok(WireRequest::Stats),
            other => Err(malformed(format!("unknown request kind '{other}'"))),
        }
    }
}

impl WireResponse {
    /// Renders the response as one JSON payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let value = match self {
            WireResponse::Ok {
                activations,
                counters,
                latency_us,
            } => {
                let (dims, bits) = tensor_to_fields(activations);
                Value::Object(vec![
                    ("kind".to_owned(), Value::Str("ok".to_owned())),
                    ("dims".to_owned(), dims),
                    ("bits".to_owned(), bits),
                    ("counters".to_owned(), counters.to_value()),
                    ("latency_us".to_owned(), Value::U64(*latency_us)),
                ])
            }
            WireResponse::Rejected { reason } => Value::Object(vec![
                ("kind".to_owned(), Value::Str("rejected".to_owned())),
                ("reason".to_owned(), Value::Str(reason.clone())),
            ]),
            WireResponse::Stats {
                metrics,
                telemetry,
                models,
            } => {
                let mut fields = vec![
                    ("kind".to_owned(), Value::Str("stats".to_owned())),
                    ("metrics".to_owned(), metrics.to_value()),
                    ("telemetry".to_owned(), telemetry.to_value()),
                ];
                if let Some(models) = models {
                    fields.push(("models".to_owned(), models.to_value()));
                }
                Value::Object(fields)
            }
            WireResponse::Error { message } => Value::Object(vec![
                ("kind".to_owned(), Value::Str("error".to_owned())),
                ("message".to_owned(), Value::Str(message.clone())),
            ]),
        };
        serde_json::to_string(&value).expect("facade rendering is infallible")
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] for bad JSON, an unknown kind, or a
    /// shape mismatch.
    pub fn from_json(text: &str) -> Result<WireResponse, ProtocolError> {
        let value: Value = serde_json::from_str(text)?;
        match kind_of(&value)?.as_str() {
            "ok" => Ok(WireResponse::Ok {
                activations: tensor_from_fields(&value)?,
                counters: field(&value, "counters")?,
                latency_us: field(&value, "latency_us")?,
            }),
            "rejected" => Ok(WireResponse::Rejected {
                reason: field(&value, "reason")?,
            }),
            "stats" => Ok(WireResponse::Stats {
                metrics: field(&value, "metrics")?,
                telemetry: field(&value, "telemetry")?,
                models: match value.get_field("models") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        Vec::<ModelStats>::from_value(v)
                            .map_err(|e| malformed(format!("field 'models': {e}")))?,
                    ),
                },
            }),
            "error" => Ok(WireResponse::Error {
                message: field(&value, "message")?,
            }),
            other => Err(malformed(format!("unknown response kind '{other}'"))),
        }
    }
}

/// Blocking request/response round-trip over any byte stream (the
/// client side of the protocol — used by the smoke tests and any
/// external caller).
///
/// # Errors
///
/// Transport failures or a malformed / truncated response.
pub fn roundtrip<S: Read + Write>(
    stream: &mut S,
    request: &WireRequest,
) -> Result<WireResponse, ProtocolError> {
    write_frame(stream, request.to_json().as_bytes())?;
    let frame =
        read_frame(stream)?.ok_or_else(|| malformed("connection closed before the response"))?;
    let text = std::str::from_utf8(&frame).map_err(|_| malformed("response is not UTF-8"))?;
    WireResponse::from_json(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn demo_tensor() -> Tensor4<Fx16> {
        Tensor4::from_fn([1, 2, 3, 3], |[_, c, y, x]| {
            Fx16::from_bits((c as i16 * 100 + y as i16 * 10 + x as i16) - 55)
        })
    }

    #[test]
    fn infer_request_round_trips_bit_exactly() {
        let request = WireRequest::Infer {
            input: demo_tensor(),
            deadline_ms: Some(250),
            model_id: None,
        };
        let back = WireRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn infer_request_round_trips_a_model_id() {
        let request = WireRequest::Infer {
            input: demo_tensor(),
            deadline_ms: None,
            model_id: Some("alexnet".to_owned()),
        };
        let text = request.to_json();
        assert!(text.contains("\"model\""));
        let back = WireRequest::from_json(&text).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn v1_infer_frame_without_model_still_parses() {
        // A version-1 client never sends `model`; it must parse as the
        // default-model request.
        let text = r#"{"kind":"infer","dims":[1,1,1,2],"bits":[3,-4]}"#;
        match WireRequest::from_json(text).unwrap() {
            WireRequest::Infer {
                deadline_ms,
                model_id,
                ..
            } => {
                assert_eq!(deadline_ms, None);
                assert_eq!(model_id, None);
            }
            other => panic!("expected infer, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_dims_are_malformed_in_both_parsers() {
        // 2^32 · 2^32 overflows a 64-bit usize: unchecked, the element
        // count panics in debug builds and wraps to an empty tensor in
        // release builds.
        let dims = "[1,4294967296,4294967296,1]";
        let request = format!(r#"{{"kind":"infer","dims":{dims},"bits":[]}}"#);
        assert!(matches!(
            WireRequest::from_json(&request),
            Err(ProtocolError::Malformed(_))
        ));
        let response = WireResponse::Ok {
            activations: Tensor4::from_vec([1, 0, 0, 1], Vec::new()).unwrap(),
            counters: Counters::new(),
            latency_us: 0,
        }
        .to_json()
        .replace("[1,0,0,1]", dims);
        assert!(response.contains(dims), "{response}");
        assert!(matches!(
            WireResponse::from_json(&response),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn deeply_nested_frames_are_malformed_in_both_parsers() {
        // The JSON parser recurses once per nesting level. Run on a
        // spawned thread — the default stack every TCP connection gets —
        // where an unbounded parse of 10,000 `[` overflows the stack and
        // aborts the process.
        std::thread::spawn(|| {
            for depth in [10_000, 100_000] {
                let frame = format!(r#"{{"kind":"infer","dims":{}"#, "[".repeat(depth));
                assert!(matches!(
                    WireRequest::from_json(&frame),
                    Err(ProtocolError::Malformed(_))
                ));
                assert!(matches!(
                    WireResponse::from_json(&frame),
                    Err(ProtocolError::Malformed(_))
                ));
            }
        })
        .join()
        .expect("nested frames are rejected without overflowing the stack");
    }

    #[test]
    fn stats_request_round_trips() {
        let text = WireRequest::Stats.to_json();
        assert_eq!(WireRequest::from_json(&text).unwrap(), WireRequest::Stats);
    }

    #[test]
    fn ok_response_round_trips() {
        let response = WireResponse::Ok {
            activations: demo_tensor(),
            counters: Counters {
                dense_macs: 42,
                multiplies: 10,
                ..Counters::new()
            },
            latency_us: 1234,
        };
        match WireResponse::from_json(&response.to_json()).unwrap() {
            WireResponse::Ok {
                activations,
                counters,
                latency_us,
            } => {
                assert_eq!(activations, demo_tensor());
                assert_eq!(counters.dense_macs, 42);
                assert_eq!(latency_us, 1234);
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn stats_response_round_trips_with_telemetry() {
        use tfe_telemetry::{LayerSample, Sink, TelemetryRegistry};
        let sink = Sink::enabled(vec!["c1".into(), "c2".into()], 16);
        for (layer, wall_ns) in [(0u32, 2_500u64), (1, 40_000), (0, 3_000)] {
            sink.record(&LayerSample {
                layer,
                wall_ns,
                images: 1,
                counters: Counters {
                    dense_macs: 64,
                    multiplies: 16,
                    ..Counters::new()
                },
            });
        }
        let telemetry = TelemetryRegistry::collect(&sink).snapshot();
        let response = WireResponse::Stats {
            metrics: Metrics::new().snapshot(0),
            telemetry: telemetry.clone(),
            models: None,
        };
        // A single-model endpoint omits the v2 field entirely.
        assert!(!response.to_json().contains("\"models\""));
        match WireResponse::from_json(&response.to_json()).unwrap() {
            WireResponse::Stats {
                telemetry: back,
                models,
                ..
            } => {
                assert_eq!(back, telemetry);
                assert_eq!(back.layers.len(), 2);
                assert_eq!(back.layers[0].label, "c1");
                assert_eq!(back.layers[0].runs, 2);
                assert_eq!(back.total.multiplies, 48);
                assert_eq!(models, None);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_response_round_trips_per_model_rows() {
        use tfe_telemetry::{LayerSample, Sink, TelemetryRegistry};
        let sink = Sink::enabled(vec!["conv1".into()], 8);
        sink.record(&LayerSample {
            layer: 0,
            wall_ns: 5_000,
            images: 1,
            counters: Counters {
                multiplies: 9,
                ..Counters::new()
            },
        });
        let row = ModelStats {
            model: "lenet".to_owned(),
            replicas: 2,
            swaps: 1,
            dispatched: 40,
            shed: 3,
            completed: 37,
            expired: 0,
            failed: 0,
            batches: 10,
            batched_requests: 37,
            p50_us: 120,
            p95_us: 400,
            p99_us: 900,
            max_us: 1500,
            telemetry: TelemetryRegistry::collect(&sink).snapshot(),
        };
        let response = WireResponse::Stats {
            metrics: Metrics::new().snapshot(0),
            telemetry: TelemetryRegistry::default().snapshot(),
            models: Some(vec![row.clone()]),
        };
        match WireResponse::from_json(&response.to_json()).unwrap() {
            WireResponse::Stats { models, .. } => {
                let rows = models.expect("models field survives the round trip");
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0], row);
                assert_eq!(rows[0].telemetry.layers[0].label, "conv1");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(WireRequest::from_json("not json").is_err());
        assert!(WireRequest::from_json(r#"{"kind":"warp"}"#).is_err());
        // dims/bits disagreement.
        assert!(
            WireRequest::from_json(r#"{"kind":"infer","dims":[1,1,2,2],"bits":[0,0,0]}"#).is_err()
        );
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buffer: Vec<u8> = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buffer: Vec<u8> = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        buffer.truncate(buffer.len() - 2);
        let mut cursor = io::Cursor::new(buffer);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A stream that records the largest buffer any `read` was handed.
    struct RecordingReader {
        bytes: io::Cursor<Vec<u8>>,
        largest_buf: usize,
    }

    impl Read for RecordingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn declared_length_does_not_allocate_before_bytes_arrive() {
        let mut bytes = u32::try_from(MAX_FRAME_BYTES)
            .unwrap()
            .to_be_bytes()
            .to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        let mut reader = RecordingReader {
            bytes: io::Cursor::new(bytes),
            largest_buf: 0,
        };
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            reader.largest_buf < 1 << 20,
            "a 10-byte stream was handed a {}-byte buffer",
            reader.largest_buf
        );
    }
}
