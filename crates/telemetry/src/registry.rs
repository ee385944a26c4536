//! The reader half of the subsystem: [`TelemetryRegistry`] folds a
//! sink's raw stream into per-layer aggregates, and
//! [`TelemetrySnapshot`] is the JSON-serializable export of that view.
//!
//! This unifies the three previously disjoint observability surfaces:
//! the engine's network-total [`Counters`], the analytic per-layer
//! report (`NetworkPerf`), and the serving stack's request-level
//! `Metrics` — one registry now answers "what did layer k actually do,
//! and how long did it take" from live execution data.

use crate::counters::Counters;
use crate::histogram::LatencyHistogram;
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-layer aggregate: exact cumulative totals plus a latency
/// histogram over the ring's surviving sample window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerStats {
    /// Compiled stage index (0-based, network order).
    pub layer: usize,
    /// The stage's layer label (shape name).
    pub label: String,
    /// The layer's execution-mode string (e.g. `"dense"`, `"sparse"`,
    /// `"transferred"`); empty when the sink's producer didn't supply
    /// one.
    pub mode: String,
    /// Stage executions recorded since the sink was enabled (exact).
    /// A batched run counts once here regardless of its batch size.
    pub runs: u64,
    /// Images processed across those executions (exact): the sum of
    /// every sample's batch dimension.
    pub images: u64,
    /// Total wall time across those executions, nanoseconds (exact).
    pub wall_ns: u64,
    /// Cumulative counter totals across those executions (exact —
    /// accumulated atomically per sample, never lost to ring overflow).
    pub counters: Counters,
    /// Latency histogram over the ring's surviving window (lossy:
    /// bounded by the ring capacity).
    pub window: LatencyHistogram,
}

/// Per-layer telemetry folded out of a [`Sink`].
///
/// `collect` is cheap enough to call on every stats request: it reads
/// the per-layer atomics and walks the ring window once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryRegistry {
    layers: Vec<LayerStats>,
    recorded: u64,
    dropped: u64,
}

impl TelemetryRegistry {
    /// Folds the sink's current state into per-layer aggregates. A
    /// disabled sink yields an empty registry.
    #[must_use]
    pub fn collect(sink: &Sink) -> TelemetryRegistry {
        let modes = sink.layer_modes();
        let mut layers: Vec<LayerStats> = sink
            .layer_totals()
            .into_iter()
            .enumerate()
            .map(|(layer, (label, totals))| LayerStats {
                layer,
                label,
                mode: modes.get(layer).cloned().unwrap_or_default(),
                runs: totals.runs,
                images: totals.images,
                wall_ns: totals.wall_ns,
                counters: totals.counters,
                window: LatencyHistogram::new(),
            })
            .collect();
        let ring = sink.ring_snapshot();
        for sample in &ring.samples {
            if let Some(layer) = layers.get_mut(sample.layer as usize) {
                layer.window.record(Duration::from_nanos(sample.wall_ns));
            }
        }
        TelemetryRegistry {
            layers,
            recorded: ring.recorded,
            dropped: ring.dropped,
        }
    }

    /// The per-layer aggregates, in stage order.
    #[must_use]
    pub fn layers(&self) -> &[LayerStats] {
        &self.layers
    }

    /// Total samples ever recorded by the sink (including overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Samples lost to ring overflow (absent from the windows, still
    /// present in the cumulative totals).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Network-total counters: the sum of every layer's exact
    /// cumulative counters.
    #[must_use]
    pub fn total(&self) -> Counters {
        self.layers.iter().map(|l| l.counters).sum()
    }

    /// Folds another registry into this one, layer-by-layer: totals
    /// add, windows merge via [`LatencyHistogram::merge`], and layers
    /// only the other registry knows are appended. Used to combine
    /// registries collected from different sinks (shards, restarts).
    pub fn merge(&mut self, other: &TelemetryRegistry) {
        for theirs in &other.layers {
            match self.layers.iter_mut().find(|l| l.layer == theirs.layer) {
                Some(mine) => {
                    if mine.label.is_empty() {
                        mine.label = theirs.label.clone();
                    }
                    if mine.mode.is_empty() {
                        mine.mode = theirs.mode.clone();
                    }
                    mine.runs += theirs.runs;
                    mine.images += theirs.images;
                    mine.wall_ns += theirs.wall_ns;
                    mine.counters.merge(&theirs.counters);
                    mine.window.merge(&theirs.window);
                }
                None => self.layers.push(theirs.clone()),
            }
        }
        self.layers.sort_by_key(|l| l.layer);
        self.recorded += other.recorded;
        self.dropped += other.dropped;
    }

    /// The serializable export of this registry.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            layers: self
                .layers
                .iter()
                .map(|l| LayerTelemetry {
                    layer: l.layer as u64,
                    label: l.label.clone(),
                    mode: l.mode.clone(),
                    runs: l.runs,
                    images: l.images,
                    wall_ns: l.wall_ns,
                    window_samples: l.window.total(),
                    p50_us: l.window.quantile_us(0.50),
                    p95_us: l.window.quantile_us(0.95),
                    p99_us: l.window.quantile_us(0.99),
                    max_us: l.window.max_us(),
                    counters: l.counters,
                    mac_reduction: l.counters.mac_reduction(),
                })
                .collect(),
            recorded: self.recorded,
            dropped: self.dropped,
            total: self.total(),
        }
    }
}

/// One layer's row in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTelemetry {
    /// Compiled stage index (0-based, network order).
    pub layer: u64,
    /// The stage's layer label (shape name).
    pub label: String,
    /// The layer's execution-mode string (empty when unknown).
    pub mode: String,
    /// Stage executions recorded since the sink was enabled. A batched
    /// run counts once regardless of its batch size.
    pub runs: u64,
    /// Images processed across those executions (sum of sample batch
    /// dimensions).
    pub images: u64,
    /// Total wall time across those executions, nanoseconds.
    pub wall_ns: u64,
    /// Observations in the latency window the quantiles cover.
    pub window_samples: u64,
    /// Median stage latency upper bound over the window, microseconds.
    pub p50_us: u64,
    /// 95th-percentile stage latency upper bound, microseconds.
    pub p95_us: u64,
    /// 99th-percentile stage latency upper bound, microseconds.
    pub p99_us: u64,
    /// Exact maximum stage latency in the window, microseconds.
    pub max_us: u64,
    /// Exact cumulative counters for this layer.
    pub counters: Counters,
    /// The layer's reuse effectiveness: `dense_macs / multiplies`
    /// (paper Fig. 19, live instead of analytic).
    pub mac_reduction: f64,
}

/// Point-in-time, JSON-serializable per-layer telemetry — the payload
/// of the wire protocol's stats request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// One row per compiled stage, in network order.
    pub layers: Vec<LayerTelemetry>,
    /// Total samples ever recorded (including overwritten).
    pub recorded: u64,
    /// Samples lost to ring overflow.
    pub dropped: u64,
    /// Sum of every layer's cumulative counters.
    pub total: Counters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{LayerSample, StageKind};

    fn sample(layer: u32, wall_ns: u64, multiplies: u64) -> LayerSample {
        LayerSample {
            layer,
            stage: StageKind::Full,
            wall_ns,
            images: 1,
            counters: Counters {
                multiplies,
                dense_macs: multiplies * 3,
                ..Counters::new()
            },
        }
    }

    #[test]
    fn collect_from_disabled_sink_is_empty() {
        let reg = TelemetryRegistry::collect(&Sink::disabled());
        assert!(reg.layers().is_empty());
        assert_eq!(reg.recorded(), 0);
        assert_eq!(reg.total(), Counters::new());
        assert!(reg.snapshot().layers.is_empty());
    }

    #[test]
    fn collect_builds_per_layer_aggregates_and_totals() {
        let sink = Sink::enabled(vec!["c1".into(), "c2".into()], 32);
        sink.record(&sample(0, 2_000, 10));
        sink.record(&sample(1, 9_000, 4));
        sink.record(&sample(0, 3_000, 10));
        let reg = TelemetryRegistry::collect(&sink);
        assert_eq!(reg.layers().len(), 2);
        let l0 = &reg.layers()[0];
        assert_eq!(l0.label, "c1");
        assert_eq!(l0.runs, 2);
        assert_eq!(l0.wall_ns, 5_000);
        assert_eq!(l0.counters.multiplies, 20);
        assert_eq!(l0.window.total(), 2);
        assert_eq!(reg.total().multiplies, 24);
        assert_eq!(reg.recorded(), 3);
        assert_eq!(reg.dropped(), 0);

        let snap = reg.snapshot();
        assert_eq!(snap.layers.len(), 2);
        assert_eq!(snap.layers[0].window_samples, 2);
        // 2 µs and 3 µs land in the [2,4) bucket → p50 upper bound 4.
        assert_eq!(snap.layers[0].p50_us, 3);
        assert_eq!(snap.layers[0].max_us, 3);
        assert_eq!(snap.layers[1].p99_us, 9);
        assert_eq!(snap.total.multiplies, 24);
        assert_eq!(snap.layers[0].mac_reduction, 3.0);
    }

    #[test]
    fn totals_are_exact_even_when_the_window_is_lossy() {
        let sink = Sink::enabled(vec!["only".into()], 4);
        for i in 1..=100u64 {
            sink.record(&sample(0, i, i));
        }
        let reg = TelemetryRegistry::collect(&sink);
        assert_eq!(reg.recorded(), 100);
        assert_eq!(reg.dropped(), 96);
        assert_eq!(reg.layers()[0].window.total(), 4);
        // Cumulative totals never drop: 1 + 2 + … + 100.
        assert_eq!(reg.layers()[0].counters.multiplies, 5050);
        assert_eq!(reg.total().multiplies, 5050);
    }

    #[test]
    fn merge_adds_totals_and_windows() {
        let a = Sink::enabled(vec!["c1".into(), "c2".into()], 32);
        let b = Sink::enabled(vec!["c1".into(), "c2".into()], 32);
        a.record(&sample(0, 2_000, 5));
        b.record(&sample(0, 8_000, 7));
        b.record(&sample(1, 1_000, 1));
        let mut merged = TelemetryRegistry::collect(&a);
        merged.merge(&TelemetryRegistry::collect(&b));
        assert_eq!(merged.layers()[0].runs, 2);
        assert_eq!(merged.layers()[0].counters.multiplies, 12);
        assert_eq!(merged.layers()[0].window.total(), 2);
        assert_eq!(merged.layers()[1].runs, 1);
        assert_eq!(merged.recorded(), 3);
        assert_eq!(merged.total().multiplies, 13);
    }

    #[test]
    fn modes_flow_from_sink_to_snapshot() {
        let sink = Sink::enabled_with_modes(
            vec!["c1".into(), "c2".into()],
            vec!["sparse".into(), "transferred".into()],
            8,
        );
        sink.record(&sample(0, 1_000, 2));
        let reg = TelemetryRegistry::collect(&sink);
        assert_eq!(reg.layers()[0].mode, "sparse");
        assert_eq!(reg.layers()[1].mode, "transferred");
        let snap = reg.snapshot();
        assert_eq!(snap.layers[0].mode, "sparse");
        // A mode-less registry merged into a mode-carrying one keeps
        // the known modes; the reverse direction adopts them.
        let plain = TelemetryRegistry::collect(&{
            let s = Sink::enabled(vec!["c1".into(), "c2".into()], 8);
            s.record(&sample(0, 500, 1));
            s
        });
        let mut merged = plain.clone();
        merged.merge(&reg);
        assert_eq!(merged.layers()[0].mode, "sparse");
        assert_eq!(merged.layers()[0].runs, 2);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let sink = Sink::enabled(vec!["c1".into(), "c2".into()], 32);
        sink.record(&sample(0, 2_500, 8));
        sink.record(&sample(1, 12_000, 2));
        let snap = TelemetryRegistry::collect(&sink).snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        assert!(text.contains("\"label\":\"c1\""), "{text}");
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
