//! The engine-facing half of the subsystem: a cloneable [`Sink`] handle
//! the instrumented hot path records [`LayerSample`]s into.
//!
//! A disabled sink is a `None` — [`Sink::record`] is a branch on an
//! `Option` and returns immediately, so the hot path pays near-zero
//! cost (the `telemetry_overhead` bench pins the *enabled* cost below
//! 3%). An enabled sink owns two views of the same stream:
//!
//! * a lock-free ring window of recent samples (for latency
//!   histograms — lossy under overflow, by design), and
//! * per-layer **cumulative atomics** (runs, wall time, every counter
//!   field) that are exact for the life of the sink — these are what
//!   make per-layer counters sum exactly to network totals no matter
//!   how small the ring is.

use crate::counters::Counters;
use crate::ring::{Ring, RingSnapshot};
use crate::sample::LayerSample;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One atomic cell per [`Counters`] field.
#[derive(Debug, Default)]
pub(crate) struct CounterCells {
    dense_macs: AtomicU64,
    multiplies: AtomicU64,
    adds: AtomicU64,
    sr_reads: AtomicU64,
    sr_writes: AtomicU64,
    psum_mem_reads: AtomicU64,
    psum_mem_writes: AtomicU64,
    input_mem_reads: AtomicU64,
    weight_reads: AtomicU64,
    dram_bits: AtomicU64,
    cycles: AtomicU64,
}

impl CounterCells {
    fn add(&self, delta: &Counters) {
        // Exhaustive destructuring: a new Counters field fails to
        // compile here instead of silently not being accumulated.
        let Counters {
            dense_macs,
            multiplies,
            adds,
            sr_reads,
            sr_writes,
            psum_mem_reads,
            psum_mem_writes,
            input_mem_reads,
            weight_reads,
            dram_bits,
            cycles,
        } = *delta;
        self.dense_macs.fetch_add(dense_macs, Ordering::Relaxed);
        self.multiplies.fetch_add(multiplies, Ordering::Relaxed);
        self.adds.fetch_add(adds, Ordering::Relaxed);
        self.sr_reads.fetch_add(sr_reads, Ordering::Relaxed);
        self.sr_writes.fetch_add(sr_writes, Ordering::Relaxed);
        self.psum_mem_reads
            .fetch_add(psum_mem_reads, Ordering::Relaxed);
        self.psum_mem_writes
            .fetch_add(psum_mem_writes, Ordering::Relaxed);
        self.input_mem_reads
            .fetch_add(input_mem_reads, Ordering::Relaxed);
        self.weight_reads.fetch_add(weight_reads, Ordering::Relaxed);
        self.dram_bits.fetch_add(dram_bits, Ordering::Relaxed);
        self.cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    fn load(&self) -> Counters {
        Counters {
            dense_macs: self.dense_macs.load(Ordering::Relaxed),
            multiplies: self.multiplies.load(Ordering::Relaxed),
            adds: self.adds.load(Ordering::Relaxed),
            sr_reads: self.sr_reads.load(Ordering::Relaxed),
            sr_writes: self.sr_writes.load(Ordering::Relaxed),
            psum_mem_reads: self.psum_mem_reads.load(Ordering::Relaxed),
            psum_mem_writes: self.psum_mem_writes.load(Ordering::Relaxed),
            input_mem_reads: self.input_mem_reads.load(Ordering::Relaxed),
            weight_reads: self.weight_reads.load(Ordering::Relaxed),
            dram_bits: self.dram_bits.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
        }
    }
}

/// Exact cumulative totals for one compiled stage.
#[derive(Debug, Default)]
pub(crate) struct LayerCells {
    runs: AtomicU64,
    images: AtomicU64,
    wall_ns: AtomicU64,
    counters: CounterCells,
}

/// A cumulative per-layer readout taken from a sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LayerTotals {
    pub(crate) runs: u64,
    pub(crate) images: u64,
    pub(crate) wall_ns: u64,
    pub(crate) counters: Counters,
}

#[derive(Debug)]
pub(crate) struct SinkInner {
    ring: Ring,
    layers: Vec<LayerCells>,
    labels: Vec<String>,
    /// Per-layer execution-mode strings (e.g. `"dense"`, `"sparse"`) —
    /// static compile-time facts carried alongside the labels so stats
    /// surfaces can show *how* each layer executes; empty strings when
    /// the producer didn't supply any.
    modes: Vec<String>,
}

/// Cloneable recording handle; clones share the same ring and totals.
///
/// [`Sink::disabled`] (also `Default`) carries no storage at all and
/// makes [`record`](Sink::record) a no-op; [`Sink::enabled`] allocates
/// one ring plus per-layer accumulators for a fixed set of layer
/// labels. Samples whose `layer` index falls outside the label set
/// still enter the ring but accumulate no per-layer totals.
#[derive(Debug, Clone, Default)]
pub struct Sink {
    inner: Option<Arc<SinkInner>>,
}

impl Sink {
    /// The no-op sink: recording returns immediately, snapshots are
    /// empty.
    #[must_use]
    pub fn disabled() -> Sink {
        Sink { inner: None }
    }

    /// An enabled sink for `labels.len()` layers, with a sample ring
    /// holding `ring_capacity` records (clamped to ≥ 1).
    #[must_use]
    pub fn enabled(labels: Vec<String>, ring_capacity: usize) -> Sink {
        let modes = vec![String::new(); labels.len()];
        Sink::enabled_with_modes(labels, modes, ring_capacity)
    }

    /// [`Sink::enabled`] with a per-layer execution-mode string carried
    /// alongside each label (padded/truncated to the label count).
    #[must_use]
    pub fn enabled_with_modes(
        labels: Vec<String>,
        mut modes: Vec<String>,
        ring_capacity: usize,
    ) -> Sink {
        modes.resize(labels.len(), String::new());
        let layers = labels.iter().map(|_| LayerCells::default()).collect();
        Sink {
            inner: Some(Arc::new(SinkInner {
                ring: Ring::new(ring_capacity),
                layers,
                labels,
                modes,
            })),
        }
    }

    /// Whether recording does anything — the hot path checks this once
    /// per stage before touching the clock.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of layers this sink accumulates totals for (0 when
    /// disabled).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.labels.len())
    }

    /// Records one sample: pushes it into the ring and folds it into
    /// the layer's cumulative totals. No-op when disabled; wait-free
    /// when enabled.
    pub fn record(&self, sample: &LayerSample) {
        let Some(inner) = &self.inner else { return };
        inner.ring.push(sample);
        if let Some(layer) = inner.layers.get(sample.layer as usize) {
            layer.runs.fetch_add(1, Ordering::Relaxed);
            layer.images.fetch_add(sample.images, Ordering::Relaxed);
            layer.wall_ns.fetch_add(sample.wall_ns, Ordering::Relaxed);
            layer.counters.add(&sample.counters);
        }
    }

    /// The ring window plus lifetime accounting (empty when disabled).
    pub(crate) fn ring_snapshot(&self) -> RingSnapshot {
        match &self.inner {
            Some(inner) => inner.ring.snapshot(),
            None => RingSnapshot {
                recorded: 0,
                dropped: 0,
                samples: Vec::new(),
            },
        }
    }

    /// Per-layer execution-mode strings, parallel to the labels (empty
    /// when disabled).
    pub(crate) fn layer_modes(&self) -> Vec<String> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.modes.clone())
    }

    /// Labels and exact cumulative totals per layer (empty when
    /// disabled).
    pub(crate) fn layer_totals(&self) -> Vec<(String, LayerTotals)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .labels
            .iter()
            .zip(inner.layers.iter())
            .map(|(label, cells)| {
                (
                    label.clone(),
                    LayerTotals {
                        runs: cells.runs.load(Ordering::Relaxed),
                        images: cells.images.load(Ordering::Relaxed),
                        wall_ns: cells.wall_ns.load(Ordering::Relaxed),
                        counters: cells.counters.load(),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(layer: u32, wall_ns: u64, multiplies: u64) -> LayerSample {
        LayerSample {
            layer,
            wall_ns,
            images: 1,
            counters: Counters {
                multiplies,
                dense_macs: multiplies * 2,
                ..Counters::new()
            },
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = Sink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.layer_count(), 0);
        sink.record(&sample(0, 10, 5));
        assert_eq!(sink.ring_snapshot().recorded, 0);
        assert!(sink.layer_totals().is_empty());
    }

    #[test]
    fn enabled_sink_accumulates_exact_totals_per_layer() {
        let sink = Sink::enabled(vec!["a".into(), "b".into()], 16);
        assert!(sink.is_enabled());
        assert_eq!(sink.layer_count(), 2);
        sink.record(&sample(0, 100, 3));
        sink.record(&sample(1, 50, 7));
        sink.record(&sample(0, 200, 4));
        let totals = sink.layer_totals();
        assert_eq!(totals[0].0, "a");
        assert_eq!(totals[0].1.runs, 2);
        assert_eq!(totals[0].1.wall_ns, 300);
        assert_eq!(totals[0].1.counters.multiplies, 7);
        assert_eq!(totals[1].1.runs, 1);
        assert_eq!(totals[1].1.counters.multiplies, 7);
        assert_eq!(sink.ring_snapshot().samples.len(), 3);
    }

    #[test]
    fn totals_survive_ring_overflow() {
        let sink = Sink::enabled(vec!["only".into()], 2);
        for i in 0..100 {
            sink.record(&sample(0, 1, i));
        }
        let snap = sink.ring_snapshot();
        assert_eq!(snap.recorded, 100);
        assert_eq!(snap.dropped, 98);
        assert_eq!(snap.samples.len(), 2);
        let totals = sink.layer_totals();
        assert_eq!(totals[0].1.runs, 100);
        // Exact despite the tiny ring: 0 + 1 + … + 99.
        assert_eq!(totals[0].1.counters.multiplies, 4950);
    }

    #[test]
    fn out_of_range_layers_enter_the_ring_only() {
        let sink = Sink::enabled(vec!["a".into()], 8);
        sink.record(&sample(5, 10, 1));
        assert_eq!(sink.ring_snapshot().samples.len(), 1);
        assert_eq!(sink.layer_totals()[0].1.runs, 0);
    }

    #[test]
    fn clones_share_storage() {
        let sink = Sink::enabled(vec!["a".into()], 8);
        let clone = sink.clone();
        clone.record(&sample(0, 10, 2));
        assert_eq!(sink.layer_totals()[0].1.runs, 1);
    }
}
