//! The lock-free sample ring: a fixed-capacity, multi-producer,
//! snapshot-reader buffer of encoded [`LayerSample`]s.
//!
//! Writers never block and never allocate: a `fetch_add` on the global
//! head hands out a ticket, the ticket picks a slot (`ticket %
//! capacity`), and the slot is published with a per-slot seqlock. The
//! per-slot sequence number is *derived from the ticket* (`2·ticket+1`
//! while writing, `2·ticket+2` when published), so sequence values are
//! strictly increasing across the slot's lifetime — a reader validating
//! "published, for exactly ticket `t`" can never confuse two laps of
//! the ring (no ABA). Sequence updates use `fetch_max`, so a slow
//! writer finishing a stale lap cannot roll the sequence backwards over
//! a newer writer's claim.
//!
//! Readers take a best-effort snapshot: slots that are mid-write (odd
//! or mismatched sequence) are skipped, never waited on. Overflow is
//! overwrite-oldest: once more than `capacity` samples have been
//! recorded, the oldest are gone and reported via
//! [`RingSnapshot::dropped`].

use crate::sample::LayerSample;
use std::sync::atomic::{fence, AtomicU64, Ordering};

const WORDS: usize = LayerSample::WORDS;

/// Multi-producer fixed-capacity sample ring (see module docs).
#[derive(Debug)]
pub(crate) struct Ring {
    capacity: u64,
    /// Total samples ever pushed; `head % capacity` is the next slot.
    head: AtomicU64,
    /// Per-slot seqlock words (one per slot).
    seq: Vec<AtomicU64>,
    /// Encoded sample payloads (`WORDS` per slot).
    words: Vec<AtomicU64>,
}

/// What a reader saw: the still-live window of samples plus the ring's
/// lifetime accounting.
#[derive(Debug, Clone)]
pub(crate) struct RingSnapshot {
    /// Total samples ever recorded (including overwritten ones).
    pub(crate) recorded: u64,
    /// Samples lost to overwrite-oldest overflow.
    pub(crate) dropped: u64,
    /// The surviving window, oldest first. May be shorter than the
    /// window if slots were mid-write at snapshot time.
    pub(crate) samples: Vec<LayerSample>,
}

impl Ring {
    /// A ring holding at most `capacity` samples (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            capacity: capacity as u64,
            head: AtomicU64::new(0),
            seq: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            words: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publishes one sample (wait-free; overwrites the oldest slot when
    /// full).
    pub(crate) fn push(&self, sample: &LayerSample) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.capacity) as usize;
        let encoded = sample.encode();
        // Seqlock write (Boehm's fence recipe): claim odd, fence, write
        // the payload, publish even. `fetch_max` keeps the sequence
        // monotone even if a writer from a previous lap is still
        // in flight on this slot.
        self.seq[slot].fetch_max(2 * ticket + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (offset, word) in encoded.iter().enumerate() {
            self.words[slot * WORDS + offset].store(*word, Ordering::Relaxed);
        }
        self.seq[slot].fetch_max(2 * ticket + 2, Ordering::Release);
    }

    /// Reads the sample published for `ticket`, or `None` if the slot
    /// has moved on (overwritten or mid-write).
    fn read_ticket(&self, ticket: u64) -> Option<LayerSample> {
        let slot = (ticket % self.capacity) as usize;
        let expected = 2 * ticket + 2;
        if self.seq[slot].load(Ordering::Acquire) != expected {
            return None;
        }
        let mut words = [0u64; WORDS];
        for (offset, word) in words.iter_mut().enumerate() {
            *word = self.words[slot * WORDS + offset].load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if self.seq[slot].load(Ordering::Relaxed) != expected {
            return None;
        }
        Some(LayerSample::decode(words))
    }

    /// Best-effort snapshot of the live window, oldest first.
    pub(crate) fn snapshot(&self) -> RingSnapshot {
        let recorded = self.head.load(Ordering::Acquire);
        let dropped = recorded.saturating_sub(self.capacity);
        let mut samples = Vec::with_capacity((recorded - dropped) as usize);
        for ticket in dropped..recorded {
            if let Some(sample) = self.read_ticket(ticket) {
                samples.push(sample);
            }
        }
        RingSnapshot {
            recorded,
            dropped,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    fn sample(layer: u32, wall_ns: u64) -> LayerSample {
        LayerSample {
            layer,
            wall_ns,
            images: 1,
            counters: Counters {
                multiplies: u64::from(layer) + 1,
                ..Counters::new()
            },
        }
    }

    #[test]
    fn ring_keeps_everything_below_capacity() {
        let ring = Ring::new(8);
        for i in 0..5 {
            ring.push(&sample(i, u64::from(i) * 10));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.samples.len(), 5);
        for (i, s) in snap.samples.iter().enumerate() {
            assert_eq!(s.layer, i as u32);
            assert_eq!(s.wall_ns, i as u64 * 10);
        }
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let ring = Ring::new(4);
        for i in 0..10 {
            ring.push(&sample(i, 1));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 10);
        assert_eq!(snap.dropped, 6);
        let layers: Vec<u32> = snap.samples.iter().map(|s| s.layer).collect();
        assert_eq!(layers, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = Ring::new(0);
        ring.push(&sample(3, 7));
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 1);
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.samples[0].layer, 3);
    }

    #[test]
    fn concurrent_pushes_yield_only_whole_samples() {
        use std::sync::Arc;
        let ring = Arc::new(Ring::new(64));
        let writers: Vec<_> = (0..4u32)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        // Each writer tags its samples so a torn read
                        // (mixed writers) would break the invariant
                        // checked below.
                        ring.push(&LayerSample {
                            layer: t,
                            wall_ns: t as u64 * 1_000_000 + i,
                            images: 1,
                            counters: Counters {
                                multiplies: t as u64 * 1_000_000 + i,
                                ..Counters::new()
                            },
                        });
                    }
                })
            })
            .collect();
        // Concurrent snapshots must only ever observe whole samples.
        for _ in 0..50 {
            for s in ring.snapshot().samples {
                assert_eq!(s.wall_ns, s.counters.multiplies);
                assert_eq!(s.layer as u64, s.wall_ns / 1_000_000);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 2000);
        assert_eq!(snap.dropped, 2000 - 64);
        assert_eq!(snap.samples.len(), 64);
        for s in snap.samples {
            assert_eq!(s.wall_ns, s.counters.multiplies);
        }
    }
}
