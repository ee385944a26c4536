//! Serving knobs: batching, admission control, and worker sizing.

use std::time::Duration;
use tfe_sim::SimError;
use tfe_transfer::analysis::ReuseConfig;

/// Configuration for one [`Service`](crate::service::Service) instance.
///
/// The two batching knobs mirror the paper's ping-pong input memory: a
/// micro-batch flushes as soon as it reaches [`max_batch_size`] images
/// (the "pong" buffer is full) **or** [`max_batch_delay`] elapses after
/// its first request (the datapath must not starve), whichever comes
/// first.
///
/// [`max_batch_size`]: ServeConfig::max_batch_size
/// [`max_batch_delay`]: ServeConfig::max_batch_delay
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a forming micro-batch at this many requests.
    pub max_batch_size: usize,
    /// Flush a forming micro-batch this long after its first request.
    pub max_batch_delay: Duration,
    /// Bounded request-queue capacity; arrivals beyond it are rejected
    /// with [`Rejected::QueueFull`](crate::service::Rejected::QueueFull).
    pub queue_capacity: usize,
    /// Number of executor workers pulling formed batches. Each runs its
    /// micro-batch on its own thread, so `executors × replicas` is the
    /// whole serve tier's parallelism.
    pub executors: usize,
    /// Reuse configuration every request is evaluated under (fixed per
    /// service so whole batches share one datapath configuration).
    pub reuse: ReuseConfig,
    /// Deadline applied to requests that do not carry their own; `None`
    /// means requests wait as long as the queue holds them.
    pub default_deadline: Option<Duration>,
    /// Capacity of the per-layer telemetry sample ring attached to the
    /// compiled engine (samples, not requests: each request contributes
    /// one sample per stage). The ring overwrites its oldest samples
    /// when full; cumulative per-layer totals are exact regardless.
    pub telemetry_ring: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch_size: 8,
            max_batch_delay: Duration::from_millis(2),
            queue_capacity: 256,
            executors: 2,
            reuse: ReuseConfig::FULL,
            default_deadline: None,
            telemetry_ring: 4096,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for any zero-sized knob
    /// (batch size, queue capacity, executor count or telemetry ring).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.max_batch_size == 0 {
            return Err(SimError::InvalidConfig {
                what: "max_batch_size must be at least 1",
            });
        }
        if self.queue_capacity == 0 {
            return Err(SimError::InvalidConfig {
                what: "queue_capacity must be at least 1",
            });
        }
        if self.executors == 0 {
            return Err(SimError::InvalidConfig {
                what: "executors must be at least 1",
            });
        }
        if self.telemetry_ring == 0 {
            return Err(SimError::InvalidConfig {
                what: "telemetry_ring must be at least 1",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for broken in [
            ServeConfig {
                max_batch_size: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                executors: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                telemetry_ring: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                broken.validate(),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }
}
