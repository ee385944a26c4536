//! Fleet configuration: which models to serve, with how many replicas,
//! under which serving knobs.

use tfe_serve::ServeConfig;
use tfe_sim::network::FunctionalNetwork;
use tfe_sim::SimError;
use tfe_transfer::analysis::ReuseConfig;

/// One model entry in a [`FleetSpec`]: an id requests route by, the
/// functional network to compile, a replica count, and the per-replica
/// serving configuration (whose `reuse` field fixes the shard's compiled
/// [`ReuseConfig`]).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The model id requests route by (unique within a fleet).
    pub id: String,
    /// The network the shard compiles into its engine.
    pub network: FunctionalNetwork,
    /// Replica services in the shard, each with its own bounded
    /// admission queue, micro-batcher, and scratch pool.
    pub replicas: usize,
    /// Per-replica serving knobs; `serve.reuse` is the shard's compiled
    /// reuse configuration.
    pub serve: ServeConfig,
}

impl ModelSpec {
    /// A one-replica spec under the default [`ServeConfig`].
    #[must_use]
    pub fn new(id: impl Into<String>, network: FunctionalNetwork) -> ModelSpec {
        ModelSpec {
            id: id.into(),
            network,
            replicas: 1,
            serve: ServeConfig::default(),
        }
    }

    /// Sets the replica count.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> ModelSpec {
        self.replicas = replicas;
        self
    }

    /// Replaces the per-replica serving configuration.
    #[must_use]
    pub fn with_serve(mut self, serve: ServeConfig) -> ModelSpec {
        self.serve = serve;
        self
    }

    /// Sets the reuse configuration the shard's engine compiles under.
    #[must_use]
    pub fn with_reuse(mut self, reuse: ReuseConfig) -> ModelSpec {
        self.serve.reuse = reuse;
        self
    }
}

/// The whole fleet: one [`ModelSpec`] per served model. The first entry
/// is the **default model** — what a request without a `model` id (every
/// protocol-v1 request) runs.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The served models, default model first.
    pub models: Vec<ModelSpec>,
}

impl FleetSpec {
    /// Wraps a model list as a fleet spec.
    #[must_use]
    pub fn new(models: Vec<ModelSpec>) -> FleetSpec {
        FleetSpec { models }
    }

    /// Validates the spec: at least one model, unique non-empty ids, at
    /// least one replica per shard, and a valid [`ServeConfig`] each.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.models.is_empty() {
            return Err(SimError::InvalidConfig {
                what: "a fleet needs at least one model",
            });
        }
        for (i, model) in self.models.iter().enumerate() {
            if model.id.is_empty() {
                return Err(SimError::InvalidConfig {
                    what: "model ids must be non-empty",
                });
            }
            if self.models[..i].iter().any(|m| m.id == model.id) {
                return Err(SimError::InvalidConfig {
                    what: "model ids must be unique within a fleet",
                });
            }
            if model.replicas == 0 {
                return Err(SimError::InvalidConfig {
                    what: "every shard needs at least one replica",
                });
            }
            model.serve.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_network;

    #[test]
    fn valid_spec_passes() {
        let spec = FleetSpec::new(vec![
            ModelSpec::new("a", demo_network(1)),
            ModelSpec::new("b", demo_network(2)).with_replicas(3),
        ]);
        spec.validate().unwrap();
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let invalid = [
            FleetSpec::new(vec![]),
            FleetSpec::new(vec![ModelSpec::new("", demo_network(1))]),
            FleetSpec::new(vec![
                ModelSpec::new("dup", demo_network(1)),
                ModelSpec::new("dup", demo_network(2)),
            ]),
            FleetSpec::new(vec![ModelSpec::new("a", demo_network(1)).with_replicas(0)]),
        ];
        for spec in invalid {
            assert!(matches!(
                spec.validate(),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }
}
