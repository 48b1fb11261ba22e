//! Pipeline configuration (the paper's §VIII "Setup" defaults).

use remp_crowd::TruthConfig;
use remp_ergraph::AttrMatchConfig;
use remp_forest::{ForestConfig, TreeConfig};
use remp_json::Json;
use remp_par::Parallelism;
use remp_propagation::PropagationConfig;
use remp_selection::BatchStrategy;

use crate::RempError;

/// All knobs of the Remp pipeline, defaulting to the paper's setup:
/// label-similarity threshold 0.3, `k = 4`, `τ = 0.9`, `µ = 10`, truth
/// thresholds 0.8 / 0.2.
#[derive(Clone, Debug, PartialEq)]
pub struct RempConfig {
    /// Label-Jaccard threshold for candidate generation (paper: 0.3).
    pub label_sim_threshold: f64,
    /// Internal `simL` literal threshold (paper: 0.9).
    pub literal_threshold: f64,
    /// k of the partial-order k-NN pruning (paper: 4).
    pub knn_k: usize,
    /// Precision threshold τ for inferring matches (paper: 0.9).
    pub tau: f64,
    /// Questions per human-machine loop µ (paper: 10).
    pub mu: usize,
    /// Question-selection policy per batch (paper: expected benefit;
    /// the §VIII-B heuristics are available for ablations).
    pub strategy: BatchStrategy,
    /// Hard budget on total questions (`None` = run to convergence).
    pub max_questions: Option<usize>,
    /// Safety cap on loops (the paper's termination is benefit-driven).
    pub max_loops: usize,
    /// Attribute-matching options (1:1 constraint etc.).
    pub attr: AttrMatchConfig,
    /// Truth-inference thresholds.
    pub truth: TruthConfig,
    /// Neighbour-propagation enumeration budget.
    pub propagation: PropagationConfig,
    /// Whether to run the isolated-pair classifier after the loop.
    pub classify_isolated: bool,
    /// Random-forest settings for the isolated-pair classifier.
    pub forest: ForestConfig,
    /// Attribute-signature similarity ψ for the classifier's training
    /// neighbourhood (paper: 0.9).
    pub psi: f64,
    /// Forest vote share required to call an isolated pair a match.
    /// Isolated targets are massively imbalanced toward non-matches, so
    /// the default is well above 0.5 (the paper's ψ = 0.9 serves the same
    /// high-precision goal).
    pub classifier_threshold: f64,
    /// Worker-pool policy for the data-parallel pipeline stages
    /// (candidate generation, similarity vectors, pruning, propagation,
    /// batch scoring). Purely an execution knob: every mode produces
    /// bit-identical matches, metrics and question order. The default
    /// [`Parallelism::Auto`] honours the `REMP_THREADS` environment
    /// variable and otherwise uses every available core; use
    /// [`Parallelism::Sequential`] for single-threaded runs.
    pub parallelism: Parallelism,
}

impl Default for RempConfig {
    fn default() -> Self {
        RempConfig {
            label_sim_threshold: 0.3,
            literal_threshold: 0.9,
            knn_k: 4,
            tau: 0.9,
            mu: 10,
            strategy: BatchStrategy::Benefit,
            max_questions: None,
            max_loops: 1000,
            attr: AttrMatchConfig::default(),
            truth: TruthConfig::default(),
            propagation: PropagationConfig::default(),
            classify_isolated: true,
            forest: ForestConfig { n_trees: 50, ..ForestConfig::default() },
            psi: 0.9,
            classifier_threshold: 0.6,
            parallelism: Parallelism::Auto,
        }
    }
}

impl RempConfig {
    /// Overrides µ.
    pub fn with_mu(mut self, mu: usize) -> Self {
        self.mu = mu;
        self
    }

    /// Overrides τ.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Overrides the question budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.max_questions = Some(budget);
        self
    }

    /// Disables the isolated-pair classifier (used by the propagation
    /// ablation, Table VI).
    pub fn without_classifier(mut self) -> Self {
        self.classify_isolated = false;
        self
    }

    /// Overrides the question-selection policy.
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the worker-pool policy (see [`RempConfig::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Checks every knob for consistency; [`crate::Remp::begin`] and
    /// checkpoint resume run this before touching any data.
    pub fn validate(&self) -> Result<(), RempError> {
        let invalid = |msg: String| Err(RempError::InvalidConfig(msg));
        let unit = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(RempError::InvalidConfig(format!("{name} = {v} must be within [0, 1]")))
            }
        };
        unit("label_sim_threshold", self.label_sim_threshold)?;
        unit("literal_threshold", self.literal_threshold)?;
        unit("psi", self.psi)?;
        unit("classifier_threshold", self.classifier_threshold)?;
        unit("truth.match_threshold", self.truth.match_threshold)?;
        unit("truth.non_match_threshold", self.truth.non_match_threshold)?;
        if !(self.tau > 0.0 && self.tau <= 1.0) {
            return invalid(format!("tau = {} must be within (0, 1]", self.tau));
        }
        if self.truth.non_match_threshold >= self.truth.match_threshold {
            return invalid(format!(
                "truth thresholds must satisfy non_match < match, got {} >= {}",
                self.truth.non_match_threshold, self.truth.match_threshold
            ));
        }
        if self.mu == 0 {
            return invalid("mu must be at least 1".into());
        }
        if self.knn_k == 0 {
            return invalid("knn_k must be at least 1".into());
        }
        if self.max_loops == 0 {
            return invalid("max_loops must be at least 1".into());
        }
        if self.forest.n_trees == 0 {
            return invalid("forest.n_trees must be at least 1".into());
        }
        if self.propagation.beam_width == 0 {
            return invalid("propagation.beam_width must be at least 1".into());
        }
        if self.propagation.max_candidates == 0 {
            return invalid("propagation.max_candidates must be at least 1".into());
        }
        if self.parallelism == Parallelism::Fixed(0) {
            return invalid(
                "parallelism = fixed:0 is meaningless; use `sequential` (or fixed:1)".into(),
            );
        }
        Ok(())
    }

    /// Encodes the configuration as a JSON value (checkpoint format).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label_sim_threshold".into(), Json::from(self.label_sim_threshold)),
            ("literal_threshold".into(), Json::from(self.literal_threshold)),
            ("knn_k".into(), Json::from(self.knn_k)),
            ("tau".into(), Json::from(self.tau)),
            ("mu".into(), Json::from(self.mu)),
            ("strategy".into(), Json::from(self.strategy.name())),
            ("max_questions".into(), self.max_questions.map_or(Json::Null, Json::from)),
            ("max_loops".into(), Json::from(self.max_loops)),
            (
                "attr".into(),
                Json::Obj(vec![
                    ("literal_threshold".into(), Json::from(self.attr.literal_threshold)),
                    ("min_similarity".into(), Json::from(self.attr.min_similarity)),
                    ("one_to_one".into(), Json::from(self.attr.one_to_one)),
                ]),
            ),
            (
                "truth".into(),
                Json::Obj(vec![
                    ("match_threshold".into(), Json::from(self.truth.match_threshold)),
                    ("non_match_threshold".into(), Json::from(self.truth.non_match_threshold)),
                ]),
            ),
            (
                "propagation".into(),
                Json::Obj(vec![
                    ("enumeration_budget".into(), Json::from(self.propagation.enumeration_budget)),
                    ("beam_width".into(), Json::from(self.propagation.beam_width)),
                    ("max_candidates".into(), Json::from(self.propagation.max_candidates)),
                ]),
            ),
            ("classify_isolated".into(), Json::from(self.classify_isolated)),
            (
                "forest".into(),
                Json::Obj(vec![
                    ("n_trees".into(), Json::from(self.forest.n_trees)),
                    ("seed".into(), Json::from(self.forest.seed)),
                    ("max_depth".into(), self.forest.tree.max_depth.map_or(Json::Null, Json::from)),
                    ("min_samples_split".into(), Json::from(self.forest.tree.min_samples_split)),
                    (
                        "max_features".into(),
                        self.forest.tree.max_features.map_or(Json::Null, Json::from),
                    ),
                ]),
            ),
            ("psi".into(), Json::from(self.psi)),
            ("classifier_threshold".into(), Json::from(self.classifier_threshold)),
            ("parallelism".into(), Json::Str(self.parallelism.label())),
        ])
    }

    /// Decodes a configuration from its JSON encoding.
    pub fn from_json(doc: &Json) -> Result<RempConfig, RempError> {
        let attr: &Json = doc.field("attr")?;
        let truth: &Json = doc.field("truth")?;
        let propagation: &Json = doc.field("propagation")?;
        let forest: &Json = doc.field("forest")?;

        let strategy_name = doc.field("strategy")?;
        let strategy = BatchStrategy::from_name(strategy_name).ok_or_else(|| {
            RempError::MalformedCheckpoint(format!("unknown strategy '{strategy_name}'"))
        })?;

        // Execution-only knob, absent from pre-parallelism checkpoints:
        // missing means the default policy, present must parse.
        let parallelism = match doc.opt_field("parallelism")? {
            None => Parallelism::default(),
            Some(raw) => Parallelism::from_label(raw).ok_or_else(|| {
                RempError::MalformedCheckpoint(format!("unknown parallelism '{raw}'"))
            })?,
        };

        Ok(RempConfig {
            label_sim_threshold: doc.field("label_sim_threshold")?,
            literal_threshold: doc.field("literal_threshold")?,
            knn_k: doc.field("knn_k")?,
            tau: doc.field("tau")?,
            mu: doc.field("mu")?,
            strategy,
            max_questions: doc.field("max_questions")?,
            max_loops: doc.field("max_loops")?,
            attr: AttrMatchConfig {
                literal_threshold: attr.field("literal_threshold")?,
                min_similarity: attr.field("min_similarity")?,
                one_to_one: attr.field("one_to_one")?,
            },
            truth: TruthConfig {
                match_threshold: truth.field("match_threshold")?,
                non_match_threshold: truth.field("non_match_threshold")?,
            },
            propagation: PropagationConfig {
                enumeration_budget: propagation.field("enumeration_budget")?,
                beam_width: propagation.field("beam_width")?,
                max_candidates: propagation.field("max_candidates")?,
            },
            classify_isolated: doc.field("classify_isolated")?,
            forest: ForestConfig {
                n_trees: forest.field("n_trees")?,
                seed: forest.field("seed")?,
                tree: TreeConfig {
                    max_depth: forest.field("max_depth")?,
                    min_samples_split: forest.field("min_samples_split")?,
                    max_features: forest.field("max_features")?,
                },
            },
            psi: doc.field("psi")?,
            classifier_threshold: doc.field("classifier_threshold")?,
            parallelism,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = RempConfig::default();
        assert_eq!(c.knn_k, 4);
        assert_eq!(c.mu, 10);
        assert!((c.tau - 0.9).abs() < 1e-12);
        assert!((c.label_sim_threshold - 0.3).abs() < 1e-12);
        assert!((c.truth.match_threshold - 0.8).abs() < 1e-12);
    }

    #[test]
    fn builders_override() {
        let c = RempConfig::default().with_mu(1).with_tau(0.8).with_budget(64);
        assert_eq!(c.mu, 1);
        assert!((c.tau - 0.8).abs() < 1e-12);
        assert_eq!(c.max_questions, Some(64));
        assert!(!RempConfig::default().without_classifier().classify_isolated);
        let c = RempConfig::default().with_strategy(BatchStrategy::MaxPr);
        assert_eq!(c.strategy, BatchStrategy::MaxPr);
    }

    #[test]
    fn default_config_validates() {
        RempConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_names_the_broken_knob() {
        let broken = [
            (RempConfig { tau: 0.0, ..RempConfig::default() }, "tau"),
            (RempConfig { tau: 1.5, ..RempConfig::default() }, "tau"),
            (RempConfig { mu: 0, ..RempConfig::default() }, "mu"),
            (RempConfig { knn_k: 0, ..RempConfig::default() }, "knn_k"),
            (RempConfig { max_loops: 0, ..RempConfig::default() }, "max_loops"),
            (RempConfig { label_sim_threshold: -0.1, ..RempConfig::default() }, "label_sim"),
            (RempConfig { psi: 7.0, ..RempConfig::default() }, "psi"),
            (
                RempConfig { parallelism: Parallelism::Fixed(0), ..RempConfig::default() },
                "parallelism",
            ),
        ];
        for (config, field) in broken {
            match config.validate() {
                Err(RempError::InvalidConfig(msg)) => {
                    assert!(msg.contains(field), "message {msg:?} should mention {field}")
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
        // Swapped truth thresholds are rejected too.
        let mut config = RempConfig::default();
        config.truth.non_match_threshold = 0.9;
        assert!(matches!(config.validate(), Err(RempError::InvalidConfig(_))));
    }

    #[test]
    fn json_round_trips_non_default_config() {
        let mut config = RempConfig::default()
            .with_mu(3)
            .with_tau(0.85)
            .with_budget(128)
            .with_strategy(BatchStrategy::MaxInf)
            .without_classifier();
        config.forest.tree.max_depth = Some(7);
        config.attr.one_to_one = false;
        let decoded = RempConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(decoded, config);

        let defaults = RempConfig::default();
        assert_eq!(RempConfig::from_json(&defaults.to_json()).unwrap(), defaults);
    }

    #[test]
    fn json_rejects_missing_fields() {
        let err = RempConfig::from_json(&Json::Obj(vec![])).unwrap_err();
        assert!(matches!(err, RempError::MalformedCheckpoint(_)));
    }

    #[test]
    fn parallelism_round_trips_and_defaults_when_absent() {
        let config = RempConfig::default().with_parallelism(Parallelism::Fixed(4));
        let decoded = RempConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(decoded, config);

        // Pre-parallelism checkpoints carry no such field: decode to the
        // default policy instead of failing.
        let mut doc = RempConfig::default().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(key, _)| key != "parallelism");
        }
        assert_eq!(RempConfig::from_json(&doc).unwrap().parallelism, Parallelism::Auto);

        // A present-but-bogus value is still an error.
        let mut doc = RempConfig::default().to_json();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "parallelism" {
                    *value = Json::Str("warp-speed".into());
                }
            }
        }
        assert!(matches!(RempConfig::from_json(&doc), Err(RempError::MalformedCheckpoint(_))));
    }
}
