//! A disk-backed cache of trained benchmark models.
//!
//! Fault-injection campaigns, accuracy studies and overhead measurements all need the same
//! trained models; training them once and caching the weights keeps the experiment
//! binaries fast and deterministic. The cache key encodes the model configuration and the
//! seed, so variants (Tanh activations for the Hong et al. baseline, the degree-output
//! Dave model) are cached independently.

use crate::archs;
use crate::model::{Model, ModelConfig, ModelKind};
use crate::train::{
    classification_accuracy, regression_metrics, train_classifier, train_regressor, EvalMetrics,
    TrainConfig,
};
use ranger_datasets::classification::ClassificationDataset;
use ranger_datasets::driving::DrivingDataset;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Errors produced by the model zoo.
#[derive(Debug)]
pub enum ZooError {
    /// Training or evaluation failed.
    Graph(ranger_graph::GraphError),
    /// Reading or writing the cache failed.
    Io(std::io::Error),
    /// A cached entry could not be decoded.
    Corrupt(String),
    /// The seed exceeds 2^53 − 1: a cache entry records it as a JSON number, which
    /// cannot carry it exactly, so the entry could never be read back.
    InvalidSeed(u64),
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::Graph(e) => write!(f, "training failed: {e}"),
            ZooError::Io(e) => write!(f, "model zoo I/O error: {e}"),
            ZooError::Corrupt(path) => write!(f, "corrupt model zoo entry at {path}"),
            ZooError::InvalidSeed(seed) => write!(
                f,
                "model seed {seed} exceeds 2^53 - 1: a zoo entry stores it as a JSON \
                 number, which cannot carry it exactly"
            ),
        }
    }
}

impl std::error::Error for ZooError {}

impl From<ranger_graph::GraphError> for ZooError {
    fn from(e: ranger_graph::GraphError) -> Self {
        ZooError::Graph(e)
    }
}

impl From<std::io::Error> for ZooError {
    fn from(e: std::io::Error) -> Self {
        ZooError::Io(e)
    }
}

/// A trained model together with its validation metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The trained model (weights stored in the graph's constant nodes).
    pub model: Model,
    /// Validation metrics in the paper's units.
    pub metrics: EvalMetrics,
    /// A scalar "accuracy" convenient for quick checks: top-1 accuracy for classifiers,
    /// the fraction of validation frames predicted within 15° for steering models.
    pub validation_accuracy: f64,
    /// Wall-clock seconds spent training (0 when loaded from the cache).
    pub train_seconds: f64,
    /// The seed the model, dataset and training run were derived from.
    pub seed: u64,
}

/// A disk-backed store of trained models keyed by configuration and seed.
#[derive(Debug, Clone)]
pub struct ModelZoo {
    dir: PathBuf,
}

impl ModelZoo {
    /// Creates a zoo rooted at `dir` (created on demand).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ModelZoo { dir: dir.into() }
    }

    /// Creates a zoo in the default location: `$RANGER_ZOO_DIR` if set, otherwise
    /// `<workspace>/target/ranger-model-zoo`.
    pub fn with_default_dir() -> Self {
        let dir = std::env::var_os("RANGER_ZOO_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/ranger-model-zoo")
            });
        ModelZoo::new(dir)
    }

    /// The directory models are cached in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cache_path(&self, config: &ModelConfig, seed: u64) -> PathBuf {
        self.dir.join(format!("{}_{seed}.json", config.cache_key()))
    }

    /// Generates the standard classification dataset used to train and evaluate `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a steering model.
    pub fn classification_data(kind: ModelKind, seed: u64) -> ClassificationDataset {
        let domain = kind
            .image_domain()
            .expect("classification_data called for a steering model");
        let cfg = TrainConfig::for_kind(kind);
        ClassificationDataset::generate(domain, cfg.train_samples, cfg.validation_samples, seed)
    }

    /// Generates the standard driving dataset used to train and evaluate the steering
    /// models.
    pub fn driving_data(seed: u64) -> DrivingDataset {
        let cfg = TrainConfig::for_kind(ModelKind::Dave);
        DrivingDataset::generate(cfg.train_samples, cfg.validation_samples, seed)
    }

    /// Loads the trained model for `(config, seed)` from the cache, training and caching
    /// it first if necessary.
    ///
    /// # Errors
    ///
    /// Returns [`ZooError::InvalidSeed`] for a seed above 2^53 − 1 (before reading or
    /// training anything), or a [`ZooError`] if training fails or the cache cannot be
    /// read or written.
    pub fn load_or_train(&self, config: &ModelConfig, seed: u64) -> Result<TrainedModel, ZooError> {
        check_seed(seed)?;
        let path = self.cache_path(config, seed);
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            match serde_json::from_str::<TrainedModel>(&text) {
                Ok(entry) => return Ok(entry),
                Err(_) => {
                    // A corrupt or stale entry is not fatal: retrain and overwrite it.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        let trained = self.train(config, seed)?;
        std::fs::create_dir_all(&self.dir)?;
        let text = serde_json::to_string(&trained)
            .map_err(|e| ZooError::Corrupt(format!("{}: {e}", path.display())))?;
        std::fs::write(&path, text)?;
        Ok(trained)
    }

    /// Trains a model from scratch with the default recipe for its kind (no caching).
    ///
    /// # Errors
    ///
    /// Returns a [`ZooError`] if a forward/backward pass fails.
    pub fn train(&self, config: &ModelConfig, seed: u64) -> Result<TrainedModel, ZooError> {
        self.train_with(config, &TrainConfig::for_kind(config.kind), seed)
    }

    /// Trains a model from scratch with an explicit recipe (no caching).
    ///
    /// # Errors
    ///
    /// Returns [`ZooError::InvalidSeed`] for a seed above 2^53 − 1 (the trained model
    /// could not be cached), or a [`ZooError`] if a forward/backward pass fails.
    pub fn train_with(
        &self,
        config: &ModelConfig,
        cfg: &TrainConfig,
        seed: u64,
    ) -> Result<TrainedModel, ZooError> {
        check_seed(seed)?;
        let mut model = archs::build(config, seed);
        let start = Instant::now();
        let (metrics, validation_accuracy) = if config.kind.is_steering() {
            let data = DrivingDataset::generate(cfg.train_samples, cfg.validation_samples, seed);
            train_regressor(&mut model, &data, cfg, seed)?;
            let (rmse, mad) = regression_metrics(&model, &data, true)?;
            let within_15 = fraction_within_degrees(&model, &data, 15.0)?;
            (
                EvalMetrics::Regression {
                    rmse,
                    mean_abs_deviation: mad,
                },
                within_15,
            )
        } else {
            let domain = config.kind.image_domain().expect("classifier has a domain");
            let data = ClassificationDataset::generate(
                domain,
                cfg.train_samples,
                cfg.validation_samples,
                seed,
            );
            train_classifier(&mut model, &data, cfg, seed)?;
            let (top1, top5) = classification_accuracy(&model, &data, true)?;
            (EvalMetrics::Classification { top1, top5 }, top1)
        };
        Ok(TrainedModel {
            model,
            metrics,
            validation_accuracy,
            train_seconds: start.elapsed().as_secs_f64(),
            seed,
        })
    }
}

/// Refuses a seed a zoo entry could not record exactly.
fn check_seed(seed: u64) -> Result<(), ZooError> {
    if seed > serde::MAX_EXACT_INTEGER as u64 {
        return Err(ZooError::InvalidSeed(seed));
    }
    Ok(())
}

/// Fraction of validation frames whose predicted steering angle is within `threshold`
/// degrees of the ground truth.
fn fraction_within_degrees(
    model: &Model,
    data: &DrivingDataset,
    threshold: f64,
) -> Result<f64, ranger_graph::GraphError> {
    if data.validation.is_empty() {
        return Ok(0.0);
    }
    let indices: Vec<usize> = (0..data.validation.len()).collect();
    let mut within = 0usize;
    for chunk in indices.chunks(64) {
        let (batch, targets) =
            data.validation_batch(chunk, ranger_datasets::driving::AngleUnit::Degrees);
        let preds = model.predict_angles_degrees(&batch)?;
        for (p, t) in preds.iter().zip(targets.data()) {
            if ((*p - *t).abs() as f64) <= threshold {
                within += 1;
            }
        }
    }
    Ok(within as f64 / data.validation.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    fn temp_zoo(tag: &str) -> ModelZoo {
        let dir =
            std::env::temp_dir().join(format!("ranger-zoo-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelZoo::new(dir)
    }

    #[test]
    fn cache_round_trip_reproduces_the_model() {
        let zoo = temp_zoo("roundtrip");
        let cfg = ModelConfig::lenet();
        let quick = TrainConfig::quick();
        // Train explicitly with the quick recipe, cache manually through load_or_train's
        // path by writing with the same key the zoo would use.
        let trained = zoo.train_with(&cfg, &quick, 3).unwrap();
        std::fs::create_dir_all(zoo.dir()).unwrap();
        std::fs::write(
            zoo.dir().join(format!("{}_3.json", cfg.cache_key())),
            serde_json::to_string(&trained).unwrap(),
        )
        .unwrap();
        let loaded = zoo.load_or_train(&cfg, 3).unwrap();
        assert_eq!(loaded.model.graph, trained.model.graph);
        assert_eq!(loaded.seed, 3);
        let _ = std::fs::remove_dir_all(zoo.dir());
    }

    /// 2^53 − 1 round-trips through a cache entry; 2^53 is refused by both entry points
    /// before anything is trained or written.
    #[test]
    fn seeds_above_the_exact_json_range_are_refused() {
        let zoo = temp_zoo("seeds");
        let cfg = ModelConfig::lenet();
        let tiny = TrainConfig {
            epochs: 1,
            train_samples: 8,
            validation_samples: 4,
            ..TrainConfig::quick()
        };
        let largest = (1u64 << 53) - 1;
        let trained = zoo.train_with(&cfg, &tiny, largest).unwrap();
        std::fs::create_dir_all(zoo.dir()).unwrap();
        std::fs::write(
            zoo.dir()
                .join(format!("{}_{largest}.json", cfg.cache_key())),
            serde_json::to_string(&trained).unwrap(),
        )
        .unwrap();
        let loaded = zoo.load_or_train(&cfg, largest).unwrap();
        assert_eq!(loaded.seed, largest);
        assert_eq!(loaded.model.graph, trained.model.graph);

        for seed in [1u64 << 53, (1 << 53) + 1, u64::MAX] {
            assert!(matches!(
                zoo.train_with(&cfg, &tiny, seed),
                Err(ZooError::InvalidSeed(s)) if s == seed
            ));
            let err = zoo.load_or_train(&cfg, seed).unwrap_err();
            assert!(matches!(err, ZooError::InvalidSeed(s) if s == seed));
            assert!(err.to_string().contains("2^53 - 1"), "{err}");
        }
        let entries = std::fs::read_dir(zoo.dir()).unwrap().count();
        assert_eq!(entries, 1, "a refused seed must write no cache entry");
        let _ = std::fs::remove_dir_all(zoo.dir());
    }

    #[test]
    fn corrupt_cache_entries_are_retrained() {
        let zoo = temp_zoo("corrupt");
        let cfg = ModelConfig::lenet();
        std::fs::create_dir_all(zoo.dir()).unwrap();
        let path = zoo.dir().join(format!("{}_9.json", cfg.cache_key()));
        std::fs::write(&path, "not json").unwrap();
        // load_or_train would retrain with the full recipe, which is slow for a unit test;
        // verify the corrupt file is detected by attempting a parse the same way.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(serde_json::from_str::<TrainedModel>(&text).is_err());
        let _ = std::fs::remove_dir_all(zoo.dir());
    }

    #[test]
    fn dataset_helpers_match_training_recipes() {
        let data = ModelZoo::classification_data(ModelKind::LeNet, 1);
        let cfg = TrainConfig::for_kind(ModelKind::LeNet);
        assert_eq!(data.train.len(), cfg.train_samples);
        assert_eq!(data.validation.len(), cfg.validation_samples);
        let driving = ModelZoo::driving_data(1);
        assert_eq!(
            driving.train.len(),
            TrainConfig::for_kind(ModelKind::Dave).train_samples
        );
    }

    #[test]
    fn default_dir_respects_env_override() {
        let zoo = ModelZoo::with_default_dir();
        assert!(!zoo.dir().as_os_str().is_empty());
    }
}
