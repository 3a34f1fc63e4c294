//! The benchmark's model cache: each model is trained once with the quick recipe and a
//! fixed seed, so every run measures the same weights whatever its `--seed`.

use ranger_models::zoo::{ModelZoo, TrainedModel};
use ranger_models::{ModelConfig, ModelKind, TrainConfig};
use std::path::{Path, PathBuf};

/// The seed every benchmark model is trained from.
pub const MODEL_SEED: u64 = 1;

/// A directory of quick-trained models, read through [`ModelZoo`].
///
/// The zoo trains with the full recipe on a miss, so [`QuickModels::ensure`] must fill
/// an entry before [`QuickModels::load`] reads it.
#[derive(Debug, Clone)]
pub struct QuickModels {
    dir: PathBuf,
}

impl QuickModels {
    /// A cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        QuickModels { dir: dir.into() }
    }

    fn path(&self, kind: ModelKind) -> PathBuf {
        // The file name the zoo reads for `(config, MODEL_SEED)`.
        self.dir.join(format!(
            "{}_{MODEL_SEED}.json",
            ModelConfig::new(kind).cache_key()
        ))
    }

    /// Makes sure a readable entry for `kind` exists, training it with the quick recipe
    /// when the entry is missing or unreadable. Returns the seconds spent training
    /// (0 on a hit).
    ///
    /// # Errors
    ///
    /// Returns a message if training fails or the entry cannot be written.
    pub fn ensure(&self, kind: ModelKind) -> Result<f64, String> {
        let path = self.path(kind);
        let readable = std::fs::read_to_string(&path)
            .ok()
            .is_some_and(|text| serde_json::from_str::<TrainedModel>(&text).is_ok());
        if readable {
            return Ok(0.0);
        }
        let trained = ModelZoo::new(&self.dir)
            .train_with(&ModelConfig::new(kind), &TrainConfig::quick(), MODEL_SEED)
            .map_err(|e| format!("training {kind:?}: {e}"))?;
        let text =
            serde_json::to_string(&trained).map_err(|e| format!("encoding {kind:?}: {e}"))?;
        write_atomically(&path, &text).map_err(|e| format!("caching {}: {e}", path.display()))?;
        Ok(trained.train_seconds)
    }

    /// Loads `kind` from the cache through the model zoo.
    ///
    /// # Errors
    ///
    /// Returns a message if the zoo cannot produce the model.
    pub fn load(&self, kind: ModelKind) -> Result<TrainedModel, String> {
        ModelZoo::new(&self.dir)
            .load_or_train(&ModelConfig::new(kind), MODEL_SEED)
            .map_err(|e| format!("loading {kind:?}: {e}"))
    }
}

/// Writes through a temporary file and a rename, so concurrent runs never read a torn
/// entry.
fn write_atomically(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unreadable_entry_is_retrained() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".out")
            .join(format!("models-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = QuickModels::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.path(ModelKind::LeNet), "not json").unwrap();
        assert!(cache.ensure(ModelKind::LeNet).unwrap() > 0.0);
        assert_eq!(cache.ensure(ModelKind::LeNet).unwrap(), 0.0);
        assert_eq!(cache.load(ModelKind::LeNet).unwrap().seed, MODEL_SEED);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
