//! Training loops and evaluation metrics for the benchmark models.

use crate::model::{Model, ModelKind, Task};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ranger_datasets::classification::ClassificationDataset;
use ranger_datasets::driving::{AngleUnit, DrivingDataset};
use ranger_graph::autodiff::{backward, mse_loss, softmax_cross_entropy, SgdOptimizer};
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::GraphError;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Number of training samples to generate.
    pub train_samples: usize,
    /// Number of validation samples to generate.
    pub validation_samples: usize,
}

impl TrainConfig {
    /// The default training recipe for a benchmark kind, tuned so each model trains in
    /// seconds-to-a-minute on a single CPU core while reaching high accuracy on its
    /// synthetic dataset.
    pub fn for_kind(kind: ModelKind) -> Self {
        match kind {
            ModelKind::LeNet => TrainConfig {
                epochs: 10,
                batch_size: 32,
                learning_rate: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                train_samples: 400,
                validation_samples: 200,
            },
            ModelKind::AlexNet | ModelKind::Vgg11 => TrainConfig {
                epochs: 20,
                batch_size: 32,
                learning_rate: 0.04,
                momentum: 0.9,
                weight_decay: 1e-4,
                train_samples: 400,
                validation_samples: 200,
            },
            ModelKind::Vgg16 | ModelKind::SqueezeNet => TrainConfig {
                epochs: 15,
                batch_size: 32,
                learning_rate: 0.04,
                momentum: 0.9,
                weight_decay: 1e-4,
                train_samples: 300,
                validation_samples: 150,
            },
            ModelKind::ResNet18 => TrainConfig {
                epochs: 10,
                batch_size: 32,
                learning_rate: 0.04,
                momentum: 0.9,
                weight_decay: 1e-4,
                train_samples: 300,
                validation_samples: 150,
            },
            ModelKind::Dave | ModelKind::Comma => TrainConfig {
                epochs: 12,
                batch_size: 32,
                learning_rate: 0.01,
                momentum: 0.9,
                weight_decay: 0.0,
                train_samples: 500,
                validation_samples: 200,
            },
        }
    }

    /// A much smaller recipe used by unit tests.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            train_samples: 80,
            validation_samples: 40,
        }
    }
}

/// Evaluation metrics of a trained model on its validation split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EvalMetrics {
    /// Classification accuracies (fractions in `[0, 1]`).
    Classification {
        /// Top-1 accuracy.
        top1: f64,
        /// Top-5 accuracy.
        top5: f64,
    },
    /// Steering regression metrics, both in degrees.
    Regression {
        /// Root-mean-square error of the predicted angle.
        rmse: f64,
        /// Mean absolute deviation per frame (the paper's "average deviation").
        mean_abs_deviation: f64,
    },
}

/// Trains a classifier in place and returns the per-epoch mean training loss.
///
/// # Errors
///
/// Returns a [`GraphError`] if a forward or backward pass fails.
pub fn train_classifier(
    model: &mut Model,
    data: &ClassificationDataset,
    cfg: &TrainConfig,
    seed: u64,
) -> Result<Vec<f32>, GraphError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt =
        SgdOptimizer::new(cfg.learning_rate, cfg.momentum, cfg.weight_decay).with_clip_norm(5.0);
    let mut history = Vec::with_capacity(cfg.epochs);
    let n = data.train.len();
    let mut indices: Vec<usize> = (0..n).collect();
    for epoch in 0..cfg.epochs {
        indices.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        // A simple step decay keeps the later epochs stable.
        opt.set_learning_rate(cfg.learning_rate * 0.8f32.powi(epoch as i32 / 3));
        for chunk in indices.chunks(cfg.batch_size) {
            let (batch, labels) = data.train_batch(chunk);
            // A fresh plan per step: `opt.step` below mutates the graph a plan borrows.
            let values = model
                .graph
                .compile()?
                .run(&[(model.input_name.as_str(), batch)], &mut NoopInterceptor)?;
            let logits = values.get(model.logits)?;
            let (loss, grad) = softmax_cross_entropy(logits, &labels)?;
            let grads = backward(&model.graph, &values, model.logits, &grad)?;
            opt.step(&mut model.graph, &grads)?;
            epoch_loss += loss;
            batches += 1;
        }
        history.push(epoch_loss / batches.max(1) as f32);
    }
    Ok(history)
}

/// Trains a steering-angle regressor in place and returns the per-epoch mean training
/// loss.
///
/// Degree-output models predict a normalized steering value internally (their output node
/// scales it to degrees), so training is performed at the logits against targets divided
/// by [`ranger_datasets::driving::MAX_ANGLE_DEGREES`]; the radian-output Dave model trains
/// directly at its bounded `2·atan` output. Both keep the loss and gradients well scaled.
///
/// # Errors
///
/// Returns a [`GraphError`] if a forward or backward pass fails.
pub fn train_regressor(
    model: &mut Model,
    data: &DrivingDataset,
    cfg: &TrainConfig,
    seed: u64,
) -> Result<Vec<f32>, GraphError> {
    let Task::Regression { unit } = model.task else {
        return Err(GraphError::UnsupportedBackward {
            op: "train_regressor on a classification model".to_string(),
        });
    };
    // Which node to fit, and how to map degree targets into that node's scale.
    let (fit_node, target_unit, target_scale) = match unit {
        AngleUnit::Radians => (model.output, AngleUnit::Radians, 1.0f32),
        AngleUnit::Degrees => (
            model.logits,
            AngleUnit::Degrees,
            1.0 / ranger_datasets::driving::MAX_ANGLE_DEGREES,
        ),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt =
        SgdOptimizer::new(cfg.learning_rate, cfg.momentum, cfg.weight_decay).with_clip_norm(5.0);
    let mut history = Vec::with_capacity(cfg.epochs);
    let n = data.train.len();
    let mut indices: Vec<usize> = (0..n).collect();
    for epoch in 0..cfg.epochs {
        indices.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        opt.set_learning_rate(cfg.learning_rate * 0.8f32.powi(epoch as i32 / 4));
        for chunk in indices.chunks(cfg.batch_size) {
            let (batch, targets) = data.train_batch(chunk, target_unit);
            let targets = targets.scale(target_scale);
            let values = model
                .graph
                .compile()?
                .run(&[(model.input_name.as_str(), batch)], &mut NoopInterceptor)?;
            let output = values.get(fit_node)?;
            let (loss, grad) = mse_loss(output, &targets)?;
            let grads = backward(&model.graph, &values, fit_node, &grad)?;
            opt.step(&mut model.graph, &grads)?;
            epoch_loss += loss;
            batches += 1;
        }
        history.push(epoch_loss / batches.max(1) as f32);
    }
    Ok(history)
}

/// Computes top-1 and top-5 validation accuracy of a classifier.
///
/// # Errors
///
/// Returns a [`GraphError`] if a forward pass fails.
pub fn classification_accuracy(
    model: &Model,
    data: &ClassificationDataset,
    use_validation: bool,
) -> Result<(f64, f64), GraphError> {
    let Task::Classification { num_classes } = model.task else {
        return Err(GraphError::UnsupportedBackward {
            op: "classification_accuracy on a regression model".to_string(),
        });
    };
    let samples = if use_validation {
        &data.validation
    } else {
        &data.train
    };
    if samples.is_empty() {
        return Ok((0.0, 0.0));
    }
    let mut top1 = 0usize;
    let mut top5 = 0usize;
    let indices: Vec<usize> = (0..samples.len()).collect();
    for chunk in indices.chunks(64) {
        let (batch, labels) = if use_validation {
            data.validation_batch(chunk)
        } else {
            data.train_batch(chunk)
        };
        let out = model.forward(&batch)?;
        for (row, &label) in chunk
            .iter()
            .zip(labels.iter())
            .enumerate()
            .map(|(i, (_, l))| (i, l))
        {
            let probs = &out.data()[row * num_classes..(row + 1) * num_classes];
            let mut order: Vec<usize> = (0..num_classes).collect();
            order.sort_by(|&a, &b| {
                probs[b]
                    .partial_cmp(&probs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if order[0] == label {
                top1 += 1;
            }
            if order.iter().take(5).any(|&c| c == label) {
                top5 += 1;
            }
        }
    }
    let n = samples.len() as f64;
    Ok((top1 as f64 / n, top5 as f64 / n))
}

/// Computes RMSE and mean absolute deviation (both in degrees) of a steering model.
///
/// # Errors
///
/// Returns a [`GraphError`] if a forward pass fails.
pub fn regression_metrics(
    model: &Model,
    data: &DrivingDataset,
    use_validation: bool,
) -> Result<(f64, f64), GraphError> {
    let samples = if use_validation {
        &data.validation
    } else {
        &data.train
    };
    if samples.is_empty() {
        return Ok((0.0, 0.0));
    }
    let mut predictions = Vec::with_capacity(samples.len());
    let mut targets = Vec::with_capacity(samples.len());
    let indices: Vec<usize> = (0..samples.len()).collect();
    for chunk in indices.chunks(64) {
        let (batch, target_deg) = if use_validation {
            data.validation_batch(chunk, AngleUnit::Degrees)
        } else {
            data.train_batch(chunk, AngleUnit::Degrees)
        };
        let pred_deg = model.predict_angles_degrees(&batch)?;
        predictions.extend(pred_deg.iter().map(|&p| p as f64));
        targets.extend(target_deg.data().iter().map(|&t| t as f64));
    }
    Ok((
        ranger_tensor::stats::rmse(&predictions, &targets),
        ranger_tensor::stats::mean_abs_deviation(&predictions, &targets),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archs;
    use crate::model::ModelConfig;
    use ranger_datasets::classification::ImageDomain;

    #[test]
    fn lenet_learns_the_synthetic_digits() {
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            train_samples: 150,
            validation_samples: 60,
        };
        let data = ClassificationDataset::generate(
            ImageDomain::Digits,
            cfg.train_samples,
            cfg.validation_samples,
            0,
        );
        let mut model = archs::build(&ModelConfig::lenet(), 0);
        let history = train_classifier(&mut model, &data, &cfg, 0).unwrap();
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss must decrease: {history:?}"
        );
        let (top1, top5) = classification_accuracy(&model, &data, true).unwrap();
        assert!(
            top1 > 0.5,
            "LeNet should learn the digits quickly, got top1 {top1}"
        );
        assert!(top5 >= top1);
    }

    #[test]
    fn comma_regressor_reduces_steering_error() {
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 16,
            learning_rate: 0.02,
            momentum: 0.9,
            weight_decay: 0.0,
            train_samples: 200,
            validation_samples: 80,
        };
        let data = DrivingDataset::generate(cfg.train_samples, cfg.validation_samples, 1);
        let mut model = archs::build(&ModelConfig::new(ModelKind::Comma), 1);
        let (rmse_before, _) = regression_metrics(&model, &data, true).unwrap();
        let history = train_regressor(&mut model, &data, &cfg, 1).unwrap();
        let (rmse_after, mad_after) = regression_metrics(&model, &data, true).unwrap();
        assert!(history.last().unwrap() < history.first().unwrap());
        assert!(
            rmse_after < rmse_before,
            "training should reduce RMSE: {rmse_before} -> {rmse_after}"
        );
        assert!(mad_after <= rmse_after + 1e-9);
    }

    #[test]
    fn accuracy_on_wrong_task_is_an_error() {
        let model = archs::build(&ModelConfig::new(ModelKind::Comma), 0);
        let data = ClassificationDataset::generate(ImageDomain::Digits, 4, 4, 0);
        assert!(classification_accuracy(&model, &data, true).is_err());
    }

    #[test]
    fn train_config_defaults_cover_all_kinds() {
        for kind in ModelKind::all() {
            let cfg = TrainConfig::for_kind(kind);
            assert!(cfg.epochs > 0 && cfg.batch_size > 0 && cfg.train_samples > 0);
        }
        assert!(
            TrainConfig::quick().train_samples
                < TrainConfig::for_kind(ModelKind::LeNet).train_samples
        );
    }
}
