//! The [`Model`] wrapper: a graph plus the metadata experiments need.

use ranger_datasets::classification::ImageDomain;
use ranger_datasets::driving::AngleUnit;
use ranger_graph::{Graph, GraphError, NodeId};
use ranger_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's eight DNN benchmarks a model replicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// LeNet on MNIST-like digits.
    LeNet,
    /// AlexNet on CIFAR-10-like object images.
    AlexNet,
    /// VGG11 on GTSRB-like traffic signs.
    Vgg11,
    /// VGG16 on ImageNet-like natural scenes.
    Vgg16,
    /// ResNet-18 on ImageNet-like natural scenes.
    ResNet18,
    /// SqueezeNet on ImageNet-like natural scenes.
    SqueezeNet,
    /// The Nvidia Dave steering model on the driving dataset.
    Dave,
    /// The Comma.ai steering model on the driving dataset.
    Comma,
}

impl ModelKind {
    /// All eight benchmark kinds in the order the paper lists them.
    pub fn all() -> [ModelKind; 8] {
        [
            ModelKind::LeNet,
            ModelKind::AlexNet,
            ModelKind::Vgg11,
            ModelKind::Vgg16,
            ModelKind::ResNet18,
            ModelKind::SqueezeNet,
            ModelKind::Dave,
            ModelKind::Comma,
        ]
    }

    /// The six classifier kinds.
    pub fn classifiers() -> [ModelKind; 6] {
        [
            ModelKind::LeNet,
            ModelKind::AlexNet,
            ModelKind::Vgg11,
            ModelKind::Vgg16,
            ModelKind::ResNet18,
            ModelKind::SqueezeNet,
        ]
    }

    /// The two steering (regression) kinds.
    pub fn steering() -> [ModelKind; 2] {
        [ModelKind::Dave, ModelKind::Comma]
    }

    /// Returns the synthetic image domain this model is trained on (classifiers only).
    pub fn image_domain(&self) -> Option<ImageDomain> {
        match self {
            ModelKind::LeNet => Some(ImageDomain::Digits),
            ModelKind::AlexNet => Some(ImageDomain::Objects),
            ModelKind::Vgg11 => Some(ImageDomain::TrafficSigns),
            ModelKind::Vgg16 | ModelKind::ResNet18 | ModelKind::SqueezeNet => {
                Some(ImageDomain::NaturalScenes)
            }
            ModelKind::Dave | ModelKind::Comma => None,
        }
    }

    /// Returns `true` for the two steering models.
    pub fn is_steering(&self) -> bool {
        matches!(self, ModelKind::Dave | ModelKind::Comma)
    }

    /// The display name used in the paper's tables and figures.
    pub fn paper_name(&self) -> &'static str {
        match self {
            ModelKind::LeNet => "LeNet",
            ModelKind::AlexNet => "AlexNet",
            ModelKind::Vgg11 => "VGG11",
            ModelKind::Vgg16 => "VGG16",
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::SqueezeNet => "SqueezeNet",
            ModelKind::Dave => "Dave",
            ModelKind::Comma => "Comma.ai",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    /// Parses the user-facing model names accepted across the CLI and the campaign
    /// service (case-insensitive, with the common aliases).
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_lowercase().as_str() {
            "lenet" => Ok(ModelKind::LeNet),
            "alexnet" => Ok(ModelKind::AlexNet),
            "vgg11" => Ok(ModelKind::Vgg11),
            "vgg16" => Ok(ModelKind::Vgg16),
            "resnet18" | "resnet-18" | "resnet" => Ok(ModelKind::ResNet18),
            "squeezenet" => Ok(ModelKind::SqueezeNet),
            "dave" => Ok(ModelKind::Dave),
            "comma" | "comma.ai" => Ok(ModelKind::Comma),
            other => Err(format!(
                "unknown model '{other}' (expected lenet, alexnet, vgg11, vgg16, \
                 resnet18, squeezenet, dave or comma)"
            )),
        }
    }
}

/// The activation function family a model is built with.
///
/// The default is ReLU (as in the paper's original models); `Tanh` reproduces the defence
/// of Hong et al. evaluated in Fig. 8, which replaces the unbounded ReLU with the
/// saturating Tanh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit (unbounded above).
    #[default]
    Relu,
    /// Hyperbolic tangent (inherently bounded in (-1, 1)).
    Tanh,
}

/// What a model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Task {
    /// Image classification over `num_classes` classes.
    Classification {
        /// Number of output classes.
        num_classes: usize,
    },
    /// Steering-angle regression, producing an angle in `unit`.
    Regression {
        /// The unit of the predicted angle.
        unit: AngleUnit,
    },
}

/// A complete model specification: which benchmark, with which activation family, and —
/// for the Dave model — which output unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// The benchmark architecture.
    pub kind: ModelKind,
    /// The activation family ([`Activation::Tanh`] reproduces the Hong et al. baseline).
    pub activation: Activation,
    /// Output unit for the steering models. The original Dave model outputs radians
    /// (through `2·atan`); the paper's retrained Dave and the Comma model output degrees.
    pub steering_unit: AngleUnit,
}

impl ModelConfig {
    /// Creates the default (paper-original) configuration for `kind`.
    pub fn new(kind: ModelKind) -> Self {
        let steering_unit = match kind {
            ModelKind::Dave => AngleUnit::Radians,
            _ => AngleUnit::Degrees,
        };
        ModelConfig {
            kind,
            activation: Activation::Relu,
            steering_unit,
        }
    }

    /// LeNet with the paper's original configuration.
    pub fn lenet() -> Self {
        Self::new(ModelKind::LeNet)
    }

    /// Returns a copy of this configuration using the Tanh activation family (the Hong et
    /// al. baseline architecture of Fig. 8).
    pub fn with_tanh(mut self) -> Self {
        self.activation = Activation::Tanh;
        self
    }

    /// Returns a copy of this configuration whose steering output unit is `unit`
    /// (meaningful for [`ModelKind::Dave`]; the paper's Section VI retrains Dave to output
    /// degrees).
    pub fn with_steering_unit(mut self, unit: AngleUnit) -> Self {
        self.steering_unit = unit;
        self
    }

    /// A short, filesystem-safe identifier used by the model zoo cache.
    pub fn cache_key(&self) -> String {
        let act = match self.activation {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
        };
        let unit = match self.steering_unit {
            AngleUnit::Degrees => "deg",
            AngleUnit::Radians => "rad",
        };
        format!("{:?}_{act}_{unit}", self.kind).to_lowercase()
    }
}

/// A DNN benchmark: the dataflow graph plus the metadata experiments need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Model {
    /// The configuration this model was built from.
    pub config: ModelConfig,
    /// The dataflow graph (weights live in its constant nodes).
    pub graph: Graph,
    /// Name of the graph input placeholder to feed images into.
    pub input_name: String,
    /// The pre-output node (logits for classifiers, last fully-connected output for the
    /// steering models).
    pub logits: NodeId,
    /// The final output node (softmax probabilities or the steering angle).
    pub output: NodeId,
    /// The task this model solves.
    pub task: Task,
    /// Nodes excluded from fault injection: the last fully-connected layer and everything
    /// downstream of it. The paper excludes the last FC layer because its values feed the
    /// output directly and range restriction there cannot help; it accounts for a
    /// negligible fraction of the injection state space and can be protected by
    /// duplication instead.
    pub excluded_from_injection: Vec<NodeId>,
}

impl Model {
    /// Runs a forward pass on `batch` and returns the final output tensor.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if execution fails.
    pub fn forward(&self, batch: &Tensor) -> Result<Tensor, GraphError> {
        self.graph
            .compile()?
            .run_simple(&[(self.input_name.as_str(), batch.clone())], self.output)
    }

    /// Returns the predicted class index for every row of `batch` (classifiers only).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if execution fails.
    ///
    /// # Panics
    ///
    /// Panics if called on a regression model.
    pub fn predict_classes(&self, batch: &Tensor) -> Result<Vec<usize>, GraphError> {
        Ok(self.classes_of(&self.forward(batch)?))
    }

    /// The predicted class index for every row of `out`, an output this classifier
    /// computed.
    ///
    /// # Panics
    ///
    /// Panics if called on a regression model.
    pub fn classes_of(&self, out: &Tensor) -> Vec<usize> {
        let Task::Classification { num_classes } = self.task else {
            panic!("predict_classes called on a regression model");
        };
        let n = out.dims()[0];
        let mut preds = Vec::with_capacity(n);
        for i in 0..n {
            let row = &out.data()[i * num_classes..(i + 1) * num_classes];
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(idx, _)| idx)
                .unwrap_or(0);
            preds.push(argmax);
        }
        preds
    }

    /// Returns the predicted steering angles in degrees for every row of `batch`
    /// (steering models only).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if execution fails.
    ///
    /// # Panics
    ///
    /// Panics if called on a classification model.
    pub fn predict_angles_degrees(&self, batch: &Tensor) -> Result<Vec<f32>, GraphError> {
        Ok(self.angles_degrees_of(&self.forward(batch)?))
    }

    /// The predicted steering angle in degrees for every row of `out`, an output this
    /// steering model computed.
    ///
    /// # Panics
    ///
    /// Panics if called on a classification model.
    pub fn angles_degrees_of(&self, out: &Tensor) -> Vec<f32> {
        let Task::Regression { unit } = self.task else {
            panic!("predict_angles_degrees called on a classification model");
        };
        out.data().iter().map(|&v| unit.to_degrees(v)).collect()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.graph.parameter_count()
    }

    /// Number of activation (ACT) operations in the graph — the quantity the memory
    /// overhead of Ranger's stored restriction bounds is proportional to.
    pub fn activation_count(&self) -> usize {
        self.graph
            .nodes()
            .iter()
            .filter(|n| n.op.is_activation())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_partitions() {
        assert_eq!(ModelKind::all().len(), 8);
        assert_eq!(ModelKind::classifiers().len(), 6);
        assert_eq!(ModelKind::steering().len(), 2);
        for k in ModelKind::classifiers() {
            assert!(!k.is_steering());
            assert!(k.image_domain().is_some());
        }
        for k in ModelKind::steering() {
            assert!(k.is_steering());
            assert!(k.image_domain().is_none());
        }
    }

    #[test]
    fn default_config_uses_radians_only_for_dave() {
        assert_eq!(
            ModelConfig::new(ModelKind::Dave).steering_unit,
            AngleUnit::Radians
        );
        assert_eq!(
            ModelConfig::new(ModelKind::Comma).steering_unit,
            AngleUnit::Degrees
        );
        assert_eq!(
            ModelConfig::new(ModelKind::LeNet).activation,
            Activation::Relu
        );
    }

    #[test]
    fn cache_keys_distinguish_variants() {
        let base = ModelConfig::new(ModelKind::Dave);
        let tanh = base.with_tanh();
        let degrees = base.with_steering_unit(AngleUnit::Degrees);
        assert_ne!(base.cache_key(), tanh.cache_key());
        assert_ne!(base.cache_key(), degrees.cache_key());
        assert!(base.cache_key().contains("dave"));
    }

    #[test]
    fn paper_names_are_stable() {
        assert_eq!(ModelKind::Vgg16.paper_name(), "VGG16");
        assert_eq!(ModelKind::Comma.to_string(), "Comma.ai");
    }
}
