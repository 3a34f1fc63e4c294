//! Dataset plumbing shared by every experiment: profiling-sample selection, the paper's
//! correctly-predicted-input selection, and task-appropriate SDC judges.
//!
//! These helpers used to live in `ranger-bench`, duplicated in spirit by the CLI; they now
//! live here so the [`Pipeline`](crate::Pipeline), the bench binaries and the CLI all pull
//! inputs the same way (which is what makes their campaign results comparable seed-for-
//! seed).

use ranger_datasets::classification::ClassificationDataset;
use ranger_datasets::driving::{AngleUnit, DrivingDataset};
use ranger_graph::exec::{NoopInterceptor, Values};
use ranger_graph::{ExecPlan, GraphError};
use ranger_inject::{ClassifierJudge, SdcJudge, SteeringJudge};
use ranger_models::{Model, ModelKind, Task, TrainConfig};
use ranger_tensor::Tensor;

/// Regenerates the classification dataset a model trained with `recipe` actually saw.
fn classification_data_for(
    kind: ModelKind,
    recipe: &TrainConfig,
    seed: u64,
) -> ClassificationDataset {
    let domain = kind
        .image_domain()
        .expect("classification data requested for a steering model");
    ClassificationDataset::generate(
        domain,
        recipe.train_samples,
        recipe.validation_samples,
        seed,
    )
}

/// Regenerates the driving dataset a steering model trained with `recipe` actually saw.
fn driving_data_for(recipe: &TrainConfig, seed: u64) -> DrivingDataset {
    DrivingDataset::generate(recipe.train_samples, recipe.validation_samples, seed)
}

/// Returns profiling samples for bound derivation: a fraction (the paper uses 20%) of the
/// model's training set, each as a single-sample batch. Uses the kind's default training
/// recipe; models trained with a custom recipe should use [`profiling_samples_for`] so the
/// profiled data matches what the model actually saw.
pub fn profiling_samples(kind: ModelKind, seed: u64, fraction: f64) -> Vec<Tensor> {
    profiling_samples_for(kind, seed, fraction, &TrainConfig::for_kind(kind))
}

/// [`profiling_samples`] over the dataset generated by an explicit training recipe.
pub fn profiling_samples_for(
    kind: ModelKind,
    seed: u64,
    fraction: f64,
    recipe: &TrainConfig,
) -> Vec<Tensor> {
    let fraction = fraction.clamp(0.01, 1.0);
    if kind.is_steering() {
        let data = driving_data_for(recipe, seed);
        let n = ((data.train.len() as f64) * fraction).ceil() as usize;
        (0..n.min(data.train.len()))
            .map(|i| data.train_batch(&[i], AngleUnit::Degrees).0)
            .collect()
    } else {
        let data = classification_data_for(kind, recipe, seed);
        let n = ((data.train.len() as f64) * fraction).ceil() as usize;
        (0..n.min(data.train.len()))
            .map(|i| data.train_batch(&[i]).0)
            .collect()
    }
}

/// Selects up to `n` validation images the classifier predicts correctly in the absence of
/// faults (the paper only injects into correctly-predicted inputs). Falls back to
/// arbitrary validation images if fewer than `n` are predicted correctly.
///
/// # Errors
///
/// Returns a [`ranger_graph::GraphError`] if a forward pass fails.
pub fn correct_classifier_inputs(
    model: &Model,
    seed: u64,
    n: usize,
) -> Result<Vec<Tensor>, ranger_graph::GraphError> {
    correct_classifier_inputs_for(model, seed, n, &TrainConfig::for_kind(model.config.kind))
}

/// [`correct_classifier_inputs`] over the validation set generated by an explicit
/// training recipe.
///
/// # Errors
///
/// Returns a [`ranger_graph::GraphError`] if a forward pass fails.
pub fn correct_classifier_inputs_for(
    model: &Model,
    seed: u64,
    n: usize,
    recipe: &TrainConfig,
) -> Result<Vec<Tensor>, ranger_graph::GraphError> {
    let data = classification_data_for(model.config.kind, recipe, seed);
    let mut chosen = Vec::new();
    let mut fallback = Vec::new();
    let mut scan = Scan::new(model)?;
    for i in 0..data.validation.len() {
        if chosen.len() >= n {
            break;
        }
        let (batch, labels) = data.validation_batch(&[i]);
        let (batch, out) = scan.run(batch)?;
        if model.classes_of(out)[0] == labels[0] {
            chosen.push(batch);
        } else if fallback.len() < n {
            fallback.push(batch);
        }
    }
    while chosen.len() < n && !fallback.is_empty() {
        chosen.push(fallback.remove(0));
    }
    Ok(chosen)
}

/// The forward passes of one input-selection scan: one compiled plan on the reference
/// backend and one reused store, so every sample's prediction is bit for bit the
/// model's `predict_*` while no pass compiles or allocates a store of its own.
struct Scan<'m> {
    model: &'m Model,
    plan: ExecPlan<'m>,
    values: Values,
}

impl<'m> Scan<'m> {
    fn new(model: &'m Model) -> Result<Self, GraphError> {
        let plan = model.graph.compile()?;
        let values = plan.buffers();
        Ok(Scan {
            model,
            plan,
            values,
        })
    }

    /// Runs `batch` and returns it with the model's output.
    fn run(&mut self, batch: Tensor) -> Result<(Tensor, &Tensor), GraphError> {
        let feeds = [(self.model.input_name.as_str(), batch)];
        self.plan
            .run_into(&mut self.values, &feeds, &mut NoopInterceptor)?;
        let [(_, batch)] = feeds;
        Ok((batch, self.values.get(self.model.output)?))
    }
}

/// Selects up to `n` validation frames the steering model predicts within
/// `tolerance_degrees` of the ground truth, falling back to arbitrary frames.
///
/// # Errors
///
/// Returns a [`ranger_graph::GraphError`] if a forward pass fails.
pub fn correct_steering_inputs(
    model: &Model,
    seed: u64,
    n: usize,
    tolerance_degrees: f32,
) -> Result<Vec<Tensor>, ranger_graph::GraphError> {
    correct_steering_inputs_for(
        model,
        seed,
        n,
        tolerance_degrees,
        &TrainConfig::for_kind(model.config.kind),
    )
}

/// [`correct_steering_inputs`] over the validation set generated by an explicit training
/// recipe.
///
/// # Errors
///
/// Returns a [`ranger_graph::GraphError`] if a forward pass fails.
pub fn correct_steering_inputs_for(
    model: &Model,
    seed: u64,
    n: usize,
    tolerance_degrees: f32,
    recipe: &TrainConfig,
) -> Result<Vec<Tensor>, ranger_graph::GraphError> {
    let data = driving_data_for(recipe, seed);
    let mut chosen = Vec::new();
    let mut fallback = Vec::new();
    let mut scan = Scan::new(model)?;
    for i in 0..data.validation.len() {
        if chosen.len() >= n {
            break;
        }
        let (batch, target) = data.validation_batch(&[i], AngleUnit::Degrees);
        let (batch, out) = scan.run(batch)?;
        let pred = model.angles_degrees_of(out);
        if (pred[0] - target.data()[0]).abs() <= tolerance_degrees {
            chosen.push(batch);
        } else if fallback.len() < n {
            fallback.push(batch);
        }
    }
    while chosen.len() < n && !fallback.is_empty() {
        chosen.push(fallback.remove(0));
    }
    Ok(chosen)
}

/// Returns `true` if the model predicts steering angles in radians (used to configure the
/// steering SDC judge).
pub fn outputs_radians(model: &Model) -> bool {
    matches!(
        model.task,
        Task::Regression {
            unit: AngleUnit::Radians
        }
    )
}

/// Which SDC criterion a pipeline campaign judges outcomes by.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum JudgeSpec {
    /// The paper's defaults: top-1 (plus top-5 for the ImageNet-domain classifiers) for
    /// classification, the 15°/30°/60°/120° thresholds for steering.
    #[default]
    Auto,
    /// Top-k misclassification for the given list of `k`s.
    TopK(Vec<usize>),
    /// Steering-deviation thresholds in degrees.
    SteeringDegrees(Vec<f64>),
}

impl JudgeSpec {
    /// Builds the judge for `model` according to this spec.
    pub fn build(&self, model: &Model) -> Box<dyn SdcJudge> {
        use ranger_datasets::classification::ImageDomain;
        match self {
            JudgeSpec::TopK(ks) => Box::new(ClassifierJudge::new(ks.clone())),
            JudgeSpec::SteeringDegrees(thresholds) => Box::new(SteeringJudge::new(
                thresholds.clone(),
                outputs_radians(model),
            )),
            JudgeSpec::Auto => match model.task {
                Task::Classification { .. } => {
                    if model.config.kind.image_domain() == Some(ImageDomain::NaturalScenes) {
                        Box::new(ClassifierJudge::top1_and_top5())
                    } else {
                        Box::new(ClassifierJudge::top1())
                    }
                }
                Task::Regression { .. } => {
                    Box::new(SteeringJudge::paper_thresholds(outputs_radians(model)))
                }
            },
        }
    }
}

/// A canonical all-ones input tensor of the model's expected shape (used for
/// shape-dependent accounting such as FLOPs overhead).
pub fn canonical_input(model: &Model) -> Tensor {
    match model.config.kind.image_domain() {
        Some(domain) => {
            let (c, h, w) = domain.image_shape();
            Tensor::ones(vec![1, c, h, w])
        }
        None => {
            let (c, h, w) = ranger_datasets::driving::FRAME_SHAPE;
            Tensor::ones(vec![1, c, h, w])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranger_models::{archs, ModelConfig};

    #[test]
    fn profiling_fraction_scales_sample_count() {
        let fifth = profiling_samples(ModelKind::LeNet, 1, 0.2);
        let tenth = profiling_samples(ModelKind::LeNet, 1, 0.1);
        let full = profiling_samples(ModelKind::LeNet, 1, 1.0);
        assert!(tenth.len() < fifth.len());
        assert!(fifth.len() < full.len());
        let expected = (ranger_models::TrainConfig::for_kind(ModelKind::LeNet).train_samples as f64
            * 0.2)
            .ceil() as usize;
        assert_eq!(fifth.len(), expected);
        // Degenerate fractions clamp instead of panicking.
        assert!(!profiling_samples(ModelKind::LeNet, 1, 0.0).is_empty());
        assert_eq!(
            profiling_samples(ModelKind::LeNet, 1, 2.0).len(),
            full.len()
        );
    }

    #[test]
    fn auto_judge_matches_task() {
        let lenet = archs::build(&ModelConfig::lenet(), 0);
        assert_eq!(JudgeSpec::Auto.build(&lenet).categories(), vec!["top-1"]);
        let vgg16 = archs::build(&ModelConfig::new(ModelKind::Vgg16), 0);
        assert_eq!(
            JudgeSpec::Auto.build(&vgg16).categories(),
            vec!["top-1", "top-5"]
        );
        let dave = archs::build(&ModelConfig::new(ModelKind::Dave), 0);
        assert_eq!(JudgeSpec::Auto.build(&dave).categories().len(), 4);
        assert!(outputs_radians(&dave));
    }

    #[test]
    fn explicit_judges_override_auto() {
        let lenet = archs::build(&ModelConfig::lenet(), 0);
        let judge = JudgeSpec::TopK(vec![1, 3]).build(&lenet);
        assert_eq!(judge.categories(), vec!["top-1", "top-3"]);
        let comma = archs::build(&ModelConfig::new(ModelKind::Comma), 0);
        let judge = JudgeSpec::SteeringDegrees(vec![10.0]).build(&comma);
        assert_eq!(judge.categories(), vec!["threshold-10"]);
    }

    /// The selection of one plan and one store is the selection of the per-sample
    /// `predict_*` loop, input for input and bit for bit.
    #[test]
    fn input_selection_matches_the_per_sample_predict_loop() {
        fn per_sample<P: Fn(&Tensor, usize) -> bool>(
            samples: usize,
            n: usize,
            sample: impl Fn(usize) -> Tensor,
            correct: P,
        ) -> Vec<Tensor> {
            let (mut chosen, mut fallback) = (Vec::new(), Vec::new());
            for i in 0..samples {
                if chosen.len() >= n {
                    break;
                }
                let batch = sample(i);
                if correct(&batch, i) {
                    chosen.push(batch);
                } else if fallback.len() < n {
                    fallback.push(batch);
                }
            }
            while chosen.len() < n && !fallback.is_empty() {
                chosen.push(fallback.remove(0));
            }
            chosen
        }
        let bits = |inputs: &[Tensor]| -> Vec<Vec<u32>> {
            inputs
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for seed in [3u64, 8] {
            let lenet = archs::build(&ModelConfig::lenet(), seed);
            let recipe = TrainConfig::for_kind(ModelKind::LeNet);
            let data = classification_data_for(ModelKind::LeNet, &recipe, seed);
            let expected = per_sample(
                data.validation.len(),
                6,
                |i| data.validation_batch(&[i]).0,
                |batch, i| {
                    lenet.predict_classes(batch).unwrap()[0] == data.validation_batch(&[i]).1[0]
                },
            );
            let chosen = correct_classifier_inputs_for(&lenet, seed, 6, &recipe).unwrap();
            assert_eq!(bits(&chosen), bits(&expected), "LeNet, seed {seed}");

            let comma = archs::build(&ModelConfig::new(ModelKind::Comma), seed);
            let recipe = TrainConfig::for_kind(ModelKind::Comma);
            let data = driving_data_for(&recipe, seed);
            let target = |i: usize| data.validation_batch(&[i], AngleUnit::Degrees).1.data()[0];
            let expected = per_sample(
                data.validation.len(),
                6,
                |i| data.validation_batch(&[i], AngleUnit::Degrees).0,
                |batch, i| {
                    (comma.predict_angles_degrees(batch).unwrap()[0] - target(i)).abs() <= 4.0
                },
            );
            let chosen = correct_steering_inputs_for(&comma, seed, 6, 4.0, &recipe).unwrap();
            assert_eq!(bits(&chosen), bits(&expected), "Comma, seed {seed}");
        }
    }

    #[test]
    fn canonical_inputs_match_model_shapes() {
        for kind in ModelKind::all() {
            let model = archs::build(&ModelConfig::new(kind), 0);
            let input = canonical_input(&model);
            assert!(
                model.forward(&input).is_ok(),
                "{kind} rejects its canonical input"
            );
        }
    }
}
