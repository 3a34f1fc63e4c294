//! The fluent [`Pipeline`] builder: the paper's experiment recipe as one first-class API.
//!
//! Every experiment in the reproduction follows the same arc — load (or train) a benchmark
//! model, derive restriction bounds by profiling a fraction of its training data, apply a
//! protection strategy, and measure SDC rates under fault injection. The seed repository
//! hand-wired that arc in every bench binary, the CLI and the tests; `Pipeline` is the
//! single place it lives now.
//!
//! ```no_run
//! use ranger_engine::Pipeline;
//! use ranger::bounds::BoundsConfig;
//! use ranger::transform::RangerConfig;
//! use ranger_inject::CampaignConfig;
//! use ranger_models::ModelKind;
//!
//! let report = Pipeline::for_model(ModelKind::LeNet)
//!     .seed(7)
//!     .profile(BoundsConfig::default())
//!     .protect(RangerConfig::default())
//!     .campaign(CampaignConfig::default())
//!     .run()?;
//! println!("{}", serde_json::to_string_pretty(&report)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Campaign forward passes execute through a compiled
//! [`ExecPlan`](ranger_graph::ExecPlan) (see `ranger_inject::run_campaign`), and the
//! protection step goes through the [`Protector`] trait, so design-alternative and
//! baseline arms are the same one-liner as the paper's default Ranger arm.

use crate::data::{
    canonical_input, correct_classifier_inputs_for, correct_steering_inputs_for, profiling_samples,
    profiling_samples_for, JudgeSpec,
};
use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::overhead::flops_overhead;
use ranger::protect::{Protector, RangerProtector};
use ranger::transform::{RangerConfig, RangerStats};
use ranger::ActivationBounds;
use ranger_graph::GraphError;
use ranger_inject::{
    run_campaign, CampaignConfig, CampaignError, CampaignResult, InjectionTarget, PreparedCampaign,
    SdcJudge,
};
use ranger_models::zoo::{ModelZoo, ZooError};
use ranger_models::{Model, ModelConfig, ModelKind, Task, TrainConfig};
use ranger_runtime::ThreadPool;
use ranger_serve::{
    campaign_fingerprint, drive, CampaignSink, CheckpointStore, DriveOutcome, ServeError,
};
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

/// The fraction of the training set the paper profiles restriction bounds from.
pub const DEFAULT_PROFILE_FRACTION: f64 = 0.2;

/// Errors surfaced by [`Pipeline::run`].
#[derive(Debug)]
pub enum PipelineError {
    /// The pipeline configuration is degenerate (see [`Pipeline::run`]).
    InvalidConfig(String),
    /// Training or the model zoo failed.
    Zoo(ZooError),
    /// Profiling, protection or an overhead-accounting forward pass failed.
    Graph(GraphError),
    /// The fault-injection campaign was misconfigured or failed.
    Campaign(CampaignError),
    /// The streamed campaign path (checkpoint store, fingerprinting) failed.
    Serve(ServeError),
    /// A streamed campaign was stopped by its sink before completion; completed chunks
    /// stay durable in the checkpoint directory, so re-running the pipeline resumes.
    Interrupted,
    /// Writing the metrics snapshot requested by [`Pipeline::metrics`] failed.
    MetricsIo(std::io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(message) => {
                write!(f, "invalid pipeline configuration: {message}")
            }
            PipelineError::Zoo(e) => write!(f, "pipeline training step failed: {e}"),
            PipelineError::Graph(e) => write!(f, "pipeline graph step failed: {e}"),
            PipelineError::Campaign(e) => write!(f, "pipeline campaign step failed: {e}"),
            PipelineError::Serve(e) => write!(f, "pipeline streamed-campaign step failed: {e}"),
            PipelineError::Interrupted => write!(
                f,
                "the streamed campaign was stopped by its sink before completion \
                 (completed chunks remain checkpointed; re-run to resume)"
            ),
            PipelineError::MetricsIo(e) => {
                write!(f, "writing the metrics snapshot failed: {e}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::InvalidConfig(_) | PipelineError::Interrupted => None,
            PipelineError::Zoo(e) => Some(e),
            PipelineError::Graph(e) => Some(e),
            PipelineError::Campaign(e) => Some(e),
            PipelineError::Serve(e) => Some(e),
            PipelineError::MetricsIo(e) => Some(e),
        }
    }
}

impl From<ZooError> for PipelineError {
    fn from(e: ZooError) -> Self {
        PipelineError::Zoo(e)
    }
}

impl From<GraphError> for PipelineError {
    fn from(e: GraphError) -> Self {
        PipelineError::Graph(e)
    }
}

impl From<CampaignError> for PipelineError {
    fn from(e: CampaignError) -> Self {
        PipelineError::Campaign(e)
    }
}

impl From<ServeError> for PipelineError {
    fn from(e: ServeError) -> Self {
        // A campaign failure is a campaign failure whichever executor surfaced it.
        match e {
            ServeError::Campaign(e) => PipelineError::Campaign(e),
            other => PipelineError::Serve(other),
        }
    }
}

/// A model protected by a [`Protector`], together with the bounds and statistics.
#[derive(Debug, Clone)]
pub struct ProtectedModel {
    /// The protected model (same metadata as the original, rewritten graph).
    pub model: Model,
    /// The restriction bounds derived from the training data.
    pub bounds: ActivationBounds,
    /// Insertion statistics (clamp counts, instrumentation time).
    pub stats: RangerStats,
}

/// Profiles restriction bounds from `fraction` of the model's training data and applies
/// `protector`.
///
/// # Errors
///
/// Returns a [`GraphError`] if profiling or the transformation fails.
pub fn protect_model(
    model: &Model,
    seed: u64,
    fraction: f64,
    bounds_config: &BoundsConfig,
    protector: &dyn Protector,
) -> Result<ProtectedModel, GraphError> {
    let samples = profiling_samples(model.config.kind, seed, fraction);
    protect_with_samples(model, &samples, bounds_config, protector)
}

/// [`protect_model`], but profiling the dataset generated by an explicit training recipe
/// (so a custom-trained model is profiled on the data it actually saw).
///
/// # Errors
///
/// Returns a [`GraphError`] if profiling or the transformation fails.
pub fn protect_model_for(
    model: &Model,
    seed: u64,
    fraction: f64,
    bounds_config: &BoundsConfig,
    protector: &dyn Protector,
    recipe: &TrainConfig,
) -> Result<ProtectedModel, GraphError> {
    let samples = profiling_samples_for(model.config.kind, seed, fraction, recipe);
    protect_with_samples(model, &samples, bounds_config, protector)
}

fn protect_with_samples(
    model: &Model,
    samples: &[ranger_tensor::Tensor],
    bounds_config: &BoundsConfig,
    protector: &dyn Protector,
) -> Result<ProtectedModel, GraphError> {
    let bounds = profile_bounds(&model.graph, &model.input_name, samples, bounds_config)?;
    let (graph, stats) = protector.protect(&model.graph, &bounds)?;
    let mut protected = model.clone();
    protected.graph = graph;
    Ok(ProtectedModel {
        model: protected,
        bounds,
        stats,
    })
}

/// Runs a fault-injection campaign against a model (protected or not).
///
/// # Errors
///
/// Returns a [`CampaignError`] if the campaign configuration is degenerate or any forward
/// pass fails.
pub fn run_model_campaign(
    model: &Model,
    inputs: &[ranger_tensor::Tensor],
    judge: &dyn ranger_inject::SdcJudge,
    config: &CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    run_campaign(&target, inputs, judge, config)
}

/// Runs a fault-injection campaign through the checkpointed streaming executor shared
/// with the campaign service: the trial space is decomposed into the canonical chunk
/// partition, every completed chunk is appended (and fsynced) to a fingerprint-keyed
/// checkpoint file under `checkpoint_dir` before its event reaches `sink`, and a rerun
/// over the same directory resumes from the durable prefix — reproducing bit-for-bit
/// the counts of [`run_model_campaign`].
///
/// # Errors
///
/// Returns [`PipelineError::Interrupted`] if `sink` stops the campaign early (completed
/// chunks stay durable), and a campaign or serve error if the configuration is
/// degenerate or the checkpoint store cannot be used.
pub fn drive_model_campaign(
    model: &Model,
    inputs: &[ranger_tensor::Tensor],
    judge: &dyn SdcJudge,
    config: &CampaignConfig,
    checkpoint_dir: &Path,
    sink: &mut dyn CampaignSink,
) -> Result<CampaignResult, PipelineError> {
    config.validate()?;
    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let chunk_len = ranger_inject::default_chunk_len(config);
    let fingerprint =
        campaign_fingerprint(&target, inputs, config, &judge.categories(), chunk_len)?;
    let mut store = CheckpointStore::open(
        &checkpoint_dir.join(format!("{fingerprint}.jsonl")),
        &fingerprint,
    )?;
    let prepared = PreparedCampaign::new(&target, inputs, judge, config)?;
    let pool = ThreadPool::new(config.workers);
    let cancel = AtomicBool::new(false);
    match drive(&prepared, &mut store, &pool, &cancel, sink)? {
        DriveOutcome::Completed(result) => Ok(result),
        DriveOutcome::Stopped(_) => Err(PipelineError::Interrupted),
    }
}

/// How the pipeline executes its campaign arms: directly in-process, or through the
/// checkpointed streaming driver shared with the campaign service.
enum CampaignExec<'s> {
    InProcess,
    Streamed {
        dir: PathBuf,
        sink: &'s mut dyn CampaignSink,
    },
}

impl CampaignExec<'_> {
    fn run(
        &mut self,
        model: &Model,
        inputs: &[ranger_tensor::Tensor],
        judge: &dyn SdcJudge,
        config: &CampaignConfig,
    ) -> Result<CampaignResult, PipelineError> {
        match self {
            CampaignExec::InProcess => Ok(run_model_campaign(model, inputs, judge, config)?),
            CampaignExec::Streamed { dir, sink } => {
                drive_model_campaign(model, inputs, judge, config, dir, &mut **sink)
            }
        }
    }
}

/// The SDC rate of one judge category, with counts and the 95% confidence half-width.
#[derive(Debug, Clone, Serialize)]
pub struct RateSummary {
    /// Category name (e.g. `top-1`, `threshold-15`).
    pub category: String,
    /// SDC trials observed.
    pub sdc_count: u64,
    /// Total trials.
    pub trials: u64,
    /// SDC rate in percent.
    pub sdc_percent: f64,
    /// 95% confidence half-width in percentage points (normal approximation).
    pub ci95_percent: f64,
}

impl RateSummary {
    fn from_result(result: &CampaignResult) -> Vec<RateSummary> {
        result
            .rates()
            .into_iter()
            .map(|(category, rate)| RateSummary {
                category,
                sdc_count: rate.successes,
                trials: rate.trials,
                sdc_percent: rate.rate_percent(),
                ci95_percent: rate.confidence95_percent(),
            })
            .collect()
    }
}

/// Side-by-side campaign results for the unprotected and protected arms.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignComparison {
    /// The execution backend every forward pass (golden and faulty) ran on.
    pub backend: String,
    /// Trials per input.
    pub trials_per_input: usize,
    /// Number of (correctly predicted) inputs injected into.
    pub inputs: usize,
    /// Per-category rates of the unprotected model.
    pub baseline: Vec<RateSummary>,
    /// Per-category rates of the protected model.
    pub protected: Vec<RateSummary>,
    /// SDC coverage per category: `1 - protected/baseline`, in percent (clamped to
    /// `[0, 100]`; 0 when the baseline rate is 0).
    pub coverage_percent: Vec<f64>,
}

/// Bounds-derivation summary.
#[derive(Debug, Clone, Serialize)]
pub struct BoundsSummary {
    /// Number of activation operations that received a restriction bound.
    pub activations_bounded: usize,
    /// Bytes needed to store the bounds at deployment time.
    pub storage_bytes: usize,
    /// The percentile used for the upper bound (100 = observed maximum).
    pub percentile: f64,
    /// Fraction of the training set profiled.
    pub profile_fraction: f64,
}

/// FLOPs overhead summary (Table IV's accounting).
#[derive(Debug, Clone, Serialize)]
pub struct OverheadSummary {
    /// FLOPs of one unprotected forward pass.
    pub baseline_flops: u64,
    /// FLOPs of one protected forward pass.
    pub protected_flops: u64,
    /// Relative FLOPs overhead in percent.
    pub flops_percent: f64,
}

/// Everything one pipeline run produced, serializable as a JSON experiment record.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// The model's paper name (e.g. `LeNet`).
    pub model: String,
    /// The seed the model, datasets and campaigns were derived from.
    pub seed: u64,
    /// The protection strategy applied (a [`Protector::name`]).
    pub protector: String,
    /// Validation accuracy of the trained model (top-1, or within-15° for steering).
    pub validation_accuracy: f64,
    /// Bounds-derivation summary.
    pub bounds: BoundsSummary,
    /// Insertion statistics of the protection step.
    pub insertion: RangerStats,
    /// FLOPs and memory overhead of the protection.
    pub overhead: OverheadSummary,
    /// Campaign results, if a campaign was configured.
    pub campaign: Option<CampaignComparison>,
}

/// The outcome of [`Pipeline::run_full`]: the serializable report plus the artifacts the
/// report summarizes, for callers that keep computing (parity tests, custom tables,
/// follow-up campaigns).
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The serializable experiment record.
    pub report: PipelineReport,
    /// The trained, unprotected model.
    pub model: Model,
    /// The protected model with its bounds and stats.
    pub protected: ProtectedModel,
    /// Raw campaign result of the unprotected arm, if a campaign ran.
    pub baseline_result: Option<CampaignResult>,
    /// Raw campaign result of the protected arm, if a campaign ran.
    pub protected_result: Option<CampaignResult>,
    /// The (correctly predicted) inputs the campaign injected into; empty when no
    /// campaign was configured. Exposed so comparison arms (e.g. the Table VI baselines)
    /// can be judged on the exact same inputs without re-running selection.
    pub campaign_inputs: Vec<ranger_tensor::Tensor>,
}

/// Fluent builder for the profile → protect → inject experiment arc.
///
/// See the [module docs](self) for an end-to-end example. Every setter has a paper-faithful
/// default: seed 42, 20% profiling fraction, maximum-observed bounds, saturating Ranger
/// protection, and no campaign until [`Pipeline::campaign`] is called.
///
/// Degenerate configurations are rejected by [`Pipeline::run`] before any training
/// starts:
///
/// ```
/// use ranger_engine::{Pipeline, PipelineError};
/// use ranger_models::ModelKind;
///
/// let err = Pipeline::for_model(ModelKind::LeNet)
///     .profile_fraction(1.5)
///     .run()
///     .unwrap_err();
/// assert!(matches!(err, PipelineError::InvalidConfig(_)));
/// assert!(err.to_string().contains("profile fraction"));
/// ```
pub struct Pipeline {
    config: ModelConfig,
    seed: u64,
    train: Option<TrainConfig>,
    zoo: Option<ModelZoo>,
    bounds_config: BoundsConfig,
    profile_fraction: f64,
    protector: Box<dyn Protector>,
    protector_name: String,
    campaign: Option<CampaignConfig>,
    inputs: usize,
    judge: JudgeSpec,
    steering_tolerance_degrees: f32,
    serve_checkpoints: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
}

impl Pipeline {
    /// Starts a pipeline for the paper-default configuration of `kind`.
    pub fn for_model(kind: ModelKind) -> Self {
        Pipeline::for_config(ModelConfig::new(kind))
    }

    /// Starts a pipeline for an explicit model configuration (e.g. the Tanh variant used
    /// by the Hong et al. baseline).
    pub fn for_config(config: ModelConfig) -> Self {
        let protector = RangerProtector::default();
        Pipeline {
            config,
            seed: 42,
            train: None,
            zoo: None,
            bounds_config: BoundsConfig::default(),
            profile_fraction: DEFAULT_PROFILE_FRACTION,
            protector_name: protector.name(),
            protector: Box::new(protector),
            campaign: None,
            inputs: 5,
            judge: JudgeSpec::Auto,
            steering_tolerance_degrees: 60.0,
            serve_checkpoints: None,
            metrics_json: None,
        }
    }

    /// Sets the seed for training, datasets, profiling and campaigns.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains with an explicit recipe (bypassing the zoo cache) instead of
    /// `load_or_train` with the kind's default recipe.
    pub fn train(mut self, config: TrainConfig) -> Self {
        self.train = Some(config);
        self
    }

    /// Uses a specific model zoo (cache directory) instead of the default one.
    pub fn zoo(mut self, zoo: ModelZoo) -> Self {
        self.zoo = Some(zoo);
        self
    }

    /// Configures the bound-profiling step.
    pub fn profile(mut self, config: BoundsConfig) -> Self {
        self.bounds_config = config;
        self
    }

    /// Sets the fraction of the training set profiled for bounds (the paper uses 0.2).
    ///
    /// Values outside `[0, 1]` are rejected by [`Pipeline::run`] with a descriptive
    /// error; within that range, degenerate values are clamped up to a 1% floor at
    /// sampling time so sensitivity sweeps can pass raw grid values.
    pub fn profile_fraction(mut self, fraction: f64) -> Self {
        self.profile_fraction = fraction;
        self
    }

    /// Protects with Ranger under the given configuration (the default protection).
    pub fn protect(self, config: RangerConfig) -> Self {
        self.protect_with(RangerProtector::new(config))
    }

    /// Protects with an arbitrary [`Protector`] (design alternatives, baselines).
    pub fn protect_with(mut self, protector: impl Protector + 'static) -> Self {
        self.protector_name = protector.name();
        self.protector = Box::new(protector);
        self
    }

    /// Enables the fault-injection campaign step with this configuration.
    pub fn campaign(mut self, config: CampaignConfig) -> Self {
        self.campaign = Some(config);
        self
    }

    /// Sets how many correctly-predicted validation inputs the campaign injects into.
    pub fn inputs(mut self, n: usize) -> Self {
        self.inputs = n;
        self
    }

    /// Overrides the SDC criterion (the default follows the paper per task).
    pub fn judge(mut self, judge: JudgeSpec) -> Self {
        self.judge = judge;
        self
    }

    /// Sets the checkpoint directory [`Pipeline::serve_run`] keeps its per-arm campaign
    /// checkpoint files under. Ignored by [`Pipeline::run`] / [`Pipeline::run_full`].
    pub fn serve_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.serve_checkpoints = Some(dir.into());
        self
    }

    /// Turns the metrics registry on for this run and writes its snapshot — the
    /// one-line JSON document of `ranger_obs::MetricsSnapshot::to_json`, covering
    /// per-op plan timings, pool worker tallies and campaign latency histograms — to
    /// `path` once the pipeline finishes. Metrics draw no RNG and never steer
    /// execution, so every reported count is bit-for-bit the unobserved run's.
    pub fn metrics(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_json = Some(path.into());
        self
    }

    /// Runs the pipeline and returns the serializable report.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if training, profiling, protection or a campaign fails.
    pub fn run(self) -> Result<PipelineReport, PipelineError> {
        Ok(self.run_full()?.report)
    }

    /// Runs the pipeline and returns the report together with the underlying artifacts.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::run`].
    pub fn run_full(self) -> Result<PipelineOutcome, PipelineError> {
        self.run_with_exec(&mut CampaignExec::InProcess)
    }

    /// Runs the pipeline like [`Pipeline::run_full`], but executes both campaign arms
    /// through the checkpointed streaming driver shared with the campaign service:
    /// `sink` observes both arms' full event streams (the baseline arm first, then the
    /// protected arm), and every completed chunk is durable under the configured
    /// checkpoint directory before its event is emitted — so a killed pipeline re-run
    /// resumes its campaign arms instead of recomputing them, with bit-for-bit
    /// identical counts.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] if [`Pipeline::serve_checkpoint_dir`]
    /// was not set, [`PipelineError::Interrupted`] if `sink` stops a campaign arm
    /// early, and the [`Pipeline::run`] errors otherwise.
    pub fn serve_run(
        mut self,
        sink: &mut dyn CampaignSink,
    ) -> Result<PipelineOutcome, PipelineError> {
        let dir = self.serve_checkpoints.take().ok_or_else(|| {
            PipelineError::InvalidConfig(
                "serve_run needs a checkpoint directory; call serve_checkpoint_dir(..) first"
                    .to_string(),
            )
        })?;
        self.run_with_exec(&mut CampaignExec::Streamed { dir, sink })
    }

    fn run_with_exec(self, exec: &mut CampaignExec<'_>) -> Result<PipelineOutcome, PipelineError> {
        if self.metrics_json.is_some() {
            // Must be on before plans are warmed: timing slots are sized at warm time.
            ranger_obs::set_enabled(true);
        }
        if !(0.0..=1.0).contains(&self.profile_fraction) || self.profile_fraction.is_nan() {
            return Err(PipelineError::InvalidConfig(format!(
                "profile fraction must lie in [0, 1], got {} (the paper profiles 20% of \
                 the training set)",
                self.profile_fraction
            )));
        }
        if let Some(config) = &self.campaign {
            config.validate()?;
        }
        let zoo = self.zoo.unwrap_or_else(ModelZoo::with_default_dir);
        let trained = match &self.train {
            Some(recipe) => zoo.train_with(&self.config, recipe, self.seed)?,
            None => zoo.load_or_train(&self.config, self.seed)?,
        };
        let model = trained.model;
        // Profiling and input selection must regenerate the dataset the model was
        // actually trained on, which a custom recipe re-sizes.
        let recipe = self
            .train
            .unwrap_or_else(|| TrainConfig::for_kind(self.config.kind));

        let protected = protect_model_for(
            &model,
            self.seed,
            self.profile_fraction,
            &self.bounds_config,
            self.protector.as_ref(),
            &recipe,
        )?;

        let input = canonical_input(&model);
        let overhead = flops_overhead(
            &model.graph,
            &protected.model.graph,
            &model.input_name,
            &input,
        )?;

        let (campaign, baseline_result, protected_result, campaign_inputs) = match &self.campaign {
            None => (None, None, None, Vec::new()),
            Some(config) => {
                let inputs = match model.task {
                    Task::Classification { .. } => {
                        correct_classifier_inputs_for(&model, self.seed, self.inputs, &recipe)?
                    }
                    Task::Regression { .. } => correct_steering_inputs_for(
                        &model,
                        self.seed,
                        self.inputs,
                        self.steering_tolerance_degrees,
                        &recipe,
                    )?,
                };
                let judge = self.judge.build(&model);
                let baseline = exec.run(&model, &inputs, judge.as_ref(), config)?;
                let shielded = exec.run(&protected.model, &inputs, judge.as_ref(), config)?;
                let coverage_percent = baseline
                    .rates()
                    .iter()
                    .zip(shielded.rates())
                    .map(|((_, base), (_, prot))| {
                        if base.rate() <= 0.0 {
                            0.0
                        } else {
                            ((1.0 - prot.rate() / base.rate()) * 100.0).clamp(0.0, 100.0)
                        }
                    })
                    .collect();
                (
                    Some(CampaignComparison {
                        backend: config.backend.backend().name().to_string(),
                        trials_per_input: config.trials,
                        inputs: inputs.len(),
                        baseline: RateSummary::from_result(&baseline),
                        protected: RateSummary::from_result(&shielded),
                        coverage_percent,
                    }),
                    Some(baseline),
                    Some(shielded),
                    inputs,
                )
            }
        };

        let report = PipelineReport {
            model: self.config.kind.paper_name().to_string(),
            seed: self.seed,
            protector: self.protector_name,
            validation_accuracy: trained.validation_accuracy,
            bounds: BoundsSummary {
                activations_bounded: protected.bounds.len(),
                storage_bytes: protected.bounds.storage_bytes(),
                percentile: self.bounds_config.percentile,
                profile_fraction: self.profile_fraction,
            },
            insertion: protected.stats,
            overhead: OverheadSummary {
                baseline_flops: overhead.baseline_flops,
                protected_flops: overhead.protected_flops,
                flops_percent: overhead.percent(),
            },
            campaign,
        };
        if let Some(path) = &self.metrics_json {
            let mut json = ranger_obs::registry().snapshot().to_json();
            json.push('\n');
            std::fs::write(path, json).map_err(PipelineError::MetricsIo)?;
        }
        Ok(PipelineOutcome {
            report,
            model,
            protected,
            baseline_result,
            protected_result,
            campaign_inputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranger::protect::Unprotected;
    use ranger_inject::FaultModel;

    fn quick_recipe() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            train_samples: 60,
            validation_samples: 24,
        }
    }

    fn temp_zoo(tag: &str) -> ModelZoo {
        let dir =
            std::env::temp_dir().join(format!("ranger-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelZoo::new(dir)
    }

    #[test]
    fn pipeline_produces_a_complete_report() {
        let report = Pipeline::for_model(ModelKind::LeNet)
            .seed(7)
            .train(quick_recipe())
            .zoo(temp_zoo("report"))
            .profile(BoundsConfig::default())
            .protect(RangerConfig::default())
            .campaign(CampaignConfig {
                trials: 30,
                batch: 1,
                workers: 1,
                seed: 7,
                ..CampaignConfig::default()
            })
            .inputs(2)
            .run()
            .unwrap();
        assert_eq!(report.model, "LeNet");
        assert_eq!(report.seed, 7);
        assert_eq!(report.protector, "ranger");
        assert!(report.insertion.clamps_inserted > 0);
        assert!(report.bounds.activations_bounded > 0);
        assert!(report.overhead.flops_percent > 0.0);
        // The report serializes as a JSON experiment record.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"model\": \"LeNet\""));
        let campaign = report.campaign.expect("campaign configured");
        assert_eq!(campaign.trials_per_input, 30);
        assert_eq!(campaign.inputs, 2);
        assert_eq!(campaign.baseline.len(), campaign.protected.len());
        assert_eq!(campaign.baseline[0].trials, 60);
    }

    #[test]
    fn pipeline_without_campaign_skips_injection() {
        let report = Pipeline::for_model(ModelKind::LeNet)
            .seed(8)
            .train(quick_recipe())
            .zoo(temp_zoo("nocampaign"))
            .run()
            .unwrap();
        assert!(report.campaign.is_none());
        assert!(report.insertion.clamps_inserted > 0);
    }

    #[test]
    fn unprotected_arm_reports_zero_insertions_and_coverage() {
        let outcome = Pipeline::for_model(ModelKind::LeNet)
            .seed(9)
            .train(quick_recipe())
            .zoo(temp_zoo("unprot"))
            .protect_with(Unprotected)
            .campaign(CampaignConfig {
                trials: 10,
                batch: 1,
                workers: 1,
                seed: 9,
                ..CampaignConfig::default()
            })
            .inputs(1)
            .run_full()
            .unwrap();
        assert_eq!(outcome.report.protector, "unprotected");
        assert_eq!(outcome.report.insertion.clamps_inserted, 0);
        assert_eq!(outcome.model.graph, outcome.protected.model.graph);
        // Identical graphs ⇒ identical campaigns ⇒ zero coverage.
        let campaign = outcome.report.campaign.expect("campaign ran");
        assert!(campaign.coverage_percent.iter().all(|&c| c == 0.0));
        assert_eq!(
            outcome.baseline_result.unwrap().sdc_counts,
            outcome.protected_result.unwrap().sdc_counts
        );
    }

    #[test]
    fn degenerate_configs_fail_before_training_starts() {
        // None of these should touch the zoo (or the filesystem): they are rejected up
        // front with a descriptive error.
        for fraction in [-0.1, 1.5, f64::NAN] {
            let err = Pipeline::for_model(ModelKind::LeNet)
                .profile_fraction(fraction)
                .run()
                .unwrap_err();
            assert!(
                matches!(err, PipelineError::InvalidConfig(_)),
                "fraction {fraction} should be rejected, got {err:?}"
            );
            assert!(err.to_string().contains("profile fraction"));
        }
        let zero_trials = Pipeline::for_model(ModelKind::LeNet)
            .campaign(CampaignConfig {
                trials: 0,
                ..CampaignConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(zero_trials.to_string().contains("trials must be positive"));
        let zero_batch = Pipeline::for_model(ModelKind::LeNet)
            .campaign(CampaignConfig {
                batch: 0,
                ..CampaignConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(zero_batch.to_string().contains("batch must be positive"));
        let zero_workers = Pipeline::for_model(ModelKind::LeNet)
            .campaign(CampaignConfig {
                workers: 0,
                ..CampaignConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(zero_workers
            .to_string()
            .contains("workers must be positive"));
    }

    /// The campaign's worker count changes only the execution strategy: a parallel
    /// pipeline campaign reports exactly the counts of the serial one.
    #[test]
    fn parallel_pipeline_campaign_matches_serial_bit_for_bit() {
        let run = |workers: usize| {
            Pipeline::for_model(ModelKind::LeNet)
                .seed(23)
                .train(quick_recipe())
                .zoo(temp_zoo("workers"))
                .campaign(CampaignConfig {
                    trials: 20,
                    batch: 1,
                    workers,
                    seed: 23,
                    ..CampaignConfig::default()
                })
                .inputs(2)
                .run_full()
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            serial.baseline_result.unwrap().sdc_counts,
            parallel.baseline_result.unwrap().sdc_counts,
            "parallel baseline arm diverged from serial"
        );
        assert_eq!(
            serial.protected_result.unwrap().sdc_counts,
            parallel.protected_result.unwrap().sdc_counts,
            "parallel protected arm diverged from serial"
        );
    }

    /// A fixed16 campaign runs on the fixed-point path end-to-end, with faults in the
    /// backend's word format, and worker count still cannot change the counts.
    #[test]
    fn fixed16_pipeline_campaign_runs_end_to_end_and_stays_deterministic() {
        use ranger_inject::BackendKind;
        let run = |workers: usize| {
            Pipeline::for_model(ModelKind::LeNet)
                .seed(29)
                .train(quick_recipe())
                .zoo(temp_zoo("fixed16"))
                .campaign(CampaignConfig {
                    trials: 15,
                    batch: 1,
                    workers,
                    backend: BackendKind::Fixed16,
                    fault: FaultModel::single_bit_fixed16(),
                    seed: 29,
                    tile: 0,
                })
                .inputs(1)
                .run_full()
                .unwrap()
        };
        let serial = run(1);
        assert_eq!(
            serial.report.campaign.as_ref().unwrap().trials_per_input,
            15
        );
        let parallel = run(4);
        assert_eq!(
            serial.baseline_result.as_ref().unwrap().sdc_counts,
            parallel.baseline_result.as_ref().unwrap().sdc_counts,
            "fixed16 baseline arm diverged across worker counts"
        );
        assert_eq!(
            serial.protected_result.as_ref().unwrap().sdc_counts,
            parallel.protected_result.as_ref().unwrap().sdc_counts,
            "fixed16 protected arm diverged across worker counts"
        );
    }

    /// `simd` is an alias of the f32 backend (the same dispatched kernels), so the whole
    /// campaign section of the report — SDC counts included — is bit-for-bit the f32
    /// pipeline's, and the report names the spelling that ran.
    #[test]
    fn simd_pipeline_report_is_bit_for_bit_the_f32_report() {
        use ranger_inject::BackendKind;
        let run = |backend: BackendKind, zoo_tag: &str| {
            Pipeline::for_model(ModelKind::LeNet)
                .seed(23)
                .train(quick_recipe())
                .zoo(temp_zoo(zoo_tag))
                .campaign(CampaignConfig {
                    trials: 12,
                    batch: 1,
                    workers: 1,
                    backend,
                    fault: FaultModel::single_bit_fixed32(),
                    seed: 23,
                    tile: 0,
                })
                .inputs(1)
                .run_full()
                .unwrap()
        };
        let f32_run = run(BackendKind::F32, "simd-parity-f32");
        let simd_run = run(BackendKind::Simd, "simd-parity-simd");
        assert_eq!(
            f32_run.baseline_result.as_ref().unwrap().sdc_counts,
            simd_run.baseline_result.as_ref().unwrap().sdc_counts,
            "simd baseline arm diverged from the f32 reference"
        );
        assert_eq!(
            f32_run.protected_result.as_ref().unwrap().sdc_counts,
            simd_run.protected_result.as_ref().unwrap().sdc_counts,
            "simd protected arm diverged from the f32 reference"
        );
        assert_eq!(
            simd_run.report.campaign.as_ref().unwrap().backend,
            "simd",
            "the report must name the backend that executed the campaign"
        );
        assert_eq!(f32_run.report.campaign.as_ref().unwrap().backend, "f32");
    }

    /// A mismatched backend/fault pairing in an explicit campaign config surfaces as a
    /// campaign error before any forward pass runs.
    #[test]
    fn mismatched_backend_fault_pairing_is_a_campaign_error() {
        use ranger_inject::BackendKind;
        let err = Pipeline::for_model(ModelKind::LeNet)
            .campaign(CampaignConfig {
                backend: BackendKind::Fixed32,
                fault: FaultModel::single_bit_fixed16(),
                ..CampaignConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(
            err.to_string().contains("does not match"),
            "unexpected error: {err}"
        );
    }

    /// `serve_run` drives both campaign arms through the checkpointed streaming
    /// executor: results match `run_full` bit-for-bit, the sink observes both arms'
    /// full event streams, and a second run over the same checkpoint directory replays
    /// every chunk from the durable store instead of recomputing it.
    #[test]
    fn serve_run_matches_run_full_and_resumes_from_its_checkpoints() {
        use ranger_serve::{CampaignEvent, CollectSink};
        let build = || {
            Pipeline::for_model(ModelKind::LeNet)
                .seed(31)
                .train(quick_recipe())
                .zoo(temp_zoo("serve"))
                .campaign(CampaignConfig {
                    trials: 12,
                    batch: 1,
                    workers: 2,
                    seed: 31,
                    ..CampaignConfig::default()
                })
                .inputs(2)
        };
        let reference = build().run_full().unwrap();

        let dir =
            std::env::temp_dir().join(format!("ranger-engine-serve-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut sink = CollectSink::new();
        let outcome = build()
            .serve_checkpoint_dir(&dir)
            .serve_run(&mut sink)
            .unwrap();
        assert_eq!(outcome.baseline_result, reference.baseline_result);
        assert_eq!(outcome.protected_result, reference.protected_result);
        // Two arms ⇒ two complete event streams, nothing resumed on the first pass.
        let dones = sink
            .events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::CampaignDone { .. }))
            .count();
        assert_eq!(dones, 2);
        assert!(!sink
            .events
            .iter()
            .any(|e| matches!(e, CampaignEvent::ChunkDone { resumed: true, .. })));

        // A second run over the same directory finds every chunk durable: both arms
        // replay entirely as resumed, with identical results.
        let mut replay = CollectSink::new();
        let again = build()
            .serve_checkpoint_dir(&dir)
            .serve_run(&mut replay)
            .unwrap();
        assert_eq!(again.baseline_result, reference.baseline_result);
        assert_eq!(again.protected_result, reference.protected_result);
        assert!(replay.chunks_seen() > 0);
        assert!(!replay
            .events
            .iter()
            .any(|e| matches!(e, CampaignEvent::ChunkDone { resumed: false, .. })));

        // A sink that stops immediately interrupts the arm; durable chunks survive.
        let err = build()
            .serve_checkpoint_dir(&dir)
            .serve_run(&mut CollectSink::stopping_after(0))
            .unwrap_err();
        assert!(matches!(err, PipelineError::Interrupted), "got {err:?}");

        // Without a checkpoint directory, serve_run refuses up front.
        let err = build().serve_run(&mut CollectSink::new()).unwrap_err();
        assert!(
            matches!(err, PipelineError::InvalidConfig(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("checkpoint"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_fraction_feeds_the_bounds_step() {
        let outcome = Pipeline::for_model(ModelKind::LeNet)
            .seed(11)
            .train(quick_recipe())
            .zoo(temp_zoo("fraction"))
            .profile_fraction(1.0)
            .run_full()
            .unwrap();
        assert_eq!(outcome.report.bounds.profile_fraction, 1.0);
        assert!(outcome.report.bounds.storage_bytes >= 8);
    }
}
