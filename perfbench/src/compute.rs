//! The in-process workloads: an unprotected and a Ranger arm per campaign, each run
//! the way `ranger_inject::run_campaign` runs it (prepare, chunks on a fresh pool,
//! reduce, publish), so every chunk's tally is kept for the output check.

use crate::check::{count_mismatches, sample_index};
use crate::models::{QuickModels, MODEL_SEED};
use crate::trace::{Scope, Tracer};
use crate::workloads::{campaign_seed, CampaignStats, Campaigns, Workload};
use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger::transform::RangerConfig;
use ranger_engine::{
    correct_classifier_inputs_for, correct_steering_inputs_for, profiling_samples_for, JudgeSpec,
    DEFAULT_PROFILE_FRACTION,
};
use ranger_graph::exec::Values;
use ranger_inject::{
    campaign_chunks, default_chunk_len, CampaignConfig, CampaignError, CampaignResult, ChunkTally,
    InjectionTarget, PreparedCampaign, SdcJudge, TrialChunk,
};
use ranger_models::{Model, TrainConfig};
use ranger_runtime::ThreadPool;
use ranger_tensor::Tensor;
use std::time::Instant;

/// Steering frames count as correctly predicted within this many degrees (the
/// pipeline's default).
const STEERING_TOLERANCE_DEGREES: f32 = 60.0;

/// Profiles bounds on the fixed training data and inserts Ranger's restriction
/// operators.
///
/// # Errors
///
/// Returns a message if profiling or the transformation fails.
pub fn protect(model: &Model, scope: &Scope<'_>) -> Result<Model, String> {
    let samples = {
        let _span = scope.span("engine.profiling_samples");
        profiling_samples_for(
            model.config.kind,
            MODEL_SEED,
            DEFAULT_PROFILE_FRACTION,
            &TrainConfig::quick(),
        )
    };
    let bounds = {
        let _span = scope.span("core.profile");
        profile_bounds(
            &model.graph,
            &model.input_name,
            &samples,
            &BoundsConfig::default(),
        )
        .map_err(|e| format!("profiling bounds: {e}"))?
    };
    let graph = {
        let _span = scope.span("core.protect");
        RangerProtector::new(RangerConfig::default())
            .protect(&model.graph, &bounds)
            .map_err(|e| format!("inserting Ranger: {e}"))?
            .0
    };
    let mut protected = model.clone();
    protected.graph = graph;
    Ok(protected)
}

/// A workload's models, inputs and judge after setup.
pub struct ComputeSetup {
    arms: Vec<(&'static str, Model)>,
    inputs: Vec<Tensor>,
    judge: Box<dyn SdcJudge>,
}

/// Loads the model, protects it and selects `inputs` correctly predicted validation
/// inputs drawn with `seed`.
///
/// # Errors
///
/// Returns a message if any step fails.
pub fn setup(
    workload: Workload,
    models: &QuickModels,
    seed: u64,
    inputs: usize,
    scope: &Scope<'_>,
) -> Result<ComputeSetup, String> {
    let model = {
        let _span = scope.span("models.load");
        models.load(workload.model())?.model
    };
    let protected = protect(&model, scope)?;
    let inputs = {
        let _span = scope.span("engine.select_inputs");
        let recipe = TrainConfig::quick();
        if model.config.kind.is_steering() {
            correct_steering_inputs_for(&model, seed, inputs, STEERING_TOLERANCE_DEGREES, &recipe)
        } else {
            correct_classifier_inputs_for(&model, seed, inputs, &recipe)
        }
        .map_err(|e| format!("selecting inputs: {e}"))?
    };
    let judge = JudgeSpec::Auto.build(&model);
    Ok(ComputeSetup {
        arms: vec![("unprotected", model), ("ranger", protected)],
        inputs,
        judge,
    })
}

fn target(model: &Model) -> InjectionTarget<'_> {
    InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    }
}

type ChunkResults = Vec<(TrialChunk, Result<ChunkTally, CampaignError>)>;

/// One arm, as `run_campaign` runs it, keeping each chunk's tally.
fn run_arm(
    model: &Model,
    inputs: &[Tensor],
    judge: &dyn SdcJudge,
    config: &CampaignConfig,
    scope: &Scope<'_>,
) -> Result<(CampaignResult, ChunkResults), CampaignError> {
    let target = target(model);
    let prepared = {
        let _span = scope.span("inject.prepare");
        PreparedCampaign::new(&target, inputs, judge, config)?
    };
    let chunks = prepared.chunks().to_vec();
    let results = ThreadPool::new(config.workers).run_with(
        |_worker| prepared.buffers(),
        chunks.iter().map(|&unit| {
            let prepared = &prepared;
            move |values: &mut Values| {
                let _span = scope.span("inject.chunk");
                prepared.run_chunk(values, unit)
            }
        }),
    );
    let mut result = prepared.empty_result();
    for tally in results.iter().flatten() {
        result.absorb(tally);
    }
    prepared.publish_metrics();
    Ok((result, chunks.into_iter().zip(results).collect()))
}

/// The sampled chunks of one measured arm, kept for the output check.
struct ArmSample {
    arm: usize,
    config: CampaignConfig,
    samples: Vec<(TrialChunk, ChunkTally)>,
}

/// The measured campaigns of an in-process workload.
pub struct ComputeCampaigns {
    workload: Workload,
    setup: ComputeSetup,
    seed: u64,
    trials: usize,
    samples: Vec<ArmSample>,
}

impl ComputeCampaigns {
    /// Campaigns of `trials` trials per input over the set-up inputs.
    pub fn new(workload: Workload, setup: ComputeSetup, seed: u64, trials: usize) -> Self {
        ComputeCampaigns {
            workload,
            setup,
            seed,
            trials,
            samples: Vec::new(),
        }
    }
}

impl Campaigns for ComputeCampaigns {
    fn campaign(&mut self, k: usize, tracer: Option<&Tracer>) -> CampaignStats {
        let config = self
            .workload
            .config(self.trials, campaign_seed(self.seed, k));
        let scope = Scope::new(tracer, format!("campaign.{k}"));
        let root = scope.span("campaign");
        let scope = scope.under(&root);
        let start = Instant::now();
        let runs: Vec<_> = self
            .setup
            .arms
            .iter()
            .map(|(_, model)| {
                let arm_span = scope.span("inject.campaign");
                run_arm(
                    model,
                    &self.setup.inputs,
                    self.setup.judge.as_ref(),
                    &config,
                    &scope.under(&arm_span),
                )
            })
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        drop(root);

        let mut stats = CampaignStats {
            wall_s,
            ..CampaignStats::default()
        };
        for (arm, run) in runs.into_iter().enumerate() {
            match run {
                Ok((result, chunks)) => {
                    stats.chunks += chunks.len() as u64;
                    stats.trials += result.trials;
                    stats.unactivated += result.unactivated;
                    let sampled = sample_index(chunks.len(), k);
                    for (index, (chunk, tally)) in chunks.into_iter().enumerate() {
                        match tally {
                            Ok(tally) if sampled == Some(index) => self.samples.push(ArmSample {
                                arm,
                                config,
                                samples: vec![(chunk, tally)],
                            }),
                            Ok(_) => {}
                            Err(e) => {
                                eprintln!("campaign {k}, chunk {}: {e}", chunk.index);
                                stats.failed += 1;
                            }
                        }
                    }
                    stats.arms.push((self.setup.arms[arm].0, result));
                }
                Err(e) => {
                    eprintln!("campaign {k}: {e}");
                    let expected = campaign_chunks(
                        &config,
                        self.setup.inputs.len(),
                        default_chunk_len(&config),
                    );
                    stats.chunks += expected.len() as u64;
                    stats.failed += 1;
                }
            }
        }
        stats
    }

    fn check(&mut self) -> u64 {
        self.samples
            .iter()
            .map(|sample| {
                count_mismatches(
                    &target(&self.setup.arms[sample.arm].1),
                    &self.setup.inputs,
                    self.setup.judge.as_ref(),
                    &sample.config,
                    default_chunk_len(&sample.config),
                    &sample.samples,
                )
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RunConfig;

    #[test]
    fn the_check_catches_a_corrupted_tally() {
        let config = RunConfig::smoke(Workload::CommaFixed16, 3);
        let models = QuickModels::new(&config.cache_dir);
        models.ensure(Workload::CommaFixed16.model()).unwrap();
        let (inputs, trials) = Workload::CommaFixed16.sizes(true);
        let setup = setup(
            Workload::CommaFixed16,
            &models,
            config.seed,
            inputs,
            &Scope::new(None, "setup.0"),
        )
        .unwrap();
        let mut campaigns = ComputeCampaigns::new(Workload::CommaFixed16, setup, 3, trials);
        let stats = campaigns.campaign(0, None);
        assert_eq!(stats.failed, 0);
        assert_eq!(campaigns.check(), 0);
        campaigns.samples[0].samples[0].1.sdc_counts[0] += 1;
        assert_eq!(campaigns.check(), 1);
    }
}
