//! Parity tests for the unified experiment API: the `Protector` trait, the compiled
//! `ExecPlan` and the `Pipeline` builder must reproduce the legacy hand-wired paths
//! exactly — same graphs, same forward-pass values, same SDC counts for the same seed.

mod common;

use common::full_pass_counts;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger::transform::RangerConfig;
use ranger_engine::{
    canonical_input, correct_classifier_inputs_for, profiling_samples_for, run_model_campaign,
    JudgeSpec, Pipeline,
};
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::GraphBuilder;
use ranger_inject::{BackendKind, CampaignConfig, FaultModel, InjectionTarget, SdcJudge};
use ranger_models::zoo::ModelZoo;
use ranger_models::{archs, ModelConfig, ModelKind, TrainConfig};
use ranger_tensor::Tensor;

/// On every zoo model, protected and unprotected, a warmed store reused for a second
/// input holds exactly what a freshly compiled plan's fresh store holds for that input,
/// node by node: nothing of the first pass leaks into the second.
#[test]
fn exec_plan_matches_executor_bit_for_bit_on_every_zoo_model() {
    for kind in ModelKind::all() {
        let model = archs::build(&ModelConfig::new(kind), 0);
        let first = canonical_input(&model);
        let second = first.scale(0.5);
        let bounds = profile_bounds(
            &model.graph,
            &model.input_name,
            std::slice::from_ref(&first),
            &BoundsConfig::default(),
        )
        .unwrap();
        let (protected, _) = RangerProtector::default()
            .protect(&model.graph, &bounds)
            .unwrap();

        for graph in [&model.graph, &protected] {
            let feeds = |x: &Tensor| [(model.input_name.as_str(), x.clone())];
            let plan = graph.compile().unwrap();
            let mut reused = plan.warm(&feeds(&first)).unwrap();
            plan.run_into(&mut reused, &feeds(&second), &mut NoopInterceptor)
                .unwrap();
            let fresh = graph
                .compile()
                .unwrap()
                .run(&feeds(&second), &mut NoopInterceptor)
                .unwrap();
            assert_eq!(fresh.iter().count(), graph.len(), "{kind}");
            for (id, tensor) in fresh.iter() {
                // Bit-for-bit: Tensor equality is exact on the raw f32 payload.
                assert_eq!(
                    reused.get(id).unwrap(),
                    tensor,
                    "{kind}: node {id} diverged between the reused and the fresh store"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The batched/parallel-campaign acceptance property: ANY campaign configuration
    /// produces identical SDC counts (and trial/unactivated tallies) for every
    /// `(batch, workers)` combination, on random MLPs and random fault models — fault
    /// plans are keyed by `(input, trial)` index, so neither the chunk length nor the
    /// schedule can reach the counts.
    #[test]
    fn batched_and_parallel_campaign_parity_on_random_campaigns(
        hidden in 2usize..10,
        seed in 0u64..100,
        trials in 1usize..40,
        batch in 2usize..50,
        workers_log2 in 0u32..4,
        bits in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, hidden, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, hidden, 3, &mut rng);
        let probs = b.softmax(y);
        let graph = b.into_graph();
        let target = ranger_inject::InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![
            Tensor::filled(vec![1, 4], 0.8),
            Tensor::filled(vec![1, 4], -0.4),
        ];
        let judge = ranger_inject::ClassifierJudge::top1();
        let workers = 1usize << workers_log2; // 1, 2, 4 or 8
        let config = |batch, workers| CampaignConfig {
            trials,
            batch,
            workers,
            backend: ranger_inject::BackendKind::F32,
            fault: ranger_inject::FaultModel {
                datatype: ranger_tensor::DataType::fixed32(),
                bits,
            },
            seed,
            tile: 0,
        };
        let reference =
            ranger_inject::run_campaign(&target, &inputs, &judge, &config(1, 1)).unwrap();
        for candidate in [
            config(batch, 1),       // batched, serial
            config(1, workers),     // per-sample, parallel
            config(batch, workers), // batched and parallel
        ] {
            let run = ranger_inject::run_campaign(&target, &inputs, &judge, &candidate).unwrap();
            prop_assert_eq!(&run.sdc_counts, &reference.sdc_counts);
            prop_assert_eq!(run.trials, reference.trials);
            prop_assert_eq!(run.unactivated, reference.unactivated);
        }
    }
}

/// The parallel-campaign acceptance grid on real zoo architectures: worker counts
/// {1, 2, 4, 8} × batch sizes {1, 16} all report the serial per-sample counts
/// bit-for-bit, on a convolutional classifier (LeNet) and a steering regressor (Comma).
#[test]
fn parallel_campaign_grid_matches_serial_on_zoo_models() {
    for kind in [ModelKind::LeNet, ModelKind::Comma] {
        let model = archs::build(&ModelConfig::new(kind), 3);
        let input = canonical_input(&model);
        let inputs = vec![input];
        let judge: Box<dyn ranger_inject::SdcJudge> = if kind.is_steering() {
            Box::new(ranger_inject::SteeringJudge::paper_thresholds(false))
        } else {
            Box::new(ranger_inject::ClassifierJudge::top1())
        };
        let target = ranger_inject::InjectionTarget {
            graph: &model.graph,
            input_name: &model.input_name,
            output: model.output,
            excluded: &model.excluded_from_injection,
        };
        let config = |workers, batch| CampaignConfig {
            trials: 20,
            batch,
            workers,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 31,
            tile: 0,
        };
        let reference =
            ranger_inject::run_campaign(&target, &inputs, judge.as_ref(), &config(1, 1)).unwrap();
        for workers in [1usize, 2, 4, 8] {
            for batch in [1usize, 16] {
                let run = ranger_inject::run_campaign(
                    &target,
                    &inputs,
                    judge.as_ref(),
                    &config(workers, batch),
                )
                .unwrap();
                assert_eq!(
                    run.sdc_counts, reference.sdc_counts,
                    "{kind}: workers {workers} × batch {batch} diverged from serial SDC counts"
                );
                assert_eq!(run.trials, reference.trials, "{kind}");
                assert_eq!(run.unactivated, reference.unactivated, "{kind}");
            }
        }
    }
}

/// The fault-cone acceptance grid on real zoo architectures: on a convolutional
/// classifier (LeNet), a steering regressor (Comma), a residual network (ResNet-18,
/// `Add` joins) and a fire-module network (SqueezeNet, `Concat` joins), across the f32,
/// SIMD and fixed16 backends, every campaign trial runs as a fault cone from the golden
/// pass, and batch {1, 16, 64} × workers {1, 4} reports the counts of one full pass per
/// trial bit-for-bit. This pins the cone against full passes through every branch
/// shape, and the counts across chunk lengths (64 leaves an uneven tail of 8). The f32
/// rows' full passes run on the reference oracle, so they also pin the dispatched
/// kernels' cones against the oracle.
#[test]
fn cone_campaign_grid_matches_full_passes_on_zoo_models() {
    for kind in [
        ModelKind::LeNet,
        ModelKind::Comma,
        ModelKind::ResNet18,
        ModelKind::SqueezeNet,
    ] {
        let model = archs::build(&ModelConfig::new(kind), 3);
        let input = canonical_input(&model);
        let inputs = vec![input];
        let judge: Box<dyn SdcJudge> = if kind.is_steering() {
            Box::new(ranger_inject::SteeringJudge::paper_thresholds(false))
        } else {
            Box::new(ranger_inject::ClassifierJudge::top1())
        };
        let target = InjectionTarget {
            graph: &model.graph,
            input_name: &model.input_name,
            output: model.output,
            excluded: &model.excluded_from_injection,
        };
        for (backend, fault) in [
            (BackendKind::F32, FaultModel::single_bit_fixed32()),
            (BackendKind::Simd, FaultModel::single_bit_fixed32()),
            (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
        ] {
            let config = |batch, workers| CampaignConfig {
                trials: 72,
                batch,
                workers,
                backend,
                fault,
                seed: 37,
                tile: 0,
            };
            let (counts, unactivated) =
                full_pass_counts(&target, &inputs, judge.as_ref(), &config(1, 1));
            for batch in [1usize, 16, 64] {
                for workers in [1usize, 4] {
                    let run = ranger_inject::run_campaign(
                        &target,
                        &inputs,
                        judge.as_ref(),
                        &config(batch, workers),
                    )
                    .unwrap();
                    let label = format!("{kind} on {backend}: batch {batch} × workers {workers}");
                    assert_eq!(
                        run.sdc_counts, counts,
                        "{label} diverged from the full-pass SDC counts"
                    );
                    assert_eq!(run.trials, 72, "{label}");
                    assert_eq!(run.unactivated, unactivated, "{label}");
                }
            }
        }
    }
}

/// The acceptance criterion for the API redesign: a fig6-style campaign run through the
/// new `Pipeline` API reproduces the legacy hand-wired path's SDC counts exactly for the
/// same seed.
#[test]
fn pipeline_reproduces_legacy_fig6_campaign_counts_exactly() {
    let kind = ModelKind::LeNet;
    let seed = 17u64;
    let trials = 60usize;
    let n_inputs = 2usize;
    let quick = TrainConfig {
        epochs: 3,
        batch_size: 32,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 120,
        validation_samples: 48,
    };
    let zoo_dir = std::env::temp_dir().join(format!("ranger-parity-zoo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&zoo_dir);

    // New API: one Pipeline chain.
    let outcome = Pipeline::for_model(kind)
        .seed(seed)
        .train(quick)
        .zoo(ModelZoo::new(&zoo_dir))
        .profile(BoundsConfig::default())
        .protect(RangerConfig::default())
        .campaign(CampaignConfig {
            trials,
            batch: 1,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed,
            tile: 0,
        })
        .inputs(n_inputs)
        .judge(JudgeSpec::TopK(vec![1]))
        .run_full()
        .unwrap();

    // Legacy hand-wired path, replayed on the identical trained model.
    let model = &outcome.model;
    let samples = profiling_samples_for(kind, seed, 0.2, &quick);
    let bounds = profile_bounds(
        &model.graph,
        &model.input_name,
        &samples,
        &BoundsConfig::default(),
    )
    .unwrap();
    let (protected_graph, _) = RangerProtector::default()
        .protect(&model.graph, &bounds)
        .unwrap();
    let mut protected = model.clone();
    protected.graph = protected_graph;
    let inputs = correct_classifier_inputs_for(model, seed, n_inputs, &quick).unwrap();
    let config = CampaignConfig {
        trials,
        batch: 1,
        workers: 1,
        backend: BackendKind::F32,
        fault: FaultModel::single_bit_fixed32(),
        seed,
        tile: 0,
    };
    let judge = ranger_inject::ClassifierJudge::top1();
    let legacy_baseline = run_model_campaign(model, &inputs, &judge, &config).unwrap();
    let legacy_protected = run_model_campaign(&protected, &inputs, &judge, &config).unwrap();

    let pipeline_baseline = outcome.baseline_result.expect("campaign ran");
    let pipeline_protected = outcome.protected_result.expect("campaign ran");
    assert_eq!(
        pipeline_baseline.sdc_counts, legacy_baseline.sdc_counts,
        "unprotected arm SDC counts must match the legacy path exactly"
    );
    assert_eq!(
        pipeline_protected.sdc_counts, legacy_protected.sdc_counts,
        "protected arm SDC counts must match the legacy path exactly"
    );
    assert_eq!(pipeline_baseline.trials, legacy_baseline.trials);
    assert_eq!(pipeline_baseline.unactivated, legacy_baseline.unactivated);
    // The protected graphs are structurally identical too.
    assert_eq!(outcome.protected.model.graph, protected.graph);

    // The chunk-length/parallel acceptance criterion: the same fig6-style pipeline with
    // 16- and 64-trial work units, a parallel campaign (4 workers) and both at once
    // reproduces the serial SDC counts bit-for-bit, in both arms.
    for (batch, workers) in [(16usize, 1usize), (1, 4), (16, 4), (64, 4)] {
        let variant = Pipeline::for_model(kind)
            .seed(seed)
            .train(quick)
            .zoo(ModelZoo::new(&zoo_dir))
            .profile(BoundsConfig::default())
            .protect(RangerConfig::default())
            .campaign(CampaignConfig {
                trials,
                batch,
                workers,
                backend: BackendKind::F32,
                fault: FaultModel::single_bit_fixed32(),
                seed,
                tile: 0,
            })
            .inputs(n_inputs)
            .judge(JudgeSpec::TopK(vec![1]))
            .run_full()
            .unwrap();
        assert_eq!(
            variant.baseline_result.unwrap().sdc_counts,
            pipeline_baseline.sdc_counts,
            "unprotected arm (batch {batch}, workers {workers}) must reproduce the \
             per-sample fig6 SDC counts exactly"
        );
        assert_eq!(
            variant.protected_result.unwrap().sdc_counts,
            pipeline_protected.sdc_counts,
            "protected arm (batch {batch}, workers {workers}) must reproduce the \
             per-sample fig6 SDC counts exactly"
        );
    }

    let _ = std::fs::remove_dir_all(&zoo_dir);
}
