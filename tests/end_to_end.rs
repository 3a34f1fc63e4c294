//! End-to-end integration tests spanning the workspace crates: train → profile → protect
//! → inject → verify, the full pipeline every experiment binary uses. Protection runs
//! through the `Protector` trait and campaigns through the `ExecPlan`-backed runner — the
//! same path the `Pipeline` builder drives.

use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger::transform::RangerConfig;
use ranger_datasets::classification::{ClassificationDataset, ImageDomain};
use ranger_datasets::driving::{AngleUnit, DrivingDataset};
use ranger_engine::Pipeline;
use ranger_inject::{
    run_campaign, BackendKind, CampaignConfig, ClassifierJudge, FaultModel, InjectionTarget,
    SteeringJudge,
};
use ranger_models::train::{
    classification_accuracy, regression_metrics, train_classifier, train_regressor,
};
use ranger_models::{archs, Model, ModelConfig, ModelKind, TrainConfig};
use ranger_tensor::Tensor;

fn quick_train_lenet(seed: u64) -> (Model, ClassificationDataset) {
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 32,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 200,
        validation_samples: 80,
    };
    let data = ClassificationDataset::generate(
        ImageDomain::Digits,
        cfg.train_samples,
        cfg.validation_samples,
        seed,
    );
    let mut model = archs::build(&ModelConfig::lenet(), seed);
    train_classifier(&mut model, &data, &cfg, seed).expect("training succeeds");
    (model, data)
}

fn protect(model: &Model, data: &ClassificationDataset) -> Model {
    let samples: Vec<Tensor> = (0..40).map(|i| data.train_batch(&[i]).0).collect();
    let bounds = profile_bounds(
        &model.graph,
        &model.input_name,
        &samples,
        &BoundsConfig::default(),
    )
    .expect("profiling succeeds");
    let (graph, stats) = RangerProtector::default()
        .protect(&model.graph, &bounds)
        .expect("transform succeeds");
    assert!(stats.clamps_inserted > 0);
    let mut protected = model.clone();
    protected.graph = graph;
    protected
}

fn campaign(
    model: &Model,
    inputs: &[Tensor],
    trials: usize,
    seed: u64,
) -> ranger_inject::CampaignResult {
    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let config = CampaignConfig {
        trials,
        batch: 1,
        workers: 1,
        backend: BackendKind::F32,
        fault: FaultModel::single_bit_fixed32(),
        seed,
        tile: 0,
    };
    run_campaign(&target, inputs, &ClassifierJudge::top1(), &config).expect("campaign succeeds")
}

#[test]
fn ranger_reduces_classifier_sdc_rate_without_hurting_accuracy() {
    let (model, data) = quick_train_lenet(1);
    let protected = protect(&model, &data);

    // RQ2: accuracy is preserved in the absence of faults.
    let (top1_orig, top5_orig) = classification_accuracy(&model, &data, true).unwrap();
    let (top1_prot, top5_prot) = classification_accuracy(&protected, &data, true).unwrap();
    assert!(
        top1_orig > 0.5,
        "the model must learn the task, got {top1_orig}"
    );
    assert!(
        top1_prot >= top1_orig - 1e-9,
        "Ranger must not degrade top-1 accuracy ({top1_orig} -> {top1_prot})"
    );
    assert!(top5_prot >= top5_orig - 1e-9);

    // RQ1: the SDC rate drops substantially under single-bit-flip injection.
    let mut inputs = Vec::new();
    for i in 0..data.validation.len() {
        if inputs.len() >= 3 {
            break;
        }
        let (batch, labels) = data.validation_batch(&[i]);
        if model.predict_classes(&batch).unwrap()[0] == labels[0] {
            inputs.push(batch);
        }
    }
    assert!(!inputs.is_empty(), "need correctly-classified inputs");
    let original = campaign(&model, &inputs, 150, 3);
    let with_ranger = campaign(&protected, &inputs, 150, 3);
    let orig_rate = original.sdc_rate(0).expect("category in range").rate();
    let prot_rate = with_ranger.sdc_rate(0).expect("category in range").rate();
    assert!(
        orig_rate > 0.0,
        "the unprotected model should exhibit some SDCs"
    );
    assert!(
        prot_rate < orig_rate,
        "Ranger must reduce the SDC rate ({orig_rate} -> {prot_rate})"
    );
}

#[test]
fn ranger_protects_the_steering_model_and_preserves_regression_accuracy() {
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 32,
        learning_rate: 0.02,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 200,
        validation_samples: 80,
    };
    let data = DrivingDataset::generate(cfg.train_samples, cfg.validation_samples, 2);
    let mut model = archs::build(&ModelConfig::new(ModelKind::Comma), 2);
    train_regressor(&mut model, &data, &cfg, 2).unwrap();

    let samples: Vec<Tensor> = (0..40)
        .map(|i| data.train_batch(&[i], AngleUnit::Degrees).0)
        .collect();
    let bounds = profile_bounds(
        &model.graph,
        &model.input_name,
        &samples,
        &BoundsConfig::default(),
    )
    .unwrap();
    let (graph, _) = RangerProtector::default()
        .protect(&model.graph, &bounds)
        .unwrap();
    let mut protected = model.clone();
    protected.graph = graph;

    // Accuracy (RMSE / mean deviation) is essentially unchanged in the absence of faults:
    // the conservative maximum bound may truncate a handful of unseen-data activations
    // (the paper observes the same), so allow a fraction-of-a-percent drift.
    let (rmse_orig, mad_orig) = regression_metrics(&model, &data, true).unwrap();
    let (rmse_prot, mad_prot) = regression_metrics(&protected, &data, true).unwrap();
    assert!(
        (rmse_orig - rmse_prot).abs() <= 0.01 * rmse_orig.max(1.0),
        "{rmse_orig} vs {rmse_prot}"
    );
    assert!((mad_orig - mad_prot).abs() <= 0.01 * mad_orig.max(1.0));

    // SDC rates under injection drop (or at worst stay equal) for every threshold.
    let inputs: Vec<Tensor> = (0..3)
        .map(|i| data.validation_batch(&[i], AngleUnit::Degrees).0)
        .collect();
    let judge = SteeringJudge::paper_thresholds(false);
    let config = CampaignConfig {
        trials: 120,
        batch: 1,
        workers: 1,
        backend: BackendKind::F32,
        fault: FaultModel::single_bit_fixed32(),
        seed: 5,
        tile: 0,
    };
    let target_orig = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let target_prot = InjectionTarget {
        graph: &protected.graph,
        input_name: &protected.input_name,
        output: protected.output,
        excluded: &protected.excluded_from_injection,
    };
    let original = run_campaign(&target_orig, &inputs, &judge, &config).unwrap();
    let with_ranger = run_campaign(&target_prot, &inputs, &judge, &config).unwrap();
    for i in 0..original.categories.len() {
        assert!(
            with_ranger.sdc_rate(i).expect("category in range").rate()
                <= original.sdc_rate(i).expect("category in range").rate() + 1e-9,
            "threshold {} got worse: {} -> {}",
            original.categories[i],
            original.sdc_rate(i).expect("category in range").rate(),
            with_ranger.sdc_rate(i).expect("category in range").rate()
        );
    }
}

#[test]
fn fixed16_campaign_also_benefits_from_ranger() {
    let (model, data) = quick_train_lenet(4);
    let protected = protect(&model, &data);
    let inputs = vec![data.validation_batch(&[0]).0, data.validation_batch(&[1]).0];
    // Both RQ4 measurement styles: the historical emulation (f32 compute, Q14.2
    // corruption) and the genuine fixed-point path (Q14.2 compute, word-level flips).
    for backend in [BackendKind::F32, BackendKind::Fixed16] {
        let config = CampaignConfig {
            trials: 120,
            batch: 1,
            workers: 1,
            backend,
            fault: FaultModel::single_bit_fixed16(),
            seed: 9,
            tile: 0,
        };
        let run = |m: &Model| {
            let target = InjectionTarget {
                graph: &m.graph,
                input_name: &m.input_name,
                output: m.output,
                excluded: &m.excluded_from_injection,
            };
            run_campaign(&target, &inputs, &ClassifierJudge::top1(), &config).unwrap()
        };
        let original = run(&model);
        let with_ranger = run(&protected);
        assert!(
            with_ranger.sdc_rate(0).expect("category in range").rate()
                <= original.sdc_rate(0).expect("category in range").rate() + 1e-9,
            "Ranger must not increase the SDC rate on the {backend} backend"
        );
    }
}

#[test]
fn multi_bit_faults_are_still_mitigated() {
    let (model, data) = quick_train_lenet(6);
    let protected = protect(&model, &data);
    let inputs = vec![data.validation_batch(&[0]).0];
    for bits in [2usize, 4] {
        let config = CampaignConfig {
            trials: 100,
            batch: 1,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::multi_bit_fixed32(bits),
            seed: 13 + bits as u64,
            tile: 0,
        };
        let run = |m: &Model| {
            let target = InjectionTarget {
                graph: &m.graph,
                input_name: &m.input_name,
                output: m.output,
                excluded: &m.excluded_from_injection,
            };
            run_campaign(&target, &inputs, &ClassifierJudge::top1(), &config).unwrap()
        };
        let original = run(&model);
        let with_ranger = run(&protected);
        assert!(
            with_ranger.sdc_rate(0).expect("category in range").rate()
                <= original.sdc_rate(0).expect("category in range").rate() + 1e-9,
            "{bits}-bit faults: {} -> {}",
            original.sdc_rate(0).expect("category in range").rate(),
            with_ranger.sdc_rate(0).expect("category in range").rate()
        );
    }
}

#[test]
fn protected_graph_has_low_flops_overhead_on_every_architecture() {
    // Structural check across all eight architectures (untrained weights are fine: FLOPs
    // depend only on shapes).
    for kind in ModelKind::all() {
        let model = archs::build(&ModelConfig::new(kind), 0);
        let input = match kind.image_domain() {
            Some(domain) => {
                let (c, h, w) = domain.image_shape();
                Tensor::ones(vec![1, c, h, w])
            }
            None => {
                let (c, h, w) = ranger_datasets::driving::FRAME_SHAPE;
                Tensor::ones(vec![1, c, h, w])
            }
        };
        let samples = vec![input.clone()];
        let bounds = profile_bounds(
            &model.graph,
            &model.input_name,
            &samples,
            &BoundsConfig::default(),
        )
        .unwrap();
        let (graph, stats) = RangerProtector::default()
            .protect(&model.graph, &bounds)
            .unwrap();
        assert!(stats.clamps_inserted > 0, "{kind} must receive clamps");
        let report =
            ranger::overhead::flops_overhead(&model.graph, &graph, &model.input_name, &input)
                .unwrap();
        // The replicas are far smaller than the paper's models, so the fixed per-element
        // clamp cost is relatively larger; a single-digit percentage is still "low" here
        // (SqueezeNet, the smallest network per clamp, sits around 6%).
        assert!(
            report.percent() < 10.0,
            "{kind}: Ranger FLOPs overhead should be small, got {:.3}%",
            report.percent()
        );
        // Fault-free outputs are unchanged by the transformation.
        let mut protected = model.clone();
        protected.graph = graph;
        let a = model.forward(&input).unwrap();
        let b = protected.forward(&input).unwrap();
        assert!(
            a.approx_eq(&b, 1e-5).unwrap(),
            "{kind}: fault-free output changed"
        );
    }
}

/// The entire experiment arc through the `Pipeline` builder: train → profile → protect →
/// inject, with the report carrying RQ1 (SDC reduction) and RQ3 (low overhead) evidence.
#[test]
fn pipeline_end_to_end_reduces_sdc_and_keeps_overhead_low() {
    let quick = TrainConfig {
        epochs: 5,
        batch_size: 32,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 200,
        validation_samples: 80,
    };
    let zoo_dir = std::env::temp_dir().join(format!("ranger-e2e-zoo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&zoo_dir);
    let report = Pipeline::for_model(ModelKind::LeNet)
        .seed(1)
        .train(quick)
        .zoo(ranger_models::zoo::ModelZoo::new(&zoo_dir))
        .profile(BoundsConfig::default())
        .protect(RangerConfig::default())
        .campaign(CampaignConfig {
            trials: 150,
            batch: 1,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 3,
            tile: 0,
        })
        .inputs(3)
        .run()
        .expect("pipeline runs");
    let _ = std::fs::remove_dir_all(&zoo_dir);

    assert!(
        report.validation_accuracy > 0.5,
        "the model must learn the task"
    );
    assert!(report.insertion.clamps_inserted > 0);
    assert!(
        report.overhead.flops_percent < 10.0,
        "Ranger FLOPs overhead should be small, got {:.3}%",
        report.overhead.flops_percent
    );
    let campaign = report.campaign.expect("campaign configured");
    let base = &campaign.baseline[0];
    let prot = &campaign.protected[0];
    assert!(
        base.sdc_percent > 0.0,
        "the unprotected model should exhibit some SDCs"
    );
    assert!(
        prot.sdc_percent < base.sdc_percent,
        "Ranger must reduce the SDC rate ({} -> {})",
        base.sdc_percent,
        prot.sdc_percent
    );
    assert!(campaign.coverage_percent[0] > 0.0);
}
