//! Quickstart: protect a DNN with Ranger and watch it correct an injected fault.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example trains a small LeNet on the synthetic digit dataset, derives restriction
//! bounds from 20% of the training data, applies Ranger (Algorithm 1 of the paper), and
//! then injects a single high-order bit flip into one convolution output — once in the
//! unprotected model and once in the protected one — showing that the protected model
//! still predicts the right digit.

use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger_datasets::classification::{ClassificationDataset, ImageDomain};
use ranger_inject::{FaultInjector, FaultModel, InjectionSpace, InjectionTarget};
use ranger_models::train::{classification_accuracy, train_classifier};
use ranger_models::{archs, ModelConfig, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a small LeNet on the synthetic digit dataset.
    let cfg = TrainConfig {
        epochs: 6,
        batch_size: 32,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 300,
        validation_samples: 100,
    };
    let data = ClassificationDataset::generate(
        ImageDomain::Digits,
        cfg.train_samples,
        cfg.validation_samples,
        7,
    );
    let mut model = archs::build(&ModelConfig::lenet(), 7);
    println!(
        "training LeNet ({} parameters) ...",
        model.parameter_count()
    );
    train_classifier(&mut model, &data, &cfg, 7)?;
    let (top1, _) = classification_accuracy(&model, &data, true)?;
    println!("validation top-1 accuracy: {:.1}%", top1 * 100.0);

    // 2. Derive restriction bounds from 20% of the training data and apply Ranger — the
    //    protection step goes through the `Protector` trait, the same interface the
    //    design alternatives and baseline arms implement.
    let n_profile = cfg.train_samples / 5;
    let samples: Vec<_> = (0..n_profile).map(|i| data.train_batch(&[i]).0).collect();
    let bounds = profile_bounds(
        &model.graph,
        &model.input_name,
        &samples,
        &BoundsConfig::default(),
    )?;
    let (protected_graph, stats) = RangerProtector::default().protect(&model.graph, &bounds)?;
    let mut protected = model.clone();
    protected.graph = protected_graph;
    println!(
        "Ranger inserted {} range-restriction operators ({} on activations, {} on followers) in {:.2} ms",
        stats.clamps_inserted,
        stats.activations_protected,
        stats.followers_protected,
        stats.insertion_seconds * 1000.0
    );

    // 3. Inject a high-order bit flip into the first convolution's output.
    let (image, label) = data.validation_batch(&[0]);
    let golden_pred = model.predict_classes(&image)?[0];
    println!(
        "\nfault-free prediction: {golden_pred} (ground truth {})",
        label[0]
    );

    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let space = InjectionSpace::build(&target, &image)?;
    let fault = FaultModel::single_bit_fixed32();
    // Search for a critical fault: a high-order bit flip (bit 29) whose site actually
    // corrupts the unprotected model's prediction. Most random sites are benign — that is
    // the inherent resilience the paper builds on — so a few attempts may be needed.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let plan = model.graph.compile()?;
    let plan_p = protected.graph.compile()?;
    let mut found: Option<(usize, usize)> = None;
    for _ in 0..500 {
        let candidate = vec![ranger_inject::injector::PlannedFlip {
            site: space.sample(&mut rng),
            bit: 29,
        }];
        let mut injector = FaultInjector::with_plan(fault, candidate.clone());
        let values = plan.run(&[(model.input_name.as_str(), image.clone())], &mut injector)?;
        let faulty_pred = values.get(model.output)?.argmax().unwrap_or(0);
        if faulty_pred == golden_pred {
            continue; // benign fault: tolerated even without Ranger
        }
        let mut injector_p = FaultInjector::with_plan(fault, candidate);
        let values = plan_p.run(
            &[(protected.input_name.as_str(), image.clone())],
            &mut injector_p,
        )?;
        let corrected_pred = values.get(protected.output)?.argmax().unwrap_or(0);
        found = Some((faulty_pred, corrected_pred));
        if corrected_pred == golden_pred {
            break; // a critical fault that Ranger corrects: the Fig. 1 scenario
        }
    }

    match found {
        Some((faulty_pred, corrected_pred)) => {
            println!("prediction with fault, unprotected model: {faulty_pred}");
            println!("prediction with fault, Ranger-protected model: {corrected_pred}");
            if corrected_pred == golden_pred {
                println!("\nRanger corrected the critical fault without re-computation.");
            } else {
                println!("\nThis particular fault escaped correction (Ranger reduces the SDC rate, it does not eliminate it).");
            }
        }
        None => println!(
            "\nEvery sampled fault was benign — the DNN's inherent resilience absorbed them all."
        ),
    }
    Ok(())
}
