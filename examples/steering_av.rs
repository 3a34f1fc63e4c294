//! The paper's Fig. 1 scenario: a transient fault corrupts the steering angle an AV DNN
//! predicts, and Ranger rectifies it without re-computation.
//!
//! ```text
//! cargo run --example steering_av
//! ```
//!
//! A Comma.ai-style steering model is trained on the synthetic driving dataset; a single
//! high-order bit flip is then injected into one of its convolution outputs. Without
//! Ranger the predicted steering angle swings wildly; with Ranger the prediction stays
//! close to the fault-free angle — the same qualitative behaviour as the paper's
//! 156.58° → −46.47° → 156.91° example.

use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger_datasets::driving::{AngleUnit, DrivingDataset};
use ranger_inject::injector::PlannedFlip;
use ranger_inject::{FaultInjector, FaultModel, InjectionSpace, InjectionTarget};
use ranger_models::train::{regression_metrics, train_regressor};
use ranger_models::{archs, ModelConfig, ModelKind, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the Comma.ai-style steering model.
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 32,
        learning_rate: 0.02,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 400,
        validation_samples: 150,
    };
    let data = DrivingDataset::generate(cfg.train_samples, cfg.validation_samples, 11);
    let mut model = archs::build(&ModelConfig::new(ModelKind::Comma), 11);
    println!("training the Comma.ai steering model ...");
    train_regressor(&mut model, &data, &cfg, 11)?;
    let (rmse, mad) = regression_metrics(&model, &data, true)?;
    println!("validation RMSE: {rmse:.1}°, average deviation: {mad:.1}° per frame");

    // 2. Protect it with Ranger.
    let n_profile = cfg.train_samples / 5;
    let samples: Vec<_> = (0..n_profile)
        .map(|i| data.train_batch(&[i], AngleUnit::Degrees).0)
        .collect();
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
        "Ranger inserted {} range-restriction operators",
        stats.clamps_inserted
    );

    // 3. Drive one frame through both models with the same injected fault.
    let (frame, target) = data.validation_batch(&[3], AngleUnit::Degrees);
    let golden = model.predict_angles_degrees(&frame)?[0];
    println!("\nground-truth steering angle: {:.2}°", target.data()[0]);
    println!("prediction (without fault): {golden:.2}°");

    let injection_target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let space = InjectionSpace::build(&injection_target, &frame)?;
    let fault = FaultModel::single_bit_fixed32();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    // Try a few random sites with a high-order flip and report the one with the largest
    // unprotected deviation — the "critical fault" the paper's Fig. 1 illustrates.
    let mut worst: Option<(f32, f32, PlannedFlip)> = None;
    let plan = model.graph.compile()?;
    for _ in 0..20 {
        let flip = PlannedFlip {
            site: space.sample(&mut rng),
            bit: 29,
        };
        let mut injector = FaultInjector::with_plan(fault, vec![flip]);
        let values = plan.run(&[(model.input_name.as_str(), frame.clone())], &mut injector)?;
        let angle = values.get(model.output)?.data()[0];
        let dev = (angle - golden).abs();
        if worst.as_ref().map(|(d, ..)| dev > *d).unwrap_or(true) {
            worst = Some((dev, angle, flip));
        }
    }
    let (_, faulty_angle, flip) = worst.expect("at least one trial ran");
    println!("prediction (with fault):    {faulty_angle:.2}°   <- unprotected model");

    let mut injector = FaultInjector::with_plan(fault, vec![flip]);
    let values = protected
        .graph
        .compile()?
        .run(&[(protected.input_name.as_str(), frame)], &mut injector)?;
    let corrected = values.get(protected.output)?.data()[0];
    println!("prediction (with fault):    {corrected:.2}°   <- model protected with Ranger");
    println!(
        "\nRanger reduced the steering deviation from {:.2}° to {:.2}°.",
        (faulty_angle - golden).abs(),
        (corrected - golden).abs()
    );
    Ok(())
}
