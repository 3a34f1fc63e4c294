//! Run a full fault-injection campaign (the paper's RQ1 methodology) on one model.
//!
//! ```text
//! cargo run --example fault_injection_campaign
//! ```
//!
//! The example runs the [`Pipeline`] API end to end: train a LeNet (quick recipe), derive
//! restriction bounds from 20% of the training data, measure the SDC rate under
//! single-bit-flip injection with and without Ranger, and print the resulting rates with
//! 95% confidence intervals — a miniature version of the paper's Fig. 6 for a single
//! model, in one builder chain.

use ranger::bounds::BoundsConfig;
use ranger::transform::RangerConfig;
use ranger_engine::Pipeline;
use ranger_inject::{CampaignConfig, FaultModel};
use ranger_models::{ModelKind, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials = 200;
    let cfg = TrainConfig {
        epochs: 6,
        batch_size: 32,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        train_samples: 300,
        validation_samples: 100,
    };

    println!("running the LeNet pipeline ({trials} trials per input) ...");
    let report = Pipeline::for_model(ModelKind::LeNet)
        .seed(21)
        .train(cfg)
        .profile(BoundsConfig::default())
        .protect(RangerConfig::default())
        .campaign(CampaignConfig {
            trials,
            batch: 1,
            workers: ranger_runtime::default_workers(),
            backend: ranger_inject::default_backend(),
            fault: FaultModel::single_bit_fixed32(),
            seed: 99,
            tile: 0,
        })
        .inputs(5)
        .run()?;

    println!(
        "validation accuracy: {:.1}%, {} clamps inserted, {:.2}% FLOPs overhead",
        report.validation_accuracy * 100.0,
        report.insertion.clamps_inserted,
        report.overhead.flops_percent
    );
    let campaign = report.campaign.expect("campaign configured");
    println!(
        "selected {} correctly-classified inputs, {trials} trials each",
        campaign.inputs
    );
    let orig = &campaign.baseline[0];
    let prot = &campaign.protected[0];
    println!(
        "\nSDC rate without Ranger: {:.2}% (±{:.2}%)",
        orig.sdc_percent, orig.ci95_percent
    );
    println!(
        "SDC rate with Ranger:    {:.2}% (±{:.2}%)",
        prot.sdc_percent, prot.ci95_percent
    );
    if prot.sdc_percent > 0.0 {
        println!(
            "reduction factor: {:.1}x (coverage {:.1}%)",
            orig.sdc_percent / prot.sdc_percent,
            campaign.coverage_percent[0]
        );
    } else {
        println!("Ranger eliminated every SDC observed in this campaign.");
    }
    Ok(())
}
