//! Section VI-C: design alternatives for the range-restriction operator — saturate at the
//! bound (Ranger), reset to zero (Reagen et al. style), or replace with a random in-range
//! value — compared on fault-free accuracy and on SDC rate under injection.

use ranger::alternatives::all_policies;
use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{DesignAlternative, Protector};
use ranger_bench::{
    correct_classifier_inputs, print_table, profiling_samples, run_model_campaign, write_json,
    ExpOptions,
};
use ranger_inject::{ClassifierJudge, FaultModel};
use ranger_models::train::classification_accuracy;
use ranger_models::{ModelConfig, ModelKind, ModelZoo};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    top1_accuracy_percent: f64,
    sdc_percent: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ExpOptions::from_args();
    let zoo = ModelZoo::with_default_dir();
    // The paper uses VGG16; the default here is LeNet so the experiment completes quickly
    // (pass `--models vgg16` for the paper's setting).
    let kind = opts.models_or(&[ModelKind::LeNet])[0];
    eprintln!("[alternatives] preparing {kind} ...");
    let trained = zoo.load_or_train(&ModelConfig::new(kind), opts.seed)?;
    let data = ModelZoo::classification_data(kind, opts.seed);
    let samples = profiling_samples(kind, opts.seed, 0.2);
    let bounds = profile_bounds(
        &trained.model.graph,
        &trained.model.input_name,
        &samples,
        &BoundsConfig::default(),
    )?;
    let inputs = correct_classifier_inputs(&trained.model, opts.seed, opts.inputs)?;
    let judge = ClassifierJudge::top1();
    let campaign = opts.campaign(FaultModel::single_bit_fixed32());

    let mut rows = Vec::new();
    let (top1, _) = classification_accuracy(&trained.model, &data, true)?;
    let unprotected = run_model_campaign(&trained.model, &inputs, &judge, &campaign)?;
    rows.push(Row {
        policy: "Unprotected".to_string(),
        top1_accuracy_percent: top1 * 100.0,
        sdc_percent: unprotected
            .sdc_rate(0)
            .expect("category in range")
            .rate_percent(),
    });

    for policy in all_policies() {
        let (graph, _) = DesignAlternative::new(policy).protect(&trained.model.graph, &bounds)?;
        let mut model = trained.model.clone();
        model.graph = graph;
        let (top1, _) = classification_accuracy(&model, &data, true)?;
        let result = run_model_campaign(&model, &inputs, &judge, &campaign)?;
        rows.push(Row {
            policy: format!("{policy:?}"),
            top1_accuracy_percent: top1 * 100.0,
            sdc_percent: result
                .sdc_rate(0)
                .expect("category in range")
                .rate_percent(),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.2}%", r.top1_accuracy_percent),
                format!("{:.2}%", r.sdc_percent),
            ]
        })
        .collect();
    print_table(
        &format!("Section VI-C — design alternatives on {kind}"),
        &[
            "Out-of-bounds policy",
            "Top-1 accuracy (no faults)",
            "SDC rate",
        ],
        &table,
    );
    write_json("alt_design_alternatives", &rows);
    Ok(())
}
