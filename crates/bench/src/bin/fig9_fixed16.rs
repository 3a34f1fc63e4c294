//! Fig. 9 (RQ4): SDC rates of all eight DNNs under the 16-bit fixed-point datatype (14
//! integer bits, 2 fractional bits), with and without Ranger.
//!
//! Two execution paths are reported side by side:
//!
//! * **emulated** — the historical path: inference computes in `f32` and only the
//!   corrupted value is encoded in Q14.2, flipped and decoded (float compute with
//!   fixed-point corruption);
//! * **fixed16** — the genuine RQ4 measurement: the whole campaign (golden passes
//!   included) runs on the fixed-point execution backend, activations are stored as raw
//!   Q14.2 words, and faults flip bits directly in those words.
//!
//! Both paths draw their fault plans from the same index-keyed RNG streams, so for a
//! given seed the same (operator, element, bit) sites are struck — only the compute
//! differs.

use ranger::bounds::BoundsConfig;
use ranger::transform::RangerConfig;
use ranger_bench::{
    correct_classifier_inputs, correct_steering_inputs, outputs_radians, print_table,
    protect_model, run_model_campaign, write_json, ExpOptions, DEFAULT_PROFILE_FRACTION,
};
use ranger_inject::{
    BackendKind, CampaignConfig, CampaignResult, ClassifierJudge, FaultModel, SdcJudge,
    SteeringJudge,
};
use ranger_models::{ModelConfig, ModelKind, ModelZoo};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    emulated_original_sdc_percent: f64,
    emulated_ranger_sdc_percent: f64,
    fixed_original_sdc_percent: f64,
    fixed_ranger_sdc_percent: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ExpOptions::from_args();
    let zoo = ModelZoo::with_default_dir();
    // This experiment is inherently about the 16-bit fixed-point datatype: the backend
    // pair is fixed here (emulated f32 vs genuine fixed16), not taken from --backend.
    let config = |backend| CampaignConfig {
        trials: opts.trials,
        batch: opts.batch,
        workers: opts.workers,
        backend,
        fault: FaultModel::single_bit_fixed16(),
        seed: opts.seed,
        tile: 0,
    };
    let mut rows = Vec::new();

    for kind in opts.models_or(&ModelKind::all()) {
        eprintln!("[fig9] preparing {kind} ...");
        let trained = zoo.load_or_train(&ModelConfig::new(kind), opts.seed)?;
        let protected = protect_model(
            &trained.model,
            opts.seed,
            DEFAULT_PROFILE_FRACTION,
            &BoundsConfig::default(),
            &RangerConfig::default(),
        )?;
        let (inputs, judge): (Vec<_>, Box<dyn SdcJudge>) = if kind.is_steering() {
            (
                correct_steering_inputs(&trained.model, opts.seed, opts.inputs, 60.0)?,
                Box::new(SteeringJudge::paper_thresholds(outputs_radians(
                    &trained.model,
                ))),
            )
        } else {
            (
                correct_classifier_inputs(&trained.model, opts.seed, opts.inputs)?,
                Box::new(ClassifierJudge::top1()),
            )
        };
        // The paper's Fig. 9 reports the per-model average across categories.
        let avg = |r: &CampaignResult| {
            (0..r.categories.len())
                .map(|i| r.sdc_rate(i).expect("category in range").rate_percent())
                .sum::<f64>()
                / r.categories.len().max(1) as f64
        };
        let mut arms = [0.0f64; 4];
        for (slot, (backend, model)) in arms.iter_mut().zip([
            (BackendKind::F32, &trained.model),
            (BackendKind::F32, &protected.model),
            (BackendKind::Fixed16, &trained.model),
            (BackendKind::Fixed16, &protected.model),
        ]) {
            *slot = avg(&run_model_campaign(
                model,
                &inputs,
                judge.as_ref(),
                &config(backend),
            )?);
        }
        rows.push(Row {
            model: kind.paper_name().to_string(),
            emulated_original_sdc_percent: arms[0],
            emulated_ranger_sdc_percent: arms[1],
            fixed_original_sdc_percent: arms[2],
            fixed_ranger_sdc_percent: arms[3],
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                format!("{:.2}%", r.emulated_original_sdc_percent),
                format!("{:.2}%", r.emulated_ranger_sdc_percent),
                format!("{:.2}%", r.fixed_original_sdc_percent),
                format!("{:.2}%", r.fixed_ranger_sdc_percent),
            ]
        })
        .collect();
    print_table(
        "Fig. 9 — SDC rates under the 16-bit fixed-point datatype \
         (emulated = f32 compute with Q14.2 corruption; fixed16 = genuine Q14.2 inference)",
        &[
            "Model",
            "Emulated orig",
            "Emulated Ranger",
            "Fixed16 orig",
            "Fixed16 Ranger",
        ],
        &table,
    );
    let mean = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "\nAverage SDC rate: emulated {:.2}% -> {:.2}% (Ranger) | fixed16 {:.2}% -> {:.2}% (Ranger)",
        mean(|r| r.emulated_original_sdc_percent),
        mean(|r| r.emulated_ranger_sdc_percent),
        mean(|r| r.fixed_original_sdc_percent),
        mean(|r| r.fixed_ranger_sdc_percent),
    );
    write_json("fig9_fixed16", &rows);
    Ok(())
}
