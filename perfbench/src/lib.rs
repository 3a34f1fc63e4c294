//! The repository benchmark.
//!
//! One command runs a named workload through the crates' public APIs: it sets up
//! (model load from the quick-trained cache, bound profiling, Ranger insertion, input
//! selection or server bind), runs measured fault-injection campaigns for a fixed time,
//! checks their outputs against the per-sample reference path outside the timed
//! region, and prints every metric by name with its unit. The untraced run reports the
//! end-to-end metrics; the traced run records spans around each layer call, enables
//! the `ranger-obs` registry and reports the per-layer metrics. `BENCHMARK.json` at
//! the repository root declares the workloads and metrics; `run.py` builds and runs
//! this program.

pub mod check;
pub mod compute;
pub mod models;
pub mod report;
pub mod served;
pub mod trace;
pub mod workloads;

use crate::compute::ComputeCampaigns;
use crate::models::QuickModels;
use crate::report::{json_escape, median, Metric};
use crate::served::ServedCampaigns;
use crate::trace::Tracer;
use crate::workloads::{
    layer_metrics, repeat_setup, run_phase, Campaigns, LayerInputs, Phase, RunConfig, WARMUP_S,
};
use std::path::Path;

/// Environment variables that silently change what a workload runs.
pub const FORBIDDEN_ENV: [&str; 6] = [
    "RANGER_BACKEND",
    "RANGER_WORKERS",
    "RANGER_TILE",
    "RANGER_METRICS",
    "RANGER_LEASE_MS",
    "RANGER_SIMD_FORCE",
];

/// Refuses to run when any of [`FORBIDDEN_ENV`] is set (`is_set` answers per name).
///
/// # Errors
///
/// Returns a message naming every variable that is set.
pub fn check_env(is_set: impl Fn(&str) -> bool) -> Result<(), String> {
    let set: Vec<&str> = FORBIDDEN_ENV.into_iter().filter(|v| is_set(v)).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: it changes what the workloads measure; unset it",
            set.join(", ")
        ))
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Chunks attempted.
    pub attempted: u64,
    /// Failed calls, plus chunks whose tally disagrees with the reference, plus failed
    /// consistency checks of served campaigns.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// One JSON object describing the run: environment, sizes, SDC rates.
    pub info: String,
}

/// Runs one workload as `config` says.
///
/// # Errors
///
/// Returns a message if the model cache, setup or the run directory fails; failures of
/// campaigns are counted in the report instead.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let models = QuickModels::new(&config.cache_dir);
    let train_s = models.ensure(config.workload.model())?;
    let run_dir = config.out_dir.join(format!(
        "run-{}-{}-{}",
        config.workload.name(),
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let tracer = config.trace.then(Tracer::new);
    let report = run_in(config, &models, tracer.as_ref(), &run_dir, train_s);
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Some(tracer) = &tracer {
        let path = config.out_dir.join(format!(
            "trace-{}-seed{}.json",
            config.workload.name(),
            config.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote spans to {}", path.display());
    }
    report
}

fn run_in(
    config: &RunConfig,
    models: &QuickModels,
    tracer: Option<&Tracer>,
    run_dir: &Path,
    train_s: f64,
) -> Result<RunReport, String> {
    let workload = config.workload;
    let (inputs, trials) = workload.sizes(config.smoke);
    let (mut campaigns, setup_s): (Box<dyn Campaigns>, Vec<f64>) = if workload.served() {
        let (setup, seconds) = repeat_setup(config.setup_budget(), tracer, |scope| {
            served::setup(models, run_dir, scope)
        })?;
        let campaigns = ServedCampaigns::start(setup, config.seed, inputs, trials)?;
        (Box::new(campaigns), seconds)
    } else {
        let (setup, seconds) = repeat_setup(config.setup_budget(), tracer, |scope| {
            compute::setup(workload, models, config.seed, inputs, scope)
        })?;
        (
            Box::new(ComputeCampaigns::new(workload, setup, config.seed, trials)),
            seconds,
        )
    };

    let setup_rss_mib = report::rss_mib().unwrap_or(0.0);

    let warmup = if config.smoke {
        Phase::default()
    } else {
        run_phase(campaigns.as_mut(), 0, WARMUP_S, None)
    };
    let k0 = warmup.campaigns;

    // The traced run splits its time: an untraced half for the overhead reference,
    // then a traced half with the registry on and reset.
    let (untraced, traced) = if tracer.is_some() {
        let untraced = run_phase(campaigns.as_mut(), k0, config.seconds / 2.0, None);
        ranger_obs::set_enabled(true);
        ranger_obs::registry().reset();
        let traced = run_phase(
            campaigns.as_mut(),
            k0 + untraced.campaigns,
            config.seconds / 2.0,
            tracer,
        );
        (untraced, Some((traced, ranger_obs::registry().snapshot())))
    } else {
        (
            run_phase(campaigns.as_mut(), k0, config.seconds, None),
            None,
        )
    };
    let check_start = std::time::Instant::now();
    let mismatches = campaigns.check();
    let check_s = check_start.elapsed().as_secs_f64();
    let serve_layers = campaigns.layers();
    drop(campaigns);

    let traced_phase = traced.as_ref().map(|(phase, _)| phase);
    let attempted = warmup.chunks + untraced.chunks + traced_phase.map_or(0, |p| p.chunks);
    let failed =
        warmup.failed + untraced.failed + traced_phase.map_or(0, |p| p.failed) + mismatches;
    let metrics = match (&traced, tracer) {
        (Some((phase, snapshot)), Some(tracer)) => layer_metrics(&LayerInputs {
            spans: &tracer.spans(),
            snapshot,
            untraced: &untraced,
            traced: phase,
            serve: serve_layers,
            served: workload.served(),
            attempted,
            failed,
        }),
        _ => vec![
            Metric::new("trials_per_s", untraced.trials_per_s(), "trials/s"),
            Metric::new("setup_s", median(&setup_s), "s"),
            // What setup keeps resident plus the median campaign's peak above what it
            // found resident: memory the server retains across campaigns would make a
            // plain high-water mark depend on how many campaigns fit in the run.
            Metric::new(
                "peak_rss_mb",
                setup_rss_mib + median(&untraced.campaign_rss_rise_mib),
                "MiB",
            ),
        ],
    };
    let info = info_json(
        config,
        train_s,
        &setup_s,
        warmup.campaigns,
        &untraced,
        traced_phase,
        mismatches,
        check_s,
        inputs,
        trials,
    );
    Ok(RunReport {
        attempted,
        failed,
        metrics,
        info,
    })
}

#[allow(clippy::too_many_arguments)]
fn info_json(
    config: &RunConfig,
    train_s: f64,
    setup_s: &[f64],
    warmup_campaigns: usize,
    untraced: &Phase,
    traced: Option<&Phase>,
    mismatches: u64,
    check_s: f64,
    inputs: usize,
    trials: usize,
) -> String {
    let mut rates = Vec::new();
    let mut arms = untraced.arms.clone();
    for (arm, result) in traced.map(|p| p.arms.clone()).unwrap_or_default() {
        let merged = match arms.get(arm) {
            Some(total) => total.merge(&result),
            None => result,
        };
        arms.insert(arm, merged);
    }
    for (arm, result) in &arms {
        for (category, rate) in result.rates() {
            rates.push(format!(
                "\"{arm}/{}\": {}",
                json_escape(&category),
                rate.rate_percent()
            ));
        }
    }
    let list = |values: &[f64]| {
        let items: Vec<String> = values.iter().map(f64::to_string).collect();
        items.join(", ")
    };
    format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"simd_tier\": \"{}\", \
         \"nproc\": {}, \"train_s\": {train_s}, \"setup_s\": [{}], \"campaign_trials_per_s\": [{}], \"inputs\": {inputs}, \
         \"trials_per_input\": {trials}, \"warmup_campaigns\": {warmup_campaigns}, \"campaigns\": {}, \"untraced_trials_per_s\": {}, \
         \"mismatched_chunks\": {mismatches}, \"check_s\": {check_s}, \"sdc_percent\": {{{}}}}}}}",
        config.workload.name(),
        config.seed,
        config.trace,
        ranger_simd::active_tier().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        list(setup_s),
        list(&untraced.campaign_rates),
        untraced.campaigns + traced.map_or(0, |p| p.campaigns),
        untraced.trials_per_s(),
        rates.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_forbidden_variable_is_named() {
        assert!(check_env(|_| false).is_ok());
        let err = check_env(|v| v == "RANGER_TILE" || v == "RANGER_SIMD_FORCE").unwrap_err();
        assert!(err.contains("RANGER_TILE, RANGER_SIMD_FORCE"), "{err}");
        for var in FORBIDDEN_ENV {
            assert!(check_env(|v| v == var).unwrap_err().contains(var));
        }
    }
}
