//! Implementations of the `ranger-cli` subcommands.

use crate::{CliError, Options};
use ranger::bounds::{profile_bounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger::transform::RangerConfig;
use ranger_datasets::driving::AngleUnit;
use ranger_engine::Pipeline;
use ranger_graph::op::RestorePolicy;
use ranger_inject::{
    run_campaign, BackendKind, CampaignConfig, ClassifierJudge, FaultModel, InjectionTarget,
    SdcJudge, SteeringJudge,
};
use ranger_models::zoo::ModelZoo;
use ranger_models::{Model, ModelConfig, ModelKind, Task, TrainConfig};
use ranger_tensor::{DataType, Tensor};
use std::path::Path;

// The saved-model file format lives with the campaign service (which must materialize
// submitted model files without the CLI); re-exported here so `train`/`protect` callers
// keep their original path to it.
pub use ranger_serve::SavedModel;

pub(crate) fn parse_model_name(name: &str) -> Result<ModelKind, CliError> {
    name.parse().map_err(CliError::Usage)
}

/// `ranger-cli train`: trains a benchmark model and saves it.
pub fn train(options: &Options) -> Result<String, CliError> {
    let kind = parse_model_name(options.require("model")?)?;
    let out = options.require("out")?.to_string();
    let seed = options.get_parsed("seed", 42u64)?;
    let config = ModelConfig::new(kind);
    let zoo = ModelZoo::with_default_dir();
    let trained = if options.has_flag("quick") {
        zoo.train_with(&config, &TrainConfig::quick(), seed)?
    } else {
        zoo.train(&config, seed)?
    };
    let saved = SavedModel {
        model: trained.model,
        seed,
        protected: false,
        percentile: None,
    };
    saved.save(Path::new(&out))?;
    Ok(format!(
        "trained {kind} (validation accuracy {:.1}%) in {:.1}s and saved it to {out}",
        trained.validation_accuracy * 100.0,
        trained.train_seconds
    ))
}

/// Parses `--backend f32|fixed16|fixed32|simd` (default: `RANGER_BACKEND`, then f32)
/// and the fault datatype that goes with it: an explicit `--fixed16` flag wins,
/// otherwise a fixed-point backend implies faults in its own word format (the only
/// valid pairing — the campaign rejects mismatches), and the f32-computing backends
/// (`f32`, `simd`) keep the paper's default fixed32 emulation.
///
/// Both the flag and the `RANGER_BACKEND` fallback reject unknown names with the known
/// backends listed — a misspelled sweep must fail loudly, not silently run f32.
pub(crate) fn parse_backend_and_datatype(
    options: &Options,
) -> Result<(BackendKind, DataType), CliError> {
    let backend = match options.get("backend") {
        None => ranger_inject::try_default_backend().map_err(CliError::Usage)?,
        Some(raw) => raw.parse().map_err(CliError::Usage)?,
    };
    let datatype = if options.has_flag("fixed16") {
        DataType::fixed16()
    } else {
        match backend.spec() {
            Some(spec) => DataType::Fixed(spec),
            None => DataType::fixed32(),
        }
    };
    Ok((backend, datatype))
}

/// Parses `--policy saturate|zero|random` into the protector for that policy.
fn parse_policy(options: &Options) -> Result<RestorePolicy, CliError> {
    match options.get("policy").unwrap_or("saturate") {
        "saturate" => Ok(RestorePolicy::Saturate),
        "zero" => Ok(RestorePolicy::Zero),
        "random" => Ok(RestorePolicy::Random),
        other => Err(CliError::Usage(format!(
            "unknown policy '{other}' (expected saturate, zero or random)"
        ))),
    }
}

/// `ranger-cli protect`: derives bounds from the training data and applies a protector.
pub fn protect(options: &Options) -> Result<String, CliError> {
    let input = options.require("in")?.to_string();
    let out = options.require("out")?.to_string();
    let percentile = options.get_parsed("percentile", 100.0f64)?;
    let fraction = options.get_parsed("fraction", ranger_engine::DEFAULT_PROFILE_FRACTION)?;
    let saved = SavedModel::load(Path::new(&input))?;
    if saved.protected {
        return Err(CliError::Usage(format!("{input} is already protected")));
    }
    let seed = options.get_parsed("seed", saved.seed)?;
    let samples = profiling_inputs(&saved.model, seed, fraction);
    let bounds = profile_bounds(
        &saved.model.graph,
        &saved.model.input_name,
        &samples,
        &BoundsConfig::with_percentile(percentile),
    )?;
    let protector = RangerProtector::new(RangerConfig::with_policy(parse_policy(options)?));
    let (graph, stats) = protector.protect(&saved.model.graph, &bounds)?;
    let mut protected = saved.clone();
    protected.model.graph = graph;
    protected.protected = true;
    protected.percentile = Some(percentile);
    protected.save(Path::new(&out))?;
    Ok(format!(
        "inserted {} range-restriction operators ({} activations, {} followers) using the {percentile}% bound; saved to {out}",
        stats.clamps_inserted, stats.activations_protected, stats.followers_protected
    ))
}

/// `ranger-cli pipeline`: the full profile → protect → inject arc in one command,
/// printing (and optionally saving) the JSON experiment record.
pub fn pipeline(options: &Options) -> Result<String, CliError> {
    let kind = parse_model_name(options.require("model")?)?;
    let seed = options.get_parsed("seed", 42u64)?;
    let trials = options.get_parsed("trials", 100usize)?;
    let batch = options.get_parsed("batch", 1usize)?;
    let workers = options.get_parsed("workers", ranger_runtime::default_workers())?;
    let inputs = options.get_parsed("inputs", 3usize)?;
    let percentile = options.get_parsed("percentile", 100.0f64)?;
    let fraction = options.get_parsed("fraction", ranger_engine::DEFAULT_PROFILE_FRACTION)?;
    let bits = options.get_parsed("bits", 1usize)?;
    let (backend, datatype) = parse_backend_and_datatype(options)?;
    let profile_ops = options.has_flag("profile");
    if profile_ops {
        // Timing slots are sized when plans warm, so the registry must be on already.
        ranger_obs::set_enabled(true);
    }

    let mut builder = Pipeline::for_model(kind)
        .seed(seed)
        .profile(BoundsConfig::with_percentile(percentile))
        .profile_fraction(fraction)
        .protect(RangerConfig::with_policy(parse_policy(options)?))
        .campaign(CampaignConfig {
            trials,
            batch,
            workers,
            backend,
            fault: FaultModel { datatype, bits },
            seed,
            tile: 0,
        })
        .inputs(inputs);
    if options.has_flag("quick") {
        builder = builder.train(TrainConfig::quick());
    }
    if let Some(path) = options.get("metrics-json") {
        builder = builder.metrics(path);
    }
    let report = builder.run()?;
    let json = serde_json::to_string_pretty(&report)?;
    let mut out_lines = vec![json];
    if let Some(out) = options.get("out") {
        std::fs::write(out, &out_lines[0])?;
        out_lines.push(format!("(wrote {out})"));
    }
    if let Some(path) = options.get("metrics-json") {
        out_lines.push(format!("(wrote metrics snapshot to {path})"));
    }
    if profile_ops {
        out_lines.push(profile_table(&ranger_obs::registry().snapshot()));
    }
    Ok(out_lines.join("\n"))
}

/// `ranger-cli inject`: runs a fault-injection campaign against a saved model.
pub fn inject(options: &Options) -> Result<String, CliError> {
    let input = options.require("in")?.to_string();
    let trials = options.get_parsed("trials", 100usize)?;
    let batch = options.get_parsed("batch", 1usize)?;
    let workers = options.get_parsed("workers", ranger_runtime::default_workers())?;
    let inputs = options.get_parsed("inputs", 3usize)?;
    let bits = options.get_parsed("bits", 1usize)?;
    let saved = SavedModel::load(Path::new(&input))?;
    let seed = options.get_parsed("seed", saved.seed)?;
    let (backend, datatype) = parse_backend_and_datatype(options)?;
    let fault = FaultModel { datatype, bits };
    let metrics_json = options.get("metrics-json").map(str::to_string);
    let profile_ops = options.has_flag("profile");
    if metrics_json.is_some() || profile_ops {
        // Timing slots are sized when the campaign's plans warm, so the registry must
        // be on before run_campaign compiles anything. Metrics draw no RNG and never
        // steer execution: the SDC counts below are bit-for-bit the unobserved run's.
        ranger_obs::set_enabled(true);
    }

    let model = &saved.model;
    let (batches, judge): (Vec<Tensor>, Box<dyn SdcJudge>) = match model.task {
        Task::Classification { .. } => {
            let data = ModelZoo::classification_data(model.config.kind, seed);
            let n = inputs.min(data.validation.len());
            (
                (0..n).map(|i| data.validation_batch(&[i]).0).collect(),
                Box::new(ClassifierJudge::top1()),
            )
        }
        Task::Regression { unit } => {
            let data = ModelZoo::driving_data(seed);
            let n = inputs.min(data.validation.len());
            (
                (0..n)
                    .map(|i| data.validation_batch(&[i], AngleUnit::Degrees).0)
                    .collect(),
                Box::new(SteeringJudge::paper_thresholds(unit == AngleUnit::Radians)),
            )
        }
    };
    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let config = CampaignConfig {
        trials,
        batch,
        workers,
        backend,
        fault,
        seed,
        tile: 0,
    };
    let result = run_campaign(&target, &batches, judge.as_ref(), &config)?;
    let mut lines = vec![format!(
        "{} | {} trials x {} inputs (batch {batch}, workers {workers}, backend {backend}) | fault model: {fault}",
        if saved.protected {
            "protected with Ranger"
        } else {
            "unprotected"
        },
        trials,
        batches.len()
    )];
    for (category, rate) in result.rates() {
        lines.push(format!(
            "  {category:<14} SDC rate {:6.2}%  (±{:.2}%)",
            rate.rate_percent(),
            rate.confidence95_percent()
        ));
    }
    if let Some(path) = &metrics_json {
        let mut json = ranger_obs::registry().snapshot().to_json();
        json.push('\n');
        std::fs::write(path, json)?;
        lines.push(format!("(wrote metrics snapshot to {path})"));
    }
    if profile_ops {
        lines.push(profile_table(&ranger_obs::registry().snapshot()));
    }
    Ok(lines.join("\n"))
}

/// Renders the registry's `plan.op.<kind>.{nanos,calls}` counters as a per-op wall-time
/// table, widest op first. `calls` counts node evaluations (passes × nodes of that
/// kind); `share` is the op's fraction of all timed plan nanoseconds.
pub(crate) fn profile_table(snapshot: &ranger_obs::MetricsSnapshot) -> String {
    let mut by_kind: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for (name, value) in snapshot.counters_with_prefix("plan.op.") {
        let rest = &name["plan.op.".len()..];
        if let Some(kind) = rest.strip_suffix(".nanos") {
            by_kind.entry(kind).or_default().0 = value;
        } else if let Some(kind) = rest.strip_suffix(".calls") {
            by_kind.entry(kind).or_default().1 = value;
        }
    }
    let mut rows: Vec<(&str, u64, u64)> = by_kind
        .into_iter()
        .map(|(kind, (nanos, calls))| (kind, nanos, calls))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total_nanos: u64 = rows.iter().map(|&(_, nanos, _)| nanos).sum();
    let mut lines = vec![
        "per-op wall time (golden + faulty passes):".to_string(),
        format!(
            "  {:<16} {:>10} {:>12} {:>12} {:>7}",
            "op", "calls", "total ms", "mean us", "share"
        ),
    ];
    for (kind, nanos, calls) in rows {
        let mean_us = if calls > 0 {
            nanos as f64 / calls as f64 / 1_000.0
        } else {
            0.0
        };
        let share = if total_nanos > 0 {
            nanos as f64 / total_nanos as f64 * 100.0
        } else {
            0.0
        };
        lines.push(format!(
            "  {kind:<16} {calls:>10} {:>12.2} {mean_us:>12.2} {share:>6.1}%",
            nanos as f64 / 1_000_000.0
        ));
    }
    if total_nanos == 0 {
        lines.push("  (no timed plan passes were recorded)".to_string());
    }
    lines.join("\n")
}

/// `ranger-cli info`: prints a summary of a saved model.
pub fn info(options: &Options) -> Result<String, CliError> {
    let input = options.require("in")?.to_string();
    let saved = SavedModel::load(Path::new(&input))?;
    let model = &saved.model;
    let task = match model.task {
        Task::Classification { num_classes } => format!("classification ({num_classes} classes)"),
        Task::Regression { unit } => format!(
            "steering regression ({})",
            match unit {
                AngleUnit::Degrees => "degrees",
                AngleUnit::Radians => "radians",
            }
        ),
    };
    Ok(format!(
        "{}\n  task:         {}\n  operators:    {}\n  parameters:   {}\n  activations:  {}\n  restrictions: {}\n  protected:    {}{}",
        model.config.kind.paper_name(),
        task,
        model.graph.operator_nodes()?.len(),
        model.parameter_count(),
        model.activation_count(),
        // Count every range-restriction operator, whatever its out-of-bounds policy —
        // zero/random protected models are protected too.
        model.graph.restriction_count(),
        saved.protected,
        saved
            .percentile
            .map(|p| format!(" (bound percentile {p}%)"))
            .unwrap_or_default()
    ))
}

/// Builds profiling inputs for bound derivation from the model's training dataset.
fn profiling_inputs(model: &Model, seed: u64, fraction: f64) -> Vec<Tensor> {
    if model.config.kind.is_steering() {
        let data = ModelZoo::driving_data(seed);
        let n = ((data.train.len() as f64) * fraction).ceil() as usize;
        (0..n.min(data.train.len()))
            .map(|i| data.train_batch(&[i], AngleUnit::Degrees).0)
            .collect()
    } else {
        let data = ModelZoo::classification_data(model.config.kind, seed);
        let n = ((data.train.len() as f64) * fraction).ceil() as usize;
        (0..n.min(data.train.len()))
            .map(|i| data.train_batch(&[i]).0)
            .collect()
    }
}

/// Dispatches a parsed command line.
pub fn run(mut args: std::env::Args) -> Result<String, CliError> {
    let _program = args.next();
    let command = args.next().unwrap_or_else(|| "help".to_string());
    let options = Options::parse(args);
    dispatch(&command, &options)
}

/// Dispatches a command by name (separated from [`run`] for testability), after
/// checking its options against the ones [`crate::USAGE`] documents for it.
pub fn dispatch(command: &str, options: &Options) -> Result<String, CliError> {
    let run: fn(&Options) -> Result<String, CliError> = match command {
        "train" => train,
        "protect" => protect,
        "inject" => inject,
        "pipeline" => pipeline,
        "info" => info,
        "serve" => crate::serve_commands::serve,
        "submit" => crate::serve_commands::submit,
        "work" => crate::serve_commands::work,
        "status" => crate::serve_commands::status,
        "stream" => crate::serve_commands::stream,
        "cancel" => crate::serve_commands::cancel,
        "metrics" => crate::serve_commands::metrics,
        "shutdown" => crate::serve_commands::shutdown,
        "help" | "--help" | "-h" => return Ok(crate::USAGE.to_string()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command '{other}'\n\n{}",
                crate::USAGE
            )))
        }
    };
    options.expect_documented(command)?;
    run(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ranger-cli-test-{}-{name}", std::process::id()))
    }

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn train_protect_info_inject_round_trip() {
        let model_path = tmp("lenet.json");
        let protected_path = tmp("lenet-protected.json");

        // Train with the quick recipe so the test stays fast.
        let msg = train(&opts(&[
            "--model",
            "lenet",
            "--out",
            model_path.to_str().unwrap(),
            "--seed",
            "5",
            "--quick",
        ]))
        .unwrap();
        assert!(msg.contains("LeNet"));

        // Protect it.
        let msg = protect(&opts(&[
            "--in",
            model_path.to_str().unwrap(),
            "--out",
            protected_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("range-restriction"));

        // Inspect both.
        let unprotected_info = info(&opts(&["--in", model_path.to_str().unwrap()])).unwrap();
        assert!(unprotected_info.contains("protected:    false"));
        let protected_info = info(&opts(&["--in", protected_path.to_str().unwrap()])).unwrap();
        assert!(protected_info.contains("protected:    true"));

        // Protecting an already-protected model is rejected.
        assert!(protect(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--out",
            protected_path.to_str().unwrap(),
        ]))
        .is_err());

        // A small injection campaign runs on both files.
        let report = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
        ]))
        .unwrap();
        assert!(report.contains("SDC rate"));

        // 8-trial work units report the same SDC rates for the same seed.
        let batched = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
            "--batch",
            "8",
        ]))
        .unwrap();
        let rates = |s: &str| {
            s.lines()
                .filter(|l| l.contains("SDC rate"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(rates(&report), rates(&batched));

        // So does the parallel campaign path (4 workers, same seed).
        let parallel = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
            "--workers",
            "4",
        ]))
        .unwrap();
        assert!(parallel.contains("workers 4"));
        assert_eq!(rates(&report), rates(&parallel));

        // The genuine fixed-point backend runs the same campaign end to end, reporting
        // which backend executed it, and is reproducible run-to-run.
        let fixed = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
            "--backend",
            "fixed16",
        ]))
        .unwrap();
        assert!(fixed.contains("backend fixed16"));
        assert!(fixed.contains("fault model: 1 bit flip(s) in fixed-Q14.2"));
        let fixed_again = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
            "--backend",
            "fixed16",
        ]))
        .unwrap();
        assert_eq!(rates(&fixed), rates(&fixed_again));

        // `simd` is an alias of the f32 backend, so its SDC rates are identical to
        // f32's for the same seed and only the reported name differs. The f32 run is
        // pinned explicitly: the default backend follows RANGER_BACKEND.
        let plain_f32 = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
            "--backend",
            "f32",
        ]))
        .unwrap();
        let simd = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--trials",
            "20",
            "--inputs",
            "1",
            "--backend",
            "simd",
        ]))
        .unwrap();
        assert!(simd.contains("backend simd"));
        assert_eq!(rates(&plain_f32), rates(&simd));

        // An unknown backend is a usage error; a contradictory backend/fault pairing is
        // rejected by the campaign with a descriptive message.
        let err = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--backend",
            "tpu",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown backend"));
        let err = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--backend",
            "fixed32",
            "--fixed16",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("does not match"),
            "unexpected error: {err}"
        );

        // A zero batch or worker count is rejected with a descriptive campaign error.
        let err = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--batch",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("batch must be positive"));
        let err = inject(&opts(&[
            "--in",
            protected_path.to_str().unwrap(),
            "--workers",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("workers must be positive"));

        let _ = std::fs::remove_file(model_path);
        let _ = std::fs::remove_file(protected_path);
    }

    #[test]
    fn dispatch_rejects_unknown_commands_and_prints_help() {
        assert!(dispatch("frobnicate", &opts(&[])).is_err());
        assert!(dispatch("help", &opts(&[])).unwrap().contains("USAGE"));
        assert!(dispatch("help", &opts(&[])).unwrap().contains("pipeline"));
    }

    #[test]
    fn pipeline_command_prints_a_json_report() {
        // --quick trains with the fast recipe and bypasses the zoo cache entirely.
        let report = pipeline(&opts(&[
            "--model", "lenet", "--quick", "--seed", "3", "--trials", "10", "--inputs", "1",
        ]))
        .unwrap();
        assert!(report.contains("\"model\": \"LeNet\""));
        assert!(report.contains("\"protector\": \"ranger\""));
        assert!(report.contains("\"campaign\""));
    }

    /// A misspelled or unsupported option is refused before anything runs, instead of
    /// silently leaving its setting at the default.
    #[test]
    fn unknown_options_are_usage_errors() {
        // A row-group height was an option of earlier releases; there is no tiling now.
        let removed = format!("--{}", "tile");
        let err = dispatch(
            "inject",
            &opts(&["--in", "/nonexistent/model.json", &removed, "4"]),
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains(&removed)),
            "unexpected error: {err}"
        );
        let err = dispatch("submit", &opts(&["--model", "lenet", "--trails", "3"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("--trails")),
            "unexpected error: {err}"
        );
        // Every documented option passes, from the command's continuation lines too.
        let parse = |line: &str| Options::parse(line.split(' ').map(str::to_string));
        let inject_line = "--in m --trials 1 --batch 1 --workers 1 --inputs 1 --backend f32 \
                           --bits 1 --fixed16 --seed 1 --metrics-json m --profile";
        parse(inject_line).expect_documented("inject").unwrap();
        let work_line = "--addr a --id c --name w --lease-ms 9 --claim 2 --poll-ms 9";
        parse(work_line).expect_documented("work").unwrap();
        assert!(parse("--id c").expect_documented("metrics").is_err());
    }

    #[test]
    fn unknown_policy_is_a_usage_error() {
        let err = pipeline(&opts(&["--model", "lenet", "--policy", "clip"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn unknown_model_name_is_a_usage_error() {
        let err = train(&opts(&["--model", "resnext", "--out", "/tmp/x.json"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = info(&opts(&["--in", "/nonexistent/model.json"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
