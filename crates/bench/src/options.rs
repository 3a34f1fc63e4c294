//! Command-line options shared by every experiment binary.

use ranger_inject::{BackendKind, CampaignConfig, FaultModel};
use ranger_models::ModelKind;
use ranger_tensor::DataType;

/// Options controlling an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpOptions {
    /// Fault-injection trials per input.
    pub trials: usize,
    /// Trials per campaign work unit (1 = sized from the trial and worker counts; any
    /// value reproduces identical SDC counts).
    pub batch: usize,
    /// Worker threads executing campaign trials (1 = the serial path; any value
    /// reproduces identical SDC counts). Defaults to `RANGER_WORKERS` when set.
    pub workers: usize,
    /// Execution backend campaigns run on (f32 on the runtime-dispatched kernels, its
    /// `simd` alias, or genuine fixed16/fixed32 inference). Defaults to
    /// `RANGER_BACKEND` when set. Build campaign configurations
    /// through [`ExpOptions::campaign`] so a fixed backend realigns the experiment's
    /// fault datatype to its word format; fixed-point-specific binaries (fig9) manage
    /// the backend themselves.
    pub backend: BackendKind,
    /// Number of (correctly predicted) inputs per model.
    pub inputs: usize,
    /// Seed for model training, datasets and fault sampling.
    pub seed: u64,
    /// Run at a scale close to the paper's campaigns (10 inputs, thousands of trials).
    pub full: bool,
    /// Restrict the experiment to these models (empty = the experiment's default set).
    pub models: Vec<ModelKind>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            trials: 200,
            batch: 1,
            workers: ranger_runtime::default_workers(),
            backend: ranger_inject::default_backend(),
            inputs: 5,
            seed: 42,
            full: false,
            models: Vec::new(),
        }
    }
}

impl ExpOptions {
    /// Parses options from command-line arguments (`--trials N --batch N --workers N
    /// --backend f32|fixed16|fixed32|simd --inputs N --seed N --full
    /// --models lenet,dave`). Unknown arguments are ignored so binaries can add their
    /// own flags.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument iterator.
    ///
    /// An unknown `--backend` value aborts the process with an error naming the known
    /// backends — silently running an experiment on the default backend would produce a
    /// result labelled with the wrong backend (the same fail-fast rule
    /// `RANGER_BENCH_FILTER` follows).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        match Self::try_parse(args) {
            Ok(opts) => opts,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(1);
            }
        }
    }

    /// Parses options, reporting misuse as an `Err` instead of exiting.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ExpOptions::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--trials" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        opts.trials = v;
                        i += 1;
                    }
                }
                "--batch" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        opts.batch = v;
                        i += 1;
                    }
                }
                "--workers" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        opts.workers = v;
                        i += 1;
                    }
                }
                "--backend" => {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| "--backend requires a value".to_string())?;
                    opts.backend = value.parse().map_err(|e| format!("--backend: {e}"))?;
                    i += 1;
                }
                "--inputs" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        opts.inputs = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                "--models" => {
                    if let Some(list) = args.get(i + 1) {
                        opts.models = list
                            .split(',')
                            .filter_map(|name| parse_model_kind(name.trim()))
                            .collect();
                        i += 1;
                    }
                }
                "--full" => {
                    opts.full = true;
                    opts.trials = 3000;
                    opts.inputs = 10;
                }
                _ => {}
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Builds the campaign configuration for this run: trials, batch, workers, backend
    /// and seed from the options, applying `fault` — with its datatype realigned to the
    /// backend's word format when a fixed-point backend is selected (the only pairing
    /// [`CampaignConfig::validate`] accepts; the flip count is preserved). This is what
    /// lets `--backend fixed16` (or `RANGER_BACKEND=fixed16`) rerun any experiment
    /// binary on genuine fixed-point inference.
    pub fn campaign(&self, fault: FaultModel) -> CampaignConfig {
        let fault = match self.backend.spec() {
            Some(spec) => FaultModel {
                datatype: DataType::Fixed(spec),
                bits: fault.bits,
            },
            None => fault,
        };
        CampaignConfig {
            trials: self.trials,
            batch: self.batch,
            workers: self.workers,
            backend: self.backend,
            fault,
            seed: self.seed,
            tile: 0,
        }
    }

    /// The models to evaluate: the explicit `--models` list if given, otherwise `default`.
    pub fn models_or(&self, default: &[ModelKind]) -> Vec<ModelKind> {
        if self.models.is_empty() {
            default.to_vec()
        } else {
            self.models.clone()
        }
    }
}

/// Parses a model name as used on the command line.
pub fn parse_model_kind(name: &str) -> Option<ModelKind> {
    match name.to_ascii_lowercase().as_str() {
        "lenet" => Some(ModelKind::LeNet),
        "alexnet" => Some(ModelKind::AlexNet),
        "vgg11" => Some(ModelKind::Vgg11),
        "vgg16" => Some(ModelKind::Vgg16),
        "resnet18" | "resnet-18" | "resnet" => Some(ModelKind::ResNet18),
        "squeezenet" => Some(ModelKind::SqueezeNet),
        "dave" => Some(ModelKind::Dave),
        "comma" | "comma.ai" => Some(ModelKind::Comma),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExpOptions {
        ExpOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_scaled_down() {
        let opts = ExpOptions::default();
        assert!(opts.trials < 3000 && opts.inputs < 10 && !opts.full);
    }

    #[test]
    fn flags_override_defaults() {
        let opts = parse(&[
            "--trials",
            "500",
            "--inputs",
            "3",
            "--seed",
            "9",
            "--batch",
            "16",
            "--workers",
            "4",
        ]);
        assert_eq!(opts.trials, 500);
        assert_eq!(opts.inputs, 3);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.batch, 16);
        assert_eq!(opts.workers, 4);
        assert_eq!(
            parse(&["--backend", "fixed16"]).backend,
            BackendKind::Fixed16
        );
        assert_eq!(parse(&["--backend", "simd"]).backend, BackendKind::Simd);
    }

    /// An unknown backend must not silently run the experiment on the default backend:
    /// the result would be labelled with a backend that never executed.
    #[test]
    fn unknown_backend_is_rejected_with_the_known_names() {
        let err = ExpOptions::try_parse(["--backend".to_string(), "warp".to_string()]).unwrap_err();
        assert!(err.contains("unknown backend"), "unexpected error: {err}");
        for name in ["f32", "fixed16", "fixed32", "simd"] {
            assert!(err.contains(name), "error does not list {name}: {err}");
        }
        let err = ExpOptions::try_parse(["--backend".to_string()]).unwrap_err();
        assert!(err.contains("requires a value"));
    }

    /// `ExpOptions::campaign` must always hand the runner a valid configuration: on a
    /// fixed backend the experiment's fault datatype realigns to the backend's word
    /// format (keeping the flip count), on f32 it passes through untouched.
    #[test]
    fn campaign_builder_aligns_fault_with_backend() {
        use ranger_inject::FaultModel;
        let mut opts = parse(&["--trials", "9", "--seed", "4", "--backend", "fixed16"]);
        let config = opts.campaign(FaultModel::multi_bit_fixed32(3));
        assert_eq!(config.trials, 9);
        assert_eq!(config.seed, 4);
        assert_eq!(config.backend, BackendKind::Fixed16);
        assert_eq!(config.fault.bits, 3);
        assert!(config.validate().is_ok(), "realigned config must validate");

        opts.backend = BackendKind::F32;
        let passthrough = opts.campaign(FaultModel::single_bit_fixed16());
        assert_eq!(passthrough.fault, FaultModel::single_bit_fixed16());
        assert!(passthrough.validate().is_ok());
        assert_eq!(parse(&[]).batch, 1, "per-sample path is the default");
        assert!(parse(&[]).workers >= 1, "worker default is always usable");
    }

    #[test]
    fn full_matches_paper_scale() {
        let opts = parse(&["--full"]);
        assert_eq!(opts.trials, 3000);
        assert_eq!(opts.inputs, 10);
        assert!(opts.full);
    }

    #[test]
    fn model_list_parses_and_falls_back() {
        let opts = parse(&["--models", "lenet,dave,unknown"]);
        assert_eq!(opts.models, vec![ModelKind::LeNet, ModelKind::Dave]);
        assert_eq!(
            opts.models_or(&[ModelKind::Vgg16]),
            vec![ModelKind::LeNet, ModelKind::Dave]
        );
        let empty = parse(&[]);
        assert_eq!(empty.models_or(&[ModelKind::Vgg16]), vec![ModelKind::Vgg16]);
    }

    #[test]
    fn unknown_arguments_are_ignored() {
        let opts = parse(&["--percentile", "99", "--trials", "10"]);
        assert_eq!(opts.trials, 10);
    }

    #[test]
    fn model_names_parse_case_insensitively() {
        assert_eq!(parse_model_kind("ResNet-18"), Some(ModelKind::ResNet18));
        assert_eq!(parse_model_kind("COMMA"), Some(ModelKind::Comma));
        assert_eq!(parse_model_kind("nope"), None);
    }
}
