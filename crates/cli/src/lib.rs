//! Library backing the `ranger-cli` binary.
//!
//! The command-line tool wraps the workflow a user of the original Ranger artifact would
//! follow with TensorFlow checkpoints: train a benchmark model, derive restriction bounds
//! from its training data, produce a protected copy of the model, and measure SDC rates
//! with fault-injection campaigns — all against models serialized as JSON files so the
//! steps can be run and inspected independently.

#![warn(missing_docs)]

pub mod commands;
pub mod serve_commands;

use std::fmt;

/// Errors surfaced to the command-line user.
#[derive(Debug)]
pub enum CliError {
    /// The command line could not be parsed; the string is a usage message.
    Usage(String),
    /// An underlying graph/training operation failed.
    Graph(ranger_graph::GraphError),
    /// Training or the model zoo failed.
    Zoo(ranger_models::zoo::ZooError),
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// A model file could not be decoded.
    Decode(serde_json::Error),
    /// A fault-injection campaign was misconfigured or failed.
    Campaign(ranger_inject::CampaignError),
    /// The campaign service (server, client or checkpoint store) failed.
    Serve(ranger_serve::ServeError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Graph(e) => write!(f, "graph error: {e}"),
            CliError::Zoo(e) => write!(f, "training error: {e}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Decode(e) => write!(f, "could not decode model file: {e}"),
            CliError::Campaign(e) => write!(f, "campaign error: {e}"),
            CliError::Serve(e) => write!(f, "campaign service error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ranger_graph::GraphError> for CliError {
    fn from(e: ranger_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<ranger_models::zoo::ZooError> for CliError {
    fn from(e: ranger_models::zoo::ZooError) -> Self {
        CliError::Zoo(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Decode(e)
    }
}

impl From<ranger_inject::CampaignError> for CliError {
    fn from(e: ranger_inject::CampaignError) -> Self {
        CliError::Campaign(e)
    }
}

impl From<ranger_serve::ServeError> for CliError {
    fn from(e: ranger_serve::ServeError) -> Self {
        // Unwrap the categories the CLI already reports natively; keep the
        // service-specific ones (protocol, fingerprint, corruption) intact.
        match e {
            ranger_serve::ServeError::Campaign(e) => CliError::Campaign(e),
            ranger_serve::ServeError::Io(e) => CliError::Io(e),
            ranger_serve::ServeError::Json(e) => CliError::Decode(e),
            other => CliError::Serve(other),
        }
    }
}

impl From<ranger_engine::PipelineError> for CliError {
    fn from(e: ranger_engine::PipelineError) -> Self {
        // Preserve the error category instead of collapsing everything into Usage.
        match e {
            ranger_engine::PipelineError::InvalidConfig(msg) => CliError::Usage(msg),
            ranger_engine::PipelineError::Zoo(e) => CliError::Zoo(e),
            ranger_engine::PipelineError::Graph(e) => CliError::Graph(e),
            ranger_engine::PipelineError::Campaign(e) => CliError::Campaign(e),
            ranger_engine::PipelineError::Serve(e) => CliError::from(e),
            e @ ranger_engine::PipelineError::Interrupted => {
                CliError::Serve(ranger_serve::ServeError::Protocol(e.to_string()))
            }
            ranger_engine::PipelineError::MetricsIo(e) => CliError::Io(e),
        }
    }
}

/// The usage text printed by `ranger-cli help`.
pub const USAGE: &str = "\
ranger-cli — train, protect and fault-inject the Ranger benchmark DNNs

USAGE:
    ranger-cli <command> [options]

COMMANDS:
    train    --model <name> --out <model.json> [--seed N] [--quick]
             Train a benchmark model on its synthetic dataset and save it.
    protect  --in <model.json> --out <protected.json> [--percentile P] [--fraction F]
             [--policy saturate|zero|random] [--seed N]
             Derive restriction bounds from the training data and insert Ranger.
    inject   --in <model.json> [--trials N] [--batch N] [--workers N] [--inputs N]
             [--backend f32|fixed16|fixed32|simd] [--bits N] [--fixed16] [--seed N]
             [--metrics-json <path>] [--profile]
             Run a fault-injection campaign and report SDC rates. Every trial runs
             only its fault cone from the input's golden pass. --batch N groups N
             trials into one work unit (the unit a worker runs and a checkpoint
             records) and --workers N runs the units on an N-worker pool; results are
             identical for any batch and worker count.
             --backend fixed16|fixed32 runs genuine fixed-point inference and flips
             bits directly in the stored integer words (faults default to the
             backend's own word format); the default f32 backend emulates fixed-point
             corruption on float compute (--fixed16 selects the 16-bit fault model).
             f32 runs on the widest SIMD tier the host offers (AVX-512/AVX2/NEON);
             --backend simd is an alias of f32 (same kernels, same counts) that the
             report names simd.
             --metrics-json writes the run's metrics snapshot (per-op plan timings,
             pool worker tallies, campaign latency histograms) as one line of JSON;
             --profile prints a per-op wall-time table. Neither changes any count.
    pipeline --model <name> [--trials N] [--batch N] [--workers N] [--inputs N]
             [--backend f32|fixed16|fixed32|simd] [--seed N] [--percentile P] [--fraction F]
             [--policy saturate|zero|random] [--bits N] [--fixed16] [--quick]
             [--out report.json] [--metrics-json <path>] [--profile]
             Run the full profile -> protect -> inject pipeline and print the JSON report.
    info     --in <model.json>
             Print a summary of a saved model (operators, parameters, restrictions).
    serve    [--addr HOST:PORT] [--checkpoints <dir>]
             Run the campaign service: a TCP server that executes submitted campaigns
             chunk by chunk, checkpointing every completed chunk so a killed server
             resumes exactly where it stopped (default addr 127.0.0.1:7171).
    submit   --addr HOST:PORT (--model <name> | --in <model.json>) [--inputs N]
             [--trials N] [--batch N] [--workers N] [--remote]
             [--backend f32|fixed16|fixed32|simd] [--bits N] [--fixed16] [--seed N]
             Submit a campaign to a running server and print its id. Submitting an
             identical spec again resumes it from its checkpoint. With --remote the
             server coordinates instead of executing: it leases chunk ranges to
             'work' processes and merge-verifies the records they push back.
    work     --addr HOST:PORT --id <campaign-id> [--name <worker>] [--lease-ms N]
             [--claim N] [--poll-ms N]
             Join a --remote campaign as a worker host: claim an exclusive lease over
             a chunk range, execute it locally, push the records back and repeat.
             Leases expire after --lease-ms without renewal (pushes renew; default
             30000 or $RANGER_LEASE_MS), so a killed worker's range is re-leased to
             the survivors and the merged counts stay bit-for-bit identical.
    status   --addr HOST:PORT --id <campaign-id>
             Print a submitted campaign's progress: chunks done/total (and how many
             were resumed from checkpoint), trials/sec and running SDC tallies.
    stream   --addr HOST:PORT --id <campaign-id>
             Follow a campaign's event stream live: one line per completed chunk with
             cumulative tallies, ending with the final SDC rates.
    cancel   --addr HOST:PORT --id <campaign-id>
             Cooperatively stop a running campaign (completed chunks stay durable).
    metrics  --addr HOST:PORT
             Print the server's metrics-registry snapshot as one line of JSON
             (request counts, checkpoint sync latency, campaign histograms).
    shutdown --addr HOST:PORT
             Ask the server to exit.
    help     Print this message.

MODELS:
    lenet, alexnet, vgg11, vgg16, resnet18, squeezenet, dave, comma
";

/// Parses `--key value` style options (plus bare flags) from an argument list.
///
/// Unknown keys are collected verbatim so commands can reject them with a clear message.
#[derive(Debug, Default, Clone)]
pub struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    /// Parses options from raw arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut options = Options::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(key) = arg.strip_prefix("--") {
                // A value follows unless the next token is another option or absent.
                match args.get(i + 1) {
                    Some(value) if !value.starts_with("--") => {
                        options.pairs.push((key.to_string(), value.clone()));
                        i += 2;
                    }
                    _ => {
                        options.flags.push(key.to_string());
                        i += 1;
                    }
                }
            } else {
                options.flags.push(arg.clone());
                i += 1;
            }
        }
        options
    }

    /// Returns the value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Returns the value of `--key` parsed as `T`, or `default` if absent.
    ///
    /// # Errors
    ///
    /// Returns a usage error if the value is present but cannot be parsed.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value '{raw}' for --{key}"))),
        }
    }

    /// Returns the value of `--key` or a usage error naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}\n\n{USAGE}")))
    }

    /// Returns `true` if the bare flag `--key` was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Checks that every option and flag is one `command` documents in [`USAGE`] — its
    /// line there and the indented lines below it — so the help text is the one list of
    /// what each command accepts. A misspelled option must fail, not silently leave its
    /// setting at the default.
    ///
    /// # Errors
    ///
    /// Returns a usage error naming the first option `command` does not document.
    pub fn expect_documented(&self, command: &str) -> Result<(), CliError> {
        let mut block = USAGE.lines().skip_while(|line| {
            line.strip_prefix("    ")
                .and_then(|rest| rest.split_whitespace().next())
                != Some(command)
        });
        let known: Vec<&str> = block
            .next()
            .into_iter()
            .chain(block.take_while(|line| line.starts_with("     ")))
            .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let mut keys = self.pairs.iter().map(|(key, _)| key).chain(&self.flags);
        match keys.find(|key| !known.contains(&key.as_str())) {
            None => Ok(()),
            Some(key) => Err(CliError::Usage(format!(
                "unknown option --{key} for '{command}'\n\n{USAGE}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_pairs_and_flags() {
        let opts = Options::parse(
            ["--model", "lenet", "--quick", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(opts.get("model"), Some("lenet"));
        assert_eq!(opts.get_parsed("seed", 0u64).unwrap(), 7);
        assert!(opts.has_flag("quick"));
        assert!(!opts.has_flag("full"));
        assert_eq!(opts.get("missing"), None);
        assert_eq!(opts.get_parsed("missing", 3usize).unwrap(), 3);
    }

    #[test]
    fn require_reports_missing_options() {
        let opts = Options::parse(std::iter::empty());
        let err = opts.require("in").unwrap_err();
        assert!(err.to_string().contains("--in"));
    }

    #[test]
    fn invalid_numeric_values_are_usage_errors() {
        let opts = Options::parse(["--trials", "lots"].iter().map(|s| s.to_string()));
        assert!(matches!(
            opts.get_parsed("trials", 10usize),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn last_occurrence_of_a_key_wins() {
        let opts = Options::parse(["--seed", "1", "--seed", "2"].iter().map(|s| s.to_string()));
        assert_eq!(opts.get("seed"), Some("2"));
    }
}
