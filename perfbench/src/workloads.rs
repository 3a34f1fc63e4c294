//! The workloads, their sizes, the measured loop shared by all of them and the
//! per-layer metrics of the traced run.

use crate::report::{median, peak_rss_mib, quantile, ratio, reset_peak_rss, rss_mib, Metric};
use crate::trace::{Scope, SpanRecord, Tracer};
use ranger_inject::{BackendKind, CampaignConfig, CampaignResult, FaultModel};
use ranger_models::ModelKind;
use ranger_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Threads executing chunks at once in every workload: the load comes from one
/// process using at most two compute threads.
pub const COMPUTE_THREADS: usize = 2;

/// One named set of campaigns. Why each exists is in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unprotected and Ranger arms of ResNet-18, SIMD backend, batch 16, 2 workers.
    Resnet18SimdB16,
    /// Both arms of Comma.ai on the fixed16 backend, per-sample, 2 workers.
    CommaFixed16,
    /// A Ranger-protected LeNet submitted to an in-process campaign server.
    LenetServed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Resnet18SimdB16,
        Workload::CommaFixed16,
        Workload::LenetServed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Resnet18SimdB16 => "resnet18_simd_b16",
            Workload::CommaFixed16 => "comma_fixed16",
            Workload::LenetServed => "lenet_served",
        }
    }

    /// Parses a `--workload` name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known names.
    pub fn parse(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The model the workload injects into.
    pub fn model(self) -> ModelKind {
        match self {
            Workload::Resnet18SimdB16 => ModelKind::ResNet18,
            Workload::CommaFixed16 => ModelKind::Comma,
            Workload::LenetServed => ModelKind::LeNet,
        }
    }

    /// Whether the campaigns go through the campaign server.
    pub fn served(self) -> bool {
        self == Workload::LenetServed
    }

    /// The campaign configuration of repetition `seed`, built field by field.
    pub fn config(self, trials: usize, seed: u64) -> CampaignConfig {
        let fixed32 = FaultModel::single_bit_fixed32();
        let (batch, workers, backend, fault) = match self {
            Workload::Resnet18SimdB16 => (16, COMPUTE_THREADS, BackendKind::Simd, fixed32),
            Workload::CommaFixed16 => (
                1,
                COMPUTE_THREADS,
                BackendKind::Fixed16,
                FaultModel::single_bit_fixed16(),
            ),
            // One checkpoint fsync per chunk: at batch 4 a campaign made 1024 of them
            // (p50 0.13 ms, p99 4 ms), near half its ~0.3 s of compute, so its rate
            // followed the shared disk's latency. Batch 16 makes 256.
            Workload::LenetServed => (16, COMPUTE_THREADS, BackendKind::F32, fixed32),
        };
        CampaignConfig {
            trials,
            batch,
            workers,
            backend,
            fault,
            seed,
            tile: 0,
        }
    }

    /// Campaign sizes: validation inputs and trials per input. Smoke sizes are for the
    /// benchmark's own tests.
    pub fn sizes(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Workload::Resnet18SimdB16, false) => (2, 64),
            (Workload::CommaFixed16, false) => (4, 200),
            (Workload::LenetServed, false) => (8, 512),
            (Workload::Resnet18SimdB16, true) => (1, 32),
            (_, true) => (1, 16),
        }
    }
}

/// Everything one benchmark run is told.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Picks the campaign seeds and the validation inputs.
    pub seed: u64,
    /// How long the measured loop runs (at least one campaign runs whatever the value).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced one.
    pub trace: bool,
    /// Smallest sizes and one setup, for the benchmark's own tests.
    pub smoke: bool,
    /// The quick-trained model cache.
    pub cache_dir: PathBuf,
    /// Where run directories, checkpoints and trace files go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// A measured run with the cache and output directories inside the benchmark's
    /// own directory.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            smoke: false,
            cache_dir: root.join(".cache"),
            out_dir: root.join(".out"),
        }
    }

    /// The smallest run of `workload`: one setup, one campaign of smoke size.
    pub fn smoke(workload: Workload, seed: u64) -> Self {
        RunConfig {
            seconds: 0.0,
            smoke: true,
            ..RunConfig::new(workload, seed, 0.0, false)
        }
    }

    /// Setup repeats at least this many times and until this many seconds have
    /// passed; `setup_s` is the median.
    pub fn setup_budget(&self) -> (usize, f64) {
        if self.smoke {
            (1, 0.0)
        } else {
            (5, 1.0)
        }
    }
}

/// The seed of campaign repetition `k` of a run seeded with `seed`: distinct per
/// repetition, so a served campaign never resumes an earlier one's checkpoint.
///
/// Kept below 2^32: a served spec crosses the wire as JSON, whose numbers carry
/// integers exactly only up to 2^53, and the output check must materialize the same
/// campaign the server ran.
pub fn campaign_seed(seed: u64, k: usize) -> u64 {
    ranger_runtime::splitmix64_mix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64) >> 32
}

/// What one measured campaign did.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Faulty trials completed across all arms.
    pub trials: u64,
    /// Wall time from the first campaign call or submit to the final result.
    pub wall_s: f64,
    /// Chunks attempted.
    pub chunks: u64,
    /// Failed calls and chunks that never completed.
    pub failed: u64,
    /// Trials whose fault never activated.
    pub unactivated: u64,
    /// Final results per arm, for the SDC rates.
    pub arms: Vec<(&'static str, CampaignResult)>,
}

/// The sums over the campaigns of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Campaigns run.
    pub campaigns: usize,
    /// Faulty trials completed.
    pub trials: u64,
    /// Summed campaign wall time.
    pub wall_s: f64,
    /// Chunks attempted.
    pub chunks: u64,
    /// Failed calls and chunks.
    pub failed: u64,
    /// Unactivated trials.
    pub unactivated: u64,
    /// Results per arm, summed over campaigns.
    pub arms: BTreeMap<&'static str, CampaignResult>,
    /// Each campaign's trials per second.
    pub campaign_rates: Vec<f64>,
    /// How far each campaign's resident memory peaked above its resident memory when
    /// it began, in MiB.
    pub campaign_rss_rise_mib: Vec<f64>,
}

impl Phase {
    fn absorb(&mut self, stats: CampaignStats) {
        self.campaigns += 1;
        self.campaign_rates
            .push(ratio(stats.trials as f64, stats.wall_s));
        self.trials += stats.trials;
        self.wall_s += stats.wall_s;
        self.chunks += stats.chunks;
        self.failed += stats.failed;
        self.unactivated += stats.unactivated;
        for (arm, result) in stats.arms {
            match self.arms.get_mut(arm) {
                Some(total) => *total = total.merge(&result),
                None => {
                    self.arms.insert(arm, result);
                }
            }
        }
    }

    /// The median campaign's trials per second: faulty trials over the wall time from
    /// its first campaign call or submit to its final result. The median keeps a
    /// campaign that shared the machine with a burst of other load from moving the
    /// run's figure.
    pub fn trials_per_s(&self) -> f64 {
        median(&self.campaign_rates)
    }
}

/// A workload after setup: runs measured campaigns, then checks them.
pub trait Campaigns {
    /// Runs campaign repetition `k`, spanning it when `tracer` is given.
    fn campaign(&mut self, k: usize, tracer: Option<&Tracer>) -> CampaignStats;
    /// Re-executes the sampled chunks on the reference path; returns the number of
    /// mismatching chunks plus any other failed consistency check.
    fn check(&mut self) -> u64;
    /// Per-layer samples this workload gathers outside spans and registry counters.
    fn layers(&self) -> ServeLayers {
        ServeLayers::default()
    }
}

/// Serve-layer samples of the traced phase (empty for in-process workloads).
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    /// Milliseconds between consecutive stream events.
    pub event_gap_ms: Vec<f64>,
    /// Seconds from submit to the campaign being prepared, per campaign.
    pub prepare_s: Vec<f64>,
}

/// Seconds of untimed campaigns (at least one) before the measured ones, so that pools,
/// caches and page faults have settled: a process's first campaigns ran up to half as
/// fast as its later ones.
pub const WARMUP_S: f64 = 2.0;

/// Most setups one run repeats, however fast they are.
const MAX_SETUPS: usize = 50;

/// Runs setup at least `min_reps` times and until `min_seconds` have passed, and
/// returns the last result with every setup's seconds.
///
/// # Errors
///
/// Returns the first setup error.
pub fn repeat_setup<T>(
    (min_reps, min_seconds): (usize, f64),
    tracer: Option<&Tracer>,
    mut setup: impl FnMut(&Scope<'_>) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let begun = Instant::now();
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < min_reps.max(1)
        || (begun.elapsed().as_secs_f64() < min_seconds && seconds.len() < MAX_SETUPS)
    {
        // The previous setup's products go before this one builds its own.
        drop(last.take());
        let scope = Scope::new(tracer, format!("setup.{}", seconds.len()));
        let start = Instant::now();
        let root = scope.span("setup");
        let value = setup(&scope.under(&root))?;
        drop(root);
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one setup ran"), seconds))
}

/// Runs campaigns `k0, k0 + 1, ...` until `budget_s` has passed (at least one).
pub fn run_phase(
    campaigns: &mut dyn Campaigns,
    k0: usize,
    budget_s: f64,
    tracer: Option<&Tracer>,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut k = k0;
    loop {
        reset_peak_rss();
        let before = rss_mib();
        let stats = campaigns.campaign(k, tracer);
        if let (Some(before), Some(peak)) = (before, peak_rss_mib()) {
            phase.campaign_rss_rise_mib.push(peak - before);
        }
        phase.absorb(stats);
        k += 1;
        if start.elapsed().as_secs_f64() >= budget_s {
            return phase;
        }
    }
}

/// The op kinds whose share and time per trial the traced run reports.
pub const OP_KINDS: [&str; 9] = [
    "Conv2D",
    "MatMul",
    "BiasAdd",
    "Relu",
    "Elu",
    "Add",
    "MaxPool",
    "Softmax",
    "RangeRestriction",
];

/// Inputs to the per-layer metrics of a traced run.
pub struct LayerInputs<'a> {
    /// Every span recorded (setup and traced campaigns).
    pub spans: &'a [SpanRecord],
    /// The registry after the traced phase (reset when it began).
    pub snapshot: &'a MetricsSnapshot,
    /// The untraced phase of the same run.
    pub untraced: &'a Phase,
    /// The traced phase.
    pub traced: &'a Phase,
    /// Serve-layer samples of the traced phase.
    pub serve: ServeLayers,
    /// Whether chunks ran inside the server (no benchmark spans around them).
    pub served: bool,
    /// Chunks attempted and failed over the whole run, checks included.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

fn span_seconds(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRecord::seconds)
        .collect()
}

fn counter_sum(snapshot: &MetricsSnapshot, prefix: &str, suffix: &str) -> f64 {
    snapshot
        .counters_with_prefix(prefix)
        .filter(|(name, _)| name.ends_with(suffix))
        .map(|(_, value)| value as f64)
        .sum()
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload does not
/// exercise reports 0.
pub fn layer_metrics(l: &LayerInputs<'_>) -> Vec<Metric> {
    let trials = l.traced.trials as f64;
    let campaigns = l.traced.campaigns.max(1) as f64;
    let snapshot = l.snapshot;
    let chunk_hist = snapshot.histogram("campaign.chunk_nanos");
    let ms = |nanos: u64| nanos as f64 / 1e6;

    let mut m = Vec::new();
    for (metric, span) in [
        ("models.load_s", "models.load"),
        ("core.profile_s", "core.profile"),
        ("core.protect_s", "core.protect"),
        ("engine.select_inputs_s", "engine.select_inputs"),
    ] {
        m.push(Metric::new(
            metric,
            median(&span_seconds(l.spans, span)),
            "s",
        ));
    }
    let (prepare_s, chunk_ms, chunk_busy_s) = if l.served {
        // Chunks run inside the server: read the campaign layer's own histogram.
        (
            median(&l.serve.prepare_s),
            chunk_hist.map_or((0.0, 0.0), |h| (ms(h.p50), ms(h.p99))),
            chunk_hist.map_or(0.0, |h| h.sum as f64 / 1e9),
        )
    } else {
        let chunks = span_seconds(l.spans, "inject.chunk");
        (
            median(&span_seconds(l.spans, "inject.prepare")),
            (quantile(&chunks, 0.5) * 1e3, quantile(&chunks, 0.99) * 1e3),
            chunks.iter().sum(),
        )
    };
    m.push(Metric::new("inject.prepare_s", prepare_s, "s"));
    m.push(Metric::new(
        "inject.trial_us",
        ratio(chunk_busy_s * 1e6, trials),
        "us",
    ));
    m.push(Metric::new("inject.chunk_ms.p50", chunk_ms.0, "ms"));
    m.push(Metric::new("inject.chunk_ms.p99", chunk_ms.1, "ms"));
    m.push(Metric::new(
        "inject.activated_ratio",
        1.0 - ratio(l.traced.unactivated as f64, trials),
        "fraction",
    ));

    let op_nanos_total = counter_sum(snapshot, "plan.op.", ".nanos");
    for kind in OP_KINDS {
        let nanos = snapshot
            .counter(&format!("plan.op.{kind}.nanos"))
            .unwrap_or(0) as f64;
        m.push(Metric::new(
            format!("graph.op.{kind}.share"),
            ratio(nanos, op_nanos_total),
            "fraction",
        ));
        m.push(Metric::new(
            format!("graph.op.{kind}.us_per_trial"),
            ratio(nanos / 1e3, trials),
            "us",
        ));
    }
    m.push(Metric::new(
        "graph.op_calls_per_trial",
        ratio(counter_sum(snapshot, "plan.op.", ".calls"), trials),
        "count",
    ));

    m.push(Metric::new(
        "runtime.busy_ratio",
        ratio(chunk_busy_s, COMPUTE_THREADS as f64 * l.traced.wall_s),
        "fraction",
    ));
    m.push(Metric::new(
        "runtime.steals",
        counter_sum(snapshot, "pool.worker.", ".steals") / campaigns,
        "count/campaign",
    ));
    m.push(Metric::new(
        "runtime.park_ms",
        counter_sum(snapshot, "pool.worker.", ".park_nanos") / 1e6 / campaigns,
        "ms/campaign",
    ));

    let submit_ms: Vec<f64> = span_seconds(l.spans, "serve.submit")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.push(Metric::new("serve.submit_ms", median(&submit_ms), "ms"));
    m.push(Metric::new(
        "serve.event_gap_ms.p50",
        quantile(&l.serve.event_gap_ms, 0.5),
        "ms",
    ));
    m.push(Metric::new(
        "serve.event_gap_ms.p99",
        quantile(&l.serve.event_gap_ms, 0.99),
        "ms",
    ));
    let sync = snapshot.histogram("checkpoint.sync_nanos");
    m.push(Metric::new(
        "serve.sync_ms.p50",
        sync.map_or(0.0, |h| ms(h.p50)),
        "ms",
    ));
    m.push(Metric::new(
        "serve.sync_ms.p99",
        sync.map_or(0.0, |h| ms(h.p99)),
        "ms",
    ));

    let traced_tps = l.traced.trials_per_s();
    m.push(Metric::new(
        "obs.traced_trials_per_s",
        traced_tps,
        "trials/s",
    ));
    m.push(Metric::new(
        "obs.tracing_overhead",
        1.0 - ratio(traced_tps, l.untraced.trials_per_s()),
        "fraction",
    ));
    m.push(Metric::new(
        "error_rate",
        ratio(l.failed as f64, l.attempted as f64),
        "fraction",
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()).unwrap(), w);
        }
        assert!(Workload::parse("vgg").unwrap_err().contains("lenet_served"));
    }

    #[test]
    fn campaign_seeds_differ_per_repetition_and_repeat_per_seed() {
        assert_ne!(campaign_seed(1, 0), campaign_seed(1, 1));
        assert_ne!(campaign_seed(1, 0), campaign_seed(2, 0));
        assert_eq!(campaign_seed(7, 3), campaign_seed(7, 3));
    }

    #[test]
    fn every_config_validates() {
        for w in Workload::ALL {
            for smoke in [false, true] {
                let (_, trials) = w.sizes(smoke);
                assert!(w.config(trials, 1).validate().is_ok(), "{}", w.name());
            }
        }
    }
}
