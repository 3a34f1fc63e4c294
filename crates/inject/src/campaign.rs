//! Campaign runner: golden runs, repeated faulty runs and SDC statistics.
//!
//! The campaign runner is the reproduction's hottest path — `inputs × trials` forward
//! passes of the same graph — so it executes through a compiled
//! [`ExecPlan`]: the topological order is planned once per
//! campaign instead of once per trial, and the plan's buffer arena makes repeated passes
//! allocation-free. Every faulty trial runs only its fault cone ([`ExecPlan::run_cone`]):
//! the nodes the fault can reach, starting from the input's golden snapshot and stopping
//! once the deviation is dead. Trials are grouped into work units of
//! [`CampaignConfig::batch`] trials; with [`CampaignConfig::workers`] above 1 the units
//! run on a work-stealing [`ThreadPool`], one buffer arena per worker. With
//! [`CampaignConfig::backend`] the whole campaign — golden passes included — executes on
//! an alternative [`ExecBackend`](ranger_graph::ExecBackend): on the fixed16/fixed32
//! backends the model genuinely computes in the Q format and faults flip bits directly
//! in the stored integer words.
//!
//! # Determinism
//!
//! Every trial draws its fault plan from an **independent, index-keyed RNG stream**:
//! trial `t` of input `i` seeds its generator from
//! [`trial_stream_seed`]`(config.seed, i, t)` (see [`trial_rng`]) and draws the whole
//! plan from that generator. Plans therefore depend only on logical indices, never on
//! execution order — the serial path and the parallel path draw identical plans, and the
//! SDC/benign counts are **bit-for-bit identical for any worker count and any chunk
//! length** (pinned by unit tests here and proptests in
//! `tests/pipeline_parity.rs`). Per-trial outputs also match running each trial as a
//! full pass ([`ExecPlan::run`]) on a fresh store.

use crate::fault::FaultModel;
use crate::injector::FaultInjector;
use crate::judge::SdcJudge;
use crate::space::InjectionSpace;
use crate::InjectionTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranger_graph::exec::{NoopInterceptor, Values};
use ranger_graph::{default_backend, BackendKind, ExecPlan, GoldenSnapshot, GraphError, NodeId};
use ranger_runtime::{trial_stream_seed, ThreadPool};
use ranger_tensor::stats::Proportion;
use ranger_tensor::{DataType, Tensor};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CampaignConfig {
    /// Number of fault-injection trials per input.
    pub trials: usize,
    /// How many consecutive trials of one input make up a work unit when the campaign
    /// runs with a default partition ([`default_chunk_len`]): the unit a worker executes
    /// and a checkpoint records. `1` lets the chunk length follow the trial and worker
    /// counts instead. Every trial runs as its own fault cone whatever the value, so the
    /// SDC counts are bit-for-bit identical for any batch.
    pub batch: usize,
    /// How many worker threads execute the faulty passes. `1` runs everything inline on
    /// the calling thread; larger values run trial chunks on a work-stealing pool with
    /// one buffer arena per worker. Any worker count produces bit-for-bit identical
    /// SDC counts (fault plans are keyed by `(input, trial)` index, not by schedule).
    pub workers: usize,
    /// The execution backend every forward pass (golden and faulty) runs on. On a
    /// fixed-point backend the model genuinely computes in that Q format and faults flip
    /// bits directly in the stored integer words; the fault datatype must then match the
    /// backend's format ([`CampaignConfig::validate`] rejects mismatches). `F32` is the
    /// reference path, where fixed-point fault models emulate the corruption by
    /// encode → flip → decode on float values.
    pub backend: BackendKind,
    /// The fault model applied in every trial.
    pub fault: FaultModel,
    /// RNG seed so campaigns are reproducible.
    pub seed: u64,
    /// Reserved; must be `0` ([`CampaignConfig::validate`] rejects anything else).
    ///
    /// The field stays only because campaign fingerprints hash the config's JSON:
    /// dropping it would re-key every existing checkpoint.
    pub tile: usize,
}

// Hand-written (the vendored serde derive has no `#[serde(default)]`): configs
// serialized before the `tile` field existed — persisted fingerprints, checkpoint
// manifests — must keep deserializing, with a missing `tile` meaning 0.
impl serde::Deserialize for CampaignConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: serde::Deserialize>(
            value: &serde::Value,
            name: &str,
        ) -> Result<T, serde::Error> {
            T::from_value(value.get_field(name).unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::Error::new(format!("CampaignConfig.{name}: {e}")))
        }
        if value.as_object().is_none() {
            return Err(serde::Error::new(
                "expected object for struct CampaignConfig",
            ));
        }
        Ok(CampaignConfig {
            trials: field(value, "trials")?,
            batch: field(value, "batch")?,
            workers: field(value, "workers")?,
            backend: field(value, "backend")?,
            fault: field(value, "fault")?,
            seed: field(value, "seed")?,
            tile: match value.get_field("tile") {
                Some(_) => field(value, "tile")?,
                None => 0,
            },
        })
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        let backend = default_backend();
        CampaignConfig {
            trials: 100,
            batch: 1,
            workers: ranger_runtime::default_workers(),
            backend,
            // Keep the default fault consistent with the default backend, so a
            // `RANGER_BACKEND` sweep never manufactures an invalid pairing.
            fault: match backend.spec() {
                Some(spec) => FaultModel {
                    datatype: DataType::Fixed(spec),
                    bits: 1,
                },
                None => FaultModel::default(),
            },
            seed: 0,
            tile: 0,
        }
    }
}

impl CampaignConfig {
    /// Checks the configuration for degenerate values and invalid pairings.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidConfig`] if `trials`, `batch` or `workers` is
    /// zero — the first would silently produce a campaign that measures nothing, the
    /// other two describe an executor that can never run a pass — or if a fixed-point
    /// backend is paired with a fault model of a different datatype (e.g. fixed16 faults
    /// on the fixed32 backend): word-level flips only make sense in the backend's own
    /// format, and silently reinterpreting the fault would diverge from both paths.
    /// Also rejects a `seed` above 2^53 − 1, which a JSON number cannot carry exactly
    /// (two such seeds would share a fingerprint and a checkpoint file), and a nonzero
    /// reserved `tile`.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.trials == 0 {
            return Err(CampaignError::InvalidConfig(
                "campaign trials must be positive: 0 trials would report an SDC rate over \
                 an empty sample"
                    .to_string(),
            ));
        }
        if self.batch == 0 {
            return Err(CampaignError::InvalidConfig(
                "campaign batch must be positive: use batch = 1 to size work units from \
                 the trial and worker counts, or batch = k for k trials per work unit"
                    .to_string(),
            ));
        }
        if self.workers == 0 {
            return Err(CampaignError::InvalidConfig(
                "campaign workers must be positive: use workers = 1 for the serial path \
                 or workers = k to run trial chunks on a k-worker pool"
                    .to_string(),
            ));
        }
        if self.seed > serde::MAX_EXACT_INTEGER as u64 {
            return Err(CampaignError::InvalidConfig(format!(
                "campaign seed {} exceeds 2^53 - 1: a JSON number cannot carry it exactly, \
                 so the campaign's fingerprint and checkpoint would collide with a \
                 neighbouring seed's",
                self.seed
            )));
        }
        if self.tile != 0 {
            return Err(CampaignError::InvalidConfig(format!(
                "campaign tile {} is not supported: the field is reserved and must be 0",
                self.tile
            )));
        }
        if let Some(spec) = self.backend.spec() {
            if self.fault.datatype != DataType::Fixed(spec) {
                return Err(CampaignError::InvalidConfig(format!(
                    "fault model datatype {} does not match the {} backend's word format \
                     ({spec}): on a fixed-point backend faults flip bits directly in the \
                     stored integer words, so the fault datatype must be the backend's own \
                     format — use a fixed-{spec} fault model, or run on the f32 backend to \
                     emulate {} corruption on float compute",
                    self.fault.datatype, self.backend, self.fault.datatype
                )));
            }
        }
        Ok(())
    }
}

/// Errors surfaced by [`run_campaign`].
#[derive(Debug)]
pub enum CampaignError {
    /// The campaign configuration or its inputs are degenerate (see
    /// [`CampaignConfig::validate`]).
    InvalidConfig(String),
    /// A forward pass failed.
    Graph(GraphError),
    /// Several independent work units failed. `first` is the error of the earliest unit
    /// in `(input, trial)` order — the same error a serial campaign would have stopped
    /// on, identified by its `(input, chunk)` coordinates — and `suppressed` counts the
    /// additional unit failures that were observed but not reported individually (a
    /// parallel campaign lets in-flight units complete after a failure, so a
    /// multi-chunk service failure can produce many).
    Failures {
        /// The earliest failure in `(input, trial)` order.
        first: Box<CampaignError>,
        /// The input index of the earliest failing work unit.
        input: usize,
        /// The canonical chunk index ([`TrialChunk::index`]) of the earliest failing
        /// work unit.
        chunk: usize,
        /// How many further unit failures were suppressed behind `first`.
        suppressed: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidConfig(message) => {
                write!(f, "invalid campaign configuration: {message}")
            }
            CampaignError::Graph(e) => write!(f, "campaign forward pass failed: {e}"),
            CampaignError::Failures {
                first,
                input,
                chunk,
                suppressed,
            } => {
                write!(
                    f,
                    "{first} (first failing work unit: input {input}, chunk {chunk}; plus \
                     {suppressed} additional work-unit failure(s) suppressed)"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::InvalidConfig(_) => None,
            CampaignError::Graph(e) => Some(e),
            CampaignError::Failures { first, .. } => Some(first.as_ref()),
        }
    }
}

impl From<GraphError> for CampaignError {
    fn from(e: GraphError) -> Self {
        CampaignError::Graph(e)
    }
}

/// The outcome of a fault-injection campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The SDC categories evaluated (one entry per judge category).
    pub categories: Vec<String>,
    /// Number of trials that were SDCs, per category.
    pub sdc_counts: Vec<u64>,
    /// Total number of injected trials (per category the denominator is the same).
    pub trials: u64,
    /// Trials whose fault was masked before reaching any value (the planned operator was
    /// not executed or the chosen element did not exist); these still count as trials —
    /// they are benign faults.
    pub unactivated: u64,
}

impl CampaignResult {
    /// Returns the SDC rate (with confidence interval) for category `index`, or `None` if
    /// the index is out of range.
    pub fn sdc_rate(&self, index: usize) -> Option<Proportion> {
        self.sdc_counts
            .get(index)
            .map(|&count| Proportion::new(count, self.trials))
    }

    /// Returns the SDC rate for the named category, if present.
    pub fn sdc_rate_for(&self, category: &str) -> Option<Proportion> {
        self.categories
            .iter()
            .position(|c| c == category)
            .and_then(|i| self.sdc_rate(i))
    }

    /// Returns (category, SDC-rate) pairs for every category.
    pub fn rates(&self) -> Vec<(String, Proportion)> {
        self.categories
            .iter()
            .cloned()
            .zip(
                self.sdc_counts
                    .iter()
                    .map(|&c| Proportion::new(c, self.trials)),
            )
            .collect()
    }

    /// Accumulates one work unit's partial tally into this result.
    ///
    /// Campaign counts are order-independent sums, so absorbing the same set of tallies
    /// in any order — serial, work-stealing completion order, or a checkpoint-resumed
    /// mixture — produces bit-for-bit identical totals.
    ///
    /// # Panics
    ///
    /// Panics if the tally's category count differs from this result's.
    pub fn absorb(&mut self, tally: &ChunkTally) {
        assert_eq!(
            self.sdc_counts.len(),
            tally.sdc_counts.len(),
            "cannot absorb a tally with a different category count"
        );
        for (count, partial) in self.sdc_counts.iter_mut().zip(&tally.sdc_counts) {
            *count += partial;
        }
        self.trials += tally.trials;
        self.unactivated += tally.unactivated;
    }

    /// Merges two campaign results over the same categories (e.g. different inputs).
    ///
    /// # Panics
    ///
    /// Panics if the category lists differ.
    pub fn merge(&self, other: &CampaignResult) -> CampaignResult {
        assert_eq!(
            self.categories, other.categories,
            "cannot merge campaigns with different categories"
        );
        CampaignResult {
            categories: self.categories.clone(),
            sdc_counts: self
                .sdc_counts
                .iter()
                .zip(&other.sdc_counts)
                .map(|(a, b)| a + b)
                .collect(),
            trials: self.trials + other.trials,
            unactivated: self.unactivated + other.unactivated,
        }
    }
}

/// Returns the RNG that draws the fault plan of trial `trial` on input `input` for a
/// campaign seeded with `seed`.
///
/// This is the reproduction's **canonical draw order**: one independent generator per
/// `(input, trial)` pair, seeded from
/// [`trial_stream_seed`]`(seed, input, trial)`. Every campaign path — serial or
/// parallel, any chunk length — draws each trial's plan from exactly this generator,
/// which is what makes the reported counts independent of batch size and worker count.
/// Reference implementations (e.g. the executor-per-pass parity tests) must derive their
/// plans the same way to match a campaign trial-for-trial.
pub fn trial_rng(seed: u64, input: usize, trial: usize) -> StdRng {
    StdRng::seed_from_u64(trial_stream_seed(seed, input as u64, trial as u64))
}

/// One schedulable campaign work unit: `len` consecutive trials of one input.
///
/// `index` is the chunk's position in the campaign's **canonical chunk order** (inputs
/// ascending, trial ranges ascending within an input) — the key a checkpoint store uses
/// to mark a chunk as completed across process restarts. Because fault plans are keyed
/// by `(input, trial)` index, the trials covered by a chunk are a pure function of the
/// chunk geometry: any partition of the trial space into chunks reproduces the exact
/// counts of any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialChunk {
    /// Position in the canonical chunk order.
    pub index: usize,
    /// Index of the input this chunk injects into.
    pub input: usize,
    /// First trial (inclusive) of the range.
    pub start: usize,
    /// Number of consecutive trials the chunk executes.
    pub len: usize,
}

/// Partial campaign statistics tallied by one work unit, in the same category order as
/// the campaign's [`CampaignResult`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkTally {
    /// SDC trials observed by this unit, per judge category.
    pub sdc_counts: Vec<u64>,
    /// Trials this unit executed.
    pub trials: u64,
    /// Trials whose fault never activated (still counted as benign trials).
    pub unactivated: u64,
}

impl ChunkTally {
    fn new(categories: usize) -> Self {
        ChunkTally {
            sdc_counts: vec![0; categories],
            trials: 0,
            unactivated: 0,
        }
    }

    /// Counts one trial into the tally.
    fn record(&mut self, outcome: &TrialOutcome) {
        if !outcome.applied {
            self.unactivated += 1;
        }
        for (count, &sdc) in self.sdc_counts.iter_mut().zip(outcome.sdc.iter()) {
            if sdc {
                *count += 1;
            }
        }
        self.trials += 1;
    }
}

/// What one trial observed ([`PreparedCampaign::run_trial`]).
pub(crate) struct TrialOutcome<'a> {
    /// The judge's verdict per category: `true` where the trial was an SDC. A trial
    /// whose output stayed golden borrows its input's golden-against-golden verdict.
    pub(crate) sdc: Cow<'a, [bool]>,
    /// Whether every planned flip was applied.
    pub(crate) applied: bool,
    /// Whether a flip was applied but its deviation died before the output.
    pub(crate) masked: bool,
}

/// The canonical trials-per-work-unit for `config` (the partition [`run_campaign`] and
/// [`PreparedCampaign::new`] use).
///
/// With `batch` above 1 every unit holds `batch` trials. With `batch = 1` chunks are
/// sized so each worker sees a handful of units — enough for stealing to rebalance
/// stragglers without paying per-trial task overhead — and capped so campaigns with many
/// trials still interleave inputs. Either way the unit size affects only scheduling and
/// checkpoint granularity, never the results, which are keyed by trial index.
pub fn default_chunk_len(config: &CampaignConfig) -> usize {
    if config.batch > 1 {
        config.batch
    } else {
        config.trials.div_ceil(config.workers * 4).clamp(1, 32)
    }
}

/// Decomposes a campaign over `num_inputs` inputs into its canonical chunk list:
/// `chunk_len` consecutive trials per unit, inputs ascending, trial ranges ascending
/// within an input, `TrialChunk::index` numbering the units `0..`.
///
/// Any `chunk_len` produces the same campaign counts (trials are index-keyed); it is a
/// scheduling and checkpoint-granularity knob only.
pub fn campaign_chunks(
    config: &CampaignConfig,
    num_inputs: usize,
    chunk_len: usize,
) -> Vec<TrialChunk> {
    assert!(chunk_len > 0, "chunk length must be positive");
    (0..num_inputs)
        .flat_map(|input| {
            (0..config.trials)
                .step_by(chunk_len)
                .map(move |start| (input, start, chunk_len.min(config.trials - start)))
        })
        .enumerate()
        .map(|(index, (input, start, len))| TrialChunk {
            index,
            input,
            start,
            len,
        })
        .collect()
}

/// Runs a fault-injection campaign: for every input, one golden (fault-free) run followed
/// by `config.trials` faulty runs, each injecting one random fault according to the fault
/// model, judged against the golden output.
///
/// Trial `t` of input `i` draws its fault plan from the index-keyed generator
/// [`trial_rng`]`(config.seed, i, t)`, so the reported counts are a pure function of the
/// configuration: `config.batch` sets how many trials make up a work unit, with
/// `config.workers > 1` the units run on a work-stealing [`ThreadPool`] (one plan buffer
/// arena per worker, partial tallies reduced in chunk order) — and every combination
/// produces SDC/benign counts **bit-for-bit identical** to the serial path.
///
/// # Errors
///
/// Returns a [`CampaignError`] if the configuration is degenerate or any forward pass
/// fails.
pub fn run_campaign(
    target: &InjectionTarget<'_>,
    inputs: &[Tensor],
    judge: &dyn SdcJudge,
    config: &CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    let prepared = PreparedCampaign::new(target, inputs, judge, config)?;
    let mut result = prepared.empty_result();
    let chunks = prepared.chunks();

    // Cold-path registry lookup: one histogram record per campaign, not per trial.
    // Recorded on success only, so the distribution is of completed campaigns.
    let run_hist =
        ranger_obs::enabled().then(|| ranger_obs::registry().histogram("campaign.run_nanos"));
    let run_start = run_hist.as_ref().map(|_| std::time::Instant::now());

    let tallies: Vec<ChunkTally> = if config.workers <= 1 {
        // Serial: every unit runs inline in one arena; the collect short-circuits, so a
        // failing unit stops the campaign immediately.
        let mut values = prepared.buffers();
        chunks
            .iter()
            .map(|&unit| prepared.run_chunk(&mut values, unit))
            .collect::<Result<_, _>>()?
    } else {
        // Parallel: units run on the pool, each worker owning its own arena; the pool
        // returns tallies in unit order whatever the scheduling was. In-flight units
        // still complete after a failure; the error reported is deterministically the
        // first in (input, trial) order, annotated with its (input, chunk) identity and
        // the count of further failures.
        let prepared = &prepared;
        collect_unit_results(
            chunks,
            ThreadPool::new(config.workers).run_with(
                |_worker| prepared.buffers(),
                chunks
                    .iter()
                    .map(|&unit| move |values: &mut Values| prepared.run_chunk(values, unit)),
            ),
        )?
    };
    // Reduce in (input, trial) order (the counts are order-independent sums).
    for tally in &tallies {
        result.absorb(tally);
    }
    prepared.publish_metrics();
    if let (Some(hist), Some(start)) = (run_hist, run_start) {
        hist.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Ok(result)
}

/// Reduces per-unit results: all tallies, or the first error in unit order — identified
/// by its `(input, chunk)` coordinates — with the count of additional suppressed
/// failures attached (so a multi-chunk service failure is never silently truncated to
/// one anonymous error).
///
/// `chunks` must be the unit list the results were produced from, in the same order.
fn collect_unit_results(
    chunks: &[TrialChunk],
    results: Vec<Result<ChunkTally, CampaignError>>,
) -> Result<Vec<ChunkTally>, CampaignError> {
    debug_assert_eq!(chunks.len(), results.len());
    let failures = results.iter().filter(|r| r.is_err()).count();
    let mut tallies = Vec::with_capacity(results.len());
    for (position, result) in results.into_iter().enumerate() {
        match result {
            Ok(tally) => tallies.push(tally),
            Err(first) => {
                return Err(if failures > 1 {
                    let unit = chunks[position];
                    CampaignError::Failures {
                        first: Box::new(first),
                        input: unit.input,
                        chunk: unit.index,
                        suppressed: failures - 1,
                    }
                } else {
                    first
                });
            }
        }
    }
    Ok(tallies)
}

/// A campaign compiled down to its schedulable work units: the execution plan, the
/// golden outputs, the per-input injection spaces and the canonical chunk list.
///
/// This is the seam the streaming campaign service (`ranger-serve`) builds on: prepare
/// once, then execute any subset of [`PreparedCampaign::chunks`] in any order — on any
/// executor — and sum the [`ChunkTally`]s. Because fault plans are keyed by
/// `(input, trial)` index, every such execution reproduces the counts of
/// [`run_campaign`] bit for bit; skipping chunks whose tallies were already persisted by
/// a checkpoint store is how a killed campaign resumes without re-running its prefix.
pub struct PreparedCampaign<'a> {
    target: &'a InjectionTarget<'a>,
    inputs: &'a [Tensor],
    judge: &'a dyn SdcJudge,
    config: CampaignConfig,
    plan: ExecPlan<'a>,
    goldens: Vec<Tensor>,
    /// Per input, the judge's verdict of the golden output against itself: the verdict
    /// of every trial whose output stays golden bit for bit (not all benign — a NaN
    /// golden output can be an SDC against itself).
    golden_verdicts: Vec<Vec<bool>>,
    /// Per input, the golden pass every trial's fault cone starts from.
    snapshots: Vec<GoldenSnapshot>,
    spaces: Vec<InjectionSpace>,
    categories: Vec<String>,
    chunks: Vec<TrialChunk>,
    metrics: Option<CampaignMetrics>,
}

/// Metric handles for the campaign hot path, resolved once at preparation time so
/// executing a chunk never takes the registry lock.
///
/// `None` when metrics were disabled at preparation: the hot path then skips even
/// the clock reads. Recording is pure observation — latencies and counts are
/// written, never read back, so enabling metrics cannot change a single draw or
/// verdict (pinned by `tests/metrics_determinism.rs`).
struct CampaignMetrics {
    /// Latency of each golden (fault-free) forward pass.
    golden_pass_nanos: std::sync::Arc<ranger_obs::Histogram>,
    /// Latency of each faulty (fault-cone) pass, one per trial.
    faulty_pass_nanos: std::sync::Arc<ranger_obs::Histogram>,
    /// Completion latency of each work unit, quantiles included.
    chunk_nanos: std::sync::Arc<ranger_obs::Histogram>,
    /// Trials executed; divide by `campaign.run_nanos` for trials/sec.
    trials: std::sync::Arc<ranger_obs::Counter>,
    /// Trials whose fault was applied but whose deviation died before the output (the
    /// output is golden bit for bit).
    trials_masked: std::sync::Arc<ranger_obs::Counter>,
}

impl CampaignMetrics {
    fn resolve() -> Option<Self> {
        if !ranger_obs::enabled() {
            return None;
        }
        let registry = ranger_obs::registry();
        Some(CampaignMetrics {
            golden_pass_nanos: registry.histogram("campaign.golden_pass_nanos"),
            faulty_pass_nanos: registry.histogram("campaign.faulty_pass_nanos"),
            chunk_nanos: registry.histogram("campaign.chunk_nanos"),
            trials: registry.counter("campaign.trials"),
            trials_masked: registry.counter("campaign.trials_masked"),
        })
    }
}

impl<'a> PreparedCampaign<'a> {
    /// Prepares a campaign with the canonical chunk length ([`default_chunk_len`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] if the configuration is degenerate, the graph cannot
    /// be compiled on the configured backend, or a golden pass fails.
    pub fn new(
        target: &'a InjectionTarget<'a>,
        inputs: &'a [Tensor],
        judge: &'a dyn SdcJudge,
        config: &CampaignConfig,
    ) -> Result<Self, CampaignError> {
        // Validate before computing the default chunk length, which divides by `workers`.
        config.validate()?;
        Self::with_chunk_len(target, inputs, judge, config, default_chunk_len(config))
    }

    /// Prepares a campaign partitioned into `chunk_len`-trial work units.
    ///
    /// Any chunk length reproduces the same counts, whatever `config.batch` is; it only
    /// sets scheduling and checkpoint granularity.
    ///
    /// # Errors
    ///
    /// See [`PreparedCampaign::new`]; additionally rejects a zero `chunk_len`.
    pub fn with_chunk_len(
        target: &'a InjectionTarget<'a>,
        inputs: &'a [Tensor],
        judge: &'a dyn SdcJudge,
        config: &CampaignConfig,
        chunk_len: usize,
    ) -> Result<Self, CampaignError> {
        config.validate()?;
        if chunk_len == 0 {
            return Err(CampaignError::InvalidConfig(
                "campaign chunk length must be positive".to_string(),
            ));
        }
        // Plan once onto the configured backend (an uncompilable graph errors even for
        // an empty input list, as it always has); golden and faulty passes execute on
        // the same backend, so on a fixed-point backend the whole campaign — reference
        // outputs included — is genuine fixed-point inference.
        let plan = target.graph.compile_with(config.backend.backend())?;
        let categories = judge.categories();
        let metrics = CampaignMetrics::resolve();
        // One fault-free pass per input supplies everything the trials need: the golden
        // output, the snapshot every cone starts from, and the injection space. Input
        // 0's pass warms the plan, recording the shapes that pre-size every arena
        // `buffers()` hands out.
        let mut goldens = Vec::with_capacity(inputs.len());
        let mut snapshots = Vec::with_capacity(inputs.len());
        let mut spaces = Vec::with_capacity(inputs.len());
        let mut store: Option<Values> = None;
        for input in inputs {
            let feeds = [(target.input_name, input.clone())];
            let span = metrics.as_ref().map(|m| m.golden_pass_nanos.span());
            let values = match store.take() {
                None => plan.warm(&feeds)?,
                Some(mut values) => {
                    plan.run_into(&mut values, &feeds, &mut NoopInterceptor)?;
                    values
                }
            };
            drop(span);
            goldens.push(values.get(target.output)?.clone());
            snapshots.push(plan.snapshot(&values)?);
            spaces.push(InjectionSpace::from_pass(&plan, &values, target.excluded)?);
            store = Some(values);
        }
        let chunks = campaign_chunks(config, inputs.len(), chunk_len);
        let golden_verdicts = goldens.iter().map(|g| judge.judge(g, g)).collect();
        Ok(PreparedCampaign {
            target,
            inputs,
            judge,
            config: *config,
            plan,
            goldens,
            golden_verdicts,
            snapshots,
            spaces,
            categories,
            chunks,
            metrics,
        })
    }

    /// The campaign's work units in canonical order.
    pub fn chunks(&self) -> &[TrialChunk] {
        &self.chunks
    }

    /// The judge categories, in the order every tally and result reports them.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// The configuration this campaign was prepared with.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The number of inputs the campaign injects into.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The fault-free outputs, one per input (computed during preparation).
    pub fn goldens(&self) -> &[Tensor] {
        &self.goldens
    }

    /// A fresh buffer arena for executing chunks (one per executor thread).
    pub fn buffers(&self) -> Values {
        self.plan.buffers()
    }

    /// An all-zero result over this campaign's categories, ready to
    /// [`absorb`](CampaignResult::absorb) chunk tallies.
    pub fn empty_result(&self) -> CampaignResult {
        CampaignResult {
            categories: self.categories.clone(),
            sdc_counts: vec![0; self.categories.len()],
            trials: 0,
            unactivated: 0,
        }
    }

    /// Executes one work unit in the given arena and returns its partial tally.
    ///
    /// Each trial draws its plan from its canonical stream ([`trial_rng`]) into the
    /// chunk's one injector and runs as a fault cone from its input's golden snapshot. A
    /// trial whose output stays golden takes its input's golden-against-golden verdict,
    /// judged once at preparation — the verdict a full pass would give, NaN outputs
    /// included. Chunks are independent: any execution order, any thread, any subset.
    /// The tally of a chunk depends only on the campaign configuration and the chunk
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidConfig`] if the input's injection space is empty
    /// (every operator is excluded, so no trial has a site to strike), or a
    /// [`CampaignError`] if a pass fails.
    pub fn run_chunk(
        &self,
        values: &mut Values,
        unit: TrialChunk,
    ) -> Result<ChunkTally, CampaignError> {
        let space = &self.spaces[unit.input];
        let config = &self.config;
        if space.total_values() == 0 {
            return Err(CampaignError::InvalidConfig(format!(
                "input {} has an empty injection space: every operator is excluded from \
                 injection, so no trial has a site to strike",
                unit.input
            )));
        }
        // Pre-resolved handles, pure observation: no registry lock, no RNG, and the
        // recorded values are never read back by campaign logic.
        let _chunk_span = self.metrics.as_ref().map(|m| m.chunk_nanos.span());
        let mut tally = ChunkTally::new(self.categories.len());
        let mut sites: Vec<NodeId> = Vec::with_capacity(config.fault.bits);
        let mut masked = 0u64;
        let mut injector = FaultInjector::with_plan(config.fault, Vec::new());
        for trial in unit.start..unit.start + unit.len {
            let mut rng = trial_rng(config.seed, unit.input, trial);
            injector.replan(space, &mut rng);
            let outcome = self.run_trial(values, unit.input, &mut injector, &mut sites)?;
            masked += u64::from(outcome.masked);
            tally.record(&outcome);
        }
        if let Some(metrics) = &self.metrics {
            metrics.trials_masked.add(masked);
            metrics.trials.add(tally.trials);
        }
        Ok(tally)
    }

    /// Runs one trial on input `input` as [`PreparedCampaign::run_chunk`] describes: the
    /// fault cone of `injector`'s plan, judged against the golden output. `sites` is
    /// scratch for the plan's target nodes, kept by the caller so trials reuse its
    /// allocation.
    pub(crate) fn run_trial(
        &self,
        values: &mut Values,
        input: usize,
        injector: &mut FaultInjector,
        sites: &mut Vec<NodeId>,
    ) -> Result<TrialOutcome<'_>, CampaignError> {
        sites.clear();
        sites.extend(injector.plan().iter().map(|flip| flip.site.node));
        let pass_span = self.metrics.as_ref().map(|m| m.faulty_pass_nanos.span());
        let deviates = self.plan.run_cone(
            values,
            &self.snapshots[input],
            sites,
            self.target.output,
            injector,
        )?;
        drop(pass_span);
        let sdc = if deviates {
            let faulty = values.get(self.target.output)?;
            Cow::Owned(self.judge.judge(&self.goldens[input], faulty))
        } else {
            Cow::Borrowed(self.golden_verdicts[input].as_slice())
        };
        Ok(TrialOutcome {
            sdc,
            applied: injector.fully_injected(),
            masked: !deviates && !injector.injected().is_empty(),
        })
    }

    /// The injection space of input `input`, read off its golden pass.
    pub(crate) fn space(&self, input: usize) -> &InjectionSpace {
        &self.spaces[input]
    }

    /// Drains the plan's per-node timing slots into the global metrics registry
    /// (per-op-kind `plan.op.<Kind>.{nanos,calls}` counters).
    ///
    /// [`run_campaign`] calls this once at the end of a campaign; drivers that
    /// execute chunks themselves (the streaming service) should call it when their
    /// run completes. Draining, so repeated calls never double-count; a no-op when
    /// the campaign was prepared with metrics disabled.
    pub fn publish_metrics(&self) {
        self.plan.publish_timings();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::ClassifierJudge;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::{GraphBuilder, Op};

    fn toy_classifier() -> (ranger_graph::Graph, ranger_graph::NodeId) {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 6, 12, &mut rng);
        let h = b.relu(h);
        let h = b.dense(h, 12, 8, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 8, 4, &mut rng);
        let probs = b.softmax(y);
        (b.into_graph(), probs)
    }

    /// The per-category SDC counts of a hand-rolled campaign: one f32 full pass on a
    /// fresh store per trial, plans drawn from the canonical per-(input, trial) streams.
    /// The reference every cone campaign must reproduce.
    fn full_pass_counts(
        target: &InjectionTarget<'_>,
        inputs: &[Tensor],
        judge: &dyn SdcJudge,
        config: &CampaignConfig,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; judge.categories().len()];
        let plan = target.graph.compile().unwrap();
        for (i, input) in inputs.iter().enumerate() {
            let feeds = [(target.input_name, input.clone())];
            let golden = plan.run_simple(&feeds, target.output).unwrap();
            let space = InjectionSpace::build(target, input).unwrap();
            for t in 0..config.trials {
                let mut rng = trial_rng(config.seed, i, t);
                let mut injector = FaultInjector::plan_random(config.fault, &space, &mut rng);
                let values = plan.run(&feeds, &mut injector).unwrap();
                let faulty = values.get(target.output).unwrap();
                for (count, sdc) in counts.iter_mut().zip(judge.judge(&golden, faulty)) {
                    *count += u64::from(sdc);
                }
            }
        }
        counts
    }

    #[test]
    fn campaign_is_reproducible_for_a_seed() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6])];
        // Default-based, so the CI `RANGER_BACKEND` sweep exercises every backend here.
        let config = CampaignConfig {
            trials: 50,
            workers: 1,
            seed: 7,
            ..CampaignConfig::default()
        };
        let judge = ClassifierJudge::top1();
        let a = run_campaign(&target, &inputs, &judge, &config).unwrap();
        let b = run_campaign(&target, &inputs, &judge, &config).unwrap();
        assert_eq!(a.sdc_counts, b.sdc_counts);
        assert_eq!(a.trials, 50);
    }

    /// The cone-backed campaign must match a hand-rolled full-pass-per-trial campaign
    /// trial-for-trial: same per-(input, trial) RNG streams, same interception points,
    /// same SDC counts.
    #[test]
    fn plan_backed_campaign_matches_executor_per_pass() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6]), Tensor::filled(vec![1, 6], 0.3)];
        // The reference is a hand-rolled f32 full-pass loop, so the backend is pinned.
        let config = CampaignConfig {
            trials: 40,
            batch: 1,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 21,
            tile: 0,
        };
        let judge = ClassifierJudge::top1();
        let fast = run_campaign(&target, &inputs, &judge, &config).unwrap();
        assert_eq!(
            fast.sdc_counts,
            full_pass_counts(&target, &inputs, &judge, &config)
        );
    }

    /// The parallel-campaign acceptance: identical SDC counts, trials and unactivated
    /// tallies for every worker count × batch size combination.
    #[test]
    fn parallel_campaign_matches_serial_campaign_bit_for_bit() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![
            Tensor::ones(vec![1, 6]),
            Tensor::filled(vec![1, 6], 0.3),
            Tensor::filled(vec![1, 6], -0.7),
        ];
        let judge = ClassifierJudge::top1();
        // Default-based fault/backend: the CI sweep runs this grid on every backend.
        let config = |workers, batch| CampaignConfig {
            trials: 30,
            batch,
            workers,
            seed: 19,
            ..CampaignConfig::default()
        };
        let reference = run_campaign(&target, &inputs, &judge, &config(1, 1)).unwrap();
        for workers in [1usize, 2, 4, 8] {
            for batch in [1usize, 16] {
                let parallel =
                    run_campaign(&target, &inputs, &judge, &config(workers, batch)).unwrap();
                assert_eq!(
                    parallel.sdc_counts, reference.sdc_counts,
                    "workers = {workers}, batch = {batch} diverged from the serial SDC counts"
                );
                assert_eq!(
                    parallel.trials, reference.trials,
                    "workers = {workers}, batch = {batch}"
                );
                assert_eq!(
                    parallel.unactivated, reference.unactivated,
                    "workers = {workers}, batch = {batch}"
                );
            }
        }
    }

    /// The chunk-length acceptance: identical SDC counts, trials and unactivated tallies
    /// for every batch, including batches that do not divide the trial count.
    #[test]
    fn batched_campaign_matches_per_sample_campaign_bit_for_bit() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![
            Tensor::ones(vec![1, 6]),
            Tensor::filled(vec![1, 6], 0.3),
            Tensor::filled(vec![1, 6], -0.7),
        ];
        let judge = ClassifierJudge::top1();
        let reference = run_campaign(
            &target,
            &inputs,
            &judge,
            &CampaignConfig {
                trials: 30,
                batch: 1,
                workers: 1,
                seed: 13,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        for batch in [2usize, 7, 16, 30, 64] {
            let batched = run_campaign(
                &target,
                &inputs,
                &judge,
                &CampaignConfig {
                    trials: 30,
                    batch,
                    workers: 1,
                    seed: 13,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                batched.sdc_counts, reference.sdc_counts,
                "batch = {batch} diverged from the per-sample SDC counts"
            );
            assert_eq!(batched.trials, reference.trials, "batch = {batch}");
            assert_eq!(
                batched.unactivated, reference.unactivated,
                "batch = {batch}"
            );
        }
    }

    /// A golden output holding NaN, judged by a judge that flags any non-finite output:
    /// trials whose fault dies before the output must get the verdict a full pass gives
    /// them (golden against golden: an SDC here), not be assumed benign. Hand-rolled
    /// full passes are the reference; the masked-trial counter must have seen such
    /// trials, so the equality is not vacuous.
    #[test]
    fn masked_trials_are_judged_against_golden_not_assumed_benign() {
        struct NonFinite;
        impl SdcJudge for NonFinite {
            fn categories(&self) -> Vec<String> {
                vec!["non-finite".to_string()]
            }
            fn judge(&self, _golden: &Tensor, faulty: &Tensor) -> Vec<bool> {
                vec![faulty.has_non_finite()]
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 4, &mut rng);
        let h = b.relu(h);
        let y = b.add(h, x);
        let graph = b.into_graph();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let inputs = vec![Tensor::from_vec(vec![1, 4], vec![f32::NAN, -1.0, 0.5, -2.0]).unwrap()];
        let config = CampaignConfig {
            trials: 64,
            batch: 1,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 3,
            tile: 0,
        };
        let was_enabled = ranger_obs::enabled();
        ranger_obs::set_enabled(true);
        let masked = ranger_obs::registry().counter("campaign.trials_masked");
        let masked_before = masked.value();
        let per_sample = run_campaign(&target, &inputs, &NonFinite, &config).unwrap();
        let masked_trials = masked.value() - masked_before;
        ranger_obs::set_enabled(was_enabled);
        assert_eq!(
            per_sample.sdc_counts,
            full_pass_counts(&target, &inputs, &NonFinite, &config)
        );
        // Assumed benign, the masked trials could not be SDCs: SDCs + masked <= 64.
        assert!(
            per_sample.sdc_counts[0] + masked_trials > 64,
            "masked trials must be judged, not assumed benign ({} SDCs, {masked_trials} \
             masked)",
            per_sample.sdc_counts[0]
        );
    }

    /// An injectable operator computed purely from constants keeps its output size
    /// whatever the chunk length: every trial runs its own cone, so the graph runs at
    /// batch 16 and reproduces the per-sample counts and the full-pass reference.
    #[test]
    fn batched_campaign_runs_non_batch_scaling_operators() {
        use ranger_graph::{Graph, Op};
        let mut g = Graph::new();
        let x = g.add_input("x");
        // A large constant-fed Identity dominates the injection space, so the seeded
        // plans are certain to target it within a handful of trials.
        let c = g.add_const("c", Tensor::ones(vec![50]), false);
        let _frozen = g.add_node("frozen", Op::Identity, vec![c]);
        let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
        let target = InjectionTarget {
            graph: &g,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let inputs = vec![Tensor::from_vec(vec![1, 3], vec![0.5, -1.0, 2.0]).unwrap()];
        let judge = ClassifierJudge::top1();
        let config = |batch| CampaignConfig {
            trials: 40,
            batch,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 4,
            tile: 0,
        };
        let per_sample = run_campaign(&target, &inputs, &judge, &config(1)).unwrap();
        let batched = run_campaign(&target, &inputs, &judge, &config(16)).unwrap();
        assert_eq!(batched, per_sample);
        assert_eq!(batched.trials, 40);
        assert_eq!(
            batched.sdc_counts,
            full_pass_counts(&target, &inputs, &judge, &config(16))
        );
    }

    #[test]
    fn degenerate_configs_are_rejected_with_descriptive_errors() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6])];
        let judge = ClassifierJudge::top1();
        for (config, needle) in [
            (
                CampaignConfig {
                    trials: 0,
                    ..CampaignConfig::default()
                },
                "trials must be positive",
            ),
            (
                CampaignConfig {
                    batch: 0,
                    ..CampaignConfig::default()
                },
                "batch must be positive",
            ),
            (
                CampaignConfig {
                    workers: 0,
                    ..CampaignConfig::default()
                },
                "workers must be positive",
            ),
            (
                CampaignConfig {
                    tile: 4,
                    ..CampaignConfig::default()
                },
                "reserved",
            ),
            // A JSON number carries integers exactly only up to 2^53 - 1; larger seeds
            // would share a fingerprint with a neighbour, so they never reach a pass.
            (
                CampaignConfig {
                    seed: 1 << 53,
                    ..CampaignConfig::default()
                },
                "exceeds 2^53 - 1",
            ),
            (
                CampaignConfig {
                    seed: (1 << 53) + 1,
                    ..CampaignConfig::default()
                },
                "exceeds 2^53 - 1",
            ),
        ] {
            let err = run_campaign(&target, &inputs, &judge, &config).unwrap_err();
            assert!(
                matches!(err, CampaignError::InvalidConfig(_)),
                "expected InvalidConfig, got {err:?}"
            );
            assert!(
                err.to_string().contains(needle),
                "error '{err}' should mention '{needle}'"
            );
        }
        assert!(CampaignConfig::default().validate().is_ok());
        let largest_seed = CampaignConfig {
            seed: (1 << 53) - 1,
            ..CampaignConfig::default()
        };
        assert!(largest_seed.validate().is_ok());
    }

    #[test]
    fn campaign_config_round_trips_through_json_with_its_batch() {
        let config = CampaignConfig {
            trials: 10,
            batch: 9,
            workers: 3,
            backend: BackendKind::Fixed16,
            fault: FaultModel::single_bit_fixed16(),
            seed: 3,
            tile: 0,
        };
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("\"batch\""));
        assert!(json.contains("\"workers\""));
        assert!(json.contains("\"backend\""));
        assert!(json.contains("\"tile\""));
        let revived: CampaignConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(revived, config);
        // Configs serialized before the `tile` field existed deserialize with tile 0, so
        // persisted fingerprints and checkpoints keep their meaning.
        let legacy: CampaignConfig =
            serde_json::from_str(&json.replace(",\"tile\":0", "").replace("\"tile\":0,", ""))
                .unwrap();
        assert_eq!(legacy, config);
    }

    #[test]
    fn protection_with_clamps_never_increases_sdc_rate() {
        let (graph, probs) = toy_classifier();
        let inputs = vec![Tensor::ones(vec![1, 6])];
        let config = CampaignConfig {
            trials: 150,
            batch: 1,
            workers: 1,
            seed: 11,
            ..CampaignConfig::default()
        };
        let judge = ClassifierJudge::top1();

        let unprotected = {
            let target = InjectionTarget {
                graph: &graph,
                input_name: "x",
                output: probs,
                excluded: &[],
            };
            run_campaign(&target, &inputs, &judge, &config).unwrap()
        };

        // Protect every ReLU output with a generous clamp.
        let mut protected_graph = graph.clone();
        let relu_ids: Vec<_> = protected_graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Relu))
            .map(|n| n.id)
            .collect();
        for id in relu_ids {
            protected_graph
                .insert_after(id, "ranger", Op::Clamp { lo: 0.0, hi: 10.0 })
                .unwrap();
        }
        let protected = {
            let target = InjectionTarget {
                graph: &protected_graph,
                input_name: "x",
                output: probs,
                excluded: &[],
            };
            run_campaign(&target, &inputs, &judge, &config).unwrap()
        };
        let protected_rate = protected.sdc_rate(0).expect("category 0 exists").rate();
        let unprotected_rate = unprotected.sdc_rate(0).expect("category 0 exists").rate();
        assert!(
            protected_rate <= unprotected_rate,
            "range restriction must not increase the SDC rate ({protected_rate} vs {unprotected_rate})"
        );
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = CampaignResult {
            categories: vec!["top-1".into()],
            sdc_counts: vec![3],
            trials: 10,
            unactivated: 1,
        };
        let b = CampaignResult {
            categories: vec!["top-1".into()],
            sdc_counts: vec![5],
            trials: 20,
            unactivated: 0,
        };
        let merged = a.merge(&b);
        assert_eq!(merged.sdc_counts, vec![8]);
        assert_eq!(merged.trials, 30);
        assert_eq!(merged.unactivated, 1);
        assert!((merged.sdc_rate(0).unwrap().rate() - 8.0 / 30.0).abs() < 1e-12);
        assert!(merged.sdc_rate_for("top-1").is_some());
        assert!(merged.sdc_rate_for("nope").is_none());
    }

    #[test]
    fn out_of_range_category_is_none_not_a_panic() {
        let result = CampaignResult {
            categories: vec!["top-1".into()],
            sdc_counts: vec![2],
            trials: 10,
            unactivated: 0,
        };
        assert!(result.sdc_rate(0).is_some());
        assert!(result.sdc_rate(1).is_none());
        assert!(result.sdc_rate(usize::MAX).is_none());
    }

    /// The fixed-point backend acceptance grid: on both fixed backends, every
    /// (workers × batch) combination reports the serial per-sample SDC counts
    /// bit-for-bit — fault plans are keyed by (input, trial) index, so neither the chunk
    /// length nor the schedule can reach the counts.
    #[test]
    fn fixed_backend_campaigns_are_bit_for_bit_deterministic_across_workers_and_batch() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6]), Tensor::filled(vec![1, 6], 0.3)];
        let judge = ClassifierJudge::top1();
        for (backend, fault) in [
            (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
            (BackendKind::Fixed32, FaultModel::single_bit_fixed32()),
        ] {
            let config = |workers, batch| CampaignConfig {
                trials: 30,
                batch,
                workers,
                backend,
                fault,
                seed: 23,
                tile: 0,
            };
            let reference = run_campaign(&target, &inputs, &judge, &config(1, 1)).unwrap();
            assert_eq!(reference.trials, 60, "{backend}");
            for workers in [1usize, 2, 4] {
                for batch in [1usize, 8] {
                    let run =
                        run_campaign(&target, &inputs, &judge, &config(workers, batch)).unwrap();
                    assert_eq!(
                        run.sdc_counts, reference.sdc_counts,
                        "{backend}: workers {workers} × batch {batch} diverged"
                    );
                    assert_eq!(run.unactivated, reference.unactivated, "{backend}");
                }
            }
        }
    }

    /// On the fixed-point backend golden outputs are quantized inference, and a
    /// high-order word flip shows up as a corrupted (still in-format) value — the
    /// campaign runs end-to-end on the genuine integer path.
    #[test]
    fn fixed_backend_campaign_runs_on_the_integer_path() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6])];
        let judge = ClassifierJudge::top1();
        let config = CampaignConfig {
            trials: 40,
            batch: 1,
            workers: 1,
            backend: BackendKind::Fixed16,
            fault: FaultModel::single_bit_fixed16(),
            seed: 2,
            tile: 0,
        };
        let result = run_campaign(&target, &inputs, &judge, &config).unwrap();
        assert_eq!(result.trials, 40);
        // Fault plans are drawn from the same index-keyed streams on every backend, so
        // the same seed on the f32 backend injects the same (site, bit) plans — only the
        // compute (and possibly the verdicts) differ.
        let emulated = run_campaign(
            &target,
            &inputs,
            &judge,
            &CampaignConfig {
                backend: BackendKind::F32,
                ..config
            },
        )
        .unwrap();
        assert_eq!(emulated.trials, result.trials);
    }

    /// Invalid backend/fault-model pairings (e.g. fixed16 faults on the fixed32 backend)
    /// are rejected with a descriptive error instead of silently diverging.
    #[test]
    fn mismatched_backend_fault_pairings_are_rejected() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6])];
        let judge = ClassifierJudge::top1();
        for (backend, fault) in [
            (BackendKind::Fixed32, FaultModel::single_bit_fixed16()),
            (BackendKind::Fixed16, FaultModel::single_bit_fixed32()),
            (BackendKind::Fixed16, FaultModel::single_bit_float32()),
        ] {
            let config = CampaignConfig {
                backend,
                fault,
                ..CampaignConfig::default()
            };
            let err = run_campaign(&target, &inputs, &judge, &config).unwrap_err();
            assert!(
                matches!(err, CampaignError::InvalidConfig(_)),
                "{backend} + {fault} should be rejected, got {err:?}"
            );
            let message = err.to_string();
            assert!(
                message.contains("does not match") && message.contains("backend"),
                "unhelpful error for {backend} + {fault}: {message}"
            );
        }
        // Fixed fault models on the f32 backend remain valid: that is the original
        // TensorFI-style emulation path.
        let emulation = CampaignConfig {
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed16(),
            ..CampaignConfig::default()
        };
        assert!(emulation.validate().is_ok());
    }

    /// When several parallel work units fail, the reported error must carry the count of
    /// the suppressed ones — a multi-chunk service failure is not one failure.
    #[test]
    fn parallel_failures_report_the_suppressed_count() {
        let (graph, probs) = toy_classifier();
        // Every operator excluded: the golden pass runs, every chunk has no site to
        // strike and fails.
        let excluded: Vec<NodeId> = graph.nodes().iter().map(|n| n.id).collect();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &excluded,
        };
        let inputs = vec![Tensor::ones(vec![1, 6])];
        let judge = ClassifierJudge::top1();
        let config = |trials| CampaignConfig {
            trials,
            batch: 4,
            workers: 2,
            seed: 4,
            ..CampaignConfig::default()
        };
        // 20 trials / batch 4 = 5 chunks, all failing: first error + 4 suppressed.
        let err = run_campaign(&target, &inputs, &judge, &config(20)).unwrap_err();
        match &err {
            CampaignError::Failures {
                first,
                input,
                chunk,
                suppressed,
            } => {
                assert_eq!(*suppressed, 4, "expected 4 suppressed failures: {err}");
                assert_eq!((*input, *chunk), (0, 0), "earliest failing unit: {err}");
                assert!(
                    first.to_string().contains("empty injection space"),
                    "first error lost its message: {first}"
                );
            }
            other => panic!("expected CampaignError::Failures, got {other:?}"),
        }
        assert!(
            err.to_string().contains("4 additional work-unit failure"),
            "display should surface the suppressed count: {err}"
        );
        assert!(
            err.to_string()
                .contains("first failing work unit: input 0, chunk 0"),
            "display should name the earliest failing (input, chunk) unit: {err}"
        );
        // A single failing unit stays unwrapped: no "plus 0 suppressed" noise.
        let err = run_campaign(&target, &inputs, &judge, &config(4)).unwrap_err();
        assert!(
            !matches!(err, CampaignError::Failures { .. }),
            "a lone failure must not be wrapped: {err:?}"
        );
    }

    /// `campaign_chunks` covers the `inputs × trials` space exactly once, in canonical
    /// `(input, trial)` order, with contiguous indices.
    #[test]
    fn campaign_chunks_partition_the_trial_space() {
        let config = CampaignConfig {
            trials: 23,
            ..CampaignConfig::default()
        };
        let chunks = campaign_chunks(&config, 3, 7);
        assert_eq!(chunks.len(), 3 * 4); // ceil(23 / 7) = 4 chunks per input
        let mut expected_index = 0;
        for input in 0..3 {
            let mut next_trial = 0;
            for chunk in chunks.iter().filter(|c| c.input == input) {
                assert_eq!(chunk.index, expected_index);
                assert_eq!(chunk.start, next_trial);
                assert!(chunk.len > 0);
                next_trial += chunk.len;
                expected_index += 1;
            }
            assert_eq!(next_trial, config.trials, "input {input} not fully covered");
        }
    }

    /// Executing a prepared campaign's chunks manually — in reverse order, in one arena —
    /// absorbs to the exact counts of `run_campaign`. This is the contract the resumable
    /// service is built on.
    #[test]
    fn prepared_campaign_chunks_reproduce_run_campaign_in_any_order() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6]), Tensor::filled(vec![1, 6], 0.3)];
        let judge = ClassifierJudge::top1();
        let config = CampaignConfig {
            trials: 25,
            batch: 1,
            workers: 1,
            seed: 11,
            ..CampaignConfig::default()
        };
        let reference = run_campaign(&target, &inputs, &judge, &config).unwrap();

        // A chunk length unrelated to the default partition.
        let prepared = PreparedCampaign::with_chunk_len(&target, &inputs, &judge, &config, 6)
            .expect("preparation failed");
        let mut values = prepared.buffers();
        let mut result = prepared.empty_result();
        let mut chunks: Vec<TrialChunk> = prepared.chunks().to_vec();
        chunks.reverse();
        for chunk in chunks {
            let tally = prepared.run_chunk(&mut values, chunk).unwrap();
            result.absorb(&tally);
        }
        assert_eq!(result.sdc_counts, reference.sdc_counts);
        assert_eq!(result.trials, reference.trials);
        assert_eq!(result.unactivated, reference.unactivated);
    }

    /// The chunk length is free whatever the batch: a batch-4 campaign cut into 3-trial
    /// chunks reproduces `run_campaign`'s counts. Only a zero chunk length is rejected.
    #[test]
    fn prepared_campaign_accepts_any_chunk_len_whatever_the_batch() {
        let (graph, probs) = toy_classifier();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6])];
        let judge = ClassifierJudge::top1();
        let config = CampaignConfig {
            trials: 12,
            batch: 4,
            workers: 1,
            seed: 8,
            ..CampaignConfig::default()
        };
        let reference = run_campaign(&target, &inputs, &judge, &config).unwrap();
        let prepared = PreparedCampaign::with_chunk_len(&target, &inputs, &judge, &config, 3)
            .expect("a chunk length other than the batch is valid");
        assert_eq!(prepared.chunks().len(), 4);
        let mut values = prepared.buffers();
        let mut result = prepared.empty_result();
        for &chunk in prepared.chunks() {
            result.absorb(&prepared.run_chunk(&mut values, chunk).unwrap());
        }
        assert_eq!(result, reference);
        let err = PreparedCampaign::with_chunk_len(&target, &inputs, &judge, &config, 0)
            .err()
            .expect("zero chunk length must be rejected");
        assert!(err.to_string().contains("must be positive"));
    }

    #[test]
    #[should_panic(expected = "different categories")]
    fn merge_rejects_mismatched_categories() {
        let a = CampaignResult {
            categories: vec!["top-1".into()],
            sdc_counts: vec![0],
            trials: 0,
            unactivated: 0,
        };
        let b = CampaignResult {
            categories: vec!["top-5".into()],
            sdc_counts: vec![0],
            trials: 0,
            unactivated: 0,
        };
        a.merge(&b);
    }
}
