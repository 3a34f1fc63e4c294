//! The served workload: campaigns over a Ranger-protected LeNet saved model, submitted
//! by one `Client` to an in-process `CampaignServer` over loopback and streamed back;
//! the server executes them.

use crate::check::{count_mismatches, sample_index};
use crate::compute::protect;
use crate::models::{QuickModels, MODEL_SEED};
use crate::trace::{Scope, Tracer};
use crate::workloads::{campaign_seed, CampaignStats, Campaigns, ServeLayers, Workload};
use ranger::bounds::BoundsConfig;
use ranger_inject::{default_chunk_len, CampaignResult, ChunkTally, TrialChunk};
use ranger_models::ModelKind;
use ranger_serve::{CampaignEvent, CampaignServer, CampaignSpec, Client, ModelSpec, SavedModel};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// A bound server and the saved model its campaigns load.
pub struct ServedSetup {
    server: CampaignServer,
    model_path: PathBuf,
}

/// Loads and protects LeNet, saves it under `run_dir` and binds a server whose
/// checkpoints go to a directory under `run_dir`.
///
/// # Errors
///
/// Returns a message if any step fails.
pub fn setup(
    models: &QuickModels,
    run_dir: &Path,
    scope: &Scope<'_>,
) -> Result<ServedSetup, String> {
    let model = {
        let _span = scope.span("models.load");
        models.load(ModelKind::LeNet)?.model
    };
    let protected = protect(&model, scope)?;
    let model_path = run_dir.join("lenet_ranger.json");
    {
        let _span = scope.span("models.save");
        SavedModel {
            model: protected,
            seed: MODEL_SEED,
            protected: true,
            percentile: Some(BoundsConfig::default().percentile),
        }
        .save(&model_path)
        .map_err(|e| format!("saving the protected model: {e}"))?;
    }
    let server = {
        let _span = scope.span("serve.bind");
        CampaignServer::bind("127.0.0.1:0", run_dir.join("checkpoints"))
            .map_err(|e| format!("binding the campaign server: {e}"))?
    };
    Ok(ServedSetup { server, model_path })
}

/// What a campaign's event stream delivered.
#[derive(Default)]
struct StreamLog {
    last: Option<Instant>,
    gaps_ms: Vec<f64>,
    golden_at: Option<Instant>,
    total_chunks: usize,
    resumed: usize,
    chunks: BTreeMap<usize, (TrialChunk, ChunkTally)>,
    duplicates: usize,
    result: Option<CampaignResult>,
}

impl StreamLog {
    fn observe(&mut self, event: &CampaignEvent) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps_ms.push((now - last).as_secs_f64() * 1e3);
        }
        self.last = Some(now);
        match event {
            CampaignEvent::GoldenDone {
                total_chunks,
                resumed_chunks,
                ..
            } => {
                self.golden_at = Some(now);
                self.total_chunks = *total_chunks;
                self.resumed += resumed_chunks;
            }
            CampaignEvent::ChunkDone {
                chunk,
                tally,
                resumed,
                ..
            } => {
                self.resumed += usize::from(*resumed);
                if self
                    .chunks
                    .insert(chunk.index, (*chunk, tally.clone()))
                    .is_some()
                {
                    self.duplicates += 1;
                }
            }
            CampaignEvent::CampaignDone { result } => self.result = Some(result.clone()),
        }
    }

    /// Failed consistency checks: the final result must be the sum of the streamed
    /// chunk tallies, and every chunk must arrive exactly once.
    fn inconsistencies(&self) -> u64 {
        let mut failed =
            (self.total_chunks.saturating_sub(self.chunks.len()) + self.duplicates) as u64;
        match &self.result {
            Some(result) => {
                let mut sum = CampaignResult {
                    categories: result.categories.clone(),
                    sdc_counts: vec![0; result.sdc_counts.len()],
                    trials: 0,
                    unactivated: 0,
                };
                for (_, tally) in self.chunks.values() {
                    if tally.sdc_counts.len() != sum.sdc_counts.len() {
                        return failed + 1;
                    }
                    sum.absorb(tally);
                }
                if sum != *result {
                    failed += 1;
                }
            }
            None => failed += 1,
        }
        failed
    }
}

/// A served campaign's spec and sampled streamed tallies, kept for the output check.
struct SpecSample {
    spec: CampaignSpec,
    samples: Vec<(TrialChunk, ChunkTally)>,
}

/// The measured campaigns of a served workload; the server runs until this drops.
pub struct ServedCampaigns {
    addr: String,
    model_path: PathBuf,
    seed: u64,
    inputs: usize,
    trials: usize,
    server: Option<JoinHandle<Result<(), ranger_serve::ServeError>>>,
    samples: Vec<SpecSample>,
    layers: ServeLayers,
}

impl ServedCampaigns {
    /// Starts the set-up server's accept loop.
    ///
    /// # Errors
    ///
    /// Returns a message if the server's address cannot be read.
    pub fn start(
        setup: ServedSetup,
        seed: u64,
        inputs: usize,
        trials: usize,
    ) -> Result<Self, String> {
        let addr = setup
            .server
            .local_addr()
            .map_err(|e| format!("reading the server address: {e}"))?
            .to_string();
        let server = setup.server;
        Ok(ServedCampaigns {
            addr,
            model_path: setup.model_path,
            seed,
            inputs,
            trials,
            server: Some(std::thread::spawn(move || server.run())),
            samples: Vec::new(),
            layers: ServeLayers::default(),
        })
    }

    fn spec(&self, k: usize) -> CampaignSpec {
        CampaignSpec {
            model: ModelSpec::Path {
                path: self.model_path.to_string_lossy().into_owned(),
            },
            inputs: self.inputs,
            config: Workload::LenetServed.config(self.trials, campaign_seed(self.seed, k)),
        }
    }
}

impl Campaigns for ServedCampaigns {
    fn campaign(&mut self, k: usize, tracer: Option<&Tracer>) -> CampaignStats {
        let spec = self.spec(k);
        let client = Client::new(self.addr.as_str());
        let scope = Scope::new(tracer, format!("campaign.{k}"));
        let root = scope.span("campaign");
        let scope = scope.under(&root);
        let mut stats = CampaignStats::default();

        let start = Instant::now();
        let submitted = {
            let _span = scope.span("serve.submit");
            client.submit(&spec)
        };
        let submitted = match submitted {
            Ok(submitted) => submitted,
            Err(e) => {
                eprintln!("campaign {k}: submit failed: {e}");
                stats.failed += 1;
                stats.wall_s = start.elapsed().as_secs_f64();
                return stats;
            }
        };
        let mut log = StreamLog::default();
        let state = {
            let _span = scope.span("serve.stream");
            client.stream(&submitted.id, |event| log.observe(event))
        };
        stats.wall_s = start.elapsed().as_secs_f64();
        drop(root);

        stats.chunks = submitted.total_chunks as u64;
        match state {
            Ok(state) if state == "done" => {}
            Ok(state) => {
                eprintln!("campaign {k} ended {state}");
                stats.failed += 1;
            }
            Err(e) => {
                eprintln!("campaign {k}: stream failed: {e}");
                stats.failed += 1;
            }
        }
        // The resume guard: a resumed chunk was measured by an earlier campaign.
        let resumed = submitted.resumed_chunks + log.resumed;
        if resumed > 0 {
            eprintln!("campaign {k} resumed {resumed} chunk(s) from a checkpoint");
            stats.failed += 1;
        }
        stats.failed += log.inconsistencies();
        if let Some(result) = &log.result {
            stats.trials = result.trials;
            stats.unactivated = result.unactivated;
            stats.arms.push(("ranger", result.clone()));
        }

        if tracer.is_some() {
            self.layers.event_gap_ms.extend(&log.gaps_ms);
            self.layers
                .prepare_s
                .extend(log.golden_at.map(|at| (at - start).as_secs_f64()));
        }
        if let Some(sample) =
            sample_index(log.total_chunks, k).and_then(|index| log.chunks.get(&index).cloned())
        {
            self.samples.push(SpecSample {
                spec,
                samples: vec![sample],
            });
        }
        stats
    }

    fn check(&mut self) -> u64 {
        self.samples
            .iter()
            .map(|sample| match sample.spec.materialize() {
                Ok(campaign) => count_mismatches(
                    &campaign.target(),
                    &campaign.inputs,
                    campaign.judge.as_ref(),
                    &campaign.config,
                    default_chunk_len(&campaign.config),
                    &sample.samples,
                ),
                Err(e) => {
                    eprintln!("materializing a checked campaign: {e}");
                    sample.samples.len() as u64
                }
            })
            .sum()
    }

    fn layers(&self) -> ServeLayers {
        self.layers.clone()
    }
}

impl Drop for ServedCampaigns {
    fn drop(&mut self) {
        // Stop the accept loop and wait for it; if the shutdown request cannot be
        // delivered the loop never ends, so leave it to process exit.
        if let Some(server) = self.server.take() {
            if Client::new(self.addr.as_str()).shutdown().is_ok() {
                let _ = server.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(sdc: u64, trials: u64) -> CampaignResult {
        CampaignResult {
            categories: vec!["top-1".to_string()],
            sdc_counts: vec![sdc],
            trials,
            unactivated: 0,
        }
    }

    fn chunk_done(index: usize, sdc: u64) -> CampaignEvent {
        CampaignEvent::ChunkDone {
            chunk: TrialChunk {
                index,
                input: 0,
                start: index * 4,
                len: 4,
            },
            tally: ChunkTally {
                sdc_counts: vec![sdc],
                trials: 4,
                unactivated: 0,
            },
            resumed: false,
            cumulative: result(0, 0),
        }
    }

    fn golden(resumed_chunks: usize) -> CampaignEvent {
        CampaignEvent::GoldenDone {
            total_chunks: 2,
            resumed_chunks,
            trials_total: 8,
            categories: vec!["top-1".to_string()],
        }
    }

    #[test]
    fn the_final_result_must_be_the_sum_of_the_streamed_tallies() {
        let mut log = StreamLog::default();
        for event in [
            golden(0),
            chunk_done(0, 1),
            chunk_done(1, 0),
            CampaignEvent::CampaignDone {
                result: result(1, 8),
            },
        ] {
            log.observe(&event);
        }
        assert_eq!((log.inconsistencies(), log.resumed), (0, 0));
        assert_eq!(log.gaps_ms.len(), 3);
        // A hand-corrupted streamed tally no longer sums to the result.
        log.chunks.get_mut(&1).unwrap().1.sdc_counts[0] = 1;
        assert_eq!(log.inconsistencies(), 1);
        // A missing chunk event is a failure too.
        log.chunks.remove(&1);
        assert_eq!(log.inconsistencies(), 2);
    }

    #[test]
    fn resumed_chunks_are_counted_for_the_resume_guard() {
        let mut log = StreamLog::default();
        log.observe(&golden(1));
        assert_eq!(log.resumed, 1);
    }
}
