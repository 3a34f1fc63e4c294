//! The campaign driver: checkpointed, streaming execution of a [`PreparedCampaign`]
//! on the local pool.
//!
//! [`drive`] is a [`Coordinator`] with one in-process worker, and that worker is the
//! pool. It opens a coordinator over the store — which merge-verifies every resumed
//! record — replays the durable prefix through [`Coordinator::begin`], leases every
//! pending chunk to itself, executes them with `run_chunks` and absorbs each record
//! through [`Coordinator::absorb`]. Duplicate, lease and merge-verify checks,
//! fsync-before-emit and canonical-order emission are therefore the very code a
//! coordinated fleet's pushes go through, and a local drive's checkpoint is the
//! artifact a fleet writes.
//!
//! `run_chunks` is the pool executor both kinds of worker share: `drive` hands its
//! records to the local coordinator, the remote [`work`](crate::worker::work) loop
//! pushes them to a remote one.
//!
//! Because fault plans are keyed by `(input, trial)` index, the final result is
//! bit-for-bit the [`run_campaign`](ranger_inject::run_campaign) result for the same
//! configuration, however many times the campaign was killed and resumed in between.

use crate::checkpoint::{CheckpointStore, ChunkRecord};
use crate::coordinator::Coordinator;
use crate::lease::MAX_LEASE_MS;
use crate::sink::CampaignSink;
use crate::ServeError;
use ranger_inject::{CampaignError, CampaignResult, PreparedCampaign, TrialChunk};
use ranger_runtime::ThreadPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// How a driven campaign ended.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveOutcome {
    /// Every chunk is accounted for; the result equals the in-process API's.
    Completed(CampaignResult),
    /// The campaign was stopped — by the sink or the cancel flag — after a prefix of
    /// chunks. The partial result covers every chunk emitted before the stop; all
    /// completed chunks (emitted or not) are durable in the checkpoint.
    Stopped(CampaignResult),
}

/// Drives a prepared campaign to completion (or cancellation), streaming ordered tally
/// events into `sink` and persisting every completed chunk into `store`.
///
/// `cancel` is checked before each pending chunk executes and may be set at any time by
/// another thread (the service's cancel request); the sink returning
/// [`SinkFlow::Stop`](crate::sink::SinkFlow::Stop) sets it too. Stopping is cooperative:
/// in-flight chunks finish and are checkpointed, further chunks are skipped.
///
/// # Errors
///
/// Returns [`ServeError::Corrupt`] if a checkpoint record fails merge-verify against
/// the prepared partition (the fingerprint should make this unreachable short of file
/// tampering), an I/O error if a record cannot be made durable, or
/// [`ServeError::Campaign`] if work units fail: the failure of the lowest chunk index,
/// with [`CampaignError::Failures`] context only when more than one failed.
pub fn drive(
    prepared: &PreparedCampaign<'_>,
    store: &mut CheckpointStore,
    pool: &ThreadPool,
    cancel: &AtomicBool,
    sink: &mut dyn CampaignSink,
) -> Result<DriveOutcome, ServeError> {
    let chunks = prepared.chunks();
    let pending: Vec<TrialChunk> = chunks
        .iter()
        .filter(|chunk| !store.completed().contains_key(&chunk.index))
        .copied()
        .collect();
    let trials_total = (prepared.config().trials * prepared.num_inputs()) as u64;
    let mut coordinator = Coordinator::new(
        store,
        chunks.to_vec(),
        prepared.categories().to_vec(),
        trials_total,
    )?;
    coordinator.begin(sink);
    if coordinator.is_stopped() {
        cancel.store(true, Ordering::SeqCst);
    }

    // Lease the pending chunks to the pool, one grant per contiguous run. No other
    // worker ever claims here, so a grant that outlives its TTL is still accepted as a
    // late, unclaimed push.
    let now = Instant::now();
    let grants = pending
        .chunk_by(|a, b| a.index + 1 == b.index)
        .map(|run| {
            let (start, end) = (run[0].index, run[run.len() - 1].index + 1);
            coordinator.claim_range("local", start, end, MAX_LEASE_MS, now)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let fingerprint = coordinator.fingerprint().to_string();
    let executed = run_chunks(prepared, pool, &pending, cancel, |record| {
        let grant = &grants[grants.partition_point(|grant| grant.end <= record.chunk.index)];
        coordinator.absorb(&fingerprint, grant.token, record, Instant::now(), sink)?;
        if coordinator.is_stopped() {
            cancel.store(true, Ordering::SeqCst);
        }
        Ok(())
    });
    // Fold whatever plan timings accumulated into the registry, whatever the outcome:
    // a stopped or failed drive still spent wall time worth accounting for.
    prepared.publish_metrics();
    executed?;

    let cumulative = coordinator.cumulative().clone();
    Ok(if coordinator.is_done() && !coordinator.is_stopped() {
        DriveOutcome::Completed(cumulative)
    } else {
        DriveOutcome::Stopped(cumulative)
    })
}

/// Executes `chunks` on `pool`, one buffer arena per worker, handing each completed
/// record to `on_record` on the calling thread in completion order.
///
/// `stop` is checked before each chunk executes; a chunk that fails to execute, or
/// whose record `on_record` refuses, sets it, so no further chunk starts. Returns the
/// failure of the lowest chunk index among those that ran. When more than one chunk
/// failed and that first failure is an execution error, it is wrapped in
/// [`CampaignError::Failures`] naming the chunk and how many failures it suppressed;
/// a lone failure is returned as is.
pub(crate) fn run_chunks(
    prepared: &PreparedCampaign<'_>,
    pool: &ThreadPool,
    chunks: &[TrialChunk],
    stop: &AtomicBool,
    mut on_record: impl FnMut(ChunkRecord) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    let mut first: Option<(TrialChunk, ServeError)> = None;
    let mut failures = 0usize;
    pool.run_with_consumer(
        |_worker| prepared.buffers(),
        chunks.iter().map(|&chunk| {
            move |values: &mut ranger_graph::exec::Values| {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None); // cooperative cancellation: skip, don't run
                }
                prepared.run_chunk(values, chunk).map(Some)
            }
        }),
        |task, result: Result<Option<_>, CampaignError>| {
            let chunk = chunks[task];
            let error = match result {
                Ok(None) => return,
                Ok(Some(tally)) => match on_record(ChunkRecord { chunk, tally }) {
                    Ok(()) => return,
                    Err(error) => error,
                },
                Err(error) => ServeError::Campaign(error),
            };
            failures += 1;
            stop.store(true, Ordering::SeqCst);
            if first
                .as_ref()
                .is_none_or(|(held, _)| chunk.index < held.index)
            {
                first = Some((chunk, error));
            }
        },
    );
    first_failure(first, failures)
}

/// The error rule of both executors: the failure of the lowest chunk index, wrapped in
/// [`CampaignError::Failures`] only when it is an execution error and `failures > 1`.
fn first_failure(
    first: Option<(TrialChunk, ServeError)>,
    failures: usize,
) -> Result<(), ServeError> {
    match first {
        None => Ok(()),
        Some((chunk, ServeError::Campaign(error))) if failures > 1 => {
            Err(ServeError::Campaign(CampaignError::Failures {
                first: Box::new(error),
                input: chunk.input,
                chunk: chunk.index,
                suppressed: failures - 1,
            }))
        }
        Some((_, error)) => Err(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure(index: usize) -> (TrialChunk, ServeError) {
        let chunk = TrialChunk {
            index,
            input: 1,
            start: 0,
            len: 4,
        };
        let error = CampaignError::InvalidConfig(format!("chunk {index} failed"));
        (chunk, ServeError::Campaign(error))
    }

    #[test]
    fn a_lone_failure_is_unwrapped_and_several_report_the_suppressed_count() {
        assert!(first_failure(None, 0).is_ok());
        match first_failure(Some(failure(3)), 1) {
            Err(ServeError::Campaign(CampaignError::InvalidConfig(message))) => {
                assert_eq!(message, "chunk 3 failed");
            }
            other => panic!("a lone failure must not be wrapped, got {other:?}"),
        }
        match first_failure(Some(failure(3)), 4) {
            Err(ServeError::Campaign(CampaignError::Failures {
                input,
                chunk,
                suppressed,
                ..
            })) => assert_eq!((input, chunk, suppressed), (1, 3, 3)),
            other => panic!("several failures must be counted, got {other:?}"),
        }
        // A refused record (here: a durable write failing) is never dressed up as a
        // campaign failure.
        let (chunk, _) = failure(0);
        let io = ServeError::Io(std::io::Error::other("disk full"));
        assert!(matches!(
            first_failure(Some((chunk, io)), 2),
            Err(ServeError::Io(_))
        ));
    }
}
