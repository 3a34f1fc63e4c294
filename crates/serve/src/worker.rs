//! Remote worker hosts for coordinated campaigns: claim, execute, push, repeat.
//!
//! [`work`] is what the CLI's `work` command runs: fetch the campaign spec from a
//! coordinator over TCP, materialize it locally, verify the fingerprint matches (a
//! worker must never compute against a different campaign than it claims chunks of),
//! then loop claiming ranges, executing them with the same pool executor a local
//! [`drive`](crate::driver::drive) uses, and pushing every record back. Each push
//! renews the lease, so a worker stays leased as long as it makes progress; a worker
//! that dies simply stops pushing and its range is re-leased after expiry.
//!
//! Correctness never depends on scheduling: fault plans are keyed by
//! `(input, trial)` index, so any interleaving of hosts, claims and re-leases merges
//! to bit-for-bit the single-host counts.

use crate::client::{ClaimOutcome, Client};
use crate::driver::run_chunks;
use crate::ServeError;
use ranger_inject::PreparedCampaign;
use ranger_runtime::ThreadPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Default lease TTL in milliseconds, read from `RANGER_LEASE_MS` (unset: 30 s).
/// Short values exercise the expiry paths — CI sweeps the serve suite with
/// `RANGER_LEASE_MS=50` so re-leasing and late-push acceptance run on every push.
pub fn default_lease_ms() -> u64 {
    std::env::var("RANGER_LEASE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(30_000)
}

/// Options for a remote (TCP) worker.
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// This worker's name, echoed in grants and conflict errors.
    pub worker: String,
    /// Lease TTL to claim with, in milliseconds.
    pub ttl_ms: u64,
    /// Most chunks to take per claim.
    pub claim_chunks: usize,
    /// Floor on the wait between claim attempts while the campaign is running but
    /// fully leased out.
    pub poll_ms: u64,
}

impl Default for WorkOptions {
    fn default() -> Self {
        WorkOptions {
            worker: format!("worker-{}", std::process::id()),
            ttl_ms: default_lease_ms(),
            claim_chunks: 4,
            poll_ms: 50,
        }
    }
}

/// What a remote worker did, reported when its campaign reaches a terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkReport {
    /// The campaign id the worker served.
    pub id: String,
    /// Chunks this worker executed and successfully pushed.
    pub chunks_executed: usize,
    /// Trials inside those chunks.
    pub trials_executed: u64,
    /// The campaign's terminal state label (`"done"`, `"cancelled"`, …).
    pub final_state: String,
}

/// Progress notifications a remote worker emits (the CLI prints them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkEvent {
    /// A lease was granted over `start..end`.
    Claimed {
        /// First chunk index of the granted range.
        start: usize,
        /// One past the last chunk index.
        end: usize,
        /// The grant's token.
        token: u64,
    },
    /// One chunk was executed and durably accepted by the coordinator.
    Pushed {
        /// The chunk's index in the canonical partition.
        index: usize,
    },
    /// The lease was lost (expired and re-leased, or otherwise refused); the worker
    /// abandons the rest of the range and claims afresh.
    LeaseLost {
        /// The refused token.
        token: u64,
        /// The coordinator's reason.
        reason: String,
    },
    /// Nothing to claim while the campaign runs; the worker waits.
    Waiting {
        /// Milliseconds the worker will sleep.
        retry_ms: u64,
    },
}

/// Joins a coordinated campaign as a worker host: fetches the spec from the
/// coordinator at `addr`, materializes it, verifies the fingerprint equals `id`, and
/// loops — claim a chunk range, execute it on a local [`ThreadPool`]
/// (`config.workers` wide), push every record back (each push renews the lease) —
/// until the campaign reaches a terminal state.
///
/// A lost lease (this worker stalled past its TTL and the range was re-leased) is not
/// an error: the worker abandons the range and claims fresh work. The coordinator
/// accepts each chunk exactly once, so duplicated execution never duplicates counts.
///
/// # Errors
///
/// Returns [`ServeError::FingerprintMismatch`] if the materialized campaign does not
/// fingerprint to `id` (worker and coordinator would disagree about the work),
/// [`ServeError::Campaign`] if chunk execution fails (reported exactly as a local
/// [`drive`](crate::driver::drive) reports it: the lowest failing chunk, counted
/// suppressed failures only when there are any), and transport errors if the
/// coordinator becomes unreachable.
pub fn work(
    addr: &str,
    id: &str,
    options: &WorkOptions,
    mut on_event: impl FnMut(&WorkEvent),
) -> Result<WorkReport, ServeError> {
    let client = Client::new(addr);
    let spec = client.spec(id)?;
    let materialized = spec.materialize()?;
    let fingerprint = materialized.fingerprint()?;
    if fingerprint != id {
        return Err(ServeError::FingerprintMismatch {
            expected: id.to_string(),
            found: fingerprint,
        });
    }
    let target = materialized.target();
    let prepared = PreparedCampaign::new(
        &target,
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )?;
    let chunks = prepared.chunks();
    let pool = ThreadPool::new(materialized.config.workers.max(1));

    let mut chunks_executed = 0usize;
    let mut trials_executed = 0u64;
    loop {
        let grant = match client.claim(id, &options.worker, options.ttl_ms, options.claim_chunks)? {
            ClaimOutcome::Granted(grant) => grant,
            ClaimOutcome::NoWork { state, retry_ms } => {
                if state == "running" {
                    let wait = retry_ms.max(options.poll_ms);
                    on_event(&WorkEvent::Waiting { retry_ms: wait });
                    std::thread::sleep(Duration::from_millis(wait));
                    continue;
                }
                prepared.publish_metrics();
                return Ok(WorkReport {
                    id: id.to_string(),
                    chunks_executed,
                    trials_executed,
                    final_state: state,
                });
            }
        };
        on_event(&WorkEvent::Claimed {
            start: grant.start,
            end: grant.end,
            token: grant.token,
        });

        // Execute the range on the pool; each record is pushed (on this thread) as it
        // completes, renewing the lease with every accepted push.
        let abandon = AtomicBool::new(false);
        let mut lease_lost: Option<WorkEvent> = None;
        run_chunks(
            &prepared,
            &pool,
            &chunks[grant.start..grant.end],
            &abandon,
            |record| match client.push(id, grant.token, &record) {
                Ok(()) => {
                    chunks_executed += 1;
                    trials_executed += record.tally.trials;
                    Ok(())
                }
                Err(ServeError::Lease(reason)) => {
                    // The range was re-leased: abandon it and claim afresh.
                    lease_lost.get_or_insert(WorkEvent::LeaseLost {
                        token: grant.token,
                        reason: reason.to_string(),
                    });
                    abandon.store(true, Ordering::SeqCst);
                    Ok(())
                }
                Err(e) => Err(e),
            },
        )?;
        if let Some(event) = &lease_lost {
            on_event(event);
        } else {
            for index in grant.start..grant.end {
                on_event(&WorkEvent::Pushed { index });
            }
        }
        // Hand the lease back; the range is done (or lost), either way this token is
        // finished. A refusal here just means the coordinator already reclaimed it.
        let _ = client.release(id, grant.token);
    }
}
