//! The sharding coordinator: lease lifecycle plus merge-verify over one campaign.
//!
//! A [`Coordinator`] owns everything one sharded campaign needs on the coordinating
//! host: the canonical chunk partition, the fsync'd [`CheckpointStore`], a
//! [`LeaseTable`] handing exclusive chunk ranges to worker hosts, and the ordered
//! emission state that turns completed records into one monotone [`CampaignEvent`]
//! stream. It runs **no forward passes** itself — workers execute chunks and hand the
//! records back; the coordinator's job is to refuse everything that shouldn't be
//! merged and durably absorb everything that should.
//!
//! It is the only writer of the checkpoint. A coordinated campaign's workers are remote
//! hosts pushing over TCP; a locally driven campaign ([`drive`](crate::driver::drive))
//! is a coordinator whose one worker is the local thread pool. Either way every record
//! reaches the store through [`Coordinator::absorb`].
//!
//! Every record a worker pushes crosses three gates, in order:
//!
//! 1. **Duplicate** — a record identical to one already durable is answered
//!    idempotently (workers retry pushes whose responses were lost).
//! 2. **Lease** — the push must carry a token covering the record's chunk
//!    ([`LeaseTable::touch`]); pushing renews the lease.
//! 3. **Merge-verify** — [`ChunkRecord::verify_against`] re-checks the chunk's
//!    geometry and the tally's shape against the campaign's canonical partition, and
//!    the push must name the coordinator's exact fingerprint.
//!
//! Only then is the record fsync'd into the store — durability before visibility — and
//! emitted in canonical chunk order.

use crate::checkpoint::{CheckpointStore, ChunkRecord};
use crate::lease::{LeaseError, LeaseGrant, LeaseTable, TouchOutcome};
use crate::sink::{CampaignEvent, CampaignSink, SinkFlow};
use crate::ServeError;
use ranger_inject::{CampaignResult, ChunkTally, TrialChunk};
use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::time::Instant;

/// Coordinates one sharded campaign: leases out chunk ranges, merge-verifies and
/// durably absorbs the records workers push back, and emits the ordered event stream.
///
/// `S` is how the coordinator holds its store: owned by a long-lived coordinated
/// campaign, borrowed (`&mut CheckpointStore`) for the span of one local drive.
#[derive(Debug)]
pub struct Coordinator<S = CheckpointStore> {
    fingerprint: String,
    chunks: Vec<TrialChunk>,
    categories: Vec<String>,
    trials_total: u64,
    store: S,
    table: LeaseTable,
    /// Absorbed tallies parked until their index is next; `bool` is the resumed flag.
    ready: BTreeMap<usize, (ChunkTally, bool)>,
    next_emit: usize,
    cumulative: CampaignResult,
    resumed_chunks: usize,
    stopped: bool,
}

impl<S: BorrowMut<CheckpointStore>> Coordinator<S> {
    /// Builds a coordinator over `store` for the campaign whose canonical partition is
    /// `chunks`, judging `categories`, totalling `trials_total` trials.
    ///
    /// Records already durable in the store are merge-verified immediately (a corrupt
    /// resumed record is refused here, before any lease is granted) and replay as
    /// resumed chunks when [`Coordinator::begin`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`] if a resumed record fails merge-verify.
    pub fn new(
        store: S,
        chunks: Vec<TrialChunk>,
        categories: Vec<String>,
        trials_total: u64,
    ) -> Result<Self, ServeError> {
        let durable = store.borrow().completed();
        for record in durable.values() {
            record.verify_against(&chunks, categories.len())?;
        }
        let table = LeaseTable::new(chunks.len(), durable.keys().copied());
        let ready: BTreeMap<usize, (ChunkTally, bool)> = durable
            .values()
            .map(|record| (record.chunk.index, (record.tally.clone(), true)))
            .collect();
        let resumed_chunks = ready.len();
        let cumulative = CampaignResult {
            categories: categories.clone(),
            sdc_counts: vec![0; categories.len()],
            trials: 0,
            unactivated: 0,
        };
        Ok(Coordinator {
            fingerprint: store.borrow().fingerprint().to_string(),
            chunks,
            categories,
            trials_total,
            store,
            table,
            ready,
            next_emit: 0,
            cumulative,
            resumed_chunks,
            stopped: false,
        })
    }

    /// The campaign fingerprint this coordinator merges records for.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Chunks in the canonical partition.
    pub fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks that were already durable when the coordinator opened.
    pub fn resumed_chunks(&self) -> usize {
        self.resumed_chunks
    }

    /// Whether every chunk has been absorbed and emitted.
    pub fn is_done(&self) -> bool {
        self.next_emit == self.chunks.len()
    }

    /// Whether a sink stopped the campaign (the server translates this to cancelled).
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Marks the campaign stopped: subsequent claims return no work.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// The merged counts so far (the final result once [`Coordinator::is_done`]).
    pub fn cumulative(&self) -> &CampaignResult {
        &self.cumulative
    }

    /// Emits the campaign-opening events: `GoldenDone` with the partition summary,
    /// then every resumed chunk in canonical order (and `CampaignDone` if the store
    /// already covers the whole campaign).
    pub fn begin(&mut self, sink: &mut dyn CampaignSink) {
        let golden = CampaignEvent::GoldenDone {
            total_chunks: self.chunks.len(),
            resumed_chunks: self.resumed_chunks,
            trials_total: self.trials_total,
            categories: self.categories.clone(),
        };
        if sink.event(&golden) == SinkFlow::Stop {
            self.stopped = true;
            return;
        }
        self.emit_ready(sink);
    }

    /// Claims the next free contiguous chunk range for `worker` (see
    /// [`LeaseTable::claim`]). Returns `None` when no chunk is currently free — done,
    /// stopped, or everything pending is out on live leases.
    pub fn claim(
        &mut self,
        worker: &str,
        max_chunks: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> Option<LeaseGrant> {
        self.sweep(now);
        if self.stopped {
            return None;
        }
        let grant = self.table.claim(worker, max_chunks, ttl_ms, now);
        if grant.is_some() {
            observe("serve.leases.granted");
        }
        grant
    }

    /// Claims an explicit chunk range (see [`LeaseTable::claim_range`]).
    ///
    /// # Errors
    ///
    /// Propagates the table's refusals; see [`LeaseTable::claim_range`].
    pub fn claim_range(
        &mut self,
        worker: &str,
        start: usize,
        end: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> Result<LeaseGrant, LeaseError> {
        self.sweep(now);
        let grant = self.table.claim_range(worker, start, end, ttl_ms, now);
        observe(if grant.is_ok() {
            "serve.leases.granted"
        } else {
            "serve.leases.denied"
        });
        grant
    }

    /// Renews a live lease (see [`LeaseTable::renew`]).
    ///
    /// # Errors
    ///
    /// Propagates the table's refusals; see [`LeaseTable::renew`].
    pub fn renew(
        &mut self,
        token: u64,
        ttl_ms: u64,
        now: Instant,
    ) -> Result<LeaseGrant, LeaseError> {
        self.sweep(now);
        let grant = self.table.renew(token, ttl_ms, now);
        observe(if grant.is_ok() {
            "serve.leases.renewed"
        } else {
            "serve.leases.denied"
        });
        grant
    }

    /// Releases a live lease (see [`LeaseTable::release`]).
    ///
    /// # Errors
    ///
    /// Propagates the table's refusals; see [`LeaseTable::release`].
    pub fn release(&mut self, token: u64, now: Instant) -> Result<(), LeaseError> {
        self.sweep(now);
        let released = self.table.release(token, now);
        observe(if released.is_ok() {
            "serve.leases.released"
        } else {
            "serve.leases.denied"
        });
        released
    }

    /// Absorbs one record pushed by a worker: duplicate-idempotent, lease-checked,
    /// merge-verified, then durably appended and emitted in canonical order.
    ///
    /// `claimed_fingerprint` is the campaign id the worker addressed; a push aimed at
    /// a different campaign than this coordinator's is refused before anything else.
    /// The lease's deadline is renewed by a successful push.
    ///
    /// # Errors
    ///
    /// [`ServeError::FingerprintMismatch`] for a push addressed to another campaign,
    /// [`ServeError::Lease`] when the token does not (or no longer does) cover the
    /// chunk, [`ServeError::Corrupt`] when merge-verify refuses the record, and
    /// I/O / JSON errors if the durable append itself fails. On any error the store is
    /// untouched.
    pub fn absorb(
        &mut self,
        claimed_fingerprint: &str,
        token: u64,
        record: ChunkRecord,
        now: Instant,
        sink: &mut dyn CampaignSink,
    ) -> Result<(), ServeError> {
        self.sweep(now);
        if claimed_fingerprint != self.fingerprint {
            observe("serve.merge.rejected");
            return Err(ServeError::FingerprintMismatch {
                expected: self.fingerprint.clone(),
                found: claimed_fingerprint.to_string(),
            });
        }
        if let Some(existing) = self.store.borrow().completed().get(&record.chunk.index) {
            // A worker retrying a push whose response was lost: the identical record
            // is already durable, so the merge is a no-op either way.
            if *existing == record {
                observe("serve.merge.duplicate");
                return Ok(());
            }
            observe("serve.merge.rejected");
            return Err(ServeError::Corrupt(format!(
                "chunk {} is already durable with a different tally — two workers \
                 disagree about the same deterministic chunk",
                record.chunk.index
            )));
        }
        match self.table.touch(token, record.chunk.index, now) {
            Ok(TouchOutcome::Live) => {}
            Ok(TouchOutcome::LateUnclaimed) => observe("serve.merge.late_accepted"),
            Err(error) => {
                observe("serve.merge.rejected");
                return Err(ServeError::Lease(error));
            }
        }
        record
            .verify_against(&self.chunks, self.categories.len())
            .inspect_err(|_| observe("serve.merge.rejected"))?;

        // Durability before visibility: fsync'd into the store, then emitted.
        self.store.borrow_mut().append(&record)?;
        self.table.complete(record.chunk.index);
        observe("serve.merge.accepted");
        self.ready.insert(record.chunk.index, (record.tally, false));
        self.emit_ready(sink);
        Ok(())
    }

    /// Reaps expired leases, counting them under `serve.leases.expired`.
    fn sweep(&mut self, now: Instant) {
        let expired = self.table.sweep(now);
        if expired > 0 && ranger_obs::enabled() {
            ranger_obs::registry()
                .counter("serve.leases.expired")
                .add(expired as u64);
        }
    }

    /// Drains every in-order tally into the cumulative result and the sink, closing
    /// with `CampaignDone` when the last chunk emits.
    fn emit_ready(&mut self, sink: &mut dyn CampaignSink) {
        while !self.stopped {
            let Some((tally, resumed)) = self.ready.remove(&self.next_emit) else {
                break;
            };
            self.cumulative.absorb(&tally);
            let event = CampaignEvent::ChunkDone {
                chunk: self.chunks[self.next_emit],
                tally,
                resumed,
                cumulative: self.cumulative.clone(),
            };
            self.next_emit += 1;
            if sink.event(&event) == SinkFlow::Stop {
                self.stopped = true;
            }
        }
        if !self.stopped && self.is_done() {
            debug_assert_eq!(self.cumulative.trials, self.trials_total);
            sink.event(&CampaignEvent::CampaignDone {
                result: self.cumulative.clone(),
            });
        }
    }
}

/// Counts one coordinator outcome (no-op when metrics are off; never branches on any
/// observed value).
fn observe(name: &str) {
    if ranger_obs::enabled() {
        ranger_obs::registry().counter(name).increment();
    }
}
