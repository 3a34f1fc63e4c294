//! A streaming, resumable campaign service for long fault-injection fleets.
//!
//! The paper's numbers are aggregate SDC statistics over very large injection campaigns.
//! [`ranger_inject::run_campaign`] computes them in one in-process call — which means a
//! million-trial campaign that dies at trial 900k loses everything, and nobody can watch
//! the tallies converge. This crate turns the campaign runner into a **service**, in
//! three layers:
//!
//! * [`driver`] — the chunked campaign driver built on
//!   [`PreparedCampaign`](ranger_inject::PreparedCampaign): a [`Coordinator`] whose
//!   one worker is the [`ranger_runtime`] pool, streaming an ordered series of
//!   incremental tally events through a [`CampaignSink`].
//! * [`checkpoint`] — an append-only, fsync'd, versioned file of completed-chunk
//!   records, keyed by a [campaign fingerprint](fingerprint::campaign_fingerprint). A
//!   restarted driver verifies the fingerprint, skips the completed chunks and — because
//!   fault plans are keyed by `(input, trial)` index, never by schedule — reproduces the
//!   counts of an uninterrupted run bit for bit.
//! * [`server`] / [`client`] — a front end on [`std::net::TcpListener`] speaking
//!   line-delimited JSON (submit / status / stream / cancel), with a matching blocking
//!   client used by the CLI.
//! * [`lease`] / [`coordinator`] / [`worker`] — the multi-host sharding layer: the
//!   server can coordinate a campaign instead of running it, leasing exclusive chunk
//!   ranges to worker hosts with expiring, renewable tokens and merge-verifying every
//!   record they push back before it reaches the durable store. Because fault plans
//!   are keyed by `(input, trial)` index, ANY partition of the chunk space across any
//!   number of hosts reproduces the single-host counts bit for bit.
//!
//! There is one durable path: local or remote, every completed chunk reaches the
//! checkpoint through [`Coordinator::absorb`], so a locally driven campaign and a
//! coordinated one write the same artifact and either can resume the other.
//!
//! Everything is plain `std` plus the workspace's vendored serde: no async runtime, no
//! external services. Campaign identity doubles as the wire-level id, so re-submitting a
//! campaign to a restarted server *is* resuming it.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
pub mod coordinator;
pub mod driver;
pub mod fingerprint;
pub mod lease;
pub mod protocol;
pub mod server;
pub mod sink;
pub mod spec;
pub mod worker;

pub use checkpoint::{CheckpointStore, ChunkRecord, CHECKPOINT_VERSION};
pub use client::{ClaimOutcome, Client, Submitted};
pub use coordinator::Coordinator;
pub use driver::{drive, DriveOutcome};
pub use fingerprint::campaign_fingerprint;
pub use lease::{LeaseError, LeaseGrant, LeaseTable, TouchOutcome, MAX_LEASE_MS};
pub use protocol::{Request, Response, StatusInfo};
pub use server::CampaignServer;
pub use sink::{CampaignEvent, CampaignSink, CollectSink, NullSink, SinkFlow};
pub use spec::{CampaignSpec, MaterializedCampaign, ModelSpec, SavedModel};
pub use worker::{default_lease_ms, work, WorkEvent, WorkOptions, WorkReport};

use std::fmt;

/// Errors surfaced by the campaign service.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying campaign preparation or execution failed.
    Campaign(ranger_inject::CampaignError),
    /// A file operation (checkpoint, saved model) failed.
    Io(std::io::Error),
    /// A JSON payload (wire message, checkpoint record, saved model) failed to encode or
    /// decode.
    Json(serde_json::Error),
    /// A checkpoint file exists but belongs to a different campaign.
    FingerprintMismatch {
        /// The fingerprint of the campaign being resumed.
        expected: String,
        /// The fingerprint recorded in the checkpoint file.
        found: String,
    },
    /// A checkpoint file is structurally invalid beyond a torn final record.
    Corrupt(String),
    /// A wire request was malformed or referenced an unknown campaign.
    Protocol(String),
    /// A campaign specification could not be materialized into a runnable campaign.
    Spec(String),
    /// A lease operation was refused — the typed reason a coordinator (or its client)
    /// reports for claim/renew/release/push refusals.
    Lease(lease::LeaseError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Campaign(e) => write!(f, "campaign error: {e}"),
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Json(e) => write!(f, "JSON error: {e}"),
            ServeError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: the file records campaign {found} but \
                 this campaign is {expected} (same graph, config, seed and backend are \
                 required to resume)"
            ),
            ServeError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Spec(msg) => write!(f, "invalid campaign spec: {msg}"),
            ServeError::Lease(e) => write!(f, "lease refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Campaign(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Json(e) => Some(e),
            ServeError::Lease(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ranger_inject::CampaignError> for ServeError {
    fn from(e: ranger_inject::CampaignError) -> Self {
        ServeError::Campaign(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Json(e)
    }
}

impl From<lease::LeaseError> for ServeError {
    fn from(e: lease::LeaseError) -> Self {
        ServeError::Lease(e)
    }
}
