//! The line-delimited JSON wire protocol.
//!
//! Every connection carries exactly one request: the client writes one JSON line, the
//! server answers with one JSON [`Response`] line — except for [`Request::Stream`],
//! where the server writes a [`Response::Event`] line per campaign event and closes
//! with [`Response::End`]. One-request-per-connection keeps framing trivial (a
//! `BufRead::read_line` on each side) and makes the server trivially robust to clients
//! vanishing mid-conversation.
//!
//! Campaign ids are [campaign fingerprints](crate::fingerprint::campaign_fingerprint),
//! so submitting the same spec twice — or to a restarted server — addresses the same
//! campaign and resumes its checkpoint instead of starting over.

use crate::checkpoint::ChunkRecord;
use crate::lease::{LeaseError, LeaseGrant};
use crate::sink::CampaignEvent;
use crate::spec::CampaignSpec;
use serde::{Deserialize, Serialize};

/// Version of the wire protocol; bumped on incompatible change.
/// Version 2 added the sharding surface: `SubmitRemote`, `Spec` and the lease
/// lifecycle (`Claim` / `Renew` / `Release` / `Push`).
pub const PROTOCOL_VERSION: u32 = 2;

/// A client request, one JSON line per connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a campaign (or resume it, if its checkpoint already exists).
    Submit {
        /// The complete campaign description.
        spec: CampaignSpec,
    },
    /// Submit a campaign for **coordination only**: the server runs no forward passes
    /// itself — it leases chunk ranges to worker hosts (`Claim`), merge-verifies the
    /// records they `Push` back, and owns the durable checkpoint. Resubmitting the
    /// same spec re-addresses (or, after a restart, resumes) the same campaign.
    SubmitRemote {
        /// The complete campaign description.
        spec: CampaignSpec,
    },
    /// Fetch the spec of a coordinated campaign, so a joining worker can materialize
    /// the identical campaign and verify its fingerprint before claiming work.
    Spec {
        /// The campaign id returned by submit.
        id: String,
    },
    /// Claim an exclusive lease over the next free contiguous chunk range (or an
    /// explicit range) of a coordinated campaign.
    Claim {
        /// The campaign id returned by submit.
        id: String,
        /// The claiming worker's name (diagnostic; the returned token is the secret).
        worker: String,
        /// Milliseconds the lease stays valid without a renewal or push.
        ttl_ms: u64,
        /// Most chunks the worker wants in one lease.
        max_chunks: usize,
        /// An explicit `(start, end)` chunk range to claim instead of the next free
        /// run (used by tests and schedulers that pre-partition the chunk space).
        range: Option<(usize, usize)>,
    },
    /// Extend a live lease's deadline.
    Renew {
        /// The campaign id the lease belongs to.
        id: String,
        /// The lease token from the grant.
        token: u64,
        /// Milliseconds the lease stays valid from now.
        ttl_ms: u64,
    },
    /// Give up a live lease, freeing its unfinished chunks for other workers.
    Release {
        /// The campaign id the lease belongs to.
        id: String,
        /// The lease token from the grant.
        token: u64,
    },
    /// Ship one completed-chunk record to the coordinator. The record is
    /// merge-verified against the campaign's canonical partition, durably appended,
    /// and the lease's deadline is renewed.
    Push {
        /// The campaign id the record belongs to.
        id: String,
        /// The lease token covering the record's chunk.
        token: u64,
        /// The completed chunk and its tally.
        record: ChunkRecord,
    },
    /// Ask for a campaign's current progress.
    Status {
        /// The campaign id returned by submit.
        id: String,
    },
    /// Follow a campaign's event stream from the beginning until it ends.
    Stream {
        /// The campaign id returned by submit.
        id: String,
    },
    /// Cooperatively stop a running campaign (its checkpoint survives for resumption).
    Cancel {
        /// The campaign id returned by submit.
        id: String,
    },
    /// Ask for a snapshot of the server's metrics registry.
    Metrics,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

/// Progress summary returned by [`Request::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusInfo {
    /// The campaign id.
    pub id: String,
    /// `"running"`, `"done"`, `"cancelled"` or `"failed: <message>"`.
    pub state: String,
    /// Judge categories, in reporting order (empty until the golden pass finishes).
    pub categories: Vec<String>,
    /// Per-category SDC counts tallied so far.
    pub sdc_counts: Vec<u64>,
    /// Trials tallied so far.
    pub trials_done: u64,
    /// Trials the campaign will tally in total.
    pub trials_total: u64,
    /// Work units emitted so far (resumed units included).
    pub done_chunks: usize,
    /// Work units in the campaign's partition.
    pub total_chunks: usize,
    /// Work units replayed from the checkpoint instead of executed.
    pub resumed_chunks: usize,
    /// Freshly executed trials per wall-clock second since the campaign started
    /// (resumed trials excluded; `0.0` until the first executed chunk lands).
    pub trials_per_sec: f64,
}

/// A server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A campaign was accepted (or re-addressed): its id and partition summary.
    Submitted {
        /// The campaign id — the campaign's fingerprint hex.
        id: String,
        /// Work units in the campaign's partition.
        total_chunks: usize,
        /// Work units already completed by an earlier run of this campaign.
        resumed_chunks: usize,
    },
    /// Progress of a known campaign.
    Status(StatusInfo),
    /// One campaign event on a stream connection.
    Event(CampaignEvent),
    /// End of a stream: the campaign's terminal state (`"done"`, `"cancelled"` or
    /// `"failed: <message>"`).
    End {
        /// The terminal state string.
        state: String,
    },
    /// A snapshot of the server's metrics registry, as the one-line JSON document
    /// produced by `ranger_obs::MetricsSnapshot::to_json` (kept as an opaque string so
    /// the wire format never constrains the registry's contents).
    Metrics {
        /// The snapshot JSON document.
        snapshot: String,
    },
    /// The spec of a coordinated campaign, answering [`Request::Spec`].
    Spec {
        /// The campaign description, exactly as submitted.
        spec: CampaignSpec,
    },
    /// A lease was granted (or renewed): the worker's exclusive chunk range.
    Leased {
        /// The grant — token, range and TTL.
        grant: LeaseGrant,
    },
    /// No chunk is free to lease right now. `state` reports the campaign's lifecycle
    /// state: while `"running"`, everything pending is out on live leases and the
    /// worker should retry after `retry_ms`; any other state means the worker is done
    /// here.
    NoWork {
        /// The campaign's lifecycle state label.
        state: String,
        /// Suggested delay before the next claim attempt.
        retry_ms: u64,
    },
    /// A lease operation was refused; the precise, typed reason.
    LeaseDenied {
        /// Why the coordinator refused.
        error: LeaseError,
    },
    /// The request was understood and performed; nothing further to report.
    Ok,
    /// The request failed; the message says why.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use ranger_inject::CampaignConfig;

    #[test]
    fn requests_round_trip_through_json_lines() {
        let requests = vec![
            Request::Submit {
                spec: CampaignSpec {
                    model: ModelSpec::Kind {
                        name: "lenet".to_string(),
                    },
                    inputs: 2,
                    // The largest seed a JSON number carries exactly (and a valid one).
                    config: CampaignConfig {
                        seed: (1 << 53) - 1,
                        ..CampaignConfig::default()
                    },
                },
            },
            Request::Status {
                id: "abc123".to_string(),
            },
            Request::Stream {
                id: "abc123".to_string(),
            },
            Request::Cancel {
                id: "abc123".to_string(),
            },
            Request::Metrics,
            Request::Shutdown,
            Request::SubmitRemote {
                spec: CampaignSpec {
                    model: ModelSpec::Kind {
                        name: "lenet".to_string(),
                    },
                    inputs: 2,
                    config: CampaignConfig::default(),
                },
            },
            Request::Spec {
                id: "abc123".to_string(),
            },
            Request::Claim {
                id: "abc123".to_string(),
                worker: "host-1".to_string(),
                ttl_ms: 30_000,
                max_chunks: 4,
                range: None,
            },
            Request::Claim {
                id: "abc123".to_string(),
                worker: "host-1".to_string(),
                ttl_ms: 30_000,
                max_chunks: 4,
                range: Some((3, 7)),
            },
            Request::Renew {
                id: "abc123".to_string(),
                token: 9,
                ttl_ms: 30_000,
            },
            Request::Release {
                id: "abc123".to_string(),
                token: 9,
            },
            Request::Push {
                id: "abc123".to_string(),
                token: 9,
                record: ChunkRecord {
                    chunk: ranger_inject::TrialChunk {
                        index: 3,
                        input: 1,
                        start: 8,
                        len: 4,
                    },
                    tally: ranger_inject::ChunkTally {
                        sdc_counts: vec![1],
                        trials: 4,
                        unactivated: 2,
                    },
                },
            },
        ];
        for request in requests {
            let line = serde_json::to_string(&request).unwrap();
            assert!(!line.contains('\n'), "wire lines must be single lines");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip_through_json_lines() {
        let responses = vec![
            Response::Submitted {
                id: "abc".to_string(),
                total_chunks: 10,
                resumed_chunks: 3,
            },
            Response::Status(StatusInfo {
                id: "abc".to_string(),
                state: "running".to_string(),
                categories: vec!["top-1".to_string()],
                sdc_counts: vec![4],
                trials_done: 40,
                trials_total: 100,
                done_chunks: 5,
                total_chunks: 13,
                resumed_chunks: 2,
                trials_per_sec: 1250.5,
            }),
            Response::End {
                state: "done".to_string(),
            },
            Response::Metrics {
                snapshot: "{\"enabled\":true,\"counters\":{},\"gauges\":{},\"histograms\":{}}"
                    .to_string(),
            },
            Response::Ok,
            Response::Error {
                message: "no such campaign".to_string(),
            },
            Response::Spec {
                spec: CampaignSpec {
                    model: ModelSpec::Kind {
                        name: "lenet".to_string(),
                    },
                    inputs: 2,
                    config: CampaignConfig::default(),
                },
            },
            Response::Leased {
                grant: LeaseGrant {
                    token: 9,
                    worker: "host-1".to_string(),
                    start: 3,
                    end: 7,
                    ttl_ms: 30_000,
                },
            },
            Response::NoWork {
                state: "running".to_string(),
                retry_ms: 250,
            },
            Response::LeaseDenied {
                error: LeaseError::AlreadyLeased {
                    start: 0,
                    end: 4,
                    holder: "host-2".to_string(),
                },
            },
        ];
        for response in responses {
            let line = serde_json::to_string(&response).unwrap();
            assert!(!line.contains('\n'));
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, response);
        }
    }
}
