//! The lease table: exclusive, expiring ownership of chunk ranges.
//!
//! Multi-host sharding hands each worker host an exclusive lease over a contiguous
//! range of chunk indices in one campaign's canonical partition. A lease carries a
//! deadline; a worker renews it (explicitly, or implicitly with every record it pushes)
//! while it computes. A worker that dies simply stops renewing — after the deadline
//! passes the range is **re-leased** to whoever claims next, and any message the dead
//! worker's ghost later sends with its old token is refused.
//!
//! [`LeaseTable`] is deliberately pure bookkeeping: every method takes the current
//! [`Instant`] as a parameter, so the expiry rules are unit-testable with a fake clock
//! and the server stamps real wall time exactly once per request. Correctness never
//! depends on timing — per-(input, trial) RNG keying means a chunk executed twice (by a
//! slow worker and its replacement) produces the identical record, and the coordinator
//! accepts it exactly once.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::{Duration, Instant};

/// Longest lease a worker may ask for (10 minutes). A dead worker holds its range
/// hostage for at most this long.
pub const MAX_LEASE_MS: u64 = 600_000;

/// A granted lease: the token authenticating the worker's right to a chunk range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// The capability token; every renew/release/push for this range must carry it.
    /// Tokens are never reused: a re-leased range gets a fresh token, so messages from
    /// the previous (expired) holder are distinguishable and refused.
    pub token: u64,
    /// The worker name the lease was granted to (diagnostic; the token is the secret).
    pub worker: String,
    /// First chunk index of the leased range.
    pub start: usize,
    /// One past the last chunk index of the leased range.
    pub end: usize,
    /// Milliseconds until the lease expires unless renewed.
    pub ttl_ms: u64,
}

impl LeaseGrant {
    /// Number of chunks in the leased range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the lease covers no chunks (never produced by a grant).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Why a lease operation was refused. Serializable so the server can send the precise
/// variant over the wire and tests can pin it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseError {
    /// The campaign id is not registered on this coordinator.
    UnknownCampaign {
        /// The id the request named.
        id: String,
    },
    /// The campaign exists but was submitted for local execution, not coordination.
    NotRemote {
        /// The id the request named.
        id: String,
    },
    /// The requested range overlaps a live lease held by another worker.
    AlreadyLeased {
        /// First chunk index of the conflicting live lease.
        start: usize,
        /// One past the last chunk index of the conflicting live lease.
        end: usize,
        /// The worker holding it.
        holder: String,
    },
    /// The requested range contains a chunk that is already durably completed.
    AlreadyComplete {
        /// The completed chunk index.
        index: usize,
    },
    /// The requested range falls outside the campaign's partition.
    OutOfRange {
        /// Requested range start.
        start: usize,
        /// Requested range end (exclusive).
        end: usize,
        /// Chunks in the partition.
        total: usize,
    },
    /// The token named a lease that expired (its range may have been re-leased).
    Expired {
        /// The expired token.
        token: u64,
    },
    /// The token is unknown or was already released — the holder is stale.
    Stale {
        /// The stale token.
        token: u64,
    },
    /// The token is live but does not cover the chunk the request touched.
    NotLeased {
        /// The chunk index the request touched.
        index: usize,
        /// The token that does not cover it.
        token: u64,
    },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::UnknownCampaign { id } => {
                write!(f, "no campaign with id {id} on this coordinator")
            }
            LeaseError::NotRemote { id } => write!(
                f,
                "campaign {id} runs locally on this server; it has no lease table \
                 (submit it with the remote flag to shard it)"
            ),
            LeaseError::AlreadyLeased { start, end, holder } => write!(
                f,
                "chunks {start}..{end} are leased to worker '{holder}' and the lease \
                 has not expired"
            ),
            LeaseError::AlreadyComplete { index } => {
                write!(f, "chunk {index} is already durably completed")
            }
            LeaseError::OutOfRange { start, end, total } => write!(
                f,
                "range {start}..{end} falls outside the campaign's {total}-chunk partition"
            ),
            LeaseError::Expired { token } => write!(
                f,
                "lease token {token} expired before this request arrived (the range may \
                 have been re-leased; claim again)"
            ),
            LeaseError::Stale { token } => write!(
                f,
                "lease token {token} is unknown or already released on this coordinator"
            ),
            LeaseError::NotLeased { index, token } => {
                write!(f, "lease token {token} does not cover chunk {index}")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// What a successful record push means for the lease that carried it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The lease is live; its deadline was renewed by the push.
    Live,
    /// The lease expired, but the chunk is neither completed nor re-leased, so the
    /// finished work is accepted anyway — late, but unclaimed by anyone else. This is
    /// what keeps aggressively short deadlines from livelocking on slow chunks.
    LateUnclaimed,
}

/// One live lease. The deadline lives server-side only; the wire carries TTLs.
#[derive(Debug, Clone)]
struct LeaseEntry {
    token: u64,
    worker: String,
    start: usize,
    end: usize,
    deadline: Instant,
    /// The granted TTL, so implicit renewals (pushes) extend by the same leash.
    ttl: Duration,
}

/// Why a token is no longer live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retired {
    Expired,
    Released,
}

/// Lease state for one campaign's chunk space: which chunks are done, which ranges are
/// out on loan, and which tokens are dead.
#[derive(Debug)]
pub struct LeaseTable {
    total: usize,
    completed: BTreeSet<usize>,
    leases: Vec<LeaseEntry>,
    retired: HashMap<u64, Retired>,
    next_token: u64,
}

/// Clamps a requested TTL into `1..=MAX_LEASE_MS` and converts it to a [`Duration`].
pub fn clamp_ttl(ttl_ms: u64) -> Duration {
    Duration::from_millis(ttl_ms.clamp(1, MAX_LEASE_MS))
}

impl LeaseTable {
    /// A table over `total` chunks, with `completed` already durable (resumed from a
    /// checkpoint) and therefore never claimable.
    pub fn new(total: usize, completed: impl IntoIterator<Item = usize>) -> Self {
        LeaseTable {
            total,
            completed: completed.into_iter().collect(),
            leases: Vec::new(),
            retired: HashMap::new(),
            next_token: 1,
        }
    }

    /// Chunks in the campaign's partition.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Chunks durably completed so far.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Live (unexpired as of the last sweep) leases outstanding.
    pub fn live_leases(&self) -> usize {
        self.leases.len()
    }

    /// Reaps every lease whose deadline has passed, returning how many expired. Expired
    /// tokens are remembered so late messages from their holders are answered with
    /// [`LeaseError::Expired`] (or accepted as [`TouchOutcome::LateUnclaimed`] pushes)
    /// rather than a confusing unknown-token error.
    pub fn sweep(&mut self, now: Instant) -> usize {
        let mut expired = 0usize;
        self.leases.retain(|entry| {
            if now > entry.deadline {
                self.retired.insert(entry.token, Retired::Expired);
                expired += 1;
                false
            } else {
                true
            }
        });
        expired
    }

    /// Whether chunk `index` is free: not completed and not covered by a live lease.
    fn is_free(&self, index: usize) -> bool {
        !self.completed.contains(&index)
            && !self
                .leases
                .iter()
                .any(|entry| entry.start <= index && index < entry.end)
    }

    fn grant(
        &mut self,
        worker: &str,
        start: usize,
        end: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> LeaseGrant {
        let token = self.next_token;
        self.next_token += 1;
        let ttl_ms = ttl_ms.clamp(1, MAX_LEASE_MS);
        let ttl = clamp_ttl(ttl_ms);
        self.leases.push(LeaseEntry {
            token,
            worker: worker.to_string(),
            start,
            end,
            deadline: now + ttl,
            ttl,
        });
        LeaseGrant {
            token,
            worker: worker.to_string(),
            start,
            end,
            ttl_ms,
        }
    }

    /// Claims the first contiguous free run of chunks, up to `max_chunks` long. Returns
    /// `None` when no chunk is free — either the campaign is complete or every pending
    /// chunk is out on a live lease (callers should re-poll after a while).
    ///
    /// Call [`LeaseTable::sweep`] first; a claim never evicts a live lease itself.
    pub fn claim(
        &mut self,
        worker: &str,
        max_chunks: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> Option<LeaseGrant> {
        let max_chunks = max_chunks.max(1);
        let start = (0..self.total).find(|&index| self.is_free(index))?;
        let mut end = start + 1;
        while end < self.total && end - start < max_chunks && self.is_free(end) {
            end += 1;
        }
        Some(self.grant(worker, start, end, ttl_ms, now))
    }

    /// Claims an explicit `[start, end)` range, refusing if any chunk in it is
    /// completed, leased, or outside the partition.
    ///
    /// # Errors
    ///
    /// [`LeaseError::OutOfRange`], [`LeaseError::AlreadyComplete`] or
    /// [`LeaseError::AlreadyLeased`] (the conflicting live lease is named).
    pub fn claim_range(
        &mut self,
        worker: &str,
        start: usize,
        end: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> Result<LeaseGrant, LeaseError> {
        if start >= end || end > self.total {
            return Err(LeaseError::OutOfRange {
                start,
                end,
                total: self.total,
            });
        }
        for index in start..end {
            if self.completed.contains(&index) {
                return Err(LeaseError::AlreadyComplete { index });
            }
            if let Some(entry) = self
                .leases
                .iter()
                .find(|entry| entry.start <= index && index < entry.end)
            {
                return Err(LeaseError::AlreadyLeased {
                    start: entry.start,
                    end: entry.end,
                    holder: entry.worker.clone(),
                });
            }
        }
        Ok(self.grant(worker, start, end, ttl_ms, now))
    }

    /// Extends a live lease's deadline by `ttl_ms` from `now`, returning the refreshed
    /// grant.
    ///
    /// # Errors
    ///
    /// [`LeaseError::Expired`] if the token's lease already expired (its range may be
    /// re-leased — the worker must claim afresh), [`LeaseError::Stale`] if the token is
    /// unknown or was released.
    pub fn renew(
        &mut self,
        token: u64,
        ttl_ms: u64,
        now: Instant,
    ) -> Result<LeaseGrant, LeaseError> {
        if let Some(entry) = self.leases.iter_mut().find(|entry| entry.token == token) {
            let ttl_ms = ttl_ms.clamp(1, MAX_LEASE_MS);
            entry.ttl = clamp_ttl(ttl_ms);
            entry.deadline = now + entry.ttl;
            return Ok(LeaseGrant {
                token: entry.token,
                worker: entry.worker.clone(),
                start: entry.start,
                end: entry.end,
                ttl_ms,
            });
        }
        Err(self.dead_token(token))
    }

    /// Releases a live lease, freeing its unfinished chunks for other workers.
    ///
    /// # Errors
    ///
    /// [`LeaseError::Expired`] or [`LeaseError::Stale`] exactly as [`LeaseTable::renew`]
    /// — in particular, a stale worker's late release of a range that expired (and was
    /// possibly re-leased) is refused rather than yanking the new holder's lease.
    pub fn release(&mut self, token: u64, _now: Instant) -> Result<(), LeaseError> {
        if let Some(position) = self.leases.iter().position(|entry| entry.token == token) {
            self.leases.swap_remove(position);
            self.retired.insert(token, Retired::Released);
            return Ok(());
        }
        Err(self.dead_token(token))
    }

    /// Validates that `token` may push a record for chunk `index`, renewing the lease's
    /// deadline by its own granted TTL on success (a push proves the worker is alive).
    ///
    /// # Errors
    ///
    /// [`LeaseError::NotLeased`] if the token is live but the chunk is outside its
    /// range, [`LeaseError::Stale`] if the token is dead and the chunk belongs to (or
    /// was re-leased to) someone else, or is unknown/released.
    pub fn touch(
        &mut self,
        token: u64,
        index: usize,
        now: Instant,
    ) -> Result<TouchOutcome, LeaseError> {
        if let Some(entry) = self.leases.iter_mut().find(|entry| entry.token == token) {
            if index < entry.start || index >= entry.end {
                return Err(LeaseError::NotLeased { index, token });
            }
            entry.deadline = now + entry.ttl;
            return Ok(TouchOutcome::Live);
        }
        match self.retired.get(&token) {
            Some(Retired::Expired) => {
                // The worker outlived its lease. If nobody else owns the chunk and it
                // is still pending, the finished work is as good as anyone's: accept.
                let reclaimed = self
                    .leases
                    .iter()
                    .any(|entry| entry.start <= index && index < entry.end);
                if reclaimed || self.completed.contains(&index) || index >= self.total {
                    Err(LeaseError::Stale { token })
                } else {
                    Ok(TouchOutcome::LateUnclaimed)
                }
            }
            Some(Retired::Released) | None => Err(LeaseError::Stale { token }),
        }
    }

    /// Marks chunk `index` durably completed (call after the record is fsync'd).
    pub fn complete(&mut self, index: usize) {
        self.completed.insert(index);
    }

    fn dead_token(&self, token: u64) -> LeaseError {
        match self.retired.get(&token) {
            Some(Retired::Expired) => LeaseError::Expired { token },
            Some(Retired::Released) | None => LeaseError::Stale { token },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn claim_hands_out_disjoint_contiguous_ranges() {
        let now = t0();
        let mut table = LeaseTable::new(10, []);
        let a = table.claim("a", 4, 1000, now).unwrap();
        assert_eq!((a.start, a.end), (0, 4));
        let b = table.claim("b", 4, 1000, now).unwrap();
        assert_eq!((b.start, b.end), (4, 8));
        let c = table.claim("c", 4, 1000, now).unwrap();
        assert_eq!((c.start, c.end), (8, 10));
        assert!(table.claim("d", 4, 1000, now).is_none(), "nothing left");
        assert_ne!(a.token, b.token);
    }

    #[test]
    fn completed_chunks_are_never_claimable_and_break_contiguity() {
        let now = t0();
        let mut table = LeaseTable::new(6, [0, 3]);
        let a = table.claim("a", 8, 1000, now).unwrap();
        assert_eq!((a.start, a.end), (1, 3), "stops at the completed chunk");
        let b = table.claim("b", 8, 1000, now).unwrap();
        assert_eq!((b.start, b.end), (4, 6));
    }

    #[test]
    fn double_claim_of_a_live_range_is_refused() {
        let now = t0();
        let mut table = LeaseTable::new(8, []);
        let a = table.claim_range("a", 0, 4, 1000, now).unwrap();
        let err = table.claim_range("b", 2, 6, 1000, now).unwrap_err();
        assert_eq!(
            err,
            LeaseError::AlreadyLeased {
                start: 0,
                end: 4,
                holder: "a".to_string()
            }
        );
        // Releasing frees the range for a fresh claim under a fresh token.
        table.release(a.token, now).unwrap();
        let b = table.claim_range("b", 2, 6, 1000, now).unwrap();
        assert_ne!(b.token, a.token);
    }

    #[test]
    fn expiry_reaps_leases_and_old_tokens_are_refused() {
        let now = t0();
        let mut table = LeaseTable::new(8, []);
        let a = table.claim("a", 8, 100, now).unwrap();
        assert_eq!(table.sweep(now + Duration::from_millis(99)), 0);
        assert_eq!(table.live_leases(), 1);
        let later = now + Duration::from_millis(101);
        assert_eq!(table.sweep(later), 1);
        assert_eq!(table.live_leases(), 0);

        // The range is re-leasable; the old token is now answered with Expired.
        let b = table.claim("b", 8, 100, later).unwrap();
        assert_eq!((b.start, b.end), (0, 8));
        assert_eq!(
            table.renew(a.token, 100, later),
            Err(LeaseError::Expired { token: a.token })
        );
        assert_eq!(
            table.release(a.token, later),
            Err(LeaseError::Expired { token: a.token })
        );
        // A push for a chunk now owned by `b` is stale, not silently merged.
        assert_eq!(
            table.touch(a.token, 0, later),
            Err(LeaseError::Stale { token: a.token })
        );
    }

    #[test]
    fn renew_extends_the_deadline() {
        let now = t0();
        let mut table = LeaseTable::new(4, []);
        let a = table.claim("a", 4, 100, now).unwrap();
        let mid = now + Duration::from_millis(80);
        table.renew(a.token, 100, mid).unwrap();
        // 120ms after claim but only 40ms after renew: still live.
        assert_eq!(table.sweep(now + Duration::from_millis(120)), 0);
        assert_eq!(table.sweep(mid + Duration::from_millis(101)), 1);
    }

    #[test]
    fn touch_renews_and_polices_range_membership() {
        let now = t0();
        let mut table = LeaseTable::new(8, []);
        let a = table.claim_range("a", 0, 4, 100, now).unwrap();
        assert_eq!(table.touch(a.token, 2, now), Ok(TouchOutcome::Live));
        assert_eq!(
            table.touch(a.token, 5, now),
            Err(LeaseError::NotLeased {
                index: 5,
                token: a.token
            })
        );
        assert_eq!(
            table.touch(999, 2, now),
            Err(LeaseError::Stale { token: 999 })
        );
    }

    #[test]
    fn late_push_from_an_expired_lease_is_accepted_only_while_unclaimed() {
        let now = t0();
        let mut table = LeaseTable::new(4, []);
        let a = table.claim("a", 4, 50, now).unwrap();
        let later = now + Duration::from_millis(60);
        table.sweep(later);
        // Nobody re-claimed chunk 1 yet: the late result is accepted.
        assert_eq!(
            table.touch(a.token, 1, later),
            Ok(TouchOutcome::LateUnclaimed)
        );
        table.complete(1);
        // Completed now — a retry of the same push is stale at the table level (the
        // coordinator answers duplicates idempotently before consulting the table).
        assert_eq!(
            table.touch(a.token, 1, later),
            Err(LeaseError::Stale { token: a.token })
        );
        // Chunk 2 re-leased to b: a's late push for it is refused.
        let _b = table.claim_range("b", 2, 3, 50, later).unwrap();
        assert_eq!(
            table.touch(a.token, 2, later),
            Err(LeaseError::Stale { token: a.token })
        );
    }

    #[test]
    fn released_tokens_stay_dead() {
        let now = t0();
        let mut table = LeaseTable::new(4, []);
        let a = table.claim("a", 4, 100, now).unwrap();
        table.release(a.token, now).unwrap();
        assert_eq!(
            table.release(a.token, now),
            Err(LeaseError::Stale { token: a.token })
        );
        assert_eq!(
            table.renew(a.token, 100, now),
            Err(LeaseError::Stale { token: a.token })
        );
    }

    #[test]
    fn lease_errors_and_grants_round_trip_through_json() {
        let grant = LeaseGrant {
            token: 7,
            worker: "host-1".to_string(),
            start: 3,
            end: 9,
            ttl_ms: 1500,
        };
        let line = serde_json::to_string(&grant).unwrap();
        let back: LeaseGrant = serde_json::from_str(&line).unwrap();
        assert_eq!(back, grant);

        let errors = vec![
            LeaseError::UnknownCampaign { id: "ff".into() },
            LeaseError::NotRemote { id: "ff".into() },
            LeaseError::AlreadyLeased {
                start: 0,
                end: 4,
                holder: "a".into(),
            },
            LeaseError::AlreadyComplete { index: 2 },
            LeaseError::OutOfRange {
                start: 9,
                end: 12,
                total: 10,
            },
            LeaseError::Expired { token: 3 },
            LeaseError::Stale { token: 4 },
            LeaseError::NotLeased { index: 1, token: 5 },
        ];
        for error in errors {
            let line = serde_json::to_string(&error).unwrap();
            let back: LeaseError = serde_json::from_str(&line).unwrap();
            assert_eq!(back, error);
        }
    }
}
