//! Deterministic parallel execution runtime for the Ranger reproduction.
//!
//! Fault-injection campaigns are embarrassingly parallel — `inputs × trials` independent
//! forward passes of the same graph — but the build environment has no crates.io access,
//! so this crate provides the two pieces a parallel campaign driver needs without any
//! external dependency:
//!
//! * [`pool`] — a **scoped work-stealing thread pool** on `std::thread`: each worker owns
//!   an injector queue and steals from its peers when it drains, tasks may borrow from the
//!   caller's stack (the pool joins before returning), each worker carries its own scratch
//!   state (a cloned buffer arena, in the campaign driver's case), and results come back
//!   in task order whatever the interleaving was.
//! * [`rng`] — the **per-(input, trial) RNG stream derivation**: SplitMix64-mixed
//!   sub-seeds so every trial draws its fault plan from an independent, index-keyed
//!   stream. Serial and parallel drivers that key their draws this way produce
//!   bit-for-bit identical plans for any worker count and any chunk length.
//!
//! The two halves compose into the determinism model documented in `ARCHITECTURE.md`:
//! *schedule-free randomness* (streams keyed by logical indices, never by execution
//! order) plus *order-restoring reduction* (results merged by task index).

#![warn(missing_docs)]

pub mod pool;
pub mod rng;

pub use pool::ThreadPool;
pub use rng::{splitmix64_mix, trial_stream_seed};

/// The default worker count for campaign configurations: the `RANGER_WORKERS`
/// environment variable if it is set to a positive integer, otherwise `1` (the serial
/// path).
///
/// Reading the environment here — once, at configuration-default time, never inside the
/// drivers — lets a CI job exercise the parallel path across an entire test suite
/// (`RANGER_WORKERS=4 cargo test`) without every call site growing a knob. Because
/// campaign results are bit-for-bit identical for every worker count, overriding the
/// default can never change what a test asserts, only which executor runs it.
pub fn default_workers() -> usize {
    std::env::var("RANGER_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_is_at_least_one() {
        // Whatever the environment says, the default is usable as a worker count.
        assert!(default_workers() >= 1);
    }
}
