//! The output check: measured chunk tallies against the per-sample reference path.
//!
//! The reference re-executes chunks with batch 1 and one worker, on the f32 backend in
//! place of the SIMD one (fixed-point backends stay as they are: their reference is
//! their own per-sample path). The chunk geometry is the measured one, so the trials of
//! a chunk are the same trials and the tallies must match exactly. Runs outside the
//! timed region.

use ranger_inject::{
    BackendKind, CampaignConfig, ChunkTally, InjectionTarget, PreparedCampaign, SdcJudge,
    TrialChunk,
};
use ranger_tensor::Tensor;

/// Every this many campaigns, one chunk per arm is checked (campaign 0 always is).
/// This keeps the check's cost near a tenth of the measured time even on the slowest
/// reference path, per-sample f32 ResNet-18.
pub const CHECK_EVERY: usize = 4;

/// Which chunk of a `total`-chunk arm the check re-executes in campaign repetition
/// `k`, if any: chunk 0 first, then a stride of about half the arm, so successive
/// checked campaigns cover both ends.
pub fn sample_index(total: usize, k: usize) -> Option<usize> {
    (total > 0 && k.is_multiple_of(CHECK_EVERY)).then(|| k / CHECK_EVERY * (total / 2 + 1) % total)
}

/// The reference configuration for a measured one: same trials, fault and seed.
pub fn reference_config(measured: &CampaignConfig) -> CampaignConfig {
    CampaignConfig {
        batch: 1,
        workers: 1,
        backend: match measured.backend {
            BackendKind::Simd => BackendKind::F32,
            other => other,
        },
        ..*measured
    }
}

/// Re-executes `samples` on the reference path and counts the chunks whose tally
/// differs from the measured one (a chunk the reference cannot run counts as a
/// mismatch too).
pub fn count_mismatches(
    target: &InjectionTarget<'_>,
    inputs: &[Tensor],
    judge: &dyn SdcJudge,
    measured: &CampaignConfig,
    chunk_len: usize,
    samples: &[(TrialChunk, ChunkTally)],
) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let config = reference_config(measured);
    let Ok(reference) = PreparedCampaign::with_chunk_len(target, inputs, judge, &config, chunk_len)
    else {
        return samples.len() as u64;
    };
    let mut values = reference.buffers();
    samples
        .iter()
        .filter(|(chunk, tally)| {
            reference
                .run_chunk(&mut values, *chunk)
                .map_or(true, |expected| expected != *tally)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_start_at_chunk_zero_and_spread() {
        assert_eq!(sample_index(0, 0), None);
        assert_eq!(sample_index(1, CHECK_EVERY), Some(0));
        assert_eq!(sample_index(8, 1), None);
        let eight: Vec<usize> = (0..8 * CHECK_EVERY)
            .filter_map(|k| sample_index(8, k))
            .collect();
        assert_eq!(eight, vec![0, 5, 2, 7, 4, 1, 6, 3]);
    }

    #[test]
    fn the_reference_is_per_sample_serial_and_scalar() {
        let measured = CampaignConfig {
            trials: 64,
            batch: 16,
            workers: 2,
            backend: BackendKind::Simd,
            fault: ranger_inject::FaultModel::single_bit_fixed32(),
            seed: 9,
            tile: 0,
        };
        let reference = reference_config(&measured);
        assert_eq!(
            (reference.batch, reference.workers, reference.backend),
            (1, 1, BackendKind::F32)
        );
        assert_eq!((reference.trials, reference.seed), (64, 9));
    }
}
