//! Per-(input, trial) RNG stream derivation.
//!
//! The campaign runner used to draw every fault plan from **one** sequential generator:
//! trial `t` of input `i` saw whatever state the previous `i × trials + t` draws left
//! behind. That schedule is inherently serial — a parallel driver would either need to
//! replay the whole prefix per trial or accept different plans per worker count.
//!
//! This module re-keys the randomness: every `(campaign seed, input index, trial index)`
//! triple derives its **own** 64-bit sub-seed via two chained SplitMix64 finalization
//! rounds, and the trial's generator is seeded from that sub-seed alone. Plans therefore
//! depend only on logical indices, never on execution order — serial and parallel
//! campaigns draw identical plans, bit for bit, for any worker count and any chunk
//! length.
//!
//! The derivation is **frozen**: it is the canonical draw order of every campaign in the
//! reproduction (pinned by the `trial_stream_seeds_are_pinned` test below), so reported
//! SDC counts stay comparable across releases and execution strategies.

/// The SplitMix64 increment (the 64-bit golden ratio), used to space the index keys.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalization mix: a bijective avalanche over `u64`.
///
/// This is the output stage of Steele et al.'s SplitMix64 generator (and of
/// `StdRng::seed_from_u64` in the vendored `rand`): every input bit affects every output
/// bit, and distinct inputs map to distinct outputs, so feeding it well-spaced keys
/// yields well-separated sub-seeds.
pub fn splitmix64_mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG sub-seed of trial `trial_index` on input `input_index` for a campaign
/// seeded with `seed`.
///
/// Two chained SplitMix64 rounds: the first binds the input index to the campaign seed,
/// the second binds the trial index to the result. Both rounds offset their key by a
/// small constant before mixing so the all-zero triple does not sit on the mix
/// function's `0 → 0` fixed point. Because [`splitmix64_mix`] is a bijection, for a
/// fixed campaign seed every input index yields a distinct intermediate key and, within
/// it, every trial index a distinct sub-seed.
///
/// Seed the trial's generator from the returned value (e.g.
/// `StdRng::seed_from_u64(trial_stream_seed(seed, i, t))`) and draw the whole fault plan
/// from that generator.
pub fn trial_stream_seed(seed: u64, input_index: u64, trial_index: u64) -> u64 {
    let input_key = splitmix64_mix(
        seed.wrapping_add(input_index.wrapping_mul(GOLDEN_GAMMA))
            .wrapping_add(1),
    );
    splitmix64_mix(
        input_key
            .wrapping_add(trial_index.wrapping_mul(GOLDEN_GAMMA))
            .wrapping_add(2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The canonical draw order of the reproduction: these exact sub-seeds define every
    /// campaign's fault plans. Changing the derivation silently changes every reported
    /// SDC count, so the first few values are pinned here.
    #[test]
    fn trial_stream_seeds_are_pinned() {
        assert_eq!(trial_stream_seed(0, 0, 0), 0xef30_b01c_2974_aeeb);
        assert_eq!(trial_stream_seed(0, 0, 1), 0xd04b_a4a2_b36a_25f3);
        assert_eq!(trial_stream_seed(0, 1, 0), 0x081a_5c13_7785_6b73);
        assert_eq!(trial_stream_seed(42, 0, 0), 0xd8a2_373a_e798_82a9);
        assert_eq!(trial_stream_seed(42, 3, 7), 0x8ae9_9b24_134d_72fd);
    }

    #[test]
    fn mix_is_a_bijection_on_a_sample() {
        // Distinct inputs must produce distinct outputs (spot-check a dense sample).
        let outputs: HashSet<u64> = (0..10_000u64).map(splitmix64_mix).collect();
        assert_eq!(outputs.len(), 10_000);
    }

    #[test]
    fn nearby_indices_get_unrelated_seeds() {
        let mut seen = HashSet::new();
        for seed in [0u64, 1, 42] {
            for input in 0..8u64 {
                for trial in 0..64u64 {
                    assert!(
                        seen.insert(trial_stream_seed(seed, input, trial)),
                        "collision at seed {seed}, input {input}, trial {trial}"
                    );
                }
            }
        }
    }

    #[test]
    fn streams_are_independent_of_draw_history() {
        // Drawing 10 values from trial (0, 0) then seeding trial (0, 1) matches seeding
        // trial (0, 1) directly — nothing about one stream leaks into another.
        let mut first = StdRng::seed_from_u64(trial_stream_seed(9, 0, 0));
        for _ in 0..10 {
            let _: u64 = first.gen_range(0..u64::MAX);
        }
        let mut a = StdRng::seed_from_u64(trial_stream_seed(9, 0, 1));
        let mut b = StdRng::seed_from_u64(trial_stream_seed(9, 0, 1));
        for _ in 0..32 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn zero_triple_avoids_the_mix_fixed_point() {
        assert_eq!(splitmix64_mix(0), 0, "the raw mix fixes zero");
        assert_ne!(
            trial_stream_seed(0, 0, 0),
            0,
            "the keyed derivation must not"
        );
    }
}
