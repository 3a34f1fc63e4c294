//! Campaign identity: a stable 128-bit fingerprint over everything that determines the
//! counts.
//!
//! A checkpoint file may only be resumed by *the same campaign* — same graph (weights
//! included), same inputs, same fault model, seed, backend, judge and chunk geometry.
//! Rather than trusting the caller, the checkpoint store records a fingerprint computed
//! over the canonical JSON serialization of all of those, and a resuming driver refuses
//! a file whose fingerprint differs. The service also uses the fingerprint hex as the
//! campaign's wire-level id, which makes re-submitting a campaign to a restarted server
//! idempotent: identical spec → identical id → the existing checkpoint is picked up.
//!
//! The hash is two independent 64-bit FNV-1a passes (different offset bases) over the
//! same payload, concatenated to 32 hex digits. FNV is not cryptographic — the threat
//! model is accidental mixups (edited config, different seed, wrong model file), not an
//! adversary forging checkpoints.

use crate::ServeError;
use ranger_inject::{CampaignConfig, InjectionTarget};
use ranger_tensor::Tensor;

/// Bumped when the fingerprint payload layout changes, so stale checkpoints are rejected
/// as mismatched rather than misread.
const FINGERPRINT_VERSION: u32 = 1;

/// The canonical FNV-1a 64-bit offset basis.
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent offset basis for the high half of the fingerprint.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the fingerprint of a campaign: 32 hex digits over the graph, target, inputs,
/// configuration, judge categories and chunk geometry.
///
/// `chunk_len` is part of the identity because the checkpoint records whole chunks: a
/// file of 8-trial records cannot resume a 5-trial-chunk campaign. The configuration is
/// hashed wholesale — `workers` included, since the default partition is derived from it.
///
/// # Errors
///
/// Returns [`ServeError::Json`] if serialization of the payload fails.
pub fn campaign_fingerprint(
    target: &InjectionTarget<'_>,
    inputs: &[Tensor],
    config: &CampaignConfig,
    categories: &[String],
    chunk_len: usize,
) -> Result<String, ServeError> {
    // The payload is the field-by-field JSON of everything that determines the counts,
    // joined with an unambiguous separator (JSON strings cannot contain a raw newline).
    let payload = [
        format!("fingerprint-v{FINGERPRINT_VERSION}"),
        serde_json::to_string(target.graph)?,
        serde_json::to_string(target.input_name)?,
        serde_json::to_string(&target.output)?,
        serde_json::to_string(target.excluded)?,
        serde_json::to_string(inputs)?,
        serde_json::to_string(config)?,
        serde_json::to_string(categories)?,
        chunk_len.to_string(),
    ]
    .join("\n");
    let bytes = payload.as_bytes();
    Ok(format!(
        "{:016x}{:016x}",
        fnv1a(bytes, FNV_OFFSET_A),
        fnv1a(bytes, FNV_OFFSET_B)
    ))
}

fn fnv1a(bytes: &[u8], offset: u64) -> u64 {
    let mut hash = offset;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::{Graph, GraphBuilder, NodeId};
    use ranger_inject::{BackendKind, FaultModel};

    fn toy() -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        let probs = b.softmax(y);
        (b.into_graph(), probs)
    }

    fn fingerprint_of(graph: &Graph, output: NodeId, config: &CampaignConfig) -> String {
        let target = InjectionTarget {
            graph,
            input_name: "x",
            output,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 4])];
        campaign_fingerprint(&target, &inputs, config, &["top-1".to_string()], 8).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_well_formed() {
        let (graph, output) = toy();
        let config = CampaignConfig::default();
        let a = fingerprint_of(&graph, output, &config);
        let b = fingerprint_of(&graph, output, &config);
        assert_eq!(a, b, "same campaign must fingerprint identically");
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn fingerprint_distinguishes_seed_config_and_weights() {
        let (graph, output) = toy();
        let base = CampaignConfig::default();
        let reference = fingerprint_of(&graph, output, &base);

        let mut reseeded = base;
        reseeded.seed = base.seed + 1;
        assert_ne!(reference, fingerprint_of(&graph, output, &reseeded));

        let mut retrialed = base;
        retrialed.trials += 1;
        assert_ne!(reference, fingerprint_of(&graph, output, &retrialed));

        let mut reworked = base;
        reworked.workers += 1;
        assert_ne!(
            reference,
            fingerprint_of(&graph, output, &reworked),
            "workers shape the default partition, so they are part of the identity"
        );

        // Different weights (different build seed) — different campaign.
        let mut rng = StdRng::seed_from_u64(99);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        let probs = b.softmax(y);
        let other = b.into_graph();
        assert_ne!(reference, fingerprint_of(&other, probs, &base));
    }

    /// Frozen fingerprints of the toy campaign on the two f32 spellings. Both name the
    /// same kernels, but the serialized backend is part of the payload, so checkpoint
    /// directories written under either name resume only if these stay put.
    #[test]
    fn f32_and_simd_fingerprints_are_frozen() {
        let (graph, output) = toy();
        for (backend, pinned) in [
            (BackendKind::F32, "d0db019047dfc5490ef1d163202e0316"),
            (BackendKind::Simd, "ddcfb33cf645cb85cd99d3d81860f060"),
        ] {
            let config = CampaignConfig {
                trials: 100,
                batch: 1,
                workers: 1,
                backend,
                fault: FaultModel::single_bit_fixed32(),
                seed: 0,
                tile: 0,
            };
            assert_eq!(fingerprint_of(&graph, output, &config), pinned, "{backend}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_chunk_geometry() {
        let (graph, output) = toy();
        let config = CampaignConfig::default();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 4])];
        let categories = vec!["top-1".to_string()];
        let a = campaign_fingerprint(&target, &inputs, &config, &categories, 8).unwrap();
        let b = campaign_fingerprint(&target, &inputs, &config, &categories, 5).unwrap();
        assert_ne!(a, b);
    }
}
