//! The sharding parity property, pinned as a proptest: for ANY chunk partition leased
//! out to ANY number of named worker hosts (2–4), with their records pushed back in ANY
//! order, under ANY batching mode and backend (f32, fixed16 or the runtime-dispatched
//! SIMD path), the counts the coordinator merges are bit-for-bit the counts of an
//! unsharded `run_campaign`.
//!
//! This is the property that makes multi-host sharding pure orchestration: fault plans
//! are keyed by `(input, trial)` index, never by schedule or host, so WHO executes a
//! chunk — and in what order the records arrive — cannot move a single count.
//!
//! Each case plays the fleet by hand: it claims a proptest-chosen partition from a
//! [`Coordinator`] for the named workers, executes every granted chunk with
//! `PreparedCampaign::run_chunk`, and absorbs the records in a proptest-shuffled order,
//! interleaving the workers' tokens. Three legs per case:
//!  1. a fresh fleet matches the unsharded reference, with a monotone, canonical-order
//!     stream and exactly one `CampaignDone`;
//!  2. a store pre-seeded by a partial local `drive` is finished by a fleet with
//!     identical final counts (cross-mode resume, one direction);
//!  3. the fleet's own store replays through the local `drive` with zero
//!     recomputation and identical counts (cross-mode resume, other direction).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use ranger_graph::{Graph, GraphBuilder, NodeId};
use ranger_inject::{
    run_campaign, BackendKind, CampaignConfig, CampaignResult, ClassifierJudge, FaultModel,
    InjectionTarget, PreparedCampaign, SdcJudge,
};
use ranger_runtime::ThreadPool;
use ranger_serve::{
    campaign_fingerprint, default_lease_ms, drive, CampaignEvent, CheckpointStore, ChunkRecord,
    CollectSink, Coordinator, DriveOutcome,
};
use ranger_tensor::Tensor;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

fn toy_classifier(seed: u64) -> (Graph, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let h = b.dense(x, 6, 12, &mut rng);
    let h = b.relu(h);
    let h = b.dense(h, 12, 8, &mut rng);
    let h = b.relu(h);
    let y = b.dense(h, 8, 4, &mut rng);
    let probs = b.softmax(y);
    (b.into_graph(), probs)
}

fn tmp(name: String) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ranger-serve-shard-{}-{name}.jsonl",
        std::process::id()
    ))
}

/// Finishes the campaign in `store` with a hand-played fleet of `hosts` workers:
/// claims are granted round-robin with sizes cycled from `claim_sizes` until nothing
/// is free, every granted chunk is executed, and the records are absorbed sorted by
/// the `order` keys — so tokens of different workers interleave arbitrarily.
fn run_fleet(
    prepared: &PreparedCampaign<'_>,
    store: CheckpointStore,
    hosts: usize,
    claim_sizes: &[usize],
    order: &[u32],
    sink: &mut CollectSink,
) -> CampaignResult {
    let chunks = prepared.chunks();
    let trials_total = (prepared.config().trials * prepared.num_inputs()) as u64;
    let fingerprint = store.fingerprint().to_string();
    let mut coordinator = Coordinator::new(
        store,
        chunks.to_vec(),
        prepared.categories().to_vec(),
        trials_total,
    )
    .unwrap();
    coordinator.begin(sink);

    // One clock reading for every claim: the partition is fixed before any lease could
    // expire, even under a very short RANGER_LEASE_MS.
    let now = Instant::now();
    let mut pushes: Vec<(u64, ChunkRecord)> = Vec::new();
    let mut values = prepared.buffers();
    let mut claim_no = 0usize;
    while let Some(grant) = coordinator.claim(
        &format!("host-{}", claim_no % hosts),
        claim_sizes[claim_no % claim_sizes.len()],
        default_lease_ms(),
        now,
    ) {
        claim_no += 1;
        for &chunk in &chunks[grant.start..grant.end] {
            let tally = prepared.run_chunk(&mut values, chunk).unwrap();
            pushes.push((grant.token, ChunkRecord { chunk, tally }));
        }
    }
    let mut keyed: Vec<(u32, usize, (u64, ChunkRecord))> = pushes
        .into_iter()
        .enumerate()
        .map(|(i, push)| (order[i % order.len()], i, push))
        .collect();
    keyed.sort_by_key(|&(key, i, _)| (key, i));

    for (_, _, (token, record)) in keyed {
        // An expired lease is still accepted as a late push: nobody re-claimed it.
        coordinator
            .absorb(&fingerprint, token, record, Instant::now(), sink)
            .unwrap();
    }
    assert!(coordinator.is_done(), "the fleet must cover every chunk");
    coordinator.cumulative().clone()
}

/// Asserts the stream is monotone, lists every chunk once in canonical order, flags
/// exactly `resumed` of them as resumed, and ends in exactly one `CampaignDone`.
fn assert_canonical_stream(events: &[CampaignEvent], total_chunks: usize, resumed: usize) {
    let mut expected_index = 0usize;
    let mut last_trials = 0u64;
    let mut resumed_seen = 0usize;
    for event in events {
        assert!(event.trials_done() >= last_trials);
        last_trials = event.trials_done();
        if let CampaignEvent::ChunkDone {
            chunk,
            resumed: was_resumed,
            ..
        } = event
        {
            assert_eq!(chunk.index, expected_index);
            expected_index += 1;
            resumed_seen += usize::from(*was_resumed);
        }
    }
    assert_eq!(expected_index, total_chunks);
    assert_eq!(resumed_seen, resumed);
    let dones = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::CampaignDone { .. }))
        .count();
    assert_eq!(dones, 1);
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::CampaignDone { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_partition_across_any_hosts_reproduces_the_unsharded_counts(
        chunk_len in 1usize..8,
        hosts in 2usize..5,
        claim_sizes in prop::collection::vec(1usize..5, 1..8),
        // One sort key per record (a campaign here has at most 20 chunks).
        order in prop::collection::vec(0u32..1000, 20..21),
        preseed in 0usize..12,
        batched in 0u8..2,
        backend_choice in 0u8..3,
        seed in 0u64..1000,
    ) {
        let batched = batched == 1;
        let (graph, probs) = toy_classifier(seed.wrapping_mul(7).wrapping_add(3));
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6]), Tensor::filled(vec![1, 6], 0.3)];
        let judge = ClassifierJudge::top1();
        let (backend, fault) = match backend_choice {
            0 => (BackendKind::F32, FaultModel::single_bit_fixed32()),
            1 => (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
            // The SIMD backend computes f32 semantics, so it pairs with the same
            // emulated fault model as the reference.
            _ => (BackendKind::Simd, FaultModel::single_bit_fixed32()),
        };
        let config = CampaignConfig {
            trials: 10,
            batch: if batched { chunk_len } else { 1 },
            workers: 1,
            backend,
            fault,
            seed,
            tile: 0,
        };

        // Ground truth: the uninterrupted, unsharded in-process API.
        let reference = run_campaign(&target, &inputs, &judge, &config).unwrap();

        let prepared =
            PreparedCampaign::with_chunk_len(&target, &inputs, &judge, &config, chunk_len)
                .unwrap();
        let total_chunks = prepared.chunks().len();
        let fingerprint = campaign_fingerprint(
            &target, &inputs, &config, &judge.categories(), chunk_len,
        ).unwrap();
        let path = tmp(format!(
            "{chunk_len}-{hosts}-{preseed}-{batched}-{backend_choice}-{seed}"
        ));
        let _ = std::fs::remove_file(&path);
        // The local drive's pool width follows RANGER_WORKERS, so the CI sweep at 2
        // workers runs the cross-mode legs through the parallel executor too.
        let pool = ThreadPool::new(ranger_runtime::default_workers());

        // Leg 1: a fresh fleet of `hosts` workers.
        {
            let store = CheckpointStore::open(&path, &fingerprint).unwrap();
            let mut sink = CollectSink::new();
            let result = run_fleet(&prepared, store, hosts, &claim_sizes, &order, &mut sink);
            prop_assert_eq!(&result, &reference);
            assert_canonical_stream(&sink.events, total_chunks, 0);
        }

        // Leg 3 (of the file just written): the fleet's store replays through the local
        // driver — zero forward passes, identical counts. Fleet and local checkpoints
        // are the same durable artifact.
        {
            let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
            prop_assert_eq!(store.len(), total_chunks);
            let cancel = AtomicBool::new(false);
            let mut sink = CollectSink::new();
            let replayed =
                match drive(&prepared, &mut store, &pool, &cancel, &mut sink).unwrap() {
                    DriveOutcome::Completed(result) => result,
                    other => panic!("the replay drive must complete, got {other:?}"),
                };
            prop_assert_eq!(&replayed, &reference);
            assert_canonical_stream(&sink.events, total_chunks, total_chunks);
        }
        let _ = std::fs::remove_file(&path);

        // Leg 2: a local drive killed after `preseed` chunks leaves a durable prefix; a
        // fleet opens the same file and must finish the campaign with the reference
        // counts, replaying the prefix as resumed chunks.
        {
            let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
            let cancel = AtomicBool::new(false);
            let mut sink = CollectSink::stopping_after(preseed);
            drive(&prepared, &mut store, &pool, &cancel, &mut sink).unwrap();
            drop(store);

            let store = CheckpointStore::open(&path, &fingerprint).unwrap();
            let durable_before = store.len();
            let mut sink = CollectSink::new();
            let result = run_fleet(&prepared, store, hosts, &claim_sizes, &order, &mut sink);
            prop_assert_eq!(&result, &reference);
            assert_canonical_stream(&sink.events, total_chunks, durable_before);
        }

        let _ = std::fs::remove_file(&path);
    }
}
